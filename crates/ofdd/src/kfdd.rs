//! Decomposition search for ordered Kronecker FDDs (OKFDDs).
//!
//! The paper's related work (\[1\] Becker & Drechsler, \[16\] Sarabi et al.)
//! generalizes OFDDs by letting *each variable* pick its own
//! [`Decomposition`]. A pure-Davio list is exactly an OFDD (and its paths
//! are an FPRM form); a pure-Shannon list is a BDD. Mixed lists often beat
//! both — MUX-flavored variables want Shannon, parity-flavored variables
//! want Davio — which is why the paper lists OKFDD synthesis as the
//! natural extension of its flow. The diagram, its BDD conversion and its
//! lowering are [`OfddManager`]'s; this module searches for the list.

use crate::{Decomposition, Ofdd, OfddManager};
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};

/// Greedy per-variable decomposition search: starting from all
/// positive-Davio (the OFDD), repeatedly retypes the single variable whose
/// change most reduces the node count, until a local minimum. Returns the
/// winning manager and root.
///
/// Under a node-capped manager, candidate retypes that trip the cap are
/// simply skipped (the best affordable decomposition so far is kept); the
/// call only errors when even the base all-positive-Davio build is
/// unaffordable.
pub fn optimize_decomposition(
    bm: &mut BddManager,
    f: Bdd,
) -> Result<(OfddManager, Ofdd), NodeLimitExceeded> {
    let n = bm.num_vars();
    let all = [
        Decomposition::Shannon,
        Decomposition::PositiveDavio,
        Decomposition::NegativeDavio,
    ];
    let mut types = vec![Decomposition::PositiveDavio; n];
    let mut best_size = {
        let mut m = OfddManager::with_types(types.clone());
        let r = m.from_bdd(bm, f)?;
        m.size(r)
    };
    loop {
        let mut improved = false;
        for v in 0..n {
            let orig = types[v];
            for d in all {
                if d == orig {
                    continue;
                }
                types[v] = d;
                let mut m = OfddManager::with_types(types.clone());
                match m.from_bdd(bm, f) {
                    Ok(r) => {
                        let s = m.size(r);
                        if s < best_size {
                            best_size = s;
                            improved = true;
                        } else {
                            types[v] = orig;
                        }
                    }
                    // unaffordable candidate: keep the best so far
                    Err(_) => types[v] = orig,
                }
            }
        }
        if !improved {
            break;
        }
    }
    let mut m = OfddManager::with_types(types);
    // every retype kept in `types` was built successfully above, so the
    // final rebuild replays cached XORs and cannot trip
    let r = m.from_bdd(bm, f)?;
    Ok((m, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_boolean::{Polarity, TruthTable};

    fn ofdd_node_count(t: &TruthTable) -> usize {
        let mut om = OfddManager::new(Polarity::all_positive(t.num_vars()));
        let o = om.from_table(t).expect("uncapped");
        om.size(o)
    }

    #[test]
    fn greedy_never_worse_than_ofdd() {
        for seed in 0..8u64 {
            let mut s = seed;
            let t = TruthTable::from_fn(6, |m| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(m + 3);
                (s >> 40) & 7 < 3
            });
            let mut bm = BddManager::new(6);
            let f = bm.from_table(&t).expect("uncapped");
            let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
            assert!(m.size(r) <= ofdd_node_count(&t), "seed {seed}");
            for mt in 0..64u64 {
                assert_eq!(m.eval(r, mt), t.eval(mt));
            }
        }
    }

    #[test]
    fn mux_prefers_shannon() {
        // f = s ? a : b — one Shannon node at s beats Davio chains
        let t = TruthTable::from_fn(3, |m| if m & 1 != 0 { m & 2 != 0 } else { m & 4 != 0 });
        let mut bm = BddManager::new(3);
        let f = bm.from_table(&t).expect("uncapped");
        let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
        assert!(
            m.size(r) <= 3,
            "mux should be tiny under mixed types, got {}",
            m.size(r)
        );
    }

    #[test]
    fn parity_prefers_davio() {
        let t = TruthTable::from_fn(8, |m| m.count_ones() % 2 == 1);
        let mut bm = BddManager::new(8);
        let f = bm.from_table(&t).expect("uncapped");
        let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
        // pure Davio gives n nodes; Shannon would give 2n-1
        assert_eq!(m.size(r), 8);
        assert!(m.types().iter().all(|d| *d != Decomposition::Shannon));
    }
}
