//! Algebraic factorization of FPRM forms (Section 3 of the paper).
//!
//! Two methods are provided, exactly as in the paper:
//!
//! * **Method 1 — the cube method** ([`factor_cubes`]): takes the FPRM cube
//!   list, divides it into groups with disjoint support (step 2), divides
//!   each group into subgroups with maximal common support by recursively
//!   factoring on the most frequent variable (steps 3–4, rule (d)), applies
//!   the Reduction rules, and joins group subnetworks by a balanced binary
//!   XOR tree (step 5). The cubes are [`CubeRows`] literal masks: the
//!   groups come from a union-find that joins each cube to the first cube
//!   holding each of its literals, and the most frequent variable from
//!   the rows' column popcounts.
//! * **Method 2 — the OFDD method** ([`ofdd_to_network`]): translates each
//!   OFDD node into one AND and one XOR gate implementing its Davio
//!   expansion, sharing common subgraphs, in a single traversal.

use crate::expr::Gexpr;
use xsynth_boolean::{mask_ones, CubeRows, FxHashMap, Polarity};
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_ofdd::{Ofdd, OfddManager};
use xsynth_trace::TraceBuffer;

/// Factors an FPRM cube list into a [`Gexpr`] (the cube method).
///
/// When `apply_rules` is set, the paper's Reduction rules (a)–(c) rewrite
/// reducible XOR operators into AND/OR during factorization; otherwise the
/// expression keeps every XOR (assumption (3) of Section 4, which the
/// redundancy-removal pass expects).
pub fn factor_cubes(cubes: &CubeRows, apply_rules: bool) -> Gexpr {
    xsynth_trace::fail_point!("core.factor");
    // Assumption (2): the constant-one cube becomes an inverter at the
    // primary output (f = g ⊕ 1 = ¬g).
    let mut constant_parity = false;
    let mut proper = CubeRows::with_stride(cubes.stride());
    for row in cubes.rows() {
        if is_zero(row) {
            constant_parity = !constant_parity;
        } else {
            proper.push(row);
        }
    }
    let body = factor_set(&proper);
    let body = if apply_rules {
        body.apply_rules()
    } else {
        body.normalize()
    };
    if constant_parity {
        Gexpr::Not(Box::new(body)).normalize()
    } else {
        body
    }
}

/// [`factor_cubes`] recording into a trace buffer: runs inside a
/// `factor_cubes` span counting the cubes factored (`factor.cubes`) and
/// the calls made (`factor.calls`).
pub fn factor_cubes_traced(cubes: &CubeRows, apply_rules: bool, buf: &mut TraceBuffer) -> Gexpr {
    buf.span("factor_cubes", |buf| {
        buf.count("factor.calls", 1);
        buf.count("factor.cubes", cubes.len() as u64);
        factor_cubes(cubes, apply_rules)
    })
}

/// Step 2: partitions cubes into groups with pairwise-disjoint support,
/// by a union-find over the cubes that joins each cube to the first cube
/// holding each of its literals. Groups come in the order of their
/// smallest literal (a group holding the empty cube first), and each
/// keeps its cubes in input order.
pub fn disjoint_groups(cubes: &CubeRows) -> Vec<CubeRows> {
    const NONE: u32 = u32::MAX;
    fn find(parent: &mut [u32], mut i: u32) -> u32 {
        while parent[i as usize] != i {
            let up = parent[parent[i as usize] as usize];
            parent[i as usize] = up;
            i = up;
        }
        i
    }
    let mut parent: Vec<u32> = (0..cubes.len() as u32).collect();
    let mut first = vec![NONE; 64 * cubes.stride()];
    for (i, row) in cubes.rows().enumerate() {
        for l in mask_ones(row) {
            if first[l] == NONE {
                first[l] = i as u32;
            } else {
                let (a, b) = (find(&mut parent, i as u32), find(&mut parent, first[l]));
                parent[a as usize] = b;
            }
        }
    }
    let mut group_of = vec![NONE; cubes.len()];
    let mut groups: Vec<(Option<usize>, CubeRows)> = Vec::new();
    for (i, row) in cubes.rows().enumerate() {
        let root = find(&mut parent, i as u32) as usize;
        if group_of[root] == NONE {
            group_of[root] = groups.len() as u32;
            groups.push((Some(usize::MAX), CubeRows::with_stride(cubes.stride())));
        }
        let (least, g) = &mut groups[group_of[root] as usize];
        // the empty cube has no literal and sorts first, as `None` does
        *least = (*least).min(mask_ones(row).next());
        g.push(row);
    }
    groups.sort_by_key(|g| g.0);
    groups.into_iter().map(|g| g.1).collect()
}

/// Factors a cube set: groups disjointly, factors each group and joins the
/// results with a balanced XOR tree.
fn factor_set(cubes: &CubeRows) -> Gexpr {
    if cubes.is_empty() {
        return Gexpr::Zero;
    }
    let groups = disjoint_groups(cubes);
    let exprs: Vec<Gexpr> = groups.iter().map(factor_group).collect();
    match exprs.len() {
        1 => exprs.into_iter().next().expect("one"),
        _ => Gexpr::Xor(exprs),
    }
}

/// Steps 3–4 on a connected group: factor out the most frequent variable
/// (Factorization rule (d)), recursing into both halves. The frequencies
/// are the column popcounts of the rows; ties go to the smallest
/// variable.
fn factor_group(cubes: &CubeRows) -> Gexpr {
    if cubes.is_empty() {
        return Gexpr::Zero;
    }
    if cubes.len() == 1 {
        return Gexpr::cube(mask_ones(cubes.row(0)));
    }
    let mut counts = vec![0u32; 64 * cubes.stride()];
    for row in cubes.rows() {
        mask_ones(row).for_each(|l| counts[l] += 1);
    }
    let (mut best_var, mut best_count) = (0, 0);
    for (v, &c) in counts.iter().enumerate() {
        if c > best_count {
            (best_var, best_count) = (v, c);
        }
    }
    if best_count < 2 {
        // no shareable variable: plain XOR of cube terms
        return Gexpr::Xor(cubes.rows().map(|c| Gexpr::cube(mask_ones(c))).collect());
    }
    let (w, bit) = (best_var / 64, 1u64 << (best_var % 64));
    // the inner part may contain the empty cube (the factored literal
    // alone); empty cubes XOR-accumulate into a parity bit
    let mut inner_parity = false;
    let mut proper = CubeRows::with_stride(cubes.stride());
    let mut without = CubeRows::with_stride(cubes.stride());
    for row in cubes.rows() {
        if row[w] & bit == 0 {
            without.push(row);
        } else if row
            .iter()
            .enumerate()
            .all(|(i, &x)| x == if i == w { bit } else { 0 })
        {
            inner_parity = !inner_parity;
        } else {
            let quotient = proper.push_zero();
            quotient.copy_from_slice(row);
            quotient[w] &= !bit;
        }
    }
    let inner = if proper.is_empty() {
        if inner_parity {
            Gexpr::One
        } else {
            Gexpr::Zero
        }
    } else {
        let e = factor_set(&proper);
        if inner_parity {
            Gexpr::Xor(vec![e, Gexpr::One])
        } else {
            e
        }
    };
    let term = Gexpr::And(vec![Gexpr::Lit(best_var), inner]);
    if without.is_empty() {
        term
    } else {
        let rest = factor_set(&without);
        Gexpr::Xor(vec![term, rest])
    }
}

fn is_zero(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Lowers an OFDD into gates (the paper's Method 2): each internal node
/// becomes `lo ⊕ λ·hi` (one AND + one two-input XOR), with DAG sharing
/// preserved, in one topological traversal. Returns the signal of the
/// root.
///
/// `literal_sig` supplies the polarity-adjusted literal signal of a
/// variable (as in [`Gexpr::emit`]).
pub fn ofdd_to_network(
    om: &OfddManager,
    root: Ofdd,
    net: &mut Network,
    literal_sig: &mut dyn FnMut(&mut Network, usize) -> SignalId,
) -> SignalId {
    if root == Ofdd::ZERO {
        return net.add_gate(GateKind::Const0, vec![]);
    }
    if root == Ofdd::ONE {
        return net.add_gate(GateKind::Const1, vec![]);
    }
    let mut map: FxHashMap<Ofdd, SignalId> = FxHashMap::default();
    for (h, var, lo, hi) in om.topo_nodes(root) {
        let lit = literal_sig(net, var);
        // hi is never ZERO in a reduced OFDD
        let and_part = if hi == Ofdd::ONE {
            lit
        } else {
            net.add_gate(GateKind::And, vec![lit, map[&hi]])
        };
        let sig = match lo {
            Ofdd::ZERO => and_part,
            Ofdd::ONE => net.add_gate(GateKind::Not, vec![and_part]),
            _ => net.add_gate(GateKind::Xor, vec![map[&lo], and_part]),
        };
        map.insert(h, sig);
    }
    map[&root]
}

/// Builds a literal-signal supplier for a polarity over a fixed input
/// list: positive literals are the inputs themselves, negative literals
/// get one shared NOT gate per variable.
pub fn literal_supplier(
    polarity: &Polarity,
    inputs: &[SignalId],
) -> impl FnMut(&mut Network, usize) -> SignalId {
    let polarity = polarity.clone();
    let inputs = inputs.to_vec();
    let mut not_cache: FxHashMap<usize, SignalId> = FxHashMap::default();
    move |net: &mut Network, v: usize| {
        if polarity.is_positive(v) {
            inputs[v]
        } else {
            *not_cache
                .entry(v)
                .or_insert_with(|| net.add_gate(GateKind::Not, vec![inputs[v]]))
        }
    }
}

#[cfg(test)]
mod reference {
    use crate::expr::Gexpr;
    use std::collections::HashMap;
    use xsynth_boolean::VarSet;

    /// The cube method on [`VarSet`] cubes, as first written: the oracle
    /// [`super::factor_cubes`] must match expression for expression.
    pub(super) fn factor_cubes(cubes: &[VarSet], apply_rules: bool) -> Gexpr {
        let constant_parity = cubes.iter().filter(|c| c.is_empty()).count() % 2 == 1;
        let proper: Vec<VarSet> = cubes.iter().filter(|c| !c.is_empty()).cloned().collect();
        let body = factor_set(&proper);
        let body = if apply_rules {
            body.apply_rules()
        } else {
            body.normalize()
        };
        if constant_parity {
            Gexpr::Not(Box::new(body)).normalize()
        } else {
            body
        }
    }

    /// Step 2 by pairwise support tests.
    #[allow(clippy::needless_range_loop)]
    pub(super) fn disjoint_groups(cubes: &[VarSet]) -> Vec<Vec<VarSet>> {
        let n = cubes.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if !cubes[i].is_disjoint(&cubes[j]) {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
            }
        }
        let mut groups: HashMap<usize, Vec<VarSet>> = HashMap::new();
        for i in 0..n {
            let r = find(&mut parent, i);
            groups.entry(r).or_default().push(cubes[i].clone());
        }
        let mut out: Vec<Vec<VarSet>> = groups.into_values().collect();
        out.sort_by_key(|g| g.iter().map(VarSet::min_var).min().flatten());
        out
    }

    fn factor_set(cubes: &[VarSet]) -> Gexpr {
        if cubes.is_empty() {
            return Gexpr::Zero;
        }
        let groups = disjoint_groups(cubes);
        let exprs: Vec<Gexpr> = groups.iter().map(|g| factor_group(g)).collect();
        match exprs.len() {
            1 => exprs.into_iter().next().expect("one"),
            _ => Gexpr::Xor(exprs),
        }
    }

    fn factor_group(cubes: &[VarSet]) -> Gexpr {
        if cubes.is_empty() {
            return Gexpr::Zero;
        }
        if cubes.len() == 1 {
            return Gexpr::cube(cubes[0].iter());
        }
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for c in cubes {
            for v in c.iter() {
                *counts.entry(v).or_default() += 1;
            }
        }
        let (&best_var, &best_count) = counts
            .iter()
            .max_by_key(|&(v, c)| (*c, std::cmp::Reverse(*v)))
            .expect("non-empty cubes");
        if best_count < 2 {
            return Gexpr::Xor(cubes.iter().map(|c| Gexpr::cube(c.iter())).collect());
        }
        let mut with_v: Vec<VarSet> = Vec::new();
        let mut without: Vec<VarSet> = Vec::new();
        for c in cubes {
            if c.contains(best_var) {
                let mut c2 = c.clone();
                c2.remove(best_var);
                with_v.push(c2);
            } else {
                without.push(c.clone());
            }
        }
        let inner_parity = with_v.iter().filter(|c| c.is_empty()).count() % 2 == 1;
        let proper: Vec<VarSet> = with_v.into_iter().filter(|c| !c.is_empty()).collect();
        let inner = if proper.is_empty() {
            if inner_parity {
                Gexpr::One
            } else {
                Gexpr::Zero
            }
        } else {
            let e = factor_set(&proper);
            if inner_parity {
                Gexpr::Xor(vec![e, Gexpr::One])
            } else {
                e
            }
        };
        let term = Gexpr::And(vec![Gexpr::Lit(best_var), inner]);
        if without.is_empty() {
            term
        } else {
            let rest = factor_set(&without);
            Gexpr::Xor(vec![term, rest])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_boolean::{Fprm, TruthTable, VarSet};

    fn rows(cubes: &[VarSet]) -> CubeRows {
        CubeRows::from_sets(0, cubes)
    }

    fn check_expr_matches_fprm(cubes: &[VarSet], n: usize, apply_rules: bool) {
        let f = Fprm::new(Polarity::all_positive(n), cubes.to_vec());
        let e = factor_cubes(&rows(cubes), apply_rules);
        for m in 0..(1u64 << n) {
            let env = |v: usize| m & (1 << v) != 0;
            assert_eq!(e.eval(&env), f.eval(m), "mismatch at {m} for {e}");
        }
    }

    #[test]
    fn disjoint_grouping() {
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([2]),
            VarSet::from_vars([1, 3]),
            VarSet::from_vars([4, 5]),
        ];
        let groups = disjoint_groups(&rows(&cubes));
        assert_eq!(groups.len(), 3);
        let sizes: Vec<usize> = groups.iter().map(CubeRows::len).collect();
        assert!(sizes.contains(&2), "cubes sharing x1 group together");
    }

    #[test]
    fn factoring_preserves_function() {
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([0, 2]),
            VarSet::from_vars([3]),
            VarSet::from_vars([1, 2, 3]),
        ];
        check_expr_matches_fprm(&cubes, 4, false);
        check_expr_matches_fprm(&cubes, 4, true);
    }

    #[test]
    fn factoring_shares_common_variable() {
        // x0x1 ⊕ x0x2 ⊕ x0x3 = x0(x1 ⊕ x2 ⊕ x3): 4 literals
        let cubes = vec![
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([0, 2]),
            VarSet::from_vars([0, 3]),
        ];
        let e = factor_cubes(&rows(&cubes), false);
        assert_eq!(e.num_literals(), 4, "{e}");
        check_expr_matches_fprm(&cubes, 4, false);
    }

    #[test]
    fn constant_cube_becomes_top_inverter() {
        // 1 ⊕ x0x1
        let cubes = vec![VarSet::new(), VarSet::from_vars([0, 1])];
        let e = factor_cubes(&rows(&cubes), false);
        assert!(matches!(e, Gexpr::Not(_)), "{e}");
        check_expr_matches_fprm(&cubes, 2, false);
    }

    #[test]
    fn adder_sum_factors_well() {
        // z4ml's x26 (paper): x3 ⊕ x6 ⊕ x1x4 ⊕ x1x7 ⊕ x4x7 — renumbered to
        // 0..5: a ⊕ b ⊕ cd ⊕ ce ⊕ de
        let cubes = vec![
            VarSet::from_vars([0]),
            VarSet::from_vars([1]),
            VarSet::from_vars([2, 3]),
            VarSet::from_vars([2, 4]),
            VarSet::from_vars([3, 4]),
        ];
        check_expr_matches_fprm(&cubes, 5, false);
        check_expr_matches_fprm(&cubes, 5, true);
        let e = factor_cubes(&rows(&cubes), false);
        // factoring shares one variable: ≤ 7 literals vs 8 flat
        assert!(e.num_literals() <= 7, "{e}");
    }

    #[test]
    fn random_cube_sets_roundtrip() {
        let mut seed = 77u64;
        let mut rand = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(99991);
            (seed >> 33) as usize
        };
        for _ in 0..40 {
            let n = 5;
            let m = 1 + rand() % 6;
            let mut cubes = Vec::new();
            for _ in 0..m {
                let mut c = VarSet::new();
                for v in 0..n {
                    if rand() % 3 == 0 {
                        c.insert(v);
                    }
                }
                cubes.push(c);
            }
            // XOR algebra: duplicate cubes cancel; keep as-is, the factored
            // expression must match the Fprm evaluation which also xors.
            check_expr_matches_fprm(&cubes, n, false);
            check_expr_matches_fprm(&cubes, n, true);
        }
    }

    #[test]
    fn ofdd_method_matches_function() {
        let t = TruthTable::from_fn(6, |m| (m * 11 + 2) % 7 < 3);
        for pol_idx in [0u64, 0b101010, 0b111111] {
            let pol = Polarity::from_index(6, pol_idx);
            let mut om = OfddManager::new(pol.clone());
            let o = om.from_table(&t).unwrap();
            let mut net = Network::new("m2");
            let inputs: Vec<SignalId> = (0..6).map(|i| net.add_input(format!("x{i}"))).collect();
            let mut lits = literal_supplier(&pol, &inputs);
            let s = ofdd_to_network(&om, o, &mut net, &mut lits);
            net.add_output("f", s);
            for m in 0..64u64 {
                assert_eq!(net.eval_u64(m)[0], t.eval(m), "pol {pol_idx} m {m}");
            }
        }
    }

    #[test]
    fn ofdd_method_xor_gates_are_binary() {
        let t = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
        let pol = Polarity::all_positive(5);
        let mut om = OfddManager::new(pol.clone());
        let o = om.from_table(&t).unwrap();
        let mut net = Network::new("m2b");
        let inputs: Vec<SignalId> = (0..5).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut lits = literal_supplier(&pol, &inputs);
        let s = ofdd_to_network(&om, o, &mut net, &mut lits);
        net.add_output("f", s);
        for id in net.topo_order() {
            if net.gate_kind(id) == Some(GateKind::Xor) {
                assert_eq!(net.fanins(id).len(), 2);
            }
        }
    }

    #[test]
    fn ofdd_method_constants() {
        let pol = Polarity::all_positive(3);
        let mut om = OfddManager::new(pol.clone());
        let zero = om.from_table(&TruthTable::zero(3)).unwrap();
        let mut net = Network::new("c");
        let inputs: Vec<SignalId> = (0..3).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut lits = literal_supplier(&pol, &inputs);
        let s = ofdd_to_network(&om, zero, &mut net, &mut lits);
        net.add_output("z", s);
        assert_eq!(net.eval_u64(5), vec![false]);
    }

    #[test]
    fn parity_balanced_tree_depth() {
        // 8-var parity through the cube method: the balanced XOR join
        // should give depth ~log2(8) in XOR gates
        let cubes: Vec<VarSet> = (0..8).map(VarSet::singleton).collect();
        let e = factor_cubes(&rows(&cubes), false);
        assert_eq!(e.num_xor_ops(), 7);
        let mut net = Network::new("p");
        let inputs: Vec<SignalId> = (0..8).map(|i| net.add_input(format!("x{i}"))).collect();
        let pol = Polarity::all_positive(8);
        let mut lits = literal_supplier(&pol, &inputs);
        let s = e.emit(&mut net, &mut lits);
        net.add_output("p", s);
        // depth check
        let mut depth: FxHashMap<SignalId, usize> = FxHashMap::default();
        let mut max_depth = 0;
        for id in net.topo_order() {
            let d = net
                .fanins(id)
                .iter()
                .map(|f| depth[f] + 1)
                .max()
                .unwrap_or(0);
            depth.insert(id, d);
            max_depth = max_depth.max(d);
        }
        assert!(max_depth <= 4, "balanced tree expected, depth {max_depth}");
    }

    /// Random cube sets for the oracle: up to 12 cubes over 9 literals
    /// from `offset` (so offsets 60 and 120 put literals on both sides of
    /// a word boundary), each literal in a cube with probability 1/3; a
    /// cube is left empty (a constant cube) with probability 1/8, and
    /// cubes may repeat.
    fn random_cubes(seed: u64, offset: usize) -> Vec<VarSet> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        (0..next(13))
            .map(|_| {
                if next(8) == 0 {
                    return VarSet::new();
                }
                (0..9)
                    .filter(|_| next(3) == 0)
                    .map(|v| offset + v)
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(300))]

        /// The row-based cube method gives the expression of the `VarSet`
        /// version, with and without the Reduction rules: on random cube
        /// sets (constant cubes, quotients that leave the factored literal
        /// alone, multi-word literals) and on block mode's cubes (an
        /// FPRM of a random table under a random polarity).
        #[test]
        fn factor_cubes_matches_reference(
            seed in proptest::arbitrary::any::<u64>(),
            offset in 0usize..3,
            table in proptest::arbitrary::any::<u64>(),
            pol in 0u64..64,
        ) {
            let cubes = random_cubes(seed, 60 * offset);
            let fprm = Fprm::from_table(
                &TruthTable::from_fn(6, |m| table >> m & 1 == 1),
                &Polarity::from_index(6, pol),
            );
            for set in [&cubes[..], fprm.cubes()] {
                let groups: Vec<Vec<VarSet>> =
                    disjoint_groups(&rows(set)).iter().map(CubeRows::to_sets).collect();
                proptest::prop_assert_eq!(groups, reference::disjoint_groups(set));
                for apply_rules in [false, true] {
                    proptest::prop_assert_eq!(
                        factor_cubes(&rows(set), apply_rules),
                        reference::factor_cubes(set, apply_rules)
                    );
                }
            }
        }
    }

    /// The oracle's random sets reach the cases it is named after.
    #[test]
    fn factor_oracle_generator_reaches_its_cases() {
        let (mut constant, mut inner, mut wide) = (0, 0, 0);
        for seed in 0..100 {
            let cubes = random_cubes(seed, 60);
            constant += usize::from(cubes.iter().any(VarSet::is_empty));
            wide += usize::from(
                cubes
                    .iter()
                    .any(|c| c.min_var() < Some(64) && c.max_var() >= Some(64)),
            );
            // a cube that is one literal alone beside a cube that holds it
            inner += usize::from(
                cubes
                    .iter()
                    .any(|c| c.len() == 1 && cubes.iter().any(|d| d.len() > 1 && c.is_subset(d))),
            );
        }
        assert!(constant >= 10, "constant cubes in {constant}/100");
        assert!(inner >= 10, "inner parity in {inner}/100");
        assert!(wide >= 10, "multi-word cubes in {wide}/100");
    }
}
