//! The paper's primary-input pattern sets (Section 4).
//!
//! All pattern construction happens in *literal space* — a literal mask
//! says which polarity-adjusted literals are 1 — and is translated to
//! variable space through the polarity vector:
//!
//! * **AZ** — all literals 0 (sets every XOR gate input to 0, Property 1);
//! * **AO** — all literals 1;
//! * **OC** — one pattern per FPRM cube, with exactly that cube's literals
//!   at 1;
//! * **SA1** — per cube, per literal: the OC pattern with that literal
//!   dropped to 0 (tests stuck-at-1 faults on first-level AND fanins);
//! * **closures** — unions of small cube subsets, the decidable family the
//!   paper's parity-enumeration walks to settle the controllability of
//!   missing XOR input patterns.

use xsynth_boolean::{Polarity, VarSet};
pub use xsynth_sim::Pattern;

/// Outputs with more cubes than this get only AZ and AO: their OC, SA1 and
/// closure patterns would dwarf the simulation budget.
pub(crate) const MAX_CUBES: usize = 512;

/// Cap on closure (cube-union) patterns per output.
const MAX_CLOSURES: usize = 4096;

/// Converts a literal mask to a variable-space pattern: a variable whose
/// literal is negative reads `1` when its literal is `0`.
fn literal_mask_to_pattern(n: usize, polarity: &Polarity, mask: &VarSet) -> Pattern {
    (0..n)
        .map(|v| {
            let lit = mask.contains(v);
            if polarity.is_positive(v) {
                lit
            } else {
                !lit
            }
        })
        .collect()
}

#[allow(clippy::needless_range_loop)]
/// Generates the paper's pattern family for one output function given its
/// FPRM cubes and polarity. Always includes AZ and AO; includes OC, SA1
/// and up to 4096 pair/triple closures when there are at most 512 cubes.
pub fn paper_patterns(n: usize, polarity: &Polarity, cubes: &[VarSet]) -> Vec<Pattern> {
    let mut masks: Vec<VarSet> = vec![VarSet::new(), VarSet::full(n)];
    if cubes.len() <= MAX_CUBES {
        // OC
        masks.extend(cubes.iter().cloned());
        // SA1
        for c in cubes {
            for v in c.iter() {
                let mut m = c.clone();
                m.remove(v);
                masks.push(m);
            }
        }
        // closures: unions of pairs and triples
        let mut closures = 0usize;
        'outer: for i in 0..cubes.len() {
            for j in (i + 1)..cubes.len() {
                let pair = cubes[i].union(&cubes[j]);
                masks.push(pair.clone());
                closures += 1;
                if closures >= MAX_CLOSURES {
                    break 'outer;
                }
                for k in (j + 1)..cubes.len() {
                    if closures >= MAX_CLOSURES {
                        break 'outer;
                    }
                    masks.push(pair.union(&cubes[k]));
                    closures += 1;
                }
            }
        }
    }
    masks.sort();
    masks.dedup();
    masks
        .iter()
        .map(|m| literal_mask_to_pattern(n, polarity, m))
        .collect()
}

/// Merges per-output pattern lists, deduplicating.
pub fn merge_patterns(lists: Vec<Vec<Pattern>>) -> Vec<Pattern> {
    let mut all: Vec<Pattern> = lists.into_iter().flatten().collect();
    all.sort();
    all.dedup();
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn az_pattern_respects_polarity() {
        // negative-polarity variables read 1 when their literal is 0
        let pol = Polarity::from_bits(&[true, false, true]);
        let p = literal_mask_to_pattern(3, &pol, &VarSet::new());
        assert_eq!(p, vec![false, true, false]);
    }

    #[test]
    fn oc_pattern_sets_cube_literals() {
        let pol = Polarity::all_positive(4);
        let cube = VarSet::from_vars([1, 3]);
        let p = literal_mask_to_pattern(4, &pol, &cube);
        assert_eq!(p, vec![false, true, false, true]);
    }

    #[test]
    fn family_contains_az_ao_oc_sa1() {
        let pol = Polarity::all_positive(3);
        let cubes = vec![VarSet::from_vars([0, 1]), VarSet::from_vars([2])];
        let pats = paper_patterns(3, &pol, &cubes);
        let az = vec![false, false, false];
        let ao = vec![true, true, true];
        let oc1 = vec![true, true, false];
        let oc2 = vec![false, false, true];
        let sa1 = vec![true, false, false]; // cube {0,1} minus literal 1
        for want in [&az, &ao, &oc1, &oc2, &sa1] {
            assert!(pats.contains(want), "missing {want:?}");
        }
        // closure of the two cubes
        let closure = vec![true, true, true]; // same as AO here
        assert!(pats.contains(&closure));
    }

    #[test]
    fn large_cube_counts_fall_back_to_az_ao() {
        let pol = Polarity::all_positive(4);
        let cubes: Vec<VarSet> = (0..=MAX_CUBES).map(|i| VarSet::singleton(i % 4)).collect();
        let pats = paper_patterns(4, &pol, &cubes);
        assert_eq!(pats.len(), 2, "only AZ and AO expected");
    }

    #[test]
    fn closure_cap_respected() {
        // 40 single-literal cubes have 780 pairs and 9880 triples, all
        // distinct; their SA1 masks collapse onto AZ
        let pol = Polarity::all_positive(40);
        let cubes: Vec<VarSet> = (0..40).map(VarSet::singleton).collect();
        let pats = paper_patterns(40, &pol, &cubes);
        assert_eq!(pats.len(), 2 + 40 + MAX_CLOSURES);
    }

    #[test]
    fn merge_dedupes() {
        let a = vec![vec![true], vec![false]];
        let b = vec![vec![true]];
        let m = merge_patterns(vec![a, b]);
        assert_eq!(m.len(), 2);
    }
}
