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
//!
//! Every mask is a fixed-width row of 64-bit words ([`PatternRows`]):
//! unions are word ORs, deduplication is an integer sort, and the
//! polarity vector applies as one XOR per word. The rows go to the
//! simulator through one transpose ([`PatternRows::to_blocks`]).

use xsynth_boolean::{mask_ones, CubeRows, Polarity};
use xsynth_sim::PatternRows;

/// Outputs with more cubes than this get only AZ and AO: their OC, SA1 and
/// closure patterns would dwarf the simulation budget.
pub(crate) const MAX_CUBES: usize = 512;

/// Cap on closure (cube-union) patterns per output.
const MAX_CLOSURES: usize = 4096;

/// Generates the paper's pattern family for one output function given its
/// FPRM cubes (rows of variables, as [`OfddManager::cubes`] gives them)
/// and polarity. Always includes AZ and AO; includes OC, SA1
/// and up to 4096 pair/triple closures when there are at most 512 cubes.
///
/// The rows are distinct and sorted by literal mask (numerically, word 0
/// first: the order of the masks' [`VarSet`](xsynth_boolean::VarSet)s), then mapped to variable
/// space: a variable whose literal is negative reads `1` when its literal
/// is `0`.
///
/// [`OfddManager::cubes`]: xsynth_ofdd::OfddManager::cubes
pub fn paper_patterns(n: usize, polarity: &Polarity, cubes: &CubeRows) -> PatternRows {
    let mut masks = PatternRows::new(n);
    masks.push_zero(); // AZ
    let ao = masks.push_zero();
    (0..n).for_each(|v| set_var(ao, v));
    if cubes.len() <= MAX_CUBES {
        let mut oc = PatternRows::new(n);
        for c in cubes.rows() {
            let row = oc.push_zero();
            mask_ones(c).for_each(|v| set_var(row, v));
        }
        masks.append(&oc);
        // SA1
        for c in oc.rows() {
            for (w, &word) in c.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let row = masks.push_zero();
                    row.copy_from_slice(c);
                    row[w] ^= bits & bits.wrapping_neg();
                    bits &= bits - 1;
                }
            }
        }
        // closures: unions of pairs and triples
        let mut pair = vec![0u64; oc.stride()];
        let mut closures = 0usize;
        'outer: for i in 0..oc.len() {
            for j in (i + 1)..oc.len() {
                union_into(&mut pair, oc.row(i), oc.row(j));
                masks.push_zero().copy_from_slice(&pair);
                closures += 1;
                if closures >= MAX_CLOSURES {
                    break 'outer;
                }
                for k in (j + 1)..oc.len() {
                    if closures >= MAX_CLOSURES {
                        break 'outer;
                    }
                    union_into(masks.push_zero(), &pair, oc.row(k));
                    closures += 1;
                }
            }
        }
    }
    masks.sort_dedup(|w| w);
    let mut negative = vec![0u64; masks.stride()];
    (0..n)
        .filter(|&v| !polarity.is_positive(v))
        .for_each(|v| set_var(&mut negative, v));
    masks.xor_all(&negative);
    masks
}

/// Sets variable `v`'s bit in a row.
fn set_var(row: &mut [u64], v: usize) {
    row[v / 64] |= 1 << (v % 64);
}

/// Writes the union of rows `a` and `b` into `dst`.
fn union_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    for (d, (x, y)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = x | y;
    }
}

/// Merges pattern lists of `n`-input patterns: every distinct pattern
/// once, sorted like the patterns' `Vec<bool>` forms (input 0 first,
/// `false` before `true`).
///
/// # Panics
///
/// Panics if a list's input count differs from `n`.
pub fn merge_patterns(n: usize, lists: impl IntoIterator<Item = PatternRows>) -> PatternRows {
    let mut all = PatternRows::new(n);
    for list in lists {
        all.append(&list);
    }
    all.sort_dedup(u64::reverse_bits);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsynth_boolean::VarSet;
    use xsynth_sim::{unpack_blocks, Pattern};

    fn cube_rows(n: usize, cubes: &[VarSet]) -> CubeRows {
        CubeRows::from_sets(n, cubes)
    }

    fn unpack(rows: &PatternRows) -> Vec<Pattern> {
        unpack_blocks(&rows.to_blocks())
    }

    /// The mask-to-pattern translation the word rows replaced.
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

    /// The `VarSet` + `Vec<bool>` pattern family the word rows replaced.
    #[allow(clippy::needless_range_loop)]
    fn paper_patterns_oracle(n: usize, polarity: &Polarity, cubes: &[VarSet]) -> Vec<Pattern> {
        let mut masks: Vec<VarSet> = vec![VarSet::new(), VarSet::full(n)];
        if cubes.len() <= MAX_CUBES {
            masks.extend(cubes.iter().cloned());
            for c in cubes {
                for v in c.iter() {
                    let mut m = c.clone();
                    m.remove(v);
                    masks.push(m);
                }
            }
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

    /// The `Vec<bool>` merge the word rows replaced.
    fn merge_oracle(lists: Vec<Vec<Pattern>>) -> Vec<Pattern> {
        let mut all: Vec<Pattern> = lists.into_iter().flatten().collect();
        all.sort();
        all.dedup();
        all
    }

    /// Cubes over `n` variables from `picks`: each pick's seed chooses
    /// up to four literals.
    fn cubes_from(n: usize, picks: &[(u64, u8)]) -> Vec<VarSet> {
        picks
            .iter()
            .map(|&(seed, width)| {
                (0..=width % 4)
                    .map(|k| (seed >> (16 * k as u64)) as usize % n)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn az_pattern_respects_polarity() {
        // negative-polarity variables read 1 when their literal is 0
        let pol = Polarity::from_bits(&[true, false, true]);
        let p = unpack(&paper_patterns(3, &pol, &CubeRows::new(3)));
        // AZ (mask 0) sorts before AO (the full mask)
        assert_eq!(p, vec![vec![false, true, false], vec![true, false, true]]);
    }

    #[test]
    fn oc_pattern_sets_cube_literals() {
        let pol = Polarity::all_positive(4);
        let cube = VarSet::from_vars([1, 3]);
        let p = unpack(&paper_patterns(4, &pol, &cube_rows(4, &[cube])));
        // masks in order: AZ, SA1 {1}, SA1 {3}, OC {1,3}, AO
        let want: Vec<Pattern> = [0b0000u8, 0b0010, 0b1000, 0b1010, 0b1111]
            .iter()
            .map(|m| (0..4).map(|v| m >> v & 1 == 1).collect())
            .collect();
        assert_eq!(p, want);
        assert_eq!(p[3], vec![false, true, false, true]);
    }

    #[test]
    fn family_contains_az_ao_oc_sa1() {
        let pol = Polarity::all_positive(3);
        let cubes = vec![VarSet::from_vars([0, 1]), VarSet::from_vars([2])];
        let pats = unpack(&paper_patterns(3, &pol, &cube_rows(3, &cubes)));
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
        let pats = paper_patterns(4, &pol, &cube_rows(4, &cubes));
        assert_eq!(pats.len(), 2, "only AZ and AO expected");
        assert_eq!(unpack(&pats), paper_patterns_oracle(4, &pol, &cubes));
    }

    #[test]
    fn closure_cap_respected() {
        // 40 single-literal cubes have 780 pairs and 9880 triples, all
        // distinct; their SA1 masks collapse onto AZ
        let pol = Polarity::all_positive(40);
        let cubes: Vec<VarSet> = (0..40).map(VarSet::singleton).collect();
        let pats = paper_patterns(40, &pol, &cube_rows(40, &cubes));
        assert_eq!(pats.len(), 2 + 40 + MAX_CLOSURES);
        assert_eq!(unpack(&pats), paper_patterns_oracle(40, &pol, &cubes));
    }

    #[test]
    fn merge_dedupes() {
        let mut a = PatternRows::new(1);
        a.push_zero()[0] = 1;
        a.push_zero();
        let mut b = PatternRows::new(1);
        b.push_zero()[0] = 1;
        let m = merge_patterns(1, [a, b]);
        assert_eq!(m.len(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-row family equals the `VarSet` + `Vec<bool>` one,
        /// pattern for pattern and in order, across word boundaries
        /// (n past 64 and 128), past the closure cut-off and after the
        /// per-output cap truncates it; merging equals the `Vec<bool>`
        /// sort-and-dedup of the flattened lists.
        #[test]
        fn word_rows_match_the_varset_oracle(
            n in 1usize..140,
            pol_seed in any::<u64>(),
            outputs in proptest::collection::vec(
                proptest::collection::vec((any::<u64>(), any::<u8>()), 0..36),
                1..4,
            ),
            cap in 1usize..600,
        ) {
            let pol = Polarity::from_bits(
                &(0..n).map(|v| pol_seed.rotate_left(v as u32) & 1 == 0).collect::<Vec<_>>(),
            );
            let mut rows = Vec::new();
            let mut oracles = Vec::new();
            for picks in &outputs {
                let cubes = cubes_from(n, picks);
                let mut got = paper_patterns(n, &pol, &cube_rows(n, &cubes));
                let mut want = paper_patterns_oracle(n, &pol, &cubes);
                prop_assert_eq!(unpack(&got), want.clone());
                got.truncate(cap);
                want.truncate(cap);
                prop_assert_eq!(unpack(&got), want.clone());
                rows.push(got);
                oracles.push(want);
            }
            let merged = merge_patterns(n, rows);
            prop_assert_eq!(unpack(&merged), merge_oracle(oracles));
        }
    }
}
