//! The `VarSet` cubes and covers, algebra and [`SopNet`](crate::SopNet)
//! the literal rows replaced, kept as the oracle the row code must match
//! cube for cube: every step of the network and every algebra function on
//! random covers whose variables pass 64 and 128, on rows as narrow as
//! they can be and widened.

mod algebra;
pub(crate) mod cover;
pub(crate) mod sopnet;

use crate::algebra as rows_algebra;
use cover::Sop as SetSop;
use proptest::prelude::*;
use std::hash::{Hash, Hasher};
use xsynth_boolean::{FxHasher, Sop};

/// The variables random covers draw from: one to three row words.
const VARS: [usize; 8] = [0, 3, 63, 64, 65, 127, 128, 150];

/// A random cover of `cubes` cubes over the first `vars` of [`VARS`],
/// each variable in a cube positive, negative or absent.
fn random_cover(bits: u64, cubes: usize, vars: usize) -> SetSop {
    let mut rng = bits | 1;
    let mut next = move |k: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % k
    };
    let mut f = SetSop::zero();
    for _ in 0..cubes {
        let mut c = cover::Cube::universe();
        for &v in &VARS[..vars] {
            match next(4) {
                0 => c.add_literal(v, true),
                1 => c.add_literal(v, false),
                _ => true,
            };
        }
        f.cubes_mut().push(c);
    }
    f
}

/// `f` on rows as narrow as its variables allow, and widened to 300.
fn both_widths(f: &SetSop) -> [Sop; 2] {
    let narrow = f.to_rows();
    let mut wide = narrow.clone();
    wide.widen(300);
    [narrow, wide]
}

fn hash_of(c: xsynth_boolean::Cube<'_>) -> u64 {
    let mut h = FxHasher::default();
    c.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cover_operations_match_the_oracle(
        bits in any::<u64>(),
        cubes in 0usize..9,
        vars in 1usize..=8,
    ) {
        let old = random_cover(bits, cubes, vars);
        for f in both_widths(&old) {
            prop_assert_eq!(SetSop::from_rows(&f), old.clone());
            prop_assert_eq!(f.num_literals(), old.num_literals());
            prop_assert_eq!(f.support(), old.support());
            prop_assert_eq!(f.has_universe(), old.has_universe());
            prop_assert_eq!(f.most_binate_var(), old.most_binate_var());
            prop_assert_eq!(f.is_tautology(), old.is_tautology());
            prop_assert_eq!(SetSop::from_rows(&f.complement()), old.complement());
            for &v in &VARS {
                for phase in [false, true] {
                    let new = f.cofactor(v, phase);
                    prop_assert_eq!(SetSop::from_rows(&new), old.cofactor(v, phase));
                }
            }
            let (mut contained, mut merged) = (f.clone(), f.clone());
            let (mut old_contained, mut old_merged) = (old.clone(), old.clone());
            contained.remove_contained();
            old_contained.remove_contained();
            prop_assert_eq!(SetSop::from_rows(&contained), old_contained);
            merged.merge_distance1();
            old_merged.merge_distance1();
            prop_assert_eq!(SetSop::from_rows(&merged), old_merged);
        }
    }

    #[test]
    fn cube_operations_match_the_oracle(
        bits in any::<u64>(),
        vars in 1usize..=8,
        wide_first in any::<bool>(),
    ) {
        // four cubes, the first pair on rows of different widths
        let old = random_cover(bits, 4, vars);
        let [narrow, wide] = both_widths(&old);
        let (f, g) = if wide_first { (&wide, &narrow) } else { (&narrow, &wide) };
        let oc = old.cubes();
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = (f.cube(i), g.cube(j));
                let (x, y) = (&oc[i], &oc[j]);
                prop_assert_eq!(a.implies(b), x.implies(y));
                prop_assert_eq!(a.distance(b), x.distance(y));
                prop_assert_eq!(a.intersect_len(b), x.intersect_len(y));
                prop_assert_eq!(a == b, x == y);
                prop_assert_eq!(a.cmp(&b), x.cmp(y), "{} vs {}", a, b);
                if a == b {
                    prop_assert_eq!(hash_of(a), hash_of(b));
                }
                let mut built = Sop::zero();
                prop_assert_eq!(built.push_product(a, b), x.intersect(y).is_some());
                built.push_common(a, b);
                if let Some(q) = x.divide(y) {
                    built.push_quotient(a, b);
                    prop_assert_eq!(built.cube(built.num_cubes() - 1).num_literals(), q.num_literals());
                }
                let common = cover::Cube::from_sets(
                    x.positive().intersection(y.positive()),
                    x.negative().intersection(y.negative()),
                ).expect("disjoint");
                let mut want: Vec<cover::Cube> = x.intersect(y).into_iter().collect();
                want.push(common.clone());
                want.extend(x.divide(y));
                prop_assert_eq!(SetSop::from_rows(&built).cubes(), want.as_slice());
                // d = the common cube divides both
                for (k, z) in oc.iter().enumerate() {
                    let e = g.cube(k);
                    if x.implies(z) && y.implies(&common) {
                        let d = SetSop::from_cubes([common.clone()]).to_rows();
                        prop_assert_eq!(
                            a.same_quotient(e, b, d.cube(0)),
                            x.same_quotient(z, y, &common)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn algebra_matches_the_oracle(
        bits in any::<u64>(),
        dbits in any::<u64>(),
        cubes in 1usize..10,
        vars in 2usize..=8,
        limit in 0usize..40,
    ) {
        // f = (random divisor d) · (random quotient) + noise, so division
        // half-succeeds and kernels repeat
        let d_old = random_cover(dbits, 1 + (dbits % 3) as usize, vars.min(4));
        let q_old = random_cover(bits.rotate_left(17), 1 + (bits % 3) as usize, vars);
        let mut f_old = random_cover(bits, cubes, vars);
        for qc in q_old.cubes() {
            for dc in d_old.cubes() {
                f_old.cubes_mut().extend(qc.intersect(dc));
            }
        }
        let d = d_old.to_rows();
        for f in both_widths(&f_old) {
            let (q, r) = rows_algebra::divide(&f, &d);
            let (oq, or) = algebra::divide(&f_old, &d_old);
            prop_assert_eq!(SetSop::from_rows(&q), oq);
            prop_assert_eq!(SetSop::from_rows(&r), or);
            prop_assert_eq!(
                SetSop::from_rows(&rows_algebra::common_cube(&f)),
                SetSop::from_cubes([algebra::common_cube(&f_old)])
            );
            prop_assert_eq!(rows_algebra::is_cube_free(&f), algebra::is_cube_free(&f_old));
            prop_assert_eq!(
                rows_algebra::covers_same(&f, &d),
                algebra::covers_same(&f_old, &d_old)
            );
            let ks = rows_algebra::kernels(&f, limit);
            let old_ks = algebra::kernels(&f_old, limit);
            prop_assert_eq!(ks.len(), old_ks.len());
            for (k, ok) in ks.iter().zip(&old_ks) {
                prop_assert_eq!(SetSop::from_rows(&k.kernel), ok.kernel.clone());
                prop_assert_eq!(
                    SetSop::from_rows(&k.cokernel),
                    SetSop::from_cubes([ok.cokernel.clone()])
                );
            }
            prop_assert_eq!(rows_algebra::factor(&f), algebra::factor(&f_old));
        }
    }

    #[test]
    fn sopnet_steps_match_the_oracle(
        bits in any::<u64>(),
        pis in 0usize..3,
        nodes in 1usize..40,
        threshold in 0u64..12,
        cap in 0usize..3,
        max_new in 0usize..5,
    ) {
        // 40 and 100 inputs put signals past 64 and 128, from the start
        // or as `extract` adds nodes
        let pis = [5, 40, 100][pis];
        let mut old = sopnet::random_sopnet(bits, pis, nodes);
        let mut new = old.to_rows();
        prop_assert!(old.same_as(&new));
        let net = old.to_network();
        prop_assert_eq!(net.to_string(), new.to_network().to_string());
        prop_assert!(sopnet::SopNet::from_network(&net).same_as(&crate::SopNet::from_network(&net)));
        let (threshold, max_cover) = (threshold as i64 - 2, [4, 16, 256][cap]);
        old.eliminate(threshold, max_cover);
        new.eliminate(threshold, max_cover);
        prop_assert!(old.same_as(&new), "eliminate");
        old.simplify();
        new.simplify();
        prop_assert!(old.same_as(&new), "simplify");
        prop_assert_eq!(new.resubstitute(), old.resubstitute());
        prop_assert!(old.same_as(&new), "resubstitute");
        let max_new = [1, 2, 5, 10, 400][max_new];
        prop_assert_eq!(new.extract(max_new), old.extract(max_new));
        prop_assert!(old.same_as(&new), "extract");
        old.eliminate(0, max_cover);
        new.eliminate(0, max_cover);
        prop_assert!(old.same_as(&new), "second eliminate");
        prop_assert_eq!(new.to_network().to_string(), old.to_network().to_string());
    }
}
