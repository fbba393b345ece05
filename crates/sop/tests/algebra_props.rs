//! Property-based tests of the algebraic toolbox: weak division and
//! factoring must satisfy their defining identities on random covers.

use proptest::prelude::*;
use xsynth_boolean::Sop;
use xsynth_sop::algebra::{divide, factor, kernels};

/// Builds a random cover over 6 variables from raw bits.
fn cover(bits: u64, cubes: usize) -> Sop {
    let mut out = Sop::new(6);
    let mut s = bits | 1;
    for _ in 0..cubes {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for v in 0..6 {
            match (s >> (3 * v)) & 0x7 {
                0 | 1 => pos.push(v),
                2 => neg.push(v),
                _ => {}
            }
        }
        out.push_literals(pos, neg);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn division_identity(bits in any::<u64>(), dbits in any::<u64>()) {
        // f = q·d + r as *functions* (algebraic division is exact on the
        // covered cubes)
        let f = cover(bits, 6);
        let d = cover(dbits, 2);
        let (q, r) = divide(&f, &d);
        let mut rebuilt = Sop::new(6);
        for qc in q.cubes() {
            for dc in d.cubes() {
                rebuilt.push_product(qc, dc);
            }
        }
        rebuilt.append(&r);
        prop_assert_eq!(rebuilt.to_table(6), f.to_table(6));
    }

    #[test]
    fn factoring_preserves_function(bits in any::<u64>()) {
        let f = cover(bits, 8);
        let fac = factor(&f);
        for m in 0..64u64 {
            let env = |v: usize| m & (1 << v) != 0;
            prop_assert_eq!(fac.eval(&env), f.eval(m));
        }
        prop_assert!(fac.num_literals() <= f.num_literals().max(1));
    }

    #[test]
    fn kernels_are_cube_free_quotients(bits in any::<u64>()) {
        let f = cover(bits, 8);
        for k in kernels(&f, 30) {
            let (q, _) = divide(&f, &k);
            prop_assert!(
                !q.is_zero(),
                "kernel {:?} does not divide {:?}",
                k,
                f
            );
            prop_assert!(
                xsynth_sop::algebra::is_cube_free(&k),
                "kernel not cube-free: {:?}",
                k
            );
        }
    }

    #[test]
    fn isop_is_irredundant(bits in any::<u64>()) {
        use xsynth_boolean::TruthTable;
        let mut s = bits;
        let t = TruthTable::from_fn(6, |m| {
            s = s.wrapping_mul(2862933555777941757).wrapping_add(m);
            (s >> 37) & 3 == 0
        });
        let cover = Sop::isop(&t);
        prop_assert_eq!(cover.to_table(6), t.clone());
        // dropping any cube must lose coverage (irredundancy)
        for i in 0..cover.num_cubes() {
            let reduced: Sop = cover
                .cubes()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, c)| c)
                .collect();
            prop_assert_ne!(reduced.to_table(6), t.clone(), "cube {} redundant", i);
        }
    }
}
