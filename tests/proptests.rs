//! Property-based tests over the whole stack: random functions through
//! every representation and both synthesis flows.

use proptest::prelude::*;
use xsynth::bdd::BddManager;
use xsynth::boolean::{mask_ones, Fprm, Polarity, Sop, TruthTable};
use xsynth::core::{phase, try_synthesize, Budget, Error, FactorMethod, SynthOptions};
use xsynth::map::{map_network, Library};
use xsynth::net::{GateKind, Network};
use xsynth::ofdd::{optimize_polarity, OfddManager, PolarityMode, PolaritySearch};
use xsynth::sop::{script_algebraic, ScriptOptions};

/// A random truth table of `n ≤ 6` variables from raw bits.
fn table(n: usize, bits: u64) -> TruthTable {
    TruthTable::from_fn(n, |m| {
        bits & (1u64 << (m % 64)) != 0 || (bits >> (m % 61)) & 1 != 0
    })
}

/// A random two-level network for the function.
fn two_level(t: &TruthTable) -> Network {
    let n = t.num_vars();
    let mut net = Network::new("prop");
    let inputs: Vec<_> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
    let cover = Sop::isop(t);
    let mut cubes = Vec::new();
    for c in cover.cubes() {
        let mut lits = Vec::new();
        for v in mask_ones(c.positive()) {
            lits.push(inputs[v]);
        }
        for v in mask_ones(c.negative()) {
            lits.push(net.add_gate(GateKind::Not, vec![inputs[v]]));
        }
        cubes.push(match lits.len() {
            0 => net.add_gate(GateKind::Const1, vec![]),
            1 => lits[0],
            _ => net.add_gate(GateKind::And, lits),
        });
    }
    let o = match cubes.len() {
        0 => net.add_gate(GateKind::Const0, vec![]),
        1 => cubes[0],
        _ => net.add_gate(GateKind::Or, cubes),
    };
    net.add_output("f", o);
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fprm_transform_roundtrips(bits in any::<u64>(), pol_idx in 0u64..64) {
        let t = table(6, bits);
        let pol = Polarity::from_index(6, pol_idx);
        let f = Fprm::from_table(&t, &pol);
        prop_assert_eq!(f.to_table(), t);
    }

    #[test]
    fn isop_covers_the_function(bits in any::<u64>()) {
        let t = table(6, bits);
        let cover = Sop::isop(&t);
        prop_assert_eq!(cover.to_table(6), t);
    }

    #[test]
    fn bdd_and_ofdd_agree(bits in any::<u64>(), pol_idx in 0u64..64) {
        let t = table(6, bits);
        let mut bm = BddManager::new(6);
        let f = bm.from_table(&t).expect("uncapped");
        let mut om = OfddManager::new(Polarity::from_index(6, pol_idx));
        let o = om.from_bdd(&mut bm, f).expect("uncapped");
        for m in 0..64u64 {
            prop_assert_eq!(om.eval(o, m), t.eval(m));
        }
    }

    #[test]
    fn fprm_flow_preserves_random_functions(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        let out = try_synthesize(&spec, &SynthOptions::default()).unwrap().network;
        for m in 0..32u64 {
            prop_assert_eq!(out.eval_u64(m)[0], t.eval(m));
        }
    }

    #[test]
    fn both_factor_methods_preserve_random_functions(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        for method in [FactorMethod::Cube, FactorMethod::Ofdd] {
            let opts = SynthOptions::builder().method(method).build();
            let out = try_synthesize(&spec, &opts).unwrap().network;
            for m in 0..32u64 {
                prop_assert_eq!(out.eval_u64(m)[0], t.eval(m));
            }
        }
    }

    #[test]
    fn sop_script_preserves_random_functions(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        let out = script_algebraic(&spec, &ScriptOptions::default());
        for m in 0..32u64 {
            prop_assert_eq!(out.eval_u64(m)[0], t.eval(m));
        }
    }

    #[test]
    fn mapper_preserves_random_functions(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        let lib = Library::mcnc();
        let mapped = map_network(&spec, &lib).to_network(&lib);
        for m in 0..32u64 {
            prop_assert_eq!(mapped.eval_u64(m)[0], t.eval(m));
        }
    }

    #[test]
    fn sweep_and_strash_preserve_functions(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        let swept = spec.sweep();
        let strashed = spec.strash();
        for m in 0..32u64 {
            prop_assert_eq!(swept.eval_u64(m)[0], t.eval(m));
            prop_assert_eq!(strashed.eval_u64(m)[0], t.eval(m));
        }
        prop_assert!(strashed.num_gates() <= spec.num_gates());
    }

    #[test]
    fn blif_roundtrip_random_networks(bits in any::<u64>()) {
        let t = table(5, bits);
        let spec = two_level(&t);
        let text = xsynth::blif::write_blif(&spec);
        let back = xsynth::blif::parse_blif(&text).expect("self-written BLIF parses");
        for m in 0..32u64 {
            prop_assert_eq!(back.eval_u64(m)[0], t.eval(m));
        }
    }

    #[test]
    fn tight_budgets_never_panic_or_miscompile(
        bits in any::<u64>(),
        cap in 1usize..400,
        timeout_ms in 0u64..4,
        max_patterns in 0usize..16,
    ) {
        let t = table(5, bits);
        let spec = two_level(&t);
        // the top of each range doubles as "unlimited"
        let budget = Budget::default()
            .bdd_node_cap(Some(cap))
            .phase_timeout((timeout_ms < 3).then(|| std::time::Duration::from_millis(timeout_ms)))
            .max_patterns((max_patterns > 0).then_some(max_patterns));
        let opts = SynthOptions::builder()
            .budget(budget)
            .build();
        // the contract: a verified network, or a budget-family error —
        // never a panic. Full-strength (non-downgraded) verification means
        // the network is exactly equivalent; a downgraded run only promises
        // equivalence on the budgeted pattern sample, and must say so by
        // listing verify as curtailed.
        match try_synthesize(&spec, &opts) {
            Ok(outcome) => {
                let downgraded = outcome.report.curtailed.iter().any(|p| p == phase::VERIFY);
                prop_assert!(
                    downgraded || outcome.report.trace.counter("verify.downgraded") == 0,
                    "downgraded run must report verify as curtailed: {:?}",
                    outcome.report.curtailed
                );
                if !downgraded {
                    for m in 0..32u64 {
                        prop_assert_eq!(outcome.network.eval_u64(m)[0], t.eval(m));
                    }
                }
            }
            Err(Error::Budget(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error family: {other}"),
        }
    }

    #[test]
    fn fprm_polarity_search_never_worse(
        words in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        n in 0usize..=8,
    ) {
        let words = [words.0, words.1, words.2, words.3];
        let t = TruthTable::from_fn(n, |m| words[(m / 64) as usize] >> (m % 64) & 1 == 1);
        let cubes = |pol: &Polarity| Fprm::from_table(&t, pol).num_cubes();
        let minimum = (0..1u64 << n)
            .map(|i| cubes(&Polarity::from_index(n, i)))
            .min()
            .expect("at least one polarity");
        let positive = cubes(&Polarity::all_positive(n));
        let exhaustive = optimize_polarity(&t, PolarityMode::Exhaustive);
        prop_assert_eq!(cubes(&exhaustive), minimum);
        let greedy = optimize_polarity(&t, PolarityMode::Greedy);
        prop_assert!(cubes(&greedy) <= positive);
        for pol in [exhaustive, greedy] {
            prop_assert_eq!(Fprm::from_table(&t, &pol).to_table(), t.clone());
        }
    }
}

/// The reference loop the memoized polarity search must agree with:
/// round-based steepest descent with a fresh OFDD build per candidate and
/// no caching.
fn greedy_unmemoized(t: &TruthTable) -> (Polarity, u64) {
    let n = t.num_vars();
    let mut bm = BddManager::new(n);
    let f = bm.from_table(t).expect("uncapped");
    let support: Vec<usize> = bm.support(f).iter().collect();
    let mut count_of = |pol: &Polarity| {
        let mut om = OfddManager::new(pol.clone());
        let root = om.from_bdd(&mut bm, f).expect("uncapped");
        om.num_cubes(root)
    };
    let mut pol = Polarity::all_positive(n);
    let mut best = count_of(&pol);
    loop {
        let mut winner: Option<(u64, Polarity)> = None;
        for &v in &support {
            let mut p2 = pol.clone();
            p2.flip(v);
            let c = count_of(&p2);
            if c < best && winner.as_ref().is_none_or(|(wc, _)| c < *wc) {
                winner = Some((c, p2));
            }
        }
        match winner {
            Some((c, p)) => {
                best = c;
                pol = p;
            }
            None => return (pol, best),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_polarity_search_matches_reference(bits in 0u64..u64::MAX, n in 3usize..=6) {
        // n ≤ 6, so every minterm indexes a distinct bit of `bits`
        let tt = TruthTable::from_fn(n, |m| (bits >> m) & 1 == 1);
        let (ref_pol, ref_count) = greedy_unmemoized(&tt);

        let mut bm = BddManager::new(n);
        let f = bm.from_table(&tt).expect("uncapped");
        let support: Vec<usize> = bm.support(f).iter().collect();
        let mut search = PolaritySearch::new(&mut bm, f);
        let (pol, count) = search.greedy(&support);

        prop_assert_eq!(count, ref_count);
        prop_assert_eq!(pol, ref_pol);
    }
}
