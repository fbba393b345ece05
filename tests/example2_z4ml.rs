//! Integration test for the paper's Example 2 (z4ml, the 3-bit adder).

use xsynth::boolean::{Fprm, Polarity};
use xsynth::circuits;
use xsynth::core::{try_synthesize, SynthOptions};
use xsynth::sop::{script_algebraic, ScriptOptions};

#[test]
fn z4ml_has_32_fprm_cubes_all_prime_per_output() {
    // "there are 32 cubes in the FPRM form. All the 32 cubes have a
    // special property" — each output's cubes are all prime (Section 2).
    let spec = circuits::build("z4ml").expect("registered");
    let tables = spec.to_truth_tables();
    let mut total = 0;
    for t in &tables {
        let f = Fprm::from_table(t, &Polarity::all_positive(7));
        assert_eq!(
            f.prime_cubes().len(),
            f.num_cubes(),
            "every cube of an adder output is prime"
        );
        total += f.num_cubes();
    }
    assert_eq!(total, 32, "paper: 32 cubes across the 4 outputs");
}

#[test]
fn z4ml_fprm_flow_beats_the_sop_baseline() {
    // Example 2: 21 two-input gates (ours) vs 24 (SIS best).
    let spec = circuits::build("z4ml").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let (ours, report) = (outcome.network, outcome.report);
    let baseline = script_algebraic(&spec, &ScriptOptions::default());
    let (our_gates, _) = ours.two_input_cost();
    let (base_gates, _) = baseline.two_input_cost();
    assert!(
        our_gates <= base_gates,
        "FPRM flow ({our_gates}) must not lose to the baseline ({base_gates}) on z4ml"
    );
    assert!(our_gates <= 35, "paper reports 21 gates; got {our_gates}");
    assert!(
        report.divisors >= 1,
        "the shared carry chain should be extracted"
    );
    for m in 0..(1u64 << 7) {
        let expect = spec.eval_u64(m);
        assert_eq!(ours.eval_u64(m), expect);
        assert_eq!(baseline.eval_u64(m), expect);
    }
}

#[test]
fn adder_family_stays_equivalent() {
    for name in ["adr4", "radd", "cm82a", "add6"] {
        let spec = circuits::build(name).expect("registered");
        let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let (ours, report) = (outcome.network, outcome.report);
        assert_eq!(
            report.redundancy.reverted, 0,
            "{name}: paper pattern family should suffice, {:?}",
            report.redundancy
        );
        let n = spec.inputs().len();
        for m in 0..(1u64 << n) {
            assert_eq!(ours.eval_u64(m), spec.eval_u64(m), "{name} at {m}");
        }
    }
}
