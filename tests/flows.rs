//! Cross-crate integration: both synthesis flows and the technology mapper
//! preserve functionality over the benchmark suite.

use xsynth::circuits::{build, registry};
use xsynth::core::{try_synthesize, EquivChecker, SynthOptions};
use xsynth::map::{map_network, Library};
use xsynth::sim::{equivalent_on, exhaustive_patterns, random_patterns};
use xsynth::sop::{script_algebraic, ScriptOptions};

/// Patterns for an equivalence spot-check: exhaustive when small, random
/// otherwise.
fn check_patterns(n: usize) -> Vec<Vec<bool>> {
    if n <= 10 {
        exhaustive_patterns(n)
    } else {
        random_patterns(n, 2048, 7)
    }
}

#[test]
fn fprm_flow_preserves_every_small_benchmark() {
    for b in registry() {
        if b.io.0 > 20 {
            continue; // wide circuits are covered by the checker test below
        }
        let spec = build(b.name).expect("registered");
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        assert!(
            equivalent_on(&spec, &out, &check_patterns(b.io.0)),
            "{} FPRM result differs",
            b.name
        );
    }
}

#[test]
fn sop_flow_preserves_every_small_benchmark() {
    for b in registry() {
        if b.io.0 > 20 {
            continue;
        }
        let spec = build(b.name).expect("registered");
        // reduced effort: this test checks correctness, not quality
        let opts = ScriptOptions {
            max_extracted: 60,
            rounds: 1,
            ..ScriptOptions::default()
        };
        let out = script_algebraic(&spec, &opts);
        assert!(
            equivalent_on(&spec, &out, &check_patterns(b.io.0)),
            "{} baseline result differs",
            b.name
        );
    }
}

#[test]
fn wide_benchmarks_verify_through_the_checker() {
    for name in ["my_adder", "misg", "i5"] {
        let spec = build(name).expect("registered");
        let mut checker = EquivChecker::new(&spec);
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        assert!(
            checker.try_check(&out).unwrap(),
            "{name} failed verification"
        );
    }
}

#[test]
fn mapper_preserves_synthesized_networks() {
    let lib = Library::mcnc();
    for name in ["z4ml", "rd53", "f2", "cm82a", "bcd-div3"] {
        let spec = build(name).expect("registered");
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        let mapped = map_network(&out, &lib).to_network(&lib);
        let n = spec.inputs().len();
        assert!(
            equivalent_on(&spec, &mapped, &exhaustive_patterns(n)),
            "{name} mapped netlist differs"
        );
    }
}

#[test]
fn flows_compose_with_blif_roundtrip() {
    // synthesize → write BLIF → parse BLIF → still equivalent
    let spec = build("rd53").expect("registered");
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let text = xsynth::blif::write_blif(&out);
    let back = xsynth::blif::parse_blif(&text).expect("own BLIF output parses");
    assert!(equivalent_on(&spec, &back, &exhaustive_patterns(5)));
}
