//! Integration test for the paper's Example 1 (t481).

use xsynth::boolean::{Fprm, TruthTable};
use xsynth::circuits;
use xsynth::core::{try_synthesize, SynthOptions};
use xsynth::map::{map_network, Library};

fn t481_table() -> TruthTable {
    circuits::build("t481")
        .expect("registered")
        .to_truth_tables()
        .remove(0)
}

#[test]
fn t481_fprm_has_16_cubes_10_prime() {
    // "t481 has only 16 cubes in the well-known FPRM form … 10 of the 16
    // cubes are primes" (Example 1 / Section 2). The 16-cube form is the
    // fixed polarity read off the paper's closed-form equation: negative
    // exactly for v0, v3, v4, v6, v9, v11, v12, v15.
    use xsynth::boolean::Polarity;
    let mut pol = Polarity::all_positive(16);
    for v in [0, 3, 4, 6, 9, 11, 12, 15] {
        pol.set(v, false);
    }
    let f = Fprm::from_table(&t481_table(), &pol);
    assert_eq!(f.num_cubes(), 16);
    // The paper counts 10 primes in its (unspecified) 16-cube polarity;
    // under the equation-derived polarity above, 8 of the 16 cubes are
    // prime — the groups (¬v6+v7) and (v8+¬v9) each absorb two subcubes.
    assert_eq!(f.prime_cubes().len(), 8);
    // the all-positive form is markedly larger — polarity matters
    let pos = Fprm::from_table_positive(&t481_table());
    assert!(pos.num_cubes() > 16);
}

#[test]
fn t481_synthesizes_to_a_small_and_or_circuit() {
    // The paper's final circuit is 25 two-input AND/OR gates; SIS rugged
    // needed 237. Our reproduction must land in the paper's ballpark.
    let spec = circuits::build("t481").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let (out, report) = (outcome.network, outcome.report);
    let (gates, lits) = out.two_input_cost();
    assert!(
        gates <= 40,
        "t481 should synthesize to ~25 two-input gates, got {gates}"
    );
    assert!(lits <= 80, "got {lits} literals");
    assert_eq!(report.redundancy.reverted, 0, "{:?}", report.redundancy);

    // functional equivalence on the full input space
    for m in 0..(1u64 << 16) {
        assert_eq!(out.eval_u64(m), spec.eval_u64(m), "at {m:016b}");
    }
}

#[test]
fn t481_mapped_size_is_paper_shaped() {
    // Table 2: 23 gates / 48 literals after mapping for the paper's flow
    // (vs 190/438 for SIS).
    let spec = circuits::build("t481").expect("registered");
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let mapped = map_network(&out, &Library::mcnc());
    assert!(
        mapped.num_gates() <= 35,
        "mapped t481 should be ~23 cells, got {}",
        mapped.num_gates()
    );
    assert!(mapped.num_literals() <= 70);
}
