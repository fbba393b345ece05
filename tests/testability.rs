//! The paper's testability claim (Sections 1 and 6): the synthesized
//! networks are (nearly) irredundant and the FPRM-derived pattern family —
//! OC, SA1, AZ/AO and the cube-union closures — detects their single
//! stuck-at faults without conventional ATPG.

use xsynth::boolean::{CubeRows, Fprm, TruthTable};
use xsynth::circuits::build;
use xsynth::core::atpg::generate_tests;
use xsynth::core::{merge_patterns, paper_patterns, try_synthesize, SynthOptions};
use xsynth::sim::{enumerate_faults, exhaustive_patterns, fault_simulate, unpack_blocks};

/// Derives the paper's pattern family for every output of a circuit.
fn derive_patterns(spec: &xsynth::net::Network) -> Vec<Vec<bool>> {
    let n = spec.inputs().len();
    let tables: Vec<TruthTable> = spec.to_truth_tables();
    let mut lists = Vec::new();
    for t in &tables {
        // polarity per output as the flow would choose (positive is enough
        // for the claim; the flow's polarities only shrink the form)
        let f = Fprm::from_table_positive(t);
        lists.push(paper_patterns(
            n,
            f.polarity(),
            &CubeRows::from_sets(n, f.cubes()),
        ));
    }
    unpack_blocks(&merge_patterns(n, lists).to_blocks())
}

#[test]
fn paper_pattern_family_matches_exhaustive_coverage() {
    for name in ["z4ml", "rd53", "f2", "cm82a"] {
        let spec = build(name).expect("registered");
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        let faults = enumerate_faults(&out);
        let n = spec.inputs().len();

        let exhaustive = fault_simulate(&out, &exhaustive_patterns(n), &faults);
        let paper_set = derive_patterns(&spec);
        let with_paper = fault_simulate(&out, &paper_set, &faults);

        // every fault detectable at all must be detected by the paper's
        // derived family (that is the Section 4/6 claim); allow a tiny
        // slack for faults whose only tests fall outside the family
        let slack = 1 + exhaustive.total / 50;
        assert!(
            with_paper.detected() + slack >= exhaustive.detected(),
            "{name}: paper set detects {}/{} vs exhaustive {}/{}",
            with_paper.detected(),
            with_paper.total,
            exhaustive.detected(),
            exhaustive.total
        );
    }
}

#[test]
fn synthesized_networks_are_nearly_irredundant() {
    // redundancy removal should leave few untestable faults
    for name in ["z4ml", "rd53", "t481"] {
        let spec = build(name).expect("registered");
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        let faults = enumerate_faults(&out);
        let n = spec.inputs().len();
        let patterns = if n <= 12 {
            exhaustive_patterns(n)
        } else {
            xsynth::sim::random_patterns(n, 4096, 11)
        };
        let rep = fault_simulate(&out, &patterns, &faults);
        assert!(
            rep.coverage() >= 0.97,
            "{name}: only {:.1}% of faults testable — network too redundant ({}/{} undetected)",
            100.0 * rep.coverage(),
            rep.undetected.len(),
            rep.total
        );
    }
}

#[test]
fn xor_rich_circuits_keep_full_coverage() {
    // parity circuits: every fault testable, and the OC set (single-one
    // patterns) plus AZ/AO detects them — the classic Reed-Muller
    // testability result the paper builds on (Reddy).
    let spec = build("xor10").expect("registered");
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let faults = enumerate_faults(&out);
    let exhaustive = fault_simulate(&out, &exhaustive_patterns(10), &faults);
    assert_eq!(exhaustive.coverage(), 1.0, "parity trees are irredundant");
    let paper_set = derive_patterns(&spec);
    let with_paper = fault_simulate(&out, &paper_set, &faults);
    assert_eq!(
        with_paper.detected(),
        exhaustive.detected(),
        "FPRM-derived patterns are a complete test set for parity"
    );
}

#[test]
fn derived_family_matches_dedicated_atpg_coverage() {
    // the paper's point: the FPRM-derived family achieves what a real ATPG
    // achieves, without running one. Compare both on a synthesized adder.
    let spec = build("z4ml").expect("registered");
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let faults = enumerate_faults(&out);

    // dedicated, complete BDD-based ATPG
    let atpg = generate_tests(&out, &faults).unwrap();
    let atpg_rep = fault_simulate(&out, &atpg.tests, &faults);

    // the paper's derived family
    let family = derive_patterns(&spec);
    let family_rep = fault_simulate(&out, &family, &faults);

    assert_eq!(
        family_rep.detected(),
        atpg_rep.detected(),
        "derived family must match ATPG coverage"
    );
    // and the ATPG-proven-redundant faults are exactly the undetected ones
    assert_eq!(atpg.redundant.len(), atpg_rep.undetected.len());
}
