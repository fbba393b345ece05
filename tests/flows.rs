//! Cross-crate integration: both synthesis flows and the technology mapper
//! preserve functionality over the benchmark suite.

use xsynth::bench::VERIFY_NODE_CAP;
use xsynth::circuits::{build, registry};
use xsynth::core::{
    try_synthesize, Budget, EquivChecker, FactorMethod, PolarityMode, SynthOptions,
};
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

/// `(circuit, mapped cells, mapped literals)` of the FPRM flow's result on
/// `mcnc`, for every registry circuit.
const FPRM_MAPPED: &[(&str, usize, usize)] = &[
    ("5xp1", 74, 149),
    ("9sym", 57, 119),
    ("add6", 28, 61),
    ("addm4", 103, 231),
    ("adr4", 18, 39),
    ("bcd-div3", 20, 41),
    ("cc", 27, 53),
    ("cm163a", 11, 26),
    ("cm82a", 10, 22),
    ("cm85a", 44, 93),
    ("cmb", 58, 116),
    ("co14", 45, 98),
    ("f2", 10, 20),
    ("f51m", 51, 103),
    ("frg1", 35, 99),
    ("i1", 26, 46),
    ("i3", 60, 186),
    ("i4", 84, 270),
    ("i5", 199, 397),
    ("m181", 41, 90),
    ("majority", 11, 26),
    ("misg", 46, 115),
    ("mish", 68, 170),
    ("mlp4", 157, 333),
    ("my_adder", 80, 176),
    ("parity", 15, 30),
    ("pcle", 28, 55),
    ("pcler8", 56, 118),
    ("pm1", 22, 41),
    ("radd", 18, 39),
    ("rd53", 19, 41),
    ("rd73", 30, 72),
    ("rd84", 43, 97),
    ("shift", 184, 523),
    ("sqr6", 79, 164),
    ("squar5", 28, 57),
    ("sym10", 45, 95),
    ("t481", 25, 42),
    ("tcon", 24, 40),
    ("xor10", 9, 18),
    ("z4ml", 15, 33),
];

/// `(circuit, premap literals, mapped cells, mapped literals)` of the SOP
/// baseline's result (`script_algebraic` with its default options) on
/// `mcnc`, for every registry circuit.
const SOP_MAPPED: &[(&str, usize, usize, usize)] = &[
    ("5xp1", 250, 99, 245),
    ("9sym", 158, 55, 138),
    ("add6", 102, 26, 59),
    ("addm4", 450, 177, 455),
    ("adr4", 104, 32, 74),
    ("bcd-div3", 50, 22, 50),
    ("cc", 52, 27, 53),
    ("cm163a", 30, 11, 26),
    ("cm82a", 60, 18, 41),
    ("cm85a", 102, 44, 92),
    ("cmb", 138, 53, 114),
    ("co14", 120, 41, 96),
    ("f2", 28, 12, 26),
    ("f51m", 252, 97, 231),
    ("frg1", 128, 35, 99),
    ("i1", 40, 26, 46),
    ("i3", 252, 60, 186),
    ("i4", 372, 84, 270),
    ("i5", 396, 199, 397),
    ("m181", 144, 35, 79),
    ("majority", 26, 10, 25),
    ("misg", 138, 46, 115),
    ("mish", 204, 68, 170),
    ("mlp4", 612, 234, 647),
    ("my_adder", 288, 67, 151),
    ("parity", 132, 29, 65),
    ("pcle", 54, 28, 55),
    ("pcler8", 124, 56, 118),
    ("pm1", 38, 22, 41),
    ("radd", 104, 32, 74),
    ("rd53", 94, 26, 60),
    ("rd73", 194, 79, 203),
    ("rd84", 242, 100, 253),
    ("shift", 266, 128, 290),
    ("sqr6", 236, 90, 223),
    ("squar5", 90, 34, 73),
    ("sym10", 196, 84, 209),
    ("t481", 64, 27, 58),
    ("tcon", 32, 24, 40),
    ("xor10", 78, 17, 38),
    ("z4ml", 94, 28, 66),
];

/// The redundancy counters the rewrites are named by, in the column order
/// of [`FPRM_REDUNDANCY`].
const REDUNDANCY_COUNTERS: [&str; 5] = [
    "redundancy.xor_to_or",
    "redundancy.xor_to_and",
    "redundancy.fanin_removed",
    "redundancy.const_replaced",
    "redundancy.reverted",
];

/// `(circuit, [xor_to_or, xor_to_and, fanin_removed, const_replaced,
/// reverted])` of the FPRM flow's redundancy-removal pass, for every
/// registry circuit: the pass's rewrite decisions, not just their literal
/// result.
const FPRM_REDUNDANCY: &[(&str, [u64; 5])] = &[
    ("5xp1", [1, 1, 8, 0, 0]),
    ("9sym", [4, 1, 5, 0, 0]),
    ("add6", [5, 0, 8, 0, 0]),
    ("addm4", [7, 0, 16, 0, 0]),
    ("adr4", [3, 0, 4, 0, 0]),
    ("bcd-div3", [1, 0, 2, 0, 0]),
    ("cc", [0, 0, 0, 0, 0]),
    ("cm163a", [0, 0, 0, 0, 0]),
    ("cm82a", [2, 0, 4, 0, 0]),
    ("cm85a", [7, 0, 8, 0, 0]),
    ("cmb", [0, 0, 0, 0, 44]),
    ("co14", [0, 0, 0, 0, 101]),
    ("f2", [0, 0, 0, 0, 0]),
    ("f51m", [3, 0, 14, 0, 0]),
    ("frg1", [5, 0, 5, 0, 10]),
    ("i1", [6, 0, 7, 0, 0]),
    ("i3", [0, 0, 0, 0, 116]),
    ("i4", [0, 0, 0, 0, 266]),
    ("i5", [66, 0, 0, 0, 0]),
    ("m181", [7, 0, 12, 0, 0]),
    ("majority", [3, 0, 6, 0, 0]),
    ("misg", [23, 0, 23, 0, 0]),
    ("mish", [34, 0, 34, 0, 0]),
    ("mlp4", [6, 1, 15, 0, 0]),
    ("my_adder", [16, 0, 32, 0, 0]),
    ("parity", [0, 0, 0, 0, 0]),
    ("pcle", [9, 0, 0, 0, 0]),
    ("pcler8", [12, 0, 0, 0, 48]),
    ("pm1", [0, 0, 0, 0, 0]),
    ("radd", [3, 0, 4, 0, 0]),
    ("rd53", [2, 0, 0, 0, 0]),
    ("rd73", [7, 0, 6, 0, 0]),
    ("rd84", [8, 0, 6, 0, 0]),
    ("shift", [72, 4, 10, 0, 0]),
    ("sqr6", [3, 0, 8, 0, 0]),
    ("squar5", [1, 0, 1, 0, 0]),
    ("sym10", [4, 0, 0, 0, 0]),
    ("t481", [0, 0, 0, 0, 0]),
    ("tcon", [0, 0, 0, 0, 0]),
    ("xor10", [0, 0, 0, 0, 0]),
    ("z4ml", [3, 0, 6, 0, 0]),
];

#[test]
fn fprm_flow_preserves_every_benchmark() {
    let lib = Library::mcnc();
    let mut pinned = 0;
    for b in registry() {
        let spec = build(b.name).expect("registered");
        let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let out = outcome.network;
        assert!(
            equivalent_on(&spec, &out, &check_patterns(b.io.0)),
            "{} FPRM result differs",
            b.name
        );
        // proven, not sampled: the harness's verification budget keeps the
        // checker on the exact BDD backend for every circuit
        let budget = Budget::default().bdd_node_cap(Some(VERIFY_NODE_CAP));
        let mut checker = EquivChecker::with_budget(&spec, &budget);
        assert!(checker.try_check(&out).unwrap(), "{} not proven", b.name);
        assert!(checker.is_exact(), "{} checked by simulation", b.name);
        let &(_, counts) = FPRM_REDUNDANCY
            .iter()
            .find(|(name, _)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no pinned redundancy counters", b.name));
        let got = REDUNDANCY_COUNTERS.map(|c| outcome.report.trace.counter(c));
        assert_eq!(got, counts, "{} redundancy counters", b.name);
        let &(_, cells, lits) = FPRM_MAPPED
            .iter()
            .find(|(name, _, _)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no pinned mapping", b.name));
        let mapped = map_network(&out, &lib);
        assert_eq!(
            (mapped.num_gates(), mapped.num_literals()),
            (cells, lits),
            "{} mapped (cells, literals)",
            b.name
        );
        pinned += 1;
    }
    assert_eq!(pinned, FPRM_MAPPED.len(), "a pinned circuit left the suite");
    assert_eq!(
        pinned,
        FPRM_REDUNDANCY.len(),
        "a pinned circuit left the suite"
    );
}

#[test]
fn sop_flow_preserves_every_benchmark() {
    let lib = Library::mcnc();
    let mut pinned = 0;
    for b in registry() {
        let spec = build(b.name).expect("registered");
        let out = script_algebraic(&spec, &ScriptOptions::default());
        assert!(
            equivalent_on(&spec, &out, &check_patterns(b.io.0)),
            "{} baseline result differs",
            b.name
        );
        let &(_, lits, cells, mapped_lits) = SOP_MAPPED
            .iter()
            .find(|(name, _, _, _)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no pinned SOP result", b.name));
        let mapped = map_network(&out, &lib);
        assert_eq!(
            (
                out.two_input_cost().1,
                mapped.num_gates(),
                mapped.num_literals()
            ),
            (lits, cells, mapped_lits),
            "{} SOP (premap literals, mapped cells, mapped literals)",
            b.name
        );
        pinned += 1;
    }
    assert_eq!(pinned, SOP_MAPPED.len(), "a pinned circuit left the suite");
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

/// `(circuit, premap literals)` of the FPRM flow on the circuits it
/// synthesizes as macro blocks; the same under every polarity mode.
const BLOCK_PREMAP: &[(&str, usize)] = &[
    ("co14", 114),
    ("cmb", 134),
    ("frg1", 128),
    ("i3", 252),
    ("i4", 372),
    ("my_adder", 320),
    ("pcler8", 124),
];

#[test]
fn block_mode_holds_its_literals_under_every_polarity_mode() {
    for mode in [
        PolarityMode::AllPositive,
        PolarityMode::Greedy,
        PolarityMode::Exhaustive,
    ] {
        let opts = SynthOptions::builder().polarity(mode).build();
        for &(name, literals) in BLOCK_PREMAP {
            let spec = build(name).expect("registered");
            let outcome = try_synthesize(&spec, &opts).unwrap();
            assert!(
                outcome.report.trace.counter("blocks.synthesized") > 0,
                "{name} left block mode"
            );
            assert_eq!(
                outcome.network.two_input_cost().1,
                literals,
                "{name} premap literals under {mode:?}"
            );
        }
    }
}

/// The Kronecker-FDD method is kept because it beats every other method on
/// these full-suite rows (next best: cube 176 on 9sym, ofdd 440 on shift).
#[test]
fn kfdd_wins_on_9sym_and_shift() {
    let opts = SynthOptions::builder().method(FactorMethod::Kfdd).build();
    for (name, literals) in [("9sym", 160), ("shift", 394)] {
        let spec = build(name).expect("registered");
        let out = try_synthesize(&spec, &opts).unwrap().network;
        assert!(
            EquivChecker::new(&spec).try_check(&out).unwrap(),
            "{name} KFDD result differs"
        );
        assert_eq!(out.two_input_cost().1, literals, "{name} KFDD literals");
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
