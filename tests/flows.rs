//! Cross-crate integration: both synthesis flows and the technology mapper
//! preserve functionality over the benchmark suite.

use xsynth::bench::VERIFY_NODE_CAP;
use xsynth::circuits::{build, registry};
use xsynth::core::{
    prove_equivalence, try_synthesize, Budget, EquivChecker, FactorMethod, PolarityMode,
    SynthOptions, VerifyStatus,
};
use xsynth::map::{map_network, Library};
use xsynth::sim::{equivalent_on, exhaustive_patterns, power_estimate, random_patterns};
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

/// `(circuit, mapped cells, mapped literals, power)` of the FPRM flow's
/// result on `mcnc`, for every registry circuit; power is
/// `power_estimate` of the mapped netlist, pinned to [`POWER_TOLERANCE`].
const FPRM_MAPPED: &[(&str, usize, usize, f64)] = &[
    ("5xp1", 74, 149, 319.182861328125),
    ("9sym", 57, 119, 207.44342041015625),
    ("add6", 28, 61, 173.841552734375),
    ("addm4", 103, 231, 581.1882781982422),
    ("adr4", 18, 39, 108.52734375),
    ("bcd-div3", 20, 41, 114.3203125),
    ("cc", 27, 53, 113.39805352687836),
    ("cm163a", 11, 26, 16.8359375),
    ("cm82a", 10, 22, 66.0),
    ("cm85a", 44, 93, 343.6744384765625),
    ("cmb", 58, 116, 312.3903579711914),
    ("co14", 45, 98, 224.24249132722616),
    ("f2", 10, 20, 17.75),
    ("f51m", 51, 103, 218.32427978515625),
    ("frg1", 35, 99, 328.99993920326233),
    ("i1", 26, 46, 78.33756577968597),
    ("i3", 60, 186, 1128.1512367725372),
    ("i4", 84, 270, 1683.2243258953094),
    ("i5", 199, 397, 1138.6672929525375),
    ("m181", 41, 90, 276.578125),
    ("majority", 11, 26, 90.859375),
    ("misg", 46, 115, 736.7038645744324),
    ("mish", 68, 170, 1089.0802459716797),
    ("mlp4", 157, 333, 701.4690551757813),
    ("my_adder", 80, 176, 524.5174144506454),
    ("parity", 15, 30, 56.75),
    ("pcle", 28, 55, 155.78504359722137),
    ("pcler8", 56, 118, 244.23500180244446),
    ("pm1", 22, 41, 43.09375),
    ("radd", 18, 39, 108.52734375),
    ("rd53", 19, 41, 122.71875),
    ("rd73", 30, 72, 262.401611328125),
    ("rd84", 43, 97, 244.85409545898438),
    ("shift", 184, 523, 3377.026143312454),
    ("sqr6", 79, 164, 385.81103515625),
    ("squar5", 28, 57, 99.3671875),
    ("sym10", 45, 95, 128.81396484375),
    ("t481", 25, 42, 28.405104875564575),
    ("tcon", 24, 40, 32.95335328578949),
    ("xor10", 9, 18, 34.25),
    ("z4ml", 15, 33, 98.75),
];

/// `(circuit, premap literals, mapped cells, mapped literals, power)` of
/// the SOP baseline's result (`script_algebraic` with its default options)
/// on `mcnc`, for every registry circuit.
const SOP_MAPPED: &[(&str, usize, usize, usize, f64)] = &[
    ("5xp1", 250, 99, 245, 961.597900390625),
    ("9sym", 158, 55, 138, 435.74855041503906),
    ("add6", 102, 26, 59, 155.81903076171875),
    ("addm4", 450, 177, 455, 1729.0950469970703),
    ("adr4", 104, 32, 74, 229.5068359375),
    ("bcd-div3", 50, 22, 50, 232.703125),
    ("cc", 52, 27, 53, 113.39805352687836),
    ("cm163a", 30, 11, 26, 16.8359375),
    ("cm82a", 60, 18, 41, 111.09765625),
    ("cm85a", 102, 44, 92, 339.36376953125),
    ("cmb", 138, 53, 114, 271.07525634765625),
    ("co14", 120, 41, 96, 227.07494419813156),
    ("f2", 28, 12, 26, 61.8125),
    ("f51m", 252, 97, 231, 744.3776245117188),
    ("frg1", 128, 35, 99, 328.99993920326233),
    ("i1", 40, 26, 46, 78.33756577968597),
    ("i3", 252, 60, 186, 1128.1512367725372),
    ("i4", 372, 84, 270, 1683.2243258953094),
    ("i5", 396, 199, 397, 1138.6672929525375),
    ("m181", 144, 35, 79, 179.625),
    ("majority", 26, 10, 25, 100.90234375),
    ("misg", 138, 46, 115, 736.7038645744324),
    ("mish", 204, 68, 170, 1089.0802459716797),
    ("mlp4", 612, 234, 647, 3736.8095703125),
    ("my_adder", 288, 67, 151, 318.00257790088654),
    ("parity", 132, 29, 65, 126.75),
    ("pcle", 54, 28, 55, 155.78504359722137),
    ("pcler8", 124, 56, 118, 244.23500180244446),
    ("pm1", 38, 22, 41, 43.09375),
    ("radd", 104, 32, 74, 229.5068359375),
    ("rd53", 94, 26, 60, 216.44140625),
    ("rd73", 194, 79, 203, 758.845458984375),
    ("rd84", 242, 100, 253, 897.5060729980469),
    ("shift", 266, 128, 290, 787.4998768568039),
    ("sqr6", 236, 90, 223, 1040.07080078125),
    ("squar5", 90, 34, 73, 224.6015625),
    ("sym10", 196, 84, 209, 787.6867160797119),
    ("t481", 64, 27, 58, 234.24885487556458),
    ("tcon", 32, 24, 40, 32.95335328578949),
    ("xor10", 78, 17, 38, 74.25),
    ("z4ml", 94, 28, 66, 188.4296875),
];

/// How far a mapped row's power may drift from its pinned value: the
/// estimate is deterministic, so any real change exceeds it.
const POWER_TOLERANCE: f64 = 1e-9;

/// Asserts that `power` is the pinned value of `name`'s row.
fn assert_power(name: &str, flow: &str, power: f64, pinned: f64) {
    assert!(
        (power - pinned).abs() <= POWER_TOLERANCE,
        "{name} {flow} mapped power {power:?}, pinned {pinned:?}"
    );
}

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
        // proven, not sampled, by a checker of its own: under the
        // harness's verification budget it stays on the exact BDD backend
        // for every circuit, and it confirms the job's own proof
        let budget = Budget::default().bdd_node_cap(Some(VERIFY_NODE_CAP));
        let proof = prove_equivalence(&spec, &out, &budget).unwrap();
        assert_eq!(proof, VerifyStatus::Verified, "{} not proven", b.name);
        assert_eq!(outcome.report.proof, Some(proof), "{} job's proof", b.name);
        let &(_, counts) = FPRM_REDUNDANCY
            .iter()
            .find(|(name, _)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no pinned redundancy counters", b.name));
        let got = REDUNDANCY_COUNTERS.map(|c| outcome.report.trace.counter(c));
        assert_eq!(got, counts, "{} redundancy counters", b.name);
        let &(_, cells, lits, power) = FPRM_MAPPED
            .iter()
            .find(|(name, ..)| *name == b.name)
            .unwrap_or_else(|| panic!("{} has no pinned mapping", b.name));
        let mapped = map_network(&out, &lib);
        assert_eq!(
            (mapped.num_gates(), mapped.num_literals()),
            (cells, lits),
            "{} mapped (cells, literals)",
            b.name
        );
        let got = power_estimate(&mapped.to_network(&lib)).total;
        assert_power(b.name, "FPRM", got, power);
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
        let &(_, lits, cells, mapped_lits, power) = SOP_MAPPED
            .iter()
            .find(|(name, ..)| *name == b.name)
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
        let got = power_estimate(&mapped.to_network(&lib)).total;
        assert_power(b.name, "SOP", got, power);
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

/// The sharing pass's network replaces the result whenever it is proven
/// equivalent, even when it has more two-input literals: `share.kept`
/// counts the first, `share.grew` the second. `a·b + 2` over a 2-bit `a`
/// and a 4-bit `b` is one of the `serve-arith` functions where it grows.
#[test]
fn sharing_counters_say_when_the_shared_network_is_kept_and_grew() {
    use xsynth::circuits::builders::{two_level, word_function};
    let tables = word_function(6, 6, |m| (m & 3) * (m >> 2 & 15) + 2);
    let mul = two_level("mul_2x4_k2", &tables);
    for (name, spec, grew) in [
        ("z4ml", build("z4ml").expect("registered"), 0),
        ("mul_2x4_k2", mul, 1),
    ] {
        let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let trace = &outcome.report.trace;
        assert_eq!(trace.counter("share.kept"), 1, "{name} share.kept");
        assert_eq!(trace.counter("share.grew"), grew, "{name} share.grew");
    }
}
