//! The serve wire's BLIF text path against the reader and writer it
//! replaced (kept as oracles in `crates/blif/src/oracle.rs`): on the 41
//! registry circuits, the 120-function arithmetic catalogue the
//! `serve-arith` workload submits, and both flows' results, the reader
//! builds the same network node for node and the writer writes the same
//! bytes. A result whose inputs are named like the writer's gate labels
//! reads back as the function it computes. Every flow result's text is
//! pinned by an FNV-1a digest (`tests/data/blif_digests.txt`), so a
//! rewrite of the synthesis code that changes any output byte fails here.

use xsynth::blif::{parse_blif, write_blif};
use xsynth::circuits::builders::{two_level, word_function};
use xsynth::circuits::{build, registry};
use xsynth::core::{try_synthesize, SynthOptions};
use xsynth::net::{GateKind, Network};
use xsynth::sop::{script_algebraic, ScriptOptions};

// the oracle names `crate::ParseError`
use xsynth::blif::ParseError;

#[path = "../crates/blif/src/oracle.rs"]
mod oracle;

/// `net`'s text is the oracle writer's, byte for byte, and the reader
/// builds from it the network the oracle reader builds, node for node.
fn matches_oracle(what: &str, net: &Network) {
    let text = write_blif(net);
    assert!(
        text == oracle::write_blif(net),
        "{what}: writer bytes differ"
    );
    let new = parse_blif(&text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let old = oracle::parse_blif(&text).unwrap_or_else(|e| panic!("{what}: oracle: {e}"));
    assert!(
        format!("{new:?}") == format!("{old:?}"),
        "{what}: networks differ"
    );
}

/// The arithmetic catalogue of the `serve-arith` workload: 8 families ×
/// 15 distinct (widths, constant) pairs, 6 to 8 inputs, each a two-level
/// network (operand `a` in the low input bits, then `b`, then a carry-in
/// for `add`).
fn arith_catalogue() -> Vec<Network> {
    let mut specs: Vec<(&str, Vec<usize>, u64)> = Vec::new();
    let mut two = |family, pairs: &[(usize, usize)], ks: &[u64]| {
        for &(wa, wb) in pairs {
            for &k in ks {
                specs.push((family, vec![wa, wb], k));
            }
        }
    };
    let offsets = [0, 1, 2, 3, 4];
    let pairs = [(3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (4, 4)];
    two(
        "add",
        &[(2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (2, 5)],
        &offsets,
    );
    two("sub", &pairs, &offsets);
    two(
        "mul",
        &[(3, 3), (3, 4), (4, 3), (4, 4), (2, 4), (4, 2)],
        &offsets,
    );
    two("absdiff", &pairs, &offsets);
    two(
        "mulk",
        &[(4, 2), (3, 3), (4, 3), (5, 2), (5, 3), (4, 4)],
        &[3, 5, 7, 11, 13],
    );
    two("cmp", &pairs, &offsets);
    specs.extend((0..30).map(|k| ("square", vec![6], k)));
    for w in [6, 7] {
        for k in [3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 19, 21, 23] {
            specs.push(("mod", vec![w], k));
        }
    }
    specs
        .into_iter()
        .step_by(2)
        .map(|(family, widths, k)| {
            let n = widths.iter().sum::<usize>() + usize::from(family == "add");
            let eval = |m: u64| {
                let field = |lo: usize, w: usize| (m >> lo) & ((1 << w) - 1);
                let (wa, wb) = (widths[0], widths.get(1).copied().unwrap_or(0));
                let (a, b) = (field(0, wa), field(wa, wb));
                match family {
                    "add" => a + b + field(n - 1, 1) + k,
                    "sub" => {
                        (a as i64 - b as i64 - k as i64).rem_euclid(1 << (wa.max(wb) + 1)) as u64
                    }
                    "mul" => a * b + k,
                    "square" => (a + k) * (a + k),
                    "absdiff" => a.abs_diff(b + k),
                    "mulk" => a * k + b,
                    "mod" => a % k,
                    _ => {
                        u64::from(a < b + k)
                            | u64::from(a == b + k) << 1
                            | u64::from(a > b + k) << 2
                    }
                }
            };
            let all = (0..1u64 << n).fold(0, |acc, m| acc | eval(m));
            let bits = (64 - all.leading_zeros() as usize).max(1);
            let name = format!("{family}_{widths:?}_k{k}");
            two_level(&name, &word_function(n, bits, eval))
        })
        .collect()
}

#[test]
fn registry_specs_and_both_flows_match_the_oracle() {
    for b in registry() {
        let spec = build(b.name).expect("registered");
        matches_oracle(b.name, &spec);
        let fprm = try_synthesize(&spec, &SynthOptions::default()).expect("synthesizes");
        matches_oracle(&format!("{} fprm", b.name), &fprm.network);
        let sop = script_algebraic(&spec, &ScriptOptions::default());
        matches_oracle(&format!("{} sop", b.name), &sop);
    }
}

#[test]
fn arithmetic_specs_and_their_results_match_the_oracle() {
    let specs = arith_catalogue();
    assert_eq!(specs.len(), 120);
    for spec in &specs {
        matches_oracle(spec.name(), spec);
        let fprm = try_synthesize(spec, &SynthOptions::default()).expect("synthesizes");
        matches_oracle(&format!("{} fprm", spec.name()), &fprm.network);
    }
}

/// `f = (x0 ⊕ x1) + x2·x3`, `g = x0·x1·x2·x3` and `h = ¬x3` over inputs
/// named `n<first>..n<first + 3>`.
fn spec_with_inputs_from(first: usize) -> Network {
    let mut net = Network::new("named");
    let x: Vec<_> = (first..first + 4)
        .map(|i| net.add_input(format!("n{i}")))
        .collect();
    let xor = net.add_gate(GateKind::Xor, vec![x[0], x[1]]);
    let and = net.add_gate(GateKind::And, vec![x[2], x[3]]);
    let f = net.add_gate(GateKind::Or, vec![xor, and]);
    let g = net.add_gate(GateKind::And, x.clone());
    let h = net.add_gate(GateKind::Not, vec![x[3]]);
    net.add_output("f", f);
    net.add_output("g", g);
    net.add_output("h", h);
    net
}

#[test]
fn results_over_inputs_named_like_gate_labels_read_back_exactly() {
    let mut renamed = 0;
    for first in 0..8 {
        let spec = spec_with_inputs_from(first);
        let result = try_synthesize(&spec, &SynthOptions::default()).expect("synthesizes");
        let text = write_blif(&result.network);
        let back = parse_blif(&text).unwrap_or_else(|e| panic!("n{first}..: {e}\n{text}"));
        for m in 0..16 {
            assert_eq!(
                back.eval_u64(m),
                spec.eval_u64(m),
                "n{first}.. at {m}\n{text}"
            );
        }
        renamed += usize::from(text != oracle::write_blif(&result.network));
    }
    // some of these results put a gate where an input's name points
    assert!(renamed > 0);
}

/// The 64-bit FNV-1a digest of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn flow_results_match_their_pinned_digests() {
    let mut lines = Vec::new();
    let mut pin = |what: String, net: &Network| {
        lines.push(format!("{what} {:016x}", fnv1a(&write_blif(net))));
    };
    for b in registry() {
        let spec = build(b.name).expect("registered");
        let fprm = try_synthesize(&spec, &SynthOptions::default()).expect("synthesizes");
        pin(format!("{} fprm", b.name), &fprm.network);
        pin(
            format!("{} sop", b.name),
            &script_algebraic(&spec, &ScriptOptions::default()),
        );
    }
    for spec in &arith_catalogue() {
        let fprm = try_synthesize(spec, &SynthOptions::default()).expect("synthesizes");
        pin(format!("{} fprm", spec.name()), &fprm.network);
    }
    let pinned: Vec<&str> = include_str!("data/blif_digests.txt").lines().collect();
    assert_eq!(
        lines.len(),
        pinned.len(),
        "the digests to pin:\n{}",
        lines.join("\n")
    );
    let differ: Vec<String> = lines
        .iter()
        .zip(&pinned)
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("got {got}, pinned {want}"))
        .collect();
    assert!(
        differ.is_empty(),
        "{} of {} digests differ:\n{}",
        differ.len(),
        lines.len(),
        differ.join("\n")
    );
}
