//! Names survive `write_blif` → `parse_blif`: random networks whose
//! model, input and output names mix `n<digits>` (the writer's labels for
//! unnamed gates), `#`, `\` and whitespace read back as the same function
//! under the same (sanitized) names.

use proptest::prelude::*;
use std::collections::HashSet;
use xsynth_blif::{parse_blif, write_blif};
use xsynth_net::{GateKind, Network, SignalId};

/// A name drawn from `code`: mostly `n<digits>` with small indices that
/// hit the gates' labels, else a name carrying `#`, `\` or whitespace.
fn name(code: u64) -> String {
    let d = code >> 8 & 15;
    match code & 7 {
        0..=2 => format!("n{d}"),
        3 => format!("a#{d}"),
        4 => format!("x{d}\\"),
        5 => format!("s {d}"),
        6 => format!("t\t{d}#\\"),
        _ => format!("\\n{d}"),
    }
}

/// What the writer turns `name` into.
fn sanitized(name: &str) -> String {
    name.replace(|c: char| c.is_whitespace() || c == '#' || c == '\\', "_")
}

/// A fresh name from `code`, or `fallback` when its sanitized form is
/// taken: two names that read back the same are not one network's names.
fn fresh(code: u64, fallback: String, used: &mut HashSet<String>) -> String {
    let candidate = name(code);
    let chosen = if used.contains(&sanitized(&candidate)) {
        fallback
    } else {
        candidate
    };
    used.insert(sanitized(&chosen));
    chosen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_names_round_trip(
        model in any::<u64>(),
        inputs in prop::collection::vec(any::<u64>(), 1..6),
        gates in prop::collection::vec((0usize..8, any::<u64>()), 1..16),
        outputs in prop::collection::vec((any::<u64>(), any::<u64>()), 1..5),
    ) {
        const KINDS: [GateKind; 8] = [
            GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Xnor,
            GateKind::Nand, GateKind::Nor, GateKind::Not, GateKind::Buf,
        ];
        let mut used = HashSet::new();
        let mut net = Network::new(name(model));
        let mut nodes: Vec<SignalId> = Vec::new();
        for (i, &code) in inputs.iter().enumerate() {
            let input = fresh(code, format!("in{i}"), &mut used);
            nodes.push(net.add_input(input));
        }
        for (kind, bits) in gates {
            let kind = KINDS[kind];
            let arity = kind.arity().unwrap_or(2 + (bits & 1) as usize);
            let fanins = (0..arity)
                .map(|p| nodes[(bits >> (1 + 8 * p)) as usize % nodes.len()])
                .collect();
            nodes.push(net.add_gate(kind, fanins));
        }
        for (j, &(code, pick)) in outputs.iter().enumerate() {
            let output = fresh(code, format!("out{j}"), &mut used);
            net.add_output(output, nodes[pick as usize % nodes.len()]);
        }

        let text = write_blif(&net);
        let back = parse_blif(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        prop_assert_eq!(back.name(), sanitized(net.name()));
        let names = |n: &Network| -> Vec<String> {
            n.outputs().iter().map(|(o, _)| sanitized(o)).collect()
        };
        prop_assert_eq!(names(&back), names(&net));
        let input_names = |n: &Network| -> Vec<String> {
            n.inputs().iter().map(|&i| sanitized(n.node_name(i).unwrap_or(""))).collect()
        };
        prop_assert_eq!(input_names(&back), input_names(&net));
        for m in 0..1u64 << inputs.len() {
            prop_assert_eq!(back.eval_u64(m), net.eval_u64(m), "at {}\n{}", m, text);
        }
    }
}
