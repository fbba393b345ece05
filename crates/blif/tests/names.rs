//! Names survive `write_blif` → `parse_blif`: random networks whose
//! model, input and output names mix `n<digits>` (the writer's labels for
//! unnamed gates), `#`, `\` and whitespace read back as the same function
//! under the same (sanitized) names, where two different names that
//! sanitize alike read back as two labels.

use proptest::prelude::*;
use std::collections::HashSet;
use xsynth_blif::{parse_blif, write_blif};
use xsynth_net::{GateKind, Network, SignalId};

/// A name drawn from `code`: mostly `n<digits>` with small indices that
/// hit the gates' labels, else a name carrying `#`, `\` or whitespace,
/// from small families whose members sanitize alike (`a#1`, `a 1`, `a_1`;
/// `x1\`, `x1#`; `s 1`, `s\t1`) or like a later label (`a_1_1`).
fn name(code: u64) -> String {
    let d = code >> 8 & 15;
    let f = d & 3;
    match code & 15 {
        0..=4 => format!("n{d}"),
        5 => format!("a#{f}"),
        6 => format!("a {f}"),
        7 => format!("a_{f}"),
        8 => format!("a_{f}_1"),
        9 => format!("x{f}\\"),
        10 => format!("x{f}#"),
        11 => format!("s {f}"),
        12 => format!("s\t{f}"),
        13 => format!("t\t{d}#\\"),
        _ => format!("\\n{d}"),
    }
}

/// What the writer turns `name` into.
fn sanitized(name: &str) -> String {
    name.replace(|c: char| c.is_whitespace() || c == '#' || c == '\\', "_")
}

/// A fresh name from `code`, or `fallback` when the name is taken: one
/// network has no two inputs or outputs of the same name. Names that only
/// sanitize alike are kept.
fn fresh(code: u64, fallback: String, used: &mut HashSet<String>) -> String {
    let candidate = name(code);
    let chosen = if used.contains(&candidate) {
        fallback
    } else {
        candidate
    };
    used.insert(chosen.clone());
    chosen
}

/// The labels the writer gives `names`, the distinct input names then
/// output names of a network without named gates: the first name of each
/// sanitized form keeps it, each later one takes the first `<label>_<k>`
/// that is no name's sanitized form and no earlier label.
fn labels(names: &[String]) -> Vec<String> {
    let forms: HashSet<String> = names.iter().map(|n| sanitized(n)).collect();
    let mut used = HashSet::new();
    let mut out = Vec::new();
    for name in names {
        let form = sanitized(name);
        let label = if used.contains(&form) {
            (1..)
                .map(|k| format!("{form}_{k}"))
                .find(|l| !forms.contains(l) && !used.contains(l))
                .expect("a free label")
        } else {
            form
        };
        used.insert(label.clone());
        out.push(label);
    }
    out
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
            let inputs = n.inputs().iter().map(|&i| n.node_name(i).unwrap_or(""));
            inputs.chain(n.outputs().iter().map(|(o, _)| o.as_str())).map(String::from).collect()
        };
        prop_assert_eq!(names(&back), labels(&names(&net)), "{}", text);
        for m in 0..1u64 << inputs.len() {
            prop_assert_eq!(back.eval_u64(m), net.eval_u64(m), "at {}\n{}", m, text);
        }
    }
}
