//! The BLIF reader and writer as they were before the one-pass
//! rewrite, kept only as test oracles: the current reader must build the
//! same network node for node wherever this one accepts the input and no
//! signal is defined twice, and the current writer must write the same
//! bytes wherever no generated label collides with a name.
//!
//! Shared by the crate's unit tests and by integration tests, which
//! include it with `#[path]` and put `ParseError` at their crate root.

#![allow(dead_code)]

use crate::ParseError;
use std::collections::HashMap;
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

const MAX_LINE_LEN: usize = 1 << 20;
const MAX_CUBES_PER_COVER: usize = 1 << 20;
const MAX_INSTANTIATE_DEPTH: usize = 512;

/// One `.names` definition: a single-output SOP node.
#[derive(Debug, Clone)]
struct NamesNode {
    inputs: Vec<String>,
    /// cube patterns over the inputs, each a vector of `Some(phase)`/`None`
    cubes: Vec<Vec<Option<bool>>>,
    /// `true` if the cover describes the on-set, `false` for the off-set
    on_set: bool,
    line: usize,
}

/// Parses a BLIF model into a [`Network`].
///
/// Supports the combinational subset used by the IWLS'91 benchmarks:
/// `.model`, `.inputs`, `.outputs`, `.names` with on-set or off-set covers,
/// line continuations and comments. Latches and subcircuits are rejected.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, unknown directives,
/// undefined signals, cyclic definitions, or input exceeding the
/// [`MAX_LINE_LEN`] / [`MAX_CUBES_PER_COVER`] / [`MAX_INSTANTIATE_DEPTH`]
/// robustness limits.
pub fn parse_blif(src: &str) -> Result<Network, ParseError> {
    // Join continuation lines, strip comments, keep line numbers.
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in src.lines().enumerate() {
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let mut text = no_comment.trim_end().to_string();
        let continued = text.ends_with('\\');
        if continued {
            text.pop();
        }
        match pending.take() {
            Some((l0, mut acc)) => {
                acc.push(' ');
                acc.push_str(text.trim());
                if acc.len() > MAX_LINE_LEN {
                    return Err(ParseError::new(
                        l0,
                        format!("logical line exceeds {MAX_LINE_LEN} bytes"),
                    ));
                }
                if continued {
                    pending = Some((l0, acc));
                } else {
                    lines.push((l0, acc));
                }
            }
            None => {
                if text.len() > MAX_LINE_LEN {
                    return Err(ParseError::new(
                        i + 1,
                        format!("logical line exceeds {MAX_LINE_LEN} bytes"),
                    ));
                }
                if continued {
                    pending = Some((i + 1, text));
                } else if !text.trim().is_empty() {
                    lines.push((i + 1, text));
                }
            }
        }
    }
    if let Some((l, acc)) = pending {
        lines.push((l, acc));
    }

    let mut model_name = String::from("model");
    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut nodes: HashMap<String, NamesNode> = HashMap::new();
    let mut order: Vec<String> = Vec::new();

    let mut current: Option<(String, NamesNode)> = None;
    let finish_current = |current: &mut Option<(String, NamesNode)>,
                          nodes: &mut HashMap<String, NamesNode>,
                          order: &mut Vec<String>| {
        if let Some((name, node)) = current.take() {
            order.push(name.clone());
            nodes.insert(name, node);
        }
    };

    for (lineno, line) in &lines {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix('.') {
            finish_current(&mut current, &mut nodes, &mut order);
            let mut tok = rest.split_whitespace();
            let dir = tok.next().unwrap_or("");
            match dir {
                "model" => {
                    if let Some(n) = tok.next() {
                        model_name = n.to_string();
                    }
                }
                "inputs" => input_names.extend(tok.map(str::to_string)),
                "outputs" => output_names.extend(tok.map(str::to_string)),
                "names" => {
                    let mut sig: Vec<String> = tok.map(str::to_string).collect();
                    let out = sig
                        .pop()
                        .ok_or_else(|| ParseError::new(*lineno, ".names needs an output signal"))?;
                    current = Some((
                        out,
                        NamesNode {
                            inputs: sig,
                            cubes: Vec::new(),
                            on_set: true,
                            line: *lineno,
                        },
                    ));
                }
                "end" => {}
                "exdc" => {
                    return Err(ParseError::new(*lineno, ".exdc is not supported"));
                }
                "latch" | "subckt" | "gate" | "mlatch" => {
                    return Err(ParseError::new(
                        *lineno,
                        format!(".{dir} is not supported (combinational BLIF only)"),
                    ));
                }
                // benign directives some writers emit
                "default_input_arrival"
                | "default_output_required"
                | "wire_load_slope"
                | "area"
                | "delay"
                | "search" => {}
                other => {
                    return Err(ParseError::new(
                        *lineno,
                        format!("unknown directive .{other}"),
                    ));
                }
            }
        } else {
            // cover row for the current .names
            let Some((_, node)) = current.as_mut() else {
                return Err(ParseError::new(*lineno, "cover row outside .names"));
            };
            let mut parts = line.split_whitespace();
            let (pattern, value) = if node.inputs.is_empty() {
                (
                    "",
                    parts
                        .next()
                        .ok_or_else(|| ParseError::new(*lineno, "empty cover row"))?,
                )
            } else {
                let p = parts
                    .next()
                    .ok_or_else(|| ParseError::new(*lineno, "missing cube pattern"))?;
                let v = parts
                    .next()
                    .ok_or_else(|| ParseError::new(*lineno, "missing output value"))?;
                (p, v)
            };
            if parts.next().is_some() {
                return Err(ParseError::new(*lineno, "trailing tokens in cover row"));
            }
            if pattern.len() != node.inputs.len() {
                return Err(ParseError::new(
                    *lineno,
                    format!(
                        "cube width {} does not match {} inputs",
                        pattern.len(),
                        node.inputs.len()
                    ),
                ));
            }
            let cube: Vec<Option<bool>> = pattern
                .chars()
                .map(|c| match c {
                    '1' => Ok(Some(true)),
                    '0' => Ok(Some(false)),
                    '-' => Ok(None),
                    other => Err(ParseError::new(
                        *lineno,
                        format!("bad cube character '{other}'"),
                    )),
                })
                .collect::<Result<_, _>>()?;
            let on = match value {
                "1" => true,
                "0" => false,
                other => {
                    return Err(ParseError::new(
                        *lineno,
                        format!("bad output value '{other}'"),
                    ))
                }
            };
            if !node.cubes.is_empty() && on != node.on_set {
                return Err(ParseError::new(
                    *lineno,
                    "mixed on-set and off-set rows in one .names",
                ));
            }
            if node.cubes.len() >= MAX_CUBES_PER_COVER {
                return Err(ParseError::new(
                    *lineno,
                    format!("cover exceeds {MAX_CUBES_PER_COVER} cubes"),
                ));
            }
            node.on_set = on;
            node.cubes.push(cube);
        }
    }
    finish_current(&mut current, &mut nodes, &mut order);

    // Instantiate the network, resolving dependencies depth-first.
    let mut net = Network::new(model_name);
    let mut sig: HashMap<String, SignalId> = HashMap::new();
    for name in &input_names {
        let s = net.add_input(name.clone());
        if sig.insert(name.clone(), s).is_some() {
            return Err(ParseError::new(0, format!("duplicate input {name}")));
        }
    }

    fn instantiate(
        name: &str,
        nodes: &HashMap<String, NamesNode>,
        net: &mut Network,
        sig: &mut HashMap<String, SignalId>,
        visiting: &mut Vec<String>,
    ) -> Result<SignalId, ParseError> {
        if let Some(&s) = sig.get(name) {
            return Ok(s);
        }
        let Some(node) = nodes.get(name) else {
            return Err(ParseError::new(0, format!("undefined signal {name}")));
        };
        if visiting.iter().any(|v| v == name) {
            return Err(ParseError::new(
                node.line,
                format!("cyclic definition of {name}"),
            ));
        }
        if visiting.len() >= MAX_INSTANTIATE_DEPTH {
            return Err(ParseError::new(
                node.line,
                format!("definition nesting exceeds {MAX_INSTANTIATE_DEPTH} levels"),
            ));
        }
        visiting.push(name.to_string());
        let fanins: Vec<SignalId> = node
            .inputs
            .iter()
            .map(|i| instantiate(i, nodes, net, sig, visiting))
            .collect::<Result<_, _>>()?;
        visiting.pop();
        // Build the SOP.
        let mut cube_sigs: Vec<SignalId> = Vec::new();
        for cube in &node.cubes {
            let lits: Vec<SignalId> = cube
                .iter()
                .enumerate()
                .filter_map(|(i, ph)| ph.map(|p| (i, p)))
                .map(|(i, p)| {
                    if p {
                        fanins[i]
                    } else {
                        net.add_gate(GateKind::Not, vec![fanins[i]])
                    }
                })
                .collect();
            let c = match lits.len() {
                0 => net.add_gate(GateKind::Const1, vec![]),
                1 => lits[0],
                _ => net.add_gate(GateKind::And, lits),
            };
            cube_sigs.push(c);
        }
        let mut s = match cube_sigs.len() {
            0 => net.add_gate(GateKind::Const0, vec![]),
            1 => cube_sigs[0],
            _ => net.add_gate(GateKind::Or, cube_sigs),
        };
        if !node.on_set {
            s = net.add_gate(GateKind::Not, vec![s]);
        }
        sig.insert(name.to_string(), s);
        Ok(s)
    }

    let mut visiting = Vec::new();
    for out in &output_names {
        let s = instantiate(out, &nodes, &mut net, &mut sig, &mut visiting)?;
        net.add_output(out.clone(), s);
    }
    Ok(net)
}

/// Serializes a network as BLIF text.
///
/// Every gate becomes a `.names` node; n-ary XOR/XNOR gates are written as
/// explicit parity covers, so their fanin counts should be modest (they are
/// at most a handful in synthesized networks).
pub fn write_blif(net: &Network) -> String {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", sanitize(net.name())));
    out.push_str(".inputs");
    for &i in net.inputs() {
        out.push(' ');
        out.push_str(&node_label(net, i));
    }
    out.push('\n');
    out.push_str(".outputs");
    for (name, _) in net.outputs() {
        out.push(' ');
        out.push_str(&sanitize(name));
    }
    out.push('\n');

    for id in net.topo_order() {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fanins = net.fanins(id);
        let label = node_label(net, id);
        let header = |out: &mut String| {
            out.push_str(".names");
            for &f in fanins {
                out.push(' ');
                out.push_str(&node_label(net, f));
            }
            out.push(' ');
            out.push_str(&label);
            out.push('\n');
        };
        match kind {
            GateKind::Const0 => {
                out.push_str(&format!(".names {label}\n"));
            }
            GateKind::Const1 => {
                out.push_str(&format!(".names {label}\n1\n"));
            }
            GateKind::Buf => {
                header(&mut out);
                out.push_str("1 1\n");
            }
            GateKind::Not => {
                header(&mut out);
                out.push_str("0 1\n");
            }
            GateKind::And => {
                header(&mut out);
                out.push_str(&"1".repeat(fanins.len()));
                out.push_str(" 1\n");
            }
            GateKind::Nand => {
                header(&mut out);
                out.push_str(&"1".repeat(fanins.len()));
                out.push_str(" 0\n");
            }
            GateKind::Or => {
                header(&mut out);
                for i in 0..fanins.len() {
                    let mut row = vec!['-'; fanins.len()];
                    row[i] = '1';
                    out.push_str(&row.iter().collect::<String>());
                    out.push_str(" 1\n");
                }
            }
            GateKind::Nor => {
                header(&mut out);
                out.push_str(&"0".repeat(fanins.len()));
                out.push_str(" 1\n");
            }
            GateKind::Xor | GateKind::Xnor => {
                header(&mut out);
                let k = fanins.len();
                let want_odd = *kind == GateKind::Xor;
                for m in 0..(1u64 << k) {
                    let odd = m.count_ones() % 2 == 1;
                    if odd == want_odd {
                        let row: String = (0..k)
                            .map(|b| if m & (1 << b) != 0 { '1' } else { '0' })
                            .collect();
                        out.push_str(&row);
                        out.push_str(" 1\n");
                    }
                }
            }
        }
    }

    // outputs that alias internal signals need a buffer row when the signal
    // name differs from the output name
    for (name, sig) in net.outputs() {
        let label = node_label(net, *sig);
        if sanitize(name) != label {
            out.push_str(&format!(".names {label} {} \n", sanitize(name)));
            // fix trailing space for cleanliness
            out.pop();
            out.pop();
            out.push('\n');
            out.push_str("1 1\n");
        }
    }
    out.push_str(".end\n");
    out
}

fn node_label(net: &Network, id: SignalId) -> String {
    match net.node_name(id) {
        Some(n) => sanitize(n),
        None => format!("n{}", id.index()),
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_whitespace() { '_' } else { c })
        .collect()
}
