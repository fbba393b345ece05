//! Cut-based minimum-area covering.

use crate::library::{tt_mask, Library};
use std::collections::HashMap;
use xsynth_boolean::FxHashMap;
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// The result of technology mapping: a netlist of library cells.
#[derive(Debug, Clone)]
pub struct Mapping {
    input_names: Vec<String>,
    /// `(cell index, fanins)` — a fanin is either an input (`< inputs`) or
    /// `inputs + gate index`.
    gates: Vec<(usize, Vec<usize>)>,
    outputs: Vec<(String, usize)>,
    cell_names: Vec<String>,
    cell_pins: Vec<usize>,
    area: f64,
}

impl Mapping {
    /// Number of mapped cells (inverters and buffers included, zero-pin
    /// tie cells excluded — the SIS `map` gate count).
    pub fn num_gates(&self) -> usize {
        self.gates
            .iter()
            .filter(|(c, _)| self.cell_pins[*c] > 0)
            .count()
    }

    /// Total cell input pins (the post-mapping literal count).
    pub fn num_literals(&self) -> usize {
        self.gates.iter().map(|(_, f)| f.len()).sum()
    }

    /// Total cell area.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Depth of the mapped netlist in cell levels (every cell counts one).
    pub fn depth(&self) -> usize {
        let n_in = self.input_names.len();
        let mut d = vec![0usize; n_in + self.gates.len()];
        for (gi, (_, fanins)) in self.gates.iter().enumerate() {
            let base = fanins.iter().map(|&f| d[f]).max().unwrap_or(0);
            d[n_in + gi] = base + 1;
        }
        self.outputs.iter().map(|&(_, s)| d[s]).max().unwrap_or(0)
    }

    /// How many instances of each cell were used, by cell name.
    pub fn cell_histogram(&self) -> HashMap<String, usize> {
        let mut h = HashMap::new();
        for (c, _) in &self.gates {
            *h.entry(self.cell_names[*c].clone()).or_default() += 1;
        }
        h
    }

    /// Emits the mapped netlist as structural Verilog: one module with the
    /// library cells instantiated gate by gate (cell pins are named
    /// `a, b, c, d` in pin order with output `y`, matching
    /// [`Library::mcnc`]'s conventions).
    pub fn to_verilog(&self, module: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let id = |k: usize, names: &[String]| -> String {
            if k < names.len() {
                sanitize_verilog(&names[k])
            } else {
                format!("w{}", k - names.len())
            }
        };
        let ports: Vec<String> = self
            .input_names
            .iter()
            .map(|n| sanitize_verilog(n))
            .chain(self.outputs.iter().map(|(n, _)| sanitize_verilog(n)))
            .collect();
        let _ = writeln!(
            s,
            "module {} ({});",
            sanitize_verilog(module),
            ports.join(", ")
        );
        for n in &self.input_names {
            let _ = writeln!(s, "  input {};", sanitize_verilog(n));
        }
        for (n, _) in &self.outputs {
            let _ = writeln!(s, "  output {};", sanitize_verilog(n));
        }
        for gi in 0..self.gates.len() {
            let _ = writeln!(s, "  wire w{gi};");
        }
        const PIN_NAMES: [&str; 4] = ["a", "b", "c", "d"];
        for (gi, (cell, fanins)) in self.gates.iter().enumerate() {
            let mut pins: Vec<String> = fanins
                .iter()
                .enumerate()
                .map(|(k, &f)| format!(".{}({})", PIN_NAMES[k], id(f, &self.input_names)))
                .collect();
            pins.push(format!(".y(w{gi})"));
            let _ = writeln!(
                s,
                "  {} g{gi} ({});",
                self.cell_names[*cell],
                pins.join(", ")
            );
        }
        for (name, sig) in &self.outputs {
            let _ = writeln!(
                s,
                "  assign {} = {};",
                sanitize_verilog(name),
                id(*sig, &self.input_names)
            );
        }
        let _ = writeln!(s, "endmodule");
        s
    }

    /// Reconstructs a gate network computing the mapped netlist's
    /// function, for verification against the subject network.
    pub fn to_network(&self, lib: &Library) -> Network {
        let mut net = Network::new("mapped");
        let mut sig: Vec<SignalId> = self
            .input_names
            .iter()
            .map(|n| net.add_input(n.clone()))
            .collect();
        for (cell, fanins) in &self.gates {
            let t = lib.cell_table(*cell);
            let fan_sigs: Vec<SignalId> = fanins.iter().map(|&f| sig[f]).collect();
            // the cell function as a two-level SOP over its fanins
            let k = fan_sigs.len();
            let mut cubes = Vec::new();
            for m in 0..(1u64 << k) {
                if t.eval(m) {
                    let lits: Vec<SignalId> = (0..k)
                        .map(|i| {
                            if m & (1 << i) != 0 {
                                fan_sigs[i]
                            } else {
                                net.add_gate(GateKind::Not, vec![fan_sigs[i]])
                            }
                        })
                        .collect();
                    cubes.push(match lits.len() {
                        0 => net.add_gate(GateKind::Const1, vec![]),
                        1 => lits[0],
                        _ => net.add_gate(GateKind::And, lits),
                    });
                }
            }
            let s = match cubes.len() {
                0 => net.add_gate(GateKind::Const0, vec![]),
                1 => cubes[0],
                _ => net.add_gate(GateKind::Or, cubes),
            };
            sig.push(s);
        }
        for (name, idx) in &self.outputs {
            net.add_output(name.clone(), sig[*idx]);
        }
        net
    }
}

/// What the covering DP minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapGoal {
    /// Minimum total cell area (the paper's Table 2 setting).
    #[default]
    Area,
    /// Minimum depth in cell levels, ties broken by area — the delay-
    /// oriented mode the paper's conclusion flags as future analysis.
    Depth,
}

/// Makes a name a legal Verilog identifier.
fn sanitize_verilog(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Maximum cut size (the library has up to 4 pins).
const CUT_SIZE: usize = 4;
/// Cuts kept per node.
const CUTS_PER_NODE: usize = 64;

/// Positions holding a 1 in variable `v` of a 16-bit truth table.
const VAR_MASK: [u16; CUT_SIZE] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// A cut of at most [`CUT_SIZE`] leaves (sorted subject-node indices)
/// with its root's function over them: bit `m` of `tt` is the root's value
/// when leaf `b` takes bit `b` of `m`. Unused leaf slots are zero, so
/// `(n, leaves)` orders cuts by size, then by leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cut {
    n: u8,
    leaves: [u32; CUT_SIZE],
    tt: u16,
}

impl Cut {
    /// The trivial cut of a node by itself (an input's only cut).
    fn unit(node: usize) -> Cut {
        Cut {
            n: 1,
            leaves: [node as u32, 0, 0, 0],
            tt: 0b10,
        }
    }

    fn constant(value: bool) -> Cut {
        Cut {
            n: 0,
            leaves: [0; CUT_SIZE],
            tt: u16::from(value),
        }
    }

    fn is_unit(&self, node: usize) -> bool {
        self.n == 1 && self.leaves[0] == node as u32
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..self.n as usize]
    }

    /// One bit per leaf modulo 64: `a ⊆ b` implies `sig(a) & !sig(b) == 0`.
    fn signature(&self) -> u64 {
        self.leaves().iter().fold(0, |s, &l| s | 1 << (l % 64))
    }

    /// The same cut seen through an inverter.
    fn not(self) -> Cut {
        Cut {
            tt: self.tt ^ tt_mask(self.n as usize),
            ..self
        }
    }

    /// The AND of two cuts over the sorted union of their leaves, or
    /// `None` when the union has more than [`CUT_SIZE`] leaves.
    fn and(a: &Cut, b: &Cut) -> Option<Cut> {
        let (la, lb) = (a.leaves(), b.leaves());
        let mut out = Cut::constant(false);
        // pa[k] / pb[k]: the merged position of a's / b's leaf k
        let (mut pa, mut pb) = ([0usize; CUT_SIZE], [0usize; CUT_SIZE]);
        let (mut i, mut j) = (0, 0);
        while i < la.len() || j < lb.len() {
            if out.n as usize == CUT_SIZE {
                return None;
            }
            let x = la.get(i).map_or(u64::MAX, |&l| u64::from(l));
            let y = lb.get(j).map_or(u64::MAX, |&l| u64::from(l));
            let k = out.n as usize;
            if x <= y {
                pa[i] = k;
                i += 1;
            }
            if y <= x {
                pb[j] = k;
                j += 1;
            }
            out.leaves[k] = x.min(y) as u32;
            out.n += 1;
        }
        let tt = stretch(a.tt, la.len(), &pa) & stretch(b.tt, lb.len(), &pb);
        out.tt = tt & tt_mask(out.n as usize);
        Some(out)
    }
}

/// Re-expresses a function of `n` leaves over a larger leaf set in which
/// leaf `j` sits at position `pos[j]` (strictly increasing in `j`).
fn stretch(tt: u16, n: usize, pos: &[usize; CUT_SIZE]) -> u16 {
    // replicate over the unused variables, making them don't-cares
    let mut t = tt;
    for v in n..CUT_SIZE {
        t |= t << (1 << v);
    }
    // highest leaf first, so each target position holds a don't-care
    for j in (0..n).rev() {
        if pos[j] != j {
            t = swap_vars(t, j, pos[j]);
        }
    }
    t
}

/// Exchanges variables `i < j` of a 16-bit truth table.
fn swap_vars(t: u16, i: usize, j: usize) -> u16 {
    let shift = (1 << j) - (1 << i);
    let m = VAR_MASK[i] & !VAR_MASK[j];
    (t & !(m | m << shift)) | (t & m) << shift | (t >> shift) & m
}

#[derive(Clone, Copy)]
struct Choice<'a> {
    cut: Cut,
    cell: usize,
    perm: &'a [usize],
}

/// Maps a network onto `lib` for minimum area.
///
/// The network is first lowered to a two-input AND/inverter subject graph.
/// 4-feasible cuts are enumerated bottom-up, and each cut carries its
/// root's function as a 16-bit truth table composed from its fanins' cut
/// functions (complemented through an inverter, leaf-aligned and ANDed
/// through an AND). Each cut function is matched against the library, and
/// a minimum-area cover is selected by dynamic programming over the DAG
/// (with the usual tree approximation of area).
///
/// # Panics
///
/// Panics if some cut function has no matching cell — impossible with any
/// library containing inverter + and2 (or nand2) + tie cells, such as
/// [`Library::mcnc`].
pub fn map_network(net: &Network, lib: &Library) -> Mapping {
    map_network_for(net, lib, MapGoal::Area)
}

/// Maps a network onto `lib` optimizing the chosen [`MapGoal`].
///
/// # Panics
///
/// Panics under the same conditions as [`map_network`].
pub fn map_network_for(net: &Network, lib: &Library, goal: MapGoal) -> Mapping {
    let subject = to_subject(net);
    let order = subject.topo_order();
    let n_nodes = subject.num_nodes();

    // 1. cut enumeration
    let cuts = enumerate_cuts(&subject, &order);

    // 2. dynamic program for the chosen goal: cost = (primary, secondary)
    // with primary = area (Area goal) or depth (Depth goal, ties by area)
    let mut best_cost: Vec<(f64, f64)> = vec![(f64::INFINITY, f64::INFINITY); n_nodes];
    let mut best_choice: Vec<Option<Choice>> = vec![None; n_nodes];
    for &id in &order {
        let i = id.index();
        if matches!(subject.kind(id), NodeKind::Input) {
            best_cost[i] = (0.0, 0.0);
            continue;
        }
        for cut in &cuts[i] {
            if cut.is_unit(i) {
                continue; // the trivial self-cut implements nothing
            }
            let Some((cell, perm)) = lib.matches(cut.n as usize, cut.tt) else {
                continue;
            };
            let cell_area = lib.cells()[cell].area();
            let cost = match goal {
                MapGoal::Area => {
                    let mut area = cell_area;
                    for &l in cut.leaves() {
                        area += best_cost[l as usize].0;
                    }
                    (area, 0.0)
                }
                MapGoal::Depth => {
                    let mut depth = 0.0f64;
                    let mut area = cell_area;
                    for &l in cut.leaves() {
                        let (d, a) = best_cost[l as usize];
                        depth = depth.max(d);
                        area += a;
                    }
                    (depth + 1.0, area)
                }
            };
            if cost < best_cost[i] {
                best_cost[i] = cost;
                best_choice[i] = Some(Choice {
                    cut: *cut,
                    cell,
                    perm,
                });
            }
        }
        assert!(
            best_choice[i].is_some(),
            "no library match for subject node {i} — the library lacks a base cell"
        );
    }

    // 3. backtrack from outputs, materializing each chosen cell once
    let input_names: Vec<String> = subject
        .inputs()
        .iter()
        .map(|&s| subject.node_name(s).unwrap_or("in").to_string())
        .collect();
    let input_pos: FxHashMap<usize, usize> = subject
        .inputs()
        .iter()
        .enumerate()
        .map(|(k, s)| (s.index(), k))
        .collect();
    let n_inputs = input_names.len();

    struct Builder<'a> {
        best_choice: &'a [Option<Choice<'a>>],
        input_pos: &'a FxHashMap<usize, usize>,
        n_inputs: usize,
        lib: &'a Library,
        gates: Vec<(usize, Vec<usize>)>,
        materialized: FxHashMap<usize, usize>,
        area: f64,
    }
    impl Builder<'_> {
        fn materialize(&mut self, node: usize) -> usize {
            if let Some(&m) = self.materialized.get(&node) {
                return m;
            }
            if let Some(&pos) = self.input_pos.get(&node) {
                self.materialized.insert(node, pos);
                return pos;
            }
            let choice = self.best_choice[node].expect("every reachable gate node has a choice");
            let leaf_sigs: Vec<usize> = choice
                .cut
                .leaves()
                .iter()
                .map(|&l| self.materialize(l as usize))
                .collect();
            // pin i of the cell reads cut leaf perm[i]
            let fanins: Vec<usize> = choice.perm.iter().map(|&p| leaf_sigs[p]).collect();
            let sig = self.n_inputs + self.gates.len();
            self.area += self.lib.cells()[choice.cell].area();
            self.gates.push((choice.cell, fanins));
            self.materialized.insert(node, sig);
            sig
        }
    }

    let mut b = Builder {
        best_choice: &best_choice,
        input_pos: &input_pos,
        n_inputs,
        lib,
        gates: Vec::new(),
        materialized: FxHashMap::default(),
        area: 0.0,
    };
    let mut outputs = Vec::new();
    for (name, sig) in subject.outputs().to_vec() {
        let m = b.materialize(sig.index());
        outputs.push((name, m));
    }

    Mapping {
        input_names,
        gates: b.gates,
        outputs,
        cell_names: lib.cells().iter().map(|c| c.name().to_string()).collect(),
        cell_pins: lib.cells().iter().map(|c| c.num_pins()).collect(),
        area: b.area,
    }
}

/// Enumerates the cuts of every node of an AND/inverter subject graph,
/// fanins before fanouts, composing each cut's function bottom-up.
fn enumerate_cuts(subject: &Network, order: &[SignalId]) -> Vec<Vec<Cut>> {
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); subject.num_nodes()];
    for &id in order {
        let i = id.index();
        let fanin = |k: usize| &cuts[subject.fanins(id)[k].index()];
        let mut cs = vec![Cut::unit(i)];
        match subject.kind(id) {
            NodeKind::Input => {}
            NodeKind::Gate(k @ (GateKind::Const0 | GateKind::Const1)) => {
                cs = vec![Cut::constant(*k == GateKind::Const1)];
            }
            NodeKind::Gate(GateKind::Not) => {
                cs.extend(fanin(0).iter().map(|c| c.not()));
                dedup_cuts(&mut cs, i);
            }
            NodeKind::Gate(GateKind::And) => {
                let (c0, c1) = (fanin(0), fanin(1));
                let sig1: Vec<u64> = c1.iter().map(Cut::signature).collect();
                for a in c0 {
                    let sig0 = a.signature();
                    for (b, &s1) in c1.iter().zip(&sig1) {
                        // the union has at least as many leaves as bits
                        if (sig0 | s1).count_ones() as usize > CUT_SIZE {
                            continue;
                        }
                        cs.extend(Cut::and(a, b));
                    }
                }
                dedup_cuts(&mut cs, i);
            }
            other => panic!("unexpected subject-graph node {other:?}"),
        }
        cuts[i] = cs;
    }
    cuts
}

/// Sorts `cs` by (size, leaves), drops duplicates and dominated cuts, and
/// keeps the first [`CUTS_PER_NODE`].
fn dedup_cuts(cs: &mut Vec<Cut>, node: usize) {
    cs.sort_unstable_by_key(|c| (c.n, c.leaves));
    // equal leaves under one root mean an equal function
    cs.dedup_by_key(|c| (c.n, c.leaves));
    // drop dominated cuts (a strict superset of another cut never matches
    // a cheaper cell family exclusively enough to matter at this size),
    // but always keep the trivial self-cut: fanout cuts build on it. A
    // dominating cut is strictly smaller, so it sorts earlier, and by
    // transitivity some kept cut dominates too.
    let mut kept = 0;
    for k in 0..cs.len() {
        if kept == CUTS_PER_NODE {
            break;
        }
        let c = cs[k];
        let sig = c.signature();
        let dominated = !c.is_unit(node)
            && cs[..kept].iter().any(|o| {
                o.n < c.n
                    && o.signature() & !sig == 0
                    && o.leaves().iter().all(|l| c.leaves().contains(l))
            });
        if !dominated {
            cs[kept] = c;
            kept += 1;
        }
    }
    cs.truncate(kept);
}

/// Lowers a network to the two-input AND / inverter subject graph.
fn to_subject(net: &Network) -> Network {
    let d = net.decompose2().sweep();
    let mut out = Network::new(d.name().to_string());
    let mut map: FxHashMap<SignalId, SignalId> = FxHashMap::default();
    for &i in d.inputs() {
        let ni = out.add_input(d.node_name(i).unwrap_or("in").to_string());
        map.insert(i, ni);
    }
    for id in d.topo_order() {
        let NodeKind::Gate(kind) = d.kind(id) else {
            continue;
        };
        let fan: Vec<SignalId> = d.fanins(id).iter().map(|f| map[f]).collect();
        let s = match kind {
            GateKind::Const0 => out.add_gate(GateKind::Const0, vec![]),
            GateKind::Const1 => out.add_gate(GateKind::Const1, vec![]),
            GateKind::Buf => fan[0],
            GateKind::Not => out.add_gate(GateKind::Not, vec![fan[0]]),
            GateKind::And => out.add_gate(GateKind::And, fan),
            GateKind::Or => {
                let n0 = out.add_gate(GateKind::Not, vec![fan[0]]);
                let n1 = out.add_gate(GateKind::Not, vec![fan[1]]);
                let a = out.add_gate(GateKind::And, vec![n0, n1]);
                out.add_gate(GateKind::Not, vec![a])
            }
            other => panic!("decompose2 must not emit {other}"),
        };
        map.insert(id, s);
    }
    for (name, sig) in d.outputs() {
        out.add_output(name.clone(), map[sig]);
    }
    out.strash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Library;
    use proptest::prelude::*;

    /// Oracle: the function of `node` in terms of the cut leaves, by
    /// evaluating the cone once per leaf minterm.
    fn cut_function(subject: &Network, handle: &[Option<SignalId>], node: usize, cut: &Cut) -> u16 {
        let mut tt = 0u16;
        for m in 0..1u16 << cut.n {
            let mut vals: FxHashMap<usize, bool> = FxHashMap::default();
            for (b, &l) in cut.leaves().iter().enumerate() {
                vals.insert(l as usize, m & (1 << b) != 0);
            }
            if eval_to_cut(subject, handle, node, &mut vals) {
                tt |= 1 << m;
            }
        }
        tt
    }

    fn eval_to_cut(
        subject: &Network,
        handle: &[Option<SignalId>],
        node: usize,
        vals: &mut FxHashMap<usize, bool>,
    ) -> bool {
        if let Some(&v) = vals.get(&node) {
            return v;
        }
        let sid = handle[node].expect("cut nodes are reachable");
        let mut fanin =
            |k: usize| eval_to_cut(subject, handle, subject.fanins(sid)[k].index(), vals);
        let v = match subject.kind(sid) {
            NodeKind::Input => panic!("reached an input beyond the cut — malformed cut"),
            NodeKind::Gate(GateKind::Const0) => false,
            NodeKind::Gate(GateKind::Const1) => true,
            NodeKind::Gate(GateKind::Not) => !fanin(0),
            NodeKind::Gate(GateKind::And) => fanin(0) && fanin(1),
            other => panic!("unexpected subject node {other:?}"),
        };
        vals.insert(node, v);
        v
    }

    /// A random AND/inverter graph: `picks[i]` chooses gate `i`'s kind and
    /// second fanin; its first fanin is the newest signal, so every gate
    /// lies in the output's cone.
    fn random_subject(n_inputs: usize, with_const: bool, picks: &[(u8, u8)]) -> Network {
        let mut net = Network::new("subject");
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        if with_const {
            sigs.push(net.add_gate(GateKind::Const1, vec![]));
        }
        for &(kind, b) in picks {
            let fa = *sigs.last().expect("inputs exist");
            let fb = sigs[b as usize % sigs.len()];
            let g = match kind % 3 {
                0 => net.add_gate(GateKind::Not, vec![fa]),
                _ => net.add_gate(GateKind::And, vec![fa, fb]),
            };
            sigs.push(g);
        }
        net.add_output("f", *sigs.last().expect("at least one signal"));
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every enumerated cut carries its root's function over its leaves.
        #[test]
        fn cut_truth_tables_match_cone_evaluation(
            n_inputs in 1usize..7,
            with_const in any::<bool>(),
            picks in proptest::collection::vec((0u8..3, any::<u8>()), 1..24),
        ) {
            let net = random_subject(n_inputs, with_const, &picks);
            let order = net.topo_order();
            let mut handle = vec![None; net.num_nodes()];
            for &id in &order {
                handle[id.index()] = Some(id);
            }
            let cuts = enumerate_cuts(&net, &order);
            for &id in &order {
                let i = id.index();
                prop_assert!(!cuts[i].is_empty() && cuts[i].len() <= CUTS_PER_NODE);
                for cut in &cuts[i] {
                    let n = cut.n as usize;
                    prop_assert!(n <= CUT_SIZE);
                    prop_assert!(cut.leaves().windows(2).all(|w| w[0] < w[1]));
                    prop_assert!(cut.leaves[n..].iter().all(|&l| l == 0));
                    prop_assert_eq!(cut.tt & !tt_mask(n), 0);
                    prop_assert_eq!(
                        cut.tt,
                        cut_function(&net, &handle, i, cut),
                        "node {} cut {:?}",
                        i,
                        cut
                    );
                }
            }
        }
    }

    fn check_mapping(net: &Network) -> Mapping {
        let lib = Library::mcnc();
        let mapped = map_network(net, &lib);
        let back = mapped.to_network(&lib);
        let n = net.inputs().len();
        assert!(n <= 12);
        for m in 0..(1u64 << n) {
            assert_eq!(back.eval_u64(m), net.eval_u64(m), "minterm {m}");
        }
        mapped
    }

    #[test]
    fn xor_maps_to_single_cell() {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Xor, vec![a, b]);
        n.add_output("y", x);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 1);
        assert_eq!(m.cell_histogram().get("xor2"), Some(&1));
        assert!((m.area() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn aoi_pattern_found() {
        // !(ab + c) should map to one aoi21 cell
        let mut n = Network::new("aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let o = n.add_gate(GateKind::Or, vec![ab, c]);
        let f = n.add_gate(GateKind::Not, vec![o]);
        n.add_output("y", f);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 1, "{:?}", m.cell_histogram());
        assert_eq!(m.cell_histogram().get("aoi21"), Some(&1));
    }

    #[test]
    fn full_adder_maps_reasonably() {
        let mut n = Network::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("cin");
        let s = n.add_gate(GateKind::Xor, vec![a, b, c]);
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let ax = n.add_gate(GateKind::Xor, vec![a, b]);
        let t = n.add_gate(GateKind::And, vec![ax, c]);
        let co = n.add_gate(GateKind::Or, vec![ab, t]);
        n.add_output("s", s);
        n.add_output("co", co);
        let m = check_mapping(&n);
        assert!(m.num_gates() <= 7, "got {} gates", m.num_gates());
        assert!(m.num_literals() <= 14);
    }

    #[test]
    fn nand_chain_prefers_nand_cells() {
        let mut n = Network::new("n3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_gate(GateKind::Nand, vec![a, b, c]);
        n.add_output("y", g);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 1, "{:?}", m.cell_histogram());
        assert_eq!(m.cell_histogram().get("nand3"), Some(&1));
    }

    #[test]
    fn constant_outputs_use_tie_cells() {
        let mut n = Network::new("c");
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Xor, vec![a, a]);
        n.add_output("zero", x);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 0, "tie cells are free and uncounted");
        assert_eq!(m.num_literals(), 0);
    }

    #[test]
    fn shared_logic_counted_once() {
        let mut n = Network::new("sh");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("o1", x);
        n.add_output("o2", x);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 1);
    }

    #[test]
    fn wire_output() {
        let mut n = Network::new("w");
        let a = n.add_input("a");
        n.add_output("y", a);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 0);
    }

    #[test]
    fn depth_goal_flattens_chains() {
        use crate::MapGoal;
        // an 8-input AND built as a linear chain: area mapping may keep it
        // deep, depth mapping must reach ceil(log_4(8)) = 2 nand/nor levels
        // + polarity fixup
        let mut n = Network::new("chain8");
        let ins: Vec<SignalId> = (0..8).map(|i| n.add_input(format!("x{i}"))).collect();
        let mut s = ins[0];
        for &i in &ins[1..] {
            s = n.add_gate(GateKind::And, vec![s, i]);
        }
        n.add_output("y", s);
        let lib = Library::mcnc();
        let area_map = map_network_for(&n, &lib, MapGoal::Area);
        let depth_map = map_network_for(&n, &lib, MapGoal::Depth);
        let d_area = area_map.depth();
        let d_depth = depth_map.depth();
        // Structural covering cannot re-associate the chain (the mcnc-like
        // library has no AND3/AND4 cell to absorb positive-phase windows),
        // so the guarantee is only that the depth goal never loses.
        assert!(
            d_depth <= d_area,
            "depth goal must not be deeper: {d_depth} vs {d_area}"
        );
        // both remain functionally correct
        for m in 0..256u64 {
            assert_eq!(depth_map.to_network(&lib).eval_u64(m)[0], m == 255);
            assert_eq!(area_map.to_network(&lib).eval_u64(m)[0], m == 255);
        }
        // where a matching complex cell exists, the depth goal exploits it:
        // !(a·b·c·d) collapses to one nand4 level
        let mut n2 = Network::new("nand4chain");
        let ins: Vec<SignalId> = (0..4).map(|i| n2.add_input(format!("x{i}"))).collect();
        let mut s = ins[0];
        for &i in &ins[1..] {
            s = n2.add_gate(GateKind::And, vec![s, i]);
        }
        let inv = n2.add_gate(GateKind::Not, vec![s]);
        n2.add_output("y", inv);
        let m2 = map_network_for(&n2, &lib, MapGoal::Depth);
        assert_eq!(m2.depth(), 1, "{:?}", m2.cell_histogram());
    }

    #[test]
    fn verilog_netlist_is_structural() {
        let mut n = Network::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Xor, vec![a, b]);
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("s", x);
        n.add_output("c", g);
        let lib = Library::mcnc();
        let m = map_network(&n, &lib);
        let v = m.to_verilog("half_adder");
        assert!(v.contains("module half_adder (a, b, s, c);"), "{v}");
        assert!(v.contains("xor2"), "{v}");
        assert!(v.contains("and2"), "{v}");
        assert!(v.contains("endmodule"));
        // every gate instance drives a declared wire
        for gi in 0..m.num_gates() {
            assert!(v.contains(&format!("wire w{gi};")), "{v}");
        }
    }

    #[test]
    fn verilog_sanitizes_names() {
        let mut n = Network::new("s");
        let a = n.add_input("bcd-div3.in");
        n.add_output("1out", a);
        let lib = Library::mcnc();
        let m = map_network(&n, &lib);
        let v = m.to_verilog("top");
        assert!(v.contains("bcd_div3_in"), "{v}");
        assert!(v.contains("_1out"), "{v}");
    }

    #[test]
    fn mapped_cost_of_parity16() {
        // 16-input parity: 15 xor2 cells, 30 pins.
        let mut n = Network::new("parity");
        let ins: Vec<SignalId> = (0..16).map(|i| n.add_input(format!("x{i}"))).collect();
        let x = n.add_gate(GateKind::Xor, ins);
        n.add_output("p", x);
        let lib = Library::mcnc();
        let m = map_network(&n, &lib);
        assert_eq!(m.num_gates(), 15);
        assert_eq!(m.num_literals(), 30);
    }

    #[test]
    fn mapping_beats_naive_on_invertible_logic() {
        // nor4 exists: !(a+b+c+d) should be 1 cell rather than 3 or-gates
        // and an inverter
        let mut n = Network::new("nor4");
        let ins: Vec<SignalId> = (0..4).map(|i| n.add_input(format!("x{i}"))).collect();
        let g = n.add_gate(GateKind::Nor, ins);
        n.add_output("y", g);
        let m = check_mapping(&n);
        assert_eq!(m.num_gates(), 1, "{:?}", m.cell_histogram());
    }
}
