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
        signature(self.leaves())
    }

    /// The same cut seen through an inverter.
    fn not(self) -> Cut {
        Cut {
            tt: self.tt ^ tt_mask(self.n as usize),
            ..self
        }
    }

    /// The sorted union of two cuts' leaves as `(size, leaves)`, or `None`
    /// when it has more than [`CUT_SIZE`] leaves.
    fn union(a: &Cut, b: &Cut) -> Option<(u8, [u32; CUT_SIZE])> {
        let (la, lb) = (a.leaves(), b.leaves());
        let mut leaves = [0u32; CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < la.len() && j < lb.len() {
            if n == CUT_SIZE {
                return None;
            }
            let (x, y) = (la[i], lb[j]);
            leaves[n] = x.min(y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            n += 1;
        }
        let rest = if i < la.len() { &la[i..] } else { &lb[j..] };
        if n + rest.len() > CUT_SIZE {
            return None;
        }
        leaves[n..n + rest.len()].copy_from_slice(rest);
        Some(((n + rest.len()) as u8, leaves))
    }

    /// The AND of two cuts over the sorted union of their leaves, or
    /// `None` when the union has more than [`CUT_SIZE`] leaves.
    fn and(a: &Cut, b: &Cut) -> Option<Cut> {
        let (n, leaves) = Cut::union(a, b)?;
        let merged = &leaves[..n as usize];
        // the merged position of each of a cut's leaves
        let positions = |c: &Cut| {
            let mut pos = [0usize; CUT_SIZE];
            for (p, l) in pos.iter_mut().zip(c.leaves()) {
                *p = merged.partition_point(|m| m < l);
            }
            pos
        };
        let tt =
            stretch(a.tt, a.n as usize, &positions(a)) & stretch(b.tt, b.n as usize, &positions(b));
        Some(Cut {
            n,
            leaves,
            tt: tt & tt_mask(n as usize),
        })
    }
}

/// An AND node's candidate cut before filtering: the union of fanin cuts
/// `a` and `b` (positions in the fanins' lists), whose function is
/// composed only if the candidate is kept. Its size and leaves are packed
/// into `key`, which orders candidates like `(n, leaves)` in one integer
/// compare: the size in the top 3 bits, then each leaf in 31 bits
/// ([`enumerate_cuts`] bounds every leaf by 2^31).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    key: u128,
    a: u8,
    b: u8,
}

impl Candidate {
    /// The `a` of the node's own unit cut, which no fanin cut pair forms.
    const UNIT: u8 = u8::MAX;

    fn new(n: u8, leaves: [u32; CUT_SIZE], a: u8, b: u8) -> Candidate {
        let l = leaves.map(u128::from);
        Candidate {
            key: u128::from(n) << 124 | l[0] << 93 | l[1] << 62 | l[2] << 31 | l[3],
            a,
            b,
        }
    }

    fn unit(node: usize) -> Candidate {
        Candidate::new(1, [node as u32, 0, 0, 0], Candidate::UNIT, Candidate::UNIT)
    }

    /// The size and the leaves packed into the key.
    fn leaves(&self) -> (usize, [u32; CUT_SIZE]) {
        let leaf = |shift: u32| (self.key >> shift) as u32 & 0x7fff_ffff;
        (
            (self.key >> 124) as usize,
            [leaf(93), leaf(62), leaf(31), leaf(0)],
        )
    }
}

/// The [`Cut::signature`] of a leaf list.
fn signature(leaves: &[u32]) -> u64 {
    leaves.iter().fold(0, |s, &l| s | 1 << (l % 64))
}

/// Whether `x` has at least `k` bits set, without a population count.
fn has_bits(mut x: u64, k: u32) -> bool {
    if k == 0 {
        return true;
    }
    for _ in 1..k {
        x &= x.wrapping_sub(1);
    }
    x != 0
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
/// 4-feasible cuts are enumerated bottom-up into one arena, and each cut
/// carries its root's function as a 16-bit truth table composed from its
/// fanins' cut functions (complemented through an inverter, leaf-aligned
/// and ANDed through an AND). An inverter's list is its fanin's list
/// passed through, not rebuilt; an AND's candidates are filtered in one
/// reused buffer before any function is composed. Each cut function is
/// matched against the library, and a minimum-area cover is selected by
/// dynamic programming over the DAG (with the usual tree approximation of
/// area).
///
/// # Panics
///
/// Panics if some cut function has no matching cell — impossible with any
/// library containing inverter + and2 (or nand2) + tie cells, such as
/// [`Library::mcnc`].
pub fn map_network(net: &Network, lib: &Library) -> Mapping {
    let subject = to_subject(net);
    let order = subject.topo_order();
    let n_nodes = subject.num_nodes();

    // 1. cut enumeration
    let cuts = enumerate_cuts(&subject, &order);

    // 2. dynamic program: a node's cost is the area of its best cover
    let mut best_cost: Vec<f64> = vec![f64::INFINITY; n_nodes];
    let mut best_choice: Vec<Option<Choice>> = vec![None; n_nodes];
    for &id in &order {
        let i = id.index();
        if matches!(subject.kind(id), NodeKind::Input) {
            best_cost[i] = 0.0;
            continue;
        }
        for cut in cuts.cuts(i) {
            if cut.is_unit(i) {
                continue; // the trivial self-cut implements nothing
            }
            let Some((cell, perm)) = lib.matches(cut.n as usize, cut.tt) else {
                continue;
            };
            let mut cost = lib.cells()[cell].area();
            for &l in cut.leaves() {
                cost += best_cost[l as usize];
            }
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

/// Every subject node's cuts in one arena: node `i`'s list is
/// `cuts[range[i].0..range[i].1]`, and `sigs` holds each cut's
/// [`Cut::signature`] beside it. Lists are appended fanins before fanouts
/// and addressed by index, so the whole enumeration lives in two growing
/// buffers instead of one allocation per node.
struct CutArena {
    cuts: Vec<Cut>,
    sigs: Vec<u64>,
    range: Vec<(u32, u32)>,
}

impl CutArena {
    /// The cuts of `node` (empty for a node the enumeration never reached).
    fn cuts(&self, node: usize) -> &[Cut] {
        let (s, e) = self.range[node];
        &self.cuts[s as usize..e as usize]
    }

    fn push(&mut self, cut: Cut, sig: u64) {
        self.cuts.push(cut);
        self.sigs.push(sig);
    }

    /// Appends cut `k` seen through an inverter.
    fn push_complement(&mut self, k: usize) {
        self.push(self.cuts[k].not(), self.sigs[k]);
    }

    fn truncate(&mut self, len: usize) {
        self.cuts.truncate(len);
        self.sigs.truncate(len);
    }
}

/// Enumerates the cuts of every node of an AND/inverter subject graph,
/// fanins before fanouts, composing each cut's function bottom-up.
///
/// A node's list is sorted by (size, leaves), holds no duplicate and no
/// cut dominated by a smaller one (except the node's own unit cut), and is
/// cut at [`CUTS_PER_NODE`]. An inverter's list is its fanin's list
/// complemented with its own unit cut inserted after the cuts of 0 or 1
/// leaves: every fanin leaf sits below the inverter in the topological
/// numbering, so the unit cut sorts last among the one-leaf cuts, and no
/// fanin cut is a superset of it. An AND merges every pair of fanin cuts
/// into a reused candidate buffer, then sorts, deduplicates and filters it
/// against the signatures of the cuts kept so far.
fn enumerate_cuts(subject: &Network, order: &[SignalId]) -> CutArena {
    assert!(
        subject.num_nodes() <= 1 << 31,
        "subject graph too large for 31-bit cut leaves"
    );
    let mut arena = CutArena {
        cuts: Vec::with_capacity(order.len() * 8),
        sigs: Vec::with_capacity(order.len() * 8),
        range: vec![(0, 0); subject.num_nodes()],
    };
    let mut cand: Vec<Candidate> = Vec::new();
    for &id in order {
        let i = id.index();
        let start = arena.cuts.len();
        match subject.kind(id) {
            NodeKind::Input => arena.push(Cut::unit(i), Cut::unit(i).signature()),
            NodeKind::Gate(k @ (GateKind::Const0 | GateKind::Const1)) => {
                arena.push(Cut::constant(*k == GateKind::Const1), 0);
            }
            NodeKind::Gate(GateKind::Not) => {
                let f = subject.fanins(id)[0].index();
                debug_assert!(f < i, "subject node {i} reads the later node {f}");
                let (fs, fe) = arena.range[f];
                let (fs, fe) = (fs as usize, fe as usize);
                let (split, end) = if arena.cuts[fs].n == 0 {
                    // a constant fanin: its constant cut dominates its unit
                    // cut, which only the fanin's own list exempts
                    (fs + 1, fs + 1)
                } else {
                    (fs + arena.cuts[fs..fe].partition_point(|c| c.n <= 1), fe)
                };
                for k in fs..split {
                    arena.push_complement(k);
                }
                arena.push(Cut::unit(i), Cut::unit(i).signature());
                for k in split..end {
                    arena.push_complement(k);
                }
                arena.truncate(start + CUTS_PER_NODE);
            }
            NodeKind::Gate(GateKind::And) => {
                let fan = subject.fanins(id);
                let (f0, f1) = (fan[0].index(), fan[1].index());
                debug_assert!(f0 < i && f1 < i, "subject node {i} reads a later node");
                let (s0, e0) = arena.range[f0];
                let (s1, e1) = arena.range[f1];
                let (c0, sig0) = (
                    &arena.cuts[s0 as usize..e0 as usize],
                    &arena.sigs[s0 as usize..e0 as usize],
                );
                let (c1, sig1) = (
                    &arena.cuts[s1 as usize..e1 as usize],
                    &arena.sigs[s1 as usize..e1 as usize],
                );
                cand.clear();
                cand.push(Candidate::unit(i));
                // the union has at least as many leaves as `sa | sb` has
                // bits, `|sa| + |sb| - |sa & sb|`: a pair passes when the
                // signatures share at least `|sa| + |sb| - CUT_SIZE` bits
                let mut ones1 = [0u32; CUTS_PER_NODE];
                for (o, s) in ones1.iter_mut().zip(sig1) {
                    *o = s.count_ones();
                }
                for (a, (x, &sa)) in c0.iter().zip(sig0).enumerate() {
                    let ones0 = sa.count_ones();
                    for (b, (y, &sb)) in c1.iter().zip(sig1).enumerate() {
                        let shared = (ones0 + ones1[b]).saturating_sub(CUT_SIZE as u32);
                        if !has_bits(sa & sb, shared) {
                            continue;
                        }
                        if let Some((n, leaves)) = Cut::union(x, y) {
                            cand.push(Candidate::new(n, leaves, a as u8, b as u8));
                        }
                    }
                }
                cand.sort_unstable_by_key(|c| c.key);
                // equal leaves under one root mean an equal function
                cand.dedup_by_key(|c| c.key);
                // drop dominated cuts (a strict superset of another cut
                // never matches a cheaper cell family exclusively enough to
                // matter at this size), but always keep the trivial
                // self-cut: fanout cuts build on it. A dominating cut is
                // strictly smaller, so it sorts earlier, and by
                // transitivity some kept cut dominates too. Only a kept
                // candidate has its function composed.
                for c in &cand {
                    if arena.cuts.len() - start == CUTS_PER_NODE {
                        break;
                    }
                    let (n, leaves) = c.leaves();
                    let leaves = &leaves[..n];
                    let sig = signature(leaves);
                    let cut = if c.a == Candidate::UNIT {
                        Cut::unit(i)
                    } else {
                        let kept = start..arena.cuts.len();
                        let dominated = arena.cuts[kept.clone()]
                            .iter()
                            .zip(&arena.sigs[kept])
                            .take_while(|(o, _)| (o.n as usize) < n)
                            .any(|(o, &os)| {
                                os & !sig == 0 && o.leaves().iter().all(|l| leaves.contains(l))
                            });
                        if dominated {
                            continue;
                        }
                        let (x, y) = (
                            &arena.cuts[s0 as usize + c.a as usize],
                            &arena.cuts[s1 as usize + c.b as usize],
                        );
                        Cut::and(x, y).expect("a candidate's leaves fit one cut")
                    };
                    arena.push(cut, sig);
                }
            }
            other => panic!("unexpected subject-graph node {other:?}"),
        }
        arena.range[i] = (start as u32, arena.cuts.len() as u32);
    }
    arena
}

/// Lowers a network to the two-input AND / inverter subject graph.
///
/// [`Network::decompose2`] and [`Network::sweep`] leave two-input AND/OR
/// gates and inverters. Each OR becomes `¬(¬a·¬b)` in a flat graph (no
/// network of its own), whose nodes are then structurally hashed in the
/// order [`Network::strash`] would visit them had that graph been built as
/// a network: inputs first, then a depth-first post-order from the
/// outputs, fanins in order. Every node comes out where the four-pass
/// lowering (rebuild, then `strash`) put it.
fn to_subject(net: &Network) -> Network {
    const NONE: u32 = u32::MAX;
    let d = net.decompose2().sweep();
    let inputs = d.inputs().len();
    // the flat graph: inputs `0..inputs`, then gates in creation order;
    // an input is `(None, [NONE; 2])`
    let mut nodes: Vec<(Option<GateKind>, [u32; 2])> = vec![(None, [NONE; 2]); inputs];
    let mut map = vec![NONE; d.num_nodes()];
    for (k, i) in d.inputs().iter().enumerate() {
        map[i.index()] = k as u32;
    }
    let mut add = |kind: GateKind, fanins: [u32; 2]| {
        nodes.push((Some(kind), fanins));
        (nodes.len() - 1) as u32
    };
    for id in d.topo_order() {
        let NodeKind::Gate(kind) = d.kind(id) else {
            continue;
        };
        let fan: Vec<u32> = d.fanins(id).iter().map(|f| map[f.index()]).collect();
        map[id.index()] = match kind {
            GateKind::Const0 | GateKind::Const1 => add(*kind, [NONE; 2]),
            GateKind::Buf => fan[0],
            GateKind::Not => add(GateKind::Not, [fan[0], NONE]),
            GateKind::And => add(GateKind::And, [fan[0], fan[1]]),
            GateKind::Or => {
                let n0 = add(GateKind::Not, [fan[0], NONE]);
                let n1 = add(GateKind::Not, [fan[1], NONE]);
                let a = add(GateKind::And, [n0, n1]);
                add(GateKind::Not, [a, NONE])
            }
            other => panic!("decompose2 must not emit {other}"),
        };
    }
    let fanins = |v: u32| {
        let (_, f) = &nodes[v as usize];
        let arity = f.iter().take_while(|&&x| x != NONE).count();
        &f[..arity]
    };
    let roots: Vec<u32> = d.outputs().iter().map(|(_, s)| map[s.index()]).collect();
    // depth-first post-order from the outputs, as `Network::topo_order`
    let mut done = vec![false; nodes.len()];
    let mut order = Vec::with_capacity(nodes.len());
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for &root in &roots {
        stack.push((root, 0));
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if done[v as usize] {
                stack.pop();
                continue;
            }
            match fanins(v).get(*next) {
                Some(&child) => {
                    *next += 1;
                    if !done[child as usize] {
                        stack.push((child, 0));
                    }
                }
                None => {
                    done[v as usize] = true;
                    order.push(v);
                    stack.pop();
                }
            }
        }
    }
    // structural hashing in that order, as `Network::strash`
    let mut out = Network::new(d.name().to_string());
    let mut sig: Vec<Option<SignalId>> = vec![None; nodes.len()];
    for (k, i) in d.inputs().iter().enumerate() {
        sig[k] = Some(out.add_input(d.node_name(*i).unwrap_or("in").to_string()));
    }
    let mut cache: FxHashMap<(GateKind, [u32; 2]), SignalId> = FxHashMap::default();
    for v in order {
        let (Some(kind), _) = nodes[v as usize] else {
            continue;
        };
        let mut fan: Vec<SignalId> = fanins(v)
            .iter()
            .map(|&f| sig[f as usize].expect("fanins precede"))
            .collect();
        fan.sort_unstable();
        let mut key = [NONE; 2];
        for (k, f) in key.iter_mut().zip(&fan) {
            *k = f.index() as u32;
        }
        let s = *cache
            .entry((kind, key))
            .or_insert_with(|| out.add_gate(kind, fan));
        sig[v as usize] = Some(s);
    }
    for ((name, _), &root) in d.outputs().iter().zip(&roots) {
        out.add_output(
            name.clone(),
            sig[root as usize].expect("outputs are visited"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Library;
    use proptest::prelude::*;

    /// The enumeration the arena replaced, kept as the oracle: one list per
    /// node, each built from scratch and then re-sorted, deduplicated and
    /// filtered by [`dedup_cuts`], inverters included.
    fn reference_cuts(subject: &Network, order: &[SignalId]) -> Vec<Vec<Cut>> {
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

    /// The four-pass lowering [`to_subject`] replaced, kept as the oracle:
    /// `decompose2`, `sweep`, a rebuild with each OR as `¬(¬a·¬b)`, `strash`.
    fn reference_subject(net: &Network) -> Network {
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

    /// A random AND/inverter graph over `n_inputs` inputs, every node an
    /// output. Each pick `(kind, a, b)` appends, by `kind % 8`:
    /// - 0: a constant (`a` odd for one);
    /// - 1: a chain of `a % 80 + 1` inverters from any signal, long enough
    ///   for one-leaf cuts to overflow [`CUTS_PER_NODE`];
    /// - 2, 3: one inverter of a recent signal;
    /// - otherwise an AND of a recent signal and any signal, so chain ends
    ///   meet and AND nodes see thousands of candidates.
    fn random_subject(n_inputs: usize, picks: &[(u8, u8, u8)]) -> Network {
        let mut net = Network::new("subject");
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        for &(kind, a, b) in picks {
            let recent = sigs[sigs.len() - 1 - a as usize % sigs.len().min(8)];
            let any = sigs[b as usize % sigs.len()];
            match kind % 8 {
                0 => {
                    let k = if a % 2 == 1 {
                        GateKind::Const1
                    } else {
                        GateKind::Const0
                    };
                    sigs.push(net.add_gate(k, vec![]));
                }
                1 => {
                    let mut s = any;
                    for _ in 0..=a % 80 {
                        s = net.add_gate(GateKind::Not, vec![s]);
                        sigs.push(s);
                    }
                }
                2 | 3 => sigs.push(net.add_gate(GateKind::Not, vec![recent])),
                _ => sigs.push(net.add_gate(GateKind::And, vec![recent, any])),
            }
        }
        for (k, &s) in sigs.iter().enumerate() {
            net.add_output(format!("o{k}"), s);
        }
        net
    }

    /// Two 70-inverter chains, from `x0` and `x1`, and the AND of their
    /// ends: each chain end has lost its own unit cut to the
    /// [`CUTS_PER_NODE`] cut, and the AND sees 4,097 candidates.
    fn chains_meeting() -> Network {
        random_subject(2, &[(1, 69, 0), (1, 69, 1), (4, 0, 71)])
    }

    #[test]
    fn chain_graphs_reach_the_cut_limit() {
        let net = chains_meeting();
        let order = net.topo_order();
        let cuts = reference_cuts(&net, &order);
        let (end_a, end_b, and) = (71, 141, 142);
        assert_eq!(net.gate_kind(order[order.len() - 1]), Some(GateKind::And));
        for end in [end_a, end_b] {
            assert_eq!(cuts[end].len(), CUTS_PER_NODE);
            assert!(cuts[end].iter().all(|c| c.n == 1 && !c.is_unit(end)));
        }
        assert_eq!(cuts[and].len(), CUTS_PER_NODE);
        assert!(cuts[and][0].is_unit(and));
        assert!(cuts[and][1..].iter().all(|c| c.n == 2));
        assert_eq!(enumerate_cuts(&net, &order).cuts(and), &cuts[and][..]);
    }

    /// Asserts that two networks are node-for-node the same: name, every
    /// node's kind, fanins and name, the inputs and the outputs.
    fn assert_same_nodes(got: &Network, want: &Network, what: &str) {
        assert_eq!(got.name(), want.name(), "{what}: name");
        assert_eq!(got.num_nodes(), want.num_nodes(), "{what}: node count");
        for id in want.topo_order() {
            assert_eq!(got.kind(id), want.kind(id), "{what}: node {}", id.index());
            assert_eq!(
                got.fanins(id),
                want.fanins(id),
                "{what}: node {}",
                id.index()
            );
            assert_eq!(
                got.node_name(id),
                want.node_name(id),
                "{what}: node {}",
                id.index()
            );
        }
        assert_eq!(got.inputs(), want.inputs(), "{what}: inputs");
        assert_eq!(got.outputs(), want.outputs(), "{what}: outputs");
    }

    /// The one-pass lowering rebuilds the four-pass subject graph node for
    /// node on every registry circuit's spec and on both flows' results.
    #[test]
    fn subject_graph_matches_the_four_pass_lowering_on_the_registry() {
        use xsynth_core::{try_synthesize, SynthOptions};
        use xsynth_sop::{script_algebraic, ScriptOptions};
        for b in xsynth_circuits::registry() {
            let spec = xsynth_circuits::build(b.name).expect("registered");
            let fprm = try_synthesize(&spec, &SynthOptions::default())
                .expect("synthesizes")
                .network;
            let sop = script_algebraic(&spec, &ScriptOptions::default());
            for (flow, net) in [("spec", &spec), ("FPRM", &fprm), ("SOP", &sop)] {
                let what = format!("{} {flow}", b.name);
                assert_same_nodes(&to_subject(net), &reference_subject(net), &what);
            }
        }
    }

    const KINDS: [GateKind; 10] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Not,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xnor,
        GateKind::Buf,
        GateKind::Const0,
        GateKind::Const1,
    ];

    /// A random network over every gate kind: pick `(k, a, b, c)` adds a
    /// gate of kind `k`; an n-ary gate reads `1 + c % 4` of the signals
    /// `a`, `b`, `a + b` and `a + 2b` before it (repeats included). `outs`
    /// picks the outputs among the newest signals.
    fn random_network(n_inputs: usize, picks: &[(u8, u8, u8, u8)], outs: &[u8]) -> Network {
        let mut net = Network::new("rand");
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        for &(k, a, b, c) in picks {
            let kind = KINDS[k as usize % KINDS.len()];
            let arity = kind.arity().unwrap_or(1 + c as usize % 4);
            let (a, b) = (a as usize, b as usize);
            let at = [a, b, a + b, a + 2 * b];
            let fanins = at[..arity].iter().map(|x| sigs[x % sigs.len()]).collect();
            sigs.push(net.add_gate(kind, fanins));
        }
        for (i, &o) in outs.iter().enumerate() {
            let s = sigs[sigs.len() - 1 - o as usize % sigs.len()];
            net.add_output(format!("y{i}"), s);
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The one-pass lowering rebuilds the four-pass subject graph node
        /// for node on random networks of every gate kind.
        #[test]
        fn subject_graph_matches_the_four_pass_lowering(
            n_inputs in 1usize..7,
            picks in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
            outs in proptest::collection::vec(any::<u8>(), 1..5),
        ) {
            let net = random_network(n_inputs, &picks, &outs);
            assert_same_nodes(&to_subject(&net), &reference_subject(&net), "random");
        }

        /// The arena gives every node the reference's cuts — size, leaves
        /// and function — in the reference's order.
        #[test]
        fn arena_cuts_match_the_reference_enumeration(
            n_inputs in 1usize..9,
            picks in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..48),
        ) {
            let net = random_subject(n_inputs, &picks);
            let order = net.topo_order();
            let want = reference_cuts(&net, &order);
            let got = enumerate_cuts(&net, &order);
            for &id in &order {
                let i = id.index();
                prop_assert_eq!(got.cuts(i), &want[i][..], "node {}", i);
            }
        }

        /// Every enumerated cut carries its root's function over its leaves.
        #[test]
        fn cut_truth_tables_match_cone_evaluation(
            n_inputs in 1usize..7,
            picks in proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..24),
        ) {
            let net = random_subject(n_inputs, &picks);
            let order = net.topo_order();
            let mut handle = vec![None; net.num_nodes()];
            for &id in &order {
                handle[id.index()] = Some(id);
            }
            let cuts = enumerate_cuts(&net, &order);
            for &id in &order {
                let i = id.index();
                let list = cuts.cuts(i);
                prop_assert!(!list.is_empty() && list.len() <= CUTS_PER_NODE);
                for cut in list {
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
