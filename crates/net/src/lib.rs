//! Multilevel Boolean logic networks.
//!
//! A [`Network`] is a DAG of typed logic gates over named primary inputs
//! and outputs — the intermediate representation every synthesis stage in
//! this workspace produces and consumes. It supports the gate vocabulary
//! both flows need (n-ary AND/OR/XOR plus the inverting variants), cleanup
//! passes, and the paper's *pre-technology-mapping* cost metric: the
//! literal count of the circuit decomposed into two-input AND/OR gates with
//! every XOR expanded into three AND/OR gates (Section 5 of the paper; this
//! reproduces the paper's accounting, e.g. 16-input `parity` = 15 XOR
//! gates = 45 AND/OR gates = 90 literals, matching its Table 2 row).
//!
//! # Examples
//!
//! ```
//! use xsynth_net::{GateKind, Network};
//!
//! let mut n = Network::new("half_adder");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let sum = n.add_gate(GateKind::Xor, vec![a, b]);
//! let carry = n.add_gate(GateKind::And, vec![a, b]);
//! n.add_output("sum", sum);
//! n.add_output("carry", carry);
//! assert_eq!(n.eval_u64(0b11), vec![false, true]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use xsynth_boolean::{FxHashMap, TruthTable};

/// The logic function of a gate node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Constant zero (no fanins).
    Const0,
    /// Constant one (no fanins).
    Const1,
    /// Identity of its single fanin.
    Buf,
    /// Complement of its single fanin.
    Not,
    /// Conjunction of all fanins.
    And,
    /// Disjunction of all fanins.
    Or,
    /// Complemented conjunction.
    Nand,
    /// Complemented disjunction.
    Nor,
    /// Parity (XOR) of all fanins.
    Xor,
    /// Complemented parity.
    Xnor,
}

impl GateKind {
    /// Evaluates the gate function over its fanin values.
    pub fn eval<I: IntoIterator<Item = bool>>(self, fanins: I) -> bool {
        let mut it = fanins.into_iter();
        match self {
            GateKind::Const0 => false,
            GateKind::Const1 => true,
            GateKind::Buf => it.next().expect("buf needs a fanin"),
            GateKind::Not => !it.next().expect("not needs a fanin"),
            GateKind::And => it.all(|b| b),
            GateKind::Nand => !it.all(|b| b),
            GateKind::Or => it.any(|b| b),
            GateKind::Nor => !it.any(|b| b),
            GateKind::Xor => it.fold(false, |a, b| a ^ b),
            GateKind::Xnor => !it.fold(false, |a, b| a ^ b),
        }
    }

    /// Evaluates the gate function bitwise over packed pattern words, one
    /// word per fanin: the word-parallel form of [`GateKind::eval`] every
    /// 64-lane simulator shares. Buffers and inverters fold like one-input
    /// ANDs, constants like zero-input ORs.
    #[inline]
    pub fn eval_words<I: IntoIterator<Item = u64>>(self, fanins: I) -> u64 {
        use GateKind::*;
        let it = fanins.into_iter();
        let value = match self {
            Const0 | Const1 | Or | Nor => it.fold(0, |a, b| a | b),
            Buf | Not | And | Nand => it.fold(!0, |a, b| a & b),
            Xor | Xnor => it.fold(0, |a, b| a ^ b),
        };
        match self {
            Const1 | Not | Nand | Nor | Xnor => !value,
            _ => value,
        }
    }

    /// The required fanin arity: `Some(k)` for fixed arity, `None` for
    /// n-ary gates.
    pub fn arity(self) -> Option<usize> {
        match self {
            GateKind::Const0 | GateKind::Const1 => Some(0),
            GateKind::Buf | GateKind::Not => Some(1),
            _ => None,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
        };
        f.write_str(s)
    }
}

/// A handle to a node (signal) in a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(u32);

impl SignalId {
    /// Raw index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A structural problem in a [`Network`] triggered by caller input (as
/// opposed to an internal invariant violation). Hand-written netlists —
/// e.g. a BLIF file wired into a loop — surface it as a clean error
/// through [`Network::try_topo_order`] instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The subgraph reachable from the outputs contains a combinational
    /// cycle through this node.
    CombinationalCycle {
        /// The node where the cycle was detected.
        node: SignalId,
        /// Its name, when it has one.
        name: Option<String>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::CombinationalCycle { node, name } => match name {
                Some(n) => write!(
                    f,
                    "combinational cycle through node {n} (id {})",
                    node.index()
                ),
                None => write!(f, "combinational cycle through node id {}", node.index()),
            },
        }
    }
}

impl std::error::Error for NetError {}

/// What a network node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input.
    Input,
    /// A logic gate.
    Gate(GateKind),
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    fanins: Vec<SignalId>,
    name: Option<String>,
}

/// A multilevel logic network: a DAG of gates over primary inputs, with
/// named primary outputs.
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
}

impl Network {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a primary input with the given name.
    pub fn add_input(&mut self, name: impl Into<String>) -> SignalId {
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Input,
            fanins: Vec::new(),
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a gate node.
    ///
    /// # Panics
    ///
    /// Panics if the gate has a fixed arity that `fanins` does not match,
    /// or if any fanin id is out of range. Both are caller bugs: the
    /// BLIF/PLA parsers and the network builders only create well-formed
    /// gates, and `crates/blif/tests/fuzz.rs` covers parser input.
    pub fn add_gate(&mut self, kind: GateKind, fanins: Vec<SignalId>) -> SignalId {
        self.check_gate(kind, &fanins);
        let id = SignalId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Gate(kind),
            fanins,
            name: None,
        });
        id
    }

    fn check_gate(&self, kind: GateKind, fanins: &[SignalId]) {
        let found = fanins.len();
        match kind.arity() {
            Some(k) => assert!(found == k, "{kind} takes exactly {k} fanin(s), got {found}"),
            None => assert!(found > 0, "{kind} needs at least one fanin, got {found}"),
        }
        let nodes = self.nodes.len();
        if let Some(f) = fanins.iter().find(|f| f.index() >= nodes) {
            panic!(
                "fanin id {} does not exist yet (network has {nodes} nodes)",
                f.index()
            );
        }
    }

    /// Registers a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: SignalId) {
        self.outputs.push((name.into(), signal));
    }

    /// The primary inputs, in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// The primary outputs as (name, signal) pairs.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// Number of nodes, including inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The kind of a node.
    pub fn kind(&self, id: SignalId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The gate kind of a node, or `None` for inputs.
    pub fn gate_kind(&self, id: SignalId) -> Option<GateKind> {
        match self.nodes[id.index()].kind {
            NodeKind::Gate(k) => Some(k),
            NodeKind::Input => None,
        }
    }

    /// The fanins of a node.
    pub fn fanins(&self, id: SignalId) -> &[SignalId] {
        &self.nodes[id.index()].fanins
    }

    /// The optional name of a node (inputs always have one).
    pub fn node_name(&self, id: SignalId) -> Option<&str> {
        self.nodes[id.index()].name.as_deref()
    }

    /// Replaces the gate function and fanins of an existing gate node in
    /// place (used by the redundancy-removal pass to turn XOR gates into
    /// AND/OR gates).
    ///
    /// # Panics
    ///
    /// Panics if `id` is an input, the arity is invalid, or a fanin is not
    /// an existing node: the passes that call it only rewrite gates they
    /// found in this network, with fanins from it. Creating a
    /// combinational cycle is not checked here; [`Network::try_topo_order`]
    /// reports one as an error and [`Network::topo_order`] panics on it.
    pub fn replace_gate(&mut self, id: SignalId, kind: GateKind, fanins: Vec<SignalId>) {
        assert!(
            matches!(self.nodes[id.index()].kind, NodeKind::Gate(_)),
            "cannot replace primary input (id {})",
            id.index()
        );
        self.check_gate(kind, &fanins);
        self.nodes[id.index()].kind = NodeKind::Gate(kind);
        self.nodes[id.index()].fanins = fanins;
    }

    /// Drops every node from index `len` on, undoing the
    /// [`Network::add_gate`] calls made since the network had `len`
    /// nodes. A caller that pointed an existing gate at a dropped node
    /// restores that gate's fanins first.
    ///
    /// # Panics
    ///
    /// Panics if a primary input or output is among the dropped nodes.
    pub fn truncate(&mut self, len: usize) {
        assert!(
            self.inputs
                .iter()
                .chain(self.outputs.iter().map(|(_, s)| s))
                .all(|s| s.index() < len),
            "cannot drop a primary input or output node"
        );
        self.nodes.truncate(len);
    }

    /// All nodes reachable from the outputs, children before parents.
    ///
    /// # Panics
    ///
    /// Panics if the reachable subgraph contains a cycle; use
    /// [`Network::try_topo_order`] to handle that case as an error.
    pub fn topo_order(&self) -> Vec<SignalId> {
        match self.try_topo_order() {
            Ok(order) => order,
            Err(e) => panic!("{e}"),
        }
    }

    /// All nodes reachable from the outputs, children before parents,
    /// reporting a cycle as [`NetError::CombinationalCycle`].
    pub fn try_topo_order(&self) -> Result<Vec<SignalId>, NetError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark = vec![Mark::White; self.nodes.len()];
        let mut order = Vec::new();
        for &(_, root) in &self.outputs {
            if mark[root.index()] == Mark::Black {
                continue;
            }
            let mut stack: Vec<(SignalId, usize)> = vec![(root, 0)];
            while let Some(&mut (id, ref mut next)) = stack.last_mut() {
                if mark[id.index()] == Mark::Black {
                    stack.pop();
                    continue;
                }
                mark[id.index()] = Mark::Grey;
                let fanins = &self.nodes[id.index()].fanins;
                if *next < fanins.len() {
                    let child = fanins[*next];
                    *next += 1;
                    match mark[child.index()] {
                        Mark::White => stack.push((child, 0)),
                        Mark::Grey => {
                            return Err(NetError::CombinationalCycle {
                                node: child,
                                name: self.node_name(child).map(str::to_string),
                            })
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark[id.index()] = Mark::Black;
                    order.push(id);
                    stack.pop();
                }
            }
        }
        Ok(order)
    }

    /// Fanout lists for every node (indexed by node id), counting only the
    /// subgraph reachable from the outputs.
    pub fn fanouts(&self) -> Vec<Vec<SignalId>> {
        let mut f = vec![Vec::new(); self.nodes.len()];
        for id in self.topo_order() {
            for &g in self.fanins(id) {
                f[g.index()].push(id);
            }
        }
        f
    }

    /// Evaluates all outputs for one input assignment given as a bitmask
    /// (bit `i` = value of input `i` in declaration order).
    pub fn eval_u64(&self, inputs: u64) -> Vec<bool> {
        let vals: Vec<bool> = (0..self.inputs.len())
            .map(|i| inputs & (1u64 << i) != 0)
            .collect();
        self.eval(&vals)
    }

    /// Evaluates all outputs for one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.inputs.len(), "input arity mismatch");
        let mut val = vec![false; self.nodes.len()];
        for (i, &id) in self.inputs.iter().enumerate() {
            val[id.index()] = inputs[i];
        }
        for id in self.topo_order() {
            if let NodeKind::Gate(k) = self.nodes[id.index()].kind {
                let v = k.eval(self.nodes[id.index()].fanins.iter().map(|f| val[f.index()]));
                val[id.index()] = v;
            }
        }
        self.outputs.iter().map(|&(_, s)| val[s.index()]).collect()
    }

    /// The complete truth table of every output (requires few inputs).
    ///
    /// # Panics
    ///
    /// Panics if the input count exceeds [`xsynth_boolean::MAX_TT_VARS`].
    pub fn to_truth_tables(&self) -> Vec<TruthTable> {
        let n = self.inputs.len();
        let mut tables = vec![TruthTable::zero(n); self.outputs.len()];
        for m in 0..(1u64 << n) {
            for (o, v) in self.eval_u64(m).into_iter().enumerate() {
                if v {
                    tables[o].set(m, true);
                }
            }
        }
        tables
    }

    /// Structural cleanup: constant propagation, buffer elision,
    /// single-fanin AND/OR/XOR collapse, duplicate-fanin simplification,
    /// and garbage collection of nodes unreachable from the outputs.
    /// Output functions are preserved.
    pub fn sweep(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        let mut map: FxHashMap<SignalId, SigRef> = FxHashMap::default();
        for &i in &self.inputs {
            let ni = out.add_input(self.node_name(i).unwrap_or("in").to_string());
            map.insert(i, SigRef::plain(ni));
        }
        for id in self.topo_order() {
            let NodeKind::Gate(kind) = self.nodes[id.index()].kind else {
                continue;
            };
            let fanins: Vec<SigRef> = self.nodes[id.index()]
                .fanins
                .iter()
                .map(|f| map[f])
                .collect();
            let r = out.build_simplified(kind, &fanins);
            map.insert(id, r);
        }
        for (name, sig) in self.outputs.clone() {
            let r = map[&sig];
            let s = out.materialize(r);
            out.add_output(name, s);
        }
        out
    }

    /// Resolves a [`SigRef`] into a concrete signal, inserting a NOT gate
    /// or constant node if needed.
    fn materialize(&mut self, r: SigRef) -> SignalId {
        match r {
            SigRef::Const(false) => self.add_gate(GateKind::Const0, vec![]),
            SigRef::Const(true) => self.add_gate(GateKind::Const1, vec![]),
            SigRef::Sig(s, false) => s,
            SigRef::Sig(s, true) => self.add_gate(GateKind::Not, vec![s]),
        }
    }

    /// Builds `kind(fanins)` with local simplification, returning a
    /// possibly-complemented or constant reference instead of a node when
    /// the gate collapses.
    fn build_simplified(&mut self, kind: GateKind, fanins: &[SigRef]) -> SigRef {
        use GateKind::*;
        match kind {
            Const0 => SigRef::Const(false),
            Const1 => SigRef::Const(true),
            Buf => fanins[0],
            Not => fanins[0].invert(),
            Nand => self.build_simplified(And, fanins).invert(),
            Nor => self.build_simplified(Or, fanins).invert(),
            Xnor => self.build_simplified(Xor, fanins).invert(),
            And | Or => {
                let (absorbing, identity) = if kind == And {
                    (false, true)
                } else {
                    (true, false)
                };
                let mut kept: Vec<SigRef> = Vec::new();
                for &f in fanins {
                    match f {
                        SigRef::Const(c) if c == absorbing => return SigRef::Const(absorbing),
                        SigRef::Const(_) => {} // identity element: drop
                        _ => {
                            if kept.contains(&f) {
                                continue; // a·a = a, a+a = a
                            }
                            if kept.contains(&f.invert()) {
                                return SigRef::Const(absorbing); // a·¬a, a+¬a
                            }
                            kept.push(f);
                        }
                    }
                }
                match kept.len() {
                    0 => SigRef::Const(identity),
                    1 => kept[0],
                    _ => {
                        let sigs: Vec<SignalId> =
                            kept.iter().map(|&r| self.materialize(r)).collect();
                        SigRef::plain(self.add_gate(kind, sigs))
                    }
                }
            }
            Xor => {
                let mut parity = false;
                let mut kept: Vec<SignalId> = Vec::new();
                for &f in fanins {
                    match f {
                        SigRef::Const(c) => parity ^= c,
                        SigRef::Sig(s, inv) => {
                            parity ^= inv;
                            if let Some(pos) = kept.iter().position(|&k| k == s) {
                                kept.remove(pos); // a ⊕ a = 0
                            } else {
                                kept.push(s);
                            }
                        }
                    }
                }
                let base = match kept.len() {
                    0 => SigRef::Const(false),
                    1 => SigRef::plain(kept[0]),
                    _ => SigRef::plain(self.add_gate(GateKind::Xor, kept)),
                };
                if parity {
                    base.invert()
                } else {
                    base
                }
            }
        }
    }

    /// Gate count (all gate nodes except buffers and constants) in the
    /// subgraph reachable from the outputs.
    ///
    /// [`Network::add_gate`] adds every node after its fanins, so one
    /// backward pass over the nodes marks everything the outputs reach,
    /// without [`Network::topo_order`]'s depth-first walk. A reached gate
    /// that [`Network::replace_gate`] pointed at a later node sends the
    /// count to that walk instead.
    pub fn num_gates(&self) -> usize {
        let counted = |kind: &NodeKind| {
            matches!(
                kind,
                NodeKind::Gate(k) if !matches!(k, GateKind::Buf | GateKind::Const0 | GateKind::Const1)
            )
        };
        let mut reached = vec![false; self.nodes.len()];
        for (_, s) in &self.outputs {
            reached[s.index()] = true;
        }
        let mut gates = 0;
        for (i, node) in self.nodes.iter().enumerate().rev() {
            if !reached[i] {
                continue;
            }
            gates += usize::from(counted(&node.kind));
            for f in &node.fanins {
                if f.index() >= i {
                    let order = self.topo_order();
                    return order.iter().filter(|id| counted(self.kind(**id))).count();
                }
                reached[f.index()] = true;
            }
        }
        gates
    }

    /// Decomposes the network into two-input AND/OR and NOT gates, with
    /// each two-input XOR expanded into three AND/OR gates (`a⊕b =
    /// a·¬b + ¬a·b`). This is the paper's pre-mapping normal form.
    pub fn decompose2(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        let mut map: FxHashMap<SignalId, SigRef> = FxHashMap::default();
        for &i in &self.inputs {
            let ni = out.add_input(self.node_name(i).unwrap_or("in").to_string());
            map.insert(i, SigRef::plain(ni));
        }
        for id in self.topo_order() {
            let NodeKind::Gate(kind) = self.nodes[id.index()].kind else {
                continue;
            };
            let fan: Vec<SigRef> = self.nodes[id.index()]
                .fanins
                .iter()
                .map(|f| map[f])
                .collect();
            let r = out.build2(kind, &fan);
            map.insert(id, r);
        }
        for (name, sig) in self.outputs.clone() {
            let r = map[&sig];
            let s = out.materialize(r);
            out.add_output(name, s);
        }
        out
    }

    fn build2(&mut self, kind: GateKind, fanins: &[SigRef]) -> SigRef {
        use GateKind::*;
        match kind {
            Const0 => SigRef::Const(false),
            Const1 => SigRef::Const(true),
            Buf => fanins[0],
            Not => fanins[0].invert(),
            Nand => self.build2(And, fanins).invert(),
            Nor => self.build2(Or, fanins).invert(),
            Xnor => self.build2(Xor, fanins).invert(),
            And | Or | Xor => {
                // balanced binary tree
                let mut layer: Vec<SigRef> = fanins.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        if pair.len() == 1 {
                            next.push(pair[0]);
                        } else {
                            next.push(self.build2_pair(kind, pair[0], pair[1]));
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    fn build2_pair(&mut self, kind: GateKind, a: SigRef, b: SigRef) -> SigRef {
        use GateKind::*;
        if let SigRef::Const(ca) = a {
            return match kind {
                And => {
                    if ca {
                        b
                    } else {
                        SigRef::Const(false)
                    }
                }
                Or => {
                    if ca {
                        SigRef::Const(true)
                    } else {
                        b
                    }
                }
                Xor => {
                    if ca {
                        b.invert()
                    } else {
                        b
                    }
                }
                _ => unreachable!("binary build handles and/or/xor"),
            };
        }
        if matches!(b, SigRef::Const(_)) {
            return self.build2_pair(kind, b, a);
        }
        match kind {
            And | Or => {
                let (sa, sb) = (self.materialize(a), self.materialize(b));
                SigRef::plain(self.add_gate(kind, vec![sa, sb]))
            }
            Xor => {
                // a ⊕ b = a·¬b + ¬a·b, three two-input AND/OR gates.
                let (sa, sb) = (self.materialize(a), self.materialize(b));
                let na = self.add_gate(GateKind::Not, vec![sa]);
                let nb = self.add_gate(GateKind::Not, vec![sb]);
                let l = self.add_gate(GateKind::And, vec![sa, nb]);
                let r = self.add_gate(GateKind::And, vec![na, sb]);
                SigRef::plain(self.add_gate(GateKind::Or, vec![l, r]))
            }
            _ => unreachable!("binary build handles and/or/xor"),
        }
    }

    /// The paper's pre-mapping cost metrics: `(gates, literals)` where
    /// `gates` counts two-input AND/OR gates after [`Network::decompose2`]
    /// (inverters are free, as in the paper's factored-form accounting) and
    /// `literals = 2 × gates`.
    pub fn two_input_cost(&self) -> (usize, usize) {
        let d = self.decompose2();
        let gates = d
            .topo_order()
            .iter()
            .filter(|&&id| {
                matches!(
                    d.nodes[id.index()].kind,
                    NodeKind::Gate(GateKind::And) | NodeKind::Gate(GateKind::Or)
                )
            })
            .count();
        (gates, 2 * gates)
    }

    /// Logic depth: the longest input-to-output path counted in gates
    /// (buffers and constants are free, inverters count).
    pub fn depth(&self) -> usize {
        let mut depth: FxHashMap<SignalId, usize> = FxHashMap::default();
        let mut max = 0;
        for id in self.topo_order() {
            let d = match self.kind(id) {
                NodeKind::Input => 0,
                NodeKind::Gate(k) => {
                    let base = self.fanins(id).iter().map(|f| depth[f]).max().unwrap_or(0);
                    match k {
                        GateKind::Buf | GateKind::Const0 | GateKind::Const1 => base,
                        _ => base + 1,
                    }
                }
            };
            depth.insert(id, d);
        }
        for (_, s) in &self.outputs {
            max = max.max(*depth.get(s).unwrap_or(&0));
        }
        max
    }

    /// Structural hashing: rebuilds the network sharing any two gates with
    /// the same kind and the same (order-normalized, for commutative kinds)
    /// fanin list. This is the cheap cross-output sharing step the flow
    /// uses in place of SIS `resub` when merging per-output networks.
    pub fn strash(&self) -> Network {
        let mut out = Network::new(self.name.clone());
        let mut map: FxHashMap<SignalId, SignalId> = FxHashMap::default();
        let mut cache: FxHashMap<(GateKind, Vec<SignalId>), SignalId> = FxHashMap::default();
        for &i in &self.inputs {
            let ni = out.add_input(self.node_name(i).unwrap_or("in").to_string());
            map.insert(i, ni);
        }
        for id in self.topo_order() {
            let NodeKind::Gate(kind) = self.nodes[id.index()].kind else {
                continue;
            };
            let mut fan: Vec<SignalId> = self.nodes[id.index()]
                .fanins
                .iter()
                .map(|f| map[f])
                .collect();
            let commutative = matches!(
                kind,
                GateKind::And
                    | GateKind::Or
                    | GateKind::Xor
                    | GateKind::Nand
                    | GateKind::Nor
                    | GateKind::Xnor
            );
            if commutative {
                fan.sort_unstable();
            }
            let key = (kind, fan.clone());
            let s = match cache.get(&key) {
                Some(&s) => s,
                None => {
                    let s = out.add_gate(kind, fan);
                    cache.insert(key, s);
                    s
                }
            };
            map.insert(id, s);
        }
        for (name, sig) in self.outputs.clone() {
            let s = map[&sig];
            out.add_output(name, s);
        }
        out
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} outputs, {} gates",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.num_gates()
        )
    }
}

/// A possibly-complemented or constant reference to a signal, used while
/// rebuilding networks so that inverters and constants fold away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SigRef {
    /// A constant value.
    Const(bool),
    /// A signal, possibly complemented.
    Sig(SignalId, bool),
}

impl SigRef {
    fn plain(s: SignalId) -> Self {
        SigRef::Sig(s, false)
    }

    fn invert(self) -> Self {
        match self {
            SigRef::Const(c) => SigRef::Const(!c),
            SigRef::Sig(s, inv) => SigRef::Sig(s, !inv),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Network {
        let mut n = Network::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("cin");
        let s = n.add_gate(GateKind::Xor, vec![a, b, c]);
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let ac = n.add_gate(GateKind::And, vec![a, c]);
        let bc = n.add_gate(GateKind::And, vec![b, c]);
        let cout = n.add_gate(GateKind::Or, vec![ab, ac, bc]);
        n.add_output("s", s);
        n.add_output("cout", cout);
        n
    }

    #[test]
    fn full_adder_truth() {
        let n = full_adder();
        for m in 0..8u64 {
            let bits = m.count_ones() as u64;
            let v = n.eval_u64(m);
            assert_eq!(v[0], bits & 1 == 1, "sum at {m}");
            assert_eq!(v[1], bits >= 2, "carry at {m}");
        }
    }

    #[test]
    fn eval_words_is_lane_wise_eval() {
        use GateKind::*;
        // lane k of the words holds the bits of k: every 3-input pattern
        let words = [0xaau64, 0xcc, 0xf0];
        for kind in [Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor] {
            let arity = kind.arity().unwrap_or(3);
            let w = kind.eval_words(words[..arity].iter().copied());
            for lane in 0..8 {
                let bits = words[..arity].iter().map(|x| x >> lane & 1 == 1);
                assert_eq!(w >> lane & 1 == 1, kind.eval(bits), "{kind:?} lane {lane}");
            }
        }
    }

    #[test]
    fn topo_order_is_topological() {
        let n = full_adder();
        let order = n.topo_order();
        let pos: FxHashMap<SignalId, usize> =
            order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        for &id in &order {
            for f in n.fanins(id) {
                assert!(pos[f] < pos[&id]);
            }
        }
        assert_eq!(order.len(), n.num_nodes());
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection() {
        let mut n = Network::new("cyc");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, vec![a, a]);
        let g2 = n.add_gate(GateKind::Or, vec![g1, a]);
        n.replace_gate(g1, GateKind::And, vec![a, g2]);
        n.add_output("o", g2);
        n.topo_order();
    }

    #[test]
    fn sweep_removes_dead_and_folds_constants() {
        let mut n = Network::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let one = n.add_gate(GateKind::Const1, vec![]);
        let _dead = n.add_gate(GateKind::And, vec![a, b]);
        let g = n.add_gate(GateKind::And, vec![a, one]); // = a
        let h = n.add_gate(GateKind::Or, vec![g, b]);
        n.add_output("o", h);
        let s = n.sweep();
        assert_eq!(s.num_gates(), 1);
        for m in 0..4u64 {
            assert_eq!(s.eval_u64(m), n.eval_u64(m));
        }
    }

    #[test]
    fn sweep_xor_cancellation() {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x1 = n.add_gate(GateKind::Xor, vec![a, b]);
        let x2 = n.add_gate(GateKind::Xor, vec![x1, b]); // semantically = a
        n.add_output("o", x2);
        let s = n.sweep();
        // x1 is not collapsed (sweep is structural, x1 and b are distinct
        // signals), but the function is preserved
        for m in 0..4u64 {
            assert_eq!(s.eval_u64(m), n.eval_u64(m));
        }
    }

    #[test]
    fn sweep_complement_pair_in_and() {
        let mut n = Network::new("c");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, vec![a]);
        let g = n.add_gate(GateKind::And, vec![a, na, b]); // constant 0
        let h = n.add_gate(GateKind::Or, vec![g, b]); // = b
        n.add_output("o", h);
        let s = n.sweep();
        assert_eq!(s.num_gates(), 0);
        for m in 0..4u64 {
            assert_eq!(s.eval_u64(m)[0], m & 2 != 0);
        }
    }

    #[test]
    fn sweep_preserves_all_gate_kinds() {
        let mut n = Network::new("k");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_gate(GateKind::Nand, vec![a, b]);
        let g2 = n.add_gate(GateKind::Nor, vec![b, c]);
        let g3 = n.add_gate(GateKind::Xnor, vec![g1, g2]);
        let g4 = n.add_gate(GateKind::Buf, vec![g3]);
        let g5 = n.add_gate(GateKind::Not, vec![g4]);
        n.add_output("o", g5);
        let s = n.sweep();
        for m in 0..8u64 {
            assert_eq!(s.eval_u64(m), n.eval_u64(m), "at {m}");
        }
    }

    #[test]
    fn decompose2_equivalence_and_cost() {
        let n = full_adder();
        let d = n.decompose2();
        for m in 0..8u64 {
            assert_eq!(d.eval_u64(m), n.eval_u64(m));
        }
        for id in d.topo_order() {
            if let NodeKind::Gate(k) = d.kind(id) {
                match k {
                    GateKind::And | GateKind::Or => assert_eq!(d.fanins(id).len(), 2),
                    GateKind::Not => assert_eq!(d.fanins(id).len(), 1),
                    GateKind::Const0 | GateKind::Const1 => {}
                    other => panic!("unexpected gate {other} after decompose2"),
                }
            }
        }
    }

    #[test]
    fn parity16_premap_cost_matches_paper() {
        // The paper's Table 2 lists 16-input parity at 90 literals before
        // mapping: 15 XOR gates × 3 AND/OR gates × 2 literals.
        let mut n = Network::new("parity");
        let ins: Vec<SignalId> = (0..16).map(|i| n.add_input(format!("x{i}"))).collect();
        let x = n.add_gate(GateKind::Xor, ins);
        n.add_output("p", x);
        let (gates, lits) = n.two_input_cost();
        assert_eq!(gates, 45);
        assert_eq!(lits, 90);
    }

    #[test]
    fn xor10_premap_cost_matches_paper() {
        // Table 2 lists xor10 at 54 literals: 9 XORs × 3 × 2.
        let mut n = Network::new("xor10");
        let ins: Vec<SignalId> = (0..10).map(|i| n.add_input(format!("x{i}"))).collect();
        let x = n.add_gate(GateKind::Xor, ins);
        n.add_output("p", x);
        assert_eq!(n.two_input_cost(), (27, 54));
    }

    #[test]
    fn truth_tables_of_outputs() {
        let n = full_adder();
        let ts = n.to_truth_tables();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0], TruthTable::from_fn(3, |m| m.count_ones() % 2 == 1));
        assert_eq!(ts[1], TruthTable::from_fn(3, |m| m.count_ones() >= 2));
    }

    #[test]
    fn fanouts_reflect_structure() {
        let n = full_adder();
        let fo = n.fanouts();
        let a = n.inputs()[0];
        assert_eq!(fo[a.index()].len(), 3, "a feeds the xor and two ands");
    }

    #[test]
    fn replace_gate_changes_function() {
        let mut n = Network::new("r");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Xor, vec![a, b]);
        n.add_output("o", g);
        assert!(!n.eval_u64(0b11)[0]);
        n.replace_gate(g, GateKind::Or, vec![a, b]);
        assert!(n.eval_u64(0b11)[0]);
    }

    #[test]
    fn display_summarizes() {
        let n = full_adder();
        let s = n.to_string();
        assert!(s.contains("3 inputs"));
        assert!(s.contains("2 outputs"));
    }

    #[test]
    fn depth_counts_longest_path() {
        let n = full_adder();
        // xor3 balanced: depth 2; carry: and + or = 2
        assert_eq!(n.depth(), 2);
        let mut chain = Network::new("chain");
        let a = chain.add_input("a");
        let mut s = a;
        for _ in 0..5 {
            s = chain.add_gate(GateKind::Not, vec![s]);
        }
        let b = chain.add_gate(GateKind::Buf, vec![s]);
        chain.add_output("o", b);
        assert_eq!(chain.depth(), 5, "buffers are free, inverters count");
    }

    #[test]
    fn strash_shares_identical_gates() {
        let mut n = Network::new("sh");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, vec![a, b]);
        let g2 = n.add_gate(GateKind::And, vec![b, a]); // commutative dup
        let o1 = n.add_gate(GateKind::Or, vec![g1, b]);
        let o2 = n.add_gate(GateKind::Or, vec![g2, b]);
        n.add_output("o1", o1);
        n.add_output("o2", o2);
        let s = n.strash();
        assert_eq!(s.num_gates(), 2, "and + or shared across outputs");
        for m in 0..4u64 {
            assert_eq!(s.eval_u64(m), n.eval_u64(m));
        }
    }

    #[test]
    fn output_can_be_an_input_wire() {
        let mut n = Network::new("w");
        let a = n.add_input("a");
        n.add_output("o", a);
        assert_eq!(n.eval_u64(1), vec![true]);
        let s = n.sweep();
        assert_eq!(s.eval_u64(0), vec![false]);
        assert_eq!(s.num_gates(), 0);
    }

    #[test]
    fn try_topo_order_reports_cycle() {
        // two gates wired into a loop via replace_gate
        let mut n = Network::new("cyclic");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Buf, vec![a]);
        let g2 = n.add_gate(GateKind::And, vec![a, g1]);
        n.add_output("o", g2);
        n.replace_gate(g1, GateKind::Buf, vec![g2]);
        let err = n.try_topo_order().unwrap_err();
        assert!(matches!(err, NetError::CombinationalCycle { .. }));
        assert!(err.to_string().contains("combinational cycle"));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn num_gates_reports_a_cycle_as_topo_order_does() {
        let mut n = Network::new("cyc");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, vec![a, a]);
        let g2 = n.add_gate(GateKind::Or, vec![g1, a]);
        n.replace_gate(g1, GateKind::And, vec![a, g2]);
        n.add_output("o", g2);
        n.num_gates();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(200))]

        #[test]
        fn num_gates_matches_the_depth_first_count(
            bits in proptest::arbitrary::any::<u64>(),
            gates in 0usize..40,
            rewires in 0usize..4,
        ) {
            // random gates over earlier nodes, some dead, then a few gates
            // pointed at any node, later ones included, where that stays
            // acyclic
            let mut rng = bits | 1;
            let mut next = move |k: usize| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) as usize % k
            };
            let kinds = [
                GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand,
                GateKind::Not, GateKind::Buf, GateKind::Const0, GateKind::Const1,
            ];
            let mut n = Network::new("r");
            let mut ids: Vec<SignalId> = (0..3).map(|i| n.add_input(format!("x{i}"))).collect();
            for _ in 0..gates {
                let kind = kinds[next(kinds.len())];
                let k = kind.arity().unwrap_or(2 + next(2));
                let fanins = (0..k).map(|_| ids[ids.len() - 1 - next(ids.len().min(5))]).collect();
                ids.push(n.add_gate(kind, fanins));
            }
            for i in 0..1 + next(3) {
                n.add_output(format!("o{i}"), ids[ids.len() - 1 - next(ids.len().min(8))]);
            }
            for _ in 0..rewires.min(gates) {
                let g = ids[3 + next(gates)];
                let kind = n.gate_kind(g).expect("a gate");
                let old = n.fanins(g).to_vec();
                let fanins = old.iter().map(|_| ids[next(ids.len())]).collect();
                n.replace_gate(g, kind, fanins);
                if n.try_topo_order().is_err() {
                    n.replace_gate(g, kind, old);
                }
            }
            let dfs = n.topo_order().iter().filter(|&&id| {
                matches!(n.kind(id), NodeKind::Gate(k)
                    if !matches!(k, GateKind::Buf | GateKind::Const0 | GateKind::Const1))
            }).count();
            proptest::prop_assert_eq!(n.num_gates(), dfs);
        }
    }
}
