//! The network of `VarSet`-cube SOP nodes, as it was before the literal
//! rows: the oracle for [`crate::SopNet`], followed by the whole-network
//! loops its greedy steps replaced, which the row network's proptests
//! also compare with.

use super::algebra::{self, covers_same};
use super::cover::{Cube, Sop};
use crate::emit_factored;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use xsynth_boolean::{FxHashMap, FxHashSet, FxHasher, VarSet};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};

/// A multilevel network in which every internal node carries a
/// sum-of-products cover over *signals* (primary inputs and other nodes),
/// mirroring the SIS network data structure.
///
/// Signal numbering: signals `0..num_pis` are the primary inputs; signal
/// `num_pis + i` is the output of node `i`.
#[derive(Debug, Clone)]
pub struct SopNet {
    name: String,
    pi_names: Vec<String>,
    nodes: Vec<Option<Sop>>,
    outputs: Vec<(String, usize)>,
}

impl SopNet {
    /// Creates an empty SOP network.
    pub fn new(name: impl Into<String>) -> Self {
        SopNet {
            name: name.into(),
            pi_names: Vec::new(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pi_names.len()
    }

    /// Adds a primary input; returns its signal index.
    pub fn add_pi(&mut self, name: impl Into<String>) -> usize {
        self.pi_names.push(name.into());
        self.pi_names.len() - 1
    }

    /// Adds a node with the given cover; returns its *signal* index.
    pub fn add_node(&mut self, cover: Sop) -> usize {
        self.nodes.push(Some(cover));
        self.num_pis() + self.nodes.len() - 1
    }

    /// Marks a signal as a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, signal: usize) {
        self.outputs.push((name.into(), signal));
    }

    /// The cover of the node driving `signal`, if it is a live node.
    pub fn cover(&self, signal: usize) -> Option<&Sop> {
        signal
            .checked_sub(self.num_pis())
            .and_then(|i| self.nodes.get(i))
            .and_then(Option::as_ref)
    }

    fn cover_mut(&mut self, signal: usize) -> Option<&mut Sop> {
        let np = self.num_pis();
        signal
            .checked_sub(np)
            .and_then(|i| self.nodes.get_mut(i))
            .and_then(Option::as_mut)
    }

    /// Indices of all live node signals.
    pub fn live_signals(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| i + self.num_pis())
            .collect()
    }

    /// Builds a SOP network from a gate network: every gate becomes a node
    /// with its local cover (wide XORs are folded into chains of two-input
    /// XOR nodes, since XOR has no compact SOP).
    pub fn from_network(net: &Network) -> SopNet {
        let mut s = SopNet::new(net.name().to_string());
        let mut map: FxHashMap<SignalId, usize> = FxHashMap::default();
        for &i in net.inputs() {
            let sig = s.add_pi(net.node_name(i).unwrap_or("in"));
            map.insert(i, sig);
        }
        for id in net.topo_order() {
            let NodeKind::Gate(kind) = net.kind(id) else {
                continue;
            };
            let fan: Vec<usize> = net.fanins(id).iter().map(|f| map[f]).collect();
            let sig = s.build_gate(*kind, &fan);
            map.insert(id, sig);
        }
        for (name, sigid) in net.outputs() {
            s.add_output(name.clone(), map[sigid]);
        }
        s
    }

    fn build_gate(&mut self, kind: GateKind, fan: &[usize]) -> usize {
        use GateKind::*;
        match kind {
            Const0 => self.add_node(Sop::zero()),
            Const1 => self.add_node(Sop::one()),
            Buf => self.add_node(Sop::from_cubes([Cube::literal(fan[0], true)])),
            Not => self.add_node(Sop::from_cubes([Cube::literal(fan[0], false)])),
            And => self.add_node(Sop::from_cubes([
                Cube::new(fan.iter().copied(), []).expect("distinct signals")
            ])),
            Nand => self.add_node(Sop::from_cubes(
                fan.iter()
                    .map(|&f| Cube::literal(f, false))
                    .collect::<Vec<_>>(),
            )),
            Or => self.add_node(Sop::from_cubes(
                fan.iter()
                    .map(|&f| Cube::literal(f, true))
                    .collect::<Vec<_>>(),
            )),
            Nor => self.add_node(Sop::from_cubes([
                Cube::new([], fan.iter().copied()).expect("distinct signals")
            ])),
            Xor | Xnor => {
                // fold into binary xor nodes: ab' + a'b
                let mut acc = fan[0];
                for (k, &f) in fan.iter().enumerate().skip(1) {
                    let last = k + 1 == fan.len();
                    let invert = last && kind == Xnor;
                    let cover = if invert {
                        Sop::from_cubes([
                            Cube::new([acc, f], []).expect("distinct"),
                            Cube::new([], [acc, f]).expect("distinct"),
                        ])
                    } else {
                        Sop::from_cubes([
                            Cube::new([acc], [f]).expect("distinct"),
                            Cube::new([f], [acc]).expect("distinct"),
                        ])
                    };
                    acc = self.add_node(cover);
                }
                // single-fanin xor degenerates to buf / not
                if fan.len() == 1 {
                    let cover = if kind == Xnor {
                        Sop::from_cubes([Cube::literal(fan[0], false)])
                    } else {
                        Sop::from_cubes([Cube::literal(fan[0], true)])
                    };
                    acc = self.add_node(cover);
                }
                acc
            }
        }
    }

    /// Live node signals in dependency order (fanins before fanouts).
    ///
    /// # Panics
    ///
    /// Panics on a cyclic node definition.
    pub fn topo_signals(&self) -> Vec<usize> {
        let np = self.num_pis();
        let mut state = vec![0u8; self.nodes.len()]; // 0 white 1 grey 2 black
        let mut order = Vec::new();
        fn visit(s: &SopNet, node: usize, state: &mut [u8], order: &mut Vec<usize>, np: usize) {
            match state[node] {
                2 => return,
                1 => panic!("cyclic SOP network at node {node}"),
                _ => {}
            }
            state[node] = 1;
            if let Some(cover) = &s.nodes[node] {
                for v in cover.support().iter() {
                    if v >= np {
                        visit(s, v - np, state, order, np);
                    }
                }
            }
            state[node] = 2;
            order.push(node + np);
        }
        for i in 0..self.nodes.len() {
            if self.nodes[i].is_some() {
                visit(self, i, &mut state, &mut order, np);
            }
        }
        order
    }

    /// Per-node two-level cleanup: nodes with at most 12 support signals
    /// are re-minimized exactly with the Minato-Morreale ISOP (the role
    /// `simplify`/espresso plays in the SIS scripts); wider nodes get
    /// contained-cube removal and distance-1 merging.
    pub fn simplify(&mut self) {
        for n in self.nodes.iter_mut().flatten() {
            let support: Vec<usize> = n.support().iter().collect();
            if support.len() <= 12 && n.num_cubes() <= 512 {
                let t = n.table_over(&support);
                let local = Sop::isop(&t);
                let mut cubes = Vec::new();
                for c in local.cubes() {
                    let mut mapped = Cube::universe();
                    for b in c.positive().iter() {
                        mapped.add_literal(support[b], true);
                    }
                    for b in c.negative().iter() {
                        mapped.add_literal(support[b], false);
                    }
                    cubes.push(mapped);
                }
                let candidate = Sop::from_cubes(cubes);
                if candidate.num_literals() <= n.num_literals() {
                    *n = candidate;
                }
            } else {
                n.remove_contained();
                n.merge_distance1();
                n.remove_contained();
            }
        }
    }

    /// The exact SOP-literal change that collapsing `signal` into the
    /// nodes of `fanouts` (every live node reading it) would cause
    /// (negative = shrink), or `None` when the cover is over `max_cover`
    /// cubes or a negative reference needs an oversized complement.
    /// `complements` caches each node's complement (see [`SopNet::eliminate`]).
    fn collapse_delta(
        &self,
        signal: usize,
        fanouts: &[usize],
        max_cover: usize,
        complements: &mut [Option<Sop>],
    ) -> Option<i64> {
        let cover = self.cover(signal)?;
        if cover.num_cubes() > max_cover {
            return None;
        }
        let complement = if self.read_negated(signal, fanouts) {
            if cover.num_cubes() > 24 {
                return None; // complement could blow up
            }
            Some(self.complement(signal, complements))
        } else {
            None
        };
        let mut delta: i64 = -(cover.num_literals() as i64);
        for &f in fanouts {
            for c in self.cover(f).expect("fanouts are live").cubes() {
                let Some(ph) = c.phase(signal) else { continue };
                let sub = if ph {
                    cover
                } else {
                    complement.expect("computed when needed")
                };
                let mut rest = c.clone();
                rest.remove_var(signal);
                let old = c.num_literals() as i64;
                let new: usize = sub
                    .cubes()
                    .iter()
                    .filter_map(|sc| rest.intersect_len(sc))
                    .sum();
                delta += new as i64 - old;
            }
        }
        Some(delta)
    }

    /// The complement of node `signal`'s cover, from `cache` (indexed by
    /// node) or computed into it. It depends on that cover alone, so only
    /// a rewrite of the node itself invalidates it.
    fn complement<'c>(&self, signal: usize, cache: &'c mut [Option<Sop>]) -> &'c Sop {
        let cover = self.cover(signal).expect("complemented node is live");
        cache[signal - self.num_pis()].get_or_insert_with(|| cover.complement())
    }

    /// Whether some cover in `fanouts` reads `signal` in negative phase.
    fn read_negated(&self, signal: usize, fanouts: &[usize]) -> bool {
        fanouts.iter().any(|&f| {
            self.cover(f)
                .expect("fanouts are live")
                .cubes()
                .iter()
                .any(|c| c.phase(signal) == Some(false))
        })
    }

    /// Substitutes the cover of node `signal` into every node of `fanouts`
    /// (every live node reading it), then deletes the node. Negative
    /// references use the Shannon complement of the cover (from
    /// `complements`), computed only when some fanout has one; the
    /// rewritten fanouts' cached complements are dropped.
    fn collapse(&mut self, signal: usize, fanouts: &[usize], complements: &mut [Option<Sop>]) {
        let np = self.num_pis();
        let cover_neg = self
            .read_negated(signal, fanouts)
            .then(|| self.complement(signal, complements).clone());
        let cover = self.nodes[signal - np]
            .take()
            .expect("collapsed node is live");
        complements[signal - np] = None;
        for &f in fanouts {
            let old = self.cover(f).expect("fanouts are live");
            let mut new_cubes: Vec<Cube> = Vec::new();
            for c in old.cubes() {
                match c.phase(signal) {
                    None => new_cubes.push(c.clone()),
                    Some(ph) => {
                        let mut rest = c.clone();
                        rest.remove_var(signal);
                        let sub = if ph {
                            &cover
                        } else {
                            cover_neg.as_ref().expect("computed when needed")
                        };
                        for sc in sub.cubes() {
                            if let Some(merged) = rest.intersect(sc) {
                                new_cubes.push(merged);
                            }
                        }
                    }
                }
            }
            let mut ns = Sop::from_cubes(new_cubes);
            ns.remove_contained();
            self.nodes[f - np] = Some(ns);
            complements[f - np] = None;
        }
    }

    /// SIS-style `eliminate`: repeatedly collapses the node whose exact
    /// literal delta is smallest (ties to the lower signal), as long as it
    /// is at most `threshold`. Dead nodes always go first, lowest signal
    /// first; `max_cover` guards against cube blowup.
    ///
    /// Incremental: fanout lists and one score per node are built on entry.
    /// A node's score depends on its own cover and on the fanout cubes that
    /// read it, so after a collapse only the rewritten fanouts and their
    /// fanins are re-scored: the signals in their old supports and in the
    /// removed node's support (which together contain the new supports).
    /// Each node's complement is cached until its own cover is rewritten,
    /// so re-scoring a node whose fanouts changed does not recompute it.
    pub fn eliminate(&mut self, threshold: i64, max_cover: usize) {
        let np = self.num_pis();
        let mut is_output = vec![false; np + self.nodes.len()];
        for &(_, s) in &self.outputs {
            is_output[s] = true;
        }
        let mut fanouts: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for sig in self.live_signals() {
            for v in self.node_fanins(sig) {
                fanouts[v - np].push(sig);
            }
        }
        let mut complements: Vec<Option<Sop>> = vec![None; self.nodes.len()];
        // `Some(i64::MIN)` marks a dead node, so the queue's first entry is
        // always the lowest dead node, else the lowest-signal minimum delta
        let score = |s: &SopNet, sig: usize, fanouts: &[usize], complements: &mut [Option<Sop>]| {
            s.cover(sig)?;
            if is_output[sig] {
                None
            } else if fanouts.is_empty() {
                Some(i64::MIN)
            } else {
                s.collapse_delta(sig, fanouts, max_cover, complements)
                    .filter(|&d| d <= threshold)
            }
        };
        let mut scores: Vec<Option<i64>> = vec![None; self.nodes.len()];
        let mut queue: BTreeSet<(i64, usize)> = BTreeSet::new();
        let mut dirty = self.live_signals();
        loop {
            dirty.sort_unstable();
            dirty.dedup();
            for v in dirty.drain(..) {
                let s = score(self, v, &fanouts[v - np], &mut complements);
                if s != scores[v - np] {
                    if let Some(d) = scores[v - np] {
                        queue.remove(&(d, v));
                    }
                    if let Some(d) = s {
                        queue.insert((d, v));
                    }
                    scores[v - np] = s;
                }
            }
            let Some((_, sig)) = queue.pop_first() else {
                break;
            };
            scores[sig - np] = None;
            dirty = self.node_fanins(sig);
            for &v in &dirty {
                fanouts[v - np].retain(|&f| f != sig);
            }
            let users = std::mem::take(&mut fanouts[sig - np]);
            let old: Vec<Vec<usize>> = users.iter().map(|&f| self.node_fanins(f)).collect();
            // a dead node has no users, so this only deletes it
            self.collapse(sig, &users, &mut complements);
            for (&f, old) in users.iter().zip(old) {
                let new = self.node_fanins(f);
                for &v in old.iter().filter(|v| !new.contains(v)) {
                    fanouts[v - np].retain(|&g| g != f);
                }
                for &v in new.iter().filter(|v| !old.contains(v)) {
                    fanouts[v - np].push(f);
                }
                dirty.push(f);
                dirty.extend(old);
            }
        }
    }

    /// The node signals in the support of node `signal`'s cover, ascending.
    fn node_fanins(&self, signal: usize) -> Vec<usize> {
        let np = self.num_pis();
        self.cover(signal)
            .map(|c| c.support().iter().filter(|&v| v >= np).collect())
            .unwrap_or_default()
    }

    /// Greedy common-divisor extraction: collects kernels and common cubes
    /// from every node, evaluates each candidate's exact literal saving by
    /// trial division against all nodes, and extracts the best until no
    /// candidate saves literals. Returns the number of divisors extracted.
    ///
    /// Incremental (see `Extraction`): a node's candidates and its share
    /// of every candidate's saving depend on its cover alone, so after a
    /// round only the rewritten nodes and the new divisor node are
    /// recomputed. The result is the whole-network loop's: the same
    /// candidate order and representatives, the same cut after 500
    /// candidates, and the first strictly best saving wins.
    pub fn extract(&mut self, max_new_nodes: usize) -> usize {
        let mut x = Extraction::new(self);
        let mut created = 0;
        while created < max_new_nodes {
            let Some(id) = x.best(self) else {
                break;
            };
            let divisor = Rc::clone(&x.candidates[id].sop);
            let y = self.add_node(Sop::clone(&divisor));
            // the nodes with a positive share are exactly those the
            // division rewrites, each independently of the others
            let users: Vec<usize> = x.candidates[id].shares.iter().map(|&(n, _)| n).collect();
            for sig in users {
                let f = self.cover(sig).expect("live");
                if let Some(nf) = rewrite_with_divisor(f, &divisor, y) {
                    *self.cover_mut(sig).expect("live") = nf;
                    x.touch(self, sig);
                }
            }
            x.touch(self, y);
            created += 1;
        }
        created
    }

    /// Algebraic resubstitution: for every ordered node pair, try dividing
    /// one node by another existing node (positive phase) and rewrite when
    /// it saves literals and keeps the network acyclic. Returns rewrites
    /// applied.
    ///
    /// Every node's `Signature` is kept (and refreshed on a rewrite), so
    /// most pairs whose divisor uses a literal the target lacks are
    /// skipped before any division.
    pub fn resubstitute(&mut self) -> usize {
        let np = self.num_pis();
        let mut applied = 0;
        let sigs = self.live_signals();
        let mut signatures = vec![Signature::default(); self.nodes.len()];
        for &sig in &sigs {
            signatures[sig - np] = Signature::of(self.cover(sig).expect("live"));
        }
        for &target in &sigs {
            for &divisor_sig in &sigs {
                if target == divisor_sig {
                    continue;
                }
                let d = self
                    .cover(divisor_sig)
                    .expect("resubstitution kills no node");
                if d.num_cubes() < 2 {
                    continue;
                }
                if !signatures[target - np].may_divide(signatures[divisor_sig - np]) {
                    continue; // the quotient is zero
                }
                let f = self.cover(target).expect("live");
                if f.cubes().iter().any(|c| c.phase(divisor_sig).is_some()) {
                    continue; // already expressed through it
                }
                if rewrite_gain(f, d) <= 1 {
                    continue; // the new literal references an existing node,
                              // so require a real gain
                }
                // acyclic check: divisor must not depend on target
                if self.depends_on(divisor_sig, target) {
                    continue;
                }
                if let Some(nf) = rewrite_with_divisor(f, d, divisor_sig) {
                    signatures[target - np] = Signature::of(&nf);
                    *self.cover_mut(target).expect("live") = nf;
                    applied += 1;
                }
            }
        }
        applied
    }

    /// Whether the cone of `signal` (transitively) references `other`.
    /// An iterative search that visits each node once.
    pub fn depends_on(&self, signal: usize, other: usize) -> bool {
        if signal == other {
            return true;
        }
        let np = self.num_pis();
        let mut seen = VarSet::new();
        let mut stack = vec![signal];
        while let Some(sig) = stack.pop() {
            let Some(cover) = self.cover(sig) else {
                continue;
            };
            for c in cover.cubes() {
                for v in c.positive().iter().chain(c.negative().iter()) {
                    if v == other {
                        return true;
                    }
                    if v >= np && seen.insert(v) {
                        stack.push(v);
                    }
                }
            }
        }
        false
    }

    /// Lowers the SOP network to a gate [`Network`], factoring every node
    /// cover into AND/OR/NOT gates with good-factor.
    pub fn to_network(&self) -> Network {
        let mut net = Network::new(self.name.clone());
        let mut map: FxHashMap<usize, SignalId> = FxHashMap::default();
        let mut not_cache: FxHashMap<SignalId, SignalId> = FxHashMap::default();
        for (i, name) in self.pi_names.iter().enumerate() {
            let s = net.add_input(name.clone());
            map.insert(i, s);
        }
        for sig in self.topo_signals() {
            let cover = self.cover(sig).expect("live");
            // keep two-cube XOR/XNOR covers as native XOR gates so the
            // FPRM flow's redundancy analysis still sees them after a
            // resubstitution round-trip
            let s = match detect_xor2(cover) {
                Some((a, b, inverted)) => {
                    let kind = if inverted {
                        GateKind::Xnor
                    } else {
                        GateKind::Xor
                    };
                    net.add_gate(kind, vec![map[&a], map[&b]])
                }
                None => {
                    let fac = algebra::factor(cover);
                    emit_factored(&fac, &mut net, &map, &mut not_cache)
                }
            };
            map.insert(sig, s);
        }
        for (name, sig) in &self.outputs {
            net.add_output(name.clone(), map[sig]);
        }
        net
    }
}

/// A 128-bit digest of a cover's literals: literal `(v, phase)` sets bit
/// `(2v + phase) mod 128`. Weak division `f/d` is non-zero only when `d`'s
/// literals are a subset of `f`'s, hence its bits of `f`'s, so this is the
/// filter every trial division passes first.
#[derive(Debug, Clone, Copy, Default)]
struct Signature(u128);

impl Signature {
    fn of(cover: &Sop) -> Signature {
        let mut bits = 0u128;
        for c in cover.cubes() {
            for v in c.positive().iter() {
                bits |= 1 << ((2 * v + 1) % 128);
            }
            for v in c.negative().iter() {
                bits |= 1 << (2 * v % 128);
            }
        }
        Signature(bits)
    }

    /// Whether a cover with this signature may be divided by one with
    /// signature `d` (false means the quotient is certainly zero).
    fn may_divide(self, d: Signature) -> bool {
        d.0 & !self.0 == 0
    }
}

/// A candidate divisor of [`SopNet::extract`]: a cover exactly as a node
/// produced it (its cube order is the order the new node gets), with its
/// saving as of the round in `scored`.
#[derive(Debug)]
struct Candidate {
    sop: Rc<Sop>,
    signature: Signature,
    /// Its cube set's index among duplicate-free candidates, which
    /// `covers_same` treats as sets; `None` when a cube repeats, where it
    /// does not.
    class: Option<usize>,
    /// The saving: minus the candidate's own literals, plus `shares`.
    gain: i64,
    /// `(node signal, rewrite_gain)` for every node it would rewrite.
    shares: Vec<(usize, i64)>,
    /// The round `gain` is valid for; 0 = never scored.
    scored: usize,
}

/// The state of one [`SopNet::extract`] call. Candidates are interned by
/// their exact cover; each node keeps its signature and its list of
/// candidates, and each scored candidate its per-node shares, so a round
/// re-derives only what the previous round's rewrites touched.
#[derive(Debug)]
struct Extraction {
    /// Per node: the signature of its cover (live nodes only).
    signatures: Vec<Signature>,
    /// Per node: the distinct candidates it yields, in first-yield
    /// order; `None` when its cover changed since they were derived.
    yields: Vec<Option<Vec<usize>>>,
    ids: FxHashMap<Rc<Sop>, usize>,
    candidates: Vec<Candidate>,
    /// Classes by the order-free hash of their cube set, linearly probed
    /// on a collision.
    classes: FxHashMap<u64, usize>,
    /// Per class: its first candidate, and the last round that listed it.
    class_first: Vec<usize>,
    listed: Vec<usize>,
    /// Node signals whose covers changed since the last round.
    touched: Vec<usize>,
    round: usize,
}

impl Extraction {
    fn new(s: &SopNet) -> Extraction {
        let signatures = s
            .nodes
            .iter()
            .map(|n| n.as_ref().map(Signature::of).unwrap_or_default())
            .collect();
        Extraction {
            signatures,
            yields: vec![None; s.nodes.len()],
            ids: FxHashMap::default(),
            candidates: Vec::new(),
            classes: FxHashMap::default(),
            class_first: Vec::new(),
            listed: Vec::new(),
            touched: Vec::new(),
            round: 0,
        }
    }

    /// Records that node `sig` was rewritten (or created).
    fn touch(&mut self, s: &SopNet, sig: usize) {
        let i = sig - s.num_pis();
        let signature = Signature::of(s.cover(sig).expect("live"));
        if i == self.signatures.len() {
            self.signatures.push(signature);
            self.yields.push(None);
        } else {
            self.signatures[i] = signature;
            self.yields[i] = None;
        }
        self.touched.push(sig);
    }

    /// The candidate with the best positive saving this round, first in
    /// candidate order on ties.
    fn best(&mut self, s: &SopNet) -> Option<usize> {
        self.round += 1;
        let list = self.list(s);
        let touched = std::mem::take(&mut self.touched);
        let mut best: Option<(usize, i64)> = None;
        for id in list {
            // scored last round: only the nodes touched since then changed
            let scored = self.candidates[id].scored;
            if scored != 0 && scored + 1 == self.round {
                for &sig in &touched {
                    self.rescore(s, id, sig);
                }
            } else {
                self.score(s, id);
            }
            let c = &mut self.candidates[id];
            c.scored = self.round;
            if best.is_none_or(|(_, g)| c.gain > g) && c.gain > 0 {
                best = Some((id, c.gain));
            }
        }
        best.map(|(id, _)| id)
    }

    /// This round's candidate list: every live node's yields in signal
    /// order, each kept unless `covers_same` an earlier one, up to the
    /// node after which there are over 500.
    fn list(&mut self, s: &SopNet) -> Vec<usize> {
        let mut list = Vec::new();
        let mut repeating: Vec<usize> = Vec::new(); // listed with class None
        for sig in s.live_signals() {
            let f = s.cover(sig).expect("live");
            if f.num_cubes() < 2 {
                continue;
            }
            let i = sig - s.num_pis();
            if self.yields[i].is_none() {
                // a repeat is never listed: its first yield was listed or
                // `covers_same` an earlier candidate
                let (mut ys, mut seen) = (Vec::new(), FxHashSet::default());
                node_candidates(f, |c| {
                    let id = self.intern(c);
                    if seen.insert(id) {
                        ys.push(id);
                    }
                });
                self.yields[i] = Some(ys);
            }
            for &id in self.yields[i].as_ref().expect("derived above") {
                let c = &self.candidates[id];
                let seen = c.class.is_some_and(|k| self.listed[k] == self.round)
                    || repeating
                        .iter()
                        .any(|&r| covers_same(&self.candidates[r].sop, &c.sop));
                if seen {
                    continue;
                }
                match c.class {
                    Some(k) => self.listed[k] = self.round,
                    None => repeating.push(id),
                }
                list.push(id);
            }
            if list.len() > 500 {
                break;
            }
        }
        list
    }

    fn intern(&mut self, sop: Sop) -> usize {
        if let Some(&id) = self.ids.get(&sop) {
            return id;
        }
        let cubes = sop.cubes();
        let repeats = (1..cubes.len()).any(|i| cubes[..i].contains(&cubes[i]));
        let class = (!repeats).then(|| {
            // the sum of the cubes' hashes does not depend on their order
            let key = cubes.iter().fold(0u64, |h, c| {
                let mut hasher = FxHasher::default();
                c.hash(&mut hasher);
                h.wrapping_add(hasher.finish())
            });
            let mut key = key;
            loop {
                match self.classes.get(&key) {
                    Some(&k) if covers_same(&self.candidates[self.class_first[k]].sop, &sop) => {
                        break k;
                    }
                    Some(_) => key = key.wrapping_add(1),
                    None => {
                        let k = self.class_first.len();
                        self.classes.insert(key, k);
                        self.class_first.push(self.candidates.len());
                        self.listed.push(0);
                        break k;
                    }
                }
            }
        });
        let id = self.candidates.len();
        let sop = Rc::new(sop);
        self.ids.insert(Rc::clone(&sop), id);
        self.candidates.push(Candidate {
            signature: Signature::of(&sop),
            gain: 0,
            shares: Vec::new(),
            scored: 0,
            class,
            sop,
        });
        id
    }

    /// Node `sig`'s share of candidate `id`'s saving.
    fn share(&self, s: &SopNet, id: usize, sig: usize) -> i64 {
        let c = &self.candidates[id];
        if self.signatures[sig - s.num_pis()].may_divide(c.signature) {
            rewrite_gain(s.cover(sig).expect("live"), &c.sop)
        } else {
            0
        }
    }

    /// Scores candidate `id` against every live node.
    fn score(&mut self, s: &SopNet, id: usize) {
        let shares: Vec<(usize, i64)> = s
            .live_signals()
            .into_iter()
            .map(|sig| (sig, self.share(s, id, sig)))
            .filter(|&(_, g)| g != 0)
            .collect();
        let c = &mut self.candidates[id];
        c.gain = shares.iter().map(|&(_, g)| g).sum::<i64>() - c.sop.num_literals() as i64;
        c.shares = shares;
    }

    /// Replaces node `sig`'s share of candidate `id`'s saving.
    fn rescore(&mut self, s: &SopNet, id: usize, sig: usize) {
        let g = self.share(s, id, sig);
        let c = &mut self.candidates[id];
        if let Some(i) = c.shares.iter().position(|&(n, _)| n == sig) {
            c.gain -= c.shares.swap_remove(i).1;
        }
        if g != 0 {
            c.gain += g;
            c.shares.push((sig, g));
        }
    }
}

/// Hands `yield_` the divisor candidates a node with cover `f` yields, in
/// order: its kernels other than `f` itself, then the common cube (of two
/// or more literals) of each cube pair. One at a time, so the pairs of a
/// wide cover, mostly repeats, are never all held at once.
fn node_candidates(f: &Sop, mut yield_: impl FnMut(Sop)) {
    for k in algebra::kernels(f, 30) {
        if k.kernel.num_cubes() >= 2 && !covers_same(&k.kernel, f) {
            yield_(k.kernel);
        }
    }
    for (i, a) in f.cubes().iter().enumerate() {
        for b in f.cubes().iter().skip(i + 1) {
            let pos = a.positive().intersection(b.positive());
            let neg = a.negative().intersection(b.negative());
            if pos.len() + neg.len() >= 2 {
                let c = Cube::from_sets(pos, neg).expect("intersections disjoint");
                yield_(Sop::from_cubes([c]));
            }
        }
    }
}

/// The literal saving from rewriting `f = q·y + r` with divisor `d` (the
/// new literal `y` counted), or 0 when `d` does not divide `f`.
fn rewrite_gain(f: &Sop, d: &Sop) -> i64 {
    rewritten_literals(f, d).map_or(0, |new| (f.num_literals() as i64 - new as i64).max(0))
}

/// The literals of `q·y + r` for the weak division `f = q·d + r` with a
/// new literal `y` for `d`, or `None` when the quotient is zero.
///
/// Counts the quotient and remainder without building them. A cube `c0`
/// of `f` holding the first divisor cube `d0` yields the quotient cube
/// `c0/d0` when every other divisor cube `di` lies in some cube `c` of `f`
/// with `c/di == c0/d0`; the remainder is every cube of `f` that no
/// quotient cube times a divisor cube reproduces.
fn rewritten_literals(f: &Sop, d: &Sop) -> Option<usize> {
    let (d0, rest) = d.cubes().split_first()?;
    let fc = f.cubes();
    let in_quotient = |c0: &Cube| {
        c0.implies(d0)
            && rest.iter().all(|di| {
                fc.iter()
                    .any(|c| c.implies(di) && c.same_quotient(di, c0, d0))
            })
    };
    let quotient: Vec<&Cube> = fc.iter().filter(|c0| in_quotient(c0)).collect();
    if quotient.is_empty() {
        return None;
    }
    let q_lits: usize = quotient
        .iter()
        .map(|c0| c0.num_literals() - d0.num_literals())
        .sum();
    let reproduced = |c: &Cube| {
        d.cubes()
            .iter()
            .any(|dj| c.implies(dj) && quotient.iter().any(|c0| c.same_quotient(dj, c0, d0)))
    };
    let r_lits: usize = fc
        .iter()
        .filter(|c| !reproduced(c))
        .map(Cube::num_literals)
        .sum();
    Some(q_lits + quotient.len() + r_lits)
}

/// Rewrites `f` as `q·y + r` when that saves literals; `None` otherwise.
fn rewrite_with_divisor(f: &Sop, d: &Sop, y: usize) -> Option<Sop> {
    let (q, r) = algebra::divide(f, d);
    if q.is_zero() {
        return None;
    }
    let old = f.num_literals();
    let new = q.num_literals() + q.num_cubes() + r.num_literals();
    if new >= old {
        return None;
    }
    let mut cubes: Vec<Cube> = Vec::new();
    for qc in q.cubes() {
        let mut c = qc.clone();
        if !c.add_literal(y, true) {
            return None; // y clashed (cannot happen: y is fresh/absent)
        }
        cubes.push(c);
    }
    cubes.extend(r.cubes().iter().cloned());
    Some(Sop::from_cubes(cubes))
}

/// Recognizes `a·¬b + ¬a·b` (XOR) and `a·b + ¬a·¬b` (XNOR) covers;
/// returns `(a, b, is_xnor)`.
fn detect_xor2(cover: &Sop) -> Option<(usize, usize, bool)> {
    if cover.num_cubes() != 2 || cover.num_literals() != 4 {
        return None;
    }
    let (c0, c1) = (&cover.cubes()[0], &cover.cubes()[1]);
    let sup = c0.support();
    if sup != c1.support() || sup.len() != 2 {
        return None;
    }
    let mut vars = sup.iter();
    let (a, b) = (vars.next()?, vars.next()?);
    let p0: Option<(bool, bool)> = c0.phase(a).zip(c0.phase(b));
    let p1: Option<(bool, bool)> = c1.phase(a).zip(c1.phase(b));
    match (p0?, p1?) {
        ((true, false), (false, true)) | ((false, true), (true, false)) => Some((a, b, false)),
        ((true, true), (false, false)) | ((false, false), (true, true)) => Some((a, b, true)),
        _ => None,
    }
}

/// A random SOP network over `pis` inputs and `nodes` nodes, drawn from
/// `bits`: each node's cover reads inputs and earlier nodes in both
/// phases; some nodes drive outputs, the rest may be dead from the start.
pub(crate) fn random_sopnet(bits: u64, pis: usize, nodes: usize) -> SopNet {
    let mut rng = bits | 1;
    let mut next = move |k: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % k
    };
    let mut s = SopNet::new("rand");
    for i in 0..pis {
        s.add_pi(format!("x{i}"));
    }
    for _ in 0..nodes {
        let signals = s.num_pis() + s.nodes.len();
        let cubes = (0..1 + next(4))
            .filter_map(|_| {
                let mut c = Cube::universe();
                for _ in 0..1 + next(3) {
                    // favour recent signals so chains and reconvergence form
                    let v = signals - 1 - (next(signals as u64) as usize).min(next(6) as usize);
                    c.add_literal(v, next(3) != 0);
                }
                (!c.is_universe()).then_some(c)
            })
            .collect::<Vec<_>>();
        let sig = s.add_node(Sop::from_cubes(cubes));
        if next(4) == 0 {
            s.add_output(format!("o{sig}"), sig);
        }
    }
    let last = s.num_pis() + s.nodes.len() - 1;
    s.add_output("last", last);
    s
}

impl SopNet {
    /// The network as a [`crate::SopNet`], node for node; dead nodes
    /// become dead there too.
    pub(crate) fn to_rows(&self) -> crate::SopNet {
        let mut s = crate::SopNet::new(self.name.clone());
        for name in &self.pi_names {
            s.add_pi(name.clone());
        }
        for n in &self.nodes {
            s.add_node(
                n.as_ref()
                    .map_or_else(xsynth_boolean::Sop::zero, Sop::to_rows),
            );
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.is_none() {
                s.delete_node(self.num_pis() + i);
            }
        }
        for (name, sig) in &self.outputs {
            s.add_output(name.clone(), *sig);
        }
        s
    }

    /// Whether `rows` has this network's nodes, cube for cube, and outputs.
    pub(crate) fn same_as(&self, rows: &crate::SopNet) -> bool {
        let np = self.num_pis();
        rows.num_pis() == np
            && rows.num_signals() == np + self.nodes.len()
            && rows.outputs() == self.outputs.as_slice()
            && self
                .nodes
                .iter()
                .enumerate()
                .all(|(i, n)| n.as_ref().map(Sop::to_rows).as_ref() == rows.cover(np + i))
    }
}

/// The whole-network `eliminate` loop the incremental one replaced:
/// every iteration re-scores every live node by rescanning every cover.
/// Kept as the oracle for [`crate::SopNet::eliminate`].
pub(crate) fn eliminate_reference(s: &mut SopNet, threshold: i64, max_cover: usize) {
    let is_output = |s: &SopNet, sig: usize| s.outputs.iter().any(|&(_, o)| o == sig);
    let num_uses = |s: &SopNet, sig: usize| {
        s.nodes
            .iter()
            .flatten()
            .flat_map(Sop::cubes)
            .filter(|c| c.phase(sig).is_some())
            .count()
    };
    let collapse_delta = |s: &SopNet, sig: usize| -> Option<i64> {
        if is_output(s, sig) {
            return None;
        }
        let cover = s.cover(sig)?;
        if cover.num_cubes() > max_cover {
            return None;
        }
        let needs_complement = s
            .nodes
            .iter()
            .flatten()
            .any(|f| f.cubes().iter().any(|c| c.phase(sig) == Some(false)));
        let complement = if needs_complement {
            if cover.num_cubes() > 24 {
                return None;
            }
            Some(cover.complement())
        } else {
            None
        };
        let mut delta: i64 = -(cover.num_literals() as i64);
        for c in s.nodes.iter().flatten().flat_map(Sop::cubes) {
            let Some(ph) = c.phase(sig) else { continue };
            let sub = if ph { cover } else { complement.as_ref()? };
            let mut rest = c.clone();
            rest.remove_var(sig);
            let new: usize = sub
                .cubes()
                .iter()
                .filter_map(|sc| rest.intersect(sc))
                .map(|m| m.num_literals())
                .sum();
            delta += new as i64 - c.num_literals() as i64;
        }
        Some(delta)
    };
    let np = s.num_pis();
    loop {
        let mut best: Option<(usize, i64)> = None;
        for sig in s.live_signals() {
            if num_uses(s, sig) == 0 && !is_output(s, sig) {
                best = Some((sig, i64::MIN));
                break;
            }
            if let Some(delta) = collapse_delta(s, sig) {
                if delta <= threshold && best.is_none_or(|(_, v)| delta < v) {
                    best = Some((sig, delta));
                }
            }
        }
        let Some((sig, _)) = best else { break };
        let cover = s.nodes[sig - np].take().expect("live");
        let cover_neg = cover.complement();
        for f in s.nodes.iter_mut().flatten() {
            if !f.support().contains(sig) {
                continue;
            }
            let mut new_cubes: Vec<Cube> = Vec::new();
            for c in f.cubes() {
                match c.phase(sig) {
                    None => new_cubes.push(c.clone()),
                    Some(ph) => {
                        let mut rest = c.clone();
                        rest.remove_var(sig);
                        let sub = if ph { &cover } else { &cover_neg };
                        new_cubes.extend(sub.cubes().iter().filter_map(|sc| rest.intersect(sc)));
                    }
                }
            }
            let mut ns = Sop::from_cubes(new_cubes);
            ns.remove_contained();
            *f = ns;
        }
    }
}

/// `rewritten_literals` by building the quotient and remainder with
/// [`algebra::divide`]; the oracle for the counting
/// `Division::rewritten_literals`.
pub(crate) fn rewritten_literals_reference(f: &Sop, d: &Sop) -> Option<usize> {
    let (q, r) = algebra::divide(f, d);
    (!q.is_zero()).then(|| q.num_literals() + q.num_cubes() + r.num_literals())
}

fn rewrite_gain_reference(f: &Sop, d: &Sop) -> i64 {
    rewritten_literals_reference(f, d)
        .map_or(0, |new| (f.num_literals() as i64 - new as i64).max(0))
}

/// The whole-network `extract` loop the incremental one replaced:
/// every round rebuilds every node's candidates and divides every
/// candidate into every node. Kept as the oracle for
/// [`crate::SopNet::extract`].
pub(crate) fn extract_reference(s: &mut SopNet, max_new_nodes: usize) -> usize {
    let mut created = 0;
    while created < max_new_nodes {
        let Some((divisor, gain)) = best_divisor_reference(s) else {
            break;
        };
        if gain <= 0 {
            break;
        }
        let y = s.add_node(divisor.clone());
        for sig in s.live_signals() {
            if sig == y {
                continue;
            }
            let f = s.cover(sig).expect("live").clone();
            if let Some(nf) = rewrite_with_divisor(&f, &divisor, y) {
                *s.cover_mut(sig).expect("live") = nf;
            }
        }
        created += 1;
    }
    created
}

/// The whole-network round's candidate list.
pub(crate) fn candidates_reference(s: &SopNet) -> Vec<Sop> {
    let mut candidates: Vec<Sop> = Vec::new();
    let push = |c: Sop, candidates: &mut Vec<Sop>| {
        if c.num_cubes() >= 1 && !candidates.iter().any(|k| covers_same(k, &c)) {
            candidates.push(c);
        }
    };
    for sig in s.live_signals() {
        let f = s.cover(sig).expect("live");
        if f.num_cubes() < 2 {
            continue;
        }
        for k in algebra::kernels(f, 30) {
            if k.kernel.num_cubes() >= 2 && !covers_same(&k.kernel, f) {
                push(k.kernel, &mut candidates);
            }
        }
        for (i, a) in f.cubes().iter().enumerate() {
            for b in f.cubes().iter().skip(i + 1) {
                let pos = a.positive().intersection(b.positive());
                let neg = a.negative().intersection(b.negative());
                if pos.len() + neg.len() >= 2 {
                    let c = Cube::from_sets(pos, neg).expect("intersections disjoint");
                    push(Sop::from_cubes([c]), &mut candidates);
                }
            }
        }
        if candidates.len() > 500 {
            break;
        }
    }
    candidates
}

fn best_divisor_reference(s: &SopNet) -> Option<(Sop, i64)> {
    let mut best: Option<(Sop, i64)> = None;
    for cand in candidates_reference(s) {
        let mut gain: i64 = -(cand.num_literals() as i64);
        for sig in s.live_signals() {
            gain += rewrite_gain_reference(s.cover(sig).expect("live"), &cand);
        }
        if best.as_ref().is_none_or(|(_, g)| gain > *g) && gain > 0 {
            best = Some((cand, gain));
        }
    }
    best
}

/// The recursive `depends_on` the iterative search replaced: it
/// revisits a node once per path to it. The oracle for
/// [`crate::SopNet::depends_on`].
pub(crate) fn depends_on_reference(s: &SopNet, signal: usize, other: usize) -> bool {
    if signal == other {
        return true;
    }
    let Some(cover) = s.cover(signal) else {
        return false;
    };
    cover
        .support()
        .iter()
        .any(|v| v == other || (v >= s.num_pis() && depends_on_reference(s, v, other)))
}

/// The pairwise `resubstitute` loop without literal filters. Kept as
/// the oracle for [`crate::SopNet::resubstitute`].
pub(crate) fn resubstitute_reference(s: &mut SopNet) -> usize {
    let mut applied = 0;
    let sigs = s.live_signals();
    for &target in &sigs {
        for &divisor_sig in &sigs {
            if target == divisor_sig {
                continue;
            }
            let Some(d) = s.cover(divisor_sig) else {
                continue;
            };
            if d.num_cubes() < 2 {
                continue;
            }
            let Some(f) = s.cover(target) else {
                continue;
            };
            if f.support().contains(divisor_sig) {
                continue;
            }
            if rewrite_gain_reference(f, d) <= 1 {
                continue;
            }
            if s.depends_on(divisor_sig, target) {
                continue;
            }
            let (f, d) = (f.clone(), d.clone());
            if let Some(nf) = rewrite_with_divisor(&f, &d, divisor_sig) {
                *s.cover_mut(target).expect("live") = nf;
                applied += 1;
            }
        }
    }
    applied
}
