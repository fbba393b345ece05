//! A network of SOP nodes — the SIS/MIS working representation.
//!
//! Every cover is a buffer of literal rows (see [`Sop`]) as wide as its
//! own literals need: a node's cover rarely reads the newest signals, and a
//! network of a two-level input has hundreds of them. The greedy loops do work only where a cover changed, and give the
//! results of the whole-network loops they replaced byte for byte (the
//! `VarSet` implementation, kept as a test oracle, carries those checks). Every trial division is filtered first by a
//! `Signature` of the covers' literals and counted without building the
//! quotient (`rewritten_literals`). [`SopNet::extract`] keeps each
//! node's candidate divisors and each candidate's per-node savings
//! (`Extraction`), so a round re-derives only the rewritten nodes and
//! the new divisor node, with the same candidate order, representatives,
//! 500-candidate cut and first-strictly-best pick. [`SopNet::eliminate`]
//! re-scores only the nodes a collapse touched and caches each node's
//! complement; [`SopNet::resubstitute`] keeps the signatures.

use crate::algebra::{self, covers_same, Factored};
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use xsynth_boolean::{mask_ones, Cube, FxHashMap, FxHashSet, FxHasher, Sop};
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

    /// The outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, usize)] {
        &self.outputs
    }

    /// The cover of the node driving `signal`, if it is a live node.
    pub fn cover(&self, signal: usize) -> Option<&Sop> {
        signal
            .checked_sub(self.num_pis())
            .and_then(|i| self.nodes.get(i))
            .and_then(Option::as_ref)
    }

    /// Replaces the cover of live node `signal`.
    fn set_cover(&mut self, signal: usize, cover: Sop) {
        let np = self.num_pis();
        let node = &mut self.nodes[signal - np];
        assert!(node.is_some(), "rewritten node {signal} is live");
        *node = Some(cover);
    }

    /// Number of signals: the inputs, then every node, live or deleted.
    #[cfg(test)]
    pub(crate) fn num_signals(&self) -> usize {
        self.num_pis() + self.nodes.len()
    }

    /// Deletes node `signal`, as `eliminate` deletes a collapsed one.
    #[cfg(test)]
    pub(crate) fn delete_node(&mut self, signal: usize) {
        let np = self.num_pis();
        self.nodes[signal - np] = None;
    }

    /// Indices of all live node signals.
    pub fn live_signals(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_some())
            .map(|i| i + self.num_pis())
            .collect()
    }

    /// Total SOP literal count over live nodes (the SIS `lits(sop)`
    /// metric).
    pub fn num_sop_literals(&self) -> usize {
        self.nodes.iter().flatten().map(Sop::num_literals).sum()
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
        let cover = |cubes: &[(&[usize], &[usize])]| {
            Sop::from_literals(
                cubes
                    .iter()
                    .map(|&(p, n)| (p.iter().copied(), n.iter().copied())),
            )
            .expect("distinct signals")
        };
        match kind {
            Const0 => self.add_node(Sop::zero()),
            Const1 => self.add_node(Sop::one()),
            Buf => self.add_node(Sop::literal(fan[0], true)),
            Not => self.add_node(Sop::literal(fan[0], false)),
            And => self.add_node(cover(&[(fan, &[])])),
            Nand => self.add_node(cover(
                &fan.iter()
                    .map(|f| (&[][..], std::slice::from_ref(f)))
                    .collect::<Vec<_>>(),
            )),
            Or => self.add_node(cover(
                &fan.iter()
                    .map(|f| (std::slice::from_ref(f), &[][..]))
                    .collect::<Vec<_>>(),
            )),
            Nor => self.add_node(cover(&[(&[], fan)])),
            Xor | Xnor => {
                // fold into binary xor nodes: ab' + a'b
                let mut acc = fan[0];
                for (k, &f) in fan.iter().enumerate().skip(1) {
                    let last = k + 1 == fan.len();
                    let invert = last && kind == Xnor;
                    let cover = if invert {
                        cover(&[(&[acc, f], &[]), (&[], &[acc, f])])
                    } else {
                        cover(&[(&[acc], &[f]), (&[f], &[acc])])
                    };
                    acc = self.add_node(cover);
                }
                // single-fanin xor degenerates to buf / not
                if fan.len() == 1 {
                    let cover = Sop::literal(fan[0], kind != Xnor);
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
                for v in &cover.support() {
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

    /// Evaluates every output for the PI assignment in `minterm`.
    pub fn eval_u64(&self, minterm: u64) -> Vec<bool> {
        let np = self.num_pis();
        let mut val: FxHashMap<usize, bool> = FxHashMap::default();
        for i in 0..np {
            val.insert(i, minterm & (1 << i) != 0);
        }
        for sig in self.topo_signals() {
            let cover = self.cover(sig).expect("topo yields live nodes");
            let v = cover
                .cubes()
                .any(|c| c.literals().all(|(v, phase)| val[&v] == phase));
            val.insert(sig, v);
        }
        self.outputs.iter().map(|&(_, s)| val[&s]).collect()
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
                let candidate = Sop::isop_over(&t, &support);
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
        // the positive references first; the negative ones, if any, in a
        // second pass over the complement
        let mut delta: i64 = -(cover.num_literals() as i64);
        let mut negated = false;
        let mut add = |c: Cube<'_>, sub: &Sop| {
            // `sub` does not read `signal`: `c`'s literal of it is the
            // one each product has on top of `c / signal`'s
            let new: usize = sub
                .cubes()
                .filter_map(|sc| c.intersect_len(sc).map(|l| l - 1))
                .sum();
            delta += new as i64 - c.num_literals() as i64;
        };
        let reading = |phase: bool| {
            (fanouts.iter())
                .flat_map(|&f| self.cover(f).expect("fanouts are live").cubes())
                .filter(move |c| c.phase(signal) == Some(phase))
        };
        for c in (fanouts.iter()).flat_map(|&f| self.cover(f).expect("fanouts are live").cubes()) {
            match c.phase(signal) {
                Some(true) => add(c, cover),
                Some(false) => negated = true,
                None => {}
            }
        }
        if negated {
            if cover.num_cubes() > 24 {
                return None; // complement could blow up
            }
            let complement = self.complement(signal, complements);
            reading(false).for_each(|c| add(c, complement));
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
            let mut ns = Sop::zero();
            for c in old.cubes() {
                match c.phase(signal) {
                    None => ns.push(c),
                    Some(ph) => {
                        let sub = if ph {
                            &cover
                        } else {
                            cover_neg.as_ref().expect("computed when needed")
                        };
                        // `sub` does not read `signal`, so `c ∩ sc` clashes
                        // exactly when `(c / signal) ∩ sc` does
                        for sc in sub.cubes() {
                            if ns.push_product(c, sc) {
                                ns.clear_var(ns.num_cubes() - 1, signal);
                            }
                        }
                    }
                }
            }
            ns.remove_contained();
            ns.trim();
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
                    self.set_cover(sig, nf);
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
        let mut division = Division::default();
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
                if f.cubes().any(|c| c.phase(divisor_sig).is_some()) {
                    continue; // already expressed through it
                }
                if rewrite_gain(f, d, &mut division) <= 1 {
                    continue; // the new literal references an existing node,
                              // so require a real gain
                }
                // acyclic check: divisor must not depend on target
                if self.depends_on(divisor_sig, target) {
                    continue;
                }
                if let Some(nf) = rewrite_with_divisor(f, d, divisor_sig) {
                    signatures[target - np] = Signature::of(&nf);
                    self.set_cover(target, nf);
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
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![signal];
        while let Some(sig) = stack.pop() {
            let Some(cover) = self.cover(sig) else {
                continue;
            };
            for (v, _) in cover.cubes().flat_map(Cube::literals) {
                if v == other {
                    return true;
                }
                if v >= np && !std::mem::replace(&mut seen[v - np], true) {
                    stack.push(v);
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

/// Bit `b` of `x` moved to bit `2b`.
fn spread(x: u64) -> u128 {
    let mut x = u128::from(x);
    x = (x | x << 32) & 0x0000_0000_ffff_ffff_0000_0000_ffff_ffff;
    x = (x | x << 16) & 0x0000_ffff_0000_ffff_0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff_00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333_3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555_5555_5555_5555_5555
}

impl Signature {
    /// `2v mod 128` depends only on `v mod 64`, so the digest interleaves
    /// the OR of every negative word with the OR of every positive word.
    fn of(cover: &Sop) -> Signature {
        let (mut pos, mut neg) = (0u64, 0u64);
        for c in cover.cubes() {
            pos = c.positive().iter().fold(pos, |acc, w| acc | w);
            neg = c.negative().iter().fold(neg, |acc, w| acc | w);
        }
        Signature(spread(neg) | spread(pos) << 1)
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
    division: Division,
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
            division: Division::default(),
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

    fn intern(&mut self, sop: &Sop) -> usize {
        if let Some(&id) = self.ids.get(sop) {
            return id;
        }
        let repeats = (1..sop.num_cubes()).any(|i| sop.cubes().take(i).any(|c| c == sop.cube(i)));
        let class = (!repeats).then(|| {
            // the sum of the cubes' hashes does not depend on their order
            let key = sop.cubes().fold(0u64, |h, c| {
                let mut hasher = FxHasher::default();
                c.hash(&mut hasher);
                h.wrapping_add(hasher.finish())
            });
            let mut key = key;
            loop {
                match self.classes.get(&key) {
                    Some(&k) if covers_same(&self.candidates[self.class_first[k]].sop, sop) => {
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
        let sop = Rc::new(sop.clone());
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
    fn share(&mut self, s: &SopNet, id: usize, sig: usize) -> i64 {
        let c = &self.candidates[id];
        if self.signatures[sig - s.num_pis()].may_divide(c.signature) {
            rewrite_gain(s.cover(sig).expect("live"), &c.sop, &mut self.division)
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
/// or more literals) of each cube pair. One at a time, each pair's in one
/// reused cover, so the pairs of a wide cover, mostly repeats, are never
/// all held at once.
fn node_candidates(f: &Sop, mut yield_: impl FnMut(&Sop)) {
    for k in algebra::kernels(f, 30) {
        if k.kernel.num_cubes() >= 2 && !covers_same(&k.kernel, f) {
            yield_(&k.kernel);
        }
    }
    let mut common = Sop::zero();
    for (i, a) in f.cubes().enumerate() {
        for b in f.cubes().skip(i + 1) {
            let shared = |x: &[u64], y: &[u64]| -> u32 {
                x.iter().zip(y).map(|(p, q)| (p & q).count_ones()).sum()
            };
            if shared(a.positive(), b.positive()) + shared(a.negative(), b.negative()) >= 2 {
                common.clear();
                common.push_common(a, b);
                yield_(&common);
            }
        }
    }
}

/// The literal saving from rewriting `f = q·y + r` with divisor `d` (the
/// new literal `y` counted), or 0 when `d` does not divide `f`.
fn rewrite_gain(f: &Sop, d: &Sop, division: &mut Division) -> i64 {
    division
        .rewritten_literals(f, d)
        .map_or(0, |new| (f.num_literals() as i64 - new as i64).max(0))
}

/// Buffers reused by every trial division of one pass.
#[derive(Debug, Default)]
struct Division {
    /// `divides[j * |f| + i]`: divisor cube `j` divides cube `i` of `f`.
    divides: Vec<bool>,
    /// The cubes `c0` of `f` giving the quotient cubes `c0 / d0`.
    quotient: Vec<usize>,
}

impl Division {
    /// The literals of `q·y + r` for the weak division `f = q·d + r` with
    /// a new literal `y` for `d`, or `None` when the quotient is zero.
    ///
    /// Counts the quotient and remainder without building them. A cube
    /// `c0` of `f` holding the first divisor cube `d0` yields the quotient
    /// cube `c0/d0` when every other divisor cube `di` lies in some cube
    /// `c` of `f` with `c/di == c0/d0`; the remainder is every cube of `f`
    /// that no quotient cube times a divisor cube reproduces. Which
    /// divisor cube divides which cube of `f` is worked out once.
    fn rewritten_literals(&mut self, f: &Sop, d: &Sop) -> Option<usize> {
        let (nf, nd) = (f.num_cubes(), d.num_cubes());
        let d0 = (nd > 0).then(|| d.cube(0))?;
        self.divides.clear();
        self.divides.extend(f.cubes().map(|c| c.implies(d0)));
        if !self.divides.contains(&true) {
            return None;
        }
        for dj in d.cubes().skip(1) {
            self.divides.extend(f.cubes().map(|c| c.implies(dj)));
        }
        let divides = &self.divides;
        // some cube `c` that `dj` divides has `c / dj == c0 / d0`
        let meets = |j: usize, c0| {
            let dj = d.cube(j);
            (0..nf).any(|i| divides[j * nf + i] && f.cube(i).same_quotient(dj, c0, d0))
        };
        self.quotient.clear();
        for (k, c0) in f.cubes().enumerate() {
            if divides[k] && (1..nd).all(|j| meets(j, c0)) {
                self.quotient.push(k);
            }
        }
        if self.quotient.is_empty() {
            return None;
        }
        let quotient = &self.quotient;
        let q_lits: usize = (quotient.iter())
            .map(|&k| f.cube(k).num_literals() - d0.num_literals())
            .sum();
        let reproduced = |i: usize| {
            (0..nd).any(|j| {
                divides[j * nf + i]
                    && (quotient.iter()).any(|&k| f.cube(i).same_quotient(d.cube(j), f.cube(k), d0))
            })
        };
        let r_lits: usize = (0..nf)
            .filter(|&i| !reproduced(i))
            .map(|i| f.cube(i).num_literals())
            .sum();
        Some(q_lits + quotient.len() + r_lits)
    }
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
    let mut cubes = Sop::zero();
    for qc in q.cubes() {
        if !cubes.push_with_literal(qc, y, true) {
            return None; // y clashed (cannot happen: y is fresh/absent)
        }
    }
    cubes.append(&r);
    Some(cubes)
}

/// Recognizes `a·¬b + ¬a·b` (XOR) and `a·b + ¬a·¬b` (XNOR) covers;
/// returns `(a, b, is_xnor)`.
fn detect_xor2(cover: &Sop) -> Option<(usize, usize, bool)> {
    if cover.num_cubes() != 2 || cover.num_literals() != 4 {
        return None;
    }
    let (c0, c1) = (cover.cube(0), cover.cube(1));
    let support = |c: Cube<'_>| -> Vec<u64> {
        (c.positive().iter().zip(c.negative()))
            .map(|(p, n)| p | n)
            .collect()
    };
    let sup = support(c0);
    if sup != support(c1) || sup.iter().map(|w| w.count_ones()).sum::<u32>() != 2 {
        return None;
    }
    let mut vars = mask_ones(&sup);
    let (a, b) = (vars.next()?, vars.next()?);
    let p0: Option<(bool, bool)> = c0.phase(a).zip(c0.phase(b));
    let p1: Option<(bool, bool)> = c1.phase(a).zip(c1.phase(b));
    match (p0?, p1?) {
        ((true, false), (false, true)) | ((false, true), (true, false)) => Some((a, b, false)),
        ((true, true), (false, false)) | ((false, false), (true, true)) => Some((a, b, true)),
        _ => None,
    }
}

/// Lowers a good-factored form into AND/OR/NOT gates of `net`: variable
/// `v` reads the signal `map[v]`, and each negated signal gets one NOT gate
/// shared through `not_cache`. Returns the form's root signal.
///
/// # Panics
///
/// Panics if a literal's variable has no entry in `map`.
pub fn emit_factored(
    fac: &Factored,
    net: &mut Network,
    map: &FxHashMap<usize, SignalId>,
    not_cache: &mut FxHashMap<SignalId, SignalId>,
) -> SignalId {
    match fac {
        Factored::Zero => net.add_gate(GateKind::Const0, vec![]),
        Factored::One => net.add_gate(GateKind::Const1, vec![]),
        Factored::Literal(v, ph) => {
            let s = map[v];
            if *ph {
                s
            } else {
                *not_cache
                    .entry(s)
                    .or_insert_with(|| net.add_gate(GateKind::Not, vec![s]))
            }
        }
        Factored::And(xs) => {
            let fan: Vec<SignalId> = xs
                .iter()
                .map(|x| emit_factored(x, net, map, not_cache))
                .collect();
            net.add_gate(GateKind::And, fan)
        }
        Factored::Or(xs) => {
            let fan: Vec<SignalId> = xs
                .iter()
                .map(|x| emit_factored(x, net, map, not_cache))
                .collect();
            net.add_gate(GateKind::Or, fan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::cover::{Cube as SetCube, Sop as SetSop};
    use crate::oracle::sopnet as oracle;
    use xsynth_net::GateKind;

    pub(crate) fn cover(cubes: &[(&[usize], &[usize])]) -> Sop {
        Sop::from_literals(
            cubes
                .iter()
                .map(|&(p, n)| (p.iter().copied(), n.iter().copied())),
        )
        .expect("disjoint phases")
    }

    fn sample_network() -> Network {
        // two outputs sharing structure: o1 = ab + ac, o2 = ab + d
        let mut n = Network::new("s");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let ab = n.add_gate(GateKind::And, vec![a, b]);
        let ac = n.add_gate(GateKind::And, vec![a, c]);
        let o1 = n.add_gate(GateKind::Or, vec![ab, ac]);
        let o2 = n.add_gate(GateKind::Or, vec![ab, d]);
        n.add_output("o1", o1);
        n.add_output("o2", o2);
        n
    }

    fn check_equiv(s: &SopNet, net: &Network) {
        let n = net.inputs().len();
        for m in 0..(1u64 << n) {
            assert_eq!(s.eval_u64(m), net.eval_u64(m), "minterm {m}");
        }
    }

    #[test]
    fn from_network_preserves_function() {
        let net = sample_network();
        let s = SopNet::from_network(&net);
        check_equiv(&s, &net);
    }

    #[test]
    fn from_network_handles_xor_chain() {
        let mut net = Network::new("x");
        let ins: Vec<_> = (0..5).map(|i| net.add_input(format!("i{i}"))).collect();
        let x = net.add_gate(GateKind::Xor, ins.clone());
        let nx = net.add_gate(GateKind::Xnor, ins);
        net.add_output("x", x);
        net.add_output("nx", nx);
        let s = SopNet::from_network(&net);
        check_equiv(&s, &net);
    }

    #[test]
    fn eliminate_collapses_small_nodes() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(10, 64);
        // the and/or structure should fold into two SOP nodes (the outputs)
        assert_eq!(s.live_signals().len(), 2);
        check_equiv(&s, &net);
    }

    #[test]
    fn collapse_respects_negative_references() {
        let mut s = SopNet::new("neg");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let t = s.add_node(cover(&[(&[a, b], &[])]));
        // f = ¬t
        let f = s.add_node(Sop::literal(t, false));
        s.add_output("f", f);
        s.collapse(t, &[f], &mut [None, None]);
        assert!(s.cover(t).is_none());
        // f must now be ¬a + ¬b
        for m in 0..4u64 {
            let expect = !(m & 1 != 0 && m & 2 != 0);
            assert_eq!(s.eval_u64(m), vec![expect], "at {m}");
        }
    }

    #[test]
    fn collapse_refuses_output_nodes() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(i64::MAX, usize::MAX);
        for &(_, sig) in s.outputs() {
            assert!(s.cover(sig).is_some(), "output node {sig} was collapsed");
        }
        check_equiv(&s, &net);
    }

    #[test]
    fn extract_shares_common_kernel() {
        // f1 = ac + bc, f2 = ad + bd share kernel (a+b)
        let mut s = SopNet::new("e");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let c = s.add_pi("c");
        let d = s.add_pi("d");
        let f1 = s.add_node(cover(&[(&[a, c], &[]), (&[b, c], &[])]));
        let f2 = s.add_node(cover(&[(&[a, d], &[]), (&[b, d], &[])]));
        s.add_output("f1", f1);
        s.add_output("f2", f2);
        let before = s.num_sop_literals();
        let made = s.extract(10);
        assert!(made >= 1, "kernel a+b should be extracted");
        assert!(s.num_sop_literals() < before);
        for m in 0..16u64 {
            let (av, bv, cv, dv) = (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0);
            assert_eq!(
                s.eval_u64(m),
                vec![(av || bv) && cv, (av || bv) && dv],
                "at {m}"
            );
        }
    }

    #[test]
    fn covers_are_as_wide_as_their_literals() {
        // 62 inputs, then f1 = ac + bc and f2 = ad + bd at signals 62 and
        // 63: the divisor a + b is signal 64, one word past them
        let mut s = SopNet::new("wide");
        let x: Vec<usize> = (0..62).map(|i| s.add_pi(format!("x{i}"))).collect();
        let (a, b, c, d) = (x[0], x[1], x[60], x[61]);
        let f1 = s.add_node(cover(&[(&[a, c], &[]), (&[b, c], &[])]));
        let f2 = s.add_node(cover(&[(&[a, d], &[]), (&[b, d], &[])]));
        s.add_output("f1", f1);
        s.add_output("f2", f2);
        assert_eq!(s.extract(10), 1);
        let y = 64;
        assert_eq!(s.cover(f1), Some(&cover(&[(&[c, y], &[])])));
        assert_eq!(s.cover(f2), Some(&cover(&[(&[d, y], &[])])));
        assert_eq!(s.cover(f1).expect("live").vars(), 128);
        assert_eq!(s.cover(y).expect("live").vars(), 64);
        // collapsing y back leaves every cover one word wide
        s.eliminate(i64::MAX, 64);
        assert_eq!(s.cover(f1), Some(&cover(&[(&[a, c], &[]), (&[b, c], &[])])));
        assert_eq!(s.cover(f1).expect("live").vars(), 64);
    }

    #[test]
    fn to_network_roundtrip() {
        let net = sample_network();
        let mut s = SopNet::from_network(&net);
        s.eliminate(5, 64);
        s.extract(10);
        let back = s.to_network();
        for m in 0..16u64 {
            assert_eq!(back.eval_u64(m), net.eval_u64(m), "at {m}");
        }
    }

    #[test]
    fn resubstitute_uses_existing_node() {
        // f1 = a + b (node), f2 = ac + bc → f2 = f1·c
        let mut s = SopNet::new("r");
        let a = s.add_pi("a");
        let b = s.add_pi("b");
        let c = s.add_pi("c");
        let f1 = s.add_node(cover(&[(&[a], &[]), (&[b], &[])]));
        let f2 = s.add_node(cover(&[(&[a, c], &[]), (&[b, c], &[])]));
        s.add_output("f1", f1);
        s.add_output("f2", f2);
        let n = s.resubstitute();
        assert_eq!(n, 1);
        assert_eq!(s.cover(f2).unwrap().num_literals(), 2, "f2 = f1·c");
        for m in 0..8u64 {
            let (av, bv, cv) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            assert_eq!(s.eval_u64(m), vec![av || bv, (av || bv) && cv]);
        }
    }

    #[test]
    fn resubstitution_sees_its_own_rewrites() {
        // y = a + b, f = ac + bc + e, d = y·c + e: resubstituting y turns f
        // into y·c + e, which d then divides, but only if f's signature
        // was refreshed to read y
        let mut s = SopNet::new("r");
        let [a, b, c, e] = ["a", "b", "c", "e"].map(|n| s.add_pi(n));
        let y = s.add_node(cover(&[(&[a], &[]), (&[b], &[])]));
        let f = s.add_node(cover(&[(&[a, c], &[]), (&[b, c], &[]), (&[e], &[])]));
        let d = s.add_node(cover(&[(&[y, c], &[]), (&[e], &[])]));
        for o in [y, f, d] {
            s.add_output(format!("o{o}"), o);
        }
        assert_eq!(s.resubstitute(), 2);
        assert_eq!(s.cover(f), Some(&Sop::literal(d, true)));
    }

    #[test]
    fn dead_node_elimination() {
        let mut s = SopNet::new("d");
        let a = s.add_pi("a");
        let _dead = s.add_node(Sop::literal(a, true));
        let live = s.add_node(Sop::literal(a, false));
        s.add_output("o", live);
        s.eliminate(-100, 64);
        assert_eq!(s.live_signals().len(), 1);
    }

    #[test]
    fn depends_on_visits_each_node_once() {
        // a ladder of XOR nodes over two inputs (node i reads nodes i-1
        // and i-2), every path reconverging, plus an unrelated input z
        let mut s = SopNet::new("ladder");
        let (mut a, mut b) = (s.add_pi("a"), s.add_pi("b"));
        let z = s.add_pi("z");
        for _ in 0..64 {
            let x = s.add_node(cover(&[(&[a], &[b]), (&[b], &[a])]));
            (a, b) = (b, x);
        }
        s.add_output("top", b);
        let top = s.outputs()[0].1;
        let t0 = std::time::Instant::now();
        assert!(!s.depends_on(top, z));
        assert!(s.depends_on(top, 0));
        assert!(s.depends_on(top, top - 10));
        assert!(!s.depends_on(top - 10, top));
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(1),
            "{:?}",
            t0.elapsed()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(200))]

        #[test]
        fn rewritten_literals_match_division(
            bits in proptest::arbitrary::any::<u64>(),
            f_cubes in 1usize..12,
            d_cubes in 1usize..4,
            wide in proptest::arbitrary::any::<bool>(),
        ) {
            // f = (random divisor d) · (random quotient cubes) + noise, over
            // six variables 37 apart (past 64 and 128) so cubes repeat and
            // divisions half-succeed
            let mut rng = bits | 1;
            let mut next = move |k: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % k
            };
            let cube = |next: &mut dyn FnMut(u64) -> u64| {
                let mut c = SetCube::universe();
                for v in 0..6 {
                    match next(5) {
                        0 => c.add_literal(v * 37, true),
                        1 => c.add_literal(v * 37, false),
                        _ => true,
                    };
                }
                c
            };
            let d = SetSop::from_cubes((0..d_cubes).map(|_| cube(&mut next)));
            let q: Vec<SetCube> = (0..1 + next(3)).map(|_| cube(&mut next)).collect();
            let mut cubes: Vec<SetCube> = Vec::new();
            for qc in &q {
                for dc in d.cubes() {
                    if next(5) != 0 {
                        cubes.extend(qc.intersect(dc));
                    }
                }
            }
            while cubes.len() < f_cubes {
                cubes.push(cube(&mut next));
            }
            let f = SetSop::from_cubes(cubes);
            let (rows_f, mut rows_d) = (f.to_rows(), d.to_rows());
            if wide {
                rows_d.widen(300);
            }
            let want = oracle::rewritten_literals_reference(&f, &d);
            let (q, r) = algebra::divide(&rows_f, &rows_d);
            let divided = (!q.is_zero()).then(|| q.num_literals() + q.num_cubes() + r.num_literals());
            proptest::prop_assert_eq!(divided, want);
            // one division's buffers serve every call
            let mut division = Division::default();
            proptest::prop_assert_eq!(division.rewritten_literals(&rows_f, &rows_d), want);
            proptest::prop_assert_eq!(
                division.rewritten_literals(&rows_d, &rows_f),
                oracle::rewritten_literals_reference(&d, &f)
            );
            proptest::prop_assert_eq!(division.rewritten_literals(&rows_f, &rows_d), want);
        }

        #[test]
        fn extract_candidates_match_reference(
            bits in proptest::arbitrary::any::<u64>(),
            pis in 0usize..3,
            nodes in 1usize..40,
            collapse in proptest::arbitrary::any::<bool>(),
        ) {
            // raw random covers repeat cubes, so some candidates do too
            let mut old = oracle::random_sopnet(bits, [5, 40, 100][pis], nodes);
            let mut s = old.to_rows();
            if collapse {
                old.eliminate(4, 64);
                s.eliminate(4, 64);
                proptest::prop_assert!(old.same_as(&s));
            }
            let mut x = Extraction::new(&s);
            x.round = 1;
            let fast: Vec<&Sop> = x.list(&s).into_iter().map(|id| &*x.candidates[id].sop).collect();
            let slow: Vec<Sop> = oracle::candidates_reference(&old).iter().map(SetSop::to_rows).collect();
            proptest::prop_assert_eq!(fast, slow.iter().collect::<Vec<_>>());
        }

        #[test]
        fn extract_matches_reference(
            bits in proptest::arbitrary::any::<u64>(),
            pis in 0usize..3,
            nodes in 1usize..40,
            threshold in 0u64..12,
            max_new in 0usize..6,
        ) {
            // collapse first, as the script does, so covers are wide
            // enough to share kernels and cubes
            let mut old = oracle::random_sopnet(bits, [5, 40, 100][pis], nodes);
            old.eliminate(threshold as i64, 64);
            let mut fast = old.to_rows();
            let max_new = [1, 2, 3, 5, 10, 400][max_new];
            let made = fast.extract(max_new);
            proptest::prop_assert_eq!(made, oracle::extract_reference(&mut old, max_new));
            proptest::prop_assert!(old.same_as(&fast));
        }

        #[test]
        fn depends_on_matches_reference(
            bits in proptest::arbitrary::any::<u64>(),
            pis in 0usize..2,
            nodes in 1usize..16,
        ) {
            let old = oracle::random_sopnet(bits, [4, 66][pis], nodes);
            let s = old.to_rows();
            for a in 0..s.num_signals() {
                for b in 0..s.num_signals() {
                    proptest::prop_assert_eq!(
                        s.depends_on(a, b),
                        oracle::depends_on_reference(&old, a, b),
                        "{} on {}", a, b
                    );
                }
            }
        }

        #[test]
        fn resubstitute_matches_reference(
            bits in proptest::arbitrary::any::<u64>(),
            pis in 0usize..3,
            nodes in 1usize..60,
            threshold in 0u64..12,
        ) {
            // a light collapse keeps many multi-cube nodes to divide by;
            // the added nodes each contain one of them times a literal of
            // the last four inputs, which the random covers read most
            let pis = [4, 66, 130][pis];
            let mut old = oracle::random_sopnet(bits, pis, nodes);
            old.eliminate(threshold as i64 - 4, 64);
            let sigs = old.live_signals();
            for (k, &d) in sigs.iter().enumerate().filter(|&(k, _)| k % 3 == 0) {
                let lit = SetCube::literal(pis - 1 - (bits as usize >> (k % 60)) % 4, k % 2 == 0);
                let mut cubes: Vec<SetCube> = old.cover(d).expect("live").cubes().iter()
                    .filter_map(|c| c.intersect(&lit))
                    .collect();
                cubes.push(SetCube::literal(sigs[k / 2], true));
                let sig = old.add_node(SetSop::from_cubes(cubes));
                old.add_output(format!("r{sig}"), sig);
            }
            let mut fast = old.to_rows();
            let applied = fast.resubstitute();
            proptest::prop_assert_eq!(applied, oracle::resubstitute_reference(&mut old));
            proptest::prop_assert!(old.same_as(&fast));
        }

        #[test]
        fn eliminate_matches_reference_loop(
            bits in proptest::arbitrary::any::<u64>(),
            pis in 0usize..3,
            nodes in 1usize..40,
            threshold in 0u64..10,
            cap in 0usize..4,
        ) {
            let threshold = threshold as i64 - 2;
            let max_cover = [4, 16, 64, 256][cap];
            let mut old = oracle::random_sopnet(bits, [5, 40, 100][pis], nodes);
            let mut fast = old.to_rows();
            fast.eliminate(threshold, max_cover);
            oracle::eliminate_reference(&mut old, threshold, max_cover);
            proptest::prop_assert!(old.same_as(&fast));
            proptest::prop_assert_eq!(fast.live_signals(), old.live_signals());
        }
    }
}
