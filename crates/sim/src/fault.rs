//! Single-stuck-at fault enumeration and simulation.
//!
//! The paper claims its synthesized networks are irredundant and come with
//! a complete single-stuck-at test set derived from the FPRM cubes (the OC
//! and SA1 pattern sets) with no conventional ATPG. This module provides
//! the machinery to check that claim: enumerate the fault universe of a
//! network and measure which faults a pattern set detects.
//!
//! [`FaultSim`] is the engine, shared with the redundancy-removal pass.
//! It simulates the fault-free network once per 64-pattern block. After
//! that, each query flips one node on some lanes and propagates the
//! flip event by event. Each node's fanout positions in the topological
//! order are stored flat, CSR-style, once per snapshot. A bitset over
//! the positions schedules the gates to re-evaluate, and they are
//! evaluated in order. A gate whose value changes schedules its own
//! fanouts. The walk stops at the first primary output that differs.
//! Faulty values live in a per-node scratch array that a per-query
//! stamp invalidates, so a query clones nothing and clears only the
//! event bits it left set. A query costs the changed part of the
//! flipped node's fanout cone, not the rest of the network.

use crate::{pack_patterns, Pattern, PatternBlock, Simulator};
use std::fmt;
use xsynth_net::{Network, NodeKind, SignalId};

/// A location where a stuck-at fault can occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The output wire of a node (also models primary-input faults).
    Output(SignalId),
    /// The `k`-th fanin wire of a gate (a fanout branch fault).
    Fanin(SignalId, usize),
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// Where the wire is stuck.
    pub site: FaultSite,
    /// The stuck value (`true` = stuck-at-1).
    pub stuck_at: bool,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = if self.stuck_at { 1 } else { 0 };
        match self.site {
            FaultSite::Output(s) => write!(f, "n{}/sa{}", s.index(), v),
            FaultSite::Fanin(s, k) => write!(f, "n{}.in{}/sa{}", s.index(), k, v),
        }
    }
}

/// Enumerates the full (uncollapsed) single-stuck-at fault universe of the
/// reachable subnetwork: both polarities on every node output and every
/// gate fanin wire.
pub fn enumerate_faults(net: &Network) -> Vec<Fault> {
    let mut faults = Vec::new();
    for id in net.topo_order() {
        for stuck in [false, true] {
            faults.push(Fault {
                site: FaultSite::Output(id),
                stuck_at: stuck,
            });
        }
        if matches!(net.kind(id), NodeKind::Gate(_)) {
            for k in 0..net.fanins(id).len() {
                for stuck in [false, true] {
                    faults.push(Fault {
                        site: FaultSite::Fanin(id, k),
                        stuck_at: stuck,
                    });
                }
            }
        }
    }
    faults
}

/// The outcome of fault-simulating a pattern set.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// All faults that were simulated.
    pub total: usize,
    /// Faults no pattern detected.
    pub undetected: Vec<Fault>,
}

impl FaultReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.total - self.undetected.len()
    }

    /// Fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected() as f64 / self.total as f64
        }
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} faults detected ({:.1}% coverage)",
            self.detected(),
            self.total,
            100.0 * self.coverage()
        )
    }
}

/// Simulates every fault in `faults` against every pattern (bit-parallel,
/// 64 patterns at a time) and reports which faults stay undetected.
///
/// A fault is detected by a pattern when some primary output differs from
/// the fault-free value.
///
/// # Panics
///
/// Panics if any pattern's length differs from the input count.
pub fn fault_simulate(net: &Network, patterns: &[Pattern], faults: &[Fault]) -> FaultReport {
    let mut sim = FaultSim::new(net, &pack_patterns(net.inputs().len(), patterns));
    FaultReport {
        total: faults.len(),
        undetected: faults
            .iter()
            .copied()
            .filter(|&f| !sim.detects(net, f))
            .collect(),
    }
}

/// The fault-free simulation of a network over a pattern set, kept so
/// that fault effects can be propagated from their site onward: the one
/// fault-propagation engine behind both [`fault_simulate`] and the
/// redundancy-removal pass.
///
/// It owns the topological order, each node's position in it, the fanout
/// positions of every position (flat, CSR-style) and every block's
/// fault-free node words, and borrows nothing. A flip propagates event by
/// event: only gates with a fanin whose value changed are re-evaluated,
/// in order, and the walk stops at the first primary output that
/// differs. Each query takes the network the snapshot was built from; a
/// caller that rewrites the network builds a new snapshot.
#[derive(Debug, Clone)]
pub struct FaultSim {
    order: Vec<SignalId>,
    /// Position of each node in `order` (`usize::MAX` if unreachable).
    pos: Vec<usize>,
    /// `fanouts[fanout_start[p]..fanout_start[p + 1]]` are the positions
    /// of the gates that read the node at position `p`.
    fanout_start: Vec<u32>,
    fanouts: Vec<u32>,
    /// Whether the node at each position drives a primary output.
    drives_output: Vec<bool>,
    blocks: Vec<GoodBlock>,
    events: Events,
}

/// One 64-lane pattern block's fault-free node words.
#[derive(Debug, Clone)]
struct GoodBlock {
    lane_mask: u64,
    values: Vec<u64>,
}

/// Scratch state of one flip's propagation, reused across queries.
#[derive(Debug, Clone)]
struct Events {
    /// Faulty value of each node changed in the current query: valid
    /// where `stamp` equals `epoch`, the fault-free value elsewhere.
    faulty: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Positions scheduled for re-evaluation, one bit each.
    pending: Vec<u64>,
}

impl FaultSim {
    /// Simulates `net` on every block through [`Simulator::simulate_block`].
    ///
    /// # Panics
    ///
    /// Panics if a block's word count differs from the input count.
    pub fn new(net: &Network, blocks: &[PatternBlock]) -> Self {
        let sim = Simulator::new(net);
        let blocks = blocks
            .iter()
            .map(|pb| GoodBlock {
                lane_mask: pb.lane_mask(),
                values: sim.simulate_block(&pb.words),
            })
            .collect();
        let order = sim.order;
        let mut pos = vec![usize::MAX; net.num_nodes()];
        for (i, &id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        let mut fanout_start = vec![0u32; order.len() + 1];
        for &id in &order {
            for f in net.fanins(id) {
                fanout_start[pos[f.index()] + 1] += 1;
            }
        }
        for p in 0..order.len() {
            fanout_start[p + 1] += fanout_start[p];
        }
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![0u32; fanout_start[order.len()] as usize];
        for (q, &id) in order.iter().enumerate() {
            for f in net.fanins(id) {
                let slot = &mut fill[pos[f.index()]];
                fanouts[*slot as usize] = q as u32;
                *slot += 1;
            }
        }
        let mut drives_output = vec![false; order.len()];
        for (_, s) in net.outputs() {
            drives_output[pos[s.index()]] = true;
        }
        FaultSim {
            events: Events {
                faulty: vec![0; net.num_nodes()],
                stamp: vec![0; net.num_nodes()],
                epoch: 0,
                pending: vec![0; order.len().div_ceil(64)],
            },
            order,
            pos,
            fanout_start,
            fanouts,
            drives_output,
            blocks,
        }
    }

    /// The nodes reachable from a primary output, children before parents.
    pub fn order(&self) -> &[SignalId] {
        &self.order
    }

    /// Whether `node` is reachable from a primary output.
    pub fn is_reachable(&self, node: SignalId) -> bool {
        self.pos[node.index()] != usize::MAX
    }

    /// Whether flipping `node`'s value reaches a primary output on some
    /// pattern. `lanes` gets each block's fault-free node words (indexed
    /// by [`SignalId::index`]) and picks the lanes to flip in that block.
    pub fn flip_detected(
        &mut self,
        net: &Network,
        node: SignalId,
        lanes: impl Fn(&[u64]) -> u64,
    ) -> bool {
        (0..self.blocks.len()).any(|b| {
            let block = &self.blocks[b];
            let flip = lanes(&block.values) & block.lane_mask;
            self.flip_propagates(net, b, node, flip)
        })
    }

    /// Whether some pattern detects `fault`. The fault flips its site on
    /// the lanes where the site's fault-free value differs from the stuck
    /// value; a fanin fault flips only that wire, so the driver keeps its
    /// value on its other fanout branches.
    pub fn detects(&mut self, net: &Network, fault: Fault) -> bool {
        let excited = |w: u64| if fault.stuck_at { !w } else { w };
        match fault.site {
            FaultSite::Output(s) => self.flip_detected(net, s, |val| excited(val[s.index()])),
            FaultSite::Fanin(gate, idx) => {
                let (NodeKind::Gate(kind), Some(&wire)) =
                    (net.kind(gate), net.fanins(gate).get(idx))
                else {
                    return false;
                };
                (0..self.blocks.len()).any(|b| {
                    let GoodBlock { lane_mask, values } = &self.blocks[b];
                    let flip = excited(values[wire.index()]) & lane_mask;
                    let faulty =
                        kind.eval_words(net.fanins(gate).iter().enumerate().map(|(k, f)| {
                            let v = values[f.index()];
                            if k == idx {
                                v ^ flip
                            } else {
                                v
                            }
                        }));
                    let flip = faulty ^ values[gate.index()];
                    self.flip_propagates(net, b, gate, flip)
                })
            }
        }
    }

    /// Whether flipping `node` on the `flip` lanes of block `b` changes
    /// any primary output. The flip is an event at the node's position;
    /// each event schedules the node's fanouts, and scheduled gates are
    /// re-evaluated in order, a gate whose value changes raising the next
    /// event. Every gate computes lane by lane, so values can only change
    /// on the `flip` lanes.
    fn flip_propagates(&mut self, net: &Network, b: usize, node: SignalId, flip: u64) -> bool {
        if flip == 0 || !self.is_reachable(node) {
            return false;
        }
        let start = self.pos[node.index()];
        if self.drives_output[start] {
            return true;
        }
        let good = &self.blocks[b].values;
        let ev = &mut self.events;
        ev.epoch = ev.epoch.wrapping_add(1);
        if ev.epoch == 0 {
            ev.stamp.fill(0);
            ev.epoch = 1;
        }
        ev.faulty[node.index()] = good[node.index()] ^ flip;
        ev.stamp[node.index()] = ev.epoch;
        let mut last = 0; // highest pending word
        let schedule = |pending: &mut [u64], p: usize, last: &mut usize| {
            for &q in
                &self.fanouts[self.fanout_start[p] as usize..self.fanout_start[p + 1] as usize]
            {
                let q = q as usize;
                pending[q / 64] |= 1 << (q % 64);
                *last = (*last).max(q / 64);
            }
        };
        schedule(&mut ev.pending, start, &mut last);
        let mut w = start / 64;
        while w <= last {
            while ev.pending[w] != 0 {
                let p = 64 * w + ev.pending[w].trailing_zeros() as usize;
                ev.pending[w] &= ev.pending[w] - 1;
                let id = self.order[p];
                let NodeKind::Gate(kind) = net.kind(id) else {
                    continue;
                };
                let value = kind.eval_words(net.fanins(id).iter().map(|f| {
                    if ev.stamp[f.index()] == ev.epoch {
                        ev.faulty[f.index()]
                    } else {
                        good[f.index()]
                    }
                }));
                if value == good[id.index()] {
                    continue;
                }
                if self.drives_output[p] {
                    ev.pending[w..=last].fill(0);
                    return true;
                }
                ev.faulty[id.index()] = value;
                ev.stamp[id.index()] = ev.epoch;
                schedule(&mut ev.pending, p, &mut last);
            }
            w += 1;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive_patterns;
    use proptest::prelude::*;
    use xsynth_net::GateKind;

    /// The full re-simulation oracle: re-simulates one 64-pattern block
    /// with `fault` injected and reports whether any primary output
    /// differs from the fault-free values in any of the `mask`ed lanes.
    fn differs_under_fault(
        net: &Network,
        order: &[SignalId],
        input_words: &[u64],
        good: &[u64],
        fault: Fault,
        mask: u64,
    ) -> bool {
        let stuck_word = if fault.stuck_at { !0u64 } else { 0u64 };
        let mut val = vec![0u64; net.num_nodes()];
        for (i, &id) in net.inputs().iter().enumerate() {
            val[id.index()] = input_words[i];
        }
        if let FaultSite::Output(s) = fault.site {
            if matches!(net.kind(s), NodeKind::Input) {
                val[s.index()] = stuck_word;
            }
        }
        for &id in order {
            if let NodeKind::Gate(k) = net.kind(id) {
                let v = match fault.site {
                    // evaluate with the idx-th fanin wire overridden
                    FaultSite::Fanin(g, idx) if g == id => {
                        k.eval_words(net.fanins(id).iter().enumerate().map(|(j, f)| {
                            if j == idx {
                                stuck_word
                            } else {
                                val[f.index()]
                            }
                        }))
                    }
                    _ => k.eval_words(net.fanins(id).iter().map(|f| val[f.index()])),
                };
                val[id.index()] = if fault.site == FaultSite::Output(id) {
                    stuck_word
                } else {
                    v
                };
            }
        }
        net.outputs()
            .iter()
            .any(|&(_, s)| (val[s.index()] ^ good[s.index()]) & mask != 0)
    }

    /// Whether no pattern detects `fault`.
    fn undetected(net: &Network, patterns: &[Pattern], fault: Fault) -> bool {
        !fault_simulate(net, patterns, &[fault])
            .undetected
            .is_empty()
    }

    fn xor_as_aoi() -> Network {
        // a⊕b built from AND/OR/NOT — Hayes: all 4 patterns needed.
        let mut n = Network::new("xor_aoi");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, vec![a]);
        let nb = n.add_gate(GateKind::Not, vec![b]);
        let l = n.add_gate(GateKind::And, vec![a, nb]);
        let r = n.add_gate(GateKind::And, vec![na, b]);
        let o = n.add_gate(GateKind::Or, vec![l, r]);
        n.add_output("y", o);
        n
    }

    #[test]
    fn xor_aoi_is_fully_testable_exhaustively() {
        let n = xor_as_aoi();
        let faults = enumerate_faults(&n);
        let rep = fault_simulate(&n, &exhaustive_patterns(2), &faults);
        assert_eq!(rep.undetected, vec![], "irredundant circuit: {rep}");
        assert_eq!(rep.coverage(), 1.0);
    }

    #[test]
    fn xor_aoi_needs_all_four_patterns() {
        // Hayes' result (paper Section 4): dropping any one of the four
        // patterns leaves some internal fault undetected.
        let n = xor_as_aoi();
        let faults = enumerate_faults(&n);
        let all = exhaustive_patterns(2);
        for skip in 0..4 {
            let subset: Vec<_> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, p)| p.clone())
                .collect();
            let rep = fault_simulate(&n, &subset, &faults);
            assert!(
                !rep.undetected.is_empty(),
                "dropping pattern {skip} should lose coverage"
            );
        }
    }

    #[test]
    fn redundant_wire_is_undetectable() {
        // y = a·b + a·b  (duplicate cube): faults in the duplicate are
        // undetectable by any pattern.
        let mut n = Network::new("red");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, vec![a, b]);
        let g2 = n.add_gate(GateKind::And, vec![a, b]);
        let o = n.add_gate(GateKind::Or, vec![g1, g2]);
        n.add_output("y", o);
        let rep = fault_simulate(&n, &exhaustive_patterns(2), &enumerate_faults(&n));
        assert!(
            !rep.undetected.is_empty(),
            "duplicated cube must create untestable faults"
        );
        // specifically, g2's output stuck-at-0 changes nothing
        let f = Fault {
            site: FaultSite::Fanin(o, 1),
            stuck_at: false,
        };
        assert!(undetected(&n, &exhaustive_patterns(2), f));
    }

    #[test]
    fn pi_fault_detection() {
        let mut n = Network::new("buf");
        let a = n.add_input("a");
        n.add_output("y", a);
        let f0 = Fault {
            site: FaultSite::Output(a),
            stuck_at: false,
        };
        // only the pattern a=1 detects stuck-at-0
        assert!(undetected(&n, &[vec![false]], f0));
        assert!(!undetected(&n, &[vec![true]], f0));
    }

    #[test]
    fn report_formatting() {
        let n = xor_as_aoi();
        let rep = fault_simulate(&n, &exhaustive_patterns(2), &enumerate_faults(&n));
        let s = rep.to_string();
        assert!(s.contains("100.0%"), "{s}");
    }

    const KINDS: [GateKind; 4] = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Not];

    /// A random AND/OR/XOR/NOT network: `picks[i]` chooses gate `i`'s kind
    /// and two fanins among the signals before it; `outs` picks the
    /// primary outputs, so some gates may be unreachable. Returns the
    /// network and every node in it.
    fn random_net(
        n_inputs: usize,
        picks: &[(u8, u8, u8)],
        outs: &[u8],
    ) -> (Network, Vec<SignalId>) {
        let mut net = Network::new("rand");
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        for &(k, a, b) in picks {
            let kind = KINDS[k as usize % KINDS.len()];
            let fa = sigs[a as usize % sigs.len()];
            let fb = sigs[b as usize % sigs.len()];
            let fanins = if kind == GateKind::Not {
                vec![fa]
            } else {
                vec![fa, fb]
            };
            sigs.push(net.add_gate(kind, fanins));
        }
        for (i, &o) in outs.iter().enumerate() {
            net.add_output(
                format!("y{i}"),
                sigs[sigs.len() - 1 - o as usize % sigs.len()],
            );
        }
        (net, sigs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Start-at-site flip propagation detects exactly the faults the
        /// full faulty re-simulation detects, fault by fault.
        #[test]
        fn fault_simulate_matches_full_resimulation(
            n_inputs in 1usize..6,
            picks in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 1..14),
            outs in proptest::collection::vec(0u8..4, 1..3),
            seeds in proptest::collection::vec(any::<u64>(), 1..90),
        ) {
            let (net, nodes) = random_net(n_inputs, &picks, &outs);
            let patterns: Vec<Pattern> = seeds
                .iter()
                .map(|s| (0..n_inputs).map(|i| s >> i & 1 != 0).collect())
                .collect();
            // every site of every node, reachable or not
            let mut faults = Vec::new();
            for id in nodes {
                for stuck_at in [false, true] {
                    faults.push(Fault { site: FaultSite::Output(id), stuck_at });
                    for k in 0..net.fanins(id).len() {
                        faults.push(Fault { site: FaultSite::Fanin(id, k), stuck_at });
                    }
                }
            }
            let rep = fault_simulate(&net, &patterns, &faults);
            let order = net.topo_order();
            let sim = Simulator::new(&net);
            let blocks = pack_patterns(n_inputs, &patterns);
            for f in faults {
                let oracle = blocks.iter().any(|b| {
                    let good = sim.simulate_block(&b.words);
                    differs_under_fault(&net, &order, &b.words, &good, f, b.lane_mask())
                });
                prop_assert_eq!(rep.undetected.contains(&f), !oracle, "{}", f);
            }
        }

        /// Event-driven propagation answers every `flip_detected` and
        /// `detects` query of one reused snapshot exactly as flipping the
        /// node and re-evaluating the whole rest of the order does: on
        /// networks past 64 positions (a multi-word event set) and over
        /// more than 64 patterns with a partial last block.
        #[test]
        fn event_driven_flips_match_full_resimulation(
            n_inputs in 1usize..9,
            picks in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 40..120),
            outs in proptest::collection::vec(0u8..40, 1..4),
            seeds in proptest::collection::vec(any::<u64>(), 65..200),
            lane_seeds in proptest::collection::vec(any::<u64>(), 1..5),
        ) {
            let (net, nodes) = random_net(n_inputs, &picks, &outs);
            let mut patterns: Vec<Pattern> = seeds
                .iter()
                .map(|s| (0..n_inputs).map(|i| s >> i & 1 != 0).collect())
                .collect();
            if patterns.len().is_multiple_of(64) {
                patterns.pop();
            }
            let blocks = pack_patterns(n_inputs, &patterns);
            let mut fsim = FaultSim::new(&net, &blocks);
            let order = net.topo_order();
            let sim = Simulator::new(&net);
            let good: Vec<Vec<u64>> = blocks.iter().map(|b| sim.simulate_block(&b.words)).collect();
            for &id in &nodes {
                for (k, &seed) in lane_seeds.iter().enumerate() {
                    // lanes picked from the node's own value and a
                    // neighbour's, thinned or filled by a fixed seed
                    let other = nodes[(id.index() + k) % nodes.len()];
                    let lanes = |val: &[u64]| {
                        let x = val[id.index()] ^ val[other.index()];
                        if k % 2 == 0 { x & seed } else { x | seed }
                    };
                    let oracle = blocks.iter().zip(&good).any(|(b, g)| {
                        flip_reaches_output(&net, &order, g, id, lanes(g) & b.lane_mask(), b.lane_mask())
                    });
                    prop_assert_eq!(fsim.flip_detected(&net, id, lanes), oracle, "flip n{}", id.index());
                }
                for stuck_at in [false, true] {
                    let mut faults = vec![Fault { site: FaultSite::Output(id), stuck_at }];
                    for k in 0..net.fanins(id).len() {
                        faults.push(Fault { site: FaultSite::Fanin(id, k), stuck_at });
                    }
                    for f in faults {
                        let oracle = blocks.iter().zip(&good).any(|(b, g)| {
                            differs_under_fault(&net, &order, &b.words, g, f, b.lane_mask())
                        });
                        prop_assert_eq!(fsim.detects(&net, f), oracle, "{}", f);
                    }
                }
            }
        }
    }

    /// The flip oracle: XORs `flip` into `node`'s fault-free value, then
    /// re-evaluates every node after it in `order` and compares the
    /// primary outputs on the `mask`ed lanes.
    fn flip_reaches_output(
        net: &Network,
        order: &[SignalId],
        good: &[u64],
        node: SignalId,
        flip: u64,
        mask: u64,
    ) -> bool {
        let Some(at) = order.iter().position(|&id| id == node) else {
            return false;
        };
        if flip == 0 {
            return false;
        }
        let mut val = good.to_vec();
        val[node.index()] ^= flip;
        for &id in &order[at + 1..] {
            if let NodeKind::Gate(k) = net.kind(id) {
                val[id.index()] = k.eval_words(net.fanins(id).iter().map(|f| val[f.index()]));
            }
        }
        net.outputs()
            .iter()
            .any(|&(_, s)| (val[s.index()] ^ good[s.index()]) & mask != 0)
    }
}
