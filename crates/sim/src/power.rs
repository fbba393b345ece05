//! Switching-activity power estimation.
//!
//! Reimplements the model behind SIS `power_estimate` with default options
//! as used in the paper's Table 2 power column: zero-delay, spatially and
//! temporally independent primary inputs with signal probability 0.5, and
//! per-node switching activity `E = 2·p·(1−p)` weighted by the node's
//! capacitive load (its fanout count, plus one if it drives a primary
//! output). The absolute scale is arbitrary; only ratios between circuits
//! are meaningful, which is all the paper's `improve%power` column uses.

use crate::{exhaustive_blocks, BlockSim, PatternBlock, RandomDraw, Simulator};
use std::fmt;
use xsynth_net::{GateKind, Network, NodeKind};

/// The result of a power estimation run.
#[derive(Debug, Clone)]
pub struct PowerReport {
    /// Total weighted switching activity (arbitrary units).
    pub total: f64,
    /// Per-node activity (indexed by `SignalId::index`).
    pub per_node: Vec<f64>,
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "power ≈ {:.3} (normalized switching)", self.total)
    }
}

/// Per-node switching activity `2·p·(1−p)` measured over a stream of
/// packed pattern blocks.
pub fn signal_activity<I>(net: &Network, blocks: I) -> Vec<f64>
where
    I: IntoIterator<Item = PatternBlock>,
{
    let (counts, total) = Simulator::new(net).node_one_counts(blocks);
    activity(&counts, total)
}

/// `2·p·(1−p)` per node, with `p` the node's share of ones.
fn activity(counts: &[u64], total: u64) -> Vec<f64> {
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total as f64;
            2.0 * p * (1.0 - p)
        })
        .collect()
}

/// Estimates power with the SIS `power_estimate` default model.
///
/// Signal probabilities are exact (exhaustive simulation) for up to 16
/// inputs and Monte-Carlo (4096 fixed-seed random patterns, the stream of
/// [`random_blocks`](crate::random_blocks)) beyond that. The network is
/// compiled once, from one topological order, into gate kinds over a flat
/// fanin array; each block's input words (exhaustive or drawn) are written
/// into one reused buffer and simulated in place, and a node's load is its
/// fanin-slot count in that order plus the outputs it drives.
pub fn power_estimate(net: &Network) -> PowerReport {
    let n = net.inputs().len();
    let order = net.topo_order();
    let sim = BlockSim::new(net, &order);
    let (counts, patterns) = if n <= 16 {
        let mut blocks = exhaustive_blocks(n);
        sim.one_counts(|words| blocks.fill(words))
    } else {
        let mut draw = RandomDraw::new(4096, 0x5eed);
        sim.one_counts(|words| draw.fill(words))
    };
    let activity = activity(&counts, patterns);
    // a node's load: one per fanin slot that reads it, one per output
    let mut load = vec![0usize; net.num_nodes()];
    for &id in &order {
        for f in net.fanins(id) {
            load[f.index()] += 1;
        }
    }
    for (_, s) in net.outputs() {
        load[s.index()] += 1;
    }
    let mut per_node = vec![0.0; net.num_nodes()];
    let mut total = 0.0;
    for id in order {
        // primary inputs also switch and drive load
        let load = load[id.index()];
        if load == 0 {
            continue;
        }
        let is_free = matches!(
            net.kind(id),
            NodeKind::Gate(GateKind::Const0 | GateKind::Const1)
        );
        if is_free {
            continue;
        }
        let p = activity[id.index()] * load as f64;
        per_node[id.index()] = p;
        total += p;
    }
    PowerReport { total, per_node }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_blocks;
    use crate::tests::{random_net, reference_one_counts};
    use proptest::prelude::*;

    /// The estimate before the compiled simulator, kept as the oracle: the
    /// per-block loop's counts, [`Network::fanouts`] lists for the load, and
    /// a second topological order for the sum.
    fn reference_power(net: &Network) -> PowerReport {
        let n = net.inputs().len();
        let sim = Simulator::new(net);
        let (counts, patterns) = if n <= 16 {
            reference_one_counts(&sim, exhaustive_blocks(n))
        } else {
            reference_one_counts(&sim, random_blocks(n, 4096, 0x5eed))
        };
        let activity = activity(&counts, patterns);
        let fanouts = net.fanouts();
        let mut per_node = vec![0.0; net.num_nodes()];
        let mut total = 0.0;
        let mut drives_po = vec![0usize; net.num_nodes()];
        for (_, s) in net.outputs() {
            drives_po[s.index()] += 1;
        }
        for id in net.topo_order() {
            let load = fanouts[id.index()].len() + drives_po[id.index()];
            if load == 0 || matches!(net.gate_kind(id), Some(GateKind::Const0 | GateKind::Const1)) {
                continue;
            }
            let p = activity[id.index()] * load as f64;
            per_node[id.index()] = p;
            total += p;
        }
        PowerReport { total, per_node }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Power is bit-identical to the reference, on the exhaustive path
        /// and on the random one (17 or more inputs).
        #[test]
        fn power_matches_the_reference_estimate(
            wide in any::<bool>(),
            n_inputs in 1usize..8,
            picks in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>(), any::<u8>()), 0..40),
            outs in proptest::collection::vec(any::<u8>(), 1..4),
        ) {
            let n = if wide { n_inputs + 16 } else { n_inputs };
            let net = random_net(n, &picks, &outs);
            let (got, want) = (power_estimate(&net), reference_power(&net));
            prop_assert_eq!(got.total.to_bits(), want.total.to_bits());
            prop_assert_eq!(got.per_node, want.per_node);
        }
    }

    #[test]
    fn inverter_chain_power_scales_with_length() {
        let build = |k: usize| {
            let mut n = Network::new("chain");
            let mut s = n.add_input("a");
            for _ in 0..k {
                s = n.add_gate(GateKind::Not, vec![s]);
            }
            n.add_output("y", s);
            n
        };
        let p2 = power_estimate(&build(2)).total;
        let p8 = power_estimate(&build(8)).total;
        assert!(p8 > p2, "longer chain must burn more power");
        // every node in a NOT chain has p = 0.5, activity 0.5, load 1
        assert!((p2 - 1.5).abs() < 1e-9, "got {p2}");
    }

    #[test]
    fn and_gate_activity_is_biased() {
        let mut n = Network::new("and");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, vec![a, b]);
        n.add_output("y", g);
        let act = signal_activity(&n, exhaustive_blocks(2));
        // p(and)=0.25, activity = 2·0.25·0.75 = 0.375
        assert!((act[g.index()] - 0.375).abs() < 1e-9);
        assert!((act[a.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn constant_nodes_are_free() {
        let mut n = Network::new("c");
        let a = n.add_input("a");
        let one = n.add_gate(GateKind::Const1, vec![]);
        let g = n.add_gate(GateKind::And, vec![a, one]);
        n.add_output("y", g);
        let rep = power_estimate(&n);
        assert_eq!(rep.per_node[one.index()], 0.0);
    }

    #[test]
    fn monte_carlo_close_to_exact() {
        // 18-input parity triggers the Monte-Carlo path; its activity per
        // node is exactly 0.5, so the estimate should land close.
        let mut n = Network::new("p18");
        let ins: Vec<_> = (0..18).map(|i| n.add_input(format!("x{i}"))).collect();
        let mut s = ins[0];
        for &i in &ins[1..] {
            s = n.add_gate(GateKind::Xor, vec![s, i]);
        }
        n.add_output("y", s);
        let rep = power_estimate(&n);
        // 18 inputs (load 1 each) + 17 xors (16 with load 1, root load 1)
        // all with activity 0.5 → exact total 17.5
        assert!((rep.total - 17.5).abs() < 0.8, "got {}", rep.total);
    }
}
