//! The packaged SOP synthesis flow — the workspace's stand-in for the SIS
//! scripts (`algebraic`/`rugged`) the paper compares against.

use crate::sopnet::SopNet;
use xsynth_net::Network;
use xsynth_trace::{TraceBuffer, TraceSink};

/// `eliminate` threshold for the initial macro-block reconstruction.
const ELIMINATE_THRESHOLD: i64 = 4;
/// Cube-count guard when collapsing nodes.
const MAX_COVER_CUBES: usize = 256;
/// Cap on extracted divisor nodes per round.
const MAX_EXTRACTED: usize = 400;
/// Number of extract/simplify/eliminate rounds.
const ROUNDS: usize = 2;

/// The options of [`script_algebraic`]: none. The script's settings are
/// fixed; the type is kept so existing `script_algebraic(net,
/// &ScriptOptions::default())` calls still compile.
#[derive(Debug, Clone, Default)]
pub struct ScriptOptions {}

/// Runs the SIS-style algebraic script on a gate network and returns the
/// optimized network:
///
/// 1. convert to SOP nodes and `eliminate` small nodes (rebuild macro
///    blocks, like `eliminate`/`collapse` at the head of the SIS scripts),
/// 2. `simplify` every node,
/// 3. repeated rounds of `gkx`/`gcx`-style greedy kernel-and-cube
///    extraction, `simplify` and an `eliminate 0` cleanup,
/// 4. good-factor lowering back to gates.
///
/// The SIS script's `resub` step is left out: on every Table 2 circuit it
/// finds nothing to rewrite after extraction. [`SopNet::resubstitute`]
/// stays for the FPRM flow's sharing pass, where it does act.
///
/// [`script_algebraic_traced`] is the same script recording its steps.
///
/// # Examples
///
/// ```
/// use xsynth_net::{GateKind, Network};
/// use xsynth_sop::script_algebraic;
///
/// let mut n = Network::new("f");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let ab = n.add_gate(GateKind::And, vec![a, b]);
/// let ac = n.add_gate(GateKind::And, vec![a, c]);
/// let o = n.add_gate(GateKind::Or, vec![ab, ac]);
/// n.add_output("o", o);
/// let opt = script_algebraic(&n, &Default::default());
/// for m in 0..8 {
///     assert_eq!(opt.eval_u64(m), n.eval_u64(m));
/// }
/// ```
pub fn script_algebraic(net: &Network, _opts: &ScriptOptions) -> Network {
    script_algebraic_traced(net, &mut TraceSink::new().buffer(0, "sop"))
}

/// [`script_algebraic`] recording into `buf`: one span per step, named
/// `eliminate` (the first one includes the conversion to SOP nodes),
/// `simplify`, `extract` and `lower`, with the divisors extracted counted
/// as `sop.extracted`.
///
/// # Examples
///
/// ```
/// use xsynth_net::{GateKind, Network};
/// use xsynth_sop::script_algebraic_traced;
/// use xsynth_trace::TraceSink;
///
/// let mut n = Network::new("f");
/// let (a, b, c) = (n.add_input("a"), n.add_input("b"), n.add_input("c"));
/// let ab = n.add_gate(GateKind::And, vec![a, b]);
/// let ac = n.add_gate(GateKind::And, vec![a, c]);
/// let o = n.add_gate(GateKind::Or, vec![ab, ac]);
/// n.add_output("o", o);
/// let sink = TraceSink::new();
/// script_algebraic_traced(&n, &mut sink.buffer(0, "sop"));
/// assert!(sink.take().span_names().contains("extract"));
/// ```
pub fn script_algebraic_traced(net: &Network, buf: &mut TraceBuffer) -> Network {
    let mut s = buf.span("eliminate", |_| {
        let mut s = SopNet::from_network(&net.sweep());
        s.eliminate(ELIMINATE_THRESHOLD, MAX_COVER_CUBES);
        s
    });
    buf.span("simplify", |_| s.simplify());
    for _ in 0..ROUNDS {
        buf.span("extract", |b| {
            let made = s.extract(MAX_EXTRACTED);
            b.count("sop.extracted", made as u64);
        });
        buf.span("simplify", |_| s.simplify());
        // drop single-use leftovers created by extraction
        buf.span("eliminate", |_| s.eliminate(0, MAX_COVER_CUBES));
    }
    buf.span("lower", |_| s.to_network().sweep())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;

    /// Builds a naive two-level network from minterms of a function.
    fn two_level(n: usize, f: impl Fn(u64) -> bool) -> Network {
        let mut net = Network::new("tl");
        let ins: Vec<_> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
        let mut cubes = Vec::new();
        for m in 0..(1u64 << n) {
            if f(m) {
                let lits: Vec<_> = (0..n)
                    .map(|i| {
                        if m & (1 << i) != 0 {
                            ins[i]
                        } else {
                            net.add_gate(GateKind::Not, vec![ins[i]])
                        }
                    })
                    .collect();
                cubes.push(net.add_gate(GateKind::And, lits));
            }
        }
        let o = match cubes.len() {
            0 => net.add_gate(GateKind::Const0, vec![]),
            1 => cubes[0],
            _ => net.add_gate(GateKind::Or, cubes),
        };
        net.add_output("f", o);
        net
    }

    #[test]
    fn script_preserves_function() {
        let net = two_level(5, |m| (m * 7 + 3) % 11 < 4);
        let opt = script_algebraic(&net, &Default::default());
        for m in 0..32u64 {
            assert_eq!(opt.eval_u64(m), net.eval_u64(m), "at {m}");
        }
    }

    #[test]
    fn script_reduces_cost_on_structured_function() {
        // f = majority(a,b,c) from minterms: factoring should beat the
        // flat two-level form
        let net = two_level(3, |m| m.count_ones() >= 2);
        let opt = script_algebraic(&net, &Default::default());
        let (g0, _) = net.two_input_cost();
        let (g1, _) = opt.two_input_cost();
        assert!(g1 <= g0, "optimization must not worsen cost: {g1} vs {g0}");
        for m in 0..8u64 {
            assert_eq!(opt.eval_u64(m), net.eval_u64(m));
        }
    }

    #[test]
    fn script_handles_multi_output_sharing() {
        // two outputs with a shared kernel
        let mut net = Network::new("mo");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let ac = net.add_gate(GateKind::And, vec![a, c]);
        let bc = net.add_gate(GateKind::And, vec![b, c]);
        let ad = net.add_gate(GateKind::And, vec![a, d]);
        let bd = net.add_gate(GateKind::And, vec![b, d]);
        let o1 = net.add_gate(GateKind::Or, vec![ac, bc]);
        let o2 = net.add_gate(GateKind::Or, vec![ad, bd]);
        net.add_output("o1", o1);
        net.add_output("o2", o2);
        let opt = script_algebraic(&net, &Default::default());
        for m in 0..16u64 {
            assert_eq!(opt.eval_u64(m), net.eval_u64(m));
        }
        let (g, _) = opt.two_input_cost();
        assert!(g <= 4, "shared (a+b) should leave ≤4 gates, got {g}");
    }

    #[test]
    fn traced_script_records_every_step() {
        let net = two_level(5, |m| (m * 7 + 3) % 11 < 4);
        let sink = TraceSink::new();
        let traced = script_algebraic_traced(&net, &mut sink.buffer(0, "t"));
        let untraced = script_algebraic(&net, &Default::default());
        assert_eq!(traced.to_string(), untraced.to_string());
        let trace = sink.take();
        let names = trace.span_names();
        let steps: Vec<&str> = names.iter().map(String::as_str).collect();
        assert_eq!(steps, ["eliminate", "extract", "lower", "simplify"]);
        // two rounds: each extract span is one step
        let forest = trace.forest();
        assert_eq!(forest.iter().filter(|n| n.name == "extract").count(), 2);
    }

    #[test]
    fn script_on_constant_output() {
        let net = two_level(3, |_| true);
        let opt = script_algebraic(&net, &Default::default());
        for m in 0..8u64 {
            assert_eq!(opt.eval_u64(m), vec![true]);
        }
        assert_eq!(opt.num_gates(), 0);
    }
}
