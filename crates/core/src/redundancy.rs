//! XOR redundancy analysis and removal (Section 4 of the paper).
//!
//! A network freshly factored from an FPRM form is XOR-rich, and XOR gates
//! are expensive in AND/OR cell libraries. The paper's observation (after
//! Hayes) is that the internal single-stuck-at faults of a two-input XOR
//! gate partition into four classes, one per input pattern; when the whole
//! class of some pattern is untestable — uncontrollable or unobservable —
//! the XOR gate collapses:
//!
//! * `(1,1)` untestable → `f = g + h` (Property 3),
//! * `(0,1)` untestable → `f = g·¬h`, `(1,0)` untestable → `f = ¬g·h`
//!   (Property 4),
//!
//! and each reduction propagates observability redundancies toward the
//! primary inputs (Properties 5–7, the "domino effect"), finally exposing
//! stuck-at-redundant fanins on the first-level AND gates (tested by the
//! OC and SA1 pattern sets).
//!
//! This implementation drives all of those decisions with one uniform
//! criterion, exactly the fault-class framing the paper uses: an input
//! class of a gate is *testable under the pattern set* if some pattern
//! produces the class at the gate **and** flipping the gate output on that
//! pattern reaches a primary output. Classes the paper's pattern family
//! leaves untestable trigger the reduction. Because the decidable pattern
//! family is enumerated with caps (see [`crate::patterns`]), every accepted
//! rewrite is additionally verified against the reference function and
//! reverted if the truncated family was too optimistic — the
//! [`RedundancyStats`] report how often that safety net fired (on the
//! paper's benchmark family: essentially never).

use crate::error::Error;
use crate::verify::EquivChecker;
use std::time::Instant;
use xsynth_net::{GateKind, Network, NodeKind, SignalId};
use xsynth_sim::PatternBlock;
use xsynth_trace::TraceBuffer;

/// Counters describing what the redundancy pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RedundancyStats {
    /// XOR gates rewritten to OR (Property 3).
    pub xor_to_or: usize,
    /// XOR gates rewritten to AND-with-complement (Property 4).
    pub xor_to_and: usize,
    /// AND/OR fanin wires removed as stuck-at redundant.
    pub fanin_removed: usize,
    /// Gates replaced by constants.
    pub const_replaced: usize,
    /// Total rewrites attempted.
    pub attempted: usize,
    /// Rewrites the equivalence check rejected (pattern family was too
    /// small to witness testability).
    pub reverted: usize,
    /// Whether a phase deadline stopped the sweeps early (the network
    /// returned is still verified — only further reductions were skipped).
    pub curtailed: bool,
}

/// One 64-lane simulation block.
struct Block {
    lane_mask: u64,
    values: Vec<u64>,
}

struct SimState {
    order: Vec<SignalId>,
    /// position of each node in `order` (usize::MAX if unreachable)
    pos: Vec<usize>,
    blocks: Vec<Block>,
}

fn build_sim(net: &Network, pattern_blocks: &[PatternBlock]) -> SimState {
    let order = net.topo_order();
    let mut pos = vec![usize::MAX; net.num_nodes()];
    for (i, &id) in order.iter().enumerate() {
        pos[id.index()] = i;
    }
    let n_in = net.inputs().len();
    let mut blocks = Vec::new();
    for pb in pattern_blocks {
        assert_eq!(pb.words.len(), n_in, "pattern block arity mismatch");
        let values = simulate(net, &order, &pb.words);
        blocks.push(Block {
            lane_mask: pb.lane_mask(),
            values,
        });
    }
    SimState { order, pos, blocks }
}

fn simulate(net: &Network, order: &[SignalId], input_words: &[u64]) -> Vec<u64> {
    let mut val = vec![0u64; net.num_nodes()];
    for (i, &id) in net.inputs().iter().enumerate() {
        val[id.index()] = input_words[i];
    }
    for &id in order {
        if let NodeKind::Gate(k) = net.kind(id) {
            val[id.index()] = k.eval_words(net.fanins(id).iter().map(|f| val[f.index()]));
        }
    }
    val
}

/// Whether flipping `node`'s value on `flip_mask` lanes of `block` changes
/// any primary output.
fn flip_propagates(
    net: &Network,
    state: &SimState,
    block: &Block,
    node: SignalId,
    flip_mask: u64,
) -> bool {
    if flip_mask == 0 {
        return false;
    }
    let start = state.pos[node.index()];
    if start == usize::MAX {
        // the node became unreachable after an earlier rewrite this pass
        return false;
    }
    let mut val = block.values.clone();
    val[node.index()] ^= flip_mask;
    for &id in &state.order[start + 1..] {
        if let NodeKind::Gate(k) = net.kind(id) {
            val[id.index()] = k.eval_words(net.fanins(id).iter().map(|f| val[f.index()]));
        }
    }
    net.outputs()
        .iter()
        .any(|&(_, s)| (val[s.index()] ^ block.values[s.index()]) & block.lane_mask != 0)
}

/// Whether flipping the `idx`-th *fanin wire* of `gate` (a branch fault —
/// the driver keeps its value elsewhere) on `flip_mask` lanes changes any
/// primary output.
fn wire_flip_propagates(
    net: &Network,
    state: &SimState,
    block: &Block,
    gate: SignalId,
    idx: usize,
    flip_mask: u64,
) -> bool {
    if flip_mask == 0 {
        return false;
    }
    let NodeKind::Gate(kind) = net.kind(gate) else {
        return false;
    };
    let new_gate_val = kind.eval_words(net.fanins(gate).iter().enumerate().map(|(k, f)| {
        let v = block.values[f.index()];
        if k == idx {
            v ^ flip_mask
        } else {
            v
        }
    }));
    let diff = new_gate_val ^ block.values[gate.index()];
    flip_propagates(net, state, block, gate, diff)
}

/// Whether the `(a, b)` input class of two-input gate `gate` is testable
/// under the simulated pattern set: some pattern exhibits the class and
/// the gate's output fault effect reaches a primary output there.
fn class_testable(net: &Network, state: &SimState, gate: SignalId, a: bool, b: bool) -> bool {
    let f = net.fanins(gate);
    let (g, h) = (f[0], f[1]);
    for block in &state.blocks {
        let wg = block.values[g.index()];
        let wh = block.values[h.index()];
        let class = (if a { wg } else { !wg }) & (if b { wh } else { !wh }) & block.lane_mask;
        if class != 0 && flip_propagates(net, state, block, gate, class) {
            return true;
        }
    }
    false
}

/// Whether the stuck-at-`stuck` fault on the `idx`-th fanin wire of `gate`
/// is testable under the pattern set.
fn wire_fault_testable(
    net: &Network,
    state: &SimState,
    gate: SignalId,
    idx: usize,
    stuck: bool,
) -> bool {
    let wire = net.fanins(gate)[idx];
    for block in &state.blocks {
        let w = block.values[wire.index()];
        // the fault is excited on lanes where the wire differs from `stuck`
        let excited = (if stuck { !w } else { w }) & block.lane_mask;
        if wire_flip_propagates(net, state, block, gate, idx, excited) {
            return true;
        }
    }
    false
}

/// Runs the full redundancy-removal pass over `net`, driving decisions
/// with the word-packed pattern set `blocks` (one simulation word per 64
/// patterns) and guarding every rewrite with `checker`. Each sweep runs in
/// a `pass` span of `buf` carrying the rewrite counters it contributed
/// (`redundancy.xor_to_or`, `redundancy.xor_to_and`,
/// `redundancy.fanin_removed`, `redundancy.const_replaced`,
/// `redundancy.reverted`). Sweeping stops when `deadline` passes: the
/// network already rewritten and verified is kept, and
/// [`RedundancyStats::curtailed`] plus a `redundancy.curtailed` trace
/// counter record the early stop. Returns the cleaned network and the pass
/// statistics.
///
/// # Errors
///
/// A checker error while guarding a rewrite (an input mismatch, or an
/// injected verification fault) aborts the pass with that error.
///
/// # Panics
///
/// Panics if `blocks` is empty (at least the AZ/AO pair is required).
pub fn remove_redundancy(
    net: &Network,
    blocks: &[PatternBlock],
    checker: &mut EquivChecker,
    max_passes: usize,
    deadline: Option<Instant>,
    buf: &mut TraceBuffer,
) -> Result<(Network, RedundancyStats), Error> {
    assert!(!blocks.is_empty(), "need at least one pattern (AZ/AO)");
    xsynth_trace::fail_point!("core.redundancy");
    let past_deadline = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut cur = net.clone();
    let mut stats = RedundancyStats::default();

    for _pass in 0..max_passes {
        if past_deadline() {
            stats.curtailed = true;
            break;
        }
        buf.begin("pass");
        let before = stats.clone();
        let swept = sweep(&mut cur, blocks, checker, &mut stats, &past_deadline);
        buf.count(
            "redundancy.xor_to_or",
            (stats.xor_to_or - before.xor_to_or) as u64,
        );
        buf.count(
            "redundancy.xor_to_and",
            (stats.xor_to_and - before.xor_to_and) as u64,
        );
        buf.count(
            "redundancy.fanin_removed",
            (stats.fanin_removed - before.fanin_removed) as u64,
        );
        buf.count(
            "redundancy.const_replaced",
            (stats.const_replaced - before.const_replaced) as u64,
        );
        buf.count(
            "redundancy.reverted",
            (stats.reverted - before.reverted) as u64,
        );
        // the cross-phase self-checking-rewrite counter (shared with the
        // emission self-check in synth.rs): every reverted rewrite is a
        // rollback
        buf.count(
            "rewrite.rolled_back",
            (stats.reverted - before.reverted) as u64,
        );
        buf.end();
        if !swept? || stats.curtailed {
            break;
        }
    }
    if stats.curtailed {
        buf.count("redundancy.curtailed", 1);
    }
    Ok((cur.sweep(), stats))
}

/// Every rewrite is accepted only if the equivalence checker still passes;
/// the `core.redundancy.accept` failpoint forces a rejection to exercise
/// the rollback path deterministically.
fn accept(checker: &mut EquivChecker, cur: &Network) -> Result<bool, Error> {
    xsynth_trace::fail_point!("core.redundancy.accept", Ok(false));
    checker.try_check(cur)
}

/// One sweep of the pass over `cur`, rewriting it in place. Returns
/// whether any rewrite was accepted.
fn sweep(
    cur: &mut Network,
    blocks: &[PatternBlock],
    checker: &mut EquivChecker,
    stats: &mut RedundancyStats,
    past_deadline: &impl Fn() -> bool,
) -> Result<bool, Error> {
    let mut changed = false;
    let mut state = build_sim(cur, blocks);
    // POs first (reverse topological), per the paper's step 1; the
    // backward domino of Properties 6–7 emerges from re-simulating
    // after each accepted rewrite.
    let mut order_rev = state.order.clone();
    order_rev.reverse();
    for id in order_rev {
        if past_deadline() {
            stats.curtailed = true;
            break;
        }
        let Some(kind) = cur.gate_kind(id) else {
            continue;
        };
        if state.pos[id.index()] == usize::MAX {
            continue; // unreachable after an earlier rewrite this pass
        }
        match kind {
            GateKind::Xor if cur.fanins(id).len() == 2 => {
                let f = cur.fanins(id).to_vec();
                let (g, h) = (f[0], f[1]);
                let t11 = class_testable(cur, &state, id, true, true);
                let proposal: Option<(GateKind, Vec<SignalId>, bool)> = if !t11 {
                    Some((GateKind::Or, vec![g, h], true))
                } else if !class_testable(cur, &state, id, false, true) {
                    // f = g·¬h ... class (0,1) missing means the XOR
                    // only ever sees (0,0),(1,0),(1,1) → f = g·¬h
                    Some((GateKind::And, vec![g, h], false))
                } else if !class_testable(cur, &state, id, true, false) {
                    Some((GateKind::And, vec![h, g], false))
                } else {
                    None
                };
                if let Some((nk, fanins, is_or)) = proposal {
                    stats.attempted += 1;
                    let snapshot = cur.clone();
                    if is_or {
                        cur.replace_gate(id, nk, fanins);
                    } else {
                        // And(keep, ¬drop)
                        let keep = fanins[0];
                        let drop = fanins[1];
                        let nd = cur.add_gate(GateKind::Not, vec![drop]);
                        cur.replace_gate(id, GateKind::And, vec![keep, nd]);
                    }
                    if accept(checker, cur)? {
                        if is_or {
                            stats.xor_to_or += 1;
                        } else {
                            stats.xor_to_and += 1;
                        }
                        changed = true;
                        state = build_sim(cur, blocks);
                    } else {
                        stats.reverted += 1;
                        *cur = snapshot;
                        state = build_sim(cur, blocks);
                    }
                }
            }
            GateKind::And | GateKind::Or => {
                let mut idx = 0;
                while idx < cur.fanins(id).len() && cur.fanins(id).len() > 1 {
                    // For AND: s-a-1 redundant fanin → drop the wire;
                    // s-a-0 redundant → the whole gate is constant 0.
                    // For OR the dual.
                    let (drop_stuck, const_stuck) = match kind {
                        GateKind::And => (true, false),
                        _ => (false, true),
                    };
                    if !wire_fault_testable(cur, &state, id, idx, drop_stuck) {
                        stats.attempted += 1;
                        let snapshot = cur.clone();
                        let mut fanins = cur.fanins(id).to_vec();
                        fanins.remove(idx);
                        if fanins.len() == 1 {
                            cur.replace_gate(id, GateKind::Buf, fanins);
                        } else {
                            cur.replace_gate(id, kind, fanins);
                        }
                        if accept(checker, cur)? {
                            stats.fanin_removed += 1;
                            changed = true;
                            state = build_sim(cur, blocks);
                            if cur.gate_kind(id) == Some(GateKind::Buf) {
                                break;
                            }
                            continue; // same idx now holds next fanin
                        } else {
                            stats.reverted += 1;
                            *cur = snapshot;
                            state = build_sim(cur, blocks);
                        }
                    } else if !wire_fault_testable(cur, &state, id, idx, const_stuck) {
                        stats.attempted += 1;
                        let snapshot = cur.clone();
                        let ck = if kind == GateKind::And {
                            GateKind::Const0
                        } else {
                            GateKind::Const1
                        };
                        cur.replace_gate(id, ck, vec![]);
                        if accept(checker, cur)? {
                            stats.const_replaced += 1;
                            changed = true;
                            state = build_sim(cur, blocks);
                            break;
                        } else {
                            stats.reverted += 1;
                            *cur = snapshot;
                            state = build_sim(cur, blocks);
                        }
                    }
                    idx += 1;
                }
            }
            _ => {}
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::{paper_patterns, Pattern, PatternOptions};
    use xsynth_boolean::{Polarity, VarSet};
    use xsynth_sim::{exhaustive_patterns, pack_patterns};
    use xsynth_trace::TraceSink;

    /// The pass over an explicit pattern list, untraced and with no
    /// deadline.
    fn run(
        net: &Network,
        pats: &[Pattern],
        checker: &mut EquivChecker,
        max_passes: usize,
    ) -> (Network, RedundancyStats) {
        let blocks = pack_patterns(net.inputs().len(), pats);
        let sink = TraceSink::new();
        let mut buf = sink.buffer(0, "redundancy");
        remove_redundancy(net, &blocks, checker, max_passes, None, &mut buf).unwrap()
    }

    /// Builds the network for cube list in positive polarity via the cube
    /// method without rules, plus its paper pattern family.
    fn setup(n: usize, cubes: &[VarSet]) -> (Network, Vec<Pattern>) {
        let e = crate::factor::factor_cubes(cubes, false);
        let mut net = Network::new("t");
        let inputs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
        let pol = Polarity::all_positive(n);
        let mut lits = crate::factor::literal_supplier(&pol, &inputs);
        let s = e.emit(&mut net, &mut lits);
        net.add_output("f", s);
        let pats = paper_patterns(n, &pol, cubes, &PatternOptions::default());
        (net, pats)
    }

    fn xor_count(net: &Network) -> usize {
        net.topo_order()
            .iter()
            .filter(|&&id| net.gate_kind(id) == Some(GateKind::Xor))
            .count()
    }

    #[test]
    fn or_reduction_on_disjoint_products() {
        // f = x0x1 ⊕ x2x3 ... (1,1) IS controllable (set all four), so no
        // reduction; but f = x0x1 ⊕ x0x1x2 reduces by rule (a) → here the
        // XOR sees (1,1) only when... x0x1=1, x0x1x2=1 possible → (1,1)
        // controllable; f = ab ⊕ (a⊕b)c carry: ab=1 forces a⊕b=0.
        let mut net = Network::new("carry");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let axb = net.add_gate(GateKind::Xor, vec![a, b]);
        let t = net.add_gate(GateKind::And, vec![axb, c]);
        let carry = net.add_gate(GateKind::Xor, vec![ab, t]);
        net.add_output("cout", carry);
        let pats = exhaustive_patterns(3);
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        // The outer carry XOR reduces by controllability (ab = 1 forces
        // (a⊕b)·c = 0), and Property 6's domino then makes the a⊕b gate's
        // (1,1) class unobservable (ab = 1 dominates the OR), so BOTH
        // gates become OR: cout = ab + (a+b)·c — the classic carry form.
        assert_eq!(stats.xor_to_or, 2, "{stats:?}");
        assert_eq!(stats.reverted, 0);
        assert_eq!(xor_count(&out), 0);
        for m in 0..8u64 {
            assert_eq!(out.eval_u64(m), net.eval_u64(m));
        }
    }

    #[test]
    fn parity_is_never_reduced() {
        let cubes: Vec<VarSet> = (0..4).map(VarSet::singleton).collect();
        let (net, pats) = setup(4, &cubes);
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        assert_eq!(stats.xor_to_or + stats.xor_to_and, 0, "{stats:?}");
        assert_eq!(xor_count(&out), 3);
    }

    #[test]
    fn rule_a_pattern_via_simulation() {
        // f = x0 ⊕ x0·x1 = x0·¬x1: the (0,1) class of the XOR is
        // uncontrollable (x0 = 0 forces x0·x1 = 0). Built by hand because
        // the cube-method factoring already absorbs this into ¬x1.
        let mut net = Network::new("rule_a");
        let x0 = net.add_input("x0");
        let x1 = net.add_input("x1");
        let and = net.add_gate(GateKind::And, vec![x0, x1]);
        let f = net.add_gate(GateKind::Xor, vec![x0, and]);
        net.add_output("f", f);
        let pol = Polarity::all_positive(2);
        let cubes = vec![VarSet::from_vars([0]), VarSet::from_vars([0, 1])];
        let pats = paper_patterns(2, &pol, &cubes, &PatternOptions::default());
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        assert_eq!(stats.xor_to_and, 1, "{stats:?}");
        assert_eq!(xor_count(&out), 0);
        for m in 0..4u64 {
            assert_eq!(out.eval_u64(m)[0], (m & 1 != 0) && (m & 2 == 0));
        }
    }

    #[test]
    fn rule_b_pattern_via_simulation() {
        // f = x0 ⊕ x1 ⊕ x0x1 = x0 + x1: needs two reductions (domino)
        let cubes = vec![
            VarSet::singleton(0),
            VarSet::singleton(1),
            VarSet::from_vars([0, 1]),
        ];
        let (net, pats) = setup(2, &cubes);
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        assert_eq!(xor_count(&out), 0, "{stats:?}");
        for m in 0..4u64 {
            assert_eq!(out.eval_u64(m)[0], m != 0);
        }
    }

    #[test]
    fn redundant_and_fanin_removed() {
        // g = a·b, f = g ⊕ a·b·c ... simpler: direct AND with duplicated
        // logic: f = (a·a)·b — sweep alone fixes that; instead craft
        // or-gate with covered fanin: f = a + a·b: the a·b fanin wire
        // s-a-0 is untestable → removed.
        let mut net = Network::new("cov");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let o = net.add_gate(GateKind::Or, vec![a, ab]);
        net.add_output("f", o);
        let pats = exhaustive_patterns(2);
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        assert!(stats.fanin_removed >= 1, "{stats:?}");
        assert_eq!(out.num_gates(), 0, "f collapses to the wire a");
        for m in 0..4u64 {
            assert_eq!(out.eval_u64(m)[0], m & 1 != 0);
        }
    }

    #[test]
    fn paper_example_chain() {
        // Section 4's closing identity: (B ⊕ C) ⊕ BC = B + C
        let mut net = Network::new("chain");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let bxc = net.add_gate(GateKind::Xor, vec![b, c]);
        let bc = net.add_gate(GateKind::And, vec![b, c]);
        let f = net.add_gate(GateKind::Xor, vec![bxc, bc]);
        net.add_output("f", f);
        let pats = exhaustive_patterns(2);
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &pats, &mut checker, 8);
        assert_eq!(xor_count(&out), 0, "{stats:?}");
        // final: single OR gate
        assert_eq!(out.num_gates(), 1);
        for m in 0..4u64 {
            assert_eq!(out.eval_u64(m)[0], m != 0);
        }
    }

    #[test]
    fn insufficient_patterns_trigger_revert_not_corruption() {
        // With only the AZ pattern, everything looks untestable; the
        // checker must veto wrong rewrites and keep the function intact.
        let cubes = vec![VarSet::singleton(0), VarSet::singleton(1)];
        let (net, _) = setup(2, &cubes);
        let az = vec![vec![false, false]];
        let mut checker = EquivChecker::new(&net);
        let (out, stats) = run(&net, &az, &mut checker, 4);
        assert!(stats.reverted > 0, "{stats:?}");
        for m in 0..4u64 {
            assert_eq!(out.eval_u64(m), net.eval_u64(m));
        }
    }

    #[test]
    fn expired_deadline_curtails_but_preserves_function() {
        // the classic carry (normally reduced to 2 ORs) under an
        // already-expired deadline: nothing rewritten, function intact
        let mut net = Network::new("carry");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let axb = net.add_gate(GateKind::Xor, vec![a, b]);
        let t = net.add_gate(GateKind::And, vec![axb, c]);
        let carry = net.add_gate(GateKind::Xor, vec![ab, t]);
        net.add_output("cout", carry);
        let pats = exhaustive_patterns(3);
        let blocks = pack_patterns(3, &pats);
        let mut checker = EquivChecker::new(&net);
        let sink = TraceSink::new();
        let (out, stats) = {
            let mut buf = sink.buffer(0, "redundancy");
            remove_redundancy(
                &net,
                &blocks,
                &mut checker,
                8,
                Some(std::time::Instant::now()),
                &mut buf,
            )
            .unwrap()
        };
        assert!(stats.curtailed, "{stats:?}");
        assert_eq!(stats.xor_to_or + stats.xor_to_and, 0);
        for m in 0..8u64 {
            assert_eq!(out.eval_u64(m), net.eval_u64(m));
        }
        assert_eq!(sink.take().counter_totals()["redundancy.curtailed"], 1);
    }

    #[test]
    fn t481_style_reduction() {
        // f = x0 ⊕ x1 ⊕ x0x1 ⊕ x2. Whether the OR reduction fires depends
        // on how the balanced XOR tree pairs the operands: the cube-method
        // emit pairs (x1 ⊕ x2) first (sorted order), which is irreducible,
        // so the automatic flow keeps 2 XOR gates here...
        let cubes = vec![
            VarSet::singleton(0),
            VarSet::singleton(1),
            VarSet::from_vars([0, 1]),
            VarSet::singleton(2),
        ];
        let (net, pats) = setup(3, &cubes);
        let mut checker = EquivChecker::new(&net);
        let (out, _stats) = run(&net, &pats, &mut checker, 8);
        assert_eq!(xor_count(&out), 2);
        for m in 0..8u64 {
            assert_eq!(out.eval_u64(m), net.eval_u64(m));
        }

        // ...while the pairing ((x0·¬x1) ⊕ x1) ⊕ x2 exposes the Property 3
        // reduction: x0·¬x1 = 1 forces x1 = 0, so the inner (1,1) class is
        // uncontrollable and the inner XOR becomes OR.
        let mut net2 = Network::new("paired");
        let x0 = net2.add_input("x0");
        let x1 = net2.add_input("x1");
        let x2 = net2.add_input("x2");
        let n1 = net2.add_gate(GateKind::Not, vec![x1]);
        let t0 = net2.add_gate(GateKind::And, vec![x0, n1]);
        let inner = net2.add_gate(GateKind::Xor, vec![t0, x1]);
        let outer = net2.add_gate(GateKind::Xor, vec![inner, x2]);
        net2.add_output("f", outer);
        let mut checker2 = EquivChecker::new(&net2);
        let pol = Polarity::all_positive(3);
        let pats2 = paper_patterns(3, &pol, &cubes, &PatternOptions::default());
        let (out2, stats2) = run(&net2, &pats2, &mut checker2, 8);
        assert_eq!(stats2.xor_to_or, 1, "{stats2:?}");
        assert_eq!(xor_count(&out2), 1);
        for m in 0..8u64 {
            assert_eq!(out2.eval_u64(m), net2.eval_u64(m));
        }
    }
}
