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
//! `redundancy.reverted` trace counter reports how often that safety net
//! fired (on the paper's benchmark family: essentially never). The check
//! is incremental ([`EquivChecker::check_rewrite`]): it re-evaluates only
//! the rewritten gate and its transitive fanout, as BDDs in the job's own
//! manager against the spec's output BDDs the job already built there.
//!
//! The pattern set arrives as word-packed 64-lane blocks. Each output's
//! family is built as word rows of literal masks: unions are word ORs,
//! deduplication is an integer sort and the polarity is one XOR per word.
//! The synthesis flow merges the per-output rows with the random booster
//! the same way, caps the merged list and transposes it into blocks once;
//! no pattern is ever a `Vec<bool>`. Every testability question is a
//! flip query on one [`FaultSim`] snapshot, propagated event by event
//! through the flipped node's fanout cone only. A kept rewrite
//! re-simulates the snapshot. A rejected one is undone in place: the
//! gate gets its old kind and fanins back, and the nodes the rewrite
//! appended are dropped. The network is never cloned per attempt.

use crate::error::Error;
use crate::verify::EquivChecker;
use std::time::Instant;
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_sim::{Fault, FaultSim, FaultSite, PatternBlock};
use xsynth_trace::TraceBuffer;

/// Runs the full redundancy-removal pass over `net`, driving decisions
/// with the word-packed pattern set `blocks` (one simulation word per 64
/// patterns) and guarding every rewrite with `checker`. Each sweep runs in
/// a `pass` span of `buf` carrying the rewrite counters it contributed
/// (`redundancy.xor_to_or`, `redundancy.xor_to_and`,
/// `redundancy.fanin_removed`, `redundancy.const_replaced`,
/// `redundancy.reverted`; their sum is the number of rewrites attempted).
/// Sweeping stops when `deadline` passes: the network already rewritten
/// and verified is kept, and the early stop is returned as `true` and
/// counted as `redundancy.curtailed`. Returns the cleaned network and that
/// flag. The pass ends by gauging the checker's BDD manager, the guard's
/// values included, as `bdd.*` in `buf` and counting its compactions as
/// `verify.compacted`.
///
/// # Errors
///
/// [`Error::Msg`] if `blocks` is empty (at least the AZ/AO pair is
/// required) or a block's word count differs from `net`'s input count. A
/// checker error while guarding a rewrite (an input mismatch, or an
/// injected verification fault) aborts the pass with that error.
pub fn remove_redundancy(
    net: &Network,
    blocks: &[PatternBlock],
    checker: &mut EquivChecker,
    max_passes: usize,
    deadline: Option<Instant>,
    buf: &mut TraceBuffer,
) -> Result<(Network, bool), Error> {
    if blocks.is_empty() {
        return Err(Error::Msg(
            "redundancy removal needs at least one pattern (AZ/AO)".into(),
        ));
    }
    let n_in = net.inputs().len();
    if let Some(pb) = blocks.iter().find(|pb| pb.words.len() != n_in) {
        return Err(Error::Msg(format!(
            "pattern block has {} input words, the network has {n_in} inputs",
            pb.words.len()
        )));
    }
    xsynth_trace::fail_point!("core.redundancy");
    let past_deadline = || deadline.is_some_and(|d| Instant::now() >= d);
    let mut cur = net.clone();
    let mut curtailed = false;
    checker.begin_rewrites(&cur);
    let mut guard = Guard {
        blocks,
        checker,
        buf,
    };

    for _pass in 0..max_passes {
        if past_deadline() {
            curtailed = true;
            break;
        }
        guard.buf.begin("pass");
        let swept = sweep(&mut cur, &mut guard, &mut curtailed, &past_deadline);
        guard.buf.end();
        if !swept? || curtailed {
            break;
        }
    }
    if curtailed {
        guard.buf.count("redundancy.curtailed", 1);
    }
    guard.checker.record(guard.buf);
    Ok((cur.sweep(), curtailed))
}

/// What a sweep needs to check, count and re-simulate each rewrite.
struct Guard<'a> {
    blocks: &'a [PatternBlock],
    checker: &'a mut EquivChecker,
    buf: &'a mut TraceBuffer,
}

impl Guard<'_> {
    /// Applies `rewrite`, which changes gate `gate` of `cur` in place and
    /// may append nodes, and keeps it only if the equivalence checker
    /// still passes: a kept rewrite counts `counter` and rebuilds
    /// `sim`; a rejected one is undone (the gate's old kind and fanins
    /// restored, the appended nodes dropped) and counts a
    /// `redundancy.reverted`, which is also a `rewrite.rolled_back` (the
    /// self-checking-rewrite counter shared with the emission self-check
    /// in synth.rs). The `core.redundancy.accept` failpoint forces a
    /// rejection to exercise the rollback path deterministically. Returns
    /// whether the rewrite was kept.
    fn try_rewrite(
        &mut self,
        cur: &mut Network,
        sim: &mut FaultSim,
        gate: SignalId,
        counter: &str,
        rewrite: impl FnOnce(&mut Network),
    ) -> Result<bool, Error> {
        let undo = cur
            .gate_kind(gate)
            .map(|kind| (kind, cur.fanins(gate).to_vec(), cur.num_nodes()));
        rewrite(cur);
        let kept = self.accept(cur, sim, gate)?;
        self.checker.settle_rewrite(kept);
        if kept {
            self.buf.count(counter, 1);
            *sim = FaultSim::new(cur, self.blocks);
        } else {
            self.buf.count("redundancy.reverted", 1);
            self.buf.count("rewrite.rolled_back", 1);
            if let Some((kind, fanins, len)) = undo {
                cur.replace_gate(gate, kind, fanins);
                cur.truncate(len); // `sim` still describes it
            }
        }
        Ok(kept)
    }

    fn accept(&mut self, cur: &Network, sim: &FaultSim, gate: SignalId) -> Result<bool, Error> {
        xsynth_trace::fail_point!("core.redundancy.accept", Ok(false));
        self.checker.check_rewrite(cur, sim.order(), gate)
    }
}

/// One sweep of the pass over `cur`, rewriting it in place and counting
/// each rewrite. Returns whether any rewrite was kept; sets `curtailed`
/// when the deadline cut the sweep short.
///
/// An input class of a gate is testable when some pattern produces it at
/// the gate and flipping the gate output there reaches a primary output;
/// a fanin is removable when the matching stuck-at fault on its wire is
/// undetected.
fn sweep(
    cur: &mut Network,
    guard: &mut Guard<'_>,
    curtailed: &mut bool,
    past_deadline: &impl Fn() -> bool,
) -> Result<bool, Error> {
    let mut changed = false;
    let mut sim = FaultSim::new(cur, guard.blocks);
    // POs first (reverse topological), per the paper's step 1; the
    // backward domino of Properties 6–7 emerges from re-simulating
    // after each kept rewrite.
    let order_rev: Vec<_> = sim.order().iter().rev().copied().collect();
    for id in order_rev {
        if past_deadline() {
            *curtailed = true;
            break;
        }
        let Some(kind) = cur.gate_kind(id) else {
            continue;
        };
        if !sim.is_reachable(id) {
            continue; // unreachable after an earlier rewrite this pass
        }
        match kind {
            GateKind::Xor if cur.fanins(id).len() == 2 => {
                let (g, h) = (cur.fanins(id)[0], cur.fanins(id)[1]);
                let mut class_testable = |a: bool, b: bool| {
                    sim.flip_detected(cur, id, |val| {
                        let (wg, wh) = (val[g.index()], val[h.index()]);
                        (if a { wg } else { !wg }) & (if b { wh } else { !wh })
                    })
                };
                // (1,1) untestable → f = g + h; (0,1) untestable means the
                // XOR only ever sees (0,0),(1,0),(1,1) → f = g·¬h; (1,0)
                // untestable → f = ¬g·h
                let and_not = if !class_testable(true, true) {
                    None
                } else if !class_testable(false, true) {
                    Some((g, h))
                } else if !class_testable(true, false) {
                    Some((h, g))
                } else {
                    continue;
                };
                let counter = match and_not {
                    None => "redundancy.xor_to_or",
                    Some(_) => "redundancy.xor_to_and",
                };
                changed |= guard.try_rewrite(cur, &mut sim, id, counter, |net| match and_not {
                    None => net.replace_gate(id, GateKind::Or, vec![g, h]),
                    Some((keep, drop)) => {
                        let nd = net.add_gate(GateKind::Not, vec![drop]);
                        net.replace_gate(id, GateKind::And, vec![keep, nd]);
                    }
                })?;
            }
            GateKind::And | GateKind::Or => {
                // For AND: s-a-1 redundant fanin → drop the wire; s-a-0
                // redundant → the whole gate is constant 0. For OR the dual.
                let (drop_stuck, constant) = match kind {
                    GateKind::And => (true, GateKind::Const0),
                    _ => (false, GateKind::Const1),
                };
                let mut idx = 0;
                while idx < cur.fanins(id).len() && cur.fanins(id).len() > 1 {
                    let mut untestable = |stuck_at| {
                        let site = FaultSite::Fanin(id, idx);
                        !sim.detects(cur, Fault { site, stuck_at })
                    };
                    if untestable(drop_stuck) {
                        let mut fanins = cur.fanins(id).to_vec();
                        fanins.remove(idx);
                        let nk = if fanins.len() == 1 {
                            GateKind::Buf
                        } else {
                            kind
                        };
                        let removed = |net: &mut Network| net.replace_gate(id, nk, fanins);
                        if guard.try_rewrite(
                            cur,
                            &mut sim,
                            id,
                            "redundancy.fanin_removed",
                            removed,
                        )? {
                            changed = true;
                            if nk == GateKind::Buf {
                                break;
                            }
                            continue; // same idx now holds next fanin
                        }
                    } else if untestable(!drop_stuck) {
                        let to_const = |net: &mut Network| net.replace_gate(id, constant, vec![]);
                        if guard.try_rewrite(
                            cur,
                            &mut sim,
                            id,
                            "redundancy.const_replaced",
                            to_const,
                        )? {
                            changed = true;
                            break;
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
    use crate::patterns::paper_patterns;
    use xsynth_blif::write_blif;
    use xsynth_boolean::{CubeRows, Polarity, VarSet};
    use xsynth_net::SignalId;
    use xsynth_sim::{exhaustive_patterns, pack_patterns, unpack_blocks, Pattern};
    use xsynth_trace::{Trace, TraceSink};

    /// The pass over an explicit pattern list with no deadline; returns
    /// the cleaned network and the trace holding the rewrite counters.
    fn run(
        net: &Network,
        pats: &[Pattern],
        checker: &mut EquivChecker,
        max_passes: usize,
    ) -> (Network, Trace) {
        let blocks = pack_patterns(net.inputs().len(), pats);
        let sink = TraceSink::new();
        let mut buf = sink.buffer(0, "redundancy");
        let (out, _) =
            remove_redundancy(net, &blocks, checker, max_passes, None, &mut buf).unwrap();
        drop(buf);
        (out, sink.take())
    }

    /// Builds the network for cube list in positive polarity via the cube
    /// method without rules, plus its paper pattern family.
    fn setup(n: usize, cubes: &[VarSet]) -> (Network, Vec<Pattern>) {
        let e = crate::factor::factor_cubes(&CubeRows::from_sets(n, cubes), false);
        let mut net = Network::new("t");
        let inputs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
        let pol = Polarity::all_positive(n);
        let mut lits = crate::factor::literal_supplier(&pol, &inputs);
        let s = e.emit(&mut net, &mut lits);
        net.add_output("f", s);
        let pats = family(n, &pol, cubes);
        (net, pats)
    }

    /// The paper family of one output as patterns.
    fn family(n: usize, pol: &Polarity, cubes: &[VarSet]) -> Vec<Pattern> {
        unpack_blocks(&paper_patterns(n, pol, &CubeRows::from_sets(n, cubes)).to_blocks())
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
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        // The outer carry XOR reduces by controllability (ab = 1 forces
        // (a⊕b)·c = 0), and Property 6's domino then makes the a⊕b gate's
        // (1,1) class unobservable (ab = 1 dominates the OR), so BOTH
        // gates become OR: cout = ab + (a+b)·c — the classic carry form.
        assert_eq!(trace.counter("redundancy.xor_to_or"), 2);
        assert_eq!(trace.counter("redundancy.reverted"), 0);
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
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        assert_eq!(trace.counter("redundancy.xor_to_or"), 0);
        assert_eq!(trace.counter("redundancy.xor_to_and"), 0);
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
        let pats = family(2, &pol, &cubes);
        let mut checker = EquivChecker::new(&net);
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        assert_eq!(trace.counter("redundancy.xor_to_and"), 1);
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
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        assert_eq!(xor_count(&out), 0, "{:?}", trace.counter_totals());
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
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        assert!(trace.counter("redundancy.fanin_removed") >= 1);
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
        let (out, trace) = run(&net, &pats, &mut checker, 8);
        assert_eq!(xor_count(&out), 0, "{:?}", trace.counter_totals());
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
        let (out, trace) = run(&net, &az, &mut checker, 4);
        assert!(trace.counter("redundancy.reverted") > 0);
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
        let (out, curtailed) = {
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
        assert!(curtailed);
        for m in 0..8u64 {
            assert_eq!(out.eval_u64(m), net.eval_u64(m));
        }
        // nothing rewritten: the only counter is the early stop
        let totals = sink.take().counter_totals();
        assert_eq!(totals, [("redundancy.curtailed".to_string(), 1)].into());
    }

    #[test]
    fn bad_pattern_blocks_are_typed_errors() {
        let mut net = Network::new("and2");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(GateKind::And, vec![a, b]);
        net.add_output("y", g);
        let mut checker = EquivChecker::new(&net);
        let sink = TraceSink::new();
        let mut buf = sink.buffer(0, "redundancy");
        let empty = remove_redundancy(&net, &[], &mut checker, 8, None, &mut buf);
        assert!(matches!(empty, Err(Error::Msg(_))), "{empty:?}");
        let three_wide = pack_patterns(3, &exhaustive_patterns(3));
        let wrong = remove_redundancy(&net, &three_wide, &mut checker, 8, None, &mut buf);
        assert!(matches!(wrong, Err(Error::Msg(_))), "{wrong:?}");
    }

    /// An `n`-bit ripple adder with interleaved inputs (`a0 b0 a1 b1 …
    /// cin`) in its XOR form, carry `ab ⊕ (a⊕b)c`: the pass turns each
    /// carry XOR into an OR.
    fn xor_ripple_adder(bits: usize) -> Network {
        let mut net = Network::new("adder");
        let ab: Vec<_> = (0..bits)
            .map(|i| {
                (
                    net.add_input(format!("a{i}")),
                    net.add_input(format!("b{i}")),
                )
            })
            .collect();
        let mut c = net.add_input("cin");
        for (i, (a, b)) in ab.into_iter().enumerate() {
            let axb = net.add_gate(GateKind::Xor, vec![a, b]);
            let s = net.add_gate(GateKind::Xor, vec![axb, c]);
            net.add_output(format!("s{i}"), s);
            let g = net.add_gate(GateKind::And, vec![a, b]);
            let p = net.add_gate(GateKind::And, vec![axb, c]);
            c = net.add_gate(GateKind::Xor, vec![g, p]);
        }
        net.add_output("cout", c);
        net
    }

    #[test]
    fn guard_node_cap_falls_back_to_whole_network_checks() {
        // With only the AZ/AO pair most proposals are wrong, so the
        // checker's manager fills with the rejected candidates' BDDs,
        // while a whole-network check only ever adds one candidate.
        let net = xor_ripple_adder(4);
        let pats = vec![vec![false; 9], vec![true; 9]];
        let (free, free_trace) = run(&net, &pats, &mut EquivChecker::new(&net), 8);
        assert!(free_trace.counter("redundancy.reverted") > 0);
        let peak = free_trace.gauge_max("bdd.peak_nodes").unwrap() as usize;
        // Below the manager's size after the uncapped pass, above what the
        // reference and any one whole-network check need: the guard trips
        // partway through the pass, the manager compacts, and every check
        // after it still fits.
        let cap = peak / 2;
        let budget = crate::Budget::default().bdd_node_cap(Some(cap));
        let mut checker = EquivChecker::with_budget(&net, &budget);
        let (capped, capped_trace) = run(&net, &pats, &mut checker, 8);
        assert!(!checker.downgraded(), "cap {cap}");
        let mut counters = capped_trace.counter_totals();
        let compacted = counters.remove("verify.compacted").unwrap_or(0);
        assert!(compacted >= 1, "cap {cap} of {peak} never tripped");
        assert_eq!(counters, free_trace.counter_totals());
        assert_eq!(write_blif(&capped), write_blif(&free));
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
        let (out, _) = run(&net, &pats, &mut checker, 8);
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
        let pats2 = family(3, &pol, &cubes);
        let (out2, trace2) = run(&net2, &pats2, &mut checker2, 8);
        assert_eq!(trace2.counter("redundancy.xor_to_or"), 1);
        assert_eq!(xor_count(&out2), 1);
        for m in 0..8u64 {
            assert_eq!(out2.eval_u64(m), net2.eval_u64(m));
        }
    }
}
