//! Combinational equivalence checking (the role `verify` plays in the
//! paper's experimental procedure), in the BDD manager where the synthesis
//! job built the spec's output BDDs ([`EquivChecker::from_spec`]).

use crate::budget::{Budget, BudgetExceeded, Resource};
use crate::error::Error;
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};
use xsynth_sim::fault::{Fault, FaultSite};
use xsynth_sim::{random_blocks, PatternBlock, Simulator};
use xsynth_trace::TraceBuffer;

/// Fixed-seed pattern budget of the simulation backend (before any
/// [`Budget::max_patterns`] cap).
const SIM_PATTERNS: usize = 4096;

/// Seed of the simulation backend's fixed random pattern set.
const SIM_SEED: u64 = 0xec;

/// How a network was proven equivalent to its specification: the
/// outcome of one equivalence check, as a synthesis report
/// ([`SynthReport::proof`](crate::SynthReport::proof)) and a benchmark
/// record carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum VerifyStatus {
    /// The check failed, errored, or could not run.
    #[default]
    Failed,
    /// The check passed, but only after the budget downgraded it from
    /// exact BDD comparison to fixed-seed simulation.
    Downgraded,
    /// The check passed exactly.
    Verified,
}

impl VerifyStatus {
    /// The string form (`"verified"` / `"downgraded"` / `"failed"`).
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyStatus::Verified => "verified",
            VerifyStatus::Downgraded => "downgraded",
            VerifyStatus::Failed => "failed",
        }
    }

    /// Parses the string form.
    pub fn parse(s: &str) -> Option<VerifyStatus> {
        use VerifyStatus::*;
        [Failed, Downgraded, Verified]
            .into_iter()
            .find(|v| v.as_str() == s)
    }

    /// Confidence rank (higher is better), the declaration order; a rank
    /// *decrease* between two runs is a quality regression.
    pub fn rank(self) -> u8 {
        self as u8
    }

    /// Whether the result checked out at all (possibly downgraded).
    pub fn passed(self) -> bool {
        self != VerifyStatus::Failed
    }
}

/// Proves `candidate` equivalent to `spec` in a fresh checker under
/// `budget` ([`EquivChecker::with_budget`]): for a network whose flow made
/// no proof of its own, and for two given networks. A candidate that
/// differs is [`VerifyStatus::Failed`].
///
/// # Errors
///
/// [`Error::InputMismatch`] when the two networks' inputs differ, and
/// the `core.verify` failpoint's injected fault.
pub fn prove_equivalence(
    spec: &Network,
    candidate: &Network,
    budget: &Budget,
) -> Result<VerifyStatus, Error> {
    let mut checker = EquivChecker::with_budget(spec, budget);
    Ok(match checker.try_check(candidate)? {
        false => VerifyStatus::Failed,
        true if checker.downgraded() => VerifyStatus::Downgraded,
        true => VerifyStatus::Verified,
    })
}

/// An equivalence checker pinned to a reference network.
///
/// Comparison is exact (canonical ROBDD equality) at any input count.
/// Under a [`Budget`] with a BDD node cap, a check that trips the cap
/// garbage-collects by copy — the reference roots move into a fresh
/// manager under the same cap — and retries once. A trip on the
/// just-compacted manager, or a reference that does not fit at all,
/// downgrades the checker to fixed-seed random simulation instead of
/// failing; [`EquivChecker::downgraded`] reports when that happened.
/// Candidate networks must have the same primary inputs (same names, same
/// order) and the same outputs.
///
/// # Examples
///
/// ```
/// use xsynth_core::EquivChecker;
/// use xsynth_net::{GateKind, Network};
///
/// let mut a = Network::new("a");
/// let x = a.add_input("x");
/// let y = a.add_input("y");
/// let g = a.add_gate(GateKind::Xor, vec![x, y]);
/// a.add_output("f", g);
/// let mut checker = EquivChecker::new(&a);
/// assert!(checker.try_check(&a)?);
/// # Ok::<(), xsynth_core::Error>(())
/// ```
#[derive(Debug)]
pub struct EquivChecker {
    reference: Network,
    /// Holds `reference_outputs`; kept after a downgrade for its gauges.
    bm: BddManager,
    reference_outputs: Vec<Bdd>,
    /// Every node's BDD in the network under rewrite (see
    /// [`EquivChecker::begin_rewrites`]).
    rewrites: Option<NodeValues>,
    /// The simulation backend, built when the checker downgrades.
    sim: Option<SimBackend>,
    budget: Budget,
    /// Compactions not yet counted in a trace.
    compacted: u64,
    /// Downgrades and simulated patterns of rewrite checks not yet
    /// counted in a trace.
    untraced: (u64, u64),
    /// The largest size, apply-cache hits and apply-cache misses of the
    /// managers compaction retired.
    retired: (usize, u64, u64),
}

/// The simulation backend: the fixed-seed pattern blocks and the
/// reference's output words on them, simulated once when the backend is
/// built, so each check simulates only the candidate.
#[derive(Debug)]
struct SimBackend {
    blocks: Vec<PatternBlock>,
    /// Per block, one word per output; lanes past the block are zero.
    reference: Vec<Vec<u64>>,
}

impl EquivChecker {
    /// Builds the checker, computing the reference output BDDs, with no
    /// resource budget.
    pub fn new(reference: &Network) -> Self {
        Self::with_budget(reference, &Budget::default())
    }

    /// Builds the checker under a resource budget: the BDD backend runs in
    /// a new node-capped manager (falling back to simulation if even the
    /// reference trips the cap), and the simulation backend's pattern set
    /// respects [`Budget::max_patterns`].
    pub fn with_budget(reference: &Network, budget: &Budget) -> Self {
        let mut bm = new_manager(reference.inputs().len(), budget.bdd_node_cap);
        let outputs = network_bdds(reference, &mut bm);
        let mut checker = Self::from_spec(reference, bm, Vec::new(), budget);
        match outputs {
            Ok(outputs) => checker.reference_outputs = outputs,
            Err(_) => checker.downgrade(),
        }
        checker
    }

    /// The checker of a job that has built `reference`'s output BDDs
    /// `outputs` in its manager `bm`: the checker takes `bm` over, node
    /// cap included, instead of rebuilding them.
    pub(crate) fn from_spec(
        reference: &Network,
        bm: BddManager,
        outputs: Vec<Bdd>,
        budget: &Budget,
    ) -> Self {
        EquivChecker {
            reference: reference.clone(),
            bm,
            reference_outputs: outputs,
            rewrites: None,
            sim: None,
            budget: budget.clone(),
            compacted: 0,
            untraced: (0, 0),
            retired: (0, 0, 0),
        }
    }

    fn downgrade(&mut self) {
        let n = self.reference.inputs().len();
        let count = self.budget.cap_patterns(SIM_PATTERNS);
        let blocks = random_blocks(n, count, SIM_SEED);
        let sim = Simulator::new(&self.reference);
        let reference = blocks.iter().map(|pb| sim.output_words(pb)).collect();
        self.sim = Some(SimBackend { blocks, reference });
    }

    /// Garbage collection by copy: moves the reference roots into a fresh
    /// manager under the same node cap, dropping every other node and the
    /// rewrite values with them.
    fn compact(&mut self) {
        let mut fresh = new_manager(self.bm.num_vars(), self.bm.node_limit());
        if let Ok(outputs) = self.bm.copy_roots(&self.reference_outputs, &mut fresh) {
            let ((peak, hits, misses), (h, m)) = (self.retired, self.bm.apply_cache_stats());
            self.retired = (peak.max(self.bm.num_nodes()), hits + h, misses + m);
            self.bm = fresh;
            self.reference_outputs = outputs;
            self.compacted += 1;
        }
        self.rewrites = None;
    }

    /// Records the manager's readings, those of the managers compaction
    /// retired included, as the `bdd.apply_hits`, `bdd.apply_misses`,
    /// `bdd.nodes` and `bdd.peak_nodes` gauges, the compactions since
    /// the last record as `verify.compacted`, and what the rewrite checks
    /// since then did on the simulation backend as `verify.downgraded`
    /// and `verify.sim_patterns`.
    pub(crate) fn record(&mut self, buf: &mut TraceBuffer) {
        let ((_, hits, misses), (h, m)) = (self.retired, self.bm.apply_cache_stats());
        buf.gauge("bdd.apply_hits", (hits + h) as f64);
        buf.gauge("bdd.apply_misses", (misses + m) as f64);
        buf.gauge("bdd.nodes", self.bm.num_nodes() as f64);
        buf.gauge("bdd.peak_nodes", self.peak_nodes() as f64);
        buf.count("verify.compacted", std::mem::take(&mut self.compacted));
        let (downgraded, patterns) = std::mem::take(&mut self.untraced);
        buf.count("verify.downgraded", downgraded);
        buf.count("verify.sim_patterns", patterns);
    }

    /// What a check just made adds to the trace: whether it downgraded the
    /// checker (it was not `was_downgraded`), and the patterns it
    /// simulated when the checker is on the simulation backend.
    fn check_counts(&self, was_downgraded: bool) -> (u64, u64) {
        let downgraded = u64::from(self.downgraded() && !was_downgraded);
        let patterns = self.sim.as_ref().map_or(0, |sim| {
            sim.blocks.iter().map(|pb| u64::from(pb.lanes)).sum()
        });
        (downgraded, patterns)
    }

    /// The largest size of the checker's manager so far.
    fn peak_nodes(&self) -> usize {
        self.retired.0.max(self.bm.num_nodes())
    }

    /// Whether a budget trip forced this checker down from exact BDD
    /// comparison to fixed-seed simulation.
    pub fn downgraded(&self) -> bool {
        self.sim.is_some()
    }

    /// Checks a candidate network against the reference, reporting input
    /// mismatches as [`Error::InputMismatch`] instead of panicking.
    ///
    /// On the BDD backend, tripping the node cap does not fail the check:
    /// the checker compacts its manager and retries, and if that trips
    /// too, downgrades itself to fixed-seed simulation (recorded by
    /// [`EquivChecker::downgraded`]) and re-runs the comparison there.
    pub fn try_check(&mut self, candidate: &Network) -> Result<bool, Error> {
        verify_fail_point()?;
        self.compare(candidate, false)
    }

    /// The body of [`EquivChecker::try_check`] past its failpoint;
    /// `compacted` says the manager was compacted for this very check.
    fn compare(&mut self, candidate: &Network, compacted: bool) -> Result<bool, Error> {
        if !input_names(candidate).eq(input_names(&self.reference)) {
            return Err(Error::InputMismatch {
                expected: input_names(&self.reference).map(String::from).collect(),
                found: input_names(candidate).map(String::from).collect(),
            });
        }
        if self.sim.is_none() {
            // Compact build: an equivalent candidate hash-conses onto the
            // reference cones and interns zero new nodes.
            match network_bdds(candidate, &mut self.bm) {
                Ok(outs) => return Ok(outs == self.reference_outputs),
                Err(Error::Budget(_)) if !compacted => {
                    self.compact();
                    return self.compare(candidate, true);
                }
                // The candidate's BDD blew the node cap even next to the
                // reference alone; keep going with the statistical backend
                // rather than rejecting a possibly fine network.
                Err(Error::Budget(_)) => self.downgrade(),
                Err(e) => return Err(e),
            }
        }
        let backend = self.sim.as_ref().expect("a downgraded checker");
        let sim = Simulator::new(candidate);
        Ok(backend
            .blocks
            .iter()
            .zip(&backend.reference)
            .all(|(pb, want)| sim.output_words(pb) == *want))
    }

    /// [`EquivChecker::try_check`] recording into a trace buffer: runs
    /// inside a `check` span (closed on every path, including errors),
    /// counts `verify.checks`, counts a mid-check downgrade as
    /// `verify.downgraded`, gauges the manager's peak as `bdd.peak_nodes`
    /// and, on the simulation backend, counts the patterns simulated as
    /// `verify.sim_patterns`.
    pub(crate) fn try_check_traced(
        &mut self,
        candidate: &Network,
        buf: &mut TraceBuffer,
    ) -> Result<bool, Error> {
        buf.begin("check");
        buf.count("verify.checks", 1);
        let was_downgraded = self.downgraded();
        let result = self.try_check(candidate);
        let (downgraded, patterns) = self.check_counts(was_downgraded);
        buf.count("verify.downgraded", downgraded);
        buf.gauge("bdd.peak_nodes", self.peak_nodes() as f64);
        buf.count("verify.sim_patterns", patterns);
        buf.end();
        result
    }

    /// Starts guarding a sequence of single-gate rewrites of `net` with
    /// every node's BDD in it, which [`EquivChecker::check_rewrite`] then
    /// updates one rewrite at a time. There are no values, and every
    /// rewrite is checked as a whole network, when the checker has
    /// downgraded to simulation, `net`'s inputs differ from the
    /// reference's, `net` has a cycle, or the values trip the node cap
    /// even after a compaction.
    pub(crate) fn begin_rewrites(&mut self, net: &Network) {
        self.rewrites = None;
        let Ok(order) = net.try_topo_order() else {
            return;
        };
        if self.downgraded() || !input_names(net).eq(input_names(&self.reference)) {
            return;
        }
        self.rewrites = self.node_values(net, &order).or_else(|| {
            self.compact();
            self.node_values(net, &order)
        });
    }

    /// `net`'s per-node BDDs in the checker's manager, or `None` if they
    /// trip its node cap.
    fn node_values(&mut self, net: &Network, order: &[SignalId]) -> Option<NodeValues> {
        let bm = &mut self.bm;
        let inputs = (0..bm.num_vars())
            .map(|i| bm.var(i).ok())
            .collect::<Option<Vec<Bdd>>>()?;
        NodeValues::build(net, order, inputs, |kind, fan, val| {
            gate_bdd(bm, kind, fan.iter().map(|f| val[f.index()])).ok()
        })
    }

    /// [`EquivChecker::try_check`] of `candidate`, the network last
    /// accepted with `gate` rewritten in place and possibly new nodes
    /// appended: the same `core.verify` failpoint and the same verdict,
    /// but only the appended nodes, `gate` and the nodes of `order` (the
    /// accepted network's topological order) downstream of a changed
    /// value are re-evaluated. The proposal stays pending until
    /// [`EquivChecker::settle_rewrite`].
    ///
    /// Without values from [`EquivChecker::begin_rewrites`] this is
    /// `try_check`. If the values trip the node cap, the checker compacts,
    /// which drops them, and checks `candidate` and every later rewrite
    /// as a whole network. A downgrade and the patterns simulated are
    /// counted for the next [`EquivChecker::record`].
    pub(crate) fn check_rewrite(
        &mut self,
        candidate: &Network,
        order: &[SignalId],
        gate: SignalId,
    ) -> Result<bool, Error> {
        let was_downgraded = self.downgraded();
        let result = self.rewrite_verdict(candidate, order, gate);
        let (downgraded, patterns) = self.check_counts(was_downgraded);
        self.untraced.0 += downgraded;
        self.untraced.1 += patterns;
        result
    }

    /// The body of [`EquivChecker::check_rewrite`].
    fn rewrite_verdict(
        &mut self,
        candidate: &Network,
        order: &[SignalId],
        gate: SignalId,
    ) -> Result<bool, Error> {
        verify_fail_point()?;
        let Some(values) = &mut self.rewrites else {
            return self.compare(candidate, false);
        };
        let bm = &mut self.bm;
        let verdict = values
            .propose(candidate, order, gate, |kind, fan, val| {
                gate_bdd(bm, kind, fan.iter().map(|f| val[f.index()])).ok()
            })
            .map(|()| {
                let got = candidate
                    .outputs()
                    .iter()
                    .map(|&(_, s)| values.val[s.index()]);
                got.eq(self.reference_outputs.iter().copied())
            });
        match verdict {
            Some(same) => Ok(same),
            // the values tripped the node cap
            None => {
                self.compact();
                self.compare(candidate, true)
            }
        }
    }

    /// Ends the pending proposal: `kept`, its values become the accepted
    /// ones; otherwise the values it overwrote are restored.
    pub(crate) fn settle_rewrite(&mut self, kept: bool) {
        if let Some(values) = &mut self.rewrites {
            values.settle(kept);
        }
    }
}

/// One BDD per node of the accepted network, plus the undo log of the
/// pending proposal. Nodes unreachable from the outputs hold
/// [`Bdd::ZERO`].
#[derive(Debug)]
struct NodeValues {
    val: Vec<Bdd>,
    /// Node count of the accepted network; nodes past it were appended
    /// by the pending proposal.
    accepted: usize,
    /// `(node index, value before the proposal)` per node it changed.
    undo: Vec<(usize, Bdd)>,
}

impl NodeValues {
    /// Takes the input values `inputs`, in input order, and evaluates
    /// every gate of `order`, or `None` if an evaluation fails.
    fn build(
        net: &Network,
        order: &[SignalId],
        inputs: Vec<Bdd>,
        mut eval: impl FnMut(GateKind, &[SignalId], &[Bdd]) -> Option<Bdd>,
    ) -> Option<Self> {
        let mut val = vec![Bdd::ZERO; net.num_nodes()];
        for (&id, v) in net.inputs().iter().zip(inputs) {
            val[id.index()] = v;
        }
        for &id in order {
            if let NodeKind::Gate(kind) = net.kind(id) {
                val[id.index()] = eval(*kind, net.fanins(id), &val)?;
            }
        }
        Some(NodeValues {
            val,
            accepted: net.num_nodes(),
            undo: Vec::new(),
        })
    }

    /// Brings the values up to date with `net`, the accepted network with
    /// `gate` rewritten and nodes possibly appended: evaluates the
    /// appended nodes `gate` reaches, then `gate`, then each node after
    /// `gate` in `order` with a fanin whose value changed. Every
    /// overwritten value goes to the undo log. `None` if an evaluation
    /// fails.
    ///
    /// `order` stays a valid order for `net` because a rewrite only ever
    /// narrows `gate`'s fanins to a subset of the old ones plus appended
    /// nodes, as all four Section 4 rewrites do.
    fn propose(
        &mut self,
        net: &Network,
        order: &[SignalId],
        gate: SignalId,
        mut eval: impl FnMut(GateKind, &[SignalId], &[Bdd]) -> Option<Bdd>,
    ) -> Option<()> {
        let mut eval_node = |val: &[Bdd], id: SignalId| match net.kind(id) {
            NodeKind::Gate(kind) => eval(*kind, net.fanins(id), val),
            NodeKind::Input => None,
        };
        self.val.resize(net.num_nodes(), Bdd::ZERO);
        // an unreachable gate reaches no output, and nothing a rewrite
        // appends makes it reachable again
        let Some(at) = order.iter().position(|&id| id == gate) else {
            return Some(());
        };
        let mut dirty = vec![false; net.num_nodes()];
        self.eval_appended(net, gate, &mut dirty, &mut eval_node)?;
        for &id in &order[at..] {
            if id != gate && !net.fanins(id).iter().any(|f| dirty[f.index()]) {
                continue;
            }
            let v = eval_node(&self.val, id)?;
            if v != self.val[id.index()] {
                let old = std::mem::replace(&mut self.val[id.index()], v);
                self.undo.push((id.index(), old));
                dirty[id.index()] = true;
            }
        }
        Some(())
    }

    /// Evaluates the appended nodes in `node`'s fanin cone, fanins first.
    fn eval_appended(
        &mut self,
        net: &Network,
        node: SignalId,
        dirty: &mut [bool],
        eval_node: &mut impl FnMut(&[Bdd], SignalId) -> Option<Bdd>,
    ) -> Option<()> {
        for &f in net.fanins(node) {
            if f.index() >= self.accepted && !dirty[f.index()] {
                self.eval_appended(net, f, dirty, eval_node)?;
                self.val[f.index()] = eval_node(&self.val, f)?;
                dirty[f.index()] = true;
            }
        }
        Some(())
    }

    /// Keeps the pending proposal's values, or restores the ones it
    /// overwrote.
    fn settle(&mut self, kept: bool) {
        if kept {
            self.undo.clear();
            self.accepted = self.val.len();
        } else {
            for (i, old) in self.undo.drain(..).rev() {
                self.val[i] = old;
            }
            self.val.truncate(self.accepted);
        }
    }
}

/// `net`'s primary input names, in order.
fn input_names(net: &Network) -> impl Iterator<Item = &str> {
    net.inputs()
        .iter()
        .map(|&i| net.node_name(i).unwrap_or("in"))
}

/// The `core.verify` failpoint every guarded check passes once.
fn verify_fail_point() -> Result<(), Error> {
    xsynth_trace::fail_point!(
        "core.verify",
        Err(Error::Verify("injected fault: core.verify tripped".into()))
    );
    Ok(())
}

/// An empty manager over `n` variables, capped at `node_cap` nodes when
/// one is given.
pub(crate) fn new_manager(n: usize, node_cap: Option<usize>) -> BddManager {
    match node_cap {
        Some(cap) => BddManager::with_node_limit(n, cap),
        None => BddManager::new(n),
    }
}

/// Builds the BDD of every output of `net` in `bm` (whose arity must match
/// the input count), by structural traversal.
///
/// Every gate's BDD is built in a throwaway scratch manager (inheriting
/// `bm`'s node cap), then only the DAGs reachable from the output roots are
/// copied into `bm`. A structural traversal allocates a node for every
/// internal gate, most of which are dead the moment their fanouts are
/// folded — but the substrate has no reference counts, so a build straight
/// into `bm` would leave them in its unique tables forever. Routing the
/// build through a scratch manager means `bm` — a job's manager, which its
/// equivalence checker takes over for every later check — only ever holds
/// live cones, so a node cap on `bm` counts live nodes. The copy is a DFS
/// in output order.
///
/// Arity mismatches and combinational cycles are errors, and a tripped
/// node cap is [`Error::Budget`], so governed callers can degrade instead
/// of dying.
pub fn network_bdds(net: &Network, bm: &mut BddManager) -> Result<Vec<Bdd>, Error> {
    let n = net.inputs().len();
    if bm.num_vars() != n {
        return Err(Error::msg(format!(
            "BDD arity mismatch: manager has {} vars, network has {} inputs",
            bm.num_vars(),
            n
        )));
    }
    let mut scratch = new_manager(n, bm.node_limit());
    let outs = output_bdds(net, &mut scratch, None)?;
    scratch.copy_roots(&outs, bm).map_err(|_| budget_error(bm))
}

/// The typed form of a tripped node cap on `bm`.
pub(crate) fn budget_error(bm: &BddManager) -> Error {
    Error::Budget(BudgetExceeded::new(
        "bdd",
        Resource::BddNodes,
        bm.node_limit().unwrap_or(0) as u64,
    ))
}

/// The gate→BDD fold every structural build shares: the BDD of each output
/// of `net`, built straight into `bm`. With a `fault`, the faulted wire or
/// node is overridden by its stuck-at constant, which is how ATPG builds
/// the faulty machine.
pub(crate) fn output_bdds(
    net: &Network,
    bm: &mut BddManager,
    fault: Option<Fault>,
) -> Result<Vec<Bdd>, Error> {
    let stuck = |site: FaultSite| {
        fault
            .filter(|f| f.site == site)
            .map(|f| if f.stuck_at { Bdd::ONE } else { Bdd::ZERO })
    };
    let mut val = vec![Bdd::ZERO; net.num_nodes()];
    for (i, &id) in net.inputs().iter().enumerate() {
        val[id.index()] = match stuck(FaultSite::Output(id)) {
            Some(c) => c,
            None => bm.var(i).map_err(|_| budget_error(bm))?,
        };
    }
    for id in net.try_topo_order()? {
        let NodeKind::Gate(kind) = net.kind(id) else {
            continue;
        };
        let fan = net
            .fanins(id)
            .iter()
            .enumerate()
            .map(|(k, f)| stuck(FaultSite::Fanin(id, k)).unwrap_or(val[f.index()]));
        val[id.index()] = match stuck(FaultSite::Output(id)) {
            Some(c) => c,
            None => gate_bdd(bm, *kind, fan).map_err(|_| budget_error(bm))?,
        };
    }
    Ok(net.outputs().iter().map(|&(_, s)| val[s.index()]).collect())
}

/// One gate's function over its fanin BDDs. Buffers and inverters fold
/// like one-input ANDs (`1·x = x` allocates nothing), constants like
/// zero-input ORs.
fn gate_bdd(
    bm: &mut BddManager,
    kind: GateKind,
    mut fan: impl Iterator<Item = Bdd>,
) -> Result<Bdd, NodeLimitExceeded> {
    use GateKind::*;
    let value = match kind {
        Const0 | Const1 | Or | Nor => fan.try_fold(Bdd::ZERO, |a, x| bm.or(a, x))?,
        Buf | Not | And | Nand => fan.try_fold(Bdd::ONE, |a, x| bm.and(a, x))?,
        Xor | Xnor => fan.try_fold(Bdd::ZERO, |a, x| bm.xor(a, x))?,
    };
    Ok(match kind {
        Const1 | Not | Nand | Nor | Xnor => bm.not(value),
        _ => value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsynth_net::GateKind;
    use xsynth_trace::TraceSink;

    fn xor_net(style: u8) -> Network {
        let mut n = Network::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let o = match style {
            0 => n.add_gate(GateKind::Xor, vec![a, b]),
            _ => {
                let na = n.add_gate(GateKind::Not, vec![a]);
                let nb = n.add_gate(GateKind::Not, vec![b]);
                let l = n.add_gate(GateKind::And, vec![a, nb]);
                let r = n.add_gate(GateKind::And, vec![na, b]);
                n.add_gate(GateKind::Or, vec![l, r])
            }
        };
        n.add_output("f", o);
        n
    }

    #[test]
    fn structurally_different_equivalent_networks_pass() {
        let mut c = EquivChecker::new(&xor_net(0));
        assert!(!c.downgraded());
        assert!(c.try_check(&xor_net(1)).unwrap());
    }

    #[test]
    fn inequivalent_networks_fail() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut bad = Network::new("x");
        let a = bad.add_input("a");
        let b = bad.add_input("b");
        let o = bad.add_gate(GateKind::Or, vec![a, b]);
        bad.add_output("f", o);
        assert!(!c.try_check(&bad).unwrap());
    }

    #[test]
    fn wide_networks_are_checked_exactly() {
        // A 48-input AND and constant 0 differ on one minterm of 2^48,
        // which no random pattern set finds; only the exact checker can
        // tell them apart.
        let build = |kind: GateKind| {
            let mut n = Network::new("wide");
            let ins: Vec<_> = (0..48).map(|i| n.add_input(format!("x{i}"))).collect();
            let fanins = if kind == GateKind::And { ins } else { vec![] };
            let g = n.add_gate(kind, fanins);
            n.add_output("f", g);
            n
        };
        let mut c = EquivChecker::new(&build(GateKind::And));
        assert!(!c.downgraded());
        assert!(c.try_check(&build(GateKind::And)).unwrap());
        assert!(!c.try_check(&build(GateKind::Const0)).unwrap());
    }

    #[test]
    fn multi_output_order_matters() {
        let mut a = Network::new("a");
        let x = a.add_input("x");
        let y = a.add_input("y");
        let g1 = a.add_gate(GateKind::And, vec![x, y]);
        let g2 = a.add_gate(GateKind::Or, vec![x, y]);
        a.add_output("p", g1);
        a.add_output("q", g2);
        let mut b = Network::new("b");
        let x = b.add_input("x");
        let y = b.add_input("y");
        let g1 = b.add_gate(GateKind::Or, vec![x, y]);
        let g2 = b.add_gate(GateKind::And, vec![x, y]);
        b.add_output("p", g1);
        b.add_output("q", g2);
        let mut c = EquivChecker::new(&a);
        assert!(
            !c.try_check(&b).unwrap(),
            "swapped outputs are not equivalent"
        );
    }

    #[test]
    fn input_mismatch_is_an_error_not_a_panic() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut other = Network::new("y");
        let p = other.add_input("p");
        let q = other.add_input("q");
        let o = other.add_gate(GateKind::Xor, vec![p, q]);
        other.add_output("f", o);
        let err = c.try_check(&other).unwrap_err();
        match &err {
            Error::InputMismatch { expected, found } => {
                assert_eq!(expected, &["a", "b"]);
                assert_eq!(found, &["p", "q"]);
            }
            other => panic!("expected InputMismatch, got {other:?}"),
        }
        assert_eq!(err.exit_code(), 6);
    }

    #[test]
    fn traced_error_path_closes_the_span() {
        let mut c = EquivChecker::new(&xor_net(0));
        let mut other = Network::new("y");
        let p = other.add_input("p");
        other.add_output("f", p);
        let sink = TraceSink::new();
        {
            let mut buf = sink.buffer(0, "main");
            assert!(c.try_check_traced(&other, &mut buf).is_err());
            assert!(c.try_check_traced(&xor_net(1), &mut buf).unwrap());
        }
        let t = sink.take();
        assert_eq!(t.counter_totals()["verify.checks"], 2);
        // The error path closed its span: both checks are siblings at the
        // top level, not the second nested inside a dangling first.
        let roots = t.forest();
        assert_eq!(roots.len(), 2);
        assert!(roots
            .iter()
            .all(|r| r.name == "check" && r.children.is_empty()));
    }

    #[test]
    fn capped_checker_downgrades_to_simulation_and_still_verifies() {
        // A 12-input XOR chain needs well over 16 BDD nodes; the capped
        // checker must fall back to simulation at construction time and
        // still distinguish equivalent from inequivalent candidates.
        let build = |flip: bool| {
            let mut n = Network::new("chain");
            let ins: Vec<_> = (0..12).map(|i| n.add_input(format!("x{i}"))).collect();
            let mut acc = ins[0];
            for &i in &ins[1..] {
                acc = n.add_gate(GateKind::Xor, vec![acc, i]);
            }
            if flip {
                acc = n.add_gate(GateKind::Not, vec![acc]);
            }
            n.add_output("f", acc);
            n
        };
        let budget = Budget::default().bdd_node_cap(Some(16));
        let mut c = EquivChecker::with_budget(&build(false), &budget);
        assert!(c.downgraded());
        assert!(c.try_check(&build(false)).unwrap());
        assert!(!c.try_check(&build(true)).unwrap());
        let prove = |flip, budget| prove_equivalence(&build(false), &build(flip), budget).unwrap();
        assert_eq!(prove(false, &budget), VerifyStatus::Downgraded);
        assert_eq!(prove(true, &budget), VerifyStatus::Failed);
        assert_eq!(prove(false, &Budget::default()), VerifyStatus::Verified);
    }

    /// A single 10-input AND, and an equivalent candidate with a wide XOR
    /// layer whose BDDs need far more nodes.
    fn and_with_xor_detour() -> (Network, Network) {
        let mut reference = Network::new("r");
        let ins: Vec<_> = (0..10)
            .map(|i| reference.add_input(format!("x{i}")))
            .collect();
        let g = reference.add_gate(GateKind::And, ins.clone());
        reference.add_output("f", g);

        let mut candidate = Network::new("c");
        let cins: Vec<_> = (0..10)
            .map(|i| candidate.add_input(format!("x{i}")))
            .collect();
        let mut acc = candidate.add_gate(GateKind::Xor, cins.clone());
        for &i in &cins {
            acc = candidate.add_gate(GateKind::Xor, vec![acc, i]);
        }
        let h = candidate.add_gate(GateKind::And, cins);
        let o = candidate.add_gate(GateKind::Or, vec![acc, h]);
        candidate.add_output("f", o);
        (reference, candidate)
    }

    #[test]
    fn mid_check_downgrade_keeps_checking() {
        // The reference (a single AND) fits in a tight manager, but a
        // candidate with a wide XOR layer blows the cap mid-check. The
        // checker must downgrade and still return a verdict.
        let (reference, candidate) = and_with_xor_detour();
        let budget = Budget::default().bdd_node_cap(Some(80));
        let mut c = EquivChecker::with_budget(&reference, &budget);
        assert!(!c.downgraded(), "reference fits under the cap");
        let sink = TraceSink::new();
        {
            let mut buf = sink.buffer(0, "main");
            // XOR-of-everything XORed again with each input cancels to 0,
            // so the candidate reduces to the same AND — equivalent.
            assert!(c.try_check_traced(&candidate, &mut buf).unwrap());
        }
        assert!(c.downgraded());
        let t = sink.take();
        assert_eq!(t.counter_totals()["verify.downgraded"], 1);
    }

    #[test]
    fn rewrite_check_downgrade_is_counted() {
        // A job's checker capped at the reference's size: a rewrite check
        // without node values is a whole-network check, which trips the
        // cap, compacts, trips again and downgrades. The next record
        // counts the downgrade and the patterns simulated.
        let (reference, candidate) = and_with_xor_detour();
        let mut bm = new_manager(10, None);
        let outputs = network_bdds(&reference, &mut bm).expect("uncapped");
        bm.set_node_limit(Some(bm.num_nodes()));
        let mut c = EquivChecker::from_spec(&reference, bm, outputs, &Budget::default());
        let order = candidate.topo_order();
        let gate = candidate.outputs()[0].1;
        assert!(c.check_rewrite(&candidate, &order, gate).unwrap());
        assert!(c.downgraded());
        assert!(c.check_rewrite(&candidate, &order, gate).unwrap());
        let sink = TraceSink::new();
        c.record(&mut sink.buffer(0, "main"));
        let counters = sink.take().counter_totals();
        assert_eq!(counters["verify.compacted"], 1);
        assert_eq!(counters["verify.downgraded"], 1);
        assert_eq!(counters["verify.sim_patterns"], 2 * SIM_PATTERNS as u64);
    }

    #[test]
    fn network_bdds_reports_arity_and_budget() {
        let net = xor_net(0);
        let mut wrong = BddManager::new(3);
        assert!(matches!(network_bdds(&net, &mut wrong), Err(Error::Msg(_))));
        let mut capped = BddManager::with_node_limit(2, 2);
        match network_bdds(&net, &mut capped) {
            Err(Error::Budget(b)) => assert_eq!(b.resource, Resource::BddNodes),
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    const KINDS: [GateKind; 4] = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Not];

    /// A random AND/OR/XOR/NOT network: `picks[i]` chooses gate `i`'s kind
    /// and two fanins among the signals before it; `outs` picks the
    /// outputs among the last signals, so some gates may be unreachable.
    fn random_net(n_inputs: usize, picks: &[(u8, u8, u8)], outs: &[u8]) -> Network {
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
        net
    }

    /// Applies one of redundancy removal's four rewrites to the reachable
    /// AND/OR/XOR gate `pick` selects from `order`, the rewrite chosen by
    /// `how`: an XOR becomes an OR or an AND with one fanin inverted; an
    /// AND/OR loses a fanin or becomes a constant. Returns the gate, or
    /// `None` if no such gate is left.
    fn random_rewrite(
        net: &mut Network,
        order: &[SignalId],
        pick: u8,
        how: u8,
    ) -> Option<SignalId> {
        use GateKind::*;
        let gates: Vec<SignalId> = order
            .iter()
            .copied()
            .filter(|&id| matches!(net.gate_kind(id), Some(And | Or | Xor)))
            .collect();
        let gate = *gates.get(pick as usize % gates.len().max(1))?;
        let fanins = net.fanins(gate).to_vec();
        let how = how as usize;
        match net.gate_kind(gate)? {
            Xor if how.is_multiple_of(3) => net.replace_gate(gate, Or, fanins),
            Xor => {
                let inv = net.add_gate(Not, vec![fanins[how % 2]]);
                net.replace_gate(gate, And, vec![fanins[1 - how % 2], inv]);
            }
            kind if how.is_multiple_of(2) && fanins.len() > 1 => {
                let mut kept = fanins;
                kept.remove(how / 2 % kept.len());
                let kind = if kept.len() == 1 { Buf } else { kind };
                net.replace_gate(gate, kind, kept);
            }
            And => net.replace_gate(gate, Const0, vec![]),
            _ => net.replace_gate(gate, Const1, vec![]),
        }
        Some(gate)
    }

    /// A synthesis job's checker: a manager already holding unrelated
    /// nodes (every gate BDD of `junk`) takes in the reference's outputs
    /// and is handed over through [`EquivChecker::from_spec`].
    fn job_checker(reference: &Network, junk: &Network) -> EquivChecker {
        let mut bm = BddManager::new(reference.inputs().len());
        output_bdds(junk, &mut bm, None).expect("uncapped");
        let outputs = network_bdds(reference, &mut bm).expect("uncapped");
        EquivChecker::from_spec(reference, bm, outputs, &Budget::default())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// After every step of a random sequence of kept and reverted
        /// rewrites, the incremental verdict equals a fresh whole-network
        /// check, on each backend: exact (0), simulation because the
        /// reference tripped the node cap (1; no node values, each rewrite
        /// is simulated as a whole network), and a job's checker (2)
        /// whose manager is capped at its size once the rewrites begin, so
        /// that the first step needing a new node trips the cap and
        /// compacts it.
        #[test]
        fn incremental_verdict_matches_full_check(
            backend in 0u8..3,
            n_inputs in 2usize..7,
            picks in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 1..16),
            outs in proptest::collection::vec(0u8..6, 1..4),
            steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        ) {
            let cap = if backend == 1 { Some(1) } else { None };
            let budget = Budget::default().bdd_node_cap(cap);
            let mut cur = random_net(n_inputs, &picks, &outs);
            let reference = cur.clone();
            let junk_picks: Vec<_> = picks.iter().rev().map(|&(k, a, b)| (k + 1, b, a)).collect();
            let junk = random_net(n_inputs, &junk_picks, &[0]);
            let mut checker = match backend {
                2 => job_checker(&reference, &junk),
                _ => EquivChecker::with_budget(&reference, &budget),
            };
            // a constant reference fits under any cap
            prop_assume!(checker.downgraded() == (backend == 1));
            // backend 2's uncapped twin: until the first trip the two
            // managers are identical, so the twin shows whether a step
            // needed a node past the cap
            let mut twin = (backend == 2).then(|| job_checker(&reference, &junk));
            checker.begin_rewrites(&cur);
            prop_assert_eq!(checker.rewrites.is_some(), backend != 1);
            let mut twin_nodes_at_cap = 0;
            if let Some(twin) = &mut twin {
                twin.begin_rewrites(&cur);
                checker.bm.set_node_limit(Some(checker.bm.num_nodes()));
                twin_nodes_at_cap = twin.bm.num_nodes();
            }
            for &(pick, how, keep) in &steps {
                let order = cur.topo_order();
                let before = cur.clone();
                let Some(gate) = random_rewrite(&mut cur, &order, pick, how) else {
                    break;
                };
                let got = checker.check_rewrite(&cur, &order, gate).unwrap();
                let fresh = EquivChecker::with_budget(&reference, &budget).try_check(&cur);
                prop_assert_eq!(got, fresh.unwrap());
                checker.settle_rewrite(keep);
                if let Some(twin) = &mut twin {
                    twin.check_rewrite(&cur, &order, gate).unwrap();
                    twin.settle_rewrite(keep);
                }
                if !keep {
                    cur = before;
                }
            }
            let grew = twin.is_some_and(|twin| twin.bm.num_nodes() > twin_nodes_at_cap);
            prop_assert_eq!(checker.compacted > 0, grew);
        }
    }
}
