//! Combinational equivalence checking (the role `verify` plays in the
//! paper's experimental procedure).

use crate::budget::{Budget, BudgetExceeded, Resource};
use crate::error::Error;
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};
use xsynth_net::{GateKind, Network, NodeKind, SignalId};
use xsynth_sim::fault::{Fault, FaultSite};
use xsynth_sim::{pack_patterns, random_patterns, PatternBlock, Simulator};
use xsynth_trace::TraceBuffer;

/// Fixed-seed pattern budget of the simulation backend (before any
/// [`Budget::max_patterns`] cap).
const SIM_PATTERNS: usize = 4096;

/// Seed of the simulation backend's fixed random pattern set.
const SIM_SEED: u64 = 0xec;

/// An equivalence checker pinned to a reference network.
///
/// Comparison is exact (canonical ROBDD equality) at any input count.
/// Under a [`Budget`] with a BDD node cap, a checker that trips the cap —
/// building the reference or mid-check — downgrades itself to fixed-seed
/// random simulation instead of failing; [`EquivChecker::downgraded`]
/// reports when that happened. Candidate networks must have the same
/// primary inputs (same names, same order) and the same outputs.
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
    reference_outputs: Vec<Bdd>,
    manager: Option<BddManager>,
    input_names: Vec<String>,
    sim: Option<SimBackend>,
    budget: Budget,
    downgraded: bool,
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
    /// a node-capped manager (falling back to simulation if even the
    /// reference trips the cap), and the simulation backend's pattern set
    /// respects [`Budget::max_patterns`].
    pub fn with_budget(reference: &Network, budget: &Budget) -> Self {
        let input_names: Vec<String> = reference
            .inputs()
            .iter()
            .map(|&i| reference.node_name(i).unwrap_or("in").to_string())
            .collect();
        let n = input_names.len();
        let mut checker = EquivChecker {
            reference: reference.clone(),
            reference_outputs: Vec::new(),
            manager: None,
            input_names,
            sim: None,
            budget: budget.clone(),
            downgraded: false,
        };
        let mut bm = new_manager(n, budget.bdd_node_cap);
        match network_bdds(reference, &mut bm) {
            Ok(outs) => {
                checker.reference_outputs = outs;
                checker.manager = Some(bm);
            }
            Err(_) => {
                checker.downgraded = true;
                checker.build_sim_backend();
            }
        }
        checker
    }

    fn build_sim_backend(&mut self) {
        let n = self.input_names.len();
        let count = self.budget.cap_patterns(SIM_PATTERNS);
        let patterns = random_patterns(n, count, SIM_SEED);
        let blocks = pack_patterns(n, &patterns);
        let sim = Simulator::new(&self.reference);
        let reference = blocks.iter().map(|pb| sim.output_words(pb)).collect();
        self.sim = Some(SimBackend { blocks, reference });
    }

    /// Whether the checker is exact (BDD) or statistical (simulation).
    pub fn is_exact(&self) -> bool {
        self.manager.is_some()
    }

    /// Whether a budget trip forced this checker down from exact BDD
    /// comparison to fixed-seed simulation.
    pub fn downgraded(&self) -> bool {
        self.downgraded
    }

    /// Checks a candidate network against the reference, reporting input
    /// mismatches as [`Error::InputMismatch`] instead of panicking.
    ///
    /// On the BDD backend, tripping the node cap does not fail the check:
    /// the checker downgrades itself to fixed-seed simulation (recorded by
    /// [`EquivChecker::downgraded`]) and re-runs the comparison there.
    pub fn try_check(&mut self, candidate: &Network) -> Result<bool, Error> {
        verify_fail_point()?;
        self.compare(candidate)
    }

    /// The body of [`EquivChecker::try_check`] past its failpoint.
    fn compare(&mut self, candidate: &Network) -> Result<bool, Error> {
        let cand_names: Vec<&str> = candidate
            .inputs()
            .iter()
            .map(|&i| candidate.node_name(i).unwrap_or("in"))
            .collect();
        if cand_names != self.input_names {
            return Err(Error::InputMismatch {
                expected: self.input_names.clone(),
                found: cand_names.iter().map(|s| s.to_string()).collect(),
            });
        }
        if let Some(bm) = &mut self.manager {
            // Compact build: an equivalent candidate hash-conses onto the
            // reference cones and interns zero new nodes, so the checker's
            // manager stays near live-reference size across arbitrarily
            // many redundancy-removal checks.
            match network_bdds(candidate, bm) {
                Ok(outs) => return Ok(outs == self.reference_outputs),
                Err(Error::Budget(_)) => {
                    // The candidate's BDD blew the node cap; keep going
                    // with the statistical backend rather than rejecting a
                    // possibly fine network.
                    self.manager = None;
                    self.reference_outputs.clear();
                    self.downgraded = true;
                    self.build_sim_backend();
                }
                Err(e) => return Err(e),
            }
        }
        // without a BDD manager the simulation backend is always built
        let Some(backend) = &self.sim else {
            return Err(Error::msg("equivalence checker has no backend"));
        };
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
    /// `verify.downgraded` and, on the simulation backend, the patterns
    /// simulated as `verify.sim_patterns`.
    pub fn try_check_traced(
        &mut self,
        candidate: &Network,
        buf: &mut TraceBuffer,
    ) -> Result<bool, Error> {
        buf.begin("check");
        buf.count("verify.checks", 1);
        let was_downgraded = self.downgraded;
        let result = self.try_check(candidate);
        if self.downgraded && !was_downgraded {
            buf.count("verify.downgraded", 1);
        }
        if let Some(bm) = &self.manager {
            buf.gauge("bdd.peak_nodes", bm.num_nodes() as f64);
        }
        if let Some(sim) = &self.sim {
            let patterns = sim.blocks.iter().map(|pb| u64::from(pb.lanes)).sum();
            buf.count("verify.sim_patterns", patterns);
        }
        buf.end();
        result
    }

    /// Starts guarding a sequence of single-gate rewrites of `net` with an
    /// [`IncrementalCheck`] on this checker's backend. Returns `None`, and
    /// every rewrite then goes through [`EquivChecker::try_check`], when
    /// `net`'s inputs differ from the reference's, `net` has a cycle, or
    /// the exact backend's pass-local manager trips the node cap while
    /// taking in the reference and `net`.
    pub(crate) fn incremental(&self, net: &Network) -> Option<IncrementalCheck> {
        let names = net
            .inputs()
            .iter()
            .map(|&i| net.node_name(i).unwrap_or("in"));
        if !names.eq(self.input_names.iter().map(String::as_str)) {
            return None;
        }
        let order = net.try_topo_order().ok()?;
        if let Some(checker_bm) = &self.manager {
            let mut bm = new_manager(checker_bm.num_vars(), checker_bm.node_limit());
            let reference = checker_bm
                .copy_roots(&self.reference_outputs, &mut bm)
                .ok()?;
            let inputs = (0..bm.num_vars())
                .map(|i| bm.var(i).ok())
                .collect::<Option<Vec<Bdd>>>()?;
            let values = NodeValues::build(net, &order, Bdd::ZERO, inputs, |kind, fan, val| {
                gate_bdd(&mut bm, kind, fan.iter().map(|f| val[f.index()])).ok()
            })?;
            return Some(IncrementalCheck::Exact {
                bm,
                reference,
                values,
            });
        }
        let sim = self.sim.as_ref()?;
        let inputs = (0..net.inputs().len())
            .map(|i| sim.blocks.iter().map(|pb| pb.words[i]).collect())
            .collect();
        let values = NodeValues::build(net, &order, Vec::new(), inputs, |kind, fan, val| {
            Some(eval_blocks(kind, fan, val, sim.blocks.len()))
        })?;
        Some(IncrementalCheck::Sim(values))
    }

    /// [`EquivChecker::try_check`] of `candidate`, the network `inc` last
    /// accepted with `gate` rewritten in place and possibly new nodes
    /// appended: the same `core.verify` failpoint and the same verdict,
    /// but only the appended nodes, `gate` and the nodes of `order` (the
    /// accepted network's topological order) downstream of a changed
    /// value are re-evaluated. The proposal stays pending until
    /// [`IncrementalCheck::commit`] or [`IncrementalCheck::revert`].
    ///
    /// With `inc` absent this is `try_check`. If the exact backend trips
    /// the node cap, `inc` is dropped and the check (like every later one
    /// in the pass) runs as `try_check`, including its downgrade to
    /// simulation.
    pub(crate) fn check_rewrite(
        &mut self,
        inc: &mut Option<IncrementalCheck>,
        candidate: &Network,
        order: &[SignalId],
        gate: SignalId,
    ) -> Result<bool, Error> {
        verify_fail_point()?;
        let outs = candidate.outputs();
        let verdict = match inc.as_mut() {
            Some(IncrementalCheck::Exact {
                bm,
                reference,
                values,
            }) => values
                .propose(candidate, order, gate, |kind, fan, val| {
                    gate_bdd(bm, kind, fan.iter().map(|f| val[f.index()])).ok()
                })
                .map(|()| {
                    outs.len() == reference.len()
                        && outs
                            .iter()
                            .zip(reference.iter())
                            .all(|(&(_, s), r)| values.val[s.index()] == *r)
                }),
            Some(IncrementalCheck::Sim(values)) => self.sim.as_ref().and_then(|sim| {
                let n_blocks = sim.blocks.len();
                values.propose(candidate, order, gate, |kind, fan, val| {
                    Some(eval_blocks(kind, fan, val, n_blocks))
                })?;
                let mut blocks = sim.blocks.iter().zip(&sim.reference).enumerate();
                Some(blocks.all(|(b, (pb, want))| {
                    want.len() == outs.len()
                        && outs
                            .iter()
                            .zip(want)
                            .all(|(&(_, s), &r)| values.val[s.index()][b] & pb.lane_mask() == r)
                }))
            }),
            None => None,
        };
        match verdict {
            Some(same) => Ok(same),
            None => {
                *inc = None;
                self.compare(candidate)
            }
        }
    }
}

/// Incremental equivalence checking of one rewrite at a time, for
/// redundancy removal: it keeps every node's value in the last accepted
/// network, so a proposal re-evaluates only what the rewrite can have
/// changed instead of the whole network.
///
/// On the exact backend the values are BDDs in a manager local to the
/// pass (with the checker's node cap), which also holds a copy of the
/// reference outputs; dropping the check at the end of the pass frees it,
/// so the checker's long-lived manager never holds a candidate. On the
/// simulation backend they are words over the checker's fixed pattern
/// blocks, compared against the reference words the checker simulated
/// once.
#[derive(Debug)]
pub(crate) enum IncrementalCheck {
    Exact {
        bm: BddManager,
        reference: Vec<Bdd>,
        values: NodeValues<Bdd>,
    },
    Sim(NodeValues<Vec<u64>>),
}

impl IncrementalCheck {
    /// Keeps the pending proposal: its values become the accepted ones.
    pub(crate) fn commit(&mut self) {
        match self {
            IncrementalCheck::Exact { values, .. } => values.commit(),
            IncrementalCheck::Sim(values) => values.commit(),
        }
    }

    /// Drops the pending proposal, restoring the values it overwrote.
    pub(crate) fn revert(&mut self) {
        match self {
            IncrementalCheck::Exact { values, .. } => values.revert(),
            IncrementalCheck::Sim(values) => values.revert(),
        }
    }

    /// Nodes in the pass-local manager (exact backend only).
    pub(crate) fn bdd_nodes(&self) -> Option<usize> {
        match self {
            IncrementalCheck::Exact { bm, .. } => Some(bm.num_nodes()),
            IncrementalCheck::Sim(_) => None,
        }
    }
}

/// One value per node of the accepted network, plus the undo log of the
/// pending proposal. Nodes unreachable from the outputs hold a blank.
#[derive(Debug)]
pub(crate) struct NodeValues<V> {
    val: Vec<V>,
    blank: V,
    /// Node count of the accepted network; nodes past it were appended
    /// by the pending proposal.
    accepted: usize,
    /// `(node index, value before the proposal)` per node it changed.
    undo: Vec<(usize, V)>,
}

impl<V: Clone + PartialEq> NodeValues<V> {
    /// Takes the input values `inputs`, in input order, and evaluates
    /// every gate of `order`, or `None` if an evaluation fails.
    fn build(
        net: &Network,
        order: &[SignalId],
        blank: V,
        inputs: Vec<V>,
        mut eval: impl FnMut(GateKind, &[SignalId], &[V]) -> Option<V>,
    ) -> Option<Self> {
        let mut val = vec![blank.clone(); net.num_nodes()];
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
            blank,
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
        mut eval: impl FnMut(GateKind, &[SignalId], &[V]) -> Option<V>,
    ) -> Option<()> {
        let mut eval_node = |val: &[V], id: SignalId| match net.kind(id) {
            NodeKind::Gate(kind) => eval(*kind, net.fanins(id), val),
            NodeKind::Input => None,
        };
        self.val.resize(net.num_nodes(), self.blank.clone());
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
        eval_node: &mut impl FnMut(&[V], SignalId) -> Option<V>,
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

    fn commit(&mut self) {
        self.undo.clear();
        self.accepted = self.val.len();
    }

    fn revert(&mut self) {
        for (i, old) in self.undo.drain(..).rev() {
            self.val[i] = old;
        }
        self.val.truncate(self.accepted);
    }
}

/// One gate's words on every pattern block, from its fanins' words.
fn eval_blocks(kind: GateKind, fan: &[SignalId], val: &[Vec<u64>], n_blocks: usize) -> Vec<u64> {
    (0..n_blocks)
        .map(|b| kind.eval_words(fan.iter().map(|f| val[f.index()][b])))
        .collect()
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
/// build through a scratch manager means `bm` — a job's manager, or an
/// equivalence checker's across many checks — only ever holds live cones,
/// so a node cap on `bm` counts live nodes. The copy is a DFS in output
/// order.
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
        assert!(c.is_exact());
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
        assert!(c.is_exact());
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
        assert!(!c.is_exact());
        assert!(c.downgraded());
        assert!(c.try_check(&build(false)).unwrap());
        assert!(!c.try_check(&build(true)).unwrap());
    }

    #[test]
    fn mid_check_downgrade_keeps_checking() {
        // The reference (a single AND) fits in a tight manager, but a
        // candidate with a wide XOR layer blows the cap mid-check. The
        // checker must downgrade and still return a verdict.
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

        let budget = Budget::default().bdd_node_cap(Some(80));
        let mut c = EquivChecker::with_budget(&reference, &budget);
        assert!(c.is_exact(), "reference fits under the cap");
        let sink = TraceSink::new();
        {
            let mut buf = sink.buffer(0, "main");
            // XOR-of-everything XORed again with each input cancels to 0,
            // so the candidate reduces to the same AND — equivalent.
            assert!(c.try_check_traced(&candidate, &mut buf).unwrap());
        }
        assert!(c.downgraded());
        assert!(!c.is_exact());
        let t = sink.take();
        assert_eq!(t.counter_totals()["verify.downgraded"], 1);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// After every step of a random sequence of kept and reverted
        /// rewrites, the incremental verdict equals a fresh whole-network
        /// check, on each backend: exact (0) and simulation because the
        /// reference tripped the node cap (1).
        #[test]
        fn incremental_verdict_matches_full_check(
            backend in 0u8..2,
            n_inputs in 2usize..7,
            picks in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 1..16),
            outs in proptest::collection::vec(0u8..6, 1..4),
            steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..12),
        ) {
            let cap = if backend == 1 { Some(1) } else { None };
            let budget = Budget::default().bdd_node_cap(cap);
            let mut cur = random_net(n_inputs, &picks, &outs);
            let reference = cur.clone();
            let mut checker = EquivChecker::with_budget(&reference, &budget);
            // a constant reference fits under any cap
            prop_assume!(checker.is_exact() == (backend == 0));
            let mut inc = checker.incremental(&cur);
            prop_assert!(inc.is_some());
            for &(pick, how, keep) in &steps {
                let order = cur.topo_order();
                let before = cur.clone();
                let Some(gate) = random_rewrite(&mut cur, &order, pick, how) else {
                    break;
                };
                let got = checker.check_rewrite(&mut inc, &cur, &order, gate).unwrap();
                let fresh = EquivChecker::with_budget(&reference, &budget).try_check(&cur);
                prop_assert_eq!(got, fresh.unwrap());
                let guard = inc.as_mut().expect("no cap to trip");
                if keep {
                    guard.commit();
                } else {
                    guard.revert();
                    cur = before;
                }
            }
        }
    }
}
