//! Ordered functional decision diagrams: the fixed-polarity OFDD and its
//! Kronecker generalization, in one manager.
//!
//! Each variable of a diagram takes one expansion, its [`Decomposition`]:
//!
//! * **Shannon**:        `f = ¬x·f₀ ⊕ x·f₁`
//! * **positive Davio**: `f = f₀ ⊕ x·(f₀ ⊕ f₁)`
//! * **negative Davio**: `f = f₁ ⊕ ¬x·(f₀ ⊕ f₁)`
//!
//! so an internal node for variable `x` with children `(lo, hi)` denotes
//! `¬x·lo ⊕ x·hi` under Shannon and `lo ⊕ λ·hi` under Davio, where `λ` is
//! `x` or `¬x`. An OFDD (Kebschull & Rosenstiel; Section 2 of the paper)
//! is the diagram whose variables are all Davio, the polarity vector
//! picking positive or negative per variable: [`OfddManager::new`]. A
//! list that mixes in Shannon variables is an ordered Kronecker FDD, the
//! extension of the paper's refs \[1\]/\[16\], which
//! [`kfdd::optimize_decomposition`] searches for.
//!
//! Nodes are reduced (a Davio node whose `hi` child is constant zero, and
//! a Shannon node whose children are equal, is removed) and shared through
//! a unique table, so a handle is canonical for a given manager. Under an
//! all-Davio list each path from the root to the 1-terminal is one cube of
//! the FPRM form; the manager extracts the full cube set, which is exactly
//! the FPRM form used by the synthesis flow.
//!
//! # Examples
//!
//! ```
//! use xsynth_bdd::BddManager;
//! use xsynth_boolean::{Polarity, TruthTable};
//! use xsynth_ofdd::OfddManager;
//!
//! // x0 OR x1 = x0 ⊕ x1 ⊕ x0·x1 in positive polarity.
//! let t = TruthTable::var(2, 0) | TruthTable::var(2, 1);
//! let mut bm = BddManager::new(2);
//! let f = bm.from_table(&t)?;
//! let mut om = OfddManager::new(Polarity::all_positive(2));
//! let o = om.from_bdd(&mut bm, f)?;
//! assert_eq!(om.num_cubes(o), 3);
//! # Ok::<(), xsynth_bdd::NodeLimitExceeded>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod kfdd;
#[cfg(test)]
mod reference;

use std::time::Instant;
use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};
use xsynth_boolean::{CubeRows, FxHashMap, FxHashSet, Polarity, Spectrum, TruthTable};
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_trace::TraceBuffer;

/// The expansion a diagram uses for one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decomposition {
    /// `f = ¬x·f₀ ⊕ x·f₁` (the BDD expansion).
    Shannon,
    /// `f = f₀ ⊕ x·(f₀ ⊕ f₁)`.
    PositiveDavio,
    /// `f = f₁ ⊕ ¬x·(f₀ ⊕ f₁)`.
    NegativeDavio,
}

/// A handle to a node inside an [`OfddManager`].
///
/// Handles are canonical within one manager: equal handles denote equal
/// functions (for the manager's decomposition list and variable order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ofdd(u32);

impl Ofdd {
    /// The constant-zero function.
    pub const ZERO: Ofdd = Ofdd(0);
    /// The constant-one function.
    pub const ONE: Ofdd = Ofdd(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Ofdd,
    hi: Ofdd,
}

const TERMINAL_VAR: u32 = u32::MAX;

/// An arena of reduced, shared diagram nodes under a fixed list of one
/// [`Decomposition`] per variable.
#[derive(Debug)]
pub struct OfddManager {
    types: Vec<Decomposition>,
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, Ofdd, Ofdd), Ofdd>,
}

impl OfddManager {
    /// Creates the OFDD manager of `polarity`: every variable is Davio,
    /// positive or negative as the polarity says.
    pub fn new(polarity: Polarity) -> Self {
        let types = (0..polarity.num_vars())
            .map(|v| match polarity.is_positive(v) {
                true => Decomposition::PositiveDavio,
                false => Decomposition::NegativeDavio,
            })
            .collect();
        Self::with_types(types)
    }

    /// Creates a manager with one decomposition type per variable.
    pub fn with_types(types: Vec<Decomposition>) -> Self {
        OfddManager {
            types,
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: Ofdd::ZERO,
                    hi: Ofdd::ZERO,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: Ofdd::ONE,
                    hi: Ofdd::ONE,
                },
            ],
            unique: FxHashMap::default(),
        }
    }

    /// The decomposition list, one type per variable.
    pub fn types(&self) -> &[Decomposition] {
        &self.types
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.types.len()
    }

    /// Total allocated nodes (including terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node `(var, lo, hi)` under `var`'s decomposition `d`, reduced
    /// and shared.
    fn mk(&mut self, d: Decomposition, var: u32, lo: Ofdd, hi: Ofdd) -> Ofdd {
        let redundant = match d {
            // ¬x·lo ⊕ x·lo = lo
            Decomposition::Shannon => lo == hi,
            // lo ⊕ λ·0 = lo: the OFDD reduction rule
            _ => hi == Ofdd::ZERO,
        };
        if redundant {
            return lo;
        }
        if let Some(&o) = self.unique.get(&(var, lo, hi)) {
            return o;
        }
        let id = Ofdd(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    fn node(&self, o: Ofdd) -> Node {
        self.nodes[o.0 as usize]
    }

    #[allow(clippy::wrong_self_convention)] // manager-style constructor, as in CUDD
    /// Builds the diagram of `f` from a ROBDD, variable by variable in the
    /// shared natural order. A Davio variable's expansion drives `bm`
    /// through an XOR, so a node cap on `bm` can trip.
    ///
    /// # Panics
    ///
    /// Panics if the BDD manager's arity differs (a programming error).
    pub fn from_bdd(&mut self, bm: &mut BddManager, f: Bdd) -> Result<Ofdd, NodeLimitExceeded> {
        assert_eq!(bm.num_vars(), self.num_vars(), "arity mismatch");
        xsynth_trace::fail_point!(
            "ofdd.from_bdd",
            Err(NodeLimitExceeded {
                limit: bm.node_limit().unwrap_or(0),
            })
        );
        let mut memo = FxHashMap::default();
        self.from_bdd_rec(bm, f, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_bdd_rec(
        &mut self,
        bm: &mut BddManager,
        f: Bdd,
        memo: &mut FxHashMap<Bdd, Ofdd>,
    ) -> Result<Ofdd, NodeLimitExceeded> {
        let Some(var) = bm.top_var(f) else {
            return Ok(if f == Bdd::ONE { Ofdd::ONE } else { Ofdd::ZERO });
        };
        if let Some(&o) = memo.get(&f) {
            return Ok(o);
        }
        let f0 = bm.low(f);
        let f1 = bm.high(f);
        let d = self.types[var];
        // the XOR is issued before either recursion
        let (lo_bdd, hi_bdd) = match d {
            Decomposition::Shannon => (f0, f1),
            Decomposition::PositiveDavio => (f0, bm.xor(f0, f1)?),
            Decomposition::NegativeDavio => (f1, bm.xor(f0, f1)?),
        };
        let lo = self.from_bdd_rec(bm, lo_bdd, memo)?;
        let hi = self.from_bdd_rec(bm, hi_bdd, memo)?;
        let o = self.mk(d, var as u32, lo, hi);
        memo.insert(f, o);
        Ok(o)
    }

    #[allow(clippy::wrong_self_convention)]
    /// Convenience: builds the diagram of a truth table through a private,
    /// uncapped BDD manager.
    pub fn from_table(&mut self, t: &TruthTable) -> Result<Ofdd, NodeLimitExceeded> {
        let mut bm = BddManager::new(t.num_vars());
        let f = bm.from_table(t)?;
        self.from_bdd(&mut bm, f)
    }

    /// Number of FPRM cubes (paths to the 1-terminal). Meaningful for an
    /// all-Davio list, where each path is one cube.
    pub fn num_cubes(&self, o: Ofdd) -> u64 {
        let mut memo = FxHashMap::default();
        self.count_rec(o, &mut memo)
    }

    fn count_rec(&self, o: Ofdd, memo: &mut FxHashMap<Ofdd, u64>) -> u64 {
        if o == Ofdd::ZERO {
            return 0;
        }
        if o == Ofdd::ONE {
            return 1;
        }
        if let Some(&c) = memo.get(&o) {
            return c;
        }
        let n = self.node(o);
        let c = self.count_rec(n.lo, memo) + self.count_rec(n.hi, memo);
        memo.insert(o, c);
        c
    }

    /// Extracts all FPRM cubes of `o` under an all-Davio list, one row of
    /// variables per cube (each variable's phase is its Davio type): a
    /// node's cubes are its low branch's, then its high branch's with the
    /// node's variable added.
    pub fn cubes(&self, o: Ofdd) -> CubeRows {
        let mut out = CubeRows::new(self.num_vars());
        let mut memo: FxHashMap<Ofdd, CubeRows> = FxHashMap::default();
        self.cubes_rec(o, &mut memo);
        self.append_cubes(o, &memo, &mut out);
        out
    }

    fn cubes_rec(&self, o: Ofdd, memo: &mut FxHashMap<Ofdd, CubeRows>) {
        if o.is_const() || memo.contains_key(&o) {
            return;
        }
        let n = self.node(o);
        self.cubes_rec(n.lo, memo);
        self.cubes_rec(n.hi, memo);
        let mut out = CubeRows::new(self.num_vars());
        self.append_cubes(n.lo, memo, &mut out);
        let start = out.len();
        self.append_cubes(n.hi, memo, &mut out);
        let (w, bit) = (n.var as usize / 64, 1u64 << (n.var % 64));
        for i in start..out.len() {
            out.row_mut(i)[w] |= bit;
        }
        memo.insert(o, out);
    }

    /// Appends the cubes of `o`, already in `memo` unless constant.
    fn append_cubes(&self, o: Ofdd, memo: &FxHashMap<Ofdd, CubeRows>, out: &mut CubeRows) {
        match o {
            Ofdd::ZERO => {}
            Ofdd::ONE => {
                out.push_zero();
            }
            _ => out.append(&memo[&o]),
        }
    }

    /// Evaluates `o` on a variable-space assignment.
    pub fn eval(&self, o: Ofdd, minterm: u64) -> bool {
        let mut memo = FxHashMap::default();
        self.eval_rec(o, minterm, &mut memo)
    }

    fn eval_rec(&self, o: Ofdd, minterm: u64, memo: &mut FxHashMap<Ofdd, bool>) -> bool {
        if o.is_const() {
            return o == Ofdd::ONE;
        }
        if let Some(&v) = memo.get(&o) {
            return v;
        }
        let n = self.node(o);
        let x = minterm & (1u64 << n.var) != 0;
        let v = match self.types[n.var as usize] {
            Decomposition::Shannon => self.eval_rec(if x { n.hi } else { n.lo }, minterm, memo),
            d => {
                let lo = self.eval_rec(n.lo, minterm, memo);
                // λ is x under positive Davio, ¬x under negative
                if x == (d == Decomposition::PositiveDavio) {
                    lo ^ self.eval_rec(n.hi, minterm, memo)
                } else {
                    lo
                }
            }
        };
        memo.insert(o, v);
        v
    }

    /// Number of distinct internal nodes in the DAG rooted at `o`.
    pub fn size(&self, o: Ofdd) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![o];
        let mut count = 0;
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            count += 1;
            let n = self.node(b);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// The internal nodes of the DAG rooted at `o` in a topological order,
    /// children before parents (low child first).
    fn topo_nodes(&self, o: Ofdd) -> Vec<Ofdd> {
        let mut order = Vec::new();
        let mut seen = FxHashSet::default();
        self.topo_rec(o, &mut seen, &mut order);
        order
    }

    fn topo_rec(&self, o: Ofdd, seen: &mut FxHashSet<Ofdd>, order: &mut Vec<Ofdd>) {
        if o.is_const() || !seen.insert(o) {
            return;
        }
        let n = self.node(o);
        self.topo_rec(n.lo, seen, order);
        self.topo_rec(n.hi, seen, order);
        order.push(o);
    }

    /// Lowers the DAG rooted at `root` into gates, one node at a time in
    /// topological order with sharing preserved, and returns the root's
    /// signal. A Davio node becomes `lo ⊕ λ·hi`, one AND and one two-input
    /// XOR (the paper's Method 2, the OFDD method); a Shannon node becomes
    /// the multiplexer `¬x·lo + x·hi`. A constant is one gate per call,
    /// made on first use.
    ///
    /// `literal` supplies the literal signals: id `2v` is variable `v`,
    /// `2v + 1` its complement.
    pub fn to_network(
        &self,
        root: Ofdd,
        net: &mut Network,
        literal: &mut dyn FnMut(&mut Network, usize) -> SignalId,
    ) -> SignalId {
        let mut sig: FxHashMap<Ofdd, SignalId> = FxHashMap::default();
        // every internal node is lowered before its parents read it, so
        // only a constant can be missing
        let signal = |o: Ofdd, net: &mut Network, sig: &mut FxHashMap<Ofdd, SignalId>| {
            *sig.entry(o).or_insert_with(|| {
                debug_assert!(o.is_const(), "{o:?} read before it was lowered");
                let kind = match o {
                    Ofdd::ZERO => GateKind::Const0,
                    _ => GateKind::Const1,
                };
                net.add_gate(kind, vec![])
            })
        };
        for o in self.topo_nodes(root) {
            let n = self.node(o);
            let v = n.var as usize;
            let s = match self.types[v] {
                Decomposition::Shannon => {
                    // the two terms are disjoint, so OR is their XOR
                    let lo = signal(n.lo, net, &mut sig);
                    let hi = signal(n.hi, net, &mut sig);
                    let nx = literal(net, 2 * v + 1);
                    let x = literal(net, 2 * v);
                    let a = net.add_gate(GateKind::And, vec![nx, lo]);
                    let b = net.add_gate(GateKind::And, vec![x, hi]);
                    net.add_gate(GateKind::Or, vec![a, b])
                }
                d => {
                    let lit = literal(net, 2 * v + usize::from(d == Decomposition::NegativeDavio));
                    // hi is never ZERO under a Davio variable
                    let and_part = if n.hi == Ofdd::ONE {
                        lit
                    } else {
                        net.add_gate(GateKind::And, vec![lit, sig[&n.hi]])
                    };
                    match n.lo {
                        Ofdd::ZERO => and_part,
                        Ofdd::ONE => net.add_gate(GateKind::Not, vec![and_part]),
                        _ => net.add_gate(GateKind::Xor, vec![sig[&n.lo], and_part]),
                    }
                }
            };
            sig.insert(o, s);
        }
        signal(root, net, &mut sig)
    }
}

/// How a polarity vector is chosen (Section 2 of the paper, ref \[20\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolarityMode {
    /// All variables positive (the plain positive-polarity Reed-Muller
    /// form).
    AllPositive,
    /// Round-based greedy descent on the OFDD cube count: each round
    /// evaluates every single-variable flip of the current polarity and
    /// moves to the best strictly-improving one.
    Greedy,
    /// Gray-code-ordered exhaustive enumeration over outputs with support
    /// ≤ [`EXHAUSTIVE_LIMIT`] variables, greedy beyond.
    Exhaustive,
}

/// Support size up to which [`PolarityMode::Exhaustive`] really enumerates
/// all `2^k` polarities.
pub const EXHAUSTIVE_LIMIT: usize = 10;

/// Support size up to which a search scores candidates on the function's
/// Reed–Muller spectrum (a `2^16`-bit table is 8 KiB); wider functions
/// convert the BDD to an OFDD per candidate.
const SPECTRUM_LIMIT: usize = 16;

/// An incremental polarity search over one function.
///
/// For a function of at most 16 support variables the search reads the
/// support truth table from the BDD once, on its first evaluation, and
/// keeps its Reed–Muller coefficient vector (a [`Spectrum`]). Scoring a
/// candidate moves that vector to the candidate's polarity, one pass over
/// the words per flipped variable, and takes its popcount: the cube count
/// the OFDD would have. Such a search allocates no BDD nodes.
///
/// A wider function pays a BDD→OFDD conversion per candidate, one after
/// another. The conversion drives the borrowed [`BddManager`] through XORs
/// under its node cap.
///
/// Greedy rounds memoize evaluated polarities (keyed by the polarity
/// vector itself), so they never re-evaluate a visited vector.
#[derive(Debug)]
pub struct PolaritySearch<'a> {
    bm: &'a mut BddManager,
    f: Bdd,
    /// chosen on the first evaluation
    scorer: Option<Scorer>,
    memo: FxHashMap<Polarity, u64>,
    deadline: Option<Instant>,
    trace: Option<&'a mut TraceBuffer>,
    tripped: bool,
}

/// How a [`PolaritySearch`] scores a candidate polarity.
#[derive(Debug)]
enum Scorer {
    /// The spectrum of the function's support truth table, whose variable
    /// `j` is `support[j]`.
    Spectrum {
        support: Vec<usize>,
        spectrum: Spectrum,
    },
    /// A BDD→OFDD conversion per candidate.
    Ofdd,
}

impl Scorer {
    fn new(bm: &BddManager, f: Bdd) -> Scorer {
        let support: Vec<usize> = bm.support(f).iter().collect();
        if support.len() > SPECTRUM_LIMIT {
            return Scorer::Ofdd;
        }
        let mut table = TruthTable::zero(support.len());
        support_table(bm, f, &support, 0, 0, &mut table);
        Scorer::Spectrum {
            spectrum: Spectrum::new(&table),
            support,
        }
    }
}

/// Sets the minterms of `b` in `table` by a cofactor walk down the sorted
/// `support`: bit `j` of a minterm is the value of `support[j]`, and
/// `base` holds the bits of the `j` variables fixed on the way down.
fn support_table(
    bm: &BddManager,
    b: Bdd,
    support: &[usize],
    j: usize,
    base: u64,
    table: &mut TruthTable,
) {
    if b == Bdd::ZERO {
        return;
    }
    if b == Bdd::ONE {
        for high in 0..(1u64 << (support.len() - j)) {
            table.set(base | high << j, true);
        }
        return;
    }
    // `b` depends only on support variables from `support[j]` on, so a
    // different top variable means `b` does not depend on `support[j]`
    let (lo, hi) = if bm.top_var(b) == Some(support[j]) {
        (bm.low(b), bm.high(b))
    } else {
        (b, b)
    };
    support_table(bm, lo, support, j + 1, base, table);
    support_table(bm, hi, support, j + 1, base | 1 << j, table);
}

impl<'a> PolaritySearch<'a> {
    /// Starts a search for `f` inside `bm`.
    ///
    /// A node cap set on `bm` (see [`BddManager::set_node_limit`]) governs
    /// the OFDD conversions of a function wider than 16 variables: when a
    /// candidate trips it, the search stops and keeps the best polarity
    /// found so far instead of panicking.
    pub fn new(bm: &'a mut BddManager, f: Bdd) -> Self {
        PolaritySearch {
            bm,
            f,
            scorer: None,
            memo: FxHashMap::default(),
            deadline: None,
            trace: None,
            tripped: false,
        }
    }

    /// Sets a wall-clock deadline, checked at the start of each greedy
    /// round, before each candidate the round evaluates, and before each
    /// block of 256 exhaustive candidates. Once it has passed, the search
    /// aborts at the next check and keeps the best polarity found so far
    /// (see [`PolaritySearch::budget_tripped`]).
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Whether the search has stopped early at least once because of its
    /// node cap or deadline.
    pub fn budget_tripped(&self) -> bool {
        self.tripped
    }

    /// Records the search into a trace buffer: [`PolaritySearch::run`]
    /// opens a `polarity_search` span and the evaluation sites emit the
    /// `polarity.evaluated` / `polarity.memo_hit` counters.
    pub fn trace(mut self, buf: &'a mut TraceBuffer) -> Self {
        self.trace = Some(buf);
        self
    }

    fn record(&mut self, evaluated: u64, memo_hits: u64) {
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.count("polarity.evaluated", evaluated);
            buf.count("polarity.memo_hit", memo_hits);
        }
    }

    fn record_trip(&mut self) {
        self.tripped = true;
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.count("polarity.budget_tripped", 1);
        }
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// One candidate, unmemoized: the spectrum moved to `pol` and counted,
    /// or an OFDD conversion (`None` when it trips the node cap).
    fn evaluate(&mut self, pol: &Polarity) -> Option<u64> {
        let (bm, f) = (&mut *self.bm, self.f);
        match self.scorer.get_or_insert_with(|| Scorer::new(bm, f)) {
            Scorer::Spectrum { support, spectrum } => {
                for (j, &v) in support.iter().enumerate() {
                    if spectrum.polarity().is_positive(j) != pol.is_positive(v) {
                        spectrum.flip(j);
                    }
                }
                Some(spectrum.num_cubes())
            }
            Scorer::Ofdd => eval_polarity(bm, f, pol),
        }
    }

    /// The FPRM cube count of the function under `pol`, memoized; `None`
    /// when the evaluation trips the manager's node cap (recorded as a
    /// budget trip).
    pub fn cube_count(&mut self, pol: &Polarity) -> Option<u64> {
        if let Some(&c) = self.memo.get(pol) {
            self.record(0, 1);
            return Some(c);
        }
        match self.evaluate(pol) {
            Some(c) => {
                self.record(1, 0);
                self.memo.insert(pol.clone(), c);
                Some(c)
            }
            None => {
                self.record_trip();
                None
            }
        }
    }

    /// Batch evaluation under the budget: memo hits always answer;
    /// missing candidates evaluate until the node cap or deadline trips.
    /// Returns the index-aligned counts (`None` = not affordable) and
    /// whether the budget tripped.
    fn counts_governed(&mut self, pols: &[Polarity]) -> (Vec<Option<u64>>, bool) {
        let mut out: Vec<Option<u64>> = Vec::with_capacity(pols.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        for p in pols {
            match self.memo.get(p) {
                Some(&c) => {
                    hits += 1;
                    out.push(Some(c));
                }
                None => {
                    missing.push(out.len());
                    out.push(None);
                }
            }
        }
        let mut tripped = false;
        let mut evaluated = 0u64;
        // an expired deadline trips the round even when the memo answers
        // every candidate
        if self.past_deadline() {
            tripped = true;
        } else {
            for &i in &missing {
                if self.past_deadline() {
                    tripped = true;
                    break;
                }
                match self.evaluate(&pols[i]) {
                    Some(c) => {
                        evaluated += 1;
                        self.memo.insert(pols[i].clone(), c);
                    }
                    None => {
                        tripped = true;
                        break;
                    }
                }
            }
        }
        self.record(evaluated, hits);
        if tripped {
            self.record_trip();
        }
        let out = out
            .into_iter()
            .zip(pols)
            .map(|(c, p)| c.or_else(|| self.memo.get(p).copied()))
            .collect();
        (out, tripped)
    }

    /// Round-based greedy descent from the all-positive polarity: each
    /// round evaluates every single-variable flip over `support` and moves
    /// to the smallest strictly-improving cube count (ties broken toward
    /// the lowest variable). Returns the winning polarity and its count.
    pub fn greedy(&mut self, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        let mut pol = Polarity::all_positive(n);
        let Some(mut best) = self.cube_count(&pol.clone()) else {
            // even the base polarity is unaffordable under the budget:
            // keep it with an unknown cost
            return (pol, u64::MAX);
        };
        loop {
            let candidates: Vec<Polarity> = support
                .iter()
                .map(|&v| {
                    let mut p = pol.clone();
                    p.flip(v);
                    p
                })
                .collect();
            if candidates.is_empty() {
                return (pol, best);
            }
            let (counts, tripped) = self.counts_governed(&candidates);
            let mut winner: Option<usize> = None;
            for (i, c) in counts.iter().enumerate() {
                if let Some(c) = *c {
                    if c < best && winner.is_none_or(|w| Some(c) < counts[w]) {
                        winner = Some(i);
                    }
                }
            }
            match winner {
                Some(i) => {
                    best = counts[i].expect("winner has a count");
                    pol = candidates[i].clone();
                }
                None => return (pol, best),
            }
            if tripped {
                // abort-and-keep-best: the round in flight still applied
                // its improvement, but no further rounds start
                return (pol, best);
            }
        }
    }

    /// Exhaustive enumeration of all `2^k` polarities over `support`, in
    /// Gray-code order: each step flips exactly one variable, which moves
    /// the spectrum by one pass over its words. Ties keep the earliest
    /// polarity in Gray order. Returns the winner and its count.
    pub fn exhaustive_gray(&mut self, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        let k = support.len();
        assert!(k <= 24, "exhaustive polarity space too large for {k} vars");
        // step i visits the i-th gray code, a set bit meaning the variable
        // is flipped to negative (gray 0 = all-positive)
        let mut pol = Polarity::all_positive(n);
        let mut best: Option<(u64, Polarity)> = None;
        // the deadline is checked once per block
        const BATCH: u64 = 256;
        let total = 1u64 << k;
        let mut start = 0u64;
        while start < total {
            if self.past_deadline() {
                self.record_trip();
                break;
            }
            let end = (start + BATCH).min(total);
            let mut evaluated = 0u64;
            let mut tripped = false;
            for i in start..end {
                if i > 0 {
                    // gray(i) and gray(i - 1) differ in bit tz(i)
                    pol.flip(support[i.trailing_zeros() as usize]);
                }
                let Some(c) = self.evaluate(&pol) else {
                    tripped = true;
                    break;
                };
                evaluated += 1;
                if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    best = Some((c, pol.clone()));
                }
            }
            self.record(evaluated, 0);
            if tripped {
                // abort-and-keep-best under the budget
                self.record_trip();
                break;
            }
            start = end;
        }
        match best {
            Some((c, p)) => (p, c),
            // budget tripped before any candidate was affordable
            None => (Polarity::all_positive(n), u64::MAX),
        }
    }

    /// Dispatches on `mode`: all-positive, greedy descent, or gray-code
    /// exhaustive when the support fits under [`EXHAUSTIVE_LIMIT`]. When a
    /// trace buffer is attached the whole search runs inside a
    /// `polarity_search` span.
    pub fn run(&mut self, mode: PolarityMode, support: &[usize]) -> (Polarity, u64) {
        xsynth_trace::fail_point!("ofdd.polarity_search");
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.begin("polarity_search");
        }
        let result = self.dispatch(mode, support);
        if let Some(buf) = self.trace.as_deref_mut() {
            if result.1 != u64::MAX {
                buf.gauge("polarity.best_cubes", result.1 as f64);
            }
            buf.end();
        }
        result
    }

    fn dispatch(&mut self, mode: PolarityMode, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        match mode {
            PolarityMode::AllPositive => {
                let pol = Polarity::all_positive(n);
                let c = self.cube_count(&pol.clone()).unwrap_or(u64::MAX);
                (pol, c)
            }
            PolarityMode::Greedy => self.greedy(support),
            PolarityMode::Exhaustive => {
                if support.len() <= EXHAUSTIVE_LIMIT {
                    self.exhaustive_gray(support)
                } else {
                    self.greedy(support)
                }
            }
        }
    }
}

/// One candidate evaluation: BDD→OFDD conversion under `pol`, cube count.
/// `None` when the conversion trips the manager's node cap.
fn eval_polarity(bm: &mut BddManager, f: Bdd, pol: &Polarity) -> Option<u64> {
    let mut om = OfddManager::new(pol.clone());
    let o = om.from_bdd(bm, f).ok()?;
    Some(om.num_cubes(o))
}

/// Searches for a cube-minimizing polarity of `t` under `mode` with
/// [`PolaritySearch`] and returns the winner: the truth-table entry point
/// to the search the per-output planning runs on its BDDs, with the same
/// rule (Gray-code exhaustive up to [`EXHAUSTIVE_LIMIT`] support
/// variables, greedy beyond).
///
/// The search runs on `t`'s BDD in a manager of its own, over that BDD's
/// support, with no deadline, node cap or trace buffer; variables off the
/// support stay positive. Build the form under the winner with
/// [`Fprm::from_table`](xsynth_boolean::Fprm::from_table).
pub fn optimize_polarity(t: &TruthTable, mode: PolarityMode) -> Polarity {
    let mut bm = BddManager::new(t.num_vars());
    let f = bm.from_table(t).expect("a manager without a node cap");
    let support: Vec<usize> = bm.support(f).iter().collect();
    // `dispatch`, not `run`: no `polarity_search` span and no
    // `ofdd.polarity_search` failpoint, which only a caller with a salvage
    // ladder can survive
    PolaritySearch::new(&mut bm, f).dispatch(mode, &support).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_boolean::{Fprm, VarSet};

    fn check_semantics(t: &TruthTable, pol: &Polarity) {
        let mut om = OfddManager::new(pol.clone());
        let o = om.from_table(t).expect("uncapped");
        for m in 0..(1u64 << t.num_vars()) {
            assert_eq!(om.eval(o, m), t.eval(m), "pol {pol:?} minterm {m}");
        }
        // cube set must match the transform-derived FPRM
        let fprm_direct = Fprm::from_table(t, pol);
        let fprm_ofdd = Fprm::new(pol.clone(), om.cubes(o).to_sets());
        let mut a = fprm_direct.cubes().to_vec();
        let mut b = fprm_ofdd.cubes().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "cube sets must agree with the fast transform");
    }

    #[test]
    fn matches_transform_all_polarities_small() {
        let t = TruthTable::from_fn(4, |m| (m * 23 + 3) % 7 < 3);
        for idx in 0..16u64 {
            check_semantics(&t, &Polarity::from_index(4, idx));
        }
    }

    #[test]
    fn matches_transform_medium() {
        let t = TruthTable::from_fn(8, |m| m.count_ones() % 3 == 1);
        check_semantics(&t, &Polarity::all_positive(8));
        check_semantics(&t, &Polarity::from_index(8, 0b10110101));
    }

    #[test]
    fn figure1_ofdd() {
        // Paper Figure 1: f over (x1,x2,x3)=(v0,v1,v2), V=(0 1 1),
        // f = ¬x1 ⊕ ¬x1·x3 ⊕ ¬x1·x2 ⊕ ¬x1·x2·x3 ⊕ x3 ⊕ x2 — six cubes.
        let pol = Polarity::from_bits(&[false, true, true]);
        let f = Fprm::new(
            pol.clone(),
            vec![
                VarSet::from_vars([0]),
                VarSet::from_vars([0, 2]),
                VarSet::from_vars([0, 1]),
                VarSet::from_vars([0, 1, 2]),
                VarSet::from_vars([2]),
                VarSet::from_vars([1]),
            ],
        );
        let t = f.to_table();
        let mut om = OfddManager::new(pol);
        let o = om.from_table(&t).expect("uncapped");
        assert_eq!(om.num_cubes(o), 6);
        // The paper's drawing uses a merge-isomorphic-children reduction and
        // shows 3 nonterminal nodes; under the standard zero-suppressed OFDD
        // reduction used here the same function takes 5 shared nodes (the
        // 1 ⊕ x3 subgraph is shared by both children of the x2 node).
        assert_eq!(om.size(o), 5);
    }

    #[test]
    fn parity_has_linear_ofdd_and_n_cubes() {
        let n = 10;
        let t = TruthTable::from_fn(n, |m| m.count_ones() % 2 == 1);
        let mut om = OfddManager::new(Polarity::all_positive(n));
        let o = om.from_table(&t).expect("uncapped");
        assert_eq!(om.num_cubes(o), n as u64);
        assert_eq!(om.size(o), n);
    }

    #[test]
    fn topo_order_children_first() {
        let t = TruthTable::from_fn(6, |m| (m % 11) < 4);
        let mut om = OfddManager::new(Polarity::all_positive(6));
        let o = om.from_table(&t).expect("uncapped");
        let order = om.topo_nodes(o);
        let mut pos = FxHashMap::default();
        for (i, h) in order.iter().enumerate() {
            pos.insert(*h, i);
        }
        for h in &order {
            let n = om.node(*h);
            for c in [n.lo, n.hi] {
                if !c.is_const() {
                    assert!(pos[&c] < pos[h], "child must precede parent");
                }
            }
        }
        assert_eq!(order.len(), om.size(o));
        assert_eq!(order.last(), Some(&o), "root comes last");
    }

    #[test]
    fn optimize_polarity_beats_positive_on_negated_and() {
        // ¬x0·¬x1·¬x2 has 1 cube in all-negative polarity but 8 in positive.
        let t = TruthTable::from_fn(3, |m| m == 0);
        assert_eq!(Fprm::from_table_positive(&t).num_cubes(), 8);
        let pol = optimize_polarity(&t, PolarityMode::Greedy);
        assert_eq!(pol, Polarity::all_negative(3));
        let f = Fprm::from_table(&t, &pol);
        assert_eq!(f.num_cubes(), 1);
        assert_eq!(f.to_table(), t);
    }

    #[test]
    fn from_bdd_trips_capped_manager() {
        let t = TruthTable::from_fn(8, |m| (m * 31 + 7) % 11 < 4);
        let mut bm = BddManager::new(8);
        let f = bm.from_table(&t).expect("uncapped");
        // the conversion drives the BDD manager through fresh XORs, so a
        // cap at the current size must trip
        bm.set_node_limit(Some(bm.num_nodes()));
        let mut om = OfddManager::new(Polarity::all_positive(8));
        assert!(om.from_bdd(&mut bm, f).is_err());
        // uncapped, the same conversion succeeds
        bm.set_node_limit(None);
        let o = om.from_bdd(&mut bm, f).expect("uncapped");
        assert_eq!(om.num_cubes(o), om.num_cubes(o));
    }

    #[test]
    fn capped_search_aborts_and_keeps_best() {
        // 17 support variables: too wide for the spectrum, so every
        // candidate converts the BDD to an OFDD
        let t = TruthTable::from_fn(17, |m| (m * 37 + 11) % 5 < 2);
        let mut bm = BddManager::new(17);
        let f = bm.from_table(&t).expect("uncapped");
        let support: Vec<usize> = bm.support(f).iter().collect();
        assert!(support.len() > SPECTRUM_LIMIT);
        // cap at the current size: the very first candidate is
        // unaffordable, so the search must fall back to all-positive with
        // an unknown count — without panicking
        bm.set_node_limit(Some(bm.num_nodes()));
        let mut search = PolaritySearch::new(&mut bm, f);
        let (pol, count) = search.run(PolarityMode::Greedy, &support);
        assert!(search.budget_tripped());
        assert_eq!(pol, Polarity::all_positive(17));
        assert_eq!(count, u64::MAX);
    }

    #[test]
    fn narrow_search_allocates_no_bdd_nodes() {
        let t = TruthTable::from_fn(6, |m| (m * 37 + 11) % 5 < 2);
        for mode in MODES {
            let mut free_bm = BddManager::new(6);
            let free_f = free_bm.from_table(&t).expect("uncapped");
            let support: Vec<usize> = free_bm.support(free_f).iter().collect();
            let uncapped = PolaritySearch::new(&mut free_bm, free_f).run(mode, &support);

            let mut bm = BddManager::new(6);
            let f = bm.from_table(&t).expect("uncapped");
            let nodes = bm.num_nodes();
            bm.set_node_limit(Some(nodes));
            let mut search = PolaritySearch::new(&mut bm, f);
            assert_eq!(search.run(mode, &support), uncapped, "{mode:?}");
            assert!(!search.budget_tripped(), "{mode:?}");
            assert_eq!(bm.num_nodes(), nodes, "{mode:?}");
        }
    }

    const MODES: [PolarityMode; 3] = [
        PolarityMode::AllPositive,
        PolarityMode::Greedy,
        PolarityMode::Exhaustive,
    ];

    /// A random function of `k` variables placed on variables of a wider
    /// manager with gaps of 0–2 unused variables before each, and one
    /// random polarity bit per manager variable.
    fn placed_function(seed: u64, k: usize) -> (BddManager, Bdd, Vec<usize>, Vec<bool>) {
        let mut s = seed;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s >> 33
        };
        let mut vars = Vec::with_capacity(k);
        let mut v = 0;
        for _ in 0..k {
            v += (next() % 3) as usize;
            vars.push(v);
            v += 1;
        }
        let n = v + (next() % 3) as usize;
        let t = TruthTable::from_fn(k, |_| next() & 1 == 1);
        let phases: Vec<bool> = (0..n).map(|_| next() & 1 == 1).collect();
        let mut bm = BddManager::new(n);
        let f = place(&mut bm, &t, &vars, 0, 0);
        (bm, f, vars, phases)
    }

    /// `t` with its variable `j` placed on manager variable `vars[j]`.
    fn place(bm: &mut BddManager, t: &TruthTable, vars: &[usize], j: usize, prefix: u64) -> Bdd {
        if j == vars.len() {
            return bm.constant(t.eval(prefix));
        }
        let lo = place(bm, t, vars, j + 1, prefix);
        let hi = place(bm, t, vars, j + 1, prefix | 1 << j);
        let x = bm.var(vars[j]).expect("uncapped");
        bm.ite(x, hi, lo).expect("uncapped")
    }

    /// Runs a search with a fresh trace buffer; returns its result, its
    /// budget flag and every `polarity.*` counter and gauge it recorded.
    fn traced<T>(
        go: impl FnOnce(&mut TraceBuffer) -> (T, bool),
    ) -> (T, bool, Vec<(String, u64)>, Option<f64>) {
        let sink = xsynth_trace::TraceSink::new();
        let mut buf = sink.buffer(0, "search");
        let (result, tripped) = go(&mut buf);
        drop(buf);
        let trace = sink.take();
        let counters = trace
            .counter_totals()
            .into_iter()
            .filter(|(name, _)| name.starts_with("polarity."))
            .collect();
        (
            result,
            tripped,
            counters,
            trace.gauge_max("polarity.best_cubes"),
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        #[test]
        fn spectrum_count_matches_ofdd_on_every_polarity(
            seed in proptest::arbitrary::any::<u64>(),
            k in 0usize..=10,
        ) {
            let (mut bm, f, vars, phases) = placed_function(seed, k);
            // the reference conversions run on a copy of the function, since
            // the search holds its manager
            let (mut ref_bm, ref_f, _, _) = placed_function(seed, k);
            let mut search = PolaritySearch::new(&mut bm, f);
            // variables off the support keep a random phase throughout
            let mut pol = Polarity::from_bits(&phases);
            for &v in &vars {
                pol.set(v, true);
            }
            for i in 0..(1u64 << k) {
                if i > 0 {
                    pol.flip(vars[i.trailing_zeros() as usize]);
                }
                let want = eval_polarity(&mut ref_bm, ref_f, &pol).expect("uncapped");
                proptest::prop_assert_eq!(search.evaluate(&pol), Some(want), "{:?}", pol);
            }
            proptest::prop_assert!(matches!(search.scorer, Some(Scorer::Spectrum { .. })));
        }

        #[test]
        fn search_matches_reference(
            seed in proptest::arbitrary::any::<u64>(),
            k in 0usize..=12,
            mode in 0usize..3,
            expired in proptest::arbitrary::any::<bool>(),
        ) {
            let (mut bm, f, vars, _) = placed_function(seed, k);
            let support: Vec<usize> = bm.support(f).iter().collect();
            let mode = MODES[mode];
            let deadline = expired
                .then(|| Instant::now() - std::time::Duration::from_millis(1));
            let want = traced(|buf| {
                let mut s = reference::PolaritySearch::new(&mut bm, f)
                    .deadline(deadline)
                    .trace(buf);
                (s.run(mode, &support), s.budget_tripped())
            });
            let got = traced(|buf| {
                let mut s = PolaritySearch::new(&mut bm, f).deadline(deadline).trace(buf);
                (s.run(mode, &support), s.budget_tripped())
            });
            proptest::prop_assert_eq!(&got, &want, "run {:?} on {:?}", mode, vars);
            // a direct greedy call builds the spectrum on its own
            let want = traced(|buf| {
                let mut s = reference::PolaritySearch::new(&mut bm, f)
                    .deadline(deadline)
                    .trace(buf);
                (s.greedy(&support), s.budget_tripped())
            });
            let got = traced(|buf| {
                let mut s = PolaritySearch::new(&mut bm, f).deadline(deadline).trace(buf);
                (s.greedy(&support), s.budget_tripped())
            });
            proptest::prop_assert_eq!(&got, &want, "greedy on {:?}", vars);
        }
    }

    #[test]
    fn expired_deadline_keeps_base_polarity_result() {
        let t = TruthTable::from_fn(6, |m| m.count_ones() % 3 == 1);
        let mut bm = BddManager::new(6);
        let f = bm.from_table(&t).expect("uncapped");
        let support: Vec<usize> = bm.support(f).iter().collect();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let mut search = PolaritySearch::new(&mut bm, f).deadline(Some(past));
        let (pol, count) = search.run(PolarityMode::Greedy, &support);
        // greedy evaluates the base polarity before the deadline gates the
        // flip rounds, so the result is the real all-positive count
        assert!(search.budget_tripped());
        assert_eq!(pol, Polarity::all_positive(6));
        assert_ne!(count, u64::MAX);
        // an unconstrained search finds a result at least as good
        let mut bm2 = BddManager::new(6);
        let f2 = bm2.from_table(&t).expect("uncapped");
        let mut free = PolaritySearch::new(&mut bm2, f2);
        let (_, free_count) = free.run(PolarityMode::Greedy, &support);
        assert!(free_count <= count);
    }

    #[test]
    fn constant_functions() {
        let mut om = OfddManager::new(Polarity::all_positive(3));
        let z = om.from_table(&TruthTable::zero(3)).expect("uncapped");
        let one = om.from_table(&TruthTable::one(3)).expect("uncapped");
        assert_eq!(z, Ofdd::ZERO);
        assert_eq!(one, Ofdd::ONE);
        assert_eq!(om.cubes(one).to_sets(), vec![VarSet::new()]);
        assert!(om.cubes(z).is_empty());
    }

    /// Lowers `o` into a one-output network over inputs `x0..`, with a
    /// fresh inverter per complemented literal.
    fn lowered(m: &OfddManager, o: Ofdd) -> Network {
        let mut net = Network::new("dd");
        let inputs: Vec<SignalId> = (0..m.num_vars())
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        let s = m.to_network(o, &mut net, &mut |net, id| match id % 2 {
            0 => inputs[id / 2],
            _ => net.add_gate(GateKind::Not, vec![inputs[id / 2]]),
        });
        net.add_output("f", s);
        net
    }

    /// Builds `t` under `types` and checks that evaluation and the lowered
    /// network both agree with it; returns the node count.
    fn check_types(t: &TruthTable, types: Vec<Decomposition>) -> usize {
        let mut m = OfddManager::with_types(types);
        let o = m.from_table(t).expect("uncapped");
        let net = lowered(&m, o);
        for mt in 0..(1u64 << t.num_vars()) {
            assert_eq!(m.eval(o, mt), t.eval(mt), "at {mt}");
            assert_eq!(net.eval_u64(mt)[0], t.eval(mt), "lowered at {mt}");
        }
        m.size(o)
    }

    #[test]
    fn polarity_is_the_all_davio_list() {
        let pol = Polarity::from_index(6, 0b100110);
        let t = TruthTable::from_fn(6, |m| (m * 31 + 7) % 9 < 4);
        let types: Vec<Decomposition> = (0..6)
            .map(|v| match pol.is_positive(v) {
                true => Decomposition::PositiveDavio,
                false => Decomposition::NegativeDavio,
            })
            .collect();
        assert_eq!(OfddManager::new(pol.clone()).types(), &types[..]);
        let size = check_types(&t, types);
        let mut om = OfddManager::new(pol);
        let o = om.from_table(&t).expect("uncapped");
        assert_eq!(om.size(o), size);
    }

    #[test]
    fn pure_shannon_matches_bdd_size() {
        let t = TruthTable::from_fn(6, |m| (m * 13 + 5) % 11 < 5);
        let size = check_types(&t, vec![Decomposition::Shannon; 6]);
        let mut bm = BddManager::new(6);
        let f = bm.from_table(&t).expect("uncapped");
        // the diagram has no complement edges, so compare against the
        // complement-free ROBDD: distinct non-constant subfunctions, with
        // g and ¬g counted apart
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if !g.is_const() && seen.insert(g) {
                stack.extend([bm.low(g), bm.high(g)]);
            }
        }
        assert_eq!(size, seen.len());
    }

    #[test]
    fn mixed_types_all_valid() {
        use Decomposition::*;
        let t = TruthTable::from_fn(5, |m| m.count_ones() % 2 == 1 || m == 17);
        for types in [
            vec![
                Shannon,
                PositiveDavio,
                NegativeDavio,
                Shannon,
                PositiveDavio,
            ],
            vec![NegativeDavio; 5],
            vec![
                Shannon,
                Shannon,
                PositiveDavio,
                PositiveDavio,
                NegativeDavio,
            ],
        ] {
            check_types(&t, types);
        }
    }

    #[test]
    fn shannon_constants() {
        let mut m = OfddManager::with_types(vec![Decomposition::Shannon; 3]);
        assert_eq!(m.from_table(&TruthTable::zero(3)), Ok(Ofdd::ZERO));
        assert_eq!(m.from_table(&TruthTable::one(3)), Ok(Ofdd::ONE));
        // x0·x1 has constant children under Shannon: one gate each
        let t = TruthTable::var(3, 0) & TruthTable::var(3, 1);
        check_types(&t, vec![Decomposition::Shannon; 3]);
        let o = m.from_table(&t).expect("uncapped");
        let net = lowered(&m, o);
        let consts = net
            .topo_order()
            .into_iter()
            .filter(|&id| net.gate_kind(id) == Some(GateKind::Const0))
            .count();
        assert_eq!(consts, 1);
    }

    #[test]
    fn lowering_constants() {
        let mut om = OfddManager::new(Polarity::all_positive(3));
        for (t, want) in [(TruthTable::zero(3), false), (TruthTable::one(3), true)] {
            let o = om.from_table(&t).expect("uncapped");
            assert_eq!(lowered(&om, o).eval_u64(5), vec![want]);
        }
    }

    #[test]
    fn davio_lowering_has_binary_xors() {
        let t = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
        let mut om = OfddManager::new(Polarity::from_index(5, 0b01101));
        let o = om.from_table(&t).expect("uncapped");
        let net = lowered(&om, o);
        for id in net.topo_order() {
            if net.gate_kind(id) == Some(GateKind::Xor) {
                assert_eq!(net.fanins(id).len(), 2);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(96))]

        /// Random tables of up to 8 variables under random decomposition
        /// lists: evaluation and the lowered network equal the table, and
        /// an all-Davio list's cubes are the FPRM form of its polarity.
        #[test]
        fn any_decomposition_list_matches_its_table(
            seed in proptest::arbitrary::any::<u64>(),
            k in 0usize..=8,
            davio_only in proptest::arbitrary::any::<bool>(),
        ) {
            let mut s = seed;
            let mut next = move || {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s >> 33
            };
            let t = TruthTable::from_fn(k, |_| next() & 1 == 1);
            let types: Vec<Decomposition> = (0..k)
                .map(|_| match next() % if davio_only { 2 } else { 3 } {
                    0 => Decomposition::PositiveDavio,
                    1 => Decomposition::NegativeDavio,
                    _ => Decomposition::Shannon,
                })
                .collect();
            let mut m = OfddManager::with_types(types.clone());
            let o = m.from_table(&t).expect("uncapped");
            let net = lowered(&m, o);
            for mt in 0..(1u64 << k) {
                proptest::prop_assert_eq!(m.eval(o, mt), t.eval(mt), "{:?} at {}", types, mt);
                proptest::prop_assert_eq!(net.eval_u64(mt)[0], t.eval(mt), "{:?} at {}", types, mt);
            }
            if davio_only {
                let bits: Vec<bool> = types
                    .iter()
                    .map(|&d| d == Decomposition::PositiveDavio)
                    .collect();
                let pol = Polarity::from_bits(&bits);
                let mut got = m.cubes(o).to_sets();
                let mut want = Fprm::from_table(&t, &pol).cubes().to_vec();
                got.sort();
                want.sort();
                proptest::prop_assert_eq!(got, want, "{:?}", types);
            }
        }
    }
}
