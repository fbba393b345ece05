//! A reduced ordered binary decision diagram (ROBDD) package with
//! complement edges.
//!
//! This is the workspace's stand-in for the "SIS 1.2 ROBDD package" the
//! paper builds on (Bryant, 1986). It provides a [`BddManager`] arena with a
//! unique table (so equivalent functions share one canonical node and
//! equivalence checking is pointer comparison), the usual apply operations,
//! cofactors, satisfy counting and conversion to and from the
//! representations in [`xsynth_boolean`].
//!
//! # Complement edges
//!
//! A [`Bdd`] handle carries a *complement bit*: `f` and `¬f` share one
//! stored node and differ only in that bit, so negation is a bit flip —
//! O(1), allocation-free — and the DAG holds roughly half the nodes a
//! complement-free package would for negation-heavy workloads (the
//! paper's FPRM descent negates on every polarity flip and Davio
//! expansion). Canonicity is preserved by the standard normalization:
//! a complement may only be stored on the *low* (else) edge — the stored
//! high (then) edge is always regular — and there is a single regular
//! `one` terminal (`ZERO` is its complement). `mk` re-normalizes a
//! complemented then-edge by complementing both children and returning a
//! complemented handle, so two handles are equal if and only if they
//! denote the same function, exactly as before.
//!
//! # Ownership
//!
//! A manager is a plain single-owner value: one node vector, one unique
//! table, one apply cache and plain counters. Operations that can
//! allocate take `&mut self`; reads (child traversal, evaluation,
//! counting, support) take `&self`. A synthesis job owns its manager and
//! runs on one thread, so the borrow checker, not a lock, proves the
//! manager is never shared.
//!
//! Every mutation is one complete insert: a node is pushed and entered
//! in the unique table, or an apply result is cached, only after it has
//! been fully computed. A panic that unwinds out of an operation (an
//! armed failpoint, contained by `TraceBuffer::contain` further up) can
//! therefore leave only extra valid nodes and cache entries behind,
//! never a half-built one, and every handle made before it stays valid.
//!
//! The node cap ([`BddManager::set_node_limit`]) is checked against the
//! node count on every allocation. Nodes are never freed individually; a
//! manager's nodes all go when it is dropped, which is why the synthesis
//! pipeline builds one per job and garbage-collects by copying live roots
//! out of scratch managers ([`BddManager::copy_roots`]).
//!
//! # Errors
//!
//! Each operation that can allocate returns `Result<_, NodeLimitExceeded>`;
//! there is no panicking twin. Negation ([`BddManager::not`]) allocates
//! nothing and is infallible.
//!
//! # Examples
//!
//! ```
//! use xsynth_bdd::{BddManager, NodeLimitExceeded};
//!
//! let mut m = BddManager::new(3);
//! let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
//! let ab = m.and(a, b)?;
//! let f = m.or(ab, c)?;
//! let g = m.ite(a, b, c)?; // a·b + ¬a·c
//! assert_ne!(f, g);
//! assert_eq!(m.eval(f, 0b011), true);
//! // negation is a complement-bit flip: free, and an involution
//! let nf = m.not(f);
//! assert_eq!(m.not(nf), f);
//! # Ok::<(), NodeLimitExceeded>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use xsynth_boolean::{FxHashMap, FxHashSet, TruthTable, VarSet};

/// Error returned by an operation that would allocate past the manager's
/// node cap (see
/// [`BddManager::set_node_limit`]).
///
/// The manager is left in a usable state: every handle created before the
/// failed operation remains valid, so callers can keep the best result
/// obtained so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLimitExceeded {
    /// The node cap that was in force when allocation failed.
    pub limit: usize,
}

impl std::fmt::Display for NodeLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BDD node limit of {} nodes exceeded", self.limit)
    }
}

impl std::error::Error for NodeLimitExceeded {}

/// Most nodes one manager can address: a handle is a `u32` whose low bit
/// is the complement edge.
const MAX_NODES: usize = 1 << 31;

/// A handle to a BDD node inside a [`BddManager`].
///
/// Handles are canonical: two handles from the same manager are equal if
/// and only if they denote the same Boolean function. The numeric value
/// of a handle is the node's index in allocation order shifted left by
/// one, plus a complement bit (bit 0 — `f` and `¬f` address the same
/// stored node). Nothing semantic may depend on handle numbering — only
/// on handle *equality*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-one function: the package's single regular terminal.
    pub const ONE: Bdd = Bdd(0);
    /// The constant-zero function — the complement edge onto the `one`
    /// terminal.
    pub const ZERO: Bdd = Bdd(1);

    /// Whether this is a terminal (constant) node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Raw index, for debugging and statistics.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The complement bit (0 or 1) as a handle-XOR mask.
    fn cbit(self) -> u32 {
        self.0 & 1
    }

    /// This function negated: the same stored node, complement flipped.
    fn complement(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (complement-stripped) handle of the stored node.
    fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// XORs a complement mask (0 or 1) into the handle.
    fn xor_c(self, c: u32) -> Bdd {
        Bdd(self.0 ^ c)
    }

    /// Position of the stored node in the manager's node vector.
    fn slot(self) -> usize {
        (self.0 >> 1) as usize
    }
}

/// An [`BddManager::eval_words`] operand: the slot of its value (slot 0
/// holds the `one` terminal) and a complement mask (`0` or `!0`).
type WordOperand = (u32, u64);

/// One node of an [`BddManager::eval_words`] evaluation order: its
/// variable and its low and high operands.
type WordNode = (usize, WordOperand, WordOperand);

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    /// Low (else) edge — the one edge a complement may be stored on.
    lo: Bdd,
    /// High (then) edge — always regular in canonical form.
    hi: Bdd,
}

const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Xor,
}

/// A store of shared, reduced, ordered BDD nodes over a fixed number of
/// variables in natural index order.
#[derive(Debug)]
pub struct BddManager {
    n: usize,
    /// Every node in allocation order; slot 0 is the terminal.
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, Bdd, Bdd), Bdd>,
    apply: FxHashMap<(Op, Bdd, Bdd), Bdd>,
    /// The node cap, terminal included; `usize::MAX` means uncapped.
    limit: usize,
    apply_hits: u64,
    apply_misses: u64,
}

impl BddManager {
    /// Creates a manager for functions of `n` variables.
    pub fn new(n: usize) -> Self {
        // the single terminal lives at slot 0, so its regular handle is
        // the fixed 0 (`ONE`) and its complement 1 (`ZERO`)
        let terminal = Node {
            var: TERMINAL_VAR,
            lo: Bdd::ONE,
            hi: Bdd::ONE,
        };
        BddManager {
            n,
            nodes: vec![terminal],
            unique: FxHashMap::default(),
            apply: FxHashMap::default(),
            limit: usize::MAX,
            apply_hits: 0,
            apply_misses: 0,
        }
    }

    /// Creates a manager for `n` variables that refuses to grow past
    /// `limit` nodes (the terminal included): an operation that would
    /// allocate past it returns [`NodeLimitExceeded`].
    pub fn with_node_limit(n: usize, limit: usize) -> Self {
        let mut m = Self::new(n);
        m.limit = limit;
        m
    }

    /// Sets (`Some`) or clears (`None`) the node cap. Nodes already
    /// allocated are unaffected; only future allocations are checked.
    pub fn set_node_limit(&mut self, limit: Option<usize>) {
        self.limit = limit.unwrap_or(usize::MAX);
    }

    /// The node cap, if one is set.
    pub fn node_limit(&self) -> Option<usize> {
        (self.limit != usize::MAX).then_some(self.limit)
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Total number of nodes allocated in this manager (including the
    /// terminal). `f` and `¬f` share one node, so building
    /// the negation of an existing function allocates nothing.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Apply-cache hits and misses accumulated over the life of the
    /// manager. The *ratio* proves cache effectiveness — e.g. that
    /// commutative operand normalization turns `and(g, f)` into a hit
    /// after `and(f, g)`, that `or` shares the `and` cache through De
    /// Morgan, and that `xor` keys are complement-stripped so `xor(¬f, g)`
    /// hits the `xor(f, g)` entry.
    pub fn apply_cache_stats(&self) -> (u64, u64) {
        (self.apply_hits, self.apply_misses)
    }

    /// Canonical-form violations in the stored node set: entries whose
    /// then-edge carries a complement, whose children are equal (the
    /// reduction rule should have elided the node), or whose unique-table
    /// key disagrees with the stored node, plus stored nodes missing from
    /// the unique table. Always 0 — exposed so tests can assert the
    /// invariant.
    #[doc(hidden)]
    pub fn canonical_violations(&self) -> usize {
        let mut violations = (self.nodes.len() - 1).abs_diff(self.unique.len());
        for (&(var, lo, hi), &id) in &self.unique {
            let stored_matches = self
                .nodes
                .get(id.slot())
                .is_some_and(|n| n.var == var && n.lo == lo && n.hi == hi);
            if hi.cbit() != 0 || lo == hi || !stored_matches || id.cbit() != 0 {
                violations += 1;
            }
        }
        violations
    }

    /// The constant function `value`.
    pub fn constant(&self, value: bool) -> Bdd {
        if value {
            Bdd::ONE
        } else {
            Bdd::ZERO
        }
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()` (a programming error).
    pub fn var(&mut self, var: usize) -> Result<Bdd, NodeLimitExceeded> {
        assert!(var < self.n, "variable {var} out of range");
        self.mk(var as u32, Bdd::ZERO, Bdd::ONE)
    }

    /// The complemented projection `¬var`. Shares the projection's node:
    /// after `var(v)` this allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `var >= self.num_vars()` (a programming error).
    pub fn nvar(&mut self, var: usize) -> Result<Bdd, NodeLimitExceeded> {
        Ok(self.var(var)?.complement())
    }

    /// Hash-conses `(var, lo, hi)` after complement normalization: a
    /// complemented then-edge is rewritten by complementing both children
    /// and returning a complemented handle, so the *stored* then-edge is
    /// always regular and `f`/`¬f` resolve to one node.
    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        if lo == hi {
            return Ok(lo);
        }
        // canonical form: complements live on the else-edge only
        let c = hi.cbit();
        let key = (var, lo.xor_c(c), hi.xor_c(c));
        if let Some(&b) = self.unique.get(&key) {
            return Ok(b.xor_c(c));
        }
        let limit = self.limit;
        xsynth_trace::fail_point!("bdd.alloc", Err(NodeLimitExceeded { limit }));
        if self.nodes.len() >= limit.min(MAX_NODES) {
            return Err(NodeLimitExceeded { limit });
        }
        let id = Bdd((self.nodes.len() as u32) << 1);
        let (var, lo, hi) = key;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert(key, id);
        Ok(id.xor_c(c))
    }

    /// The stored node a handle (of either polarity) addresses.
    fn node(&self, b: Bdd) -> Node {
        self.nodes[b.slot()]
    }

    /// Top variable of a non-constant handle.
    fn var_of(&self, b: Bdd) -> u32 {
        self.node(b).var
    }

    /// Cofactors of `b` (non-constant) at `var`, which must be at or above
    /// `b`'s top variable. The stored children inherit the handle's
    /// complement bit — the identity `(¬f)|ₓ = ¬(f|ₓ)` as a handle XOR.
    fn cofactors_at(&self, b: Bdd, var: u32) -> (Bdd, Bdd) {
        let n = self.node(b);
        if n.var == var {
            let c = b.cbit();
            (n.lo.xor_c(c), n.hi.xor_c(c))
        } else {
            (b, b)
        }
    }

    /// The top variable of `b`, or `None` for constants.
    pub fn top_var(&self, b: Bdd) -> Option<usize> {
        if b.is_const() {
            None
        } else {
            Some(self.node(b).var as usize)
        }
    }

    /// The low (var = 0) child, with the handle's complement resolved;
    /// `b` itself for constants.
    pub fn low(&self, b: Bdd) -> Bdd {
        if b.is_const() {
            b
        } else {
            self.node(b).lo.xor_c(b.cbit())
        }
    }

    /// The high (var = 1) child, with the handle's complement resolved;
    /// `b` itself for constants.
    pub fn high(&self, b: Bdd) -> Bdd {
        if b.is_const() {
            b
        } else {
            self.node(b).hi.xor_c(b.cbit())
        }
    }

    fn and_rec(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        if f == Bdd::ZERO || g == Bdd::ZERO || f == g.complement() {
            return Ok(Bdd::ZERO);
        }
        if f == Bdd::ONE || f == g {
            return Ok(g);
        }
        if g == Bdd::ONE {
            return Ok(f);
        }
        // commutative: normalize operand order for the cache, so
        // and(g, f) hits the entry and(f, g) populated
        let key = if f <= g {
            (Op::And, f, g)
        } else {
            (Op::And, g, f)
        };
        if let Some(&r) = self.apply.get(&key) {
            self.apply_hits += 1;
            return Ok(r);
        }
        self.apply_misses += 1;
        let var = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.and_rec(f0, g0)?;
        let hi = self.and_rec(f1, g1)?;
        let r = self.mk(var, lo, hi)?;
        self.apply.insert(key, r);
        Ok(r)
    }

    fn xor_rec(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        if f == Bdd::ZERO {
            return Ok(g);
        }
        if g == Bdd::ZERO {
            return Ok(f);
        }
        if f == Bdd::ONE {
            return Ok(g.complement());
        }
        if g == Bdd::ONE {
            return Ok(f.complement());
        }
        if f == g {
            return Ok(Bdd::ZERO);
        }
        if f == g.complement() {
            return Ok(Bdd::ONE);
        }
        // xor is complement-invariant: strip both complement bits from
        // the key and re-apply their parity to the result, so xor(¬f, g)
        // hits the entry xor(f, g) populated (and costs no new nodes)
        let c = f.cbit() ^ g.cbit();
        let (f, g) = (f.regular(), g.regular());
        let key = if f <= g {
            (Op::Xor, f, g)
        } else {
            (Op::Xor, g, f)
        };
        if let Some(&r) = self.apply.get(&key) {
            self.apply_hits += 1;
            return Ok(r.xor_c(c));
        }
        self.apply_misses += 1;
        let var = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors_at(f, var);
        let (g0, g1) = self.cofactors_at(g, var);
        let lo = self.xor_rec(f0, g0)?;
        let hi = self.xor_rec(f1, g1)?;
        let r = self.mk(var, lo, hi)?;
        self.apply.insert(key, r);
        Ok(r.xor_c(c))
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        self.and_rec(f, g)
    }

    /// Disjunction, computed by De Morgan over the conjunction — with
    /// complement edges the negations are free, and `or(f, g)` shares the
    /// apply-cache entries of `and(¬f, ¬g)`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        Ok(self.and_rec(f.complement(), g.complement())?.complement())
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        self.xor_rec(f, g)
    }

    /// Negation: a complement-bit flip. O(1), allocation-free, and never
    /// fails — it cannot trip a node cap because it creates no node.
    pub fn not(&self, f: Bdd) -> Bdd {
        f.complement()
    }

    /// If-then-else: `c·t + ¬c·e`.
    pub fn ite(&mut self, c: Bdd, t: Bdd, e: Bdd) -> Result<Bdd, NodeLimitExceeded> {
        let ct = self.and(c, t)?;
        let nce = self.and(c.complement(), e)?;
        self.or(ct, nce)
    }

    /// Cofactor of `f` with `var` fixed to `phase`.
    pub fn cofactor(&mut self, f: Bdd, var: usize, phase: bool) -> Result<Bdd, NodeLimitExceeded> {
        let mut memo = FxHashMap::default();
        self.cofactor_rec(f, var as u32, phase, &mut memo)
    }

    fn cofactor_rec(
        &mut self,
        f: Bdd,
        var: u32,
        phase: bool,
        memo: &mut FxHashMap<Bdd, Bdd>,
    ) -> Result<Bdd, NodeLimitExceeded> {
        if f.is_const() {
            return Ok(f);
        }
        let n = self.node(f);
        if n.var > var {
            return Ok(f);
        }
        if let Some(&r) = memo.get(&f) {
            return Ok(r);
        }
        let c = f.cbit();
        let r = if n.var == var {
            if phase {
                n.hi.xor_c(c)
            } else {
                n.lo.xor_c(c)
            }
        } else {
            let lo = self.cofactor_rec(n.lo.xor_c(c), var, phase, memo)?;
            let hi = self.cofactor_rec(n.hi.xor_c(c), var, phase, memo)?;
            self.mk(n.var, lo, hi)?
        };
        memo.insert(f, r);
        Ok(r)
    }

    /// Evaluates `f` on the assignment encoded in `minterm` (bit `i` =
    /// variable `i`).
    pub fn eval(&self, f: Bdd, minterm: u64) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            let next = if minterm & (1u64 << n.var) != 0 {
                n.hi
            } else {
                n.lo
            };
            // complement parity accumulates down the path
            cur = next.xor_c(cur.cbit());
        }
        cur == Bdd::ONE
    }

    /// Evaluates `f` on 64 assignments per block at once: in each block,
    /// word `v` holds variable `v`'s value in every bit lane, and bit `k`
    /// of the block's result is `f` on lane `k`'s assignment. The DAG
    /// under `f` is walked once; each block then costs one word
    /// multiplexer per node.
    ///
    /// # Panics
    ///
    /// Panics if a block has no word for a variable `f` depends on.
    pub fn eval_words<'w>(&self, f: Bdd, blocks: impl IntoIterator<Item = &'w [u64]>) -> Vec<u64> {
        // children before parents
        let mut slot_of: FxHashMap<Bdd, u32> = FxHashMap::default();
        let mut prog: Vec<WordNode> = Vec::new();
        let root = self.word_operand(f, &mut slot_of, &mut prog);
        let mut val = vec![!0u64; prog.len() + 1];
        blocks
            .into_iter()
            .map(|words| {
                for (i, &(var, lo, hi)) in prog.iter().enumerate() {
                    let x = words[var];
                    let l = val[lo.0 as usize] ^ lo.1;
                    let h = val[hi.0 as usize] ^ hi.1;
                    val[i + 1] = (x & h) | (!x & l);
                }
                val[root.0 as usize] ^ root.1
            })
            .collect()
    }

    /// The [`BddManager::eval_words`] operand of `b`, appending the nodes
    /// under it to `prog` first.
    fn word_operand(
        &self,
        b: Bdd,
        slot_of: &mut FxHashMap<Bdd, u32>,
        prog: &mut Vec<WordNode>,
    ) -> WordOperand {
        let mask = if b.cbit() == 1 { !0 } else { 0 };
        if b.is_const() {
            return (0, mask);
        }
        let r = b.regular();
        if let Some(&slot) = slot_of.get(&r) {
            return (slot, mask);
        }
        let n = self.node(r);
        let lo = self.word_operand(n.lo, slot_of, prog);
        let hi = self.word_operand(n.hi, slot_of, prog);
        prog.push((n.var as usize, lo, hi));
        let slot = prog.len() as u32;
        slot_of.insert(r, slot);
        (slot, mask)
    }

    /// Number of satisfying assignments over all `n` variables, computed
    /// exactly by integer node-weight accumulation (no float rounding, so
    /// counts stay exact past the ~52-variable precision limit of `f64`).
    ///
    /// Saturates at `u128::MAX` for managers over 128 or more variables,
    /// where the count itself can overflow.
    pub fn count_sat(&self, f: Bdd) -> u128 {
        // weight(b) = satisfying assignments over variables >= level(b),
        // where level is the node's variable index and n for terminals.
        let mut memo: FxHashMap<Bdd, u128> = FxHashMap::default();
        let w = self.sat_weight(f, &mut memo);
        Self::shl_sat(w, self.level(f))
    }

    fn level(&self, b: Bdd) -> u32 {
        if b.is_const() {
            self.n as u32
        } else {
            self.node(b).var
        }
    }

    fn shl_sat(v: u128, k: u32) -> u128 {
        if v == 0 {
            0
        } else if k >= 128 || v.leading_zeros() < k {
            u128::MAX
        } else {
            v << k
        }
    }

    fn sat_weight(&self, f: Bdd, memo: &mut FxHashMap<Bdd, u128>) -> u128 {
        if f == Bdd::ZERO {
            return 0;
        }
        if f == Bdd::ONE {
            return 1;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        // memoized on the full handle: f and ¬f have different weights,
        // so the complement bit is part of the key
        let (lo_h, hi_h) = (self.low(f), self.high(f));
        let var = self.node(f).var;
        let lo = self.sat_weight(lo_h, memo);
        let hi = self.sat_weight(hi_h, memo);
        let lo = Self::shl_sat(lo, self.level(lo_h) - var - 1);
        let hi = Self::shl_sat(hi, self.level(hi_h) - var - 1);
        let r = lo.saturating_add(hi);
        memo.insert(f, r);
        r
    }

    /// The set of variables `f` depends on.
    pub fn support(&self, f: Bdd) -> VarSet {
        let mut seen = FxHashSet::default();
        let mut sup = VarSet::new();
        // complement bits never change the support; traverse the stored
        // (regular) node graph so f and ¬f walk identical sets
        let mut stack = vec![f.regular()];
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            let n = self.node(b);
            sup.insert(n.var as usize);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        sup
    }

    /// Number of distinct internal nodes in the DAG rooted at `f`.
    /// Complement edges are transparent: `f` and `¬f` share every node,
    /// so their sizes are equal.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![f.regular()];
        let mut count = 0;
        while let Some(b) = stack.pop() {
            if b.is_const() || !seen.insert(b) {
                continue;
            }
            count += 1;
            let n = self.node(b);
            stack.push(n.lo.regular());
            stack.push(n.hi.regular());
        }
        count
    }

    #[allow(clippy::wrong_self_convention)] // manager-style constructor, as in CUDD
    /// Builds a BDD from a truth table.
    ///
    /// # Panics
    ///
    /// Panics if the table's arity differs from the manager's (a
    /// programming error).
    pub fn from_table(&mut self, t: &TruthTable) -> Result<Bdd, NodeLimitExceeded> {
        assert_eq!(t.num_vars(), self.n, "arity mismatch");
        self.from_table_rec(t, 0, 0)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_table_rec(
        &mut self,
        t: &TruthTable,
        var: usize,
        prefix: u64,
    ) -> Result<Bdd, NodeLimitExceeded> {
        if var == self.n {
            return Ok(self.constant(t.eval(prefix)));
        }
        let lo = self.from_table_rec(t, var + 1, prefix)?;
        let hi = self.from_table_rec(t, var + 1, prefix | (1 << var))?;
        self.mk(var as u32, lo, hi)
    }

    /// Copies the DAGs rooted at `roots` into `dst` (same arity),
    /// returning the corresponding handles in `dst`, in order.
    ///
    /// Only nodes *reachable* from `roots` are allocated in `dst` — this
    /// is garbage collection by copy: a construction's dead intermediate
    /// nodes (hash-consed but no longer referenced) stay behind in
    /// `self`, so building in a scratch manager and copying the live
    /// roots out leaves the destination manager holding exactly the
    /// live structure. Complement bits are preserved; shared nodes are
    /// copied once. The copy observes `dst`'s node cap.
    ///
    /// # Panics
    ///
    /// Panics on an arity mismatch (a programming error).
    pub fn copy_roots(
        &self,
        roots: &[Bdd],
        dst: &mut BddManager,
    ) -> Result<Vec<Bdd>, NodeLimitExceeded> {
        assert_eq!(self.n, dst.n, "arity mismatch");
        let mut memo: FxHashMap<Bdd, Bdd> = FxHashMap::default();
        roots
            .iter()
            .map(|&r| self.copy_rec(r, dst, &mut memo))
            .collect()
    }

    fn copy_rec(
        &self,
        f: Bdd,
        dst: &mut BddManager,
        memo: &mut FxHashMap<Bdd, Bdd>,
    ) -> Result<Bdd, NodeLimitExceeded> {
        if f.is_const() {
            return Ok(f);
        }
        // memoize on the regular handle so f and ¬f share one copy
        let reg = f.regular();
        if let Some(&r) = memo.get(&reg) {
            return Ok(r.xor_c(f.cbit()));
        }
        let n = self.node(reg);
        let lo = self.copy_rec(n.lo, dst, memo)?;
        let hi = self.copy_rec(n.hi, dst, memo)?;
        let r = dst.mk(n.var, lo, hi)?;
        memo.insert(reg, r);
        Ok(r.xor_c(f.cbit()))
    }

    /// Converts `f` to a truth table (requires `n ≤ MAX_TT_VARS`).
    pub fn to_table(&self, f: Bdd) -> TruthTable {
        TruthTable::from_fn(self.n, |m| self.eval(f, m))
    }

    /// One satisfying assignment of `f` (variables outside the support are
    /// set to 0), or `None` when `f` is unsatisfiable.
    pub fn any_sat(&self, f: Bdd) -> Option<Vec<bool>> {
        if f == Bdd::ZERO {
            return None;
        }
        let mut assignment = vec![false; self.n];
        let mut cur = f;
        while !cur.is_const() {
            let var = self.node(cur).var as usize;
            let lo = self.low(cur);
            if lo != Bdd::ZERO {
                cur = lo;
            } else {
                assignment[var] = true;
                cur = self.high(cur);
            }
        }
        debug_assert_eq!(cur, Bdd::ONE, "reduced BDDs reach 1 by avoiding 0");
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_equality() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(3);
        let (a, b) = (m.var(0)?, m.var(1)?);
        let ab = m.and(a, b)?;
        let ba = m.and(b, a)?;
        assert_eq!(ab, ba);
        let na = m.not(a);
        let nna = m.not(na);
        assert_eq!(a, nna);
        Ok(())
    }

    #[test]
    fn complement_edges_share_nodes_and_negation_is_free() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(4);
        assert_eq!(Bdd::ZERO, Bdd::ONE.complement());
        let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
        let ab = m.and(a, b)?;
        let f = m.xor(ab, c)?;
        let before = m.num_nodes();
        // negation allocates nothing: f and ¬f share one stored node
        let nf = m.not(f);
        assert_eq!(m.num_nodes(), before, "not must be allocation-free");
        assert_ne!(nf, f);
        assert_eq!(m.not(nf), f);
        assert_eq!(m.size(nf), m.size(f), "f and ¬f share the whole DAG");
        // the complemented projection rides the projection's node
        let na = m.nvar(0)?;
        assert_eq!(m.num_nodes(), before, "nvar reuses var's node");
        assert_eq!(na, m.not(a));
        assert_eq!(m.canonical_violations(), 0);
        Ok(())
    }

    #[test]
    fn stored_then_edges_are_always_regular() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(5);
        let t = TruthTable::from_fn(5, |v| (v * 31 + 7) % 3 == 0);
        let f = m.from_table(&t)?;
        let g = m.not(f);
        let x = m.xor(f, g)?;
        assert_eq!(x, Bdd::ONE, "f xor ¬f is a tautology");
        assert_eq!(m.canonical_violations(), 0);
        Ok(())
    }

    #[test]
    fn demorgan() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(2);
        let (a, b) = (m.var(0)?, m.var(1)?);
        let and = m.and(a, b)?;
        let nand = m.not(and);
        let (na, nb) = (m.not(a), m.not(b));
        let or = m.or(na, nb)?;
        assert_eq!(nand, or);
        Ok(())
    }

    #[test]
    fn xor_identities() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(4);
        let (a, b) = (m.var(0)?, m.var(1)?);
        let x = m.xor(a, b)?;
        let x2 = m.xor(x, b)?;
        assert_eq!(x2, a);
        let zero = m.xor(a, a)?;
        assert_eq!(zero, Bdd::ZERO);
        let one = m.constant(true);
        let nx = m.xor(x, one)?;
        let notx = m.not(x);
        assert_eq!(nx, notx);
        Ok(())
    }

    #[test]
    fn eval_matches_semantics() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
        let ab = m.and(a, b)?;
        let f = m.or(ab, c)?;
        for mt in 0..8u64 {
            let expect = (mt & 1 != 0 && mt & 2 != 0) || mt & 4 != 0;
            assert_eq!(m.eval(f, mt), expect);
        }
        // the complement evaluates complemented everywhere
        let nf = m.not(f);
        for mt in 0..8u64 {
            assert_eq!(m.eval(nf, mt), !m.eval(f, mt));
        }
        Ok(())
    }

    #[test]
    fn table_roundtrip() -> Result<(), NodeLimitExceeded> {
        let t = TruthTable::from_fn(6, |m| (m * 37 + 11) % 5 < 2);
        let mut m = BddManager::new(6);
        let f = m.from_table(&t)?;
        assert_eq!(m.to_table(f), t);
        assert_eq!(m.count_sat(f), t.count_ones() as u128);
        // negation inverts the count over the full space
        let nf = m.not(f);
        assert_eq!(m.count_sat(nf), (1u128 << 6) - t.count_ones() as u128);
        Ok(())
    }

    #[test]
    fn cofactor_and_support() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(3);
        let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
        let bc = m.and(b, c)?;
        let f = m.ite(a, bc, c)?;
        let f1 = m.cofactor(f, 0, true)?;
        assert_eq!(f1, bc);
        let f0 = m.cofactor(f, 0, false)?;
        assert_eq!(f0, c);
        let sup = m.support(f);
        assert_eq!(sup, VarSet::from_vars([0, 1, 2]));
        assert!(m.support(c).contains(2));
        assert_eq!(m.support(Bdd::ONE), VarSet::new());
        // cofactoring commutes with complement
        let nf = m.not(f);
        let nf1 = m.cofactor(nf, 0, true)?;
        assert_eq!(nf1, m.not(bc));
        assert_eq!(m.support(nf), sup);
        Ok(())
    }

    #[test]
    fn count_sat_of_and() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(5);
        let a = m.var(3)?;
        let b = m.var(1)?;
        let ab = m.and(a, b)?;
        assert_eq!(m.count_sat(ab), 8);
        let nab = m.not(ab);
        assert_eq!(m.count_sat(nab), 24);
        Ok(())
    }

    #[test]
    fn adder_bdd_is_compact() -> Result<(), NodeLimitExceeded> {
        // carry-out of an 8-bit adder has a linear-size BDD with interleaved
        // variable order.
        let n = 16;
        let mut m = BddManager::new(n);
        let mut carry = Bdd::ZERO;
        for i in 0..8 {
            let a = m.var(2 * i)?;
            let b = m.var(2 * i + 1)?;
            let ab = m.and(a, b)?;
            let axb = m.xor(a, b)?;
            let t = m.and(axb, carry)?;
            carry = m.or(ab, t)?;
        }
        assert!(m.size(carry) <= 3 * 8, "adder carry BDD should be linear");
        Ok(())
    }

    #[test]
    fn size_counts_shared_nodes_once() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(2);
        let a = m.var(0)?;
        assert_eq!(m.size(a), 1);
        let b = m.var(1)?;
        let x = m.xor(a, b)?;
        assert_eq!(m.size(x), 2, "xor shares b's node via a complement edge");
        Ok(())
    }

    #[test]
    fn any_sat_finds_witnesses() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(4);
        let (a, b) = (m.var(0)?, m.var(3)?);
        let nb = m.not(b);
        let f = m.and(a, nb)?;
        let w = m.any_sat(f).expect("satisfiable");
        assert!(w[0] && !w[3]);
        assert!(m.any_sat(Bdd::ZERO).is_none());
        assert_eq!(m.any_sat(Bdd::ONE), Some(vec![false; 4]));
        // a complemented root still yields a valid witness
        let nf = m.not(f);
        let w = m.any_sat(nf).expect("satisfiable");
        assert!(m.eval(
            nf,
            w.iter()
                .enumerate()
                .fold(0u64, |acc, (i, &bit)| { acc | (u64::from(bit) << i) })
        ));
        Ok(())
    }

    #[test]
    fn cofactor_of_unrelated_var_is_identity() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(4);
        let (a, b) = (m.var(0)?, m.var(1)?);
        let f = m.and(a, b)?;
        assert_eq!(m.cofactor(f, 3, true)?, f);
        assert_eq!(m.cofactor(f, 3, false)?, f);
        Ok(())
    }

    #[test]
    fn count_sat_is_exact_at_60_vars() -> Result<(), NodeLimitExceeded> {
        // OR of 60 variables has 2^60 - 1 minterms; the old f64 path
        // rounded this to 2^60 exactly (off by one past 52 bits of
        // mantissa).
        let n = 60;
        let mut m = BddManager::new(n);
        let mut f = Bdd::ZERO;
        for v in 0..n {
            let x = m.var(v)?;
            f = m.or(f, x)?;
        }
        assert_eq!(m.count_sat(f), (1u128 << 60) - 1);
        // AND of all 60 variables: exactly one minterm.
        let mut g = Bdd::ONE;
        for v in 0..n {
            let x = m.var(v)?;
            g = m.and(g, x)?;
        }
        assert_eq!(m.count_sat(g), 1);
        assert_eq!(m.count_sat(Bdd::ONE), 1u128 << 60);
        assert_eq!(m.count_sat(Bdd::ZERO), 0);
        Ok(())
    }

    #[test]
    fn count_sat_wide_free_variables() -> Result<(), NodeLimitExceeded> {
        // A single variable among 100: half the space is satisfying, and
        // the free variables on both sides of the tested one must be
        // accounted for exactly.
        let mut m = BddManager::new(100);
        let x = m.var(57)?;
        assert_eq!(m.count_sat(x), 1u128 << 99);
        Ok(())
    }

    #[test]
    fn node_limit_trips_as_error_and_keeps_manager_usable() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::with_node_limit(8, 3);
        assert_eq!(m.node_limit(), Some(3));
        let a = m.var(0)?;
        let b = m.var(1)?;
        // The manager is at its cap now (the terminal + 2 vars); any new
        // node must fail with the typed error.
        let err = m.and(a, b).unwrap_err();
        assert_eq!(err, NodeLimitExceeded { limit: 3 });
        // Cache-hit and reduction paths still work without allocating —
        // and so does negation, which never allocates at all.
        assert_eq!(m.and(a, a)?, a);
        assert_eq!(m.or(a, Bdd::ONE)?, Bdd::ONE);
        let na = m.not(a);
        assert_eq!(m.not(na), a);
        // Raising the cap lets the failed operation through.
        m.set_node_limit(Some(64));
        let ab = m.and(a, b)?;
        assert!(!ab.is_const());
        m.set_node_limit(None);
        assert_eq!(m.node_limit(), None);
        Ok(())
    }

    #[test]
    fn uncapped_manager_never_errors() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(6);
        let t = TruthTable::from_fn(6, |v| v % 3 == 1);
        let f = m.from_table(&t)?;
        assert_eq!(m.to_table(f), t);
        Ok(())
    }

    #[test]
    fn commuted_apply_hits_the_cache() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(6);
        let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
        let ab = m.and(a, b)?;
        let f = m.or(ab, c)?;
        let g = m.xor(b, c)?;
        // swapped operands must hit the entry the first call populated
        let and_fg = m.and(f, g)?;
        let (hits0, misses0) = m.apply_cache_stats();
        assert_eq!(m.and(g, f)?, and_fg);
        let (hits1, misses1) = m.apply_cache_stats();
        assert_eq!(hits1, hits0 + 1, "swapped and must hit");
        assert_eq!(misses1, misses0, "swapped and must not miss");
        let xor_fg = m.xor(f, g)?;
        let (hits0, misses0) = m.apply_cache_stats();
        assert_eq!(m.xor(g, f)?, xor_fg);
        let (hits1, misses1) = m.apply_cache_stats();
        assert_eq!(hits1, hits0 + 1, "swapped xor must hit");
        assert_eq!(misses1, misses0, "swapped xor must not miss");
        Ok(())
    }

    #[test]
    fn complement_normalized_keys_survive_negation() -> Result<(), NodeLimitExceeded> {
        let mut m = BddManager::new(6);
        let (a, b, c) = (m.var(0)?, m.var(1)?, m.var(2)?);
        let ab = m.and(a, b)?;
        let f = m.or(ab, c)?;
        let g = m.xor(b, c)?;
        // xor keys are complement-stripped: negating either operand (or
        // both) reuses the same cache entry and allocates nothing
        let x = m.xor(f, g)?;
        let nodes0 = m.num_nodes();
        let (hits0, misses0) = m.apply_cache_stats();
        let nf = m.not(f);
        let ng = m.not(g);
        assert_eq!(m.xor(nf, g)?, m.not(x));
        assert_eq!(m.xor(f, ng)?, m.not(x));
        assert_eq!(m.xor(nf, ng)?, x);
        let (hits1, misses1) = m.apply_cache_stats();
        assert_eq!(hits1, hits0 + 3, "complemented xor operands must hit");
        assert_eq!(misses1, misses0);
        assert_eq!(m.num_nodes(), nodes0, "no new nodes for negated xors");
        // or(f, g) = ¬and(¬f, ¬g): the De Morgan pair shares one entry
        let o = m.or(f, g)?;
        let (hits0, _) = m.apply_cache_stats();
        assert_eq!(m.and(nf, ng)?, m.not(o));
        let (hits1, _) = m.apply_cache_stats();
        assert_eq!(hits1, hits0 + 1, "or and its De Morgan and share the cache");
        Ok(())
    }

    #[test]
    fn copy_roots_is_garbage_collection_by_copy() -> Result<(), NodeLimitExceeded> {
        let mut scratch = BddManager::new(6);
        // build a function with throwaway intermediates
        let (a, b, c) = (scratch.var(0)?, scratch.var(1)?, scratch.var(2)?);
        let ab = scratch.and(a, b)?;
        let dead = scratch.xor(ab, c)?; // never a root
        let f = scratch.or(ab, c)?;
        let nf = scratch.not(f);
        let _ = dead;
        let built = scratch.num_nodes();

        let mut dst = BddManager::new(6);
        let copied = scratch.copy_roots(&[f, nf], &mut dst)?;
        // dst holds only the live DAG: terminal + reachable nodes of f
        // (¬f shares all of them via its complement bit)
        assert_eq!(dst.num_nodes(), 1 + scratch.size(f), "{built} built");
        assert!(dst.num_nodes() < built, "dead intermediates left behind");
        // semantics survive the copy, complements included
        for m in 0..64u64 {
            assert_eq!(dst.eval(copied[0], m), scratch.eval(f, m));
            assert_eq!(dst.eval(copied[1], m), !scratch.eval(f, m));
        }
        // f and ¬f still share one node on the other side
        assert_eq!(copied[1], dst.not(copied[0]));
        assert_eq!(dst.canonical_violations(), 0);
        Ok(())
    }

    #[test]
    fn copy_roots_observes_the_destination_cap() -> Result<(), NodeLimitExceeded> {
        let mut scratch = BddManager::new(6);
        let (a, b, c) = (scratch.var(0)?, scratch.var(1)?, scratch.var(2)?);
        let ab = scratch.and(a, b)?;
        let f = scratch.or(ab, c)?;
        let mut tiny = BddManager::with_node_limit(6, 2);
        assert!(scratch.copy_roots(&[f], &mut tiny).is_err());
        Ok(())
    }

    /// A deterministic little formula family over `n` variables (XOR-chains,
    /// AND/OR ladders and their negations, selected by `seed`); a capped
    /// manager reports the trip as an error.
    fn build_formula(m: &mut BddManager, n: usize, seed: u64) -> Result<Bdd, NodeLimitExceeded> {
        let mut acc = m.constant(seed & 1 == 0);
        for v in 0..n {
            let x = if (seed >> (v % 48)) & 1 == 0 {
                m.var(v)?
            } else {
                m.nvar(v)?
            };
            acc = match (seed >> (2 * v)) % 3 {
                0 => m.and(acc, x)?,
                1 => m.or(acc, x)?,
                _ => m.xor(acc, x)?,
            };
            if (seed >> (v % 31)) & 4 == 4 {
                acc = m.not(acc);
            }
        }
        Ok(acc)
    }

    #[test]
    fn refused_allocation_keeps_earlier_handles_and_canonicity() -> Result<(), NodeLimitExceeded> {
        // a cap of `k` nodes admits the terminal and k − 1 allocations; the
        // next allocation is refused with the typed error
        const CAP: usize = 40;
        let n = 12;
        let mut m = BddManager::with_node_limit(n, CAP);
        let mut built: Vec<(u64, Bdd)> = Vec::new();
        let mut refused = None;
        for seed in 0..256u64 {
            match build_formula(&mut m, n, seed) {
                Ok(f) => built.push((seed, f)),
                Err(e) => {
                    refused = Some(e);
                    break;
                }
            }
        }
        assert_eq!(refused, Some(NodeLimitExceeded { limit: CAP }));
        assert_eq!(
            m.num_nodes(),
            CAP,
            "the refused allocation was number {}",
            CAP + 1
        );
        // every handle made before the refusal still denotes its function:
        // an uncapped manager rebuilds each formula and agrees everywhere
        let mut free = BddManager::new(n);
        for &(seed, f) in &built {
            let g = build_formula(&mut free, n, seed)?;
            for minterm in (0..1u64 << n).step_by(7) {
                assert_eq!(m.eval(f, minterm), free.eval(g, minterm), "seed {seed}");
            }
        }
        assert_eq!(m.canonical_violations(), 0);
        // reads and negations still work at the cap; lifting it lets the
        // refused build through
        let a = m.var(0)?;
        assert_eq!(m.not(m.not(a)), a);
        m.set_node_limit(None);
        let seed = built.len() as u64;
        build_formula(&mut m, n, seed)?;
        assert_eq!(m.canonical_violations(), 0);
        Ok(())
    }

    /// `f` and `¬f` built across a formula family and its negations share
    /// one stored node each, negating allocates nothing, and the stored
    /// node set stays canonical.
    #[test]
    fn negations_keep_the_stored_node_set_canonical() -> Result<(), NodeLimitExceeded> {
        let n = 12;
        let mut m = BddManager::new(n);
        for seed in 0..24u64 {
            let f = build_formula(&mut m, n, seed)?;
            let g = if seed % 2 == 0 { f } else { m.not(f) };
            assert_eq!(m.xor(g, Bdd::ONE)?, m.not(g), "xor-with-one is negation");
        }
        assert_eq!(m.canonical_violations(), 0);
        let before = m.num_nodes();
        for seed in 0..24u64 {
            let f = build_formula(&mut m, n, seed)?;
            let nf = m.not(f);
            assert_eq!(nf.index(), f.index() ^ 1, "f and ¬f share one stored node");
            assert_eq!(m.size(f), m.size(nf), "shared DAG, equal size");
            assert_eq!(m.not(nf), f, "double negation is the identity");
        }
        assert_eq!(
            m.num_nodes(),
            before,
            "rebuilding and negating allocates nothing"
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(16))]

        /// Boolean identities that exercise every complement-normalization
        /// path — De Morgan, ITE expansion, XOR-as-negation, absorption of
        /// `f · ¬f` — hold as *handle equalities* on randomly built pairs,
        /// and none of them leave a non-canonical node behind.
        #[test]
        fn complement_identities_hold_as_handle_equalities(
            sa in 0u64..1 << 40,
            sb in 0u64..1 << 40,
        ) {
            let n = 10;
            let mut m = BddManager::new(n);
            let f = build_formula(&mut m, n, sa).expect("uncapped");
            let g = build_formula(&mut m, n, sb).expect("uncapped");
            let (nf, ng) = (m.not(f), m.not(g));
            // De Morgan, both directions
            let and_fg = m.and(f, g).expect("uncapped");
            let or_nf_ng = m.or(nf, ng).expect("uncapped");
            proptest::prop_assert_eq!(m.not(and_fg), or_nf_ng);
            let or_fg = m.or(f, g).expect("uncapped");
            let and_nf_ng = m.and(nf, ng).expect("uncapped");
            proptest::prop_assert_eq!(m.not(or_fg), and_nf_ng);
            // ITE via its and/or expansion
            let ite = m.ite(f, g, ng).expect("uncapped");
            let t = m.and(f, g).expect("uncapped");
            let e = m.and(nf, ng).expect("uncapped");
            proptest::prop_assert_eq!(ite, m.or(t, e).expect("uncapped"));
            // XOR with ONE is negation; XOR with itself annihilates
            proptest::prop_assert_eq!(m.xor(f, Bdd::ONE).expect("uncapped"), nf);
            proptest::prop_assert_eq!(m.xor(f, f).expect("uncapped"), Bdd::ZERO);
            proptest::prop_assert_eq!(m.xor(f, nf).expect("uncapped"), Bdd::ONE);
            // f · ¬f = 0 and f + ¬f = 1 without allocating
            let before = m.num_nodes();
            proptest::prop_assert_eq!(m.and(f, nf).expect("uncapped"), Bdd::ZERO);
            proptest::prop_assert_eq!(m.or(f, nf).expect("uncapped"), Bdd::ONE);
            proptest::prop_assert_eq!(m.num_nodes(), before);
            proptest::prop_assert_eq!(m.canonical_violations(), 0);
        }
    }
}
