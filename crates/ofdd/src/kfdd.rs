//! Ordered Kronecker functional decision diagrams (OKFDDs).
//!
//! The paper's related work (\[1\] Becker & Drechsler, \[16\] Sarabi et al.)
//! generalizes OFDDs by letting *each variable* pick its own expansion:
//!
//! * **Shannon**:        `f = ¬x·f₀ ⊕ x·f₁`
//! * **positive Davio**: `f = f₀ ⊕ x·(f₀ ⊕ f₁)`
//! * **negative Davio**: `f = f₁ ⊕ ¬x·(f₀ ⊕ f₁)`
//!
//! A pure-Davio list is exactly an OFDD (and its paths are an FPRM form);
//! a pure-Shannon list is a BDD. Mixed lists often beat both — MUX-flavored
//! variables want Shannon, parity-flavored variables want Davio — which is
//! why the paper lists OKFDD synthesis as the natural extension of its
//! flow. This module provides the diagram, a BDD→KFDD conversion, a greedy
//! per-variable decomposition search, and network lowering.

use xsynth_bdd::{Bdd, BddManager, NodeLimitExceeded};
use xsynth_boolean::{FxHashMap, FxHashSet, TruthTable};
use xsynth_net::{GateKind, Network, SignalId};

/// The expansion used for one variable of a KFDD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decomposition {
    /// `f = ¬x·f₀ ⊕ x·f₁` (the BDD expansion).
    Shannon,
    /// `f = f₀ ⊕ x·(f₀ ⊕ f₁)`.
    PositiveDavio,
    /// `f = f₁ ⊕ ¬x·(f₀ ⊕ f₁)`.
    NegativeDavio,
}

/// A handle to a KFDD node inside a [`KfddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kfdd(u32);

impl Kfdd {
    /// The constant-zero function.
    pub const ZERO: Kfdd = Kfdd(0);
    /// The constant-one function.
    pub const ONE: Kfdd = Kfdd(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Kfdd,
    hi: Kfdd,
}

const TERMINAL_VAR: u32 = u32::MAX;

/// An arena of reduced, shared KFDD nodes under a fixed per-variable
/// decomposition type list.
#[derive(Debug)]
pub struct KfddManager {
    types: Vec<Decomposition>,
    nodes: Vec<Node>,
    unique: FxHashMap<(u32, Kfdd, Kfdd), Kfdd>,
}

impl KfddManager {
    /// Creates a manager with one decomposition type per variable.
    pub fn new(types: Vec<Decomposition>) -> Self {
        KfddManager {
            types,
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: Kfdd::ZERO,
                    hi: Kfdd::ZERO,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: Kfdd::ONE,
                    hi: Kfdd::ONE,
                },
            ],
            unique: FxHashMap::default(),
        }
    }

    /// The decomposition list.
    pub fn types(&self) -> &[Decomposition] {
        &self.types
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.types.len()
    }

    fn mk(&mut self, var: u32, lo: Kfdd, hi: Kfdd) -> Kfdd {
        let reducible = match self.types[var as usize] {
            // Shannon: node redundant when both children equal
            Decomposition::Shannon => lo == hi,
            // Davio: node redundant when the difference part is zero
            _ => hi == Kfdd::ZERO,
        };
        if reducible {
            return lo;
        }
        if let Some(&k) = self.unique.get(&(var, lo, hi)) {
            return k;
        }
        let id = Kfdd(self.nodes.len() as u32);
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    fn node(&self, k: Kfdd) -> Node {
        self.nodes[k.0 as usize]
    }

    #[allow(clippy::wrong_self_convention)] // manager-style constructor, as in CUDD
    /// Builds the KFDD of a BDD function under this manager's types. The
    /// Davio expansions allocate XOR cofactors in `bm`, so a node cap on
    /// `bm` can trip.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch (a programming error, not a resource one).
    pub fn from_bdd(&mut self, bm: &mut BddManager, f: Bdd) -> Result<Kfdd, NodeLimitExceeded> {
        assert_eq!(bm.num_vars(), self.num_vars(), "arity mismatch");
        let mut memo = FxHashMap::default();
        self.from_bdd_rec(bm, f, &mut memo)
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_bdd_rec(
        &mut self,
        bm: &mut BddManager,
        f: Bdd,
        memo: &mut FxHashMap<Bdd, Kfdd>,
    ) -> Result<Kfdd, NodeLimitExceeded> {
        let Some(var) = bm.top_var(f) else {
            return Ok(if f == Bdd::ONE { Kfdd::ONE } else { Kfdd::ZERO });
        };
        if let Some(&k) = memo.get(&f) {
            return Ok(k);
        }
        let f0 = bm.low(f);
        let f1 = bm.high(f);
        let (lo_bdd, hi_bdd) = match self.types[var] {
            Decomposition::Shannon => (f0, f1),
            Decomposition::PositiveDavio => (f0, bm.xor(f0, f1)?),
            Decomposition::NegativeDavio => (f1, bm.xor(f0, f1)?),
        };
        let lo = self.from_bdd_rec(bm, lo_bdd, memo)?;
        let hi = self.from_bdd_rec(bm, hi_bdd, memo)?;
        let k = self.mk(var as u32, lo, hi);
        memo.insert(f, k);
        Ok(k)
    }

    #[allow(clippy::wrong_self_convention)]
    /// Convenience: builds from a truth table through a private, uncapped
    /// BDD manager.
    pub fn from_table(&mut self, t: &TruthTable) -> Result<Kfdd, NodeLimitExceeded> {
        let mut bm = BddManager::new(t.num_vars());
        let f = bm.from_table(t)?;
        self.from_bdd(&mut bm, f)
    }

    /// Evaluates on a variable-space assignment.
    pub fn eval(&self, k: Kfdd, minterm: u64) -> bool {
        let mut memo = FxHashMap::default();
        self.eval_rec(k, minterm, &mut memo)
    }

    fn eval_rec(&self, k: Kfdd, minterm: u64, memo: &mut FxHashMap<Kfdd, bool>) -> bool {
        if k == Kfdd::ZERO {
            return false;
        }
        if k == Kfdd::ONE {
            return true;
        }
        if let Some(&v) = memo.get(&k) {
            return v;
        }
        let n = self.node(k);
        let x = minterm & (1u64 << n.var) != 0;
        let lo = self.eval_rec(n.lo, minterm, memo);
        let v = match self.types[n.var as usize] {
            Decomposition::Shannon => {
                if x {
                    self.eval_rec(n.hi, minterm, memo)
                } else {
                    lo
                }
            }
            Decomposition::PositiveDavio => {
                if x {
                    lo ^ self.eval_rec(n.hi, minterm, memo)
                } else {
                    lo
                }
            }
            Decomposition::NegativeDavio => {
                if x {
                    lo
                } else {
                    lo ^ self.eval_rec(n.hi, minterm, memo)
                }
            }
        };
        memo.insert(k, v);
        v
    }

    /// Number of distinct internal nodes reachable from `k`.
    pub fn size(&self, k: Kfdd) -> usize {
        let mut seen = FxHashSet::default();
        let mut stack = vec![k];
        let mut count = 0;
        while let Some(x) = stack.pop() {
            if x.is_const() || !seen.insert(x) {
                continue;
            }
            count += 1;
            let n = self.node(x);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Lowers the KFDD into gates: Shannon nodes become multiplexers,
    /// Davio nodes become AND+XOR pairs, with DAG sharing preserved.
    pub fn to_network(&self, root: Kfdd, net: &mut Network, inputs: &[SignalId]) -> SignalId {
        if root == Kfdd::ZERO {
            return net.add_gate(GateKind::Const0, vec![]);
        }
        if root == Kfdd::ONE {
            return net.add_gate(GateKind::Const1, vec![]);
        }
        // topological order, children first
        let mut order = Vec::new();
        let mut seen = FxHashSet::default();
        fn topo(m: &KfddManager, k: Kfdd, seen: &mut FxHashSet<Kfdd>, order: &mut Vec<Kfdd>) {
            if k.is_const() || !seen.insert(k) {
                return;
            }
            let n = m.node(k);
            topo(m, n.lo, seen, order);
            topo(m, n.hi, seen, order);
            order.push(k);
        }
        topo(self, root, &mut seen, &mut order);

        let mut not_cache: FxHashMap<SignalId, SignalId> = FxHashMap::default();
        let mut zero: Option<SignalId> = None;
        let mut one: Option<SignalId> = None;
        let mut sig: FxHashMap<Kfdd, SignalId> = FxHashMap::default();
        let resolve = |k: Kfdd,
                       net: &mut Network,
                       sig: &FxHashMap<Kfdd, SignalId>,
                       zero: &mut Option<SignalId>,
                       one: &mut Option<SignalId>| {
            match k {
                Kfdd::ZERO => *zero.get_or_insert_with(|| net.add_gate(GateKind::Const0, vec![])),
                Kfdd::ONE => *one.get_or_insert_with(|| net.add_gate(GateKind::Const1, vec![])),
                _ => sig[&k],
            }
        };
        for k in order {
            let n = self.node(k);
            let x = inputs[n.var as usize];
            let s = match self.types[n.var as usize] {
                Decomposition::Shannon => {
                    // ¬x·lo + x·hi (disjoint, so OR == XOR; emit the mux)
                    let lo = resolve(n.lo, net, &sig, &mut zero, &mut one);
                    let hi = resolve(n.hi, net, &sig, &mut zero, &mut one);
                    let nx = *not_cache
                        .entry(x)
                        .or_insert_with(|| net.add_gate(GateKind::Not, vec![x]));
                    let a = net.add_gate(GateKind::And, vec![nx, lo]);
                    let b = net.add_gate(GateKind::And, vec![x, hi]);
                    net.add_gate(GateKind::Or, vec![a, b])
                }
                Decomposition::PositiveDavio | Decomposition::NegativeDavio => {
                    let lit = if self.types[n.var as usize] == Decomposition::PositiveDavio {
                        x
                    } else {
                        *not_cache
                            .entry(x)
                            .or_insert_with(|| net.add_gate(GateKind::Not, vec![x]))
                    };
                    let and_part = if n.hi == Kfdd::ONE {
                        lit
                    } else {
                        let hi = resolve(n.hi, net, &sig, &mut zero, &mut one);
                        net.add_gate(GateKind::And, vec![lit, hi])
                    };
                    match n.lo {
                        Kfdd::ZERO => and_part,
                        Kfdd::ONE => net.add_gate(GateKind::Not, vec![and_part]),
                        _ => {
                            let lo = sig[&n.lo];
                            net.add_gate(GateKind::Xor, vec![lo, and_part])
                        }
                    }
                }
            };
            sig.insert(k, s);
        }
        sig[&root]
    }
}

/// Greedy per-variable decomposition search: starting from all
/// positive-Davio (the OFDD), repeatedly retypes the single variable whose
/// change most reduces the node count, until a local minimum. Returns the
/// winning manager and root.
///
/// Under a node-capped manager, candidate retypes that trip the cap are
/// simply skipped (the best affordable decomposition so far is kept); the
/// call only errors when even the base all-positive-Davio build is
/// unaffordable.
pub fn optimize_decomposition(
    bm: &mut BddManager,
    f: Bdd,
) -> Result<(KfddManager, Kfdd), NodeLimitExceeded> {
    let n = bm.num_vars();
    let all = [
        Decomposition::Shannon,
        Decomposition::PositiveDavio,
        Decomposition::NegativeDavio,
    ];
    let mut types = vec![Decomposition::PositiveDavio; n];
    let mut best_size = {
        let mut m = KfddManager::new(types.clone());
        let r = m.from_bdd(bm, f)?;
        m.size(r)
    };
    loop {
        let mut improved = false;
        for v in 0..n {
            let orig = types[v];
            for d in all {
                if d == orig {
                    continue;
                }
                types[v] = d;
                let mut m = KfddManager::new(types.clone());
                match m.from_bdd(bm, f) {
                    Ok(r) => {
                        let s = m.size(r);
                        if s < best_size {
                            best_size = s;
                            improved = true;
                        } else {
                            types[v] = orig;
                        }
                    }
                    // unaffordable candidate: keep the best so far
                    Err(_) => types[v] = orig,
                }
            }
        }
        if !improved {
            break;
        }
    }
    let mut m = KfddManager::new(types);
    // every retype kept in `types` was built successfully above, so the
    // final rebuild replays cached XORs and cannot trip
    let r = m.from_bdd(bm, f)?;
    Ok((m, r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OfddManager;
    use xsynth_boolean::Polarity;

    /// The OFDD seen as the pure positive-Davio KFDD (consistency bridge).
    fn ofdd_node_count(t: &TruthTable) -> usize {
        let mut om = OfddManager::new(Polarity::all_positive(t.num_vars()));
        let o = om.from_table(t).expect("uncapped");
        om.size(o)
    }

    fn check(t: &TruthTable, types: Vec<Decomposition>) -> usize {
        let mut m = KfddManager::new(types);
        let k = m.from_table(t).expect("uncapped");
        for mt in 0..(1u64 << t.num_vars()) {
            assert_eq!(m.eval(k, mt), t.eval(mt), "at {mt}");
        }
        // lowering agrees too
        let mut net = Network::new("kfdd");
        let inputs: Vec<SignalId> = (0..t.num_vars())
            .map(|i| net.add_input(format!("x{i}")))
            .collect();
        let s = m.to_network(k, &mut net, &inputs);
        net.add_output("f", s);
        for mt in 0..(1u64 << t.num_vars()) {
            assert_eq!(net.eval_u64(mt)[0], t.eval(mt), "lowered at {mt}");
        }
        m.size(k)
    }

    #[test]
    fn pure_davio_matches_ofdd() {
        let t = TruthTable::from_fn(6, |m| (m * 31 + 7) % 9 < 4);
        let kfdd_size = check(&t, vec![Decomposition::PositiveDavio; 6]);
        assert_eq!(kfdd_size, ofdd_node_count(&t));
    }

    #[test]
    fn pure_shannon_matches_bdd_size() {
        let t = TruthTable::from_fn(6, |m| (m * 13 + 5) % 11 < 5);
        let kfdd_size = check(&t, vec![Decomposition::Shannon; 6]);
        let mut bm = BddManager::new(6);
        let f = bm.from_table(&t).expect("uncapped");
        // the KFDD has no complement edges, so compare against the
        // complement-free ROBDD: distinct non-constant subfunctions, with
        // g and ¬g counted apart
        let mut seen = FxHashSet::default();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if !g.is_const() && seen.insert(g) {
                stack.extend([bm.low(g), bm.high(g)]);
            }
        }
        assert_eq!(kfdd_size, seen.len());
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
            check(&t, types);
        }
    }

    #[test]
    fn greedy_never_worse_than_ofdd() {
        for seed in 0..8u64 {
            let mut s = seed;
            let t = TruthTable::from_fn(6, |m| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(m + 3);
                (s >> 40) & 7 < 3
            });
            let mut bm = BddManager::new(6);
            let f = bm.from_table(&t).expect("uncapped");
            let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
            assert!(m.size(r) <= ofdd_node_count(&t), "seed {seed}");
            for mt in 0..64u64 {
                assert_eq!(m.eval(r, mt), t.eval(mt));
            }
        }
    }

    #[test]
    fn mux_prefers_shannon() {
        // f = s ? a : b — one Shannon node at s beats Davio chains
        let t = TruthTable::from_fn(3, |m| if m & 1 != 0 { m & 2 != 0 } else { m & 4 != 0 });
        let mut bm = BddManager::new(3);
        let f = bm.from_table(&t).expect("uncapped");
        let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
        assert!(
            m.size(r) <= 3,
            "mux should be tiny under mixed types, got {}",
            m.size(r)
        );
    }

    #[test]
    fn parity_prefers_davio() {
        let t = TruthTable::from_fn(8, |m| m.count_ones() % 2 == 1);
        let mut bm = BddManager::new(8);
        let f = bm.from_table(&t).expect("uncapped");
        let (m, r) = optimize_decomposition(&mut bm, f).expect("uncapped");
        // pure Davio gives n nodes; Shannon would give 2n-1
        assert_eq!(m.size(r), 8);
        assert!(m.types().iter().all(|d| *d != Decomposition::Shannon));
    }

    #[test]
    fn constants() {
        let mut m = KfddManager::new(vec![Decomposition::Shannon; 3]);
        assert_eq!(m.from_table(&TruthTable::zero(3)), Ok(Kfdd::ZERO));
        assert_eq!(m.from_table(&TruthTable::one(3)), Ok(Kfdd::ONE));
    }
}
