//! The `VarSet` cubes and covers the literal rows of
//! [`xsynth_boolean::Sop`] replaced: every cube two heap sets, every cover
//! a `Vec` of cubes. The oracle the row code is compared against.

#![allow(dead_code)]

use std::fmt;
use xsynth_boolean::{TruthTable, VarSet};

/// A product term over Boolean variables.
///
/// Each variable is either absent, present in positive phase, or present in
/// negative phase. Internally two [`VarSet`]s hold the positive and negative
/// literals; the invariant `pos ∩ neg = ∅` is maintained by the constructors
/// (a cube with both phases of a variable would be constant false, which is
/// represented as an empty cover instead).
///
/// # Examples
///
/// ```
/// use xsynth_boolean::Cube;
///
/// // x0 & !x2
/// let c = Cube::new([0], [2]).unwrap();
/// assert!(c.eval(0b001));
/// assert!(!c.eval(0b101));
/// assert!(!c.eval(0b000));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cube {
    pos: VarSet,
    neg: VarSet,
}

impl Cube {
    /// The universal cube (constant one).
    pub fn universe() -> Self {
        Cube::default()
    }

    /// Creates a cube from positive and negative literal sets.
    ///
    /// Returns `None` if a variable appears in both phases (an empty,
    /// contradictory cube).
    pub fn new<P, N>(pos: P, neg: N) -> Option<Self>
    where
        P: IntoIterator<Item = usize>,
        N: IntoIterator<Item = usize>,
    {
        let pos = VarSet::from_vars(pos);
        let neg = VarSet::from_vars(neg);
        Cube::from_sets(pos, neg)
    }

    /// Creates a cube from prebuilt literal sets; `None` on contradiction.
    pub fn from_sets(pos: VarSet, neg: VarSet) -> Option<Self> {
        if pos.is_disjoint(&neg) {
            Some(Cube { pos, neg })
        } else {
            None
        }
    }

    /// A cube with the single literal `var` (positive if `phase`).
    pub fn literal(var: usize, phase: bool) -> Self {
        if phase {
            Cube {
                pos: VarSet::singleton(var),
                neg: VarSet::new(),
            }
        } else {
            Cube {
                pos: VarSet::new(),
                neg: VarSet::singleton(var),
            }
        }
    }

    /// The positive-phase literal set.
    pub fn positive(&self) -> &VarSet {
        &self.pos
    }

    /// The negative-phase literal set.
    pub fn negative(&self) -> &VarSet {
        &self.neg
    }

    /// The support (all variables mentioned).
    pub fn support(&self) -> VarSet {
        self.pos.union(&self.neg)
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.pos.len() + self.neg.len()
    }

    /// Whether this is the universal cube.
    pub fn is_universe(&self) -> bool {
        self.pos.is_empty() && self.neg.is_empty()
    }

    /// The phase of `var` in this cube: `Some(true)` positive,
    /// `Some(false)` negative, `None` absent.
    pub fn phase(&self, var: usize) -> Option<bool> {
        if self.pos.contains(var) {
            Some(true)
        } else if self.neg.contains(var) {
            Some(false)
        } else {
            None
        }
    }

    /// Adds a literal; returns `false` (cube unchanged) if the opposite
    /// phase is already present.
    pub fn add_literal(&mut self, var: usize, phase: bool) -> bool {
        let (mine, other) = if phase {
            (&mut self.pos, &self.neg)
        } else {
            (&mut self.neg, &self.pos)
        };
        if other.contains(var) {
            return false;
        }
        mine.insert(var);
        true
    }

    /// Removes any literal of `var`; returns whether one was present.
    pub fn remove_var(&mut self, var: usize) -> bool {
        self.pos.remove(var) | self.neg.remove(var)
    }

    /// Evaluates the cube on an input assignment (bit `i` = value of
    /// variable `i`).
    pub fn eval(&self, minterm: u64) -> bool {
        for v in self.pos.iter() {
            if minterm & (1 << v) == 0 {
                return false;
            }
        }
        for v in self.neg.iter() {
            if minterm & (1 << v) != 0 {
                return false;
            }
        }
        true
    }

    /// Cube intersection (AND); `None` if contradictory.
    pub fn intersect(&self, other: &Cube) -> Option<Cube> {
        Cube::from_sets(self.pos.union(&other.pos), self.neg.union(&other.neg))
    }

    /// Whether `self` implies `other` (`self`'s on-set ⊆ `other`'s), i.e.
    /// `other`'s literals ⊆ `self`'s.
    pub fn implies(&self, other: &Cube) -> bool {
        other.pos.is_subset(&self.pos) && other.neg.is_subset(&self.neg)
    }

    /// The number of variables on which the two cubes have opposite phases.
    pub fn distance(&self, other: &Cube) -> usize {
        self.pos.intersection_len(&other.neg) + self.neg.intersection_len(&other.pos)
    }

    /// The literal count of `self ∩ other` (the AND of the two cubes), or
    /// `None` if it is contradictory; nothing is built.
    pub fn intersect_len(&self, other: &Cube) -> Option<usize> {
        (self.distance(other) == 0).then(|| {
            self.num_literals() + other.num_literals()
                - self.pos.intersection_len(&other.pos)
                - self.neg.intersection_len(&other.neg)
        })
    }

    /// Algebraic cube division: `self / other`, defined when `other`'s
    /// literals are a subset of `self`'s; the quotient drops them.
    pub fn divide(&self, other: &Cube) -> Option<Cube> {
        if other.pos.is_subset(&self.pos) && other.neg.is_subset(&self.neg) {
            Some(Cube {
                pos: self.pos.difference(&other.pos),
                neg: self.neg.difference(&other.neg),
            })
        } else {
            None
        }
    }

    /// Whether `self / d == other / e` for cubes `d` and `e` dividing
    /// `self` and `other`, compared without building either quotient.
    pub fn same_quotient(&self, d: &Cube, other: &Cube, e: &Cube) -> bool {
        self.pos.difference_eq(&d.pos, &other.pos, &e.pos)
            && self.neg.difference_eq(&d.neg, &other.neg, &e.neg)
    }

    /// Converts to a truth table over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if the cube mentions a variable `>= n` or `n` exceeds
    /// [`crate::MAX_TT_VARS`].
    pub fn to_table(&self, n: usize) -> TruthTable {
        let mut t = TruthTable::one(n);
        for v in self.pos.iter() {
            t = t & TruthTable::var(n, v);
        }
        for v in self.neg.iter() {
            t = t & !TruthTable::var(n, v);
        }
        t
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_universe() {
            return write!(f, "1");
        }
        let mut lits: Vec<(usize, bool)> = self
            .pos
            .iter()
            .map(|v| (v, true))
            .chain(self.neg.iter().map(|v| (v, false)))
            .collect();
        lits.sort_unstable();
        for (i, (v, ph)) in lits.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if *ph {
                write!(f, "x{v}")?;
            } else {
                write!(f, "¬x{v}")?;
            }
        }
        Ok(())
    }
}

/// A sum-of-products (OR of cubes) cover of a Boolean function.
///
/// An empty cover is constant zero; a cover containing the universal cube is
/// constant one.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::{Cube, Sop};
///
/// // f = x0·x1 + ¬x2
/// let f = Sop::from_cubes([
///     Cube::new([0, 1], []).unwrap(),
///     Cube::new([], [2]).unwrap(),
/// ]);
/// assert!(f.eval(0b011));
/// assert!(!f.eval(0b100));
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Sop {
    cubes: Vec<Cube>,
}

impl Sop {
    /// The constant-zero cover.
    pub fn zero() -> Self {
        Sop::default()
    }

    /// The constant-one cover.
    pub fn one() -> Self {
        Sop {
            cubes: vec![Cube::universe()],
        }
    }

    /// Builds a cover from cubes.
    pub fn from_cubes<I: IntoIterator<Item = Cube>>(cubes: I) -> Self {
        Sop {
            cubes: cubes.into_iter().collect(),
        }
    }

    /// Builds an irredundant-ish cover from a truth table: collects minterms,
    /// then greedily merges distance-1 cubes and removes contained cubes.
    /// This is not a minimum cover, only a reasonable starting cover.
    pub fn from_table(t: &TruthTable) -> Self {
        let n = t.num_vars();
        let mut cubes: Vec<Cube> = Vec::new();
        for m in 0..(1u64 << n) {
            if t.eval(m) {
                let pos = (0..n).filter(|v| m & (1 << v) != 0).collect::<VarSet>();
                let neg = (0..n).filter(|v| m & (1 << v) == 0).collect::<VarSet>();
                cubes.push(Cube::from_sets(pos, neg).expect("disjoint by construction"));
            }
        }
        let mut s = Sop { cubes };
        s.merge_distance1();
        s.remove_contained();
        s
    }

    /// The cubes of the cover.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Mutable access to the cubes.
    pub fn cubes_mut(&mut self) -> &mut Vec<Cube> {
        &mut self.cubes
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Total literal count.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(Cube::num_literals).sum()
    }

    /// Whether the cover is syntactically constant zero (no cubes).
    pub fn is_zero(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Whether the cover syntactically contains the universal cube.
    pub fn has_universe(&self) -> bool {
        self.cubes.iter().any(Cube::is_universe)
    }

    /// Union of all cube supports.
    pub fn support(&self) -> VarSet {
        let mut s = VarSet::new();
        for c in &self.cubes {
            s.union_with(&c.support());
        }
        s
    }

    /// Evaluates on an input assignment.
    pub fn eval(&self, minterm: u64) -> bool {
        self.cubes.iter().any(|c| c.eval(minterm))
    }

    /// Converts to a truth table over `n` variables.
    pub fn to_table(&self, n: usize) -> TruthTable {
        let mut t = TruthTable::zero(n);
        for c in &self.cubes {
            t = t | c.to_table(n);
        }
        t
    }

    /// Cofactor of the cover with respect to literal (`var`, `phase`).
    pub fn cofactor(&self, var: usize, phase: bool) -> Sop {
        let mut out = Vec::new();
        for c in &self.cubes {
            match c.phase(var) {
                Some(p) if p != phase => {}
                _ => {
                    let mut c2 = c.clone();
                    c2.remove_var(var);
                    out.push(c2);
                }
            }
        }
        Sop { cubes: out }
    }

    /// Removes cubes contained in (implying) another cube of the cover.
    pub fn remove_contained(&mut self) {
        let cubes = std::mem::take(&mut self.cubes);
        let mut kept: Vec<Cube> = Vec::new();
        for c in cubes {
            if kept.iter().any(|k| c.implies(k)) {
                continue; // c is covered by an already-kept cube
            }
            kept.retain(|k| !k.implies(&c));
            kept.push(c);
        }
        self.cubes = kept;
    }

    /// Repeatedly merges pairs of cubes that differ in exactly one
    /// variable's phase and agree elsewhere (`a·x + a·¬x = a`).
    pub fn merge_distance1(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            // bucket cubes by support so only same-support pairs are tried
            let mut buckets: xsynth_boolean::FxHashMap<VarSet, Vec<usize>> =
                xsynth_boolean::FxHashMap::default();
            for (i, c) in self.cubes.iter().enumerate() {
                buckets.entry(c.support()).or_default().push(i);
            }
            let mut dead = vec![false; self.cubes.len()];
            // a merged cube leaves its support bucket: freeze it until the
            // next pass rebuilds the buckets
            let mut dirty = vec![false; self.cubes.len()];
            for idxs in buckets.values() {
                for (a_pos, &i) in idxs.iter().enumerate() {
                    if dead[i] || dirty[i] {
                        continue;
                    }
                    for &j in &idxs[a_pos + 1..] {
                        if dead[i] || dirty[i] || dead[j] || dirty[j] {
                            continue;
                        }
                        let (a, b) = (&self.cubes[i], &self.cubes[j]);
                        if a.distance(b) == 1 {
                            let d = a
                                .positive()
                                .intersection(b.negative())
                                .union(&a.negative().intersection(b.positive()));
                            let v = d.min_var().expect("distance 1 has a clash var");
                            let mut m = a.clone();
                            m.remove_var(v);
                            self.cubes[i] = m;
                            dead[j] = true;
                            dirty[i] = true;
                            changed = true;
                        }
                    }
                }
            }
            if changed {
                let mut keep = dead.iter().map(|d| !d);
                self.cubes.retain(|_| keep.next().expect("mask length"));
            }
        }
    }

    /// Exact tautology check (is the cover constant one?) by unate reduction
    /// and Shannon splitting.
    pub fn is_tautology(&self) -> bool {
        if self.has_universe() {
            return true;
        }
        if self.cubes.is_empty() {
            return false;
        }
        // unate test: if some variable appears in only one phase, cubes
        // containing it can never cover the opposite half alone.
        let sup = self.support();
        let mut split_var = None;
        let mut best = usize::MAX;
        for v in sup.iter() {
            let pos = self
                .cubes
                .iter()
                .filter(|c| c.phase(v) == Some(true))
                .count();
            let neg = self
                .cubes
                .iter()
                .filter(|c| c.phase(v) == Some(false))
                .count();
            if pos == 0 || neg == 0 {
                // unate in v: drop all cubes with a literal of v; the cover
                // is a tautology iff the reduced cover is.
                let reduced = Sop {
                    cubes: self
                        .cubes
                        .iter()
                        .filter(|c| c.phase(v).is_none())
                        .cloned()
                        .collect(),
                };
                return reduced.is_tautology();
            }
            let cost = pos.abs_diff(neg);
            if cost < best {
                best = cost;
                split_var = Some(v);
            }
        }
        match split_var {
            None => self.has_universe(),
            Some(v) => {
                self.cofactor(v, false).is_tautology() && self.cofactor(v, true).is_tautology()
            }
        }
    }

    /// Complement of the cover via Shannon expansion. Suitable for the small
    /// node functions handled during synthesis, not for huge covers.
    pub fn complement(&self) -> Sop {
        if self.cubes.is_empty() {
            return Sop::one();
        }
        if self.has_universe() {
            return Sop::zero();
        }
        if self.cubes.len() == 1 {
            // De Morgan on a single cube.
            let c = &self.cubes[0];
            let mut out = Vec::new();
            for v in c.positive().iter() {
                out.push(Cube::literal(v, false));
            }
            for v in c.negative().iter() {
                out.push(Cube::literal(v, true));
            }
            return Sop { cubes: out };
        }
        let v = self
            .most_binate_var()
            .expect("non-constant cover has a variable");
        let c0 = self.cofactor(v, false).complement();
        let c1 = self.cofactor(v, true).complement();
        let mut cubes = Vec::new();
        for c in c0.cubes {
            if let Some(cc) = c.intersect(&Cube::literal(v, false)) {
                cubes.push(cc);
            }
        }
        for c in c1.cubes {
            if let Some(cc) = c.intersect(&Cube::literal(v, true)) {
                cubes.push(cc);
            }
        }
        let mut s = Sop { cubes };
        s.remove_contained();
        s.merge_distance1();
        s
    }

    /// [`xsynth_boolean::Sop::isop`], converted.
    pub fn isop(t: &TruthTable) -> Sop {
        Sop::from_rows(&xsynth_boolean::Sop::isop(t))
    }

    /// [`xsynth_boolean::Sop::table_over`] of the converted cover.
    pub fn table_over(&self, vars: &[usize]) -> TruthTable {
        self.to_rows().table_over(vars)
    }

    /// The cover as literal rows, cube for cube.
    pub fn to_rows(&self) -> xsynth_boolean::Sop {
        xsynth_boolean::Sop::from_literals(self.cubes.iter().map(|c| (c.pos.iter(), c.neg.iter())))
            .expect("disjoint phases")
    }

    /// A cover of literal rows, cube for cube.
    pub fn from_rows(rows: &xsynth_boolean::Sop) -> Sop {
        Sop::from_cubes(rows.cubes().map(|c| {
            let lits = |half: &[u64]| xsynth_boolean::mask_ones(half).collect::<VarSet>();
            Cube::from_sets(lits(c.positive()), lits(c.negative())).expect("disjoint phases")
        }))
    }

    /// The variable occurring in the most cubes (ties broken by index).
    pub fn most_binate_var(&self) -> Option<usize> {
        let sup = self.support();
        sup.iter()
            .max_by_key(|&v| self.cubes.iter().filter(|c| c.phase(v).is_some()).count())
    }
}

impl FromIterator<Cube> for Sop {
    fn from_iter<I: IntoIterator<Item = Cube>>(iter: I) -> Self {
        Sop::from_cubes(iter)
    }
}

impl Extend<Cube> for Sop {
    fn extend<I: IntoIterator<Item = Cube>>(&mut self, iter: I) {
        self.cubes.extend(iter);
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sop({self})")
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}
