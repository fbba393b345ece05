//! Three-valued cubes (product terms) for SOP covers.

use crate::{TruthTable, VarSet};
use std::fmt;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_eval() {
        let c = Cube::literal(2, false);
        assert!(c.eval(0b000));
        assert!(!c.eval(0b100));
    }

    #[test]
    fn contradiction_is_none() {
        assert!(Cube::new([1], [1]).is_none());
        let mut c = Cube::literal(1, true);
        assert!(!c.add_literal(1, false));
        assert_eq!(c, Cube::literal(1, true));
    }

    #[test]
    fn implies_and_distance() {
        let ab = Cube::new([0, 1], []).unwrap();
        let a = Cube::new([0], []).unwrap();
        assert!(ab.implies(&a));
        assert!(!a.implies(&ab));
        let an = Cube::new([], [0]).unwrap();
        assert_eq!(a.distance(&an), 1);
        assert_eq!(ab.distance(&an), 1);
        assert_eq!(a.distance(&ab), 0);
        assert_eq!(a.intersect_len(&ab), Some(2));
        assert_eq!(ab.intersect_len(&an), None);
        assert_eq!(an.intersect_len(&Cube::new([2], [3]).unwrap()), Some(3));
    }

    #[test]
    fn division() {
        let abc = Cube::new([0, 1], [2]).unwrap();
        let b = Cube::new([1], []).unwrap();
        let q = abc.divide(&b).unwrap();
        assert_eq!(q, Cube::new([0], [2]).unwrap());
        assert!(abc.divide(&Cube::new([3], []).unwrap()).is_none());
    }

    #[test]
    fn table_matches_eval() {
        let c = Cube::new([0, 3], [2]).unwrap();
        let t = c.to_table(4);
        for m in 0..16u64 {
            assert_eq!(t.eval(m), c.eval(m));
        }
    }

    #[test]
    fn universe_properties() {
        let u = Cube::universe();
        assert!(u.is_universe());
        assert_eq!(u.num_literals(), 0);
        assert!(u.eval(123 & 0x3f));
        assert_eq!(u.to_string(), "1");
    }
}
