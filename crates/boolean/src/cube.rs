//! Three-valued cubes (product terms): rows of a [`Sop`](crate::Sop).

use crate::{mask_ones, TruthTable};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A product term over Boolean variables: one row of a
/// [`Sop`](crate::Sop), borrowed.
///
/// The row holds the positive-literal words, then as many negative-literal
/// words: bit `v` of the first half says `xv` is in the cube, bit `v` of
/// the second half says `¬xv` is. No variable is in both halves. Two cubes
/// compare, hash and order as the literal sets they hold, whatever their
/// widths: rows order as their positive words, then their negative words,
/// each read as a sequence of integers.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::Sop;
///
/// // x0 & !x2
/// let f = Sop::from_literals([([0], [2])]).unwrap();
/// let c = f.cube(0);
/// assert!(c.eval(0b001));
/// assert!(!c.eval(0b101));
/// assert!(!c.eval(0b000));
/// assert_eq!(c.to_string(), "x0·¬x2");
/// ```
#[derive(Clone, Copy)]
pub struct Cube<'a> {
    row: &'a [u64],
}

impl<'a> Cube<'a> {
    pub(crate) fn new(row: &'a [u64]) -> Cube<'a> {
        debug_assert!(row.len().is_multiple_of(2), "a row holds two halves");
        Cube { row }
    }

    /// The positive-literal words.
    pub fn positive(self) -> &'a [u64] {
        &self.row[..self.row.len() / 2]
    }

    /// The negative-literal words.
    pub fn negative(self) -> &'a [u64] {
        &self.row[self.row.len() / 2..]
    }

    /// The literals, positive variables ascending, then negative ones.
    pub fn literals(self) -> impl Iterator<Item = (usize, bool)> + 'a {
        let pos = mask_ones(self.positive()).map(|v| (v, true));
        pos.chain(mask_ones(self.negative()).map(|v| (v, false)))
    }

    /// Number of literals.
    pub fn num_literals(self) -> usize {
        self.row.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether this is the universal cube (no literal).
    pub fn is_universe(self) -> bool {
        self.row.iter().all(|&w| w == 0)
    }

    /// The phase of `var` in this cube: `Some(true)` positive,
    /// `Some(false)` negative, `None` absent.
    pub fn phase(self, var: usize) -> Option<bool> {
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        let has = |half: &[u64]| half.get(w).is_some_and(|x| x & bit != 0);
        if has(self.positive()) {
            Some(true)
        } else if has(self.negative()) {
            Some(false)
        } else {
            None
        }
    }

    /// Evaluates the cube on an input assignment (bit `i` = value of
    /// variable `i`).
    pub fn eval(self, minterm: u64) -> bool {
        // a row holds at least one word per phase; a variable past 63 is
        // not an input of the minterm
        let (pos, neg) = (self.positive(), self.negative());
        let beyond = || pos[1..].iter().chain(&neg[1..]).all(|&w| w == 0);
        pos[0] & !minterm == 0 && neg[0] & minterm == 0 && beyond()
    }

    /// Whether `self` implies `other` (`self`'s on-set ⊆ `other`'s), i.e.
    /// `other`'s literals ⊆ `self`'s.
    pub fn implies(self, other: Cube<'_>) -> bool {
        let (p, n, q, m) = (
            self.positive(),
            self.negative(),
            other.positive(),
            other.negative(),
        );
        let k = p.len().min(q.len());
        let (head, tail) = ((&p[..k], &n[..k], &q[..k], &m[..k]), (&q[k..], &m[k..]));
        let (p, n, q, m) = head;
        (0..k).all(|i| q[i] & !p[i] == 0 && m[i] & !n[i] == 0) && zero(tail.0) && zero(tail.1)
    }

    /// The number of variables on which the two cubes have opposite phases.
    pub fn distance(self, other: Cube<'_>) -> usize {
        common_len(self.positive(), other.negative())
            + common_len(self.negative(), other.positive())
    }

    /// The literal count of `self ∩ other` (the AND of the two cubes), or
    /// `None` if it is contradictory; nothing is built.
    pub fn intersect_len(self, other: Cube<'_>) -> Option<usize> {
        let (p, n, q, m) = (
            self.positive(),
            self.negative(),
            other.positive(),
            other.negative(),
        );
        let k = p.len().min(q.len());
        let (mut clash, mut union) = (0, 0);
        for i in 0..k {
            clash |= (p[i] & m[i]) | (n[i] & q[i]);
            union += (p[i] | q[i]).count_ones() + (n[i] | m[i]).count_ones();
        }
        let tails = [&p[k..], &n[k..], &q[k..], &m[k..]];
        union += tails
            .iter()
            .flat_map(|t| t.iter())
            .map(|w| w.count_ones())
            .sum::<u32>();
        (clash == 0).then_some(union as usize)
    }

    /// Whether `self / d == other / e` for cubes `d` and `e` dividing
    /// `self` and `other`, compared without building either quotient.
    pub fn same_quotient(self, d: Cube<'_>, other: Cube<'_>, e: Cube<'_>) -> bool {
        let (a, b, x, y) = (self.row, other.row, d.row, e.row);
        if a.len() == b.len() && x.len() == y.len() {
            // the quotients' words past the divisors' are the cubes' own
            let (ha, hx) = (a.len() / 2, x.len() / 2);
            let k = ha.min(hx);
            return [(0, 0), (ha, hx)].into_iter().all(|(i, j)| {
                let (a, b) = (&a[i..i + ha], &b[i..i + ha]);
                let (x, y) = (&x[j..j + k], &y[j..j + k]);
                (0..k).all(|w| a[w] & !x[w] == b[w] & !y[w]) && a[k..] == b[k..]
            });
        }
        let h = self.positive().len().max(other.positive().len());
        let at = |c: Cube<'_>, i: usize| (word(c.positive(), i), word(c.negative(), i));
        (0..h).all(|i| {
            let ((p, n), (q, m)) = (at(self, i), at(d, i));
            let ((r, o), (s, t)) = (at(other, i), at(e, i));
            p & !q == r & !s && n & !m == o & !t
        })
    }

    /// The words per phase its literals take: past them both halves are
    /// zero.
    pub(crate) fn width(self) -> usize {
        trimmed(self.positive())
            .len()
            .max(trimmed(self.negative()).len())
    }

    /// Converts to a truth table over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if the cube mentions a variable `>= n` or `n` exceeds
    /// [`crate::MAX_TT_VARS`].
    pub fn to_table(self, n: usize) -> TruthTable {
        let mut t = TruthTable::one(n);
        for (v, phase) in self.literals() {
            let x = TruthTable::var(n, v);
            t = if phase { t & x } else { t & !x };
        }
        t
    }
}

/// `a`'s words without its trailing zero words.
fn trimmed(a: &[u64]) -> &[u64] {
    let len = a.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &a[..len]
}

/// Whether every word of `a` is zero.
fn zero(a: &[u64]) -> bool {
    a.iter().all(|&w| w == 0)
}

/// Word `i` of a literal half, zero past its end.
pub(crate) fn word(half: &[u64], i: usize) -> u64 {
    half.get(i).copied().unwrap_or(0)
}

/// `|a ∩ b|` of two bit sets.
fn common_len(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

impl PartialEq for Cube<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.row == other.row
            || (self.row.len() != other.row.len()
                && trimmed(self.positive()) == trimmed(other.positive())
                && trimmed(self.negative()) == trimmed(other.negative()))
    }
}

impl Eq for Cube<'_> {}

impl Hash for Cube<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for half in [self.positive(), self.negative()] {
            let words = trimmed(half);
            state.write_usize(words.len());
            words.iter().for_each(|&w| state.write_u64(w));
        }
    }
}

impl PartialOrd for Cube<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cube<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let pos = trimmed(self.positive()).cmp(trimmed(other.positive()));
        pos.then_with(|| trimmed(self.negative()).cmp(trimmed(other.negative())))
    }
}

impl fmt::Debug for Cube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube({self})")
    }
}

impl fmt::Display for Cube<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_universe() {
            return write!(f, "1");
        }
        let mut lits: Vec<(usize, bool)> = self.literals().collect();
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
    use crate::Sop;

    fn cover(cubes: &[(&[usize], &[usize])]) -> Sop {
        Sop::from_literals(
            cubes
                .iter()
                .map(|&(p, n)| (p.iter().copied(), n.iter().copied())),
        )
        .expect("disjoint phases")
    }

    #[test]
    fn literal_eval() {
        let f = Sop::literal(2, false);
        assert!(f.cube(0).eval(0b000));
        assert!(!f.cube(0).eval(0b100));
        let wide = Sop::literal(70, true);
        assert!(!wide.cube(0).eval(!0), "x70 is not an input of a minterm");
    }

    #[test]
    fn implies_and_distance() {
        let f = cover(&[(&[0, 1], &[]), (&[0], &[]), (&[], &[0]), (&[2], &[3])]);
        let (ab, a, an, c) = (f.cube(0), f.cube(1), f.cube(2), f.cube(3));
        assert!(ab.implies(a));
        assert!(!a.implies(ab));
        assert_eq!(a.distance(an), 1);
        assert_eq!(ab.distance(an), 1);
        assert_eq!(a.distance(ab), 0);
        assert_eq!(a.intersect_len(ab), Some(2));
        assert_eq!(ab.intersect_len(an), None);
        assert_eq!(an.intersect_len(c), Some(3));
    }

    #[test]
    fn cubes_of_different_widths_compare_as_literal_sets() {
        let narrow = cover(&[(&[0, 5], &[2])]);
        let mut wide = cover(&[(&[0, 5], &[2]), (&[130], &[])]);
        assert_eq!(narrow.cube(0), wide.cube(0));
        // word 0 first: {x130} has none there
        assert!(wide.cube(1) < narrow.cube(0));
        assert!(wide.cube(0).implies(narrow.cube(0)));
        assert!(!narrow.cube(0).implies(wide.cube(1)));
        assert_eq!(narrow.cube(0).intersect_len(wide.cube(1)), Some(4));
        wide.widen(300);
        let hash = |f: &Sop| {
            use std::hash::{Hash, Hasher};
            let mut h = crate::FxHasher::default();
            f.cube(0).hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&narrow), hash(&wide));
    }

    #[test]
    fn table_matches_eval() {
        let f = cover(&[(&[0, 3], &[2])]);
        let t = f.cube(0).to_table(4);
        for m in 0..16u64 {
            assert_eq!(t.eval(m), f.cube(0).eval(m));
        }
    }

    #[test]
    fn universe_properties() {
        let one = Sop::one();
        let u = one.cube(0);
        assert!(u.is_universe());
        assert_eq!(u.num_literals(), 0);
        assert!(u.eval(123 & 0x3f));
        assert_eq!(u.to_string(), "1");
    }
}
