//! Compact variable sets used throughout the workspace.
//!
//! A [`VarSet`] is a growable bitset over variable indices. It is the
//! representation of cube supports, FPRM cubes (in literal space) and
//! polarity vectors.

use std::fmt;

/// A set of Boolean variable indices, stored as a bitset.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::VarSet;
///
/// let mut s = VarSet::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarSet {
    words: Vec<u64>,
}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VarSet { words: Vec::new() }
    }

    /// Creates a set holding the single variable `var`.
    pub fn singleton(var: usize) -> Self {
        let mut s = VarSet::new();
        s.insert(var);
        s
    }

    /// Creates the set `{0, 1, ..., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut s = VarSet::new();
        for v in 0..n {
            s.insert(v);
        }
        s
    }

    /// Creates a set from an iterator of variable indices.
    pub fn from_vars<I: IntoIterator<Item = usize>>(vars: I) -> Self {
        let mut s = VarSet::new();
        for v in vars {
            s.insert(v);
        }
        s
    }

    /// The set whose bit `v % 64` of word `v / 64` says `v` is in it.
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        let mut s = VarSet { words };
        s.normalize();
        s
    }

    fn normalize(&mut self) {
        while let Some(&w) = self.words.last() {
            if w == 0 {
                self.words.pop();
            } else {
                break;
            }
        }
    }

    /// Inserts `var`; returns `true` if it was not already present.
    pub fn insert(&mut self, var: usize) -> bool {
        let (w, b) = (var / 64, var % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `var`; returns `true` if it was present.
    pub fn remove(&mut self, var: usize) -> bool {
        let (w, b) = (var / 64, var % 64);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        self.normalize();
        had
    }

    /// Tests membership of `var`.
    pub fn contains(&self, var: usize) -> bool {
        let (w, b) = (var / 64, var % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &VarSet) -> bool {
        if self.words.len() > other.words.len() {
            // normalized: trailing words are nonzero
            return false;
        }
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Whether `self` and `other` share no variable.
    pub fn is_disjoint(&self, other: &VarSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Set union.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let mut words = vec![0u64; self.words.len().max(other.words.len())];
        for (i, w) in self.words.iter().enumerate() {
            words[i] |= w;
        }
        for (i, w) in other.words.iter().enumerate() {
            words[i] |= w;
        }
        let mut s = VarSet { words };
        s.normalize();
        s
    }

    /// Set intersection.
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        let n = self.words.len().min(other.words.len());
        let words: Vec<u64> = (0..n).map(|i| self.words[i] & other.words[i]).collect();
        let mut s = VarSet { words };
        s.normalize();
        s
    }

    /// `|self ∩ other|`, counted without building the intersection.
    pub fn intersection_len(&self, other: &VarSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &VarSet) -> VarSet {
        let words: Vec<u64> = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| w & !other.words.get(i).copied().unwrap_or(0))
            .collect();
        let mut s = VarSet { words };
        s.normalize();
        s
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &VarSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (i, w) in other.words.iter().enumerate() {
            self.words[i] |= w;
        }
    }

    /// Whether `self \ minus == other \ other_minus`, compared word by
    /// word without building either difference.
    pub fn difference_eq(&self, minus: &VarSet, other: &VarSet, other_minus: &VarSet) -> bool {
        let word = |s: &VarSet, i: usize| s.words.get(i).copied().unwrap_or(0);
        (0..self.words.len().max(other.words.len()))
            .all(|i| word(self, i) & !word(minus, i) == word(other, i) & !word(other_minus, i))
    }

    /// Iterates over the member variables in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest member, if any.
    pub fn min_var(&self) -> Option<usize> {
        self.iter().next()
    }

    /// The largest member, if any.
    pub fn max_var(&self) -> Option<usize> {
        for (i, w) in self.words.iter().enumerate().rev() {
            if *w != 0 {
                return Some(i * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        None
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "x{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for VarSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        VarSet::from_vars(iter)
    }
}

impl Extend<usize> for VarSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for v in iter {
            self.insert(v);
        }
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = usize;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the variables of a [`VarSet`], produced by [`VarSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a VarSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.word * 64 + b);
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = VarSet::new();
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(4));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn large_indices() {
        let mut s = VarSet::new();
        s.insert(200);
        s.insert(64);
        s.insert(0);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 200]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.max_var(), Some(200));
        assert_eq!(s.min_var(), Some(0));
    }

    #[test]
    fn subset_and_disjoint() {
        let a = VarSet::from_vars([1, 2, 3]);
        let b = VarSet::from_vars([1, 2, 3, 9]);
        let c = VarSet::from_vars([4, 5]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn subset_with_trailing_words() {
        let a = VarSet::from_vars([100]);
        let b = VarSet::from_vars([1]);
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn set_algebra() {
        let a = VarSet::from_vars([0, 1, 2]);
        let b = VarSet::from_vars([2, 3]);
        assert_eq!(a.union(&b), VarSet::from_vars([0, 1, 2, 3]));
        assert_eq!(a.intersection(&b), VarSet::from_vars([2]));
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.intersection_len(&VarSet::from_vars([0, 2, 99])), 2);
        assert_eq!(a.difference(&b), VarSet::from_vars([0, 1]));
    }

    #[test]
    fn difference_eq_compares_differences() {
        let a = VarSet::from_vars([1, 2, 70]);
        let b = VarSet::from_vars([1, 2, 5, 130]);
        let (ma, mb) = (VarSet::from_vars([70]), VarSet::from_vars([5, 130]));
        assert!(a.difference_eq(&ma, &b, &mb)); // {1,2} both
        assert!(!a.difference_eq(&VarSet::new(), &b, &mb)); // {1,2,70} vs {1,2}
        assert!(!b.difference_eq(&ma, &a, &ma)); // {1,2,5,130} vs {1,2}
    }

    #[test]
    fn normalization_keeps_equality() {
        let mut a = VarSet::from_vars([1, 100]);
        a.remove(100);
        let b = VarSet::from_vars([1]);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn display_names_variables() {
        let s = VarSet::from_vars([0, 3]);
        assert_eq!(s.to_string(), "{x0,x3}");
    }
}
