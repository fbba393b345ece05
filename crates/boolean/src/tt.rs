//! Bit-parallel truth tables.
//!
//! A [`TruthTable`] stores the complete function table of an `n`-input
//! Boolean function in `2^n` bits packed into `u64` words. It is the ground
//! truth for all small-function reasoning in the workspace: equivalence
//! checking, Reed-Muller transforms, cofactoring, symmetric-function
//! construction.

use crate::VarSet;
use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Maximum supported input count. `2^22` bits = 512 KiB per table, which is
/// the largest table the synthesis flow ever materializes.
pub const MAX_TT_VARS: usize = 22;

/// A complete truth table of an `n`-input Boolean function.
///
/// Bit `i` of the table is the function value on the input assignment whose
/// binary encoding is `i` (variable 0 is the least significant bit).
///
/// # Examples
///
/// ```
/// use xsynth_boolean::TruthTable;
///
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let f = &a ^ &b;
/// assert!(f.eval(0b001));
/// assert!(!f.eval(0b011));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    n: usize,
    words: Vec<u64>,
}

pub(crate) fn words_for(n: usize) -> usize {
    if n >= 6 {
        1 << (n - 6)
    } else {
        1
    }
}

/// Mask of the valid bits in the single word of a table with `n < 6` inputs.
pub(crate) fn tail_mask(n: usize) -> u64 {
    if n >= 6 {
        !0
    } else {
        (1u64 << (1 << n)) - 1
    }
}

impl TruthTable {
    /// The constant-zero function of `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_TT_VARS`.
    pub fn zero(n: usize) -> Self {
        assert!(n <= MAX_TT_VARS, "truth table too large: {n} inputs");
        TruthTable {
            n,
            words: vec![0; words_for(n)],
        }
    }

    /// The constant-one function of `n` inputs.
    pub fn one(n: usize) -> Self {
        let mut t = TruthTable::zero(n);
        for w in &mut t.words {
            *w = !0;
        }
        t.mask_tail();
        t
    }

    /// The projection function of variable `var` among `n` inputs.
    ///
    /// # Panics
    ///
    /// Panics if `var >= n` or `n > MAX_TT_VARS`.
    pub fn var(n: usize, var: usize) -> Self {
        assert!(var < n, "variable {var} out of range for {n} inputs");
        let mut t = TruthTable::one(n);
        words::and_literal(&mut t.words, var, true);
        t
    }

    /// Builds a table from raw words (bit `i` = the value on assignment
    /// `i`), clearing the bits past `2^n`.
    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> Self {
        assert_eq!(words.len(), words_for(n), "wrong word count for {n} inputs");
        let mut t = TruthTable { n, words };
        t.mask_tail();
        t
    }

    /// Builds a table by evaluating `f` on every input assignment.
    pub fn from_fn<F: FnMut(u64) -> bool>(n: usize, mut f: F) -> Self {
        let mut t = TruthTable::zero(n);
        for m in 0..(1u64 << n) {
            if f(m) {
                t.set(m, true);
            }
        }
        t
    }

    /// Builds a fully symmetric function: the output depends only on the
    /// input weight (number of ones); `on_weights[w]` gives the value at
    /// weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `on_weights.len() != n + 1`.
    pub fn symmetric(n: usize, on_weights: &[bool]) -> Self {
        assert_eq!(on_weights.len(), n + 1, "need one value per weight 0..=n");
        TruthTable::from_fn(n, |m| on_weights[m.count_ones() as usize])
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Raw words of the table (bit `i` = value on assignment `i`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    fn mask_tail(&mut self) {
        let m = tail_mask(self.n);
        let last = self.words.len() - 1;
        self.words[last] &= m;
    }

    /// Evaluates the function on the assignment encoded by `minterm`.
    ///
    /// # Panics
    ///
    /// Panics if `minterm >= 2^n`.
    pub fn eval(&self, minterm: u64) -> bool {
        assert!(minterm < (1u64 << self.n), "minterm out of range");
        self.words[(minterm / 64) as usize] & (1 << (minterm % 64)) != 0
    }

    /// Sets the function value on `minterm`.
    pub fn set(&mut self, minterm: u64, value: bool) {
        assert!(minterm < (1u64 << self.n), "minterm out of range");
        let (w, b) = ((minterm / 64) as usize, minterm % 64);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of satisfying assignments.
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether the function is constant zero.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the function is constant one.
    pub fn is_one(&self) -> bool {
        self.count_ones() == 1u64 << self.n
    }

    /// The positive cofactor with respect to `var` (`f` with `var = 1`),
    /// returned as a table over the same `n` variables (independent of
    /// `var`).
    pub fn cofactor1(&self, var: usize) -> Self {
        self.cofactor(var, true)
    }

    /// The negative cofactor with respect to `var` (`f` with `var = 0`).
    pub fn cofactor0(&self, var: usize) -> Self {
        self.cofactor(var, false)
    }

    fn cofactor(&self, var: usize, phase: bool) -> Self {
        self.check_var(var);
        let mut t = TruthTable::zero(self.n);
        words::cofactor(&self.words, var, phase, &mut t.words);
        t
    }

    /// Whether the function depends on `var`.
    pub fn depends_on(&self, var: usize) -> bool {
        self.check_var(var);
        words::depends_on(&self.words, var)
    }

    fn check_var(&self, var: usize) {
        assert!(
            var < self.n,
            "variable {var} out of range for {} inputs",
            self.n
        );
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> VarSet {
        (0..self.n).filter(|&v| self.depends_on(v)).collect()
    }
}

impl fmt::Debug for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TruthTable({} vars, ", self.n)?;
        if self.n <= 6 {
            write!(f, "0x{:x})", self.words[0] & tail_mask(self.n))
        } else {
            write!(f, "{} ones)", self.count_ones())
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for &TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: &TruthTable) -> TruthTable {
                assert_eq!(self.n, rhs.n, "truth tables over different inputs");
                let words = self
                    .words
                    .iter()
                    .zip(rhs.words.iter())
                    .map(|(a, b)| a $op b)
                    .collect();
                TruthTable { n: self.n, words }
            }
        }
        impl $trait for TruthTable {
            type Output = TruthTable;
            fn $method(self, rhs: TruthTable) -> TruthTable {
                (&self).$method(&rhs)
            }
        }
    };
}

impl_binop!(BitAnd, bitand, &);
impl_binop!(BitOr, bitor, |);
impl_binop!(BitXor, bitxor, ^);

impl Not for &TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        let mut t = TruthTable {
            n: self.n,
            words: self.words.iter().map(|w| !w).collect(),
        };
        t.mask_tail();
        t
    }
}

impl Not for TruthTable {
    type Output = TruthTable;
    fn not(self) -> TruthTable {
        !&self
    }
}

/// Word-level kernels over raw tables (`&[u64]`, bit `i` = the value on
/// assignment `i`), shared by [`TruthTable`] and the ISOP recursion of
/// [`crate::Sop::isop`], which works on flat word buffers.
pub(crate) mod words {
    /// Bit `i` is set when bit `var` of `i` is: input `var < 6` within a
    /// word.
    const PATTERNS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];

    /// ANDs the literal `var` (negated unless `phase`) into `t`. Bits past
    /// `2^n` of a table with `n < 6` inputs may be set afterwards.
    pub(crate) fn and_literal(t: &mut [u64], var: usize, phase: bool) {
        if var < 6 {
            let pat = if phase { PATTERNS[var] } else { !PATTERNS[var] };
            for w in t {
                *w &= pat;
            }
        } else {
            let shift = var - 6;
            for (i, w) in t.iter_mut().enumerate() {
                if (i >> shift) & 1 != usize::from(phase) {
                    *w = 0;
                }
            }
        }
    }

    /// Writes into `out` the cofactor of `t` with `var = phase`, as a
    /// table over the same inputs (independent of `var`).
    pub(crate) fn cofactor(t: &[u64], var: usize, phase: bool, out: &mut [u64]) {
        if var < 6 {
            let (pat, shift) = (PATTERNS[var], 1u32 << var);
            for (o, &w) in out.iter_mut().zip(t) {
                *o = if phase {
                    let hi = w & pat;
                    hi | (hi >> shift)
                } else {
                    let lo = w & !pat;
                    lo | (lo << shift)
                };
            }
        } else {
            let stride = 1usize << (var - 6);
            for (o, src) in out
                .chunks_exact_mut(2 * stride)
                .zip(t.chunks_exact(2 * stride))
            {
                let half = if phase {
                    &src[stride..]
                } else {
                    &src[..stride]
                };
                o[..stride].copy_from_slice(half);
                o[stride..].copy_from_slice(half);
            }
        }
    }

    /// Whether `t` depends on `var`.
    pub(crate) fn depends_on(t: &[u64], var: usize) -> bool {
        if var < 6 {
            let (pat, shift) = (PATTERNS[var], 1u32 << var);
            t.iter().any(|&w| (w ^ (w >> shift)) & !pat != 0)
        } else {
            let stride = 1usize << (var - 6);
            t.chunks_exact(2 * stride)
                .any(|c| c[..stride] != c[stride..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_projection() {
        for n in 1..=8 {
            for v in 0..n {
                let t = TruthTable::var(n, v);
                for m in 0..(1u64 << n) {
                    assert_eq!(t.eval(m), m & (1 << v) != 0, "n={n} v={v} m={m}");
                }
            }
        }
    }

    #[test]
    fn ops_match_pointwise() {
        let a = TruthTable::var(7, 2);
        let b = TruthTable::var(7, 6);
        let and = &a & &b;
        let or = &a | &b;
        let xor = &a ^ &b;
        let not = !&a;
        for m in 0..(1u64 << 7) {
            let (x, y) = (a.eval(m), b.eval(m));
            assert_eq!(and.eval(m), x && y);
            assert_eq!(or.eval(m), x || y);
            assert_eq!(xor.eval(m), x ^ y);
            assert_eq!(not.eval(m), !x);
        }
    }

    #[test]
    fn cofactors_and_dependence() {
        // f = x0 & x2 | x1
        let f = TruthTable::from_fn(3, |m| (m & 1 != 0 && m & 4 != 0) || m & 2 != 0);
        let f1 = f.cofactor1(0);
        let f0 = f.cofactor0(0);
        for m in 0..8u64 {
            assert_eq!(f1.eval(m), (m & 4 != 0) || m & 2 != 0);
            assert_eq!(f0.eval(m), m & 2 != 0);
        }
        assert!(f.depends_on(0));
        assert!(f.depends_on(1));
        assert!(f.depends_on(2));
        assert_eq!(f0.support(), VarSet::from_vars([1]));
    }

    #[test]
    fn cofactor_high_var() {
        let f = TruthTable::from_fn(8, |m| (m.count_ones() % 3) == 1);
        let f1 = f.cofactor1(7);
        let f0 = f.cofactor0(7);
        for m in 0..(1u64 << 8) {
            assert_eq!(f1.eval(m), f.eval(m | 0x80));
            assert_eq!(f0.eval(m), f.eval(m & !0x80));
        }
    }

    #[test]
    fn symmetric_majority() {
        let maj = TruthTable::symmetric(5, &[false, false, false, true, true, true]);
        assert_eq!(maj.count_ones(), 16);
        assert!(maj.eval(0b00111));
        assert!(!maj.eval(0b00011));
    }

    #[test]
    fn shannon_expansion_identity() {
        let f = TruthTable::from_fn(6, |m| m.wrapping_mul(2654435761) & 32 != 0);
        for v in 0..6 {
            let x = TruthTable::var(6, v);
            let rebuilt = (&x & &f.cofactor1(v)) | (&!&x & &f.cofactor0(v));
            assert_eq!(rebuilt, f);
        }
    }

    #[test]
    fn constants() {
        assert!(TruthTable::zero(5).is_zero());
        assert!(TruthTable::one(5).is_one());
        assert_eq!(TruthTable::one(3).count_ones(), 8);
        assert!(TruthTable::one(3).support().is_empty());
    }
}
