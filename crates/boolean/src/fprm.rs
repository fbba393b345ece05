//! Fixed-Polarity Reed-Muller (FPRM) forms.
//!
//! An FPRM form represents a Boolean function as an XOR-sum of cubes in
//! which every variable appears with a single fixed polarity (Section 2 of
//! the paper). This module provides the form itself, the fast
//! fixed-polarity Reed-Muller transform from truth tables, a coefficient
//! vector that moves between polarities one variable at a time
//! ([`Spectrum`]), polarity search, and prime-cube analysis (Csanky et al.).

use crate::{TruthTable, VarSet};
use std::fmt;

/// The polarity assignment of an FPRM form: for each variable, whether it
/// appears positively (`true`) or negatively (`false`) in all cubes.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::Polarity;
///
/// let mut p = Polarity::all_positive(3);
/// p.set(1, false);
/// assert!(p.is_positive(0));
/// assert!(!p.is_positive(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Polarity {
    n: usize,
    positive: VarSet,
}

impl Polarity {
    /// All variables positive — the polarity of the classic
    /// positive-polarity Reed-Muller form.
    pub fn all_positive(n: usize) -> Self {
        Polarity {
            n,
            positive: VarSet::full(n),
        }
    }

    /// All variables negative.
    pub fn all_negative(n: usize) -> Self {
        Polarity {
            n,
            positive: VarSet::new(),
        }
    }

    /// Builds a polarity from the paper's vector convention: entry `1`
    /// means positive, `0` negative.
    ///
    /// # Examples
    ///
    /// ```
    /// use xsynth_boolean::Polarity;
    /// // The paper's Figure 1 polarity V = (0 1 1).
    /// let p = Polarity::from_bits(&[false, true, true]);
    /// assert!(!p.is_positive(0));
    /// assert!(p.is_positive(2));
    /// ```
    pub fn from_bits(bits: &[bool]) -> Self {
        let mut p = Polarity::all_negative(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                p.positive.insert(i);
            }
        }
        p
    }

    /// Decodes a polarity from an integer, bit `i` = polarity of variable
    /// `i` (used to enumerate all `2^n` polarities).
    pub fn from_index(n: usize, index: u64) -> Self {
        let mut p = Polarity::all_negative(n);
        for i in 0..n {
            if index & (1 << i) != 0 {
                p.positive.insert(i);
            }
        }
        p
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Whether variable `var` is positive.
    pub fn is_positive(&self, var: usize) -> bool {
        self.positive.contains(var)
    }

    /// Sets the polarity of `var`.
    pub fn set(&mut self, var: usize, positive: bool) {
        if positive {
            self.positive.insert(var);
        } else {
            self.positive.remove(var);
        }
    }

    /// Flips the polarity of `var`.
    pub fn flip(&mut self, var: usize) {
        if self.is_positive(var) {
            self.positive.remove(var);
        } else {
            self.positive.insert(var);
        }
    }
}

impl fmt::Debug for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polarity(")?;
        for v in 0..self.n {
            write!(f, "{}", if self.is_positive(v) { 1 } else { 0 })?;
        }
        write!(f, ")")
    }
}

/// A fixed-polarity Reed-Muller form: an XOR-sum of cubes, each cube a set
/// of variables, with the phase of every variable dictated by a shared
/// [`Polarity`].
///
/// # Examples
///
/// ```
/// use xsynth_boolean::{Fprm, TruthTable};
///
/// // x0 XOR x1 has the positive-polarity FPRM x0 ⊕ x1.
/// let t = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
/// let f = Fprm::from_table_positive(&t);
/// assert_eq!(f.num_cubes(), 2);
/// assert_eq!(f.to_table(), t);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Fprm {
    polarity: Polarity,
    cubes: Vec<VarSet>,
}

impl Fprm {
    /// Builds an FPRM form directly from its parts.
    pub fn new(polarity: Polarity, cubes: Vec<VarSet>) -> Self {
        Fprm { polarity, cubes }
    }

    /// The FPRM form of `t` in all-positive polarity (the classic
    /// positive-polarity Reed-Muller form).
    pub fn from_table_positive(t: &TruthTable) -> Self {
        Fprm::from_table(t, &Polarity::all_positive(t.num_vars()))
    }

    /// The FPRM form of `t` under `polarity`, via the fast fixed-polarity
    /// Reed-Muller (Davio) transform, `O(n·2^n)`.
    ///
    /// # Panics
    ///
    /// Panics if `polarity.num_vars() != t.num_vars()`.
    pub fn from_table(t: &TruthTable, polarity: &Polarity) -> Self {
        let n = t.num_vars();
        assert_eq!(polarity.num_vars(), n, "polarity arity mismatch");
        let mut words: Vec<u64> = t.words().to_vec();
        for var in 0..n {
            davio_butterfly(&mut words, var, polarity.is_positive(var));
        }
        // Collect coefficient positions.
        let mut cubes = Vec::new();
        for m in 0..(1u64 << n) {
            if words[(m / 64) as usize] & (1 << (m % 64)) != 0 {
                cubes.push((0..n).filter(|v| m & (1 << v) != 0).collect::<VarSet>());
            }
        }
        Fprm {
            polarity: polarity.clone(),
            cubes,
        }
    }

    /// The polarity vector.
    pub fn polarity(&self) -> &Polarity {
        &self.polarity
    }

    /// The cubes (variable sets; phases come from the polarity).
    pub fn cubes(&self) -> &[VarSet] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.cubes.len()
    }

    /// Number of input variables.
    pub fn num_vars(&self) -> usize {
        self.polarity.num_vars()
    }

    /// Total literal count over all cubes.
    pub fn num_literals(&self) -> usize {
        self.cubes.iter().map(VarSet::len).sum()
    }

    /// Evaluates the form on a variable-space assignment.
    pub fn eval(&self, minterm: u64) -> bool {
        let mut acc = false;
        for c in &self.cubes {
            let mut on = true;
            for v in c.iter() {
                let val = minterm & (1 << v) != 0;
                let lit = if self.polarity.is_positive(v) {
                    val
                } else {
                    !val
                };
                if !lit {
                    on = false;
                    break;
                }
            }
            acc ^= on;
        }
        acc
    }

    /// Converts back to a truth table (inverse transform).
    pub fn to_table(&self) -> TruthTable {
        let n = self.num_vars();
        let mut t = TruthTable::zero(n);
        for c in &self.cubes {
            let mut m = 0u64;
            for v in c.iter() {
                m |= 1 << v;
            }
            t.set(m, true);
        }
        let mut words = t.words().to_vec();
        for var in 0..n {
            davio_butterfly_inv(&mut words, var, self.polarity.is_positive(var));
        }
        let mut out = TruthTable::zero(n);
        for m in 0..(1u64 << n) {
            if words[(m / 64) as usize] & (1 << (m % 64)) != 0 {
                out.set(m, true);
            }
        }
        out
    }

    /// The prime cubes of the form: cubes whose support is not properly
    /// contained in the support of any other cube (Csanky et al. — these
    /// occur in every one of the `2^n` FPRM forms of the function).
    pub fn prime_cubes(&self) -> Vec<&VarSet> {
        self.cubes
            .iter()
            .filter(|c| !self.cubes.iter().any(|d| c != &d && c.is_subset(d)))
            .collect()
    }
}

/// The Reed–Muller coefficient vector of one function, held under one
/// polarity and moved between polarities one variable at a time.
///
/// Bit `m` is the coefficient of the cube whose variables are the set bits
/// of `m`, under [`Spectrum::polarity`]. Flipping variable `i` maps every
/// coefficient `c[S]` with `i ∉ S` to `c[S] ⊕ c[S ∪ {i}]` and leaves the
/// others: one in-place pass over the words, the same in both directions.
/// The cube count is a popcount, so a Gray-code walk visits all `2^n`
/// polarities at one pass each.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::{Spectrum, TruthTable};
///
/// // ¬x0·¬x1 = 1 ⊕ x0 ⊕ x1 ⊕ x0·x1 in positive polarity, one cube in
/// // all-negative polarity.
/// let t = TruthTable::from_fn(2, |m| m == 0);
/// let mut s = Spectrum::new(&t);
/// assert_eq!(s.num_cubes(), 4);
/// s.flip(0);
/// s.flip(1);
/// assert_eq!(s.num_cubes(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Spectrum {
    polarity: Polarity,
    words: Vec<u64>,
}

impl Spectrum {
    /// The spectrum of `t` in all-positive polarity (the positive Davio
    /// transform).
    pub fn new(t: &TruthTable) -> Self {
        let n = t.num_vars();
        let mut words = t.words().to_vec();
        for var in 0..n {
            davio_butterfly(&mut words, var, true);
        }
        Spectrum {
            polarity: Polarity::all_positive(n),
            words,
        }
    }

    /// The polarity the coefficients are currently held under.
    pub fn polarity(&self) -> &Polarity {
        &self.polarity
    }

    /// Moves the spectrum to the polarity with `var` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not below the table's arity.
    pub fn flip(&mut self, var: usize) {
        assert!(
            var < self.polarity.num_vars(),
            "variable {var} out of range"
        );
        if var >= 6 {
            let stride = 1usize << (var - 6);
            for block in self.words.chunks_exact_mut(2 * stride) {
                let (lo, hi) = block.split_at_mut(stride);
                for (l, h) in lo.iter_mut().zip(hi.iter()) {
                    *l ^= h;
                }
            }
        } else {
            let shift = 1u32 << var;
            for w in &mut self.words {
                *w ^= (*w & HI_BITS[var]) >> shift;
            }
        }
        self.polarity.flip(var);
    }

    /// Number of cubes of the FPRM form under the current polarity.
    pub fn num_cubes(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// For each in-word variable `v < 6`, the bit positions whose index has bit
/// `v` set (the high half of every `v`-butterfly).
const HI_BITS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Applies one Davio butterfly stage in place over the packed table.
///
/// Positive polarity maps `(f0, f1)` blocks to `(f0, f0 ^ f1)` — the
/// coefficient blocks of `f = f0 ⊕ x·(f0 ⊕ f1)`. Negative polarity maps
/// them to `(f1, f0 ^ f1)` for `f = f1 ⊕ ¬x·(f0 ⊕ f1)`.
fn davio_butterfly(words: &mut [u64], var: usize, positive: bool) {
    if var >= 6 {
        let stride = 1usize << (var - 6);
        let mut i = 0;
        while i < words.len() {
            for j in 0..stride {
                let lo = words[i + j];
                let hi = words[i + stride + j];
                if positive {
                    words[i + stride + j] = lo ^ hi;
                } else {
                    words[i + j] = hi;
                    words[i + stride + j] = lo ^ hi;
                }
            }
            i += 2 * stride;
        }
    } else {
        let shift = 1u32 << var;
        let vpat = HI_BITS[var];
        for w in words.iter_mut() {
            let lo = *w & !vpat;
            let hi = *w & vpat;
            if positive {
                *w = lo | (hi ^ (lo << shift));
            } else {
                *w = (hi >> shift) | (hi ^ (lo << shift));
            }
        }
    }
}

/// Inverts one Davio butterfly stage. The positive stage is an involution
/// (`(lo, hi) → (lo, lo ^ hi)` applied twice is the identity); the negative
/// stage `(lo, hi) → (hi, lo ^ hi)` has order three, and its inverse maps
/// `(a, b) → (a ^ b, a)`.
fn davio_butterfly_inv(words: &mut [u64], var: usize, positive: bool) {
    if positive {
        davio_butterfly(words, var, true);
    } else {
        davio_butterfly(words, var, false);
        davio_butterfly(words, var, false);
    }
}

impl fmt::Debug for Fprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fprm({} cubes, {:?})", self.num_cubes(), self.polarity)
    }
}

impl fmt::Display for Fprm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " ⊕ ")?;
            }
            if c.is_empty() {
                write!(f, "1")?;
            } else {
                for (j, v) in c.iter().enumerate() {
                    if j > 0 {
                        write!(f, "·")?;
                    }
                    if self.polarity.is_positive(v) {
                        write!(f, "x{v}")?;
                    } else {
                        write!(f, "¬x{v}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_table(n: usize, seed: u64) -> TruthTable {
        let mut s = seed;
        TruthTable::from_fn(n, |m| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(m ^ 1442695040888963407);
            (s >> 33) & 1 != 0
        })
    }

    #[test]
    fn ppr_of_xor() {
        let t = TruthTable::var(2, 0) ^ TruthTable::var(2, 1);
        let f = Fprm::from_table_positive(&t);
        assert_eq!(f.num_cubes(), 2);
        assert!(f.cubes().contains(&VarSet::singleton(0)));
        assert!(f.cubes().contains(&VarSet::singleton(1)));
    }

    #[test]
    fn ppr_of_or() {
        // x0 + x1 = x0 ⊕ x1 ⊕ x0·x1
        let t = TruthTable::var(2, 0) | TruthTable::var(2, 1);
        let f = Fprm::from_table_positive(&t);
        assert_eq!(f.num_cubes(), 3);
    }

    #[test]
    fn transform_roundtrip_all_polarities() {
        let t = random_table(5, 7);
        for idx in 0..32u64 {
            let p = Polarity::from_index(5, idx);
            let f = Fprm::from_table(&t, &p);
            assert_eq!(f.to_table(), t, "polarity {idx}");
            for m in 0..32u64 {
                assert_eq!(f.eval(m), t.eval(m), "polarity {idx} minterm {m}");
            }
        }
    }

    #[test]
    fn transform_roundtrip_large() {
        let t = random_table(9, 21);
        let p = Polarity::from_index(9, 0b101100110);
        let f = Fprm::from_table(&t, &p);
        assert_eq!(f.to_table(), t);
    }

    #[test]
    fn figure1_function() {
        // Paper Figure 1: f = ¬x1 ⊕ ¬x1·x3 ⊕ ¬x1·x2 ⊕ ¬x1·x2·x3 ⊕ x3 ⊕ x2,
        // polarity V = (0 1 1) — variable numbering in the paper is 1-based;
        // here x1,x2,x3 map to variables 0,1,2.
        let p = Polarity::from_bits(&[false, true, true]);
        let cubes = vec![
            VarSet::from_vars([0]),
            VarSet::from_vars([0, 2]),
            VarSet::from_vars([0, 1]),
            VarSet::from_vars([0, 1, 2]),
            VarSet::from_vars([2]),
            VarSet::from_vars([1]),
        ];
        let f = Fprm::new(p.clone(), cubes);
        let t = f.to_table();
        // Re-deriving the FPRM under the same polarity gives the same cubes.
        let f2 = Fprm::from_table(&t, &p);
        assert_eq!(f2.num_cubes(), 6);
        let mut a: Vec<_> = f.cubes().to_vec();
        let mut b: Vec<_> = f2.cubes().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn adder_sum_has_prime_cubes() {
        // Paper: z4ml output x26 = x3 ⊕ x6 ⊕ x1x4 ⊕ x1x7 ⊕ x4x7 — all prime.
        // Model: middle sum bit of a 3-bit adder with carry chain.
        let t = TruthTable::from_fn(5, |m| {
            let a = m & 1;
            let b = (m >> 1) & 1;
            let cin = (m >> 2) & 1;
            let a2 = (m >> 3) & 1;
            let b2 = (m >> 4) & 1;
            let carry = a & b | a & cin | b & cin;
            ((a2 ^ b2 ^ carry) & 1) != 0
        });
        let f = Fprm::from_table_positive(&t);
        assert_eq!(f.num_cubes(), 5);
        assert_eq!(
            f.prime_cubes().len(),
            5,
            "all cubes of an adder sum are prime"
        );
    }

    #[test]
    fn prime_cube_containment() {
        let p = Polarity::all_positive(3);
        let f = Fprm::new(
            p,
            vec![
                VarSet::from_vars([0]),
                VarSet::from_vars([0, 1]),
                VarSet::from_vars([2]),
            ],
        );
        let primes = f.prime_cubes();
        assert_eq!(primes.len(), 2);
        assert!(primes.contains(&&VarSet::from_vars([0, 1])));
        assert!(primes.contains(&&VarSet::from_vars([2])));
    }

    #[test]
    fn spectrum_follows_the_transform_through_a_gray_walk() {
        for n in 0..=8 {
            let t = random_table(n, 40 + n as u64);
            let mut s = Spectrum::new(&t);
            for i in 0..(1u64 << n) {
                if i > 0 {
                    s.flip(i.trailing_zeros() as usize);
                }
                let f = Fprm::from_table(&t, s.polarity());
                assert_eq!(s.num_cubes(), f.num_cubes() as u64, "n {n} step {i}");
            }
            if n > 0 {
                // flipping is its own inverse
                let before = s.clone();
                s.flip(n - 1);
                s.flip(n - 1);
                assert_eq!(s.polarity(), before.polarity());
                assert_eq!(s.words, before.words);
            }
        }
    }

    #[test]
    fn constant_cube_detection() {
        let t = !TruthTable::var(1, 0); // ¬x0 = 1 ⊕ x0 in positive polarity
        let f = Fprm::from_table_positive(&t);
        assert!(f.cubes().iter().any(VarSet::is_empty));
        assert_eq!(f.num_cubes(), 2);
    }
}
