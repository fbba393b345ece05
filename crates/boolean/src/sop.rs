//! Sum-of-products covers, stored as rows of literal masks.

use crate::cube::word;
use crate::tt;
use crate::{Cube, TruthTable, VarSet};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A sum-of-products (OR of cubes) cover of a Boolean function.
///
/// The cubes are fixed-stride rows of one buffer: each row holds its
/// positive-literal words, then as many negative-literal words (see
/// [`Cube`]), so building, copying and comparing cubes are word loops with
/// no allocation per cube. Each cover has its own width (literals a row
/// can hold): a cube appended widens it only as far as its literals need,
/// and [`Sop::trim`] narrows it to the widest cube. Two covers compare and
/// hash as their cube lists, whatever their widths.
///
/// An empty cover is constant zero; a cover containing the universal cube is
/// constant one.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::Sop;
///
/// // f = x0·x1 + ¬x2
/// let f = Sop::from_literals([(vec![0, 1], vec![]), (vec![], vec![2])]).unwrap();
/// assert!(f.eval(0b011));
/// assert!(!f.eval(0b100));
/// assert_eq!(f.to_string(), "x0·x1 + ¬x2");
/// ```
#[derive(Clone)]
pub struct Sop {
    /// Words per phase: a row is `2 * half` words.
    half: usize,
    words: Vec<u64>,
}

impl Default for Sop {
    fn default() -> Self {
        Sop::new(0)
    }
}

impl Sop {
    /// An empty (constant-zero) cover whose rows hold variables `0..vars`.
    pub fn new(vars: usize) -> Self {
        Sop {
            half: vars.div_ceil(64).max(1),
            words: Vec::new(),
        }
    }

    /// The constant-zero cover.
    pub fn zero() -> Self {
        Sop::default()
    }

    /// The constant-one cover.
    pub fn one() -> Self {
        let mut s = Sop::zero();
        s.push_words(1, |_| (0, 0));
        s
    }

    /// The cover of the single literal `var` (positive if `phase`).
    pub fn literal(var: usize, phase: bool) -> Self {
        let mut s = Sop::new(var + 1);
        s.push_literals(phase.then_some(var), (!phase).then_some(var));
        s
    }

    /// Builds a cover from `(positive, negative)` variable lists, one per
    /// cube; `None` if some cube has a variable in both phases.
    pub fn from_literals<I, P, N>(cubes: I) -> Option<Self>
    where
        I: IntoIterator<Item = (P, N)>,
        P: IntoIterator<Item = usize>,
        N: IntoIterator<Item = usize>,
    {
        let mut s = Sop::zero();
        for (pos, neg) in cubes {
            if !s.push_literals(pos, neg) {
                return None;
            }
        }
        Some(s)
    }

    /// Builds an irredundant-ish cover from a truth table: collects minterms,
    /// then greedily merges distance-1 cubes and removes contained cubes.
    /// This is not a minimum cover, only a reasonable starting cover.
    pub fn from_table(t: &TruthTable) -> Self {
        let n = t.num_vars();
        let mut s = Sop::new(n);
        let all = (1u64 << n) - 1;
        for m in (0..(1u64 << n)).filter(|&m| t.eval(m)) {
            s.push_words(1, |_| (m, !m & all));
        }
        s.merge_distance1();
        s.remove_contained();
        s
    }

    /// The number of variables a row holds (a multiple of 64).
    pub fn vars(&self) -> usize {
        64 * self.half
    }

    /// Widens every row to hold variables `0..vars`, in place; a cover
    /// already that wide is unchanged.
    pub fn widen(&mut self, vars: usize) {
        self.fit(vars.div_ceil(64));
    }

    /// Narrows the rows to the words per phase the widest cube needs.
    pub fn trim(&mut self) {
        let need = self.cubes().map(Cube::width).max().unwrap_or(0).max(1);
        if need < self.half {
            self.resize(need);
        }
    }

    /// Widens the rows to at least `half` words per phase.
    fn fit(&mut self, half: usize) {
        if half > self.half {
            self.resize(half);
        }
    }

    /// Rewrites the rows `half` words per phase wide, dropping words past
    /// that (which must be zero).
    fn resize(&mut self, half: usize) {
        let old = self.half;
        let keep = old.min(half);
        let mut words = vec![0; self.num_cubes() * 2 * half];
        for (src, dst) in self
            .words
            .chunks_exact(2 * old)
            .zip(words.chunks_exact_mut(2 * half))
        {
            dst[..keep].copy_from_slice(&src[..keep]);
            dst[half..half + keep].copy_from_slice(&src[old..old + keep]);
        }
        self.half = half;
        self.words = words;
    }

    /// Appends a cube whose positive and negative word `i` are `f(i)`, at
    /// least `need` words per phase wide; `false` (nothing appended) if a
    /// variable is in both phases.
    fn push_words(&mut self, need: usize, f: impl Fn(usize) -> (u64, u64)) -> bool {
        self.fit(need);
        let h = self.half;
        let start = self.words.len();
        self.words.resize(start + 2 * h, 0);
        let (pos, neg) = self.words[start..].split_at_mut(h);
        let mut clash = 0;
        for i in 0..h {
            let (p, n) = f(i);
            pos[i] = p;
            neg[i] = n;
            clash |= p & n;
        }
        if clash != 0 {
            self.words.truncate(start);
        }
        clash == 0
    }

    /// Appends the cube of the `pos` and `neg` variables; `false` (nothing
    /// appended) if a variable is in both.
    pub fn push_literals<P, N>(&mut self, pos: P, neg: N) -> bool
    where
        P: IntoIterator<Item = usize>,
        N: IntoIterator<Item = usize>,
    {
        self.push_words(1, |_| (0, 0));
        let pos = pos.into_iter().map(|v| (v, true));
        for (v, phase) in pos.chain(neg.into_iter().map(|v| (v, false))) {
            // widening keeps the new row last
            self.fit(v / 64 + 1);
            let h = self.half;
            let at = self.words.len() - 2 * h + if phase { 0 } else { h };
            self.words[at + v / 64] |= 1 << (v % 64);
        }
        let h = self.half;
        let start = self.words.len() - 2 * h;
        let row = &self.words[start..];
        let clash = (0..h).any(|i| row[i] & row[h + i] != 0);
        if clash {
            self.words.truncate(start);
        }
        !clash
    }

    /// Appends a copy of `c`.
    pub fn push(&mut self, c: Cube<'_>) {
        let (p, n) = (c.positive(), c.negative());
        self.push_words(c.width(), |i| (word(p, i), word(n, i)));
    }

    /// Appends `a ∩ b` (the AND of the two cubes); `false` (nothing
    /// appended) if it is contradictory.
    pub fn push_product(&mut self, a: Cube<'_>, b: Cube<'_>) -> bool {
        let (p, n, q, m) = (a.positive(), a.negative(), b.positive(), b.negative());
        self.push_words(a.width().max(b.width()), |i| {
            (word(p, i) | word(q, i), word(n, i) | word(m, i))
        })
    }

    /// Appends `c / d`, `c` without `d`'s literals (algebraic cube
    /// division when `d` divides `c`).
    pub fn push_quotient(&mut self, c: Cube<'_>, d: Cube<'_>) {
        let (p, n, q, m) = (c.positive(), c.negative(), d.positive(), d.negative());
        self.push_words(c.width(), |i| {
            (word(p, i) & !word(q, i), word(n, i) & !word(m, i))
        });
    }

    /// Appends the literals `a` and `b` share (their common cube).
    pub fn push_common(&mut self, a: Cube<'_>, b: Cube<'_>) {
        let (p, n, q, m) = (a.positive(), a.negative(), b.positive(), b.negative());
        self.push_words(a.width().min(b.width()), |i| {
            (word(p, i) & word(q, i), word(n, i) & word(m, i))
        });
    }

    /// Appends `c` with the literal `var` (positive if `phase`) added;
    /// `false` (nothing appended) if `c` has its opposite.
    pub fn push_with_literal(&mut self, c: Cube<'_>, var: usize, phase: bool) -> bool {
        let (p, n) = (c.positive(), c.negative());
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        let add = |i: usize, on: bool| if i == w && on { bit } else { 0 };
        self.push_words(c.width().max(w + 1), |i| {
            (word(p, i) | add(i, phase), word(n, i) | add(i, !phase))
        })
    }

    /// Appends `c` without any literal of `var`.
    pub fn push_without_var(&mut self, c: Cube<'_>, var: usize) {
        let (p, n) = (c.positive(), c.negative());
        let (w, bit) = (var / 64, 1u64 << (var % 64));
        let keep = |i: usize| if i == w { !bit } else { !0 };
        self.push_words(c.width(), |i| (word(p, i) & keep(i), word(n, i) & keep(i)));
    }

    /// Removes any literal of `var` from cube `i`.
    ///
    /// # Panics
    ///
    /// Panics if the cover has at most `i` cubes.
    pub fn clear_var(&mut self, i: usize, var: usize) {
        let h = self.half;
        let row = &mut self.words[i * 2 * h..(i + 1) * 2 * h];
        if var / 64 < h {
            let keep = !(1u64 << (var % 64));
            row[var / 64] &= keep;
            row[h + var / 64] &= keep;
        }
    }

    /// Appends every cube of `other`.
    pub fn append(&mut self, other: &Sop) {
        self.fit(other.half);
        if other.half == self.half {
            self.words.extend_from_slice(&other.words);
        } else {
            other.cubes().for_each(|c| self.push(c));
        }
    }

    /// Removes every cube, keeping the width and the buffer.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Keeps the cubes for which `keep` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(Cube<'_>) -> bool) {
        let stride = 2 * self.half;
        let mut kept = 0;
        for i in 0..self.num_cubes() {
            if keep(self.cube(i)) {
                self.words
                    .copy_within(i * stride..(i + 1) * stride, kept * stride);
                kept += 1;
            }
        }
        self.words.truncate(kept * stride);
    }

    /// The cubes of the cover, in order.
    pub fn cubes(&self) -> impl ExactSizeIterator<Item = Cube<'_>> + DoubleEndedIterator + Clone {
        self.words.chunks_exact(2 * self.half).map(Cube::new)
    }

    /// Cube `i`.
    ///
    /// # Panics
    ///
    /// Panics if the cover has at most `i` cubes.
    pub fn cube(&self, i: usize) -> Cube<'_> {
        let stride = 2 * self.half;
        Cube::new(&self.words[i * stride..(i + 1) * stride])
    }

    /// Number of cubes.
    pub fn num_cubes(&self) -> usize {
        self.words.len() / (2 * self.half)
    }

    /// Total literal count.
    pub fn num_literals(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the cover is syntactically constant zero (no cubes).
    pub fn is_zero(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether the cover syntactically contains the universal cube.
    pub fn has_universe(&self) -> bool {
        self.cubes().any(Cube::is_universe)
    }

    /// The support bits: word `i` is the OR of every cube's positive and
    /// negative word `i`.
    fn support_words(&self) -> Vec<u64> {
        let h = self.half;
        let mut sup = vec![0; h];
        for row in self.words.chunks_exact(2 * h) {
            for i in 0..h {
                sup[i] |= row[i] | row[h + i];
            }
        }
        sup
    }

    /// Union of all cube supports.
    pub fn support(&self) -> VarSet {
        VarSet::from_words(self.support_words())
    }

    /// Evaluates on an input assignment.
    pub fn eval(&self, minterm: u64) -> bool {
        self.cubes().any(|c| c.eval(minterm))
    }

    /// Converts to a truth table over `n` variables.
    pub fn to_table(&self, n: usize) -> TruthTable {
        let mut t = TruthTable::zero(n);
        for c in self.cubes() {
            t = t | c.to_table(n);
        }
        t
    }

    /// Cofactor of the cover with respect to literal (`var`, `phase`).
    pub fn cofactor(&self, var: usize, phase: bool) -> Sop {
        let mut out = Sop::zero();
        for c in self.cubes() {
            if c.phase(var).is_none_or(|p| p == phase) {
                out.push_without_var(c, var);
            }
        }
        out
    }

    /// Removes cubes contained in (implying) another cube of the cover:
    /// each cube in turn is dropped if it implies a kept one, else the
    /// kept ones it contains are dropped and it is kept.
    pub fn remove_contained(&mut self) {
        let stride = 2 * self.half;
        // a cube's literals are a subset of another's only if the bits of
        // its folded words are: most pairs of a wide cover fail on these
        let mut folds: Vec<u64> = self.cubes().map(fold).collect();
        let mut kept = 0;
        for i in 0..folds.len() {
            let (c, ci) = (self.cube(i), folds[i]);
            if (0..kept).any(|k| folds[k] & !ci == 0 && c.implies(self.cube(k))) {
                continue; // c is covered by an already-kept cube
            }
            let mut still = 0;
            for k in 0..kept {
                let contains = ci & !folds[k] == 0 && self.cube(k).implies(self.cube(i));
                if !contains {
                    if still != k {
                        self.words
                            .copy_within(k * stride..(k + 1) * stride, still * stride);
                        folds[still] = folds[k];
                    }
                    still += 1;
                }
            }
            if still != i {
                self.words
                    .copy_within(i * stride..(i + 1) * stride, still * stride);
                folds[still] = ci;
            }
            kept = still + 1;
        }
        self.words.truncate(kept * stride);
    }

    /// Repeatedly merges pairs of cubes that differ in exactly one
    /// variable's phase and agree elsewhere (`a·x + a·¬x = a`): in each
    /// pass, each cube in order merges with the next later same-support
    /// cube at distance 1, and a merged cube waits for the next pass.
    pub fn merge_distance1(&mut self) {
        let h = self.half;
        let stride = 2 * h;
        let mut changed = true;
        while changed {
            changed = false;
            let n = self.num_cubes();
            // only same-support pairs can merge: visit them grouped by
            // support, each group in cube order
            let supports: Vec<u64> = self
                .words
                .chunks_exact(stride)
                .flat_map(|r| (0..h).map(move |i| r[i] | r[h + i]))
                .collect();
            let support = |i: usize| &supports[i * h..(i + 1) * h];
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| support(a).cmp(support(b)));
            let mut dead = vec![false; n];
            let mut dirty = vec![false; n];
            for group in order.chunk_by(|&a, &b| support(a) == support(b)) {
                for (at, &i) in group.iter().enumerate() {
                    for &j in &group[at + 1..] {
                        if dead[i] || dirty[i] || dead[j] || dirty[j] {
                            continue;
                        }
                        let (a, b) = (self.cube(i), self.cube(j));
                        if a.distance(b) == 1 {
                            let (p, q) = (a.positive(), b.positive());
                            let w = (0..h).find(|&w| p[w] != q[w]).expect("a clash word");
                            let bit = 1u64 << (p[w] ^ q[w]).trailing_zeros();
                            self.words[i * stride + w] &= !bit;
                            self.words[i * stride + h + w] &= !bit;
                            dead[j] = true;
                            dirty[i] = true;
                            changed = true;
                        }
                    }
                }
            }
            if changed {
                let mut keep = dead.iter().map(|d| !d);
                self.retain(|_| keep.next().expect("mask length"));
            }
        }
    }

    /// Exact tautology check (is the cover constant one?) by unate reduction
    /// and Shannon splitting.
    pub fn is_tautology(&self) -> bool {
        if self.has_universe() {
            return true;
        }
        if self.is_zero() {
            return false;
        }
        // unate test: if some variable appears in only one phase, cubes
        // containing it can never cover the opposite half alone.
        let mut split_var = None;
        let mut best = usize::MAX;
        for v in crate::mask_ones(&self.support_words()) {
            let pos = self.cubes().filter(|c| c.phase(v) == Some(true)).count();
            let neg = self.cubes().filter(|c| c.phase(v) == Some(false)).count();
            if pos == 0 || neg == 0 {
                // unate in v: drop all cubes with a literal of v; the cover
                // is a tautology iff the reduced cover is.
                let mut reduced = self.clone();
                reduced.retain(|c| c.phase(v).is_none());
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
        if self.is_zero() {
            return Sop::one();
        }
        if self.has_universe() {
            return Sop::zero();
        }
        let mut out = Sop::zero();
        if self.num_cubes() == 1 {
            // De Morgan on a single cube.
            let c = self.cube(0);
            for (v, phase) in c.literals() {
                out.push_literals((!phase).then_some(v), phase.then_some(v));
            }
            return out;
        }
        let v = self
            .most_binate_var()
            .expect("non-constant cover has a variable");
        for phase in [false, true] {
            for c in self.cofactor(v, phase).complement().cubes() {
                out.push_with_literal(c, v, phase);
            }
        }
        out.remove_contained();
        out.merge_distance1();
        out
    }

    /// Computes an irredundant sum-of-products cover of `t` with the
    /// Minato-Morreale ISOP algorithm — the workspace's stand-in for a
    /// two-level minimizer (espresso). The cover is irredundant and each
    /// cube is prime with respect to the recursion's bounds; cube counts
    /// are close to espresso's on the benchmark family.
    ///
    /// # Examples
    ///
    /// ```
    /// use xsynth_boolean::{Sop, TruthTable};
    ///
    /// let maj = TruthTable::symmetric(3, &[false, false, true, true]);
    /// let cover = Sop::isop(&maj);
    /// assert_eq!(cover.num_cubes(), 3); // ab + ac + bc
    /// assert_eq!(cover.to_table(3), maj);
    /// ```
    pub fn isop(t: &TruthTable) -> Sop {
        let vars: Vec<usize> = (0..t.num_vars()).collect();
        Sop::isop_over(t, &vars)
    }

    /// [`Sop::isop`] of `t` with input `b` of the table renamed variable
    /// `vars[b]`: the inverse of [`Sop::table_over`].
    ///
    /// # Panics
    ///
    /// Panics if `vars` has fewer entries than `t` has inputs.
    pub fn isop_over(t: &TruthTable, vars: &[usize]) -> Sop {
        let n = t.num_vars();
        let w = t.words().len();
        let mut cover = vec![0; w];
        // one frame of ISOP_FRAME tables per recursion level; the split
        // variable strictly increases, so there are at most `n` levels
        let mut scratch = vec![0; ISOP_FRAME * w * n];
        let mut cubes = Vec::new();
        isop_rec(
            t.words(),
            t.words(),
            0,
            n,
            &mut cover,
            &mut scratch,
            &mut cubes,
        );
        let mut out = Sop::new(vars[..n].iter().max().map_or(0, |&v| v + 1));
        let lits = |bits: u32| (0..n).filter(move |&b| bits >> b & 1 != 0).map(|b| vars[b]);
        for (pos, neg) in cubes {
            out.push_literals(lits(pos), lits(neg));
        }
        out
    }

    /// The table of the cover over the inputs `vars`: input `b` of the
    /// table is variable `vars[b]`. One word AND per literal and word.
    ///
    /// # Panics
    ///
    /// Panics if a cube mentions a variable not in `vars`, or `vars` has
    /// more than [`crate::MAX_TT_VARS`] entries.
    pub fn table_over(&self, vars: &[usize]) -> TruthTable {
        let n = vars.len();
        let mut table = vec![0; tt::words_for(n)];
        let mut cube = table.clone();
        let input = |v: usize| {
            vars.iter()
                .position(|&x| x == v)
                .expect("every variable of the cover is in `vars`")
        };
        for c in self.cubes() {
            cube.fill(!0);
            for (v, phase) in c.literals() {
                tt::words::and_literal(&mut cube, input(v), phase);
            }
            for (t, c) in table.iter_mut().zip(&cube) {
                *t |= c;
            }
        }
        TruthTable::from_words(n, table)
    }

    /// The variable occurring in the most cubes (ties to the highest index).
    pub fn most_binate_var(&self) -> Option<usize> {
        let h = self.half;
        let mut best: Option<(usize, usize)> = None;
        for v in crate::mask_ones(&self.support_words()) {
            let (w, bit) = (v / 64, 1u64 << (v % 64));
            let count = self
                .words
                .chunks_exact(2 * h)
                .filter(|r| (r[w] | r[h + w]) & bit != 0)
                .count();
            if best.is_none_or(|(_, c)| count >= c) {
                best = Some((v, count));
            }
        }
        best.map(|(v, _)| v)
    }
}

/// Tables per [`isop_rec`] frame: both cofactors of both bounds, the
/// child bounds, and the three child covers.
const ISOP_FRAME: usize = 9;

/// The Minato-Morreale recursion of [`Sop::isop`] on flat word tables over
/// `n` inputs. Appends the cover of the interval `[lower, upper]` to
/// `cubes` as `(positive, negative)` bit masks, writes its table into
/// `cover`, and splits only on inputs `first..n`: the first one either
/// bound depends on. Cube order: the cubes with `¬x`, then with `x`, then
/// the rest.
fn isop_rec(
    lower: &[u64],
    upper: &[u64],
    first: usize,
    n: usize,
    cover: &mut [u64],
    scratch: &mut [u64],
    cubes: &mut Vec<(u32, u32)>,
) {
    if lower.iter().all(|&w| w == 0) {
        cover.fill(0);
        return;
    }
    let tail = tt::tail_mask(n);
    let (last, full) = upper.split_last().expect("tables have a word");
    let upper_one = *last == tail && full.iter().all(|&w| w == !0);
    let split = if upper_one {
        None
    } else {
        (first..n).find(|&v| tt::words::depends_on(lower, v) || tt::words::depends_on(upper, v))
    };
    let Some(x) = split else {
        // the upper bound is one, or both bounds are constant with
        // `lower != 0`: the universe cube covers the interval
        cover.fill(!0);
        cover[cover.len() - 1] = tail;
        cubes.push((0, 0));
        return;
    };
    let w = lower.len();
    let (frame, rest) = scratch.split_at_mut(ISOP_FRAME * w);
    let mut tables = frame.chunks_exact_mut(w);
    let mut next = || tables.next().expect("ISOP_FRAME tables per frame");
    let (l0, l1, u0, u1) = (next(), next(), next(), next());
    let (lo, up, cov0, cov1, covs) = (next(), next(), next(), next(), next());
    tt::words::cofactor(lower, x, false, l0);
    tt::words::cofactor(lower, x, true, l1);
    tt::words::cofactor(upper, x, false, u0);
    tt::words::cofactor(upper, x, true, u1);
    // cubes that must contain ¬x, then x
    let start = cubes.len();
    for i in 0..w {
        lo[i] = l0[i] & !u1[i];
    }
    isop_rec(lo, u0, x + 1, n, cov0, rest, cubes);
    let mid = cubes.len();
    for i in 0..w {
        lo[i] = l1[i] & !u0[i];
    }
    isop_rec(lo, u1, x + 1, n, cov1, rest, cubes);
    let end = cubes.len();
    for i in 0..w {
        lo[i] = (l0[i] & !cov0[i]) | (l1[i] & !cov1[i]);
        up[i] = u0[i] & u1[i];
    }
    isop_rec(lo, up, x + 1, n, covs, rest, cubes);
    for c in &mut cubes[start..mid] {
        c.1 |= 1 << x;
    }
    for c in &mut cubes[mid..end] {
        c.0 |= 1 << x;
    }
    // cover = ¬x·cov0 + x·cov1 + covs
    tt::words::and_literal(cov0, x, false);
    tt::words::and_literal(cov1, x, true);
    for i in 0..w {
        cover[i] = cov0[i] | cov1[i] | covs[i];
    }
}

/// The OR of a cube's positive words and, rotated by 32, its negative
/// words: if `a`'s literals are a subset of `b`'s, `fold(a)`'s bits are of
/// `fold(b)`'s.
fn fold(c: Cube<'_>) -> u64 {
    let pos = c.positive().iter().fold(0, |acc, w| acc | w);
    c.negative()
        .iter()
        .fold(pos, |acc, w| acc | w.rotate_left(32))
}

impl<'a> FromIterator<Cube<'a>> for Sop {
    fn from_iter<I: IntoIterator<Item = Cube<'a>>>(iter: I) -> Self {
        let mut s = Sop::zero();
        s.extend(iter);
        s
    }
}

impl<'a> Extend<Cube<'a>> for Sop {
    fn extend<I: IntoIterator<Item = Cube<'a>>>(&mut self, iter: I) {
        iter.into_iter().for_each(|c| self.push(c));
    }
}

impl PartialEq for Sop {
    fn eq(&self, other: &Self) -> bool {
        if self.half == other.half {
            return self.words == other.words;
        }
        self.num_cubes() == other.num_cubes() && self.cubes().eq(other.cubes())
    }
}

impl Eq for Sop {}

impl Hash for Sop {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.num_cubes());
        self.cubes().for_each(|c| c.hash(state));
    }
}

impl fmt::Debug for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sop({self})")
    }
}

impl fmt::Display for Sop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(cubes: &[(&[usize], &[usize])]) -> Sop {
        Sop::from_literals(
            cubes
                .iter()
                .map(|&(p, n)| (p.iter().copied(), n.iter().copied())),
        )
        .expect("disjoint phases")
    }

    fn xor2() -> Sop {
        cover(&[(&[0], &[1]), (&[1], &[0])])
    }

    #[test]
    fn eval_and_table() {
        let f = xor2();
        let t = f.to_table(2);
        for m in 0..4u64 {
            assert_eq!(t.eval(m), (m & 1 != 0) ^ (m & 2 != 0));
        }
    }

    #[test]
    fn from_table_roundtrip() {
        let t = TruthTable::from_fn(5, |m| m.count_ones() >= 3);
        let s = Sop::from_table(&t);
        assert_eq!(s.to_table(5), t);
        assert!(s.num_cubes() < 16, "merging should compress minterms");
    }

    #[test]
    fn complement_is_complement() {
        let f = cover(&[(&[0, 1], &[]), (&[2], &[0]), (&[], &[1, 3])]);
        let g = f.complement();
        let (tf, tg) = (f.to_table(4), g.to_table(4));
        assert_eq!(tg, !tf);
    }

    #[test]
    fn complement_of_constants() {
        assert!(Sop::zero().complement().has_universe());
        assert!(Sop::one().complement().is_zero());
    }

    #[test]
    fn tautology() {
        let t = cover(&[(&[0], &[]), (&[], &[0])]);
        assert!(t.is_tautology());
        assert!(!xor2().is_tautology());
        assert!(Sop::one().is_tautology());
        assert!(!Sop::zero().is_tautology());
        // x0 + ¬x0·x1 + ¬x1 is a tautology
        let t2 = cover(&[(&[0], &[]), (&[1], &[0]), (&[], &[1])]);
        assert!(t2.is_tautology());
    }

    #[test]
    fn contained_cubes_removed() {
        let mut s = cover(&[(&[0], &[]), (&[0, 1], &[]), (&[0], &[])]);
        s.remove_contained();
        assert_eq!(s, cover(&[(&[0], &[])]));
    }

    #[test]
    fn isop_covers_exactly() {
        for seed in 0..12u64 {
            let mut s = seed;
            let t = TruthTable::from_fn(6, |m| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(m + 99);
                (s >> 33) & 3 == 0
            });
            let cover = Sop::isop(&t);
            assert_eq!(cover.to_table(6), t, "seed {seed}");
        }
    }

    #[test]
    fn isop_beats_minterm_merging_on_adder_carry() {
        // carry-out of a 3-bit adder: ISOP should land near the prime
        // cover, far below merged minterms
        let t = TruthTable::from_fn(6, |m| (m & 7) + ((m >> 3) & 7) > 7);
        let isop = Sop::isop(&t);
        let merged = Sop::from_table(&t);
        assert!(isop.num_literals() <= merged.num_literals());
        assert_eq!(isop.to_table(6), t);
        assert!(isop.num_cubes() <= 10, "got {}", isop.num_cubes());
    }

    /// The table-per-cofactor ISOP recursion the word-buffer one replaced;
    /// the oracle for [`Sop::isop`].
    fn isop_reference(t: &TruthTable) -> Sop {
        fn rec(lower: &TruthTable, upper: &TruthTable, vars: &[usize]) -> Sop {
            if lower.is_zero() {
                return Sop::zero();
            }
            if upper.is_one() {
                return Sop::one();
            }
            let Some((pos, &x)) = vars
                .iter()
                .enumerate()
                .find(|&(_, &v)| lower.depends_on(v) || upper.depends_on(v))
            else {
                return Sop::one();
            };
            let rest = &vars[pos + 1..];
            let (l0, l1) = (lower.cofactor0(x), lower.cofactor1(x));
            let (u0, u1) = (upper.cofactor0(x), upper.cofactor1(x));
            let c0 = rec(&(&l0 & &!&u1), &u0, rest);
            let c1 = rec(&(&l1 & &!&u0), &u1, rest);
            let cov0 = c0.to_table(lower.num_vars());
            let cov1 = c1.to_table(lower.num_vars());
            let d0 = &l0 & &!&cov0;
            let d1 = &l1 & &!&cov1;
            let cstar = rec(&(&d0 | &d1), &(&u0 & &u1), rest);
            let mut cubes = Sop::zero();
            for c in c0.cubes() {
                cubes.push_with_literal(c, x, false);
            }
            for c in c1.cubes() {
                cubes.push_with_literal(c, x, true);
            }
            cubes.append(&cstar);
            cubes
        }
        let vars: Vec<usize> = (0..t.num_vars()).collect();
        rec(t, t, &vars)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(300))]

        #[test]
        fn isop_matches_reference(
            bits in proptest::arbitrary::any::<u64>(),
            n in 0usize..13,
            density in 0u64..8,
        ) {
            // an on-set of density/8 (0 and 7 give near-constant tables)
            let mut rng = bits | 1;
            let t = TruthTable::from_fn(n, |_| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % 8 < density + u64::from(density == 7)
            });
            let cover = Sop::isop(&t);
            proptest::prop_assert_eq!(&cover, &isop_reference(&t));
            proptest::prop_assert_eq!(cover.to_table(n), t);
        }

        #[test]
        fn table_over_matches_minterm_evaluation(
            bits in proptest::arbitrary::any::<u64>(),
            cubes in 0usize..6,
        ) {
            // a cover over sparse variable indices, read back over a
            // permuted input order
            let vars = [3usize, 70, 9, 1, 130, 12, 5];
            let mut rng = bits | 1;
            let mut next = move |k: u64| {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (rng >> 33) % k
            };
            let f = Sop::from_literals((0..cubes).map(|_| {
                let phases: Vec<(usize, u64)> = vars.iter().map(|&v| (v, next(3))).collect();
                let with = |p: u64| phases.iter().filter(move |x| x.1 == p).map(|x| x.0);
                (with(1).collect::<Vec<_>>(), with(2).collect::<Vec<_>>())
            }))
            .expect("one phase per variable");
            let t = f.table_over(&vars);
            for m in 0..(1u64 << vars.len()) {
                let on = f.cubes().any(|c| {
                    vars.iter().enumerate().all(|(b, &v)| match c.phase(v) {
                        None => true,
                        Some(ph) => ph == (m >> b & 1 != 0),
                    })
                });
                proptest::prop_assert_eq!(t.eval(m), on, "minterm {}", m);
            }
        }
    }

    #[test]
    fn isop_constants() {
        assert!(Sop::isop(&TruthTable::zero(3)).is_zero());
        assert!(Sop::isop(&TruthTable::one(3)).is_tautology());
    }

    #[test]
    fn cofactor_drops_var() {
        let f = xor2();
        let f0 = f.cofactor(0, false);
        // xor with x0=0 is x1
        assert_eq!(f0.to_table(2), TruthTable::var(2, 1));
    }
}
