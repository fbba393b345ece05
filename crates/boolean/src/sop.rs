//! Sum-of-products covers.

use crate::tt;
use crate::{Cube, TruthTable, VarSet};
use std::fmt;

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
        use std::collections::HashMap;
        let mut changed = true;
        while changed {
            changed = false;
            // bucket cubes by support so only same-support pairs are tried
            let mut buckets: HashMap<crate::VarSet, Vec<usize>> = HashMap::new();
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
        let set = |bits: u32| VarSet::from_vars((0..n).filter(|&v| bits >> v & 1 != 0));
        Sop::from_cubes(
            cubes
                .into_iter()
                .map(|(pos, neg)| Cube::from_sets(set(pos), set(neg)).expect("disjoint phases")),
        )
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
        for c in &self.cubes {
            cube.fill(!0);
            for v in c.positive().iter() {
                tt::words::and_literal(&mut cube, input(v), true);
            }
            for v in c.negative().iter() {
                tt::words::and_literal(&mut cube, input(v), false);
            }
            for (t, c) in table.iter_mut().zip(&cube) {
                *t |= c;
            }
        }
        TruthTable::from_words(n, table)
    }

    /// The variable occurring in the most cubes (ties broken by index).
    pub fn most_binate_var(&self) -> Option<usize> {
        let sup = self.support();
        sup.iter()
            .max_by_key(|&v| self.cubes.iter().filter(|c| c.phase(v).is_some()).count())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2() -> Sop {
        Sop::from_cubes([Cube::new([0], [1]).unwrap(), Cube::new([1], [0]).unwrap()])
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
        let f = Sop::from_cubes([
            Cube::new([0, 1], []).unwrap(),
            Cube::new([2], [0]).unwrap(),
            Cube::new([], [1, 3]).unwrap(),
        ]);
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
        let t = Sop::from_cubes([Cube::literal(0, true), Cube::literal(0, false)]);
        assert!(t.is_tautology());
        assert!(!xor2().is_tautology());
        assert!(Sop::one().is_tautology());
        assert!(!Sop::zero().is_tautology());
        // x0 + ¬x0·x1 + ¬x1 is a tautology
        let t2 = Sop::from_cubes([
            Cube::new([0], []).unwrap(),
            Cube::new([1], [0]).unwrap(),
            Cube::new([], [1]).unwrap(),
        ]);
        assert!(t2.is_tautology());
    }

    #[test]
    fn contained_cubes_removed() {
        let mut s = Sop::from_cubes([
            Cube::new([0], []).unwrap(),
            Cube::new([0, 1], []).unwrap(),
            Cube::new([0], []).unwrap(),
        ]);
        s.remove_contained();
        assert_eq!(s.num_cubes(), 1);
        assert_eq!(s.cubes()[0], Cube::new([0], []).unwrap());
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
            let mut cubes = Vec::new();
            for c in c0.cubes() {
                let mut c = c.clone();
                c.add_literal(x, false);
                cubes.push(c);
            }
            for c in c1.cubes() {
                let mut c = c.clone();
                c.add_literal(x, true);
                cubes.push(c);
            }
            cubes.extend(cstar.cubes().iter().cloned());
            Sop::from_cubes(cubes)
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
            proptest::prop_assert_eq!(cover.cubes(), isop_reference(&t).cubes());
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
            let f = Sop::from_cubes((0..cubes).map(|_| {
                let mut c = Cube::universe();
                for &v in &vars {
                    match next(3) {
                        0 => {}
                        p => {
                            c.add_literal(v, p == 1);
                        }
                    }
                }
                c
            }));
            let t = f.table_over(&vars);
            for m in 0..(1u64 << vars.len()) {
                let on = f.cubes().iter().any(|c| {
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
