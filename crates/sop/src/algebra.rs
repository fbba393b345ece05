//! Algebraic (weak) division, kernel extraction and factoring over
//! sum-of-products covers — the Brayton–McMullen toolbox behind MIS/SIS.

use xsynth_boolean::{mask_ones, Cube, Sop};

/// Weak (algebraic) division `f / d`, returning `(quotient, remainder)`
/// with `f = quotient·d + remainder` and the quotient maximal.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::Sop;
/// use xsynth_sop::algebra::divide;
///
/// // f = a·c + b·c + d ; d0 = a + b  →  q = c, r = d
/// let f = Sop::from_literals([(vec![0, 2], vec![]), (vec![1, 2], vec![]), (vec![3], vec![])]);
/// let d = Sop::from_literals([([0], []), ([1], [])]);
/// let (f, d) = (f.unwrap(), d.unwrap());
/// let (q, r) = divide(&f, &d);
/// assert_eq!(q.num_cubes(), 1);
/// assert_eq!(r.num_cubes(), 1);
/// ```
pub fn divide(f: &Sop, d: &Sop) -> (Sop, Sop) {
    if d.is_zero() {
        return (Sop::zero(), f.clone());
    }
    let mut quotient: Option<Sop> = None;
    let mut qi = Sop::zero();
    for di in d.cubes() {
        qi.clear();
        for c in f.cubes().filter(|c| c.implies(di)) {
            qi.push_quotient(c, di);
        }
        match &mut quotient {
            None => quotient = Some(qi.clone()),
            Some(prev) => prev.retain(|c| qi.cubes().any(|x| x == c)),
        }
        if quotient.as_ref().is_some_and(Sop::is_zero) {
            break;
        }
    }
    let q = quotient.expect("a divisor cube");
    if q.is_zero() {
        return (q, f.clone());
    }
    // remainder = cubes of f not covered by q×d
    let mut product = Sop::zero();
    for qc in q.cubes() {
        for dc in d.cubes() {
            product.push_product(qc, dc);
        }
    }
    let mut r = f.clone();
    r.retain(|c| !product.cubes().any(|p| p == c));
    (q, r)
}

/// The largest cube dividing every cube of `f` (the "common cube"), as a
/// one-cube cover; the universal cube if `f` is cube-free or empty.
pub fn common_cube(f: &Sop) -> Sop {
    let mut it = f.cubes();
    let Some(first) = it.next() else {
        return Sop::one();
    };
    let (mut cc, mut next) = (Sop::zero(), Sop::zero());
    cc.push(first);
    for c in it {
        next.clear();
        next.push_common(cc.cube(0), c);
        std::mem::swap(&mut cc, &mut next);
    }
    cc
}

/// Whether `f` is cube-free (no single literal divides every cube).
pub fn is_cube_free(f: &Sop) -> bool {
    common_cube(f).cube(0).is_universe()
}

/// A kernel of a cover together with one of its co-kernels.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The kernel: a cube-free quotient of `f` by a cube.
    pub kernel: Sop,
    /// The co-kernel cube that produced it, as a one-cube cover.
    pub cokernel: Sop,
}

/// Computes the kernels of `f` (Brayton–McMullen recursive algorithm),
/// including `f` itself when it is cube-free and has ≥ 2 cubes.
///
/// `limit` bounds the runtime on pathological covers but is not an exact
/// cap: once `limit` kernels are found no new recursion level starts,
/// but each level still open may add one more kernel before it returns.
/// Levels nest on strictly increasing literals, so the result holds at
/// most `limit + L − 1` kernels for a cover of `L` distinct literals
/// (and at least one when `f` is cube-free with ≥ 2 cubes, even for
/// `limit` 0).
///
/// The recursion runs on `MaskCover` words: a cube is a bit mask over
/// `f`'s literals, so co-kernels, quotients and the duplicate check are
/// word operations, and only the kernels returned are built as covers.
pub fn kernels(f: &Sop, limit: usize) -> Vec<Kernel> {
    let mc = MaskCover::new(f);
    let w = mc.w;
    let mut base: Vec<u64> = Vec::with_capacity(f.num_cubes() * w);
    for c in f.cubes() {
        mc.push_mask(c, &mut base);
    }
    let mut cc = vec![0; w];
    mc.common(&base, &mut cc);
    for m in base.chunks_exact_mut(w) {
        for (x, c) in m.iter_mut().zip(&cc) {
            *x &= !c;
        }
    }
    let mut out = Vec::new();
    let mut found: Vec<Vec<u64>> = Vec::new();
    if base.len() >= 2 * w {
        out.push(Kernel {
            kernel: mc.sop(&base),
            cokernel: mc.cube(&cc),
        });
        found.push(base.clone());
    }
    kernels_rec(&mc, &base, 0, &cc, &mut found, &mut out, limit);
    out
}

/// A cover's literals in sorted order; bit `i` of a cube mask stands for
/// `lits[i]`, and each mask takes `w` words.
struct MaskCover {
    lits: Vec<(usize, bool)>,
    w: usize,
}

impl MaskCover {
    fn new(f: &Sop) -> MaskCover {
        // every variable's negative literal, then its positive one
        let (mut pos, mut neg) = (Vec::new(), Vec::new());
        for c in f.cubes() {
            for (acc, half) in [(&mut pos, c.positive()), (&mut neg, c.negative())] {
                acc.resize(acc.len().max(half.len()), 0);
                acc.iter_mut().zip(half).for_each(|(a, w)| *a |= w);
            }
        }
        let support: Vec<u64> = (0..pos.len().max(neg.len()))
            .map(|i| pos.get(i).copied().unwrap_or(0) | neg.get(i).copied().unwrap_or(0))
            .collect();
        let has = |half: &[u64], v: usize| half.get(v / 64).is_some_and(|w| w >> (v % 64) & 1 != 0);
        let lits: Vec<(usize, bool)> = mask_ones(&support)
            .flat_map(|v| [(v, false), (v, true)])
            .filter(|&(v, phase)| has(if phase { &pos } else { &neg }, v))
            .collect();
        let w = lits.len().div_ceil(64).max(1);
        MaskCover { lits, w }
    }

    /// Appends the mask of `c` (a cube over these literals) to `out`.
    fn push_mask(&self, c: Cube<'_>, out: &mut Vec<u64>) {
        let at = out.len();
        out.resize(at + self.w, 0);
        for lit in c.literals() {
            let i = self
                .lits
                .binary_search(&lit)
                .expect("a literal of the cover");
            out[at + i / 64] |= 1 << (i % 64);
        }
    }

    /// The AND of the masks in `cubes` (zero when there are none).
    fn common(&self, cubes: &[u64], cc: &mut [u64]) {
        cc.fill(if cubes.is_empty() { 0 } else { !0 });
        for m in cubes.chunks_exact(self.w) {
            for (c, x) in cc.iter_mut().zip(m) {
                *c &= x;
            }
        }
    }

    /// Appends the cube of `mask` to `out`.
    fn push_cube(&self, mask: &[u64], out: &mut Sop) {
        let lits = || mask_ones(mask).map(|i| self.lits[i]);
        let phase = |ph: bool| lits().filter(move |l| l.1 == ph).map(|l| l.0);
        let one_cube = out.push_literals(phase(true), phase(false));
        debug_assert!(one_cube, "the literals of one cube");
    }

    fn cube(&self, mask: &[u64]) -> Sop {
        let mut c = Sop::zero();
        self.push_cube(mask, &mut c);
        c
    }

    fn sop(&self, masks: &[u64]) -> Sop {
        let mut s = Sop::zero();
        masks
            .chunks_exact(self.w)
            .for_each(|m| self.push_cube(m, &mut s));
        s
    }
}

/// `covers_same` on masks: as many cubes, each of `a`'s also in `b`.
fn same_masks(a: &[u64], b: &[u64], w: usize) -> bool {
    a.len() == b.len() && a.chunks_exact(w).all(|x| b.chunks_exact(w).any(|y| x == y))
}

fn kernels_rec(
    mc: &MaskCover,
    f: &[u64],
    start: usize,
    co_so_far: &[u64],
    found: &mut Vec<Vec<u64>>,
    out: &mut Vec<Kernel>,
    limit: usize,
) {
    if out.len() >= limit {
        return;
    }
    let w = mc.w;
    let mut cc = vec![0; w];
    let mut q: Vec<u64> = Vec::new();
    for i in start..mc.lits.len() {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        q.clear();
        for m in f.chunks_exact(w).filter(|m| m[word] & bit != 0) {
            q.extend_from_slice(m);
        }
        if q.len() < 2 * w {
            continue;
        }
        // co-kernel: largest cube common to the containing cubes
        mc.common(&q, &mut cc);
        // skip if a smaller-indexed literal is in cc: that kernel was
        // already produced from that literal
        if cc[..word].iter().any(|&x| x != 0) || cc[word] & (bit - 1) != 0 {
            continue;
        }
        for m in q.chunks_exact_mut(w) {
            for (x, c) in m.iter_mut().zip(&cc) {
                *x &= !c;
            }
        }
        if q.chunks_exact(w).any(|m| m.iter().all(|&x| x == 0)) {
            // a universe cube in the quotient only arises from duplicate
            // cubes in the cover; such a "kernel" is degenerate (dividing
            // by it returns the cover itself and factoring would loop)
            continue;
        }
        // the co-kernel so far and `cc` both lie in every cube of `f`
        // holding literal `i`, so they never clash
        let co: Vec<u64> = co_so_far.iter().zip(&cc).map(|(a, b)| a | b).collect();
        if !found.iter().any(|k| same_masks(k, &q, w)) {
            out.push(Kernel {
                kernel: mc.sop(&q),
                cokernel: mc.cube(&co),
            });
            found.push(q.clone());
            if out.len() >= limit {
                return;
            }
        }
        kernels_rec(mc, &q, i + 1, &co, found, out, limit);
    }
}

/// Structural equality of covers up to cube order.
pub fn covers_same(a: &Sop, b: &Sop) -> bool {
    if a.num_cubes() != b.num_cubes() {
        return false;
    }
    a.cubes().all(|c| b.cubes().any(|x| x == c))
}

/// A factored expression over literals of the cover's variable space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Factored {
    /// Constant zero.
    Zero,
    /// Constant one.
    One,
    /// A single literal `(variable, phase)`.
    Literal(usize, bool),
    /// Product of factors.
    And(Vec<Factored>),
    /// Sum of factors.
    Or(Vec<Factored>),
}

impl Factored {
    /// Number of literals in the factored form (the SIS `lits(fac)`
    /// metric).
    pub fn num_literals(&self) -> usize {
        match self {
            Factored::Zero | Factored::One => 0,
            Factored::Literal(..) => 1,
            Factored::And(xs) | Factored::Or(xs) => xs.iter().map(Factored::num_literals).sum(),
        }
    }

    /// Evaluates the expression against a variable assignment.
    pub fn eval(&self, env: &dyn Fn(usize) -> bool) -> bool {
        match self {
            Factored::Zero => false,
            Factored::One => true,
            Factored::Literal(v, ph) => env(*v) == *ph,
            Factored::And(xs) => xs.iter().all(|x| x.eval(env)),
            Factored::Or(xs) => xs.iter().any(|x| x.eval(env)),
        }
    }
}

fn cube_to_factored(c: Cube<'_>) -> Factored {
    if c.is_universe() {
        return Factored::One;
    }
    let mut fs: Vec<Factored> = c
        .literals()
        .map(|(v, ph)| Factored::Literal(v, ph))
        .collect();
    if fs.len() == 1 {
        fs.pop().expect("one literal")
    } else {
        Factored::And(fs)
    }
}

/// Good-factor: recursively factors a cover into a multilevel AND/OR
/// expression using the best kernel as divisor at each step (falling back
/// to the most frequent literal).
pub fn factor(f: &Sop) -> Factored {
    if f.is_zero() {
        return Factored::Zero;
    }
    if f.has_universe() {
        return Factored::One;
    }
    // duplicate cubes are an OR-idempotence artifact (`a + a = a`); they
    // poison kernel extraction, so drop them up front
    let repeats = |i: usize| f.cubes().take(i).any(|c| c == f.cube(i));
    if (1..f.num_cubes()).any(repeats) {
        let mut dedup = f.clone();
        let mut i = 0;
        dedup.retain(|_| {
            i += 1;
            !repeats(i - 1)
        });
        return factor(&dedup);
    }
    if f.num_cubes() == 1 {
        return cube_to_factored(f.cube(0));
    }
    // pull out the common cube first: f = cc · rest
    let cc = common_cube(f);
    if !cc.cube(0).is_universe() {
        let (rest, _) = divide(f, &cc);
        let inner = factor(&rest);
        let outer = cube_to_factored(cc.cube(0));
        return and2(outer, inner);
    }
    // choose a divisor: best kernel by (cubes-1)*(lits-1) value, else the
    // most frequent literal
    let ks = kernels(f, 50);
    let best = ks
        .iter()
        .filter(|k| !covers_same(&k.kernel, f))
        .max_by_key(|k| {
            let c = k.kernel.num_cubes();
            let l = k.kernel.num_literals();
            (c.saturating_sub(1)) * (l.saturating_sub(1))
        });
    let divisor = match best {
        Some(k) => k.kernel.clone(),
        None => {
            let Some(lit) = most_frequent_literal(f) else {
                // all cubes are the universe? handled above; fall back to OR
                return Factored::Or(f.cubes().map(cube_to_factored).collect());
            };
            Sop::literal(lit.0, lit.1)
        }
    };
    let (q, r) = divide(f, &divisor);
    if q.is_zero() || q.num_cubes() >= f.num_cubes() {
        // divisor failed or made no progress; flat OR of factored cubes
        return Factored::Or(f.cubes().map(cube_to_factored).collect());
    }
    let fq = factor(&q);
    let fd = factor(&divisor);
    let prod = and2(fq, fd);
    if r.is_zero() {
        prod
    } else {
        or2(prod, factor(&r))
    }
}

fn and2(a: Factored, b: Factored) -> Factored {
    match (a, b) {
        (Factored::Zero, _) | (_, Factored::Zero) => Factored::Zero,
        (Factored::One, x) | (x, Factored::One) => x,
        (Factored::And(mut xs), Factored::And(ys)) => {
            xs.extend(ys);
            Factored::And(xs)
        }
        (Factored::And(mut xs), y) => {
            xs.push(y);
            Factored::And(xs)
        }
        (x, Factored::And(mut ys)) => {
            ys.insert(0, x);
            Factored::And(ys)
        }
        (x, y) => Factored::And(vec![x, y]),
    }
}

fn or2(a: Factored, b: Factored) -> Factored {
    match (a, b) {
        (Factored::One, _) | (_, Factored::One) => Factored::One,
        (Factored::Zero, x) | (x, Factored::Zero) => x,
        (Factored::Or(mut xs), Factored::Or(ys)) => {
            xs.extend(ys);
            Factored::Or(xs)
        }
        (Factored::Or(mut xs), y) => {
            xs.push(y);
            Factored::Or(xs)
        }
        (x, Factored::Or(mut ys)) => {
            ys.insert(0, x);
            Factored::Or(ys)
        }
        (x, y) => Factored::Or(vec![x, y]),
    }
}

fn most_frequent_literal(f: &Sop) -> Option<(usize, bool)> {
    let mut counts: xsynth_boolean::FxHashMap<(usize, bool), usize> =
        xsynth_boolean::FxHashMap::default();
    for lit in f.cubes().flat_map(Cube::literals) {
        *counts.entry(lit).or_default() += 1;
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n >= 2)
        .max_by_key(|&(_, n)| n)
        .map(|(l, _)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[(&[usize], &[usize])]) -> Sop {
        Sop::from_literals(
            cubes
                .iter()
                .map(|&(p, n)| (p.iter().copied(), n.iter().copied())),
        )
        .expect("disjoint phases")
    }

    #[test]
    fn divide_textbook() {
        // f = abc + abd + eg ; d = c + d → q = ab, r = eg
        let f = sop(&[(&[0, 1, 2], &[]), (&[0, 1, 3], &[]), (&[4, 5], &[])]);
        let d = sop(&[(&[2], &[]), (&[3], &[])]);
        let (q, r) = divide(&f, &d);
        assert!(covers_same(&q, &sop(&[(&[0, 1], &[])])));
        assert!(covers_same(&r, &sop(&[(&[4, 5], &[])])));
    }

    #[test]
    fn divide_no_quotient() {
        let f = sop(&[(&[0], &[]), (&[1], &[])]);
        let d = sop(&[(&[2], &[])]);
        let (q, r) = divide(&f, &d);
        assert!(q.is_zero());
        assert!(covers_same(&r, &f));
    }

    #[test]
    fn divide_respects_phases() {
        // f = a¬b + cb : dividing by b must only catch the second cube
        let f = sop(&[(&[0], &[1]), (&[2, 1], &[])]);
        let d = sop(&[(&[1], &[])]);
        let (q, r) = divide(&f, &d);
        assert!(covers_same(&q, &sop(&[(&[2], &[])])));
        assert_eq!(r.num_cubes(), 1);
    }

    #[test]
    fn common_cube_and_cube_free() {
        let f = sop(&[(&[0, 1, 2], &[]), (&[0, 1, 3], &[])]);
        assert_eq!(common_cube(&f), sop(&[(&[0, 1], &[])]));
        assert!(!is_cube_free(&f));
        let g = sop(&[(&[0], &[]), (&[1], &[])]);
        assert!(is_cube_free(&g));
    }

    #[test]
    fn kernels_of_textbook_example() {
        // f = adf + aef + bdf + bef + cdf + cef + g
        //   = f(a+b+c)(d+e) + g : kernels include (a+b+c), (d+e), f itself
        let f = sop(&[
            (&[0, 3, 5], &[]),
            (&[0, 4, 5], &[]),
            (&[1, 3, 5], &[]),
            (&[1, 4, 5], &[]),
            (&[2, 3, 5], &[]),
            (&[2, 4, 5], &[]),
            (&[6], &[]),
        ]);
        let ks = kernels(&f, 100);
        let abc = sop(&[(&[0], &[]), (&[1], &[]), (&[2], &[])]);
        let de = sop(&[(&[3], &[]), (&[4], &[])]);
        assert!(
            ks.iter().any(|k| covers_same(&k.kernel, &abc)),
            "missing a+b+c"
        );
        assert!(
            ks.iter().any(|k| covers_same(&k.kernel, &de)),
            "missing d+e"
        );
        assert!(
            ks.iter().any(|k| covers_same(&k.kernel, &f)),
            "f is its own kernel"
        );
    }

    /// `limit` is not a cap: past it, each open recursion level may add
    /// one more kernel, so up to `limit + L − 1` come back for `L`
    /// literals. The SOP script's results depend on this count, so it is
    /// pinned here rather than tightened.
    #[test]
    fn kernel_limit_is_exceeded_by_at_most_the_open_levels() {
        // (a+b+c)(d+e+f)(g+h+i)(j+k+l) + m: 82 cubes over 13 literals
        let mut cubes: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
        for m in 0..81usize {
            let lits = (0..4)
                .map(|k| 3 * k + m / 3usize.pow(k as u32) % 3)
                .collect();
            cubes.push((lits, Vec::new()));
        }
        cubes.push((vec![12], Vec::new()));
        let f = Sop::from_literals(cubes).expect("positive cubes");
        let all = kernels(&f, usize::MAX).len();
        assert_eq!(all, 15, "f and the products of 1–4 of its sums");
        let mut overshoot = 0;
        for limit in 0..=all {
            let got = kernels(&f, limit).len();
            assert!(got >= limit, "limit {limit}: only {got}");
            assert!(got < limit.max(1) + 13, "limit {limit}: {got}");
            overshoot = overshoot.max(got - limit.min(got));
        }
        assert_eq!(kernels(&f, 4).len(), 6, "two open levels add one each");
        assert_eq!(overshoot, 2);
    }

    #[test]
    fn kernels_of_cube_are_empty() {
        let f = sop(&[(&[0, 1, 2], &[])]);
        assert!(kernels(&f, 10).is_empty());
    }

    #[test]
    fn factor_preserves_function_and_shrinks() {
        let f = sop(&[
            (&[0, 2], &[]),
            (&[0, 3], &[]),
            (&[1, 2], &[]),
            (&[1, 3], &[]),
        ]);
        let fac = factor(&f);
        // (a+b)(c+d): 4 literals vs 8 in SOP
        assert_eq!(fac.num_literals(), 4);
        for m in 0..16u64 {
            let env = |v: usize| m & (1 << v) != 0;
            assert_eq!(fac.eval(&env), f.eval(m), "at {m}");
        }
    }

    #[test]
    fn factor_with_remainder() {
        let f = sop(&[(&[0, 2], &[]), (&[1, 2], &[]), (&[3], &[])]);
        let fac = factor(&f);
        assert!(fac.num_literals() <= 4);
        for m in 0..16u64 {
            let env = |v: usize| m & (1 << v) != 0;
            assert_eq!(fac.eval(&env), f.eval(m));
        }
    }

    #[test]
    fn factor_constants_and_single_cube() {
        assert_eq!(factor(&Sop::zero()), Factored::Zero);
        assert_eq!(factor(&Sop::one()), Factored::One);
        let c = sop(&[(&[0], &[5])]);
        let fac = factor(&c);
        assert_eq!(fac.num_literals(), 2);
    }

    #[test]
    fn factor_handles_negative_phases() {
        // f = ¬a·b + ¬a·¬c = ¬a(b + ¬c)
        let f = sop(&[(&[1], &[0]), (&[], &[0, 2])]);
        let fac = factor(&f);
        assert_eq!(fac.num_literals(), 3);
        for m in 0..8u64 {
            let env = |v: usize| m & (1 << v) != 0;
            assert_eq!(fac.eval(&env), f.eval(m));
        }
    }
}
