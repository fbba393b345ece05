//! The algebraic toolbox on `VarSet` cubes, as it was before the literal
//! rows: the oracle for [`crate::algebra`].

use super::cover::{Cube, Sop};
use crate::algebra::Factored;
use xsynth_boolean::VarSet;

/// Weak (algebraic) division `f / d`, returning `(quotient, remainder)`
/// with `f = quotient·d + remainder` and the quotient maximal.
pub fn divide(f: &Sop, d: &Sop) -> (Sop, Sop) {
    if d.is_zero() {
        return (Sop::zero(), f.clone());
    }
    let mut quotient: Option<Vec<Cube>> = None;
    for di in d.cubes() {
        let mut qi: Vec<Cube> = Vec::new();
        for c in f.cubes() {
            if let Some(q) = c.divide(di) {
                qi.push(q);
            }
        }
        quotient = Some(match quotient {
            None => qi,
            Some(prev) => prev.into_iter().filter(|c| qi.contains(c)).collect(),
        });
        if quotient.as_ref().is_some_and(Vec::is_empty) {
            break;
        }
    }
    let q = Sop::from_cubes(quotient.unwrap_or_default());
    if q.is_zero() {
        return (q, f.clone());
    }
    // remainder = cubes of f not covered by q×d
    let mut product: Vec<Cube> = Vec::new();
    for qc in q.cubes() {
        for dc in d.cubes() {
            if let Some(p) = qc.intersect(dc) {
                product.push(p);
            }
        }
    }
    let r = Sop::from_cubes(
        f.cubes()
            .iter()
            .filter(|c| !product.contains(c))
            .cloned()
            .collect::<Vec<_>>(),
    );
    (q, r)
}

/// The largest cube dividing every cube of `f` (the "common cube"); the
/// universal cube if `f` is cube-free or empty.
pub fn common_cube(f: &Sop) -> Cube {
    let mut it = f.cubes().iter();
    let Some(first) = it.next() else {
        return Cube::universe();
    };
    let mut pos = first.positive().clone();
    let mut neg = first.negative().clone();
    for c in it {
        pos = pos.intersection(c.positive());
        neg = neg.intersection(c.negative());
    }
    Cube::from_sets(pos, neg).expect("intersection of disjoint sets stays disjoint")
}

/// Whether `f` is cube-free (no single literal divides every cube).
pub fn is_cube_free(f: &Sop) -> bool {
    common_cube(f).is_universe()
}

/// A kernel of a cover together with one of its co-kernels.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The kernel: a cube-free quotient of `f` by a cube.
    pub kernel: Sop,
    /// The co-kernel cube that produced it.
    pub cokernel: Cube,
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
    let co = mc.cube(&cc);
    let mut out = Vec::new();
    let mut found: Vec<Vec<u64>> = Vec::new();
    if base.len() >= 2 * w {
        out.push(Kernel {
            kernel: mc.sop(&base),
            cokernel: co.clone(),
        });
        found.push(base.clone());
    }
    kernels_rec(&mc, &base, 0, &co, &mut found, &mut out, limit);
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
        let mut lits: Vec<(usize, bool)> = f
            .cubes()
            .iter()
            .flat_map(|c| {
                let pos = c.positive().iter().map(|v| (v, true));
                pos.chain(c.negative().iter().map(|v| (v, false)))
            })
            .collect();
        lits.sort_unstable();
        lits.dedup();
        let w = lits.len().div_ceil(64).max(1);
        MaskCover { lits, w }
    }

    /// Appends the mask of `c` (a cube over these literals) to `out`.
    fn push_mask(&self, c: &Cube, out: &mut Vec<u64>) {
        let at = out.len();
        out.resize(at + self.w, 0);
        let pos = c.positive().iter().map(|v| (v, true));
        for lit in pos.chain(c.negative().iter().map(|v| (v, false))) {
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

    fn cube(&self, mask: &[u64]) -> Cube {
        let (mut pos, mut neg) = (VarSet::new(), VarSet::new());
        for (k, &word) in mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let (v, ph) = self.lits[k * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                if ph {
                    pos.insert(v);
                } else {
                    neg.insert(v);
                }
            }
        }
        Cube::from_sets(pos, neg).expect("the literals of one cube")
    }

    fn sop(&self, masks: &[u64]) -> Sop {
        masks.chunks_exact(self.w).map(|m| self.cube(m)).collect()
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
    co_so_far: &Cube,
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
        let co = co_so_far
            .intersect(&mc.cube(&cc))
            .unwrap_or_else(Cube::universe);
        if !found.iter().any(|k| same_masks(k, &q, w)) {
            out.push(Kernel {
                kernel: mc.sop(&q),
                cokernel: co.clone(),
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
    a.cubes().iter().all(|c| b.cubes().contains(c))
}

fn cube_to_factored(c: &Cube) -> Factored {
    if c.is_universe() {
        return Factored::One;
    }
    let mut fs: Vec<Factored> = c
        .positive()
        .iter()
        .map(|v| Factored::Literal(v, true))
        .chain(c.negative().iter().map(|v| Factored::Literal(v, false)))
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
    {
        let mut seen: Vec<&Cube> = Vec::new();
        let mut dups = false;
        for c in f.cubes() {
            if seen.contains(&c) {
                dups = true;
                break;
            }
            seen.push(c);
        }
        if dups {
            let mut dedup: Vec<Cube> = Vec::new();
            for c in f.cubes() {
                if !dedup.contains(c) {
                    dedup.push(c.clone());
                }
            }
            return factor(&Sop::from_cubes(dedup));
        }
    }
    if f.num_cubes() == 1 {
        return cube_to_factored(&f.cubes()[0]);
    }
    // pull out the common cube first: f = cc · rest
    let cc = common_cube(f);
    if !cc.is_universe() {
        let (rest, _) = divide(f, &Sop::from_cubes([cc.clone()]));
        let inner = factor(&rest);
        let outer = cube_to_factored(&cc);
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
                return Factored::Or(f.cubes().iter().map(cube_to_factored).collect());
            };
            Sop::from_cubes([Cube::literal(lit.0, lit.1)])
        }
    };
    let (q, r) = divide(f, &divisor);
    if q.is_zero() || q.num_cubes() >= f.num_cubes() {
        // divisor failed or made no progress; flat OR of factored cubes
        return Factored::Or(f.cubes().iter().map(cube_to_factored).collect());
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
    for c in f.cubes() {
        for v in c.positive().iter() {
            *counts.entry((v, true)).or_default() += 1;
        }
        for v in c.negative().iter() {
            *counts.entry((v, false)).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, n)| n >= 2)
        .max_by_key(|&(_, n)| n)
        .map(|(l, _)| l)
}
