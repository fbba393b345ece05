//! GF(2) common-divisor extraction across FPRM cube sets.
//!
//! Section 3 of the paper closes by observing that a full algebraic
//! factorization for AND/XOR forms "following the methods in \[2\]"
//! (Brayton–McMullen) is possible; its experimental flow approximates it
//! by factoring each output and merging the per-output networks with SIS
//! `resub`. This module implements the GF(2)-ring analog of fast-extract
//! directly on the cube sets: an XOR-subsum `d` that divides several
//! functions (under possibly different monomial co-kernels) is pulled out
//! as a new node `y = ⊕d`, and every occurrence `c·d` is rewritten to the
//! single cube `c∪{y}`. Because GF(2) is a ring, `c·(q₁ ⊕ q₂) = c·q₁ ⊕
//! c·q₂` holds exactly and every rewrite is algebraic (no Boolean
//! reasoning needed).
//!
//! On ripple-carry arithmetic this recovers the carry chain across output
//! bits: `sᵢ = aᵢ ⊕ bᵢ ⊕ y` and `cout = aᵢbᵢ ⊕ aᵢy ⊕ bᵢy` share the
//! extracted carry `y`, which is how the paper's z4ml/add6 results get
//! their size.
//!
//! Cubes here live in *literal space*: a cube is a set of literal ids, and
//! the caller owns the mapping from ids to polarity-adjusted variables or
//! previously-extracted divisor nodes.
//!
//! The greedy loop is incremental. Each *slot* (an input function or an
//! extracted divisor) keeps a cube → position index, one bitset of cube
//! positions per literal, and its literal quotients as sorted lists of
//! interned cube ids, so candidate intersections are list merges and a
//! co-kernel scan visits only the cubes that contain the divisor's rarest
//! cube. The `(occurrences, co-kernel literals)` each candidate gets from
//! each slot is kept from one round to the next. After a rewrite only the
//! slots it changed, plus the new divisor's, are re-indexed and re-scored.
//! The candidate order, the cap, the first-strictly-best pick and the
//! rewrite order are those of the round-by-round rebuild kept as the test
//! oracle, so the result is the same cube for cube. All of this state is
//! dropped when [`extract`] returns.

use std::collections::{HashMap, HashSet};
use xsynth_boolean::VarSet;

/// The result of running [`extract`]: the extracted divisor definitions
/// (in extraction order) and the rewritten functions.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// `(literal id, cube set)` per extracted divisor — the divisor node
    /// computes the XOR-sum of its cubes. Divisor cube sets may reference
    /// other divisors' literal ids (in either direction); consumers should
    /// emit them in dependency order.
    pub divisors: Vec<(usize, Vec<VarSet>)>,
    /// The input functions rewritten over the extended literal space.
    pub functions: Vec<Vec<VarSet>>,
    /// Greedy rounds run; each scores one candidate list, and the last
    /// may accept nothing.
    pub rounds: u64,
    /// Candidate divisors scored, summed over the rounds.
    pub candidates: u64,
}

/// Options bounding the extraction loop.
#[derive(Debug, Clone)]
pub struct ExtractOptions {
    /// Stop after this many divisors.
    pub max_divisors: usize,
    /// Candidate divisors examined per round.
    pub max_candidates: usize,
    /// Minimum literal saving to accept a divisor.
    pub min_saving: i64,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            max_divisors: 200,
            max_candidates: 600,
            min_saving: 2,
        }
    }
}

/// Greedily extracts common XOR-subsum divisors across `functions`
/// (cube sets in literal space, each free of duplicate cubes). New
/// divisors get literal ids starting at `next_literal`.
///
/// Each round scores up to `max_candidates` candidates — every distinct
/// literal quotient of every function and divisor, then pairwise
/// intersections of those quotients — and extracts the first one with
/// the strictly largest saving. Only the slots the last rewrite changed
/// are re-indexed, and a candidate scored in the previous round is
/// re-scored only against those slots.
pub fn extract(
    functions: Vec<Vec<VarSet>>,
    next_literal: usize,
    opts: &ExtractOptions,
) -> Extraction {
    let num_functions = functions.len();
    let mut interner = Interner::default();
    let mut slots: Vec<Slot> = functions
        .into_iter()
        .map(|f| Slot::new(f, &mut interner))
        .collect();
    let (mut rounds, mut scored) = (0u64, 0u64);
    // the previous round's candidates and their per-slot hits, and the
    // slots rewritten or added since then
    let mut scores: HashMap<Vec<u32>, Vec<Hit>> = HashMap::new();
    let mut stale = vec![true; slots.len()];
    let mut probe = Probe::default();

    while slots.len() - num_functions < opts.max_divisors {
        rounds += 1;
        let candidates = collect_candidates(&slots, interner.cubes.len(), opts.max_candidates);
        scored += candidates.len() as u64;
        let mut best: Option<(Vec<u32>, Vec<Hit>, i64)> = None;
        let mut next_scores = HashMap::with_capacity(candidates.len());
        for ids in candidates {
            let d = Candidate::new(&ids, &interner);
            // a candidate new this round is scored against every slot
            let cached = scores.remove(&ids);
            let fresh = cached.is_none();
            let mut hits = cached.unwrap_or_default();
            hits.retain(|h| !stale[h.slot]);
            for (s, slot) in slots.iter().enumerate().filter(|&(s, _)| fresh || stale[s]) {
                if let Some((occurrences, co_lits)) = slot.occurrences(&d, &mut probe) {
                    hits.push(Hit {
                        slot: s,
                        occurrences,
                        co_lits,
                    });
                }
            }
            let saving = d.saving(&hits);
            if saving >= opts.min_saving && best.as_ref().is_none_or(|b| saving > b.2) {
                best = Some((ids.clone(), hits.clone(), saving));
            }
            next_scores.insert(ids, hits);
        }
        scores = next_scores;
        stale.fill(false);
        let Some((ids, hits, _)) = best else { break };

        let mut divisor: Vec<VarSet> = ids.iter().map(|&i| interner.cube(i).clone()).collect();
        divisor.sort();
        let y = next_literal + slots.len() - num_functions;
        // a hit is exactly a slot that `rewrite` changes
        for h in &hits {
            let cubes = slots[h.slot].rewrite(&divisor, y);
            slots[h.slot] = Slot::new(cubes, &mut interner);
            stale[h.slot] = true;
        }
        slots.push(Slot::new(divisor, &mut interner));
        stale.push(true);
    }

    let divisors = slots
        .drain(num_functions..)
        .enumerate()
        .map(|(k, slot)| (next_literal + k, slot.cubes))
        .collect();
    Extraction {
        divisors,
        functions: slots.into_iter().map(|slot| slot.cubes).collect(),
        rounds,
        candidates: scored,
    }
}

/// Dense ids for the quotient cubes seen in one [`extract`] call. Ids
/// follow first appearance, not `VarSet` order: candidate identity and
/// intersections only need a fixed order, and the extracted divisor is
/// sorted back into `VarSet` order before it is used.
#[derive(Default)]
struct Interner {
    ids: HashMap<VarSet, u32>,
    cubes: Vec<VarSet>,
}

impl Interner {
    fn intern(&mut self, cube: &VarSet) -> u32 {
        if let Some(&id) = self.ids.get(cube) {
            return id;
        }
        let id = self.cubes.len() as u32;
        self.cubes.push(cube.clone());
        self.ids.insert(cube.clone(), id);
        id
    }

    fn cube(&self, id: u32) -> &VarSet {
        &self.cubes[id as usize]
    }
}

/// One function or extracted divisor, indexed for scoring: its cubes in
/// order, cube → position, its literal support, one bitset over cube
/// positions per support literal, and its literal quotients with ≥ 2
/// cubes (sorted interned ids, in literal order).
struct Slot {
    cubes: Vec<VarSet>,
    index: HashMap<VarSet, usize>,
    support: VarSet,
    lits: Vec<usize>,
    postings: Vec<Vec<u64>>,
    quotients: Vec<Vec<u32>>,
}

impl Slot {
    fn new(cubes: Vec<VarSet>, interner: &mut Interner) -> Slot {
        let index = cubes.iter().cloned().zip(0..).collect();
        let mut support = VarSet::new();
        for c in &cubes {
            support.union_with(c);
        }
        let lits: Vec<usize> = support.iter().collect();
        let mut postings = vec![vec![0u64; cubes.len().div_ceil(64)]; lits.len()];
        for (p, c) in cubes.iter().enumerate() {
            for l in c.iter() {
                let k = lits.binary_search(&l).expect("support literal");
                postings[k][p / 64] |= 1 << (p % 64);
            }
        }
        let mut quotients = Vec::new();
        let mut q = VarSet::new();
        for (&l, bits) in lits.iter().zip(&postings) {
            if popcount(bits) < 2 {
                continue;
            }
            let mut ids: Vec<u32> = ones(bits)
                .map(|p| {
                    q.clone_from(&cubes[p]);
                    q.remove(l);
                    interner.intern(&q)
                })
                .collect();
            ids.sort_unstable();
            quotients.push(ids);
        }
        Slot {
            cubes,
            index,
            support,
            lits,
            postings,
            quotients,
        }
    }

    /// The positions of the cubes containing `cube`, as a bitset (`cube`'s
    /// literals must lie in the support).
    fn containing(&self, cube: &VarSet, bits: &mut Vec<u64>) {
        let n = self.cubes.len();
        bits.clear();
        bits.resize(n.div_ceil(64), !0);
        let tail = n % 64;
        if tail > 0 {
            bits[n / 64] = (1 << tail) - 1;
        }
        for l in cube.iter() {
            let k = self.lits.binary_search(&l).expect("literal in support");
            for (b, p) in bits.iter_mut().zip(&self.postings[k]) {
                *b &= p;
            }
        }
    }

    /// The number of co-kernels under which `d` divides this slot and
    /// their summed literal count, `None` when there are none. A co-kernel
    /// `co` avoids `d`'s support and has `co ∪ dc` in the slot for every
    /// cube `dc` of `d`, so the set does not depend on which cube of `d`
    /// drives the search: the one contained in the fewest cubes does.
    fn occurrences(&self, d: &Candidate, probe: &mut Probe) -> Option<(u32, u32)> {
        if !d.support.is_subset(&self.support) || self.covers_equal(&d.cubes) {
            // extracting a function as its own divisor is a no-op
            return None;
        }
        let mut driver = 0;
        let mut fewest = u32::MAX;
        for (k, dc) in d.cubes.iter().enumerate() {
            self.containing(dc, &mut probe.bits);
            let n = popcount(&probe.bits);
            if n == 0 {
                return None;
            }
            if n < fewest {
                (driver, fewest) = (k, n);
                std::mem::swap(&mut probe.bits, &mut probe.driver);
            }
        }
        let dr = d.cubes[driver];
        let (mut occurrences, mut co_lits) = (0, 0);
        for p in ones(&probe.driver) {
            probe.co.clone_from(&self.cubes[p]);
            for l in dr.iter() {
                probe.co.remove(l);
            }
            if !probe.co.is_disjoint(&d.support) {
                continue;
            }
            let divides = d.cubes.iter().enumerate().all(|(k, dc)| {
                k == driver || {
                    probe.product.clone_from(&probe.co);
                    probe.product.union_with(dc);
                    self.index.contains_key(&probe.product)
                }
            });
            if divides {
                occurrences += 1;
                co_lits += probe.co.len() as u32;
            }
        }
        (occurrences > 0).then_some((occurrences, co_lits))
    }

    fn covers_equal(&self, d: &[&VarSet]) -> bool {
        self.cubes.len() == d.len() && d.iter().all(|c| self.index.contains_key(*c))
    }

    /// The slot's cubes with every occurrence `co·d` replaced by the single
    /// cube `co ∪ {y}`: the untouched cubes keep their order, and the new
    /// cubes follow in the order of their `co ∪ d[0]` cube. Occurrences
    /// are cube-disjoint (each co-kernel avoids `d`'s support), so this
    /// equals rewriting them one at a time, first co-kernel first.
    fn rewrite(&self, d: &[VarSet], y: usize) -> Vec<VarSet> {
        let mut support = VarSet::new();
        for dc in d {
            support.union_with(dc);
        }
        let mut taken = vec![false; self.cubes.len()];
        let mut added = Vec::new();
        let mut bits = Vec::new();
        self.containing(&d[0], &mut bits);
        for p in ones(&bits) {
            let co = self.cubes[p].difference(&d[0]);
            if !co.is_disjoint(&support) {
                continue;
            }
            let positions: Option<Vec<usize>> = d
                .iter()
                .map(|dc| self.index.get(&co.union(dc)).copied())
                .collect();
            if let Some(positions) = positions {
                for q in positions {
                    taken[q] = true;
                }
                let mut nc = co;
                nc.insert(y);
                added.push(nc);
            }
        }
        self.cubes
            .iter()
            .zip(&taken)
            .filter(|(_, &t)| !t)
            .map(|(c, _)| c.clone())
            .chain(added)
            .collect()
    }
}

/// Scratch sets reused across [`Slot::occurrences`] calls.
#[derive(Default)]
struct Probe {
    bits: Vec<u64>,
    driver: Vec<u64>,
    co: VarSet,
    product: VarSet,
}

/// A candidate divisor being scored.
struct Candidate<'a> {
    cubes: Vec<&'a VarSet>,
    support: VarSet,
    lits: i64,
}

impl<'a> Candidate<'a> {
    fn new(ids: &[u32], interner: &'a Interner) -> Candidate<'a> {
        let cubes: Vec<&VarSet> = ids.iter().map(|&i| interner.cube(i)).collect();
        let mut support = VarSet::new();
        for c in &cubes {
            support.union_with(c);
        }
        let lits = cubes.iter().map(|c| c.len() as i64).sum();
        Candidate {
            cubes,
            support,
            lits,
        }
    }

    /// Total literal saving of extracting this divisor, minus the cost of
    /// the divisor node itself; `i64::MIN` with fewer than 2 occurrences.
    /// Each occurrence under co-kernel `co` removes `|d|` cubes of
    /// `|co| + |dc|` literals and adds one cube of `|co| + 1`.
    fn saving(&self, hits: &[Hit]) -> i64 {
        let occurrences: i64 = hits.iter().map(|h| i64::from(h.occurrences)).sum();
        if occurrences < 2 {
            return i64::MIN;
        }
        let co_lits: i64 = hits.iter().map(|h| i64::from(h.co_lits)).sum();
        let cubes = self.cubes.len() as i64;
        occurrences * (self.lits - 1) + (cubes - 1) * co_lits - self.lits
    }
}

/// A candidate's co-kernels in one slot.
#[derive(Clone)]
struct Hit {
    slot: usize,
    occurrences: u32,
    co_lits: u32,
}

/// Candidate divisors, as sorted interned ids: the distinct literal
/// quotients in slot order, then the pairwise intersections (`i < j`) of
/// those quotients that have ≥ 2 cubes and are new, until there are
/// `cap`. Pairing only distinct quotients yields the same list as pairing
/// every quotient: a repeated quotient's intersections all repeat earlier
/// ones. Pairs sharing fewer than 2 cubes are skipped without a merge,
/// found through a cube → quotients index.
fn collect_candidates(slots: &[Slot], num_cubes: usize, cap: usize) -> Vec<Vec<u32>> {
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut out: Vec<Vec<u32>> = Vec::new();
    for q in slots.iter().flat_map(|s| &s.quotients) {
        if seen.insert(q.clone()) {
            out.push(q.clone());
        }
    }
    let quotients = out.len();
    if quotients >= cap {
        out.truncate(cap);
        return out;
    }
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); num_cubes];
    for (k, q) in out.iter().enumerate() {
        for &c in q {
            holders[c as usize].push(k);
        }
    }
    let mut shared = vec![0u32; quotients];
    let mut partners: Vec<usize> = Vec::new();
    for i in 0..quotients {
        for &c in &out[i] {
            let h = &holders[c as usize];
            for &j in &h[h.partition_point(|&j| j <= i)..] {
                if shared[j] == 0 {
                    partners.push(j);
                }
                shared[j] += 1;
            }
        }
        partners.sort_unstable();
        for &j in &partners {
            if shared[j] < 2 {
                continue;
            }
            if out.len() >= cap {
                return out;
            }
            let inter = merge_common(&out[i], &out[j]);
            if seen.insert(inter.clone()) {
                out.push(inter);
            }
        }
        for &j in &partners {
            shared[j] = 0;
        }
        partners.clear();
    }
    out
}

/// The common elements of two sorted lists.
fn merge_common(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

fn popcount(bits: &[u64]) -> u32 {
    bits.iter().map(|w| w.count_ones()).sum()
}

/// The set bits of a bitset, in increasing order.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod reference {
    use super::{ExtractOptions, Extraction};
    use std::collections::HashMap;
    use xsynth_boolean::VarSet;

    /// The extraction loop as first written, each round rebuilt from
    /// scratch: the oracle [`super::extract`] must match exactly.
    pub(super) fn extract_reference(
        functions: Vec<Vec<VarSet>>,
        mut next_literal: usize,
        opts: &ExtractOptions,
    ) -> Extraction {
        let mut funcs = functions;
        let mut divisors: Vec<(usize, Vec<VarSet>)> = Vec::new();

        let (mut rounds, mut scored) = (0, 0);
        for _round in 0..opts.max_divisors {
            let candidates = collect_candidates(&funcs, &divisors, opts.max_candidates);
            rounds += 1;
            scored += candidates.len() as u64;
            let mut best: Option<(Vec<VarSet>, i64)> = None;
            for cand in candidates {
                let saving = total_saving(&funcs, &divisors, &cand);
                if saving >= opts.min_saving && best.as_ref().is_none_or(|(_, s)| saving > *s) {
                    best = Some((cand, saving));
                }
            }
            let Some((divisor, _)) = best else { break };
            let y = next_literal;
            next_literal += 1;
            for f in funcs.iter_mut() {
                rewrite(f, &divisor, y);
            }
            for (_, d) in divisors.iter_mut() {
                rewrite(d, &divisor, y);
            }
            divisors.push((y, divisor));
        }

        Extraction {
            divisors,
            functions: funcs,
            rounds,
            candidates: scored,
        }
    }

    /// Canonical form of a cube set: its cubes sorted. Nothing is
    /// de-duplicated; the cube sets here never carry duplicates.
    pub(super) fn canon(mut cubes: Vec<VarSet>) -> Vec<VarSet> {
        cubes.sort();
        cubes
    }

    /// The quotient `f / ℓ`: cubes containing literal `ℓ`, with `ℓ` removed.
    pub(super) fn quotient(f: &[VarSet], lit: usize) -> Vec<VarSet> {
        f.iter()
            .filter(|c| c.contains(lit))
            .map(|c| {
                let mut q = c.clone();
                q.remove(lit);
                q
            })
            .collect()
    }

    /// Candidate divisors: whole literal-quotients and pairwise intersections
    /// of quotients, each with ≥ 2 cubes.
    pub(super) fn collect_candidates(
        funcs: &[Vec<VarSet>],
        divisors: &[(usize, Vec<VarSet>)],
        cap: usize,
    ) -> Vec<Vec<VarSet>> {
        let mut quotients: Vec<Vec<VarSet>> = Vec::new();
        let push_quotients = |f: &[VarSet], quotients: &mut Vec<Vec<VarSet>>| {
            let mut lits = VarSet::new();
            for c in f {
                lits.union_with(c);
            }
            for l in lits.iter() {
                let q = quotient(f, l);
                if q.len() >= 2 {
                    quotients.push(canon(q));
                }
            }
        };
        for f in funcs {
            push_quotients(f, &mut quotients);
        }
        for (_, d) in divisors {
            push_quotients(d, &mut quotients);
        }

        let mut seen: HashMap<Vec<VarSet>, ()> = HashMap::new();
        let mut out: Vec<Vec<VarSet>> = Vec::new();
        let push =
            |cand: Vec<VarSet>, out: &mut Vec<Vec<VarSet>>, seen: &mut HashMap<Vec<VarSet>, ()>| {
                if cand.len() >= 2 && !seen.contains_key(&cand) {
                    seen.insert(cand.clone(), ());
                    out.push(cand);
                }
            };
        for q in &quotients {
            push(q.clone(), &mut out, &mut seen);
        }
        'outer: for i in 0..quotients.len() {
            for j in (i + 1)..quotients.len() {
                if out.len() >= cap {
                    break 'outer;
                }
                let inter: Vec<VarSet> = quotients[i]
                    .iter()
                    .filter(|c| quotients[j].contains(c))
                    .cloned()
                    .collect();
                push(canon(inter), &mut out, &mut seen);
            }
        }
        out.truncate(cap);
        out
    }

    /// All co-kernel cubes under which `d` divides `f`: cubes `c` (including
    /// the universe) with `{c ∪ dc : dc ∈ d}` ⊆ `f`. Candidate co-kernels are
    /// derived from the cubes of `f` themselves.
    pub(super) fn cokernels(f: &[VarSet], d: &[VarSet]) -> Vec<VarSet> {
        let mut out = Vec::new();
        let mut seen: Vec<VarSet> = Vec::new();
        // candidate co-kernels: for each cube of f, try c = cube \ (first
        // divisor cube) — a valid occurrence must produce one of f's cubes
        // from d[0]
        let d0 = &d[0];
        for c in f {
            if !d0.is_subset(c) {
                continue;
            }
            let co = c.difference(d0);
            if seen.contains(&co) {
                continue;
            }
            seen.push(co.clone());
            // verify the full occurrence, requiring disjointness so the
            // product c·dc does not collapse literals (stays algebraic)
            let ok = d.iter().all(|dc| {
                co.is_disjoint(dc) && {
                    let prod = co.union(dc);
                    f.contains(&prod)
                }
            });
            if ok {
                out.push(co);
            }
        }
        out
    }

    /// Total literal saving of extracting `d` across all functions, minus the
    /// cost of the divisor node itself.
    pub(super) fn total_saving(
        funcs: &[Vec<VarSet>],
        divisors: &[(usize, Vec<VarSet>)],
        d: &[VarSet],
    ) -> i64 {
        let d_lits: i64 = d.iter().map(|c| c.len() as i64).sum();
        let d_cubes = d.len() as i64;
        let mut occurrences = 0i64;
        let mut saving = 0i64;
        let count = |f: &[VarSet], occurrences: &mut i64, saving: &mut i64| {
            if covers_equal(f, d) {
                return; // extracting a function as its own divisor is a no-op
            }
            for co in cokernels(f, d) {
                *occurrences += 1;
                let c_len = co.len() as i64;
                // removed: |d| cubes of (|c| + cube lits); added: one cube of
                // |c| + 1 literals
                *saving += d_lits + d_cubes * c_len - (c_len + 1);
            }
        };
        for f in funcs {
            count(f, &mut occurrences, &mut saving);
        }
        for (_, f) in divisors {
            count(f, &mut occurrences, &mut saving);
        }
        if occurrences < 2 {
            return i64::MIN;
        }
        saving - d_lits
    }

    pub(super) fn covers_equal(a: &[VarSet], b: &[VarSet]) -> bool {
        a.len() == b.len() && a.iter().all(|c| b.contains(c))
    }

    /// Rewrites every occurrence of `d` in `f` as a single cube `co ∪ {y}`.
    pub(super) fn rewrite(f: &mut Vec<VarSet>, d: &[VarSet], y: usize) {
        if covers_equal(f, d) {
            return;
        }
        loop {
            let cos = cokernels(f, d);
            let Some(co) = cos.first() else { break };
            // remove the occurrence's cubes
            for dc in d {
                let prod = co.union(dc);
                let pos = f
                    .iter()
                    .position(|c| *c == prod)
                    .expect("verified occurrence");
                f.remove(pos);
            }
            let mut nc = co.clone();
            nc.insert(y);
            f.push(nc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{canon, cokernels, extract_reference, quotient, rewrite, total_saving};
    use super::*;

    fn vs(v: &[usize]) -> VarSet {
        VarSet::from_vars(v.iter().copied())
    }

    /// Evaluates a literal-space cube set given divisor definitions.
    fn eval(f: &[VarSet], divisors: &[(usize, Vec<VarSet>)], inputs: u64, n: usize) -> bool {
        let mut env: HashMap<usize, bool> = HashMap::new();
        for v in 0..n {
            env.insert(v, inputs & (1 << v) != 0);
        }
        // resolve divisors by fixpoint (dependencies may go both ways)
        let mut remaining: Vec<(usize, &Vec<VarSet>)> =
            divisors.iter().map(|(y, d)| (*y, d)).collect();
        while !remaining.is_empty() {
            let before = remaining.len();
            remaining.retain(|(y, d)| {
                let ready = d.iter().all(|c| c.iter().all(|l| env.contains_key(&l)));
                if ready {
                    let val = d
                        .iter()
                        .fold(false, |acc, c| acc ^ c.iter().all(|l| env[&l]));
                    env.insert(*y, val);
                    false
                } else {
                    true
                }
            });
            assert!(remaining.len() < before, "cyclic divisor dependency");
        }
        f.iter()
            .fold(false, |acc, c| acc ^ c.iter().all(|l| env[&l]))
    }

    #[test]
    fn quotient_and_cokernels() {
        // f = ab ⊕ ac ⊕ d
        let f = vec![vs(&[0, 1]), vs(&[0, 2]), vs(&[3])];
        let q = quotient(&f, 0);
        assert_eq!(canon(q), vec![vs(&[1]), vs(&[2])]);
        let d = vec![vs(&[1]), vs(&[2])];
        let cos = cokernels(&f, &d);
        assert_eq!(cos, vec![vs(&[0])]);
        // the indexed slot agrees: one quotient (under a), one occurrence
        let mut interner = Interner::default();
        let slot = Slot::new(f, &mut interner);
        let ids: Vec<u32> = d.iter().map(|c| interner.intern(c)).collect();
        assert_eq!(slot.quotients, vec![ids.clone()]);
        let cand = Candidate::new(&ids, &interner);
        assert_eq!(slot.occurrences(&cand, &mut Probe::default()), Some((1, 1)));
    }

    #[test]
    fn universe_cokernel() {
        // d ⊆ f directly
        let f = vec![vs(&[1]), vs(&[2]), vs(&[5])];
        let d = vec![vs(&[1]), vs(&[2])];
        let cos = cokernels(&f, &d);
        assert!(cos.contains(&VarSet::new()));
        let mut interner = Interner::default();
        let slot = Slot::new(f, &mut interner);
        let ids: Vec<u32> = d.iter().map(|c| interner.intern(c)).collect();
        let cand = Candidate::new(&ids, &interner);
        assert_eq!(slot.occurrences(&cand, &mut Probe::default()), Some((1, 0)));
    }

    #[test]
    fn extracts_shared_carry_structure() {
        // the 2-bit adder pattern:
        //   s1   = a1 ⊕ b1 ⊕ C          (C = a0b0 in cube form)
        //   cout = a1b1 ⊕ a1·C ⊕ b1·C
        // with C a 3-cube carry: C = {a0b0, a0cin, b0cin} (vars 0,1,4=cin)
        let carry: Vec<VarSet> = vec![vs(&[0, 1]), vs(&[0, 4]), vs(&[1, 4])];
        let mut s1 = vec![vs(&[2]), vs(&[3])];
        s1.extend(carry.iter().cloned());
        let mut cout = vec![vs(&[2, 3])];
        for c in &carry {
            cout.push(c.union(&vs(&[2])));
            cout.push(c.union(&vs(&[3])));
        }
        let funcs = vec![s1.clone(), cout.clone()];
        let ext = checked_extract(funcs, 5, &ExtractOptions::default());
        assert!(!ext.divisors.is_empty(), "carry must be extracted");
        // functions preserved
        for m in 0..32u64 {
            assert_eq!(
                eval(&ext.functions[0], &ext.divisors, m, 5),
                eval(&s1, &[], m, 5),
                "s1 at {m}"
            );
            assert_eq!(
                eval(&ext.functions[1], &ext.divisors, m, 5),
                eval(&cout, &[], m, 5),
                "cout at {m}"
            );
        }
        // s1 should now be 3 cubes: a1 ⊕ b1 ⊕ y
        assert_eq!(ext.functions[0].len(), 3);
        // cout should be 3 cubes: a1b1 ⊕ a1y ⊕ b1y
        assert_eq!(ext.functions[1].len(), 3);
    }

    #[test]
    fn no_extraction_when_nothing_shared() {
        let f1 = vec![vs(&[0]), vs(&[1])];
        let f2 = vec![vs(&[2]), vs(&[3])];
        let ext = checked_extract(vec![f1, f2], 4, &ExtractOptions::default());
        assert!(ext.divisors.is_empty());
    }

    #[test]
    fn nested_extraction() {
        // a 2-bit ripple adder tail: C1 = carry from bit 0 (vars 0,1,2),
        // C2 = carry from bit 1 (vars 3,4 + C1), shared by s2 and cout
        let c1: Vec<VarSet> = vec![vs(&[0, 1]), vs(&[0, 2]), vs(&[1, 2])];
        let mut c2: Vec<VarSet> = vec![vs(&[3, 4])];
        for c in &c1 {
            c2.push(c.union(&vs(&[3])));
            c2.push(c.union(&vs(&[4])));
        }
        let mut s1 = vec![vs(&[3]), vs(&[4])];
        s1.extend(c1.iter().cloned());
        let mut s2 = vec![vs(&[5]), vs(&[6])];
        s2.extend(c2.iter().cloned());
        let mut cout = vec![vs(&[5, 6])];
        for c in &c2 {
            cout.push(c.union(&vs(&[5])));
            cout.push(c.union(&vs(&[6])));
        }
        let funcs = vec![s1.clone(), s2.clone(), cout.clone()];
        let ext = checked_extract(funcs, 7, &ExtractOptions::default());
        assert!(
            ext.divisors.len() >= 2,
            "expected nested divisors, got {}",
            ext.divisors.len()
        );
        for m in 0..128u64 {
            assert_eq!(
                eval(&ext.functions[0], &ext.divisors, m, 7),
                eval(&s1, &[], m, 7)
            );
            assert_eq!(
                eval(&ext.functions[1], &ext.divisors, m, 7),
                eval(&s2, &[], m, 7)
            );
            assert_eq!(
                eval(&ext.functions[2], &ext.divisors, m, 7),
                eval(&cout, &[], m, 7)
            );
        }
        // the rewritten s2 should be the 3-cube ripple form
        assert!(ext.functions[1].len() <= 3, "s2 = a ⊕ b ⊕ carry expected");
    }

    #[test]
    fn divisor_limit_respected() {
        // many shareable pairs, but only one divisor allowed
        let mut funcs = Vec::new();
        for k in 0..4 {
            let base = 10 * k;
            funcs.push(vec![
                vs(&[base, 1]),
                vs(&[base, 2]),
                vs(&[base + 1, 1]),
                vs(&[base + 1, 2]),
            ]);
        }
        let opts = ExtractOptions {
            max_divisors: 1,
            ..ExtractOptions::default()
        };
        let ext = checked_extract(funcs, 100, &opts);
        assert_eq!(ext.divisors.len(), 1);
    }

    #[test]
    fn rewrite_is_idempotent_per_occurrence() {
        // f = a·(b ⊕ c) appears once under each of two cokernels
        let d = vec![vs(&[1]), vs(&[2])];
        let mut f = vec![vs(&[0, 1]), vs(&[0, 2]), vs(&[3, 1]), vs(&[3, 2])];
        let slot = Slot::new(f.clone(), &mut Interner::default());
        rewrite(&mut f, &d, 9);
        assert_eq!(f.len(), 2, "both occurrences rewritten: {f:?}");
        assert!(f.contains(&vs(&[0, 9])));
        assert!(f.contains(&vs(&[3, 9])));
        assert_eq!(slot.rewrite(&d, 9), f, "indexed rewrite keeps the order");
        // nothing more to rewrite
        let snapshot = f.clone();
        rewrite(&mut f, &d, 9);
        assert_eq!(f, snapshot);
    }

    #[test]
    fn saving_rejects_single_use() {
        let f = vec![vs(&[0, 1]), vs(&[0, 2])];
        let d = vec![vs(&[1]), vs(&[2])];
        // only one occurrence (cokernel a) → rejected
        assert_eq!(total_saving(std::slice::from_ref(&f), &[], &d), i64::MIN);
        let mut interner = Interner::default();
        let slot = Slot::new(f, &mut interner);
        let ids: Vec<u32> = d.iter().map(|c| interner.intern(c)).collect();
        let cand = Candidate::new(&ids, &interner);
        let (occurrences, co_lits) = slot.occurrences(&cand, &mut Probe::default()).unwrap();
        assert_eq!((occurrences, co_lits), (1, 1));
        let hit = Hit {
            slot: 0,
            occurrences,
            co_lits,
        };
        assert_eq!(cand.saving(&[hit]), i64::MIN);
    }

    /// Runs [`extract`] and asserts it matches the reference loop exactly:
    /// divisor ids and cube lists, rewritten functions, cube order and the
    /// work counters.
    fn checked_extract(funcs: Vec<Vec<VarSet>>, next: usize, opts: &ExtractOptions) -> Extraction {
        let fast = extract(funcs.clone(), next, opts);
        let slow = extract_reference(funcs, next, opts);
        assert_eq!(fast.divisors, slow.divisors);
        assert_eq!(fast.functions, slow.functions);
        assert_eq!(
            (fast.rounds, fast.candidates),
            (slow.rounds, slow.candidates)
        );
        fast
    }

    /// Random literal-space functions over `lits` literals with planted
    /// shared structure. A pool of divisors is drawn first; with `nested`
    /// each later pool entry embeds an earlier one under a one-literal
    /// co-kernel, so an extracted divisor can be rewritten by a divisor
    /// extracted after it. Each function XORs 1–4 products `co·d` of a
    /// pool divisor and a random 0–2 literal co-kernel (a small alphabet
    /// makes co-kernels and candidates overlap), plus up to 3 noise cubes.
    /// A cube generated twice cancels, so no function repeats a cube.
    fn random_functions(seed: u64, lits: usize, funcs: usize, nested: bool) -> Vec<Vec<VarSet>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let cube = |next: &mut dyn FnMut(usize) -> usize, max: usize| -> VarSet {
            (0..next(max + 1)).map(|_| next(lits)).collect()
        };
        let toggle = |f: &mut Vec<VarSet>, c: VarSet| match f.iter().position(|x| *x == c) {
            Some(p) => {
                f.remove(p);
            }
            None => f.push(c),
        };
        let mut pool: Vec<Vec<VarSet>> = Vec::new();
        for k in 0..2 + next(4) {
            let mut d = Vec::new();
            if nested && k > 0 {
                let inner = pool[next(k)].clone();
                let l = next(lits);
                for c in inner {
                    let mut c = c;
                    c.insert(l);
                    toggle(&mut d, c);
                }
            }
            while d.len() < 2 {
                toggle(&mut d, cube(&mut next, 2));
            }
            pool.push(d);
        }
        (0..funcs)
            .map(|_| {
                let mut f = Vec::new();
                for _ in 0..1 + next(4) {
                    let co = cube(&mut next, 2);
                    for dc in &pool[next(pool.len())] {
                        toggle(&mut f, co.union(dc));
                    }
                }
                for _ in 0..next(4) {
                    toggle(&mut f, cube(&mut next, 3));
                }
                f
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(300))]

        #[test]
        fn extract_matches_reference_under_a_truncating_cap(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 2usize..6,
            cap in 1usize..12,
        ) {
            let opts = ExtractOptions { max_candidates: cap, ..ExtractOptions::default() };
            checked_extract(random_functions(seed, 8, funcs, false), 16, &opts);
        }

        #[test]
        fn extract_matches_reference_with_overlapping_cokernels(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 1usize..6,
            min_saving in 0u64..4,
        ) {
            let opts = ExtractOptions { min_saving: min_saving as i64, ..ExtractOptions::default() };
            checked_extract(random_functions(seed, 5, funcs, false), 10, &opts);
        }

        #[test]
        fn extract_matches_reference_when_divisors_rewrite_divisors(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 2usize..6,
            min_saving in 1u64..3,
        ) {
            let opts = ExtractOptions { min_saving: min_saving as i64, ..ExtractOptions::default() };
            checked_extract(random_functions(seed, 7, funcs, true), 14, &opts);
        }
    }

    /// The three generators above really reach the cases they are named
    /// after: the cap truncates the candidate list, a function holds
    /// co-kernels of an extracted divisor that share a literal,
    /// and a divisor's cubes use a divisor extracted after it.
    #[test]
    fn oracle_generators_reach_their_cases() {
        let (mut truncated, mut overlapping, mut nested) = (0, 0, 0);
        for seed in 0..100u64 {
            let funcs = random_functions(seed, 8, 4, false);
            if reference::collect_candidates(&funcs, &[], 6).len() == 6
                && reference::collect_candidates(&funcs, &[], 7).len() == 7
            {
                truncated += 1;
            }
            let funcs = random_functions(seed, 5, 4, false);
            let ext = extract(funcs.clone(), 10, &ExtractOptions::default());
            overlapping += usize::from(ext.divisors.iter().any(|(_, d)| {
                funcs.iter().any(|f| {
                    let cos = cokernels(f, d);
                    cos.iter()
                        .enumerate()
                        .any(|(i, a)| cos[i + 1..].iter().any(|b| !a.is_disjoint(b)))
                })
            }));
            let ext = extract(
                random_functions(seed, 7, 4, true),
                14,
                &ExtractOptions::default(),
            );
            nested += usize::from(
                ext.divisors
                    .iter()
                    .any(|(y, d)| d.iter().any(|c| c.iter().any(|l| l > *y))),
            );
        }
        assert!(truncated >= 10, "cap truncated in {truncated}/100");
        assert!(
            overlapping >= 10,
            "overlapping co-kernels in {overlapping}/100"
        );
        assert!(
            nested >= 5,
            "divisor rewritten by a later one in {nested}/100"
        );
    }
}
