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
//! Cubes here live in *literal space*: a cube is a [`CubeRows`] row of
//! literal ids, and the caller owns the mapping from ids to
//! polarity-adjusted variables or previously-extracted divisor nodes.
//!
//! The greedy loop is incremental and runs on interned ids. Every cube
//! (of a function, a divisor or a quotient) is one fixed-stride row in a
//! `Store`, named by a `u32` id, and every candidate divisor is one
//! sorted list of cube ids, named by a `u32` id too; a candidate's support
//! and literal count are computed once, when it is first interned. Each
//! *slot* (an input function or an extracted divisor) keeps its cube ids,
//! one bitset of cube positions per support literal, and its literal
//! quotients as candidate ids, so candidate intersections are list merges
//! and a co-kernel scan visits only the cubes that contain the divisor's
//! rarest cube. The `(occurrences, co-kernel literals)` each candidate
//! gets from each slot is kept in a vector indexed by candidate id, and
//! after a rewrite only the slots it changed, plus the new divisor's, are
//! re-indexed and re-scored. Rows start as narrow as the input and the
//! first divisor literal allow, and widen when a later divisor's literal
//! needs it; a row hashes without its trailing zero words, so the ids
//! and tables survive. The candidate order, the cap, the
//! first-strictly-best pick and the rewrite order are those of the
//! round-by-round rebuild kept as the test oracle, so the result is the
//! same cube for cube. All of this state is dropped when [`extract`]
//! returns.

use std::hash::Hasher;
use xsynth_boolean::{mask_ones, CubeRows, FxHasher};

/// The result of running [`extract`]: the extracted divisor definitions
/// (in extraction order) and the rewritten functions.
#[derive(Debug, Clone)]
pub struct Extraction {
    /// `(literal id, cube rows)` per extracted divisor — the divisor node
    /// computes the XOR-sum of its cubes. Divisor cubes may reference
    /// other divisors' literal ids (in either direction); consumers should
    /// emit them in dependency order.
    pub divisors: Vec<(usize, CubeRows)>,
    /// The input functions rewritten over the extended literal space.
    pub functions: Vec<CubeRows>,
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
/// divisors get literal ids starting at `next_literal`; the returned
/// rows are wide enough to hold them.
///
/// Each round scores up to `max_candidates` candidates — every distinct
/// literal quotient of every function and divisor, then pairwise
/// intersections of those quotients — and extracts the first one with
/// the strictly largest saving. Only the slots the last rewrite changed
/// are re-indexed, and a candidate scored in the previous round is
/// re-scored only against those slots.
pub fn extract(functions: &[CubeRows], next_literal: usize, opts: &ExtractOptions) -> Extraction {
    let num_functions = functions.len();
    // rows start as narrow as the input and the first divisor allow, and
    // widen when a later divisor's literal needs it
    let input_width = functions.iter().map(|f| 64 * f.stride()).max();
    let mut store = Store::new(input_width.unwrap_or(0).max(next_literal + 1));
    let mut slots: Vec<Slot> = functions
        .iter()
        .map(|f| {
            let ids = f.rows().map(|r| store.intern_cube(r)).collect();
            Slot::new(ids, &mut store)
        })
        .collect();
    let (mut rounds, mut scored) = (0u32, 0u64);
    // per candidate id: its per-slot hits as of the last round that
    // listed it; the slots rewritten or added since the previous round
    let mut hits: Vec<Vec<Hit>> = Vec::new();
    let mut stale = vec![true; slots.len()];
    let mut collect = Collect::default();
    let mut probe = Probe::default();

    while slots.len() - num_functions < opts.max_divisors {
        rounds += 1;
        collect.run(&slots, &mut store, rounds, opts.max_candidates);
        scored += collect.list.len() as u64;
        hits.resize_with(store.num_candidates(), Vec::new);
        let mut best: Option<(u32, i64)> = None;
        for (&c, &fresh) in collect.list.iter().zip(&collect.fresh) {
            // a candidate not listed in the previous round is scored
            // against every slot
            let h = &mut hits[c as usize];
            if fresh {
                h.clear();
            } else {
                h.retain(|h| !stale[h.slot as usize]);
            }
            for (s, slot) in slots.iter().enumerate() {
                if !(fresh || stale[s]) {
                    continue;
                }
                if let Some((occurrences, co_lits)) = slot.occurrences(c, &store, &mut probe) {
                    h.push(Hit {
                        slot: s as u32,
                        occurrences,
                        co_lits,
                    });
                }
            }
            let saving = store.saving(c, h);
            if saving >= opts.min_saving && best.is_none_or(|b| saving > b.1) {
                best = Some((c, saving));
            }
        }
        stale.fill(false);
        let Some((c, _)) = best else { break };

        let mut divisor = store.candidate(c).to_vec();
        divisor.sort_unstable_by(|&a, &b| store.row(a).cmp(store.row(b)));
        let y = next_literal + slots.len() - num_functions;
        if y >= 64 * store.stride {
            let stride = y / 64 + 1;
            store.widen(stride);
            slots.iter_mut().for_each(|slot| slot.widen(stride));
        }
        // a hit is exactly a slot that `rewrite` changes
        for h in &hits[c as usize] {
            let s = h.slot as usize;
            let cubes = slots[s].rewrite(&divisor, y, &mut store, &mut probe);
            slots[s] = Slot::new(cubes, &mut store);
            stale[s] = true;
        }
        slots.push(Slot::new(divisor, &mut store));
        stale.push(true);
    }

    let rows = |slot: &Slot| {
        let mut out = CubeRows::with_stride(store.stride);
        slot.cubes.iter().for_each(|&id| out.push(store.row(id)));
        out
    };
    Extraction {
        divisors: slots[num_functions..]
            .iter()
            .enumerate()
            .map(|(k, slot)| (next_literal + k, rows(slot)))
            .collect(),
        functions: slots[..num_functions].iter().map(rows).collect(),
        rounds: u64::from(rounds),
        candidates: scored,
    }
}

/// The interned cubes and candidates of one [`extract`] call. A cube is a
/// `stride`-word literal row; a candidate is a sorted list of cube ids
/// (ids follow first appearance: candidate identity and intersections
/// only need a fixed order, and the extracted divisor is sorted back into
/// row order before it is used).
struct Store {
    stride: usize,
    /// Cube rows by cube id, `stride` words each.
    rows: Vec<u64>,
    cube_ids: IdTable,
    /// Candidate cube-id lists, concatenated; `spans[c]` is candidate
    /// `c`'s `(start, len)`.
    lists: Vec<u32>,
    spans: Vec<(u32, u32)>,
    candidate_ids: IdTable,
    /// Per candidate: its support (`stride` words) and literal count.
    supports: Vec<u64>,
    lits: Vec<i64>,
}

impl Store {
    fn new(width: usize) -> Store {
        Store {
            stride: width.div_ceil(64).max(1),
            rows: Vec::new(),
            cube_ids: IdTable::default(),
            lists: Vec::new(),
            spans: Vec::new(),
            candidate_ids: IdTable::default(),
            supports: Vec::new(),
            lits: Vec::new(),
        }
    }

    fn row(&self, id: u32) -> &[u64] {
        let at = id as usize * self.stride;
        &self.rows[at..at + self.stride]
    }

    /// Lays every cube row and candidate support out again at `stride`
    /// words (wider than now). Ids and hashes stay: a row hashes without
    /// its trailing zero words.
    fn widen(&mut self, stride: usize) {
        let relay = |words: &[u64]| -> Vec<u64> {
            let mut out = Vec::with_capacity(words.len() / self.stride * stride);
            for row in words.chunks_exact(self.stride) {
                out.extend_from_slice(row);
                out.resize(out.len() + stride - self.stride, 0);
            }
            out
        };
        (self.rows, self.supports) = (relay(&self.rows), relay(&self.supports));
        self.stride = stride;
    }

    fn num_cubes(&self) -> usize {
        self.rows.len() / self.stride
    }

    /// The id of cube `row` (`stride` words), if it was interned.
    fn find_cube(&self, row: &[u64]) -> Option<u32> {
        self.cube_ids.find(row_hash(row), |id| self.row(id) == row)
    }

    /// The id of cube `row`, interned on first sight; `row` may be
    /// narrower than the stride (the rest reads as zero).
    fn intern_cube(&mut self, row: &[u64]) -> u32 {
        let (head, tail) = row.split_at(row.len().min(self.stride));
        assert!(tail.iter().all(|&w| w == 0), "literal past the row width");
        let start = self.rows.len();
        self.rows.extend_from_slice(head);
        self.rows.resize(start + self.stride, 0);
        let hash = row_hash(&self.rows[start..]);
        let stride = self.stride;
        let found = self.cube_ids.find(hash, |id| {
            let at = id as usize * stride;
            self.rows[at..at + stride] == self.rows[start..]
        });
        if let Some(id) = found {
            self.rows.truncate(start);
            return id;
        }
        let id = (start / stride) as u32;
        self.cube_ids.insert(hash, id);
        id
    }

    fn num_candidates(&self) -> usize {
        self.spans.len()
    }

    /// Candidate `c`'s cube ids, sorted.
    fn candidate(&self, c: u32) -> &[u32] {
        let (start, len) = self.spans[c as usize];
        &self.lists[start as usize..(start + len) as usize]
    }

    fn support(&self, c: u32) -> &[u64] {
        let at = c as usize * self.stride;
        &self.supports[at..at + self.stride]
    }

    /// The id of the candidate with the sorted cube ids `ids`, interned
    /// (with its support and literal count) on first sight.
    fn intern_candidate(&mut self, ids: &[u32]) -> u32 {
        let mut h = FxHasher::default();
        ids.iter().for_each(|&i| h.write_u32(i));
        let hash = h.finish();
        if let Some(c) = self.candidate_ids.find(hash, |c| self.candidate(c) == ids) {
            return c;
        }
        let c = self.spans.len() as u32;
        self.spans.push((self.lists.len() as u32, ids.len() as u32));
        self.lists.extend_from_slice(ids);
        let at = self.supports.len();
        self.supports.resize(at + self.stride, 0);
        let mut lits = 0;
        for &id in ids {
            let row = &self.rows[id as usize * self.stride..][..self.stride];
            for (s, &w) in self.supports[at..].iter_mut().zip(row) {
                *s |= w;
            }
            lits += i64::from(popcount(row));
        }
        self.lits.push(lits);
        self.candidate_ids.insert(hash, c);
        c
    }

    /// Total literal saving of extracting candidate `c` with `hits`, minus
    /// the cost of the divisor node itself; `i64::MIN` with fewer than 2
    /// occurrences. Each occurrence under co-kernel `co` removes `|d|`
    /// cubes of `|co| + |dc|` literals and adds one cube of `|co| + 1`.
    fn saving(&self, c: u32, hits: &[Hit]) -> i64 {
        let occurrences: i64 = hits.iter().map(|h| i64::from(h.occurrences)).sum();
        if occurrences < 2 {
            return i64::MIN;
        }
        let co_lits: i64 = hits.iter().map(|h| i64::from(h.co_lits)).sum();
        let cubes = i64::from(self.spans[c as usize].1);
        let lits = self.lits[c as usize];
        occurrences * (lits - 1) + (cubes - 1) * co_lits - lits
    }
}

/// An open-addressing hash table of dense ids whose keys live in a
/// [`Store`]: each entry keeps the key's hash, so growing never reads a
/// key.
#[derive(Default)]
struct IdTable {
    /// `(hash, id)`, `id == u32::MAX` when empty; a power of two long.
    entries: Vec<(u64, u32)>,
    len: usize,
}

impl IdTable {
    /// The id under `hash` that `same` accepts, if any.
    fn find(&self, hash: u64, same: impl Fn(u32) -> bool) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.entries[i];
            if id == u32::MAX {
                return None;
            }
            if h == hash && same(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Adds `id` under `hash` (its key must not be in the table yet).
    fn insert(&mut self, hash: u64, id: u32) {
        if 2 * (self.len + 1) > self.entries.len() {
            let old = std::mem::take(&mut self.entries);
            self.entries = vec![(0, u32::MAX); (2 * old.len()).max(64)];
            self.len = 0;
            for (h, id) in old.into_iter().filter(|e| e.1 != u32::MAX) {
                self.insert(h, id);
            }
        }
        let mask = self.entries.len() - 1;
        let mut i = hash as usize & mask;
        while self.entries[i].1 != u32::MAX {
            i = (i + 1) & mask;
        }
        self.entries[i] = (hash, id);
        self.len += 1;
    }
}

/// One function or extracted divisor, indexed for scoring: its cube ids
/// in order and sorted (with positions), its literal support, one bitset
/// over cube positions per support literal, and its literal quotients
/// with ≥ 2 cubes as candidate ids, in literal order.
struct Slot {
    cubes: Vec<u32>,
    /// `(cube id, position)`, sorted by id.
    by_id: Vec<(u32, u32)>,
    support: Vec<u64>,
    /// Per support word: the number of support literals in earlier words.
    rank: Vec<u32>,
    /// Words per posting bitset.
    words: usize,
    /// One bitset per support literal, in literal order.
    postings: Vec<u64>,
    quotients: Vec<u32>,
}

impl Slot {
    fn new(cubes: Vec<u32>, store: &mut Store) -> Slot {
        let stride = store.stride;
        let mut support = vec![0u64; stride];
        for &c in &cubes {
            for (s, &w) in support.iter_mut().zip(store.row(c)) {
                *s |= w;
            }
        }
        let rank: Vec<u32> = support
            .iter()
            .scan(0, |before, &w| {
                let r = *before;
                *before += w.count_ones();
                Some(r)
            })
            .collect();
        let words = cubes.len().div_ceil(64);
        let mut by_id: Vec<(u32, u32)> = cubes.iter().copied().zip(0..).collect();
        by_id.sort_unstable();
        let mut slot = Slot {
            cubes,
            by_id,
            support,
            rank,
            words,
            postings: Vec::new(),
            quotients: Vec::new(),
        };
        slot.postings = vec![0u64; popcount(&slot.support) as usize * words];
        for (p, &c) in slot.cubes.iter().enumerate() {
            for l in mask_ones(store.row(c)) {
                let k = slot.rank_of(l);
                slot.postings[k * words + p / 64] |= 1 << (p % 64);
            }
        }
        let mut q = vec![0u64; stride];
        let mut ids: Vec<u32> = Vec::new();
        for (k, l) in mask_ones(&slot.support).enumerate() {
            let bits = &slot.postings[k * words..(k + 1) * words];
            if popcount(bits) < 2 {
                continue;
            }
            ids.clear();
            for p in mask_ones(bits) {
                q.copy_from_slice(store.row(slot.cubes[p]));
                q[l / 64] &= !(1 << (l % 64));
                ids.push(store.intern_cube(&q));
            }
            ids.sort_unstable();
            slot.quotients.push(store.intern_candidate(&ids));
        }
        slot
    }

    /// Pads the support to `stride` words after [`Store::widen`].
    fn widen(&mut self, stride: usize) {
        let total = popcount(&self.support);
        self.support.resize(stride, 0);
        self.rank.resize(stride, total);
    }

    /// The position of support literal `l` among the support literals.
    fn rank_of(&self, l: usize) -> usize {
        let below = self.support[l / 64] & ((1 << (l % 64)) - 1);
        (self.rank[l / 64] + below.count_ones()) as usize
    }

    /// The position of cube `id` in this slot, if it is one.
    fn position(&self, id: u32) -> Option<usize> {
        let at = self.by_id.binary_search_by_key(&id, |e| e.0).ok()?;
        Some(self.by_id[at].1 as usize)
    }

    /// The position of cube `row` in this slot, if it is one.
    fn find(&self, row: &[u64], store: &Store) -> Option<usize> {
        store.find_cube(row).and_then(|id| self.position(id))
    }

    /// The positions of the cubes containing `row`, as a bitset (`row`'s
    /// literals must lie in the support).
    fn containing(&self, row: &[u64], bits: &mut Vec<u64>) {
        let n = self.cubes.len();
        bits.clear();
        bits.resize(self.words, !0);
        if !n.is_multiple_of(64) {
            bits[n / 64] = (1 << (n % 64)) - 1;
        }
        for l in mask_ones(row) {
            let k = self.rank_of(l);
            let posting = &self.postings[k * self.words..(k + 1) * self.words];
            for (b, p) in bits.iter_mut().zip(posting) {
                *b &= p;
            }
        }
    }

    /// The number of co-kernels under which candidate `c` divides this
    /// slot and their summed literal count, `None` when there are none. A
    /// co-kernel `co` avoids `c`'s support and has `co ∪ dc` in the slot
    /// for every cube `dc` of `c`, so the set does not depend on which
    /// cube of `c` drives the search: the one contained in the fewest
    /// cubes does.
    fn occurrences(&self, c: u32, store: &Store, probe: &mut Probe) -> Option<(u32, u32)> {
        let (d, support) = (store.candidate(c), store.support(c));
        let inside = support.iter().zip(&self.support).all(|(d, s)| d & !s == 0);
        if !inside || self.covers_equal(d) {
            // extracting a function as its own divisor is a no-op
            return None;
        }
        let mut driver = 0;
        let mut fewest = u32::MAX;
        for (k, &dc) in d.iter().enumerate() {
            self.containing(store.row(dc), &mut probe.bits);
            let n = popcount(&probe.bits);
            if n == 0 {
                return None;
            }
            if n < fewest {
                (driver, fewest) = (k, n);
                std::mem::swap(&mut probe.bits, &mut probe.driver);
            }
        }
        let dr = store.row(d[driver]);
        let (mut occurrences, mut co_lits) = (0, 0);
        for p in mask_ones(&probe.driver) {
            let cube = store.row(self.cubes[p]);
            probe.co.clear();
            probe.co.extend(cube.iter().zip(dr).map(|(c, r)| c & !r));
            if probe.co.iter().zip(support).any(|(c, s)| c & s != 0) {
                continue;
            }
            let divides = d.iter().enumerate().all(|(k, &dc)| {
                k == driver || {
                    probe.product.clear();
                    let row = store.row(dc);
                    probe
                        .product
                        .extend(probe.co.iter().zip(row).map(|(c, r)| c | r));
                    self.find(&probe.product, store).is_some()
                }
            });
            if divides {
                occurrences += 1;
                co_lits += popcount(&probe.co);
            }
        }
        (occurrences > 0).then_some((occurrences, co_lits))
    }

    fn covers_equal(&self, d: &[u32]) -> bool {
        self.cubes.len() == d.len() && d.iter().all(|&c| self.position(c).is_some())
    }

    /// The slot's cube ids with every occurrence `co·d` replaced by the
    /// single cube `co ∪ {y}`: the untouched cubes keep their order, and
    /// the new cubes follow in the order of their `co ∪ d[0]` cube.
    /// Occurrences are cube-disjoint (each co-kernel avoids `d`'s
    /// support), so this equals rewriting them one at a time, first
    /// co-kernel first.
    fn rewrite(&self, d: &[u32], y: usize, store: &mut Store, probe: &mut Probe) -> Vec<u32> {
        let mut support = vec![0u64; store.stride];
        for &dc in d {
            for (s, &w) in support.iter_mut().zip(store.row(dc)) {
                *s |= w;
            }
        }
        let mut taken = vec![false; self.cubes.len()];
        let mut added = Vec::new();
        let mut positions = Vec::with_capacity(d.len());
        self.containing(store.row(d[0]), &mut probe.bits);
        for p in mask_ones(&probe.bits) {
            let d0 = store.row(d[0]);
            probe.co.clear();
            let cube = store.row(self.cubes[p]);
            probe.co.extend(cube.iter().zip(d0).map(|(c, r)| c & !r));
            if probe.co.iter().zip(&support).any(|(c, s)| c & s != 0) {
                continue;
            }
            positions.clear();
            for &dc in d {
                probe.product.clear();
                let row = store.row(dc);
                probe
                    .product
                    .extend(probe.co.iter().zip(row).map(|(c, r)| c | r));
                match self.find(&probe.product, store) {
                    Some(q) => positions.push(q),
                    None => break,
                }
            }
            if positions.len() == d.len() {
                for &q in &positions {
                    taken[q] = true;
                }
                probe.co[y / 64] |= 1 << (y % 64);
                added.push(store.intern_cube(&probe.co));
            }
        }
        self.cubes
            .iter()
            .zip(&taken)
            .filter(|(_, &t)| !t)
            .map(|(&c, _)| c)
            .chain(added)
            .collect()
    }
}

/// Scratch rows and bitsets reused across [`Slot::occurrences`] and
/// [`Slot::rewrite`] calls.
#[derive(Default)]
struct Probe {
    bits: Vec<u64>,
    driver: Vec<u64>,
    co: Vec<u64>,
    product: Vec<u64>,
}

/// A candidate's co-kernels in one slot.
struct Hit {
    slot: u32,
    occurrences: u32,
    co_lits: u32,
}

/// One round's candidate list and the buffers that build it, reused from
/// round to round.
#[derive(Default)]
struct Collect {
    /// Candidate ids, in list order.
    list: Vec<u32>,
    /// Per listed candidate: whether the previous round did not list it.
    fresh: Vec<bool>,
    /// Per candidate id: the last round that listed it (0: none yet).
    listed: Vec<u32>,
    /// Per cube id: the quotients (list positions) holding it.
    holders: Vec<Vec<u32>>,
    shared: Vec<u32>,
    partners: Vec<u32>,
    common: Vec<u32>,
}

impl Collect {
    /// Lists the candidate divisors of round `round`: the distinct literal
    /// quotients in slot order, then the pairwise intersections (`i < j`)
    /// of those quotients that have ≥ 2 cubes and are new, until there
    /// are `cap`. Pairing only distinct quotients yields the same list as
    /// pairing every quotient: a repeated quotient's intersections all
    /// repeat earlier ones. Pairs sharing fewer than 2 cubes are skipped
    /// without a merge, found through a cube → quotients index.
    fn run(&mut self, slots: &[Slot], store: &mut Store, round: u32, cap: usize) {
        self.list.clear();
        self.fresh.clear();
        // a candidate counts as listed only once it is in the list, so
        // the list stops at the cap rather than being cut back to it
        for &q in slots.iter().flat_map(|s| &s.quotients) {
            if self.list.len() >= cap {
                return;
            }
            self.push(q, round);
        }
        let quotients = self.list.len();
        if quotients >= cap {
            return;
        }
        self.holders.resize_with(store.num_cubes(), Vec::new);
        for (k, &q) in self.list.iter().enumerate() {
            for &c in store.candidate(q) {
                self.holders[c as usize].push(k as u32);
            }
        }
        self.shared.clear();
        self.shared.resize(quotients, 0);
        'pairs: for i in 0..quotients {
            for &c in store.candidate(self.list[i]) {
                let h = &self.holders[c as usize];
                for &j in &h[h.partition_point(|&j| j as usize <= i)..] {
                    if self.shared[j as usize] == 0 {
                        self.partners.push(j);
                    }
                    self.shared[j as usize] += 1;
                }
            }
            self.partners.sort_unstable();
            for k in 0..self.partners.len() {
                let j = self.partners[k];
                if self.shared[j as usize] < 2 {
                    continue;
                }
                if self.list.len() >= cap {
                    break 'pairs;
                }
                let (a, b) = (self.list[i], self.list[j as usize]);
                merge_common(store.candidate(a), store.candidate(b), &mut self.common);
                let c = store.intern_candidate(&self.common);
                self.push(c, round);
            }
            for &j in &self.partners {
                self.shared[j as usize] = 0;
            }
            self.partners.clear();
        }
        self.partners.clear();
        for &q in &self.list[..quotients] {
            for &c in store.candidate(q) {
                self.holders[c as usize].clear();
            }
        }
    }

    /// Appends candidate `c` unless this round already listed it.
    fn push(&mut self, c: u32, round: u32) {
        let c = c as usize;
        if c >= self.listed.len() {
            self.listed.resize(c + 1, 0);
        }
        if self.listed[c] != round {
            self.fresh.push(self.listed[c] + 1 != round);
            self.listed[c] = round;
            self.list.push(c as u32);
        }
    }
}

/// Writes the common elements of two sorted lists into `out`.
fn merge_common(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
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
}

/// The hash of a cube row, blind to trailing zero words so that it
/// survives [`Store::widen`].
fn row_hash(row: &[u64]) -> u64 {
    let len = row.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    FxHasher::hash_words(&row[..len])
}

fn popcount(bits: &[u64]) -> u32 {
    bits.iter().map(|w| w.count_ones()).sum()
}

#[cfg(test)]
mod reference {
    use super::ExtractOptions;
    use std::collections::HashMap;
    use xsynth_boolean::VarSet;

    /// [`super::Extraction`] over [`VarSet`] cubes.
    #[derive(Debug)]
    pub(super) struct SetExtraction {
        pub divisors: Vec<(usize, Vec<VarSet>)>,
        pub functions: Vec<Vec<VarSet>>,
        pub rounds: u64,
        pub candidates: u64,
    }

    /// The extraction loop as first written, each round rebuilt from
    /// scratch: the oracle [`super::extract`] must match exactly.
    pub(super) fn extract_reference(
        functions: Vec<Vec<VarSet>>,
        mut next_literal: usize,
        opts: &ExtractOptions,
    ) -> SetExtraction {
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

        SetExtraction {
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
    use super::reference::{
        canon, cokernels, extract_reference, quotient, rewrite, total_saving, SetExtraction,
    };
    use super::*;
    use std::collections::HashMap;
    use xsynth_boolean::VarSet;

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
        let (mut store, slot) = indexed(&f);
        let c = candidate(&mut store, &d);
        assert_eq!(slot.quotients, vec![c]);
        assert_eq!(
            slot.occurrences(c, &store, &mut Probe::default()),
            Some((1, 1))
        );
    }

    #[test]
    fn universe_cokernel() {
        // d ⊆ f directly
        let f = vec![vs(&[1]), vs(&[2]), vs(&[5])];
        let d = vec![vs(&[1]), vs(&[2])];
        let cos = cokernels(&f, &d);
        assert!(cos.contains(&VarSet::new()));
        let (mut store, slot) = indexed(&f);
        let c = candidate(&mut store, &d);
        assert_eq!(
            slot.occurrences(c, &store, &mut Probe::default()),
            Some((1, 0))
        );
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
        let (mut store, slot) = indexed(&f);
        let ids: Vec<u32> = d.iter().map(|c| intern(&mut store, c)).collect();
        let fast = slot.rewrite(&ids, 9, &mut store, &mut Probe::default());
        rewrite(&mut f, &d, 9);
        assert_eq!(f.len(), 2, "both occurrences rewritten: {f:?}");
        assert!(f.contains(&vs(&[0, 9])));
        assert!(f.contains(&vs(&[3, 9])));
        let fast: Vec<VarSet> = fast
            .iter()
            .map(|&id| mask_ones(store.row(id)).collect())
            .collect();
        assert_eq!(fast, f, "indexed rewrite keeps the order");
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
        let (mut store, slot) = indexed(&f);
        let c = candidate(&mut store, &d);
        let (occurrences, co_lits) = slot.occurrences(c, &store, &mut Probe::default()).unwrap();
        assert_eq!((occurrences, co_lits), (1, 1));
        let hit = Hit {
            slot: 0,
            occurrences,
            co_lits,
        };
        assert_eq!(store.saving(c, &[hit]), i64::MIN);
    }

    /// A 128-literal store holding `f`'s cubes, and `f` indexed as a slot.
    fn indexed(f: &[VarSet]) -> (Store, Slot) {
        let mut store = Store::new(128);
        let ids = f.iter().map(|c| intern(&mut store, c)).collect();
        let slot = Slot::new(ids, &mut store);
        (store, slot)
    }

    fn intern(store: &mut Store, c: &VarSet) -> u32 {
        store.intern_cube(CubeRows::from_sets(0, std::slice::from_ref(c)).row(0))
    }

    /// The candidate id of cube set `d`.
    fn candidate(store: &mut Store, d: &[VarSet]) -> u32 {
        let mut ids: Vec<u32> = d.iter().map(|c| intern(store, c)).collect();
        ids.sort_unstable();
        store.intern_candidate(&ids)
    }

    #[test]
    fn id_table_grows_and_finds_every_key() {
        let mut store = Store::new(200);
        let cubes: Vec<VarSet> = (0..300)
            .map(|k| vs(&[k % 7, 60 + k % 11, 130 + k / 7]))
            .collect();
        let ids: Vec<u32> = cubes.iter().map(|c| intern(&mut store, c)).collect();
        assert_eq!(store.num_cubes(), 300);
        for (k, c) in cubes.iter().enumerate() {
            assert_eq!(intern(&mut store, c), ids[k], "re-interning cube {k}");
        }
        assert_eq!(store.num_cubes(), 300, "no cube interned twice");
        assert_eq!(store.find_cube(&[1, 0, 0, 0]), None);
    }

    /// Runs [`extract`] and asserts it matches the reference loop exactly:
    /// divisor ids and cube lists, rewritten functions, cube order and the
    /// work counters.
    fn checked_extract(
        funcs: Vec<Vec<VarSet>>,
        next: usize,
        opts: &ExtractOptions,
    ) -> SetExtraction {
        let fast = extract_sets(&funcs, next, opts);
        let slow = extract_reference(funcs, next, opts);
        assert_eq!(fast.divisors, slow.divisors);
        assert_eq!(fast.functions, slow.functions);
        assert_eq!(
            (fast.rounds, fast.candidates),
            (slow.rounds, slow.candidates)
        );
        fast
    }

    /// [`extract`] on [`VarSet`] cubes, each function's rows as narrow as
    /// its literals allow.
    fn extract_sets(funcs: &[Vec<VarSet>], next: usize, opts: &ExtractOptions) -> SetExtraction {
        let rows: Vec<CubeRows> = funcs.iter().map(|f| CubeRows::from_sets(0, f)).collect();
        let ext = extract(&rows, next, opts);
        for (y, d) in &ext.divisors {
            assert!(64 * d.stride() > *y, "divisor literal {y} fits the rows");
        }
        SetExtraction {
            divisors: ext
                .divisors
                .iter()
                .map(|(y, d)| (*y, d.to_sets()))
                .collect(),
            functions: ext.functions.iter().map(CubeRows::to_sets).collect(),
            rounds: ext.rounds,
            candidates: ext.candidates,
        }
    }

    /// Random literal-space functions over `lits` literals with planted
    /// shared structure. A pool of divisors is drawn first; with `nested`
    /// each later pool entry embeds an earlier one under a one-literal
    /// co-kernel, so an extracted divisor can be rewritten by a divisor
    /// extracted after it. Each function XORs 1–4 products `co·d` of a
    /// pool divisor and a random 0–2 literal co-kernel (a small alphabet
    /// makes co-kernels and candidates overlap), plus up to 3 noise cubes.
    /// A cube generated twice cancels, so no function repeats a cube.
    /// Literal ids are `offset..offset + lits`.
    fn random_functions(
        seed: u64,
        lits: usize,
        offset: usize,
        funcs: usize,
        nested: bool,
    ) -> Vec<Vec<VarSet>> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let cube = |next: &mut dyn FnMut(usize) -> usize, max: usize| -> VarSet {
            (0..next(max + 1)).map(|_| offset + next(lits)).collect()
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
                let l = offset + next(lits);
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

    /// Literal ids of a generated case: narrow ones start at 0 with
    /// divisors right after; wide ones start at 60, so input literals
    /// cross the first word boundary, and divisors from 126, so the third
    /// divisor's id is past 128 (a three-word row).
    fn layout(wide: bool, lits: usize) -> (usize, usize) {
        if wide {
            (60, 126)
        } else {
            (0, 2 * lits)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(300))]

        #[test]
        fn extract_matches_reference_under_a_truncating_cap(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 2usize..6,
            cap in 1usize..12,
            wide in proptest::arbitrary::any::<bool>(),
        ) {
            let opts = ExtractOptions { max_candidates: cap, ..ExtractOptions::default() };
            let (offset, next) = layout(wide, 8);
            checked_extract(random_functions(seed, 8, offset, funcs, false), next, &opts);
        }

        #[test]
        fn extract_matches_reference_with_overlapping_cokernels(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 1usize..6,
            min_saving in 0u64..4,
            wide in proptest::arbitrary::any::<bool>(),
        ) {
            let opts = ExtractOptions { min_saving: min_saving as i64, ..ExtractOptions::default() };
            let (offset, next) = layout(wide, 5);
            checked_extract(random_functions(seed, 5, offset, funcs, false), next, &opts);
        }

        #[test]
        fn extract_matches_reference_when_divisors_rewrite_divisors(
            seed in proptest::arbitrary::any::<u64>(),
            funcs in 2usize..6,
            min_saving in 1u64..3,
            wide in proptest::arbitrary::any::<bool>(),
        ) {
            let opts = ExtractOptions { min_saving: min_saving as i64, ..ExtractOptions::default() };
            let (offset, next) = layout(wide, 7);
            checked_extract(random_functions(seed, 7, offset, funcs, true), next, &opts);
        }
    }

    /// The three generators above really reach the cases they are named
    /// after: the cap truncates the candidate list, a function holds
    /// co-kernels of an extracted divisor that share a literal, and a
    /// divisor's cubes use a divisor extracted after it. Their wide
    /// layouts put divisor literals past 128 and into cubes that also
    /// hold literals on both sides of 64.
    #[test]
    fn oracle_generators_reach_their_cases() {
        let (mut truncated, mut overlapping, mut nested, mut wide_rows) = (0, 0, 0, 0);
        for seed in 0..100u64 {
            let wide = seed % 2 == 1;
            let (offset, _) = layout(wide, 8);
            let funcs = random_functions(seed, 8, offset, 4, false);
            if reference::collect_candidates(&funcs, &[], 6).len() == 6
                && reference::collect_candidates(&funcs, &[], 7).len() == 7
            {
                truncated += 1;
            }
            let (offset, next) = layout(wide, 5);
            let funcs = random_functions(seed, 5, offset, 4, false);
            let ext = extract_sets(&funcs, next, &ExtractOptions::default());
            overlapping += usize::from(ext.divisors.iter().any(|(_, d)| {
                funcs.iter().any(|f| {
                    let cos = cokernels(f, d);
                    cos.iter()
                        .enumerate()
                        .any(|(i, a)| cos[i + 1..].iter().any(|b| !a.is_disjoint(b)))
                })
            }));
            let (offset, next) = layout(wide, 7);
            let funcs = random_functions(seed, 7, offset, 4, true);
            let ext = extract_sets(&funcs, next, &ExtractOptions::default());
            nested += usize::from(
                ext.divisors
                    .iter()
                    .any(|(y, d)| d.iter().any(|c| c.iter().any(|l| l > *y))),
            );
            wide_rows += usize::from(ext.functions.iter().flatten().any(|c| {
                c.iter().any(|l| l < 64) && c.iter().any(|l| (64..126).contains(&l))
                    || c.iter().any(|l| l >= 128)
            }));
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
        assert!(wide_rows >= 10, "multi-word cubes in {wide_rows}/100");
    }
}
