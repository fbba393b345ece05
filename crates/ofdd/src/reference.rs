//! The polarity search as it was before the spectrum scorer: every
//! candidate converts the BDD to a fresh OFDD. Kept unchanged as the
//! oracle the tests hold [`super::PolaritySearch`] to — same winners, same
//! counts, same `polarity.*` counters.

use super::{eval_polarity, PolarityMode, EXHAUSTIVE_LIMIT};
use std::collections::HashMap;
use std::time::Instant;
use xsynth_bdd::{Bdd, BddManager};
use xsynth_boolean::Polarity;
use xsynth_trace::TraceBuffer;

/// The polarity search with one BDD→OFDD conversion per candidate.
#[derive(Debug)]
pub struct PolaritySearch<'a> {
    bm: &'a BddManager,
    f: Bdd,
    memo: HashMap<Polarity, u64>,
    parallel: bool,
    deadline: Option<Instant>,
    trace: Option<&'a mut TraceBuffer>,
    tripped: bool,
}

impl<'a> PolaritySearch<'a> {
    /// Starts a search for `f` inside `bm`.
    ///
    /// A node cap set on `bm` (see [`BddManager::set_node_limit`]) governs
    /// the search: when a candidate evaluation trips it, the search stops
    /// and keeps the best polarity found so far instead of panicking.
    pub fn new(bm: &'a BddManager, f: Bdd) -> Self {
        PolaritySearch {
            bm,
            f,
            memo: HashMap::new(),
            parallel: false,
            deadline: None,
            trace: None,
            tripped: false,
        }
    }

    /// Enables or disables parallel candidate evaluation (off by default —
    /// callers that already fan out across outputs keep each search
    /// single-threaded to avoid oversubscription).
    pub fn parallel(mut self, enabled: bool) -> Self {
        self.parallel = enabled;
        self
    }

    /// Sets a wall-clock deadline. Once it passes, the search finishes the
    /// candidate in flight, then aborts and keeps the best polarity found
    /// so far (see [`PolaritySearch::budget_tripped`]).
    pub fn deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Whether the search has stopped early at least once because of its
    /// node cap or deadline.
    pub fn budget_tripped(&self) -> bool {
        self.tripped
    }

    /// Records the search into a trace buffer: [`PolaritySearch::run`]
    /// opens a `polarity_search` span and the evaluation sites emit the
    /// `polarity.evaluated` / `polarity.memo_hit` counters. The counter
    /// stream is deterministic — the memo logic is identical with and
    /// without [`PolaritySearch::parallel`], only *where* a candidate is
    /// evaluated changes.
    pub fn trace(mut self, buf: &'a mut TraceBuffer) -> Self {
        self.trace = Some(buf);
        self
    }

    fn record(&mut self, evaluated: u64, memo_hits: u64) {
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.count("polarity.evaluated", evaluated);
            buf.count("polarity.memo_hit", memo_hits);
        }
    }

    fn record_trip(&mut self) {
        self.tripped = true;
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.count("polarity.budget_tripped", 1);
        }
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The FPRM cube count of the function under `pol`, memoized; `None`
    /// when the evaluation trips the manager's node cap (recorded as a
    /// budget trip).
    pub fn cube_count(&mut self, pol: &Polarity) -> Option<u64> {
        if let Some(&c) = self.memo.get(pol) {
            self.record(0, 1);
            return Some(c);
        }
        match eval_polarity(self.bm, self.f, pol) {
            Some(c) => {
                self.record(1, 0);
                self.memo.insert(pol.clone(), c);
                Some(c)
            }
            None => {
                self.record_trip();
                None
            }
        }
    }

    /// Batch evaluation under the budget: memo hits always answer;
    /// missing candidates evaluate until the node cap or deadline trips.
    /// Returns the index-aligned counts (`None` = not affordable) and
    /// whether the budget tripped.
    fn counts_governed(&mut self, pols: &[Polarity]) -> (Vec<Option<u64>>, bool) {
        let mut out: Vec<Option<u64>> = Vec::with_capacity(pols.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut hits = 0u64;
        for p in pols {
            match self.memo.get(p) {
                Some(&c) => {
                    hits += 1;
                    out.push(Some(c));
                }
                None => {
                    missing.push(out.len());
                    out.push(None);
                }
            }
        }
        // a batch may name the same uncached polarity twice; computing it
        // twice would double-count, so dedup by key first
        missing.dedup_by_key(|&mut i| pols[i].clone());
        let mut tripped = false;
        let mut evaluated = 0u64;
        if self.past_deadline() {
            tripped = true;
        } else {
            let workers = if self.parallel && missing.len() >= 2 {
                xsynth_bdd::worker_threads(missing.len())
            } else {
                1
            };
            if workers > 1 {
                let bm = self.bm;
                let f = self.f;
                let counts: Vec<(usize, Option<u64>)> = std::thread::scope(|s| {
                    let handles: Vec<_> = (0..workers)
                        .map(|w| {
                            let chunk: Vec<usize> =
                                missing.iter().copied().skip(w).step_by(workers).collect();
                            let pols = &pols;
                            s.spawn(move || {
                                chunk
                                    .into_iter()
                                    .map(|i| (i, eval_polarity(bm, f, &pols[i])))
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .flat_map(|h| h.join().expect("polarity worker panicked"))
                        .collect()
                });
                for (i, c) in counts {
                    match c {
                        Some(c) => {
                            evaluated += 1;
                            self.memo.insert(pols[i].clone(), c);
                        }
                        None => tripped = true,
                    }
                }
            } else {
                for &i in &missing {
                    if self.past_deadline() {
                        tripped = true;
                        break;
                    }
                    match eval_polarity(self.bm, self.f, &pols[i]) {
                        Some(c) => {
                            evaluated += 1;
                            self.memo.insert(pols[i].clone(), c);
                        }
                        None => {
                            tripped = true;
                            break;
                        }
                    }
                }
            }
        }
        self.record(evaluated, hits);
        if tripped {
            self.record_trip();
        }
        let out = out
            .into_iter()
            .zip(pols)
            .map(|(c, p)| c.or_else(|| self.memo.get(p).copied()))
            .collect();
        (out, tripped)
    }

    /// Round-based greedy descent from the all-positive polarity: each
    /// round evaluates every single-variable flip over `support` and moves
    /// to the smallest strictly-improving cube count (ties broken toward
    /// the lowest variable). Returns the winning polarity and its count.
    pub fn greedy(&mut self, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        let mut pol = Polarity::all_positive(n);
        let Some(mut best) = self.cube_count(&pol.clone()) else {
            // even the base polarity is unaffordable under the budget:
            // keep it with an unknown cost
            return (pol, u64::MAX);
        };
        loop {
            let candidates: Vec<Polarity> = support
                .iter()
                .map(|&v| {
                    let mut p = pol.clone();
                    p.flip(v);
                    p
                })
                .collect();
            if candidates.is_empty() {
                return (pol, best);
            }
            let (counts, tripped) = self.counts_governed(&candidates);
            let mut winner: Option<usize> = None;
            for (i, c) in counts.iter().enumerate() {
                if let Some(c) = *c {
                    if c < best && winner.is_none_or(|w| Some(c) < counts[w]) {
                        winner = Some(i);
                    }
                }
            }
            match winner {
                Some(i) => {
                    best = counts[i].expect("winner has a count");
                    pol = candidates[i].clone();
                }
                None => return (pol, best),
            }
            if tripped {
                // abort-and-keep-best: the round in flight still applied
                // its improvement, but no further rounds start
                return (pol, best);
            }
        }
    }

    /// Exhaustive enumeration of all `2^k` polarities over `support`, in
    /// gray-code order (each step flips exactly one variable, the order a
    /// future incremental OFDD update can exploit). Ties keep the earliest
    /// polarity in gray order. Returns the winner and its count.
    pub fn exhaustive_gray(&mut self, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        let k = support.len();
        assert!(k <= 24, "exhaustive polarity space too large for {k} vars");
        // candidate i: the i-th gray code, a set bit meaning the variable
        // is flipped to negative (gray 0 = all-positive)
        let make = |i: u64| {
            let g = i ^ (i >> 1);
            let mut p = Polarity::all_positive(n);
            for (b, &v) in support.iter().enumerate() {
                if g & (1 << b) != 0 {
                    p.set(v, false);
                }
            }
            p
        };
        let mut best: Option<(u64, Polarity)> = None;
        // batches keep peak memory flat and still feed the parallel path
        const BATCH: u64 = 256;
        let total = 1u64 << k;
        let mut start = 0u64;
        while start < total {
            let end = (start + BATCH).min(total);
            let pols: Vec<Polarity> = (start..end).map(make).collect();
            let (counts, tripped) = self.counts_governed(&pols);
            for (p, c) in pols.into_iter().zip(counts) {
                if let Some(c) = c {
                    if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                        best = Some((c, p));
                    }
                }
            }
            if tripped {
                // abort-and-keep-best under the budget
                break;
            }
            start = end;
        }
        match best {
            Some((c, p)) => (p, c),
            // budget tripped before any candidate was affordable
            None => (Polarity::all_positive(n), u64::MAX),
        }
    }

    /// Dispatches on `mode`: all-positive, greedy descent, or gray-code
    /// exhaustive when the support fits under [`EXHAUSTIVE_LIMIT`]. When a
    /// trace buffer is attached the whole search runs inside a
    /// `polarity_search` span.
    pub fn run(&mut self, mode: PolarityMode, support: &[usize]) -> (Polarity, u64) {
        xsynth_trace::fail_point!("ofdd.polarity_search");
        if let Some(buf) = self.trace.as_deref_mut() {
            buf.begin("polarity_search");
        }
        let result = self.dispatch(mode, support);
        if let Some(buf) = self.trace.as_deref_mut() {
            if result.1 != u64::MAX {
                buf.gauge("polarity.best_cubes", result.1 as f64);
            }
            buf.end();
        }
        result
    }

    fn dispatch(&mut self, mode: PolarityMode, support: &[usize]) -> (Polarity, u64) {
        let n = self.bm.num_vars();
        match mode {
            PolarityMode::AllPositive => {
                let pol = Polarity::all_positive(n);
                let c = self.cube_count(&pol.clone()).unwrap_or(u64::MAX);
                (pol, c)
            }
            PolarityMode::Greedy => self.greedy(support),
            PolarityMode::Exhaustive => {
                if support.len() <= EXHAUSTIVE_LIMIT {
                    self.exhaustive_gray(support)
                } else {
                    self.greedy(support)
                }
            }
        }
    }
}
