//! The long-lived synthesis engine.
//!
//! [`Engine`] is the primary entry point of the crate: a handle that owns
//! the pieces worth keeping warm across calls — the content-addressed
//! result cache ([`xsynth_cache::ResultCache`]) and a pool of BDD
//! substrates keyed by arity. The free function [`crate::try_synthesize`]
//! is a thin one-shot wrapper over a throwaway engine; a daemon constructs
//! one engine and routes every job through it, which is what lets
//! duplicate and near-duplicate traffic skip the polarity descent via
//! cache hits.
//!
//! # Cache tiers
//!
//! Per output cone (keyed by [`xsynth_cache::cone_of`]'s canonical
//! structural hash, salted with the polarity-search mode):
//!
//! * **polarity** — the winning polarity vector over the cone's canonical
//!   input order;
//! * **cubes** — the FPRM cube list under that polarity;
//! * **factored** — keyed separately by the exact literal-cube list, the
//!   factored expression (a pure-function memo, so hits are exact).
//!
//! Seeding happens in a sequential pre-pass before the planning fan-out
//! and stores happen post-merge in output-index order, so the
//! parallel ≡ sequential determinism contract is untouched: worker
//! threads never read or write the cache.

use crate::budget::Budget;
use crate::error::Error;
use crate::expr::Gexpr;
use crate::factor::factor_cubes_traced;
use crate::synth::{SynthOptions, SynthOutcome};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use xsynth_bdd::BddManager;
use xsynth_boolean::{Polarity, VarSet};
use xsynth_cache::{cubes_key, CacheEntry, CacheStats, Cone, FactoredExpr, ResultCache, Tier};
use xsynth_net::Network;
use xsynth_trace::TraceBuffer;

/// Substrate node count past which [`Engine::checkin`] attempts a
/// generational reclamation before pooling the manager for reuse.
pub const DEFAULT_RECLAIM_NODE_WATERMARK: usize = 1 << 20;

/// A long-lived synthesis handle owning the BDD substrate pool and the
/// content-addressed result cache.
///
/// All methods take `&self`; the engine is `Sync`, so one instance can be
/// shared across the worker threads of a daemon. Each job gets per-job
/// trace/memory scoping; only the cache and (for uncapped jobs) the warm
/// BDD substrate persist between calls.
///
/// # Examples
///
/// ```
/// use xsynth_core::{Engine, SynthOptions};
/// use xsynth_net::{GateKind, Network};
///
/// let mut spec = Network::new("f");
/// let a = spec.add_input("a");
/// let b = spec.add_input("b");
/// let g = spec.add_gate(GateKind::Xor, vec![a, b]);
/// spec.add_output("f", g);
///
/// let engine = Engine::new();
/// let opts = SynthOptions::default();
/// let cold = engine.try_synthesize(&spec, &opts)?;
/// let warm = engine.try_synthesize(&spec, &opts)?;
/// // the second run planned every output from the cache...
/// assert!(warm.report.cache.polarity_hits > 0);
/// // ...skipping the polarity descent entirely
/// assert_eq!(warm.report.trace.counter("polarity.evaluated"), 0);
/// // and the result is bit-identical
/// assert_eq!(
///     xsynth_blif::write_blif(&warm.network),
///     xsynth_blif::write_blif(&cold.network),
/// );
/// # Ok::<(), xsynth_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    cache: ResultCache,
    pool: Mutex<HashMap<usize, BddManager>>,
    reclaim_watermark: usize,
    reclaim_refused: AtomicU64,
}

/// Point-in-time statistics of one pooled BDD substrate (see
/// [`Engine::substrate_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubstrateStats {
    /// Variable count the substrate was built for (the pool key).
    pub arity: usize,
    /// Live node count, terminal included.
    pub nodes: usize,
    /// Apply-cache hits over the substrate's lifetime (schedule-dependent
    /// under parallelism — report as a gauge, never a checked counter).
    pub apply_hits: u64,
    /// Apply-cache misses over the substrate's lifetime.
    pub apply_misses: u64,
    /// Node count per unique-table shard, indexed by shard.
    pub shard_occupancy: Vec<usize>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with an empty substrate pool and a default-budget cache.
    pub fn new() -> Engine {
        Engine {
            cache: ResultCache::default(),
            pool: Mutex::new(HashMap::new()),
            reclaim_watermark: DEFAULT_RECLAIM_NODE_WATERMARK,
            reclaim_refused: AtomicU64::new(0),
        }
    }

    /// Replaces the result cache with one bounded to `bytes` (builder
    /// style, for construction time).
    pub fn cache_budget(mut self, bytes: usize) -> Engine {
        self.cache = ResultCache::new(bytes);
        self
    }

    /// Sets the substrate node count past which a checked-in manager is
    /// generationally reclaimed instead of kept warm (builder style).
    pub fn reclaim_watermark(mut self, nodes: usize) -> Engine {
        self.reclaim_watermark = nodes;
        self
    }

    /// Lifetime statistics of the shared result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// False when the result cache was built with a zero byte budget
    /// (`serve --cache-mb 0`): lookups and stores are bypassed entirely
    /// and the pipeline skips its seed pre-pass accounting.
    pub fn cache_enabled(&self) -> bool {
        self.cache.enabled()
    }

    /// Lifetime histogram of result-cache lookup latency in seconds (one
    /// sample per lookup, hit or miss). Feeds the serve daemon's
    /// `metrics` exposition.
    pub fn cache_lookup_hist(&self) -> xsynth_trace::Histogram {
        self.cache.lookup_hist()
    }

    /// A snapshot of every *pooled* (currently idle) BDD substrate, in
    /// ascending arity order. Substrates checked out by in-flight jobs are
    /// not visible until they check back in; capped jobs use throwaway
    /// private substrates that never pool. Feeds the daemon's `metrics`
    /// exposition (`bdd.nodes`, apply-cache hit ratio, per-shard
    /// occupancy).
    pub fn substrate_stats(&self) -> Vec<SubstrateStats> {
        let pool = self.lock_pool();
        let mut stats: Vec<SubstrateStats> = pool
            .values()
            .map(|bm| {
                let (apply_hits, apply_misses) = bm.apply_cache_stats();
                SubstrateStats {
                    arity: bm.num_vars(),
                    nodes: bm.num_nodes(),
                    apply_hits,
                    apply_misses,
                    shard_occupancy: bm.shard_occupancy(),
                }
            })
            .collect();
        stats.sort_by_key(|s| s.arity);
        stats
    }

    /// Drops every cached entry (statistics are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Synthesizes `spec` with the paper's FPRM flow under `opts`,
    /// consulting and populating the engine's cache and substrate pool.
    /// The returned network is verified equivalent to `spec` (exactly via
    /// BDDs unless the budget's node cap trips); see
    /// [`crate::try_synthesize`] for the error contract.
    pub fn try_synthesize(
        &self,
        spec: &Network,
        opts: &SynthOptions,
    ) -> Result<SynthOutcome, Error> {
        crate::synth::try_synthesize_on(self, spec, opts)
    }

    fn lock_pool(&self) -> MutexGuard<'_, HashMap<usize, BddManager>> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Hands out a BDD manager for an `n`-variable job. Capped jobs get a
    /// fresh private substrate so the node cap stays a true per-job limit;
    /// uncapped jobs reuse the pooled substrate of the same arity (warm
    /// unique-table and apply caches) when one is available.
    pub(crate) fn checkout(&self, n: usize, budget: &Budget) -> BddManager {
        if let Some(cap) = budget.bdd_node_cap {
            return BddManager::with_node_limit(n, cap);
        }
        self.lock_pool()
            .remove(&n)
            .unwrap_or_else(|| BddManager::new(n))
    }

    /// Returns a manager to the pool. Capped managers are dropped (their
    /// cap was per-job). A substrate grown past the reclaim watermark is
    /// generationally reclaimed first; if reclamation is refused (a clone
    /// is still alive somewhere) the bloated substrate is dropped, a
    /// *fresh* substrate of the same arity is pooled in its place so the
    /// next job does not pay an unannounced cold start, and the
    /// `engine.reclaim_refused` counter records the refusal.
    pub(crate) fn checkin(&self, mut bm: BddManager) {
        if bm.node_limit().is_some() {
            return;
        }
        if bm.num_nodes() > self.reclaim_watermark && !bm.try_reclaim() {
            self.reclaim_refused.fetch_add(1, Ordering::Relaxed);
            let fresh = BddManager::new(bm.num_vars());
            self.lock_pool().insert(fresh.num_vars(), fresh);
            return;
        }
        self.lock_pool().insert(bm.num_vars(), bm);
    }

    /// Lifetime count of check-ins where generational reclamation was
    /// refused by a live substrate clone (`engine.reclaim_refused`). A
    /// steadily rising value means some component is pinning manager
    /// clones across jobs, forcing fresh substrates into the pool instead
    /// of reclaimed warm ones. Kept off the per-job trace on purpose: the
    /// refusal depends on drop timing, which would break the
    /// parallel ≡ sequential counter-equality contract.
    pub fn reclaim_refused(&self) -> u64 {
        self.reclaim_refused.load(Ordering::Relaxed)
    }

    /// Looks up the polarity + cube seed for one output cone. `mode_salt`
    /// partitions entries by polarity-search mode so a winner found under
    /// one mode never masquerades as another's. Returns `None` unless the
    /// polarity tier hits with a vector of the right width; the cube list
    /// rides along when present and consistent.
    pub(crate) fn lookup_seed(&self, cone: &Cone, n: usize, mode_salt: u64) -> Option<PlanSeed> {
        let key = cone.key.mix(mode_salt);
        let bits = match self.cache.get(Tier::Polarity, key) {
            Some(CacheEntry::Polarity(bits)) if bits.len() == cone.support.len() => bits,
            _ => return None,
        };
        if cone.support.iter().any(|&v| v >= n) {
            return None;
        }
        let mut pol = Polarity::all_positive(n);
        for (slot, &positive) in bits.iter().enumerate() {
            pol.set(cone.support[slot], positive);
        }
        let cubes = match self.cache.get(Tier::Cubes, key) {
            Some(CacheEntry::Cubes { count, cubes }) if !cubes.is_empty() => {
                let remapped: Option<Vec<VarSet>> = cubes
                    .iter()
                    .map(|cube| {
                        cube.iter()
                            .map(|&slot| cone.support.get(slot as usize).copied())
                            .collect::<Option<VarSet>>()
                    })
                    .collect();
                remapped.map(|list| (count, list))
            }
            _ => None,
        };
        Some(PlanSeed { pol, cubes })
    }

    /// Stores one planned output's results: the winning polarity (always)
    /// and the FPRM cube list (when it was enumerated), both remapped to
    /// the cone's canonical input order so structurally identical cones in
    /// other circuits can reuse them.
    pub(crate) fn store_plan(
        &self,
        cone: &Cone,
        mode_salt: u64,
        pol: &Polarity,
        count: u64,
        fprm_cubes: &[VarSet],
    ) {
        let key = cone.key.mix(mode_salt);
        let bits: Vec<bool> = cone.support.iter().map(|&v| pol.is_positive(v)).collect();
        self.cache
            .put(Tier::Polarity, key, CacheEntry::Polarity(bits));
        if fprm_cubes.is_empty() {
            return;
        }
        let slot_of: HashMap<usize, u32> = cone
            .support
            .iter()
            .enumerate()
            .map(|(slot, &v)| (v, slot as u32))
            .collect();
        let mut remapped: Vec<Vec<u32>> = Vec::with_capacity(fprm_cubes.len());
        for cube in fprm_cubes {
            let mut out = Vec::with_capacity(cube.len());
            for v in cube.iter() {
                match slot_of.get(&v) {
                    Some(&slot) => out.push(slot),
                    // a cube variable outside the structural support would
                    // mean the cone hash missed a dependency — don't store
                    None => return,
                }
            }
            remapped.push(out);
        }
        self.cache.put(
            Tier::Cubes,
            key,
            CacheEntry::Cubes {
                count,
                cubes: remapped,
            },
        );
    }

    /// [`factor_cubes_traced`] behind the factored-tier memo. Factoring is
    /// a pure function of `(cubes, apply_rules)`, so a hit returns exactly
    /// the expression a recomputation would — callers keep bit-identical
    /// results either way. `hits`/`misses` are the caller's per-job
    /// counters.
    pub(crate) fn factor_cubes_cached(
        &self,
        cubes: &[VarSet],
        apply_rules: bool,
        buf: &mut TraceBuffer,
        hits: &mut u64,
        misses: &mut u64,
    ) -> Gexpr {
        let raw: Vec<Vec<u32>> = cubes
            .iter()
            .map(|c| c.iter().map(|v| v as u32).collect())
            .collect();
        let key = cubes_key(&raw, u64::from(apply_rules));
        if let Some(CacheEntry::Factored(fx)) = self.cache.get(Tier::Factored, key) {
            *hits += 1;
            return from_cached_expr(&fx);
        }
        *misses += 1;
        let expr = factor_cubes_traced(cubes, apply_rules, buf);
        self.cache.put(
            Tier::Factored,
            key,
            CacheEntry::Factored(to_cached_expr(&expr)),
        );
        expr
    }
}

/// A cache-derived plan seed for one output: the winning polarity and,
/// when available, the FPRM cube list (already remapped into the current
/// circuit's variable numbering). A seeded plan skips the polarity descent
/// entirely.
#[derive(Debug, Clone)]
pub(crate) struct PlanSeed {
    pub(crate) pol: Polarity,
    pub(crate) cubes: Option<(u64, Vec<VarSet>)>,
}

fn to_cached_expr(e: &Gexpr) -> FactoredExpr {
    match e {
        Gexpr::Zero => FactoredExpr::Zero,
        Gexpr::One => FactoredExpr::One,
        Gexpr::Lit(v) => FactoredExpr::Lit(*v as u32),
        Gexpr::Not(x) => FactoredExpr::Not(Box::new(to_cached_expr(x))),
        Gexpr::And(xs) => FactoredExpr::And(xs.iter().map(to_cached_expr).collect()),
        Gexpr::Or(xs) => FactoredExpr::Or(xs.iter().map(to_cached_expr).collect()),
        Gexpr::Xor(xs) => FactoredExpr::Xor(xs.iter().map(to_cached_expr).collect()),
    }
}

fn from_cached_expr(e: &FactoredExpr) -> Gexpr {
    match e {
        FactoredExpr::Zero => Gexpr::Zero,
        FactoredExpr::One => Gexpr::One,
        FactoredExpr::Lit(v) => Gexpr::Lit(*v as usize),
        FactoredExpr::Not(x) => Gexpr::Not(Box::new(from_cached_expr(x))),
        FactoredExpr::And(xs) => Gexpr::And(xs.iter().map(from_cached_expr).collect()),
        FactoredExpr::Or(xs) => Gexpr::Or(xs.iter().map(from_cached_expr).collect()),
        FactoredExpr::Xor(xs) => Gexpr::Xor(xs.iter().map(from_cached_expr).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_net::GateKind;

    fn adder_bit(name: &str) -> Network {
        let mut net = Network::new(name);
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("cin");
        let s = net.add_gate(GateKind::Xor, vec![a, b, c]);
        let ab = net.add_gate(GateKind::And, vec![a, b]);
        let axb = net.add_gate(GateKind::Xor, vec![a, b]);
        let t = net.add_gate(GateKind::And, vec![axb, c]);
        let cout = net.add_gate(GateKind::Or, vec![ab, t]);
        net.add_output("s", s);
        net.add_output("cout", cout);
        net
    }

    #[test]
    fn warm_run_is_bit_identical_and_skips_the_descent() {
        let engine = Engine::new();
        let spec = adder_bit("fa");
        let cold = engine
            .try_synthesize(&spec, &SynthOptions::default())
            .unwrap();
        assert_eq!(cold.report.cache.polarity_hits, 0);
        assert!(cold.report.trace.counter("polarity.evaluated") > 0);
        let warm = engine
            .try_synthesize(&spec, &SynthOptions::default())
            .unwrap();
        assert_eq!(warm.report.cache.polarity_hits, 2, "both outputs seeded");
        assert_eq!(
            warm.report.trace.counter("polarity.evaluated"),
            0,
            "descent skipped on the warm run"
        );
        assert_eq!(
            xsynth_blif::write_blif(&warm.network),
            xsynth_blif::write_blif(&cold.network)
        );
        assert_eq!(warm.report.outputs, cold.report.outputs);
    }

    #[test]
    fn structurally_identical_circuit_hits_across_names() {
        let engine = Engine::new();
        let one = adder_bit("one");
        engine
            .try_synthesize(&one, &SynthOptions::default())
            .unwrap();
        // same structure, different circuit/IO declaration names
        let mut two = Network::new("two");
        let a = two.add_input("x");
        let b = two.add_input("y");
        let c = two.add_input("z");
        let s = two.add_gate(GateKind::Xor, vec![a, b, c]);
        let ab = two.add_gate(GateKind::And, vec![a, b]);
        let axb = two.add_gate(GateKind::Xor, vec![a, b]);
        let t = two.add_gate(GateKind::And, vec![axb, c]);
        let cout = two.add_gate(GateKind::Or, vec![ab, t]);
        two.add_output("sum", s);
        two.add_output("carry", cout);
        let warm = engine
            .try_synthesize(&two, &SynthOptions::default())
            .unwrap();
        assert_eq!(warm.report.cache.polarity_hits, 2);
        // the result is still verified against *this* spec
        for m in 0..8 {
            assert_eq!(warm.network.eval_u64(m), two.eval_u64(m));
        }
    }

    #[test]
    fn one_shot_wrappers_start_cold_every_time() {
        let spec = adder_bit("fa");
        let first = crate::try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let second = crate::try_synthesize(&spec, &SynthOptions::default()).unwrap();
        assert_eq!(second.report.cache.polarity_hits, 0);
        assert_eq!(
            xsynth_blif::write_blif(&first.network),
            xsynth_blif::write_blif(&second.network)
        );
    }

    #[test]
    fn capped_jobs_get_private_substrates() {
        let engine = Engine::new();
        let budget = Budget {
            bdd_node_cap: Some(64),
            ..Budget::default()
        };
        let bm = engine.checkout(4, &budget);
        assert_eq!(bm.node_limit(), Some(64));
        engine.checkin(bm);
        // capped managers are never pooled
        let again = engine.checkout(4, &Budget::default());
        assert_eq!(again.node_limit(), None);
        assert_eq!(again.num_nodes(), 1, "fresh substrate, not the capped one");
    }

    #[test]
    fn pooled_substrate_is_reused_and_reclaimed_past_watermark() {
        let engine = Engine::new().reclaim_watermark(8);
        let bm = engine.checkout(4, &Budget::default());
        let a = bm.var(0).unwrap();
        let b = bm.var(1).unwrap();
        bm.and(a, b).unwrap();
        let grown = bm.num_nodes();
        assert!(grown > 1 && grown <= 8);
        engine.checkin(bm);
        // under the watermark: the same warm substrate comes back
        let bm = engine.checkout(4, &Budget::default());
        assert_eq!(bm.num_nodes(), grown);
        assert_eq!(bm.generation(), 0);
        engine.checkin(bm);
        // grow past the watermark: checkin reclaims to a fresh generation
        let bm = engine.checkout(4, &Budget::default());
        let c = bm.var(2).unwrap();
        let d = bm.var(3).unwrap();
        let cd = bm.and(c, d).unwrap();
        bm.xor(cd, a).unwrap();
        bm.or(cd, a).unwrap();
        assert!(bm.num_nodes() > 8);
        engine.checkin(bm);
        let bm = engine.checkout(4, &Budget::default());
        assert_eq!(bm.num_nodes(), 1, "reclaimed past the watermark");
        assert_eq!(bm.generation(), 1);
        assert_eq!(engine.reclaim_refused(), 0, "nothing pinned the substrate");
    }

    #[test]
    fn refused_reclaim_pools_a_fresh_substrate_and_counts() {
        let engine = Engine::new().reclaim_watermark(4);
        let bm = engine.checkout(4, &Budget::default());
        let pin = bm.clone(); // a live clone makes try_reclaim refuse
        let a = bm.var(0).unwrap();
        let b = bm.var(1).unwrap();
        let ab = bm.and(a, b).unwrap();
        bm.xor(ab, a).unwrap();
        assert!(bm.num_nodes() > 4, "must be past the watermark");
        assert_eq!(engine.reclaim_refused(), 0);
        engine.checkin(bm);
        assert_eq!(engine.reclaim_refused(), 1, "the refusal is counted");
        // the old behavior dropped the substrate silently; now a fresh one
        // is pooled so the next checkout is not an unannounced cold start
        let next = engine.checkout(4, &Budget::default());
        assert_eq!(next.num_nodes(), 1, "fresh substrate pooled on refusal");
        assert_eq!(next.generation(), 0);
        drop(pin);
    }
}
