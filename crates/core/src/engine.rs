//! The long-lived synthesis engine.
//!
//! [`Engine`] is the primary entry point of the crate: a handle that owns
//! the one piece worth keeping warm across calls, the content-addressed
//! result cache ([`xsynth_cache::ResultCache`]). Everything else is scoped
//! to one job: each synthesis builds its own BDD manager and drops it at
//! the end, so no job sees another's nodes, apply cache or gauges. The
//! free function [`crate::try_synthesize`] is a thin one-shot wrapper over
//! a throwaway engine; a daemon constructs one engine and routes every job
//! through it, which is what lets duplicate and near-duplicate traffic
//! skip the polarity descent via cache hits.
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
//! Seeding happens in a pre-pass before any output is planned and stores
//! happen after the last one, in output-index order, so a job never reads
//! an entry it wrote itself.

use crate::error::Error;
use crate::expr::Gexpr;
use crate::factor::factor_cubes_traced;
use crate::synth::{SynthOptions, SynthOutcome};
use std::collections::HashMap;
use xsynth_boolean::{Polarity, VarSet};
use xsynth_cache::{cubes_key, CacheEntry, CacheStats, Cone, FactoredExpr, ResultCache, Tier};
use xsynth_net::Network;
use xsynth_trace::TraceBuffer;

/// A long-lived synthesis handle owning the content-addressed result
/// cache.
///
/// All methods take `&self`; the engine is `Sync`, so one instance can be
/// shared across the worker threads of a daemon. Each job gets its own BDD
/// manager and per-job trace/memory scoping; only the cache persists
/// between calls.
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
#[derive(Debug, Default)]
pub struct Engine {
    cache: ResultCache,
}

impl Engine {
    /// An engine with a default-budget cache.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Replaces the result cache with one bounded to `bytes` (builder
    /// style, for construction time).
    pub fn cache_budget(mut self, bytes: usize) -> Engine {
        self.cache = ResultCache::new(bytes);
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

    /// Drops every cached entry (statistics are kept).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Synthesizes `spec` with the paper's FPRM flow under `opts`,
    /// consulting and populating the engine's cache.
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
    fn every_job_starts_on_a_fresh_substrate() {
        let opts = SynthOptions::default();
        let z4ml = xsynth_circuits::build("z4ml").unwrap();
        let c5xp1 = xsynth_circuits::build("5xp1").unwrap();
        assert_eq!(z4ml.inputs().len(), c5xp1.inputs().len());
        let final_nodes = |o: &SynthOutcome| o.report.trace.gauge_finals()["bdd.nodes"];
        let alone = Engine::new().try_synthesize(&z4ml, &opts).unwrap();
        // a same-arity job before it must leave no nodes behind
        let engine = Engine::new();
        engine.try_synthesize(&c5xp1, &opts).unwrap();
        let after = engine.try_synthesize(&z4ml, &opts).unwrap();
        assert_eq!(final_nodes(&after), final_nodes(&alone));
        assert_eq!(
            xsynth_blif::write_blif(&after.network),
            xsynth_blif::write_blif(&alone.network)
        );
    }
}
