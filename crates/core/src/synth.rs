//! The end-to-end FPRM synthesis pipeline (Sections 2–4 of the paper).
//!
//! ```text
//! spec network ──BDD──► per-output ROBDD ──Davio──► OFDD + polarity vector
//!        │                                             │
//!        │                     cube method (1) ◄───────┤───► OFDD method (2)
//!        │                           │                          │
//!        │                           ▼                          ▼
//!        │                   Gexpr + rules (a)–(e)      AND/XOR network
//!        │                           └──────── merge + strash ──┘
//!        │                                             │
//!        └────────── equivalence reference ──► redundancy removal (OC/AZ/AO/SA1)
//!                                                      │
//!                                                   sweep ──► result
//! ```
//!
//! Every run is traced: the pipeline records hierarchical spans, counters
//! and gauges into a [`TraceSink`] (per-output planning gets its own
//! deterministic per-thread buffers under the parallel fan-out), the
//! resulting [`Trace`] rides back in the [`SynthReport`], and the
//! [`PhaseProfile`] is derived from it.

use crate::budget::{Budget, BudgetExceeded, Resource};
use crate::engine::{Engine, PlanSeed};
use crate::error::Error;
use crate::factor::{factor_cubes, factor_cubes_traced, literal_supplier, ofdd_to_network};
use crate::gfx;
use crate::patterns::{merge_patterns, paper_patterns, Pattern, MAX_CUBES};
use crate::redundancy::remove_redundancy;
use crate::verify::{network_bdds, new_manager, EquivChecker};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use xsynth_bdd::BddManager;
use xsynth_boolean::{Polarity, VarSet};
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_ofdd::{OfddManager, PolaritySearch};
use xsynth_sim::{exhaustive_patterns, pack_patterns, random_patterns, Simulator};
use xsynth_sop::SopNet;
use xsynth_trace::{Trace, TraceBuffer, TraceSink};

pub use xsynth_ofdd::PolarityMode;

/// The span names of the pipeline phases, shared by the tracer, the
/// profile, the exporters and the tests.
pub mod phase {
    /// The root span of one [`super::try_synthesize`] call.
    pub const SYNTHESIZE: &str = "synthesize";
    /// BDD construction, polarity search and OFDD/FPRM generation.
    pub const FPRM: &str = "fprm";
    /// Factorization and network emission (both methods), plus strash.
    pub const FACTORING: &str = "factoring";
    /// The multi-output sharing pass.
    pub const SHARING: &str = "sharing";
    /// The Section 4 redundancy-removal pass.
    pub const REDUNDANCY: &str = "redundancy";
    /// Equivalence checking against the specification.
    pub const VERIFY: &str = "verify";
}

/// Which factorization method to run (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorMethod {
    /// Method 1: factor the explicit FPRM cube list (falls back to the
    /// OFDD method when the cube count exceeds the cap).
    Cube,
    /// Method 2: translate the OFDD node-by-node.
    Ofdd,
    /// Per output, run both methods and keep the cheaper result — the
    /// paper reports the two methods as comparable with method 2 ahead on
    /// a few cases, so best-of matches its evaluation posture.
    Best,
    /// Extension (the paper's refs \[1\]/\[16\]): ordered Kronecker FDDs with
    /// a greedy per-variable choice of Shannon / positive-Davio /
    /// negative-Davio expansion, lowered node-by-node.
    Kfdd,
}

/// Cube-count cap: the cube method factors an output's explicit FPRM only
/// up to this many cubes (the OFDD method takes wider ones), and a circuit
/// switches to macro-block synthesis when some output's positive-polarity
/// FPRM has more cubes than this.
const CUBE_CAP: u64 = 512;

/// Maximum redundancy-removal sweeps.
const MAX_PASSES: usize = 6;

/// Options for [`try_synthesize`].
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`SynthOptions::default`] or the fluent [`SynthOptions::builder`], so
/// future option additions are not breaking changes.
///
/// # Examples
///
/// ```
/// use xsynth_core::{FactorMethod, SynthOptions};
///
/// let opts = SynthOptions::builder()
///     .method(FactorMethod::Cube)
///     .parallel(false)
///     .build();
/// assert_eq!(opts.method, FactorMethod::Cube);
/// assert!(!opts.parallel);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SynthOptions {
    /// Factorization method.
    pub method: FactorMethod,
    /// Polarity search mode.
    pub polarity: PolarityMode,
    /// Apply the Reduction rules (a)–(c) during cube-method factoring.
    pub apply_rules: bool,
    /// Run the Section 4 redundancy-removal pass.
    pub redundancy_removal: bool,
    /// Run the multi-output sharing pass (the paper's `resub` merge step).
    pub share: bool,
    /// Fan the per-output planning (and, for single-output circuits, the
    /// polarity-candidate evaluation) out across threads. The result is
    /// bit-identical to the sequential path; disable only to benchmark or
    /// to pin the flow to one core.
    pub parallel: bool,
    /// Resource budget governing the run (BDD node cap, per-phase
    /// wall-clock, simulation-pattern cap). Unlimited by default. Phases
    /// that can degrade gracefully do (polarity search keeps its best so
    /// far, redundancy removal stops sweeping, verification falls back to
    /// fixed-seed simulation); the run only fails — as
    /// [`Error::Budget`] from [`try_synthesize`] — when a phase cannot
    /// produce any result under the cap.
    pub budget: Budget,
    /// When an output's planning fails (a contained panic or a typed
    /// error), retry it down the salvage ladder — skip factorization, then
    /// a direct all-positive FPRM translation — before failing just that
    /// output as [`Error::OutputFailed`]. Salvaged outputs are recorded in
    /// [`SynthReport::salvaged`] and the result is still verified against
    /// the specification. Disable to make the first fault fatal.
    pub salvage: bool,
    /// Optional external sink the run's trace is also appended to, for
    /// aggregating several calls (a benchmark sweep, a CLI batch) into
    /// one exportable timeline. The per-call trace is always available in
    /// [`SynthReport::trace`] regardless.
    pub trace: Option<TraceSink>,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            method: FactorMethod::Best,
            polarity: PolarityMode::Exhaustive,
            apply_rules: true,
            redundancy_removal: true,
            share: true,
            parallel: true,
            budget: Budget::default(),
            salvage: true,
            trace: None,
        }
    }
}

impl SynthOptions {
    /// Starts a fluent builder from the default options.
    pub fn builder() -> SynthOptionsBuilder {
        SynthOptionsBuilder {
            opts: SynthOptions::default(),
        }
    }
}

/// Fluent builder for [`SynthOptions`] (see [`SynthOptions::builder`]).
#[derive(Debug, Clone)]
pub struct SynthOptionsBuilder {
    opts: SynthOptions,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, value: $ty) -> Self {
                self.opts.$name = value;
                self
            }
        )*
    };
}

impl SynthOptionsBuilder {
    builder_setters! {
        /// Sets the factorization method.
        method: FactorMethod,
        /// Sets the polarity search mode.
        polarity: PolarityMode,
        /// Enables or disables the Reduction rules (a)–(c).
        apply_rules: bool,
        /// Enables or disables the Section 4 redundancy-removal pass.
        redundancy_removal: bool,
        /// Enables or disables the multi-output sharing pass.
        share: bool,
        /// Enables or disables the thread fan-out.
        parallel: bool,
        /// Sets the resource budget.
        budget: Budget,
        /// Enables or disables the per-output salvage ladder.
        salvage: bool,
    }

    /// Aggregates this run's trace into an external [`TraceSink`].
    #[must_use]
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.opts.trace = Some(sink);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SynthOptions {
        self.opts
    }
}

/// Time and span count of one pipeline phase, derived from the trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase span name (one of the [`phase`] constants).
    pub name: String,
    /// Total wall-clock time across this phase's top-level spans.
    pub duration: Duration,
    /// How many top-level spans carried this name.
    pub spans: usize,
}

/// Per-phase wall-clock breakdown of one [`try_synthesize`] call, derived from
/// the recorded [`Trace`] (the direct children of the root
/// [`phase::SYNTHESIZE`] span, grouped by name in first-seen order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The phases, in first-seen pipeline order.
    pub phases: Vec<PhaseStat>,
    /// End-to-end wall clock of the root span (including slack the
    /// phases don't claim).
    pub total: Duration,
}

impl PhaseProfile {
    /// Derives the profile from a pipeline trace.
    pub fn from_trace(trace: &Trace) -> PhaseProfile {
        let forest = trace.forest();
        let Some(root) = forest.iter().find(|n| n.name == phase::SYNTHESIZE) else {
            return PhaseProfile::default();
        };
        let mut profile = PhaseProfile {
            phases: Vec::new(),
            total: root.duration,
        };
        for child in &root.children {
            match profile.phases.iter_mut().find(|p| p.name == child.name) {
                Some(p) => {
                    p.duration += child.duration;
                    p.spans += 1;
                }
                None => profile.phases.push(PhaseStat {
                    name: child.name.clone(),
                    duration: child.duration,
                    spans: 1,
                }),
            }
        }
        profile
    }

    /// Total duration of the named phase (zero when absent).
    pub fn duration(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .map(|p| p.duration)
            .sum()
    }
}

/// A rung of the per-output salvage ladder, in descending order of
/// ambition. Rung 0 — the full pipeline — is not listed: reaching it means
/// nothing was salvaged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SalvageRung {
    /// The full plan failed; the output was replanned with the OFDD
    /// method (its searched polarity kept, factorization skipped).
    SkipFactor,
    /// Skipping factorization also failed; the output fell back to a
    /// direct all-positive FPRM translation.
    DirectFprm,
    /// Emitting the shared GF(2) divisors failed; every cube-method
    /// output was rolled back to its unshared pre-extraction cover.
    SkipSharing,
}

impl SalvageRung {
    /// Human-readable rung name for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            SalvageRung::SkipFactor => "skip-factor",
            SalvageRung::DirectFprm => "direct-fprm",
            SalvageRung::SkipSharing => "skip-sharing",
        }
    }
}

/// One output the pipeline recovered on a lower salvage rung instead of
/// failing the whole run. The final network — salvaged outputs included —
/// is still verified against the specification.
#[derive(Debug, Clone)]
pub struct SalvageRecord {
    /// The primary output that was salvaged.
    pub output: String,
    /// The rung that produced the kept implementation.
    pub rung: SalvageRung,
    /// What the original attempt died of (panic message or typed error).
    pub cause: String,
}

/// Per-job content-cache interaction summary. Deterministic given the
/// engine's cache state when the job started (lookups happen in a
/// sequential pre-pass, stores post-merge), so the same job replayed
/// against the same cache reports the same numbers; one-shot calls
/// through a throwaway [`Engine`] always report zero hits on the
/// polarity/cube tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUse {
    /// Outputs whose winning polarity was seeded from the cache (each
    /// skips its polarity descent entirely).
    pub polarity_hits: u64,
    /// Outputs whose FPRM cube list was seeded from the cache.
    pub cubes_hits: u64,
    /// Factoring calls answered from the factored-expression memo.
    pub factored_hits: u64,
    /// Cache lookups that found nothing.
    pub lookup_misses: u64,
}

impl CacheUse {
    /// Total hits across the three tiers.
    pub fn hits(&self) -> u64 {
        self.polarity_hits + self.cubes_hits + self.factored_hits
    }

    /// Total lookups that missed.
    pub fn misses(&self) -> u64 {
        self.lookup_misses
    }
}

/// What the pipeline did, per output and overall. Everything the run
/// counted — polarity candidates (`polarity.*`), shared divisors
/// (`share.divisors`) and the extraction work behind them (`gfx.rounds`,
/// `gfx.candidates`), macro blocks (`blocks.synthesized`), cube-cap
/// fallbacks (`fprm.cube_cap_fallbacks`), Section 4 rewrites
/// (`redundancy.*`) — lives in [`SynthReport::trace`] and is read by name
/// with [`Trace::counter`].
#[derive(Debug, Clone, Default)]
pub struct SynthReport {
    /// `(output name, FPRM cube count, polarity)` per output.
    pub outputs: Vec<(String, u64, Polarity)>,
    /// Phases a resource budget cut short. Each entry names a phase (a
    /// [`phase`] constant) whose best-so-far partial result was kept —
    /// the network is still verified, just less optimized. [`phase::VERIFY`]
    /// here means equivalence checking downgraded from exact BDD
    /// comparison to fixed-seed simulation because the node cap tripped.
    pub curtailed: Vec<String>,
    /// Outputs recovered by the salvage ladder (or an emission rollback)
    /// instead of failing the run. Empty on a clean pass.
    pub salvaged: Vec<SalvageRecord>,
    /// Content-cache hits/misses for this job (see [`CacheUse`]).
    pub cache: CacheUse,
    /// Per-phase wall-clock breakdown, derived from `trace`.
    pub profile: PhaseProfile,
    /// The full structured trace of the run (spans, counters, gauges).
    pub trace: Trace,
}

/// The result of one [`try_synthesize`] call: the optimized network and the
/// report describing how it was produced.
#[derive(Debug, Clone)]
pub struct SynthOutcome {
    /// The synthesized (and verified) network.
    pub network: Network,
    /// What the pipeline did, including the structured trace.
    pub report: SynthReport,
}

/// Synthesizes `spec` with the paper's FPRM flow and returns the optimized
/// network plus a report. The result is verified equivalent to `spec`
/// (exactly via BDDs; by fixed-seed simulation only when the budget's
/// node cap trips, which [`SynthReport::curtailed`] then lists).
///
/// A tripped [`Budget`] surfaces as [`Error::Budget`] (when no degraded
/// result was possible) and a failed verification as [`Error::Verify`].
/// Phases that degraded gracefully under the budget are listed in
/// [`SynthReport::curtailed`]; the returned network is always verified
/// against the specification.
///
/// This is a one-shot convenience over a throwaway [`Engine`]: the
/// content cache starts empty and is dropped with the call, so repeated
/// invocations behave identically. Long-lived callers should hold an
/// [`Engine`] and use [`Engine::try_synthesize`], which keeps the cache
/// warm across jobs.
///
/// # Examples
///
/// ```
/// use xsynth_core::{try_synthesize, SynthOptions};
/// use xsynth_net::{GateKind, Network};
///
/// // full adder sum: a ⊕ b ⊕ cin
/// let mut spec = Network::new("sum");
/// let a = spec.add_input("a");
/// let b = spec.add_input("b");
/// let c = spec.add_input("cin");
/// let s = spec.add_gate(GateKind::Xor, vec![a, b, c]);
/// spec.add_output("s", s);
/// let outcome = try_synthesize(&spec, &SynthOptions::default())?;
/// assert_eq!(outcome.report.outputs[0].1, 3, "3 FPRM cubes");
/// for m in 0..8 {
///     assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
/// }
/// # Ok::<(), xsynth_core::Error>(())
/// ```
pub fn try_synthesize(spec: &Network, opts: &SynthOptions) -> Result<SynthOutcome, Error> {
    Engine::new().try_synthesize(spec, opts)
}

/// The traced, fault-contained synthesis body behind
/// [`Engine::try_synthesize`].
pub(crate) fn try_synthesize_on(
    engine: &Engine,
    spec: &Network,
    opts: &SynthOptions,
) -> Result<SynthOutcome, Error> {
    let sink = TraceSink::new();
    // remember where this call starts on the external sink's timeline, so
    // aggregated runs line up end-to-end in the exported view
    let external_offset = opts.trace.as_ref().map(TraceSink::elapsed);
    let mut report = SynthReport::default();
    // Fault containment: a panic anywhere in the pipeline (an invariant
    // violation, or an armed failpoint) becomes a typed error instead of
    // unwinding into the caller. Buffers dropped during the unwind still
    // submit, so the partial trace survives for diagnosis.
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_pipeline(engine, spec, opts, &sink, &mut report)
    }))
    .unwrap_or_else(|p| {
        Err(Error::OutputFailed {
            output: "pipeline".to_string(),
            cause: panic_message(p.as_ref()),
        })
    });
    let trace = sink.take();
    report.profile = PhaseProfile::from_trace(&trace);
    if let (Some(external), Some(offset)) = (&opts.trace, external_offset) {
        external.append(trace.clone(), spec.name(), offset);
    }
    report.trace = trace;
    Ok(SynthOutcome {
        network: result?,
        report,
    })
}

/// Records `phase` as budget-curtailed (once).
fn curtail(report: &mut SynthReport, name: &str) {
    if !report.curtailed.iter().any(|p| p == name) {
        report.curtailed.push(name.to_string());
    }
}

/// The traced pipeline body of [`try_synthesize`]. An error returns with
/// `?` from wherever it arises: dropping `main` closes the spans still
/// open, so the trace keeps its nesting on every path.
fn run_pipeline(
    engine: &Engine,
    spec: &Network,
    opts: &SynthOptions,
    sink: &TraceSink,
    report: &mut SynthReport,
) -> Result<Network, Error> {
    let mut main = sink.buffer(0, "pipeline");
    main.begin(phase::SYNTHESIZE);
    let spec = spec.sweep();
    let n = spec.inputs().len();

    main.begin(phase::FPRM);
    let fprm_deadline = opts.budget.phase_deadline();
    main.begin("bdd");
    let bm = new_manager(n, opts.budget.bdd_node_cap);
    // Compact build: gate-level intermediates live and die in a scratch
    // manager, so the job's manager only ever holds the live output cones.
    let out_bdds = network_bdds(&spec, &bm);
    main.end();
    main.gauge("bdd.nodes", bm.num_nodes() as f64);
    main.gauge("bdd.peak_nodes", bm.num_nodes() as f64);
    let out_bdds = out_bdds?;

    // granularity decision: block mode when some output's FPRM would be
    // unreasonably wide (cube counts are cheap to read off the OFDD); a
    // node-cap trip while probing counts as "too wide" and degrades to
    // block mode rather than failing
    let use_blocks = out_bdds.iter().any(|&f| {
        let mut om = OfddManager::new(Polarity::all_positive(n));
        match om.from_bdd(&bm, f) {
            Ok(root) => om.num_cubes(root) > CUBE_CAP,
            Err(_) => {
                curtail(report, phase::FPRM);
                true
            }
        }
    });
    main.gauge("bdd.peak_nodes", bm.num_nodes() as f64);
    main.end();

    let mut pattern_lists: Vec<Vec<Pattern>> = Vec::new();
    let net = if use_blocks {
        pattern_lists.push(paper_patterns(n, &Polarity::all_positive(n), &[]));
        main.begin(phase::FACTORING);
        let net = synthesize_blocks(&spec, opts, &mut main);
        main.end();
        net
    } else {
        synthesize_outputs(
            engine,
            &spec,
            opts,
            &bm,
            &out_bdds,
            report,
            &mut pattern_lists,
            fprm_deadline,
            sink,
            &mut main,
        )?
    };

    // cross-output sharing (the role `resub` plays in the paper)
    main.begin(phase::FACTORING);
    let mut result = net.strash().sweep();
    main.gauge("net.gates", result.num_gates() as f64);
    main.end();
    main.begin(phase::VERIFY);
    let mut checker = EquivChecker::with_budget(&spec, &opts.budget);
    if !checker.try_check_traced(&result, &mut main)? {
        return Err(Error::Verify(
            "factored network is not equivalent to the spec".into(),
        ));
    }
    main.end();
    if opts.share {
        main.begin(phase::SHARING);
        let shared = share_pass(&result);
        if matches!(checker.try_check_traced(&shared, &mut main), Ok(true)) {
            result = shared;
        }
        main.gauge("net.gates", result.num_gates() as f64);
        main.end();
    }

    if opts.redundancy_removal {
        // a small random booster keeps testability decisions honest on
        // outputs whose cube sets were too large to enumerate
        main.begin(phase::REDUNDANCY);
        let deadline = opts.budget.phase_deadline();
        pattern_lists.push(random_patterns(n, opts.budget.cap_patterns(64), 0x0c));
        let mut patterns = merge_patterns(pattern_lists);
        patterns.truncate(opts.budget.cap_patterns(patterns.len()));
        main.gauge("redundancy.patterns", patterns.len() as f64);
        let blocks = pack_patterns(n, &patterns);
        let (reduced, curtailed) = remove_redundancy(
            &result,
            &blocks,
            &mut checker,
            MAX_PASSES,
            deadline,
            &mut main,
        )?;
        if curtailed {
            curtail(report, phase::REDUNDANCY);
        }
        result = reduced;
        main.gauge("net.gates", result.num_gates() as f64);
        main.end();
    }
    if checker.downgraded() {
        curtail(report, phase::VERIFY);
    }

    // Apply-cache effectiveness over the job's manager. The
    // hit/miss split is schedule-dependent under parallel planning (which
    // thread warms an entry decides who hits it), so these are gauges —
    // the determinism contract only covers counters.
    let (apply_hits, apply_misses) = bm.apply_cache_stats();
    main.gauge("bdd.apply_hits", apply_hits as f64);
    main.gauge("bdd.apply_misses", apply_misses as f64);
    main.gauge("bdd.nodes", bm.num_nodes() as f64);
    main.gauge("bdd.peak_nodes", bm.num_nodes() as f64);

    // Content-cache effectiveness. The per-job hit/miss split depends on
    // what earlier jobs populated — engine state, not this job's inputs —
    // so like the apply-cache stats these are gauges, never counters.
    let cache = engine.cache_stats();
    main.gauge("cache.hits", report.cache.hits() as f64);
    main.gauge("cache.misses", report.cache.misses() as f64);
    main.gauge("cache.evictions", cache.evictions as f64);
    main.gauge("cache.bytes", cache.bytes as f64);
    main.gauge("cache.entries", cache.entries as f64);

    let result = result.sweep();
    main.gauge("net.gates", result.num_gates() as f64);
    main.end();
    Ok(result)
}

/// Stable per-mode code used to salt cone cache keys, so a polarity found
/// under one search mode is never served to a job running another.
fn polarity_mode_salt(mode: PolarityMode) -> u64 {
    match mode {
        PolarityMode::AllPositive => 1,
        PolarityMode::Greedy => 2,
        PolarityMode::Exhaustive => 3,
    }
}

/// One output's Phase 1 result: polarity, OFDD, method decision, patterns.
struct OutputPlan {
    name: String,
    pol: Polarity,
    om: OfddManager,
    root: xsynth_ofdd::Ofdd,
    bdd: xsynth_bdd::Bdd,
    /// literal-space cubes (id = 2v for positive, 2v+1 for negative)
    lit_cubes: Option<Vec<VarSet>>,
    /// variable-space FPRM cubes (empty when not enumerated), kept so the
    /// post-merge pass can populate the content cache
    fprm_cubes: Vec<VarSet>,
    cube_count: u64,
    patterns: Vec<Pattern>,
    /// whether the polarity search stopped early under the budget
    search_tripped: bool,
}

/// Phase 1 for one output: polarity search, OFDD construction, method
/// decision, and pattern generation. Pure in `(bm contents, f, opts)` —
/// callers may run it on the shared manager from a worker thread and the
/// result is identical to a sequential run. Trace events land in `buf`,
/// the output's own deterministic-order buffer.
///
/// Under a budget: the polarity search keeps its best polarity so far
/// when the node cap or `deadline` trips, and only the final OFDD build
/// being unaffordable is a hard [`Error::Budget`].
#[allow(clippy::too_many_arguments)]
fn plan_output(
    name: &str,
    f: xsynth_bdd::Bdd,
    bm: &BddManager,
    n: usize,
    num_outputs: usize,
    opts: &SynthOptions,
    candidate_parallel: bool,
    deadline: Option<Instant>,
    seed: Option<&PlanSeed>,
    buf: &mut TraceBuffer,
) -> Result<OutputPlan, Error> {
    xsynth_trace::fail_point!(
        "core.plan",
        Err(Error::OutputFailed {
            output: name.to_string(),
            cause: "injected fault: core.plan tripped".to_string(),
        })
    );
    buf.begin("plan");
    let support: Vec<usize> = bm.support(f).iter().collect();
    let (pol, search_tripped) = match seed {
        // A cache seed replaces the whole polarity descent: the seeded
        // vector is the winner a search under these options found before
        // (every mode starts from all-positive and flips support vars
        // only, which is exactly how the seed is reconstructed), so no
        // `polarity.*` counter is recorded.
        Some(s) => {
            buf.count("cache.seeded", 1);
            (s.pol.clone(), false)
        }
        None => {
            let mut search = PolaritySearch::new(bm, f)
                .parallel(candidate_parallel)
                .deadline(deadline)
                .trace(buf);
            let (pol, _) = search.run(opts.polarity, &support);
            (pol, search.budget_tripped())
        }
    };
    buf.begin("ofdd");
    let mut om = OfddManager::new(pol.clone());
    let root = om
        .from_bdd(bm, f)
        .map_err(|e| BudgetExceeded::new(phase::FPRM, Resource::BddNodes, e.limit as u64))?;
    let count = om.num_cubes(root);
    buf.end();
    buf.gauge("ofdd.nodes", om.num_nodes() as f64);
    buf.gauge("fprm.cubes", count as f64);
    buf.gauge("bdd.peak_nodes", bm.num_nodes() as f64);
    // per-output distribution samples: both are pure functions of the
    // spec (cube count under the winning polarity, structural support
    // width), so the merged bucket totals stay schedule-independent and
    // the parallel ≡ sequential suite checks them like counters
    buf.observe("fprm.cubes", count as f64);
    buf.observe("plan.support", support.len() as f64);

    let cubes: Vec<VarSet> = if count <= MAX_CUBES as u64 {
        // a seeded cube list is exactly what enumeration would produce
        // (same cone, same polarity, OFDD enumeration order is canonical);
        // the count guard is a defensive consistency check
        match seed.and_then(|s| s.cubes.as_ref()) {
            Some((c, list)) if *c == count => list.clone(),
            _ => om.cubes(root),
        }
    } else {
        Vec::new()
    };
    buf.begin("patterns");
    let mut patterns = paper_patterns(n, &pol, &cubes);
    patterns.truncate(opts.budget.cap_patterns(patterns.len()));
    buf.end();
    buf.count("patterns.generated", patterns.len() as u64);

    let cube_feasible = count <= CUBE_CAP;
    let use_cubes = match opts.method {
        FactorMethod::Cube => cube_feasible,
        FactorMethod::Ofdd | FactorMethod::Kfdd => false,
        FactorMethod::Best => {
            cube_feasible
                && (
                    // multi-output circuits keep cube-feasible outputs
                    // on the cube path so the cross-output divisor
                    // extraction can merge them; single-output
                    // functions pick the cheaper method directly
                    (opts.share && num_outputs > 1) || {
                        buf.span("method_select", |buf| {
                            let cube_list = if cubes.is_empty() {
                                om.cubes(root)
                            } else {
                                cubes.clone()
                            };
                            let expr = factor_cubes(&cube_list, opts.apply_rules);
                            let cube_cost = scratch_cost(n, &pol, |net, lits| expr.emit(net, lits));
                            let ofdd_cost = scratch_cost(n, &pol, |net, lits| {
                                ofdd_to_network(&om, root, net, lits)
                            });
                            buf.gauge("method.cube_cost", cube_cost as f64);
                            buf.gauge("method.ofdd_cost", ofdd_cost as f64);
                            cube_cost <= ofdd_cost
                        })
                    }
                )
        }
    };
    let lit_cubes = use_cubes.then(|| {
        let list = if cubes.is_empty() {
            om.cubes(root)
        } else {
            cubes.clone()
        };
        list.iter()
            .map(|c| {
                c.iter()
                    .map(|v| 2 * v + usize::from(!pol.is_positive(v)))
                    .collect::<VarSet>()
            })
            .collect::<Vec<VarSet>>()
    });
    if opts.method == FactorMethod::Cube && !cube_feasible {
        buf.count("fprm.cube_cap_fallbacks", 1);
    }
    buf.end();
    Ok(OutputPlan {
        name: name.to_string(),
        pol,
        om,
        root,
        bdd: f,
        lit_cubes,
        fprm_cubes: cubes,
        cube_count: count,
        patterns,
        search_tripped,
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

/// Why a contained attempt failed: the cause text for the
/// [`SalvageRecord`], and the typed error (`None` for a panic).
type Failure = (String, Option<Error>);

/// Splits the result of a [`TraceBuffer::contain`]ed attempt into its value
/// or its [`Failure`].
fn classify<T>(attempt: std::thread::Result<Result<T, Error>>) -> Result<T, Failure> {
    match attempt {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) => Err((e.to_string(), Some(e))),
        Err(p) => Err((panic_message(p.as_ref()), None)),
    }
}

/// The error a [`Failure`] of `output` propagates as: its typed error,
/// or [`Error::OutputFailed`] for a panic.
fn fatal(output: &str, (cause, typed): Failure) -> Error {
    typed.unwrap_or_else(|| Error::OutputFailed {
        output: output.to_string(),
        cause,
    })
}

/// Accounts for a contained fault in the structure built for `output`:
/// fatal with [`SynthOptions::salvage`] off, otherwise counted as a
/// `salvage.attempts` and recorded as salvaged on `rung`. The caller rolls
/// the structure back.
fn salvage(
    opts: &SynthOptions,
    report: &mut SynthReport,
    buf: &mut TraceBuffer,
    output: &str,
    rung: SalvageRung,
    failure: Failure,
) -> Result<(), Error> {
    if !opts.salvage {
        return Err(fatal(output, failure));
    }
    buf.count("salvage.attempts", 1);
    report.salvaged.push(SalvageRecord {
        output: output.to_string(),
        rung,
        cause: failure.0,
    });
    Ok(())
}

/// [`plan_output`] behind the per-output salvage ladder. A panic in the
/// attempt is contained with `catch_unwind` and — like a typed error —
/// retried down the rungs when [`SynthOptions::salvage`] is on:
///
/// 1. the full plan (`opts` as given),
/// 2. [`SalvageRung::SkipFactor`]: the OFDD method, factorization skipped,
/// 3. [`SalvageRung::DirectFprm`]: all-positive polarity, OFDD method —
///    the least ambitious translation the paper admits.
///
/// Each retry counts `salvage.attempts` in its own fresh trace buffer;
/// failed attempts' buffers are discarded so the merged trace only shows
/// the kept attempt. When every rung fails, the *first* attempt's typed
/// error propagates (preserving the [`Error::Budget`] taxonomy), or
/// [`Error::OutputFailed`] if the first failure was a panic.
#[allow(clippy::too_many_arguments)]
fn plan_with_salvage(
    name: &str,
    f: xsynth_bdd::Bdd,
    bm: &BddManager,
    n: usize,
    num_outputs: usize,
    opts: &SynthOptions,
    candidate_parallel: bool,
    deadline: Option<Instant>,
    seed: Option<&PlanSeed>,
    mut make_buf: impl FnMut() -> TraceBuffer,
) -> Result<(OutputPlan, Option<SalvageRecord>), Error> {
    let mut first: Option<Failure> = None;
    for rung in [
        None,
        Some(SalvageRung::SkipFactor),
        Some(SalvageRung::DirectFprm),
    ] {
        let mut buf = make_buf();
        let mut ropts = opts.clone();
        // salvage rungs never reuse the seed: if the seeded attempt died,
        // the cached entry is a suspect and the rung re-derives from scratch
        let mut seed = seed;
        if let Some(rung) = rung {
            ropts.method = FactorMethod::Ofdd;
            if rung == SalvageRung::DirectFprm {
                ropts.polarity = PolarityMode::AllPositive;
            }
            seed = None;
            buf.count("salvage.attempts", 1);
        }
        let attempt = buf.contain(|buf| {
            plan_output(
                name,
                f,
                bm,
                n,
                num_outputs,
                &ropts,
                candidate_parallel,
                deadline,
                seed,
                buf,
            )
        });
        match classify(attempt) {
            Ok(plan) => {
                let record = rung.zip(first).map(|(rung, (cause, _))| SalvageRecord {
                    output: name.to_string(),
                    rung,
                    cause,
                });
                return Ok((plan, record));
            }
            Err(failure) => {
                buf.discard();
                first.get_or_insert(failure);
            }
        }
        if !opts.salvage {
            break;
        }
    }
    Err(fatal(name, first.expect("a failed attempt")))
}

/// Word-packed simulation check that the cone rooted at `sig` in `net`
/// computes `f`. Exhaustive up to 11 inputs, otherwise 128 fixed-seed
/// random patterns; past 64 inputs the packed minterm encoding runs out,
/// so the cone is trusted and the full verification pass is the backstop.
fn emitted_cone_matches(net: &Network, sig: SignalId, bm: &BddManager, f: xsynth_bdd::Bdd) -> bool {
    let n = net.inputs().len();
    if n > 64 {
        return true;
    }
    let patterns = if n <= 11 {
        exhaustive_patterns(n)
    } else {
        random_patterns(n, 128, 0x5eed_fa11)
    };
    let sim = Simulator::for_cone(net, sig);
    for (block, chunk) in pack_patterns(n, &patterns).iter().zip(patterns.chunks(64)) {
        let vals = sim.simulate_block(&block.words);
        let got = vals[sig.index()];
        let mut want = 0u64;
        for (lane, pattern) in chunk.iter().enumerate() {
            let minterm = pattern
                .iter()
                .enumerate()
                .fold(0u64, |m, (v, &bit)| m | (u64::from(bit) << v));
            if bm.eval(f, minterm) {
                want |= 1 << lane;
            }
        }
        if (got ^ want) & block.lane_mask() != 0 {
            return false;
        }
    }
    true
}

/// Literal signals of the network under construction: id `2v` is input
/// `v`, `2v + 1` its complement (one shared inverter per variable), and
/// ids from `2n` up are the shared divisors emitted so far.
struct Literals {
    inputs: Vec<SignalId>,
    nots: HashMap<usize, SignalId>,
    divisors: HashMap<usize, SignalId>,
}

impl Literals {
    fn signal(&mut self, net: &mut Network, id: usize) -> SignalId {
        let v = id / 2;
        if v >= self.inputs.len() {
            return self.divisors[&id];
        }
        let input = self.inputs[v];
        if id.is_multiple_of(2) {
            input
        } else {
            *self
                .nots
                .entry(v)
                .or_insert_with(|| net.add_gate(GateKind::Not, vec![input]))
        }
    }
}

/// Dependency order of the extracted divisors: each divisor after every
/// divisor its cubes reference.
fn divisor_order(divisors: &[(usize, Vec<VarSet>)], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::new();
    let mut emitted: Vec<bool> = vec![false; divisors.len()];
    let index_of: HashMap<usize, usize> = divisors
        .iter()
        .enumerate()
        .map(|(k, (y, _))| (*y, k))
        .collect();
    while order.len() < divisors.len() {
        let before = order.len();
        for (k, (_, cubes)) in divisors.iter().enumerate() {
            if emitted[k] {
                continue;
            }
            let ready = cubes.iter().all(|c| {
                c.iter()
                    .all(|l| l < 2 * n || index_of.get(&l).is_none_or(|&dk| emitted[dk]))
            });
            if ready {
                emitted[k] = true;
                order.push(k);
            }
        }
        assert!(order.len() > before, "cyclic divisor dependency");
    }
    order
}

/// The per-output (collapsed) synthesis path. An error returns with the
/// phase span still open; the caller's buffer closes it.
#[allow(clippy::too_many_arguments)]
fn synthesize_outputs(
    engine: &Engine,
    spec: &Network,
    opts: &SynthOptions,
    bm: &BddManager,
    out_bdds: &[xsynth_bdd::Bdd],
    report: &mut SynthReport,
    pattern_lists: &mut Vec<Vec<Pattern>>,
    deadline: Option<Instant>,
    sink: &TraceSink,
    main: &mut TraceBuffer,
) -> Result<Network, Error> {
    let n = spec.inputs().len();
    let mut net = Network::new(spec.name().to_string());
    let mut lits = Literals {
        inputs: spec
            .inputs()
            .iter()
            .map(|&i| net.add_input(spec.node_name(i).unwrap_or("in").to_string()))
            .collect(),
        nots: HashMap::new(),
        divisors: HashMap::new(),
    };

    // Phase 1: per-output polarity + FPRM cubes; decide the method. With
    // multiple outputs the planning fans out across worker threads, all
    // borrowing the job's one BDD manager as `&BddManager`, so every
    // worker hash-conses into the same DAG (and the node budget is one
    // global cap, not a per-worker one); with a single output the
    // parallelism moves inside the polarity search instead, so the
    // machine is never oversubscribed. Plans are merged back by output
    // index — and each output records into its own trace buffer keyed by
    // that index — which makes both the result and the trace independent
    // of thread scheduling.
    main.begin(phase::FPRM);
    let outs = spec.outputs();
    let num_outputs = outs.len();
    let parallel_outputs = opts.parallel && num_outputs > 1;
    let candidate_parallel = opts.parallel && !parallel_outputs;
    // Cache pre-pass (sequential, before the fan-out): hash each output
    // cone and pull whatever seeds the engine's cache holds for it. The
    // seed set is fixed here, and stores happen post-merge in output-index
    // order, so worker threads never touch the cache and the
    // parallel ≡ sequential determinism contract is preserved.
    let mode_salt = polarity_mode_salt(opts.polarity);
    let cones: Vec<xsynth_cache::Cone> = outs
        .iter()
        .map(|(_, sig)| xsynth_cache::cone_of(spec, *sig))
        .collect();
    // A disabled cache (zero byte budget) bypasses the lookup entirely:
    // no seeds, and no per-job miss accounting for lookups never made.
    let seeds: Vec<Option<PlanSeed>> = cones
        .iter()
        .map(|cone| {
            if !engine.cache_enabled() {
                return None;
            }
            let seed = engine.lookup_seed(cone, n, mode_salt);
            match &seed {
                Some(s) => {
                    report.cache.polarity_hits += 1;
                    if s.cubes.is_some() {
                        report.cache.cubes_hits += 1;
                    } else {
                        report.cache.lookup_misses += 1;
                    }
                }
                None => report.cache.lookup_misses += 2, // polarity + cubes tiers
            }
            seed
        })
        .collect();
    type Planned = (OutputPlan, Option<SalvageRecord>);
    // Each worker claims output indices until none are left; one worker
    // runs the loop inline.
    let next = AtomicUsize::new(0);
    let claim = || -> Vec<(usize, Result<Planned, Error>)> {
        std::iter::from_fn(|| Some(next.fetch_add(1, Ordering::Relaxed)))
            .take_while(|&i| i < num_outputs)
            .map(|i| {
                let name = &outs[i].0;
                let plan = plan_with_salvage(
                    name,
                    out_bdds[i],
                    bm,
                    n,
                    num_outputs,
                    opts,
                    candidate_parallel,
                    deadline,
                    seeds[i].as_ref(),
                    || sink.buffer_under(1 + i as u64, format!("plan:{name}"), phase::FPRM),
                );
                (i, plan)
            })
            .collect()
    };
    let workers = if parallel_outputs {
        xsynth_bdd::worker_threads(num_outputs)
    } else {
        1
    };
    // Workers are panic-isolated twice over: plan_with_salvage contains
    // panics inside each attempt, and a worker that still dies (a panic
    // outside the contained region) is recorded here instead of aborting
    // the process — its unplanned outputs become typed errors below.
    let (done, worker_deaths) = if workers == 1 {
        (claim(), Vec::new())
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(claim)).collect();
            let mut done = Vec::new();
            let mut deaths = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(mine) => done.extend(mine),
                    Err(p) => deaths.push(panic_message(p.as_ref())),
                }
            }
            (done, deaths)
        })
    };
    let mut slots: Vec<Option<Result<Planned, Error>>> = (0..num_outputs).map(|_| None).collect();
    for (i, plan) in done {
        slots[i] = Some(plan);
    }
    // errors propagate in output-index order, so the reported trip is
    // deterministic regardless of thread scheduling; an output whose
    // worker died before planning it carries the worker's panic
    let planned = slots
        .into_iter()
        .zip(outs)
        .map(|(p, (name, _))| {
            p.unwrap_or_else(|| {
                Err(Error::OutputFailed {
                    output: name.clone(),
                    cause: worker_deaths.first().cloned().unwrap_or_else(|| {
                        "planner worker terminated before planning this output".to_string()
                    }),
                })
            })
        })
        .collect::<Result<Vec<Planned>, Error>>()?;
    let mut plans: Vec<OutputPlan> = Vec::with_capacity(num_outputs);
    for (cone, (mut plan, salvaged)) in cones.iter().zip(planned) {
        match salvaged {
            Some(record) => report.salvaged.push(record),
            // populate the cache from clean plans only: a salvaged plan's
            // polarity/cubes reflect a degraded rung, not the winner these
            // options would find on a healthy run
            None => engine.store_plan(
                cone,
                mode_salt,
                &plan.pol,
                plan.cube_count,
                &plan.fprm_cubes,
            ),
        }
        report
            .outputs
            .push((plan.name.clone(), plan.cube_count, plan.pol.clone()));
        if plan.search_tripped {
            curtail(report, phase::FPRM);
        }
        pattern_lists.push(std::mem::take(&mut plan.patterns));
        plans.push(plan);
    }
    main.end();
    main.begin(phase::FACTORING);

    // Phase 2: GF(2) common-divisor extraction across the cube-method
    // outputs (the cross-output merge the paper delegates to resub), and
    // the divisors' emission in dependency order. The divisors are shared
    // structure, so both halves are one contained attempt: a fault in
    // either (typed error or panic) un-shares every cube output back to
    // its saved pre-extraction cover, which references no divisor, and
    // the abandoned attempt's gates are dead, swept by the later strash
    // pass. With salvage off the fault is fatal and keeps its typed
    // identity where it has one.
    let (mut factored_hits, mut factored_misses) = (0u64, 0u64);
    let cube_outputs: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.lit_cubes.is_some().then_some(i))
        .collect();
    if opts.share && !cube_outputs.is_empty() {
        let saved: Vec<Vec<VarSet>> = plans.iter().filter_map(|p| p.lit_cubes.clone()).collect();
        let attempt = main.contain(|main| -> Result<usize, Error> {
            xsynth_trace::fail_point!(
                "core.share",
                Err(Error::OutputFailed {
                    output: "shared-divisors".to_string(),
                    cause: "injected fault: core.share tripped".to_string(),
                })
            );
            let ext = main.span("gfx_extract", |span| {
                let ext = gfx::extract(saved.clone(), 2 * n, &gfx::ExtractOptions::default());
                span.count("gfx.rounds", ext.rounds);
                span.count("gfx.candidates", ext.candidates);
                ext
            });
            for (&i, rewritten) in cube_outputs.iter().zip(ext.functions) {
                plans[i].lit_cubes = Some(rewritten);
            }
            for k in divisor_order(&ext.divisors, n) {
                let (y, cubes) = &ext.divisors[k];
                let expr = engine.factor_cubes_cached(
                    cubes,
                    opts.apply_rules,
                    main,
                    &mut factored_hits,
                    &mut factored_misses,
                );
                let sig = expr.emit(&mut net, &mut |net, id| lits.signal(net, id));
                lits.divisors.insert(*y, sig);
            }
            Ok(ext.divisors.len())
        });
        match classify(attempt) {
            // counted only once the divisors are in the network, so a
            // rollback leaves no trace of sharing
            Ok(divisors) => main.count("share.divisors", divisors as u64),
            Err(failure) => {
                let rung = SalvageRung::SkipSharing;
                salvage(opts, report, main, "shared-divisors", rung, failure)?;
                main.count("rewrite.rolled_back", 1);
                lits.divisors.clear();
                for (&i, cubes) in cube_outputs.iter().zip(saved) {
                    plans[i].lit_cubes = Some(cubes);
                }
            }
        }
    }

    // Phase 3: emit the outputs.
    for plan in plans {
        let factored = match &plan.lit_cubes {
            Some(cubes) => {
                // Self-checking rewrite: the factored emission is
                // re-simulated against the output's BDD and rolled back
                // to the direct OFDD translation when it diverges (or
                // panics mid-emit). Gates emitted by an abandoned
                // attempt are dead and swept by the later strash pass.
                let attempt = main.contain(|main| {
                    let expr = engine.factor_cubes_cached(
                        cubes,
                        opts.apply_rules,
                        main,
                        &mut factored_hits,
                        &mut factored_misses,
                    );
                    let sig = expr.emit(&mut net, &mut |net, id| lits.signal(net, id));
                    let ok = emitted_cone_matches(&net, sig, bm, plan.bdd);
                    #[cfg(feature = "failpoints")]
                    let ok = ok && !xsynth_trace::failpoint::hit("core.emit_check");
                    ok.then_some(sig)
                });
                let rung = SalvageRung::SkipFactor;
                match attempt {
                    Ok(Some(sig)) => Some(sig),
                    Ok(None) => {
                        report.salvaged.push(SalvageRecord {
                            output: plan.name.clone(),
                            rung,
                            cause: "factored emission diverged from its FPRM reference".to_string(),
                        });
                        main.count("rewrite.rolled_back", 1);
                        None
                    }
                    Err(p) => {
                        let failure = (panic_message(p.as_ref()), None);
                        salvage(opts, report, main, &plan.name, rung, failure)?;
                        main.count("rewrite.rolled_back", 1);
                        None
                    }
                }
            }
            None if opts.method == FactorMethod::Kfdd => {
                let (km, kroot) =
                    xsynth_ofdd::kfdd::optimize_decomposition(bm, plan.bdd).map_err(|e| {
                        BudgetExceeded::new(phase::FACTORING, Resource::BddNodes, e.limit as u64)
                    })?;
                Some(km.to_network(kroot, &mut net, &lits.inputs))
            }
            None => None,
        };
        let sig = factored.unwrap_or_else(|| {
            main.count("factor.ofdd_lowered", 1);
            let pol = &plan.pol;
            ofdd_to_network(&plan.om, plan.root, &mut net, &mut |net, v| {
                lits.signal(net, 2 * v + usize::from(!pol.is_positive(v)))
            })
        });
        net.add_output(plan.name.clone(), sig);
    }
    report.cache.factored_hits += factored_hits;
    report.cache.lookup_misses += factored_misses;
    main.end();
    Ok(net)
}

/// The macro-block synthesis path: rebuild SIS-style blocks with
/// `eliminate`, then FPRM-synthesize each block function locally.
fn synthesize_blocks(spec: &Network, opts: &SynthOptions, buf: &mut TraceBuffer) -> Network {
    use xsynth_boolean::{Fprm, TruthTable};
    let s = buf.span("eliminate", |_| {
        let mut s = SopNet::from_network(spec);
        s.eliminate(8, 64);
        s.simplify();
        s
    });

    let mut net = Network::new(spec.name().to_string());
    let mut map: HashMap<usize, SignalId> = HashMap::new();
    for (i, &pi) in spec.inputs().iter().enumerate() {
        let sid = net.add_input(spec.node_name(pi).unwrap_or("in").to_string());
        map.insert(i, sid);
    }
    let mut not_cache: HashMap<SignalId, SignalId> = HashMap::new();

    for sig in s.topo_signals() {
        let cover = s.cover(sig).expect("live").clone();
        let support: Vec<usize> = cover.support().iter().collect();
        buf.count("blocks.synthesized", 1);
        let sid = if support.len() <= 12 && cover.num_cubes() <= 256 {
            // local truth table over the block's fanin signals
            let k = support.len();
            let tt = TruthTable::from_fn(k, |m| {
                cover.cubes().iter().any(|c| {
                    support.iter().enumerate().all(|(b, &v)| match c.phase(v) {
                        None => true,
                        Some(ph) => ph == (m & (1 << b) != 0),
                    })
                })
            });
            let fprm = match opts.polarity {
                PolarityMode::AllPositive => Fprm::from_table_positive(&tt),
                PolarityMode::Greedy => Fprm::best_polarity_greedy(&tt),
                PolarityMode::Exhaustive => {
                    if k <= 8 {
                        Fprm::best_polarity_exhaustive(&tt)
                    } else {
                        Fprm::best_polarity_greedy(&tt)
                    }
                }
            };
            let pol = fprm.polarity().clone();
            let expr = factor_cubes_traced(fprm.cubes(), opts.apply_rules, buf);
            let mut lits = |net: &mut Network, b: usize| -> SignalId {
                let base = map[&support[b]];
                if pol.is_positive(b) {
                    base
                } else {
                    *not_cache
                        .entry(base)
                        .or_insert_with(|| net.add_gate(GateKind::Not, vec![base]))
                }
            };
            expr.emit(&mut net, &mut lits)
        } else {
            // block too wide: lower its good-factored form directly
            buf.count("blocks.sop_fallback", 1);
            let fac = xsynth_sop::algebra::factor(&cover);
            xsynth_sop::emit_factored(&fac, &mut net, &map, &mut not_cache)
        };
        map.insert(sig, sid);
    }
    for (name, sig) in s.outputs() {
        net.add_output(name.clone(), map[sig]);
    }
    net
}

/// The multi-output sharing pass — algebraic resubstitution and common
/// divisor extraction at gate granularity, the role `resub` plays when the
/// paper merges per-output networks.
fn share_pass(net: &Network) -> Network {
    let mut s = SopNet::from_network(net);
    s.eliminate(0, 16);
    s.resubstitute();
    s.extract(128);
    s.eliminate(0, 16);
    s.to_network().sweep()
}

/// Emits one candidate implementation into a scratch network and returns
/// its two-input literal cost.
fn scratch_cost(
    n: usize,
    pol: &Polarity,
    build: impl FnOnce(&mut Network, &mut dyn FnMut(&mut Network, usize) -> SignalId) -> SignalId,
) -> usize {
    let mut net = Network::new("scratch");
    let inputs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
    let mut lits = literal_supplier(pol, &inputs);
    let sig = build(&mut net, &mut lits);
    net.add_output("f", sig);
    net.strash().two_input_cost().1
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_sim::exhaustive_patterns;

    fn check_equiv(a: &Network, b: &Network) {
        let n = a.inputs().len();
        assert!(n <= 16);
        for p in exhaustive_patterns(n) {
            assert_eq!(a.eval(&p), b.eval(&p));
        }
    }

    fn adder(bits: usize, carry_in: bool) -> Network {
        let mut net = Network::new(format!("add{bits}"));
        let a: Vec<_> = (0..bits).map(|i| net.add_input(format!("a{i}"))).collect();
        let b: Vec<_> = (0..bits).map(|i| net.add_input(format!("b{i}"))).collect();
        let mut carry = carry_in.then(|| net.add_input("cin"));
        for i in 0..bits {
            let half = net.add_gate(GateKind::Xor, vec![a[i], b[i]]);
            let (sum, cout) = match carry {
                Some(c) => {
                    let s = net.add_gate(GateKind::Xor, vec![half, c]);
                    let t1 = net.add_gate(GateKind::And, vec![a[i], b[i]]);
                    let t2 = net.add_gate(GateKind::And, vec![half, c]);
                    let co = net.add_gate(GateKind::Or, vec![t1, t2]);
                    (s, co)
                }
                None => {
                    let co = net.add_gate(GateKind::And, vec![a[i], b[i]]);
                    (half, co)
                }
            };
            net.add_output(format!("s{i}"), sum);
            carry = Some(cout);
        }
        net.add_output("cout", carry.expect("at least one bit"));
        net
    }

    #[test]
    fn synthesize_adder_equivalent_and_xor_rich() {
        let spec = adder(3, true);
        let SynthOutcome {
            network: out,
            report,
        } = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        check_equiv(&spec, &out);
        assert_eq!(
            report.trace.counter("redundancy.reverted"),
            0,
            "{:?}",
            report.trace.counter_totals()
        );
        // sum bits keep their XORs; carries become AND/OR
        let xor_gates = out
            .topo_order()
            .iter()
            .filter(|&&id| out.gate_kind(id) == Some(GateKind::Xor))
            .count();
        assert!(xor_gates >= 2, "sum bits need XOR gates");
    }

    #[test]
    fn both_methods_agree_on_function() {
        let spec = adder(2, false);
        for method in [FactorMethod::Cube, FactorMethod::Ofdd] {
            let opts = SynthOptions::builder().method(method).build();
            let out = try_synthesize(&spec, &opts).unwrap().network;
            check_equiv(&spec, &out);
        }
    }

    #[test]
    fn polarity_modes_all_valid() {
        let spec = adder(2, true);
        for polarity in [
            PolarityMode::AllPositive,
            PolarityMode::Greedy,
            PolarityMode::Exhaustive,
        ] {
            let opts = SynthOptions::builder().polarity(polarity).build();
            let out = try_synthesize(&spec, &opts).unwrap().network;
            check_equiv(&spec, &out);
        }
    }

    #[test]
    fn negative_polarity_function_wins() {
        // f = ¬a·¬b·¬c + parity tail: exhaustive polarity should find the
        // negative-heavy form and the result must stay correct
        let mut spec = Network::new("neg");
        let a = spec.add_input("a");
        let b = spec.add_input("b");
        let c = spec.add_input("c");
        let na = spec.add_gate(GateKind::Not, vec![a]);
        let nb = spec.add_gate(GateKind::Not, vec![b]);
        let nc = spec.add_gate(GateKind::Not, vec![c]);
        let o = spec.add_gate(GateKind::And, vec![na, nb, nc]);
        spec.add_output("f", o);
        let SynthOutcome {
            network: out,
            report,
        } = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        check_equiv(&spec, &out);
        assert_eq!(report.outputs[0].1, 1, "one cube in all-negative polarity");
    }

    #[test]
    fn multi_output_sharing_via_strash() {
        // two identical outputs must share the whole cone
        let mut spec = Network::new("share");
        let a = spec.add_input("a");
        let b = spec.add_input("b");
        let c = spec.add_input("c");
        let x = spec.add_gate(GateKind::Xor, vec![a, b, c]);
        let y = spec.add_gate(GateKind::Xor, vec![c, b, a]);
        spec.add_output("x", x);
        spec.add_output("y", y);
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        check_equiv(&spec, &out);
        assert!(
            out.num_gates() <= 2,
            "cones must be shared, got {}",
            out.num_gates()
        );
    }

    #[test]
    fn constant_and_wire_outputs() {
        let mut spec = Network::new("degenerate");
        let a = spec.add_input("a");
        let b = spec.add_input("b");
        let t = spec.add_gate(GateKind::Xor, vec![a, a]); // constant 0
        let w = spec.add_gate(GateKind::Buf, vec![b]);
        spec.add_output("zero", t);
        spec.add_output("wire", w);
        let out = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .network;
        check_equiv(&spec, &out);
        assert_eq!(out.num_gates(), 0);
    }

    #[test]
    fn report_lists_every_output() {
        let spec = adder(2, false);
        let report = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .report;
        assert_eq!(report.outputs.len(), spec.outputs().len());
        for (name, count, _) in &report.outputs {
            assert!(!name.is_empty());
            assert!(*count < 100);
        }
    }

    #[test]
    fn report_carries_trace_and_profile() {
        let spec = adder(3, true);
        let report = try_synthesize(&spec, &SynthOptions::default())
            .unwrap()
            .report;
        let names = report.trace.span_names();
        for p in [
            phase::SYNTHESIZE,
            phase::FPRM,
            phase::FACTORING,
            phase::SHARING,
            phase::REDUNDANCY,
            phase::VERIFY,
        ] {
            assert!(names.contains(p), "trace is missing the {p} span");
        }
        assert!(report.profile.total >= report.profile.duration(phase::FPRM));
        assert!(report
            .profile
            .phases
            .iter()
            .any(|p| p.name == phase::FPRM && p.duration > Duration::ZERO));
        // per-output planning buffers land under the fprm phase
        let forest = report.trace.forest();
        let root = &forest[0];
        assert_eq!(root.name, phase::SYNTHESIZE);
        let fprm = root
            .children
            .iter()
            .find(|c| c.name == phase::FPRM)
            .expect("fprm phase");
        let plans = fprm.children.iter().filter(|c| c.name == "plan").count();
        assert_eq!(plans, spec.outputs().len());
    }

    #[test]
    fn external_sink_aggregates_runs() {
        let sink = TraceSink::new();
        let opts = SynthOptions::builder().trace(sink.clone()).build();
        try_synthesize(&adder(2, false), &opts).unwrap();
        try_synthesize(&adder(2, true), &opts).unwrap();
        let trace = sink.take();
        // two runs, each with a pipeline track and one planning track per
        // output; labels are prefixed with the circuit name
        assert!(
            trace.tracks.iter().any(|t| t.label.starts_with("add2/")),
            "{:?}",
            trace.tracks.len()
        );
        let roots = trace
            .forest()
            .iter()
            .filter(|n| n.name == phase::SYNTHESIZE)
            .count();
        assert_eq!(roots, 2);
    }

    #[test]
    fn builder_covers_every_option() {
        let opts = SynthOptions::builder()
            .method(FactorMethod::Ofdd)
            .polarity(PolarityMode::Greedy)
            .apply_rules(false)
            .redundancy_removal(false)
            .share(false)
            .parallel(false)
            .budget(Budget::default().bdd_node_cap(Some(1000)))
            .salvage(false)
            .build();
        assert_eq!(opts.method, FactorMethod::Ofdd);
        assert_eq!(opts.polarity, PolarityMode::Greedy);
        assert!(!opts.apply_rules);
        assert!(!opts.redundancy_removal);
        assert!(!opts.share);
        assert!(!opts.parallel);
        assert_eq!(opts.budget.bdd_node_cap, Some(1000));
        assert!(!opts.salvage);
        assert!(opts.trace.is_none());
    }

    #[test]
    fn node_caps_give_verified_network_or_budget_error() {
        let spec = adder(3, true);
        let mut succeeded = false;
        let mut tripped = false;
        for cap in [8, 64, 512, 100_000] {
            let opts = SynthOptions::builder()
                .budget(Budget::default().bdd_node_cap(Some(cap)))
                .parallel(false)
                .build();
            match try_synthesize(&spec, &opts) {
                Ok(outcome) => {
                    succeeded = true;
                    check_equiv(&spec, &outcome.network);
                    let peak = outcome
                        .report
                        .trace
                        .gauge_max("bdd.peak_nodes")
                        .expect("peak gauge recorded");
                    assert!(peak <= cap as f64, "peak {peak} exceeds cap {cap}");
                }
                Err(Error::Budget(b)) => {
                    tripped = true;
                    assert_eq!(b.resource, Resource::BddNodes);
                }
                Err(e) => panic!("unexpected error family: {e}"),
            }
        }
        assert!(succeeded, "the loose cap must succeed");
        assert!(tripped, "the tight cap must trip");
    }

    #[test]
    fn expired_deadline_still_produces_verified_network() {
        let spec = adder(2, true);
        let opts = SynthOptions::builder()
            .budget(Budget::default().phase_timeout(Some(Duration::ZERO)))
            .parallel(false)
            .build();
        let outcome = try_synthesize(&spec, &opts).expect("time budgets degrade, never fail");
        check_equiv(&spec, &outcome.network);
        assert!(
            outcome.report.curtailed.iter().any(|p| p == phase::FPRM)
                || outcome
                    .report
                    .curtailed
                    .iter()
                    .any(|p| p == phase::REDUNDANCY),
            "an expired deadline must curtail a phase: {:?}",
            outcome.report.curtailed
        );
    }

    #[test]
    fn pattern_cap_bounds_redundancy_pattern_set() {
        let spec = adder(3, true);
        let opts = SynthOptions::builder()
            .budget(Budget::default().max_patterns(Some(8)))
            .parallel(false)
            .build();
        let outcome = try_synthesize(&spec, &opts).expect("pattern caps degrade, never fail");
        check_equiv(&spec, &outcome.network);
        let pats = outcome
            .report
            .trace
            .gauge_max("redundancy.patterns")
            .expect("pattern gauge recorded");
        assert!(pats <= 8.0, "{pats} patterns exceed the cap");
    }

    #[test]
    fn unlimited_budget_reports_nothing_curtailed() {
        let spec = adder(2, false);
        let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        assert!(outcome.report.curtailed.is_empty());
    }
}
