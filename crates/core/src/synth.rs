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
//! and gauges as one event stream into a [`TraceSink`] buffer (each
//! output's `plan` span nests inside the `fprm` phase, in output order),
//! the resulting [`Trace`] rides back in the [`SynthReport`], and the
//! [`PhaseProfile`] is derived from it.
//!
//! A job runs on the calling thread from start to finish: outputs are
//! planned one after another in index order, all in the job's one
//! [`BddManager`].

use crate::budget::{Budget, BudgetExceeded, Resource};
use crate::error::Error;
use crate::factor::{factor_cubes, factor_cubes_traced, literal_supplier, ofdd_to_network};
use crate::gfx;
use crate::patterns::{merge_patterns, paper_patterns, MAX_CUBES};
use crate::redundancy::remove_redundancy;
use crate::verify::{network_bdds, new_manager, EquivChecker, VerifyStatus};
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use xsynth_bdd::BddManager;
use xsynth_boolean::{mask_ones, CubeRows, FxHashMap, Polarity};
use xsynth_net::{GateKind, Network, SignalId};
use xsynth_ofdd::{optimize_polarity, OfddManager, PolaritySearch};
use xsynth_sim::{exhaustive_blocks, random_blocks, PatternBlock, PatternRows, Simulator};
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

// a cube-feasible output's cubes are the ones its patterns were built from
const _: () = assert!(CUBE_CAP <= MAX_CUBES as u64);

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
///     .salvage(false)
///     .build();
/// assert_eq!(opts.method, FactorMethod::Cube);
/// assert!(!opts.salvage);
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

/// Result-cache use of one job. Every field is always zero: no state is
/// kept between jobs, so there is nothing to hit. The type remains only
/// because the benchmark harness in `xbench/` still reads it; it goes
/// with the next change to that harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUse {
    /// Always zero.
    pub polarity_hits: u64,
    /// Always zero.
    pub cubes_hits: u64,
    /// Always zero.
    pub factored_hits: u64,
    /// Always zero.
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
/// `gfx.candidates`), whether the sharing pass's network replaced the
/// result (`share.kept`) with more two-input literals (`share.grew`),
/// macro blocks (`blocks.synthesized`), cube-cap fallbacks
/// (`fprm.cube_cap_fallbacks`), Section 4 rewrites (`redundancy.*`) —
/// lives in [`SynthReport::trace`] and is read by name with
/// [`Trace::counter`].
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
    /// How the job proved its network equivalent to the specification:
    /// [`VerifyStatus::Verified`] by BDDs in the job's own manager, or
    /// [`VerifyStatus::Downgraded`] when the node cap moved the checker to
    /// simulation. `None` for a flow that makes no proof of its own (the
    /// SOP baseline) until its caller proves the result and stores the
    /// status here.
    pub proof: Option<VerifyStatus>,
    /// Always zero (see [`CacheUse`]).
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
/// network plus a report. The job proves its result equivalent to `spec`
/// in the BDD manager that built the spec (exactly; by fixed-seed
/// simulation only when the budget's node cap trips, which
/// [`SynthReport::curtailed`] then lists), and [`SynthReport::proof`]
/// says which. That is the result's one proof: callers read it instead of
/// checking the network again.
///
/// A tripped [`Budget`] surfaces as [`Error::Budget`] (when no degraded
/// result was possible) and a failed verification as [`Error::Verify`].
/// Phases that degraded gracefully under the budget are listed in
/// [`SynthReport::curtailed`]; the returned network is always verified
/// against the specification.
///
/// This is the one synthesis entry point. Nothing is kept between
/// calls: each job builds its own BDD manager and drops it at the end, so
/// repeated invocations behave identically.
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
        run_pipeline(spec, opts, &sink, &mut report)
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
    let mut bm = new_manager(n, opts.budget.bdd_node_cap);
    // Compact build: gate-level intermediates live and die in a scratch
    // manager, so the job's manager only ever holds the live output cones.
    let out_bdds = network_bdds(&spec, &mut bm);
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
        match om.from_bdd(&mut bm, f) {
            Ok(root) => om.num_cubes(root) > CUBE_CAP,
            Err(_) => {
                curtail(report, phase::FPRM);
                true
            }
        }
    });
    main.gauge("bdd.peak_nodes", bm.num_nodes() as f64);

    let mut pattern_lists: Vec<PatternRows> = Vec::new();
    let net = if use_blocks {
        main.end();
        pattern_lists.push(paper_patterns(
            n,
            &Polarity::all_positive(n),
            &CubeRows::new(n),
        ));
        main.begin(phase::FACTORING);
        let net = synthesize_blocks(&spec, opts, &mut main);
        main.end();
        net
    } else {
        synthesize_outputs(
            &spec,
            opts,
            &mut bm,
            &out_bdds,
            report,
            &mut pattern_lists,
            fprm_deadline,
            &mut main,
        )?
    };

    // cross-output sharing (the role `resub` plays in the paper)
    main.begin(phase::FACTORING);
    let mut result = main.span("strash", |_| net.strash().sweep());
    main.gauge("net.gates", result.num_gates() as f64);
    main.end();
    main.begin(phase::VERIFY);
    let mut checker = EquivChecker::from_spec(&spec, bm, out_bdds, &opts.budget);
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
            // any equivalent shared network is kept, whatever its size:
            // count how often, and how often it has more literals
            main.count("share.kept", 1);
            if swept_literals(&shared) > swept_literals(&result) {
                main.count("share.grew", 1);
            }
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
        let booster = random_blocks(n, opts.budget.cap_patterns(64), 0x0c);
        pattern_lists.push(PatternRows::from_blocks(n, &booster));
        let mut patterns = merge_patterns(n, pattern_lists);
        patterns.truncate(opts.budget.cap_patterns(patterns.len()));
        main.gauge("redundancy.patterns", patterns.len() as f64);
        let blocks = patterns.to_blocks();
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
    report.proof = Some(if checker.downgraded() {
        curtail(report, phase::VERIFY);
        VerifyStatus::Downgraded
    } else {
        VerifyStatus::Verified
    });

    // the job's manager, now the checker's, read once at the end
    checker.record(&mut main);

    let result = result.sweep();
    main.gauge("net.gates", result.num_gates() as f64);
    main.end();
    Ok(result)
}

/// One output's Phase 1 result: polarity, OFDD, method decision, patterns.
struct OutputPlan {
    name: String,
    pol: Polarity,
    om: OfddManager,
    root: xsynth_ofdd::Ofdd,
    bdd: xsynth_bdd::Bdd,
    /// literal-space cubes (id = 2v for positive, 2v+1 for negative)
    lit_cubes: Option<CubeRows>,
    cube_count: u64,
    patterns: PatternRows,
    /// whether the polarity search stopped early under the budget
    search_tripped: bool,
}

/// Phase 1 for one output: polarity search, OFDD construction, method
/// decision, and pattern generation, recorded as one `plan` span in `buf`.
///
/// Under a budget: the polarity search keeps its best polarity so far
/// when the node cap or `deadline` trips, and only the final OFDD build
/// being unaffordable is a hard [`Error::Budget`].
#[allow(clippy::too_many_arguments)]
fn plan_output(
    name: &str,
    f: xsynth_bdd::Bdd,
    bm: &mut BddManager,
    n: usize,
    num_outputs: usize,
    opts: &SynthOptions,
    deadline: Option<Instant>,
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
    let mut search = PolaritySearch::new(bm, f).deadline(deadline).trace(buf);
    let (pol, _) = search.run(opts.polarity, &support);
    let search_tripped = search.budget_tripped();
    buf.begin("ofdd");
    let mut om = OfddManager::new(pol.clone());
    let root = om
        .from_bdd(bm, f)
        .map_err(|e| BudgetExceeded::new(phase::FPRM, Resource::BddNodes, e.limit as u64))?;
    let count = om.num_cubes(root);
    buf.end();
    buf.gauge("ofdd.nodes", om.num_nodes() as f64);
    buf.gauge("fprm.cubes", count as f64);
    buf.gauge("plan.support", support.len() as f64);
    buf.gauge("bdd.peak_nodes", bm.num_nodes() as f64);

    let cubes = if count <= MAX_CUBES as u64 {
        om.cubes(root)
    } else {
        CubeRows::new(n)
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
                            let expr = factor_cubes(&cubes, opts.apply_rules);
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
        let mut lits = CubeRows::new(2 * n);
        for c in cubes.rows() {
            let row = lits.push_zero();
            for v in mask_ones(c) {
                let l = 2 * v + usize::from(!pol.is_positive(v));
                row[l / 64] |= 1 << (l % 64);
            }
        }
        lits
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
/// Every attempt records into `buf`; a failed one is rolled back, so the
/// trace only shows the kept attempt, with a retry rung's
/// `salvage.attempts` count. When every rung fails, the *first* attempt's
/// typed error propagates (preserving the [`Error::Budget`] taxonomy), or
/// [`Error::OutputFailed`] if the first failure was a panic.
#[allow(clippy::too_many_arguments)]
fn plan_with_salvage(
    name: &str,
    f: xsynth_bdd::Bdd,
    bm: &mut BddManager,
    n: usize,
    num_outputs: usize,
    opts: &SynthOptions,
    deadline: Option<Instant>,
    buf: &mut TraceBuffer,
) -> Result<(OutputPlan, Option<SalvageRecord>), Error> {
    let mut first: Option<Failure> = None;
    for rung in [
        None,
        Some(SalvageRung::SkipFactor),
        Some(SalvageRung::DirectFprm),
    ] {
        let mark = buf.mark();
        let mut ropts = opts.clone();
        if let Some(rung) = rung {
            ropts.method = FactorMethod::Ofdd;
            if rung == SalvageRung::DirectFprm {
                ropts.polarity = PolarityMode::AllPositive;
            }
            buf.count("salvage.attempts", 1);
        }
        let attempt =
            buf.contain(|buf| plan_output(name, f, bm, n, num_outputs, &ropts, deadline, buf));
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
                buf.rollback(mark);
                first.get_or_insert(failure);
            }
        }
        if !opts.salvage {
            break;
        }
    }
    Err(fatal(name, first.expect("a failed attempt")))
}

/// The fixed patterns a factored emission is self-checked on: exhaustive
/// up to 11 inputs, otherwise 128 fixed-seed random patterns. Built once
/// per job, on the first check, and shared by every output.
struct EmissionCheck {
    blocks: Vec<PatternBlock>,
}

impl EmissionCheck {
    fn new(n: usize) -> Self {
        let blocks = if n <= 11 {
            exhaustive_blocks(n).collect()
        } else {
            random_blocks(n, 128, 0x5eed_fa11)
        };
        EmissionCheck { blocks }
    }

    /// Word-packed simulation check that the cone rooted at `sig` in `net`
    /// computes `f` on every pattern: both sides are evaluated 64 lanes
    /// at a time, `f` by one pass over its BDD per block.
    fn matches(&self, net: &Network, sig: SignalId, bm: &BddManager, f: xsynth_bdd::Bdd) -> bool {
        let sim = Simulator::for_cone(net, sig);
        let want = bm.eval_words(f, self.blocks.iter().map(|b| &b.words[..]));
        self.blocks.iter().zip(want).all(|(block, want)| {
            let got = sim.simulate_block(&block.words)[sig.index()];
            (got ^ want) & block.lane_mask() == 0
        })
    }
}

/// Literal signals of the network under construction: id `2v` is input
/// `v`, `2v + 1` its complement (one shared inverter per variable), and
/// ids from `2n` up are the shared divisors emitted so far.
struct Literals {
    inputs: Vec<SignalId>,
    nots: FxHashMap<usize, SignalId>,
    divisors: FxHashMap<usize, SignalId>,
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
fn divisor_order(divisors: &[(usize, CubeRows)], n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::new();
    let mut emitted: Vec<bool> = vec![false; divisors.len()];
    let index_of: FxHashMap<usize, usize> = divisors
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
            let ready = cubes.rows().all(|c| {
                mask_ones(c).all(|l| l < 2 * n || index_of.get(&l).is_none_or(|&dk| emitted[dk]))
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

/// The per-output (collapsed) synthesis path. It starts inside the
/// caller's open [`phase::FPRM`] span, records one `plan` span per output
/// inside it, in output order, and closes it once every output is
/// planned. An error returns with the phase span still open; the
/// caller's buffer closes it.
#[allow(clippy::too_many_arguments)]
fn synthesize_outputs(
    spec: &Network,
    opts: &SynthOptions,
    bm: &mut BddManager,
    out_bdds: &[xsynth_bdd::Bdd],
    report: &mut SynthReport,
    pattern_lists: &mut Vec<PatternRows>,
    deadline: Option<Instant>,
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
        nots: FxHashMap::default(),
        divisors: FxHashMap::default(),
    };

    // Phase 1: per-output polarity + FPRM cubes; decide the method. The
    // outputs are planned in index order, all in the job's one BDD
    // manager, so they hash-cons into one DAG under one node cap.
    let outs = spec.outputs();
    let num_outputs = outs.len();
    let mut planned = Vec::with_capacity(num_outputs);
    for (i, (name, _)) in outs.iter().enumerate() {
        planned.push(plan_with_salvage(
            name,
            out_bdds[i],
            bm,
            n,
            num_outputs,
            opts,
            deadline,
            main,
        )?);
    }
    let mut plans: Vec<OutputPlan> = Vec::with_capacity(num_outputs);
    for (mut plan, salvaged) in planned {
        report.salvaged.extend(salvaged);
        report
            .outputs
            .push((plan.name.clone(), plan.cube_count, plan.pol.clone()));
        if plan.search_tripped {
            curtail(report, phase::FPRM);
        }
        pattern_lists.push(std::mem::replace(&mut plan.patterns, PatternRows::new(n)));
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
    let cube_outputs: Vec<usize> = plans
        .iter()
        .enumerate()
        .filter_map(|(i, p)| p.lit_cubes.is_some().then_some(i))
        .collect();
    if opts.share && !cube_outputs.is_empty() {
        let saved: Vec<CubeRows> = plans.iter().filter_map(|p| p.lit_cubes.clone()).collect();
        let attempt = main.contain(|main| -> Result<usize, Error> {
            xsynth_trace::fail_point!(
                "core.share",
                Err(Error::OutputFailed {
                    output: "shared-divisors".to_string(),
                    cause: "injected fault: core.share tripped".to_string(),
                })
            );
            let ext = main.span("gfx_extract", |span| {
                let ext = gfx::extract(&saved, 2 * n, &gfx::ExtractOptions::default());
                span.count("gfx.rounds", ext.rounds);
                span.count("gfx.candidates", ext.candidates);
                ext
            });
            for (&i, rewritten) in cube_outputs.iter().zip(ext.functions) {
                plans[i].lit_cubes = Some(rewritten);
            }
            for k in divisor_order(&ext.divisors, n) {
                let (y, cubes) = &ext.divisors[k];
                let expr = factor_cubes_traced(cubes, opts.apply_rules, main);
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
    let check = OnceCell::new();
    for plan in plans {
        let factored = match &plan.lit_cubes {
            Some(cubes) => {
                // Self-checking rewrite: the factored emission is
                // re-simulated against the output's BDD and rolled back
                // to the direct OFDD translation when it diverges (or
                // panics mid-emit). Gates emitted by an abandoned
                // attempt are dead and swept by the later strash pass.
                let attempt = main.contain(|main| {
                    let expr = factor_cubes_traced(cubes, opts.apply_rules, main);
                    let sig = expr.emit(&mut net, &mut |net, id| lits.signal(net, id));
                    let ok = main.span("emission_check", |_| {
                        check
                            .get_or_init(|| EmissionCheck::new(n))
                            .matches(&net, sig, bm, plan.bdd)
                    });
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
    main.end();
    Ok(net)
}

/// The macro-block synthesis path: rebuild SIS-style blocks with
/// `eliminate`, then FPRM-synthesize each block function locally.
fn synthesize_blocks(spec: &Network, opts: &SynthOptions, buf: &mut TraceBuffer) -> Network {
    use xsynth_boolean::Fprm;
    let s = buf.span("eliminate", |_| {
        let mut s = SopNet::from_network(spec);
        s.eliminate(8, 64);
        s.simplify();
        s
    });

    let mut net = Network::new(spec.name().to_string());
    let mut map: FxHashMap<usize, SignalId> = FxHashMap::default();
    for (i, &pi) in spec.inputs().iter().enumerate() {
        let sid = net.add_input(spec.node_name(pi).unwrap_or("in").to_string());
        map.insert(i, sid);
    }
    let mut not_cache: FxHashMap<SignalId, SignalId> = FxHashMap::default();

    for sig in s.topo_signals() {
        let cover = s.cover(sig).expect("live").clone();
        let support: Vec<usize> = cover.support().iter().collect();
        buf.count("blocks.synthesized", 1);
        let sid = if support.len() <= 12 && cover.num_cubes() <= 256 {
            // local truth table over the block's fanin signals
            let tt = cover.table_over(&support);
            let pol = optimize_polarity(&tt, opts.polarity);
            let fprm = Fprm::from_table(&tt, &pol);
            let cubes = CubeRows::from_sets(support.len(), fprm.cubes());
            let expr = factor_cubes_traced(&cubes, opts.apply_rules, buf);
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

/// `net.two_input_cost().1` of a swept network, without building its
/// decomposition: sweeping leaves no constant, repeated or single fanin
/// on an AND/OR/XOR-family gate, so `decompose2` splits each reachable
/// `k`-fanin AND/OR gate into `k − 1` two-input gates and each XOR gate
/// into `3(k − 1)`, and folds none of them away.
fn swept_literals(net: &Network) -> usize {
    let gates: usize = net
        .topo_order()
        .iter()
        .map(|&id| {
            let k = net.fanins(id).len();
            match net.gate_kind(id) {
                Some(GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor) => k - 1,
                Some(GateKind::Xor | GateKind::Xnor) => 3 * (k - 1),
                _ => 0,
            }
        })
        .sum();
    debug_assert_eq!(
        2 * gates,
        net.two_input_cost().1,
        "{} is not swept",
        net.name()
    );
    2 * gates
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
    fn emission_check_covers_networks_past_64_inputs() {
        // f = x0·x69, emitted right as an AND and wrong as an OR
        let mut net = Network::new("wide");
        let inputs: Vec<_> = (0..70).map(|i| net.add_input(format!("x{i}"))).collect();
        let and = net.add_gate(GateKind::And, vec![inputs[0], inputs[69]]);
        let or = net.add_gate(GateKind::Or, vec![inputs[0], inputs[69]]);
        let mut bm = BddManager::new(70);
        let (x0, x69) = (bm.var(0).unwrap(), bm.var(69).unwrap());
        let f = bm.and(x0, x69).unwrap();
        let check = EmissionCheck::new(70);
        assert!(check.matches(&net, and, &bm, f));
        assert!(!check.matches(&net, or, &bm, f));
    }

    /// The per-lane BDD walk the bit-parallel check replaced: lane `k`
    /// of the result is `f` walked down lane `k`'s input bits.
    fn per_lane_words(bm: &BddManager, f: xsynth_bdd::Bdd, block: &PatternBlock) -> u64 {
        let mut want = 0u64;
        for lane in 0..block.lanes {
            let mut b = f;
            while let Some(v) = bm.top_var(b) {
                b = if block.words[v] >> lane & 1 != 0 {
                    bm.high(b)
                } else {
                    bm.low(b)
                };
            }
            if b == xsynth_bdd::Bdd::ONE {
                want |= 1 << lane;
            }
        }
        want
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bit-parallel emission check computes the same words as the
        /// per-lane walk on every block (exhaustive up to 11 inputs,
        /// random past it, 70 inputs included) and so gives the same
        /// verdict on right and wrong cones.
        #[test]
        fn bit_parallel_emission_check_matches_the_per_lane_walk(
            width in 0usize..4,
            picks in proptest::collection::vec((0u8..3, proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()), 1..24),
        ) {
            let n = [3, 11, 12, 70][width];
            let mut net = Network::new("rand");
            let mut sigs: Vec<SignalId> = (0..n).map(|i| net.add_input(format!("x{i}"))).collect();
            for &(k, a, b) in &picks {
                let kind = [GateKind::And, GateKind::Or, GateKind::Xor][k as usize];
                let fanins = vec![sigs[a as usize % sigs.len()], sigs[b as usize % sigs.len()]];
                sigs.push(net.add_gate(kind, fanins));
            }
            let root = *sigs.last().expect("a gate");
            let wrong = net.add_gate(GateKind::Not, vec![root]);
            let near = sigs[sigs.len() / 2];
            net.add_output("f", root);
            let mut bm = BddManager::new(n);
            let f = crate::verify::network_bdds(&net, &mut bm).expect("uncapped")[0];
            let check = EmissionCheck::new(n);
            let words = bm.eval_words(f, check.blocks.iter().map(|b| &b.words[..]));
            for (block, got) in check.blocks.iter().zip(&words) {
                proptest::prop_assert_eq!(*got & block.lane_mask(), per_lane_words(&bm, f, block));
            }
            for sig in [root, wrong, near] {
                let sim = Simulator::for_cone(&net, sig);
                let oracle = check.blocks.iter().all(|block| {
                    let got = sim.simulate_block(&block.words)[sig.index()];
                    (got ^ per_lane_words(&bm, f, block)) & block.lane_mask() == 0
                });
                proptest::prop_assert_eq!(check.matches(&net, sig, &bm, f), oracle);
            }
        }
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
        // each output's plan span is recorded inside the fprm phase
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
        // the factoring phase attributes its self-check and its strash
        let factoring: Vec<&str> = root
            .children
            .iter()
            .filter(|c| c.name == phase::FACTORING)
            .flat_map(|c| c.children.iter().map(|k| k.name.as_str()))
            .collect();
        for span in ["gfx_extract", "factor_cubes", "emission_check", "strash"] {
            assert!(factoring.contains(&span), "no {span} under factoring");
        }
    }

    #[test]
    fn external_sink_aggregates_runs() {
        let sink = TraceSink::new();
        let opts = SynthOptions::builder().trace(sink.clone()).build();
        try_synthesize(&adder(2, false), &opts).unwrap();
        try_synthesize(&adder(2, true), &opts).unwrap();
        let trace = sink.take();
        // two runs, one track each; labels are prefixed with the
        // circuit name
        assert_eq!(trace.tracks.len(), 2);
        assert!(
            trace.tracks.iter().all(|t| t.label.starts_with("add2/")),
            "{:?}",
            trace.tracks
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
            .budget(Budget::default().bdd_node_cap(Some(1000)))
            .salvage(false)
            .build();
        assert_eq!(opts.method, FactorMethod::Ofdd);
        assert_eq!(opts.polarity, PolarityMode::Greedy);
        assert!(!opts.apply_rules);
        assert!(!opts.redundancy_removal);
        assert!(!opts.share);
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
    fn every_job_starts_on_a_fresh_substrate() {
        let opts = SynthOptions::default();
        let z4ml = xsynth_circuits::build("z4ml").unwrap();
        let c5xp1 = xsynth_circuits::build("5xp1").unwrap();
        assert_eq!(z4ml.inputs().len(), c5xp1.inputs().len());
        let final_nodes = |o: &SynthOutcome| o.report.trace.gauge_finals()["bdd.nodes"];
        let alone = try_synthesize(&z4ml, &opts).unwrap();
        // a same-arity job before it must leave no nodes behind
        try_synthesize(&c5xp1, &opts).unwrap();
        let after = try_synthesize(&z4ml, &opts).unwrap();
        assert_eq!(final_nodes(&after), final_nodes(&alone));
        assert_eq!(
            xsynth_blif::write_blif(&after.network),
            xsynth_blif::write_blif(&alone.network)
        );
        assert_eq!(after.report.cache, CacheUse::default());
    }

    #[test]
    fn unlimited_budget_reports_nothing_curtailed() {
        let spec = adder(2, false);
        let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        assert!(outcome.report.curtailed.is_empty());
    }
}
