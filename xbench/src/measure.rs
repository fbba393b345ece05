//! What every workload shares: run options, the run record, the
//! benchmark's own spans around calls into the program, and the metric
//! tables printed at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use xsynth::core::{phase, SynthReport};
use xsynth::trace::{SpanNode, Trace, TraceBuffer, TraceSink};

use crate::stats::{geomean, median, percentile};

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("job_p50_ms", "ms"),
    ("geomean_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("premap_lits", "count"),
    ("map_lits", "count"),
    ("power", "switching"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). Times and
/// counts are per traced pass (`check.busy_s` is per run); ratios and
/// peaks are over the traced passes. A layer a workload never calls
/// reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("map.busy_s", "s"),
    ("map.cells", "count"),
    ("sop.busy_s", "s"),
    ("core.synth_s", "s"),
    ("core.fprm_s", "s"),
    ("core.factoring_s", "s"),
    ("core.sharing_s", "s"),
    ("core.redundancy_s", "s"),
    ("core.verify_s", "s"),
    ("core.equiv_s", "s"),
    ("core.factor_calls", "count"),
    ("core.share_divisors", "count"),
    ("core.salvaged", "count"),
    ("core.redundancy_reverted", "count"),
    ("core.verify_downgraded", "count"),
    ("ofdd.polarity_evaluated", "count"),
    ("ofdd.polarity_memo_hits", "count"),
    ("bdd.peak_nodes", "count"),
    ("bdd.apply_hit_frac", "frac"),
    ("bdd.apply_lookups", "count"),
    ("sim.patterns", "count"),
    ("cache.hit_frac", "frac"),
    ("cache.lookups", "count"),
    ("cache.polarity_hit_frac", "frac"),
    ("cache.lookup_mean_us", "us"),
    ("cache.entries", "count"),
    ("cache.evictions", "count"),
    ("blif.encode_s", "s"),
    ("blif.decode_s", "s"),
    ("blif.request_bytes", "bytes"),
    ("serve.rtt_s", "s"),
    ("serve.job_s", "s"),
    ("serve.queue_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.busy_frac", "frac"),
    ("serve.shed", "count"),
    ("serve.errors", "count"),
    ("check.busy_s", "s"),
    ("build.busy_s", "s"),
    ("job.self_s", "s"),
    ("job.wall_s", "s"),
    ("trace.covered_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.spans", "count"),
];

/// How one workload run is sized.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload seed.
    pub seed: u64,
    /// Target measured seconds.
    pub seconds: f64,
    /// Record spans and print per-layer metrics.
    pub trace: bool,
    /// Cut every workload to a few jobs and one pass (for tests).
    pub smoke: bool,
}

impl Opts {
    /// How many set-up samples a run takes (their median is `setup_s`).
    pub fn setup_samples(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    /// Whether pass `pass` records spans. Traced runs alternate untraced
    /// and traced passes, so the pair gives the tracing overhead.
    pub fn traced(&self, pass: usize) -> bool {
        self.trace && pass % 2 == 1
    }

    /// Whether to start another pass: at least one in a smoke run, two
    /// when tracing, [`Opts::setup_samples`] otherwise (workloads that set
    /// up afresh for every pass take one set-up sample per pass), then
    /// only while the next pass should end within `seconds`.
    pub fn another_pass(&self, passes: &[Pass], started: Instant) -> bool {
        let min = if self.trace { 2 } else { self.setup_samples() };
        if passes.len() < min {
            return true;
        }
        if self.smoke {
            return false;
        }
        let typical = median(&passes.iter().map(|p| p.seconds).collect::<Vec<_>>());
        started.elapsed().as_secs_f64() + typical <= self.seconds
    }
}

/// One timed pass over a workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall time of the pass.
    pub seconds: f64,
    /// Whether spans were recorded.
    pub traced: bool,
}

/// Quality of the result for one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    /// Two-input literals before mapping.
    pub premap_lits: usize,
    /// Mapped literals (cell pins).
    pub map_lits: usize,
    /// Switching power of the mapped netlist.
    pub power: f64,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Set-up samples, seconds.
    pub setup: Vec<f64>,
    /// The timed passes.
    pub passes: Vec<Pass>,
    /// (input index, seconds) for every timed job that completed.
    pub jobs: Vec<(usize, f64)>,
    /// Result quality by input index.
    pub quality: BTreeMap<usize, Quality>,
    /// Peak resident set of the process doing the work, kB: one sample
    /// per run in-process, one per pass for the daemon.
    pub peak_rss_kb: Vec<u64>,
    /// Jobs attempted.
    pub attempted: usize,
    /// One message per failed job.
    pub failures: Vec<String>,
    /// Per-layer sums over the traced passes (see [`Run::per_layer`]).
    pub layer_sums: BTreeMap<&'static str, f64>,
    /// Per-layer values that are already per pass, ratios or peaks.
    pub layer_values: BTreeMap<&'static str, f64>,
    /// The recorded spans (traced runs only).
    pub trace: Option<Trace>,
}

impl Run {
    /// Adds `v` to a per-layer sum.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.layer_sums.entry(key).or_insert(0.0) += v;
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Timings are
    /// built from each input's fastest job: `work_s` sums them (one
    /// pass's work at the run's best speed), `job_p50_ms` and
    /// `geomean_ms` summarise them. The host speed drifts by tens of
    /// percent over seconds; each input's best of several samples is what
    /// stays put from run to run, where even the fastest whole pass does
    /// not. Set-up time and peak memory are medians of their samples.
    pub fn end_to_end(&self) -> Vec<f64> {
        let mut best: BTreeMap<usize, f64> = BTreeMap::new();
        for &(i, s) in &self.jobs {
            let b = best.entry(i).or_insert(s);
            *b = b.min(s);
        }
        let best: Vec<f64> = best.into_values().collect();
        let peaks: Vec<f64> = self.peak_rss_kb.iter().map(|&kb| kb as f64).collect();
        let q = self.quality.values();
        vec![
            median(&self.setup),
            best.iter().sum(),
            percentile(&best, 0.50) * 1e3,
            geomean(&best) * 1e3,
            median(&peaks) / 1024.0,
            q.clone().map(|q| q.premap_lits as f64).sum(),
            q.clone().map(|q| q.map_lits as f64).sum(),
            q.map(|q| q.power).sum(),
        ]
    }

    /// The per-layer metrics, in [`PER_LAYER`] order: sums divided by
    /// the number of traced passes, then the span-derived and ratio
    /// metrics, with 0 for layers the workload never called.
    pub fn per_layer(&self) -> Vec<f64> {
        let traced: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| p.seconds)
            .collect();
        let plain: Vec<f64> = self
            .passes
            .iter()
            .filter(|p| !p.traced)
            .map(|p| p.seconds)
            .collect();
        let n = traced.len().max(1) as f64;
        let mut v: BTreeMap<&str, f64> = self.layer_sums.iter().map(|(k, x)| (*k, x / n)).collect();
        if let Some(trace) = &self.trace {
            let selfs = self_times(trace);
            let s = |name: &str| selfs.get(name).map_or(0.0, |t| t.self_s) / n;
            v.insert("map.busy_s", s("map") + s("power"));
            v.insert("sop.busy_s", s("sop"));
            v.insert("core.equiv_s", s("verify"));
            v.insert("blif.encode_s", s("blif.encode"));
            v.insert("blif.decode_s", s("blif.decode"));
            v.insert("serve.rtt_s", s("rpc"));
            v.insert("build.busy_s", s("build"));
            v.insert("job.self_s", s("job"));
            let wall = selfs.get("job").map_or(0.0, |t| t.total_s) / n;
            v.insert("job.wall_s", wall);
            if wall > 0.0 {
                v.insert("trace.covered_frac", 1.0 - s("job") / wall);
            }
            if !v.contains_key("core.synth_s") {
                v.insert("core.synth_s", s("synth"));
            }
            let spans: usize = selfs.values().map(|t| t.count).sum();
            v.insert("trace.spans", spans as f64 / n);
        }
        let get = |v: &BTreeMap<&str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
        for (ratio, num, den, scale) in RATIOS {
            let d = get(&v, den);
            if d > 0.0 {
                v.insert(ratio, get(&v, num) / d * scale);
            }
        }
        if v.contains_key("serve.job_s") {
            let overhead = get(&v, "serve.rtt_s") - v["serve.job_s"] - get(&v, "serve.queue_s");
            v.insert("serve.overhead_s", overhead);
        }
        if !plain.is_empty() && !traced.is_empty() {
            v.insert(
                "trace.overhead_frac",
                median(&traced) / median(&plain) - 1.0,
            );
        }
        for (k, x) in &self.layer_values {
            v.insert(k, *x);
        }
        PER_LAYER
            .iter()
            .map(|(name, _)| v.get(name).copied().unwrap_or(0.0))
            .collect()
    }
}

/// Ratio metrics: (metric, numerator sum, denominator sum, scale).
const RATIOS: [(&str, &str, &str, f64); 5] = [
    (
        "bdd.apply_hit_frac",
        "bdd.apply_hits",
        "bdd.apply_lookups",
        1.0,
    ),
    ("cache.hit_frac", "cache.hits", "cache.lookups", 1.0),
    (
        "cache.polarity_hit_frac",
        "cache.polarity_hits",
        "cache.outputs",
        1.0,
    ),
    (
        "cache.lookup_mean_us",
        "cache.lookup_seconds",
        "cache.lookup_count",
        1e6,
    ),
    ("serve.busy_frac", "serve.job_s", "serve.capacity_s", 1.0),
];

/// Pipeline phases (span names of `xsynth_core::phase`) and their
/// per-layer metrics.
pub const PHASES: [(&str, &str); 5] = [
    (phase::FPRM, "core.fprm_s"),
    (phase::FACTORING, "core.factoring_s"),
    (phase::SHARING, "core.sharing_s"),
    (phase::REDUNDANCY, "core.redundancy_s"),
    (phase::VERIFY, "core.verify_s"),
];

/// The program's trace counters and the per-layer metrics they feed.
const PROGRAM_COUNTERS: [(&str, &str); 7] = [
    ("factor.calls", "core.factor_calls"),
    ("share.divisors", "core.share_divisors"),
    ("redundancy.reverted", "core.redundancy_reverted"),
    ("verify.downgraded", "core.verify_downgraded"),
    ("polarity.evaluated", "ofdd.polarity_evaluated"),
    ("polarity.memo_hit", "ofdd.polarity_memo_hits"),
    ("patterns.generated", "sim.patterns"),
];

/// Adds the program's counters (read through `counter`) to `into`.
pub fn add_program_counters(into: &mut BTreeMap<&'static str, f64>, counter: impl Fn(&str) -> f64) {
    for (name, key) in PROGRAM_COUNTERS {
        *into.entry(key).or_insert(0.0) += counter(name);
    }
}

/// Raises a per-layer peak.
pub fn raise(run: &mut Run, key: &'static str, v: f64) {
    let e = run.layer_values.entry(key).or_insert(0.0);
    *e = e.max(v);
}

/// Adds what one in-process `SynthReport` says about the layers under
/// the synthesis call.
pub fn add_program_report(run: &mut Run, r: &SynthReport) {
    for (name, key) in PHASES {
        run.add(key, r.profile.duration(name).as_secs_f64());
    }
    let counters = r.trace.counter_totals();
    add_program_counters(&mut run.layer_sums, |k| {
        counters.get(k).map_or(0.0, |&v| v as f64)
    });
    run.add("core.salvaged", r.salvaged.len() as f64);
    let gauges = r.trace.gauge_finals();
    let g = |k: &str| gauges.get(k).copied().unwrap_or(0.0);
    run.add("bdd.apply_hits", g("bdd.apply_hits"));
    run.add(
        "bdd.apply_lookups",
        g("bdd.apply_hits") + g("bdd.apply_misses"),
    );
    raise(
        run,
        "bdd.peak_nodes",
        r.trace.gauge_max("bdd.peak_nodes").unwrap_or(0.0),
    );
    run.add("cache.hits", r.cache.hits() as f64);
    run.add("cache.lookups", (r.cache.hits() + r.cache.misses()) as f64);
    run.add("cache.polarity_hits", r.cache.polarity_hits as f64);
    run.add("cache.outputs", r.outputs.len() as f64);
}

/// Total and self time of all spans of one name.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanTime {
    /// Summed span durations.
    pub total_s: f64,
    /// Summed durations minus the parts covered by child spans.
    pub self_s: f64,
    /// Number of spans.
    pub count: usize,
}

/// Total and self time per span name over the benchmark's own spans
/// (the program's grafted phase tracks are skipped: their time is
/// already inside the `synth` span that called them).
pub fn self_times(trace: &Trace) -> BTreeMap<String, SpanTime> {
    fn walk(n: &SpanNode, out: &mut BTreeMap<String, SpanTime>) {
        let children: f64 = n.children.iter().map(|c| c.duration.as_secs_f64()).sum();
        let t = out.entry(n.name.clone()).or_default();
        t.total_s += n.duration.as_secs_f64();
        t.self_s += (n.duration.as_secs_f64() - children).max(0.0);
        t.count += 1;
        for c in &n.children {
            walk(c, out);
        }
    }
    let mut out = BTreeMap::new();
    for root in trace.forest() {
        if OWN_ROOTS.contains(&root.name.as_str()) {
            walk(&root, &mut out);
        }
    }
    out
}

/// Root span names the benchmark records.
const OWN_ROOTS: [&str; 3] = ["job", "check", "build"];

/// The benchmark's spans for one unit of work: a no-op unless tracing.
pub struct Spans(Option<TraceBuffer>);

impl Spans {
    /// Opens a root span `root` on its own track labelled `label` (the
    /// request id) when `sink` is set.
    pub fn open(sink: Option<&TraceSink>, key: u64, label: &str, root: &str) -> Spans {
        Spans(sink.map(|s| {
            let mut b = s.buffer(key, label);
            b.begin(root);
            b
        }))
    }

    /// Runs `f` inside a child span `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        match &mut self.0 {
            Some(b) => {
                b.begin(name);
                let r = f();
                b.end();
                r
            }
            None => f(),
        }
    }
}

/// The metrics of one kind: (name, unit, value), in table order.
fn metrics(run: &Run, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let (names, values): (&[(&'static str, &'static str)], Vec<f64>) = if trace {
        (&PER_LAYER, run.per_layer())
    } else {
        (&END_TO_END, run.end_to_end())
    };
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// Renders the result line: one JSON object with `correct`,
/// `attempted`, `failed` and the metrics of the requested kind.
pub fn result_json(run: &Run, trace: bool) -> String {
    let fields: Vec<String> = metrics(run, trace)
        .into_iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                xsynth::trace::json::number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failures.is_empty() && run.attempted > 0,
        run.attempted,
        run.failures.len(),
        fields.join(", ")
    )
}

/// Renders the metrics as an aligned table for people.
pub fn table(run: &Run, trace: bool) -> String {
    metrics(run, trace)
        .into_iter()
        .map(|(name, unit, v)| format!("  {name:<26} {v:>14.6} {unit}\n"))
        .collect()
}
