//! Benchmark harness reproducing the paper's evaluation (Table 2 and the
//! worked examples).
//!
//! The harness runs two flows over the rebuilt IWLS'91 suite:
//!
//! * the **baseline** — the SIS-style SOP script from [`xsynth_sop`]
//!   (standing in for the best of `rugged`/`boolean`/`algebraic`), and
//! * **ours** — the paper's FPRM flow from [`xsynth_core`],
//!
//! then measures literals before mapping (two-input AND/OR form, XOR = 3
//! gates), gate/literal counts after technology mapping onto the mcnc-like
//! library, the `power_estimate` model, wall-clock time (split into
//! synthesis / mapping / verification), and functional equivalence of
//! every result against the specification. Each result is proven once: the
//! FPRM job proves its own ([`SynthReport::proof`]), and the harness
//! proves only the baseline's, which has no proof of its own.
//!
//! The `table2` binary measures through one path, [`measure_flow`],
//! which also produces the machine-readable [`telemetry::BenchRecord`] persisted as
//! `BENCH_*.json` and gated in CI by `bench_compare` (see [`compare`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod telemetry;

use std::time::Instant;
use xsynth_circuits::{registry, Benchmark};
use xsynth_core::{
    phase, prove_equivalence, try_synthesize, Budget, Error, PhaseProfile, SynthOptions,
    SynthOutcome, SynthReport,
};
use xsynth_map::{map_network, Library};
use xsynth_net::Network;
use xsynth_sim::power_estimate;
use xsynth_sop::script_algebraic_traced;
use xsynth_trace::TraceSink;

pub use telemetry::{BenchRecord, BenchSuite, SCHEMA_VERSION};
pub use xsynth_core::VerifyStatus;

/// BDD node cap for the harness's proof of a result whose flow has none
/// of its own. Generous enough that every registry circuit verifies
/// exactly today; a pathological case trips it and degrades to
/// fixed-seed simulation (`verified: "downgraded"`) instead of stalling
/// the whole sweep.
pub const VERIFY_NODE_CAP: usize = 4_000_000;

/// Which flow [`measure_flow`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The paper's FPRM pipeline ([`xsynth_core::try_synthesize`]).
    Fprm,
    /// The SIS-style SOP baseline ([`xsynth_sop::script_algebraic`]).
    Sop,
}

/// Options for the shared measurement path.
#[derive(Debug, Clone)]
pub struct MeasureOptions {
    /// Timed synthesis repetitions (median/min are taken over these).
    pub runs: usize,
    /// FPRM flow options.
    pub synth: SynthOptions,
}

impl Default for MeasureOptions {
    fn default() -> Self {
        MeasureOptions {
            runs: 1,
            synth: SynthOptions::default(),
        }
    }
}

/// One measured flow: its [`BenchRecord`] and the synthesized network.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The telemetry record (persisted in `BENCH_*.json`, rendered by
    /// [`render_table2`]).
    pub record: BenchRecord,
    /// The synthesized network of the recorded (last) run.
    pub network: Network,
}

/// The shared measurement path: synthesizes `spec` `opts.runs` times
/// (keeping the last result — all runs are deterministic), evaluates it
/// once, and assembles the [`BenchRecord`] with median/min wall-clock,
/// per-phase durations, counter totals, trace gauge maxima, and the
/// process peak-RSS gauge. A result without a proof of its own (the SOP
/// baseline's) is proven here under [`VERIFY_NODE_CAP`], timed as the
/// record's `verify_seconds`.
///
/// # Errors
///
/// The FPRM flow's synthesis error, when it fails.
pub fn measure_flow(
    name: &str,
    spec: &Network,
    flow: Flow,
    flow_label: &str,
    lib: &Library,
    opts: &MeasureOptions,
) -> Result<Measured, Error> {
    let runs = opts.runs.max(1);
    // Scope the peak-RSS gauge to this measurement. The scope guard is the
    // daemon-safe form of the old process-wide reset: the outermost live
    // scope resets the high-water mark, overlapping measurements (serve
    // jobs in flight) observe shared upper bounds instead of truncating
    // each other mid-read.
    let _mem_scope = xsynth_trace::mem::MemScope::begin();
    let mut times = Vec::with_capacity(runs);
    loop {
        let t0 = Instant::now();
        let (network, mut report) = match flow {
            Flow::Fprm => {
                let SynthOutcome { network, report } = try_synthesize(spec, &opts.synth)?;
                (network, report)
            }
            Flow::Sop => run_sop(spec),
        };
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == runs {
            let mut verify_seconds = 0.0;
            if report.proof.is_none() {
                let t_verify = Instant::now();
                let budget = Budget::default().bdd_node_cap(Some(VERIFY_NODE_CAP));
                let proof = prove_equivalence(spec, &network, &budget);
                report.proof = Some(proof.unwrap_or_default());
                verify_seconds = t_verify.elapsed().as_secs_f64();
            }
            let mut measured = record_from_run(name, flow_label, network, report, &times, lib);
            measured.record.verify_seconds = verify_seconds;
            return Ok(measured);
        }
    }
}

/// Runs the SOP baseline ([`xsynth_sop::script_algebraic_traced`]) under
/// a [`phase::SYNTHESIZE`] root span, so its report carries the script's
/// trace and a [`PhaseProfile`] of its steps (`eliminate`, `simplify`,
/// `extract`, `lower`); the report's other fields stay empty, [`SynthReport::proof`]
/// too: the baseline makes no proof of its own.
pub fn run_sop(spec: &Network) -> (Network, SynthReport) {
    let sink = TraceSink::new();
    let network = sink
        .buffer(0, "sop")
        .span(phase::SYNTHESIZE, |buf| script_algebraic_traced(spec, buf));
    let mut report = SynthReport::default();
    report.trace = sink.take();
    report.profile = PhaseProfile::from_trace(&report.trace);
    (network, report)
}

/// Assembles a [`Measured`] from an already-synthesized network — the
/// tail of [`measure_flow`], also used by the CLI's `--bench-json` and the
/// daemon's `telemetry` reply so the record describes the exact run they
/// performed. The network goes through mapping and the power model, timed
/// together. Nothing is proven here: the record's `verified` is the
/// report's [`SynthReport::proof`], `failed` when it has none, so a caller
/// whose flow makes no proof of its own proves the result first
/// ([`prove_equivalence`]) and stores the status there. `verify_seconds`
/// is left at 0 for the caller that made such a proof to fill in.
pub fn record_from_run(
    name: &str,
    flow_label: &str,
    network: Network,
    report: SynthReport,
    synth_times: &[f64],
    lib: &Library,
) -> Measured {
    let (premap_gates, premap_lits) = network.two_input_cost();
    let t_map = Instant::now();
    let mapped = map_network(&network, lib);
    let power = power_estimate(&mapped.to_network(lib)).total;
    let map_seconds = t_map.elapsed().as_secs_f64();
    let mut record = BenchRecord {
        name: name.to_string(),
        flow: flow_label.to_string(),
        premap_gates: premap_gates as u64,
        premap_lits: premap_lits as u64,
        map_gates: mapped.num_gates() as u64,
        map_lits: mapped.num_literals() as u64,
        map_area: mapped.area(),
        power,
        verified: report.proof.unwrap_or_default(),
        salvaged: report.salvaged.len() as u64,
        runs: synth_times.len() as u64,
        median_seconds: median(synth_times),
        min_seconds: synth_times.iter().copied().fold(f64::INFINITY, f64::min),
        synth_seconds: synth_times.last().copied().unwrap_or(0.0),
        latency_p50_seconds: latency_quantile(synth_times, 0.50),
        latency_p99_seconds: latency_quantile(synth_times, 0.99),
        map_seconds,
        verify_seconds: 0.0,
        phases: report
            .profile
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.duration.as_secs_f64()))
            .collect(),
        counters: report.trace.counter_totals(),
        gauges: report.trace.gauge_maxima(),
    };
    if !record.min_seconds.is_finite() {
        record.min_seconds = 0.0;
    }
    // sampled by the harness, not the pipeline trace: peak RSS is
    // process-wide and nondeterministic, so it must never enter the trace
    // the repeatability tests compare
    if let Some(kb) = xsynth_trace::mem::peak_rss_kb() {
        record
            .gauges
            .insert("mem.peak_rss_kb".to_string(), kb as f64);
    }
    Measured { record, network }
}

/// Latency percentile via the shared fixed-bucket log-scale histogram
/// (`xsynth_trace::Histogram`), so the bench schema's percentile fields
/// use the exact same estimator the serve daemon's `metrics` exposition
/// derives p50/p99 from: the upper bound of the bucket holding the rank.
fn latency_quantile(xs: &[f64], q: f64) -> f64 {
    let mut hist = xsynth_trace::Histogram::new();
    for &x in xs {
        hist.observe(x);
    }
    hist.quantile(q)
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The FPRM pipeline's phases in the order they run, then the SOP
/// baseline's steps.
const PIPELINE_ORDER: [&str; 9] = [
    phase::FPRM,
    phase::FACTORING,
    phase::VERIFY,
    phase::SHARING,
    phase::REDUNDANCY,
    "eliminate",
    "simplify",
    "extract",
    "lower",
];

/// Renders a one-line phase-timing breakdown from a record: each phase's
/// milliseconds in pipeline order, plus the polarity-search counters (the
/// extraction counters for the SOP baseline). Returns `None` when the
/// record has no phases.
pub fn render_phases(r: &BenchRecord) -> Option<String> {
    if r.phases.is_empty() {
        return None;
    }
    let mut phases: Vec<(&String, &f64)> = r.phases.iter().collect();
    phases.sort_by_key(|(name, _)| {
        PIPELINE_ORDER
            .iter()
            .position(|p| p == name)
            .unwrap_or(PIPELINE_ORDER.len())
    });
    let mut s = String::new();
    for (name, seconds) in phases {
        s.push_str(&format!("{name} {:.1}ms ", seconds * 1e3));
    }
    let counter = |name: &str| r.counters.get(name).copied().unwrap_or(0);
    s.push_str(&if r.flow == "sop" {
        format!("(extracted {})", counter("sop.extracted"))
    } else {
        format!(
            "(polarity: {} eval, {} memo)",
            counter("polarity.evaluated"),
            counter("polarity.memo_hit"),
        )
    });
    Some(s)
}

/// One completed Table 2 row: both flows on one benchmark.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// The benchmark (with the paper's reference numbers).
    pub bench: Benchmark,
    /// Baseline (SIS-style) record.
    pub sop: BenchRecord,
    /// FPRM-flow record.
    pub fprm: BenchRecord,
}

impl Table2Row {
    /// Percentage improvement of mapped literals (positive = FPRM wins),
    /// the paper's `improve%lits` column.
    pub fn improve_lits(&self) -> f64 {
        percent(self.sop.map_lits as f64, self.fprm.map_lits as f64)
    }

    /// Percentage improvement of estimated power.
    pub fn improve_power(&self) -> f64 {
        percent(self.sop.power, self.fprm.power)
    }
}

fn percent(base: f64, ours: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        100.0 * (base - ours) / base
    }
}

/// Runs both flows over the registry (optionally restricted to names in
/// `filter`), returning the human-facing rows *and* the telemetry suite
/// from the same measurements.
///
/// # Errors
///
/// The first circuit whose FPRM synthesis fails.
pub fn run_suite(
    filter: Option<&[&str]>,
    suite_label: &str,
    opts: &MeasureOptions,
) -> Result<(Vec<Table2Row>, BenchSuite), Error> {
    let lib = Library::mcnc();
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for bench in registry() {
        if let Some(f) = filter {
            if !f.contains(&bench.name) {
                continue;
            }
        }
        let spec = xsynth_circuits::build(bench.name).expect("registered circuit builds");
        let sop = measure_flow(bench.name, &spec, Flow::Sop, "sop", &lib, opts)?;
        let fprm = measure_flow(bench.name, &spec, Flow::Fprm, "fprm", &lib, opts)?;
        records.push(sop.record.clone());
        records.push(fprm.record.clone());
        rows.push(Table2Row {
            bench,
            sop: sop.record,
            fprm: fprm.record,
        });
    }
    Ok((
        rows,
        BenchSuite {
            suite: suite_label.to_string(),
            records,
        },
    ))
}

/// Renders rows in the paper's Table 2 layout, with subtotals and the
/// paper's reference improvements alongside.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:>7} | {:>6} {:>7} | {:>6} {:>7} | {:>5} {:>5} | {:>5} {:>5} | {:>6} {:>6} | {:>6} {:>6} | {}\n",
        "circuit", "I/O", "base", "t(s)", "ours", "t(s)", "bGate", "bLits", "oGate", "oLits",
        "impr%L", "papr%L", "impr%P", "papr%P", "ok"
    ));
    s.push_str(&"-".repeat(132));
    s.push('\n');
    let emit_group = |s: &mut String, rows: &[&Table2Row], label: &str| {
        let sum = |f: &dyn Fn(&Table2Row) -> f64| rows.iter().map(|r| f(r)).sum::<f64>();
        let b_lits = sum(&|r| r.sop.map_lits as f64);
        let o_lits = sum(&|r| r.fprm.map_lits as f64);
        let b_pow = sum(&|r| r.sop.power);
        let o_pow = sum(&|r| r.fprm.power);
        let avg_l = rows.iter().map(|r| r.improve_lits()).sum::<f64>() / rows.len().max(1) as f64;
        let avg_p = rows.iter().map(|r| r.improve_power()).sum::<f64>() / rows.len().max(1) as f64;
        s.push_str(&format!(
            "{:<10} {:>7} | {:>6.0} {:>7.2} | {:>6.0} {:>7.2} | {:>5.0} {:>5.0} | {:>5.0} {:>5.0} | {:>6.1} {:>6} | {:>6.1} {:>6} | (avg impr {:.1}%L {:.1}%P)\n",
            label,
            rows.len(),
            sum(&|r| r.sop.premap_lits as f64),
            sum(&|r| r.sop.synth_seconds),
            sum(&|r| r.fprm.premap_lits as f64),
            sum(&|r| r.fprm.synth_seconds),
            sum(&|r| r.sop.map_gates as f64),
            b_lits,
            sum(&|r| r.fprm.map_gates as f64),
            o_lits,
            percent(b_lits, o_lits),
            "",
            percent(b_pow, o_pow),
            "",
            avg_l,
            avg_p,
        ));
    };
    for r in rows {
        let flag = if r.bench.substituted { "~" } else { " " };
        s.push_str(&format!(
            "{:<9}{} {:>3}/{:<3} | {:>6} {:>7.2} | {:>6} {:>7.2} | {:>5} {:>5} | {:>5} {:>5} | {:>6.0} {:>6} | {:>6.0} {:>6} | {}{}\n",
            r.bench.name,
            flag,
            r.bench.io.0,
            r.bench.io.1,
            r.sop.premap_lits,
            r.sop.synth_seconds,
            r.fprm.premap_lits,
            r.fprm.synth_seconds,
            r.sop.map_gates,
            r.sop.map_lits,
            r.fprm.map_gates,
            r.fprm.map_lits,
            r.improve_lits(),
            r.bench.paper.improve_lits,
            r.improve_power(),
            r.bench.paper.improve_power,
            match r.sop.verified {
                VerifyStatus::Verified => "",
                VerifyStatus::Downgraded => "base~ ",
                VerifyStatus::Failed => "BASE-UNVERIFIED ",
            },
            match r.fprm.verified {
                VerifyStatus::Verified => "ok",
                VerifyStatus::Downgraded => "ok~ (sim only)",
                VerifyStatus::Failed => "FPRM-UNVERIFIED",
            },
        ));
    }
    s.push_str(&"-".repeat(132));
    s.push('\n');
    let arith: Vec<&Table2Row> = rows.iter().filter(|r| r.bench.arithmetic).collect();
    let all: Vec<&Table2Row> = rows.iter().collect();
    if !arith.is_empty() {
        emit_group(&mut s, &arith, "Σ arith");
    }
    emit_group(&mut s, &all, "Σ all");
    s.push_str("~ = substituted synthetic circuit (original MCNC function not public)\n");
    for (flow, sop) in [("the FPRM flow", false), ("the SOP baseline", true)] {
        s.push_str(&format!(
            "\nper-phase timings of {flow} (from SynthReport):\n"
        ));
        for r in rows {
            if let Some(phases) = render_phases(if sop { &r.sop } else { &r.fprm }) {
                s.push_str(&format!("{:<10} {phases}\n", r.bench.name));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsynth_core::phase;

    #[test]
    fn harness_runs_small_circuits() {
        let (rows, _) = run_suite(
            Some(&["z4ml", "f2", "majority"]),
            "table2",
            &MeasureOptions::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(
                r.sop.verified,
                VerifyStatus::Verified,
                "{} baseline unverified",
                r.bench.name
            );
            assert_eq!(
                r.fprm.verified,
                VerifyStatus::Verified,
                "{} fprm unverified",
                r.bench.name
            );
            assert!(r.fprm.map_lits > 0);
            assert!(r.fprm.map_seconds >= 0.0 && r.fprm.verify_seconds >= 0.0);
        }
        let text = render_table2(&rows);
        assert!(text.contains("z4ml"));
        assert!(text.contains("Σ all"));
    }

    #[test]
    fn t481_fprm_flow_crushes_baseline() {
        let (rows, _) = run_suite(Some(&["t481"]), "table2", &MeasureOptions::default()).unwrap();
        let r = &rows[0];
        assert!(r.fprm.verified.passed());
        // the paper reports 50 premap literals for t481; anything in that
        // ballpark demonstrates the reproduction (SIS needed 474)
        assert!(
            r.fprm.premap_lits <= 80,
            "t481 premap lits {} too high",
            r.fprm.premap_lits
        );
    }

    #[test]
    fn measure_flow_fills_the_record() {
        let lib = Library::mcnc();
        let spec = xsynth_circuits::build("z4ml").unwrap();
        let opts = MeasureOptions {
            runs: 3,
            ..Default::default()
        };
        let m = measure_flow("z4ml", &spec, Flow::Fprm, "fprm", &lib, &opts).unwrap();
        let r = &m.record;
        assert_eq!(
            (r.name.as_str(), r.flow.as_str(), r.runs),
            ("z4ml", "fprm", 3)
        );
        assert_eq!(r.verified, VerifyStatus::Verified);
        assert!(r.min_seconds <= r.median_seconds);
        assert!(r.premap_lits > 0 && r.map_lits > 0);
        assert!(r.phases.contains_key(phase::FPRM), "phases: {:?}", r.phases);
        assert!(
            r.gauges.contains_key("bdd.peak_nodes") && r.gauges.contains_key("net.gates"),
            "gauges: {:?}",
            r.gauges
        );
        #[cfg(target_os = "linux")]
        assert!(r.gauges["mem.peak_rss_kb"] > 0.0);
        // the SOP flow records its script's steps and the memory gauge
        let m = measure_flow("z4ml", &spec, Flow::Sop, "sop", &lib, &opts).unwrap();
        for step in ["eliminate", "simplify", "extract", "lower"] {
            assert!(m.record.phases.contains_key(step), "{:?}", m.record.phases);
        }
        assert!(render_phases(&m.record).is_some_and(|p| p.contains("(extracted ")));
        #[cfg(target_os = "linux")]
        assert!(m.record.gauges.contains_key("mem.peak_rss_kb"));
    }

    #[test]
    fn run_suite_produces_one_record_per_flow() {
        let (rows, suite) = run_suite(
            Some(&["f2", "majority"]),
            "test",
            &MeasureOptions::default(),
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(suite.records.len(), 4);
        assert!(suite.find("f2", "sop").is_some());
        assert!(suite.find("f2", "fprm").is_some());
        let text = suite.to_json();
        assert_eq!(BenchSuite::from_json(&text).unwrap(), suite);
    }
}
