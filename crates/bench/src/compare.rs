//! Suite-vs-suite regression comparison — the logic behind the
//! `bench_compare` binary and the CI perf/quality gate.
//!
//! Quality metrics (literal/gate counts, verification status) are
//! deterministic, so *any* worsening is a regression. Time and memory are
//! noisy, so they regress only when the new value exceeds the old by both
//! a relative threshold (`--max-regress-pct`) *and* an absolute floor —
//! a millisecond-scale benchmark jittering by 30% must not fail CI, but a
//! 10% slide on a 10-second benchmark must.

use crate::telemetry::{BenchRecord, BenchSuite};

/// Thresholds governing when a delta counts as a regression.
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Relative threshold (percent) for noisy metrics (time, memory).
    pub max_regress_pct: f64,
    /// Absolute floor (seconds) a time delta must also exceed.
    pub time_floor_seconds: f64,
    /// Absolute floor (kB) a peak-RSS delta must also exceed.
    pub mem_floor_kb: f64,
    /// Absolute floor (nodes) a peak-BDD-node delta must also exceed.
    pub node_floor: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            max_regress_pct: 10.0,
            // sub-second benchmarks jitter well past 10% between runs on a
            // shared machine; a real algorithmic slowdown on the slower
            // circuits clears a quarter second easily
            time_floor_seconds: 0.25,
            // peak RSS carries allocator/OS noise in the single-digit-MB
            // range even after a high-water-mark reset; only blowups
            // (BDD explosions run to hundreds of MB) should trip the gate
            mem_floor_kb: 51_200.0,
            node_floor: 1024.0,
        }
    }
}

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Deterministic: any increase is a regression.
    Exact,
    /// Noisy: regression requires pct threshold + absolute floor.
    Noisy,
}

/// One metric's old/new pair for one (benchmark, flow).
#[derive(Debug, Clone)]
pub struct Delta {
    /// Benchmark name.
    pub name: String,
    /// Flow label.
    pub flow: String,
    /// Metric name (`map_lits`, `median_seconds`, `mem.peak_rss_kb`, …).
    pub metric: String,
    /// How the metric is judged.
    pub kind: MetricKind,
    /// Old (baseline) value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Whether this delta crosses the regression thresholds.
    pub regressed: bool,
}

impl Delta {
    /// Relative change in percent (positive = grew).
    pub fn pct(&self) -> f64 {
        if self.old == 0.0 {
            if self.new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            100.0 * (self.new - self.old) / self.old
        }
    }
}

/// Outcome of comparing two suites.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// All metric pairs that changed, plus every regression.
    pub deltas: Vec<Delta>,
    /// (name, flow) pairs present in the baseline but missing from the
    /// new suite — always a regression (coverage shrank).
    pub missing: Vec<(String, String)>,
    /// (name, flow) pairs new in the new suite — informational.
    pub added: Vec<(String, String)>,
}

impl CompareReport {
    /// The deltas that crossed a threshold.
    pub fn regressions(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.regressed).collect()
    }

    /// Whether anything regressed (including lost coverage).
    pub fn has_regressions(&self) -> bool {
        !self.missing.is_empty() || self.deltas.iter().any(|d| d.regressed)
    }
}

/// Compares `new` against the `old` baseline.
pub fn compare_suites(old: &BenchSuite, new: &BenchSuite, opts: &CompareOptions) -> CompareReport {
    let mut report = CompareReport::default();
    for o in &old.records {
        match new.find(&o.name, &o.flow) {
            Some(n) => compare_records(o, n, opts, &mut report),
            None => report.missing.push((o.name.clone(), o.flow.clone())),
        }
    }
    for n in &new.records {
        if old.find(&n.name, &n.flow).is_none() {
            report.added.push((n.name.clone(), n.flow.clone()));
        }
    }
    report
}

fn compare_records(
    o: &BenchRecord,
    n: &BenchRecord,
    opts: &CompareOptions,
    report: &mut CompareReport,
) {
    let mut push = |metric: &str, kind: MetricKind, old: f64, new: f64, floor: f64| {
        let regressed = match kind {
            MetricKind::Exact => new > old,
            MetricKind::Noisy => {
                new - old > floor && old > 0.0 && new > old * (1.0 + opts.max_regress_pct / 100.0)
            }
        };
        if regressed || new != old {
            report.deltas.push(Delta {
                name: o.name.clone(),
                flow: o.flow.clone(),
                metric: metric.to_string(),
                kind,
                old,
                new,
                regressed,
            });
        }
    };

    push(
        "premap_lits",
        MetricKind::Exact,
        o.premap_lits as f64,
        n.premap_lits as f64,
        0.0,
    );
    push(
        "map_gates",
        MetricKind::Exact,
        o.map_gates as f64,
        n.map_gates as f64,
        0.0,
    );
    push(
        "map_lits",
        MetricKind::Exact,
        o.map_lits as f64,
        n.map_lits as f64,
        0.0,
    );
    push("power", MetricKind::Exact, o.power, n.power, 0.0);
    // a salvaged output means the pipeline degraded somewhere — any
    // increase is a quality regression even though the result verified
    push(
        "salvaged",
        MetricKind::Exact,
        o.salvaged as f64,
        n.salvaged as f64,
        0.0,
    );
    // likewise for factored emissions that failed their self-check and
    // were rolled back (an absent counter reads as 0)
    let rolled = |r: &BenchRecord| *r.counters.get("rewrite.rolled_back").unwrap_or(&0) as f64;
    push(
        "rewrite.rolled_back",
        MetricKind::Exact,
        rolled(o),
        rolled(n),
        0.0,
    );
    // verification confidence may only go up; compare negated ranks so
    // "higher is worse" matches the Exact rule
    push(
        "verified",
        MetricKind::Exact,
        -(o.verified.rank() as f64),
        -(n.verified.rank() as f64),
        0.0,
    );
    push(
        "median_seconds",
        MetricKind::Noisy,
        o.median_seconds,
        n.median_seconds,
        opts.time_floor_seconds,
    );
    // latency percentiles (schema v3) are histogram-bucket estimates of
    // wall-clock time, so they gate like the other timings: relative
    // threshold plus the absolute time floor. Old baselines carry 0 and
    // compare as "new" without regressing (the Noisy rule needs old > 0).
    push(
        "latency_p50_seconds",
        MetricKind::Noisy,
        o.latency_p50_seconds,
        n.latency_p50_seconds,
        opts.time_floor_seconds,
    );
    push(
        "latency_p99_seconds",
        MetricKind::Noisy,
        o.latency_p99_seconds,
        n.latency_p99_seconds,
        opts.time_floor_seconds,
    );
    for (gauge, floor) in [
        ("mem.peak_rss_kb", opts.mem_floor_kb),
        ("bdd.peak_nodes", opts.node_floor),
        // the end-of-run resident node count: with garbage-collected spec
        // builds this is live cones only, so growth here means the
        // substrate is accumulating dead intermediates again
        ("bdd.nodes", opts.node_floor),
    ] {
        if let (Some(&ov), Some(&nv)) = (o.gauges.get(gauge), n.gauges.get(gauge)) {
            push(gauge, MetricKind::Noisy, ov, nv, floor);
        }
    }
}

/// Renders the delta table: one line per changed metric, regressions
/// flagged, followed by coverage changes and a verdict line.
pub fn render_compare(report: &CompareReport, opts: &CompareOptions) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<12} {:<9} {:<16} {:>12} {:>12} {:>9}  verdict\n",
        "circuit", "flow", "metric", "old", "new", "delta%"
    ));
    s.push_str(&"-".repeat(86));
    s.push('\n');
    for d in &report.deltas {
        let (old, new) = if d.metric == "verified" {
            // shown as ranks; un-negate for readability
            (format!("{}", -d.old), format!("{}", -d.new))
        } else {
            (trim_num(d.old), trim_num(d.new))
        };
        let verdict = if d.regressed {
            "REGRESSED"
        } else if d.new < d.old {
            "improved"
        } else {
            "ok (within threshold)"
        };
        let pct = d.pct();
        let pct = if pct.is_finite() {
            format!("{pct:+.1}")
        } else {
            "new".to_string()
        };
        s.push_str(&format!(
            "{:<12} {:<9} {:<16} {:>12} {:>12} {:>9}  {}\n",
            d.name, d.flow, d.metric, old, new, pct, verdict
        ));
    }
    if report.deltas.is_empty() {
        s.push_str("(no metric changed)\n");
    }
    for (name, flow) in &report.missing {
        s.push_str(&format!(
            "{name:<12} {flow:<9} MISSING from new suite  REGRESSED\n"
        ));
    }
    for (name, flow) in &report.added {
        s.push_str(&format!("{name:<12} {flow:<9} new in this suite\n"));
    }
    let n_reg = report.regressions().len() + report.missing.len();
    if n_reg == 0 {
        s.push_str(&format!(
            "\nOK: no regressions (threshold {:.0}%, time floor {:.0}ms)\n",
            opts.max_regress_pct,
            opts.time_floor_seconds * 1e3
        ));
    } else {
        s.push_str(&format!("\nFAIL: {n_reg} regression(s)\n"));
    }
    s
}

fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Runs the `bench_compare` command line: parses args, loads both suites,
/// prints the delta table. Returns the process exit code (0 ok,
/// 1 regression, 2 usage, 3 parse error, 4 I/O error), so the binary is a
/// one-liner and tests can drive the real thing via `CARGO_BIN_EXE_`.
pub fn run_compare_cli(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    let mut paths: Vec<&String> = Vec::new();
    let mut opts = CompareOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--max-regress-pct" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    let _ = writeln!(out, "error: --max-regress-pct needs a number");
                    return 2;
                };
                opts.max_regress_pct = v;
            }
            "--time-floor-ms" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    let _ = writeln!(out, "error: --time-floor-ms needs a number");
                    return 2;
                };
                opts.time_floor_seconds = v / 1e3;
            }
            "--mem-floor-kb" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|s| s.parse::<f64>().ok()) else {
                    let _ = writeln!(out, "error: --mem-floor-kb needs a number");
                    return 2;
                };
                opts.mem_floor_kb = v;
            }
            "--help" | "-h" => {
                let _ = writeln!(out, "{USAGE}");
                return 0;
            }
            a if a.starts_with("--") => {
                let _ = writeln!(out, "error: unknown flag {a}\n{USAGE}");
                return 2;
            }
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    let [old_path, new_path] = paths[..] else {
        let _ = writeln!(out, "{USAGE}");
        return 2;
    };
    let mut load = |path: &str| -> Result<BenchSuite, i32> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            let _ = writeln!(out, "error: cannot read {path}: {e}");
            4
        })?;
        BenchSuite::from_json(&text).map_err(|e| {
            let _ = writeln!(out, "error: {path}: {e}");
            3
        })
    };
    let old = match load(old_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let new = match load(new_path) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let report = compare_suites(&old, &new, &opts);
    let _ = write!(out, "{}", render_compare(&report, &opts));
    i32::from(report.has_regressions())
}

const USAGE: &str = "usage: bench_compare <old.json> <new.json> \
[--max-regress-pct N] [--time-floor-ms N] [--mem-floor-kb N]";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifyStatus;

    fn rec(name: &str, lits: u64, secs: f64) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            flow: "fprm".into(),
            map_lits: lits,
            median_seconds: secs,
            verified: VerifyStatus::Verified,
            runs: 1,
            ..Default::default()
        }
    }

    fn suite(records: Vec<BenchRecord>) -> BenchSuite {
        BenchSuite {
            suite: "t".into(),
            records,
        }
    }

    #[test]
    fn identical_suites_have_no_regressions() {
        let s = suite(vec![rec("a", 10, 1.0)]);
        let r = compare_suites(&s, &s, &CompareOptions::default());
        assert!(!r.has_regressions());
        assert!(r.deltas.is_empty());
    }

    #[test]
    fn quality_regressions_are_exact() {
        let old = suite(vec![rec("a", 10, 1.0)]);
        let new = suite(vec![rec("a", 11, 1.0)]);
        let r = compare_suites(&old, &new, &CompareOptions::default());
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "map_lits");
        // an improvement is recorded but is not a regression
        let r = compare_suites(&new, &old, &CompareOptions::default());
        assert!(!r.has_regressions());
        assert_eq!(r.deltas.len(), 1);
    }

    #[test]
    fn time_needs_threshold_and_floor() {
        let opts = CompareOptions::default(); // 10%, 250ms floor
        let old = suite(vec![rec("a", 10, 1.0)]);
        // +30% over a 1s baseline: regression
        let r = compare_suites(&old, &suite(vec![rec("a", 10, 1.3)]), &opts);
        assert!(r.has_regressions());
        // +5%: within threshold
        let r = compare_suites(&old, &suite(vec![rec("a", 10, 1.05)]), &opts);
        assert!(!r.has_regressions());
        // +300% on a millisecond benchmark: under the absolute floor
        let tiny_old = suite(vec![rec("a", 10, 0.004)]);
        let r = compare_suites(&tiny_old, &suite(vec![rec("a", 10, 0.016)]), &opts);
        assert!(!r.has_regressions());
    }

    #[test]
    fn latency_percentiles_gate_like_time() {
        let opts = CompareOptions::default(); // 10%, 250ms floor
        let mut base = rec("a", 10, 1.0);
        base.latency_p50_seconds = 1.0;
        base.latency_p99_seconds = 1.0;
        let old = suite(vec![base.clone()]);
        // p99 doubling over a 1s baseline: regression
        let mut worse = base.clone();
        worse.latency_p99_seconds = 2.0;
        let r = compare_suites(&old, &suite(vec![worse]), &opts);
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "latency_p99_seconds");
        // one-bucket jitter on a millisecond benchmark: under the floor
        let mut tiny_old = rec("a", 10, 0.004);
        tiny_old.latency_p50_seconds = 0.004;
        let mut tiny_new = rec("a", 10, 0.004);
        tiny_new.latency_p50_seconds = 0.008;
        let r = compare_suites(&suite(vec![tiny_old]), &suite(vec![tiny_new]), &opts);
        assert!(!r.has_regressions());
        // a v2-era baseline reads 0 and never trips the Noisy rule
        let mut zeroed = base.clone();
        zeroed.latency_p50_seconds = 0.0;
        zeroed.latency_p99_seconds = 0.0;
        let r = compare_suites(&suite(vec![zeroed]), &suite(vec![base]), &opts);
        assert!(!r.has_regressions());
    }

    #[test]
    fn verification_downgrade_is_a_regression() {
        let old = suite(vec![rec("a", 10, 1.0)]);
        let mut worse = rec("a", 10, 1.0);
        worse.verified = VerifyStatus::Downgraded;
        let r = compare_suites(&old, &suite(vec![worse]), &CompareOptions::default());
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "verified");
    }

    #[test]
    fn missing_record_is_a_regression_added_is_not() {
        let old = suite(vec![rec("a", 10, 1.0)]);
        let new = suite(vec![rec("b", 10, 1.0)]);
        let r = compare_suites(&old, &new, &CompareOptions::default());
        assert!(r.has_regressions());
        assert_eq!(r.missing, vec![("a".to_string(), "fprm".to_string())]);
        assert_eq!(r.added, vec![("b".to_string(), "fprm".to_string())]);
        let text = render_compare(&r, &CompareOptions::default());
        assert!(text.contains("MISSING"));
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn salvage_counts_as_quality_regression() {
        let old = suite(vec![rec("a", 10, 1.0)]);
        let mut worse = rec("a", 10, 1.0);
        worse.salvaged = 1;
        let r = compare_suites(&old, &suite(vec![worse]), &CompareOptions::default());
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "salvaged");
        let mut rolled = rec("a", 10, 1.0);
        rolled.counters.insert("rewrite.rolled_back".into(), 2);
        let r = compare_suites(&old, &suite(vec![rolled]), &CompareOptions::default());
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "rewrite.rolled_back");
    }

    #[test]
    fn memory_gauge_compares_when_present() {
        let mut old_r = rec("a", 10, 1.0);
        old_r.gauges.insert("mem.peak_rss_kb".into(), 100_000.0);
        let mut new_r = rec("a", 10, 1.0);
        new_r.gauges.insert("mem.peak_rss_kb".into(), 400_000.0);
        let r = compare_suites(
            &suite(vec![old_r]),
            &suite(vec![new_r]),
            &CompareOptions::default(),
        );
        assert!(r.has_regressions());
        assert_eq!(r.regressions()[0].metric, "mem.peak_rss_kb");
    }

    #[test]
    fn mem_floor_flag_tightens_the_memory_gate() {
        // a 2× blow-up from 25 MB to 50 MB: under the default 50 MB floor
        // it is noise, but `--mem-floor-kb 20480` must flag it
        let mut old_r = rec("a", 10, 1.0);
        old_r.gauges.insert("mem.peak_rss_kb".into(), 25_600.0);
        let mut new_r = rec("a", 10, 1.0);
        new_r.gauges.insert("mem.peak_rss_kb".into(), 51_200.0);
        let dir = std::env::temp_dir().join("xsynth_mem_floor_test");
        std::fs::create_dir_all(&dir).unwrap();
        let old_path = dir.join("old.json");
        let new_path = dir.join("new.json");
        std::fs::write(&old_path, suite(vec![old_r]).to_json()).unwrap();
        std::fs::write(&new_path, suite(vec![new_r]).to_json()).unwrap();
        let base: Vec<String> = vec![
            old_path.display().to_string(),
            new_path.display().to_string(),
        ];
        let mut out = Vec::new();
        assert_eq!(run_compare_cli(&base, &mut out), 0);
        let mut args = base.clone();
        args.extend(["--mem-floor-kb".to_string(), "20480".to_string()]);
        let mut out = Vec::new();
        assert_eq!(run_compare_cli(&args, &mut out), 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("mem.peak_rss_kb"), "{text}");
        let mut bad = base.clone();
        bad.push("--mem-floor-kb".to_string());
        let mut out = Vec::new();
        assert_eq!(run_compare_cli(&bad, &mut out), 2);
    }
}
