//! Machine-readable benchmark telemetry: a versioned, serde-free JSON
//! schema for persisted benchmark suites (`BENCH_*.json`).
//!
//! The paper's evaluation is a table of literal/gate counts and CPU
//! seconds; this module makes that table durable and diffable. A
//! [`BenchSuite`] is written with a hand-rolled writer (mirroring the
//! Chrome-trace exporter in `xsynth-trace`) and read back with a *strict*
//! parser built on [`xsynth_trace::json::parse`]: unknown keys, missing
//! keys, duplicate keys, wrong types, and wrong schema versions are all
//! hard errors, so a drifted schema fails loudly in CI rather than
//! silently comparing garbage.
//!
//! Schema (version [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 3,
//!   "suite": "table2",
//!   "records": [
//!     {
//!       "name": "z4ml", "flow": "fprm",
//!       "premap_gates": 16, "premap_lits": 32,
//!       "map_gates": 10, "map_lits": 31, "map_area": 23.0, "power": 6.1,
//!       "verified": "verified", "salvaged": 0,
//!       "runs": 3, "median_seconds": 0.011, "min_seconds": 0.010,
//!       "synth_seconds": 0.011, "latency_p50_seconds": 0.0156,
//!       "latency_p99_seconds": 0.0156,
//!       "map_seconds": 0.001, "verify_seconds": 0.0,
//!       "phases":   { "fprm": 0.008, "factoring": 0.001 },
//!       "counters": { "patterns.generated": 96 },
//!       "gauges":   { "bdd.peak_nodes": 353.0, "mem.peak_rss_kb": 14200.0 }
//!     }
//!   ]
//! }
//! ```
//!
//! Numbers are written with [`xsynth_trace::json::number`], whose finite
//! output round-trips exactly through the parser, so write → parse →
//! write is the identity on well-formed suites.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use xsynth_core::VerifyStatus;
use xsynth_trace::json::{self, Value};

/// Version stamp written into every suite, and the only version
/// [`BenchSuite::from_json`] accepts; bump on breaking changes. Version 2
/// added `salvaged`, version 3 the latency percentiles.
pub const SCHEMA_VERSION: u64 = 3;

/// Everything measured about one (benchmark, flow) pair.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchRecord {
    /// Benchmark name (registry key).
    pub name: String,
    /// Flow label: `"sop"`, `"fprm"`, `"fprm-seq"`, or a CLI engine name.
    pub flow: String,
    /// Two-input AND/OR gates before mapping.
    pub premap_gates: u64,
    /// Literals before mapping (the paper's accounting).
    pub premap_lits: u64,
    /// Mapped cell count.
    pub map_gates: u64,
    /// Mapped literal (pin) count.
    pub map_lits: u64,
    /// Mapped area.
    pub map_area: f64,
    /// Normalized switching power of the mapped netlist.
    pub power: f64,
    /// How the result was proven: the job's own proof, or the one the
    /// harness made for a flow without one.
    pub verified: VerifyStatus,
    /// Outputs the salvage ladder recovered instead of failing the run.
    /// Nonzero means the result is degraded — `bench_compare` treats any
    /// increase as a quality regression.
    pub salvaged: u64,
    /// How many timed synthesis runs the timing stats aggregate.
    pub runs: u64,
    /// Median synthesis wall-clock over `runs` repetitions.
    pub median_seconds: f64,
    /// Minimum synthesis wall-clock over `runs` repetitions.
    pub min_seconds: f64,
    /// Synthesis wall-clock of the recorded (last) run.
    pub synth_seconds: f64,
    /// p50 of the per-run synthesis latencies, estimated from the
    /// fixed-bucket log-scale histogram (bucket upper bound, Prometheus
    /// convention).
    pub latency_p50_seconds: f64,
    /// p99 of the per-run synthesis latencies (same estimator).
    pub latency_p99_seconds: f64,
    /// Technology-mapping + power-model wall-clock.
    pub map_seconds: f64,
    /// Wall-clock of a proof made outside the synthesis job, for a flow
    /// without a proof of its own (the SOP baseline in `table2`). FPRM
    /// records read 0: the job proves its own result, and that proof's
    /// time is in `phases` (`verify`, and the guard inside `redundancy`).
    pub verify_seconds: f64,
    /// Per-phase durations (seconds) from the synthesis span tree.
    pub phases: BTreeMap<String, f64>,
    /// Counter totals from the synthesis trace.
    pub counters: BTreeMap<String, u64>,
    /// Gauge maxima from the synthesis trace, plus `mem.peak_rss_kb`
    /// sampled by the harness (process-wide high-water mark).
    pub gauges: BTreeMap<String, f64>,
}

/// A versioned collection of [`BenchRecord`]s — the unit persisted as
/// `BENCH_*.json` and diffed by `bench_compare`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchSuite {
    /// Label of the producing harness (`"table2"`, `"cli"`).
    pub suite: String,
    /// The records, in production order.
    pub records: Vec<BenchRecord>,
}

impl BenchSuite {
    /// Finds the record for one (benchmark, flow) pair.
    pub fn find(&self, name: &str, flow: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.name == name && r.flow == flow)
    }

    /// Serializes the suite as schema-versioned JSON. The output always
    /// passes [`xsynth_trace::json::validate`]; non-finite floats are
    /// written as `0` (JSON has no NaN/Infinity).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"suite\": \"{}\",", json::escape(&self.suite));
        s.push_str("  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('\n');
            record_json(&mut s, r);
        }
        if !self.records.is_empty() {
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Strictly parses a suite from JSON.
    ///
    /// # Errors
    ///
    /// Rejects syntax errors, a `schema_version` other than
    /// [`SCHEMA_VERSION`], and any missing, unknown, duplicate, or
    /// wrongly-typed field.
    pub fn from_json(src: &str) -> Result<BenchSuite, String> {
        let root = json::parse(src)?;
        let mut top = Fields::new(&root, "suite")?;
        let version = top.u64("schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
            ));
        }
        let suite = top.string("suite")?;
        let records_v = top.required("records")?;
        let items = records_v
            .as_arr()
            .ok_or_else(|| format!("field 'records': expected array, got {records_v}"))?;
        top.finish()?;
        let mut records = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            records.push(record_from_value(item).map_err(|e| format!("records[{i}]: {e}"))?);
        }
        Ok(BenchSuite { suite, records })
    }
}

fn record_json(s: &mut String, r: &BenchRecord) {
    let _ = write!(s, "    {{\"name\": \"{}\"", json::escape(&r.name));
    let _ = write!(s, ", \"flow\": \"{}\"", json::escape(&r.flow));
    let _ = write!(s, ", \"premap_gates\": {}", r.premap_gates);
    let _ = write!(s, ", \"premap_lits\": {}", r.premap_lits);
    let _ = write!(s, ", \"map_gates\": {}", r.map_gates);
    let _ = write!(s, ", \"map_lits\": {}", r.map_lits);
    let _ = write!(s, ", \"map_area\": {}", json::number(r.map_area));
    let _ = write!(s, ", \"power\": {}", json::number(r.power));
    let _ = write!(s, ", \"verified\": \"{}\"", r.verified.as_str());
    let _ = write!(s, ", \"salvaged\": {}", r.salvaged);
    let _ = write!(s, ", \"runs\": {}", r.runs);
    let _ = write!(
        s,
        ", \"median_seconds\": {}",
        json::number(r.median_seconds)
    );
    let _ = write!(s, ", \"min_seconds\": {}", json::number(r.min_seconds));
    let _ = write!(s, ", \"synth_seconds\": {}", json::number(r.synth_seconds));
    let _ = write!(
        s,
        ", \"latency_p50_seconds\": {}",
        json::number(r.latency_p50_seconds)
    );
    let _ = write!(
        s,
        ", \"latency_p99_seconds\": {}",
        json::number(r.latency_p99_seconds)
    );
    let _ = write!(s, ", \"map_seconds\": {}", json::number(r.map_seconds));
    let _ = write!(
        s,
        ", \"verify_seconds\": {}",
        json::number(r.verify_seconds)
    );
    s.push_str(",\n     \"phases\": {");
    for (i, (k, v)) in r.phases.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(s, "{sep}\"{}\": {}", json::escape(k), json::number(*v));
    }
    s.push_str("},\n     \"counters\": {");
    for (i, (k, v)) in r.counters.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        // clamp to 2^53 so the integer survives the f64-based parser
        // exactly (pipeline counters are many orders of magnitude below)
        let v = (*v).min(9_007_199_254_740_992);
        let _ = write!(s, "{sep}\"{}\": {v}", json::escape(k));
    }
    s.push_str("},\n     \"gauges\": {");
    for (i, (k, v)) in r.gauges.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(s, "{sep}\"{}\": {}", json::escape(k), json::number(*v));
    }
    s.push_str("}}");
}

fn record_from_value(v: &Value) -> Result<BenchRecord, String> {
    let mut f = Fields::new(v, "record")?;
    let r = BenchRecord {
        name: f.string("name")?,
        flow: f.string("flow")?,
        premap_gates: f.u64("premap_gates")?,
        premap_lits: f.u64("premap_lits")?,
        map_gates: f.u64("map_gates")?,
        map_lits: f.u64("map_lits")?,
        map_area: f.f64("map_area")?,
        power: f.f64("power")?,
        verified: {
            let s = f.string("verified")?;
            VerifyStatus::parse(&s)
                .ok_or_else(|| format!("field 'verified': unknown status {s:?}"))?
        },
        salvaged: f.u64("salvaged")?,
        runs: f.u64("runs")?,
        median_seconds: f.f64("median_seconds")?,
        min_seconds: f.f64("min_seconds")?,
        synth_seconds: f.f64("synth_seconds")?,
        latency_p50_seconds: f.f64("latency_p50_seconds")?,
        latency_p99_seconds: f.f64("latency_p99_seconds")?,
        map_seconds: f.f64("map_seconds")?,
        verify_seconds: f.f64("verify_seconds")?,
        phases: f.f64_map("phases")?,
        counters: f.u64_map("counters")?,
        gauges: f.f64_map("gauges")?,
    };
    f.finish()?;
    Ok(r)
}

/// Strict field reader over a parsed JSON object: every field must be
/// consumed exactly once and [`Fields::finish`] rejects leftovers.
struct Fields<'a> {
    fields: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value, what: &str) -> Result<Fields<'a>, String> {
        let fields = v
            .as_obj()
            .ok_or_else(|| format!("expected a {what} object, got {v}"))?;
        Ok(Fields {
            fields,
            used: vec![false; fields.len()],
        })
    }

    fn required(&mut self, key: &str) -> Result<&'a Value, String> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Ok(v);
            }
        }
        Err(format!("missing field '{key}'"))
    }

    fn string(&mut self, key: &str) -> Result<String, String> {
        let v = self.required(key)?;
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("field '{key}': expected string, got {v}"))
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        let v = self.required(key)?;
        v.as_u64()
            .ok_or_else(|| format!("field '{key}': expected unsigned integer, got {v}"))
    }

    fn f64(&mut self, key: &str) -> Result<f64, String> {
        let v = self.required(key)?;
        v.as_f64()
            .ok_or_else(|| format!("field '{key}': expected number, got {v}"))
    }

    fn f64_map(&mut self, key: &str) -> Result<BTreeMap<String, f64>, String> {
        let v = self.required(key)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| format!("field '{key}': expected object, got {v}"))?;
        let mut out = BTreeMap::new();
        for (k, item) in obj {
            let n = item
                .as_f64()
                .ok_or_else(|| format!("field '{key}.{k}': expected number, got {item}"))?;
            out.insert(k.clone(), n);
        }
        Ok(out)
    }

    fn u64_map(&mut self, key: &str) -> Result<BTreeMap<String, u64>, String> {
        let v = self.required(key)?;
        let obj = v
            .as_obj()
            .ok_or_else(|| format!("field '{key}': expected object, got {v}"))?;
        let mut out = BTreeMap::new();
        for (k, item) in obj {
            let n = item.as_u64().ok_or_else(|| {
                format!("field '{key}.{k}': expected unsigned integer, got {item}")
            })?;
            out.insert(k.clone(), n);
        }
        Ok(out)
    }

    fn finish(self) -> Result<(), String> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.used[i] {
                return Err(format!("unknown field '{k}'"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_record(name: &str, flow: &str) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            flow: flow.into(),
            premap_gates: 16,
            premap_lits: 32,
            map_gates: 10,
            map_lits: 31,
            map_area: 23.5,
            power: 6.125,
            verified: VerifyStatus::Verified,
            salvaged: 0,
            runs: 3,
            median_seconds: 0.0115,
            min_seconds: 0.0101,
            synth_seconds: 0.012,
            latency_p50_seconds: 0.015625,
            latency_p99_seconds: 0.015625,
            map_seconds: 0.0009,
            verify_seconds: 0.0021,
            phases: [("fprm".into(), 0.008), ("factoring".into(), 0.001)].into(),
            counters: [("patterns.generated".into(), 96u64)].into(),
            gauges: [("bdd.peak_nodes".into(), 353.0)].into(),
        }
    }

    #[test]
    fn suite_round_trips_exactly() {
        let suite = BenchSuite {
            suite: "table2".into(),
            records: vec![
                sample_record("z4ml", "fprm"),
                sample_record("weird \"name\"\n", "sop"),
            ],
        };
        let text = suite.to_json();
        xsynth_trace::json::validate(&text).expect("writer emits valid JSON");
        let back = BenchSuite::from_json(&text).expect("strict parse");
        assert_eq!(back, suite);
    }

    #[test]
    fn strict_parser_rejects_drift() {
        let good = BenchSuite {
            suite: "s".into(),
            records: vec![sample_record("a", "fprm")],
        }
        .to_json();
        BenchSuite::from_json(&good).unwrap();
        // any version but the current one
        for v in [1, 2, 4] {
            let bad = good.replace("\"schema_version\": 3", &format!("\"schema_version\": {v}"));
            assert!(BenchSuite::from_json(&bad)
                .unwrap_err()
                .contains("schema_version"));
        }
        // unknown field
        let bad = good.replace("\"runs\": 3", "\"runs\": 3, \"bogus\": 1");
        assert!(BenchSuite::from_json(&bad).unwrap_err().contains("bogus"));
        // missing field
        let bad = good.replace(", \"runs\": 3", "");
        assert!(BenchSuite::from_json(&bad).unwrap_err().contains("runs"));
        // wrong type
        let bad = good.replace("\"runs\": 3", "\"runs\": \"3\"");
        assert!(BenchSuite::from_json(&bad).unwrap_err().contains("runs"));
        // bad verify status
        let bad = good.replace("\"verified\": \"verified\"", "\"verified\": \"maybe\"");
        assert!(BenchSuite::from_json(&bad).unwrap_err().contains("maybe"));
        // duplicate key (rejected by the JSON layer itself)
        let bad = good.replace("\"runs\": 3", "\"runs\": 3, \"runs\": 3");
        assert!(BenchSuite::from_json(&bad).is_err());
    }

    #[test]
    fn verify_status_orders_by_confidence() {
        assert!(VerifyStatus::Verified.rank() > VerifyStatus::Downgraded.rank());
        assert!(VerifyStatus::Downgraded.rank() > VerifyStatus::Failed.rank());
        for s in [
            VerifyStatus::Verified,
            VerifyStatus::Downgraded,
            VerifyStatus::Failed,
        ] {
            assert_eq!(VerifyStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(VerifyStatus::parse("ok"), None);
    }
}
