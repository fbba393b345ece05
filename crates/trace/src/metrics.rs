//! Prometheus-style text exposition: a serde-free writer and a strict
//! parser.
//!
//! The serve daemon's `metrics` wire op renders its daemon-lifetime
//! counters, gauges and [`Histogram`]s with [`Exposition`]; `xsynth top`
//! and the test suite read the text back with [`parse`], which enforces
//! the invariants the writer guarantees: one `# TYPE` line per family,
//! unique family names, sorted unique labels per sample, and histogram
//! samples restricted to the `_bucket`/`_sum`/`_count` suffixes with
//! cumulative `le` buckets ending in `+Inf`.
//!
//! # Examples
//!
//! ```
//! use xsynth_trace::metrics::Exposition;
//!
//! let mut exp = Exposition::new();
//! exp.counter("xsynth_jobs_total", &[("outcome", "ok")], 3);
//! exp.gauge("xsynth_uptime_seconds", &[], 12.5);
//! let text = exp.render();
//! assert!(text.contains("# TYPE xsynth_jobs_total counter"));
//! xsynth_trace::metrics::parse(&text).unwrap();
//! ```

use crate::{bucket_upper_bound, Histogram, NUM_BUCKETS};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric family kinds supported by the exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonically increasing total.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-bucket distribution (`_bucket`/`_sum`/`_count` samples).
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }

    fn from_str(s: &str) -> Option<Kind> {
        match s {
            "counter" => Some(Kind::Counter),
            "gauge" => Some(Kind::Gauge),
            "histogram" => Some(Kind::Histogram),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    /// Rendered sample lines, in insertion order.
    lines: Vec<String>,
}

/// A serde-free Prometheus text-exposition writer.
///
/// Families render sorted by name; each gets exactly one `# TYPE` line.
/// Labels are sorted by key and values escaped per the exposition format.
/// Registering the same family under two different kinds panics — that is
/// a programming error in the caller, never input-dependent.
#[derive(Debug, Default)]
pub struct Exposition {
    families: BTreeMap<String, Family>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Exposition::default()
    }

    fn family(&mut self, name: &str, kind: Kind) -> &mut Family {
        debug_assert!(valid_name(name), "invalid metric name `{name}`");
        let fam = self.families.entry(name.to_string()).or_insert(Family {
            kind,
            lines: Vec::new(),
        });
        assert!(
            fam.kind == kind,
            "metric `{name}` registered as both {} and {}",
            fam.kind.as_str(),
            kind.as_str()
        );
        fam
    }

    /// Adds one counter sample.
    pub fn counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let line = sample_line(name, "", labels, None, &format_u64(value));
        self.family(name, Kind::Counter).lines.push(line);
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let line = sample_line(name, "", labels, None, &format_f64(value));
        self.family(name, Kind::Gauge).lines.push(line);
    }

    /// Adds one histogram series: cumulative `_bucket` samples for every
    /// non-empty bucket boundary plus the mandatory `+Inf` bucket, then
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &Histogram) {
        let mut lines = Vec::new();
        let mut cumulative = 0u64;
        for (b, &n) in hist.buckets().iter().enumerate() {
            cumulative += n;
            // sparse exposition: skip boundaries no sample has reached yet,
            // but always close with +Inf below
            if n == 0 {
                continue;
            }
            if b < NUM_BUCKETS - 1 {
                lines.push(sample_line(
                    name,
                    "_bucket",
                    labels,
                    Some(&format_f64(bucket_upper_bound(b))),
                    &format_u64(cumulative),
                ));
            }
        }
        lines.push(sample_line(
            name,
            "_bucket",
            labels,
            Some("+Inf"),
            &format_u64(hist.count()),
        ));
        lines.push(sample_line(
            name,
            "_sum",
            labels,
            None,
            &format_f64(hist.sum()),
        ));
        lines.push(sample_line(
            name,
            "_count",
            labels,
            None,
            &format_u64(hist.count()),
        ));
        self.family(name, Kind::Histogram).lines.extend(lines);
    }

    /// Renders the full exposition text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for line in &fam.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }
}

fn format_u64(v: u64) -> String {
    v.to_string()
}

fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `name{a="x",le="2"} value`, with labels sorted by key and `le`
/// (when given) merged into the sort.
fn sample_line(
    name: &str,
    suffix: &str,
    labels: &[(&str, &str)],
    le: Option<&str>,
    value: &str,
) -> String {
    let mut all: Vec<(&str, String)> = labels.iter().map(|(k, v)| (*k, escape_label(v))).collect();
    if let Some(le) = le {
        all.push(("le", escape_label(le)));
    }
    all.sort_by(|a, b| a.0.cmp(b.0));
    debug_assert!(all.iter().all(|(k, _)| valid_name(k) && *k != "__name__"));
    debug_assert!(all.windows(2).all(|w| w[0].0 != w[1].0), "duplicate label");
    if all.is_empty() {
        format!("{name}{suffix} {value}")
    } else {
        let body: Vec<String> = all.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{name}{suffix}{{{}}} {value}", body.join(","))
    }
}

/// One parsed sample: full sample name (with any histogram suffix), sorted
/// labels, and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Sample name as written (e.g. `xsynth_job_seconds_bucket`).
    pub name: String,
    /// Label pairs, in the order written (sorted by key).
    pub labels: Vec<(String, String)>,
    /// Parsed value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

impl Sample {
    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One parsed metric family: its kind and samples in exposition order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFamily {
    /// Family kind from the `# TYPE` line.
    pub kind: Kind,
    /// Samples belonging to the family.
    pub samples: Vec<Sample>,
}

/// Strictly parses a text exposition produced by [`Exposition::render`].
///
/// Rejects: duplicate `# TYPE` lines, samples before any `# TYPE`, sample
/// names that do not match the current family (histograms may append
/// `_bucket`/`_sum`/`_count`), unsorted or duplicate labels, malformed
/// label syntax, unparsable values, histogram bucket series whose
/// cumulative counts decrease or that lack a closing `+Inf` bucket.
pub fn parse(text: &str) -> Result<BTreeMap<String, ParsedFamily>, String> {
    let mut families: BTreeMap<String, ParsedFamily> = BTreeMap::new();
    let mut current: Option<String> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_ascii_whitespace();
            let name = parts
                .next()
                .ok_or(format!("line {ln}: TYPE without name"))?;
            let kind = parts
                .next()
                .and_then(Kind::from_str)
                .ok_or(format!("line {ln}: bad TYPE kind"))?;
            if parts.next().is_some() {
                return Err(format!("line {ln}: trailing tokens on TYPE line"));
            }
            if !valid_name(name) {
                return Err(format!("line {ln}: invalid metric name `{name}`"));
            }
            if families.contains_key(name) {
                return Err(format!("line {ln}: duplicate TYPE for `{name}`"));
            }
            families.insert(
                name.to_string(),
                ParsedFamily {
                    kind,
                    samples: Vec::new(),
                },
            );
            current = Some(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {ln}: only `# TYPE` comments are allowed"));
        }
        let fam_name = current
            .clone()
            .ok_or(format!("line {ln}: sample before any TYPE line"))?;
        let sample = parse_sample(line).map_err(|e| format!("line {ln}: {e}"))?;
        let fam = families.get_mut(&fam_name).expect("current family exists");
        let ok_name = match fam.kind {
            Kind::Histogram => {
                sample.name == format!("{fam_name}_bucket")
                    || sample.name == format!("{fam_name}_sum")
                    || sample.name == format!("{fam_name}_count")
            }
            _ => sample.name == fam_name,
        };
        if !ok_name {
            return Err(format!(
                "line {ln}: sample `{}` does not belong to family `{fam_name}`",
                sample.name
            ));
        }
        fam.samples.push(sample);
    }
    for (name, fam) in &families {
        if fam.samples.is_empty() {
            return Err(format!("family `{name}` has no samples"));
        }
        if fam.kind == Kind::Histogram {
            check_histogram(name, fam)?;
        }
    }
    Ok(families)
}

/// Validates one histogram family's bucket series: per label-set, `le`
/// values strictly increase, cumulative counts never decrease, and the
/// series closes with `+Inf`.
fn check_histogram(name: &str, fam: &ParsedFamily) -> Result<(), String> {
    let bucket = format!("{name}_bucket");
    // group buckets by their non-`le` labels
    let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for s in fam.samples.iter().filter(|s| s.name == bucket) {
        let le = s
            .label("le")
            .ok_or(format!("`{bucket}` sample without an `le` label"))?;
        let bound = parse_value(le).map_err(|e| format!("`{bucket}`: {e}"))?;
        let key: Vec<String> = s
            .labels
            .iter()
            .filter(|(k, _)| k != "le")
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        series
            .entry(key.join(","))
            .or_default()
            .push((bound, s.value));
    }
    for (key, buckets) in &series {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_count = -1.0;
        for &(bound, count) in buckets {
            if bound <= prev_bound {
                return Err(format!("`{bucket}{{{key}}}`: le bounds not increasing"));
            }
            if count < prev_count {
                return Err(format!("`{bucket}{{{key}}}`: cumulative counts decrease"));
            }
            prev_bound = bound;
            prev_count = count;
        }
        if prev_bound != f64::INFINITY {
            return Err(format!("`{bucket}{{{key}}}`: missing +Inf bucket"));
        }
    }
    Ok(())
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let name_end = line.find(['{', ' ']).ok_or("missing value")?;
    let name = &line[..name_end];
    if !valid_name(name) {
        return Err(format!("invalid sample name `{name}`"));
    }
    let rest = &line[name_end..];
    let (labels, value_str) = if let Some(body) = rest.strip_prefix('{') {
        let close = body.find('}').ok_or("unterminated label set")?;
        let (label_body, after) = body.split_at(close);
        let value = after[1..].strip_prefix(' ').ok_or("missing value")?;
        (parse_labels(label_body)?, value)
    } else {
        (Vec::new(), rest.strip_prefix(' ').ok_or("missing value")?)
    };
    if value_str.is_empty() || value_str.contains(' ') {
        return Err("malformed value".to_string());
    }
    let value = parse_value(value_str)?;
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without `=`")?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name `{key}`"));
        }
        let after = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value must be quoted")?;
        // scan to the closing unescaped quote
        let mut value = String::new();
        let mut chars = after.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    _ => return Err("bad escape in label value".to_string()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key.to_string(), value));
        rest = &after[end + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return Err("trailing comma in label set".to_string());
            }
        } else if !rest.is_empty() {
            return Err("labels must be comma-separated".to_string());
        }
    }
    for w in labels.windows(2) {
        if w[0].0 >= w[1].0 {
            return Err(format!(
                "labels not sorted/unique: `{}` then `{}`",
                w[0].0, w[1].0
            ));
        }
    }
    Ok(labels)
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        s => s.parse::<f64>().map_err(|_| format!("bad value `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let mut hist = Histogram::new();
        for v in [0.001, 0.004, 0.004, 0.3] {
            hist.observe(v);
        }
        let mut exp = Exposition::new();
        exp.counter("xsynth_jobs_total", &[("outcome", "ok")], 7);
        exp.counter("xsynth_jobs_total", &[("outcome", "error")], 1);
        exp.gauge("xsynth_uptime_seconds", &[], 42.5);
        exp.gauge("xsynth_bdd_nodes", &[("arity", "8")], 120.0);
        exp.histogram("xsynth_job_seconds", &[], &hist);
        let text = exp.render();
        let fams = parse(&text).expect("round trip");
        assert_eq!(fams["xsynth_jobs_total"].kind, Kind::Counter);
        assert_eq!(fams["xsynth_jobs_total"].samples.len(), 2);
        assert_eq!(fams["xsynth_uptime_seconds"].samples[0].value, 42.5);
        let h = &fams["xsynth_job_seconds"];
        assert_eq!(h.kind, Kind::Histogram);
        let count = h
            .samples
            .iter()
            .find(|s| s.name == "xsynth_job_seconds_count")
            .unwrap();
        assert_eq!(count.value, 4.0);
        let inf = h
            .samples
            .iter()
            .find(|s| s.name == "xsynth_job_seconds_bucket" && s.label("le") == Some("+Inf"))
            .unwrap();
        assert_eq!(inf.value, 4.0);
    }

    #[test]
    fn labels_render_sorted_and_escaped() {
        let mut exp = Exposition::new();
        exp.gauge("m", &[("zeta", "a\"b\\c\nd"), ("alpha", "x")], 1.0);
        let text = exp.render();
        assert!(
            text.contains(r#"m{alpha="x",zeta="a\"b\\c\nd"} 1"#),
            "{text}"
        );
        parse(&text).expect("escaped labels parse back");
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        for (bad, why) in [
            ("m 1\n", "sample before TYPE"),
            ("# TYPE m gauge\n# TYPE m gauge\nm 1\n", "duplicate TYPE"),
            ("# TYPE m gauge\nn 1\n", "wrong family"),
            ("# TYPE m gauge\nm{b=\"1\",a=\"2\"} 1\n", "unsorted labels"),
            ("# TYPE m gauge\nm{a=\"1\",a=\"2\"} 1\n", "duplicate labels"),
            ("# TYPE m gauge\nm{a=1} 1\n", "unquoted label value"),
            ("# TYPE m gauge\nm xyz\n", "bad value"),
            ("# TYPE m gauge\n", "family without samples"),
            ("# TYPE m histogram\nm_bucket{le=\"1\"} 1\nm_sum 1\nm_count 1\n", "no +Inf"),
            (
                "# TYPE m histogram\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"4\"} 1\nm_bucket{le=\"+Inf\"} 3\nm_sum 1\nm_count 3\n",
                "decreasing cumulative counts",
            ),
            ("# HELP m help text\n# TYPE m gauge\nm 1\n", "HELP not allowed"),
        ] {
            assert!(parse(bad).is_err(), "should reject: {why}");
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sparse() {
        let mut hist = Histogram::new();
        hist.observe(1.0);
        hist.observe(1.5);
        hist.observe(1000.0);
        let mut exp = Exposition::new();
        exp.histogram("h", &[("phase", "fprm")], &hist);
        let text = exp.render();
        let fams = parse(&text).expect("valid");
        let buckets: Vec<_> = fams["h"]
            .samples
            .iter()
            .filter(|s| s.name == "h_bucket")
            .collect();
        // two occupied boundaries + the +Inf closer; empty buckets skipped
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].value, 2.0);
        assert_eq!(buckets[1].value, 3.0);
        assert_eq!(buckets[2].label("le"), Some("+Inf"));
        assert_eq!(buckets[2].label("phase"), Some("fprm"));
    }
}
