//! Structured tracing and metrics for the synthesis pipeline.
//!
//! The paper's evaluation is entirely about *where* literals, XOR gates and
//! CPU time go across the FPRM pipeline phases, so every phase needs to be
//! observable and comparable across runs. This crate provides the
//! substrate:
//!
//! * **hierarchical spans** with wall-clock timing (`begin`/`end` or the
//!   closure-scoped [`TraceBuffer::span`]),
//! * **counters** — monotonically accumulated event counts
//!   ([`TraceBuffer::count`]),
//! * **gauges** — point-in-time measurements such as live DD node counts
//!   or memo hit rates ([`TraceBuffer::gauge`]).
//!
//! Recording is contention-free: each worker owns a plain [`TraceBuffer`]
//! (a `Vec` of events, no locks) and submits it to the shared
//! [`TraceSink`] once, when the buffer drops. Buffers carry an explicit
//! ordering key, so the merged [`Trace`] is identical regardless of the
//! order in which buffers are submitted.
//!
//! Two exporters ship with the crate: a human-readable tree
//! ([`Trace::render_tree`]) and Chrome `trace_event` JSON
//! ([`Trace::to_chrome_json`]) loadable in `chrome://tracing` or Perfetto.
//!
//! # Examples
//!
//! ```
//! use xsynth_trace::TraceSink;
//!
//! let sink = TraceSink::new();
//! {
//!     let mut buf = sink.buffer(0, "main");
//!     buf.span("work", |b| {
//!         b.count("items", 3);
//!         b.gauge("queue.depth", 1.0);
//!     });
//! } // buffer submits on drop
//! let trace = sink.take();
//! assert_eq!(trace.counter_totals()["items"], 3);
//! assert!(trace.span_names().contains("work"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
#[cfg(feature = "failpoints")]
pub mod failpoint;
pub mod json;
pub mod mem;
pub mod metrics;

/// Marks a named fault-injection site (see [`failpoint`]).
///
/// With the `failpoints` feature off the macro expands to nothing.
/// Feature resolution happens in the *invoking* crate, so every crate
/// placing failpoints forwards its own `failpoints` feature to
/// `xsynth-trace/failpoints`.
///
/// Two forms:
///
/// - `fail_point!("name")` — a *bare* site: an armed `error` action is
///   reported by `failpoint::hit` but otherwise ignored here (panic and
///   delay actions still apply). Use where there is no error channel.
/// - `fail_point!("name", expr)` — an *error* site: when an armed `error`
///   action trips, the enclosing function returns `expr`.
#[cfg(feature = "failpoints")]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        let _ = $crate::failpoint::hit($name);
    };
    ($name:expr, $on_err:expr) => {
        if $crate::failpoint::hit($name) {
            return $on_err;
        }
    };
}

/// Marks a named fault-injection site (see the `failpoint` module, built
/// under the `failpoints` feature). Compiled out: this build has the
/// feature off, so the macro expands to nothing.
#[cfg(not(feature = "failpoints"))]
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {};
    ($name:expr, $on_err:expr) => {};
}

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded trace event, timestamped relative to the sink's epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opens.
    Begin {
        /// Span name (phase names are shared constants in the pipeline).
        name: String,
        /// Time since the sink epoch.
        at: Duration,
    },
    /// The innermost open span closes.
    End {
        /// Time since the sink epoch.
        at: Duration,
    },
    /// A counter increments (counters only ever grow).
    Count {
        /// Counter name.
        name: String,
        /// Increment to add to the running total.
        delta: u64,
    },
    /// A gauge sample (point-in-time value; the last sample wins).
    Gauge {
        /// Gauge name.
        name: String,
        /// Sampled value.
        value: f64,
    },
    /// One histogram observation. Samples carry the raw value; bucketing
    /// happens at aggregation time ([`Trace::hist_totals`]) with the fixed
    /// log-scale layout of [`bucket_of`], so merged bucket counts are pure
    /// sums — independent of submission order and thread scheduling, like
    /// counters.
    Hist {
        /// Histogram name.
        name: String,
        /// Observed sample value.
        value: f64,
    },
}

/// Number of fixed log-scale buckets every [`Histogram`] uses.
pub const NUM_BUCKETS: usize = 64;

/// Power-of-two offset: bucket `b` covers `[2^(b-32), 2^(b-31))`.
const BUCKET_BIAS: i64 = 32;

/// The fixed log-scale bucket index for a sample.
///
/// Bucket `b` covers `[2^(b-32), 2^(b-31))`; values at or below zero (and
/// non-finite samples) land in bucket 0, values ≥ `2^31` in bucket 63.
/// The index is derived from the sample's IEEE-754 exponent bits rather
/// than a floating `log2`, so bucketing is exact and bit-for-bit
/// deterministic across platforms.
pub fn bucket_of(value: f64) -> usize {
    if !value.is_finite() || value <= 0.0 {
        return 0;
    }
    // biased exponent → floor(log2(v)) for normal numbers; subnormals
    // decode as -1023 and clamp into bucket 0.
    let exp = ((value.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    (exp + BUCKET_BIAS).clamp(0, NUM_BUCKETS as i64 - 1) as usize
}

/// The exclusive upper bound of a bucket: `2^(b-31)`. The last bucket is
/// open-ended; its nominal bound is returned for labelling.
pub fn bucket_upper_bound(bucket: usize) -> f64 {
    let b = bucket.min(NUM_BUCKETS - 1) as i32;
    2f64.powi(b - (BUCKET_BIAS as i32) + 1)
}

/// A fixed-bucket log-scale histogram: 64 power-of-two buckets spanning
/// `2^-32 .. 2^31` (seconds, node counts and cube counts all fit), plus a
/// running sample count and sum. Merging is a per-bucket sum, so merged
/// totals are independent of observation interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, value: f64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        if value.is_finite() && value > 0.0 {
            self.sum += value;
        }
    }

    /// Adds every bucket of `other` into `self` (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all (finite, positive) sample values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw per-bucket counts (see [`bucket_upper_bound`] for bounds).
    pub fn buckets(&self) -> &[u64; NUM_BUCKETS] {
        &self.buckets
    }

    /// The value below which a fraction `q` of samples fall, resolved to
    /// the upper bound of the bucket containing that rank (the
    /// conventional Prometheus-style histogram estimate). `q` is clamped
    /// to `[0, 1]`; an empty histogram reports 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(b);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }
}

/// One buffer's worth of events after submission: an ordered event list
/// plus the merge metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Track {
    /// Deterministic merge key: tracks are sorted by `(key, label)` in the
    /// final [`Trace`], independent of submission (i.e. scheduling) order.
    pub key: u64,
    /// Human-readable label (becomes the thread name in Chrome exports).
    pub label: String,
    /// Optional span name on an earlier track under which this track's
    /// spans nest in the rendered tree (e.g. per-output planning tracks
    /// nest under the `fprm` phase).
    pub parent: Option<String>,
    /// The recorded events, in recording order.
    pub events: Vec<Event>,
}

/// A merged, immutable trace: all submitted tracks in deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Tracks sorted by `(key, label)`.
    pub tracks: Vec<Track>,
}

/// One node of the reconstructed span tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start time relative to the trace epoch.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub duration: Duration,
    /// Counters recorded directly inside this span (not descendants).
    pub counts: BTreeMap<String, u64>,
    /// Gauges recorded directly inside this span (last sample wins).
    pub gauges: BTreeMap<String, f64>,
    /// Child spans, in recording order.
    pub children: Vec<SpanNode>,
}

#[derive(Debug)]
struct Shared {
    epoch: Instant,
    tracks: Mutex<Vec<Track>>,
}

/// A thread-safe collector of [`Track`]s.
///
/// The sink itself is a cheap-to-clone handle (`Arc` inside); workers
/// never contend on it while recording — they write into private
/// [`TraceBuffer`]s and take the sink lock exactly once, at submission.
#[derive(Debug, Clone)]
pub struct TraceSink {
    shared: Arc<Shared>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// Creates an empty sink whose epoch is *now*.
    pub fn new() -> Self {
        TraceSink {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                tracks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Time elapsed since the sink's epoch.
    pub fn elapsed(&self) -> Duration {
        self.shared.epoch.elapsed()
    }

    /// Opens a recording buffer that will merge at position `key`.
    ///
    /// Keys should be unique per buffer (ties are broken by label); the
    /// pipeline uses key 0 for the main thread and `1 + output_index` for
    /// the per-output planning buffers, which makes the merged trace
    /// independent of which worker planned which output.
    pub fn buffer(&self, key: u64, label: impl Into<String>) -> TraceBuffer {
        TraceBuffer {
            sink: self.clone(),
            track: Track {
                key,
                label: label.into(),
                parent: None,
                events: Vec::new(),
            },
            depth: 0,
        }
    }

    /// Like [`TraceSink::buffer`], with the track's rendered spans nested
    /// under the named span of an earlier track.
    pub fn buffer_under(
        &self,
        key: u64,
        label: impl Into<String>,
        parent: impl Into<String>,
    ) -> TraceBuffer {
        let mut b = self.buffer(key, label);
        b.track.parent = Some(parent.into());
        b
    }

    /// Appends every track of an already-merged trace, shifted `offset`
    /// into this sink's timeline and with labels prefixed `prefix/`. Used
    /// to aggregate several pipeline runs (benchmark sweeps, CLI batches)
    /// into one exportable trace; keys are offset so separate appends
    /// never interleave.
    pub fn append(&self, trace: Trace, prefix: &str, offset: Duration) {
        let mut tracks = self.shared.tracks.lock().expect("trace sink poisoned");
        let base = tracks.iter().map(|t| t.key >> 32).max().unwrap_or(0) + 1;
        for mut t in trace.tracks {
            t.key = (base << 32) | (t.key & 0xffff_ffff);
            if !prefix.is_empty() {
                t.label = format!("{prefix}/{}", t.label);
            }
            for e in &mut t.events {
                match e {
                    Event::Begin { at, .. } | Event::End { at } => *at += offset,
                    _ => {}
                }
            }
            tracks.push(t);
        }
    }

    fn submit(&self, track: Track) {
        if track.events.is_empty() {
            return;
        }
        self.shared
            .tracks
            .lock()
            .expect("trace sink poisoned")
            .push(track);
    }

    /// A deterministic snapshot of everything submitted so far.
    pub fn snapshot(&self) -> Trace {
        let tracks = self.shared.tracks.lock().expect("trace sink poisoned");
        Trace::from_tracks(tracks.clone())
    }

    /// Drains the sink, returning the merged trace.
    pub fn take(&self) -> Trace {
        let mut tracks = self.shared.tracks.lock().expect("trace sink poisoned");
        Trace::from_tracks(std::mem::take(&mut *tracks))
    }
}

/// A private, lock-free event recorder for one worker (or one unit of
/// deterministic work, like one output's planning). Submits its track to
/// the sink when dropped; open spans are closed first.
#[derive(Debug)]
pub struct TraceBuffer {
    sink: TraceSink,
    track: Track,
    depth: usize,
}

impl TraceBuffer {
    /// Opens a span. Spans nest: every `begin` must be matched by an
    /// [`TraceBuffer::end`] (drop closes any that remain open).
    pub fn begin(&mut self, name: impl Into<String>) {
        let at = self.sink.elapsed();
        self.track.events.push(Event::Begin {
            name: name.into(),
            at,
        });
        self.depth += 1;
    }

    /// Closes the innermost open span. A stray `end` with no open span is
    /// ignored rather than corrupting the stream.
    pub fn end(&mut self) {
        if self.depth == 0 {
            return;
        }
        let at = self.sink.elapsed();
        self.track.events.push(Event::End { at });
        self.depth -= 1;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut TraceBuffer) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Adds `delta` to the named monotonic counter. Zero deltas are
    /// dropped so counter *sets* stay comparable across runs that take
    /// the same path.
    pub fn count(&mut self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        self.track.events.push(Event::Count {
            name: name.to_string(),
            delta,
        });
    }

    /// Records a gauge sample.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.track.events.push(Event::Gauge {
            name: name.to_string(),
            value,
        });
    }

    /// Records one observation into the named histogram. Observations are
    /// bucketed at aggregation time with the fixed log-scale layout of
    /// [`bucket_of`]; like counters, merged bucket totals are independent
    /// of scheduling, so only schedule-independent values (cube counts,
    /// support sizes — not wall-clock durations) belong in a trace whose
    /// totals are compared across runs.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.track.events.push(Event::Hist {
            name: name.to_string(),
            value,
        });
    }

    /// Runs `f` under [`std::panic::catch_unwind`], then closes every span
    /// `f` left open, so a contained panic never nests the caller's later
    /// spans under the one it escaped from. The caller vouches for the
    /// unwind safety of whatever else `f` touches, as with
    /// [`std::panic::AssertUnwindSafe`].
    pub fn contain<R>(&mut self, f: impl FnOnce(&mut TraceBuffer) -> R) -> std::thread::Result<R> {
        let depth = self.depth;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self)));
        while self.depth > depth {
            self.end();
        }
        result
    }

    /// The sink this buffer submits to.
    pub fn sink(&self) -> &TraceSink {
        &self.sink
    }

    /// Discards the buffer without submitting anything, open spans
    /// included.
    pub fn discard(mut self) {
        self.track.events.clear();
        self.depth = 0;
    }
}

impl Drop for TraceBuffer {
    fn drop(&mut self) {
        while self.depth > 0 {
            self.end();
        }
        self.sink.submit(std::mem::take(&mut self.track));
    }
}

impl Trace {
    fn from_tracks(mut tracks: Vec<Track>) -> Trace {
        tracks.sort_by(|a, b| (a.key, &a.label).cmp(&(b.key, &b.label)));
        Trace { tracks }
    }

    /// Total of every counter, summed across all tracks. Because counters
    /// are commutative sums over deterministic per-track streams, the
    /// totals are independent of submission order and of how work was
    /// scheduled across threads.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Count { name, delta } = e {
                    *totals.entry(name.clone()).or_insert(0) += delta;
                }
            }
        }
        totals
    }

    /// Total of one counter across all tracks (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| &t.events)
            .map(|e| match e {
                Event::Count { name: n, delta } if n == name => *delta,
                _ => 0,
            })
            .sum()
    }

    /// Last recorded value of every gauge, in track order.
    pub fn gauge_finals(&self) -> BTreeMap<String, f64> {
        let mut finals = BTreeMap::new();
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Gauge { name, value } = e {
                    finals.insert(name.clone(), *value);
                }
            }
        }
        finals
    }

    /// Maximum recorded sample of every gauge across all tracks — the peak
    /// of the measurement rather than its last value. Budget enforcement
    /// asserts against this (e.g. `bdd.peak_nodes` under a node cap).
    pub fn gauge_maxima(&self) -> BTreeMap<String, f64> {
        let mut maxima: BTreeMap<String, f64> = BTreeMap::new();
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Gauge { name, value } = e {
                    maxima
                        .entry(name.clone())
                        .and_modify(|m| *m = m.max(*value))
                        .or_insert(*value);
                }
            }
        }
        maxima
    }

    /// Maximum recorded sample of one gauge, if it was ever sampled.
    pub fn gauge_max(&self, name: &str) -> Option<f64> {
        let mut max: Option<f64> = None;
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Gauge { name: n, value } = e {
                    if n == name {
                        max = Some(max.map_or(*value, |m: f64| m.max(*value)));
                    }
                }
            }
        }
        max
    }

    /// Merged histogram per name: every [`Event::Hist`] observation on
    /// every track, bucketed with the fixed log-scale layout and summed
    /// per bucket. Tracks are already in deterministic `(key, label)`
    /// order and bucket counts are commutative sums, so the totals are
    /// schedule-independent.
    pub fn hist_totals(&self) -> BTreeMap<String, Histogram> {
        let mut totals: BTreeMap<String, Histogram> = BTreeMap::new();
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Hist { name, value } = e {
                    totals.entry(name.clone()).or_default().observe(*value);
                }
            }
        }
        totals
    }

    /// Prefixes every track label with `prefix/`, in place. The serve
    /// daemon stamps each job's request ID onto its spans this way, so a
    /// trace exported from a multi-tenant run stays attributable
    /// end-to-end.
    pub fn prefix_labels(&mut self, prefix: &str) {
        if prefix.is_empty() {
            return;
        }
        for t in &mut self.tracks {
            t.label = format!("{prefix}/{}", t.label);
        }
    }

    /// The set of span names appearing anywhere in the trace.
    pub fn span_names(&self) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for t in &self.tracks {
            for e in &t.events {
                if let Event::Begin { name, .. } = e {
                    names.insert(name.clone());
                }
            }
        }
        names
    }

    /// Total duration per span name, summed over every span instance on
    /// every track (nested instances each contribute).
    pub fn duration_by_name(&self) -> BTreeMap<String, Duration> {
        let mut out: BTreeMap<String, Duration> = BTreeMap::new();
        fn walk(nodes: &[SpanNode], out: &mut BTreeMap<String, Duration>) {
            for n in nodes {
                *out.entry(n.name.clone()).or_default() += n.duration;
                walk(&n.children, out);
            }
        }
        walk(&self.forest(), &mut out);
        out
    }

    /// Reconstructs the span forest: each track's `Begin`/`End` stream
    /// becomes a tree, and tracks with a `parent` label are grafted under
    /// the first span of that name on an earlier track (or kept at top
    /// level when no such span exists).
    pub fn forest(&self) -> Vec<SpanNode> {
        let mut roots: Vec<SpanNode> = Vec::new();
        for t in &self.tracks {
            let track_roots = build_track(t);
            match &t.parent {
                Some(p) => match find_first_mut(&mut roots, p) {
                    Some(host) => host.children.extend(track_roots),
                    None => roots.extend(track_roots),
                },
                None => roots.extend(track_roots),
            }
        }
        roots
    }

    /// Renders the span forest as an indented, human-readable tree with
    /// per-span durations, inline counters/gauges, and a counter-total
    /// footer.
    pub fn render_tree(&self) -> String {
        let mut s = String::new();
        fn emit(s: &mut String, n: &SpanNode, depth: usize) {
            let ms = n.duration.as_secs_f64() * 1e3;
            s.push_str(&format!(
                "{:indent$}{} {ms:.2}ms",
                "",
                n.name,
                indent = depth * 2
            ));
            for (k, v) in &n.counts {
                s.push_str(&format!(" {k}={v}"));
            }
            for (k, v) in &n.gauges {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    s.push_str(&format!(" {k}={v:.0}"));
                } else {
                    s.push_str(&format!(" {k}={v:.3}"));
                }
            }
            s.push('\n');
            for c in &n.children {
                emit(s, c, depth + 1);
            }
        }
        for root in self.forest() {
            emit(&mut s, &root, 0);
        }
        let totals = self.counter_totals();
        if !totals.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &totals {
                s.push_str(&format!("  {k} = {v}\n"));
            }
        }
        s
    }

    /// Exports the trace as Chrome `trace_event` JSON (the "JSON Array
    /// with metadata" flavour), loadable in `chrome://tracing` and
    /// [Perfetto](https://ui.perfetto.dev). No serde: the writer is
    /// self-contained and escapes strings itself.
    pub fn to_chrome_json(&self) -> String {
        chrome::to_chrome_json(self)
    }
}

/// Parses one track's event stream into its root spans.
fn build_track(t: &Track) -> Vec<SpanNode> {
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<SpanNode> = Vec::new();
    let mut last_at = Duration::ZERO;
    for e in &t.events {
        match e {
            Event::Begin { name, at } => {
                last_at = *at;
                stack.push(SpanNode {
                    name: name.clone(),
                    start: *at,
                    ..SpanNode::default()
                });
            }
            Event::End { at } => {
                last_at = *at;
                if let Some(mut n) = stack.pop() {
                    n.duration = at.saturating_sub(n.start);
                    match stack.last_mut() {
                        Some(p) => p.children.push(n),
                        None => roots.push(n),
                    }
                }
            }
            Event::Count { name, delta } => {
                if let Some(top) = stack.last_mut() {
                    *top.counts.entry(name.clone()).or_insert(0) += delta;
                } else if let Some(last) = roots.last_mut() {
                    *last.counts.entry(name.clone()).or_insert(0) += delta;
                }
            }
            Event::Gauge { name, value } => {
                if let Some(top) = stack.last_mut() {
                    top.gauges.insert(name.clone(), *value);
                } else if let Some(last) = roots.last_mut() {
                    last.gauges.insert(name.clone(), *value);
                }
            }
            // histogram observations are aggregate-level data; they are
            // surfaced via `hist_totals`, not the span tree
            Event::Hist { .. } => {}
        }
    }
    // close anything the recorder left open at the last seen timestamp
    while let Some(mut n) = stack.pop() {
        n.duration = last_at.saturating_sub(n.start);
        match stack.last_mut() {
            Some(p) => p.children.push(n),
            None => roots.push(n),
        }
    }
    roots
}

/// Depth-first search for the first span named `name`.
fn find_first_mut<'a>(nodes: &'a mut [SpanNode], name: &str) -> Option<&'a mut SpanNode> {
    for n in nodes {
        if n.name == name {
            return Some(n);
        }
        if let Some(hit) = find_first_mut(&mut n.children, name) {
            return Some(hit);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_maxima_track_peaks_not_finals() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "main");
            b.gauge("nodes", 10.0);
            b.gauge("nodes", 70.0);
            b.gauge("nodes", 40.0);
        }
        {
            let mut b = sink.buffer(1, "worker");
            b.gauge("nodes", 55.0);
        }
        let t = sink.take();
        assert_eq!(t.gauge_finals()["nodes"], 55.0);
        assert_eq!(t.gauge_maxima()["nodes"], 70.0);
        assert_eq!(t.gauge_max("nodes"), Some(70.0));
        assert_eq!(t.gauge_max("missing"), None);
    }

    #[test]
    fn spans_nest_and_time() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "main");
            b.span("outer", |b| {
                b.span("inner", |b| b.count("steps", 2));
                b.count("steps", 1);
            });
        }
        let t = sink.take();
        let forest = t.forest();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].name, "outer");
        assert_eq!(forest[0].children[0].name, "inner");
        assert_eq!(forest[0].counts["steps"], 1);
        assert_eq!(forest[0].children[0].counts["steps"], 2);
        assert_eq!(t.counter_totals()["steps"], 3);
        assert!(forest[0].duration >= forest[0].children[0].duration);
    }

    #[test]
    fn merge_order_follows_keys_not_submission() {
        let sink = TraceSink::new();
        let mut b2 = sink.buffer(2, "late");
        b2.count("x", 1);
        let mut b1 = sink.buffer(1, "early");
        b1.count("x", 1);
        drop(b2); // submitted first
        drop(b1);
        let t = sink.take();
        assert_eq!(t.tracks[0].label, "early");
        assert_eq!(t.tracks[1].label, "late");
    }

    #[test]
    fn parallel_buffers_merge_deterministically() {
        let collect = |shuffle: bool| {
            let sink = TraceSink::new();
            std::thread::scope(|s| {
                let order: Vec<u64> = if shuffle {
                    vec![3, 1, 2]
                } else {
                    vec![1, 2, 3]
                };
                for k in order {
                    let sink = sink.clone();
                    s.spawn(move || {
                        let mut b = sink.buffer(k, format!("worker{k}"));
                        b.span("work", |b| b.count("units", k));
                    });
                }
            });
            let t = sink.take();
            (
                t.tracks.iter().map(|t| t.label.clone()).collect::<Vec<_>>(),
                t.counter_totals(),
            )
        };
        assert_eq!(collect(false), collect(true));
    }

    #[test]
    fn parented_tracks_graft_under_named_span() {
        let sink = TraceSink::new();
        {
            let mut main = sink.buffer(0, "main");
            main.begin("phase");
            {
                let mut child = sink.buffer_under(1, "plan:0", "phase");
                child.span("plan", |b| b.gauge("cubes", 7.0));
            }
            main.end();
        }
        let t = sink.take();
        let forest = t.forest();
        assert_eq!(forest[0].name, "phase");
        assert_eq!(forest[0].children[0].name, "plan");
        assert_eq!(forest[0].children[0].gauges["cubes"], 7.0);
    }

    #[test]
    fn unbalanced_spans_close_on_drop() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "main");
            b.begin("open");
            b.begin("deeper");
            b.count("c", 1);
            // no end() calls
        }
        let t = sink.take();
        let forest = t.forest();
        assert_eq!(forest.len(), 1);
        assert_eq!(forest[0].children.len(), 1);
        // a stray end is harmless
        let sink2 = TraceSink::new();
        let mut b = sink2.buffer(0, "m");
        b.end();
        b.count("x", 1);
        drop(b);
        assert_eq!(sink2.take().counter_totals()["x"], 1);
    }

    #[test]
    fn discard_drops_open_spans_too() {
        let sink = TraceSink::new();
        let mut b = sink.buffer(0, "main");
        b.begin("x");
        b.discard();
        let t = sink.take();
        assert!(t.tracks.is_empty(), "{:?}", t.tracks);
        assert!(!t.to_chrome_json().contains(r#""ph":"E""#));
    }

    #[test]
    fn append_shifts_and_prefixes() {
        let inner = TraceSink::new();
        {
            let mut b = inner.buffer(0, "main");
            b.span("run", |b| b.count("n", 1));
        }
        let outer = TraceSink::new();
        outer.append(inner.take(), "z4ml", Duration::from_millis(5));
        outer.append(
            {
                let s = TraceSink::new();
                s.buffer(0, "main").span("run", |b| b.count("n", 2));
                s.take()
            },
            "t481",
            Duration::from_millis(9),
        );
        let t = outer.snapshot();
        assert_eq!(t.tracks.len(), 2);
        assert_eq!(t.tracks[0].label, "z4ml/main");
        assert_eq!(t.tracks[1].label, "t481/main");
        assert_eq!(t.counter_totals()["n"], 3);
        let forest = t.forest();
        assert!(forest[0].start >= Duration::from_millis(5));
    }

    #[test]
    fn render_tree_shows_spans_and_counters() {
        let sink = TraceSink::new();
        sink.buffer(0, "main").span("synthesize", |b| {
            b.span("fprm", |b| b.count("polarity.evaluated", 12));
        });
        let text = sink.take().render_tree();
        assert!(text.contains("synthesize"), "{text}");
        assert!(text.contains("  fprm"), "{text}");
        assert!(text.contains("polarity.evaluated=12"), "{text}");
        assert!(text.contains("counters:"), "{text}");
    }

    #[test]
    fn empty_buffers_are_not_submitted() {
        let sink = TraceSink::new();
        drop(sink.buffer(0, "empty"));
        assert!(sink.take().tracks.is_empty());
    }

    #[test]
    fn buckets_follow_the_powers_of_two() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-3.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), 0);
        assert_eq!(bucket_of(1.0), 32);
        assert_eq!(bucket_of(1.5), 32);
        assert_eq!(bucket_of(2.0), 33);
        assert_eq!(bucket_of(0.5), 31);
        // exact powers of two open a new bucket; just-below stays behind
        assert_eq!(bucket_of(8.0), 35);
        assert_eq!(bucket_of(7.999_999), 34);
        // extremes clamp into the end buckets
        assert_eq!(bucket_of(1e-300), 0);
        assert_eq!(bucket_of(1e300), NUM_BUCKETS - 1);
        // the bound of bucket b is the lower edge of bucket b+1
        assert_eq!(bucket_upper_bound(32), 2.0);
        assert_eq!(bucket_of(bucket_upper_bound(32)), 33);
    }

    #[test]
    fn histogram_quantiles_resolve_to_bucket_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        for _ in 0..90 {
            h.observe(1.0); // bucket 32, bound 2.0
        }
        for _ in 0..10 {
            h.observe(100.0); // bucket 38, bound 128.0
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.9), 2.0);
        assert_eq!(h.quantile(0.99), 128.0);
        assert_eq!(h.quantile(1.0), 128.0);
        assert!((h.sum() - 1090.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_is_a_bucketwise_sum() {
        let mut a = Histogram::new();
        a.observe(1.0);
        a.observe(3.0);
        let mut b = Histogram::new();
        b.observe(3.5);
        b.observe(0.25);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut flat = Histogram::new();
        for v in [1.0, 3.0, 3.5, 0.25] {
            flat.observe(v);
        }
        assert_eq!(merged, flat);
    }

    #[test]
    fn hist_totals_merge_across_tracks() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(1, "w1");
            b.observe("cubes", 4.0);
            b.observe("cubes", 9.0);
        }
        {
            let mut b = sink.buffer(2, "w2");
            b.observe("cubes", 5.0);
            b.observe("support", 3.0);
        }
        let t = sink.take();
        let totals = t.hist_totals();
        assert_eq!(totals["cubes"].count(), 3);
        assert_eq!(totals["support"].count(), 1);
        let expected: u64 = totals["cubes"].buckets().iter().sum();
        assert_eq!(expected, 3);
    }

    #[test]
    fn prefix_labels_stamps_every_track() {
        let sink = TraceSink::new();
        sink.buffer(0, "main").count("x", 1);
        sink.buffer(1, "plan:0").count("x", 1);
        let mut t = sink.take();
        t.prefix_labels("job-7");
        let labels: Vec<_> = t.tracks.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels, ["job-7/main", "job-7/plan:0"]);
        t.prefix_labels("");
        assert_eq!(t.tracks[0].label, "job-7/main");
    }

    #[test]
    fn zero_count_deltas_are_dropped() {
        let sink = TraceSink::new();
        let mut b = sink.buffer(0, "m");
        b.count("never", 0);
        b.count("once", 1);
        drop(b);
        let totals = sink.take().counter_totals();
        assert!(!totals.contains_key("never"));
        assert_eq!(totals["once"], 1);
    }

    #[test]
    fn counter_sums_one_name_across_tracks() {
        let sink = TraceSink::new();
        sink.buffer(0, "main").count("x", 2);
        sink.buffer(1, "worker").count("x", 3);
        let t = sink.take();
        assert_eq!(t.counter("x"), 5);
        assert_eq!(t.counter("absent"), 0);
    }

    #[test]
    fn contain_closes_the_spans_a_panic_left_open() {
        let sink = TraceSink::new();
        {
            let mut b = sink.buffer(0, "main");
            b.begin("phase");
            let caught = b.contain(|b| {
                b.begin("doomed");
                panic!("contained");
            });
            assert!(caught.is_err());
            b.end(); // phase
            b.span("next", |_| ());
        }
        let forest = sink.take().forest();
        let names: Vec<_> = forest.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(
            names,
            ["phase", "next"],
            "`next` must not nest under `doomed`"
        );
        assert_eq!(forest[0].children[0].name, "doomed");
    }
}
