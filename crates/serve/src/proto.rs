//! The serve wire protocol: newline-delimited JSON requests and replies.
//!
//! Every message is one JSON object on one line (NDJSON). Requests carry
//! a `protocol_version` field that both sides validate — the daemon
//! rejects messages whose version or shape falls outside the contract
//! with a typed [`Error::Protocol`] *response* (the connection stays
//! open), mirroring the `schema_version` discipline the benchmark
//! telemetry already enforces. Parsing is strict: unknown keys are
//! protocol violations, not silently ignored extensions, so schema drift
//! is caught at the first message rather than by debugging a half-obeyed
//! request.
//!
//! Request shapes (all share `protocol_version` and `op`):
//!
//! ```text
//! {"protocol_version":1,"op":"ping"}
//! {"protocol_version":1,"op":"metrics"}
//! {"protocol_version":1,"op":"health"}
//! {"protocol_version":1,"op":"recent","limit":10}
//! {"protocol_version":1,"op":"shutdown"}
//! {"protocol_version":1,"op":"synth","id":"j1","format":"blif",
//!  "source":".model f\n...","budget":{"bdd_node_cap":100000,
//!  "phase_timeout_ms":2000,"max_patterns":4096},"deadline_ms":5000,
//!  "telemetry":true}
//! ```
//!
//! Every `synth` reply carries an `id`: the caller's when supplied,
//! otherwise a server-assigned `job-N`. The same ID is stamped on the
//! job's trace spans and recorded in the daemon's flight recorder, so
//! `recent` round-trips it end-to-end.
//!
//! Replies are `{"protocol_version":1,"status":"ok",...}` or
//! `{"protocol_version":1,"status":"error","error":{"kind":...,
//! "exit_code":...,"message":...}}` where `exit_code` is the same
//! taxonomy the CLI documents (10 = protocol violation, 11 =
//! overloaded). Overload sheds additionally carry
//! `error.retry_after_ms`, the server's backoff hint in milliseconds.

use std::time::Duration;
use xsynth_core::{Budget, Error};
use xsynth_trace::json::{self, Value};

/// The wire protocol version this build speaks. Bump on any
/// breaking change to request or response shapes; both the daemon and
/// [`crate::Client`] reject other versions with [`Error::Protocol`].
pub const PROTOCOL_VERSION: u64 = 1;

/// The largest `limit` the `recent` op accepts. The flight recorder
/// ring is far smaller, so any larger request is a client bug — it is
/// rejected as a protocol violation rather than silently clamped.
pub const MAX_RECENT_LIMIT: usize = 1024;

/// The longest job `id` (in bytes) accepted on the wire. IDs are echoed
/// into replies, trace spans, and the flight recorder; an unbounded ID
/// would let one client inflate every downstream buffer.
pub const MAX_ID_BYTES: usize = 256;

/// A parsed request message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Synthesize one circuit (`op: "synth"`).
    Synth(JobRequest),
    /// Liveness probe (`op: "ping"`).
    Ping,
    /// Prometheus-style text exposition of the daemon-lifetime
    /// counters, gauges and latency histograms (`op: "metrics"`).
    Metrics,
    /// Lifecycle probe (`op: "health"`): reports `ready`, `shedding`
    /// (queues at capacity), or `draining`, plus queue depth/capacity,
    /// so load balancers and probes can steer traffic without paying
    /// for a synthesis round-trip.
    Health,
    /// The flight recorder's ring of per-job summaries, newest first
    /// (`op: "recent"`), optionally truncated to `limit` entries.
    Recent {
        /// Maximum number of summaries to return (`None` = the whole
        /// ring).
        limit: Option<usize>,
    },
    /// Graceful daemon shutdown (`op: "shutdown"`): queued jobs drain,
    /// listeners close, the process exits 0.
    Shutdown,
}

/// One synthesis job as submitted on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen identifier, echoed verbatim in the reply so
    /// pipelined requests can be matched to responses.
    pub id: Option<String>,
    /// Source text format.
    pub format: JobFormat,
    /// The circuit source (BLIF or PLA text).
    pub source: String,
    /// Per-job resource budget overriding the daemon default.
    pub budget: Option<Budget>,
    /// End-to-end deadline in milliseconds, measured from the moment the
    /// daemon enqueues the job. A job still queued when its deadline
    /// expires is shed with [`Error::Overloaded`] instead of started;
    /// one that starts in time has its phase timeout clamped to the
    /// remaining allowance.
    pub deadline_ms: Option<u64>,
    /// Attach a `BenchRecord`-style telemetry object (mapped size, power,
    /// the job's own verification status, counters, gauges) to the reply.
    /// Costs a mapping pass per job; defaults to `false`.
    pub telemetry: bool,
}

/// The circuit text formats a job may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobFormat {
    /// Berkeley Logic Interchange Format.
    Blif,
    /// Espresso two-level PLA format.
    Pla,
}

impl JobFormat {
    /// The wire name (`"blif"` / `"pla"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobFormat::Blif => "blif",
            JobFormat::Pla => "pla",
        }
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Every failure — malformed JSON, a missing or unsupported
/// `protocol_version`, an unknown `op` or key, a wrong-typed field —
/// is [`Error::Protocol`] (exit code 10): the message reached the
/// daemon intact but falls outside the wire contract.
pub fn parse_request(line: &str) -> Result<Request, Error> {
    let v = json::parse(line.trim())
        .map_err(|e| Error::Protocol(format!("request is not valid JSON: {e}")))?;
    let fields = v
        .as_obj()
        .ok_or_else(|| Error::Protocol(format!("request must be an object, got {}", v.kind())))?;

    let version = v
        .get("protocol_version")
        .ok_or_else(|| Error::Protocol("missing protocol_version".into()))?
        .as_u64()
        .ok_or_else(|| Error::Protocol("protocol_version must be an unsigned integer".into()))?;
    if version != PROTOCOL_VERSION {
        return Err(Error::Protocol(format!(
            "unsupported protocol_version {version} (this daemon speaks {PROTOCOL_VERSION})"
        )));
    }

    let op = v
        .get("op")
        .ok_or_else(|| Error::Protocol("missing op".into()))?
        .as_str()
        .ok_or_else(|| Error::Protocol("op must be a string".into()))?;

    let allowed: &[&str] = match op {
        "synth" => &[
            "protocol_version",
            "op",
            "id",
            "format",
            "source",
            "budget",
            "deadline_ms",
            "telemetry",
        ],
        "ping" | "metrics" | "health" | "shutdown" => &["protocol_version", "op", "id"],
        "recent" => &["protocol_version", "op", "id", "limit"],
        other => {
            return Err(Error::Protocol(format!(
                "unknown op `{other}` (expected synth, ping, metrics, health, recent, or \
                 shutdown)"
            )))
        }
    };
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(Error::Protocol(format!(
                "unknown key `{key}` for op `{op}`"
            )));
        }
    }

    match op {
        "ping" => Ok(Request::Ping),
        "metrics" => Ok(Request::Metrics),
        "health" => Ok(Request::Health),
        "recent" => {
            let limit =
                match v.get("limit") {
                    None | Some(Value::Null) => None,
                    Some(l) => Some(l.as_u64().ok_or_else(|| {
                        Error::Protocol("limit must be an unsigned integer".into())
                    })? as usize),
                };
            if let Some(l) = limit {
                if l > MAX_RECENT_LIMIT {
                    return Err(Error::Protocol(format!(
                        "limit {l} exceeds the maximum of {MAX_RECENT_LIMIT}"
                    )));
                }
            }
            Ok(Request::Recent { limit })
        }
        "shutdown" => Ok(Request::Shutdown),
        _ => Ok(Request::Synth(parse_job(&v)?)),
    }
}

fn parse_job(v: &Value) -> Result<JobRequest, Error> {
    let id = match v.get("id") {
        None | Some(Value::Null) => None,
        Some(Value::Str(s)) => {
            if s.len() > MAX_ID_BYTES {
                return Err(Error::Protocol(format!(
                    "id is {} bytes, longer than the maximum of {MAX_ID_BYTES}",
                    s.len()
                )));
            }
            Some(s.clone())
        }
        Some(other) => return Err(Error::Protocol(format!("id must be a string, got {other}"))),
    };
    let format = match v.get("format") {
        None => JobFormat::Blif,
        Some(Value::Str(s)) if s == "blif" => JobFormat::Blif,
        Some(Value::Str(s)) if s == "pla" => JobFormat::Pla,
        Some(other) => {
            return Err(Error::Protocol(format!(
                "format must be \"blif\" or \"pla\", got {other}"
            )))
        }
    };
    let source = v
        .get("source")
        .ok_or_else(|| Error::Protocol("synth request missing source".into()))?
        .as_str()
        .ok_or_else(|| Error::Protocol("source must be a string".into()))?
        .to_string();
    let budget = match v.get("budget") {
        None | Some(Value::Null) => None,
        Some(b) => Some(parse_budget(b)?),
    };
    let deadline_ms = match v.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(d) => {
            let ms = d
                .as_u64()
                .ok_or_else(|| Error::Protocol("deadline_ms must be an unsigned integer".into()))?;
            if ms == 0 {
                return Err(Error::Protocol("deadline_ms must be positive".into()));
            }
            Some(ms)
        }
    };
    let telemetry = match v.get("telemetry") {
        None => false,
        Some(b) => b
            .as_bool()
            .ok_or_else(|| Error::Protocol("telemetry must be a boolean".into()))?,
    };
    Ok(JobRequest {
        id,
        format,
        source,
        budget,
        deadline_ms,
        telemetry,
    })
}

fn parse_budget(v: &Value) -> Result<Budget, Error> {
    let fields = v
        .as_obj()
        .ok_or_else(|| Error::Protocol(format!("budget must be an object, got {}", v.kind())))?;
    let mut budget = Budget::default();
    for (key, val) in fields {
        let n = val
            .as_u64()
            .ok_or_else(|| Error::Protocol(format!("budget.{key} must be an unsigned integer")))?;
        budget = match key.as_str() {
            "bdd_node_cap" => budget.bdd_node_cap(Some(n as usize)),
            "phase_timeout_ms" => budget.phase_timeout(Some(Duration::from_millis(n))),
            "max_patterns" => budget.max_patterns(Some(n as usize)),
            other => {
                return Err(Error::Protocol(format!("unknown budget key `{other}`")));
            }
        };
    }
    Ok(budget)
}

/// Builds a `synth` request line (no trailing newline) — the encoder
/// [`crate::Client`] and the CLI smoke tests share.
pub fn synth_request(
    source: &str,
    format: JobFormat,
    id: Option<&str>,
    budget: Option<&Budget>,
    deadline_ms: Option<u64>,
    telemetry: bool,
) -> String {
    let mut o = Obj::new();
    o.num("protocol_version", PROTOCOL_VERSION as f64);
    o.str("op", "synth");
    if let Some(id) = id {
        o.str("id", id);
    }
    o.str("format", format.as_str());
    o.str("source", source);
    if let Some(b) = budget {
        let mut bo = Obj::new();
        if let Some(cap) = b.bdd_node_cap {
            bo.num("bdd_node_cap", cap as f64);
        }
        if let Some(t) = b.phase_timeout {
            bo.num("phase_timeout_ms", t.as_millis() as f64);
        }
        if let Some(p) = b.max_patterns {
            bo.num("max_patterns", p as f64);
        }
        o.raw("budget", &bo.finish());
    }
    if let Some(ms) = deadline_ms {
        o.num("deadline_ms", ms as f64);
    }
    if telemetry {
        o.bool("telemetry", true);
    }
    o.finish()
}

/// Builds a bodyless request line (`ping` / `metrics` / `shutdown`).
pub fn simple_request(op: &str) -> String {
    let mut o = Obj::new();
    o.num("protocol_version", PROTOCOL_VERSION as f64);
    o.str("op", op);
    o.finish()
}

/// The stable wire name of an error's family (matches the CLI exit-code
/// taxonomy: `"protocol"` is exit 10, `"budget"` exit 8, ...).
pub fn error_kind(e: &Error) -> &'static str {
    match e {
        Error::Net(_) => "net",
        Error::Parse(_) => "parse",
        Error::Io { .. } => "io",
        Error::InputMismatch { .. } => "input_mismatch",
        Error::Verify(_) => "verify",
        Error::Budget(_) => "budget",
        Error::OutputFailed { .. } => "output_failed",
        Error::Protocol(_) => "protocol",
        Error::Overloaded { .. } => "overloaded",
        Error::Msg(_) => "usage",
        _ => "error",
    }
}

/// Builds a one-line `status: "error"` reply carrying the error's wire
/// kind, CLI exit code, and message. The connection stays open — a
/// protocol violation poisons one message, not the session.
pub fn error_response(id: Option<&str>, e: &Error) -> String {
    let mut o = Obj::new();
    o.num("protocol_version", PROTOCOL_VERSION as f64);
    o.str("status", "error");
    if let Some(id) = id {
        o.str("id", id);
    }
    let mut eo = Obj::new();
    eo.str("kind", error_kind(e));
    eo.num("exit_code", e.exit_code() as f64);
    eo.str("message", &e.to_string());
    if let Error::Overloaded { retry_after_ms, .. } = e {
        eo.num("retry_after_ms", *retry_after_ms as f64);
    }
    o.raw("error", &eo.finish());
    o.finish()
}

/// A JSON string literal: [`json::escape`]d body wrapped in quotes.
fn quote(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// Serializes a parsed [`Value`] back to compact single-line JSON, so
/// multi-line documents (like [`xsynth_bench::BenchSuite::to_json`]
/// output) can be embedded in NDJSON replies.
pub fn compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => out.push_str(&json::number(*n)),
        Value::Str(s) => out.push_str(&quote(s)),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&quote(k));
                out.push(':');
                compact(val, out);
            }
            out.push('}');
        }
    }
}

/// An incremental single-line JSON object builder over the zero-dep
/// [`json`] escaping primitives.
#[derive(Debug)]
pub(crate) struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub(crate) fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push_str(&quote(k));
        self.buf.push(':');
    }

    pub(crate) fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push_str(&quote(v));
    }

    pub(crate) fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&json::number(v));
    }

    pub(crate) fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    pub(crate) fn null(&mut self, k: &str) {
        self.key(k);
        self.buf.push_str("null");
    }

    /// Appends a pre-serialized JSON value verbatim.
    pub(crate) fn raw(&mut self, k: &str, json_value: &str) {
        self.key(k);
        self.buf.push_str(json_value);
    }

    pub(crate) fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_synth_request() {
        let line = r#"{"protocol_version":1,"op":"synth","source":".model f\n.end\n"}"#;
        match parse_request(line).expect("valid") {
            Request::Synth(job) => {
                assert_eq!(job.format, JobFormat::Blif);
                assert!(job.id.is_none() && job.budget.is_none() && !job.telemetry);
                assert!(job.source.starts_with(".model"));
            }
            other => panic!("expected synth, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_a_protocol_error_with_exit_code_10() {
        let line = r#"{"protocol_version":2,"op":"ping"}"#;
        let err = parse_request(line).expect_err("version 2 rejected");
        assert!(matches!(err, Error::Protocol(_)), "{err}");
        assert_eq!(err.exit_code(), 10);
        let missing = parse_request(r#"{"op":"ping"}"#).expect_err("missing version");
        assert_eq!(missing.exit_code(), 10);
    }

    #[test]
    fn unknown_keys_and_ops_are_rejected() {
        for line in [
            r#"{"protocol_version":1,"op":"ping","source":"x"}"#,
            r#"{"protocol_version":1,"op":"synth","source":"x","cubes":3}"#,
            r#"{"protocol_version":1,"op":"resynthesize"}"#,
            r#"{"protocol_version":1,"op":"synth","source":"x","budget":{"node_cap":1}}"#,
            "not json at all",
            "[1,2,3]",
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(matches!(err, Error::Protocol(_)), "{line}: {err}");
        }
    }

    #[test]
    fn metrics_and_recent_ops_parse() {
        assert_eq!(
            parse_request(r#"{"protocol_version":1,"op":"metrics"}"#).expect("metrics"),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"protocol_version":1,"op":"recent"}"#).expect("recent"),
            Request::Recent { limit: None }
        );
        assert_eq!(
            parse_request(r#"{"protocol_version":1,"op":"recent","limit":5}"#).expect("limited"),
            Request::Recent { limit: Some(5) }
        );
        for bad in [
            r#"{"protocol_version":1,"op":"recent","limit":"five"}"#,
            r#"{"protocol_version":1,"op":"metrics","limit":5}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert!(matches!(err, Error::Protocol(_)), "{bad}: {err}");
        }
    }

    #[test]
    fn budget_fields_round_trip() {
        let b = Budget::default()
            .bdd_node_cap(Some(1234))
            .phase_timeout(Some(Duration::from_millis(500)))
            .max_patterns(Some(64));
        let line = synth_request("src", JobFormat::Pla, Some("j7"), Some(&b), Some(750), true);
        match parse_request(&line).expect("round trip") {
            Request::Synth(job) => {
                assert_eq!(job.id.as_deref(), Some("j7"));
                assert_eq!(job.format, JobFormat::Pla);
                assert!(job.telemetry);
                assert_eq!(job.deadline_ms, Some(750));
                let got = job.budget.expect("budget present");
                assert_eq!(got.bdd_node_cap, Some(1234));
                assert_eq!(got.phase_timeout, Some(Duration::from_millis(500)));
                assert_eq!(got.max_patterns, Some(64));
            }
            other => panic!("expected synth, got {other:?}"),
        }
    }

    #[test]
    fn health_op_parses_and_rejects_extra_keys() {
        assert_eq!(
            parse_request(r#"{"protocol_version":1,"op":"health"}"#).expect("health"),
            Request::Health
        );
        let err = parse_request(r#"{"protocol_version":1,"op":"health","limit":3}"#)
            .expect_err("extra key");
        assert!(matches!(err, Error::Protocol(_)), "{err}");
    }

    #[test]
    fn oversized_limit_and_id_are_protocol_errors() {
        let over = format!(
            r#"{{"protocol_version":1,"op":"recent","limit":{}}}"#,
            MAX_RECENT_LIMIT + 1
        );
        let err = parse_request(&over).expect_err("limit over cap");
        assert!(matches!(err, Error::Protocol(_)), "{err}");
        assert!(err.to_string().contains("maximum"), "{err}");
        // The cap itself is accepted.
        let at = format!(r#"{{"protocol_version":1,"op":"recent","limit":{MAX_RECENT_LIMIT}}}"#);
        assert!(parse_request(&at).is_ok());

        let long_id = "x".repeat(MAX_ID_BYTES + 1);
        let line =
            format!(r#"{{"protocol_version":1,"op":"synth","id":"{long_id}","source":"s"}}"#);
        let err = parse_request(&line).expect_err("id over cap");
        assert!(matches!(err, Error::Protocol(_)), "{err}");
    }

    #[test]
    fn non_object_payloads_are_typed_protocol_errors() {
        for line in ["[1,2,3]", "\"synth\"", "42", "true", "null"] {
            let err = parse_request(line).expect_err(line);
            assert!(matches!(err, Error::Protocol(_)), "{line}: {err}");
            assert_eq!(err.exit_code(), 10, "{line}");
            assert!(err.to_string().contains("object"), "{line}: {err}");
        }
    }

    #[test]
    fn bad_deadlines_are_rejected_and_good_ones_parse() {
        for bad in [
            r#"{"protocol_version":1,"op":"synth","source":"s","deadline_ms":0}"#,
            r#"{"protocol_version":1,"op":"synth","source":"s","deadline_ms":-5}"#,
            r#"{"protocol_version":1,"op":"synth","source":"s","deadline_ms":"soon"}"#,
            r#"{"protocol_version":1,"op":"synth","source":"s","deadline_ms":1.5}"#,
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert!(matches!(err, Error::Protocol(_)), "{bad}: {err}");
        }
        let ok = r#"{"protocol_version":1,"op":"synth","source":"s","deadline_ms":1500}"#;
        match parse_request(ok).expect("valid deadline") {
            Request::Synth(job) => assert_eq!(job.deadline_ms, Some(1500)),
            other => panic!("expected synth, got {other:?}"),
        }
    }

    #[test]
    fn overloaded_replies_carry_retry_after_ms() {
        let resp = error_response(None, &Error::overloaded("global queue full", 125));
        let v = json::parse(&resp).expect("valid JSON");
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("kind").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(e.get("exit_code").and_then(Value::as_u64), Some(11));
        assert_eq!(e.get("retry_after_ms").and_then(Value::as_u64), Some(125));
    }

    #[test]
    fn error_response_is_one_parseable_line() {
        let resp = error_response(Some("j1"), &Error::Protocol("bad shape".into()));
        assert!(!resp.contains('\n'));
        let v = json::parse(&resp).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("id").and_then(Value::as_str), Some("j1"));
        let e = v.get("error").expect("error object");
        assert_eq!(e.get("kind").and_then(Value::as_str), Some("protocol"));
        assert_eq!(e.get("exit_code").and_then(Value::as_u64), Some(10));
    }

    #[test]
    fn compact_round_trips_nested_documents() {
        let src = r#"{"a":[1,2.5,null,true,"x\ny"],"b":{"c":{}}}"#;
        let v = json::parse(src).expect("valid");
        let mut out = String::new();
        compact(&v, &mut out);
        assert_eq!(json::parse(&out).expect("still valid"), v);
        assert!(!out.contains('\n'));
    }
}
