//! A small blocking client for the serve protocol, used by the
//! integration tests, the chaos suite, and CI smoke scripts.
//!
//! The client understands the daemon's overload contract: an
//! `overloaded` reply (exit code 11) means the job was never started
//! and is always safe to retry. [`RetryPolicy`] implements the
//! recommended backoff — exponential with decorrelated jitter, floored
//! at the server's `retry_after_ms` hint, bounded in attempts — and
//! [`Client::synth_with_retry`] applies it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::{Duration, SystemTime};

use xsynth_core::{Budget, Error};
use xsynth_trace::json::{self, Value};

use crate::proto::{self, JobFormat, PROTOCOL_VERSION};

/// Client-side backoff for retrying `overloaded` sheds: decorrelated
/// jitter (each delay is drawn uniformly from `[base, 3 × previous]`,
/// capped), floored at the server's `retry_after_ms` hint when one is
/// present, for a bounded number of attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` never retries).
    pub max_attempts: u32,
    /// Smallest delay between attempts.
    pub base: Duration,
    /// Largest delay between attempts.
    pub cap: Duration,
    /// xorshift64* state for the jitter.
    rng: u64,
    /// The previous delay (decorrelated jitter's memory).
    prev: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15);
        RetryPolicy::seeded(seed)
    }
}

impl RetryPolicy {
    /// A policy with the default shape (5 attempts, 25 ms base, 2 s
    /// cap) and a fixed jitter seed — deterministic, for tests.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            rng: seed | 1,
            prev: Duration::ZERO,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — enough for jitter, no dependency.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// The delay to sleep before the next retry, honoring the server's
    /// `retry_after_ms` hint as a floor.
    pub fn backoff(&mut self, retry_after_ms: Option<u64>) -> Duration {
        let lo = self.base;
        let hi = (self.prev * 3).max(lo);
        let span = hi.saturating_sub(lo);
        let mut delay = if span.is_zero() {
            lo
        } else {
            let frac = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + span.mul_f64(frac)
        };
        if let Some(ms) = retry_after_ms {
            delay = delay.max(Duration::from_millis(ms));
        }
        delay = delay.min(self.cap);
        self.prev = delay;
        delay
    }
}

/// The `retry_after_ms` hint of an `overloaded` reply, `None` for any
/// other reply shape.
pub fn retry_after_hint(reply: &Value) -> Option<u64> {
    let err = reply.get("error")?;
    if err.get("kind").and_then(Value::as_str) != Some("overloaded") {
        return None;
    }
    err.get("retry_after_ms").and_then(Value::as_u64)
}

/// Whether a reply is a typed `overloaded` shed (retrying is safe).
pub fn is_overloaded(reply: &Value) -> bool {
    reply
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
        == Some("overloaded")
}

/// One connection to a running daemon. Requests are synchronous: each
/// call writes one line and blocks for the matching reply line.
#[derive(Debug)]
pub struct Client<S: Read + Write> {
    stream: BufReader<S>,
}

impl Client<TcpStream> {
    /// Connects over TCP.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the connection cannot be established.
    pub fn connect_tcp(addr: &str) -> Result<Client<TcpStream>, Error> {
        let stream = TcpStream::connect(addr).map_err(|e| Error::io(addr, e))?;
        // requests are whole lines: send each at once, no Nagle delay
        stream.set_nodelay(true).map_err(|e| Error::io(addr, e))?;
        Ok(Client::from_stream(stream))
    }
}

#[cfg(unix)]
impl Client<UnixStream> {
    /// Connects over a unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the connection cannot be established.
    pub fn connect_unix(path: impl AsRef<std::path::Path>) -> Result<Client<UnixStream>, Error> {
        let path = path.as_ref();
        let stream =
            UnixStream::connect(path).map_err(|e| Error::io(path.display().to_string(), e))?;
        Ok(Client::from_stream(stream))
    }
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected bidirectional stream.
    pub fn from_stream(stream: S) -> Client<S> {
        Client {
            stream: BufReader::new(stream),
        }
    }

    /// Sends one raw request line and returns the parsed reply.
    ///
    /// The reply is returned whether its `status` is `"ok"` or
    /// `"error"` — a typed error *reply* is a successful protocol
    /// exchange. Only transport failures (closed connection, bad reply
    /// JSON, version skew) are `Err`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on transport failure, [`Error::Protocol`] when the
    /// reply is not a valid protocol message.
    pub fn request_line(&mut self, line: &str) -> Result<Value, Error> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let w = self.stream.get_mut();
        w.write_all(&buf)
            .and_then(|_| w.flush())
            .map_err(|e| Error::io("serve connection", e))?;
        let mut reply = String::new();
        self.stream
            .read_line(&mut reply)
            .map_err(|e| Error::io("serve connection", e))?;
        if reply.is_empty() {
            return Err(Error::io(
                "serve connection",
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed before reply",
                ),
            ));
        }
        let v = json::parse(reply.trim())
            .map_err(|e| Error::Protocol(format!("reply is not valid JSON: {e}")))?;
        match v.get("protocol_version").and_then(Value::as_u64) {
            Some(PROTOCOL_VERSION) => Ok(v),
            Some(other) => Err(Error::Protocol(format!(
                "daemon speaks protocol_version {other}, this client speaks {PROTOCOL_VERSION}"
            ))),
            None => Err(Error::Protocol("reply missing protocol_version".into())),
        }
    }

    /// Submits one synthesis job.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn synth(
        &mut self,
        source: &str,
        format: JobFormat,
        id: Option<&str>,
        budget: Option<&Budget>,
        telemetry: bool,
    ) -> Result<Value, Error> {
        let line = proto::synth_request(source, format, id, budget, None, telemetry);
        self.request_line(&line)
    }

    /// Submits one synthesis job, retrying `overloaded` sheds under
    /// `policy`. Returns the first non-overloaded reply, or the final
    /// overloaded reply once attempts are exhausted — inspect it with
    /// [`is_overloaded`].
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]);
    /// a shed answered within `max_attempts` is never an `Err`.
    pub fn synth_with_retry(
        &mut self,
        source: &str,
        format: JobFormat,
        id: Option<&str>,
        budget: Option<&Budget>,
        telemetry: bool,
        policy: &mut RetryPolicy,
    ) -> Result<Value, Error> {
        let attempts = policy.max_attempts.max(1);
        let mut reply = self.synth(source, format, id, budget, telemetry)?;
        for _ in 1..attempts {
            if !is_overloaded(&reply) {
                return Ok(reply);
            }
            std::thread::sleep(policy.backoff(retry_after_hint(&reply)));
            reply = self.synth(source, format, id, budget, telemetry)?;
        }
        Ok(reply)
    }

    /// Submits a BLIF job with default budget and no telemetry.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn synth_blif(&mut self, source: &str, id: Option<&str>) -> Result<Value, Error> {
        self.synth(source, JobFormat::Blif, id, None, false)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn ping(&mut self) -> Result<Value, Error> {
        self.request_line(&proto::simple_request("ping"))
    }

    /// Fetches the Prometheus-style metrics exposition (the reply's
    /// `text` field; parse it with [`xsynth_trace::metrics::parse`]).
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn metrics(&mut self) -> Result<Value, Error> {
        self.request_line(&proto::simple_request("metrics"))
    }

    /// Probes the daemon's lifecycle state (`ready` / `shedding` /
    /// `draining`) and queue gauges.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn health(&mut self) -> Result<Value, Error> {
        self.request_line(&proto::simple_request("health"))
    }

    /// Fetches the flight recorder's most recent job summaries,
    /// newest-first, truncated to `limit` when given.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn recent(&mut self, limit: Option<usize>) -> Result<Value, Error> {
        let mut o = proto::Obj::new();
        o.num("protocol_version", PROTOCOL_VERSION as f64);
        o.str("op", "recent");
        if let Some(n) = limit {
            o.num("limit", n as f64);
        }
        let line = o.finish();
        self.request_line(&line)
    }

    /// Requests graceful daemon shutdown and returns its acknowledgment.
    ///
    /// # Errors
    ///
    /// Transport or reply-framing failures (see [`Client::request_line`]).
    pub fn shutdown(&mut self) -> Result<Value, Error> {
        self.request_line(&proto::simple_request("shutdown"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_honors_the_server_hint() {
        let mut p = RetryPolicy::seeded(42);
        let mut prev = Duration::ZERO;
        for _ in 0..50 {
            let d = p.backoff(None);
            assert!(d >= p.base, "{d:?} below base");
            assert!(d <= p.cap, "{d:?} above cap");
            // decorrelated jitter: bounded by 3× the previous delay
            assert!(d <= (prev * 3).max(p.base), "{d:?} vs prev {prev:?}");
            prev = d;
        }
        // the hint floors the delay even when jitter would go lower
        let mut p = RetryPolicy::seeded(42);
        let d = p.backoff(Some(500));
        assert!(d >= Duration::from_millis(500), "{d:?}");
        // but the cap still wins over an absurd hint
        let d = p.backoff(Some(3_600_000));
        assert_eq!(d, p.cap);
    }

    #[test]
    fn backoff_is_deterministic_under_a_fixed_seed() {
        let mut a = RetryPolicy::seeded(7);
        let mut b = RetryPolicy::seeded(7);
        for _ in 0..10 {
            assert_eq!(a.backoff(None), b.backoff(None));
        }
    }

    #[test]
    fn overload_reply_helpers_parse_the_wire_shape() {
        let shed = json::parse(
            r#"{"protocol_version":1,"status":"error",
                "error":{"kind":"overloaded","exit_code":11,
                         "message":"overloaded: global queue full (retry after 250 ms)",
                         "retry_after_ms":250}}"#,
        )
        .expect("valid");
        assert!(is_overloaded(&shed));
        assert_eq!(retry_after_hint(&shed), Some(250));
        let ok = json::parse(r#"{"protocol_version":1,"status":"ok","op":"ping"}"#).expect("ok");
        assert!(!is_overloaded(&ok));
        assert_eq!(retry_after_hint(&ok), None);
        let other = json::parse(
            r#"{"protocol_version":1,"status":"error",
                "error":{"kind":"budget","exit_code":8,"message":"m"}}"#,
        )
        .expect("valid");
        assert!(!is_overloaded(&other));
        assert_eq!(retry_after_hint(&other), None);
    }
}
