//! End-to-end tests of the `xsynth serve` daemon over real sockets:
//! warm-cache resubmission, concurrent clients under tight budgets,
//! protocol-version enforcement, and graceful shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use xsynth::core::Budget;
use xsynth::serve::{
    proto, Client, JobFormat, RetryPolicy, ServeOptions, Server, PROTOCOL_VERSION,
};
use xsynth::trace::json::Value;

/// A 2-output full adder in BLIF: enough structure for the polarity
/// descent and factoring to do real work.
const ADDER_BLIF: &str = "\
.model adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
";

/// A structurally identical circuit under different net names — must hit
/// the content-addressed cache.
const ADDER_BLIF_RENAMED: &str = "\
.model adder2
.inputs x y z
.outputs s c
.names x y z s
100 1
010 1
001 1
111 1
.names x y z c
11- 1
1-1 1
-11 1
.end
";

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn unix_path(tag: &str) -> std::path::PathBuf {
    let n = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "xsynth-serve-test-{}-{tag}-{n}.sock",
        std::process::id()
    ))
}

fn spawn(workers: usize) -> Server {
    Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        unix: Some(unix_path("srv")),
        workers,
        ..ServeOptions::default()
    })
    .expect("bind server")
}

fn field_u64(v: &Value, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {v:?}"));
    }
    cur.as_u64().unwrap_or_else(|| panic!("{path:?} not a u64"))
}

fn field_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string {key} in {v:?}"))
}

#[test]
fn duplicate_jobs_hit_the_cache_and_return_bit_identical_networks() {
    let server = spawn(2);
    let path = server.unix_path().expect("unix bound").to_path_buf();
    let mut client = Client::connect_unix(&path).expect("connect");

    let cold = client
        .synth(ADDER_BLIF, JobFormat::Blif, Some("cold"), None, false)
        .expect("cold job");
    assert_eq!(field_str(&cold, "status"), "ok", "{cold:?}");
    assert_eq!(field_u64(&cold, &["cache", "polarity_hits"]), 0);
    let cold_blif = field_str(&cold, "network_blif").to_string();
    assert!(cold_blif.contains(".model"), "{cold_blif}");

    // Same circuit again, with telemetry: the polarity descent is skipped
    // (no candidates evaluated), the cache-hit gauge is nonzero, and the
    // network is byte-for-byte the cold result.
    let warm = client
        .synth(ADDER_BLIF, JobFormat::Blif, Some("warm"), None, true)
        .expect("warm job");
    assert_eq!(field_str(&warm, "status"), "ok", "{warm:?}");
    assert_eq!(field_u64(&warm, &["cache", "polarity_hits"]), 2);
    assert_eq!(field_str(&warm, "network_blif"), cold_blif);
    let telemetry = warm.get("telemetry").expect("telemetry attached");
    let record = &telemetry
        .get("records")
        .and_then(Value::as_arr)
        .expect("records")[0];
    assert_eq!(field_str(record, "verified"), "verified");
    let gauges = record.get("gauges").expect("gauges");
    assert!(
        field_u64(gauges, &["cache.hits"]) >= 2,
        "warm run must report cache hits: {gauges:?}"
    );
    let counters = record.get("counters").expect("counters");
    assert!(
        counters.get("polarity.evaluated").is_none(),
        "warm run must not run the polarity descent: {counters:?}"
    );

    // A structurally identical circuit under fresh names also hits.
    let renamed = client
        .synth(
            ADDER_BLIF_RENAMED,
            JobFormat::Blif,
            Some("renamed"),
            None,
            false,
        )
        .expect("renamed job");
    assert_eq!(field_u64(&renamed, &["cache", "polarity_hits"]), 2);

    // The metrics op sees the shared engine's cache accounting.
    let reply = client.metrics().expect("metrics");
    let text = field_str(&reply, "text");
    let families = xsynth::trace::metrics::parse(text).expect("strict parse");
    let value = |family: &str| families[family].samples[0].value;
    assert!(value("xsynth_cache_hits_total") >= 4.0, "{text}");
    assert!(value("xsynth_cache_entries") >= 1.0, "{text}");
    assert!(value("xsynth_requests_total") >= 3.0, "{text}");

    server.shutdown();
    server.wait();
    assert!(!path.exists(), "unix socket must be unlinked on shutdown");
}

#[test]
fn concurrent_clients_under_tight_budgets_get_typed_errors_not_hangs() {
    let server = spawn(2);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let starved = Budget::default().bdd_node_cap(Some(8));

    let handles: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let starved = starved.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                for j in 0..3 {
                    let id = format!("c{i}-j{j}");
                    let reply = client
                        .synth(
                            ADDER_BLIF,
                            JobFormat::Blif,
                            Some(&id),
                            Some(&starved),
                            false,
                        )
                        .expect("a reply always arrives");
                    assert_eq!(field_str(&reply, "status"), "error", "{reply:?}");
                    assert_eq!(field_str(&reply, "id"), id);
                    let error = reply.get("error").expect("error object");
                    assert_eq!(field_str(error, "kind"), "budget");
                    assert_eq!(field_u64(error, &["exit_code"]), 8);
                }
                // the connection survives all those failures
                let ok = client
                    .synth(ADDER_BLIF, JobFormat::Blif, Some("fine"), None, false)
                    .expect("unbudgeted job");
                assert_eq!(field_str(&ok, "status"), "ok");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    server.shutdown();
    server.wait();
}

#[test]
fn protocol_violations_answer_exit_code_10_and_keep_the_connection() {
    let server = spawn(1);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    for bad in [
        format!(
            r#"{{"protocol_version":{},"op":"ping"}}"#,
            PROTOCOL_VERSION + 1
        ),
        r#"{"op":"ping"}"#.to_string(),
        r#"{"protocol_version":1,"op":"transmogrify"}"#.to_string(),
        // `stats` is not an op: `metrics` reports the cache and request totals
        r#"{"protocol_version":1,"op":"stats"}"#.to_string(),
        r#"{"protocol_version":1,"op":"synth","source":"x","extra":1}"#.to_string(),
        "this is not json".to_string(),
    ] {
        let reply = client.request_line(&bad).expect("error reply, not a drop");
        assert_eq!(field_str(&reply, "status"), "error", "{bad}");
        let error = reply.get("error").expect("error object");
        assert_eq!(field_str(error, "kind"), "protocol", "{bad}");
        assert_eq!(field_u64(error, &["exit_code"]), 10, "{bad}");
    }
    // the session is still healthy
    let pong = client.ping().expect("ping");
    assert_eq!(field_str(&pong, "status"), "ok");

    // a malformed *circuit* (valid protocol message) is a parse error
    let reply = client
        .synth("not blif at all", JobFormat::Blif, None, None, false)
        .expect("reply");
    assert_eq!(field_str(&reply, "status"), "error");
    assert_eq!(
        field_str(reply.get("error").expect("error"), "kind"),
        "parse"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn request_ids_round_trip_and_the_flight_recorder_replays_them() {
    let server = spawn(1);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    // a client-supplied id is echoed verbatim
    let reply = client
        .synth(ADDER_BLIF, JobFormat::Blif, Some("my-req-1"), None, false)
        .expect("job");
    assert_eq!(field_str(&reply, "status"), "ok", "{reply:?}");
    assert_eq!(field_str(&reply, "id"), "my-req-1");

    // with no id the server assigns one and still echoes it
    let reply = client
        .synth(ADDER_BLIF, JobFormat::Blif, None, None, false)
        .expect("job");
    let assigned = field_str(&reply, "id").to_string();
    assert!(assigned.starts_with("job-"), "{assigned}");

    // the flight recorder replays both, newest first, ids intact
    let recent = client.recent(None).expect("recent");
    assert_eq!(field_str(&recent, "status"), "ok", "{recent:?}");
    assert_eq!(field_u64(&recent, &["count"]), 2);
    let jobs = recent
        .get("jobs")
        .and_then(Value::as_arr)
        .expect("jobs array");
    assert_eq!(field_str(&jobs[0], "id"), assigned);
    assert_eq!(field_str(&jobs[1], "id"), "my-req-1");
    assert_eq!(field_str(&jobs[1], "outcome"), "ok");
    assert!(field_u64(&jobs[1], &["peak_nodes"]) > 0, "{:?}", jobs[1]);
    assert_eq!(field_str(&jobs[1], "cone_hash").len(), 32);

    // limit trims to the most recent entries
    let one = client.recent(Some(1)).expect("recent limit");
    assert_eq!(field_u64(&one, &["count"]), 1);
    let jobs = one.get("jobs").and_then(Value::as_arr).expect("jobs array");
    assert_eq!(field_str(&jobs[0], "id"), assigned);

    // failed jobs are recorded too, with the wire error taxonomy
    let starved = Budget::default().bdd_node_cap(Some(8));
    let bad = client
        .synth(
            ADDER_BLIF,
            JobFormat::Blif,
            Some("starved"),
            Some(&starved),
            false,
        )
        .expect("reply");
    assert_eq!(field_str(&bad, "status"), "error");
    assert_eq!(field_str(&bad, "id"), "starved");
    let recent = client.recent(Some(1)).expect("recent");
    let jobs = recent
        .get("jobs")
        .and_then(Value::as_arr)
        .expect("jobs array");
    assert_eq!(field_str(&jobs[0], "id"), "starved");
    assert_eq!(field_str(&jobs[0], "outcome"), "error");
    assert_eq!(field_str(&jobs[0], "error_kind"), "budget");

    server.shutdown();
    server.wait();
}

#[test]
fn metrics_exposition_parses_strictly_and_counts_jobs() {
    let server = spawn(2);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    for i in 0..3 {
        let id = format!("m{i}");
        let reply = client
            .synth(ADDER_BLIF, JobFormat::Blif, Some(&id), None, false)
            .expect("job");
        assert_eq!(field_str(&reply, "status"), "ok", "{reply:?}");
    }

    let reply = client.metrics().expect("metrics");
    assert_eq!(field_str(&reply, "status"), "ok", "{reply:?}");
    assert_eq!(field_str(&reply, "op"), "metrics");
    let text = field_str(&reply, "text");
    let families = xsynth::trace::metrics::parse(text).expect("strict parse");

    // engine-lifetime totals
    let jobs = &families["xsynth_jobs_total"];
    let ok = jobs
        .samples
        .iter()
        .find(|s| s.label("outcome") == Some("ok"))
        .expect("ok sample");
    assert_eq!(ok.value, 3.0, "{text}");

    // the job-latency histogram: cumulative buckets ending in +Inf ==
    // count == 3, plus the derived percentile gauges
    let hist = &families["xsynth_job_seconds"];
    let inf = hist
        .samples
        .iter()
        .find(|s| s.name == "xsynth_job_seconds_bucket" && s.label("le") == Some("+Inf"))
        .expect("+Inf bucket");
    assert_eq!(inf.value, 3.0, "{text}");
    let count = hist
        .samples
        .iter()
        .find(|s| s.name == "xsynth_job_seconds_count")
        .expect("count sample");
    assert_eq!(count.value, 3.0);
    for gauge in ["xsynth_job_seconds_p50", "xsynth_job_seconds_p99"] {
        let p = &families[gauge].samples[0];
        assert!(p.value > 0.0, "{gauge} must be derived from real samples");
    }

    // the rest of the surface is present even where still empty
    for name in [
        "xsynth_requests_total",
        "xsynth_uptime_seconds",
        "xsynth_workers",
        "xsynth_workers_busy",
        "xsynth_cache_hits_total",
        "xsynth_cache_misses_total",
        "xsynth_cache_entries",
        "xsynth_cache_lookup_seconds",
        "xsynth_bdd_peak_nodes",
        "xsynth_queue_seconds",
        "xsynth_job_bdd_nodes",
    ] {
        assert!(families.contains_key(name), "missing family {name}");
    }

    server.shutdown();
    server.wait();
}

/// Parses every newline-delimited JSON reply left on a stream until EOF.
fn read_replies(stream: impl Read) -> Vec<Value> {
    let mut replies = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break, // reset mid-drain counts as EOF
        };
        if line.trim().is_empty() {
            continue;
        }
        replies.push(xsynth::trace::json::parse(&line).expect("reply is JSON"));
    }
    replies
}

fn error_kind(reply: &Value) -> Option<&str> {
    reply.get("error")?.get("kind")?.as_str()
}

#[test]
fn flood_sheds_typed_overloaded_replies_and_the_daemon_recovers() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        per_conn_queue: 2,
        global_queue: 4,
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // Pipeline one burst of jobs far past both queue bounds, through a
    // raw socket so nothing throttles the flood client-side.
    const FLOOD: usize = 40;
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    for i in 0..FLOOD {
        let id = format!("flood-{i}");
        burst.push_str(&proto::synth_request(
            ADDER_BLIF,
            JobFormat::Blif,
            Some(&id),
            None,
            None,
            false,
        ));
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("flood burst");
    stream.flush().expect("flush");

    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut ok = 0usize;
    let mut shed = 0usize;
    for line in reader.lines().take(FLOOD) {
        let reply = xsynth::trace::json::parse(&line.expect("reply line")).expect("reply JSON");
        match field_str(&reply, "status") {
            "ok" => ok += 1,
            "error" => {
                let error = reply.get("error").expect("error object");
                assert_eq!(field_str(error, "kind"), "overloaded", "{reply:?}");
                assert_eq!(field_u64(error, &["exit_code"]), 11);
                let hint = field_u64(error, &["retry_after_ms"]);
                assert!(hint >= 1, "retry hint must be positive: {reply:?}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {reply:?}"),
        }
    }
    assert_eq!(ok + shed, FLOOD, "every request is answered, never dropped");
    assert!(shed >= 1, "a 40-job burst over a 4-deep queue must shed");
    assert!(ok >= 1, "admitted jobs still complete under flood");

    // The shed/cancel counters surface in the metrics exposition.
    let mut probe = Client::connect_tcp(&addr).expect("connect probe");
    let metrics = probe.metrics().expect("metrics");
    let text = field_str(&metrics, "text");
    let families = xsynth::trace::metrics::parse(text).expect("strict parse");
    for family in [
        "xsynth_jobs_shed_total",
        "xsynth_jobs_cancelled_total",
        "xsynth_conns_reaped_total",
        "xsynth_queue_depth",
        "xsynth_queue_capacity",
    ] {
        assert!(families.contains_key(family), "missing family {family}");
    }
    assert!(
        families["xsynth_jobs_shed_total"].samples[0].value >= shed as f64,
        "{text}"
    );

    // Once the burst is answered the daemon is warm, not wedged: a
    // retrying client gets a clean result immediately.
    let mut policy = RetryPolicy::seeded(7);
    let reply = probe
        .synth_with_retry(
            ADDER_BLIF,
            JobFormat::Blif,
            Some("after"),
            None,
            false,
            &mut policy,
        )
        .expect("post-flood job");
    assert_eq!(field_str(&reply, "status"), "ok", "{reply:?}");

    server.shutdown();
    server.wait();
}

#[test]
fn slow_loris_partial_lines_are_reaped_with_a_typed_error() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        read_timeout: Duration::from_millis(200),
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    // half a request line, never completed
    stream
        .write_all(br#"{"protocol_version":1,"op":"#)
        .expect("partial write");
    stream.flush().expect("flush");

    let replies = read_replies(stream);
    assert_eq!(
        replies.len(),
        1,
        "one typed reply then the reap: {replies:?}"
    );
    assert_eq!(field_str(&replies[0], "status"), "error");
    assert_eq!(
        error_kind(&replies[0]),
        Some("protocol"),
        "{:?}",
        replies[0]
    );
    let msg = field_str(replies[0].get("error").expect("error"), "message");
    assert!(msg.contains("stalled"), "{msg}");

    // the daemon itself is unharmed
    let mut probe = Client::connect_tcp(&addr).expect("connect probe");
    assert_eq!(field_str(&probe.ping().expect("ping"), "status"), "ok");

    server.shutdown();
    server.wait();
}

#[test]
fn idle_connections_are_reaped_silently() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        idle_timeout: Duration::from_millis(150),
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    // no bytes at all: the daemon must hang up on its own
    let replies = read_replies(stream);
    assert!(replies.is_empty(), "idle reap sends nothing: {replies:?}");

    let mut probe = Client::connect_tcp(&addr).expect("connect probe");
    let metrics = probe.metrics().expect("metrics");
    let families =
        xsynth::trace::metrics::parse(field_str(&metrics, "text")).expect("strict parse");
    assert!(families["xsynth_conns_reaped_total"].samples[0].value >= 1.0);

    server.shutdown();
    server.wait();
}

#[test]
fn oversized_request_lines_answer_a_typed_protocol_error() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        max_line_bytes: 256,
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let huge = format!("{}\n", "x".repeat(4096));
    stream.write_all(huge.as_bytes()).expect("oversized line");
    // the same connection keeps working afterwards
    stream
        .write_all(proto::simple_request("ping").as_bytes())
        .expect("ping");
    stream.write_all(b"\n").expect("newline");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    let reply = xsynth::trace::json::parse(&line).expect("reply JSON");
    assert_eq!(field_str(&reply, "status"), "error");
    assert_eq!(error_kind(&reply), Some("protocol"), "{reply:?}");
    let msg = field_str(reply.get("error").expect("error"), "message");
    assert!(msg.contains("exceeds"), "{msg}");
    line.clear();
    reader.read_line(&mut line).expect("pong");
    let pong = xsynth::trace::json::parse(&line).expect("pong JSON");
    assert_eq!(field_str(&pong, "status"), "ok", "{pong:?}");

    drop(reader);
    server.shutdown();
    server.wait();
}

#[test]
fn expired_deadlines_shed_queued_jobs_before_synthesis() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    // One burst: several jobs to keep the single worker busy, then a
    // 1 ms-deadline job that is guaranteed to outwait its deadline in
    // the queue behind them.
    let mut burst = String::new();
    for i in 0..8 {
        let id = format!("filler-{i}");
        burst.push_str(&proto::synth_request(
            ADDER_BLIF,
            JobFormat::Blif,
            Some(&id),
            None,
            None,
            true,
        ));
        burst.push('\n');
    }
    burst.push_str(&proto::synth_request(
        ADDER_BLIF,
        JobFormat::Blif,
        Some("deadline"),
        None,
        Some(1),
        false,
    ));
    burst.push('\n');

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(burst.as_bytes()).expect("burst");
    stream.flush().expect("flush");

    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut deadline_reply = None;
    for _ in 0..9 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        let reply = xsynth::trace::json::parse(&line).expect("reply JSON");
        if reply.get("id").and_then(Value::as_str) == Some("deadline") {
            deadline_reply = Some(reply);
        }
    }
    let reply = deadline_reply.expect("the deadline job was answered");
    assert_eq!(field_str(&reply, "status"), "error", "{reply:?}");
    let error = reply.get("error").expect("error object");
    assert_eq!(field_str(error, "kind"), "overloaded", "{reply:?}");
    assert_eq!(field_u64(error, &["exit_code"]), 11);
    assert!(
        field_str(error, "message").contains("deadline_ms"),
        "{reply:?}"
    );

    drop(reader);
    server.shutdown();
    server.wait();
}

#[test]
fn health_probes_report_lifecycle_state_and_queue_gauges() {
    let server = spawn(1);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let health = client.health().expect("health");
    assert_eq!(field_str(&health, "status"), "ok", "{health:?}");
    assert_eq!(field_str(&health, "op"), "health");
    assert_eq!(field_str(&health, "state"), "ready");
    assert!(field_u64(&health, &["queue_capacity"]) >= 1);
    assert_eq!(field_u64(&health, &["queue_depth"]), 0);

    server.shutdown();
    server.wait();
}

#[test]
fn tcp_ping_round_trips_do_not_wait_for_delayed_acks() {
    // A reply written in two segments on a Nagle-enabled socket waits for
    // the peer's delayed ACK (~40 ms); one write with TCP_NODELAY does not.
    let server = spawn(1);
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t = std::time::Instant::now();
            let pong = client.ping().expect("ping");
            assert_eq!(field_str(&pong, "status"), "ok", "{pong:?}");
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median TCP ping round trip {median:?}"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn drain_under_load_answers_every_queued_job_ok_or_typed_shed() {
    let server = Server::bind(ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        drain_timeout: Duration::ZERO, // shed the backlog immediately
        ..ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();

    const JOBS: usize = 20;
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    for i in 0..JOBS {
        let id = format!("drain-{i}");
        burst.push_str(&proto::synth_request(
            ADDER_BLIF,
            JobFormat::Blif,
            Some(&id),
            None,
            None,
            false,
        ));
        burst.push('\n');
    }
    stream.write_all(burst.as_bytes()).expect("burst");
    stream.flush().expect("flush");

    // wait for the first completion so the backlog is truly queued
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut first = String::new();
    reader.read_line(&mut first).expect("first reply");
    let first = xsynth::trace::json::parse(&first).expect("reply JSON");
    assert_eq!(field_str(&first, "status"), "ok", "{first:?}");

    server.shutdown(); // begin the drain with ~19 jobs still queued

    let replies = read_replies(reader);
    let mut ok = 1usize; // the pre-drain reply above
    let mut shed = 0usize;
    for reply in &replies {
        match field_str(reply, "status") {
            "ok" => ok += 1,
            "error" => {
                assert_eq!(error_kind(reply), Some("overloaded"), "{reply:?}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {reply:?}"),
        }
    }
    assert_eq!(
        ok + shed,
        JOBS,
        "drain must answer or shed every queued job: {replies:?}"
    );
    assert!(
        shed >= 1,
        "a zero-grace drain with a deep backlog must shed: {replies:?}"
    );
    server.wait(); // and the daemon actually stops
}

/// The `--drain-on-term` supervisor pair, end to end through the real
/// binary: SIGTERM kills the supervisor with the conventional 143-family
/// exit (signal 15), while the orphaned daemon notices the closed stdin
/// pipe, answers what it can, and unlinks its socket on the way out.
#[cfg(unix)]
#[test]
fn sigterm_on_the_supervisor_drains_the_daemon_gracefully() {
    use std::os::unix::process::ExitStatusExt;

    let path = unix_path("term");
    let mut supervisor = std::process::Command::new(env!("CARGO_BIN_EXE_xsynth"))
        .args([
            "serve",
            "--socket",
            path.to_str().expect("utf8 path"),
            "--workers",
            "1",
            "--drain-on-term",
            "--drain-timeout-ms",
            "3000",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn supervisor");

    // the daemon child announces the socket through the inherited stdout
    let mut stdout = BufReader::new(supervisor.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    assert!(banner.contains("listening on unix"), "{banner}");

    // a live connection with one job in flight when the TERM lands; the
    // pipelined ping is answered by the reader in arrival order, so any
    // first reply proves the daemon admitted the job before the signal
    let mut stream = std::os::unix::net::UnixStream::connect(&path).expect("connect");
    let line = proto::synth_request(
        ADDER_BLIF,
        JobFormat::Blif,
        Some("inflight"),
        None,
        None,
        false,
    );
    stream.write_all(line.as_bytes()).expect("job");
    stream.write_all(b"\n").expect("newline");
    stream
        .write_all(proto::simple_request("ping").as_bytes())
        .expect("ping");
    stream.write_all(b"\n").expect("newline");
    stream.flush().expect("flush");
    let mut first = String::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    reader.read_line(&mut first).expect("first reply");
    let first = xsynth::trace::json::parse(&first).expect("first reply JSON");

    let term = std::process::Command::new("kill")
        .args(["-TERM", &supervisor.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    // the supervisor dies by the signal, as a service manager expects
    let status = supervisor.wait().expect("supervisor exit");
    assert_eq!(status.signal(), Some(15), "{status:?}");

    // the orphaned daemon answers both pipelined lines — the pong plus
    // the job (ok, or a typed shed if the drain deadline won the race)
    // — then hangs up
    let mut replies = vec![first];
    let mut buf = String::new();
    loop {
        buf.clear();
        if reader.read_line(&mut buf).expect("reply") == 0 {
            break;
        }
        replies.push(xsynth::trace::json::parse(buf.trim()).expect("reply JSON"));
    }
    assert_eq!(replies.len(), 2, "{replies:?}");
    let (pongs, jobs): (Vec<_>, Vec<_>) = replies
        .iter()
        .partition(|r| r.get("op").and_then(Value::as_str) == Some("ping"));
    assert_eq!(pongs.len(), 1, "{replies:?}");
    assert_eq!(field_str(pongs[0], "status"), "ok", "{:?}", pongs[0]);
    assert!(
        field_str(jobs[0], "status") == "ok" || error_kind(jobs[0]) == Some("overloaded"),
        "{:?}",
        jobs[0]
    );

    // and cleans up its socket before exiting
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while path.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(!path.exists(), "daemon must unlink its socket on drain");
}

#[test]
fn pla_jobs_and_wire_shutdown_work_end_to_end() {
    let server = spawn(1);
    let path = server.unix_path().expect("unix bound").to_path_buf();
    let mut client = Client::connect_unix(&path).expect("connect");

    let reply = client
        .synth(
            ".i 2\n.o 1\n11 1\n.e\n",
            JobFormat::Pla,
            Some("and2"),
            None,
            false,
        )
        .expect("pla job");
    assert_eq!(field_str(&reply, "status"), "ok", "{reply:?}");
    assert!(field_str(&reply, "network_blif").contains(".model"));

    // shutdown over the wire: acknowledged, then the daemon drains and exits
    let ack = client.shutdown().expect("shutdown ack");
    assert_eq!(field_str(&ack, "status"), "ok");
    assert_eq!(field_str(&ack, "op"), "shutdown");
    server.wait();
}
