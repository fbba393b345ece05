//! The daemon workloads. The daemon is this binary re-executed as
//! `xbench --daemon serve …`, which runs the `xsynth` command line's own
//! entry point (`xsynth::cli::run`), so it is `xsynth serve` built from
//! the same source. Clients are closed loops: each connection sends its
//! next job only when the previous reply has arrived.

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use xsynth::blif::{parse_blif, write_blif};
use xsynth::circuits::{build, registry};
use xsynth::map::{map_network, Library};
use xsynth::net::Network;
use xsynth::serve::{proto, Client, JobFormat};
use xsynth::sim::power_estimate;
use xsynth::trace::json::Value;
use xsynth::trace::metrics::{self, Sample};
use xsynth::trace::TraceSink;

use crate::check::{check, Reference};
use crate::gen::{self, arith_catalog, arith_texts, Arith, Prepared, Rng};
use crate::measure::{add_program_counters, raise, Opts, Pass, Quality, Run, Spans, PHASES};

/// Daemon worker threads.
const WORKERS: usize = 2;

/// A reply slower than this is a transport failure, so a wedged daemon
/// cannot hang the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Registry circuits of a `--smoke` run of `serve-warm`.
const SMOKE_CIRCUITS: [&str; 4] = ["z4ml", "f2", "majority", "rd53"];

/// The registry circuit `serve-warm` leaves out. Its specification's
/// 16-input XOR is written as a 32,768-row cover (623 KB of BLIF, half a
/// pass's request bytes), and ingesting it takes about 2 s of a 2.3 s
/// pass: the pass time and the daemon's peak memory would measure that
/// one job.
const WARM_SKIP: &str = "parity";

/// Arithmetic functions of a `--smoke` run of `serve-arith`.
const SMOKE_FUNCTIONS: usize = 8;

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    stopped: bool,
}

/// Daemons started by this process so far (names their sockets).
static STARTED: AtomicUsize = AtomicUsize::new(0);

impl Daemon {
    /// Starts `xsynth serve` on a unix socket under the output directory
    /// and waits for its listening line. (Over TCP every reply stalls on
    /// the peer's delayed ACK, about 40 ms, which would hide every layer
    /// below it; see the README.)
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating xbench: {e}"))?;
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let n = STARTED.fetch_add(1, Ordering::Relaxed);
        let socket = dir.join(format!("serve-{}-{n}.sock", std::process::id()));
        let workers = WORKERS.to_string();
        let mut child = Command::new(exe)
            .arg("--daemon")
            .args(["serve", "--workers", &workers, "--socket"])
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            stdout,
            socket,
            stopped: false,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's banner: {e}"))?;
        if !line.starts_with("# serve: listening on unix") {
            return Err(format!("unexpected daemon banner {line:?}"));
        }
        Ok(daemon)
    }

    /// Opens one client connection.
    fn connect(&self) -> Result<Client<UnixStream>, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("connecting to the daemon: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("configuring the connection: {e}"))?;
        Ok(Client::from_stream(stream))
    }

    /// Starts a daemon, opens `conns` connections and waits for a `ping`.
    fn start(conns: usize) -> Result<(Daemon, Vec<Client<UnixStream>>), String> {
        let daemon = Daemon::spawn()?;
        let mut clients = (0..conns)
            .map(|_| daemon.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let pong = clients[0].ping().map_err(|e| format!("ping: {e}"))?;
        if pong.get("status").and_then(Value::as_str) != Some("ok") {
            return Err(format!("ping answered {pong:?}"));
        }
        Ok((daemon, clients))
    }

    /// Asks the daemon to shut down and waits until it has exited.
    fn stop(mut self, client: &mut Client<UnixStream>) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        self.stopped = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.socket);
        }
    }
}

/// What the client got back for one job.
struct Reply {
    network: Network,
    blif: String,
    peak_rss_kb: u64,
    polarity_hits: f64,
    outputs: f64,
    telemetry: Option<Value>,
}

/// One job as the client saw it.
struct Outcome {
    job: usize,
    seconds: f64,
    request_bytes: usize,
    reply: Result<Reply, String>,
}

/// Encodes, sends and decodes one job.
fn serve_job(
    client: &mut Client<UnixStream>,
    p: &Prepared,
    id: &str,
    telemetry: bool,
    spans: &mut Spans,
    request_bytes: &mut usize,
) -> Result<Reply, String> {
    let line = spans.span("blif.encode", || {
        proto::synth_request(&p.blif, JobFormat::Blif, Some(id), None, None, telemetry)
    });
    *request_bytes = line.len();
    let v = spans
        .span("rpc", || client.request_line(&line))
        .map_err(|e| format!("transport: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
            .unwrap_or("?");
        return Err(format!("daemon answered a `{kind}` error"));
    }
    let blif = v
        .get("network_blif")
        .and_then(Value::as_str)
        .ok_or("reply without network_blif")?
        .to_string();
    let network = spans
        .span("blif.decode", || parse_blif(&blif))
        .map_err(|e| format!("reply BLIF does not parse: {e}"))?;
    let num = |v: Option<&Value>| v.and_then(Value::as_f64).unwrap_or(0.0);
    Ok(Reply {
        network,
        blif,
        peak_rss_kb: num(v.get("peak_rss_kb")) as u64,
        polarity_hits: num(v.get("cache").and_then(|c| c.get("polarity_hits"))),
        outputs: num(v.get("outputs")),
        telemetry: v.get("telemetry").cloned(),
    })
}

/// Runs `jobs` closed-loop over `clients` (one thread each) and returns
/// the wall time and every outcome.
fn closed_loop(
    clients: &mut [Client<UnixStream>],
    jobs: &[Prepared],
    names: &[String],
    tag: &str,
    telemetry: bool,
    sink: Option<&TraceSink>,
    key: &mut u64,
) -> (f64, Vec<Outcome>) {
    let next = AtomicUsize::new(0);
    let base = *key;
    *key += jobs.len() as u64;
    let t = Instant::now();
    let mut all = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // a plain work counter: it publishes no other data
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs.len() {
                            break out;
                        }
                        let id = format!("{tag}-{j}-{}", names[jobs[j].input]);
                        let mut spans = Spans::open(sink, base + j as u64, &id, "job");
                        let mut request_bytes = 0;
                        let t0 = Instant::now();
                        let reply = serve_job(
                            client,
                            &jobs[j],
                            &id,
                            telemetry,
                            &mut spans,
                            &mut request_bytes,
                        );
                        let seconds = t0.elapsed().as_secs_f64();
                        drop(spans);
                        out.push(Outcome {
                            job: j,
                            seconds,
                            request_bytes,
                            reply,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client threads do not panic"));
        }
    });
    (t.elapsed().as_secs_f64(), all)
}

/// Every sample of a `metrics` scrape.
fn scrape(client: &mut Client<UnixStream>) -> Result<Vec<Sample>, String> {
    let v = client.metrics().map_err(|e| format!("metrics: {e}"))?;
    let text = v
        .get("text")
        .and_then(Value::as_str)
        .ok_or("metrics reply without text")?;
    let families = metrics::parse(text)?;
    Ok(families.into_values().flat_map(|f| f.samples).collect())
}

/// Sum of the samples named `name` (with label `k=v`, if given).
fn total(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
        .map(|s| s.value)
        .sum()
}

/// Adds what the daemon's own counters say about one traced pass.
fn add_daemon_deltas(run: &mut Run, before: &[Sample], after: &[Sample], wall: f64) {
    let d = |name: &str, label| (total(after, name, label) - total(before, name, label)).max(0.0);
    for (phase, key) in PHASES {
        run.add(key, d("xsynth_phase_seconds_sum", Some(("phase", phase))));
    }
    let job_s = d("xsynth_job_seconds_sum", None);
    run.add("core.synth_s", job_s);
    run.add("serve.job_s", job_s);
    run.add("serve.capacity_s", WORKERS as f64 * wall);
    run.add("serve.queue_s", d("xsynth_queue_seconds_sum", None));
    run.add("serve.shed", d("xsynth_jobs_shed_total", None));
    run.add(
        "serve.errors",
        d("xsynth_jobs_total", Some(("outcome", "error"))),
    );
    let (hits, misses) = (
        d("xsynth_cache_hits_total", None),
        d("xsynth_cache_misses_total", None),
    );
    run.add("cache.hits", hits);
    run.add("cache.lookups", hits + misses);
    run.add(
        "cache.lookup_seconds",
        d("xsynth_cache_lookup_seconds_sum", None),
    );
    run.add(
        "cache.lookup_count",
        d("xsynth_cache_lookup_seconds_count", None),
    );
    run.add("cache.evictions", d("xsynth_cache_evictions_total", None));
    raise(
        run,
        "cache.entries",
        total(after, "xsynth_cache_entries", None),
    );
    let apply_hits = d("xsynth_bdd_apply_hits_total", None);
    run.add("bdd.apply_hits", apply_hits);
    run.add(
        "bdd.apply_lookups",
        apply_hits + d("xsynth_bdd_apply_misses_total", None),
    );
    raise(
        run,
        "bdd.peak_nodes",
        total(after, "xsynth_bdd_peak_nodes", None),
    );
}

/// Records a timed pass's outcomes: latencies, failures, reply-side
/// layer numbers and the daemon's peak memory over the pass.
fn record(run: &mut Run, jobs: &[Prepared], names: &[String], outcomes: &[Outcome], traced: bool) {
    let mut peak = 0;
    for o in outcomes {
        run.attempted += 1;
        match &o.reply {
            Ok(r) => {
                run.jobs.push((o.job, o.seconds));
                peak = peak.max(r.peak_rss_kb);
                if traced {
                    run.add("cache.polarity_hits", r.polarity_hits);
                    run.add("cache.outputs", r.outputs);
                    run.add("blif.request_bytes", o.request_bytes as f64);
                }
            }
            Err(e) => run
                .failures
                .push(format!("{}: {e}", names[jobs[o.job].input])),
        }
    }
    run.peak_rss_kb.push(peak);
}

/// Runs the next timed pass over `jobs` and records it. A traced pass
/// records spans into `sink` and reads the daemon's counters before and
/// after.
fn timed_pass(
    run: &mut Run,
    clients: &mut [Client<UnixStream>],
    jobs: &[Prepared],
    names: &[String],
    opts: &Opts,
    sink: Option<&TraceSink>,
    key: &mut u64,
) -> Result<Vec<Outcome>, String> {
    let pass = run.passes.len();
    let traced = opts.traced(pass);
    let sink = sink.filter(|_| traced);
    let before = if traced {
        scrape(&mut clients[0])?
    } else {
        Vec::new()
    };
    let tag = format!("p{pass}");
    let (wall, outcomes) = closed_loop(clients, jobs, names, &tag, false, sink, key);
    if traced {
        let after = scrape(&mut clients[0])?;
        add_daemon_deltas(run, &before, &after, wall);
    }
    run.passes.push(Pass {
        seconds: wall,
        traced,
    });
    record(run, jobs, names, &outcomes, traced);
    Ok(outcomes)
}

/// Reads the program's own counters from a pass run with `telemetry`
/// on; they are per-pass values.
fn counts_from_telemetry(run: &mut Run, outcomes: &[Outcome]) -> Result<(), String> {
    let mut counts = BTreeMap::new();
    let mut salvaged = 0.0;
    for o in outcomes {
        let reply = o
            .reply
            .as_ref()
            .map_err(|e| format!("telemetry pass: {e}"))?;
        let record = reply
            .telemetry
            .as_ref()
            .and_then(|t| t.get("records"))
            .and_then(Value::as_arr)
            .and_then(|r| r.first())
            .ok_or("telemetry reply without a record")?;
        let counters = record.get("counters");
        add_program_counters(&mut counts, |k| {
            counters
                .and_then(|c| c.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        });
        salvaged += record
            .get("salvaged")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    counts.insert("core.salvaged", salvaged);
    run.layer_values.extend(counts);
    Ok(())
}

/// Checks every distinct result (the same result under other names is
/// checked once) and takes each input's quality from its first result.
fn check_results<'a>(
    run: &mut Run,
    batches: &[(Vec<Prepared>, Vec<Outcome>)],
    reference: &dyn Fn(usize) -> Reference<'a>,
    names: &[String],
    opts: &Opts,
    sink: Option<&TraceSink>,
    key: &mut u64,
) {
    let t = Instant::now();
    let lib = Library::mcnc();
    let mut seen: HashSet<(usize, String)> = HashSet::new();
    for (jobs, outcomes) in batches {
        for o in outcomes {
            let Ok(reply) = &o.reply else { continue };
            let p = &jobs[o.job];
            if !seen.insert((p.input, gen::map_names(&reply.blif, &p.original))) {
                continue;
            }
            let _span = Spans::open(sink, *key, &names[p.input], "check");
            *key += 1;
            let original = |s: &str| p.original_name(s).to_string();
            if let Err(e) = check(&reply.network, &original, &reference(p.input), opts.seed) {
                run.failures
                    .push(format!("{}: independent check: {e}", names[p.input]));
                continue;
            }
            run.quality.entry(p.input).or_insert_with(|| {
                let mapping = map_network(&reply.network, &lib);
                Quality {
                    premap_lits: reply.network.two_input_cost().1,
                    map_lits: mapping.num_literals(),
                    power: power_estimate(&mapping.to_network(&lib)).total,
                }
            });
        }
    }
    run.layer_values
        .insert("check.busy_s", t.elapsed().as_secs_f64());
}

/// The `serve-warm` workload: one daemon, primed once with the registry
/// circuits (all but [`WARM_SKIP`]), then timed passes in which every
/// signal and model carries a fresh name, over two connections.
pub fn warm(opts: &Opts) -> Result<Run, String> {
    let names: Vec<String> = registry()
        .into_iter()
        .map(|b| b.name)
        .filter(|n| *n != WARM_SKIP && (!opts.smoke || SMOKE_CIRCUITS.contains(n)))
        .map(String::from)
        .collect();
    let specs: Vec<Network> = names
        .iter()
        .map(|n| build(n).expect("registry circuits build"))
        .collect();
    let texts: Vec<String> = specs.iter().map(write_blif).collect();
    let prime: Vec<Prepared> = texts
        .iter()
        .enumerate()
        .map(|(input, t)| Prepared {
            input,
            blif: t.clone(),
            original: Default::default(),
        })
        .collect();
    let mut run = Run::default();
    let sink = opts.trace.then(TraceSink::new);
    let mut key = 0;
    let mut batches = Vec::new();
    // set-up is spawn to first ping plus the priming pass; the first
    // sample's daemon serves the timed passes, the others are taken after
    // them, so the samples span the run
    let set_up = |run: &mut Run, key: &mut u64| -> Result<_, String> {
        let t = Instant::now();
        let (daemon, mut clients) = Daemon::start(2)?;
        let (_, outcomes) = closed_loop(&mut clients, &prime, &names, "prime", false, None, key);
        run.setup.push(t.elapsed().as_secs_f64());
        match outcomes.iter().find_map(|o| o.reply.as_ref().err()) {
            Some(e) => Err(format!("priming failed: {e}")),
            None => Ok((daemon, clients)),
        }
    };
    let (daemon, mut clients) = set_up(&mut run, &mut key)?;
    let mut rng = Rng::new(opts.seed);
    let started = Instant::now();
    while opts.another_pass(&run.passes, started) {
        let pass = run.passes.len();
        let pass_sink = sink.as_ref().filter(|_| opts.traced(pass));
        let jobs = {
            let _span = Spans::open(pass_sink, key, &format!("p{pass}"), "build");
            key += 1;
            gen::pass(&texts, &mut rng)
        };
        let outcomes = timed_pass(
            &mut run,
            &mut clients,
            &jobs,
            &names,
            opts,
            pass_sink,
            &mut key,
        )?;
        batches.push((jobs, outcomes));
    }
    if opts.trace {
        let jobs = gen::pass(&texts, &mut rng);
        let (_, outcomes) =
            closed_loop(&mut clients, &jobs, &names, "counts", true, None, &mut key);
        counts_from_telemetry(&mut run, &outcomes)?;
    }
    daemon.stop(&mut clients[0])?;
    for _ in 1..opts.setup_samples() {
        let (daemon, mut clients) = set_up(&mut run, &mut key)?;
        daemon.stop(&mut clients[0])?;
    }
    let reference = |i: usize| Reference::network(&specs[i]);
    check_results(
        &mut run,
        &batches,
        &reference,
        &names,
        opts,
        sink.as_ref(),
        &mut key,
    );
    run.trace = sink.map(|s| s.take());
    Ok(run)
}

/// The reference of an arithmetic function: its formula, evaluated on
/// the input word, independent of any network.
fn arith_reference(f: Arith) -> Reference<'static> {
    let n = f.inputs();
    let outs = f.out_bits();
    Reference {
        inputs: (0..n).map(|i| format!("x{i}")).collect(),
        outputs: (0..outs).map(|o| format!("y{o}")).collect(),
        eval: Box::new(move |v| {
            let m = v
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
            let y = f.eval(m);
            (0..outs).map(|o| (y >> o) & 1 == 1).collect()
        }),
    }
}

/// The `serve-arith` workload: every pass feeds the fixed arithmetic
/// catalogue, in catalogue order under seeded names, to a fresh daemon
/// over one connection, so the result cache starts empty every pass and
/// hits only on output cones two functions share.
pub fn arith(opts: &Opts) -> Result<Run, String> {
    let mut run = Run::default();
    let sink = opts.trace.then(TraceSink::new);
    let mut key = 0;
    let mut catalog = arith_catalog();
    if opts.smoke {
        catalog.truncate(SMOKE_FUNCTIONS);
    }
    let names: Vec<String> = catalog.iter().map(Arith::name).collect();
    let mut jobs = Vec::new();
    let mut batches = Vec::new();
    let started = Instant::now();
    while opts.another_pass(&run.passes, started) {
        // set-up, afresh for every pass: generate the job stream, start a
        // daemon and wait for its first ping
        let t = Instant::now();
        jobs = gen::pass(&arith_texts(&catalog), &mut Rng::new(opts.seed));
        let (daemon, mut clients) = Daemon::start(1)?;
        run.setup.push(t.elapsed().as_secs_f64());
        let outcomes = timed_pass(
            &mut run,
            &mut clients,
            &jobs,
            &names,
            opts,
            sink.as_ref(),
            &mut key,
        )?;
        daemon.stop(&mut clients[0])?;
        batches.push((jobs.clone(), outcomes));
    }
    if opts.trace {
        let (daemon, mut clients) = Daemon::start(1)?;
        let (_, outcomes) =
            closed_loop(&mut clients, &jobs, &names, "counts", true, None, &mut key);
        daemon.stop(&mut clients[0])?;
        counts_from_telemetry(&mut run, &outcomes)?;
    }
    let reference = |i: usize| arith_reference(catalog[i].clone());
    check_results(
        &mut run,
        &batches,
        &reference,
        &names,
        opts,
        sink.as_ref(),
        &mut key,
    );
    run.trace = sink.map(|s| s.take());
    Ok(run)
}
