//! The daemon: listeners, the fair job scheduler, and the worker pool.
//!
//! Architecture — one thread family per concern, all std-only:
//!
//! - an **accept loop** per listener (TCP and/or unix socket) polls a
//!   nonblocking `accept` so shutdown never hangs on a blocked syscall;
//! - a **reader thread** per connection turns the byte stream into
//!   newline-delimited request lines and submits them to the scheduler;
//! - the **scheduler** keeps one FIFO queue per connection and hands jobs
//!   out round-robin across connections, so a client that pipelines a
//!   hundred jobs cannot starve a client that sends one;
//! - a **worker pool** runs each job as one
//!   [`xsynth_core::try_synthesize`] call — nothing is kept between
//!   jobs — and writes each reply under the connection's write lock.
//!
//! Worker panics are contained per job: the connection receives a typed
//! `status: "error"` reply instead of being dropped.
//!
//! **Admission control.** Queues are bounded per connection and
//! daemon-wide; a job that would exceed either bound is *shed* — the
//! reader thread itself answers a typed `overloaded` error (exit code
//! 11) carrying a `retry_after_ms` backoff hint, so a flooded daemon
//! stays responsive instead of buffering without limit. Request lines
//! are capped in bytes (oversized lines are discarded to the next
//! newline and answered with a protocol error), a half-received line
//! must complete within the read timeout (slow-loris protection), and a
//! silent connection is reaped after the idle timeout. When a
//! connection drops, its queued jobs are cancelled before a worker
//! starts them.
//!
//! **Lifecycle.** The daemon runs a three-state machine: *running* →
//! *draining* → *stopped*. A `shutdown` request (or
//! [`Server::shutdown`]) moves to draining: listeners stop accepting,
//! new submissions are shed as `overloaded`, and queued jobs keep
//! answering until the drain timeout, after which the remainder is shed
//! with typed errors and the daemon stops — the exit-0 path never hangs
//! on queued work.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xsynth_bench::{record_from_run, BenchSuite};
use xsynth_blif::{parse_blif, parse_pla, write_blif};
use xsynth_core::{try_synthesize, Error, SynthOptions};
use xsynth_map::Library;
use xsynth_net::{GateKind, Network, NodeKind, SignalId};
use xsynth_trace::metrics::Exposition;
use xsynth_trace::{json, Histogram};

use crate::proto::{self, JobFormat, JobRequest, Request};

/// How long an accept loop backs off after a failed `accept` (for
/// example, the process is out of file descriptors) before retrying.
const ACCEPT_RETRY: Duration = Duration::from_millis(25);

/// How long [`Server::wait`] waits for an accept loop to exit once the
/// workers are done. A loop the drain's wake-up connection reached exits
/// at once; one it could not reach is left blocked in `accept`.
const ACCEPT_EXIT_GRACE: Duration = Duration::from_secs(1);

/// Socket read-timeout tick: the longest a reader thread blocks in
/// `read` before re-checking lifecycle state (stop flag, line stall,
/// idle deadline). Shed replies also go out within one tick, because
/// the reader answers them itself.
const READ_TICK: Duration = Duration::from_millis(50);

/// Socket write timeout for replies: a peer that stops reading cannot
/// pin a worker for longer than this.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the drain watchdog re-checks whether the queues emptied.
const DRAIN_POLL: Duration = Duration::from_millis(5);

/// `retry_after_ms` fallback before any job has completed (no latency
/// distribution to base the hint on yet).
const DEFAULT_RETRY_HINT_MS: u64 = 100;

/// Bounds on the `retry_after_ms` hint: never so small that clients
/// hammer a saturated daemon, never so large that they strand capacity.
const MIN_RETRY_HINT_MS: u64 = 25;
const MAX_RETRY_HINT_MS: u64 = 10_000;

/// Lifecycle states (see the module docs): accepting and admitting.
const STATE_RUNNING: u8 = 0;
/// Listeners closed, admissions shed, queued work still answering.
const STATE_DRAINING: u8 = 1;
/// Drain complete (or timed out); every thread family is exiting.
const STATE_STOPPED: u8 = 2;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP listen address (e.g. `"127.0.0.1:7171"`, port 0 for
    /// ephemeral). `None` skips the TCP listener.
    pub tcp: Option<String>,
    /// Unix-domain socket path. `None` skips the unix listener. A stale
    /// socket file (left by a killed daemon) is removed and rebound; a
    /// *live* one is an [`Error::Io`].
    pub unix: Option<PathBuf>,
    /// Worker pool size; `0` sizes from available parallelism, capped
    /// at 4, which bounds how many jobs (and their BDD memory) run at once.
    pub workers: usize,
    /// Default synthesis options for jobs that don't override them.
    pub options: SynthOptions,
    /// Per-connection queue bound: a connection pipelining more
    /// unanswered jobs than this has the excess shed as `overloaded`.
    pub per_conn_queue: usize,
    /// Daemon-wide queued-job bound across all connections.
    pub global_queue: usize,
    /// Longest request line accepted, in bytes. Oversized lines are
    /// discarded to the next newline and answered with a typed protocol
    /// error, so one client cannot balloon the daemon's memory.
    pub max_line_bytes: usize,
    /// A partially received request line must complete within this
    /// window or the connection is reaped (slow-loris protection).
    pub read_timeout: Duration,
    /// A connection with no bytes in flight for this long is reaped.
    pub idle_timeout: Duration,
    /// Grace window for queued jobs after drain begins; whatever is
    /// still queued when it expires is shed with typed errors.
    pub drain_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            tcp: None,
            unix: None,
            workers: 0,
            options: SynthOptions::default(),
            per_conn_queue: 64,
            global_queue: 1024,
            max_line_bytes: 8 << 20,
            read_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// The sanitized admission/lifecycle bounds every thread family reads
/// (from [`ServeOptions`], with zero/degenerate values floored).
#[derive(Debug, Clone)]
struct Limits {
    per_conn_queue: usize,
    global_queue: usize,
    max_line_bytes: usize,
    read_timeout: Duration,
    idle_timeout: Duration,
    drain_timeout: Duration,
}

impl Limits {
    fn from_options(opts: &ServeOptions) -> Limits {
        let floor = Duration::from_millis(10);
        Limits {
            per_conn_queue: opts.per_conn_queue.max(1),
            global_queue: opts.global_queue.max(1),
            max_line_bytes: opts.max_line_bytes.max(64),
            read_timeout: opts.read_timeout.max(floor),
            idle_timeout: opts.idle_timeout.max(floor),
            // zero is meaningful here: shed everything immediately
            drain_timeout: opts.drain_timeout,
        }
    }
}

/// Flight-recorder capacity: per-job summaries kept for `recent`.
const FLIGHT_RECORDER_CAP: usize = 128;

/// One queued unit of work: a request line plus where to write the reply.
struct Job {
    conn: u64,
    line: String,
    writer: SharedWriter,
    /// Liveness of the submitting connection: a worker skips (cancels)
    /// a job whose peer already hung up.
    conn_state: Arc<ConnState>,
    /// When the reader enqueued the line — the queue-wait histogram
    /// measures from here to worker pickup, and `deadline_ms` is
    /// measured from here.
    enqueued: Instant,
}

/// Per-connection liveness shared between the reader (which clears it on
/// disconnect), the workers (which check it before starting a queued
/// job), and reply writers (which clear it when the peer stops reading).
struct ConnState {
    alive: AtomicBool,
}

impl ConnState {
    fn new() -> ConnState {
        ConnState {
            alive: AtomicBool::new(true),
        }
    }

    fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn kill(&self) {
        self.alive.store(false, Ordering::SeqCst);
    }
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Locks a daemon mutex, ignoring poisoning — same rationale as
/// `xsynth_bdd::lock`. A panic can escape the worker's `catch_unwind`
/// boundary only from code that mutates nothing behind these locks (the
/// scheduler mutates its queues after the failpoint and the stop check;
/// the writer lock guards an `io::Write` whose partial line at worst
/// garbles one reply), so the guarded state is still consistent and one
/// crashed thread must not take the whole daemon down with it: the old
/// `.expect("scheduler lock")` calls turned one poisoned mutex into a
/// cascade that killed every worker and reader.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Round-robin fair scheduler: one FIFO per connection, connections
/// rotate. Submitting N jobs at once costs a connection its place in
/// line once per job, not zero times.
struct Scheduler {
    state: Mutex<SchedState>,
    ready: Condvar,
}

struct SchedState {
    /// Pending jobs per connection.
    queues: HashMap<u64, VecDeque<Job>>,
    /// Rotation of connection ids that currently have pending jobs; each
    /// id appears at most once.
    order: VecDeque<u64>,
    /// Total queued jobs across all connections (the global bound's
    /// denominator and the `xsynth_queue_depth` gauge).
    total: usize,
    /// Draining: admissions shed, queued work still handed out.
    draining: bool,
    stop: bool,
}

/// Why the scheduler refused a job. Every variant is answered on the
/// wire as a typed `overloaded` error with a `retry_after_ms` hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shed {
    /// The submitting connection's FIFO is at its bound.
    PerConnFull(usize),
    /// The daemon-wide queue bound is reached.
    GlobalFull(usize),
    /// The daemon is draining (or stopped) and admits nothing new.
    Draining,
    /// The `serve.admit` failpoint tripped (chaos suite).
    Injected,
}

impl Shed {
    fn into_error(self, retry_after_ms: u64) -> Error {
        let reason = match self {
            Shed::PerConnFull(cap) => {
                format!("per-connection queue full ({cap} jobs already pipelined)")
            }
            Shed::GlobalFull(cap) => format!("global queue full ({cap} jobs pending)"),
            Shed::Draining => "daemon is draining".to_string(),
            Shed::Injected => "injected fault: admission refused".to_string(),
        };
        Error::overloaded(reason, retry_after_ms)
    }
}

/// The `serve.admit` fault-injection site: an `error` action sheds the
/// job as if a queue bound had been hit, a `panic` action dies inside
/// the submitting reader thread.
fn admit_failpoint_tripped() -> bool {
    xsynth_trace::fail_point!("serve.admit", true);
    false
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                queues: HashMap::new(),
                order: VecDeque::new(),
                total: 0,
                draining: false,
                stop: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Enqueues a job, enforcing the admission bounds. On `Err` the job
    /// was not queued and the caller must answer the connection itself.
    fn submit(&self, job: Job, limits: &Limits) -> Result<(), Shed> {
        let mut s = lock(&self.state);
        if s.stop || s.draining {
            return Err(Shed::Draining);
        }
        // Fault-injection site for the poison-safety chaos suite: a panic
        // here unwinds through the reader thread with the state lock held
        // (and not yet mutated), poisoning the mutex exactly the way the
        // pre-fix `.expect` calls could not survive.
        xsynth_trace::fail_point!("serve.submit");
        if admit_failpoint_tripped() {
            return Err(Shed::Injected);
        }
        if s.total >= limits.global_queue {
            return Err(Shed::GlobalFull(limits.global_queue));
        }
        let conn = job.conn;
        let queue = s.queues.entry(conn).or_default();
        if queue.len() >= limits.per_conn_queue {
            return Err(Shed::PerConnFull(limits.per_conn_queue));
        }
        queue.push_back(job);
        s.total += 1;
        if !s.order.contains(&conn) {
            s.order.push_back(conn);
        }
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job in round-robin order; `None` once stopped
    /// *and* drained.
    fn next(&self) -> Option<Job> {
        let mut s = lock(&self.state);
        loop {
            if let Some(conn) = s.order.pop_front() {
                let queue = s.queues.get_mut(&conn).expect("queued conn has a queue");
                let job = queue.pop_front().expect("queued conn has a job");
                if queue.is_empty() {
                    s.queues.remove(&conn);
                } else {
                    s.order.push_back(conn);
                }
                s.total -= 1;
                return Some(job);
            }
            if s.stop {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Discards every job still queued for a disconnected connection,
    /// returning how many were cancelled. Workers double-check
    /// [`ConnState`] for the jobs that raced past this.
    fn cancel_conn(&self, conn: u64) -> usize {
        let mut s = lock(&self.state);
        let dropped = s.queues.remove(&conn).map_or(0, |q| q.len());
        s.total -= dropped;
        s.order.retain(|&c| c != conn);
        dropped
    }

    /// Total queued jobs right now.
    fn depth(&self) -> usize {
        lock(&self.state).total
    }

    /// Stops admitting while still handing queued jobs to workers.
    fn set_draining(&self) {
        lock(&self.state).draining = true;
        self.ready.notify_all();
    }

    /// Removes and returns everything still queued, and stops the
    /// scheduler — the drain watchdog answers these with typed errors
    /// outside the lock.
    fn shed_remaining_and_stop(&self) -> Vec<Job> {
        let mut s = lock(&self.state);
        let mut out = Vec::new();
        while let Some(conn) = s.order.pop_front() {
            if let Some(q) = s.queues.remove(&conn) {
                out.extend(q);
            }
        }
        s.queues.clear();
        s.total = 0;
        s.stop = true;
        drop(s);
        self.ready.notify_all();
        out
    }

    /// Hard stop without shedding — only the unit tests use this
    /// directly; the production path goes through
    /// [`Scheduler::shed_remaining_and_stop`].
    #[cfg(test)]
    fn stop(&self) {
        lock(&self.state).stop = true;
        self.ready.notify_all();
    }
}

/// Shared per-daemon state every worker sees.
struct Ctx {
    /// Default synthesis options for jobs that don't override them.
    options: SynthOptions,
    lib: Library,
    /// Requests answered (ok or error) since the daemon started; the
    /// source of `xsynth_requests_total`.
    requests: AtomicU64,
    /// Lifecycle state machine: `STATE_RUNNING` → `STATE_DRAINING` →
    /// `STATE_STOPPED`, monotonic.
    state: AtomicU8,
    limits: Limits,
    sched: Scheduler,
    telemetry: Telemetry,
    /// Where the listeners are bound: a drain connects to each once so
    /// the accept loops, blocked in `accept`, wake and see the new state.
    listeners: Vec<Listener>,
}

/// A bound listener's address, for the drain's wake-up connection.
enum Listener {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Ctx {
    fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    /// The backoff hint stamped on `overloaded` replies: current queue
    /// depth times the median job latency (clamped), i.e. roughly how
    /// long until the backlog ahead of a retry has cleared.
    fn retry_after_hint(&self) -> u64 {
        let depth = self.sched.depth() as u64;
        let p50 = lock(&self.telemetry.hists).job_seconds.quantile(0.50);
        let per_job_ms = if p50.is_finite() && p50 > 0.0 {
            ((p50 * 1000.0) as u64).max(1)
        } else {
            DEFAULT_RETRY_HINT_MS
        };
        (depth + 1)
            .saturating_mul(per_job_ms)
            .clamp(MIN_RETRY_HINT_MS, MAX_RETRY_HINT_MS)
    }
}

/// Moves the daemon from running to draining (idempotent) and spawns
/// the drain watchdog that enforces the drain timeout.
fn begin_drain(ctx: &Arc<Ctx>) {
    if ctx
        .state
        .compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_err()
    {
        return; // already draining or stopped
    }
    ctx.sched.set_draining();
    wake_acceptors(ctx);
    let watchdog = ctx.clone();
    if std::thread::Builder::new()
        .name("xsynth-serve-drain".into())
        .spawn(move || drain_watchdog(&watchdog))
        .is_err()
    {
        // Thread spawn failed (resource exhaustion): drain inline so the
        // daemon still reaches STOPPED instead of wedging in DRAINING.
        drain_watchdog(ctx);
    }
}

/// Waits out the drain grace window, then sheds whatever is still
/// queued with typed `overloaded` replies and stops the scheduler. The
/// `serve.drain` failpoint collapses the grace window to zero (error
/// action) or panics mid-drain (panic action) — either way the shed-
/// and-stop epilogue still runs, so a faulty drain can never hang the
/// daemon or strand queued clients without replies.
fn drain_watchdog(ctx: &Arc<Ctx>) {
    let deadline = Instant::now() + ctx.limits.drain_timeout;
    let skip_grace = catch_unwind(drain_failpoint_tripped).unwrap_or(true);
    if !skip_grace {
        while Instant::now() < deadline && ctx.sched.depth() > 0 {
            std::thread::sleep(DRAIN_POLL);
        }
    }
    for job in ctx.sched.shed_remaining_and_stop() {
        if job.conn_state.is_alive() {
            ctx.telemetry.jobs_shed.fetch_add(1, Ordering::Relaxed);
            let err = Error::overloaded(
                "daemon drained before this job started",
                ctx.retry_after_hint(),
            );
            if !write_reply(&job.writer, &proto::error_response(None, &err)) {
                job.conn_state.kill();
            }
        } else {
            ctx.telemetry.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
    }
    ctx.state.store(STATE_STOPPED, Ordering::SeqCst);
}

/// Connects once to each listener, so an accept loop blocked in
/// `accept` returns and sees that the daemon is no longer running. The
/// connection is dropped unread; a listener already closed refuses it.
fn wake_acceptors(ctx: &Ctx) {
    for listener in &ctx.listeners {
        match listener {
            Listener::Tcp(addr) => {
                let mut addr = *addr;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                    });
                }
                let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
            }
            #[cfg(unix)]
            Listener::Unix(path) => {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// The `serve.drain` fault-injection site (see [`drain_watchdog`]).
fn drain_failpoint_tripped() -> bool {
    xsynth_trace::fail_point!("serve.drain", true);
    false
}

/// Daemon-lifetime observability state behind the `metrics` and `recent`
/// wire ops. Everything here is *daemon-side* aggregation: the wall-clock
/// histograms (latency, queue wait, phase durations) are
/// schedule-dependent by nature, so they live outside the per-job trace,
/// whose counters and gauges repeat exactly from run to run.
struct Telemetry {
    /// Daemon start, for the uptime gauge.
    start: Instant,
    /// Worker pool size (utilization denominator).
    workers: usize,
    /// Workers currently executing a request line.
    busy: AtomicU64,
    /// Synthesis jobs answered `status: "ok"`.
    jobs_ok: AtomicU64,
    /// Synthesis jobs answered with a typed error (panics included).
    jobs_error: AtomicU64,
    /// Jobs refused admission or dropped at the drain deadline, all
    /// answered with typed `overloaded` replies.
    jobs_shed: AtomicU64,
    /// Queued jobs discarded because their connection disconnected
    /// before a worker started them.
    jobs_cancelled: AtomicU64,
    /// Connections reaped by the read (slow-loris) or idle timeout.
    conns_reaped: AtomicU64,
    /// Server-assigned request-ID sequence (`job-N`) for synth requests
    /// that arrive without a client-supplied `id`.
    req_seq: AtomicU64,
    /// Daemon-lifetime maximum of the per-job `bdd.peak_nodes` gauge.
    peak_nodes: AtomicU64,
    /// Sums of every successful job's final `bdd.apply_hits` and
    /// `bdd.apply_misses` gauges.
    apply_hits: AtomicU64,
    apply_misses: AtomicU64,
    /// The wall-clock histograms (see [`DaemonHists`]).
    hists: Mutex<DaemonHists>,
    /// Bounded ring of per-job summaries, newest at the back.
    recorder: Mutex<VecDeque<JobSummary>>,
}

impl Telemetry {
    fn new(workers: usize) -> Telemetry {
        Telemetry {
            start: Instant::now(),
            workers,
            busy: AtomicU64::new(0),
            jobs_ok: AtomicU64::new(0),
            jobs_error: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            conns_reaped: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
            peak_nodes: AtomicU64::new(0),
            apply_hits: AtomicU64::new(0),
            apply_misses: AtomicU64::new(0),
            hists: Mutex::new(DaemonHists::default()),
            recorder: Mutex::new(VecDeque::with_capacity(FLIGHT_RECORDER_CAP)),
        }
    }

    /// Assigns the next server-side request ID.
    fn next_request_id(&self) -> String {
        format!("job-{}", self.req_seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Raises the daemon-lifetime peak-node gauge to at least `nodes`.
    fn observe_peak_nodes(&self, nodes: u64) {
        self.peak_nodes.fetch_max(nodes, Ordering::Relaxed);
    }

    /// Pushes one summary into the flight recorder, evicting the oldest
    /// entry past capacity.
    fn record(&self, summary: JobSummary) {
        let mut ring = lock(&self.recorder);
        if ring.len() == FLIGHT_RECORDER_CAP {
            ring.pop_front();
        }
        ring.push_back(summary);
    }
}

/// The daemon-lifetime latency/size distributions.
#[derive(Default)]
struct DaemonHists {
    /// End-to-end synthesis seconds per job (parse → reply body built).
    job_seconds: Histogram,
    /// Seconds a request line waited in the scheduler before a worker
    /// picked it up.
    queue_seconds: Histogram,
    /// Final `bdd.nodes` gauge per successful job.
    job_bdd_nodes: Histogram,
    /// Wall-clock seconds per pipeline phase, keyed by phase name.
    phase_seconds: BTreeMap<String, Histogram>,
}

/// One flight-recorder entry: everything needed to reconstruct what a job
/// did after the fact.
#[derive(Debug, Clone)]
struct JobSummary {
    /// Request ID (client-supplied or server-assigned) — round-trips
    /// through `recent`.
    id: String,
    /// Circuit/model name (empty when parsing failed).
    name: String,
    /// `"ok"` or `"error"`.
    outcome: &'static str,
    /// Error kind (wire taxonomy) for failed jobs.
    error_kind: Option<String>,
    /// XOR of the canonical cone hashes of every output, hex.
    cone_hash: String,
    /// Salvage-ladder rungs that fired, comma-joined (empty = clean).
    salvage_rungs: String,
    /// Phases a budget cut short.
    budget_trips: u64,
    /// Peak `bdd.peak_nodes` gauge of the job.
    peak_nodes: u64,
    /// Peak RSS in KiB, when the platform exposes it.
    peak_rss_kb: Option<u64>,
    /// End-to-end synthesis seconds.
    seconds: f64,
    /// Scheduler queue wait in seconds.
    queue_seconds: f64,
}

/// A running daemon. Bind with [`Server::bind`], then either
/// [`Server::wait`] (blocking daemon mode) or drive it from tests via
/// [`Server::tcp_addr`] / [`Server::unix_path`] and stop it with
/// [`Server::shutdown`] (or a `shutdown` request).
pub struct Server {
    ctx: Arc<Ctx>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    workers: Vec<JoinHandle<()>>,
    acceptors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured listeners, spawns the worker pool, and
    /// returns the running server.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when a listener cannot bind (including a unix
    /// socket path owned by a *live* daemon), [`Error::Msg`] when no
    /// listener is configured at all.
    pub fn bind(opts: ServeOptions) -> Result<Server, Error> {
        if opts.tcp.is_none() && opts.unix.is_none() {
            return Err(Error::msg("serve needs at least one of --tcp / --socket"));
        }
        let workers = if opts.workers > 0 {
            opts.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(4)
        };
        #[cfg(not(unix))]
        if opts.unix.is_some() {
            return Err(Error::msg(
                "unix sockets are not available on this platform",
            ));
        }

        // Bind first: the drain connects to every bound address once.
        let mut listeners = Vec::new();
        let tcp = match &opts.tcp {
            Some(addr) => {
                let listener = TcpListener::bind(addr).map_err(|e| Error::io(addr.clone(), e))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| Error::io(addr.clone(), e))?;
                listeners.push(Listener::Tcp(local));
                Some((listener, local))
            }
            None => None,
        };
        #[cfg(unix)]
        let unix = match &opts.unix {
            Some(path) => {
                let listener = bind_unix(path)?;
                listeners.push(Listener::Unix(path.clone()));
                Some((listener, path.clone()))
            }
            None => None,
        };

        let ctx = Arc::new(Ctx {
            options: opts.options.clone(),
            lib: Library::mcnc(),
            requests: AtomicU64::new(0),
            state: AtomicU8::new(STATE_RUNNING),
            limits: Limits::from_options(&opts),
            sched: Scheduler::new(),
            telemetry: Telemetry::new(workers),
            listeners,
        });

        let mut worker_handles = Vec::new();
        for w in 0..workers {
            let ctx = ctx.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("xsynth-serve-worker-{w}"))
                    .spawn(move || worker_loop(&ctx))
                    .map_err(|e| Error::io("spawn worker", e))?,
            );
        }

        let conn_ids = Arc::new(AtomicU64::new(0));
        let mut acceptors = Vec::new();
        let mut tcp_addr = None;
        if let Some((listener, local)) = tcp {
            tcp_addr = Some(local);
            let ctx = ctx.clone();
            let ids = conn_ids.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name("xsynth-serve-tcp".into())
                    .spawn(move || accept_tcp(listener, &ctx, &ids))
                    .map_err(|e| Error::io("spawn acceptor", e))?,
            );
        }
        let mut unix_path = None;
        #[cfg(unix)]
        if let Some((listener, path)) = unix {
            unix_path = Some(path.clone());
            let ctx = ctx.clone();
            let ids = conn_ids.clone();
            acceptors.push(
                std::thread::Builder::new()
                    .name("xsynth-serve-unix".into())
                    .spawn(move || accept_unix(listener, path, &ctx, &ids))
                    .map_err(|e| Error::io("spawn acceptor", e))?,
            );
        }

        Ok(Server {
            ctx,
            tcp_addr,
            unix_path,
            workers: worker_handles,
            acceptors,
        })
    }

    /// Binds and blocks until shutdown — the CLI daemon entry point.
    pub fn run(opts: ServeOptions) -> Result<(), Error> {
        Server::bind(opts)?.wait();
        Ok(())
    }

    /// The bound TCP address (useful with port 0).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound unix socket path.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Requests graceful drain programmatically: equivalent to a
    /// `shutdown` message — listeners close, queued jobs answer until
    /// the drain timeout, the remainder is shed with typed errors.
    pub fn shutdown(&self) {
        begin_drain(&self.ctx);
    }

    /// A cloneable handle that can request graceful drain from another
    /// thread while the owner blocks in [`Server::wait`] — e.g. the
    /// supervised daemon's stdin-EOF watcher.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            ctx: self.ctx.clone(),
        }
    }

    /// Joins the worker pool, then the accept loops. Returns once
    /// shutdown was requested and all queued jobs have been answered or
    /// shed. An accept loop still blocked a second after the workers
    /// finish (the drain's wake-up connection could not reach it: its
    /// socket file was deleted, say) is left behind, not joined, so
    /// shutdown never hangs.
    pub fn wait(self) {
        for h in self.workers {
            let _ = h.join();
        }
        let deadline = Instant::now() + ACCEPT_EXIT_GRACE;
        for h in self.acceptors {
            while !h.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            }
        }
    }
}

/// See [`Server::drain_handle`].
#[derive(Clone)]
pub struct DrainHandle {
    ctx: Arc<Ctx>,
}

impl DrainHandle {
    /// Requests graceful drain, exactly like [`Server::shutdown`].
    pub fn shutdown(&self) {
        begin_drain(&self.ctx);
    }
}

#[cfg(unix)]
fn bind_unix(path: &std::path::Path) -> Result<UnixListener, Error> {
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(first) if path.exists() => {
            // A socket file exists. If nobody answers it, it's stale
            // (a killed daemon) — reclaim it; if a live daemon answers,
            // surface address-in-use.
            if UnixStream::connect(path).is_ok() {
                return Err(Error::io(path.display().to_string(), first));
            }
            std::fs::remove_file(path).map_err(|e| Error::io(path.display().to_string(), e))?;
            UnixListener::bind(path).map_err(|e| Error::io(path.display().to_string(), e))
        }
        Err(e) => Err(Error::io(path.display().to_string(), e)),
    }
}

/// Accepts connections in blocking mode until the daemon stops running;
/// a drain wakes the loop with a connection of its own
/// ([`wake_acceptors`]), which is dropped like any connection accepted
/// after the drain began.
fn accept_tcp(listener: TcpListener, ctx: &Arc<Ctx>, ids: &AtomicU64) {
    while ctx.state() == STATE_RUNNING {
        match listener.accept() {
            Ok((stream, _)) if ctx.state() == STATE_RUNNING => spawn_conn(stream, ctx, ids),
            Ok(_) => {}
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// The unix-socket form of [`accept_tcp`]; unlinks the socket on exit.
#[cfg(unix)]
fn accept_unix(listener: UnixListener, path: PathBuf, ctx: &Arc<Ctx>, ids: &AtomicU64) {
    while ctx.state() == STATE_RUNNING {
        match listener.accept() {
            Ok((stream, _)) if ctx.state() == STATE_RUNNING => spawn_conn(stream, ctx, ids),
            Ok(_) => {}
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// A bidirectional stream the daemon can split into independently owned
/// read and write halves. The read half ticks every [`READ_TICK`] so
/// the reader thread can enforce lifecycle deadlines; the write half
/// times out after [`WRITE_TIMEOUT`].
trait Conn: Send + 'static {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)>;
}

impl Conn for TcpStream {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        // replies are whole lines: send each at once, no Nagle delay
        self.set_nodelay(true)?;
        self.set_read_timeout(Some(READ_TICK))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let reader = self.try_clone()?;
        Ok((Box::new(reader), Box::new(self)))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn split(self) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
        self.set_read_timeout(Some(READ_TICK))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let reader = self.try_clone()?;
        Ok((Box::new(reader), Box::new(self)))
    }
}

/// Spawns the per-connection reader thread. Reader threads are detached:
/// they exit on EOF/error/timeout (cancelling their queued jobs on the
/// way out), and at process shutdown any remainder exits within one
/// read tick of the state machine reaching `STATE_STOPPED`.
fn spawn_conn(stream: impl Conn, ctx: &Arc<Ctx>, ids: &AtomicU64) {
    let conn = ids.fetch_add(1, Ordering::Relaxed);
    let Ok((read_half, write_half)) = stream.split() else {
        return;
    };
    let writer: SharedWriter = Arc::new(Mutex::new(write_half));
    let conn_state = Arc::new(ConnState::new());
    let ctx = ctx.clone();
    let _ = std::thread::Builder::new()
        .name(format!("xsynth-serve-conn-{conn}"))
        .spawn(move || {
            read_loop(&ctx, conn, &conn_state, read_half, &writer);
            // Teardown: nothing this connection still has queued will
            // ever be read by the peer — cancel it before a worker
            // burns a synthesis on it.
            conn_state.kill();
            let cancelled = ctx.sched.cancel_conn(conn) as u64;
            ctx.telemetry
                .jobs_cancelled
                .fetch_add(cancelled, Ordering::Relaxed);
        });
}

/// What one `fill_buf` round produced (see [`poll_line`]).
enum LineEvent {
    /// A complete line is in the caller's buffer.
    Line,
    /// The line under construction exceeded the byte cap; the rest of it
    /// is being discarded up to the next newline.
    TooLong,
    /// Bytes arrived but no newline yet.
    Progress,
    /// The socket read timed out with nothing new (lifecycle tick).
    Tick,
    /// EOF or a hard I/O error.
    Closed,
}

/// Pulls one buffered chunk from the socket and advances the line state
/// machine: at most `cap` bytes accumulate in `line`, and an oversized
/// line flips into `discarding` mode (swallow to the next newline)
/// after reporting [`LineEvent::TooLong`] exactly once.
fn poll_line(
    reader: &mut BufReader<Box<dyn Read + Send>>,
    line: &mut Vec<u8>,
    discarding: &mut bool,
    cap: usize,
) -> LineEvent {
    use std::io::ErrorKind;
    let (consumed, event) = {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                return LineEvent::Tick;
            }
            Err(_) => return LineEvent::Closed,
        };
        if buf.is_empty() {
            return LineEvent::Closed;
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if *discarding {
                    // tail of an oversized line, already answered
                    *discarding = false;
                    (pos + 1, LineEvent::Progress)
                } else if line.len() + pos > cap {
                    line.clear();
                    (pos + 1, LineEvent::TooLong)
                } else {
                    line.extend_from_slice(&buf[..pos]);
                    (pos + 1, LineEvent::Line)
                }
            }
            None => {
                let n = buf.len();
                if *discarding {
                    (n, LineEvent::Progress)
                } else if line.len() + n > cap {
                    line.clear();
                    *discarding = true;
                    (n, LineEvent::TooLong)
                } else {
                    line.extend_from_slice(buf);
                    (n, LineEvent::Progress)
                }
            }
        }
    };
    reader.consume(consumed);
    event
}

/// The per-connection reader: turns the byte stream into request lines
/// under the admission bounds, answers sheds itself (so a flooded
/// daemon replies within one read tick even with every worker busy),
/// and enforces the read/idle timeouts.
fn read_loop(
    ctx: &Arc<Ctx>,
    conn: u64,
    conn_state: &Arc<ConnState>,
    read_half: Box<dyn Read + Send>,
    writer: &SharedWriter,
) {
    let limits = &ctx.limits;
    let mut reader = BufReader::new(read_half);
    let mut line: Vec<u8> = Vec::new();
    let mut discarding = false;
    let mut last_byte = Instant::now();
    let mut line_started: Option<Instant> = None;
    loop {
        // A stopped daemon still answers the lines it has already read off
        // the socket: each one is submitted, refused and answered with a
        // typed `overloaded` shed before the reader exits. Returning at
        // once would drop pipelined requests the drain never saw queued.
        if !conn_state.is_alive() || (ctx.state() == STATE_STOPPED && reader.buffer().is_empty()) {
            return;
        }
        if let Some(t0) = line_started {
            if t0.elapsed() >= limits.read_timeout {
                // Slow loris: a half-sent line may not pin this thread.
                ctx.telemetry.conns_reaped.fetch_add(1, Ordering::Relaxed);
                let err = Error::Protocol(format!(
                    "request line stalled for {} ms (read timeout)",
                    limits.read_timeout.as_millis()
                ));
                let _ = write_reply(writer, &proto::error_response(None, &err));
                return;
            }
        } else if last_byte.elapsed() >= limits.idle_timeout {
            ctx.telemetry.conns_reaped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match poll_line(
            &mut reader,
            &mut line,
            &mut discarding,
            limits.max_line_bytes,
        ) {
            LineEvent::Line => {
                last_byte = Instant::now();
                line_started = None;
                let text = String::from_utf8_lossy(&line).into_owned();
                line.clear();
                if text.trim().is_empty() {
                    continue;
                }
                let job = Job {
                    conn,
                    line: text,
                    writer: writer.clone(),
                    conn_state: conn_state.clone(),
                    enqueued: Instant::now(),
                };
                if let Err(shed) = ctx.sched.submit(job, limits) {
                    ctx.telemetry.jobs_shed.fetch_add(1, Ordering::Relaxed);
                    let err = shed.into_error(ctx.retry_after_hint());
                    if !write_reply(writer, &proto::error_response(None, &err)) {
                        return;
                    }
                }
            }
            LineEvent::TooLong => {
                last_byte = Instant::now();
                line_started = None;
                let err = Error::Protocol(format!(
                    "request line exceeds {} bytes",
                    limits.max_line_bytes
                ));
                if !write_reply(writer, &proto::error_response(None, &err)) {
                    return;
                }
            }
            LineEvent::Progress => {
                last_byte = Instant::now();
                if line_started.is_none() && (!line.is_empty() || discarding) {
                    line_started = Some(last_byte);
                }
            }
            LineEvent::Tick => {}
            LineEvent::Closed => return,
        }
    }
}

/// Writes one reply line; `false` means the peer is unreachable (EOF,
/// write timeout) and the caller should treat the connection as dead.
fn write_reply(writer: &SharedWriter, line: &str) -> bool {
    // One write per reply: a separate newline write would sit in the
    // kernel until the peer's delayed ACK on a Nagle-enabled socket.
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    let mut w = lock(writer);
    // A dead peer is not a daemon error; the reader side notices EOF.
    w.write_all(&buf).is_ok() && w.flush().is_ok()
}

fn worker_loop(ctx: &Arc<Ctx>) {
    while let Some(job) = ctx.sched.next() {
        if !job.conn_state.is_alive() {
            // The connection dropped after this job was queued but
            // before cancel_conn ran (or mid-queue): nobody can read
            // the reply, so don't synthesize one.
            ctx.telemetry.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let queued_for = job.enqueued.elapsed();
        lock(&ctx.telemetry.hists)
            .queue_seconds
            .observe(queued_for.as_secs_f64());
        ctx.telemetry.busy.fetch_add(1, Ordering::Relaxed);
        let (reply, shutdown) =
            match catch_unwind(AssertUnwindSafe(|| handle_line(ctx, &job.line, queued_for))) {
                Ok(r) => r,
                Err(panic) => {
                    let cause = panic_message(&panic);
                    let err = Error::OutputFailed {
                        output: "serve.worker".into(),
                        cause,
                    };
                    // the job died outside the typed-error paths, so the
                    // outcome counter is bumped here instead
                    ctx.telemetry.jobs_error.fetch_add(1, Ordering::Relaxed);
                    (proto::error_response(None, &err), false)
                }
            };
        ctx.telemetry.busy.fetch_sub(1, Ordering::Relaxed);
        // Count the request before the reply goes out: a client that has
        // received N replies must never observe `xsynth_requests_total`
        // < N via a subsequent `metrics` request handled by a sibling
        // worker.
        ctx.requests.fetch_add(1, Ordering::Relaxed);
        if !write_reply(&job.writer, &reply) {
            // The peer stopped reading (write timeout / EOF): mark the
            // connection dead so its remaining queued jobs cancel
            // instead of each burning a synthesis plus a timeout.
            job.conn_state.kill();
        }
        if shutdown {
            begin_drain(ctx);
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".into()
    }
}

/// Dispatches one request line to its handler; the second element
/// reports whether a graceful shutdown was requested.
fn handle_line(ctx: &Ctx, line: &str, queued_for: Duration) -> (String, bool) {
    let req = match proto::parse_request(line) {
        Ok(r) => r,
        Err(e) => return (proto::error_response(None, &e), false),
    };
    match req {
        Request::Ping => {
            let mut o = proto::Obj::new();
            o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
            o.str("status", "ok");
            o.str("op", "ping");
            (o.finish(), false)
        }
        Request::Metrics => match metrics_response(ctx) {
            Ok(resp) => (resp, false),
            Err(e) => (proto::error_response(None, &e), false),
        },
        Request::Health => (health_response(ctx), false),
        Request::Recent { limit } => (recent_response(ctx, limit), false),
        Request::Shutdown => {
            let mut o = proto::Obj::new();
            o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
            o.str("status", "ok");
            o.str("op", "shutdown");
            (o.finish(), true)
        }
        Request::Synth(mut job) => {
            // Every synth job carries a request ID from here on: the
            // client's when supplied, otherwise server-assigned. It is
            // echoed in the reply (ok or error), stamped on the trace
            // spans, and recorded in the flight recorder.
            let id = job
                .id
                .get_or_insert_with(|| ctx.telemetry.next_request_id())
                .clone();
            let started = Instant::now();
            match run_job(ctx, job, queued_for) {
                Ok(resp) => (resp, false),
                Err(e) => {
                    if matches!(e, Error::Overloaded { .. }) {
                        // a deadline expired in the queue: the job was
                        // shed, not merely failed
                        ctx.telemetry.jobs_shed.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.telemetry.jobs_error.fetch_add(1, Ordering::Relaxed);
                    ctx.telemetry.record(JobSummary {
                        id: id.clone(),
                        name: String::new(),
                        outcome: "error",
                        error_kind: Some(proto::error_kind(&e).to_string()),
                        cone_hash: String::new(),
                        salvage_rungs: String::new(),
                        budget_trips: 0,
                        peak_nodes: 0,
                        peak_rss_kb: None,
                        seconds: started.elapsed().as_secs_f64(),
                        queue_seconds: queued_for.as_secs_f64(),
                    });
                    (proto::error_response(Some(&id), &e), false)
                }
            }
        }
    }
}

/// Answers the `health` wire op: the lifecycle state (`ready`,
/// `shedding` when the global queue is at capacity, `draining`, or
/// `stopped`), plus the queue gauges a load balancer needs to steer
/// traffic — all without running a job, so the probe stays cheap under
/// load.
fn health_response(ctx: &Ctx) -> String {
    let depth = ctx.sched.depth();
    let state = match ctx.state() {
        STATE_RUNNING if depth >= ctx.limits.global_queue => "shedding",
        STATE_RUNNING => "ready",
        STATE_DRAINING => "draining",
        _ => "stopped",
    };
    let mut o = proto::Obj::new();
    o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
    o.str("status", "ok");
    o.str("op", "health");
    o.str("state", state);
    o.num("queue_depth", depth as f64);
    o.num("queue_capacity", ctx.limits.global_queue as f64);
    o.num(
        "workers_busy",
        ctx.telemetry.busy.load(Ordering::Relaxed) as f64,
    );
    o.num(
        "uptime_seconds",
        ctx.telemetry.start.elapsed().as_secs_f64(),
    );
    o.finish()
}

/// Renders the daemon-lifetime Prometheus-style text exposition behind
/// the `metrics` wire op. The `serve.metrics` failpoint injects a typed
/// failure here for the chaos suite: a broken exposition must answer
/// `status: "error"`, never wedge the scheduler or drop the connection.
fn metrics_response(ctx: &Ctx) -> Result<String, Error> {
    xsynth_trace::fail_point!(
        "serve.metrics",
        Err(Error::OutputFailed {
            output: "serve.metrics".into(),
            cause: "injected fault: metrics exposition refused".into(),
        })
    );
    let tel = &ctx.telemetry;
    let mut exp = Exposition::new();
    exp.counter(
        "xsynth_jobs_total",
        &[("outcome", "ok")],
        tel.jobs_ok.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_jobs_total",
        &[("outcome", "error")],
        tel.jobs_error.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_jobs_shed_total",
        &[],
        tel.jobs_shed.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_jobs_cancelled_total",
        &[],
        tel.jobs_cancelled.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_conns_reaped_total",
        &[],
        tel.conns_reaped.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_requests_total",
        &[],
        ctx.requests.load(Ordering::Relaxed),
    );
    exp.gauge("xsynth_queue_depth", &[], ctx.sched.depth() as f64);
    exp.gauge("xsynth_queue_capacity", &[], ctx.limits.global_queue as f64);
    exp.gauge(
        "xsynth_uptime_seconds",
        &[],
        tel.start.elapsed().as_secs_f64(),
    );
    exp.gauge("xsynth_workers", &[], tel.workers as f64);
    // includes the worker currently answering this metrics request
    let busy = tel.busy.load(Ordering::Relaxed) as f64;
    exp.gauge("xsynth_workers_busy", &[], busy);
    exp.gauge(
        "xsynth_worker_utilization",
        &[],
        busy / tel.workers.max(1) as f64,
    );

    exp.counter(
        "xsynth_bdd_apply_hits_total",
        &[],
        tel.apply_hits.load(Ordering::Relaxed),
    );
    exp.counter(
        "xsynth_bdd_apply_misses_total",
        &[],
        tel.apply_misses.load(Ordering::Relaxed),
    );
    exp.gauge(
        "xsynth_bdd_peak_nodes",
        &[],
        tel.peak_nodes.load(Ordering::Relaxed) as f64,
    );

    {
        let h = lock(&tel.hists);
        exp.histogram("xsynth_job_seconds", &[], &h.job_seconds);
        exp.gauge("xsynth_job_seconds_p50", &[], h.job_seconds.quantile(0.50));
        exp.gauge("xsynth_job_seconds_p90", &[], h.job_seconds.quantile(0.90));
        exp.gauge("xsynth_job_seconds_p99", &[], h.job_seconds.quantile(0.99));
        exp.histogram("xsynth_queue_seconds", &[], &h.queue_seconds);
        exp.histogram("xsynth_job_bdd_nodes", &[], &h.job_bdd_nodes);
        for (phase, hist) in &h.phase_seconds {
            exp.histogram("xsynth_phase_seconds", &[("phase", phase)], hist);
        }
    }

    let mut o = proto::Obj::new();
    o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
    o.str("status", "ok");
    o.str("op", "metrics");
    o.str("text", &exp.render());
    Ok(o.finish())
}

/// Answers the `recent` wire op: flight-recorder entries newest-first,
/// truncated to `limit` when given.
fn recent_response(ctx: &Ctx, limit: Option<usize>) -> String {
    let ring = lock(&ctx.telemetry.recorder);
    let take = limit.unwrap_or(ring.len()).min(ring.len());
    let mut jobs = String::from("[");
    for (i, s) in ring.iter().rev().take(take).enumerate() {
        if i > 0 {
            jobs.push(',');
        }
        let mut jo = proto::Obj::new();
        jo.str("id", &s.id);
        jo.str("name", &s.name);
        jo.str("outcome", s.outcome);
        match &s.error_kind {
            Some(kind) => jo.str("error_kind", kind),
            None => jo.null("error_kind"),
        }
        jo.str("cone_hash", &s.cone_hash);
        jo.str("salvage_rungs", &s.salvage_rungs);
        jo.num("budget_trips", s.budget_trips as f64);
        jo.num("peak_nodes", s.peak_nodes as f64);
        match s.peak_rss_kb {
            Some(kb) => jo.num("peak_rss_kb", kb as f64),
            None => jo.null("peak_rss_kb"),
        }
        jo.num("seconds", s.seconds);
        jo.num("queue_seconds", s.queue_seconds);
        jobs.push_str(&jo.finish());
    }
    drop(ring);
    jobs.push(']');
    let mut o = proto::Obj::new();
    o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
    o.str("status", "ok");
    o.str("op", "recent");
    o.num("count", take as f64);
    o.raw("jobs", &jobs);
    o.finish()
}

/// Executes one synthesis job end to end: admission failpoint, parse,
/// synthesize, record flight-recorder and histogram telemetry, reply with
/// the network (plus bench telemetry on request). `job.id` is always set by `handle_line`.
fn run_job(ctx: &Ctx, job: JobRequest, queued_for: Duration) -> Result<String, Error> {
    xsynth_trace::fail_point!(
        "serve.accept",
        Err(Error::OutputFailed {
            output: "serve.accept".into(),
            cause: "injected fault: job admission refused".into(),
        })
    );
    // Deadline discipline: a job whose client-supplied allowance was
    // already consumed by queueing is shed before any parsing or
    // synthesis; one that starts in time runs with its phase timeout
    // clamped to the remaining allowance.
    let mut remaining: Option<Duration> = None;
    if let Some(ms) = job.deadline_ms {
        let deadline = Duration::from_millis(ms);
        if queued_for >= deadline {
            return Err(Error::overloaded(
                format!(
                    "deadline_ms {ms} expired after {} ms in queue",
                    queued_for.as_millis()
                ),
                ctx.retry_after_hint(),
            ));
        }
        remaining = Some(deadline - queued_for);
    }
    // Scope the peak-RSS gauge to this job; overlapping jobs observe
    // shared upper bounds instead of resetting each other (`MemScope`).
    let mem = xsynth_trace::mem::MemScope::begin();
    let spec = match job.format {
        JobFormat::Blif => parse_blif(&job.source).map_err(Error::Parse)?,
        JobFormat::Pla => parse_pla(&job.source)
            .map_err(Error::Parse)?
            .to_network(job.id.as_deref().unwrap_or("pla")),
    };
    let mut opts = ctx.options.clone();
    if let Some(budget) = job.budget {
        opts.budget = budget;
    }
    if let Some(rem) = remaining {
        opts.budget.phase_timeout = Some(match opts.budget.phase_timeout {
            Some(t) => t.min(rem),
            None => rem,
        });
    }
    let t0 = Instant::now();
    let outcome = try_synthesize(&spec, &opts)?;
    let seconds = t0.elapsed().as_secs_f64();

    // Daemon-side observability. The wall-clock histograms are
    // schedule-dependent and therefore live here, never in the per-job
    // trace the determinism suite compares.
    let peak_nodes = outcome
        .report
        .trace
        .gauge_max("bdd.peak_nodes")
        .unwrap_or(0.0) as u64;
    let finals = outcome.report.trace.gauge_finals();
    let final_gauge = |name: &str| finals.get(name).copied().unwrap_or(0.0);
    let bdd_nodes = final_gauge("bdd.nodes");
    {
        let mut h = lock(&ctx.telemetry.hists);
        h.job_seconds.observe(seconds);
        h.job_bdd_nodes.observe(bdd_nodes);
        for stat in &outcome.report.profile.phases {
            h.phase_seconds
                .entry(stat.name.clone())
                .or_default()
                .observe(stat.duration.as_secs_f64());
        }
    }
    ctx.telemetry.observe_peak_nodes(peak_nodes);
    let tel = &ctx.telemetry;
    tel.apply_hits
        .fetch_add(final_gauge("bdd.apply_hits") as u64, Ordering::Relaxed);
    tel.apply_misses
        .fetch_add(final_gauge("bdd.apply_misses") as u64, Ordering::Relaxed);
    let cone_hash = spec
        .outputs()
        .iter()
        .fold(0, |h, (_, sig)| h ^ cone_hash(&spec, *sig));
    let rungs: Vec<&str> = outcome
        .report
        .salvaged
        .iter()
        .map(|s| s.rung.as_str())
        .collect();
    ctx.telemetry.jobs_ok.fetch_add(1, Ordering::Relaxed);
    // one `/proc/self/status` read serves the flight recorder and the reply
    let peak_rss_kb = mem.peak_kb();
    ctx.telemetry.record(JobSummary {
        id: job.id.clone().unwrap_or_default(),
        name: spec.name().to_string(),
        outcome: "ok",
        error_kind: None,
        cone_hash: format!("{cone_hash:032x}"),
        salvage_rungs: rungs.join(","),
        budget_trips: outcome.report.curtailed.len() as u64,
        peak_nodes,
        peak_rss_kb,
        seconds,
        queue_seconds: queued_for.as_secs_f64(),
    });

    let mut o = proto::Obj::new();
    o.num("protocol_version", proto::PROTOCOL_VERSION as f64);
    o.str("status", "ok");
    o.str("op", "synth");
    if let Some(id) = &job.id {
        o.str("id", id);
    }
    o.str("name", spec.name());
    o.str("network_blif", &write_blif(&outcome.network));
    o.num("outputs", outcome.network.outputs().len() as f64);
    o.num("salvaged", outcome.report.salvaged.len() as f64);
    o.num("seconds", seconds);
    match peak_rss_kb {
        Some(kb) => o.num("peak_rss_kb", kb as f64),
        None => o.null("peak_rss_kb"),
    }
    o.bool("mem_exclusive", mem.is_exclusive());
    if job.telemetry {
        let name = job.id.as_deref().unwrap_or_else(|| spec.name()).to_string();
        let measured = record_from_run(
            &name,
            "serve",
            outcome.network,
            outcome.report,
            &[seconds],
            &ctx.lib,
        );
        let suite = BenchSuite {
            suite: "serve".into(),
            records: vec![measured.record],
        };
        let doc = json::parse(&suite.to_json())
            .map_err(|e| Error::msg(format!("telemetry serialization failed: {e}")))?;
        let mut compacted = String::new();
        proto::compact(&doc, &mut compacted);
        o.raw("telemetry", &compacted);
    }
    Ok(o.finish())
}

/// Canonical structural hash of the cone rooted at `root` (the
/// flight recorder's `cone_hash` XORs it over a job's outputs).
///
/// The cone is walked depth-first from the root, fanins in order, and
/// every node is numbered by first visit (in a table indexed by signal);
/// FNV-1a-128 then covers the node count and each node's kind and its
/// fanins' numbers. Node ids and names
/// never enter it, so two cones hash equal exactly when their DAGs have
/// the same shape, whatever circuit they come from.
fn cone_hash(net: &Network, root: SignalId) -> u128 {
    const UNSEEN: u64 = u64::MAX;
    let mut number = vec![UNSEEN; net.num_nodes()];
    let mut order: Vec<SignalId> = Vec::new();
    let mut stack = vec![root];
    while let Some(sig) = stack.pop() {
        if number[sig.index()] != UNSEEN {
            continue;
        }
        number[sig.index()] = order.len() as u64;
        order.push(sig);
        // fanins pushed in reverse so they pop in declaration order
        stack.extend(net.fanins(sig).iter().rev());
    }
    let mut h: u128 = 0x6c62272e07bb014262b821756295c58d;
    let mut word = |w: u64| {
        for byte in w.to_le_bytes() {
            h = (h ^ u128::from(byte)).wrapping_mul(0x0000000001000000000000000000013b);
        }
    };
    word(order.len() as u64);
    for &sig in &order {
        let NodeKind::Gate(kind) = net.kind(sig) else {
            word(1);
            continue;
        };
        word(match kind {
            GateKind::Const0 => 2,
            GateKind::Const1 => 3,
            GateKind::Buf => 4,
            GateKind::Not => 5,
            GateKind::And => 6,
            GateKind::Or => 7,
            GateKind::Nand => 8,
            GateKind::Nor => 9,
            GateKind::Xor => 10,
            GateKind::Xnor => 11,
        });
        let fanins = net.fanins(sig);
        word(fanins.len() as u64);
        for f in fanins {
            word(number[f.index()]);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_job(conn: u64, tag: &str, writer: &SharedWriter) -> Job {
        Job {
            conn,
            line: tag.to_string(),
            writer: writer.clone(),
            conn_state: Arc::new(ConnState::new()),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn cone_hash_sees_shape_not_names() {
        let cone = |names: [&str; 3], kind| {
            let mut net = Network::new(names[0]);
            let a = net.add_input(names[1]);
            let b = net.add_input(names[2]);
            let x = net.add_gate(kind, vec![a, b]);
            let y = net.add_gate(GateKind::And, vec![x, a]);
            net.add_output("f", y);
            cone_hash(&net, y)
        };
        let xor = cone(["one", "a", "b"], GateKind::Xor);
        assert_eq!(xor, cone(["two", "p", "q"], GateKind::Xor));
        assert_ne!(xor, cone(["one", "a", "b"], GateKind::Or));
    }

    #[test]
    fn fanin_order_is_part_of_the_shape() {
        let cone = |swap: bool| {
            let mut net = Network::new("n");
            let a = net.add_input("a");
            let b = net.add_input("b");
            let fanins = if swap { vec![b, a] } else { vec![a, b] };
            let x = net.add_gate(GateKind::And, fanins);
            let g = net.add_gate(GateKind::Xor, vec![x, a]);
            net.add_output("f", g);
            cone_hash(&net, g)
        };
        assert_ne!(
            cone(false),
            cone(true),
            "swapped fanins are a different shape"
        );
    }

    const KINDS: [GateKind; 6] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Xor,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xnor,
    ];

    /// A reproducible random DAG: `picks[i]` chooses the kind and the
    /// second fanin of gate `i`; the first fanin is always the newest
    /// signal, so the gates form a chain and all lie in the root's cone.
    /// Returns the network and its root.
    fn random_dag(
        name: &str,
        input_prefix: &str,
        n_inputs: usize,
        picks: &[(u8, u8)],
    ) -> (Network, SignalId) {
        let mut net = Network::new(name);
        let mut sigs: Vec<SignalId> = (0..n_inputs)
            .map(|i| net.add_input(format!("{input_prefix}{i}")))
            .collect();
        for &(k, b) in picks {
            let kind = KINDS[k as usize % KINDS.len()];
            let fa = *sigs.last().expect("inputs exist");
            let fb = sigs[b as usize % sigs.len()];
            sigs.push(net.add_gate(kind, vec![fa, fb]));
        }
        let root = *sigs.last().expect("at least one signal");
        net.add_output("f", root);
        (net, root)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Structurally equal cones hash equal even when every name
        /// differs between the two circuits.
        #[test]
        fn structurally_equal_cones_hash_equal(
            n_inputs in 1usize..6,
            picks in proptest::collection::vec((0u8..6, 0u8..8), 1..12),
        ) {
            let (n1, r1) = random_dag("left", "a", n_inputs, &picks);
            let (n2, r2) = random_dag("right", "zz", n_inputs, &picks);
            proptest::prop_assert_eq!(cone_hash(&n1, r1), cone_hash(&n2, r2));
        }

        /// Changing one gate's kind changes the cone hash.
        #[test]
        fn gate_kind_mutation_changes_cone_hash(
            n_inputs in 1usize..6,
            picks in proptest::collection::vec((0u8..6, 0u8..8), 1..12),
            which in 0usize..12,
            bump in 1u8..6,
        ) {
            let idx = which % picks.len();
            let mut mutated = picks.clone();
            mutated[idx].0 = (mutated[idx].0 + bump) % 6;
            let (n1, r1) = random_dag("left", "a", n_inputs, &picks);
            let (n2, r2) = random_dag("right", "a", n_inputs, &mutated);
            proptest::prop_assert_ne!(cone_hash(&n1, r1), cone_hash(&n2, r2));
        }
    }

    /// A request stream whose one burst arrives in the same read that
    /// stops the daemon, the way a drain can land between a client's
    /// write and the reader's next tick.
    struct StopOnFirstRead {
        ctx: Arc<Ctx>,
        burst: std::io::Cursor<Vec<u8>>,
    }

    impl Read for StopOnFirstRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ctx.state() != STATE_STOPPED {
                drop(self.ctx.sched.shed_remaining_and_stop());
                self.ctx.state.store(STATE_STOPPED, Ordering::SeqCst);
            }
            self.burst.read(buf)
        }
    }

    /// A writer whose bytes the test can read back.
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Time for freshly spawned accept loops to block in `accept`; a
    /// drain begun sooner finds them before their first `accept` and
    /// would pass without a wake.
    const ACCEPTOR_SETTLE: Duration = Duration::from_millis(100);

    /// Runs [`Server::wait`] on a thread and reports whether it returned
    /// within `limit`.
    fn waits_within(server: Server, limit: Duration) -> bool {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.wait();
            let _ = done.send(());
        });
        finished.recv_timeout(limit).is_ok()
    }

    /// The accept loops block in `accept`; with no client ever connected,
    /// only the drain's own wake-up connection can return them, so the
    /// unix loop unlinking its socket proves the wake reaches it.
    #[test]
    fn shutdown_with_no_client_connected_never_hangs() {
        let path = std::env::temp_dir().join(format!("xsynth-wake-{}.sock", std::process::id()));
        let server = Server::bind(ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            unix: Some(path.clone()),
            workers: 1,
            ..ServeOptions::default()
        })
        .expect("binds");
        assert!(path.exists());
        std::thread::sleep(ACCEPTOR_SETTLE);
        server.shutdown();
        assert!(
            waits_within(server, Duration::from_secs(10)),
            "wait returns after a shutdown with no client connected"
        );
        assert!(!path.exists(), "the unix accept loop unlinks its socket");
    }

    /// A deleted socket file leaves the drain's wake-up connection
    /// nowhere to go; `wait` still returns, leaving the blocked accept
    /// loop behind after the grace period.
    #[test]
    fn shutdown_never_hangs_when_the_socket_file_was_deleted() {
        let path = std::env::temp_dir().join(format!("xsynth-gone-{}.sock", std::process::id()));
        let server = Server::bind(ServeOptions {
            unix: Some(path.clone()),
            workers: 1,
            ..ServeOptions::default()
        })
        .expect("binds");
        std::fs::remove_file(&path).expect("the socket file exists");
        std::thread::sleep(ACCEPTOR_SETTLE);
        server.shutdown();
        assert!(
            waits_within(server, ACCEPT_EXIT_GRACE + Duration::from_secs(10)),
            "wait returns although no wake-up connection reached the accept loop"
        );
    }

    #[test]
    fn stopped_reader_sheds_every_line_it_already_read() {
        let opts = ServeOptions::default();
        let ctx = Arc::new(Ctx {
            options: opts.options.clone(),
            lib: Library::mcnc(),
            requests: AtomicU64::new(0),
            state: AtomicU8::new(STATE_RUNNING),
            limits: Limits::from_options(&opts),
            sched: Scheduler::new(),
            telemetry: Telemetry::new(1),
            listeners: Vec::new(),
        });
        let burst = "{\"op\":\"ping\"}\n".repeat(3).into_bytes();
        let reader = StopOnFirstRead {
            ctx: ctx.clone(),
            burst: std::io::Cursor::new(burst),
        };
        let out = Arc::new(Mutex::new(Vec::new()));
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(SharedSink(out.clone()))));
        read_loop(
            &ctx,
            0,
            &Arc::new(ConnState::new()),
            Box::new(reader),
            &writer,
        );
        let replies = String::from_utf8(lock(&out).clone()).expect("utf-8 replies");
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), 3, "one reply per buffered line: {replies}");
        for line in lines {
            assert!(line.contains("\"kind\":\"overloaded\""), "{line}");
        }
        assert_eq!(ctx.telemetry.jobs_shed.load(Ordering::Relaxed), 3);
    }

    /// Bounds loose enough that only tests targeting them trip them.
    fn loose_limits() -> Limits {
        Limits::from_options(&ServeOptions::default())
    }

    #[test]
    fn scheduler_rotates_across_connections() {
        let sched = Scheduler::new();
        let limits = loose_limits();
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        // conn 0 pipelines three jobs before conn 1's single job arrives
        for tag in ["a0", "a1", "a2"] {
            assert!(sched.submit(dummy_job(0, tag, &w), &limits).is_ok());
        }
        assert!(sched.submit(dummy_job(1, "b0", &w), &limits).is_ok());
        assert_eq!(sched.depth(), 4);
        let order: Vec<String> = std::iter::from_fn(|| {
            sched.stop_if_empty();
            sched.next().map(|j| j.line)
        })
        .collect();
        assert_eq!(order, ["a0", "b0", "a1", "a2"]);
        assert_eq!(sched.depth(), 0);
    }

    #[test]
    fn scheduler_sheds_at_the_per_conn_and_global_bounds() {
        let sched = Scheduler::new();
        let mut limits = loose_limits();
        limits.per_conn_queue = 2;
        limits.global_queue = 3;
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        assert!(sched.submit(dummy_job(0, "a0", &w), &limits).is_ok());
        assert!(sched.submit(dummy_job(0, "a1", &w), &limits).is_ok());
        // conn 0 is at its own bound while the global bound still has room
        assert_eq!(
            sched.submit(dummy_job(0, "a2", &w), &limits),
            Err(Shed::PerConnFull(2))
        );
        assert!(sched.submit(dummy_job(1, "b0", &w), &limits).is_ok());
        // now the global bound is reached, even for a fresh connection
        assert_eq!(
            sched.submit(dummy_job(2, "c0", &w), &limits),
            Err(Shed::GlobalFull(3))
        );
        // handing out one job frees global capacity again
        assert_eq!(sched.next().expect("a0").line, "a0");
        assert!(sched.submit(dummy_job(2, "c0", &w), &limits).is_ok());
    }

    #[test]
    fn cancel_conn_discards_only_that_connections_jobs() {
        let sched = Scheduler::new();
        let limits = loose_limits();
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        for tag in ["a0", "a1"] {
            assert!(sched.submit(dummy_job(7, tag, &w), &limits).is_ok());
        }
        assert!(sched.submit(dummy_job(8, "b0", &w), &limits).is_ok());
        assert_eq!(sched.cancel_conn(7), 2);
        assert_eq!(sched.depth(), 1);
        assert_eq!(sched.next().expect("b0 survives").line, "b0");
        assert_eq!(sched.cancel_conn(99), 0, "unknown conn is a no-op");
    }

    #[test]
    fn draining_sheds_submissions_and_shed_remaining_stops() {
        let sched = Scheduler::new();
        let limits = loose_limits();
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        for tag in ["a0", "a1"] {
            assert!(sched.submit(dummy_job(0, tag, &w), &limits).is_ok());
        }
        sched.set_draining();
        assert_eq!(
            sched.submit(dummy_job(1, "late", &w), &limits),
            Err(Shed::Draining)
        );
        // queued work is still handed out while draining
        assert_eq!(sched.next().expect("a0").line, "a0");
        let leftover = sched.shed_remaining_and_stop();
        assert_eq!(leftover.len(), 1);
        assert_eq!(leftover[0].line, "a1");
        assert_eq!(sched.depth(), 0);
        assert!(sched.next().is_none(), "stopped and empty");
    }

    impl Scheduler {
        /// Test helper: stop once drained so `next` terminates.
        fn stop_if_empty(&self) {
            let mut s = lock(&self.state);
            if s.order.is_empty() {
                s.stop = true;
                drop(s);
                self.ready.notify_all();
            }
        }
    }

    #[test]
    fn scheduler_rejects_after_stop() {
        let sched = Scheduler::new();
        let limits = loose_limits();
        sched.stop();
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        assert_eq!(
            sched.submit(dummy_job(0, "late", &w), &limits),
            Err(Shed::Draining)
        );
        assert!(sched.next().is_none());
    }

    #[test]
    fn scheduler_survives_a_poisoned_state_mutex() {
        let sched = Arc::new(Scheduler::new());
        let limits = loose_limits();
        // poison the state mutex the way a panicking reader thread would:
        // die while holding the lock, before mutating anything
        let poisoner = sched.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().expect("first lock is clean");
            panic!("injected: die holding the scheduler lock");
        })
        .join();
        assert!(sched.state.is_poisoned(), "the panic must have poisoned it");
        // submit, next, and stop all keep working on the poisoned mutex
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        assert!(sched
            .submit(dummy_job(0, "after-poison", &w), &limits)
            .is_ok());
        assert_eq!(sched.next().expect("job comes back").line, "after-poison");
        sched.stop();
        assert_eq!(
            sched.submit(dummy_job(0, "late", &w), &limits),
            Err(Shed::Draining)
        );
        assert!(sched.next().is_none());
    }

    #[test]
    fn shed_reasons_map_to_typed_overloaded_errors() {
        for (shed, needle) in [
            (Shed::PerConnFull(4), "per-connection"),
            (Shed::GlobalFull(16), "global queue"),
            (Shed::Draining, "draining"),
            (Shed::Injected, "injected"),
        ] {
            let err = shed.into_error(321);
            assert_eq!(err.exit_code(), 11, "{err}");
            let text = err.to_string();
            assert!(text.contains(needle), "{text}");
            assert!(text.contains("321"), "{text}");
        }
    }

    #[test]
    fn write_reply_survives_a_poisoned_writer_mutex() {
        let w: SharedWriter = Arc::new(Mutex::new(Box::new(Vec::<u8>::new())));
        let poisoner = w.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().expect("first lock is clean");
            panic!("injected: die holding the write lock");
        })
        .join();
        assert!(w.is_poisoned());
        // the reply still goes out instead of a cascading panic
        write_reply(&w, r#"{"status":"ok"}"#);
    }
}
