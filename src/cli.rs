//! Implementation of the `xsynth` command-line tool.
//!
//! The binary is a thin wrapper; everything lives here so it can be unit
//! tested. Subcommands:
//!
//! * `synth <in.blif|in.pla>` — run the FPRM flow (default) or the SOP
//!   baseline (`--method sop`), write BLIF to `-o` or stdout.
//! * `stats <in>` — print network statistics and both cost metrics.
//! * `map <in>` — synthesize and technology-map, print the cell netlist
//!   summary.
//! * `bench <circuit>` — run a built-in Table 2 benchmark by name.
//! * `verify <a> <b>` — check two networks for combinational equivalence.
//! * `serve` — run the long-lived synthesis daemon (`--tcp` and/or
//!   `--socket`); each job is one independent synthesis call.
//!
//! Every run can be resource-governed with `--bdd-node-cap`,
//! `--phase-timeout-ms` and `--max-patterns`; error families map to
//! distinct process exit codes (see [`USAGE`]).

use std::fmt::Write as _;
use std::time::Duration;
use xsynth_blif::{parse_blif, parse_pla, write_blif};
use xsynth_core::{
    phase, prove_equivalence, try_synthesize, Budget, Error, FactorMethod, SynthOptions,
    SynthOutcome, SynthReport, VerifyStatus,
};
use xsynth_map::{map_network, Library};
use xsynth_net::Network;
use xsynth_trace::json::Value;
use xsynth_trace::Trace;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Command {
    /// Subcommand: synth | stats | map | bench | verify.
    pub action: Action,
    /// Input path or benchmark name.
    pub input: String,
    /// Second input (the candidate) for `verify`.
    pub input2: Option<String>,
    /// Output path (`-o`), stdout when absent.
    pub output: Option<String>,
    /// Synthesis flow (`--method`).
    pub flow: Flow,
    /// Skip the redundancy-removal pass.
    pub no_redundancy: bool,
    /// Disable the per-output salvage ladder: the first fault in any
    /// output's pipeline fails the whole run (exit 9) instead of being
    /// retried on a degraded rung.
    pub no_salvage: bool,
    /// Print the phase profile, counters and span tree.
    pub stats: bool,
    /// Write the run's Chrome `trace_event` JSON to this path.
    pub trace_json: Option<String>,
    /// Write a single-record benchmark telemetry suite (`BENCH_*.json`
    /// schema) for the run to this path (`synth`/`bench`/`map` only).
    pub bench_json: Option<String>,
    /// Resource budget (`--bdd-node-cap`, `--phase-timeout-ms`,
    /// `--max-patterns`); unlimited by default.
    pub budget: Budget,
    /// `serve`: TCP listen address (`--tcp`, e.g. `127.0.0.1:7171`).
    pub tcp: Option<String>,
    /// `serve`: unix-domain socket path (`--socket`).
    pub socket: Option<String>,
    /// `serve`: worker pool size (`--workers`, 0 = auto).
    pub workers: usize,
    /// `serve`: per-connection queue bound (`--queue`).
    pub per_conn_queue: Option<usize>,
    /// `serve`: daemon-wide queue bound (`--global-queue`).
    pub global_queue: Option<usize>,
    /// `serve`: partial-request-line timeout in ms (`--read-timeout-ms`).
    pub read_timeout_ms: Option<u64>,
    /// `serve`: idle-connection reap timeout in ms (`--idle-timeout-ms`).
    pub idle_timeout_ms: Option<u64>,
    /// `serve`: drain grace window in ms (`--drain-timeout-ms`).
    pub drain_timeout_ms: Option<u64>,
    /// `serve`: request-line byte cap in KiB (`--max-line-kb`).
    pub max_line_kb: Option<u64>,
    /// `serve`: run under a supervisor process so SIGTERM triggers a
    /// graceful drain instead of an abrupt exit (`--drain-on-term`).
    pub drain_on_term: bool,
    /// `top`: refresh interval in milliseconds (`--interval-ms`).
    pub interval_ms: u64,
    /// `top`: render one frame and exit (`--once`) — for scripts and CI.
    pub once: bool,
}

/// What to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Synthesize and write BLIF.
    Synth,
    /// Print statistics only.
    Stats,
    /// Synthesize, map, print the cell summary.
    Map,
    /// Run a built-in benchmark by name.
    Bench,
    /// Check two networks for combinational equivalence.
    Verify,
    /// Run the long-lived synthesis daemon.
    Serve,
    /// Poll a running daemon's `metrics`/`recent` ops and render a
    /// refreshing status table.
    Top,
}

/// Which synthesis flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The paper's FPRM flow (default).
    Fprm,
    /// The paper's FPRM flow, cube method only.
    FprmCube,
    /// The paper's FPRM flow, OFDD method only.
    FprmOfdd,
    /// The Kronecker-FDD extension.
    Kfdd,
    /// The SIS-style SOP baseline.
    Sop,
    /// No optimization (parse and re-emit).
    None,
}

impl Flow {
    /// Every flow with its `--method` name, its telemetry `flow` label
    /// and, for the FPRM family, the factoring method its jobs run.
    #[rustfmt::skip]
    const TABLE: [(Flow, &'static str, &'static str, Option<FactorMethod>); 6] = [
        (Flow::Fprm,     "fprm", "fprm",      Some(FactorMethod::Best)),
        (Flow::FprmCube, "cube", "fprm-cube", Some(FactorMethod::Cube)),
        (Flow::FprmOfdd, "ofdd", "fprm-ofdd", Some(FactorMethod::Ofdd)),
        (Flow::Kfdd,     "kfdd", "kfdd",      Some(FactorMethod::Kfdd)),
        (Flow::Sop,      "sop",  "sop",       None),
        (Flow::None,     "none", "none",      None),
    ];

    /// The flow's `--method` name, telemetry label and factoring method.
    fn row(self) -> (&'static str, &'static str, Option<FactorMethod>) {
        let row = Self::TABLE.iter().find(|row| row.0 == self);
        let &(_, method, label, factor) = row.expect("every flow is in the table");
        (method, label, factor)
    }
}

/// Usage text.
pub const USAGE: &str = "\
usage: xsynth <synth|stats|map|bench|verify|serve|top> [input] [options]

  synth <in.blif|in.pla>   synthesize, write BLIF (stdout or -o FILE)
  stats <in.blif|in.pla>   print cost metrics for the input network
  map   <in.blif|in.pla>   synthesize + technology-map, print cells
                           (-o FILE writes a structural Verilog netlist)
  bench <name>             run a built-in Table 2 circuit by name
  verify <a> <b>           check two networks for equivalence
  serve                    run the synthesis daemon (newline-delimited JSON
                           over --tcp and/or --socket)
  top <addr>               live daemon dashboard: poll `metrics`/`recent`
                           and redraw (host:port = TCP, else a unix socket
                           path)

serve options:
  --tcp ADDR            listen on a TCP address (e.g. 127.0.0.1:7171)
  --socket PATH         listen on a unix-domain socket at PATH
  --workers N           worker pool size (default: sized from CPU count)
  --queue N             per-connection queue bound (default 64); excess
                        pipelined jobs are shed as typed `overloaded`
  --global-queue N      daemon-wide queue bound (default 1024)
  --read-timeout-ms N   reap a connection whose partial request line
                        stalls this long (slow-loris guard; default 30000)
  --idle-timeout-ms N   reap a connection idle this long (default 300000)
  --drain-timeout-ms N  grace window for queued jobs after a drain starts;
                        the rest are shed with typed errors (default 5000)
  --max-line-kb N       longest accepted request line in KiB (default 8192)
  --drain-on-term       run the daemon under a supervisor process: when
                        the supervisor dies (SIGTERM, kill), the daemon
                        drains gracefully instead of dying mid-job

top options:
  --interval-ms N       refresh interval (default 2000)
  --once                render one frame to stdout and exit

options:
  -o FILE               write output to FILE
  --method ENGINE       fprm (default) | cube | ofdd | kfdd | sop | none
  --no-redundancy       skip the XOR redundancy-removal pass
  --no-salvage          disable the per-output salvage ladder (first fault
                        in any output's pipeline is fatal)
  --stats               print per-phase timings, counters and the span tree
  --trace-json FILE     write Chrome trace_event JSON (chrome://tracing,
                        Perfetto) for the synthesis run
  --bench-json FILE     write the run's benchmark telemetry record
                        (schema-versioned BENCH_*.json, see bench_compare)
  --bdd-node-cap N      cap every BDD manager at N nodes; phases degrade
                        gracefully where possible, else exit 8
  --phase-timeout-ms N  wall-clock budget per pipeline phase; tripped
                        phases keep their best result so far
  --max-patterns N      cap every simulation pattern set at N patterns

exit codes:
  0 ok          2 usage       3 parse error      4 I/O error
  5 netlist     6 input mismatch   7 verification failed   8 budget exceeded
  9 output failed (fault not recoverable by the salvage ladder)
  10 protocol violation (serve wire message outside the contract)
  11 overloaded (daemon shed the request; safe to retry after the
     reply's retry_after_ms hint)
";

/// Parses the command line (excluding `argv[0]`).
///
/// # Errors
///
/// Returns a human-readable message for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let action = match it.next().map(String::as_str) {
        Some("synth") => Action::Synth,
        Some("stats") => Action::Stats,
        Some("map") => Action::Map,
        Some("bench") => Action::Bench,
        Some("verify") => Action::Verify,
        Some("serve") => Action::Serve,
        Some("top") => Action::Top,
        Some(other) => return Err(format!("unknown subcommand '{other}'\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    };
    // `serve` takes no positional input; the circuits arrive on the wire.
    // `top` reuses the slot for the daemon address.
    let input = if action == Action::Serve {
        String::new()
    } else {
        it.next()
            .ok_or_else(|| format!("missing input\n{USAGE}"))?
            .clone()
    };
    if action == Action::Bench {
        validate_bench_name(&input)?;
    }
    let input2 = if action == Action::Verify {
        Some(
            it.next()
                .ok_or_else(|| format!("verify needs two inputs\n{USAGE}"))?
                .clone(),
        )
    } else {
        None
    };
    fn text(flag: &str, what: &str, value: Option<&String>) -> Result<String, String> {
        value.cloned().ok_or_else(|| format!("{flag} needs {what}"))
    }
    fn number(flag: &str, value: Option<&String>) -> Result<u64, String> {
        let v = value.ok_or_else(|| format!("{flag} needs a number"))?;
        v.parse()
            .map_err(|_| format!("{flag} needs a number, got '{v}'"))
    }
    let mut output = None;
    let mut flow = Flow::Fprm;
    let mut no_redundancy = false;
    let mut no_salvage = false;
    let mut stats = false;
    let mut trace_json = None;
    let mut bench_json = None;
    let mut budget = Budget::default();
    let mut tcp = None;
    let mut socket = None;
    let mut workers = 0usize;
    let mut per_conn_queue = None;
    let mut global_queue = None;
    let mut read_timeout_ms = None;
    let mut idle_timeout_ms = None;
    let mut drain_timeout_ms = None;
    let mut max_line_kb = None;
    let mut drain_on_term = false;
    let mut interval_ms = 2000u64;
    let mut once = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = Some(text(a, "a file", it.next())?),
            "--trace-json" => trace_json = Some(text(a, "a file", it.next())?),
            "--bench-json" => bench_json = Some(text(a, "a file", it.next())?),
            "--method" => {
                let name = it.next().map(String::as_str);
                let row = Flow::TABLE.iter().find(|row| Some(row.1) == name);
                flow = row.ok_or_else(|| format!("bad --method {name:?}"))?.0;
            }
            "--no-redundancy" => no_redundancy = true,
            "--no-salvage" => no_salvage = true,
            "--stats" => stats = true,
            "--bdd-node-cap" => {
                budget = budget.bdd_node_cap(Some(number(a, it.next())? as usize));
            }
            "--phase-timeout-ms" => {
                budget = budget.phase_timeout(Some(Duration::from_millis(number(a, it.next())?)));
            }
            "--max-patterns" => {
                budget = budget.max_patterns(Some(number(a, it.next())? as usize));
            }
            "--tcp" if action == Action::Serve => tcp = Some(text(a, "an address", it.next())?),
            "--socket" if action == Action::Serve => socket = Some(text(a, "a path", it.next())?),
            "--workers" if action == Action::Serve => {
                workers = number(a, it.next())? as usize;
            }
            "--queue" if action == Action::Serve => {
                per_conn_queue = Some(number(a, it.next())? as usize);
            }
            "--global-queue" if action == Action::Serve => {
                global_queue = Some(number(a, it.next())? as usize);
            }
            "--read-timeout-ms" if action == Action::Serve => {
                read_timeout_ms = Some(number(a, it.next())?);
            }
            "--idle-timeout-ms" if action == Action::Serve => {
                idle_timeout_ms = Some(number(a, it.next())?);
            }
            "--drain-timeout-ms" if action == Action::Serve => {
                drain_timeout_ms = Some(number(a, it.next())?);
            }
            "--max-line-kb" if action == Action::Serve => {
                max_line_kb = Some(number(a, it.next())?);
            }
            "--drain-on-term" if action == Action::Serve => drain_on_term = true,
            "--interval-ms" if action == Action::Top => {
                interval_ms = number(a, it.next())?;
            }
            "--once" if action == Action::Top => once = true,
            other => return Err(format!("unknown option '{other}'\n{USAGE}")),
        }
    }
    Ok(Command {
        action,
        input,
        input2,
        output,
        flow,
        no_redundancy,
        no_salvage,
        stats,
        trace_json,
        bench_json,
        budget,
        tcp,
        socket,
        workers,
        per_conn_queue,
        global_queue,
        read_timeout_ms,
        idle_timeout_ms,
        drain_timeout_ms,
        max_line_kb,
        drain_on_term,
        interval_ms,
        once,
    })
}

/// Checks a `bench` circuit name against the registry at parse time, so
/// typos fail before any work starts. Unknown names get an error listing
/// near-matches (small edit distance or substring hits).
fn validate_bench_name(name: &str) -> Result<(), String> {
    let known: Vec<&'static str> = xsynth_circuits::registry()
        .into_iter()
        .map(|b| b.name)
        .collect();
    if known.contains(&name) {
        return Ok(());
    }
    let mut near: Vec<&str> = known
        .iter()
        .copied()
        .filter(|k| edit_distance(name, k) <= 2 || k.contains(name) || name.contains(k))
        .collect();
    near.sort_unstable();
    let mut msg = format!("unknown benchmark '{name}'");
    if near.is_empty() {
        let _ = write!(msg, "; run with no arguments to see usage");
    } else {
        let _ = write!(msg, "; did you mean {}?", near.join(", "));
    }
    Err(msg)
}

/// Levenshtein distance over bytes — circuit names are short ASCII.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Loads a network from a path by extension (`.pla` → espresso PLA,
/// anything else → BLIF), or from a built-in benchmark name for `bench`.
pub fn load(cmd: &Command) -> Result<Network, Error> {
    load_source(&cmd.input, cmd.action == Action::Bench)
}

/// Loads one network source: a benchmark name (`bench_only`), or a file
/// path that falls back to the benchmark registry when no file exists.
fn load_source(input: &str, bench_only: bool) -> Result<Network, Error> {
    if bench_only {
        return xsynth_circuits::build(input)
            .ok_or_else(|| Error::msg(format!("unknown benchmark '{input}'")));
    }
    // other subcommands also accept built-in benchmark names when no such
    // file exists
    if !std::path::Path::new(input).exists() {
        if let Some(net) = xsynth_circuits::build(input) {
            return Ok(net);
        }
    }
    let text = std::fs::read_to_string(input).map_err(|e| Error::io(input, e))?;
    if input.ends_with(".pla") {
        let pla = parse_pla(&text)?;
        let name = input
            .rsplit('/')
            .next()
            .unwrap_or("pla")
            .trim_end_matches(".pla");
        Ok(pla.to_network(name))
    } else {
        Ok(parse_blif(&text)?)
    }
}

/// Runs the chosen flow. FPRM-family flows and the SOP baseline also
/// return the synthesis report (for `--stats` and `--trace-json`; the
/// baseline's holds only its trace and step profile); `none` has no
/// report.
///
/// # Errors
///
/// Returns [`Error::Budget`] when the command's budget is too tight for
/// the pipeline to produce any result.
pub fn run_flow(cmd: &Command, spec: &Network) -> Result<(Network, Option<SynthReport>), Error> {
    if let Some(opts) = synth_options(cmd) {
        let SynthOutcome { network, report } = try_synthesize(spec, &opts)?;
        return Ok((network, Some(report)));
    }
    Ok(match cmd.flow {
        Flow::Sop => {
            let (network, report) = xsynth_bench::run_sop(spec);
            (network, Some(report))
        }
        _ => (spec.sweep(), None),
    })
}

/// The job options of an FPRM-family flow, or `None` for the SOP baseline
/// and `none`.
fn synth_options(cmd: &Command) -> Option<SynthOptions> {
    let (_, _, method) = cmd.flow.row();
    Some(
        SynthOptions::builder()
            .method(method?)
            .redundancy_removal(!cmd.no_redundancy)
            .salvage(!cmd.no_salvage)
            .budget(cmd.budget.clone())
            .build(),
    )
}

/// The one proof of a flow's result: the job's own when its report
/// carries one (the FPRM family), else one made here under the command's
/// budget (the SOP baseline and `none`).
fn proof_of(
    cmd: &Command,
    spec: &Network,
    result: &Network,
    report: Option<&SynthReport>,
) -> Result<VerifyStatus, Error> {
    match report.and_then(|r| r.proof) {
        Some(proof) => Ok(proof),
        None => prove_equivalence(spec, result, &cmd.budget),
    }
}

/// Renders the report's degradation notes — curtailed phases, a
/// downgraded verification backend, and outputs the salvage ladder
/// recovered — or an empty string when the run was clean.
fn render_budget_notes(report: &SynthReport) -> String {
    let mut s = String::new();
    if !report.curtailed.is_empty() {
        let _ = writeln!(
            s,
            "# budget: curtailed phases: {}",
            report.curtailed.join(", ")
        );
    }
    if report.curtailed.iter().any(|p| p == phase::VERIFY) {
        let _ = writeln!(
            s,
            "# budget: verification downgraded to fixed-seed simulation"
        );
    }
    for rec in &report.salvaged {
        let _ = writeln!(
            s,
            "# salvage: output `{}` recovered at {}: {}",
            rec.output,
            rec.rung.as_str(),
            rec.cause.lines().next().unwrap_or("")
        );
    }
    s
}

/// Renders the `--stats` block of a [`SynthReport`]: the trace-derived
/// per-phase wall-clock profile, one line per output, the apply-cache
/// hit ratio, and the full span tree with its counter totals.
pub fn render_report(report: &SynthReport) -> String {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut s = String::new();
    let _ = writeln!(s, "# phase timings (ms):");
    for p in &report.profile.phases {
        let _ = writeln!(s, "#   {:<12} {:9.2}", p.name, ms(p.duration));
    }
    let _ = writeln!(s, "#   {:<12} {:9.2}", "total", ms(report.profile.total));
    for (name, cubes, pol) in &report.outputs {
        let _ = writeln!(s, "# output {name}: {cubes} FPRM cubes, polarity {pol:?}");
    }
    let pct = |hits: f64, lookups: f64| {
        if lookups > 0.0 {
            100.0 * hits / lookups
        } else {
            0.0
        }
    };
    let gauges = report.trace.gauge_finals();
    let apply_hits = gauges.get("bdd.apply_hits").copied().unwrap_or(0.0);
    let apply_misses = gauges.get("bdd.apply_misses").copied().unwrap_or(0.0);
    // the SOP baseline builds no BDDs
    if apply_hits + apply_misses > 0.0 {
        let _ = writeln!(
            s,
            "# apply cache: {:.1}% hit ({:.0} of {:.0} lookups)",
            pct(apply_hits, apply_hits + apply_misses),
            apply_hits,
            apply_hits + apply_misses
        );
    }
    let _ = writeln!(s, "# trace:");
    for line in report.trace.render_tree().lines() {
        let _ = writeln!(s, "#   {line}");
    }
    s
}

/// Writes a single-record benchmark telemetry suite describing the exact
/// run the CLI just performed (same `BENCH_*.json` schema as
/// `table2 --json`; diffable with `bench_compare`). `proof` is the run's
/// one proof ([`proof_of`]); the record reads it from the report.
fn write_bench_json(
    path: &str,
    cmd: &Command,
    result: &Network,
    report: Option<SynthReport>,
    proof: VerifyStatus,
    synth_seconds: f64,
) -> Result<String, Error> {
    let mut report = report.unwrap_or_default();
    report.proof = Some(proof);
    let (_, label, _) = cmd.flow.row();
    let measured = xsynth_bench::record_from_run(
        &cmd.input,
        label,
        result.clone(),
        report,
        &[synth_seconds],
        &Library::mcnc(),
    );
    let suite = xsynth_bench::BenchSuite {
        suite: "cli".to_string(),
        records: vec![measured.record],
    };
    std::fs::write(path, suite.to_json()).map_err(|e| Error::io(path, e))?;
    Ok(format!("# wrote benchmark record to {path}\n"))
}

/// Writes the run's Chrome `trace_event` JSON to `path` (flows without a
/// synthesis report emit an empty but valid trace document).
fn write_trace_json(path: &str, report: Option<&SynthReport>) -> Result<String, Error> {
    let json = match report {
        Some(r) => r.trace.to_chrome_json(),
        None => Trace::default().to_chrome_json(),
    };
    std::fs::write(path, &json).map_err(|e| Error::io(path, e))?;
    Ok(format!("# wrote trace to {path}\n"))
}

/// Renders the `stats` block for a network.
pub fn render_stats(net: &Network) -> String {
    let (gates2, lits2) = net.two_input_cost();
    let mut s = String::new();
    let _ = writeln!(s, "{net}");
    let _ = writeln!(s, "  two-input AND/OR gates: {gates2}");
    let _ = writeln!(s, "  literals (paper metric): {lits2}");
    let _ = writeln!(s, "  logic depth: {}", net.depth());
    s
}

/// Parses and executes a command line in one step — the single fallible
/// entry point the binary (and embedding code) calls. Usage errors, I/O
/// errors, parse errors and verification failures all arrive as one
/// [`Error`].
///
/// # Errors
///
/// Everything [`parse_args`] and [`execute`] can report.
pub fn run(args: &[String]) -> Result<String, Error> {
    // Fault-injection builds honour `XSYNTH_FAILPOINTS` for the whole
    // invocation; release builds compile this away entirely. A malformed
    // plan is a usage error, same as any bad flag.
    #[cfg(feature = "failpoints")]
    xsynth_trace::failpoint::arm_from_env().map_err(Error::Msg)?;
    let cmd = parse_args(args).map_err(Error::Msg)?;
    execute(&cmd)
}

/// Executes a full command, returning the text to print.
///
/// # Errors
///
/// Propagates load/parse/I/O errors and verification failures.
pub fn execute(cmd: &Command) -> Result<String, Error> {
    if cmd.action == Action::Serve {
        return run_serve(cmd);
    }
    if cmd.action == Action::Top {
        return run_top(cmd);
    }
    let spec = load(cmd)?;
    match cmd.action {
        Action::Serve | Action::Top => unreachable!("handled above"),
        Action::Stats => Ok(render_stats(&spec)),
        Action::Verify => {
            let input2 = cmd.input2.as_deref().unwrap_or_default();
            let candidate = load_source(input2, false)?;
            let backend = match prove_equivalence(&spec, &candidate, &cmd.budget)? {
                VerifyStatus::Verified => "exact BDD check",
                VerifyStatus::Downgraded => "simulation, downgraded by budget",
                VerifyStatus::Failed => {
                    let msg = format!("{input2} is not equivalent to {}", cmd.input);
                    return Err(Error::Verify(msg));
                }
            };
            Ok(format!("equivalent ({backend})\n"))
        }
        Action::Synth | Action::Bench => {
            let t0 = std::time::Instant::now();
            let (result, report) = run_flow(cmd, &spec)?;
            let synth_seconds = t0.elapsed().as_secs_f64();
            let proof = proof_of(cmd, &spec, &result, report.as_ref())?;
            if proof == VerifyStatus::Failed {
                return Err(Error::Verify(
                    "internal error: result failed verification".into(),
                ));
            }
            let mut out = String::new();
            let _ = writeln!(out, "# spec:   {}", render_stats(&spec).trim_end());
            let _ = writeln!(out, "# result: {}", render_stats(&result).trim_end());
            if let Some(r) = &report {
                out.push_str(&render_budget_notes(r));
            }
            if cmd.stats {
                match &report {
                    Some(r) => out.push_str(&render_report(r)),
                    None => {
                        let _ = writeln!(out, "# (no synthesis report for this flow)");
                    }
                }
            }
            if let Some(path) = &cmd.trace_json {
                out.push_str(&write_trace_json(path, report.as_ref())?);
            }
            if let Some(path) = &cmd.bench_json {
                out.push_str(&write_bench_json(
                    path,
                    cmd,
                    &result,
                    report,
                    proof,
                    synth_seconds,
                )?);
            }
            let blif = write_blif(&result);
            match &cmd.output {
                Some(path) => {
                    std::fs::write(path, &blif).map_err(|e| Error::io(path, e))?;
                    let _ = writeln!(out, "# wrote {path}");
                }
                None => out.push_str(&blif),
            }
            Ok(out)
        }
        Action::Map => {
            let t0 = std::time::Instant::now();
            let (result, report) = run_flow(cmd, &spec)?;
            let synth_seconds = t0.elapsed().as_secs_f64();
            let lib = Library::mcnc();
            let mapped = map_network(&result, &lib);
            let mut s = render_stats(&result);
            let _ = writeln!(
                s,
                "  mapped: {} cells / {} pins / area {:.1} / depth {}",
                mapped.num_gates(),
                mapped.num_literals(),
                mapped.area(),
                mapped.depth()
            );
            let mut cells: Vec<(String, usize)> = mapped.cell_histogram().into_iter().collect();
            cells.sort();
            for (cell, count) in cells {
                let _ = writeln!(s, "    {count:3} × {cell}");
            }
            if cmd.stats {
                if let Some(r) = &report {
                    s.push_str(&render_report(r));
                }
            }
            if let Some(path) = &cmd.trace_json {
                s.push_str(&write_trace_json(path, report.as_ref())?);
            }
            if let Some(path) = &cmd.bench_json {
                let proof = proof_of(cmd, &spec, &result, report.as_ref())?;
                s.push_str(&write_bench_json(
                    path,
                    cmd,
                    &result,
                    report,
                    proof,
                    synth_seconds,
                )?);
            }
            if let Some(path) = &cmd.output {
                let verilog = mapped.to_verilog(spec.name());
                std::fs::write(path, &verilog).map_err(|e| Error::io(path, e))?;
                let _ = writeln!(s, "  wrote Verilog netlist to {path}");
            }
            Ok(s)
        }
    }
}

/// Environment marker the `--drain-on-term` supervisor sets on the
/// daemon child it spawns, so the child knows to watch its stdin pipe
/// for EOF (= the supervisor died) instead of spawning a supervisor of
/// its own.
const SUPERVISED_ENV: &str = "XSYNTH_SERVE_SUPERVISED";

/// Runs the `serve` daemon: binds the configured listeners, announces
/// them on stdout (so scripts using an ephemeral TCP port can read the
/// bound address), and blocks until a `shutdown` request drains the
/// queue. Jobs inherit the command's flow, redundancy/salvage flags
/// and budget as daemon defaults; each job may override its budget.
///
/// With `--drain-on-term` the process forks into a supervisor/daemon
/// pair (see [`run_serve_supervisor`]): the std-only daemon installs no
/// signal handler, so SIGTERM delivery is detected as the supervisor's
/// death closing the daemon's stdin pipe, which triggers a graceful
/// drain instead of an abrupt exit.
fn run_serve(cmd: &Command) -> Result<String, Error> {
    let supervised = std::env::var_os(SUPERVISED_ENV).is_some();
    if cmd.drain_on_term && !supervised {
        return run_serve_supervisor(cmd);
    }
    let options =
        synth_options(cmd).ok_or_else(|| Error::msg("serve only runs the FPRM-family flows"))?;
    let mut opts = xsynth_serve::ServeOptions {
        tcp: cmd.tcp.clone(),
        unix: cmd.socket.clone().map(Into::into),
        workers: cmd.workers,
        options,
        ..xsynth_serve::ServeOptions::default()
    };
    if let Some(n) = cmd.per_conn_queue {
        opts.per_conn_queue = n;
    }
    if let Some(n) = cmd.global_queue {
        opts.global_queue = n;
    }
    if let Some(ms) = cmd.read_timeout_ms {
        opts.read_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = cmd.idle_timeout_ms {
        opts.idle_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = cmd.drain_timeout_ms {
        opts.drain_timeout = Duration::from_millis(ms);
    }
    if let Some(kb) = cmd.max_line_kb {
        opts.max_line_bytes = (kb as usize) << 10;
    }
    let server = xsynth_serve::Server::bind(opts)?;
    if let Some(addr) = server.tcp_addr() {
        println!("# serve: listening on tcp {addr}");
    }
    if let Some(path) = server.unix_path() {
        println!("# serve: listening on unix {}", path.display());
    }
    if cmd.drain_on_term && supervised {
        spawn_supervisor_watch(server.drain_handle());
    }
    server.wait();
    Ok("# serve: shutdown complete\n".to_string())
}

/// Watches the supervised daemon's stdin pipe and begins a graceful
/// drain the moment it reaches EOF or errors — which happens exactly
/// when the supervisor process dies (SIGTERM, SIGKILL, crash) and the
/// kernel closes its end of the pipe.
fn spawn_supervisor_watch(handle: xsynth_serve::DrainHandle) {
    std::thread::Builder::new()
        .name("xsynth-serve-term".into())
        .spawn(move || {
            use std::io::Read as _;
            let mut stdin = std::io::stdin();
            let mut buf = [0u8; 256];
            loop {
                match stdin.read(&mut buf) {
                    // Any payload on the pipe is ignored; only its
                    // closure carries meaning.
                    Ok(n) if n > 0 => {}
                    _ => {
                        handle.shutdown();
                        return;
                    }
                }
            }
        })
        .expect("spawn supervisor watch thread");
}

/// The `--drain-on-term` supervisor: re-executes this binary as a child
/// daemon (same serve argv, [`SUPERVISED_ENV`] set, stdin piped) and
/// waits for it. The supervisor keeps default signal dispositions, so a
/// SIGTERM kills *it* immediately (the conventional 143 exit the service
/// manager sees) while the orphaned daemon notices the closed stdin pipe
/// and drains gracefully: queued work is answered or shed with typed
/// `overloaded` errors within `--drain-timeout-ms`, listeners close, and
/// unix socket files are unlinked.
fn run_serve_supervisor(cmd: &Command) -> Result<String, Error> {
    let exe = std::env::current_exe().map_err(|e| Error::io("current_exe", e))?;
    let mut child = std::process::Command::new(exe)
        .args(serve_argv(cmd))
        .env(SUPERVISED_ENV, "1")
        .stdin(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| Error::io("spawning supervised daemon", e))?;
    // Hold the child's stdin write end for the supervisor's whole life:
    // dropping it (normal return) or dying with it (signal) closes the
    // pipe and the daemon drains. `Child::wait` closes any piped stdin
    // before blocking, so the handle must be taken out of the child
    // first or the daemon would drain the moment it starts.
    let drain_pipe = child.stdin.take();
    let status = child
        .wait()
        .map_err(|e| Error::io("supervised daemon", e))?;
    drop(drain_pipe);
    match status.code() {
        Some(0) => Ok(String::new()), // the daemon already printed its epilogue
        Some(code) => std::process::exit(code),
        None => std::process::exit(1),
    }
}

/// Reconstructs the `serve` argv of a parsed [`Command`] so the
/// supervisor can re-execute itself as the daemon child. Inverse of
/// [`parse_args`] for the serve-relevant subset (listeners, workers,
/// flow, redundancy/salvage, budget, overload limits).
fn serve_argv(cmd: &Command) -> Vec<String> {
    let mut v = vec!["serve".to_string()];
    let mut flag = |name: &str, value: Option<String>| {
        v.push(name.to_string());
        if let Some(value) = value {
            v.push(value);
        }
    };
    if let Some(tcp) = &cmd.tcp {
        flag("--tcp", Some(tcp.clone()));
    }
    if let Some(socket) = &cmd.socket {
        flag("--socket", Some(socket.clone()));
    }
    if cmd.workers != 0 {
        flag("--workers", Some(cmd.workers.to_string()));
    }
    if cmd.flow != Flow::Fprm {
        let (method, _, _) = cmd.flow.row();
        flag("--method", Some(method.to_string()));
    }
    if cmd.no_redundancy {
        flag("--no-redundancy", None);
    }
    if cmd.no_salvage {
        flag("--no-salvage", None);
    }
    if let Some(cap) = cmd.budget.bdd_node_cap {
        flag("--bdd-node-cap", Some(cap.to_string()));
    }
    if let Some(t) = cmd.budget.phase_timeout {
        flag("--phase-timeout-ms", Some(t.as_millis().to_string()));
    }
    if let Some(p) = cmd.budget.max_patterns {
        flag("--max-patterns", Some(p.to_string()));
    }
    if let Some(n) = cmd.per_conn_queue {
        flag("--queue", Some(n.to_string()));
    }
    if let Some(n) = cmd.global_queue {
        flag("--global-queue", Some(n.to_string()));
    }
    if let Some(ms) = cmd.read_timeout_ms {
        flag("--read-timeout-ms", Some(ms.to_string()));
    }
    if let Some(ms) = cmd.idle_timeout_ms {
        flag("--idle-timeout-ms", Some(ms.to_string()));
    }
    if let Some(ms) = cmd.drain_timeout_ms {
        flag("--drain-timeout-ms", Some(ms.to_string()));
    }
    if let Some(kb) = cmd.max_line_kb {
        flag("--max-line-kb", Some(kb.to_string()));
    }
    if cmd.drain_on_term {
        flag("--drain-on-term", None);
    }
    v
}

/// Runs `xsynth top <addr>`: polls the daemon's `metrics` and `recent`
/// wire ops and renders a status table. `--once` returns a single frame
/// (for scripts and CI); otherwise the loop clears the screen and
/// redraws every `--interval-ms`. A poll that fails — daemon restarting,
/// connection refused, mid-read drop — does not exit the dashboard: the
/// loop keeps retrying with backoff ([`reconnect_delay`]) and shows the
/// error in place of the frame until the daemon answers again.
fn run_top(cmd: &Command) -> Result<String, Error> {
    let addr = cmd.input.as_str();
    if cmd.once {
        return top_frame(addr);
    }
    let mut failures: u32 = 0;
    loop {
        use std::io::Write as _;
        let delay = match top_frame(addr) {
            Ok(frame) => {
                failures = 0;
                // plain full redraw — clear screen, cursor home, draw
                print!("\x1b[2J\x1b[H{frame}");
                Duration::from_millis(cmd.interval_ms)
            }
            Err(e) => {
                failures = failures.saturating_add(1);
                let delay = reconnect_delay(failures, cmd.interval_ms);
                print!(
                    "\x1b[2J\x1b[Hxsynth top: {addr} unreachable ({e})\nretrying in {:.1}s (attempt {failures})\n",
                    delay.as_secs_f64()
                );
                delay
            }
        };
        let _ = std::io::stdout().flush();
        std::thread::sleep(delay);
    }
}

/// Backoff between failed `top` polls: starts at the refresh interval
/// (floored at 100 ms so `--interval-ms 0` cannot spin) and doubles per
/// consecutive failure, capped at 10 s so a daemon restart is picked up
/// promptly no matter how long the outage lasted.
fn reconnect_delay(failures: u32, interval_ms: u64) -> Duration {
    let base = interval_ms.clamp(100, 10_000);
    let factor = 1u64 << failures.saturating_sub(1).min(7);
    Duration::from_millis(base.saturating_mul(factor).min(10_000))
}

/// Fetches and renders one `top` frame. `host:port` addresses poll over
/// TCP, anything else is treated as a unix socket path. Reconnecting per
/// frame keeps the daemon's reader-thread count bounded and survives
/// daemon restarts between polls.
fn top_frame(addr: &str) -> Result<String, Error> {
    if addr.contains(':') {
        let mut client = xsynth_serve::Client::connect_tcp(addr)?;
        render_top(&mut client, addr)
    } else {
        #[cfg(unix)]
        {
            let mut client = xsynth_serve::Client::connect_unix(addr)?;
            render_top(&mut client, addr)
        }
        #[cfg(not(unix))]
        Err(Error::msg(
            "unix sockets are not available on this platform",
        ))
    }
}

/// Renders the `top` table from one `metrics` + one `recent` exchange.
fn render_top<S: std::io::Read + std::io::Write>(
    client: &mut xsynth_serve::Client<S>,
    addr: &str,
) -> Result<String, Error> {
    let m = client.metrics()?;
    if m.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(Error::msg(format!(
            "daemon answered `metrics` with an error: {}",
            m.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Value::as_str)
                .unwrap_or("unknown")
        )));
    }
    let text = m
        .get("text")
        .and_then(Value::as_str)
        .ok_or_else(|| Error::Protocol("metrics reply missing `text`".into()))?;
    let fams = xsynth_trace::metrics::parse(text).map_err(Error::Protocol)?;
    let value = |name: &str, label: Option<(&str, &str)>| -> f64 {
        fams.get(name)
            .and_then(|f| {
                f.samples.iter().find(|s| match label {
                    Some((k, v)) => s.label(k) == Some(v),
                    None => true,
                })
            })
            .map(|s| s.value)
            .unwrap_or(0.0)
    };
    let sample = |name: &str, suffix: &str| -> f64 {
        fams.get(name)
            .and_then(|f| {
                f.samples
                    .iter()
                    .find(|s| s.name == format!("{name}{suffix}"))
            })
            .map(|s| s.value)
            .unwrap_or(0.0)
    };

    let mut s = String::new();
    let _ = writeln!(
        s,
        "xsynth serve @ {addr} — up {:.0}s, workers {:.0} ({:.0} busy)",
        value("xsynth_uptime_seconds", None),
        value("xsynth_workers", None),
        value("xsynth_workers_busy", None),
    );
    let _ = writeln!(
        s,
        "jobs: {:.0} ok / {:.0} error",
        value("xsynth_jobs_total", Some(("outcome", "ok"))),
        value("xsynth_jobs_total", Some(("outcome", "error"))),
    );
    let _ = writeln!(
        s,
        "load: queue {:.0}/{:.0}   shed {:.0} / cancelled {:.0} / reaped {:.0}",
        value("xsynth_queue_depth", None),
        value("xsynth_queue_capacity", None),
        value("xsynth_jobs_shed_total", None),
        value("xsynth_jobs_cancelled_total", None),
        value("xsynth_conns_reaped_total", None),
    );
    let _ = writeln!(
        s,
        "bdd: peak {:.0} nodes   job seconds: p50 {:.4} p90 {:.4} p99 {:.4} (n={:.0})",
        value("xsynth_bdd_peak_nodes", None),
        value("xsynth_job_seconds_p50", None),
        value("xsynth_job_seconds_p90", None),
        value("xsynth_job_seconds_p99", None),
        sample("xsynth_job_seconds", "_count"),
    );

    let r = client.recent(Some(10))?;
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "{:<12} {:<14} {:<8} {:>9} {:>10}",
        "ID", "NAME", "OUTCOME", "SECONDS", "PEAK-NODES"
    );
    for job in r.get("jobs").and_then(Value::as_arr).unwrap_or(&[]) {
        let g = |k: &str| {
            job.get(k)
                .and_then(Value::as_str)
                .unwrap_or("-")
                .to_string()
        };
        let n = |k: &str| job.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let _ = writeln!(
            s,
            "{:<12} {:<14} {:<8} {:>9.4} {:>10.0}",
            g("id"),
            g("name"),
            g("outcome"),
            n("seconds"),
            n("peak_nodes"),
        );
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_basic() {
        let c = parse_args(&argv("synth foo.blif -o out.blif --method sop")).unwrap();
        assert_eq!(c.action, Action::Synth);
        assert_eq!(c.input, "foo.blif");
        assert_eq!(c.output.as_deref(), Some("out.blif"));
        assert_eq!(c.flow, Flow::Sop);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("frobnicate x")).is_err());
        assert!(parse_args(&argv("synth")).is_err());
        assert!(parse_args(&argv("synth a.blif --method wat")).is_err());
        assert!(parse_args(&argv("synth a.blif --wat")).is_err());
    }

    #[test]
    fn bench_subcommand_runs_builtin() {
        let c = parse_args(&argv("bench z4ml")).unwrap();
        let out = execute(&c).unwrap();
        assert!(out.contains(".model"), "{out}");
        assert!(out.contains("# result:"));
    }

    #[test]
    fn bench_unknown_circuit_fails_at_parse_time() {
        let err = parse_args(&argv("bench nonesuch")).unwrap_err();
        assert!(err.contains("unknown benchmark 'nonesuch'"), "{err}");
    }

    #[test]
    fn bench_typo_suggests_near_matches() {
        let err = parse_args(&argv("bench z4mll")).unwrap_err();
        assert!(err.contains("did you mean"), "{err}");
        assert!(err.contains("z4ml"), "{err}");
    }

    #[test]
    fn stats_flag_prints_phase_timings() {
        let c = parse_args(&argv("bench rd53 --stats")).unwrap();
        assert!(c.stats);
        let out = execute(&c).unwrap();
        assert!(out.contains("phase timings"), "{out}");
        assert!(out.contains("polarity.evaluated"), "{out}");
        // the structured span tree rides along, with the paper phases
        assert!(out.contains("# trace:"), "{out}");
        assert!(out.contains("synthesize"), "{out}");
        assert!(out.contains("fprm"), "{out}");
        assert!(out.contains("redundancy"), "{out}");
    }

    #[test]
    fn trace_json_flag_writes_valid_chrome_trace() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let tracep = dir.join("rd53-trace.json");
        let c = parse_args(&argv(&format!(
            "bench rd53 --trace-json {}",
            tracep.display()
        )))
        .unwrap();
        let out = execute(&c).unwrap();
        assert!(out.contains("wrote trace to"), "{out}");
        let json = std::fs::read_to_string(&tracep).unwrap();
        xsynth_trace::json::validate(&json).expect("trace JSON must parse");
        for phase in ["synthesize", "fprm", "factoring", "sharing", "redundancy"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{phase}");
        }
    }

    #[test]
    fn bench_json_flag_writes_telemetry_record() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("rd53-bench.json");
        let out = run(&argv(&format!("bench rd53 --bench-json {}", p.display()))).unwrap();
        assert!(out.contains("wrote benchmark record"), "{out}");
        let text = std::fs::read_to_string(&p).unwrap();
        let suite = xsynth_bench::BenchSuite::from_json(&text).expect("strict parse");
        assert_eq!(suite.suite, "cli");
        let r = suite.find("rd53", "fprm").expect("record present");
        assert!(r.verified.passed());
        assert!(r.map_lits > 0 && r.runs == 1);
        assert!(r.phases.contains_key(phase::FPRM));
    }

    /// `--stats` and `--bench-json` are mechanical renderings of the
    /// trace: every counter and gauge the run recorded shows up in both,
    /// with no hand-picked subset.
    #[test]
    fn stats_and_bench_json_render_every_trace_key() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["z4ml", "rd53", "majority"] {
            let cmd = parse_args(&argv(&format!("bench {name} --stats"))).unwrap();
            let spec = load(&cmd).unwrap();
            let (result, report) = run_flow(&cmd, &spec).unwrap();
            let report = report.expect("the FPRM flow carries a report");
            let stats = render_report(&report);
            let path = dir.join(format!("{name}-keys.json"));
            let path = path.to_str().unwrap();
            let proof = report.proof.expect("the job proves its result");
            write_bench_json(path, &cmd, &result, Some(report.clone()), proof, 0.0).unwrap();
            let suite =
                xsynth_bench::BenchSuite::from_json(&std::fs::read_to_string(path).unwrap())
                    .unwrap();
            let record = &suite.records[0];
            for key in report.trace.counter_totals().keys() {
                assert!(
                    stats.contains(&format!("{key} = ")),
                    "{name}: --stats lacks {key}"
                );
                assert!(
                    record.counters.contains_key(key),
                    "{name}: record lacks {key}"
                );
            }
            for key in report.trace.gauge_maxima().keys() {
                assert!(
                    stats.contains(&format!("{key}=")),
                    "{name}: --stats lacks {key}"
                );
                assert!(
                    record.gauges.contains_key(key),
                    "{name}: record lacks {key}"
                );
            }
            for p in &report.profile.phases {
                assert!(stats.contains(&format!("#   {:<12}", p.name)), "{stats}");
            }
            for (output, cubes, _) in &report.outputs {
                assert!(
                    stats.contains(&format!("# output {output}: {cubes} FPRM cubes")),
                    "{stats}"
                );
            }
        }
    }

    #[test]
    fn run_is_a_single_fallible_entry_point() {
        assert!(run(&argv("bench rd53")).is_ok());
        let err = run(&argv("bench nonesuch")).unwrap_err();
        assert!(err.to_string().contains("unknown benchmark"), "{err}");
        let err = run(&argv("synth /no/such/file.blif")).unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
    }

    #[test]
    fn synth_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let inp = dir.join("in.blif");
        let outp = dir.join("out.blif");
        std::fs::write(
            &inp,
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n",
        )
        .unwrap();
        let c = parse_args(&argv(&format!(
            "synth {} -o {}",
            inp.display(),
            outp.display()
        )))
        .unwrap();
        execute(&c).unwrap();
        let text = std::fs::read_to_string(&outp).unwrap();
        let net = xsynth_blif::parse_blif(&text).unwrap();
        for m in 0..4u64 {
            assert_eq!(net.eval_u64(m)[0], (m & 1 != 0) ^ (m & 2 != 0));
        }
    }

    #[test]
    fn pla_input_supported() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let inp = dir.join("in.pla");
        std::fs::write(&inp, ".i 2\n.o 1\n11 1\n.e\n").unwrap();
        let c = parse_args(&argv(&format!("stats {}", inp.display()))).unwrap();
        let out = execute(&c).unwrap();
        assert!(out.contains("two-input"));
    }

    #[test]
    fn map_subcommand_reports_cells() {
        let c = parse_args(&argv("bench f2")).unwrap();
        let c = Command {
            action: Action::Map,
            ..c
        };
        let out = execute(&c).unwrap();
        assert!(out.contains("mapped:"), "{out}");
        assert!(out.contains('×'));
    }

    #[test]
    fn map_writes_verilog() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let outp = dir.join("out.v");
        let cmd = Command {
            action: Action::Map,
            input: "f2".into(),
            input2: None,
            output: Some(outp.display().to_string()),
            flow: Flow::Fprm,
            no_redundancy: false,
            no_salvage: false,
            stats: false,
            trace_json: None,
            bench_json: None,
            budget: Budget::default(),
            tcp: None,
            socket: None,
            workers: 0,
            per_conn_queue: None,
            global_queue: None,
            read_timeout_ms: None,
            idle_timeout_ms: None,
            drain_timeout_ms: None,
            max_line_kb: None,
            drain_on_term: false,
            interval_ms: 2000,
            once: false,
        };
        let text = execute(&cmd).unwrap();
        assert!(text.contains("wrote Verilog"), "{text}");
        let v = std::fs::read_to_string(&outp).unwrap();
        assert!(v.contains("module f2"), "{v}");
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn parse_budget_flags() {
        let c = parse_args(&argv(
            "bench rd53 --bdd-node-cap 5000 --phase-timeout-ms 250 --max-patterns 64",
        ))
        .unwrap();
        assert_eq!(
            c.budget,
            Budget::default()
                .bdd_node_cap(Some(5000))
                .phase_timeout(Some(Duration::from_millis(250)))
                .max_patterns(Some(64))
        );
        assert!(parse_args(&argv("bench rd53 --bdd-node-cap")).is_err());
        assert!(parse_args(&argv("bench rd53 --bdd-node-cap many")).is_err());
        assert!(parse_args(&argv("bench rd53 --phase-timeout-ms -5")).is_err());
    }

    #[test]
    fn parse_no_salvage_flag() {
        assert!(!parse_args(&argv("bench rd53")).unwrap().no_salvage);
        let c = parse_args(&argv("bench rd53 --no-salvage")).unwrap();
        assert!(c.no_salvage);
        // the flagged command still runs end to end on a healthy circuit
        let out = execute(&c).unwrap();
        assert!(out.contains(".model"), "{out}");
    }

    #[test]
    fn parse_serve_flags() {
        let c = parse_args(&argv(
            "serve --tcp 127.0.0.1:0 --socket /tmp/x.sock --workers 2",
        ))
        .unwrap();
        assert_eq!(c.action, Action::Serve);
        assert_eq!(c.input, "");
        assert_eq!(c.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(c.socket.as_deref(), Some("/tmp/x.sock"));
        assert_eq!(c.workers, 2);
        assert!(parse_args(&argv("serve --tcp 127.0.0.1:0 --cache-mb 16")).is_err());
        // serve-only flags stay serve-only
        assert!(parse_args(&argv("bench rd53 --tcp 127.0.0.1:0")).is_err());
    }

    #[test]
    fn parse_overload_flags() {
        let c = parse_args(&argv(
            "serve --tcp 127.0.0.1:0 --queue 4 --global-queue 16 --read-timeout-ms 250 \
             --idle-timeout-ms 9000 --drain-timeout-ms 1500 --max-line-kb 64 --drain-on-term",
        ))
        .unwrap();
        assert_eq!(c.per_conn_queue, Some(4));
        assert_eq!(c.global_queue, Some(16));
        assert_eq!(c.read_timeout_ms, Some(250));
        assert_eq!(c.idle_timeout_ms, Some(9000));
        assert_eq!(c.drain_timeout_ms, Some(1500));
        assert_eq!(c.max_line_kb, Some(64));
        assert!(c.drain_on_term);
        // defaults stay "inherit from ServeOptions"
        let c = parse_args(&argv("serve --tcp 127.0.0.1:0")).unwrap();
        assert_eq!(c.per_conn_queue, None);
        assert!(!c.drain_on_term);
        // overload flags are serve-only
        assert!(parse_args(&argv("bench rd53 --queue 4")).is_err());
        assert!(parse_args(&argv("top /tmp/x.sock --drain-on-term")).is_err());
        assert!(parse_args(&argv("serve --tcp x --queue lots")).is_err());
    }

    #[test]
    fn serve_argv_roundtrips_through_parse_args() {
        let line = "serve --tcp 127.0.0.1:0 --socket /tmp/x.sock --workers 3 \
                    --method kfdd --no-redundancy --no-salvage --bdd-node-cap 5000 \
                    --phase-timeout-ms 250 --max-patterns 64 --queue 4 --global-queue 16 \
                    --read-timeout-ms 250 --idle-timeout-ms 9000 --drain-timeout-ms 1500 \
                    --max-line-kb 64 --drain-on-term";
        let cmd = parse_args(&argv(line)).unwrap();
        let reparsed = parse_args(&serve_argv(&cmd)).unwrap();
        assert_eq!(cmd, reparsed);
        // a minimal command reconstructs minimally
        let cmd = parse_args(&argv("serve --tcp 127.0.0.1:0")).unwrap();
        assert_eq!(serve_argv(&cmd), vec!["serve", "--tcp", "127.0.0.1:0"]);
    }

    #[test]
    fn reconnect_delay_backs_off_and_caps() {
        // first failure retries at the poll interval
        assert_eq!(reconnect_delay(1, 2000), Duration::from_millis(2000));
        // doubles per consecutive failure
        assert_eq!(reconnect_delay(2, 2000), Duration::from_millis(4000));
        // capped at 10 s no matter how long the outage
        assert_eq!(reconnect_delay(10, 2000), Duration::from_millis(10_000));
        assert_eq!(
            reconnect_delay(u32::MAX, 2000),
            Duration::from_millis(10_000)
        );
        // a zero interval cannot busy-spin
        assert!(reconnect_delay(1, 0) >= Duration::from_millis(100));
    }

    #[test]
    fn usage_documents_the_overloaded_exit_code() {
        assert!(USAGE.contains("11 overloaded"), "{USAGE}");
        assert!(USAGE.contains("--drain-on-term"), "{USAGE}");
    }

    #[test]
    fn parse_top_flags() {
        let c = parse_args(&argv("top 127.0.0.1:7171 --interval-ms 500 --once")).unwrap();
        assert_eq!(c.action, Action::Top);
        assert_eq!(c.input, "127.0.0.1:7171");
        assert_eq!(c.interval_ms, 500);
        assert!(c.once);
        // defaults
        let c = parse_args(&argv("top /tmp/x.sock")).unwrap();
        assert_eq!(c.interval_ms, 2000);
        assert!(!c.once);
        // top needs an address; top-only flags stay top-only
        assert!(parse_args(&argv("top")).is_err());
        assert!(parse_args(&argv("bench rd53 --once")).is_err());
    }

    #[test]
    fn top_once_renders_a_live_daemon_frame() {
        let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            workers: 1,
            ..Default::default()
        })
        .expect("bind");
        let addr = server.tcp_addr().expect("tcp addr").to_string();
        let mut client = xsynth_serve::Client::connect_tcp(&addr).expect("connect");
        let blif = ".model cli_top\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";
        let reply = client.synth_blif(blif, Some("top-job")).expect("synth");
        assert_eq!(
            reply.get("status").and_then(Value::as_str),
            Some("ok"),
            "{reply:?}"
        );
        let cmd = parse_args(&argv(&format!("top {addr} --once"))).unwrap();
        let frame = execute(&cmd).expect("one frame");
        assert!(frame.contains("xsynth serve @"), "{frame}");
        assert!(frame.contains("jobs: 1 ok"), "{frame}");
        assert!(frame.contains("load: queue"), "{frame}");
        assert!(frame.contains("top-job"), "{frame}");
        assert!(frame.contains("cli_top"), "{frame}");
        client.shutdown().expect("shutdown");
        server.wait();
    }

    #[test]
    fn sop_bench_stats_show_the_script_steps() {
        let out = run(&argv("bench rd53 --method sop --stats")).unwrap();
        for step in ["eliminate", "simplify", "extract", "lower"] {
            assert!(
                out.contains(&format!("#   {step} ")),
                "missing {step}: {out}"
            );
        }
        assert!(out.contains("sop.extracted = "), "{out}");
        assert!(!out.contains("# apply cache:"), "{out}");
    }

    #[test]
    fn stats_flag_prints_cache_hit_ratios() {
        let out = run(&argv("bench rd53 --stats")).unwrap();
        assert!(out.contains("# apply cache:"), "{out}");
        assert!(!out.contains("# result cache:"), "{out}");
        assert!(out.contains("% hit ("), "{out}");
    }

    #[test]
    fn serve_misconfigurations_are_usage_errors() {
        // no listener at all
        let c = parse_args(&argv("serve")).unwrap();
        assert_eq!(execute(&c).unwrap_err().exit_code(), 2);
        // the daemon runs only the FPRM-family flows
        let c = parse_args(&argv("serve --tcp 127.0.0.1:0 --method sop")).unwrap();
        assert_eq!(execute(&c).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn verify_subcommand_compares_two_networks() {
        // two built-in names resolve through the registry fallback
        let out = run(&argv("verify rd53 rd53")).unwrap();
        assert!(out.contains("equivalent"), "{out}");
        let err = run(&argv("verify rd53 rd73")).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err}"); // different input sets
        assert!(run(&argv("verify rd53")).is_err());
    }

    #[test]
    fn verify_failure_maps_to_exit_code_7() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("vf_a.blif");
        let b = dir.join("vf_b.blif");
        std::fs::write(
            &a,
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n",
        )
        .unwrap();
        std::fs::write(
            &b,
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
        )
        .unwrap();
        let err = run(&argv(&format!("verify {} {}", a.display(), b.display()))).unwrap_err();
        assert!(matches!(err, Error::Verify(_)), "{err}");
        assert_eq!(err.exit_code(), 7);
        let out = run(&argv(&format!("verify {} {}", a.display(), a.display()))).unwrap();
        assert!(out.contains("exact BDD check"), "{out}");
    }

    #[test]
    fn budget_exhaustion_maps_to_exit_code_8() {
        // 8 BDD nodes cannot hold a 5-input benchmark's spec BDDs
        let err = run(&argv("bench rd53 --bdd-node-cap 8")).unwrap_err();
        assert!(matches!(err, Error::Budget(_)), "{err}");
        assert_eq!(err.exit_code(), 8);
    }

    #[test]
    fn parse_error_maps_to_exit_code_3() {
        let dir = std::env::temp_dir().join("xsynth_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.blif");
        std::fs::write(&bad, ".model m\n.names a y\nthis is not a cover\n.end\n").unwrap();
        let err = run(&argv(&format!("synth {}", bad.display()))).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
    }

    #[test]
    fn starved_bench_reports_curtailed_phases() {
        let out = run(&argv("bench rd53 --phase-timeout-ms 0 --max-patterns 4")).unwrap();
        assert!(out.contains("# budget: curtailed phases:"), "{out}");
        assert!(out.contains(".model"), "{out}");
    }

    #[test]
    fn engines_all_verify() {
        for flow in [
            Flow::Fprm,
            Flow::FprmCube,
            Flow::FprmOfdd,
            Flow::Kfdd,
            Flow::Sop,
            Flow::None,
        ] {
            let cmd = Command {
                action: Action::Bench,
                input: "rd53".into(),
                input2: None,
                output: None,
                flow,
                no_redundancy: false,
                no_salvage: false,
                stats: false,
                trace_json: None,
                bench_json: None,
                budget: Budget::default(),
                tcp: None,
                socket: None,
                workers: 0,
                per_conn_queue: None,
                global_queue: None,
                read_timeout_ms: None,
                idle_timeout_ms: None,
                drain_timeout_ms: None,
                max_line_kb: None,
                drain_on_term: false,
                interval_ms: 2000,
                once: false,
            };
            let out = execute(&cmd).expect("flow runs");
            assert!(out.contains(".model"));
        }
    }
}
