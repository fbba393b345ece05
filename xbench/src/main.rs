//! `xbench` — the xsynth benchmark: the paper's Table 2 in both flows,
//! a warm `xsynth serve` daemon and a stream of arithmetic functions,
//! measured end to end and layer by layer.
//!
//! ```text
//! xbench [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json FILE]
//! xbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!        [--trace-out FILE]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones, each with its unit). A traced run also writes its
//! spans as Chrome trace JSON. Without `--workload`, every workload runs
//! in its own child process, one after another, so peak memory does not
//! carry over between them. The exit code is 0 when every output passed
//! the benchmark's own check, 1 otherwise, 2 on a usage error.

#![forbid(unsafe_code)]

mod check;
mod gen;
mod measure;
mod serve;
mod stats;
mod table2;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use measure::{Opts, Run};
use xsynth::trace::json;

/// The workloads; `BENCHMARK.json` and the README give the reason for
/// each.
const WORKLOADS: [&str; 4] = ["table2-fprm", "table2-sop", "serve-warm", "serve-arith"];

struct Args {
    workload: Option<String>,
    opts: Opts,
    trace_out: Option<PathBuf>,
    json_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: xbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20             [--trace-out FILE] [--json FILE]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        trace_out: None,
        json_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => a.opts.smoke = true,
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--json" => a.json_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where runs leave files (daemon sockets, traces): `xbench/` under the
/// cargo target directory, relative to the working directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let target = PathBuf::from(target);
    let target = std::env::current_dir()
        .ok()
        .and_then(|cwd| target.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(target);
    target.join("xbench")
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Opts) -> Result<Run, String> {
    match name {
        "table2-fprm" => Ok(table2::run(table2::Flow::Fprm, opts)),
        "table2-sop" => Ok(table2::run(table2::Flow::Sop, opts)),
        "serve-warm" => serve::warm(opts),
        "serve-arith" => serve::arith(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Writes the traced run's spans as Chrome trace JSON, after checking
/// that the document is valid JSON.
fn write_trace(run: &Run, path: &PathBuf) -> Result<(), String> {
    let Some(trace) = &run.trace else {
        return Ok(());
    };
    let text = trace.to_chrome_json();
    json::validate(&text).map_err(|e| format!("trace JSON invalid: {e}"))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn one(name: &str, args: &Args) -> ExitCode {
    let opts = &args.opts;
    let run = match run_workload(name, opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("xbench {name}: {e}");
            return ExitCode::from(1);
        }
    };
    for f in run.failures.iter().take(10) {
        eprintln!("xbench {name}: failed: {f}");
    }
    if opts.trace {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| out_dir().join(format!("trace-{name}-{}.json", opts.seed)));
        if let Err(e) = write_trace(&run, &path) {
            eprintln!("xbench {name}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("xbench {name}: spans written to {}", path.display());
    }
    println!(
        "xbench {name} seed {}: {} passes, {} jobs, {} failed",
        opts.seed,
        run.passes.len(),
        run.attempted,
        run.failures.len()
    );
    print!("{}", measure::table(&run, opts.trace));
    println!("{}", measure::result_json(&run, opts.trace));
    if run.failures.is_empty() && run.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own child process, one after another.
fn all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("xbench: locating xbench: {e}");
            return ExitCode::from(1);
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for name in WORKLOADS {
        println!("== {name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", if args.opts.trace { "1" } else { "0" }])
            .stdin(Stdio::null());
        if args.opts.smoke {
            cmd.arg("--smoke");
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("xbench: running {name}: {e}");
                return ExitCode::from(1);
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        ok &= out.status.success();
        if let Some(last) = stdout.lines().last() {
            results.push(format!("\"{name}\": {last}"));
        }
    }
    if let Some(path) = &args.json_out {
        let doc = format!("{{{}}}\n", results.join(",\n"));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("xbench: {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // the daemon child: exactly what `xsynth <args>` runs
    if args.first().map(String::as_str) == Some("--daemon") {
        return match xsynth::cli::run(&args[1..]) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(e.exit_code() as u8)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => one(name, &args),
        None => all(&args),
    }
}
