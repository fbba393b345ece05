//! The paper's Table 2, in-process: each job runs one flow on one
//! registry circuit on a cold one-shot engine, then maps it, estimates
//! its power and verifies it — the steps of the `table2` binary's
//! measurement path, called one by one so each gets its own span.

use std::time::Instant;

use xsynth::bench::VERIFY_NODE_CAP;
use xsynth::blif::write_blif;
use xsynth::circuits::{build, registry};
use xsynth::core::{try_synthesize, Budget, EquivChecker, SynthOptions, SynthReport};
use xsynth::map::{map_network, Library};
use xsynth::net::Network;
use xsynth::sim::power_estimate;
use xsynth::sop::{script_algebraic, ScriptOptions};
use xsynth::trace::TraceSink;

use crate::check::{check, Reference};
use crate::gen::Rng;
use crate::measure::{add_program_report, Opts, Pass, Quality, Run, Spans};

/// Which synthesis flow the jobs run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The paper's FPRM flow (`xsynth_core`).
    Fprm,
    /// The SIS-style SOP baseline (`xsynth_sop::script_algebraic`).
    Sop,
}

/// Circuits whose SOP script takes 0.7 s or more each (sym10 about 14 s,
/// rd84 8 s, addm4 6 s, 9sym 1 s, rd73 and mlp4 0.75 s: 98% of a full
/// baseline sweep). The `table2-sop` workload leaves them out so a run
/// holds enough passes for its best-of timings to settle.
pub const SOP_SLOW: [&str; 6] = ["sym10", "rd84", "addm4", "9sym", "rd73", "mlp4"];

/// The circuits of a `--smoke` run.
pub const SMOKE: [&str; 4] = ["z4ml", "f2", "majority", "rd53"];

/// The circuits a flow's workload runs, in registry order.
pub fn circuits(flow: Flow, smoke: bool) -> Vec<&'static str> {
    registry()
        .into_iter()
        .map(|b| b.name)
        .filter(|n| !smoke || SMOKE.contains(n))
        .filter(|n| flow == Flow::Fprm || !SOP_SLOW.contains(n))
        .collect()
}

/// One finished job.
struct Done {
    network: Network,
    report: Option<SynthReport>,
    quality: Quality,
    cells: usize,
    downgraded: bool,
}

/// Synthesizes, maps, estimates power and verifies one circuit.
fn job(
    flow: Flow,
    spec: &Network,
    lib: &Library,
    budget: &Budget,
    spans: &mut Spans,
    graft: Option<(&TraceSink, &str)>,
) -> Result<Done, String> {
    let (network, report) = match flow {
        Flow::Fprm => {
            let offset = graft.map(|(sink, _)| sink.elapsed());
            let outcome = spans
                .span("synth", || try_synthesize(spec, &SynthOptions::default()))
                .map_err(|e| format!("synthesis failed: {e}"))?;
            // the program's own phase spans, on the job's timeline and
            // under the job's request id
            if let (Some((sink, label)), Some(at)) = (graft, offset) {
                sink.append(outcome.report.trace.clone(), label, at);
            }
            (outcome.network, Some(outcome.report))
        }
        Flow::Sop => {
            let net = spans.span("sop", || script_algebraic(spec, &ScriptOptions::default()));
            (net, None)
        }
    };
    let (mapping, mapped) = spans.span("map", || {
        let m = map_network(&network, lib);
        let net = m.to_network(lib);
        (m, net)
    });
    let power = spans.span("power", || power_estimate(&mapped).total);
    let (verdict, downgraded) = spans.span("verify", || {
        let mut checker = EquivChecker::with_budget(spec, budget);
        (checker.try_check(&network), checker.downgraded())
    });
    match verdict {
        Ok(true) => {}
        Ok(false) => return Err("the flow's equivalence check failed".into()),
        Err(e) => return Err(format!("the flow's equivalence check errored: {e}")),
    }
    Ok(Done {
        quality: Quality {
            premap_lits: network.two_input_cost().1,
            map_lits: mapping.num_literals(),
            power,
        },
        cells: mapping.num_gates(),
        downgraded,
        network,
        report,
    })
}

/// Runs the `table2-fprm` or `table2-sop` workload. Every pass starts
/// from a fresh set-up (library and specifications), so set-up is
/// sampled across the whole run.
pub fn run(flow: Flow, opts: &Opts) -> Run {
    let names = circuits(flow, opts.smoke);
    let mut run = Run::default();
    let budget = Budget::default().bdd_node_cap(Some(VERIFY_NODE_CAP));
    let sink = opts.trace.then(TraceSink::new);
    let mut rng = Rng::new(opts.seed);
    let mut specs: Vec<Network> = Vec::new();
    // the first result of every input is checked; a later one only when
    // its BLIF differs from the first
    let mut first: Vec<Option<String>> = vec![None; names.len()];
    let mut to_check: Vec<(usize, Network)> = Vec::new();
    let mut key = 0u64;
    let started = Instant::now();
    while opts.another_pass(&run.passes, started) {
        let t = Instant::now();
        let lib = Library::mcnc();
        specs = names
            .iter()
            .map(|n| build(n).expect("registry circuits build"))
            .collect();
        run.setup.push(t.elapsed().as_secs_f64());
        let pass = run.passes.len();
        let traced = opts.traced(pass);
        let pass_sink = sink.as_ref().filter(|_| traced);
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let mut outcomes = Vec::with_capacity(order.len());
        let t_pass = Instant::now();
        for &i in &order {
            let label = format!("{}@p{pass}", names[i]);
            let mut spans = Spans::open(pass_sink, key, &label, "job");
            key += 1;
            let t0 = Instant::now();
            let r = job(
                flow,
                &specs[i],
                &lib,
                &budget,
                &mut spans,
                pass_sink.map(|s| (s, label.as_str())),
            );
            let secs = t0.elapsed().as_secs_f64();
            drop(spans);
            outcomes.push((i, secs, r));
        }
        run.passes.push(Pass {
            seconds: t_pass.elapsed().as_secs_f64(),
            traced,
        });
        for (i, secs, r) in outcomes {
            run.attempted += 1;
            let done = match r {
                Ok(d) => d,
                Err(e) => {
                    run.failures.push(format!("{}: {e}", names[i]));
                    continue;
                }
            };
            run.jobs.push((i, secs));
            if traced {
                if let Some(report) = &done.report {
                    add_program_report(&mut run, report);
                }
                run.add("map.cells", done.cells as f64);
                run.add(
                    "core.verify_downgraded",
                    f64::from(u8::from(done.downgraded)),
                );
            }
            match run.quality.get(&i) {
                None => {
                    run.quality.insert(i, done.quality);
                }
                Some(q) if *q != done.quality => run.failures.push(format!(
                    "{}: quality differs between passes ({q:?} vs {:?})",
                    names[i], done.quality
                )),
                Some(_) => {}
            }
            let text = write_blif(&done.network);
            if first[i].as_ref() != Some(&text) {
                if first[i].is_none() {
                    first[i] = Some(text);
                }
                to_check.push((i, done.network));
            }
        }
    }
    let t_check = Instant::now();
    for (i, net) in &to_check {
        let _span = Spans::open(sink.as_ref(), key, names[*i], "check");
        key += 1;
        let same = |s: &str| s.to_string();
        if let Err(e) = check(net, &same, &Reference::network(&specs[*i]), opts.seed) {
            run.failures
                .push(format!("{}: independent check: {e}", names[*i]));
        }
    }
    run.layer_values
        .insert("check.busy_s", t_check.elapsed().as_secs_f64());
    run.peak_rss_kb
        .push(xsynth::trace::mem::peak_rss_kb().unwrap_or(0));
    run.trace = sink.map(|s| s.take());
    run
}
