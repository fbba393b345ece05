//! Chaos suite: arm every registered failpoint, one at a time, and assert
//! the fault-containment contract — a synthesis call never lets a panic
//! escape, and always ends in exactly one of
//!
//! 1. a verified network (possibly with [`SynthReport::salvaged`] entries),
//! 2. a typed [`Error`] with a meaningful exit code.
//!
//! Only built under `--features failpoints`; the release pipeline compiles
//! the sites away entirely.
//!
//! The armed plan and hit counts are process-global, so every test here
//! serializes on one lock and re-arms from scratch.

#![cfg(feature = "failpoints")]

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use xsynth_core::{
    phase, try_synthesize, EquivChecker, Error, FactorMethod, SalvageRung, SynthOptions,
    SynthOutcome, SynthReport, VerifyStatus,
};
use xsynth_net::Network;
use xsynth_trace::failpoint::{self, Action, FailPlan};
use xsynth_trace::{SpanNode, TraceSink};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn circuit(name: &str) -> Network {
    xsynth_circuits::build(name).expect("registry circuit")
}

/// Runs the pipeline under the currently armed plan and asserts the
/// containment contract; returns the outcome for further inspection.
/// Verification of a successful result runs with everything disarmed, so
/// an armed `core.verify` or `sim.block` cannot vouch for a bad network.
fn run_contained(spec: &Network, opts: &SynthOptions) -> Result<SynthOutcome, Error> {
    let result = catch_unwind(AssertUnwindSafe(|| try_synthesize(spec, opts)));
    failpoint::disarm();
    let result = result.expect("a panic escaped try_synthesize");
    if let Ok(outcome) = &result {
        let mut checker = EquivChecker::new(spec);
        assert!(
            checker.try_check(&outcome.network).unwrap(),
            "salvaged or clean result must still match the spec"
        );
    }
    result
}

/// Rewrites the redundancy-removal pass guarded with a check, kept or
/// reverted: each is one `core.verify` hit past the traced checks that
/// `verify.checks` counts.
fn guarded_rewrites(report: &SynthReport) -> u64 {
    let kinds = [
        "xor_to_or",
        "xor_to_and",
        "fanin_removed",
        "const_replaced",
        "reverted",
    ];
    kinds
        .iter()
        .map(|k| report.trace.counter(&format!("redundancy.{k}")))
        .sum()
}

/// Number of spans named `name` anywhere in the forest.
fn count_named(nodes: &[SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| usize::from(n.name == name) + count_named(&n.children, name))
        .sum()
}

#[test]
fn plan_panic_salvages_at_skip_factor() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::arm(&FailPlan::new().point_for("core.plan", Action::Panic, 1, 1));
    let outcome =
        run_contained(&spec, &SynthOptions::default()).expect("rung 2 salvages the output");
    let salvaged = &outcome.report.salvaged;
    assert_eq!(salvaged.len(), 1, "{salvaged:?}");
    assert_eq!(salvaged[0].output, "y0");
    assert_eq!(salvaged[0].rung, SalvageRung::SkipFactor);
    assert!(
        salvaged[0].cause.contains("core.plan"),
        "{}",
        salvaged[0].cause
    );
    assert!(outcome.report.trace.counter("salvage.attempts") >= 1);
}

/// A rung that fails after its `plan` span opened is rolled back out of
/// the trace: the salvaged output shows the kept attempt only.
#[test]
fn failed_plan_attempt_leaves_no_trace() {
    let _g = exclusive();
    let spec = circuit("majority");
    let clean = run_contained(&spec, &SynthOptions::default()).expect("clean run");
    failpoint::arm(&FailPlan::new().point_for("ofdd.polarity_search", Action::Panic, 1, 1));
    let outcome =
        run_contained(&spec, &SynthOptions::default()).expect("rung 2 salvages the output");
    let salvaged = &outcome.report.salvaged;
    assert_eq!(salvaged.len(), 1, "{salvaged:?}");
    assert_eq!(salvaged[0].rung, SalvageRung::SkipFactor);
    let trace = &outcome.report.trace;
    let forest = trace.forest();
    assert_eq!(count_named(&forest, "plan"), 1);
    assert_eq!(count_named(&forest, "polarity_search"), 1);
    assert_eq!(trace.counter("salvage.attempts"), 1);
    let evaluated = clean.report.trace.counter("polarity.evaluated");
    assert_eq!(evaluated, 32);
    assert_eq!(trace.counter("polarity.evaluated"), evaluated);
}

#[test]
fn plan_double_fault_salvages_at_direct_fprm() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::arm(&FailPlan::new().point_for("core.plan", Action::Panic, 1, 2));
    let outcome =
        run_contained(&spec, &SynthOptions::default()).expect("rung 3 salvages the output");
    let salvaged = &outcome.report.salvaged;
    assert_eq!(salvaged.len(), 1, "{salvaged:?}");
    assert_eq!(salvaged[0].rung, SalvageRung::DirectFprm);
}

#[test]
fn exhausted_ladder_fails_just_that_output() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::arm(&FailPlan::new().point_for("core.plan", Action::Panic, 1, 3));
    let err = run_contained(&spec, &SynthOptions::default()).expect_err("all three rungs tripped");
    match &err {
        Error::OutputFailed { output, cause } => {
            assert_eq!(output, "y0");
            assert!(cause.contains("core.plan"), "{cause}");
        }
        other => panic!("want OutputFailed, got {other}"),
    }
    assert_eq!(err.exit_code(), 9);
}

#[test]
fn no_salvage_makes_the_first_fault_fatal() {
    let _g = exclusive();
    let spec = circuit("majority");
    // a single tripped hit that the ladder would recover from...
    failpoint::arm(&FailPlan::new().point_for("core.plan", Action::Error, 1, 1));
    let strict = SynthOptions::builder().salvage(false).build();
    let err = run_contained(&spec, &strict).expect_err("salvage disabled");
    assert_eq!(err.exit_code(), 9, "{err}");
    // ...and indeed the same plan with salvage on succeeds
    failpoint::arm(&FailPlan::new().point_for("core.plan", Action::Error, 1, 1));
    run_contained(&spec, &SynthOptions::default()).expect("ladder recovers the same fault");
}

#[test]
fn bdd_alloc_fault_keeps_the_budget_taxonomy() {
    let _g = exclusive();
    let spec = circuit("majority");
    // a node-cap fault while building the spec BDDs is a hard Budget
    // error — exit 8, not remapped to a generic OutputFailed
    failpoint::arm(&FailPlan::new().point("bdd.alloc", Action::Error, 1));
    let err = run_contained(&spec, &SynthOptions::default()).expect_err("no BDD, no pipeline");
    assert!(matches!(err, Error::Budget(_)), "{err}");
    assert_eq!(err.exit_code(), 8);
}

#[test]
fn ofdd_faults_degrade_to_the_curtailed_fallback() {
    let _g = exclusive();
    let spec = circuit("majority");
    // every OFDD build failing exhausts the ladder with a typed Budget
    // error, which the budget layer then absorbs: the FPRM phase is
    // curtailed and the two-level fallback still produces a verified net
    failpoint::arm(&FailPlan::new().point("ofdd.from_bdd", Action::Error, 1));
    let outcome = run_contained(&spec, &SynthOptions::default()).expect("curtailed fallback");
    assert!(
        outcome.report.curtailed.iter().any(|p| p == "fprm"),
        "{:?}",
        outcome.report.curtailed
    );
}

#[test]
fn emission_self_check_rolls_back_to_the_fprm_form() {
    let _g = exclusive();
    let spec = circuit("majority");
    let opts = SynthOptions::builder().method(FactorMethod::Cube).build();
    failpoint::arm(&FailPlan::new().point("core.emit_check", Action::Error, 1));
    let outcome = run_contained(&spec, &opts).expect("rollback keeps the run alive");
    let salvaged = &outcome.report.salvaged;
    assert_eq!(salvaged.len(), 1, "{salvaged:?}");
    assert_eq!(salvaged[0].rung, SalvageRung::SkipFactor);
    assert!(
        salvaged[0].cause.contains("diverged"),
        "{}",
        salvaged[0].cause
    );
    assert!(outcome.report.trace.counter("rewrite.rolled_back") >= 1);
}

#[test]
fn factoring_panic_during_emission_is_contained() {
    let _g = exclusive();
    let spec = circuit("majority");
    let cube = SynthOptions::builder().method(FactorMethod::Cube).build();
    failpoint::arm(&FailPlan::new().point("core.factor", Action::Panic, 1));
    let outcome = run_contained(&spec, &cube).expect("emission falls back to the OFDD form");
    // the shared-divisor emission un-shares, then the output's own
    // factored emission rolls back to the direct OFDD translation
    let salvaged = &outcome.report.salvaged;
    assert!(
        salvaged
            .iter()
            .any(|r| r.output == "y0" && r.rung == SalvageRung::SkipFactor),
        "{salvaged:?}"
    );
    // the rollback un-shared the divisors, so none are counted
    assert_eq!(outcome.report.trace.counter("share.divisors"), 0);
    // with salvage off the same panic fails the run with the output's name
    failpoint::arm(&FailPlan::new().point("core.factor", Action::Panic, 1));
    let no_salvage = SynthOptions::builder()
        .method(FactorMethod::Cube)
        .salvage(false)
        .build();
    let err = run_contained(&spec, &no_salvage).expect_err("first fault fatal");
    assert_eq!(err.exit_code(), 9, "{err}");
}

/// A panic contained mid-span (here inside the `factor_cubes` span of the
/// shared-divisor emission) must not leave that span open: the phases
/// after it stay direct children of the pipeline root, where the phase
/// profile finds them.
#[test]
fn contained_panic_keeps_later_phases_in_the_profile() {
    let _g = exclusive();
    let spec = circuit("majority");
    let cube = SynthOptions::builder().method(FactorMethod::Cube).build();
    failpoint::arm(&FailPlan::new().point("core.factor", Action::Panic, 1));
    let outcome = run_contained(&spec, &cube).expect("emission falls back to the OFDD form");
    let phases: Vec<&str> = outcome
        .report
        .profile
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    for want in [phase::VERIFY, phase::SHARING, phase::REDUNDANCY] {
        assert!(phases.contains(&want), "{want} missing from {phases:?}");
    }
}

#[test]
fn share_extraction_fault_salvages_by_skipping_sharing() {
    let _g = exclusive();
    let spec = circuit("majority");
    let cube = SynthOptions::builder().method(FactorMethod::Cube).build();
    // a fault inside the cross-output divisor extraction — typed error or
    // panic — skips sharing and keeps the per-output covers
    for action in [Action::Error, Action::Panic] {
        failpoint::arm(&FailPlan::new().point("core.share", action, 1));
        let outcome = run_contained(&spec, &cube).expect("sharing is optional structure");
        let salvaged = &outcome.report.salvaged;
        assert_eq!(salvaged.len(), 1, "{action:?}: {salvaged:?}");
        assert_eq!(salvaged[0].output, "shared-divisors");
        assert_eq!(salvaged[0].rung, SalvageRung::SkipSharing);
        assert_eq!(
            outcome.report.trace.counter("share.divisors"),
            0,
            "{action:?}"
        );
        assert!(outcome.report.trace.counter("salvage.attempts") >= 1);
    }
    // with salvage off the same fault is fatal, with the typed error's
    // exit code
    failpoint::arm(&FailPlan::new().point("core.share", Action::Error, 1));
    let strict = SynthOptions::builder()
        .method(FactorMethod::Cube)
        .salvage(false)
        .build();
    let err = run_contained(&spec, &strict).expect_err("salvage disabled");
    assert_eq!(err.exit_code(), 9, "{err}");
}

/// A checker fault *inside* redundancy removal — the guard every rewrite
/// must pass — propagates as the typed verification error, not as a panic
/// caught by the pipeline's last-resort containment (`OutputFailed` for
/// "pipeline", exit 9).
#[test]
fn redundancy_guard_fault_is_a_typed_verify_error() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::disarm();
    let clean = try_synthesize(&spec, &SynthOptions::default()).expect("clean run");
    assert!(
        guarded_rewrites(&clean.report) > 0,
        "the pass must guard at least one rewrite"
    );
    // `verify.checks` counts the traced checks, all made before the
    // redundancy phase; the next hit is the pass's first rewrite guard
    let before = clean.report.trace.counter("verify.checks");
    failpoint::arm(&FailPlan::new().point("core.verify", Action::Error, before + 1));
    let err =
        run_contained(&spec, &SynthOptions::default()).expect_err("the guard's check errored");
    assert!(matches!(err, Error::Verify(_)), "{err}");
    assert_eq!(err.exit_code(), 7);
}

/// A CLI run proves its result once. The FPRM job's checks are every
/// `core.verify` hit of `bench rd53` (a fault on the last of them fails
/// the run): armed to fail each hit after them, the run still exits 0 and
/// its `--bench-json` record says `verified`, read from the job's proof.
/// The SOP baseline has no proof of its own; the CLI's is hit 1, and the
/// record reuses it, so a fault armed from hit 2 on is never reached.
#[test]
fn cli_bench_json_proves_each_result_once() {
    let _g = exclusive();
    let argv = |line: String| {
        line.split_whitespace()
            .map(String::from)
            .collect::<Vec<_>>()
    };
    failpoint::disarm();
    let cmd = xsynth::cli::parse_args(&argv("bench rd53".into())).unwrap();
    let spec = xsynth::cli::load(&cmd).unwrap();
    let (_, report) = xsynth::cli::run_flow(&cmd, &spec).expect("clean run");
    let report = report.expect("the FPRM flow has a report");
    let job_checks = report.trace.counter("verify.checks") + guarded_rewrites(&report);
    failpoint::arm(&FailPlan::new().point_for("core.verify", Action::Error, job_checks, 1));
    let err = xsynth::cli::run(&argv("bench rd53".into())).expect_err("the job's last check");
    assert_eq!(err.exit_code(), 7, "{err}");
    let dir = std::env::temp_dir().join("xsynth_chaos_proof");
    std::fs::create_dir_all(&dir).unwrap();
    for (method, first_fault) in [("fprm", job_checks + 1), ("sop", 2)] {
        let path = dir.join(format!("rd53-{method}.json"));
        let _ = std::fs::remove_file(&path);
        failpoint::arm(&FailPlan::new().point("core.verify", Action::Error, first_fault));
        let line = format!(
            "bench rd53 --method {method} --bench-json {}",
            path.display()
        );
        let result = xsynth::cli::run(&argv(line));
        failpoint::disarm();
        if let Err(e) = result {
            panic!("{method}: exit {}: {e}", e.exit_code());
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let suite = xsynth::bench::BenchSuite::from_json(&text).unwrap();
        let record = suite.find("rd53", method).expect("the run's record");
        assert_eq!(record.verified, VerifyStatus::Verified, "{method}");
    }
}

/// A run that fails inside a phase — planning, the check of the factored
/// network, a redundancy-removal guard — returns with that phase's spans
/// open. Its trace still reaches the external sink with one `synthesize`
/// root, the failed phase last under it, and every span closed.
#[test]
fn failed_runs_leave_balanced_traces() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::disarm();
    let clean = try_synthesize(&spec, &SynthOptions::default()).expect("clean run");
    let checks = clean.report.trace.counter("verify.checks");
    for (site, nth, failed_phase, code) in [
        ("core.plan", 1, phase::FPRM, 9),
        ("core.verify", 1, phase::VERIFY, 7),
        ("core.verify", checks + 1, phase::REDUNDANCY, 7),
    ] {
        let sink = TraceSink::new();
        let strict = SynthOptions::builder()
            .salvage(false)
            .trace(sink.clone())
            .build();
        failpoint::arm(&FailPlan::new().point(site, Action::Error, nth));
        let err = run_contained(&spec, &strict).expect_err(site);
        assert_eq!(err.exit_code(), code, "{site}: {err}");
        let trace = sink.take();
        let forest = trace.forest();
        assert_eq!(forest.len(), 1, "{site}: {forest:?}");
        assert_eq!(forest[0].name, phase::SYNTHESIZE);
        let last = forest[0].children.last().map(|c| c.name.as_str());
        assert_eq!(last, Some(failed_phase), "{site}");
        let chrome = trace.to_chrome_json();
        assert_eq!(
            chrome.matches(r#""ph":"B""#).count(),
            chrome.matches(r#""ph":"E""#).count(),
            "{site}: {chrome}"
        );
    }
}

#[test]
fn delay_action_only_slows_the_pipeline() {
    let _g = exclusive();
    let spec = circuit("majority");
    failpoint::arm(&FailPlan::parse("sim.block=delay(1)@1x2").expect("valid plan"));
    let outcome = run_contained(&spec, &SynthOptions::default()).expect("delays are not faults");
    assert!(outcome.report.salvaged.is_empty());
}

/// Every failpoint site a clean warmup run of the pipeline executes. The
/// warmup is memoized: `registered()` is process-global and only grows.
fn swept_sites() -> &'static [String] {
    static SITES: OnceLock<Vec<String>> = OnceLock::new();
    SITES.get_or_init(|| {
        failpoint::disarm();
        for name in ["majority", "f2"] {
            let spec = circuit(name);
            // the cube method reaches the emission self-check site
            let cube = SynthOptions::builder().method(FactorMethod::Cube).build();
            try_synthesize(&spec, &cube).expect("clean warmup");
            try_synthesize(&spec, &SynthOptions::default()).expect("clean warmup");
        }
        let sites = failpoint::registered();
        assert!(
            sites.len() >= 8,
            "warmup should reach most of the pipeline's sites: {sites:?}"
        );
        for expect in [
            "bdd.alloc",
            "core.plan",
            "core.share",
            "core.verify",
            "sim.block",
        ] {
            assert!(sites.iter().any(|s| s == expect), "{expect} not registered");
        }
        sites
    })
}

/// The tentpole acceptance sweep: each registered site armed alone, as a
/// persistent error and as a persistent panic, must end in a verified
/// network or a typed error — never an escaped panic.
#[test]
fn every_registered_failpoint_is_contained() {
    let _g = exclusive();
    let sites = swept_sites().to_vec();
    let spec = circuit("majority");
    for site in &sites {
        for action in [Action::Error, Action::Panic] {
            failpoint::arm(&FailPlan::new().point(site, action, 1));
            let result = run_contained(&spec, &SynthOptions::default());
            if let Err(e) = result {
                let code = e.exit_code();
                assert!(
                    (2..=9).contains(&code),
                    "site {site} ({action:?}) escaped the exit-code taxonomy: {e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single tripped failpoint — any site, error or panic, any early
    /// trip window — leaves quick circuits verified, salvaged, or failed
    /// with a typed error.
    #[test]
    fn any_single_tripped_failpoint_is_contained(
        site_idx in 0usize..64,
        panic_action in any::<bool>(),
        nth in 1u64..4,
        alt_circuit in any::<bool>(),
    ) {
        let _g = exclusive();
        let sites = swept_sites();
        let site = &sites[site_idx % sites.len()];
        let action = if panic_action { Action::Panic } else { Action::Error };
        let spec = circuit(if alt_circuit { "f2" } else { "majority" });
        failpoint::arm(&FailPlan::new().point(site, action, nth));
        let result = run_contained(&spec, &SynthOptions::default());
        if let Err(e) = result {
            prop_assert!((2..=9).contains(&e.exit_code()), "{site}: {e}");
        }
    }
}

/// The daemon's admission failpoint: an armed `serve.accept` fault must
/// surface as a typed error *reply* on the wire — for both the error and
/// the panic action — and must never drop the connection. The very next
/// request on the same connection succeeds.
#[test]
fn serve_accept_faults_answer_typed_errors_not_dropped_connections() {
    let _g = exclusive();
    let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..xsynth_serve::ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = xsynth_serve::Client::connect_tcp(&addr).expect("connect");
    let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

    for (plan, expect_kind) in [
        ("serve.accept=error@1x1", "output_failed"),
        ("serve.accept=panic@1x1", "output_failed"),
    ] {
        failpoint::arm(&FailPlan::parse(plan).expect("valid plan"));
        let reply = client
            .synth_blif(blif, Some("faulted"))
            .expect("a reply arrives even when admission faults");
        failpoint::disarm();
        let status = reply.get("status").and_then(|v| v.as_str());
        assert_eq!(status, Some("error"), "{plan}: {reply:?}");
        let error = reply.get("error").expect("error object");
        assert_eq!(
            error.get("kind").and_then(|v| v.as_str()),
            Some(expect_kind),
            "{plan}"
        );
        let code = error.get("exit_code").and_then(|v| v.as_u64()).unwrap();
        assert!((2..=10).contains(&code), "{plan}: exit code {code}");
        // the connection survived the fault
        let ok = client.synth_blif(blif, Some("clean")).expect("clean job");
        assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));
    }

    server.shutdown();
    server.wait();
}

/// The daemon's observability failpoint: a fault *inside* the metrics
/// exposition rendering — typed error or panic — must answer a typed
/// error reply, never wedge the scheduler or drop the connection. The
/// same connection's next metrics scrape and next synthesis job succeed.
#[test]
fn serve_metrics_faults_answer_typed_errors_not_dropped_connections() {
    let _g = exclusive();
    let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..xsynth_serve::ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = xsynth_serve::Client::connect_tcp(&addr).expect("connect");
    let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

    for plan in ["serve.metrics=error@1x1", "serve.metrics=panic@1x1"] {
        failpoint::arm(&FailPlan::parse(plan).expect("valid plan"));
        let reply = client
            .metrics()
            .expect("a reply arrives even when the exposition faults");
        failpoint::disarm();
        let status = reply.get("status").and_then(|v| v.as_str());
        assert_eq!(status, Some("error"), "{plan}: {reply:?}");
        let error = reply.get("error").expect("error object");
        assert_eq!(
            error.get("kind").and_then(|v| v.as_str()),
            Some("output_failed"),
            "{plan}"
        );
        let code = error.get("exit_code").and_then(|v| v.as_u64()).unwrap();
        assert!((2..=10).contains(&code), "{plan}: exit code {code}");
        // disarmed, the very same connection scrapes cleanly...
        let ok = client.metrics().expect("clean scrape");
        assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));
        assert!(ok
            .get("text")
            .and_then(|v| v.as_str())
            .is_some_and(|t| t.contains("xsynth_jobs_total")));
        // ...and keeps doing real work
        let job = client.synth_blif(blif, Some("after-fault")).expect("job");
        assert_eq!(job.get("status").and_then(|v| v.as_str()), Some("ok"));
    }

    server.shutdown();
    server.wait();
}

/// The admission-control failpoint: `serve.admit=error` forces the
/// scheduler to refuse every submission, which must surface as a typed
/// `overloaded` reply — carrying the `retry_after_ms` hint — on a still-
/// open connection. Disarmed, the same connection does real work again:
/// the daemon always answers, never hangs, never dies.
#[test]
fn serve_admit_error_sheds_with_typed_overloaded_replies() {
    let _g = exclusive();
    let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..xsynth_serve::ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    let mut client = xsynth_serve::Client::connect_tcp(&addr).expect("connect");
    let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

    failpoint::arm(&FailPlan::parse("serve.admit=error@1x2").expect("valid plan"));
    for attempt in 0..2 {
        let reply = client
            .synth_blif(blif, Some("refused"))
            .expect("sheds are replies, not drops");
        assert_eq!(
            reply.get("status").and_then(|v| v.as_str()),
            Some("error"),
            "attempt {attempt}: {reply:?}"
        );
        assert!(xsynth_serve::is_overloaded(&reply), "{reply:?}");
        let error = reply.get("error").expect("error object");
        assert_eq!(error.get("exit_code").and_then(|v| v.as_u64()), Some(11));
        let hint = xsynth_serve::retry_after_hint(&reply).expect("retry hint");
        assert!(hint >= 1, "{reply:?}");
    }
    failpoint::disarm();

    // the fault window over, the very same connection synthesizes
    let ok = client.synth_blif(blif, Some("clean")).expect("clean job");
    assert_eq!(ok.get("status").and_then(|v| v.as_str()), Some("ok"));

    server.shutdown();
    server.wait();
}

/// `serve.admit=panic` unwinds the reader thread mid-submission with the
/// scheduler lock held. The connection dies (its reader is gone), but the
/// daemon must survive the poisoned lock and keep serving fresh
/// connections — the same contract as the `serve.submit` poison test,
/// through the admission path.
#[test]
fn serve_admit_panic_kills_only_that_connection() {
    let _g = exclusive();
    let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..xsynth_serve::ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound");
    let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

    failpoint::arm(&FailPlan::parse("serve.admit=panic@1x1").expect("valid plan"));
    {
        use std::io::{Read, Write};
        let mut victim = std::net::TcpStream::connect(addr).expect("connect victim");
        victim
            .write_all(b"{\"protocol_version\":1,\"op\":\"ping\"}\n")
            .expect("send the panicking request");
        let mut sink = Vec::new();
        let _ = victim.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no reply can precede the injected panic");
    }
    failpoint::disarm();

    let mut client =
        xsynth_serve::Client::connect_tcp(&addr.to_string()).expect("reconnect after panic");
    let ok = client.synth_blif(blif, Some("survivor")).expect("job");
    assert_eq!(
        ok.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{ok:?}"
    );

    server.shutdown();
    server.wait();
}

/// The drain-watchdog failpoint: a fault in the drain path — error or
/// panic — must not wedge the daemon in `draining` forever. The shed-and-
/// stop epilogue still runs: every queued job is answered (ok or a typed
/// `overloaded` shed), `Server::wait` returns, the process can exit.
#[test]
fn serve_drain_faults_still_stop_the_daemon_with_typed_replies() {
    let _g = exclusive();
    for plan in ["serve.drain=error@1x1", "serve.drain=panic@1x1"] {
        let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
            tcp: Some("127.0.0.1:0".into()),
            workers: 1,
            ..xsynth_serve::ServeOptions::default()
        })
        .expect("bind server");
        let addr = server.tcp_addr().expect("tcp bound").to_string();
        let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

        // a backlog the faulted drain has to dispose of
        use std::io::{BufRead, BufReader, Write};
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        let mut burst = String::new();
        for i in 0..8 {
            let id = format!("d{i}");
            burst.push_str(&xsynth_serve::proto::synth_request(
                blif,
                xsynth_serve::JobFormat::Blif,
                Some(&id),
                None,
                None,
                false,
            ));
            burst.push('\n');
        }
        stream.write_all(burst.as_bytes()).expect("burst");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut first = String::new();
        reader.read_line(&mut first).expect("first reply");

        failpoint::arm(&FailPlan::parse(plan).expect("valid plan"));
        server.shutdown();
        server.wait(); // must return: a wedged drain would hang here
        failpoint::disarm();

        let mut answered = 1usize;
        for line in reader.lines() {
            let line = match line {
                Ok(l) if !l.trim().is_empty() => l,
                Ok(_) => continue,
                Err(_) => break,
            };
            let reply = xsynth_trace::json::parse(&line).expect("reply JSON");
            let status = reply.get("status").and_then(|v| v.as_str());
            let overloaded = xsynth_serve::is_overloaded(&reply);
            assert!(status == Some("ok") || overloaded, "{plan}: {reply:?}");
            answered += 1;
        }
        assert_eq!(answered, 8, "{plan}: every queued job must be answered");
    }
}

/// Daemon poison-safety: a panic that unwinds through a reader thread
/// *inside* `Scheduler::submit` — past any worker `catch_unwind` boundary,
/// with the scheduler's state mutex held — poisons that mutex. The old
/// `.expect("scheduler lock")` calls then killed every worker and reader
/// that touched the scheduler next, taking the whole daemon down. With the
/// poison-tolerant lock the daemon must keep serving fresh connections.
#[test]
fn scheduler_poison_from_a_panicking_submit_does_not_kill_the_daemon() {
    let _g = exclusive();
    let server = xsynth_serve::Server::bind(xsynth_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".into()),
        workers: 2,
        ..xsynth_serve::ServeOptions::default()
    })
    .expect("bind server");
    let addr = server.tcp_addr().expect("tcp bound");
    let blif = ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n";

    // victim connection: submitting its first request trips the armed
    // panic inside the scheduler, with the state lock held
    failpoint::arm(&FailPlan::parse("serve.submit=panic@1x1").expect("valid plan"));
    {
        use std::io::{Read, Write};
        let mut victim = std::net::TcpStream::connect(addr).expect("connect victim");
        victim
            .write_all(b"{\"protocol_version\":1,\"op\":\"ping\"}\n")
            .expect("send the poisoning request");
        // the panicking reader thread drops both stream halves as it
        // unwinds; EOF here proves the fault fired before we move on
        let mut sink = Vec::new();
        let _ = victim.read_to_end(&mut sink);
        assert!(sink.is_empty(), "no reply can precede the injected panic");
    }
    failpoint::disarm();

    // the daemon keeps serving on the now-poisoned scheduler mutex
    let mut client =
        xsynth_serve::Client::connect_tcp(&addr.to_string()).expect("reconnect after poison");
    let pong = client.ping().expect("ping after poison");
    assert_eq!(pong.get("status").and_then(|v| v.as_str()), Some("ok"));
    let ok = client
        .synth_blif(blif, Some("after-poison"))
        .expect("synthesis after poison");
    assert_eq!(
        ok.get("status").and_then(|v| v.as_str()),
        Some("ok"),
        "{ok:?}"
    );

    server.shutdown();
    server.wait();
}
