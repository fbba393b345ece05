//! End-to-end resource-governance tests: the widest registry benchmark
//! under a hard BDD node cap, and the CLI's documented exit-code contract
//! for parse, budget and verification failures.

use xsynth::cli::run;
use xsynth::core::{try_synthesize, Budget, Error, SynthOptions};
use xsynth::trace::TraceSink;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// i4 (192 inputs, the widest Table 2 circuit) under a 5000-node cap must
/// either finish with a downgraded-but-verified network or report a clean
/// budget error — never panic — and the peak BDD node gauge must respect
/// the cap either way.
#[test]
fn i4_under_node_cap_degrades_or_errors_cleanly() {
    let spec = xsynth::circuits::build("i4").expect("i4 is in the registry");
    assert_eq!(
        spec.inputs().len(),
        192,
        "i4 is the widest registry circuit"
    );
    const CAP: usize = 5000;
    let sink = TraceSink::new();
    let opts = SynthOptions::builder()
        .budget(Budget::default().bdd_node_cap(Some(CAP)))
        .trace(sink.clone())
        .build();
    match try_synthesize(&spec, &opts) {
        Ok(outcome) => {
            // the flow's own check may have proven the result exactly or,
            // when the cap cut that short, downgraded to sampling; either
            // way, cross-check it on independent random patterns
            let patterns = xsynth::sim::random_patterns(192, 256, 0xb4d9e7);
            let blocks = xsynth::sim::pack_patterns(192, &patterns);
            assert!(xsynth::sim::equivalent_on_blocks(
                &spec,
                &outcome.network,
                blocks
            ));
        }
        Err(Error::Budget(b)) => {
            assert!(b.to_string().contains("BDD node cap"), "{b}");
        }
        Err(other) => panic!("unexpected error family: {other}"),
    }
    let trace = sink.take();
    if let Some(peak) = trace.gauge_max("bdd.peak_nodes") {
        assert!(peak <= CAP as f64, "peak {peak} exceeds cap {CAP}");
    }
}

/// The same run through the CLI front end: `xsynth bench i4
/// --bdd-node-cap 5000` exits cleanly with the documented budget code (8)
/// or succeeds with a degradation note.
#[test]
fn cli_bench_i4_with_node_cap_exits_cleanly() {
    match run(&argv("bench i4 --bdd-node-cap 5000 --method cube")) {
        Ok(out) => assert!(out.contains(".model"), "{out}"),
        Err(err) => {
            assert!(matches!(err, Error::Budget(_)), "{err}");
            assert_eq!(err.exit_code(), 8);
        }
    }
}

/// The CLI exit-code contract, end to end: usage 2, parse 3, I/O 4,
/// input mismatch 6, verification 7, budget 8.
#[test]
fn cli_exit_codes_match_the_documented_contract() {
    let dir = std::env::temp_dir().join("xsynth_budget_test");
    std::fs::create_dir_all(&dir).unwrap();

    // 2: usage errors stay in the Msg family
    let err = run(&argv("bench nonesuch")).unwrap_err();
    assert_eq!(err.exit_code(), 2, "{err}");

    // 3: malformed BLIF
    let bad = dir.join("bad.blif");
    std::fs::write(
        &bad,
        ".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
    )
    .unwrap();
    let err = run(&argv(&format!("synth {}", bad.display()))).unwrap_err();
    assert_eq!(err.exit_code(), 3, "{err}");

    // 4: missing file
    let err = run(&argv("synth /no/such/file.blif")).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");

    // 6: verify with mismatched input sets
    let err = run(&argv("verify rd53 rd73")).unwrap_err();
    assert_eq!(err.exit_code(), 6, "{err}");

    // 7: verify two inequivalent networks over the same inputs
    let xor2 = dir.join("xor2.blif");
    let and2 = dir.join("and2.blif");
    std::fs::write(
        &xor2,
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n10 1\n01 1\n.end\n",
    )
    .unwrap();
    std::fs::write(
        &and2,
        ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n",
    )
    .unwrap();
    let err = run(&argv(&format!(
        "verify {} {}",
        xor2.display(),
        and2.display()
    )))
    .unwrap_err();
    assert_eq!(err.exit_code(), 7, "{err}");

    // 8: a cap no spec BDD fits in
    let err = run(&argv("bench rd53 --bdd-node-cap 4")).unwrap_err();
    assert_eq!(err.exit_code(), 8, "{err}");
}

/// A multi-output job plans every output in its one BDD manager, so the
/// node cap is one budget for the whole job: the traced peak never
/// exceeds it, whether the run completes or stops with a budget error.
#[test]
fn multi_output_peak_nodes_stay_under_the_cap() {
    let spec = xsynth::circuits::build("adr4").expect("adr4 is in the registry");
    assert!(
        spec.outputs().len() > 1,
        "one budget across outputs needs a multi-output circuit"
    );
    const CAP: usize = 3000;
    let sink = TraceSink::new();
    let opts = SynthOptions::builder()
        .budget(Budget::default().bdd_node_cap(Some(CAP)))
        .trace(sink.clone())
        .build();
    match try_synthesize(&spec, &opts) {
        Ok(outcome) => {
            for m in 0..256u64 {
                assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
            }
        }
        Err(Error::Budget(_)) | Err(Error::OutputFailed { .. }) => {}
        Err(other) => panic!("unexpected error family: {other}"),
    }
    let trace = sink.take();
    let peak = trace
        .gauge_max("bdd.peak_nodes")
        .expect("the pipeline gauges its substrate");
    assert!(peak <= CAP as f64, "peak {peak} exceeds the cap {CAP}");
}

/// Negation is allocation-free with complement edges: `not` is a
/// complement-bit flip on the handle, so `not(not(f))` must return `f`
/// itself and leave the substrate's node count untouched. The pre-change
/// package walked and re-hash-consed the whole graph per negation.
#[test]
fn double_negation_allocates_zero_nodes() -> Result<(), xsynth::bdd::NodeLimitExceeded> {
    use xsynth::bdd::BddManager;
    let mut m = BddManager::new(8);
    let mut f = m.constant(false);
    for v in 0..8 {
        let x = m.var(v)?;
        let fx = m.and(f, x)?;
        f = m.xor(f, fx)?;
        f = m.or(f, x)?;
    }
    let before = m.num_nodes();
    let nf = m.not(f);
    assert_ne!(nf, f);
    assert_eq!(m.num_nodes(), before, "not must not allocate");
    let nnf = m.not(nf);
    assert_eq!(nnf, f, "double negation is the identity handle");
    assert_eq!(
        m.num_nodes(),
        before,
        "bdd.nodes unchanged across not(not(f))"
    );
    Ok(())
}

/// The negate-heavy FPRM polarity descent over adr4 under a cap the old
/// package could not fit: pre-change, every polarity flip re-hash-consed
/// the negated graph and the run peaked at 796 nodes (the shipped
/// BENCH_baseline.json gauge), so a 700-node cap tripped. With
/// allocation-free negation and the compact spec build the same descent
/// must complete cleanly — no salvage, no curtailment — inside that cap,
/// and the job substrate must stay far below it (only live cones
/// survive the scratch build).
#[test]
fn negate_heavy_fprm_descent_completes_under_a_tight_cap() {
    let spec = xsynth::circuits::build("adr4").expect("adr4 is in the registry");
    const CAP: usize = 700;
    let sink = TraceSink::new();
    let opts = SynthOptions::builder()
        .budget(Budget::default().bdd_node_cap(Some(CAP)))
        .trace(sink.clone())
        .build();
    let outcome =
        try_synthesize(&spec, &opts).expect("complement edges fit the descent under the cap");
    for m in 0..256u64 {
        assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
    }
    assert!(
        outcome.report.salvaged.is_empty(),
        "{:?}",
        outcome.report.salvaged
    );
    assert!(
        outcome.report.curtailed.is_empty(),
        "{:?}",
        outcome.report.curtailed
    );
    let trace = sink.take();
    let peak = trace
        .gauge_max("bdd.peak_nodes")
        .expect("the pipeline gauges its substrate");
    assert!(peak <= CAP as f64, "peak {peak} exceeds cap {CAP}");
}

/// A starved-but-survivable budget still yields a verified network and
/// reports what was curtailed.
#[test]
fn starved_run_survives_with_curtailment_report() {
    let spec = xsynth::circuits::build("rd53").unwrap();
    let opts = SynthOptions::builder()
        .budget(
            Budget::default()
                .phase_timeout(Some(std::time::Duration::ZERO))
                .max_patterns(Some(8)),
        )
        .build();
    let outcome = try_synthesize(&spec, &opts).expect("time starvation degrades, never errors");
    for m in 0..32u64 {
        assert_eq!(outcome.network.eval_u64(m), spec.eval_u64(m));
    }
    assert!(
        !outcome.report.curtailed.is_empty(),
        "a zero phase budget must curtail at least one phase"
    );
}
