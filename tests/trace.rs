//! Integration tests for the structured tracing layer: span nesting of the
//! per-output plans, repeatability of a job's trace, Chrome trace_event
//! export validity and order-independent counter merging.

use proptest::prelude::*;
use xsynth::circuits;
use xsynth::core::{phase, try_synthesize, Budget, Error, SynthOptions};
use xsynth::trace::{json, SpanNode, TraceSink};

/// Finds the first span named `name` anywhere in the forest.
fn find<'a>(nodes: &'a [SpanNode], name: &str) -> Option<&'a SpanNode> {
    for n in nodes {
        if n.name == name {
            return Some(n);
        }
        if let Some(hit) = find(&n.children, name) {
            return Some(hit);
        }
    }
    None
}

fn count_named(nodes: &[SpanNode], name: &str) -> usize {
    nodes
        .iter()
        .map(|n| usize::from(n.name == name) + count_named(&n.children, name))
        .sum()
}

/// Every span named `name` anywhere in the forest, in preorder.
fn all_named<'a>(nodes: &'a [SpanNode], name: &str, out: &mut Vec<&'a SpanNode>) {
    for n in nodes {
        if n.name == name {
            out.push(n);
        }
        all_named(&n.children, name, out);
    }
}

#[test]
fn paper_phases_nest_under_the_pipeline_root() {
    let spec = circuits::build("z4ml").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let forest = outcome.report.trace.forest();
    let root = find(&forest, phase::SYNTHESIZE).expect("synthesize root span");
    // all four paper phases are direct children of the pipeline root
    for name in [
        phase::FPRM,
        phase::FACTORING,
        phase::SHARING,
        phase::REDUNDANCY,
    ] {
        assert!(
            root.children.iter().any(|c| c.name == name),
            "{name} must be a direct child of {}",
            phase::SYNTHESIZE
        );
    }
}

#[test]
fn parallel_fan_out_grafts_one_plan_per_output() {
    // a job is one event stream: each output's plan span is recorded
    // inside the fprm phase, on the job's only track
    let spec = circuits::build("z4ml").expect("registered");
    let num_outputs = spec.outputs().len();
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    assert_eq!(outcome.report.trace.tracks.len(), 1);
    let forest = outcome.report.trace.forest();
    let fprm = find(&forest, phase::FPRM).expect("fprm span");
    assert_eq!(
        count_named(std::slice::from_ref(fprm), "plan"),
        num_outputs,
        "one plan span per output under fprm"
    );
    assert!(
        find(std::slice::from_ref(fprm), "polarity_search").is_some(),
        "polarity_search nests inside a plan"
    );
    // each plan span ran inside the fprm span it nests under
    for plan in fprm.children.iter().filter(|c| c.name == "plan") {
        assert!(
            plan.start >= fprm.start && plan.start + plan.duration <= fprm.start + fprm.duration,
            "plan [{:?} +{:?}] lies outside its parent [{:?} +{:?}]",
            plan.start,
            plan.duration,
            fprm.start,
            fprm.duration
        );
    }
}

#[test]
fn parallel_and_sequential_traces_agree_on_everything_but_time() {
    // two runs of the same job agree on everything a trace records except
    // durations: spans, counters and every gauge, the apply-cache and
    // node-count gauges of the job's BDD manager included
    for name in ["z4ml", "rd53", "5xp1"] {
        let spec = circuits::build(name).expect("registered");
        let first = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let again = try_synthesize(&spec, &SynthOptions::default()).unwrap();
        let (ft, at) = (&first.report.trace, &again.report.trace);
        assert_eq!(ft.span_names(), at.span_names(), "{name}: phase sets");
        assert_eq!(
            ft.counter_totals(),
            at.counter_totals(),
            "{name}: counter totals"
        );
        assert_eq!(ft.gauge_finals(), at.gauge_finals(), "{name}: gauges");
        for gauge in ["bdd.apply_hits", "bdd.apply_misses", "bdd.nodes"] {
            assert!(ft.gauge_finals().contains_key(gauge), "{name}: {gauge}");
        }
    }
}

#[test]
fn chrome_export_of_a_real_run_is_valid_json() {
    let spec = circuits::build("rd53").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let text = outcome.report.trace.to_chrome_json();
    json::validate(&text).expect("chrome trace must be valid JSON");
    // a job is one thread, its per-output plans included
    assert_eq!(text.matches(r#""ph":"M""#).count(), 1, "{text}");
    assert!(text.contains(r#""name":"plan""#));
    for name in [
        phase::SYNTHESIZE,
        phase::FPRM,
        phase::FACTORING,
        phase::SHARING,
        phase::REDUNDANCY,
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "chrome trace must carry the {name} phase"
        );
    }
}

#[test]
fn external_sink_collects_across_circuits() {
    let sink = TraceSink::new();
    for name in ["rd53", "z4ml"] {
        let spec = circuits::build(name).expect("registered");
        let opts = SynthOptions::builder().trace(sink.clone()).build();
        let _ = try_synthesize(&spec, &opts).unwrap();
    }
    let trace = sink.take();
    // one track per job, its label prefixed with the circuit name
    let labels: Vec<_> = trace.tracks.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(labels, ["rd53/pipeline", "z4ml/pipeline"]);
    // each job's plans nest under its own fprm phase: rd53 has 3
    // outputs, z4ml 4
    let forest = trace.forest();
    let plans: Vec<usize> = forest
        .iter()
        .map(|root| {
            assert_eq!(root.name, phase::SYNTHESIZE);
            let fprm = find(std::slice::from_ref(root), phase::FPRM).expect("fprm span");
            count_named(std::slice::from_ref(fprm), "plan")
        })
        .collect();
    assert_eq!(plans, [3, 4]);
}

/// The largest `bdd.peak_nodes` reading in `node`'s subtree.
fn peak_nodes(node: &SpanNode) -> f64 {
    let own = node.gauges.get("bdd.peak_nodes").copied().unwrap_or(0.0);
    node.children.iter().map(peak_nodes).fold(own, f64::max)
}

/// The equivalence checker takes over the job's BDD manager: every `check`
/// span reads that manager, which still holds everything the `fprm` phase
/// built, and the redundancy guard has no manager of its own to gauge.
#[test]
fn checks_run_in_the_jobs_bdd_manager() {
    let spec = circuits::build("addm4").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let trace = &outcome.report.trace;
    let forest = trace.forest();
    let fprm = peak_nodes(find(&forest, phase::FPRM).expect("fprm span"));
    let mut checks = Vec::new();
    all_named(&forest, "check", &mut checks);
    assert!(!checks.is_empty());
    for check in checks {
        let nodes = check.gauges["bdd.peak_nodes"];
        assert!(nodes >= fprm, "check reads {nodes} nodes, fprm {fprm}");
    }
    assert!(!trace.gauge_maxima().contains_key("redundancy.bdd_nodes"));
}

/// A run that fails returns from inside its open phase spans; its trace
/// still reaches the external sink with every span closed.
#[test]
fn failed_run_leaves_a_balanced_trace() {
    let sink = TraceSink::new();
    let spec = circuits::build("rd53").expect("registered");
    // too small for the spec's BDDs: the run fails inside the fprm phase
    let opts = SynthOptions::builder()
        .budget(Budget::default().bdd_node_cap(Some(4)))
        .trace(sink.clone())
        .build();
    let err = try_synthesize(&spec, &opts).expect_err("the cap trips at BDD build");
    assert!(matches!(err, Error::Budget(_)), "{err}");
    assert_eq!(err.exit_code(), 8);
    let trace = sink.take();
    let forest = trace.forest();
    assert_eq!(forest.len(), 1, "{forest:?}");
    assert_eq!(forest[0].name, phase::SYNTHESIZE);
    assert!(forest[0].children.iter().any(|c| c.name == phase::FPRM));
    let chrome = trace.to_chrome_json();
    assert_eq!(
        chrome.matches(r#""ph":"B""#).count(),
        chrome.matches(r#""ph":"E""#).count(),
        "{chrome}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counter merging is order-independent: no matter which order the
    /// per-thread buffers are created or retired in, the merged totals and
    /// the track layout are the same.
    #[test]
    fn counter_merge_is_order_independent(
        deltas in prop::collection::vec((0u64..8, 1u64..100), 1..24),
        order in prop::collection::vec(any::<u16>(), 1..24),
    ) {
        // reference: submit buffers in key order
        let reference = TraceSink::new();
        for &(key, delta) in &deltas {
            let mut b = reference.buffer(key, format!("t{key}"));
            b.begin("work");
            b.count("events", delta);
            b.end();
        }
        let want = reference.take();

        // shuffled: same buffers retired in a permuted order, as parallel
        // workers would
        let shuffled = TraceSink::new();
        let mut idx: Vec<usize> = (0..deltas.len()).collect();
        for (i, o) in order.iter().enumerate() {
            let j = (*o as usize) % deltas.len();
            idx.swap(i % deltas.len(), j);
        }
        let mut open: Vec<_> = idx
            .iter()
            .map(|&i| {
                let (key, delta) = deltas[i];
                let mut b = shuffled.buffer(key, format!("t{key}"));
                b.begin("work");
                b.count("events", delta);
                b.end();
                b
            })
            .collect();
        while let Some(b) = open.pop() {
            drop(b); // retire in reverse-permuted order
        }
        let got = shuffled.take();

        prop_assert_eq!(got.counter_totals(), want.counter_totals());
        let labels = |t: &xsynth::trace::Trace| -> Vec<(u64, String)> {
            t.tracks.iter().map(|tr| (tr.key, tr.label.clone())).collect()
        };
        prop_assert_eq!(labels(&got), labels(&want));
    }
}
