//! Integration tests for the structured tracing layer: span nesting of the
//! per-output plans, repeatability of the merged trace, Chrome
//! trace_event export validity and order-independent counter merging.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xsynth::circuits;
use xsynth::core::{phase, try_synthesize, Budget, Error, SynthOptions};
use xsynth::trace::{bucket_of, json, Histogram, SpanNode, TraceSink};

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
    // each output's plan buffer grafts under the fprm phase
    let spec = circuits::build("z4ml").expect("registered");
    let num_outputs = spec.outputs().len();
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
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
    // each plan span ran inside the fprm span it grafts under
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
    // durations: spans, counters, histogram buckets and every gauge, the
    // apply-cache and node-count gauges of the job's BDD manager included
    let mut saw_histograms = false;
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
        assert_eq!(ft.hist_totals(), at.hist_totals(), "{name}: histograms");
        assert_eq!(ft.gauge_finals(), at.gauge_finals(), "{name}: gauges");
        for gauge in ["bdd.apply_hits", "bdd.apply_misses", "bdd.nodes"] {
            assert!(ft.gauge_finals().contains_key(gauge), "{name}: {gauge}");
        }
        saw_histograms |= ft.hist_totals().contains_key("fprm.cubes");
    }
    assert!(
        saw_histograms,
        "the FPRM flow observes value-based histograms"
    );
}

#[test]
fn chrome_export_of_a_real_run_is_valid_json() {
    let spec = circuits::build("rd53").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let text = outcome.report.trace.to_chrome_json();
    json::validate(&text).expect("chrome trace must be valid JSON");
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
fn chrome_export_round_trips_histogram_samples() {
    let spec = circuits::build("rd53").expect("registered");
    let outcome = try_synthesize(&spec, &SynthOptions::default()).unwrap();
    let trace = &outcome.report.trace;
    let text = trace.to_chrome_json();
    let doc = json::parse(&text).expect("chrome trace parses");
    // Re-derive per-histogram bucket totals from the exported instant
    // events; they must rebuild exactly the trace's own merged totals.
    let mut rebuilt: BTreeMap<String, Histogram> = BTreeMap::new();
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    for ev in events {
        let Some(name) = ev.get("name").and_then(|v| v.as_str()) else {
            continue;
        };
        let Some(hist_name) = name.strip_prefix("hist:") else {
            continue;
        };
        let args = ev.get("args").expect("hist event args");
        let value = args.get("value").and_then(|v| v.as_f64()).expect("value");
        let bucket = args.get("bucket").and_then(|v| v.as_u64()).expect("bucket");
        assert_eq!(
            bucket as usize,
            bucket_of(value),
            "{hist_name}: exported bucket index matches the bucketing fn"
        );
        rebuilt
            .entry(hist_name.to_string())
            .or_default()
            .observe(value);
    }
    let want = trace.hist_totals();
    assert!(
        want.contains_key("fprm.cubes"),
        "synthesis observes per-output cube counts"
    );
    assert_eq!(
        rebuilt.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "exported histogram set"
    );
    for (name, hist) in &want {
        assert_eq!(rebuilt[name].buckets(), hist.buckets(), "{name}: buckets");
        assert_eq!(rebuilt[name].count(), hist.count(), "{name}: counts");
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
    let names = trace.span_names();
    assert!(names.contains(phase::SYNTHESIZE));
    // per-run labels are prefixed with the circuit name
    assert!(trace.tracks.iter().any(|t| t.label.starts_with("rd53/")));
    assert!(trace.tracks.iter().any(|t| t.label.starts_with("z4ml/")));
    assert_eq!(count_named(&trace.forest(), phase::SYNTHESIZE), 2);
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

    /// Histogram merging is a per-bucket sum: however the samples are
    /// partitioned across per-thread buffers and whatever order those
    /// buffers retire in, the merged bucket totals — and therefore every
    /// derived quantile — equal a single sequential observer's.
    #[test]
    fn histogram_merge_is_order_and_partition_independent(
        samples in prop::collection::vec((0u64..4, 0u32..80), 1..48),
        order in prop::collection::vec(any::<u16>(), 1..48),
    ) {
        let vals: Vec<(u64, f64)> = samples
            .iter()
            .map(|&(k, e)| (k, 2f64.powi(e as i32 - 40) * 1.25))
            .collect();
        // reference: one histogram observing everything in sequence
        let mut want = Histogram::new();
        for &(_, v) in &vals {
            want.observe(v);
        }

        // sharded: the same samples spread across buffers keyed by `k`,
        // retired in a permuted order as parallel workers would
        let sink = TraceSink::new();
        let mut idx: Vec<usize> = (0..vals.len()).collect();
        for (i, o) in order.iter().enumerate() {
            let j = (*o as usize) % vals.len();
            idx.swap(i % vals.len(), j);
        }
        let mut open: Vec<_> = idx
            .iter()
            .map(|&i| {
                let (k, v) = vals[i];
                let mut b = sink.buffer(k, format!("t{k}"));
                b.begin("work");
                b.observe("latency", v);
                b.end();
                b
            })
            .collect();
        while let Some(b) = open.pop() {
            drop(b);
        }
        let totals = sink.take().hist_totals();
        let got = totals.get("latency").expect("merged histogram present");
        prop_assert_eq!(got.buckets(), want.buckets());
        prop_assert_eq!(got.count(), want.count());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(got.quantile(q), want.quantile(q));
        }
    }
}
