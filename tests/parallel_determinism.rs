//! Parallel synthesis must be a pure speedup: over the whole circuit
//! registry, the parallel and sequential paths of [`synthesize`] have to
//! produce identical networks gate-for-gate, identical per-output reports and
//! identical trace phase sets / counter totals (only durations may differ),
//! and the memoized polarity search has to pick the same winner as a
//! plain un-memoized greedy descent.

use proptest::prelude::*;
use xsynth_bdd::BddManager;
use xsynth_boolean::{Polarity, TruthTable};
use xsynth_core::{try_synthesize, SynthOptions};
use xsynth_ofdd::{OfddManager, PolaritySearch};

#[test]
fn parallel_equals_sequential_over_the_registry() {
    let mut saw_histograms = false;
    for bench in xsynth_circuits::registry() {
        let spec = xsynth_circuits::build(bench.name).expect("registered circuit builds");
        let par_opts = SynthOptions::builder().parallel(true).build();
        let seq_opts = SynthOptions::builder().parallel(false).build();
        let par = try_synthesize(&spec, &par_opts).unwrap();
        let seq = try_synthesize(&spec, &seq_opts).unwrap();
        assert_eq!(
            xsynth_blif::write_blif(&par.network),
            xsynth_blif::write_blif(&seq.network),
            "{}: parallel and sequential networks differ",
            bench.name
        );
        assert_eq!(
            par.report.outputs, seq.report.outputs,
            "{}: parallel and sequential reports differ",
            bench.name
        );
        // The traces must agree on everything but timing: the same set of
        // phases/spans is entered and every counter accumulates the same
        // total, regardless of which thread did the work.
        assert_eq!(
            par.report.trace.span_names(),
            seq.report.trace.span_names(),
            "{}: parallel and sequential trace phase sets differ",
            bench.name
        );
        assert_eq!(
            par.report.trace.counter_totals(),
            seq.report.trace.counter_totals(),
            "{}: parallel and sequential trace counter totals differ",
            bench.name
        );
        // Histograms observed inside the synthesis phases (FPRM cube
        // counts, plan support sizes) are value-based, never wall-clock,
        // so their per-bucket totals must be schedule-independent too.
        let par_hists = par.report.trace.hist_totals();
        assert_eq!(
            par_hists,
            seq.report.trace.hist_totals(),
            "{}: parallel and sequential histogram bucket totals differ",
            bench.name
        );
        saw_histograms |=
            par_hists.contains_key("fprm.cubes") || par_hists.contains_key("plan.support");
        // The shared substrate's final node count is the size of the
        // hash-consed node set, which is schedule-independent: the same
        // operations run either way, so the workers' interleaved
        // allocations must produce exactly the sequential run's DAG.
        assert_eq!(
            par.report.trace.gauge_finals().get("bdd.nodes"),
            seq.report.trace.gauge_finals().get("bdd.nodes"),
            "{}: parallel and sequential substrate node counts differ",
            bench.name
        );
    }
    assert!(
        saw_histograms,
        "at least one registry circuit must observe value-based histograms"
    );
}

/// The reference loop the memoized search must agree with: round-based
/// steepest descent with a fresh OFDD build per candidate and no caching.
fn greedy_unmemoized(t: &TruthTable) -> (Polarity, u64) {
    let n = t.num_vars();
    let bm = BddManager::new(n);
    let f = bm.from_table(t).expect("uncapped");
    let support: Vec<usize> = bm.support(f).iter().collect();
    let count_of = |pol: &Polarity| {
        let mut om = OfddManager::new(pol.clone());
        let root = om.from_bdd(&bm, f).expect("uncapped");
        om.num_cubes(root)
    };
    let mut pol = Polarity::all_positive(n);
    let mut best = count_of(&pol);
    loop {
        let mut winner: Option<(u64, Polarity)> = None;
        for &v in &support {
            let mut p2 = pol.clone();
            p2.flip(v);
            let c = count_of(&p2);
            if c < best && winner.as_ref().is_none_or(|(wc, _)| c < *wc) {
                winner = Some((c, p2));
            }
        }
        match winner {
            Some((c, p)) => {
                best = c;
                pol = p;
            }
            None => return (pol, best),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn memoized_polarity_search_matches_reference(bits in 0u64..u64::MAX, n in 3usize..=6) {
        // n ≤ 6, so every minterm indexes a distinct bit of `bits`
        let tt = TruthTable::from_fn(n, |m| (bits >> m) & 1 == 1);
        let (ref_pol, ref_count) = greedy_unmemoized(&tt);

        let bm = BddManager::new(n);
        let f = bm.from_table(&tt).expect("uncapped");
        let support: Vec<usize> = bm.support(f).iter().collect();
        let mut search = PolaritySearch::new(&bm, f);
        let (pol, count) = search.greedy(&support);

        prop_assert_eq!(count, ref_count);
        prop_assert_eq!(pol, ref_pol);
    }
}
