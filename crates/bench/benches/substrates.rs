//! Microbenchmarks of the substrate layers: the fixed-polarity Reed-Muller
//! transform, ISOP covers, BDD construction, BDD→OFDD conversion, one
//! output's polarity search, kernel extraction, technology mapping, the
//! redundancy-removal pass, the SOP baseline's `eliminate` and the FPRM
//! flow's GF(2) divisor extraction.

use criterion::{criterion_group, criterion_main, Criterion};
use xsynth_bdd::BddManager;
use xsynth_boolean::{Fprm, Polarity, Sop, TruthTable, VarSet};
use xsynth_circuits::builders::{interleaved_buses, ripple_adder};
use xsynth_core::gfx::{extract, ExtractOptions};
use xsynth_core::{
    merge_patterns, network_bdds, paper_patterns, remove_redundancy, try_synthesize, EquivChecker,
    SynthOptions,
};
use xsynth_map::{map_network, Library};
use xsynth_net::Network;
use xsynth_ofdd::{OfddManager, PolarityMode, PolaritySearch};
use xsynth_sim::{pack_patterns, random_patterns, PatternBlock};
use xsynth_sop::{algebra, SopNet};
use xsynth_trace::TraceSink;

/// Outputs with more FPRM cubes than this get only the AZ/AO patterns (the
/// flow's `MAX_CUBES`).
const MAX_CUBES: u64 = 512;

/// Outputs with more FPRM cubes than this skip the cube method (the flow's
/// `CUBE_CAP`).
const CUBE_CAP: u64 = 512;

/// The flow's sweep limit for redundancy removal.
const MAX_PASSES: usize = 6;

/// What the FPRM flow hands its redundancy-removal phase for `spec`: the
/// flow's network with that phase switched off (swept, as the flow returns
/// it), and the flow's patterns — each output's paper patterns under its
/// chosen polarity (only AZ/AO in block mode) plus the 64-pattern random
/// booster.
fn redundancy_input(spec: &Network) -> (Network, Vec<PatternBlock>) {
    let opts = SynthOptions::builder().redundancy_removal(false).build();
    let outcome = try_synthesize(spec, &opts).expect("synthesizes");
    let n = spec.inputs().len();
    let mut lists = Vec::new();
    if outcome.report.trace.counter("blocks.synthesized") > 0 {
        lists.push(paper_patterns(n, &Polarity::all_positive(n), &[]));
    } else {
        let mut bm = BddManager::new(n);
        let outs = network_bdds(&spec.sweep(), &mut bm).expect("uncapped");
        for (f, (_, _, pol)) in outs.into_iter().zip(&outcome.report.outputs) {
            let mut om = OfddManager::new(pol.clone());
            let root = om.from_bdd(&mut bm, f).expect("uncapped");
            let cubes = if om.num_cubes(root) <= MAX_CUBES {
                om.cubes(root)
            } else {
                Vec::new()
            };
            lists.push(paper_patterns(n, pol, &cubes));
        }
    }
    lists.push(random_patterns(n, 64, 0x0c));
    let blocks = pack_patterns(n, &merge_patterns(lists));
    (outcome.network, blocks)
}

/// What the FPRM flow hands `gfx::extract` for a multi-output `spec`: each
/// cube-method output's FPRM cubes under its chosen polarity, in literal
/// space (`2v` positive, `2v + 1` negative), with divisor literals from
/// `2n` up. Checked against the flow's own extraction counters.
fn extract_input(spec: &Network) -> (Vec<Vec<VarSet>>, usize) {
    let outcome = try_synthesize(spec, &SynthOptions::default()).expect("synthesizes");
    let n = spec.inputs().len();
    let mut bm = BddManager::new(n);
    let outs = network_bdds(&spec.sweep(), &mut bm).expect("uncapped");
    let funcs: Vec<Vec<VarSet>> = outs
        .into_iter()
        .zip(&outcome.report.outputs)
        .filter(|(_, (_, count, _))| *count <= CUBE_CAP)
        .map(|(f, (_, _, pol))| {
            let mut om = OfddManager::new(pol.clone());
            let root = om.from_bdd(&mut bm, f).expect("uncapped");
            om.cubes(root)
                .iter()
                .map(|c| {
                    c.iter()
                        .map(|v| 2 * v + usize::from(!pol.is_positive(v)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let ext = extract(funcs.clone(), 2 * n, &ExtractOptions::default());
    let trace = &outcome.report.trace;
    assert_eq!(
        (ext.divisors.len() as u64, ext.rounds, ext.candidates),
        (
            trace.counter("share.divisors"),
            trace.counter("gfx.rounds"),
            trace.counter("gfx.candidates")
        ),
        "{}: not the flow's extraction input",
        spec.name()
    );
    (funcs, 2 * n)
}

/// An `n`-bit ripple adder with interleaved inputs and a carry-in.
fn adder(n: usize) -> Network {
    let mut net = Network::new(format!("adder{n}"));
    let (a, b) = interleaved_buses(&mut net, "a", "b", n);
    let cin = net.add_input("cin");
    let (sums, cout) = ripple_adder(&mut net, &a, &b, Some(cin));
    for (i, &s) in sums.iter().enumerate() {
        net.add_output(format!("s{i}"), s);
    }
    net.add_output("cout", cout);
    net
}

fn bench_substrates(c: &mut Criterion) {
    let t = TruthTable::from_fn(12, |m| (m & 0x3f) + ((m >> 6) & 0x3f) > 0x3f);

    c.bench_function("fprm_transform_12var", |b| {
        b.iter(|| Fprm::from_table_positive(&t))
    });

    c.bench_function("isop_12var", |b| b.iter(|| Sop::isop(&t)));

    c.bench_function("bdd_from_table_12var", |b| {
        b.iter(|| BddManager::new(12).from_table(&t))
    });

    c.bench_function("ofdd_from_bdd_12var", |b| {
        let mut bm = BddManager::new(12);
        let f = bm.from_table(&t).expect("uncapped");
        b.iter(|| OfddManager::new(Polarity::all_positive(12)).from_bdd(&mut bm, f))
    });

    // one output's polarity search as the flow runs it, swept over the
    // support width: exhaustive at 8 and 10 variables, greedy at 12 and 16;
    // the function is the carry out of a (k/2)-bit adder
    for k in [8, 10, 12, 16] {
        let mask = (1u64 << (k / 2)) - 1;
        let carry = TruthTable::from_fn(k, |m| (m & mask) + (m >> (k / 2) & mask) > mask);
        let mut bm = BddManager::new(k);
        let f = bm.from_table(&carry).expect("uncapped");
        let support: Vec<usize> = (0..k).collect();
        c.bench_function(format!("polarity_search_k{k}"), |b| {
            b.iter(|| PolaritySearch::new(&mut bm, f).run(PolarityMode::Exhaustive, &support))
        });
    }

    let cover = Sop::isop(&t);
    c.bench_function("kernels_of_isop_cover", |b| {
        b.iter(|| algebra::kernels(&cover, 50))
    });

    let spec = xsynth_circuits::build("z4ml").expect("registered");
    let lib = Library::mcnc();
    c.bench_function("tech_map_z4ml_spec", |b| {
        b.iter(|| map_network(&spec, &lib))
    });

    // the slowest circuit to map in the FPRM flow's Table 2 sweep
    let addm4 = xsynth_circuits::build("addm4").expect("registered");
    let addm4 = try_synthesize(&addm4, &SynthOptions::default())
        .expect("addm4 synthesizes")
        .network;
    c.bench_function("tech_map_addm4_fprm", |b| {
        b.iter(|| map_network(&addm4, &lib))
    });

    // Section 4's pass alone, on the network that enters it
    let specs = [
        xsynth_circuits::build("shift").expect("registered"),
        xsynth_circuits::build("my_adder").expect("registered"),
        adder(16),
        adder(64),
    ];
    for spec in &specs {
        let (net, blocks) = redundancy_input(spec);
        let mut checker = EquivChecker::new(spec);
        let sink = TraceSink::new();
        c.bench_function(format!("redundancy_{}", spec.name()), |b| {
            b.iter(|| {
                let mut buf = sink.buffer(0, "redundancy");
                remove_redundancy(&net, &blocks, &mut checker, MAX_PASSES, None, &mut buf)
                    .expect("guarded pass")
            })
        });
    }

    // the SOP script's first `eliminate` alone, on the three Table 2 rows
    // where the SOP script takes longest
    for name in ["sym10", "rd84", "addm4"] {
        let spec = xsynth_circuits::build(name).expect("registered");
        let net = SopNet::from_network(&spec.sweep());
        c.bench_function(format!("sop_eliminate_{name}"), |b| {
            b.iter(|| {
                let mut s = net.clone();
                s.eliminate(4, 256);
                s
            })
        });
    }

    // cross-output divisor extraction alone, on the circuits where the
    // FPRM flow spends longest in it
    let specs = [
        xsynth_circuits::build("m181").expect("registered"),
        xsynth_circuits::build("addm4").expect("registered"),
        xsynth_circuits::build("shift").expect("registered"),
        adder(8),
    ];
    for spec in &specs {
        let (funcs, next_literal) = extract_input(spec);
        let opts = ExtractOptions::default();
        c.bench_function(format!("gfx_extract_{}", spec.name()), |b| {
            b.iter(|| extract(funcs.clone(), next_literal, &opts))
        });
    }
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
