//! Microbenchmarks of the substrate layers: the fixed-polarity Reed-Muller
//! transform, ISOP covers, BDD construction, BDD→OFDD conversion, one
//! output's polarity search, kernel extraction, technology mapping, the
//! redundancy-removal pass, the SOP baseline's `eliminate` and `extract`,
//! the sharing pass's `resubstitute` and the whole sharing pass on three
//! arithmetic functions, cover complements, the FPRM flow's GF(2) divisor
//! extraction, pattern simulation (the paper family's word rows,
//! event-driven fault propagation and the power estimate), an adder's
//! technology mapping, BDD apply and carry-out BDD→OFDD conversion, each
//! of the last six swept over the input count, ISOP swept over the table
//! width, and the serve wire's text path (BLIF parse and write, a `synth`
//! request's JSON encode and decode) swept over the adder's input count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xsynth_bdd::BddManager;
use xsynth_blif::{parse_blif, write_blif};
use xsynth_boolean::{mask_ones, CubeRows, Fprm, Polarity, Sop, TruthTable};
use xsynth_circuits::builders::{interleaved_buses, ripple_adder, two_level, word_function};
use xsynth_core::gfx::{extract, ExtractOptions};
use xsynth_core::{
    factor_cubes, merge_patterns, network_bdds, paper_patterns, remove_redundancy, try_synthesize,
    EquivChecker, SynthOptions,
};
use xsynth_map::{map_network, Library};
use xsynth_net::Network;
use xsynth_ofdd::{OfddManager, PolarityMode, PolaritySearch};
use xsynth_serve::proto::{parse_request, synth_request, JobFormat};
use xsynth_sim::{
    enumerate_faults, power_estimate, random_blocks, FaultSim, PatternBlock, PatternRows,
};
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
        lists.push(paper_patterns(
            n,
            &Polarity::all_positive(n),
            &CubeRows::new(n),
        ));
    } else {
        let mut bm = BddManager::new(n);
        let outs = network_bdds(&spec.sweep(), &mut bm).expect("uncapped");
        for (f, (_, _, pol)) in outs.into_iter().zip(&outcome.report.outputs) {
            let mut om = OfddManager::new(pol.clone());
            let root = om.from_bdd(&mut bm, f).expect("uncapped");
            let cubes = if om.num_cubes(root) <= MAX_CUBES {
                om.cubes(root)
            } else {
                CubeRows::new(n)
            };
            lists.push(paper_patterns(n, pol, &cubes));
        }
    }
    lists.push(PatternRows::from_blocks(n, &random_blocks(n, 64, 0x0c)));
    let blocks = merge_patterns(n, lists).to_blocks();
    (outcome.network, blocks)
}

/// What the FPRM flow hands `gfx::extract` for a multi-output `spec`: each
/// cube-method output's FPRM cubes under its chosen polarity, in literal
/// space (`2v` positive, `2v + 1` negative), with divisor literals from
/// `2n` up. Checked against the flow's own extraction counters.
fn extract_input(spec: &Network) -> (Vec<CubeRows>, usize) {
    let outcome = try_synthesize(spec, &SynthOptions::default()).expect("synthesizes");
    let n = spec.inputs().len();
    let mut bm = BddManager::new(n);
    let outs = network_bdds(&spec.sweep(), &mut bm).expect("uncapped");
    let funcs: Vec<CubeRows> = outs
        .into_iter()
        .zip(&outcome.report.outputs)
        .filter(|(_, (_, count, _))| *count <= CUBE_CAP)
        .map(|(f, (_, _, pol))| {
            let mut om = OfddManager::new(pol.clone());
            let root = om.from_bdd(&mut bm, f).expect("uncapped");
            let mut lits = CubeRows::new(2 * n);
            for c in om.cubes(root).rows() {
                let row = lits.push_zero();
                for v in mask_ones(c) {
                    let l = 2 * v + usize::from(!pol.is_positive(v));
                    row[l / 64] |= 1 << (l % 64);
                }
            }
            lits
        })
        .collect();
    let ext = extract(&funcs, 2 * n, &ExtractOptions::default());
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

    // the FPRM results of the Table 2 row with the most mapped literals
    // and of the arithmetic workload's 4x4 multiplier
    for spec in [
        xsynth_circuits::build("shift").expect("registered"),
        mul_4x4_k3(),
    ] {
        let net = try_synthesize(&spec, &SynthOptions::default())
            .expect("synthesizes")
            .network;
        c.bench_function(format!("tech_map_{}_fprm", spec.name()), |b| {
            b.iter(|| map_network(&net, &lib))
        });
    }

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
    // FPRM flow spends longest in it, and the cube method on what it
    // leaves: every rewritten output and every divisor, with the
    // Reduction rules, as the flow factors them
    let specs = [
        xsynth_circuits::build("m181").expect("registered"),
        xsynth_circuits::build("addm4").expect("registered"),
        xsynth_circuits::build("shift").expect("registered"),
        adder(8),
        mul_4x4_k3(),
    ];
    for spec in &specs {
        let (funcs, next_literal) = extract_input(spec);
        let opts = ExtractOptions::default();
        c.bench_function(format!("gfx_extract_{}", spec.name()), |b| {
            b.iter(|| extract(&funcs, next_literal, &opts))
        });
        let ext = extract(&funcs, next_literal, &opts);
        let factored: Vec<&CubeRows> = ext
            .functions
            .iter()
            .chain(ext.divisors.iter().map(|(_, d)| d))
            .collect();
        c.bench_function(format!("factor_cubes_{}", spec.name()), |b| {
            b.iter(|| {
                factored
                    .iter()
                    .map(|f| factor_cubes(f, true))
                    .collect::<Vec<_>>()
            })
        });
    }
}

/// `a·b + 3` over two 4-bit operands as a two-level spec: the
/// arithmetic function whose divisor extraction takes longest per job
/// in the daemon's arithmetic workload.
fn mul_4x4_k3() -> Network {
    let tables = word_function(8, 8, |m| (m & 15) * (m >> 4) + 3);
    two_level("mul_4x4_k3", &tables)
}

fn bench_sop_script(c: &mut Criterion) {
    // the SOP script's first `extract` alone, on the state its first
    // `eliminate` + `simplify` leave, for the three rows of the timed
    // Table 2 sweep where the script takes longest; `resubstitute` on the
    // same state measures the step the FPRM flow's `share_pass` runs
    for name in ["f51m", "5xp1", "sqr6"] {
        let spec = xsynth_circuits::build(name).expect("registered");
        let mut net = SopNet::from_network(&spec.sweep());
        net.eliminate(4, 256);
        net.simplify();
        c.bench_function(format!("sop_extract_{name}"), |b| {
            b.iter(|| {
                let mut s = net.clone();
                s.extract(400);
                s
            })
        });
        c.bench_function(format!("sop_resubstitute_{name}"), |b| {
            b.iter(|| {
                let mut s = net.clone();
                s.resubstitute();
                s
            })
        });
    }

    // `eliminate`'s scoring complements every node read in negative
    // phase: complement each cover of up to 24 cubes (its cap) that the
    // first `eliminate` + `simplify` leave
    for name in ["f51m", "5xp1", "sqr6"] {
        let spec = xsynth_circuits::build(name).expect("registered");
        let mut net = SopNet::from_network(&spec.sweep());
        net.eliminate(4, 256);
        net.simplify();
        let covers: Vec<Sop> = net
            .live_signals()
            .into_iter()
            .filter_map(|sig| net.cover(sig).cloned())
            .filter(|c| c.num_cubes() <= 24)
            .collect();
        c.bench_function(format!("sop_complement_{name}"), |b| {
            b.iter(|| covers.iter().map(Sop::complement).collect::<Vec<_>>())
        });
    }

    // the FPRM flow's sharing pass, step for step, on what its
    // factoring phase leaves for three arithmetic functions
    let opts = SynthOptions::builder()
        .share(false)
        .redundancy_removal(false)
        .build();
    let arith = [
        mul_4x4_k3(),
        two_level(
            "absdiff_4x4",
            &word_function(8, 4, |m| (m & 15).abs_diff(m >> 4)),
        ),
        two_level("mod7_w7", &word_function(7, 3, |m| m % 7)),
    ];
    for spec in &arith {
        let net = try_synthesize(spec, &opts).expect("synthesizes").network;
        c.bench_function(format!("sop_share_{}", spec.name()), |b| {
            b.iter(|| {
                let mut s = SopNet::from_network(&net);
                s.eliminate(0, 16);
                s.resubstitute();
                s.extract(128);
                s.eliminate(0, 16);
                s.to_network()
            })
        });
    }

    // ISOP of the most significant sum bit of a (k/2)-bit adder
    for k in [6, 8, 10, 12] {
        let half = (1u64 << (k / 2)) - 1;
        let msb = TruthTable::from_fn(k, |m| {
            ((m & half) + (m >> (k / 2) & half)) >> (k / 2 - 1) & 1 != 0
        });
        c.bench_function(format!("isop_k{k}"), |b| b.iter(|| Sop::isop(&msb)));
    }
}

/// Input counts the pattern-simulation groups sweep.
const SWEEP: [usize; 5] = [8, 16, 32, 64, 128];

/// An `n`-input ripple adder (`n / 2` bits, interleaved, no carry-in).
fn adder_of_width(n: usize) -> Network {
    let mut net = Network::new(format!("adder_n{n}"));
    let (a, b) = interleaved_buses(&mut net, "a", "b", n / 2);
    let (sums, cout) = ripple_adder(&mut net, &a, &b, None);
    for (i, &s) in sums.iter().enumerate() {
        net.add_output(format!("s{i}"), s);
    }
    net.add_output("cout", cout);
    net
}

/// 64 fixed cubes of one to four literals spread over `n` variables:
/// with 64 cubes the pair and triple closures reach the family's 4096
/// cap.
fn spread_cubes(n: usize) -> CubeRows {
    let sets: Vec<_> = (0..64)
        .map(|i| (0..=i % 4).map(|k| (i * 7 + k * 13 + k * k) % n).collect())
        .collect();
    CubeRows::from_sets(n, &sets)
}

fn bench_pattern_simulation(c: &mut Criterion) {
    // one output's paper family (AZ/AO, OC, SA1, closures) and its
    // merge with the random booster into simulator blocks
    let mut group = c.benchmark_group("patterns_paper_family");
    for n in SWEEP {
        let cubes = spread_cubes(n);
        let pol = Polarity::from_bits(&(0..n).map(|v| v % 3 != 0).collect::<Vec<_>>());
        group.bench_with_input(BenchmarkId::from_parameter(n), &cubes, |b, cubes| {
            b.iter(|| {
                let family = paper_patterns(n, &pol, cubes);
                let booster = PatternRows::from_blocks(n, &random_blocks(n, 64, 0x0c));
                merge_patterns(n, [family, booster]).to_blocks()
            })
        });
    }
    group.finish();

    // every single-stuck-at fault of an n-input adder against 256 random
    // patterns: one fault-free snapshot, then one event-driven flip per
    // fault and block
    let mut group = c.benchmark_group("fault_sim_detect_all");
    for n in SWEEP {
        let net = adder_of_width(n);
        let blocks = random_blocks(n, 256, 0xfa);
        let faults = enumerate_faults(&net);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| {
                let mut sim = FaultSim::new(net, &blocks);
                faults.iter().filter(|&&f| sim.detects(net, f)).count()
            })
        });
    }
    group.finish();

    // cut enumeration, matching and covering of an n-input adder's gate
    // network (the mapper's subject graph grows linearly with n)
    let lib = Library::mcnc();
    let mut group = c.benchmark_group("tech_map_adder");
    for n in SWEEP {
        let net = adder_of_width(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| map_network(net, &lib))
        });
    }
    group.finish();

    // the power estimate of an n-input adder: exhaustive blocks up to 16
    // inputs, 4096 random patterns drawn into blocks past that
    let mut group = c.benchmark_group("power_estimate_adder");
    for n in SWEEP {
        let net = adder_of_width(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| power_estimate(net).total)
        });
    }
    group.finish();
}

fn bench_bdd_sweeps(c: &mut Criterion) {
    // every output BDD of an n-input adder, built gate by gate in a
    // scratch manager and copied out (the flow's spec build)
    let mut group = c.benchmark_group("bdd_apply_adder");
    for n in SWEEP {
        let net = adder_of_width(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| network_bdds(net, &mut BddManager::new(n)).expect("uncapped"))
        });
    }
    group.finish();

    // the positive-polarity OFDD of that adder's carry out, from its BDD
    let mut group = c.benchmark_group("ofdd_from_bdd_adder");
    for n in SWEEP {
        let net = adder_of_width(n);
        let mut bm = BddManager::new(n);
        let cout = *network_bdds(&net, &mut bm)
            .expect("uncapped")
            .last()
            .expect("cout");
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| OfddManager::new(Polarity::all_positive(n)).from_bdd(&mut bm, cout))
        });
    }
    group.finish();
}

fn bench_wire_sweeps(c: &mut Criterion) {
    // the daemon's ingest of an n-input adder's BLIF text
    let mut group = c.benchmark_group("blif_parse");
    for n in SWEEP {
        let text = write_blif(&adder_of_width(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &text, |b, text| {
            b.iter(|| parse_blif(text).expect("parses"))
        });
    }
    group.finish();

    // the daemon's reply text for that adder
    let mut group = c.benchmark_group("blif_write");
    for n in SWEEP {
        let net = adder_of_width(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| write_blif(net))
        });
    }
    group.finish();

    // a `synth` request carrying that text, encoded by the client and
    // decoded by the daemon
    let mut group = c.benchmark_group("serve_wire");
    for n in SWEEP {
        let text = write_blif(&adder_of_width(n));
        group.bench_with_input(BenchmarkId::from_parameter(n), &text, |b, text| {
            b.iter(|| {
                let line = synth_request(text, JobFormat::Blif, Some("job"), None, None, false);
                parse_request(&line).expect("a valid request")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_substrates,
    bench_sop_script,
    bench_pattern_simulation,
    bench_bdd_sweeps,
    bench_wire_sweeps
);
criterion_main!(benches);
