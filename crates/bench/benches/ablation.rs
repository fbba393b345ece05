//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! polarity search mode, factorization method, the Reduction rules, the
//! sharing pass and redundancy removal. Each variant's runtime is measured
//! and its quality (two-input literals) printed once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xsynth_core::{try_synthesize, FactorMethod, PolarityMode, SynthOptions};

fn variants() -> Vec<(&'static str, SynthOptions)> {
    let base = SynthOptions::builder;
    vec![
        ("default", base().build()),
        (
            "polarity_positive",
            base().polarity(PolarityMode::AllPositive).build(),
        ),
        (
            "polarity_greedy",
            base().polarity(PolarityMode::Greedy).build(),
        ),
        ("method_cube", base().method(FactorMethod::Cube).build()),
        ("method_ofdd", base().method(FactorMethod::Ofdd).build()),
        ("method_kfdd", base().method(FactorMethod::Kfdd).build()),
        ("no_rules", base().apply_rules(false).build()),
        ("no_redundancy", base().redundancy_removal(false).build()),
        ("no_sharing", base().share(false).build()),
    ]
}

fn bench_ablation(c: &mut Criterion) {
    let circuits = ["z4ml", "rd73", "t481", "5xp1"];
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    for name in circuits {
        let spec = xsynth_circuits::build(name).expect("registered");
        for (label, opts) in variants() {
            // print quality once, bench time repeatedly
            let out = try_synthesize(&spec, &opts).unwrap().network;
            let (_, lits) = out.two_input_cost();
            eprintln!("ablation quality: {name:8} {label:18} {lits:4} lits");
            group.bench_with_input(
                BenchmarkId::new(label, name),
                &(&spec, opts),
                |b, (spec, opts)| b.iter(|| try_synthesize(spec, opts).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
