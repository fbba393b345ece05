//! Benchmarks the testability machinery: deriving the paper's pattern
//! family from FPRM forms and fault-simulating it against the full
//! single-stuck-at fault universe of a synthesized network.

use criterion::{criterion_group, criterion_main, Criterion};
use xsynth_boolean::Fprm;
use xsynth_core::{merge_patterns, paper_patterns, try_synthesize, SynthOptions};
use xsynth_sim::{enumerate_faults, fault_simulate, unpack_blocks};

fn bench_testability(c: &mut Criterion) {
    let spec = xsynth_circuits::build("z4ml").expect("registered");
    let n = spec.inputs().len();
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let tables = spec.to_truth_tables();

    let mut group = c.benchmark_group("testability");
    group.sample_size(20);
    group.bench_function("derive_pattern_family", |b| {
        b.iter(|| {
            let lists: Vec<_> = tables
                .iter()
                .map(|t| {
                    let f = Fprm::from_table_positive(t);
                    paper_patterns(n, f.polarity(), f.cubes())
                })
                .collect();
            merge_patterns(n, lists)
        })
    });

    let family = merge_patterns(
        n,
        tables.iter().map(|t| {
            let f = Fprm::from_table_positive(t);
            paper_patterns(n, f.polarity(), f.cubes())
        }),
    );
    let patterns = unpack_blocks(&family.to_blocks());
    let faults = enumerate_faults(&out);
    group.bench_function("fault_simulate_family", |b| {
        b.iter(|| fault_simulate(&out, &patterns, &faults))
    });
    group.finish();
}

criterion_group!(benches, bench_testability);
criterion_main!(benches);
