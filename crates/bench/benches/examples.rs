//! Criterion benchmarks for the paper's two worked examples.
//!
//! * Example 1 (t481): the paper's flow takes 0.69 s where SIS `rugged`
//!   needs 1372 s — the headline runtime gap.
//! * Example 2 (z4ml): the 3-bit adder with carry-in.

use criterion::{criterion_group, criterion_main, Criterion};
use xsynth_core::{try_synthesize, SynthOptions};
use xsynth_map::{map_network, Library};
use xsynth_sop::{script_algebraic, ScriptOptions};

fn bench_example1_t481(c: &mut Criterion) {
    let spec = xsynth_circuits::build("t481").expect("registered");
    let mut group = c.benchmark_group("example1_t481");
    group.sample_size(10);
    group.bench_function("fprm_flow", |b| {
        b.iter(|| try_synthesize(&spec, &SynthOptions::default()).unwrap())
    });
    group.bench_function("sop_baseline", |b| {
        b.iter(|| script_algebraic(&spec, &ScriptOptions::default()))
    });
    let out = try_synthesize(&spec, &SynthOptions::default())
        .unwrap()
        .network;
    let lib = Library::mcnc();
    group.bench_function("tech_map", |b| b.iter(|| map_network(&out, &lib)));
    group.finish();
}

fn bench_example2_z4ml(c: &mut Criterion) {
    let spec = xsynth_circuits::build("z4ml").expect("registered");
    let mut group = c.benchmark_group("example2_z4ml");
    group.sample_size(20);
    group.bench_function("fprm_flow", |b| {
        b.iter(|| try_synthesize(&spec, &SynthOptions::default()).unwrap())
    });
    group.bench_function("sop_baseline", |b| {
        b.iter(|| script_algebraic(&spec, &ScriptOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_example1_t481, bench_example2_z4ml);
criterion_main!(benches);
