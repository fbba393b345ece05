//! Microbenchmarks of the substrate layers: the fixed-polarity Reed-Muller
//! transform, ISOP covers, BDD construction, BDD→OFDD conversion, kernel
//! extraction and technology mapping.

use criterion::{criterion_group, criterion_main, Criterion};
use xsynth_bdd::BddManager;
use xsynth_boolean::{Fprm, Polarity, Sop, TruthTable};
use xsynth_core::{try_synthesize, SynthOptions};
use xsynth_map::{map_network, Library};
use xsynth_ofdd::OfddManager;
use xsynth_sop::algebra;

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
        let bm = BddManager::new(12);
        let f = bm.from_table(&t).expect("uncapped");
        b.iter(|| OfddManager::new(Polarity::all_positive(12)).from_bdd(&bm, f))
    });

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
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
