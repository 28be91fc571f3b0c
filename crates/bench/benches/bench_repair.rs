//! Criterion benchmark of the full repair pipeline (Table III/IV workload)
//! and of top-candidate verification on the same framework.

use criterion::{criterion_group, criterion_main, Criterion};
use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_models::{build_model, ModelKind, TrainConfig};
use exea_core::{verify_top_candidates, ExEa, ExeaConfig, RepairConfig};
use std::hint::black_box;

fn bench_repair(c: &mut Criterion) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::MTransE, TrainConfig::fast()).train(&pair);
    let exea = ExEa::new(&pair, &trained, ExeaConfig::default());

    let mut group = c.benchmark_group("repair");
    group.sample_size(10);
    group.bench_function("full_pipeline", |b| {
        b.iter(|| black_box(exea.repair(&RepairConfig::default())))
    });
    group.bench_function("one_to_many_only", |b| {
        b.iter(|| black_box(exea.repair(&RepairConfig::without_cr3())))
    });
    group.bench_function("verify_top_candidates_k5", |b| {
        b.iter(|| black_box(verify_top_candidates(&exea, 5)))
    });
    group.finish();
}

fn bench_framework_construction(c: &mut Criterion) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
    c.bench_function("exea_framework_construction", |b| {
        b.iter(|| black_box(ExEa::new(&pair, &trained, ExeaConfig::default())))
    });
}

criterion_group!(benches, bench_repair, bench_framework_construction);
criterion_main!(benches);
