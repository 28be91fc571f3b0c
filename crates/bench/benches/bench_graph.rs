//! Criterion benchmarks of the graph substrate (neighbourhood queries,
//! functionality, path enumeration, dataset generation).

use criterion::{criterion_group, criterion_main, Criterion};
use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_graph::{paths::enumerate_paths, AlignmentPair, BfsScratch, RelationFunctionality};
use ea_models::{build_model, ModelKind, TrainConfig};
use exea_core::{BatchOptions, ExEa, ExeaConfig, RepairConfig};
use std::hint::black_box;

fn bench_graph_queries(c: &mut Criterion) {
    let pair = load(DatasetName::FrEn, DatasetScale::Small);
    let entities: Vec<_> = pair.source.entity_ids().take(100).collect();

    c.bench_function("two_hop_triples", |b| {
        b.iter(|| {
            for &e in &entities {
                black_box(pair.source.triples_within_hops(e, 2));
            }
        })
    });
    c.bench_function("path_enumeration_len2", |b| {
        b.iter(|| {
            for &e in &entities {
                black_box(enumerate_paths(&pair.source, e, 2));
            }
        })
    });
    c.bench_function("relation_functionality", |b| {
        b.iter(|| black_box(RelationFunctionality::compute(&pair.source)))
    });
}

/// Old allocating `neighbors` vs the zero-allocation CSR `neighbors_iter`,
/// and hash-set-free BFS on reusable scratch buffers.
fn bench_neighbor_iteration(c: &mut Criterion) {
    let pair = load(DatasetName::FrEn, DatasetScale::Small);
    let kg = &pair.source;
    let entities: Vec<_> = kg.entity_ids().collect();

    c.bench_function("neighbors_alloc_vec", |b| {
        b.iter(|| {
            let mut degree_sum = 0usize;
            for &e in &entities {
                degree_sum += kg.neighbors(e).len();
            }
            black_box(degree_sum)
        })
    });
    c.bench_function("neighbors_iter_csr", |b| {
        b.iter(|| {
            let mut degree_sum = 0usize;
            for &e in &entities {
                degree_sum += kg.neighbors_iter(e).count();
            }
            black_box(degree_sum)
        })
    });
    c.bench_function("two_hop_triples_scratch", |b| {
        let sample: Vec<_> = entities.iter().copied().take(100).collect();
        let mut scratch = BfsScratch::new();
        let mut out = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for &e in &sample {
                kg.triples_within_hops_into(e, 2, &mut scratch, &mut out);
                total += out.len();
            }
            black_box(total)
        })
    });
}

/// Sequential vs parallel batched explanation of every model prediction.
fn bench_batch_pipeline(c: &mut Criterion) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
    // Second-order explanations: the heavy per-pair workload (Fig. 4's
    // worry) and the regime where fanning pairs out pays off.
    let exea = ExEa::new(&pair, &trained, ExeaConfig::second_order());
    let pairs: Vec<AlignmentPair> = exea.predictions().iter().collect();
    let state = exea.default_alignment_state();

    let mut group = c.benchmark_group("explain_all_second_order");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            black_box(exea.explain_and_score_batch(
                &pairs,
                state,
                true,
                &BatchOptions::sequential(),
            ))
        })
    });
    group.bench_function("parallel", |b| {
        b.iter(|| {
            black_box(exea.explain_and_score_batch(
                &pairs,
                state,
                true,
                &BatchOptions::always_parallel(),
            ))
        })
    });
    group.finish();
}

/// Confidence without the explanation: `score_batch` (the matching core fed
/// straight into the ADG sums) vs `explain_and_score_batch` (explanation and
/// ADG built per pair) over every prediction, sequentially, plus one default
/// repair, whose cost is almost all confidence calls.
fn bench_confidence(c: &mut Criterion) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
    let exea = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::sequential());
    let pairs: Vec<AlignmentPair> = exea.predictions().iter().collect();
    let state = exea.default_alignment_state();
    let sequential = BatchOptions::sequential();

    let mut group = c.benchmark_group("confidence");
    group.sample_size(10);
    group.bench_function("score_batch", |b| {
        b.iter(|| black_box(exea.score_batch(&pairs, state, true, &sequential)))
    });
    group.bench_function("explain_and_score_batch", |b| {
        b.iter(|| black_box(exea.explain_and_score_batch(&pairs, state, true, &sequential)))
    });
    group.bench_function("repair_default", |b| {
        b.iter(|| black_box(exea.repair(&RepairConfig::default())))
    });
    group.finish();
}

fn bench_dataset_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataset_generation");
    group.sample_size(10);
    group.bench_function("zh_en_small", |b| {
        b.iter(|| black_box(load(DatasetName::ZhEn, DatasetScale::Small)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_graph_queries,
    bench_neighbor_iteration,
    bench_batch_pipeline,
    bench_confidence,
    bench_dataset_generation
);
criterion_main!(benches);
