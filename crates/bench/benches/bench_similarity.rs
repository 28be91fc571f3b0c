//! Criterion benchmarks of the alignment-inference hot paths: the dense
//! `SimilarityMatrix` reference vs the blocked top-k `CandidateIndex` engine
//! (build + greedy alignment, CSLS re-scoring, and the cr2-style id-lookup
//! loop that used to be quadratic), the IVF ANN pre-filter vs the exact scan
//! at n >= 2000 targets, the register-blocked and packed-group kernels vs
//! the retired one-accumulator scalar dot, the hard-negative cache build and
//! refresh (the blocked self-join behind Dual-AMN and AlignE training), Dual-AMN's
//! fused mutual top-1 pass vs a `k = 1` bidirectional index, and the SQ8
//! quantized scan vs the exact f32 sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use ea_embed::{
    kernel, CandidateIndex, CandidateSearch, EmbeddingTable, HardNegativeCache, IvfIndex,
    IvfParams, QuantizedTable, SimilarityMatrix, Sq8Params,
};
use ea_graph::EntityId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

const K: usize = 5;
const DIM: usize = 32;

fn tables(
    n_s: usize,
    n_t: usize,
) -> (EmbeddingTable, EmbeddingTable, Vec<EntityId>, Vec<EntityId>) {
    let mut rng = StdRng::seed_from_u64(7);
    let s = EmbeddingTable::xavier(n_s, DIM, &mut rng);
    let t = EmbeddingTable::xavier(n_t, DIM, &mut rng);
    let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
    let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();
    (s, t, sids, tids)
}

/// Dense matrix vs blocked engine: build + greedy alignment.
fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity_inference");
    group.sample_size(10);
    for &(n_s, n_t) in &[(200usize, 400usize), (400, 800)] {
        let (s, t, sids, tids) = tables(n_s, n_t);
        group.bench_function(&format!("dense_{n_s}x{n_t}"), |b| {
            b.iter(|| black_box(SimilarityMatrix::compute(&s, &sids, &t, &tids).greedy_alignment()))
        });
        group.bench_function(&format!("blocked_topk_{n_s}x{n_t}"), |b| {
            b.iter(|| {
                black_box(CandidateIndex::compute(&s, &sids, &t, &tids, K).greedy_alignment())
            })
        });
    }
    group.finish();
}

/// CSLS re-scoring: dense full-matrix re-rank vs blocked top-k re-score.
fn bench_csls(c: &mut Criterion) {
    let (s, t, sids, tids) = tables(300, 600);
    let matrix = SimilarityMatrix::compute(&s, &sids, &t, &tids);
    let index = CandidateIndex::compute_bidirectional(&s, &sids, &t, &tids, K);
    let mut group = c.benchmark_group("csls");
    group.sample_size(10);
    group.bench_function("dense_300x600", |b| {
        b.iter(|| {
            let mut m = matrix.clone();
            m.apply_csls(3);
            black_box(m)
        })
    });
    group.bench_function("blocked_topk_300x600", |b| {
        b.iter(|| {
            let mut i = index.clone();
            i.apply_csls(3);
            black_box(i)
        })
    });
    group.finish();
}

/// The cr2 repair access pattern: for every source entity, an id→row lookup
/// plus a walk of its top-k candidates. With the hash-backed maps this is
/// O(n·k); the old linear-scan `source_index` made it O(n²).
fn bench_cr2_lookup_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("cr2_candidate_walk");
    group.sample_size(10);
    for &n in &[500usize, 1000, 2000] {
        let (s, t, sids, tids) = tables(n, n);
        let index = CandidateIndex::compute(&s, &sids, &t, &tids, K);
        group.bench_function(&format!("lookup_walk_{n}"), |b| {
            b.iter(|| {
                let mut claimed = 0usize;
                for &sid in &sids {
                    let row = index.source_index(sid).unwrap();
                    for rank in 0..K {
                        if index.ranked_target(row, rank).is_some() {
                            claimed += 1;
                        }
                    }
                }
                black_box(claimed)
            })
        });
    }
    group.finish();
}

/// IVF ANN pre-filter vs the exact blocked scan, per-query-batch cost. The
/// quantizer is built once outside the timing loop (the deployment shape:
/// build amortises over query batches) and benched separately. Clustered
/// corpora are the representative case for trained embeddings — random
/// uniform vectors have no cluster structure for any IVF to exploit.
fn bench_ann_prefilter(c: &mut Criterion) {
    let mut group = c.benchmark_group("ann_prefilter");
    group.sample_size(10);
    const K: usize = 10;
    for &n_t in &[2000usize, 4000] {
        let n_s = 256;
        let mut rng = StdRng::seed_from_u64(11);
        // Clustered targets: cluster centres plus small jitter; queries are
        // jittered copies of random targets.
        let centres = EmbeddingTable::xavier(64, DIM, &mut rng);
        let mut t = EmbeddingTable::zeros(n_t, DIM);
        for i in 0..n_t {
            let c_row = i % centres.rows();
            let row = t.row_mut(i);
            row.copy_from_slice(centres.row(c_row));
            for v in row.iter_mut() {
                *v += 0.05 * rand::Rng::gen_range(&mut rng, -1.0f32..=1.0);
            }
        }
        let mut s = EmbeddingTable::zeros(n_s, DIM);
        for i in 0..n_s {
            let t_row = rand::Rng::gen_range(&mut rng, 0..n_t);
            let row = s.row_mut(i);
            row.copy_from_slice(t.row(t_row));
            for v in row.iter_mut() {
                *v += 0.02 * rand::Rng::gen_range(&mut rng, -1.0f32..=1.0);
            }
        }
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();

        let s_rows: Vec<usize> = (0..n_s).collect();
        let t_rows: Vec<usize> = (0..n_t).collect();
        let s_norm = s.gather_normalized(&s_rows);
        let t_norm = t.gather_normalized(&t_rows);
        let params = IvfParams::default();
        let nlist = params.resolved_nlist(n_t);
        let nprobe = params.resolved_nprobe(nlist);
        let index = IvfIndex::build(&t_norm, &params);

        group.bench_function(&format!("exact_scan_{n_s}x{n_t}"), |b| {
            b.iter(|| black_box(CandidateIndex::compute(&s, &sids, &t, &tids, K)))
        });
        group.bench_function(
            &format!("ivf_query_{n_s}x{n_t}_nlist{nlist}_nprobe{nprobe}"),
            |b| b.iter(|| black_box(index.search(&s_norm, &t_norm, K, nprobe))),
        );
        group.bench_function(&format!("ivf_build_{n_t}_nlist{nlist}"), |b| {
            b.iter(|| black_box(IvfIndex::build(&t_norm, &params)))
        });
    }
    group.finish();
}

/// The retired per-pair dot: one sequential accumulator, the loop-carried
/// dependency the register-blocked kernel removes. Kept here as the baseline
/// the kernel's speedup is measured against.
fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Normalised tables at the bench scale the kernel/SQ8 acceptance numbers
/// are quoted at: 1400 queries x 2200 corpus rows, d = 100.
fn kernel_scale_tables() -> (EmbeddingTable, EmbeddingTable) {
    const D: usize = 100;
    let mut rng = StdRng::seed_from_u64(23);
    let s = EmbeddingTable::xavier(1400, D, &mut rng);
    let t = EmbeddingTable::xavier(2200, D, &mut rng);
    let s_rows: Vec<usize> = (0..s.rows()).collect();
    let t_rows: Vec<usize> = (0..t.rows()).collect();
    (s.gather_normalized(&s_rows), t.gather_normalized(&t_rows))
}

/// Register-blocked kernel vs the retired scalar dot, and the row-major 1×4
/// scan vs the packed 1×8 scan (packing included, as `blocked_topk` pays it
/// once per pass): the full exact scoring sweep (every query row against the
/// whole corpus) at 1400x2200, d=100.
fn bench_kernel(c: &mut Criterion) {
    let (s, t) = kernel_scale_tables();
    let (n_s, n_t, dim) = (s.rows(), t.rows(), t.dim());
    let mut group = c.benchmark_group("kernel");
    group.sample_size(10);
    group.bench_function("scalar_scan_1400x2200_d100", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..n_s {
                let q = s.row(i);
                for j in 0..n_t {
                    acc += scalar_dot(q, t.row(j));
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("kernel_scan_1400x2200_d100", |b| {
        let mut out = vec![0.0f32; n_t];
        b.iter(|| {
            let mut acc = 0.0f32;
            for i in 0..n_s {
                kernel::scan_block(s.row(i), t.data(), dim, &mut out);
                acc += black_box(&out)[0];
            }
            black_box(acc)
        })
    });
    group.bench_function("packed_scan_1400x2200_d100", |b| {
        let mut out = vec![0.0f32; n_t];
        b.iter(|| {
            let packed = kernel::pack_panel(t.data(), dim);
            let mut acc = 0.0f32;
            for i in 0..n_s {
                kernel::scan_packed(s.row(i), t.data(), &packed, dim, 0..n_t, &mut out);
                acc += black_box(&out)[0];
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// The hard-negative cache build Dual-AMN and AlignE run at the start of
/// training, on a 2200×64 table (the bench-scale entity count and embedding
/// width), k = 10: every row against the universe (the full build), and the
/// 600 random rows training actually queries (the bench-scale seed targets).
/// The `refresh_600of2200x64` cases time the refresh training repeats
/// every few epochs on that 600-row cache, with 0%, 5% (110 random rows)
/// and 100% of the rows nudged since the last refresh: each iteration
/// refreshes towards the other of two tables that differ in those rows.
fn bench_hard_negatives(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(29);
    let table = EmbeddingTable::xavier(2200, 64, &mut rng);
    let mut rows: Vec<usize> = (0..table.rows()).collect();
    rows.shuffle(&mut rng);
    rows.truncate(600);
    let mut group = c.benchmark_group("hard_negatives");
    group.sample_size(10);
    group.bench_function("hard_negative_build_2200x64", |b| {
        b.iter(|| black_box(HardNegativeCache::build(&table, 10, table.rows(), 0.0)))
    });
    group.bench_function("hard_negative_build_600of2200x64", |b| {
        b.iter(|| {
            black_box(HardNegativeCache::build_for(
                &table,
                &rows,
                10,
                table.rows(),
                0.0,
            ))
        })
    });
    for (name, changed) in [
        ("refresh_600of2200x64_0pct", 0),
        ("refresh_600of2200x64_5pct", 110),
        ("refresh_600of2200x64_100pct", table.rows()),
    ] {
        let mut nudged = table.clone();
        let mut order: Vec<usize> = (0..table.rows()).collect();
        order.shuffle(&mut rng);
        for &r in &order[..changed] {
            nudged.row_mut(r)[0] += 0.01;
        }
        let pair = [&table, &nudged];
        let mut cache = HardNegativeCache::build_for(&table, &rows, 10, table.rows(), 0.0);
        let mut turn = 0;
        group.bench_function(name, |b| {
            b.iter(|| {
                turn += 1;
                cache.refresh(pair[turn % 2]);
                black_box(cache.dots())
            })
        });
    }
    group.finish();
}

/// Dual-AMN's mutual-anchor search at bench scale (1600 unanchored entities
/// a side, 64 wide): the fused exact top-1 pass, which scores each pair
/// once, vs the two directed passes of a `k = 1` bidirectional index.
fn bench_mutual_top1(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(31);
    let s = EmbeddingTable::xavier(1600, 64, &mut rng);
    let t = EmbeddingTable::xavier(1600, 64, &mut rng);
    let ids: Vec<EntityId> = (0..1600u32).map(EntityId).collect();
    let mut group = c.benchmark_group("mutual_top1_1600x1600_d64");
    group.sample_size(10);
    group.bench_function("fused", |b| {
        b.iter(|| black_box(CandidateSearch::Exact.mutual_top1(&s, &ids, &t, &ids)))
    });
    group.bench_function("bidirectional_index_k1", |b| {
        b.iter(|| black_box(CandidateSearch::Exact.bidirectional_index(&s, &ids, &t, &ids, 1)))
    });
    group.finish();
}

/// SQ8 quantized scan vs the exact f32 sweep: the raw integer ADC byte scan
/// (4x less memory traffic per candidate), the end-to-end candidate engines
/// at equal k (two corpus sizes — the byte panel's edge grows as the f32
/// corpus outgrows the cache), and the one-off quantization cost.
fn bench_sq8(c: &mut Criterion) {
    const K: usize = 10;
    const D: usize = 100;
    let mut group = c.benchmark_group("sq8");
    group.sample_size(10);
    for &(n_s, n_t) in &[(1400usize, 2200usize), (400, 8000)] {
        let mut rng = StdRng::seed_from_u64(23);
        let s = EmbeddingTable::xavier(n_s, D, &mut rng);
        let t = EmbeddingTable::xavier(n_t, D, &mut rng);
        let s_rows: Vec<usize> = (0..n_s).collect();
        let t_rows: Vec<usize> = (0..n_t).collect();
        let s = s.gather_normalized(&s_rows);
        let t = t.gather_normalized(&t_rows);
        let quantized = QuantizedTable::build(&t);
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();
        group.bench_function(&format!("sq8_adc_scan_{n_s}x{n_t}_d100"), |b| {
            let mut lut = Vec::new();
            let mut out = vec![0.0f32; n_t];
            b.iter(|| {
                let mut acc = 0.0f32;
                for i in 0..n_s {
                    let (base, step) = quantized.prepare_query(s.row(i), &mut lut);
                    quantized.scan(&lut, base, step, &mut out);
                    acc += black_box(&out)[0];
                }
                black_box(acc)
            })
        });
        group.bench_function(&format!("exact_engine_{n_s}x{n_t}_d100_k10"), |b| {
            b.iter(|| black_box(CandidateSearch::Exact.forward_index(&s, &sids, &t, &tids, K)))
        });
        group.bench_function(&format!("sq8_engine_{n_s}x{n_t}_d100_k10"), |b| {
            let search = CandidateSearch::Sq8(Sq8Params::default());
            b.iter(|| black_box(search.forward_index(&s, &sids, &t, &tids, K)))
        });
        group.bench_function(&format!("sq8_quantize_{n_t}_d100"), |b| {
            b.iter(|| black_box(QuantizedTable::build(&t)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inference,
    bench_csls,
    bench_cr2_lookup_loop,
    bench_ann_prefilter,
    bench_kernel,
    bench_hard_negatives,
    bench_mutual_top1,
    bench_sq8
);
criterion_main!(benches);
