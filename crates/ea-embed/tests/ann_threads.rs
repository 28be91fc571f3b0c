//! Thread-count determinism of the IVF quantizer and search pipeline.
//!
//! With `RAYON_NUM_THREADS=8` (the forced-parallel regime the other
//! determinism suites run under) the k-means quantizer must produce exactly
//! the centroids and inverted lists of a sequential reference implementation,
//! and the full IVF candidate pipeline must stay bit-identical to the dense
//! single-threaded reference. This is the strongest cross-thread-count pin we
//! can express in-process: the references never touch the rayon pool.
//!
//! Lives in its own integration-test binary so the env var is set before the
//! rayon shim samples it.

use ea_embed::{vector, CandidateSearch, EmbeddingTable, IvfIndex, IvfParams, SimilarityMatrix};
use ea_graph::EntityId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Sequential mirror of `IvfIndex::build`'s spherical k-means: same seeded
/// shuffle initialisation, same assignment rule (ties to the lowest centroid,
/// strict-greater updates), same ascending-row accumulation order, same
/// convergence check — with no parallelism anywhere.
fn reference_kmeans(
    corpus: &EmbeddingTable,
    nlist: usize,
    seed: u64,
    iters: usize,
) -> (Vec<Vec<f32>>, Vec<u32>) {
    let n = corpus.rows();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    let mut centroids: Vec<Vec<f32>> = perm[..nlist]
        .iter()
        .map(|&r| corpus.row(r as usize).to_vec())
        .collect();
    let assign = |centroids: &[Vec<f32>]| -> Vec<u32> {
        (0..n)
            .map(|row| {
                let v = corpus.row(row);
                let mut best = 0u32;
                let mut best_score = vector::cosine_prenormalized(v, &centroids[0]);
                for (c, centroid) in centroids.iter().enumerate().skip(1) {
                    let score = vector::cosine_prenormalized(v, centroid);
                    if score > best_score {
                        best = c as u32;
                        best_score = score;
                    }
                }
                best
            })
            .collect()
    };
    let mut assignments = assign(&centroids);
    for _ in 0..iters {
        let mut sums = vec![vec![0.0f32; corpus.dim()]; nlist];
        let mut counts = vec![0usize; nlist];
        for (row, &c) in assignments.iter().enumerate() {
            for (acc, &v) in sums[c as usize].iter_mut().zip(corpus.row(row)) {
                *acc += v;
            }
            counts[c as usize] += 1;
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                continue;
            }
            vector::normalize(&mut sums[c]);
            centroids[c] = sums[c].clone();
        }
        let next = assign(&centroids);
        let converged = next == assignments;
        assignments = next;
        if converged {
            break;
        }
    }
    (centroids, assignments)
}

#[test]
fn eight_thread_quantizer_matches_sequential_reference() {
    // Must run before any rayon use in this process: the shim reads the
    // variable once.
    std::env::set_var("RAYON_NUM_THREADS", "8");

    for seed in 0..4u64 {
        let n = 300 + 41 * seed as usize;
        let nlist = 9 + seed as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let raw = EmbeddingTable::xavier(n, 12, &mut rng);
        let all: Vec<usize> = (0..n).collect();
        let corpus = raw.gather_normalized(&all);
        let params = IvfParams {
            nlist,
            ..IvfParams::default()
        };

        let index = IvfIndex::build(&corpus, &params);
        let (ref_centroids, ref_assignments) =
            reference_kmeans(&corpus, nlist, params.seed, params.kmeans_iters);

        assert_eq!(index.nlist(), nlist);
        for (c, ref_centroid) in ref_centroids.iter().enumerate() {
            let got: Vec<u32> = index.centroid(c).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = ref_centroid.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got, want,
                "centroid {c} diverged under 8 threads (seed {seed})"
            );
            let want_list: Vec<u32> = (0..n as u32)
                .filter(|&row| ref_assignments[row as usize] == c as u32)
                .collect();
            assert_eq!(
                index.list(c),
                &want_list[..],
                "inverted list {c} diverged under 8 threads (seed {seed})"
            );
        }

        // Scheduling independence: a rebuild in the same multi-thread pool is
        // identical too.
        let again = IvfIndex::build(&corpus, &params);
        for c in 0..nlist {
            assert_eq!(index.list(c), again.list(c));
            assert_eq!(index.centroid(c), again.centroid(c));
        }
    }
}

#[test]
fn eight_thread_exhaustive_ivf_matches_dense_reference() {
    std::env::set_var("RAYON_NUM_THREADS", "8");

    for seed in 0..3u64 {
        let n_s = 120 + 13 * seed as usize;
        let n_t = 170 + 29 * seed as usize;
        let k = 5;
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let s = EmbeddingTable::xavier(n_s, 16, &mut rng);
        let t = EmbeddingTable::xavier(n_t, 16, &mut rng);
        let sids: Vec<EntityId> = (0..n_s as u32).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..n_t as u32).map(EntityId).collect();

        let m = SimilarityMatrix::compute(&s, &sids, &t, &tids);
        let search = CandidateSearch::Ivf(IvfParams {
            nlist: 11,
            nprobe: usize::MAX,
            ..IvfParams::default()
        });
        let index = search.bidirectional_index(&s, &sids, &t, &tids, k);

        for (i, &sid) in sids.iter().enumerate() {
            let dense_top = m.top_k(sid, k);
            let ivf_top: Vec<(EntityId, f32)> = index.candidates(i).collect();
            assert_eq!(dense_top.len(), ivf_top.len());
            for ((dt, ds), (bt, bs)) in dense_top.iter().zip(&ivf_top) {
                assert_eq!(dt, bt, "candidate diverged (seed {seed}, row {i})");
                assert_eq!(
                    ds.to_bits(),
                    bs.to_bits(),
                    "score diverged (seed {seed}, row {i})"
                );
            }
        }
        let mut dense_pairs = m.greedy_alignment().to_vec();
        let mut ivf_pairs = index.greedy_alignment().to_vec();
        dense_pairs.sort();
        ivf_pairs.sort();
        assert_eq!(dense_pairs, ivf_pairs, "greedy diverged (seed {seed})");
    }
}

#[test]
fn eight_thread_partial_probing_is_run_to_run_deterministic() {
    std::env::set_var("RAYON_NUM_THREADS", "8");

    let mut rng = StdRng::seed_from_u64(7);
    let s = EmbeddingTable::xavier(200, 12, &mut rng);
    let t = EmbeddingTable::xavier(350, 12, &mut rng);
    let sids: Vec<EntityId> = (0..200).map(EntityId).collect();
    let tids: Vec<EntityId> = (0..350).map(EntityId).collect();
    let search = CandidateSearch::Ivf(IvfParams {
        nlist: 18,
        nprobe: 4,
        ..IvfParams::default()
    });
    let a = search.forward_index(&s, &sids, &t, &tids, 6);
    let b = search.forward_index(&s, &sids, &t, &tids, 6);
    for i in 0..200 {
        let ra: Vec<(EntityId, u32)> = a.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
        let rb: Vec<(EntityId, u32)> = b.candidates(i).map(|(e, v)| (e, v.to_bits())).collect();
        assert_eq!(ra, rb, "partial-probe row {i} diverged between runs");
    }
}
