//! Acceptance test for the ANN pre-filter on trained embeddings: on the
//! synthetic ZH-EN dataset the IVF path must reach >= 0.95 recall@10 against
//! the exact scan at half the probes, and at `nprobe = nlist` it must leave
//! every greedy alignment decision (and every stored score bit) unchanged.
//! The exact blocked scan it is measured against must itself reproduce the
//! dense `SimilarityMatrix`'s greedy alignment on these trained embeddings.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::{CandidateSearch, IvfParams};
use ea_graph::EntityId;
use ea_models::{build_model, ModelKind, TrainConfig};
use std::collections::HashSet;

#[test]
fn ivf_reaches_095_recall_at_10_on_zh_en_and_is_exact_at_full_probing() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::default()).train(&pair);
    let k = 10usize;

    let exact = trained.candidate_index(&pair, k);
    assert_eq!(
        trained.similarity_matrix(&pair).greedy_alignment().to_vec(),
        exact.greedy_alignment().to_vec(),
        "dense and blocked greedy alignments must agree"
    );
    let n_t = exact.target_ids().len();
    let nlist = IvfParams::default().resolved_nlist(n_t);
    let nprobe = nlist.div_ceil(2);
    let approx = trained.candidate_index_with(
        &pair,
        k,
        &CandidateSearch::Ivf(IvfParams {
            nlist,
            nprobe,
            ..IvfParams::default()
        }),
    );

    // Recall@10 over all test sources, plus the exact-subset contract: any
    // candidate the ANN path returns that the exact top-k also contains must
    // carry the identical score bits.
    let mut kept = 0usize;
    let mut total = 0usize;
    for i in 0..exact.source_ids().len() {
        let exact_row: Vec<(EntityId, f32)> = exact.candidates(i).collect();
        let exact_ids: HashSet<EntityId> = exact_row.iter().map(|&(e, _)| e).collect();
        for (e, score) in approx.candidates(i) {
            if exact_ids.contains(&e) {
                kept += 1;
                let (_, exact_score) = exact_row.iter().find(|&&(x, _)| x == e).unwrap();
                assert_eq!(
                    score.to_bits(),
                    exact_score.to_bits(),
                    "ANN re-scored a candidate in row {i}"
                );
            }
        }
        total += exact_row.len();
    }
    let recall = kept as f64 / total.max(1) as f64;
    assert!(
        recall >= 0.95,
        "IVF recall@10 too low at nprobe = nlist/2: {recall:.3} (nlist {nlist}, nprobe {nprobe})"
    );

    // Full probing: recall 1.0, candidate lists and greedy decisions
    // bit-identical to the exact scan.
    let full = trained.candidate_index_with(
        &pair,
        k,
        &CandidateSearch::Ivf(IvfParams {
            nlist,
            nprobe: nlist,
            ..IvfParams::default()
        }),
    );
    for i in 0..exact.source_ids().len() {
        let a: Vec<(EntityId, u32)> = exact.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
        let b: Vec<(EntityId, u32)> = full.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
        assert_eq!(a, b, "row {i} diverged at nprobe = nlist");
    }
    assert_eq!(
        exact.greedy_alignment().to_vec(),
        full.greedy_alignment().to_vec(),
        "greedy alignment must be unchanged at recall-1.0 settings"
    );
}
