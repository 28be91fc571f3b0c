//! Acceptance test for the sharded scatter-gather engine on trained
//! embeddings: on the synthetic ZH-EN dataset, routing three quarters of the
//! clustered shards must reach >= 0.95 recall@10 against the exact scan, and at
//! `route_shards = nshards` (with exhaustive per-shard engines) it must
//! leave every candidate list — forward and reverse — and every greedy
//! alignment decision bit-identical.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::{CandidateSearch, ShardParams, ShardPartition};
use ea_graph::EntityId;
use ea_models::{build_model, ModelKind, TrainConfig};
use std::collections::HashSet;

#[test]
fn sharded_reaches_095_recall_at_10_on_zh_en_and_is_exact_at_full_routing() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::default()).train(&pair);
    let k = 10usize;

    let exact = trained.candidate_index(&pair, k);
    let nshards = 8usize;
    let route = nshards * 3 / 4;
    let approx = trained.candidate_index_with(
        &pair,
        k,
        &CandidateSearch::Sharded(ShardParams {
            nshards,
            route_shards: route,
            partition: ShardPartition::Clustered,
            ..ShardParams::exhaustive()
        }),
    );

    // Recall@10 over all test sources, plus the exact-subset contract: any
    // candidate the sharded path returns that the exact top-k also contains
    // must carry the identical score bits.
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
                    "sharded engine re-scored a candidate in row {i}"
                );
            }
        }
        total += exact_row.len();
    }
    let recall = kept as f64 / total.max(1) as f64;
    assert!(
        recall >= 0.95,
        "sharded recall@10 too low at route = 3/4 nshards: {recall:.3} \
         (nshards {nshards}, route {route})"
    );

    // Full routing: recall 1.0, candidate lists (forward and reverse) and
    // greedy decisions bit-identical to the exact scan.
    let full = trained.candidate_index_with(
        &pair,
        k,
        &CandidateSearch::Sharded(ShardParams {
            nshards,
            partition: ShardPartition::Clustered,
            ..ShardParams::exhaustive()
        }),
    );
    for i in 0..exact.source_ids().len() {
        let a: Vec<(EntityId, u32)> = exact.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
        let b: Vec<(EntityId, u32)> = full.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
        assert_eq!(a, b, "row {i} diverged at route = nshards");
    }
    // Reverse lists go through the bidirectional build (the shape repair
    // cr2/cr3 and Dual-AMN mining use): full routing must keep every
    // best-source decision and its score bits.
    let sources = pair.test_source_entities();
    let targets: Vec<EntityId> = pair.target.entity_ids().collect();
    let src_table = trained.entities(ea_graph::KgSide::Source);
    let tgt_table = trained.entities(ea_graph::KgSide::Target);
    let exact_bi =
        CandidateSearch::Exact.bidirectional_index(src_table, &sources, tgt_table, &targets, k);
    let full_bi = CandidateSearch::Sharded(ShardParams {
        nshards,
        partition: ShardPartition::Clustered,
        ..ShardParams::exhaustive()
    })
    .bidirectional_index(src_table, &sources, tgt_table, &targets, k);
    for &t in &targets {
        let a = exact_bi
            .best_source_for_target(t)
            .map(|(e, s)| (e, s.to_bits()));
        let b = full_bi
            .best_source_for_target(t)
            .map(|(e, s)| (e, s.to_bits()));
        assert_eq!(
            a, b,
            "reverse list diverged for target {t:?} at route = nshards"
        );
    }
    assert_eq!(
        exact.greedy_alignment().to_vec(),
        full.greedy_alignment().to_vec(),
        "greedy alignment must be unchanged at recall-1.0 settings"
    );
}
