//! The parallel batch pipeline must be *bit-identical* to the sequential
//! path: same explanations, same confidences, same repair decisions, same
//! verification verdicts. These tests run every entry point both ways on a
//! synthetic dataset and compare exactly (`f64::to_bits`, no epsilon).

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_graph::AlignmentPair;
use ea_models::{build_model, ModelKind, TrainConfig, TrainedAlignment};
use exea_core::{verify_pairs, BatchOptions, ExEa, ExeaConfig, RepairConfig};

fn setup(kind: ModelKind) -> (ea_graph::KgPair, TrainedAlignment) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(kind, TrainConfig::fast()).train(&pair);
    (pair, trained)
}

#[test]
fn parallel_explain_all_is_bit_identical_to_sequential() {
    let (pair, trained) = setup(ModelKind::GcnAlign);
    let sequential = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::sequential());
    let parallel = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::always_parallel());

    let seq = sequential.explain_all();
    let par = parallel.explain_all();
    assert_eq!(seq.len(), par.len());
    assert!(!seq.is_empty());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.pair, b.pair);
        assert_eq!(
            a.confidence().to_bits(),
            b.confidence().to_bits(),
            "confidence diverged for {:?}",
            a.pair
        );
        assert_eq!(a.explanation.num_triples(), b.explanation.num_triples());
        assert_eq!(
            a.explanation.matched_paths.len(),
            b.explanation.matched_paths.len()
        );
    }
}

#[test]
fn batch_scores_match_per_pair_api() {
    let (pair, trained) = setup(ModelKind::GcnAlign);
    let exea = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::always_parallel());
    let state = exea.default_alignment_state();
    let pairs: Vec<AlignmentPair> = exea.predictions().iter().take(40).collect();
    let scores = exea.score_batch(&pairs, state, true, exea.batch_options());
    for (p, s) in pairs.iter().zip(&scores) {
        let single = exea.confidence_with_state(p.source, p.target, state, true);
        assert_eq!(
            single.to_bits(),
            s.confidence.to_bits(),
            "batch and single-pair confidence diverged for {p:?}"
        );
    }
}

#[test]
fn confidence_map_agrees_with_explain_all() {
    let (pair, trained) = setup(ModelKind::GcnAlign);
    let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
    let map = exea.confidence_map();
    let all = exea.explain_all();
    assert_eq!(map.len(), all.len());
    for scored in &all {
        let looked_up = map
            .get(scored.pair.source, scored.pair.target)
            .expect("every explained pair is in the confidence map");
        assert_eq!(looked_up.to_bits(), scored.confidence().to_bits());
    }
}

#[test]
fn parallel_repair_is_identical_to_sequential() {
    let (pair, trained) = setup(ModelKind::MTransE);
    let sequential = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::sequential());
    let parallel = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::always_parallel());

    let seq = sequential.repair(&RepairConfig::default());
    let par = parallel.repair(&RepairConfig::default());
    assert_eq!(seq.stats, par.stats);
    let mut seq_pairs = seq.repaired.to_vec();
    let mut par_pairs = par.repaired.to_vec();
    seq_pairs.sort();
    par_pairs.sort();
    assert_eq!(seq_pairs, par_pairs);
}

#[test]
fn parallel_verification_is_identical_to_sequential() {
    let (pair, trained) = setup(ModelKind::GcnAlign);
    let reference: Vec<AlignmentPair> = pair.reference.to_vec();
    let mut candidates = Vec::new();
    for (i, p) in reference.iter().take(30).enumerate() {
        candidates.push((*p, true));
        let wrong = reference[(i + 5) % reference.len()].target;
        if wrong != p.target {
            candidates.push((AlignmentPair::new(p.source, wrong), false));
        }
    }

    let sequential = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::sequential());
    let parallel = ExEa::new(&pair, &trained, ExeaConfig::default())
        .with_batch_options(BatchOptions::always_parallel());
    let (seq_decisions, seq_outcome) = verify_pairs(&sequential, &candidates);
    let (par_decisions, par_outcome) = verify_pairs(&parallel, &candidates);
    assert_eq!(seq_decisions, par_decisions);
    assert_eq!(seq_outcome, par_outcome);
}
