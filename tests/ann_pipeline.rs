//! End-to-end test of the config-driven exact ↔ ANN candidate switch: with
//! exhaustive probing (`nprobe = nlist`, recall 1.0) the whole downstream
//! pipeline — prediction, repair (cr2/cr3), top-candidate verification —
//! must make exactly the decisions the exact scan makes; with partial
//! probing it must still produce a valid one-to-one repaired alignment.
//! The same holds for exhaustive IVF over every list storage.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::{CandidateSearch, IvfListStorage, IvfParams, Sq8Params};
use ea_models::{build_model, ModelKind, TrainConfig};
use exea_core::{verify_top_candidates, ExEa, ExeaConfig, RepairConfig};

#[test]
fn exhaustive_ivf_pipeline_reproduces_exact_repair_and_verification() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::MTransE, TrainConfig::fast()).train(&pair);

    // Pin the baseline to the exact scan explicitly: the config default is
    // env-overridable (EXEA_CANDIDATE_SEARCH), and a partial-probing override
    // would silently change what this test compares against.
    let exact = ExEa::new(
        &pair,
        &trained,
        ExeaConfig {
            candidate_search: CandidateSearch::Exact,
            ..ExeaConfig::default()
        },
    );
    let ivf = ExEa::new(
        &pair,
        &trained,
        ExeaConfig {
            candidate_search: CandidateSearch::Ivf(IvfParams::exhaustive()),
            ..ExeaConfig::default()
        },
    );

    // Predictions (greedy k=1) agree exactly.
    assert_eq!(exact.predictions().to_vec(), ivf.predictions().to_vec());

    // The full repair pipeline makes identical decisions.
    let exact_outcome = exact.repair(&RepairConfig::default());
    let ivf_outcome = ivf.repair(&RepairConfig::default());
    assert_eq!(
        exact_outcome.repaired.to_vec(),
        ivf_outcome.repaired.to_vec(),
        "repair decisions diverged at recall-1.0 settings"
    );
    assert_eq!(exact_outcome.stats, ivf_outcome.stats);

    // Top-candidate verification sees the same candidates and verdicts.
    let exact_verdicts = verify_top_candidates(&exact, 2);
    let ivf_verdicts = verify_top_candidates(&ivf, 2);
    assert_eq!(exact_verdicts, ivf_verdicts);
}

#[test]
fn every_exhaustive_engine_layer_reproduces_exact_repair_and_verification() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::MTransE, TrainConfig::fast()).train(&pair);
    let run = |candidate_search: CandidateSearch| {
        let exea = ExEa::new(
            &pair,
            &trained,
            ExeaConfig {
                candidate_search,
                ..ExeaConfig::default()
            },
        );
        let outcome = exea.repair(&RepairConfig::default());
        (
            exea.predictions().to_vec(),
            outcome.repaired.to_vec(),
            outcome.stats,
            verify_top_candidates(&exea, 2),
        )
    };
    let exact = run(CandidateSearch::Exact);

    for storage in [
        IvfListStorage::Flat,
        IvfListStorage::Sq8(Sq8Params::exhaustive()),
    ] {
        let search = CandidateSearch::Ivf(IvfParams {
            storage,
            ..IvfParams::exhaustive()
        });
        let name = search.name();
        let (predictions, repaired, stats, verdicts) = run(search);
        assert!(predictions == exact.0, "{name}: predictions diverged");
        assert!(repaired == exact.1, "{name}: repaired set diverged");
        assert_eq!(stats, exact.2, "{name}: repair stats diverged");
        assert!(verdicts == exact.3, "{name}: verification diverged");
    }
}

#[test]
fn partial_probing_pipeline_still_repairs_to_a_one_to_one_alignment() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = build_model(ModelKind::GcnAlign, TrainConfig::fast()).train(&pair);
    let exea = ExEa::new(
        &pair,
        &trained,
        ExeaConfig {
            candidate_search: CandidateSearch::Ivf(IvfParams {
                nprobe: 3,
                ..IvfParams::default()
            }),
            ..ExeaConfig::default()
        },
    );
    let outcome = exea.repair(&RepairConfig::default());
    assert!(outcome.repaired.is_one_to_one());
    for s in pair.reference.sources() {
        assert!(
            outcome.repaired.contains_source(s),
            "source {s} lost by ANN-backed repair"
        );
    }
    // Approximate candidates must still repair to something better than the
    // raw greedy prediction of this weak model.
    let base = trained.accuracy(&pair);
    let repaired = outcome.repaired.accuracy_against(&pair.reference);
    assert!(
        repaired > base,
        "ANN-backed repair should still improve accuracy ({base:.3} -> {repaired:.3})"
    );
}
