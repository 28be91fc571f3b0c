//! Pins of the training work counters ([`TrainingWork`]): how many rows and
//! similarity dots the exact nearest-neighbour scans of a training take.
//! They are a deterministic function of the training seed (a cache refresh
//! rescores only the rows training changed), so these tests pin literal
//! numbers; a change that scans more (or less) must update them on
//! purpose.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::CandidateSearch;
use ea_models::{AlignE, DualAmn, EaModel, GcnAlign, MTransE, TrainConfig, TrainingWork};

/// `TrainConfig::default()` with the exact candidate engine pinned, so the
/// `EXEA_CANDIDATE_SEARCH` override cannot change the mutual-anchor count.
fn default_config() -> TrainConfig {
    TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::default()
    }
}

/// Dual-AMN at the repo benchmark's scale and schedule: ZH-EN `Bench` has
/// 2200 entities a side and 600 seed pairs. Fine-tuning runs 90 epochs and
/// refreshes the hard-negative cache every 10, so the build and 8 refreshes
/// list the 600 seed targets. The build scores them against all 2200
/// targets (1,320,000 dots); the refreshes rescore only the rows training
/// changed, which fall off as the margin loss stops firing. Scanning every
/// time would be 9 × 600 × 2200 = 11,880,000 dots. The mutual-anchor search
/// scores each of the 1600 × 1600 unanchored pairs once.
#[test]
fn dual_amn_default_bench_work_is_pinned() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Bench);
    assert_eq!(pair.target.num_entities(), 2200);
    assert_eq!(pair.seed.len(), 600);
    let work = DualAmn::new(default_config()).train(&pair).work();
    assert_eq!(
        work,
        TrainingWork {
            hard_negative_rows: 9 * 600,
            hard_negative_dots: 2_987_665,
            mutual_anchor_dots: 1600 * 1600,
        }
    );
}

/// AlignE on ZH-EN `Small` (330 entities a side, 90 seed pairs): 60 epochs
/// with a refresh every 10 is a build and 5 refreshes, and no mutual-anchor
/// search. Its TransE epochs move every seed target, so each refresh
/// rescans all 90 lists. The uniform-negative models scan nothing.
#[test]
fn other_models_work_is_pinned() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    assert_eq!(pair.target.num_entities(), 330);
    assert_eq!(pair.seed.len(), 90);
    let work = AlignE::new(default_config()).train(&pair).work();
    assert_eq!(
        work,
        TrainingWork {
            hard_negative_rows: 6 * 90,
            hard_negative_dots: 6 * 90 * 330,
            mutual_anchor_dots: 0,
        }
    );
    let fast = TrainConfig::fast();
    assert_eq!(
        GcnAlign::new(fast.clone()).train(&pair).work(),
        TrainingWork::default()
    );
    assert_eq!(
        MTransE::new(fast).train(&pair).work(),
        TrainingWork::default()
    );
}

/// Counters of several stages add up field by field.
#[test]
fn work_adds_field_by_field() {
    let a = TrainingWork {
        hard_negative_rows: 1,
        hard_negative_dots: 2,
        mutual_anchor_dots: 3,
    };
    let b = TrainingWork {
        hard_negative_rows: 10,
        hard_negative_dots: 20,
        mutual_anchor_dots: 30,
    };
    assert_eq!(
        a + b,
        TrainingWork {
            hard_negative_rows: 11,
            hard_negative_dots: 22,
            mutual_anchor_dots: 33,
        }
    );
    assert_eq!(a + TrainingWork::default(), a);
}
