//! Bit pins of ExEA repair and top-candidate verification.
//!
//! For MTransE and GCN-Align on ZH-EN and DBP-WD (`Small`, trained with
//! `TrainConfig::fast()`), these tests hash the repaired alignment and the
//! `RepairStats` under `RepairConfig::default()` and each of its three
//! ablations, plus the `verify_top_candidates(_, 5)` verdicts, and compare
//! them against digests recorded before any of the code under test was
//! refactored. The exact candidate engine is pinned in both `TrainConfig`
//! and `ExeaConfig`, so the `EXEA_CANDIDATE_SEARCH` override cannot move
//! them. The digests are the same at 1 and 8 rayon threads; a change meant
//! to preserve repair and verification bit for bit must keep them.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::CandidateSearch;
use ea_graph::AlignmentPair;
use ea_models::{build_model, ModelKind, TrainConfig};
use exea_core::repair::RepairStats;
use exea_core::{verify_top_candidates, ExEa, ExeaConfig, RepairConfig};

/// FNV-1a (64-bit) over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn pairs_digest<'a>(pairs: impl IntoIterator<Item = (&'a AlignmentPair, Option<bool>)>) -> u64 {
    let mut h = Fnv::new();
    for (pair, verdict) in pairs {
        h.word(u64::from(pair.source.0));
        h.word(u64::from(pair.target.0));
        if let Some(v) = verdict {
            h.word(u64::from(v));
        }
    }
    h.0
}

fn stats_digest(stats: &RepairStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        stats.one_to_many_conflicts,
        stats.low_confidence_pairs,
        stats.changed_pairs,
        stats.greedy_fallback,
    ] {
        h.word(v as u64);
    }
    h.0
}

/// `(repaired set, RepairStats)` digests per repair config, in the order
/// default, without cr1, without cr2, without cr3; then the verdict digest.
type Pins = ([(u64, u64); 4], u64);

fn digests(model: ModelKind, dataset: DatasetName) -> Pins {
    let pair = load(dataset, DatasetScale::Small);
    let train = TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::fast()
    };
    let trained = build_model(model, train).train(&pair);
    let exea = ExEa::new(
        &pair,
        &trained,
        ExeaConfig {
            candidate_search: CandidateSearch::Exact,
            ..ExeaConfig::default()
        },
    );
    let repairs = [
        RepairConfig::default(),
        RepairConfig::without_cr1(),
        RepairConfig::without_cr2(),
        RepairConfig::without_cr3(),
    ]
    .map(|config| {
        let outcome = exea.repair(&config);
        let repaired = outcome.repaired.to_vec();
        (
            pairs_digest(repaired.iter().map(|p| (p, None))),
            stats_digest(&outcome.stats),
        )
    });
    let verdicts = verify_top_candidates(&exea, 5);
    (
        repairs,
        pairs_digest(verdicts.iter().map(|(p, v)| (p, Some(*v)))),
    )
}

fn check(model: ModelKind, dataset: DatasetName, want: Pins) {
    let got = digests(model, dataset);
    assert_eq!(got, want, "{model:?} on {dataset:?}: got {got:#018x?}");
}

#[test]
fn mtranse_zh_en_repair_and_verification_are_pinned() {
    check(
        ModelKind::MTransE,
        DatasetName::ZhEn,
        (
            [
                (0x24f1_1cb5_45ef_7ef9, 0x6f0f_626c_9071_aa63),
                (0xbdb2_0e3d_3a27_7b41, 0x31fe_639c_00a4_92a0),
                (0x35b4_2134_f002_480c, 0x6b98_c2ee_268f_5251),
                (0x2ca4_9b0a_52bc_507c, 0x0d55_6a99_7a5c_878b),
            ],
            0xbcdf_a9df_31e3_fffb,
        ),
    );
}

#[test]
fn mtranse_dbp_wd_repair_and_verification_are_pinned() {
    check(
        ModelKind::MTransE,
        DatasetName::DbpWd,
        (
            [
                (0x9c9d_e139_9b2f_b598, 0x2fe9_9153_c595_9080),
                (0x21e1_1c5a_aa94_edda, 0x0c9b_6027_7c2d_3bd6),
                (0x8ba5_05eb_39ac_6f38, 0x9c6e_4559_f18d_edee),
                (0x489c_69a0_d102_a758, 0x0448_e2a7_9191_e875),
            ],
            0x92bc_c312_d1b9_c0f3,
        ),
    );
}

#[test]
fn gcn_align_zh_en_repair_and_verification_are_pinned() {
    check(
        ModelKind::GcnAlign,
        DatasetName::ZhEn,
        (
            [
                (0x3ff4_2824_89f1_76a5, 0x5c2d_21ce_642f_6647),
                (0x7e1c_a5c3_e8e6_c9a0, 0xfc11_efde_9626_b53c),
                (0x2bcc_1173_7f9f_7ad0, 0x8b6d_ef93_0c0a_e3e9),
                (0x4930_187d_4c9f_be2f, 0x904b_9624_26e6_ce49),
            ],
            0x0926_c172_813b_4c53,
        ),
    );
}

#[test]
fn gcn_align_dbp_wd_repair_and_verification_are_pinned() {
    check(
        ModelKind::GcnAlign,
        DatasetName::DbpWd,
        (
            [
                (0xc301_4958_5de3_8bb2, 0x8c63_bb3e_90d5_0e23),
                (0xf517_576f_a80b_40a3, 0xb5b7_c65d_2654_1be7),
                (0x9cee_f6aa_13a3_00f6, 0x6a6a_fbaf_c0d1_f4a8),
                (0x1433_f3ee_930c_bcb5, 0x96e1_e6f4_816f_b4b2),
            ],
            0x8795_91bb_f9c2_2cba,
        ),
    );
}
