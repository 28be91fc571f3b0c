//! Bit pins of ExEA repair and top-candidate verification.
//!
//! For MTransE and GCN-Align on ZH-EN and DBP-WD, Dual-AMN on ZH-EN and
//! AlignE on DBP-WD (`Small`, trained with `TrainConfig::fast()`), these
//! tests hash the repaired alignment and the `RepairStats` under
//! `RepairConfig::default()` and each of its three ablations, plus the
//! `verify_top_candidates(_, 5)` verdicts, and compare them against digests
//! recorded before any of the code under test was refactored. Two more
//! groups (MTransE on ZH-EN, GCN-Align on DBP-WD) run on a seed with 30% of
//! its pairs corrupted, so predictions claim seed targets and several seed
//! sources share a target: repair's seed-target dissolve and its rule that
//! seed holders are never displaced are pinned too. The exact candidate
//! engine is pinned in both `TrainConfig` and `ExeaConfig`, so the
//! `EXEA_CANDIDATE_SEARCH` override cannot move them. The digests are the
//! same at 1 and 8 rayon threads; a change meant to preserve repair and
//! verification bit for bit must keep them.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_data::noise::with_noisy_seed;
use ea_embed::CandidateSearch;
use ea_graph::{AlignmentPair, KgPair};
use ea_models::{build_model, ModelKind, TrainConfig};
use exea_core::repair::{RepairStats, RepairWork};
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

fn digests(model: ModelKind, pair: &KgPair) -> Pins {
    digests_with(model, pair, ExeaConfig::default())
}

fn digests_with(model: ModelKind, pair: &KgPair, config: ExeaConfig) -> Pins {
    let train = TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::fast()
    };
    let trained = build_model(model, train).train(pair);
    let exea = ExEa::new(
        pair,
        &trained,
        ExeaConfig {
            candidate_search: CandidateSearch::Exact,
            ..config
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
    let got = digests(model, &load(dataset, DatasetScale::Small));
    assert_eq!(got, want, "{model:?} on {dataset:?}: got {got:#018x?}");
}

/// [`check`] on the dataset with 30% of its seed pairs corrupted.
fn check_noisy_seed(model: ModelKind, dataset: DatasetName, want: Pins) {
    let pair = with_noisy_seed(&load(dataset, DatasetScale::Small), 0.3, 7);
    assert!(
        !pair.seed.is_one_to_one(),
        "test premise: several seed sources share a target"
    );
    let got = digests(model, &pair);
    assert_eq!(
        got, want,
        "{model:?} on {dataset:?} with a noisy seed: got {got:#018x?}"
    );
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

#[test]
fn dual_amn_zh_en_repair_and_verification_are_pinned() {
    check(
        ModelKind::DualAmn,
        DatasetName::ZhEn,
        (
            [
                (0x7751_df5e_a37b_9c59, 0x6859_6237_82c9_0c44),
                (0xd505_a1b5_2b44_5eeb, 0x4508_04d9_8dea_814c),
                (0xa594_bc4b_1d5a_1951, 0x9903_8ed8_36f7_aeaf),
                (0x9511_ffa7_1c5b_fb01, 0x265a_fb7b_f94d_c44a),
            ],
            0xf261_060a_e3a1_d71a,
        ),
    );
}

#[test]
fn aligne_dbp_wd_repair_and_verification_are_pinned() {
    check(
        ModelKind::AlignE,
        DatasetName::DbpWd,
        (
            [
                (0x8fc3_840e_ad56_63eb, 0xd535_c65c_66a0_7ee6),
                (0x32e9_b71d_b784_bc1d, 0xffd4_abe9_93f5_987e),
                (0x3fdd_6eb6_8bfe_5034, 0xc88d_f682_9e7a_5c79),
                (0x1680_7b5f_dbe4_1489, 0xcd70_91b1_8177_0b43),
            ],
            0x203a_1e18_58e6_639c,
        ),
    );
}

#[test]
fn mtranse_zh_en_noisy_seed_repair_and_verification_are_pinned() {
    check_noisy_seed(
        ModelKind::MTransE,
        DatasetName::ZhEn,
        (
            [
                (0x1001_4d23_93d1_ecc7, 0x9729_f9d7_6879_532e),
                (0x7e82_7d06_0d79_a049, 0xcb56_7e1f_208e_a332),
                (0xf2fc_fed2_6938_416c, 0xf910_7331_bd1d_b36e),
                (0x5338_a99a_58ed_b673, 0x6844_161b_ab7a_fb75),
            ],
            0x2de1_2cdc_7f4c_43a8,
        ),
    );
}

#[test]
fn gcn_align_dbp_wd_noisy_seed_repair_and_verification_are_pinned() {
    check_noisy_seed(
        ModelKind::GcnAlign,
        DatasetName::DbpWd,
        (
            [
                (0x1e3c_32f8_e859_56de, 0xe2ac_408c_d31b_75df),
                (0xbb9a_51f1_6a0a_055c, 0x25b5_4df3_a201_fb3c),
                (0x1590_ff81_d2be_8824, 0x8d69_cabc_6528_c051),
                (0x75a8_9ed1_1828_5514, 0xdf27_fb6a_745d_de96),
            ],
            0x3623_cc8c_3cdf_76d4,
        ),
    );
}

#[test]
fn mtranse_zh_en_second_order_repair_and_verification_are_pinned() {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let got = digests_with(ModelKind::MTransE, &pair, ExeaConfig::second_order());
    let want: Pins = (
        [
            (0x1fe1_7107_be5d_a603, 0x21a4_723c_d90f_5a65),
            (0xb5d0_888c_3b3a_c0b9, 0xa6e7_9473_ed35_4a38),
            (0xde4f_4a25_1e1e_2461, 0xb559_5ba4_52eb_b2ed),
            (0x8dcb_4c3b_2f49_94a4, 0xcf5f_dc87_647d_f349),
        ],
        0xf169_57ca_fa6b_0983,
    );
    assert_eq!(
        got, want,
        "MTransE on ZhEn with second-order explanations: got {got:#018x?}"
    );
}

/// Repair work on bench-scale DBP-WD with GCN-Align trained under the
/// default `TrainConfig`, the repair-bound benchmark workload. The repaired
/// set and stats are pinned beside the counts, so fewer scores cannot come
/// from fewer decisions. Scoring every claim afresh computes 56,580
/// confidences here; reusing still-exact scores leaves 36,780 to compute.
#[test]
fn gcn_align_dbp_wd_bench_repair_work_is_pinned() {
    let pair = load(DatasetName::DbpWd, DatasetScale::Bench);
    let train = TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::default()
    };
    let trained = build_model(ModelKind::GcnAlign, train).train(&pair);
    let config = ExeaConfig {
        candidate_search: CandidateSearch::Exact,
        ..ExeaConfig::default()
    };
    let outcome = ExEa::new(&pair, &trained, config).repair(&RepairConfig::default());
    let repaired = outcome.repaired.to_vec();
    let got = (
        pairs_digest(repaired.iter().map(|p| (p, None))),
        stats_digest(&outcome.stats),
    );
    assert_eq!(
        got,
        (0x9181_6c87_8d53_84a2, 0x2136_e8b2_8b24_8380),
        "got {got:#018x?}"
    );
    assert_eq!(
        outcome.work,
        RepairWork {
            cr2_scores: 258,
            cr3_detect_scores: 2447,
            cr3_realign_scores: 31_335,
            claim_scores: 2740,
            memo_reuses: 19_800,
        }
    );
    assert_eq!(outcome.work.scored() + outcome.work.memo_reuses, 56_580);
}
