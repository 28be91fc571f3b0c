//! Bit pins of the trained entity tables of the two hard-negative models.
//!
//! Dual-AMN and AlignE mine hard negatives from a `HardNegativeCache` that
//! is refreshed every few epochs, so any change to how the cache is built,
//! refreshed or sampled (neighbour lists, tie-breaks, RNG draws) shows up as
//! different trained embeddings. These tests hash the exact bits of both trained
//! entity tables on ZH-EN `Small` and compare them against recorded digests;
//! a change to either model's training that is meant to be bit-preserving
//! must keep them.
//!
//! The `TrainConfig::fast()` pins were recorded before the cache build became
//! a blocked self-join. The default-config pins cover the schedule the repo
//! benchmark trains with — more refreshes, Dual-AMN's 64-wide concatenated
//! table and its post-anchor phase — and were recorded before the cache
//! started building lists only for the rows training queries. Both sets
//! predate the in-place refresh that rescores only the changed rows.

use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::{CandidateSearch, EmbeddingTable};
use ea_graph::KgSide;
use ea_models::{AlignE, DualAmn, EaModel, TrainConfig};

/// FNV-1a (64-bit) over the shape and the little-endian bits of every entry.
fn table_digest(table: &EmbeddingTable) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    feed(&(table.rows() as u64).to_le_bytes());
    feed(&(table.dim() as u64).to_le_bytes());
    for &x in table.data() {
        feed(&x.to_bits().to_le_bytes());
    }
    hash
}

/// `TrainConfig::fast()` with the exact candidate engine pinned, so the
/// `EXEA_CANDIDATE_SEARCH` override cannot move Dual-AMN's anchor mining.
fn config() -> TrainConfig {
    TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::fast()
    }
}

/// `TrainConfig::default()` with the exact candidate engine pinned.
fn default_config() -> TrainConfig {
    TrainConfig {
        candidate_search: CandidateSearch::Exact,
        ..TrainConfig::default()
    }
}

fn digests(model: &dyn EaModel) -> (u64, u64) {
    let pair = load(DatasetName::ZhEn, DatasetScale::Small);
    let trained = model.train(&pair);
    (
        table_digest(trained.entities(KgSide::Source)),
        table_digest(trained.entities(KgSide::Target)),
    )
}

#[test]
fn dual_amn_trained_tables_are_pinned() {
    let (source, target) = digests(&DualAmn::new(config()));
    assert_eq!(
        source, 0xc7f0_d080_9211_c8d3,
        "source table: {source:#018x}"
    );
    assert_eq!(
        target, 0xfbb8_35d6_820b_4043,
        "target table: {target:#018x}"
    );
}

#[test]
fn aligne_trained_tables_are_pinned() {
    let (source, target) = digests(&AlignE::new(config()));
    assert_eq!(
        source, 0xe79f_ab13_e538_4c33,
        "source table: {source:#018x}"
    );
    assert_eq!(
        target, 0xde75_cbbe_5d81_f2f8,
        "target table: {target:#018x}"
    );
}

#[test]
fn dual_amn_default_config_tables_are_pinned() {
    let (source, target) = digests(&DualAmn::new(default_config()));
    assert_eq!(
        source, 0xb2cd_df10_5e6d_1080,
        "source table: {source:#018x}"
    );
    assert_eq!(
        target, 0x950a_f73d_3fd4_0fb2,
        "target table: {target:#018x}"
    );
}

#[test]
fn aligne_default_config_tables_are_pinned() {
    let (source, target) = digests(&AlignE::new(default_config()));
    assert_eq!(
        source, 0xc825_e792_ad6f_7988,
        "source table: {source:#018x}"
    );
    assert_eq!(
        target, 0xd271_0f30_b472_79d8,
        "target table: {target:#018x}"
    );
}
