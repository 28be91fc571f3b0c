//! Property suite pinning the LSM mutable engine to the single-index
//! engines: streaming alignment maintenance must never cost a bit.
//!
//! The contracts, over *any* interleaving of inserts, deletes, seals and
//! compactions:
//!
//! 1. **Segment invariance** — a [`MutableIndex`] search (canonical
//!    positions and entity ids) is bit-identical to a freshly built single exhaustive engine over the
//!    equivalent live corpus, for any segment split (seal budget), flat and
//!    SQ8 list storage.
//! 2. **Tombstone semantics** — insert-then-delete is indistinguishable
//!    from never-inserted; delete-then-reinsert resurrects the entity with
//!    the *new* row; a delete shadows every older generation of the entity
//!    across ≥3 sealed segments.
//! 3. **Compaction determinism** — the `compact()` output segment (its live
//!    rows and the answers of its k-means lists) is byte-identical for a
//!    given (input segments, seed), regardless of when compaction runs or
//!    how many rayon threads run it.
//!
//! The reference model is deliberately independent of the index internals:
//! a `Vec<(entity, raw row)>` where an insert moves the entity to the back
//! and a delete removes it — exactly the canonical (segment id, local row)
//! live order the module documents.

use ea_embed::lsm::{LsmParams, MutableIndex};
use ea_embed::{EmbeddingTable, IvfIndex, IvfListStorage, IvfParams, Sq8Params};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step of a mutation history, decoded from proptest integers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Delete(u32),
    Seal,
    Compact,
}

fn decode_ops(raw: &[(u8, u8)], entities: u32) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, ent)| {
            let entity = u32::from(ent) % entities.max(1);
            match kind % 10 {
                0..=5 => Op::Insert(entity),
                6 | 7 => Op::Delete(entity),
                8 => Op::Seal,
                _ => Op::Compact,
            }
        })
        .collect()
}

/// The independent reference model of the live corpus: last-insert order.
#[derive(Default)]
struct Model {
    rows: Vec<(u32, Vec<f32>)>,
}

impl Model {
    fn insert(&mut self, entity: u32, row: Vec<f32>) {
        self.rows.retain(|(e, _)| *e != entity);
        self.rows.push((entity, row));
    }

    fn delete(&mut self, entity: u32) -> bool {
        let before = self.rows.len();
        self.rows.retain(|(e, _)| *e != entity);
        self.rows.len() != before
    }

    /// The live corpus normalised exactly once, plus the entity of each row.
    fn live(&self, dim: usize) -> (EmbeddingTable, Vec<u32>) {
        let mut raw = EmbeddingTable::zeros(self.rows.len(), dim);
        for (i, (_, row)) in self.rows.iter().enumerate() {
            raw.row_mut(i).copy_from_slice(row);
        }
        let all: Vec<usize> = (0..self.rows.len()).collect();
        let entities = self.rows.iter().map(|(e, _)| *e).collect();
        (raw.gather_normalized(&all), entities)
    }
}

/// A fresh raw (unnormalised) row, deterministic in (seed, step).
fn raw_row(seed: u64, step: usize, dim: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (step as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..dim).map(|_| rng.gen_range(-1.0f32..=1.0)).collect()
}

fn normalized_queries(seed: u64, n_q: usize, dim: usize) -> EmbeddingTable {
    let mut rng = StdRng::seed_from_u64(seed);
    let q = EmbeddingTable::xavier(n_q, dim, &mut rng);
    let all: Vec<usize> = (0..n_q).collect();
    q.gather_normalized(&all)
}

/// Replays `ops` into both the index and the model.
fn replay(index: &mut MutableIndex, model: &mut Model, ops: &[Op], seed: u64, dim: usize) {
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(entity) => {
                let row = raw_row(seed, step, dim);
                index.insert(entity, &row);
                model.insert(entity, row);
            }
            Op::Delete(entity) => {
                let existed = index.remove(entity);
                assert_eq!(existed, model.delete(entity), "step {step}");
            }
            Op::Seal => index.seal(),
            Op::Compact => index.compact(),
        }
    }
}

fn bits(list: &[ea_embed::topk::Ranked]) -> Vec<(u32, u32)> {
    list.iter().map(|r| (r.index, r.score.to_bits())).collect()
}

/// Both directions of the bit-identity pin: canonical positions against a
/// fresh single exhaustive engine over the model's live corpus, and entity
/// ids against the model's row → entity map.
fn assert_matches_model(index: &MutableIndex, model: &Model, queries: &EmbeddingTable, k: usize) {
    let dim = queries.dim();
    let (live, entities) = model.live(dim);
    assert_eq!(index.len(), entities.len(), "live row count");
    let cap = k.min(entities.len());
    let flat = index.search_flat(queries, k);
    if cap == 0 {
        assert!(flat.is_empty());
        return;
    }
    let single = IvfIndex::build(&live, &IvfParams::exhaustive());
    let want: Vec<(u32, u32)> = single
        .search(queries, &live, cap, usize::MAX)
        .into_iter()
        .flatten()
        .map(|(r, s)| (r, s.to_bits()))
        .collect();
    assert_eq!(bits(&flat), want, "canonical positions + score bits");
    let by_entity = index.search(queries, k);
    let remapped: Vec<(u32, u32)> = want
        .iter()
        .map(|&(r, s)| (entities[r as usize], s))
        .collect();
    assert_eq!(bits(&by_entity), remapped, "entity ids + score bits");
}

fn params(seal_rows: usize, sq8: bool) -> LsmParams {
    LsmParams {
        seal_rows,
        ivf: IvfParams {
            storage: if sq8 {
                IvfListStorage::Sq8(Sq8Params::default())
            } else {
                IvfListStorage::Flat
            },
            ..IvfParams::exhaustive()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Contract 1 + 2, randomly interleaved: any history of inserts,
    /// deletes, seals and compactions over any seal budget answers
    /// bit-identically to a fresh single engine over the live corpus.
    #[test]
    fn any_interleaving_matches_a_fresh_single_engine(
        seed in 0u64..10_000,
        raw_ops in proptest::collection::vec((0u8..=255, 0u8..=255), 1..60),
        entities in 1u32..24,
        seal_rows in 1usize..16,
        n_q in 1usize..8,
        k in 1usize..8,
        dim in 2usize..8,
    ) {
        let ops = decode_ops(&raw_ops, entities);
        let queries = normalized_queries(seed ^ 0xABCD, n_q, dim);
        let mut index = MutableIndex::new(dim, params(seal_rows, false));
        let mut model = Model::default();
        replay(&mut index, &mut model, &ops, seed, dim);
        assert_matches_model(&index, &model, &queries, k);
        // And again after folding everything into one segment.
        index.compact();
        assert_matches_model(&index, &model, &queries, k);
    }

    /// Contract 2a: an entity inserted and later deleted leaves the index
    /// bit-identical to one that never saw it — across segment boundaries.
    #[test]
    fn insert_then_delete_equals_never_inserted(
        seed in 0u64..10_000,
        base in 1usize..24,
        extras in 1usize..12,
        seal_rows in 1usize..10,
        n_q in 1usize..6,
        k in 1usize..6,
        dim in 2usize..8,
    ) {
        let queries = normalized_queries(seed ^ 0x5A5A, n_q, dim);
        let p = params(seal_rows, false);
        let mut with = MutableIndex::new(dim, p.clone());
        let mut without = MutableIndex::new(dim, p);
        // Interleave the doomed extras among the base inserts so they land
        // in many segments, then delete every one of them.
        for i in 0..base.max(extras) {
            if i < base {
                let row = raw_row(seed, i, dim);
                with.insert(i as u32, &row);
                without.insert(i as u32, &row);
            }
            if i < extras {
                let row = raw_row(seed ^ 0xE0E0, i, dim);
                with.insert(1000 + i as u32, &row);
            }
        }
        for i in 0..extras {
            prop_assert!(with.remove(1000 + i as u32));
        }
        prop_assert_eq!(with.len(), without.len());
        assert_eq!(
            bits(&with.search(&queries, k)),
            bits(&without.search(&queries, k)),
            "deleted extras must leave no trace"
        );
    }

    /// Contract 2b + 2c: across ≥3 sealed generations of the same entity,
    /// exactly the newest row answers; a delete shadows all generations;
    /// a reinsert after the delete resurrects with the newest row only.
    #[test]
    fn tombstones_shadow_every_older_generation(
        seed in 0u64..10_000,
        victims in 1usize..6,
        bystanders in 1usize..10,
        generations in 3usize..6,
        k in 1usize..6,
        dim in 2usize..8,
    ) {
        let queries = normalized_queries(seed ^ 0x7777, 4, dim);
        let mut index = MutableIndex::new(dim, params(usize::MAX, false));
        let mut model = Model::default();
        for i in 0..bystanders {
            let row = raw_row(seed, 9_000 + i, dim);
            index.insert(100 + i as u32, &row);
            model.insert(100 + i as u32, row);
        }
        // Each generation of each victim lands in its own sealed segment.
        for g in 0..generations {
            for v in 0..victims {
                let row = raw_row(seed, g * 100 + v, dim);
                index.insert(v as u32, &row);
                model.insert(v as u32, row);
            }
            index.seal();
        }
        prop_assert!(index.segments() >= 3);
        assert_matches_model(&index, &model, &queries, k);
        // Delete: every generation is shadowed at once.
        for v in 0..victims {
            prop_assert!(index.remove(v as u32));
            model.delete(v as u32);
        }
        assert_matches_model(&index, &model, &queries, k);
        // Reinsert: resurrects with the new row, not any sealed ancestor.
        for v in 0..victims {
            let row = raw_row(seed, 50_000 + v, dim);
            index.insert(v as u32, &row);
            model.insert(v as u32, row);
        }
        assert_matches_model(&index, &model, &queries, k);
        // Compaction drops the shadowed generations without changing bits.
        index.compact();
        assert_matches_model(&index, &model, &queries, k);
    }

    /// Contract 1, list-storage parity: at exhaustive per-segment
    /// settings the same history over SQ8 list storage answers
    /// bit-identically to flat list storage (SQ8 still re-ranks to
    /// bit-exact scores).
    #[test]
    fn sq8_and_flat_segments_answer_identically(
        seed in 0u64..10_000,
        raw_ops in proptest::collection::vec((0u8..=255, 0u8..=255), 1..30),
        entities in 1u32..16,
        seal_rows in 1usize..8,
        k in 1usize..6,
        dim in 2usize..8,
    ) {
        let ops = decode_ops(&raw_ops, entities);
        let queries = normalized_queries(seed ^ 0x1111, 4, dim);
        let mut sq8 = MutableIndex::new(dim, params(seal_rows, true));
        let mut flat = MutableIndex::new(dim, params(seal_rows, false));
        let mut model_a = Model::default();
        let mut model_b = Model::default();
        replay(&mut sq8, &mut model_a, &ops, seed, dim);
        replay(&mut flat, &mut model_b, &ops, seed, dim);
        assert_eq!(
            bits(&sq8.search(&queries, k)),
            bits(&flat.search(&queries, k)),
            "sq8 segments vs flat segments"
        );
    }

    /// Contract 3: for a fixed (sealed segment set, tombstones, seed) the
    /// compacted segment is byte-identical no matter when compaction runs
    /// relative to other work. One probe per query makes the answers
    /// depend on the compaction's k-means lists, not just on its rows.
    /// (The thread-count axis runs in `lsm_threads.rs`, which re-executes
    /// the build under different `RAYON_NUM_THREADS` — the shim fixes the
    /// pool size per process.)
    #[test]
    fn compaction_is_byte_deterministic_across_timing(
        seed in 0u64..10_000,
        rows in 2usize..32,
        deletes in 0usize..8,
        seal_rows in 1usize..8,
        dim in 2usize..8,
    ) {
        let queries = normalized_queries(seed ^ 0x9999, 3, dim);
        let build = |seed: u64| {
            let params = LsmParams {
                seal_rows,
                ivf: IvfParams {
                    nprobe: 1,
                    ..IvfParams::default()
                },
            };
            let mut index = MutableIndex::new(dim, params);
            for i in 0..rows {
                index.insert(i as u32, &raw_row(seed, i, dim));
            }
            // Leave at least one live row so compaction has output.
            for d in 0..deletes.min(rows - 1) {
                index.remove(d as u32);
            }
            index.seal();
            index
        };
        let dump = |index: &MutableIndex| {
            let (live, entities) = index.live_table();
            let mut out: Vec<u8> = live.data().iter().flat_map(|v| v.to_le_bytes()).collect();
            out.extend(entities.iter().flat_map(|e| e.to_le_bytes()));
            for (id, score) in bits(&index.search(&queries, 4)) {
                out.extend(id.to_le_bytes());
                out.extend(score.to_le_bytes());
            }
            out
        };

        // Baseline: compact immediately on the ambient pool.
        let mut a = build(seed);
        a.compact();
        prop_assert_eq!(a.segments(), 1);
        let bytes_a = dump(&a);

        // Same inputs, compacted later, after unrelated query work.
        let mut b = build(seed);
        let _ = b.search(&queries, 4);
        b.compact();
        let bytes_b = dump(&b);
        prop_assert_eq!(bytes_a.len(), bytes_b.len(), "dump length");
        prop_assert!(bytes_a == bytes_b, "compacted segments must match byte for byte");
    }
}
