//! LSM-style incremental corpora: live inserts/deletes over the candidate
//! ladder, with deterministic compaction.
//!
//! Every other engine in this crate is build-once: any insert or delete
//! means a full rebuild. A [`MutableIndex`] lifts that restriction the way
//! log-structured merge trees do, with time-ordered segments plus shadow
//! masks:
//!
//! * **Sealed segments** — immutable per-segment engines over earlier rows:
//!   the rows plus an [`IvfIndex`] over them. Exactly the single engine the
//!   property suites pin, over a subset of the live rows.
//! * **The mutable segment** — a small in-memory tail of recently inserted
//!   rows, normalised once on insert and scanned *exactly* with the shared
//!   [`crate::kernel`] (clamped bit-exact dots, like every engine).
//! * **Tombstones** — a delete (or a re-insert) shadows all older rows with
//!   the same entity id: shadowed rows are masked out of each segment's
//!   partial list *before* the merge, so they can never displace a live
//!   candidate.
//!
//! Queries run gather-merge: each segment answers with a best-first partial
//! top-k list (over-fetched by the segment's shadowed-row count, so masking
//! can never starve the merge), shadowed rows are filtered, segment-local
//! rows are remapped to *canonical live positions* — ascending (segment id,
//! local row), mutable segment last — and the per-query lists are folded
//! through one [`TopK`] ([`TopK::merge`]). The remap is monotone within
//! each segment and `rank_cmp` is a strict total order, so the merged
//! selection is a pure function of the candidate multiset: a search over N
//! segments is **bit-identical** — ids and score bits — to a single engine
//! built over the live rows gathered in canonical order (`tests/prop_lsm.rs`
//! pins it for any interleaving of inserts, deletes, seals and compactions,
//! at exhaustive per-segment settings; below them the approximation stays
//! subset-only, scores always bit-exact).
//!
//! When the mutable segment reaches [`LsmParams::seal_rows`] buffered rows
//! it is sealed into a new segment. [`MutableIndex::compact`] folds all
//! sealed segments + tombstones into one re-clustered segment: live rows
//! are gathered in ascending (segment id, local row) order and rebuilt with
//! the seeded ChaCha8 k-means, so the output segment is a pure function of
//! (input segments, seed) regardless of when — or on how many threads — it
//! runs. Seals and compactions cannot fail. Compaction is synchronous and
//! caller-driven: nothing in this module reads a clock, so *when* to
//! compact is policy the caller owns (`exea-serve` compacts on a
//! segment-count threshold and serves its full tier from this engine).

use crate::ann::{IvfIndex, IvfParams, ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::topk::{Ranked, TopK};
use crate::vector;
use rayon::prelude::*;
use std::collections::HashMap;

/// Default row budget of the mutable segment before it is sealed.
const DEFAULT_SEAL_ROWS: usize = 512;

/// Tuning knobs of the LSM engine.
///
/// The default favours validation, like [`IvfParams::exhaustive`]: every
/// inverted list of every sealed segment is probed, so the engine is
/// bit-identical to the exact scan over the live rows. Dial
/// `ivf.nprobe` down (or switch `ivf.storage` to SQ8) to trade recall for
/// speed once a deployment is validated — the approximation stays
/// subset-only either way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmParams {
    /// Buffered-row budget of the in-memory mutable segment: an insert that
    /// fills the buffer to this many rows (live or shadowed) seals it into
    /// an immutable segment. Clamped to at least 1.
    pub seal_rows: usize,
    /// The per-segment engine: list storage (flat or SQ8) and probing.
    /// Auto-tuned knobs (`nlist`, `nprobe`) resolve against each segment's
    /// row count; `seed` drives the ChaCha8 k-means of seals and
    /// compactions.
    pub ivf: IvfParams,
}

impl Default for LsmParams {
    fn default() -> Self {
        Self {
            seal_rows: DEFAULT_SEAL_ROWS,
            ivf: IvfParams::exhaustive(),
        }
    }
}

impl LsmParams {
    /// The seal budget actually used (at least one row).
    pub fn resolved_seal_rows(&self) -> usize {
        self.seal_rows.max(1)
    }
}

/// Where one entity's live row currently lives.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Row `row` of sealed segment `seg` (index into the sealed vector).
    Sealed { seg: u32, row: u32 },
    /// Row `row` of the mutable segment's buffer.
    Mem { row: u32 },
}

/// One immutable sealed segment: its rows, the [`IvfIndex`] over them, its
/// local-row → entity map and the shadow mask newer inserts/deletes
/// maintain.
#[derive(Debug)]
struct Segment {
    /// The segment rows, normalised, in segment-local order.
    table: EmbeddingTable,
    /// The engine over `table` (owns the SQ8 codes when the params ask for
    /// them).
    index: IvfIndex,
    /// `entities[local]` is the entity id of segment-local row `local`.
    entities: Vec<u32>,
    /// `alive[local]` — false once a newer segment shadows the row.
    alive: Vec<bool>,
    /// Count of shadowed rows (`alive` entries that are false).
    dead: usize,
}

impl Segment {
    /// A segment over `table`'s rows, all live, built per `params`. Rows
    /// are used as stored (already normalised: dividing a unit row by its
    /// ≈1.0 norm again would perturb the low bits and break bit-identity
    /// with a single engine).
    fn build(table: EmbeddingTable, entities: Vec<u32>, params: &LsmParams) -> Segment {
        Segment {
            index: IvfIndex::build(&table, &params.ivf),
            table,
            alive: vec![true; entities.len()],
            dead: 0,
            entities,
        }
    }

    fn rows(&self) -> usize {
        self.entities.len()
    }

    fn live(&self) -> usize {
        self.entities.len() - self.dead
    }

    /// Appends this segment's live rows (ascending local order, the
    /// canonical order) to `data`/`entities` — the compaction gather.
    fn gather_live(&self, data: &mut Vec<f32>, entities: &mut Vec<u32>) {
        for (local, &alive) in self.alive.iter().enumerate() {
            if alive {
                data.extend_from_slice(self.table.row(local));
                entities.push(self.entities[local]);
            }
        }
    }
}

/// The append-only in-memory mutable segment: rows normalised once on
/// insert, shadow mask maintained in place, exact-scanned at query time.
#[derive(Debug, Default)]
struct MemSegment {
    data: Vec<f32>,
    entities: Vec<u32>,
    alive: Vec<bool>,
    dead: usize,
}

impl MemSegment {
    fn rows(&self) -> usize {
        self.entities.len()
    }

    fn live(&self) -> usize {
        self.entities.len() - self.dead
    }

    fn clear(&mut self) {
        self.data.clear();
        self.entities.clear();
        self.alive.clear();
        self.dead = 0;
    }
}

/// The LSM-style mutable candidate engine: immutable sealed segments plus a
/// small exact-scanned mutable segment, queried through one deterministic
/// gather-merge. See the [module docs](self) for the invariants.
#[derive(Debug)]
pub struct MutableIndex {
    dim: usize,
    params: LsmParams,
    sealed: Vec<Segment>,
    mem: MemSegment,
    /// entity id → its single live row. Lookups only — never iterated, so
    /// hash order can't leak into results.
    live: HashMap<u32, Slot>,
}

impl MutableIndex {
    /// An empty mutable index over `dim`-dimensional embeddings.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize, params: LsmParams) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        Self {
            dim,
            params,
            sealed: Vec::new(),
            mem: MemSegment::default(),
            live: HashMap::new(),
        }
    }

    /// Embedding dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of live rows (one per live entity).
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no entity is live.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of sealed segments.
    pub fn segments(&self) -> usize {
        self.sealed.len()
    }

    /// Rows currently buffered in the mutable segment (live or shadowed).
    pub fn mem_rows(&self) -> usize {
        self.mem.rows()
    }

    /// Whether `entity` currently has a live row.
    pub fn contains(&self, entity: u32) -> bool {
        self.live.contains_key(&entity)
    }

    /// The parameters this index was built with.
    pub fn params(&self) -> &LsmParams {
        &self.params
    }

    /// Heap bytes the index keeps for searching.
    pub fn resident_bytes(&self) -> usize {
        self.mem.data.len() * 4
            + self.mem.entities.len() * 5
            + self
                .sealed
                .iter()
                .map(|seg| {
                    seg.entities.len() * 5 + seg.table.data().len() * 4 + seg.index.resident_bytes()
                })
                .sum::<usize>()
    }

    /// Shadows any current live row of `entity` (marks it dead in whichever
    /// segment holds it). Returns whether a row was shadowed.
    fn shadow(&mut self, entity: u32) -> bool {
        match self.live.remove(&entity) {
            None => false,
            Some(Slot::Sealed { seg, row }) => {
                let segment = &mut self.sealed[seg as usize];
                debug_assert!(segment.alive[row as usize]);
                segment.alive[row as usize] = false;
                segment.dead += 1;
                true
            }
            Some(Slot::Mem { row }) => {
                debug_assert!(self.mem.alive[row as usize]);
                self.mem.alive[row as usize] = false;
                self.mem.dead += 1;
                true
            }
        }
    }

    /// Inserts (or replaces) the row of `entity`. The row is L2-normalised
    /// exactly once, with the same kernel [`EmbeddingTable::gather_normalized`]
    /// uses — pass the *raw* embedding; zero-norm rows come out all-zero
    /// under the usual degenerate-embedding contract.
    ///
    /// A previous row of the same entity (any segment) is shadowed. When
    /// the mutable segment reaches the seal budget it is sealed; the
    /// returned flag says whether that happened.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn insert(&mut self, entity: u32, row: &[f32]) -> bool {
        assert_eq!(row.len(), self.dim, "row length mismatch");
        self.shadow(entity);
        let local = self.mem.rows() as u32;
        let start = self.mem.data.len();
        self.mem.data.resize(start + self.dim, 0.0);
        normalize_into(row, &mut self.mem.data[start..]);
        self.mem.entities.push(entity);
        self.mem.alive.push(true);
        self.live.insert(entity, Slot::Mem { row: local });
        if self.mem.rows() >= self.params.resolved_seal_rows() {
            self.seal();
            return true;
        }
        false
    }

    /// Deletes `entity`'s row, if live: records a tombstone that shadows
    /// every older row with this entity id. Returns whether a row existed.
    pub fn remove(&mut self, entity: u32) -> bool {
        self.shadow(entity)
    }

    /// Seals the mutable segment into an immutable one: its live rows (in
    /// insertion order) become a new sealed segment built with
    /// `params.ivf`. A no-op when no live row is buffered (shadowed buffer
    /// rows are discarded).
    pub fn seal(&mut self) {
        if self.mem.live() == 0 {
            self.mem.clear();
            return;
        }
        let mut data = Vec::with_capacity(self.mem.live() * self.dim);
        let mut entities = Vec::with_capacity(self.mem.live());
        for (local, &alive) in self.mem.alive.iter().enumerate() {
            if alive {
                data.extend_from_slice(&self.mem.data[local * self.dim..(local + 1) * self.dim]);
                entities.push(self.mem.entities[local]);
            }
        }
        let table = EmbeddingTable::from_data(entities.len(), self.dim, data);
        let segment = Segment::build(table, entities, &self.params);
        let seg = self.sealed.len() as u32;
        for (row, &entity) in segment.entities.iter().enumerate() {
            self.live.insert(
                entity,
                Slot::Sealed {
                    seg,
                    row: row as u32,
                },
            );
        }
        self.sealed.push(segment);
        self.mem.clear();
    }

    /// Folds all sealed segments + tombstones into one re-clustered
    /// segment. Live rows are gathered in ascending (segment id, local
    /// row) order and rebuilt with the seeded ChaCha8 k-means, so the
    /// output segment is a pure function of (input segments, seed) — no
    /// matter when, or on how many threads, compaction runs. The mutable
    /// segment is untouched; canonical live positions are preserved.
    ///
    /// Synchronous and caller-driven — this module never schedules it.
    pub fn compact(&mut self) {
        if self.sealed.is_empty() {
            return;
        }
        let live_sealed: usize = self.sealed.iter().map(Segment::live).sum();
        if live_sealed == 0 {
            self.sealed.clear();
            return;
        }
        let mut data = Vec::with_capacity(live_sealed * self.dim);
        let mut entities = Vec::with_capacity(live_sealed);
        for seg in &self.sealed {
            seg.gather_live(&mut data, &mut entities);
        }
        let table = EmbeddingTable::from_data(entities.len(), self.dim, data);
        let segment = Segment::build(table, entities, &self.params);
        for (row, &entity) in segment.entities.iter().enumerate() {
            self.live.insert(
                entity,
                Slot::Sealed {
                    seg: 0,
                    row: row as u32,
                },
            );
        }
        self.sealed = vec![segment];
    }

    /// The live corpus in canonical order: rows gathered ascending
    /// (segment id, local row), mutable segment last, plus the entity id of
    /// each row. A single engine built over this table is what
    /// [`MutableIndex::search_flat`] is bit-identical to (at exhaustive
    /// per-segment settings) — the reference the property suite compares
    /// against, and a convenient export for rebuilds.
    pub fn live_table(&self) -> (EmbeddingTable, Vec<u32>) {
        let mut data = Vec::with_capacity(self.len() * self.dim);
        let mut entities = Vec::with_capacity(self.len());
        for seg in &self.sealed {
            seg.gather_live(&mut data, &mut entities);
        }
        for (local, &alive) in self.mem.alive.iter().enumerate() {
            if alive {
                data.extend_from_slice(&self.mem.data[local * self.dim..(local + 1) * self.dim]);
                entities.push(self.mem.entities[local]);
            }
        }
        (
            EmbeddingTable::from_data(entities.len(), self.dim, data),
            entities,
        )
    }

    /// Canonical-position → entity id map (the row order of
    /// [`MutableIndex::live_table`]).
    fn canonical_entities(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.sealed {
            for (local, &alive) in seg.alive.iter().enumerate() {
                if alive {
                    out.push(seg.entities[local]);
                }
            }
        }
        for (local, &alive) in self.mem.alive.iter().enumerate() {
            if alive {
                out.push(self.mem.entities[local]);
            }
        }
        out
    }

    /// Canonical live positions of one segment's local rows (`u32::MAX`
    /// for shadowed rows, which are filtered before use) plus the position
    /// after the segment's last live row.
    fn canonical_positions(alive: &[bool], base: u32) -> (Vec<u32>, u32) {
        let mut pos = vec![u32::MAX; alive.len()];
        let mut next = base;
        for (local, &a) in alive.iter().enumerate() {
            if a {
                pos[local] = next;
                next += 1;
            }
        }
        (pos, next)
    }

    /// Searches the live corpus: flattened best-first top-`min(k, len)`
    /// lists, one per query row, `Ranked::index` being the **canonical live
    /// position** (the row of [`MutableIndex::live_table`]) — the form
    /// that is bit-identical to a single engine over the live table. Use
    /// [`MutableIndex::search`] for entity ids.
    ///
    /// Queries must already be normalised (like every engine in the crate).
    ///
    /// # Panics
    /// Panics if `queries.dim() != self.dim()`.
    pub fn search_flat(&self, queries: &EmbeddingTable, k: usize) -> Vec<Ranked> {
        assert_eq!(queries.dim(), self.dim, "query dimension mismatch");
        let cap = k.min(self.len());
        let n_q = queries.rows();
        if cap == 0 || n_q == 0 {
            return Vec::new();
        }

        // Scatter: per-segment partial lists in fixed segment order, each
        // over-fetched by the segment's shadowed-row count (at most `dead`
        // shadowed rows can outrank a live one, so the segment's live
        // top-`cap` always survives the filter), shadowed rows masked,
        // local rows remapped to canonical positions. The remap is
        // monotone over live rows, so each filtered list stays best-first
        // sorted under `rank_cmp` — ready for the gather merge.
        let mut base = 0u32;
        let mut partials: Vec<Vec<Vec<Ranked>>> = Vec::with_capacity(self.sealed.len() + 1);
        for seg in &self.sealed {
            if seg.live() == 0 {
                partials.push(vec![Vec::new(); n_q]);
                continue;
            }
            let (pos, next) = Self::canonical_positions(&seg.alive, base);
            let cap_s = (cap + seg.dead).min(seg.rows());
            let nprobe = self.params.ivf.resolved_nprobe(seg.index.nlist());
            let flat = seg.index.search_flat(queries, &seg.table, cap_s, nprobe);
            debug_assert_eq!(flat.len(), n_q * cap_s, "segment lists must be full");
            let lists: Vec<Vec<Ranked>> = (0..n_q)
                .map(|q| {
                    flat[q * cap_s..(q + 1) * cap_s]
                        .iter()
                        .filter(|r| seg.alive[r.index as usize])
                        .map(|r| Ranked {
                            score: r.score,
                            index: pos[r.index as usize],
                        })
                        .collect()
                })
                .collect();
            partials.push(lists);
            base = next;
        }
        if self.mem.live() > 0 {
            partials.push(self.scan_mem(queries, cap, base));
        }

        // Gather: per query, fold the partial lists through one selector
        // in fixed segment order, over fixed query tiles concatenated in
        // query order — the merge contract makes the kept set a pure
        // function of the candidate multiset, so segment boundaries (and
        // rayon scheduling inside the scatter) can't change a bit.
        let tiles: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
        tiles
            .par_iter()
            .map(|&start| {
                let end = (start + ROW_TILE).min(n_q);
                let mut out = Vec::with_capacity((end - start) * cap);
                for q in start..end {
                    let mut select = TopK::new(cap);
                    for lists in &partials {
                        select.merge(&lists[q]);
                    }
                    let merged = select.into_sorted();
                    debug_assert_eq!(merged.len(), cap, "partials must fill every selection");
                    out.extend(merged);
                }
                out
            })
            .collect::<Vec<_>>()
            .concat()
    }

    /// [`MutableIndex::search_flat`] with `Ranked::index` remapped to
    /// **entity ids** after selection — the caller-facing form. Scores are
    /// identical; within a run of bit-equal scores the order still follows
    /// canonical position (selection happens before the remap).
    pub fn search(&self, queries: &EmbeddingTable, k: usize) -> Vec<Ranked> {
        let order = self.canonical_entities();
        let mut flat = self.search_flat(queries, k);
        for r in &mut flat {
            r.index = order[r.index as usize];
        }
        flat
    }

    /// Exact scan of the mutable segment: per-query best-first top-`cap`
    /// lists over its live rows, canonical positions starting at `base`.
    /// Scores are the clamped register-blocked kernel dots — bit-identical
    /// to every other engine by the kernel's determinism contract.
    fn scan_mem(&self, queries: &EmbeddingTable, cap: usize, base: u32) -> Vec<Vec<Ranked>> {
        let n_q = queries.rows();
        let rows = self.mem.rows();
        let (pos, _) = Self::canonical_positions(&self.mem.alive, base);
        let blocks: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
        let nested: Vec<Vec<Vec<Ranked>>> = blocks
            .par_iter()
            .map(|&start| {
                let end = (start + ROW_TILE).min(n_q);
                let mut scores = vec![0.0f32; rows];
                let mut lists = Vec::with_capacity(end - start);
                for q in start..end {
                    kernel::scan_block(queries.row(q), &self.mem.data, self.dim, &mut scores);
                    let mut select = TopK::new(cap);
                    for (local, &raw) in scores.iter().enumerate() {
                        if self.mem.alive[local] {
                            select.push(raw.clamp(-1.0, 1.0), pos[local]);
                        }
                    }
                    lists.push(select.into_sorted());
                }
                lists
            })
            .collect();
        nested.concat()
    }
}

/// L2-normalises `row` into `out` with the exact arithmetic of
/// [`EmbeddingTable::normalized_row_into`] (norm, reciprocal, per-element
/// multiply; zero-norm rows come out all-zero) — rows inserted live must be
/// bit-identical to the one-time gather the build-once engines run.
fn normalize_into(row: &[f32], out: &mut [f32]) {
    let n = vector::norm(row);
    if n > f32::EPSILON {
        let inv = 1.0 / n;
        for (o, &v) in out.iter_mut().zip(row) {
            *o = v * inv;
        }
    } else {
        out.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn raw_table(seed: u64, rows: usize, dim: usize) -> EmbeddingTable {
        let mut rng = StdRng::seed_from_u64(seed);
        EmbeddingTable::xavier(rows, dim, &mut rng)
    }

    fn normalized(table: &EmbeddingTable) -> EmbeddingTable {
        let all: Vec<usize> = (0..table.rows()).collect();
        table.gather_normalized(&all)
    }

    fn small_params(seal_rows: usize) -> LsmParams {
        LsmParams {
            seal_rows,
            ..LsmParams::default()
        }
    }

    fn fill(index: &mut MutableIndex, table: &EmbeddingTable) {
        for i in 0..table.rows() {
            index.insert(i as u32, table.row(i));
        }
    }

    fn bits(list: &[Ranked]) -> Vec<(u32, u32)> {
        list.iter().map(|r| (r.index, r.score.to_bits())).collect()
    }

    #[test]
    fn insert_normalises_like_the_one_time_gather() {
        let raw = raw_table(1, 40, 9);
        let mut index = MutableIndex::new(9, small_params(16));
        fill(&mut index, &raw);
        let (live, entities) = index.live_table();
        let reference = normalized(&raw);
        assert_eq!(index.len(), 40);
        assert!(index.segments() >= 2, "the seal budget must have tripped");
        for (row, &entity) in entities.iter().enumerate() {
            let want: Vec<u32> = reference
                .row(entity as usize)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let got: Vec<u32> = live.row(row).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "entity {entity}");
        }
    }

    #[test]
    fn segmented_search_matches_single_engine_over_live_table() {
        let raw = raw_table(2, 120, 12);
        let queries = normalized(&raw_table(3, 7, 12));
        let mut index = MutableIndex::new(12, small_params(32));
        fill(&mut index, &raw);
        for e in [5u32, 17, 64, 100] {
            assert!(index.remove(e));
        }
        let (live, _) = index.live_table();
        let cap = 10usize.min(index.len());
        let single = IvfIndex::build(&live, &IvfParams::exhaustive());
        let want = single.search_flat(&queries, &live, cap, usize::MAX);
        let got = index.search_flat(&queries, cap);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn delete_then_reinsert_resurrects_with_the_new_row() {
        let raw = raw_table(4, 30, 8);
        let mut index = MutableIndex::new(8, small_params(10));
        fill(&mut index, &raw);
        assert!(index.remove(7));
        assert!(!index.contains(7));
        assert!(!index.remove(7), "double delete is a no-op");
        let replacement = raw_table(5, 1, 8);
        index.insert(7, replacement.row(0));
        assert!(index.contains(7));
        assert_eq!(index.len(), 30);
        let queries = normalized(&replacement);
        let hits = index.search(&queries, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].index, 7, "the new row must answer for entity 7");
    }

    #[test]
    fn compaction_folds_everything_into_one_segment() {
        let raw = raw_table(6, 90, 10);
        let queries = normalized(&raw_table(7, 5, 10));
        let mut index = MutableIndex::new(10, small_params(20));
        fill(&mut index, &raw);
        for e in [3u32, 25, 71] {
            index.remove(e);
        }
        index.seal();
        let before = index.search(&queries, 8);
        assert!(index.segments() > 1);
        index.compact();
        assert_eq!(index.segments(), 1);
        assert_eq!(index.len(), 87);
        let after = index.search(&queries, 8);
        assert_eq!(bits(&after), bits(&before), "compaction preserves results");
    }

    #[test]
    fn empty_and_degenerate_searches_are_safe() {
        let mut index = MutableIndex::new(6, small_params(4));
        let queries = normalized(&raw_table(8, 3, 6));
        assert!(index.search_flat(&queries, 5).is_empty());
        index.compact(); // compacting nothing is a no-op
        index.seal(); // sealing nothing is a no-op
        index.insert(1, &[0.0; 6]); // zero-norm row
        let hits = index.search(&queries, 5);
        assert_eq!(hits.len(), 3, "one live row, three queries");
        assert!(hits.iter().all(|r| r.index == 1 && r.score == 0.0));
    }
}
