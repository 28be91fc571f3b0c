//! Sharded scatter-gather candidate generation: horizontal scale-out of the
//! candidate ladder.
//!
//! Sharding is the crate's segment layer under a clustered partition plus a
//! centroid router. A [`ShardedIndex`] splits the (normalised) corpus into
//! `nshards` partitions and builds one segment per shard — the shard's rows
//! plus an [`IvfIndex`](crate::IvfIndex) over them — plus the shard-local →
//! global row map. The LSM engine ([`crate::MutableIndex`]) runs on the
//! same segments. Each segment is exactly the single-container
//! engine the rest of the crate already defends, over a subset of the rows;
//! nothing about per-shard scoring changes.
//!
//! Queries run scatter-gather:
//!
//! 1. **Route** — a [`ShardRouter`] ranks shards for each query by
//!    IVF-centroid proximity (the best clamped dot against any of the
//!    shard's coarse centroids), so most queries need to probe only a few
//!    shards. Minimum-fill applies at the shard level too: more shards, in
//!    router rank order, whenever the routed shards hold fewer than
//!    `min(k, n)` rows.
//! 2. **Scatter** — the routed shards are fanned over the rayon pool in
//!    fixed shard order; every shard answers its queries with the shared
//!    engine paths ([`IvfIndex::search`](crate::IvfIndex::search) internals)
//!    and returns a best-first partial top-k list whose shard-local row ids
//!    are remapped to global corpus rows.
//! 3. **Gather** — per query, the partial lists are folded through one
//!    [`TopK`](crate::topk::TopK) ([`TopK::merge`](crate::topk::TopK::merge)),
//!    the gather the LSM engine shares: because the
//!    canonical `(score desc, id asc)` ranking is a strict total order,
//!    the merged selection is bit-for-bit what a single global selector
//!    over the union of partials would have kept.
//!
//! **Determinism contract.** Partitioning is a pure function of
//! `(corpus, params)` (the clustered partition reuses the seeded k-means
//! trainer of the IVF quantizer), routing is a pure per-query function, shards are
//! scanned in fixed order and merged under the total order — so results are
//! identical run to run and whatever the thread count. When every shard is
//! routed (`route_shards = nshards`) **and** each per-shard engine is
//! exhaustive ([`IvfParams::exhaustive`]), the sharded result is
//! bit-identical (ids and score bits) to the exact single-shard engine, for
//! any shard count (`tests/prop_shard.rs` pins all of it, `tests/shard_threads.rs` under
//! `RAYON_NUM_THREADS=8`). At partial settings the approximation stays
//! subset-only: returned scores are still the bit-exact clamped kernel
//! dots, the engine may only *miss* candidates.
//!
//! Per-shard parameters resolve against the *shard's* row count (a shard of
//! an auto-tuned build gets `⌈√rows_s⌉` lists), so per-shard centroids and
//! SQ8 grids are partition-dependent: at non-exhaustive settings different
//! shard counts select different — equally valid — subsets.

use crate::ann::{self, IvfListStorage, IvfParams, ROW_TILE};
use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::segment::{self, SegmentStore};
use crate::topk::Ranked;
use rayon::prelude::*;

/// Rows per shard the automatic `nshards = 0` sizing aims for.
const AUTO_SHARD_ROWS: usize = 65_536;

/// Upper bound of the automatic shard count.
const AUTO_MAX_SHARDS: usize = 16;

/// How [`ShardedIndex::build`] assigns corpus rows to shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardPartition {
    /// Seeded spherical k-means with `nshards` clusters (the same trainer
    /// the IVF quantizer uses, seeded from [`IvfParams::seed`]):
    /// rows near each other land in the same shard, so the router's
    /// centroid-proximity ranking concentrates each query's true
    /// neighbours in few shards. The default.
    #[default]
    Clustered,
    /// Contiguous row ranges in arrival order — placement-friendly (shard
    /// `s` is rows `[s·⌈n/N⌉, …)`), but the router is less selective
    /// because every shard spans the whole embedding space.
    Contiguous,
}

/// Tuning knobs of the sharded scatter-gather engine. `0` means "choose
/// automatically": one shard per `AUTO_SHARD_ROWS` (65 536) rows, at most 16, and
/// route *every* shard (the validation-friendly default — bit-identical to
/// one shard; dial `route_shards` down to trade recall for fan-out).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardParams {
    /// Number of shards (`0` = automatic, clamped to the corpus size).
    pub nshards: usize,
    /// Shards routed per query (`0` = all of them); minimum-fill may probe
    /// more. Clamped to `[1, nshards]`.
    pub route_shards: usize,
    /// How rows are assigned to shards.
    pub partition: ShardPartition,
    /// The per-shard engine: list storage (flat or SQ8) and probing.
    /// Auto-tuned knobs (`nlist`, `nprobe`) resolve against each shard's
    /// row count.
    pub ivf: IvfParams,
}

impl ShardParams {
    /// Parameters that make the sharded engine bit-identical to the exact
    /// scan: every shard routed, every list probed, exact re-rank of
    /// everything gathered.
    pub fn exhaustive() -> Self {
        ShardParams {
            nshards: 0,
            route_shards: usize::MAX,
            partition: ShardPartition::default(),
            ivf: IvfParams::exhaustive(),
        }
    }

    /// The shard count used for an `n`-row corpus: the explicit value, or
    /// one shard per `AUTO_SHARD_ROWS` rows (at most `AUTO_MAX_SHARDS`)
    /// when `nshards == 0`; always clamped so no shard can be empty by
    /// construction (`nshards <= n`), and `0` for an empty corpus.
    pub fn resolved_nshards(&self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let auto = n.div_ceil(AUTO_SHARD_ROWS).clamp(1, AUTO_MAX_SHARDS);
        let picked = if self.nshards == 0 {
            auto
        } else {
            self.nshards
        };
        picked.clamp(1, n)
    }

    /// The number of shards routed per query given the resolved shard
    /// count: the explicit value clamped to `[1, nshards]`, or all shards
    /// when `route_shards == 0`.
    pub fn resolved_route(&self, nshards: usize) -> usize {
        if nshards == 0 {
            0
        } else if self.route_shards == 0 {
            nshards
        } else {
            self.route_shards.clamp(1, nshards)
        }
    }
}

/// One shard: its shard-local → global row map plus the segment engine
/// that answers queries over its rows.
#[derive(Debug)]
struct Shard {
    /// `global[local]` is the corpus row of shard-local row `local`;
    /// ascending (both partitions assign rows in corpus order).
    global: Vec<u32>,
    store: SegmentStore,
}

impl Shard {
    fn rows(&self) -> usize {
        self.global.len()
    }
}

/// Ranks shards for a query by IVF-centroid proximity: a shard's score is
/// the best clamped kernel dot between the query and any of that shard's
/// coarse centroids (`-∞` for a degenerate shard with no centroids), ties
/// broken by ascending shard id — the same NaN-safe total order every other
/// ranking in the crate uses.
#[derive(Debug)]
pub struct ShardRouter<'a> {
    shards: &'a [Shard],
}

impl ShardRouter<'_> {
    /// Number of shards this router ranks.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// The full shard ranking for one (normalised) query row, best first:
    /// `(shard id, proximity score)` pairs.
    pub fn rank(&self, query: &[f32]) -> Vec<(u32, f32)> {
        let mut scores = Vec::new();
        let mut ranked = Vec::new();
        self.rank_into(query, &mut scores, &mut ranked);
        ranked.iter().map(|r| (r.index, r.score)).collect()
    }

    /// [`ShardRouter::rank`] into reused scratch buffers.
    fn rank_into(&self, query: &[f32], scores: &mut Vec<f32>, out: &mut Vec<Ranked>) {
        out.clear();
        for (s, shard) in self.shards.iter().enumerate() {
            let centroids = shard.store.ivf().centroid_panel();
            let score = if centroids.rows() == 0 {
                f32::NEG_INFINITY
            } else {
                scores.clear();
                scores.resize(centroids.rows(), 0.0);
                kernel::scan_block(query, centroids.data(), centroids.dim(), scores);
                let mut best = f32::NEG_INFINITY;
                for &raw in scores.iter() {
                    let clamped = raw.clamp(-1.0, 1.0);
                    if clamped > best {
                        best = clamped;
                    }
                }
                best
            };
            out.push(Ranked {
                score,
                index: s as u32,
            });
        }
        out.sort_unstable_by(|a, b| a.rank_cmp(b));
    }
}

/// The sharded scatter-gather candidate engine: N independently built
/// per-shard engines behind one [`IvfIndex::search`](crate::IvfIndex::search)-shaped query API. See
/// the [module docs](self) for the routing/scatter/gather pipeline and the
/// determinism contract.
#[derive(Debug)]
pub struct ShardedIndex {
    shards: Vec<Shard>,
    params: ShardParams,
    rows: usize,
    dim: usize,
}

impl ShardedIndex {
    /// Partitions `corpus` (rows must already be normalised, like every
    /// engine input in this crate) and builds one engine per shard over
    /// the shard's rows, copied as stored.
    pub fn build(corpus: &EmbeddingTable, params: &ShardParams) -> ShardedIndex {
        let n = corpus.rows();
        let dim = corpus.dim();
        let nshards = params.resolved_nshards(n);
        let shards: Vec<Shard> = partition_rows(corpus, params, nshards)
            .into_iter()
            .map(|global| {
                let mut data = Vec::with_capacity(global.len() * dim);
                for &row in &global {
                    data.extend_from_slice(corpus.row(row as usize));
                }
                let table = EmbeddingTable::from_data(global.len(), dim, data);
                let store = SegmentStore::build(table, &params.ivf);
                Shard { global, store }
            })
            .collect();
        ShardedIndex {
            shards,
            params: params.clone(),
            rows: n,
            dim,
        }
    }

    /// Number of shards.
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Total corpus rows across all shards.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dimension of each row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The parameters this index was built with.
    pub fn params(&self) -> &ShardParams {
        &self.params
    }

    /// The router ranking this index's shards by centroid proximity.
    pub fn router(&self) -> ShardRouter<'_> {
        ShardRouter {
            shards: &self.shards,
        }
    }

    /// Heap bytes kept for searching, summed across shards: per-shard row
    /// panels and coarse state plus the shard-local → global row maps.
    pub fn resident_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.global.len() * 4 + s.store.resident_bytes())
            .sum()
    }

    /// Scatter-gather top-`k` search at the configured
    /// ([`ShardParams::route_shards`]) routing width. Returns one
    /// best-first `(global row, bit-exact score)` list of
    /// `min(k, rows)` entries per query row.
    pub fn search(&self, queries: &EmbeddingTable, k: usize) -> Vec<Vec<(u32, f32)>> {
        self.search_routed(queries, k, self.params.resolved_route(self.nshards()))
    }

    /// [`ShardedIndex::search`] at an explicit routing width (clamped to
    /// `[1, nshards]`): at `route_shards = nshards` results are
    /// bit-identical to a single-shard build; fewer routed shards trade
    /// recall for fan-out, subset-only.
    pub fn search_routed(
        &self,
        queries: &EmbeddingTable,
        k: usize,
        route_shards: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let cap = k.min(self.rows);
        if cap == 0 {
            return vec![Vec::new(); queries.rows()];
        }
        self.search_flat(queries, cap, route_shards)
            .chunks(cap)
            .map(|chunk| chunk.iter().map(|r| (r.index, r.score)).collect())
            .collect()
    }

    /// The flattened scatter-gather search (`queries.rows() * cap` entries,
    /// `cap <= self.rows()`) consumed by the [`crate::CandidateIndex`]
    /// assembly path.
    pub(crate) fn search_flat(
        &self,
        queries: &EmbeddingTable,
        cap: usize,
        route_shards: usize,
    ) -> Vec<Ranked> {
        let n_q = queries.rows();
        let nshards = self.shards.len();
        if cap == 0 || n_q == 0 || nshards == 0 {
            return Vec::new();
        }
        debug_assert!(cap <= self.rows);
        assert_eq!(
            queries.dim(),
            self.dim,
            "query dimension does not match the sharded corpus dimension"
        );
        let route = route_shards.clamp(1, nshards);
        let router = self.router();
        let block_starts: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();

        // Route: pure per-query function, fanned over fixed query blocks.
        // Minimum-fill at the shard level: keep taking shards in router rank
        // order while fewer than `route` are picked or the picked shards
        // hold fewer than `cap` rows. Picked sets come out sorted by shard
        // id so the gather merges in fixed shard order.
        let routed: Vec<Vec<u32>> = block_starts
            .par_iter()
            .map(|&start| {
                let end = (start + ROW_TILE).min(n_q);
                let mut out = Vec::with_capacity(end - start);
                let mut scores = Vec::new();
                let mut ranked = Vec::new();
                for q in start..end {
                    router.rank_into(queries.row(q), &mut scores, &mut ranked);
                    let mut picked: Vec<u32> = Vec::with_capacity(route);
                    let mut filled = 0usize;
                    for r in &ranked {
                        if picked.len() >= route && filled >= cap {
                            break;
                        }
                        let rows_s = self.shards[r.index as usize].rows();
                        if rows_s == 0 {
                            continue;
                        }
                        picked.push(r.index);
                        filled += rows_s.min(cap);
                    }
                    picked.sort_unstable();
                    out.push(picked);
                }
                out
            })
            .collect::<Vec<_>>()
            .concat();

        // Invert the routing: per shard, the (ascending) queries it serves;
        // per query, its slot in each picked shard's result block.
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); nshards];
        let mut slots: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_q];
        for (q, picked) in routed.iter().enumerate() {
            for &s in picked {
                let pos = per_shard[s as usize].len() as u32;
                per_shard[s as usize].push(q as u32);
                slots[q].push((s, pos));
            }
        }

        // Scatter: shards in fixed order over the rayon pool; each answers
        // its routed queries and remaps shard-local rows to global ids.
        let shard_ids: Vec<usize> = (0..nshards).collect();
        let partials: Vec<Vec<Ranked>> = shard_ids
            .par_iter()
            .map(|&s| {
                let shard = &self.shards[s];
                let queries_s = &per_shard[s];
                if queries_s.is_empty() {
                    return Vec::new();
                }
                let cap_s = cap.min(shard.rows());
                let mut data = Vec::with_capacity(queries_s.len() * self.dim);
                for &q in queries_s {
                    data.extend_from_slice(queries.row(q as usize));
                }
                let sub = EmbeddingTable::from_data(queries_s.len(), self.dim, data);
                let mut flat = shard.store.search_flat(&sub, cap_s, &self.params.ivf);
                debug_assert_eq!(flat.len(), queries_s.len() * cap_s);
                for entry in &mut flat {
                    entry.index = shard.global[entry.index as usize];
                }
                flat
            })
            .collect();

        // Gather: fold each query's partial lists (fixed shard order)
        // through one selector — bit-identical to a single global top-k
        // over the union because the ranking is a strict total order.
        segment::gather(n_q, cap, |q| {
            slots[q].iter().map(|&(s, pos)| {
                let cap_s = cap.min(self.shards[s as usize].rows());
                let lo = pos as usize * cap_s;
                &partials[s as usize][lo..lo + cap_s]
            })
        })
    }
}

/// Assigns corpus rows to `nshards` shards; every returned list is
/// ascending and the lists partition `0..corpus.rows()`.
fn partition_rows(corpus: &EmbeddingTable, params: &ShardParams, nshards: usize) -> Vec<Vec<u32>> {
    let n = corpus.rows();
    if nshards == 0 {
        return Vec::new();
    }
    if nshards == 1 {
        return vec![(0..n as u32).collect()];
    }
    match params.partition {
        ShardPartition::Contiguous => {
            let per = n.div_ceil(nshards);
            (0..nshards)
                .map(|s| {
                    let lo = (s * per).min(n) as u32;
                    let hi = ((s + 1) * per).min(n) as u32;
                    (lo..hi).collect()
                })
                .collect()
        }
        ShardPartition::Clustered => {
            let train_params = IvfParams {
                nlist: nshards,
                storage: IvfListStorage::Flat,
                ..params.ivf.clone()
            };
            let (_, assignments) = ann::train_kmeans(corpus, &train_params);
            let (offsets, rows) = ann::csr_from_assignments(&assignments, nshards);
            (0..nshards)
                .map(|s| rows[offsets[s] as usize..offsets[s + 1] as usize].to_vec())
                .collect()
        }
    }
}
