//! IVF-style approximate pre-filter for candidate generation.
//!
//! The exact blocked scan ([`CandidateIndex::compute`]) is O(n·k) in memory
//! but still O(n_s·n_t) in compute: every query row is dotted against every
//! corpus row. Past a few million entities that product is the wall. This
//! module puts an inverted-file (IVF) coarse quantizer in front of the exact
//! kernel:
//!
//! 1. **Build** ([`IvfIndex::build`]): a deterministic, seeded
//!    ([`rand_chacha::ChaCha8Rng`]) spherical k-means clusters the normalised
//!    corpus rows into `nlist` centroids; each row is filed into the inverted
//!    list of its nearest centroid (CSR storage, rows ascending per list).
//! 2. **Search** ([`IvfIndex::search`]): a query ranks the centroids by dot
//!    product, probes the `nprobe` nearest lists, and runs the *existing*
//!    exact top-k machinery — the same register-blocked [`crate::kernel`]
//!    (clamped to `[-1, 1]`), the same bounded heap selection, the same
//!    order-preserving rayon block merges as the exact scan — over only the
//!    gathered rows. With [`IvfListStorage::Sq8`] (IVF-SQ) the gathered rows
//!    are first scanned through their SQ8 codes and only the approximate
//!    best `rerank_factor · k` reach the exact kernel; returned scores stay
//!    bit-exact either way.
//!
//! **Determinism contract.** Everything is a pure function of (embeddings,
//! params): k-means initialisation is seeded, assignment blocks are merged in
//! input order, centroid updates accumulate in ascending row order, and the
//! candidate heap's strict total order makes the selected set independent of
//! scan order. Results are bit-identical across thread counts and repeated
//! runs (pinned by `tests/ann_threads.rs` under `RAYON_NUM_THREADS=8`).
//!
//! **Exactness contract.** Scores are computed by the same kernel on the same
//! normalised rows as the exact scan, so every returned `(id, score)` entry
//! is bit-identical to the corresponding exact entry — the pre-filter can
//! only *miss* candidates (recall < 1), never re-score them. Probing is
//! *minimum-fill*: after the `nprobe` requested lists, further lists are
//! probed (in centroid rank order) until at least `k` candidates were
//! gathered, so result lists always carry the full `min(k, n)` entries and
//! drop-in consumers ([`CandidateIndex`]) keep their fixed-stride layout.
//! With `nprobe >= nlist` every list is scanned and the result is
//! bit-identical to the exact blocked scan (recall 1.0) — the property suite
//! (`tests/prop_ann.rs`) pins both contracts.
//!
//! The [`CandidateSearch`] strategy enum is what consumers store in their
//! configs to switch exact ↔ ANN.

use crate::candidates::{
    blocked_topk, clamped, CandidateIndex, MutualTop1, DEFAULT_COL_TILE, DEFAULT_ROW_TILE,
};
use crate::embedding::EmbeddingTable;
use crate::kernel;
use crate::quantized::{
    sq8_select_and_rerank, sq8_topk_flat, QuantizedTable, Sq8Params, Sq8Scratch,
};
use crate::topk::{Ranked, TopK};
use crate::vector;
use ea_graph::EntityId;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Rows per parallel work block: the fan-out tile of k-means assignment and
/// of every engine's query loop (IVF and SQ8 search, the LSM gather-merge
/// and tail scan).
pub(crate) const ROW_TILE: usize = 128;

/// How an [`IvfIndex`] stores (and scans) its inverted lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum IvfListStorage {
    /// Scan the probed lists with the exact f32 kernel directly.
    #[default]
    Flat,
    /// IVF-SQ: scan the probed lists through the SQ8 quantized codes
    /// ([`crate::QuantizedTable`], 4× fewer bytes per candidate), then
    /// re-score the best `rerank_factor · k` gathered rows with the exact
    /// kernel. Returned scores stay bit-exact f32 dots (subset-only
    /// approximation, like probing itself).
    Sq8(Sq8Params),
}

/// Tuning knobs of the IVF pre-filter. `nlist`/`nprobe` set to 0 mean
/// "choose automatically" (`⌈√n⌉` lists, `⌈nlist/4⌉` probes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of inverted lists (k-means centroids). 0 = `⌈√n⌉`.
    pub nlist: usize,
    /// Number of lists probed per query. 0 = `⌈nlist/4⌉`; values above
    /// `nlist` are clamped (probing every list reproduces the exact scan bit
    /// for bit).
    pub nprobe: usize,
    /// Seed of the k-means initialisation, a ChaCha8 shuffle that picks
    /// `nlist` distinct seed rows (the quantizer is fully deterministic
    /// given this seed).
    pub seed: u64,
    /// Maximum k-means refinement iterations (converges earlier when
    /// assignments stabilise).
    pub kmeans_iters: usize,
    /// Inverted-list storage: exact f32 rows ([`IvfListStorage::Flat`]) or
    /// SQ8 codes with exact re-ranking ([`IvfListStorage::Sq8`], IVF-SQ).
    pub storage: IvfListStorage,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nlist: 0,
            nprobe: 0,
            seed: 0x1EF_5EED,
            kmeans_iters: 8,
            storage: IvfListStorage::Flat,
        }
    }
}

impl IvfParams {
    /// Parameters that probe every list: recall 1.0, bit-identical to the
    /// exact scan (useful to validate a deployment before dialling `nprobe`
    /// down for speed).
    pub fn exhaustive() -> Self {
        Self {
            nprobe: usize::MAX,
            ..Self::default()
        }
    }

    /// The list count actually used for a corpus of `n` rows.
    pub fn resolved_nlist(&self, n: usize) -> usize {
        let nlist = if self.nlist == 0 {
            (n as f64).sqrt().ceil() as usize
        } else {
            self.nlist
        };
        nlist.min(n).max(usize::from(n > 0))
    }

    /// The probe count actually used against `nlist` lists.
    pub fn resolved_nprobe(&self, nlist: usize) -> usize {
        let nprobe = if self.nprobe == 0 {
            nlist.div_ceil(4)
        } else {
            self.nprobe
        };
        nprobe.min(nlist).max(usize::from(nlist > 0))
    }
}

/// The coarse quantizer plus inverted lists over one (normalised) corpus.
///
/// Build once per corpus, search with many query batches — the k-means cost
/// amortises across queries, which is how IVF deployments run. The index
/// stores *row indexes into the corpus it was built from*; callers must pass
/// the same normalised corpus table to [`IvfIndex::search`].
#[derive(Debug, Clone)]
pub struct IvfIndex {
    /// `nlist × dim` spherical k-means centroids (unit rows; an all-zero row
    /// can occur for degenerate clusters and scores 0 like any zero row).
    centroids: EmbeddingTable,
    /// CSR offsets into `list_rows`, length `nlist + 1`.
    list_offsets: Vec<u32>,
    /// Corpus row indexes grouped by list, ascending within each list.
    list_rows: Vec<u32>,
    /// IVF-SQ list storage: the SQ8 codes of the whole corpus (indexed by
    /// corpus row, so every inverted list shares one code panel) plus the
    /// re-rank parameters. `None` for flat storage.
    quantized: Option<(QuantizedTable, Sq8Params)>,
}

/// Per-block scratch of [`IvfIndex::search`]: every buffer a query needs —
/// centroid scores, the probe order, gathered list rows, quantized-scan
/// state and exact re-rank buffers — allocated once per rayon work block and
/// reused across its queries (the `BfsScratch` pattern; the old code rebuilt
/// the centroid-score storage per query).
struct IvfScratch {
    /// Raw centroid dot products of the current query.
    centroid_scores: Vec<f32>,
    /// Centroids ranked best-first under the canonical candidate order.
    probe_order: Vec<Ranked>,
    /// Exact scores of the gathered rows (flat storage).
    list_scores: Vec<f32>,
    /// Corpus rows gathered from the probed lists.
    gathered: Vec<u32>,
    /// Quantized-scan buffers (SQ8 storage) — the same scratch the
    /// whole-corpus SQ8 engine uses.
    sq8: Sq8Scratch,
}

impl IvfScratch {
    fn new() -> Self {
        Self {
            centroid_scores: Vec::new(),
            probe_order: Vec::new(),
            list_scores: Vec::new(),
            gathered: Vec::new(),
            sq8: Sq8Scratch::new(),
        }
    }
}

impl IvfIndex {
    /// Clusters the rows of `corpus` (which must already be L2-normalised,
    /// e.g. by [`EmbeddingTable::gather_normalized`]) into
    /// `params.resolved_nlist` inverted lists with seeded spherical k-means.
    pub fn build(corpus: &EmbeddingTable, params: &IvfParams) -> Self {
        let n = corpus.rows();
        let nlist = params.resolved_nlist(n);
        if n == 0 || nlist == 0 {
            return Self {
                centroids: EmbeddingTable::zeros(0, corpus.dim()),
                list_offsets: vec![0],
                list_rows: Vec::new(),
                quantized: None,
            };
        }

        let (centroids, assignments) = train_kmeans(corpus, params);
        let (list_offsets, list_rows) = csr_from_assignments(&assignments, nlist);

        // IVF-SQ: one code panel over the whole corpus, shared by every
        // inverted list (lists store row indexes either way).
        let quantized = match &params.storage {
            IvfListStorage::Flat => None,
            IvfListStorage::Sq8(sq8) => Some((QuantizedTable::build(corpus), sq8.clone())),
        };

        Self {
            centroids,
            list_offsets,
            list_rows,
            quantized,
        }
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Heap bytes of the coarse state kept for searching: centroids + CSR
    /// offsets/rows (+ SQ8 codes when the index owns them). The corpus
    /// panel the index searches is the caller's and does not count.
    pub fn resident_bytes(&self) -> usize {
        self.centroids.data().len() * 4
            + (self.list_offsets.len() + self.list_rows.len()) * 4
            + self
                .quantized
                .as_ref()
                .map_or(0, |(qt, _)| qt.code_bytes() + qt.dim() * 8)
    }

    /// The centroid vector of list `c` (unit row, or all-zero for a
    /// degenerate cluster).
    pub fn centroid(&self, c: usize) -> &[f32] {
        self.centroids.row(c)
    }

    /// The corpus rows of list `c`, ascending.
    pub fn list(&self, c: usize) -> &[u32] {
        &self.list_rows[self.list_offsets[c] as usize..self.list_offsets[c + 1] as usize]
    }

    /// Approximate top-`k` search: each query row of `queries` probes its
    /// `nprobe` nearest lists (minimum-fill: more lists, in centroid rank
    /// order, if fewer than `min(k, n)` candidates were gathered) and the
    /// exact kernel scores the gathered rows. Returns one best-first list of
    /// exactly `min(k, n)` `(corpus row, score)` entries per query.
    ///
    /// `corpus` must be the table the index was built from; `queries` must be
    /// normalised the same way. With `nprobe >= nlist` the result is
    /// bit-identical to the exact blocked scan. When the index carries SQ8
    /// codes ([`IvfListStorage::Sq8`]) the probed lists are scanned through
    /// them and only the approximate best `rerank_factor · k` rows are
    /// re-scored exactly (IVF-SQ).
    pub fn search(
        &self,
        queries: &EmbeddingTable,
        corpus: &EmbeddingTable,
        k: usize,
        nprobe: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let cap = k.min(corpus.rows());
        if cap == 0 {
            // Degenerate corpus or k = 0: still one (empty) list per query,
            // as documented.
            return vec![Vec::new(); queries.rows()];
        }
        let flat = self.search_flat(queries, corpus, cap, nprobe);
        flat.chunks(cap)
            .map(|chunk| chunk.iter().map(|r| (r.index, r.score)).collect())
            .collect()
    }

    /// [`IvfIndex::search`] returning the flattened best-first lists
    /// (`queries.rows() * cap` entries) consumed by the [`CandidateIndex`]
    /// assembly path.
    pub(crate) fn search_flat(
        &self,
        queries: &EmbeddingTable,
        corpus: &EmbeddingTable,
        cap: usize,
        nprobe: usize,
    ) -> Vec<Ranked> {
        // A corpus other than the one this index was built from would make
        // the inverted lists index past its panel — catch the misuse at the
        // entry instead of deep inside a gather.
        assert_eq!(
            corpus.rows(),
            self.list_rows.len(),
            "corpus row count does not match the corpus this index was built from"
        );
        assert!(
            self.nlist() == 0 || self.centroids.dim() == corpus.dim(),
            "corpus dimension {} does not match index dimension {}",
            corpus.dim(),
            self.centroids.dim()
        );
        let n_q = queries.rows();
        if cap == 0 || n_q == 0 || self.nlist() == 0 {
            return Vec::new();
        }
        let nprobe = nprobe.min(self.nlist()).max(1);
        // Same fan-out shape as the exact scan: fixed query blocks over the
        // rayon pool, block results concatenated in input order. One scratch
        // set per block, reused across its queries.
        let block_starts: Vec<usize> = (0..n_q).step_by(ROW_TILE).collect();
        let blocks: Vec<Vec<Ranked>> = block_starts
            .par_iter()
            .map(|&start| {
                let end = (start + ROW_TILE).min(n_q);
                let mut out = Vec::with_capacity((end - start) * cap);
                let mut scratch = IvfScratch::new();
                for q in start..end {
                    self.search_row(queries.row(q), corpus, cap, nprobe, &mut scratch, &mut out);
                }
                out
            })
            .collect();
        blocks.concat()
    }

    /// Scores one query: ranks the centroids (register-blocked kernel scan
    /// over the contiguous centroid table), gathers lists in rank order until
    /// `nprobe` lists are probed *and* `cap` candidates were gathered, and
    /// appends the bounded selection best-first to `out`. Flat storage
    /// scores the gathered rows exactly; SQ8 storage scans their codes and
    /// exactly re-scores the approximate top `rerank_factor · cap`.
    fn search_row(
        &self,
        query: &[f32],
        corpus: &EmbeddingTable,
        cap: usize,
        nprobe: usize,
        scratch: &mut IvfScratch,
        out: &mut Vec<Ranked>,
    ) {
        let dim = corpus.dim();
        scratch.centroid_scores.resize(self.nlist(), 0.0);
        kernel::scan_block(
            query,
            self.centroids.data(),
            dim,
            &mut scratch.centroid_scores,
        );
        scratch.probe_order.clear();
        scratch
            .probe_order
            .extend(
                scratch
                    .centroid_scores
                    .iter()
                    .enumerate()
                    .map(|(c, &score)| Ranked {
                        score: score.clamp(-1.0, 1.0),
                        index: c as u32,
                    }),
            );
        // nlist ~ √n, so fully ordering the probe sequence is cheap and the
        // minimum-fill extension can walk it without re-selection.
        scratch.probe_order.sort_unstable_by(|a, b| a.rank_cmp(b));

        // Gather every probed list first (minimum-fill; lists partition the
        // corpus, so the gathered rows are distinct), then score the union
        // in one scan. Scores are per-row and the bounded selection runs a
        // strict total order, so the gather order changes no result bit.
        scratch.gathered.clear();
        for (probed, centroid) in scratch.probe_order.iter().enumerate() {
            if probed >= nprobe && scratch.gathered.len() >= cap {
                break;
            }
            scratch
                .gathered
                .extend_from_slice(self.list(centroid.index as usize));
        }

        match &self.quantized {
            None => {
                scratch.list_scores.resize(scratch.gathered.len(), 0.0);
                kernel::scan_gather(
                    query,
                    corpus.data(),
                    dim,
                    &scratch.gathered,
                    &mut scratch.list_scores,
                );
                let mut select = TopK::new(cap);
                for (&row, &score) in scratch.gathered.iter().zip(&scratch.list_scores) {
                    select.push(score.clamp(-1.0, 1.0), row);
                }
                debug_assert!(select.kept() == cap, "minimum-fill probing must fill rows");
                out.extend(select.into_sorted());
            }
            Some((quantized, sq8)) => {
                // IVF-SQ: the shared SQ8 selection + exact re-rank pipeline
                // over the gathered rows.
                let rerank = sq8.resolved_rerank(cap, scratch.gathered.len());
                sq8_select_and_rerank(
                    query,
                    corpus,
                    quantized,
                    Some(&scratch.gathered),
                    cap,
                    rerank,
                    &mut scratch.sq8,
                    out,
                );
            }
        }
    }
}

/// The nearest centroid of one row: a register-blocked kernel sweep over the
/// contiguous centroid table (same clamped values as per-pair
/// `cosine_prenormalized` calls), then a strictly-greater argmax — ties go
/// to the lowest centroid index and NaN scores are ignored (comparison is
/// false), exactly the order the probe selection uses.
fn nearest_centroid(row: &[f32], centroids: &EmbeddingTable, scores: &mut [f32]) -> u32 {
    kernel::scan_block(row, centroids.data(), centroids.dim(), scores);
    let mut best = 0u32;
    let mut best_score = scores[0].clamp(-1.0, 1.0);
    for (c, &raw) in scores.iter().enumerate().skip(1) {
        let score = raw.clamp(-1.0, 1.0);
        if score > best_score {
            best = c as u32;
            best_score = score;
        }
    }
    best
}

/// One fused sweep of Lloyd's algorithm: assigns each corpus row to its
/// nearest centroid (parallel over fixed [`ROW_TILE`] blocks,
/// order-preserving) and accumulates the per-cluster sums/counts
/// **sequentially in ascending row order**, so sums are bit-identical for
/// every thread count.
fn assign_sweep(
    corpus: &EmbeddingTable,
    centroids: &EmbeddingTable,
    assignments: &mut [u32],
    sums: &mut [f32],
    counts: &mut [usize],
) {
    let n = corpus.rows();
    let dim = corpus.dim();
    let nlist = centroids.rows();
    sums.fill(0.0);
    counts.fill(0);
    let tile_starts: Vec<usize> = (0..n).step_by(ROW_TILE).collect();
    let tiles: Vec<Vec<u32>> = tile_starts
        .par_iter()
        .map(|&tile| {
            let end = (tile + ROW_TILE).min(n);
            let mut scores = vec![0.0f32; nlist];
            (tile..end)
                .map(|row| nearest_centroid(corpus.row(row), centroids, &mut scores))
                .collect()
        })
        .collect();
    for (&tile, tile_assign) in tile_starts.iter().zip(&tiles) {
        assignments[tile..tile + tile_assign.len()].copy_from_slice(tile_assign);
    }
    for (r, &c) in assignments.iter().enumerate() {
        let base = c as usize * dim;
        for (acc, &v) in sums[base..base + dim].iter_mut().zip(corpus.row(r)) {
            *acc += v;
        }
        counts[c as usize] += 1;
    }
}

/// Seeded spherical k-means over the rows of `corpus`: a ChaCha8 shuffle of
/// the row indexes picks `nlist` distinct seed rows, then fused Lloyd
/// iterations run — each iteration is ONE sweep that assigns rows and
/// accumulates the next centroid sums simultaneously, so a converged
/// training costs `iters + 1` sweeps total. Returns the centroids and the
/// final per-row assignments.
///
/// Callers guarantee `corpus.rows() > 0` and `resolved_nlist(n) > 0`.
fn train_kmeans(corpus: &EmbeddingTable, params: &IvfParams) -> (EmbeddingTable, Vec<u32>) {
    let n = corpus.rows();
    let dim = corpus.dim();
    let nlist = params.resolved_nlist(n);
    assert!(n > 0 && nlist > 0, "train_kmeans needs a non-empty corpus");

    let mut rng = ChaCha8Rng::seed_from_u64(params.seed);
    let mut centroids = EmbeddingTable::zeros(nlist, dim);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut rng);
    for (c, &row) in perm[..nlist].iter().enumerate() {
        centroids
            .row_mut(c)
            .copy_from_slice(corpus.row(row as usize));
    }

    // Fused Lloyd loop: sweep 0 assigns against the seeds and accumulates
    // their cluster sums; every iteration first folds those sums into new
    // centroids, then runs one fused assign+accumulate sweep against them.
    // This reproduces the classic "sums from assignments, update, reassign"
    // sequence exactly — with one corpus pass per iteration instead of two.
    let mut assignments = vec![0u32; n];
    let mut prev = vec![0u32; n];
    let mut sums = vec![0.0f32; nlist * dim];
    let mut counts = vec![0usize; nlist];
    assign_sweep(corpus, &centroids, &mut assignments, &mut sums, &mut counts);
    for _ in 0..params.kmeans_iters {
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue; // empty cluster: keep the previous centroid
            }
            let base = c * dim;
            let mean = &mut sums[base..base + dim];
            vector::normalize(mean); // spherical k-means re-projection
            centroids.row_mut(c).copy_from_slice(mean);
        }
        assign_sweep(corpus, &centroids, &mut prev, &mut sums, &mut counts);
        let converged = prev == assignments;
        std::mem::swap(&mut assignments, &mut prev);
        if converged {
            break;
        }
    }
    (centroids, assignments)
}

/// CSR inverted lists from per-row centroid assignments; filling rows in
/// ascending order per list keeps the stable-fill deterministic (lists
/// ascend).
fn csr_from_assignments(assignments: &[u32], nlist: usize) -> (Vec<u32>, Vec<u32>) {
    let mut counts = vec![0u32; nlist];
    for &c in assignments {
        counts[c as usize] += 1;
    }
    let mut list_offsets = Vec::with_capacity(nlist + 1);
    let mut acc = 0u32;
    list_offsets.push(0);
    for &c in &counts {
        acc += c;
        list_offsets.push(acc);
    }
    let mut cursor: Vec<u32> = list_offsets[..nlist].to_vec();
    let mut list_rows = vec![0u32; assignments.len()];
    for (row, &c) in assignments.iter().enumerate() {
        list_rows[cursor[c as usize] as usize] = row as u32;
        cursor[c as usize] += 1;
    }
    (list_offsets, list_rows)
}

/// The built-in candidate-generation strategies, as a config-friendly value
/// type: store it in a config struct and every consumer downstream of that
/// config (prediction, repair, anchor mining, verification) switches with it.
///
/// # Examples
///
/// Picking an engine is a recall/compute/memory trade (measured tables in
/// the root `README.md`). `Exact` when the O(n_s·n_t) sweep is affordable
/// and recall 1.0 is required end to end:
///
/// ```
/// use ea_embed::CandidateSearch;
/// let search = CandidateSearch::Exact; // also the default
/// assert_eq!(search, CandidateSearch::default());
/// ```
///
/// `Ivf` once the similarity sweep dominates wall-clock — probe a quarter of
/// the lists by default, or every list to validate a deployment bit-for-bit
/// against the exact engine before dialling `nprobe` down:
///
/// ```
/// use ea_embed::{CandidateSearch, IvfParams};
/// let tuned = CandidateSearch::Ivf(IvfParams { nprobe: 8, ..IvfParams::default() });
/// let validation = CandidateSearch::Ivf(IvfParams::exhaustive()); // recall 1.0
/// # let _ = (tuned, validation);
/// ```
///
/// `Sq8` when the scan is memory-bandwidth bound (reads 4× fewer corpus
/// bytes per candidate; returned scores stay bit-exact f32 dots), and IVF-SQ
/// — SQ8 codes *inside* the probed inverted lists — for the largest corpora:
///
/// ```
/// use ea_embed::{CandidateSearch, IvfListStorage, IvfParams, Sq8Params};
/// let bandwidth_bound = CandidateSearch::Sq8(Sq8Params::default());
/// let largest = CandidateSearch::Ivf(IvfParams {
///     storage: IvfListStorage::Sq8(Sq8Params::default()),
///     ..IvfParams::default()
/// });
/// # let _ = (bandwidth_bound, largest);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum CandidateSearch {
    /// The exact blocked scan — every source row against every target row.
    #[default]
    Exact,
    /// The IVF pre-filter: probe `nprobe` of `nlist` inverted lists, exact
    /// kernel over the gathered rows only. With
    /// [`IvfParams::storage`] = [`IvfListStorage::Sq8`] the probed lists are
    /// scanned through SQ8 codes (IVF-SQ) before the exact re-rank.
    Ivf(IvfParams),
    /// The SQ8 quantized whole-corpus scan: ADC over int8 codes (4× fewer
    /// bytes per candidate) selects `rerank_factor · k` candidates, the
    /// exact kernel re-scores them — returned scores stay bit-exact f32
    /// dots (subset-only approximation, like IVF).
    Sq8(Sq8Params),
}

/// A rejected environment-variable override: the variable, the offending
/// value, and the grammar it was checked against. Returned by
/// [`CandidateSearch::from_env`] so long-lived processes (the `exea-serve`
/// daemon, `exea-bench`) can refuse to start with a clean one-line message
/// instead of a boot panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvOverrideError {
    /// Name of the environment variable holding the rejected value.
    pub var: &'static str,
    /// The rejected value, verbatim.
    pub value: String,
    /// Human-readable description of the accepted values.
    pub expected: &'static str,
}

impl std::fmt::Display for EnvOverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognised {} value {:?} (expected {})",
            self.var, self.value, self.expected
        )
    }
}

impl std::error::Error for EnvOverrideError {}

/// Accepted `EXEA_CANDIDATE_SEARCH` values, for error messages.
const CANDIDATE_SEARCH_EXPECTED: &str = "exact, sq8, ivf or ivf-sq8";

impl CandidateSearch {
    /// The default strategy honouring the `EXEA_CANDIDATE_SEARCH`
    /// environment override — the hook CI uses to run the whole pipeline
    /// (prediction, repair, verification, anchor mining) on an approximate
    /// engine end to end. Recognised values are `exact`, `sq8`, `ivf` and
    /// `ivf-sq8` (IVF with SQ8 list storage), each with default parameters.
    /// Unset or empty means [`CandidateSearch::Exact`].
    ///
    /// Config `Default` impls ([`ExeaConfig`](https://docs.rs/exea-core),
    /// `TrainConfig`) call this instead of hard-coding `Exact`; explicitly
    /// constructed strategies are never overridden.
    ///
    /// # Panics
    /// Panics on an unrecognised non-empty value: the override exists so CI
    /// can guarantee approximate-path coverage, and a typo silently falling
    /// back to `Exact` would turn that guarantee into a no-op. `Default`
    /// impls have no error channel, hence the panic here; processes that
    /// can report a startup failure cleanly (daemons, benches) should call
    /// [`CandidateSearch::from_env`] first and surface the typed error.
    pub fn default_from_env() -> Self {
        match Self::from_env() {
            Ok(search) => search,
            Err(e) => panic!("{e}"),
        }
    }

    /// The fallible form of [`CandidateSearch::default_from_env`]: reads
    /// `EXEA_CANDIDATE_SEARCH` and returns a typed [`EnvOverrideError`] on
    /// an unrecognised non-empty value instead of panicking. Long-lived
    /// processes validate the override through this before building any
    /// engine, so a typo is a clean startup failure, not a boot panic.
    pub fn from_env() -> Result<Self, EnvOverrideError> {
        Self::from_env_value(std::env::var("EXEA_CANDIDATE_SEARCH").ok().as_deref())
    }

    /// Parses one would-be `EXEA_CANDIDATE_SEARCH` value (`None` = unset).
    /// Pure, for tests: [`CandidateSearch::from_env`] is this applied to
    /// the real environment.
    pub fn from_env_value(value: Option<&str>) -> Result<Self, EnvOverrideError> {
        match value {
            None => Ok(CandidateSearch::Exact),
            Some(v) => Self::parse_override(v).ok_or_else(|| EnvOverrideError {
                var: "EXEA_CANDIDATE_SEARCH",
                value: v.to_string(),
                expected: CANDIDATE_SEARCH_EXPECTED,
            }),
        }
    }

    /// Parses one `EXEA_CANDIDATE_SEARCH` value; `None` for input outside
    /// the grammar (the empty string means "unset": `Exact`).
    fn parse_override(value: &str) -> Option<Self> {
        Some(match value {
            "" | "exact" => CandidateSearch::Exact,
            "sq8" => CandidateSearch::Sq8(Sq8Params::default()),
            "ivf" => CandidateSearch::Ivf(IvfParams::default()),
            "ivf-sq8" => CandidateSearch::Ivf(IvfParams {
                storage: IvfListStorage::Sq8(Sq8Params::default()),
                ..IvfParams::default()
            }),
            _ => return None,
        })
    }

    /// One directed pass of this strategy's one-shot build: the top-`cap`
    /// corpus rows of every query row, flattened best-first.
    fn directed_pass(
        &self,
        queries: &EmbeddingTable,
        corpus: &EmbeddingTable,
        cap: usize,
    ) -> Vec<Ranked> {
        match self {
            CandidateSearch::Exact => blocked_topk(
                queries,
                corpus,
                cap,
                DEFAULT_ROW_TILE,
                DEFAULT_COL_TILE,
                clamped,
            ),
            CandidateSearch::Ivf(params) => {
                let index = IvfIndex::build(corpus, params);
                let nprobe = params.resolved_nprobe(index.nlist());
                index.search_flat(queries, corpus, cap, nprobe)
            }
            CandidateSearch::Sq8(params) => {
                let quantized = QuantizedTable::build(corpus);
                let rerank = params.resolved_rerank(cap, corpus.rows());
                sq8_topk_flat(queries, corpus, &quantized, cap, rerank)
            }
        }
    }

    /// Short human-readable strategy label for logs and bench tables: the
    /// strategy's `EXEA_CANDIDATE_SEARCH` spelling.
    pub fn name(&self) -> &'static str {
        match self {
            CandidateSearch::Exact => "exact",
            CandidateSearch::Sq8(_) => "sq8",
            CandidateSearch::Ivf(params) => match params.storage {
                IvfListStorage::Flat => "ivf",
                IvfListStorage::Sq8(_) => "ivf-sq8",
            },
        }
    }

    /// Builds the forward top-`k` candidate lists between the embeddings of
    /// `source_ids` and `target_ids` (the [`CandidateIndex::compute`]
    /// contract; ANN strategies may miss candidates but never re-score them).
    pub fn forward_index(
        &self,
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
    ) -> CandidateIndex {
        CandidateIndex::from_passes(
            source_table,
            source_ids,
            target_table,
            target_ids,
            k,
            false,
            |queries, corpus, cap| self.directed_pass(queries, corpus, cap),
        )
    }

    /// [`CandidateSearch::forward_index`] plus per-target reverse top-`k`
    /// lists (the [`CandidateIndex::compute_bidirectional`] contract).
    pub fn bidirectional_index(
        &self,
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
        k: usize,
    ) -> CandidateIndex {
        CandidateIndex::from_passes(
            source_table,
            source_ids,
            target_table,
            target_ids,
            k,
            true,
            |queries, corpus, cap| self.directed_pass(queries, corpus, cap),
        )
    }

    /// Each source entity's best target and each target entity's best
    /// source ([`MutualTop1`]), the input of mutual-nearest-neighbour
    /// mining. `Exact` scores every pair once in one fused blocked pass
    /// ([`MutualTop1::compute`]); the approximate engines read the heads of
    /// [`CandidateSearch::bidirectional_index`] with `k = 1`, whose results
    /// equal the exact ones at `nprobe = nlist` /
    /// `rerank_factor = usize::MAX`.
    pub fn mutual_top1(
        &self,
        source_table: &EmbeddingTable,
        source_ids: &[EntityId],
        target_table: &EmbeddingTable,
        target_ids: &[EntityId],
    ) -> MutualTop1 {
        match self {
            CandidateSearch::Exact => {
                MutualTop1::compute(source_table, source_ids, target_table, target_ids)
            }
            _ => MutualTop1::from_index(&self.bidirectional_index(
                source_table,
                source_ids,
                target_table,
                target_ids,
                1,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_table(seed: u64, rows: usize, dim: usize) -> EmbeddingTable {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = EmbeddingTable::xavier(rows, dim, &mut rng);
        let all: Vec<usize> = (0..rows).collect();
        t.gather_normalized(&all)
    }

    #[test]
    fn env_override_parse_is_typed_not_panicking() {
        // Unset and every documented value parse cleanly.
        assert_eq!(
            CandidateSearch::from_env_value(None).unwrap(),
            CandidateSearch::Exact
        );
        for value in ["", "exact", "ivf", "sq8", "ivf-sq8"] {
            let search = CandidateSearch::from_env_value(Some(value)).unwrap();
            if !value.is_empty() {
                assert_eq!(search.name(), value);
            }
        }

        // A typo is a typed error naming the variable, the value and the
        // accepted grammar — not a panic.
        let err = CandidateSearch::from_env_value(Some("ivff")).unwrap_err();
        assert_eq!(err.var, "EXEA_CANDIDATE_SEARCH");
        assert_eq!(err.value, "ivff");
        let msg = err.to_string();
        assert!(msg.contains("EXEA_CANDIDATE_SEARCH"), "got: {msg}");
        assert!(msg.contains("\"ivff\""), "got: {msg}");
        assert!(msg.contains("ivf-sq8"), "got: {msg}");
    }

    #[test]
    fn env_override_values_parse_strictly() {
        assert_eq!(
            CandidateSearch::parse_override(""),
            Some(CandidateSearch::Exact)
        );
        assert_eq!(
            CandidateSearch::parse_override("exact"),
            Some(CandidateSearch::Exact)
        );
        assert_eq!(
            CandidateSearch::parse_override("ivf"),
            Some(CandidateSearch::Ivf(IvfParams::default()))
        );
        assert_eq!(
            CandidateSearch::parse_override("sq8"),
            Some(CandidateSearch::Sq8(Sq8Params::default()))
        );
        let ivf_sq8 = CandidateSearch::parse_override("ivf-sq8").unwrap();
        assert_eq!(ivf_sq8.name(), "ivf-sq8");
        // Typos must not silently fall back to Exact — the CI override job
        // relies on unknown values failing loudly.
        for typo in ["sq-8", "ivf_sq8", "SQ8", "quantized"] {
            assert_eq!(CandidateSearch::parse_override(typo), None, "{typo}");
        }
    }

    #[test]
    fn override_grammar_accepts_exactly_its_values() {
        // Every listed value round-trips through the parser and the name,
        // and the error message spells the whole grammar.
        let message = CandidateSearch::from_env_value(Some("ivff"))
            .unwrap_err()
            .to_string();
        for value in ["exact", "sq8", "ivf", "ivf-sq8"] {
            let parsed = CandidateSearch::parse_override(value)
                .unwrap_or_else(|| panic!("{value} must parse"));
            assert_eq!(parsed.name(), value);
            assert!(message.contains(value), "{value} missing from: {message}");
        }
        // Off-grammar combinations of otherwise valid parts must not
        // silently fall back to Exact either. No engine takes a `-mapped`
        // suffix (the out-of-core segment backing is gone) or a `sharded-`
        // or `lsm-` layer prefix (the one-shot sharded and LSM strategies
        // are gone), so their former spellings are typos like any other.
        for typo in [
            "ivf-mapped",
            "ivf-sq8-mapped",
            "sq8-mapped",
            "sharded-ivf-mapped",
            "sharded-ivf-sq8-mapped",
            "lsm-ivf-mapped",
            "lsm-ivf-sq8-mapped",
            "sharded-ivf",
            "sharded-ivf-sq8",
            "lsm-ivf",
            "lsm-ivf-sq8",
        ] {
            let err = CandidateSearch::from_env_value(Some(typo)).unwrap_err();
            assert_eq!(
                (err.var, err.value.as_str()),
                ("EXEA_CANDIDATE_SEARCH", typo)
            );
        }
        for retired in ["mapped", "sharded", "lsm"] {
            assert!(!message.contains(retired), "{message}");
        }
        for typo in [
            "exact-mapped",
            "lsm-sharded-ivf",
            "sharded",
            "lsm",
            "sq8-sq8",
            "mapped",
            "-mapped",
            "ivff",
        ] {
            assert_eq!(CandidateSearch::parse_override(typo), None, "{typo}");
        }
    }

    #[test]
    fn params_resolve_auto_values() {
        let p = IvfParams::default();
        assert_eq!(p.resolved_nlist(100), 10);
        assert_eq!(p.resolved_nlist(0), 0);
        assert_eq!(p.resolved_nlist(1), 1);
        assert_eq!(p.resolved_nprobe(10), 3);
        assert_eq!(p.resolved_nprobe(0), 0);
        let explicit = IvfParams {
            nlist: 7,
            nprobe: 99,
            ..IvfParams::default()
        };
        assert_eq!(explicit.resolved_nlist(100), 7);
        assert_eq!(explicit.resolved_nlist(3), 3, "nlist clamped to corpus");
        assert_eq!(explicit.resolved_nprobe(7), 7, "nprobe clamped to nlist");
        assert_eq!(IvfParams::exhaustive().resolved_nprobe(5), 5);
    }

    #[test]
    fn inverted_lists_partition_the_corpus() {
        let corpus = random_table(3, 200, 8);
        let params = IvfParams {
            nlist: 12,
            ..IvfParams::default()
        };
        let index = IvfIndex::build(&corpus, &params);
        assert_eq!(index.nlist(), 12);
        let mut seen = [false; 200];
        for c in 0..index.nlist() {
            let list = index.list(c);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "lists ascend");
            for &row in list {
                assert!(!seen[row as usize], "row filed twice");
                seen[row as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row filed exactly once");
    }

    #[test]
    fn build_is_seed_deterministic_and_seed_sensitive() {
        let corpus = random_table(5, 150, 8);
        let params = IvfParams {
            nlist: 10,
            ..IvfParams::default()
        };
        let a = IvfIndex::build(&corpus, &params);
        let b = IvfIndex::build(&corpus, &params);
        assert_eq!(a.list_offsets, b.list_offsets);
        assert_eq!(a.list_rows, b.list_rows);
        for c in 0..a.nlist() {
            assert_eq!(a.centroids.row(c), b.centroids.row(c), "centroid {c}");
        }
        let other = IvfIndex::build(&corpus, &IvfParams { seed: 99, ..params });
        assert_ne!(
            a.list_rows, other.list_rows,
            "different seed should shuffle the quantizer"
        );
    }

    #[test]
    fn exhaustive_probing_matches_exact_scan() {
        let corpus = random_table(7, 90, 6);
        let queries = random_table(8, 40, 6);
        let params = IvfParams {
            nlist: 9,
            ..IvfParams::default()
        };
        let index = IvfIndex::build(&corpus, &params);
        let approx = index.search(&queries, &corpus, 5, index.nlist());
        for (q, row) in approx.iter().enumerate() {
            // Reference: brute-force over the corpus under the same order.
            let mut exact: Vec<Ranked> = (0..corpus.rows())
                .map(|j| Ranked {
                    score: vector::cosine_prenormalized(queries.row(q), corpus.row(j)),
                    index: j as u32,
                })
                .collect();
            exact.sort_unstable_by(|a, b| a.rank_cmp(b));
            assert_eq!(row.len(), 5);
            for (got, want) in row.iter().zip(&exact) {
                assert_eq!(got.0, want.index, "query {q}");
                assert_eq!(got.1.to_bits(), want.score.to_bits(), "query {q}");
            }
        }
    }

    #[test]
    fn minimum_fill_always_returns_full_rows() {
        // One probe of highly unbalanced lists must still return min(k, n).
        let corpus = random_table(11, 64, 4);
        let queries = random_table(12, 10, 4);
        let params = IvfParams {
            nlist: 16,
            nprobe: 1,
            ..IvfParams::default()
        };
        let index = IvfIndex::build(&corpus, &params);
        for row in index.search(&queries, &corpus, 12, 1) {
            assert_eq!(row.len(), 12);
        }
        // k larger than the corpus: every row comes back.
        for row in index.search(&queries, &corpus, 1000, 1) {
            assert_eq!(row.len(), 64);
        }
    }

    #[test]
    fn empty_corpus_and_empty_queries_are_handled() {
        let empty = EmbeddingTable::zeros(0, 4);
        let queries = random_table(1, 3, 4);
        let index = IvfIndex::build(&empty, &IvfParams::default());
        assert_eq!(index.nlist(), 0);
        // One (empty) list per query even when the corpus has no rows.
        let results = index.search(&queries, &empty, 5, 3);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(Vec::is_empty));
        let corpus = random_table(2, 5, 4);
        let index = IvfIndex::build(&corpus, &IvfParams::default());
        assert_eq!(results.len(), index.search(&queries, &corpus, 0, 1).len());
        assert!(index
            .search(&EmbeddingTable::zeros(0, 4), &corpus, 5, 1)
            .is_empty());
    }

    #[test]
    fn candidate_search_strategies_build_compatible_indexes() {
        use ea_graph::EntityId;
        let s = random_table(21, 30, 6);
        let t = random_table(22, 50, 6);
        let sids: Vec<EntityId> = (0..30).map(EntityId).collect();
        let tids: Vec<EntityId> = (0..50).map(EntityId).collect();
        let exact = CandidateSearch::Exact.forward_index(&s, &sids, &t, &tids, 4);
        let ivf =
            CandidateSearch::Ivf(IvfParams::exhaustive()).forward_index(&s, &sids, &t, &tids, 4);
        assert_eq!(CandidateSearch::Exact.name(), "exact");
        assert_eq!(CandidateSearch::default(), CandidateSearch::Exact);
        assert_eq!(CandidateSearch::Ivf(IvfParams::default()).name(), "ivf");
        for i in 0..30 {
            let a: Vec<(EntityId, u32)> =
                exact.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
            let b: Vec<(EntityId, u32)> =
                ivf.candidates(i).map(|(e, s)| (e, s.to_bits())).collect();
            assert_eq!(a, b, "row {i}: exhaustive IVF must equal exact");
        }
        // Bidirectional parity under exhaustive probing, reverse lists too.
        let exact = CandidateSearch::Exact.bidirectional_index(&s, &sids, &t, &tids, 3);
        let ivf = CandidateSearch::Ivf(IvfParams::exhaustive())
            .bidirectional_index(&s, &sids, &t, &tids, 3);
        assert!(ivf.has_reverse());
        let (a, b) = (MutualTop1::from_index(&exact), MutualTop1::from_index(&ivf));
        for j in 0..tids.len() {
            let (a, b) = (a.best_source(j).unwrap(), b.best_source(j).unwrap());
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }
}
