//! Dense embedding substrate for entity-alignment models.
//!
//! This crate contains everything numerical that the EA models in
//! `ea-models` are built from, implemented from scratch on plain `Vec<f32>`
//! storage:
//!
//! * [`vector`] — small dense-vector kernels (dot product, cosine, norms,
//!   axpy-style updates) used throughout training and explanation code.
//! * [`EmbeddingTable`] — a row-major matrix of embeddings with Xavier
//!   initialisation, row normalisation and gradient update helpers.
//! * [`optimizer`] — SGD and AdaGrad optimisers applied per-row (sparse
//!   updates, which is how EA training touches parameters).
//! * [`sampling`] — uniform negative sampling and the hard-negative cache
//!   (nearest-neighbour lists built as one blocked self-join).
//! * [`similarity`] — the dense similarity-matrix *reference* (O(n²) memory),
//!   top-k nearest-neighbour search, greedy alignment inference and CSLS
//!   re-scoring.
//! * [`candidates`] — the blocked top-k [`CandidateIndex`] engine: the O(n·k)
//!   production path for alignment inference. Rows are normalised once,
//!   similarities are computed in cache-friendly tiles fanned over rayon with
//!   order-preserving merges, and only bounded per-source candidate lists are
//!   kept — bit-identical to the dense reference (pinned by the property
//!   suite) at a fraction of the memory.
//! * [`kernel`] — the register-blocked similarity micro-kernel: unrolled
//!   independent-accumulator dot products, 1×4 row-major panel/gather scans
//!   and the 1×8 packed-group scan of the blocked top-k passes. Every
//!   exact similarity in the workspace (dense reference, blocked engine, IVF
//!   centroid/list scoring, k-means assignment, hard-negative sweeps) runs
//!   through this one summation order, which is what keeps the engines
//!   bit-identical to each other.
//! * [`ann`] — the IVF-style approximate pre-filter in front of the exact
//!   blocked scan: a deterministic seeded k-means coarse quantizer partitions
//!   the target rows into inverted lists, queries probe the nearest lists and
//!   the exact top-k kernel runs only over the gathered candidates
//!   (optionally through SQ8 codes: [`IvfListStorage::Sq8`], IVF-SQ). The
//!   [`CandidateSearch`] strategy enum, the one strategy type, lets every
//!   consumer switch exact ↔ ANN via config.
//! * [`quantized`] — the SQ8 path: per-dimension affine int8 compression of
//!   the normalised corpus ([`QuantizedTable`]), an ADC code scan that reads
//!   4× fewer bytes per candidate, and exact re-ranking of the approximate
//!   top `rerank_factor · k` so returned scores stay bit-exact f32 dots
//!   ([`CandidateSearch::Sq8`]).
//! * [`topk`] — the shared bounded top-k selector every engine ranks with,
//!   plus the deterministic order-preserving merge of best-first partial
//!   lists that makes per-segment (and per-block) results composable:
//!   merging partials through a [`topk::TopK`] selects bit for bit what one
//!   global selector over the union would.
//! * [`lsm`] — incremental corpora = time-ordered segments + shadow masks:
//!   [`lsm::MutableIndex`] layers immutable sealed segments (each a resident
//!   IVF engine over its rows) under a small exact-scanned in-memory mutable
//!   segment, with tombstone shadowing for deletes and a deterministic
//!   caller-driven `compact()`. The gather-merge keeps an N-segment search
//!   bit-identical to a single engine over the live corpus, so inserts and
//!   deletes no longer force a full rebuild. `exea-serve` serves its live
//!   full tier from it.
//! * [`order`] — NaN-safe total-order comparators every ranking sorts with.
//!
//! Every engine searches resident `f32` panels: the corpora this
//! reproduction aligns (about 15K entities a side) fit in RAM many times
//! over.
//!
//! The crate is deliberately framework-free: no BLAS, no autograd. Gradients
//! of the margin-based losses used by the models are simple enough to write
//! by hand, and keeping the dependency surface small makes the reproduction
//! easy to audit.
//!
//! See `ARCHITECTURE.md` at the repository root for how these modules fit
//! into the wider crate graph, and the root `README.md` for measured
//! recall/speed/memory tables of every candidate engine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ann;
pub mod candidates;
pub mod embedding;
pub mod kernel;
pub mod lsm;
pub mod optimizer;
pub mod order;
pub mod quantized;
pub mod sampling;
pub mod similarity;
pub mod topk;
pub mod vector;

pub use ann::{CandidateSearch, EnvOverrideError, IvfIndex, IvfListStorage, IvfParams};
pub use candidates::{CandidateIndex, MutualTop1};
pub use embedding::EmbeddingTable;
pub use lsm::{LsmParams, MutableIndex};
pub use optimizer::{Adagrad, Optimizer, Sgd};
pub use quantized::{QuantizedTable, Sq8Params};
pub use sampling::{HardNegativeCache, NegativeSampler, Negatives};
pub use similarity::{greedy_alignment, select_top_k_by, top_k_targets, SimilarityMatrix};
