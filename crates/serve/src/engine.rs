//! The warm serving engine: everything expensive happens once, at startup.
//!
//! [`Engine::build`] loads the dataset, trains (or in a real deployment,
//! loads) the alignment model, constructs the [`ExEa`] framework — path
//! enumeration, rule mining, candidate index — and pre-builds one candidate
//! engine per serving tier over the normalized target corpus:
//!
//! | tier | engine | quality |
//! |------|--------|---------|
//! | [`Tier::Full`] | [`MutableIndex`] LSM gather-merge, exhaustive segments | bit-identical to the exact scan over the *live* corpus |
//! | [`Tier::Partial`] | [`IvfIndex`], `nlist = nshards`, probing `partial_route` lists | subset-only, scores only the probed lists |
//! | [`Tier::Sq8`] | [`QuantizedTable`] ADC scan + exact re-rank | subset-only, cheapest |
//!
//! Request handlers mostly *read*: the engine is `Sync` and shared across
//! every connection and worker thread. The one mutable piece is the live
//! LSM corpus behind [`Engine::insert`] / [`Engine::remove`] — an
//! `RwLock<MutableIndex>` whose write sections (append one row, tombstone
//! one entity, occasionally seal or compact) are short and caller-driven,
//! so concurrent predicts keep flowing between mutations.
//!
//! # Live mutations and bounded staleness
//!
//! Inserts and removes only affect [`Tier::Full`] predictions: the full
//! tier searches the live LSM corpus, so a freshly inserted row is
//! queryable the moment its insert is acknowledged. The degraded tiers
//! ([`Tier::Partial`], [`Tier::Sq8`]) and the explain/verify/repair
//! pipeline keep serving the *offline* corpus snapshot — under load or for
//! explanations the daemon intentionally answers from the (bounded-stale)
//! startup state rather than paying the rebuild.
//!
//! # The `'static` borrow
//!
//! [`ExEa`] borrows its [`KgPair`] and [`TrainedAlignment`]. A daemon's
//! engine lives until process exit, so `build` leaks both (one bounded
//! allocation each per engine, not per request) to obtain `&'static`
//! references. Tests share a single process-wide engine for the same
//! reason.

use crate::protocol::{Candidate, Tier};
use crate::ServeError;
use ea_data::datasets::{load, DatasetName, DatasetScale};
use ea_embed::{
    EmbeddingTable, IvfIndex, IvfParams, LsmParams, MutableIndex, QuantizedTable, Sq8Params,
};
use ea_graph::{AlignmentPair, EntityId, KgPair, KgSide};
use ea_models::{build_model, ModelKind, TrainConfig, TrainedAlignment};
use exea_core::{ExEa, ExeaConfig, PairScore, RepairConfig, RepairOutcome, ScoredExplanation};
use std::sync::{PoisonError, RwLock};

/// What to load and how to index it.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Dataset to serve.
    pub dataset: DatasetName,
    /// Dataset scale.
    pub scale: DatasetScale,
    /// Alignment model to train at startup.
    pub model: ModelKind,
    /// Candidate depth cap per predict request.
    pub max_k: usize,
    /// IVF list count of the [`Tier::Partial`] engine (`0` = `⌈√n⌉` for
    /// `n` targets).
    pub nshards: usize,
    /// Lists probed at [`Tier::Partial`] (`0` = half of them, at least 1).
    pub partial_route: usize,
    /// Sealed-segment count at which an insert triggers a synchronous
    /// compaction of the live LSM corpus (`0` = default of 8). Compaction
    /// is count-driven — never scheduled by wall clock — so a fixed request
    /// sequence always compacts at the same points.
    pub compact_segments: usize,
    /// Mutable-segment row budget of the live LSM corpus — inserts past it
    /// seal a segment (`0` = the [`LsmParams`] default). Tests lower this
    /// to force seal/compact cycles with few requests.
    pub lsm_seal_rows: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataset: DatasetName::ZhEn,
            scale: DatasetScale::Small,
            model: ModelKind::GcnAlign,
            max_k: 50,
            nshards: 4,
            partial_route: 0,
            compact_segments: 0,
            lsm_seal_rows: 0,
        }
    }
}

/// Acknowledgement of one [`Engine::insert`], mirrored on the wire by
/// [`crate::protocol::Response::Insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertAck {
    /// Whether this insert sealed the mutable segment.
    pub sealed: bool,
    /// Live rows in the mutable corpus after the insert.
    pub live_rows: u64,
    /// Sealed segments after the insert (and any triggered compaction).
    pub segments: u32,
}

/// Acknowledgement of one [`Engine::remove`], mirrored on the wire by
/// [`crate::protocol::Response::Remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveAck {
    /// Whether a live row existed (and was tombstoned).
    pub existed: bool,
    /// Live rows in the mutable corpus after the remove.
    pub live_rows: u64,
}

/// Serving-time failure of a live mutation. The daemon never dies on
/// these — the server maps them to typed wire responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutateError {
    /// Caller sent a vector of the wrong width — becomes
    /// [`crate::protocol::Response::BadRequest`].
    Dim {
        /// Dimension the caller sent.
        got: usize,
        /// Dimension the engine serves.
        want: usize,
    },
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutateError::Dim { got, want } => {
                write!(f, "vector has {got} values, engine dimension is {want}")
            }
        }
    }
}

/// The warm serving state shared by every server thread. Read-only except
/// for the live LSM corpus (see the module docs).
pub struct Engine {
    exea: ExEa<'static>,
    source_norm: EmbeddingTable,
    target_norm: EmbeddingTable,
    live: RwLock<MutableIndex>,
    compact_segments: usize,
    partial: IvfIndex,
    partial_route: usize,
    quant: QuantizedTable,
    sq8: Sq8Params,
    max_k: usize,
}

impl Engine {
    /// Builds the full serving state: dataset, model, framework, and the
    /// three tier engines. Everything here is the slow path — call once.
    pub fn build(config: &EngineConfig) -> Result<Engine, ServeError> {
        let pair = load(config.dataset, config.scale);
        let trained = build_model(config.model, TrainConfig::fast()).train(&pair);
        Self::from_trained(pair, trained, config)
    }

    /// [`Engine::build`] over an already loaded pair + trained model (the
    /// hook tests and benches use to avoid re-training).
    pub fn from_trained(
        pair: KgPair,
        trained: TrainedAlignment,
        config: &EngineConfig,
    ) -> Result<Engine, ServeError> {
        // One bounded leak per engine: the framework borrows the pair and
        // model for the life of the process (see module docs).
        let pair: &'static KgPair = Box::leak(Box::new(pair));
        let trained: &'static TrainedAlignment = Box::leak(Box::new(trained));

        let exea_config = ExeaConfig::default();
        let exea = ExEa::new(pair, trained, exea_config);

        let source_table = trained.entities(KgSide::Source);
        let target_table = trained.entities(KgSide::Target);
        if target_table.rows() == 0 {
            return Err(ServeError::Config(
                "cannot serve an empty target corpus".to_string(),
            ));
        }
        let all_sources: Vec<usize> = (0..source_table.rows()).collect();
        let all_targets: Vec<usize> = (0..target_table.rows()).collect();
        let source_norm = source_table.gather_normalized(&all_sources);
        let target_norm = target_table.gather_normalized(&all_targets);

        // Partial tier: one flat IVF over the target rows, probing
        // `partial_route` of its `nshards` lists. Every probed list is
        // scored exactly, so Partial misses only what the unprobed lists
        // hold (subset-only). The Full tier is the live LSM corpus built
        // further down.
        let partial = IvfIndex::build(
            &target_norm,
            &IvfParams {
                nlist: config.nshards,
                ..IvfParams::default()
            },
        );
        let nlist = partial.nlist().max(1);
        let partial_route = if config.partial_route == 0 {
            (nlist / 2).max(1)
        } else {
            config.partial_route.clamp(1, nlist)
        };
        let quant = QuantizedTable::build(&target_norm);

        // The live LSM corpus starts as the offline target corpus, inserted
        // in row order so canonical live positions equal target ids and the
        // full tier stays bit-identical to the exact scan. Rows go in *raw*
        // — the index normalises exactly once on insert, like the offline
        // gather above.
        let compact_segments = if config.compact_segments == 0 {
            8
        } else {
            config.compact_segments
        };
        let mut lsm_params = LsmParams::default();
        if config.lsm_seal_rows > 0 {
            lsm_params.seal_rows = config.lsm_seal_rows;
        }
        let mut live = MutableIndex::new(target_table.dim(), lsm_params);
        for row in 0..target_table.rows() {
            live.insert(row as u32, target_table.row(row));
        }
        // Fold the startup segments once so serving begins from the same
        // compacted shape regardless of how the seal budget divided the
        // corpus load.
        if live.segments() >= compact_segments {
            live.compact();
        }

        Ok(Engine {
            exea,
            source_norm,
            target_norm,
            live: RwLock::new(live),
            compact_segments,
            partial,
            partial_route,
            quant,
            sq8: Sq8Params::default(),
            max_k: config.max_k.max(1),
        })
    }

    /// The framework (read-only; used by tests for parity checks).
    pub fn exea(&self) -> &ExEa<'static> {
        &self.exea
    }

    /// Acceptance threshold β = sigmoid(θ) of the verification rule.
    pub fn beta(&self) -> f64 {
        self.exea.config().beta()
    }

    /// Number of source entities predict accepts ids below.
    pub fn num_sources(&self) -> usize {
        self.source_norm.rows()
    }

    /// Whether `id` is a known source entity.
    pub fn valid_source(&self, id: u32) -> bool {
        (id as usize) < self.source_norm.rows()
    }

    /// Whether `id` is a known target entity.
    pub fn valid_target(&self, id: u32) -> bool {
        (id as usize) < self.target_norm.rows()
    }

    /// Candidate depth cap per predict request.
    pub fn max_k(&self) -> usize {
        self.max_k
    }

    /// Top-`k` candidate targets for one source entity at an explicit
    /// serving tier. [`Tier::Full`] searches the live LSM corpus and is
    /// bit-identical to the exact scan over it (which, before any
    /// insert/remove, *is* the offline corpus); the degraded tiers are
    /// subset-only approximations over the offline snapshot.
    pub fn predict(&self, source: u32, k: usize, tier: Tier) -> Vec<Candidate> {
        let k = k.clamp(1, self.max_k);
        let mut query = EmbeddingTable::zeros(1, self.source_norm.dim());
        query
            .row_mut(0)
            .copy_from_slice(self.source_norm.row(source as usize));
        let row: Vec<(u32, f32)> = match tier {
            Tier::Full => {
                let live = self.live.read().unwrap_or_else(PoisonError::into_inner);
                live.search(&query, k)
                    .into_iter()
                    .map(|r| (r.index, r.score))
                    .collect()
            }
            // One query row in, one list out.
            Tier::Partial => self
                .partial
                .search(&query, &self.target_norm, k, self.partial_route)
                .pop()
                .unwrap_or_default(),
            Tier::Sq8 => self
                .quant
                .search(&query, &self.target_norm, k, &self.sq8)
                .pop()
                .unwrap_or_default(),
        };
        row.into_iter()
            .map(|(target, score)| Candidate { target, score })
            .collect()
    }

    /// Inserts (or replaces) one live target row. The vector is raw — the
    /// engine normalises it exactly once, like the offline build — and the
    /// row is queryable at [`Tier::Full`] the moment this returns. When the
    /// insert seals a segment and the sealed count reaches the configured
    /// threshold, the same call synchronously compacts the corpus
    /// (count-driven scheduling; see [`EngineConfig::compact_segments`]).
    pub fn insert(&self, entity: u32, vector: &[f32]) -> Result<InsertAck, MutateError> {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        if vector.len() != live.dim() {
            return Err(MutateError::Dim {
                got: vector.len(),
                want: live.dim(),
            });
        }
        let sealed = live.insert(entity, vector);
        if sealed && live.segments() >= self.compact_segments {
            live.compact();
        }
        Ok(InsertAck {
            sealed,
            live_rows: live.len() as u64,
            segments: live.segments() as u32,
        })
    }

    /// Tombstones one live target row; the entity stops appearing in
    /// [`Tier::Full`] predictions the moment this returns.
    pub fn remove(&self, entity: u32) -> RemoveAck {
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        let existed = live.remove(entity);
        RemoveAck {
            existed,
            live_rows: live.len() as u64,
        }
    }

    /// Live rows currently served at [`Tier::Full`].
    pub fn live_rows(&self) -> usize {
        self.live
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Embedding dimension of the served corpus (what [`Engine::insert`]
    /// expects a vector to have).
    pub fn dim(&self) -> usize {
        self.target_norm.dim()
    }

    /// The normalised query vector [`Engine::predict`] uses for `source`
    /// (a test hook: inserting it as a target row makes that row the
    /// guaranteed top candidate for `source`, score ≈ 1).
    pub fn source_vector(&self, source: u32) -> Vec<f32> {
        self.source_norm.row(source as usize).to_vec()
    }

    /// Explains and scores a batch of pairs through the order-preserving
    /// pipeline — bit-identical to sequential per-pair calls regardless of
    /// how requests were batched together.
    pub fn explain_batch(&self, pairs: &[AlignmentPair]) -> Vec<ScoredExplanation> {
        let state = self.exea.default_alignment_state();
        self.exea
            .explain_and_score_batch(pairs, state, true, self.exea.batch_options())
    }

    /// Scores a batch of pairs (confidence + strong-edge flag only) — the
    /// verification entry point, order-preserving like
    /// [`Engine::explain_batch`].
    pub fn score_batch(&self, pairs: &[AlignmentPair]) -> Vec<PairScore> {
        let state = self.exea.default_alignment_state();
        self.exea
            .score_batch(pairs, state, true, self.exea.batch_options())
    }

    /// Runs the full repair pipeline over the model's predictions.
    pub fn repair(&self) -> RepairOutcome {
        self.exea.repair(&RepairConfig::default())
    }

    /// A known-good (source, target) pair for smoke tests: the first model
    /// prediction.
    pub fn sample_pair(&self) -> Option<AlignmentPair> {
        self.exea.predictions().iter().next()
    }

    /// Builds an [`AlignmentPair`] from raw wire ids.
    pub fn pair_of(&self, source: u32, target: u32) -> AlignmentPair {
        AlignmentPair::new(EntityId(source), EntityId(target))
    }
}
