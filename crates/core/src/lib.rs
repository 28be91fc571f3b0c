//! ExEA: explanations for understanding and repairing embedding-based entity
//! alignment.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Tian, Sun & Hu, ICDE 2024). Given a trained embedding-based EA model
//! (anything implementing `ea_models::EaModel` / producing a
//! [`ea_models::TrainedAlignment`]) and its predicted alignment, ExEA:
//!
//! 1. **generates explanations** — for each predicted pair it matches the
//!    relation paths around the two entities into a *semantic matching
//!    subgraph* ([`explanation`], paper §III-A);
//! 2. **builds alignment dependency graphs** — each explanation is abstracted
//!    into an ADG whose edge weights come from relation functionality and
//!    whose node confidence estimates how trustworthy the pair is
//!    ([`adg`], §III-B);
//! 3. **repairs the alignment** — three conflict resolvers (relation-alignment
//!    conflicts, one-to-many conflicts, low-confidence conflicts) prune and
//!    re-align pairs guided by explanation confidence ([`repair`], §IV);
//! 4. **verifies pairs** — explanation confidence doubles as an EA
//!    verification signal ([`verification`], §V-D2).
//!
//! The entry point is [`ExEa`], which owns the per-entity caches that make
//! repeated scoring cheap enough for the repair loops. Repair and
//! verification read only the ADG confidence, which [`ExEa::score_targets`]
//! (one source against many targets), [`ExEa::confidence_with_state`] and
//! [`ExEa::score_batch`] compute from the shared matching core without
//! building the explanation or the ADG.
//!
//! # Batch API
//!
//! Per-pair work — explanation generation and ADG construction — is
//! embarrassingly parallel, and the [`pipeline`] module exploits that:
//! [`ExEa::explain_all`] / [`ExEa::explain_and_score_batch`] /
//! [`ExEa::score_batch`] fan predicted pairs out over a rayon worker pool
//! while sharing the read-only KG/functionality/rule state, and return
//! results in input order so a parallel run is **bit-identical** to the
//! sequential loop it replaces. The repair loops ([`repair`]) and
//! [`verification::verify_pairs`] consume [`ExEa::score_batch`], which
//! scores without materialising explanations; tune or disable the
//! parallelism with [`ExEa::with_batch_options`] and
//! [`pipeline::BatchOptions`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adg;
pub mod config;
pub mod explainer;
pub mod explanation;
pub mod framework;
pub mod pipeline;
pub mod relation_embed;
pub mod repair;
pub mod rules;
pub mod verification;

pub use adg::{Adg, AdgEdge, AdgNode, EdgeKind};
pub use config::ExeaConfig;
pub use explainer::Explainer;
pub use explanation::Explanation;
pub use framework::ExEa;
pub use pipeline::{BatchOptions, ConfidenceMap, PairScore, ScoredExplanation};
pub use repair::{RepairConfig, RepairOutcome};
pub use rules::{mine_not_same_as_rules, relation_alignment, NotSameAsRules, RelationAlignment};
pub use verification::{verify_pairs, verify_top_candidates, VerificationOutcome};
