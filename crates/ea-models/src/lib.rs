//! Embedding-based entity-alignment models.
//!
//! The ExEA framework is model-agnostic: it consumes the entity (and, when
//! available, relation) embeddings plus the predicted alignment of *any*
//! embedding-based EA model. This crate provides from-scratch CPU
//! implementations of the four representative models the paper evaluates:
//!
//! | Model | Family | Negative sampling | Relation embeddings |
//! |-------|--------|-------------------|---------------------|
//! | [`MTransE`]   | TransE (translation) | uniform | yes |
//! | [`AlignE`]    | TransE (translation) | hard    | yes |
//! | [`GcnAlign`]  | GCN (aggregation)    | uniform | no  |
//! | [`DualAmn`]   | GCN (aggregation)    | hard    | yes (gates) |
//!
//! All models implement the [`EaModel`] trait: `train` a [`ea_graph::KgPair`] into a
//! [`TrainedAlignment`] artifact holding embeddings for both graphs. Training
//! is deterministic given the [`TrainConfig`] seed, which is what makes the
//! paper's fidelity protocol (delete triples, retrain, re-measure) reproducible.
//!
//! The Dual-AMN implementation is a simplification of the published model
//! (see `DESIGN.md` §3): it keeps the properties the paper's analysis relies
//! on — relation-aware aggregation, hard negative mining, strongest base
//! accuracy — without proxy-attention matching.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aligne;
pub mod config;
pub mod dual_amn;
pub mod gcn_align;
pub mod mtranse;
pub mod trained;
pub mod training;
pub mod traits;

pub use aligne::AlignE;
pub use config::TrainConfig;
pub use dual_amn::DualAmn;
pub use gcn_align::GcnAlign;
pub use mtranse::MTransE;
pub use trained::{TrainedAlignment, TrainingWork};
pub use traits::{build_model, EaModel, ModelKind};
