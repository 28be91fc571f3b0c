//! AlignE: bootstrapping-style alignment learning with hard negatives.
//!
//! AlignE (Sun et al., IJCAI 2018 — the alignment-oriented variant without
//! bootstrapping) improves on MTransE in two ways the paper's analysis leans
//! on:
//!
//! 1. **Hard negative sampling** — negatives are drawn from the entities most
//!    similar to the true counterpart under the current embeddings (a cache
//!    of nearest-neighbour lists for the seed targets, refreshed every few
//!    epochs), which teaches the model to distinguish similar entities (and
//!    is why AlignE gains the least from ExEA's relation-conflict
//!    resolution, Fig. 6).
//! 2. **Limit-based alignment loss** — instead of merely pulling seed pairs
//!    together, a margin-ranking loss keeps the positive distance below the
//!    negative distance, sharpening decision boundaries.

use crate::config::TrainConfig;
use crate::trained::{TrainedAlignment, TrainingWork};
use crate::training::{
    alignment_margin_epoch, alignment_pull_epoch, seed_targets, training_rng, transe_epoch,
    TranslationState,
};
use crate::traits::EaModel;
use ea_embed::{HardNegativeCache, NegativeSampler};
use ea_graph::KgPair;

/// The AlignE model.
#[derive(Debug, Clone)]
pub struct AlignE {
    config: TrainConfig,
}

impl AlignE {
    /// Creates an AlignE model with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Number of nearest neighbours hard negatives are drawn from.
    const HARD_K: usize = 10;
    /// Probability of falling back to a uniform negative.
    const UNIFORM_PROB: f64 = 0.3;
    /// How often (in epochs) the hard-negative caches are refreshed.
    const REFRESH_EVERY: usize = 10;
}

impl EaModel for AlignE {
    fn name(&self) -> &'static str {
        "AlignE"
    }

    fn config(&self) -> &TrainConfig {
        &self.config
    }

    fn train(&self, pair: &KgPair) -> TrainedAlignment {
        let mut rng = training_rng(&self.config);
        let mut state = TranslationState::init(pair, &self.config, &mut rng);
        // Uniform corruption for the triple loss (as in TransE); the hard
        // negatives are reserved for the alignment loss, where distinguishing
        // similar counterpart candidates actually matters. That loss draws
        // only for seed targets, so only they get hard-negative lists.
        let source_sampler = NegativeSampler::uniform(pair.source.num_entities());
        let target_sampler = NegativeSampler::uniform(pair.target.num_entities());
        let positives = seed_targets(&pair.seed);
        let mut hard_targets = HardNegativeCache::build_for(
            &state.target_entities,
            &positives,
            Self::HARD_K,
            pair.target.num_entities(),
            Self::UNIFORM_PROB,
        );
        let mut work = TrainingWork::hard_negatives(&hard_targets);

        for epoch in 0..self.config.epochs {
            if epoch > 0 && epoch % Self::REFRESH_EVERY == 0 {
                hard_targets.refresh(&state.target_entities);
                work = work + TrainingWork::hard_negatives(&hard_targets);
            }
            transe_epoch(
                &pair.source,
                &mut state.source_entities,
                &mut state.source_relations,
                &source_sampler,
                &self.config,
                &mut rng,
            );
            transe_epoch(
                &pair.target,
                &mut state.target_entities,
                &mut state.target_relations,
                &target_sampler,
                &self.config,
                &mut rng,
            );
            // The limit-based alignment loss with hard negative target
            // entities, plus a gentle pull to keep the spaces calibrated.
            alignment_margin_epoch(
                &pair.seed,
                &mut state.source_entities,
                &mut state.target_entities,
                &hard_targets,
                &self.config,
                &mut rng,
            );
            alignment_pull_epoch(
                &pair.seed,
                &mut state.source_entities,
                &mut state.target_entities,
                &self.config,
            );
            // AlignE's parameter-sharing calibration: seed entities are the
            // same parameter, so snap them together periodically.
            if epoch % 5 == 4 {
                crate::training::merge_seed_embeddings(
                    &pair.seed,
                    &mut state.source_entities,
                    &mut state.target_entities,
                );
                state.source_entities.normalize_rows();
                state.target_entities.normalize_rows();
            }
        }
        state.source_entities.normalize_rows();
        state.target_entities.normalize_rows();

        TrainedAlignment::new(
            self.name(),
            state.source_entities,
            state.target_entities,
            Some(state.source_relations),
            Some(state.target_relations),
        )
        .with_work(work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ea_data::datasets::{load, DatasetName, DatasetScale};
    use ea_graph::KgSide;

    #[test]
    fn training_is_deterministic_given_seed() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let model = AlignE::new(TrainConfig::fast());
        let a = model.train(&pair);
        let b = model.train(&pair);
        assert_eq!(
            a.entities(KgSide::Target).data(),
            b.entities(KgSide::Target).data()
        );
    }

    #[test]
    fn training_beats_random_alignment() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = AlignE::new(TrainConfig::fast()).train(&pair);
        let acc = trained.accuracy(&pair);
        let random_baseline = 1.0 / pair.target.num_entities() as f64;
        assert!(
            acc > random_baseline * 10.0,
            "AlignE accuracy {acc} too low"
        );
    }

    #[test]
    fn artifact_metadata_is_correct() {
        let pair = load(DatasetName::ZhEn, DatasetScale::Small);
        let trained = AlignE::new(TrainConfig::fast()).train(&pair);
        assert_eq!(trained.model_name(), "AlignE");
        assert!(trained.has_relation_embeddings());
    }
}
