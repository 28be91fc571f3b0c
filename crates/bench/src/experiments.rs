//! The experiment implementations behind `exea-bench`.
//!
//! Each function regenerates one table or figure of the paper: it builds the
//! named synthetic datasets, trains the requested EA models, runs the
//! explanation / repair / verification pipelines and prints the same rows the
//! paper reports. README's "Building, testing, benchmarking" section has
//! the commands.

use ea_baselines::{BaselineMethod, LlmVerifier, PerturbationExplainer, SimulatedLlmExplainer};
use ea_data::datasets::{load, DatasetName};
use ea_data::noise::with_noisy_seed;
use ea_data::DatasetScale;
use ea_graph::{AlignmentPair, KgPair};
use ea_metrics::{time_it, FidelityProtocol, Table};
use ea_models::{build_model, EaModel, ModelKind, TrainConfig, TrainedAlignment};
use exea_core::{verify_pairs, BatchOptions, ExEa, ExeaConfig, Explainer, RepairConfig};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Shared knobs of the benchmark harness.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset scale.
    pub scale: DatasetScale,
    /// Number of correctly-predicted pairs sampled by the fidelity protocol.
    pub fidelity_samples: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self {
            scale: DatasetScale::Small,
            fidelity_samples: 100,
        }
    }
}

/// The experiments exposed by the harness, one per table or figure of the
/// paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table I.
    Table1,
    /// Table II.
    Table2,
    /// Fig. 4.
    Fig4,
    /// Fig. 5.
    Fig5,
    /// Table III.
    Table3,
    /// Table IV.
    Table4,
    /// Fig. 6.
    Fig6,
    /// Table V.
    Table5,
    /// Table VI.
    Table6,
    /// Table VII.
    Table7,
    /// Table VIII.
    Table8,
}

impl Experiment {
    /// All experiments in paper order.
    pub fn all() -> [Experiment; 11] {
        [
            Experiment::Table1,
            Experiment::Table2,
            Experiment::Fig4,
            Experiment::Fig5,
            Experiment::Table3,
            Experiment::Table4,
            Experiment::Fig6,
            Experiment::Table5,
            Experiment::Table6,
            Experiment::Table7,
            Experiment::Table8,
        ]
    }

    /// The CLI name of the experiment.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Table1 => "table1",
            Experiment::Table2 => "table2",
            Experiment::Fig4 => "fig4",
            Experiment::Fig5 => "fig5",
            Experiment::Table3 => "table3",
            Experiment::Table4 => "table4",
            Experiment::Fig6 => "fig6",
            Experiment::Table5 => "table5",
            Experiment::Table6 => "table6",
            Experiment::Table7 => "table7",
            Experiment::Table8 => "table8",
        }
    }

    /// Parses the CLI name of an experiment, ignoring ASCII case.
    pub fn parse(name: &str) -> Option<Experiment> {
        Self::all()
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
    }
}

/// Dispatches one experiment.
pub fn run_experiment(experiment: Experiment, config: &BenchConfig) {
    match experiment {
        Experiment::Table1 => table1(config),
        Experiment::Table2 => table2(config),
        Experiment::Fig4 => fig4(config),
        Experiment::Fig5 => fig5(config),
        Experiment::Table3 => table3(config),
        Experiment::Table4 => table4(config),
        Experiment::Fig6 => fig6(config),
        Experiment::Table5 => table5(config),
        Experiment::Table6 => table6(config),
        Experiment::Table7 => table7(config),
        Experiment::Table8 => table8(config),
    }
}

/// Per-model training configuration: the translation models need more epochs
/// than the aggregation models to converge on the synthetic datasets.
fn train_config(kind: ModelKind) -> TrainConfig {
    let mut config = TrainConfig::default();
    if kind.is_translation_based() {
        config.epochs = 200;
    }
    config
}

fn train(kind: ModelKind, pair: &KgPair) -> (Box<dyn EaModel>, TrainedAlignment) {
    let model = build_model(kind, train_config(kind));
    let trained = model.train(pair);
    (model, trained)
}

/// Evaluates one explainer under the fidelity protocol, with per-pair budgets
/// taken from ExEA's own explanation sizes (matched sparsity, §V-B2).
fn evaluate_explainer(
    pair: &KgPair,
    model: &dyn EaModel,
    trained: &TrainedAlignment,
    exea: &ExEa<'_>,
    explainer: &dyn Explainer,
    protocol: &FidelityProtocol,
) -> (f64, f64) {
    let outcome = protocol.evaluate(pair, model, trained, explainer, |p| {
        exea.explain(p.source, p.target).num_triples().max(1)
    });
    (outcome.fidelity, outcome.sparsity)
}

/// Loads `dataset` with its row label; `noisy` corrupts 1/6 of the seed
/// alignment (Tables VII–VIII).
fn load_pair(dataset: DatasetName, config: &BenchConfig, noisy: bool) -> (KgPair, String) {
    let clean = load(dataset, config.scale);
    if noisy {
        let label = format!("{} (noise)", dataset.label());
        (with_noisy_seed(&clean, 1.0 / 6.0, 99), label)
    } else {
        (clean, dataset.label().into())
    }
}

/// Fidelity and sparsity of every perturbation baseline and of ExEA
/// (Tables I, II and VII).
fn explanation_generation_table(
    title: &str,
    datasets: &[DatasetName],
    models: &[ModelKind],
    config: &BenchConfig,
    hops: usize,
    noisy: bool,
) {
    let mut table = Table::new(
        title,
        &["EA model", "Exp. method", "Dataset", "Fidelity", "Sparsity"],
    );
    let exea_label = if noisy { "ExEA" } else { "ExEA (ours)" };
    for &kind in models {
        for &dataset in datasets {
            let (pair, dataset_label) = load_pair(dataset, config, noisy);
            let (model, trained) = train(kind, &pair);
            let exea_config = if hops >= 2 {
                ExeaConfig::second_order()
            } else {
                ExeaConfig::default()
            };
            let exea = ExEa::new(&pair, &trained, exea_config);
            let protocol = FidelityProtocol {
                sample_size: config.fidelity_samples,
                hops,
                ..FidelityProtocol::default()
            };
            for method in BaselineMethod::table1() {
                let explainer = PerturbationExplainer::new(&pair, &trained, method).with_hops(hops);
                let (fidelity, sparsity) = evaluate_explainer(
                    &pair,
                    model.as_ref(),
                    &trained,
                    &exea,
                    &explainer,
                    &protocol,
                );
                table.add_row(vec![
                    kind.label().into(),
                    method.label().into(),
                    dataset_label.clone(),
                    Table::num(fidelity),
                    Table::num(sparsity),
                ]);
            }
            let (fidelity, sparsity) =
                evaluate_explainer(&pair, model.as_ref(), &trained, &exea, &exea, &protocol);
            table.add_row(vec![
                kind.label().into(),
                exea_label.into(),
                dataset_label,
                Table::num(fidelity),
                Table::num(sparsity),
            ]);
        }
    }
    println!("{table}");
}

/// Base vs ExEA-repaired accuracy (Tables III and VIII).
fn repair_accuracy_table(
    title: &str,
    datasets: &[DatasetName],
    models: &[ModelKind],
    config: &BenchConfig,
    noisy: bool,
) {
    let mut table = Table::new(title, &["EA model", "Dataset", "Base", "ExEA", "Δ acc"]);
    for &kind in models {
        for &dataset in datasets {
            let (pair, dataset_label) = load_pair(dataset, config, noisy);
            let (_, trained) = train(kind, &pair);
            let base = trained.accuracy(&pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let repaired = exea
                .repair(&RepairConfig::default())
                .repaired
                .accuracy_against(&pair.reference);
            table.add_row(vec![
                kind.label().into(),
                dataset_label,
                Table::num(base),
                Table::num(repaired),
                format!("{:+.3}", repaired - base),
            ]);
        }
    }
    println!("{table}");
}

/// Table I: explanation generation with first-order candidate triples.
fn table1(config: &BenchConfig) {
    explanation_generation_table(
        "Table I — explanation generation (first-order candidates)",
        &DatasetName::all(),
        &ModelKind::all(),
        config,
        1,
        false,
    );
}

/// Table II: second-order candidates, Dual-AMN only.
fn table2(config: &BenchConfig) {
    explanation_generation_table(
        "Table II — explanation generation (second-order candidates)",
        &DatasetName::all(),
        &[ModelKind::DualAmn],
        config,
        2,
        false,
    );
}

/// Fig. 4: wall-clock cost of explanation generation (Dual-AMN on ZH-EN),
/// first-order vs second-order candidates.
fn fig4(config: &BenchConfig) {
    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::DualAmn, &pair);
    let mut table = Table::new(
        "Fig. 4 — explanation generation time (s), Dual-AMN on ZH-EN",
        &["Method", "ZH-EN-1 (s)", "ZH-EN-2 (s)"],
    );
    let samples: Vec<AlignmentPair> = pair
        .reference
        .iter()
        .take(config.fidelity_samples)
        .collect();
    let mut first_order: Vec<(String, f64)> = Vec::new();
    for hops in [1usize, 2] {
        let exea_config = if hops == 2 {
            ExeaConfig::second_order()
        } else {
            ExeaConfig::default()
        };
        let exea = ExEa::new(&pair, &trained, exea_config);
        let row_for = |name: &str, explainer: &dyn Explainer| -> (String, f64) {
            let (_, elapsed) = time_it(|| {
                for p in &samples {
                    let budget = exea.explain(p.source, p.target).num_triples().max(1);
                    let _ = explainer.explain_pair(p.source, p.target, budget);
                }
            });
            (name.to_owned(), elapsed.as_secs_f64())
        };
        let mut timings: Vec<(String, f64)> = Vec::new();
        for method in BaselineMethod::table1() {
            let explainer = PerturbationExplainer::new(&pair, &trained, method).with_hops(hops);
            timings.push(row_for(method.label(), &explainer));
        }
        timings.push(row_for("ExEA", &exea));
        // Batched ExEA over the same samples: one explain_and_score_batch
        // call, sequential vs fanned out over the rayon pool.
        let state = exea.default_alignment_state();
        let (_, elapsed) = time_it(|| {
            let _ =
                exea.explain_and_score_batch(&samples, state, true, &BatchOptions::sequential());
        });
        timings.push(("ExEA (batch, 1 thread)".to_owned(), elapsed.as_secs_f64()));
        let (_, elapsed) = time_it(|| {
            let _ = exea.explain_and_score_batch(
                &samples,
                state,
                true,
                &BatchOptions::always_parallel(),
            );
        });
        timings.push(("ExEA (batch, parallel)".to_owned(), elapsed.as_secs_f64()));
        if hops == 1 {
            first_order = timings;
        } else {
            // One row per method: the first- and second-order timings side
            // by side (both passes time the same methods in the same order).
            for ((name, one), (second_name, two)) in first_order.iter().zip(&timings) {
                debug_assert_eq!(name, second_name);
                table.add_row(vec![name.clone(), format!("{one:.3}"), format!("{two:.3}")]);
            }
        }
    }
    println!("{table}");
}

/// Fig. 5: case study — the explanation each model produces for one source
/// entity.
fn fig5(config: &BenchConfig) {
    let pair = load(DatasetName::ZhEn, config.scale);
    // Pick a reference source entity with a reasonably rich neighbourhood.
    let source = pair
        .reference
        .sources()
        .into_iter()
        .max_by_key(|&s| pair.source.degree(s))
        .expect("reference alignment is non-empty");
    println!(
        "== Fig. 5 — case study for source entity {} ==",
        pair.source.entity_name(source).unwrap_or("?")
    );
    for kind in ModelKind::all() {
        let (_, trained) = train(kind, &pair);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        println!("{}", exea.render_case_study(source));
    }
}

/// Table III: EA repair accuracy on every dataset and model.
fn table3(config: &BenchConfig) {
    repair_accuracy_table(
        "Table III — EA repair accuracy",
        &DatasetName::all(),
        &ModelKind::all(),
        config,
        false,
    );
}

/// Table IV: ablation of the three conflict resolvers with MTransE.
fn table4(config: &BenchConfig) {
    let mut table = Table::new(
        "Table IV — ablation study on MTransE",
        &["Variant", "Dataset", "Accuracy"],
    );
    for dataset in DatasetName::all() {
        let pair = load(dataset, config.scale);
        let (_, trained) = train(ModelKind::MTransE, &pair);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        for (name, repair_config) in [
            ("ExEA w/o cr1", RepairConfig::without_cr1()),
            ("ExEA w/o cr2", RepairConfig::without_cr2()),
            ("ExEA w/o cr3", RepairConfig::without_cr3()),
            ("ExEA", RepairConfig::default()),
        ] {
            let acc = exea
                .repair(&repair_config)
                .repaired
                .accuracy_against(&pair.reference);
            table.add_row(vec![name.into(), dataset.label().into(), Table::num(acc)]);
        }
    }
    println!("{table}");
}

/// Fig. 6: accuracy drop per removed resolver, for each model on ZH-EN.
fn fig6(config: &BenchConfig) {
    let mut table = Table::new(
        "Fig. 6 — repair-effect variation across models (ZH-EN, accuracy drop)",
        &["EA model", "w/o cr1", "w/o cr2", "w/o cr3"],
    );
    let pair = load(DatasetName::ZhEn, config.scale);
    for kind in ModelKind::all() {
        let (_, trained) = train(kind, &pair);
        let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
        let full = exea
            .repair(&RepairConfig::default())
            .repaired
            .accuracy_against(&pair.reference);
        let drop = |cfg: RepairConfig| -> f64 {
            full - exea.repair(&cfg).repaired.accuracy_against(&pair.reference)
        };
        table.add_row(vec![
            kind.label().into(),
            Table::num(drop(RepairConfig::without_cr1())),
            Table::num(drop(RepairConfig::without_cr2())),
            Table::num(drop(RepairConfig::without_cr3())),
        ]);
    }
    println!("{table}");
}

/// Table V: ExEA vs the simulated-LLM explainers on ZH-EN and DBP-WD.
fn table5(config: &BenchConfig) {
    let mut table = Table::new(
        "Table V — comparison with (simulated) LLM explainers",
        &["EA model", "Exp. method", "Dataset", "Fidelity", "Sparsity"],
    );
    for kind in [ModelKind::MTransE, ModelKind::DualAmn] {
        for dataset in [DatasetName::ZhEn, DatasetName::DbpWd] {
            let pair = load(dataset, config.scale);
            let (model, trained) = train(kind, &pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let protocol = FidelityProtocol {
                sample_size: config.fidelity_samples.min(100),
                hops: 1,
                ..FidelityProtocol::default()
            };
            let perturb =
                PerturbationExplainer::new(&pair, &trained, BaselineMethod::ChatGptPerturb);
            let matcher = SimulatedLlmExplainer::new(&pair);
            let entries: Vec<(&str, &dyn Explainer)> = vec![
                ("ChatGPT (perturb)", &perturb),
                ("ChatGPT (match)", &matcher),
                ("ExEA", &exea),
            ];
            for (name, explainer) in entries {
                let (fidelity, sparsity) = evaluate_explainer(
                    &pair,
                    model.as_ref(),
                    &trained,
                    &exea,
                    explainer,
                    &protocol,
                );
                table.add_row(vec![
                    kind.label().into(),
                    name.into(),
                    dataset.label().into(),
                    Table::num(fidelity),
                    Table::num(sparsity),
                ]);
            }
        }
    }
    println!("{table}");
}

/// Builds the balanced verification candidate set of Table VI: correct
/// predicted pairs plus an equal number of incorrect predicted pairs.
fn verification_candidates(
    pair: &KgPair,
    trained: &TrainedAlignment,
    per_class: usize,
    seed: u64,
) -> Vec<(AlignmentPair, bool)> {
    let predictions = trained.predict(pair);
    let mut correct = Vec::new();
    let mut incorrect = Vec::new();
    for p in predictions.iter() {
        if pair.reference.contains(&p) {
            correct.push((p, true));
        } else {
            incorrect.push((p, false));
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    correct.shuffle(&mut rng);
    incorrect.shuffle(&mut rng);
    correct.truncate(per_class);
    incorrect.truncate(per_class);
    correct.extend(incorrect);
    correct
}

/// Table VI: EA verification (precision / recall / F1).
fn table6(config: &BenchConfig) {
    let mut table = Table::new(
        "Table VI — EA verification",
        &["EA model", "Verifier", "Dataset", "Prec.", "Recall", "F1"],
    );
    let per_class = config.fidelity_samples.max(50);
    for kind in [ModelKind::MTransE, ModelKind::DualAmn] {
        for dataset in [DatasetName::ZhEn, DatasetName::DbpWd] {
            let pair = load(dataset, config.scale);
            let (_, trained) = train(kind, &pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let candidates = verification_candidates(&pair, &trained, per_class, 5);
            let labels: Vec<bool> = candidates.iter().map(|&(_, l)| l).collect();

            let llm = LlmVerifier::new(&pair);
            let llm_decisions: Vec<bool> = candidates.iter().map(|(p, _)| llm.verify(p)).collect();
            let llm_outcome =
                exea_core::VerificationOutcome::from_decisions(&llm_decisions, &labels);

            let (_, exea_outcome) = verify_pairs(&exea, &candidates);

            let fused_decisions: Vec<bool> = candidates
                .iter()
                .map(|(p, _)| llm.verify_with_exea(&exea, p))
                .collect();
            let fused_outcome =
                exea_core::VerificationOutcome::from_decisions(&fused_decisions, &labels);

            for (name, o) in [
                ("ChatGPT", llm_outcome),
                ("ExEA", exea_outcome),
                ("ChatGPT + ExEA", fused_outcome),
            ] {
                table.add_row(vec![
                    kind.label().into(),
                    name.into(),
                    dataset.label().into(),
                    Table::num(o.precision),
                    Table::num(o.recall),
                    Table::num(o.f1),
                ]);
            }
        }
    }
    println!("{table}");
}

/// Table VII: explanation generation with a noisy seed alignment.
fn table7(config: &BenchConfig) {
    explanation_generation_table(
        "Table VII — explanation generation with seed noise",
        &[DatasetName::ZhEn, DatasetName::DbpWd],
        &[ModelKind::MTransE, ModelKind::DualAmn],
        config,
        1,
        true,
    );
}

/// Table VIII: EA repair with a noisy seed alignment.
fn table8(config: &BenchConfig) {
    repair_accuracy_table(
        "Table VIII — EA repair with seed noise",
        &[DatasetName::ZhEn, DatasetName::DbpWd],
        &[ModelKind::MTransE, ModelKind::DualAmn],
        config,
        true,
    );
}
