//! The experiment implementations behind `exea-bench`.
//!
//! Each function regenerates one table or figure of the paper: it builds the
//! named synthetic datasets, trains the requested EA models, runs the
//! explanation / repair / verification pipelines and prints the same rows the
//! paper reports. `EXPERIMENTS.md` records one full run next to the paper's
//! numbers.

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

/// The experiments exposed by the harness.
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
    /// Candidate-engine comparison (not in the paper): dense similarity
    /// matrix vs blocked top-k inference, time and candidate storage.
    TopK,
    /// ANN pre-filter comparison (not in the paper): exact blocked scan vs
    /// the IVF pre-filter across nprobe settings — recall@k, query time,
    /// speedup, and greedy-decision parity at `nprobe = nlist`.
    Ann,
    /// SQ8 quantized-scan comparison (not in the paper): exact blocked scan
    /// vs the int8 ADC scan + exact re-rank across rerank factors —
    /// recall@k, query time, speedup, greedy-decision parity, and bit
    /// identity at exhaustive re-ranking.
    Sq8,
    /// On-disk candidate-store comparison (not in the paper): in-memory
    /// IVF/SQ8 search vs the same search over an mmap- or pread-backed
    /// container — resident bytes, stored bytes, open and query time, and
    /// bit identity of the returned lists.
    Ondisk,
    /// Sharded scatter-gather comparison (not in the paper): the exact scan
    /// vs the sharded engine across routed-shard counts — recall@k, query
    /// time, speedup, greedy-decision parity, bit identity at full routing,
    /// and the aggregated resident/stored bytes of resident vs mapped
    /// shard sets.
    Shard,
    /// Serving-daemon comparison (not in the paper): `exea-serve` under
    /// concurrent client load — throughput, p50/p99 latency, and typed
    /// outcome counts, once clean and once with injected faults (slowed
    /// batches, killed connections, torn writes, a panicking handler).
    Serve,
    /// Live-corpus comparison (not in the paper): the LSM mutable engine
    /// across a scripted insert/delete/compact schedule — alignment
    /// recall@10 and query time per step (bit-identity vs a fresh engine
    /// asserted at every step), seal/compact cost, and prediction/repair
    /// quality of the one-shot `lsm-*` strategies vs the exact scan.
    Lsm,
}

impl Experiment {
    /// All experiments in paper order.
    pub fn all() -> [Experiment; 18] {
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
            Experiment::TopK,
            Experiment::Ann,
            Experiment::Sq8,
            Experiment::Ondisk,
            Experiment::Shard,
            Experiment::Serve,
            Experiment::Lsm,
        ]
    }

    /// Parses the CLI name of an experiment.
    pub fn parse(name: &str) -> Option<Experiment> {
        Some(match name {
            "table1" => Experiment::Table1,
            "table2" => Experiment::Table2,
            "fig4" => Experiment::Fig4,
            "fig5" => Experiment::Fig5,
            "table3" => Experiment::Table3,
            "table4" => Experiment::Table4,
            "fig6" => Experiment::Fig6,
            "table5" => Experiment::Table5,
            "table6" => Experiment::Table6,
            "table7" => Experiment::Table7,
            "table8" => Experiment::Table8,
            "topk" => Experiment::TopK,
            "ann" => Experiment::Ann,
            "sq8" => Experiment::Sq8,
            "ondisk" => Experiment::Ondisk,
            "shard" => Experiment::Shard,
            "serve" => Experiment::Serve,
            "lsm" => Experiment::Lsm,
            _ => return None,
        })
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
        Experiment::TopK => topk(config),
        Experiment::Ann => ann(config),
        Experiment::Sq8 => sq8(config),
        Experiment::Ondisk => ondisk(config),
        Experiment::Shard => shard(config),
        Experiment::Serve => serve(config),
        Experiment::Lsm => lsm(config),
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

fn explanation_generation_table(
    title: &str,
    datasets: &[DatasetName],
    models: &[ModelKind],
    config: &BenchConfig,
    hops: usize,
) {
    let mut table = Table::new(
        title,
        &["EA model", "Exp. method", "Dataset", "Fidelity", "Sparsity"],
    );
    for &kind in models {
        for &dataset in datasets {
            let pair = load(dataset, config.scale);
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
                    dataset.label().into(),
                    Table::num(fidelity),
                    Table::num(sparsity),
                ]);
            }
            let (fidelity, sparsity) =
                evaluate_explainer(&pair, model.as_ref(), &trained, &exea, &exea, &protocol);
            table.add_row(vec![
                kind.label().into(),
                "ExEA (ours)".into(),
                dataset.label().into(),
                Table::num(fidelity),
                Table::num(sparsity),
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
            for (name, secs) in &timings {
                table.add_row(vec![name.clone(), format!("{secs:.3}"), String::new()]);
            }
        } else {
            // Merge the second-order timings into the existing rows.
            let mut merged = Table::new(
                "Fig. 4 — explanation generation time (s), Dual-AMN on ZH-EN",
                &["Method", "ZH-EN-2 (s)"],
            );
            for (name, secs) in &timings {
                merged.add_row(vec![name.clone(), format!("{secs:.3}")]);
            }
            println!("{merged}");
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
    let mut table = Table::new(
        "Table III — EA repair accuracy",
        &["EA model", "Dataset", "Base", "ExEA", "Δ acc"],
    );
    for kind in ModelKind::all() {
        for dataset in DatasetName::all() {
            let pair = load(dataset, config.scale);
            let (_, trained) = train(kind, &pair);
            let base = trained.accuracy(&pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let repaired = exea
                .repair(&RepairConfig::default())
                .repaired
                .accuracy_against(&pair.reference);
            table.add_row(vec![
                kind.label().into(),
                dataset.label().into(),
                Table::num(base),
                Table::num(repaired),
                format!("{:+.3}", repaired - base),
            ]);
        }
    }
    println!("{table}");
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
    let mut table = Table::new(
        "Table VII — explanation generation with seed noise",
        &["EA model", "Exp. method", "Dataset", "Fidelity", "Sparsity"],
    );
    for kind in [ModelKind::MTransE, ModelKind::DualAmn] {
        for dataset in [DatasetName::ZhEn, DatasetName::DbpWd] {
            let clean = load(dataset, config.scale);
            let pair = with_noisy_seed(&clean, 1.0 / 6.0, 99);
            let (model, trained) = train(kind, &pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let protocol = FidelityProtocol {
                sample_size: config.fidelity_samples,
                hops: 1,
                ..FidelityProtocol::default()
            };
            for method in BaselineMethod::table1() {
                let explainer = PerturbationExplainer::new(&pair, &trained, method);
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
                    format!("{} (noise)", dataset.label()),
                    Table::num(fidelity),
                    Table::num(sparsity),
                ]);
            }
            let (fidelity, sparsity) =
                evaluate_explainer(&pair, model.as_ref(), &trained, &exea, &exea, &protocol);
            table.add_row(vec![
                kind.label().into(),
                "ExEA".into(),
                format!("{} (noise)", dataset.label()),
                Table::num(fidelity),
                Table::num(sparsity),
            ]);
        }
    }
    println!("{table}");
}

/// Table VIII: EA repair with a noisy seed alignment.
fn table8(config: &BenchConfig) {
    let mut table = Table::new(
        "Table VIII — EA repair with seed noise",
        &["EA model", "Dataset", "Base", "ExEA", "Δ acc"],
    );
    for kind in [ModelKind::MTransE, ModelKind::DualAmn] {
        for dataset in [DatasetName::ZhEn, DatasetName::DbpWd] {
            let clean = load(dataset, config.scale);
            let pair = with_noisy_seed(&clean, 1.0 / 6.0, 99);
            let (_, trained) = train(kind, &pair);
            let base = trained.accuracy(&pair);
            let exea = ExEa::new(&pair, &trained, ExeaConfig::default());
            let repaired = exea
                .repair(&RepairConfig::default())
                .repaired
                .accuracy_against(&pair.reference);
            table.add_row(vec![
                kind.label().into(),
                format!("{} (noise)", dataset.label()),
                Table::num(base),
                Table::num(repaired),
                format!("{:+.3}", repaired - base),
            ]);
        }
    }
    println!("{table}");
}

/// Candidate-engine rows (not in the paper): wall-clock and candidate
/// storage of alignment inference through the dense `SimilarityMatrix`
/// reference vs the blocked top-k `CandidateIndex`, on the real trained
/// embeddings of ZH-EN. The greedy alignments are asserted identical — the
/// engine trades nothing but the O(n²) footprint.
fn topk(config: &BenchConfig) {
    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = ExeaConfig::default().top_k;
    let mut table = Table::new(
        "Candidate engine — dense matrix vs blocked top-k (GCN-Align, ZH-EN)",
        &[
            "Path",
            "Build+greedy (s)",
            "Candidate storage (KiB)",
            "Accuracy",
        ],
    );

    let ((matrix, dense_alignment), dense_time) = time_it(|| {
        let m = trained.similarity_matrix(&pair);
        let alignment = m.greedy_alignment();
        (m, alignment)
    });
    let n_s = matrix.source_ids().len();
    let n_t = matrix.target_ids().len();
    // f32 values plus u32 ranking entries per cell.
    let dense_bytes = n_s * n_t * 8;
    table.add_row(vec![
        format!("dense {n_s}x{n_t}"),
        format!("{:.3}", dense_time.as_secs_f64()),
        format!("{:.1}", dense_bytes as f64 / 1024.0),
        Table::num(dense_alignment.accuracy_against(&pair.reference)),
    ]);

    let ((index, blocked_alignment), blocked_time) = time_it(|| {
        let index = trained.candidate_index(&pair, k);
        let alignment = index.greedy_alignment();
        (index, alignment)
    });
    table.add_row(vec![
        format!("blocked top-{k}"),
        format!("{:.3}", blocked_time.as_secs_f64()),
        format!("{:.1}", index.candidate_bytes() as f64 / 1024.0),
        Table::num(blocked_alignment.accuracy_against(&pair.reference)),
    ]);
    assert_eq!(
        dense_alignment.to_vec(),
        blocked_alignment.to_vec(),
        "dense and blocked greedy alignments must agree"
    );
    println!("{table}");
    println!(
        "(candidate lists shrink inference storage {:.0}x at this scale; the factor grows linearly with n_t)",
        dense_bytes as f64 / index.candidate_bytes().max(1) as f64
    );
}

/// ANN pre-filter rows (not in the paper): the exact blocked scan vs the IVF
/// pre-filter on the real trained embeddings of the synthetic ZH-EN dataset.
/// For each nprobe setting the table reports quantizer build time, query
/// time (the per-batch cost the build amortises over), recall@k against the
/// exact top-k, query-time speedup, and how many greedy alignment decisions
/// changed. At `nprobe = nlist` the results are asserted bit-identical to
/// the exact scan.
fn ann(config: &BenchConfig) {
    use ea_embed::{CandidateSearch, IvfIndex, IvfParams};

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = 10usize;

    let (exact, exact_time) = ea_metrics::time_it(|| trained.candidate_index(&pair, k));
    let n_s = exact.source_ids().len();
    let n_t = exact.target_ids().len();
    let params = IvfParams::default();
    let nlist = params.resolved_nlist(n_t);

    // Query-time comparison runs on prebuilt normalised tables, like a real
    // IVF deployment (normalise once, build once, query per batch).
    let sources = pair.test_source_entities();
    let targets: Vec<ea_graph::EntityId> = pair.target.entity_ids().collect();
    let source_rows: Vec<usize> = sources.iter().map(|e| e.index()).collect();
    let target_rows: Vec<usize> = targets.iter().map(|e| e.index()).collect();
    let source_norm = trained
        .entities(ea_graph::KgSide::Source)
        .gather_normalized(&source_rows);
    let target_norm = trained
        .entities(ea_graph::KgSide::Target)
        .gather_normalized(&target_rows);

    let mut table = Table::new(
        format!(
            "ANN pre-filter — exact scan vs IVF (GCN-Align, ZH-EN, {n_s}x{n_t}, k={k}, nlist={nlist})"
        ),
        &[
            "Path",
            "Build (s)",
            "Query (s)",
            "Speedup",
            "Recall@10",
            "Greedy changed",
        ],
    );
    table.add_row(vec![
        "exact".into(),
        "-".into(),
        format!("{:.4}", exact_time.as_secs_f64()),
        "1.0x".into(),
        Table::num(1.0),
        "0".into(),
    ]);

    let exact_greedy = exact.greedy_alignment();
    let mut probes: Vec<usize> = [
        nlist.div_ceil(8),
        nlist.div_ceil(4),
        nlist.div_ceil(2),
        nlist,
    ]
    .into_iter()
    .collect();
    probes.dedup();
    for nprobe in probes {
        let ivf_params = IvfParams {
            nlist,
            nprobe,
            ..IvfParams::default()
        };
        let (ivf, build_time) = ea_metrics::time_it(|| IvfIndex::build(&target_norm, &ivf_params));
        let (rows, query_time) =
            ea_metrics::time_it(|| ivf.search(&source_norm, &target_norm, k, nprobe));

        // Recall@k: fraction of each exact top-k list the pre-filter kept.
        let mut kept = 0usize;
        let mut total = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let exact_ids: Vec<u32> = (0..k.min(n_t))
                .map(|rank| exact.ranked_target(i, rank).unwrap().0)
                .collect();
            let approx_ids: std::collections::HashSet<u32> = row
                .iter()
                .map(|&(col, _)| targets[col as usize].0)
                .collect();
            kept += exact_ids
                .iter()
                .filter(|id| approx_ids.contains(id))
                .count();
            total += exact_ids.len();
        }
        let recall = kept as f64 / total.max(1) as f64;

        let search = CandidateSearch::Ivf(ivf_params.clone());
        let approx_index = trained.candidate_index_with(&pair, k, &search);
        let approx_greedy = approx_index.greedy_alignment();
        let changed = sources
            .iter()
            .filter(|&&s| approx_greedy.target_of(s) != exact_greedy.target_of(s))
            .count();

        if nprobe == nlist {
            assert_eq!(
                approx_greedy.to_vec(),
                exact_greedy.to_vec(),
                "nprobe = nlist must reproduce the exact greedy alignment"
            );
            assert!(
                (recall - 1.0).abs() < 1e-12,
                "nprobe = nlist must reach recall 1.0"
            );
        }

        table.add_row(vec![
            format!("ivf nprobe={nprobe}"),
            format!("{:.4}", build_time.as_secs_f64()),
            format!("{:.4}", query_time.as_secs_f64()),
            format!(
                "{:.1}x",
                exact_time.as_secs_f64() / query_time.as_secs_f64().max(1e-12)
            ),
            Table::num(recall),
            format!("{changed}"),
        ]);
    }
    println!("{table}");
    println!(
        "(IVF build amortises across query batches; `cargo bench --bench bench_similarity` \
         has the n>=2000-target microbenchmarks)"
    );
}

fn sq8(config: &BenchConfig) {
    use ea_embed::{CandidateSearch, QuantizedTable, Sq8Params};

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = 10usize;

    let (exact, exact_time) = ea_metrics::time_it(|| trained.candidate_index(&pair, k));
    let n_s = exact.source_ids().len();
    let n_t = exact.target_ids().len();
    let exact_greedy = exact.greedy_alignment();

    // Query-time comparison runs on a prebuilt quantized table over the
    // normalised target rows, like a real deployment (normalise once,
    // quantize once, query per batch) and like the IVF experiment.
    let sources = pair.test_source_entities();
    let targets: Vec<ea_graph::EntityId> = pair.target.entity_ids().collect();
    let source_rows: Vec<usize> = sources.iter().map(|e| e.index()).collect();
    let target_rows: Vec<usize> = targets.iter().map(|e| e.index()).collect();
    let source_norm = trained
        .entities(ea_graph::KgSide::Source)
        .gather_normalized(&source_rows);
    let target_norm = trained
        .entities(ea_graph::KgSide::Target)
        .gather_normalized(&target_rows);
    let (quantized, build_time) = ea_metrics::time_it(|| QuantizedTable::build(&target_norm));

    let mut table = Table::new(
        format!(
            "SQ8 quantized scan — exact vs int8 ADC + exact re-rank \
             (GCN-Align, ZH-EN, {n_s}x{n_t}, k={k}, codes {} KiB vs f32 {} KiB)",
            quantized.code_bytes() / 1024,
            n_t * trained.dim() * 4 / 1024,
        ),
        &[
            "Path",
            "Build (s)",
            "Query (s)",
            "Speedup",
            "Recall@10",
            "Greedy changed",
        ],
    );
    table.add_row(vec![
        "exact".into(),
        "-".into(),
        format!("{:.4}", exact_time.as_secs_f64()),
        "1.0x".into(),
        Table::num(1.0),
        "0".into(),
    ]);

    for rerank_factor in [2usize, 4, 8, usize::MAX] {
        let params = Sq8Params { rerank_factor };
        let (rows, query_time) =
            ea_metrics::time_it(|| quantized.search(&source_norm, &target_norm, k, &params));

        // Recall@k: fraction of each exact top-k list the quantized
        // selection kept (re-ranked scores are bit-exact by contract).
        let mut kept = 0usize;
        let mut total = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let exact_ids: std::collections::HashSet<ea_graph::EntityId> =
                exact.candidates(i).map(|(e, _)| e).collect();
            kept += row
                .iter()
                .filter(|&&(col, _)| exact_ids.contains(&targets[col as usize]))
                .count();
            total += exact_ids.len();
        }
        let recall = kept as f64 / total.max(1) as f64;

        // Greedy parity through the full strategy plumbing (untimed: this
        // one-shot path re-normalises and re-quantizes internally).
        let approx_greedy = trained
            .candidate_index_with(&pair, k, &CandidateSearch::Sq8(params))
            .greedy_alignment();
        let changed = exact_greedy
            .iter()
            .filter(|p| approx_greedy.target_of(p.source) != Some(p.target))
            .count();

        let label = if rerank_factor == usize::MAX {
            "sq8 rerank=all".to_string()
        } else {
            format!("sq8 rerank={rerank_factor}k")
        };
        if rerank_factor == usize::MAX {
            assert!(
                (recall - 1.0).abs() < 1e-12 && changed == 0,
                "exhaustive re-ranking must reproduce the exact engine"
            );
        }
        table.add_row(vec![
            label,
            format!("{:.4}", build_time.as_secs_f64()),
            format!("{:.4}", query_time.as_secs_f64()),
            format!(
                "{:.1}x",
                exact_time.as_secs_f64() / query_time.as_secs_f64().max(1e-12)
            ),
            Table::num(recall),
            format!("{changed}"),
        ]);
    }
    println!("{table}");
    println!(
        "(quantization amortises across query batches; the returned scores of every \
         SQ8 row are bit-exact f32 dots — only the candidate *selection* is approximate)"
    );
}

fn ondisk(config: &BenchConfig) {
    use ea_embed::{
        save_ivf_streaming, save_sq8_streaming, IvfIndex, IvfListStorage, IvfParams, MappedIndex,
        OpenOptions, QuantizedTable, Sq8Params, TableRows,
    };

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = 10usize;

    // Deployment shape, like the ann/sq8 experiments: normalise once, build
    // the quantizers once, query per batch. The on-disk variants then save
    // the built state to a container and search it through the mapped
    // reader instead of the resident panels.
    let sources = pair.test_source_entities();
    let targets: Vec<ea_graph::EntityId> = pair.target.entity_ids().collect();
    let source_rows: Vec<usize> = sources.iter().map(|e| e.index()).collect();
    let target_rows: Vec<usize> = targets.iter().map(|e| e.index()).collect();
    let source_norm = trained
        .entities(ea_graph::KgSide::Source)
        .gather_normalized(&source_rows);
    let target_norm = trained
        .entities(ea_graph::KgSide::Target)
        .gather_normalized(&target_rows);
    let (n_s, n_t, dim) = (source_norm.rows(), target_norm.rows(), target_norm.dim());
    let panel_bytes = n_t * dim * 4;

    let mut table = Table::new(
        format!(
            "On-disk candidate store — in-memory vs mapped container \
             (GCN-Align, ZH-EN, {n_s}x{n_t} d={dim}, k={k}; resident = heap bytes \
             the search needs, f32 panel alone {} KiB)",
            panel_bytes / 1024
        ),
        &[
            "Path",
            "Resident (KiB)",
            "Stored (KiB)",
            "Open (s)",
            "Query (s)",
            "Bit-identical",
        ],
    );

    let mut build_table = Table::new(
        "Container build — one-shot (materialised panels) vs streaming \
         (bounded chunks, byte-identical output)"
            .to_string(),
        &[
            "Index",
            "One-shot build+save (s)",
            "Streaming save (s)",
            "Peak staging (KiB)",
            "Materialised (KiB)",
            "Byte-identical",
        ],
    );
    // (label, backend) -> query seconds, for the pread/mmap ratio lines.
    let mut query_times: Vec<(String, &'static str, f64)> = Vec::new();

    let path = std::env::temp_dir().join(format!("exea-bench-ondisk-{}.eacg", std::process::id()));
    let stream_path =
        std::env::temp_dir().join(format!("exea-bench-ondisk-{}-s.eacg", std::process::id()));
    let backends = [
        ("mmap", OpenOptions::default()),
        (
            "pread",
            OpenOptions {
                prefer_mmap: false,
                verify: true,
            },
        ),
    ];

    let bit_identical = |a: &[Vec<(u32, f32)>], b: &[Vec<(u32, f32)>]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
            })
    };

    // IVF (flat and IVF-SQ lists): build once, then compare backends.
    for storage in [
        IvfListStorage::Flat,
        IvfListStorage::Sq8(Sq8Params::default()),
    ] {
        let label = match storage {
            IvfListStorage::Flat => "ivf",
            IvfListStorage::Sq8(_) => "ivf-sq8",
        };
        let params = IvfParams {
            storage,
            ..IvfParams::default()
        };
        let index = IvfIndex::build(&target_norm, &params);
        let nprobe = params.resolved_nprobe(index.nlist());
        let sq8 = match &params.storage {
            IvfListStorage::Flat => None,
            IvfListStorage::Sq8(p) => Some(p.clone()),
        };
        let (reference, query_time) =
            ea_metrics::time_it(|| index.search(&source_norm, &target_norm, k, nprobe));
        table.add_row(vec![
            format!("{label} in-memory"),
            format!("{}", (index.resident_bytes() + panel_bytes) / 1024),
            "-".into(),
            "-".into(),
            format!("{:.4}", query_time.as_secs_f64()),
            "reference".into(),
        ]);
        // One-shot (rebuild + save, the materialised path) vs the streaming
        // builder writing the same container in bounded chunks.
        let (_, one_shot_time) = ea_metrics::time_it(|| {
            IvfIndex::build(&target_norm, &params)
                .save(&target_norm, &path)
                .expect("container save")
        });
        let (stats, stream_time) = ea_metrics::time_it(|| {
            save_ivf_streaming(&TableRows::new(&target_norm), &params, &stream_path, 4096)
                .expect("streaming save")
        });
        let identical = std::fs::read(&path).expect("read one-shot")
            == std::fs::read(&stream_path).expect("read streamed");
        assert!(identical, "{label}: streamed container diverged");
        let materialised = panel_bytes
            + match &params.storage {
                IvfListStorage::Flat => 0,
                IvfListStorage::Sq8(_) => n_t * dim,
            };
        build_table.add_row(vec![
            label.to_string(),
            format!("{:.4}", one_shot_time.as_secs_f64()),
            format!("{:.4}", stream_time.as_secs_f64()),
            format!("{}", stats.peak_staging_bytes / 1024),
            format!("{}", materialised / 1024),
            "yes".into(),
        ]);
        for (backend, options) in &backends {
            let (mapped, open_time) =
                ea_metrics::time_it(|| MappedIndex::open_with(&path, options).expect("open"));
            if mapped.backend() != *backend {
                // mmap can be refused (seccomp, non-unix): the reader falls
                // back to pread gracefully; skip rather than mislabel a row.
                println!("({backend} backend unavailable here — row skipped)");
                continue;
            }
            let (rows, query_time) =
                ea_metrics::time_it(|| mapped.search_ivf(&source_norm, k, nprobe, sq8.as_ref()));
            let same = bit_identical(&reference, &rows);
            assert!(same, "{label} {backend} diverged from the in-memory engine");
            query_times.push((label.to_string(), backend, query_time.as_secs_f64()));
            table.add_row(vec![
                format!("{label} {backend}"),
                format!("{}", mapped.resident_bytes() / 1024),
                format!("{}", mapped.stored_bytes() / 1024),
                format!("{:.4}", open_time.as_secs_f64()),
                format!("{:.4}", query_time.as_secs_f64()),
                "yes".into(),
            ]);
        }
    }

    // Whole-corpus SQ8 scan.
    let quantized = QuantizedTable::build(&target_norm);
    let sq8_params = Sq8Params::default();
    let (reference, query_time) =
        ea_metrics::time_it(|| quantized.search(&source_norm, &target_norm, k, &sq8_params));
    table.add_row(vec![
        "sq8 in-memory".into(),
        format!(
            "{}",
            (quantized.code_bytes() + dim * 8 + panel_bytes) / 1024
        ),
        "-".into(),
        "-".into(),
        format!("{:.4}", query_time.as_secs_f64()),
        "reference".into(),
    ]);
    let (_, one_shot_time) = ea_metrics::time_it(|| {
        QuantizedTable::build(&target_norm)
            .save(&target_norm, &path)
            .expect("container save")
    });
    let (stats, stream_time) = ea_metrics::time_it(|| {
        save_sq8_streaming(&TableRows::new(&target_norm), &stream_path, 4096)
            .expect("streaming save")
    });
    let identical = std::fs::read(&path).expect("read one-shot")
        == std::fs::read(&stream_path).expect("read streamed");
    assert!(identical, "sq8: streamed container diverged");
    build_table.add_row(vec![
        "sq8".into(),
        format!("{:.4}", one_shot_time.as_secs_f64()),
        format!("{:.4}", stream_time.as_secs_f64()),
        format!("{}", stats.peak_staging_bytes / 1024),
        format!("{}", (panel_bytes + n_t * dim) / 1024),
        "yes".into(),
    ]);
    for (backend, options) in &backends {
        let (mapped, open_time) =
            ea_metrics::time_it(|| MappedIndex::open_with(&path, options).expect("open"));
        if mapped.backend() != *backend {
            println!("({backend} backend unavailable here — row skipped)");
            continue;
        }
        let (rows, query_time) =
            ea_metrics::time_it(|| mapped.search_sq8(&source_norm, k, &sq8_params));
        let same = bit_identical(&reference, &rows);
        assert!(same, "sq8 {backend} diverged from the in-memory engine");
        query_times.push(("sq8".to_string(), backend, query_time.as_secs_f64()));
        table.add_row(vec![
            format!("sq8 {backend}"),
            format!("{}", mapped.resident_bytes() / 1024),
            format!("{}", mapped.stored_bytes() / 1024),
            format!("{:.4}", open_time.as_secs_f64()),
            format!("{:.4}", query_time.as_secs_f64()),
            "yes".into(),
        ]);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&stream_path);

    println!("{table}");
    println!(
        "(mapped searches gather only probed/surviving rows from the container; open \
         time includes streaming checksum verification of every section. The resident \
         column is what must stay in RAM — centroids, CSR offsets and the SQ8 grid — \
         vs the full panels of the in-memory engines.)"
    );
    println!("{build_table}");
    println!(
        "(peak staging is the builder's chunk-scaled buffers — bounded by the 4096-row \
         chunk regardless of corpus rows — vs the materialised panels the one-shot \
         path holds; both writes produce the same bytes, checksums included)"
    );
    for (label, _, mmap_secs) in query_times.iter().filter(|(_, b, _)| *b == "mmap") {
        if let Some((_, _, pread_secs)) = query_times
            .iter()
            .find(|(l, b, _)| l == label && *b == "pread")
        {
            println!(
                "{label}: pread/mmap query ratio {:.2}x (coalesced gathers + readahead)",
                pread_secs / mmap_secs.max(1e-12)
            );
        }
    }
}

/// Sharded scatter-gather rows (not in the paper): the exact blocked scan vs
/// the sharded engine on the real trained embeddings of the synthetic ZH-EN
/// dataset, the same methodology as the `ann` experiment. The corpus is
/// split into clustered shards with exhaustive per-shard engines, so the
/// routed-shard count is the *only* approximation axis the table sweeps:
/// at `route = nshards` the merged lists are asserted bit-identical to the
/// exact scan, below that they are subset-only. A second table reports the
/// aggregated resident/stored bytes of the resident vs container-spilled
/// shard sets.
fn shard(config: &BenchConfig) {
    use ea_embed::{
        CandidateSearch, MappedOptions, ShardParams, ShardPartition, ShardedIndex, StoreBacking,
    };

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = 10usize;

    let (exact, exact_time) = ea_metrics::time_it(|| trained.candidate_index(&pair, k));
    let n_s = exact.source_ids().len();
    let n_t = exact.target_ids().len();
    let exact_greedy = exact.greedy_alignment();

    // Deployment shape, like the ann/sq8/ondisk experiments: normalise once,
    // build the shard set once, query per batch.
    let sources = pair.test_source_entities();
    let targets: Vec<ea_graph::EntityId> = pair.target.entity_ids().collect();
    let source_rows: Vec<usize> = sources.iter().map(|e| e.index()).collect();
    let target_rows: Vec<usize> = targets.iter().map(|e| e.index()).collect();
    let source_norm = trained
        .entities(ea_graph::KgSide::Source)
        .gather_normalized(&source_rows);
    let target_norm = trained
        .entities(ea_graph::KgSide::Target)
        .gather_normalized(&target_rows);

    let base = ShardParams {
        nshards: 8,
        partition: ShardPartition::Clustered,
        ..ShardParams::exhaustive()
    };
    let (sharded, build_time) = ea_metrics::time_it(|| ShardedIndex::build(&target_norm, &base));
    let nshards = sharded.nshards();

    let mut table = Table::new(
        format!(
            "Sharded scatter-gather — exact scan vs routed shard subsets \
             (GCN-Align, ZH-EN, {n_s}x{n_t}, k={k}, {nshards} clustered shards, \
             exhaustive per-shard engines)"
        ),
        &[
            "Path",
            "Build (s)",
            "Query (s)",
            "Speedup",
            "Recall@10",
            "Greedy changed",
        ],
    );
    table.add_row(vec![
        "exact".into(),
        "-".into(),
        format!("{:.4}", exact_time.as_secs_f64()),
        "1.0x".into(),
        Table::num(1.0),
        "0".into(),
    ]);

    let mut routes: Vec<usize> = [1, 2, nshards / 2, nshards * 3 / 4, nshards]
        .into_iter()
        .filter(|&r| r >= 1)
        .collect();
    routes.sort_unstable();
    routes.dedup();
    for route in routes {
        let (rows, query_time) =
            ea_metrics::time_it(|| sharded.search_routed(&source_norm, k, route));

        // Recall@k: fraction of each exact top-k list the routed subset
        // kept (returned scores are bit-exact by contract).
        let mut kept = 0usize;
        let mut total = 0usize;
        for (i, row) in rows.iter().enumerate() {
            let exact_ids: Vec<u32> = (0..k.min(n_t))
                .map(|rank| exact.ranked_target(i, rank).unwrap().0)
                .collect();
            let approx_ids: std::collections::HashSet<u32> = row
                .iter()
                .map(|&(col, _)| targets[col as usize].0)
                .collect();
            kept += exact_ids
                .iter()
                .filter(|id| approx_ids.contains(id))
                .count();
            total += exact_ids.len();
        }
        let recall = kept as f64 / total.max(1) as f64;

        // Greedy parity through the full strategy plumbing (untimed: this
        // one-shot path re-normalises and rebuilds the shard set).
        let search = CandidateSearch::Sharded(ShardParams {
            route_shards: route,
            ..base.clone()
        });
        let approx_index = trained.candidate_index_with(&pair, k, &search);
        let approx_greedy = approx_index.greedy_alignment();
        let changed = sources
            .iter()
            .filter(|&&s| approx_greedy.target_of(s) != exact_greedy.target_of(s))
            .count();

        if route == nshards {
            // Full routing with exhaustive per-shard engines: the merged
            // lists (forward and reverse, via the strategy plumbing) are
            // bit-identical to the exact scan.
            for (i, row) in rows.iter().enumerate() {
                let a: Vec<(u32, u32)> = exact
                    .candidates(i)
                    .map(|(e, s)| (e.0, s.to_bits()))
                    .collect();
                let b: Vec<(u32, u32)> = row
                    .iter()
                    .map(|&(col, s)| (targets[col as usize].0, s.to_bits()))
                    .collect();
                assert_eq!(a, b, "row {i} diverged at route = nshards");
            }
            assert_eq!(
                approx_greedy.to_vec(),
                exact_greedy.to_vec(),
                "route = nshards must reproduce the exact greedy alignment"
            );
            assert!(
                (recall - 1.0).abs() < 1e-12,
                "route = nshards must reach recall 1.0"
            );
        }

        table.add_row(vec![
            format!("sharded route={route}/{nshards}"),
            format!("{:.4}", build_time.as_secs_f64()),
            format!("{:.4}", query_time.as_secs_f64()),
            format!(
                "{:.1}x",
                exact_time.as_secs_f64() / query_time.as_secs_f64().max(1e-12)
            ),
            Table::num(recall),
            format!("{changed}"),
        ]);
    }
    println!("{table}");

    // Memory truthfulness: the same shard set resident vs spilled to
    // per-shard containers, reported through the aggregated counters.
    let mapped_params = ShardParams {
        backing: StoreBacking::Mapped(MappedOptions::default()),
        ..base.clone()
    };
    let (mapped, mapped_build) =
        ea_metrics::time_it(|| ShardedIndex::build(&target_norm, &mapped_params));
    let a = sharded.search_routed(&source_norm, k, nshards);
    let b = mapped.search_routed(&source_norm, k, nshards);
    assert!(
        a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
            }),
        "mapped shard set diverged from the resident one"
    );
    let mut memory = Table::new(
        "Shard-set memory — aggregated across shards (resident = heap bytes \
         the search needs; stored = container bytes on disk)"
            .to_string(),
        &[
            "Backing",
            "Build (s)",
            "Resident (KiB)",
            "Stored (KiB)",
            "Backend",
        ],
    );
    memory.add_row(vec![
        "resident".into(),
        format!("{:.4}", build_time.as_secs_f64()),
        format!("{}", sharded.resident_bytes() / 1024),
        format!("{}", sharded.stored_bytes() / 1024),
        sharded.backend().into(),
    ]);
    memory.add_row(vec![
        "mapped".into(),
        format!("{:.4}", mapped_build.as_secs_f64()),
        format!("{}", mapped.resident_bytes() / 1024),
        format!("{}", mapped.stored_bytes() / 1024),
        mapped.backend().into(),
    ]);
    println!("{memory}");
    println!(
        "(per-shard engines are exhaustive, so the routed-shard count is the only \
         approximation axis; every returned score is still the bit-exact f32 dot. \
         Clustered partitioning concentrates each query's neighbours in few shards, \
         which is why partial routing keeps recall high.)"
    );
}

/// `exea-bench serve`: the serving daemon under concurrent client load.
///
/// Starts `exea-serve` in-process on a loopback port, drives it with a small
/// fleet of retrying clients (a predict/explain/verify mix), and reports
/// throughput, p50/p99 latency, and the typed-outcome split — once with a
/// clean transport and once under an injected fault schedule (slowed
/// admission batches, connections killed mid-stream, torn writes, and a
/// panicking handler). The robustness claim the second row demonstrates:
/// faults cost latency, never typed outcomes — every request still ends in
/// a protocol-level answer or a typed client error.
fn serve(config: &BenchConfig) {
    use exea_serve::{
        ConnFaults, Endpoint, Engine, EngineConfig, FaultPlan, Request, Response, RetryClient,
        RetryPolicy, Server, ServerConfig,
    };
    use std::time::{Duration, Instant};

    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 32;

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_model, trained) = train(ModelKind::GcnAlign, &pair);
    let engine_config = EngineConfig {
        scale: config.scale,
        ..EngineConfig::default()
    };
    // The harness process runs one engine per invocation; the leak is the
    // same bounded one the daemon binary does at startup.
    let engine: &'static Engine = Box::leak(Box::new(
        Engine::from_trained(pair, trained, &engine_config).expect("serving engine builds"),
    ));
    let canonical = engine.sample_pair().expect("non-empty alignment");
    let (canonical_source, canonical_target) = (canonical.source.0, canonical.target.0);

    // The injected schedule: every third connection dies after four reads,
    // every eighth tears a response frame, connection 5 panics in the
    // handler, and every admission batch is slowed to open real overload
    // and deadline windows.
    let mut faulty_conns = Vec::new();
    for i in 0..64usize {
        let mut faults = ConnFaults::default();
        if i % 3 == 1 {
            faults.fail_read_at = Some(4);
        }
        if i % 8 == 6 {
            faults.tear_write_after = Some(9);
        }
        if i == 5 {
            faults.panic_in_handler = true;
        }
        faulty_conns.push(faults);
    }
    let scenarios: [(&str, FaultPlan); 2] = [
        ("clean", FaultPlan::none()),
        (
            "faulty",
            FaultPlan {
                connections: faulty_conns,
                batch_delay: Some(Duration::from_millis(2)),
            },
        ),
    ];

    let mut table = Table::new(
        format!("exea-serve under load ({CLIENTS} clients x {REQUESTS_PER_CLIENT} requests)"),
        &[
            "Scenario",
            "Served",
            "Typed rej.",
            "Client err.",
            "p50 (ms)",
            "p99 (ms)",
            "Req/s",
            "Panics",
            "Transport",
        ],
    );

    for (name, plan) in scenarios {
        let server_config = ServerConfig {
            queue_capacity: 16,
            max_batch: 8,
            fault: plan,
            ..ServerConfig::default()
        };
        let handle = Server::start(
            engine,
            &[Endpoint::Tcp("127.0.0.1:0".into())],
            server_config,
        )
        .expect("server starts");
        let addr = handle.tcp_addr().expect("bound tcp endpoint");
        let endpoint = Endpoint::Tcp(addr.to_string());
        let num_sources = engine.num_sources() as u32;

        let started = Instant::now();
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let endpoint = endpoint.clone();
                std::thread::spawn(move || {
                    let policy = RetryPolicy {
                        max_attempts: 6,
                        base_backoff: Duration::from_millis(5),
                        max_backoff: Duration::from_millis(100),
                        seed: 0x5eed_0000 + c as u64,
                    };
                    let mut client = RetryClient::new(endpoint, Duration::from_millis(50), policy);
                    // (served, typed rejections, client errors, latencies in us)
                    let mut outcome = (0u64, 0u64, 0u64, Vec::new());
                    for r in 0..REQUESTS_PER_CLIENT {
                        let source = ((c * REQUESTS_PER_CLIENT + r) as u32) % num_sources;
                        let request = match r % 3 {
                            0 => Request::Predict {
                                source,
                                k: 10,
                                tier: None,
                            },
                            1 => Request::Explain {
                                source: canonical_source,
                                target: canonical_target,
                            },
                            _ => Request::Verify {
                                pairs: vec![(canonical_source, canonical_target)],
                            },
                        };
                        let sent = Instant::now();
                        match client.call(request, 2_000) {
                            Ok(Response::Predict { .. })
                            | Ok(Response::Explain { .. })
                            | Ok(Response::Verify { .. }) => {
                                outcome.0 += 1;
                                // Integer microseconds: percentile sorting
                                // stays total-order safe.
                                outcome.3.push(sent.elapsed().as_micros() as u64);
                            }
                            Ok(_) => outcome.1 += 1,
                            Err(_) => outcome.2 += 1,
                        }
                    }
                    outcome
                })
            })
            .collect();

        let mut served = 0u64;
        let mut rejected = 0u64;
        let mut client_errors = 0u64;
        let mut latencies_us: Vec<u64> = Vec::new();
        for worker in workers {
            let (s, rej, err, mut lats) = worker.join().expect("client thread");
            served += s;
            rejected += rej;
            client_errors += err;
            latencies_us.append(&mut lats);
        }
        let elapsed = started.elapsed();
        let stats = handle.stats();
        handle.shutdown();

        latencies_us.sort_unstable();
        let percentile = |p: usize| -> f64 {
            if latencies_us.is_empty() {
                return f64::NAN;
            }
            let idx = (latencies_us.len() - 1) * p / 100;
            latencies_us[idx] as f64 / 1_000.0
        };
        let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
        assert_eq!(
            served + rejected + client_errors,
            total,
            "every request must end in a typed outcome"
        );
        table.add_row(vec![
            name.into(),
            format!("{served}"),
            format!("{rejected}"),
            format!("{client_errors}"),
            format!("{:.2}", percentile(50)),
            format!("{:.2}", percentile(99)),
            format!("{:.1}", served as f64 / elapsed.as_secs_f64()),
            format!("{}", stats.panics),
            format!("{}", stats.transport_faults),
        ]);
    }
    println!("{table}");
    println!(
        "(typed rejections are protocol answers — Overloaded/DeadlineExceeded/Internal — \
         after client retries; client errors are typed transport failures. The accounting \
         row-sums to the request total in both scenarios: faults move requests between \
         outcome classes, they never lose one.)"
    );
}

/// `exea-bench lsm`: the LSM mutable engine under a scripted schedule.
///
/// Builds a [`ea_embed::MutableIndex`] over the real trained target corpus
/// and drives it through load → delete 20% → re-insert half → compact,
/// measuring alignment recall@10 (against the gold reference, over sources
/// whose counterpart is live) and query time at every step. At every step
/// the segmented search is asserted bit-identical — ids and score bits —
/// to a fresh single exhaustive engine built over the same live corpus,
/// which is the engine's core claim. A second table prices the load, seal,
/// and compaction; a third runs the one-shot `lsm-*` strategies through the
/// full prediction + repair pipeline against the exact scan.
fn lsm(config: &BenchConfig) {
    use ea_embed::{
        CandidateSearch, IvfParams, LsmParams, MappedOptions, MutableIndex, Sq8Params, StoreBacking,
    };
    use ea_embed::{IvfIndex, IvfListStorage};
    use std::collections::HashMap;

    let pair = load(DatasetName::ZhEn, config.scale);
    let (_, trained) = train(ModelKind::GcnAlign, &pair);
    let k = 10usize;

    let sources = pair.test_source_entities();
    let targets: Vec<ea_graph::EntityId> = pair.target.entity_ids().collect();
    let source_rows: Vec<usize> = sources.iter().map(|e| e.index()).collect();
    let source_norm = trained
        .entities(ea_graph::KgSide::Source)
        .gather_normalized(&source_rows);
    let target_table = trained.entities(ea_graph::KgSide::Target);
    let n_t = targets.len();
    let col_of: HashMap<ea_graph::EntityId, u32> = targets
        .iter()
        .enumerate()
        .map(|(c, &e)| (e, c as u32))
        .collect();
    let gold: Vec<Option<u32>> = sources
        .iter()
        .map(|&s| {
            pair.reference
                .target_of(s)
                .and_then(|t| col_of.get(&t).copied())
        })
        .collect();

    // Eight segments' worth of corpus per seal, like a store that has been
    // running for a while; raw rows go in, the index normalises once.
    let params = LsmParams {
        seal_rows: (n_t / 8).max(1),
        ..LsmParams::default()
    };
    let mut index = MutableIndex::new(target_table.dim(), params);
    let (_, load_time) = time_it(|| {
        for (c, t) in targets.iter().enumerate() {
            index
                .insert(c as u32, target_table.row(t.index()))
                .expect("segment seal");
        }
    });
    let load_seals = index.segments();

    // Alignment recall@10 over the sources whose gold counterpart is live,
    // plus the step's bit-identity assertion against a fresh single engine.
    let measure = |index: &MutableIndex, step: &str, table: &mut Table| {
        let cap = k.min(index.len());
        let (flat, query_time) = time_it(|| index.search(&source_norm, k));
        let (live_table, entities) = index.live_table();
        let fresh = IvfIndex::build(&live_table, &IvfParams::exhaustive()).search(
            &source_norm,
            &live_table,
            cap,
            usize::MAX,
        );
        for (q, row) in fresh.iter().enumerate() {
            let a: Vec<(u32, u32)> = flat[q * cap..(q + 1) * cap]
                .iter()
                .map(|r| (r.index, r.score.to_bits()))
                .collect();
            let b: Vec<(u32, u32)> = row
                .iter()
                .map(|&(col, s)| (entities[col as usize], s.to_bits()))
                .collect();
            assert_eq!(
                a, b,
                "step {step:?}: query {q} diverged from a fresh engine"
            );
        }
        let mut hit = 0usize;
        let mut answerable = 0usize;
        for (q, gold_col) in gold.iter().enumerate() {
            let Some(gold_col) = gold_col else { continue };
            if !index.contains(*gold_col) {
                continue;
            }
            answerable += 1;
            if flat[q * cap..(q + 1) * cap]
                .iter()
                .any(|r| r.index == *gold_col)
            {
                hit += 1;
            }
        }
        table.add_row(vec![
            step.into(),
            format!("{}", index.len()),
            format!("{}/{}", index.segments(), index.mem_rows()),
            format!("{:.4}", query_time.as_secs_f64()),
            Table::num(hit as f64 / answerable.max(1) as f64),
            format!("{answerable}"),
        ]);
    };

    let mut schedule = Table::new(
        format!(
            "LSM mutable engine — scripted schedule (GCN-Align, ZH-EN, \
             {}x{n_t}, k={k}, seal budget {} rows; every step asserted \
             bit-identical to a fresh engine over the live corpus)",
            sources.len(),
            (n_t / 8).max(1),
        ),
        &[
            "Step",
            "Live rows",
            "Segs/mem",
            "Query (s)",
            "Recall@10",
            "Answerable",
        ],
    );
    measure(&index, "loaded", &mut schedule);
    for c in (0..n_t).step_by(5) {
        index.remove(c as u32);
    }
    measure(&index, "delete 20%", &mut schedule);
    for c in (0..n_t).step_by(10) {
        index
            .insert(c as u32, target_table.row(targets[c].index()))
            .expect("segment seal");
    }
    measure(&index, "re-insert half", &mut schedule);
    let (_, compact_time) = time_it(|| index.compact().expect("compaction"));
    measure(&index, "compacted", &mut schedule);
    println!("{schedule}");

    // Price the maintenance operations: the bulk load (which seals as it
    // goes), one explicit seal of a small mutable tail, and the compaction
    // above, next to the bytes the live set needs.
    let (_, seal_time) = time_it(|| index.seal().expect("segment seal"));
    let mut costs = Table::new(
        "LSM maintenance cost".to_string(),
        &["Operation", "Time (s)", "Resident (KiB)", "Stored (KiB)"],
    );
    for (op, time) in [
        (format!("load {n_t} rows ({load_seals} seals)"), load_time),
        ("seal mutable tail".to_string(), seal_time),
        ("compact to 1 segment".to_string(), compact_time),
    ] {
        costs.add_row(vec![
            op,
            format!("{:.4}", time.as_secs_f64()),
            format!("{}", index.resident_bytes() / 1024),
            format!("{}", index.stored_bytes() / 1024),
        ]);
    }
    // Same live set spilled to containers: sealed segments become
    // sq8+mapped files and the resident column collapses to the mutable
    // tail plus per-segment centroids.
    let (live_table, entities) = index.live_table();
    let mut spilled = MutableIndex::new(
        target_table.dim(),
        LsmParams {
            seal_rows: (n_t / 8).max(1),
            ivf: IvfParams {
                storage: IvfListStorage::Sq8(Sq8Params::default()),
                ..LsmParams::default().ivf
            },
            backing: StoreBacking::Mapped(MappedOptions::default()),
        },
    );
    let (_, spill_time) = time_it(|| {
        for (row, &entity) in entities.iter().enumerate() {
            spilled
                .insert(entity, live_table.row(row))
                .expect("segment seal");
        }
        spilled.seal().expect("segment seal");
    });
    costs.add_row(vec![
        format!("reload as sq8+mapped ({} segs)", spilled.segments()),
        format!("{:.4}", spill_time.as_secs_f64()),
        format!("{}", spilled.resident_bytes() / 1024),
        format!("{}", spilled.stored_bytes() / 1024),
    ]);
    println!("{costs}");

    // The downstream claim: prediction and repair ride the one-shot lsm-*
    // strategies with zero pipeline changes, and the flat exhaustive
    // variant reproduces the exact scan bit for bit.
    let (exact_index, exact_time) = time_it(|| trained.candidate_index(&pair, k));
    let exact_greedy = exact_index.greedy_alignment();
    let strategies: [(&str, CandidateSearch); 3] = [
        ("exact", CandidateSearch::Exact),
        ("lsm-ivf", CandidateSearch::Lsm(LsmParams::default())),
        (
            "lsm-ivf-sq8-mapped",
            CandidateSearch::Lsm(LsmParams {
                ivf: IvfParams {
                    storage: IvfListStorage::Sq8(Sq8Params::default()),
                    ..LsmParams::default().ivf
                },
                backing: StoreBacking::Mapped(MappedOptions::default()),
                ..LsmParams::default()
            }),
        ),
    ];
    let mut parity = Table::new(
        "Prediction + repair through the LSM strategies".to_string(),
        &[
            "Strategy",
            "Build (s)",
            "Greedy acc",
            "Repair acc",
            "Changed",
        ],
    );
    for (name, search) in strategies {
        let (candidates, build_time) = time_it(|| trained.candidate_index_with(&pair, k, &search));
        let greedy = candidates.greedy_alignment();
        if name == "lsm-ivf" {
            assert_eq!(
                greedy.to_vec(),
                exact_greedy.to_vec(),
                "exhaustive LSM must reproduce the exact greedy alignment"
            );
        }
        let exea_config = ExeaConfig {
            candidate_search: search,
            ..ExeaConfig::default()
        };
        let exea = ExEa::new(&pair, &trained, exea_config);
        let outcome = exea.repair(&RepairConfig::default());
        parity.add_row(vec![
            name.into(),
            format!(
                "{:.4}",
                if name == "exact" {
                    exact_time.as_secs_f64()
                } else {
                    build_time.as_secs_f64()
                }
            ),
            Table::num(greedy.accuracy_against(&pair.reference)),
            Table::num(outcome.repaired.accuracy_against(&pair.reference)),
            format!("{}", outcome.stats.changed_pairs),
        ]);
    }
    println!("{parity}");
    println!(
        "(the lsm-ivf row is asserted bit-identical to the exact scan — same greedy \
         alignment, same candidate lists — because exhaustive per-segment probing plus \
         the deterministic gather-merge reproduces a single engine over the corpus; \
         sq8-mapped trades list storage for container-backed segments and stays \
         subset-only, like the sharded and ondisk experiments.)"
    );
}
