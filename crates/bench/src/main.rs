//! `exea-bench` — regenerates every table and figure of the ExEA paper.
//!
//! Usage:
//!
//! ```text
//! exea-bench <experiment> [--scale small|bench|paper] [--samples N]
//!
//! experiments:
//!   table1   explanation generation, first-order candidates (fidelity/sparsity)
//!   table2   explanation generation, second-order candidates (Dual-AMN)
//!   fig4     wall-clock time of explanation generation (Dual-AMN, ZH-EN)
//!   fig5     case study: explanations of one source entity under all models
//!   table3   EA repair accuracy (base vs ExEA) on all datasets
//!   table4   ablation study of the conflict resolvers (MTransE)
//!   fig6     ablation across models on ZH-EN
//!   table5   ExEA vs simulated-LLM explainers (ZH-EN, DBP-WD)
//!   table6   EA verification precision/recall/F1
//!   table7   explanation generation under seed noise
//!   table8   EA repair under seed noise
//!   topk     dense similarity matrix vs blocked top-k candidate engine
//!   ann      exact scan vs IVF pre-filter (recall/speed across nprobe)
//!   sq8      exact scan vs SQ8 quantized scan + exact re-rank (recall/speed)
//!   ondisk   in-memory vs mmap/pread-backed candidate store (resident bytes)
//!   shard    exact scan vs sharded scatter-gather (recall across routed shards)
//!   serve    exea-serve under concurrent load (p50/p99, clean vs injected faults)
//!   lsm      LSM mutable engine: insert/delete/compact schedule (recall, cost, repair parity)
//!   all      run everything above in sequence
//! ```
//!
//! `--scale small` (default) finishes in minutes on a laptop; `--scale bench`
//! uses larger synthetic datasets and is what `EXPERIMENTS.md` reports.
//! An unknown flag or scale, a flag without its value and a `--samples`
//! that is not a positive integer all exit 2 with a one-line message.
#![forbid(unsafe_code)]

mod experiments;

use experiments::{BenchConfig, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    // Validate environment overrides up front: a typo'd EXEA_CANDIDATE_SEARCH
    // or EXEA_MAPPED_BACKEND is a clean one-line failure before any dataset
    // loads, not a panic deep inside the first experiment.
    if let Err(e) = ea_embed::CandidateSearch::from_env() {
        fail(&e.to_string());
    }
    if let Err(e) = ea_embed::mapped_backend_from_env() {
        fail(&e.to_string());
    }
    let mut config = BenchConfig::default();
    let mut experiment = args[0].clone();
    let mut flags = args[1..].iter();
    while let Some(flag) = flags.next() {
        let mut value = || {
            flags
                .next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--scale" => {
                let v = value();
                config.scale = match v.as_str() {
                    "small" => ea_data::DatasetScale::Small,
                    "bench" => ea_data::DatasetScale::Bench,
                    "paper" => ea_data::DatasetScale::Paper,
                    _ => fail(&format!("unknown scale {v:?} (expected small|bench|paper)")),
                };
            }
            "--samples" => {
                let v = value();
                config.fidelity_samples = match v.parse() {
                    Ok(n) if n > 0 => n,
                    _ => fail(&format!("--samples needs a positive integer, got {v:?}")),
                };
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if experiment == "all" {
        for e in Experiment::all() {
            run(e, &config);
        }
        return;
    }
    experiment.make_ascii_lowercase();
    match Experiment::parse(&experiment) {
        Some(e) => run(e, &config),
        None => {
            eprintln!("unknown experiment {experiment:?}");
            print_usage();
            std::process::exit(1);
        }
    }
}

/// Rejects the command line with a one-line message and exit status 2.
fn fail(message: &str) -> ! {
    eprintln!("exea-bench: {message}");
    std::process::exit(2);
}

fn run(experiment: Experiment, config: &BenchConfig) {
    let started = std::time::Instant::now();
    experiments::run_experiment(experiment, config);
    eprintln!("[{experiment:?} finished in {:.1?}]", started.elapsed());
}

fn print_usage() {
    println!(
        "exea-bench <table1|table2|fig4|fig5|table3|table4|fig6|table5|table6|table7|table8|topk|ann|sq8|ondisk|shard|serve|lsm|all> \
         [--scale small|bench|paper] [--samples N]"
    );
}
