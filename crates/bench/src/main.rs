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
//!   all      run everything above in sequence (the paper's full run)
//! ```
//!
//! Experiment names ignore ASCII case. `--scale small` (default) finishes in
//! minutes on a laptop; `--scale bench` uses larger synthetic datasets. The
//! README's "Building, testing, benchmarking" section has example commands.
//! An unknown experiment, flag or scale, a flag without its value and a
//! `--samples` that is not a positive integer all exit 2 with a one-line
//! message before any dataset loads.
#![forbid(unsafe_code)]

mod experiments;

use experiments::{BenchConfig, Experiment};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let selected = select(&args[0]).unwrap_or_else(|| {
        fail(&format!(
            "unknown experiment {:?} (expected {})",
            args[0],
            names()
        ))
    });
    // Validate the environment override up front: a typo'd
    // EXEA_CANDIDATE_SEARCH is a clean one-line failure before any dataset
    // loads, not a panic deep inside the first experiment.
    if let Err(e) = ea_embed::CandidateSearch::from_env() {
        fail(&e.to_string());
    }
    let mut config = BenchConfig::default();
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
    for experiment in selected {
        run(experiment, &config);
    }
}

/// The experiments a command-line name selects, ignoring ASCII case: `all`
/// is every experiment in paper order; an unknown name selects nothing.
fn select(name: &str) -> Option<Vec<Experiment>> {
    if name.eq_ignore_ascii_case("all") {
        return Some(Experiment::all().to_vec());
    }
    Experiment::parse(name).map(|e| vec![e])
}

/// Every accepted experiment name, `|`-separated, `all` last.
fn names() -> String {
    let mut names: Vec<&str> = Experiment::all().iter().map(|e| e.name()).collect();
    names.push("all");
    names.join("|")
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
        "exea-bench <{}> [--scale small|bench|paper] [--samples N]",
        names()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_ignore_case_and_cover_only_the_paper() {
        assert_eq!(select("ALL"), select("all"));
        assert_eq!(select("All"), Some(Experiment::all().to_vec()));
        assert_eq!(select("Table3"), select("table3"));
        assert_eq!(select("TABLE3"), Some(vec![Experiment::Table3]));
        for retired in ["topk", "ann", "sq8", "ondisk", "shard", "serve", "lsm"] {
            assert_eq!(select(retired), None, "{retired:?}");
        }
        for e in Experiment::all() {
            assert_eq!(Experiment::parse(e.name()), Some(e));
        }
    }
}
