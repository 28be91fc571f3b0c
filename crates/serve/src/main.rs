//! `exea-serve` — the alignment serving daemon.
//!
//! ```text
//! exea-serve [--tcp ADDR] [--unix PATH] [--dataset NAME] [--scale SCALE]
//!            [--model MODEL] [--queue N] [--batch N] [--workers N]
//!            [--smoke]
//! ```
//!
//! Binds the requested endpoints (default `--tcp 127.0.0.1:7878`), builds
//! the warm engine once, then serves until SIGINT/SIGTERM kills the
//! process. `--smoke` instead runs one self-test round-trip over an
//! ephemeral TCP port and exits — CI uses it as the daemon's liveness
//! check.
//!
//! All startup failures — bad flags, bad `EXEA_*` environment overrides,
//! unbindable endpoints — exit with code 2 and a one-line message; the
//! daemon never starts half-configured.

use ea_data::datasets::{DatasetName, DatasetScale};
use ea_models::ModelKind;
use exea_serve::protocol::Request;
use exea_serve::{
    Client, Endpoint, Engine, EngineConfig, Response, ServeError, Server, ServerConfig,
};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    endpoints: Vec<Endpoint>,
    engine: EngineConfig,
    server: ServerConfig,
    smoke: bool,
}

fn usage() -> &'static str {
    "usage: exea-serve [--tcp ADDR] [--unix PATH] \
     [--dataset zh-en|ja-en|fr-en|dbp-wd|dbp-yago] \
     [--scale small|bench|paper] [--model mtranse|aligne|gcn-align|dual-amn] \
     [--queue N] [--batch N] [--workers N] [--smoke]"
}

fn fail(message: &str) -> ! {
    eprintln!("exea-serve: {message}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn parse_dataset(v: &str) -> Option<DatasetName> {
    match v.to_ascii_lowercase().as_str() {
        "zh-en" | "zhen" => Some(DatasetName::ZhEn),
        "ja-en" | "jaen" => Some(DatasetName::JaEn),
        "fr-en" | "fren" => Some(DatasetName::FrEn),
        "dbp-wd" | "dbpwd" => Some(DatasetName::DbpWd),
        "dbp-yago" | "dbpyago" => Some(DatasetName::DbpYago),
        _ => None,
    }
}

fn parse_scale(v: &str) -> Option<DatasetScale> {
    match v.to_ascii_lowercase().as_str() {
        "small" => Some(DatasetScale::Small),
        "bench" => Some(DatasetScale::Bench),
        "paper" => Some(DatasetScale::Paper),
        _ => None,
    }
}

fn parse_model(v: &str) -> Option<ModelKind> {
    match v.to_ascii_lowercase().as_str() {
        "mtranse" => Some(ModelKind::MTransE),
        "aligne" => Some(ModelKind::AlignE),
        "gcn-align" | "gcnalign" => Some(ModelKind::GcnAlign),
        "dual-amn" | "dualamn" => Some(ModelKind::DualAmn),
        _ => None,
    }
}

fn parse_args() -> Args {
    let mut endpoints = Vec::new();
    let mut engine = EngineConfig::default();
    let mut server = ServerConfig::default();
    let mut smoke = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            match args.next() {
                Some(v) => v,
                None => fail(&format!("{name} needs a value")),
            }
        };
        match flag.as_str() {
            "--tcp" => endpoints.push(Endpoint::Tcp(value("--tcp"))),
            #[cfg(unix)]
            "--unix" => endpoints.push(Endpoint::Unix(PathBuf::from(value("--unix")))),
            "--dataset" => {
                let v = value("--dataset");
                engine.dataset = match parse_dataset(&v) {
                    Some(d) => d,
                    None => fail(&format!("unknown dataset {v:?}")),
                };
            }
            "--scale" => {
                let v = value("--scale");
                engine.scale = match parse_scale(&v) {
                    Some(s) => s,
                    None => fail(&format!("unknown scale {v:?}")),
                };
            }
            "--model" => {
                let v = value("--model");
                engine.model = match parse_model(&v) {
                    Some(m) => m,
                    None => fail(&format!("unknown model {v:?}")),
                };
            }
            "--queue" => {
                let v = value("--queue");
                server.queue_capacity = match v.parse() {
                    Ok(n) => n,
                    Err(_) => fail(&format!("--queue needs a number, got {v:?}")),
                };
            }
            "--batch" => {
                let v = value("--batch");
                server.max_batch = match v.parse() {
                    Ok(n) => n,
                    Err(_) => fail(&format!("--batch needs a number, got {v:?}")),
                };
            }
            "--workers" => {
                let v = value("--workers");
                server.batch_workers = match v.parse() {
                    Ok(n) => n,
                    Err(_) => fail(&format!("--workers needs a number, got {v:?}")),
                };
            }
            "--smoke" => smoke = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    if endpoints.is_empty() {
        if smoke {
            endpoints.push(Endpoint::Tcp("127.0.0.1:0".to_string()));
        } else {
            endpoints.push(Endpoint::Tcp("127.0.0.1:7878".to_string()));
        }
    }
    Args {
        endpoints,
        engine,
        server,
        smoke,
    }
}

fn main() {
    // Surface typed environment-override errors as a clean startup failure
    // instead of a panic deep inside the first query.
    if let Err(e) = ea_embed::CandidateSearch::from_env() {
        eprintln!("exea-serve: {e}");
        std::process::exit(2);
    }

    let args = parse_args();

    eprintln!(
        "exea-serve: loading {:?}/{:?} and training {:?} (once, at startup)…",
        args.engine.dataset, args.engine.scale, args.engine.model
    );
    let engine = match Engine::build(&args.engine) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("exea-serve: {e}");
            std::process::exit(2);
        }
    };
    // The daemon serves until process exit; the engine is process-lived by
    // design (see `engine` module docs), so hand the threads a &'static.
    let engine: &'static Engine = Box::leak(Box::new(engine));

    let handle = match Server::start(engine, &args.endpoints, args.server.clone()) {
        Ok(handle) => handle,
        Err(e @ (ServeError::Config(_) | ServeError::Bind { .. })) => {
            eprintln!("exea-serve: {e}");
            std::process::exit(2);
        }
    };
    for endpoint in &args.endpoints {
        match endpoint {
            Endpoint::Tcp(_) => {
                if let Some(addr) = handle.tcp_addr() {
                    eprintln!("exea-serve: listening on tcp {addr}");
                }
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                eprintln!("exea-serve: listening on unix {}", path.display());
            }
        }
    }

    if args.smoke {
        run_smoke(engine, handle);
        return;
    }

    eprintln!("exea-serve: ready");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One self-test round-trip over the bound TCP endpoint, then a graceful
/// shutdown: health, stats, one predict, one explain. Exit 0 only if every
/// reply is the expected typed variant.
fn run_smoke(engine: &'static Engine, handle: exea_serve::ServerHandle) {
    let addr = match handle.tcp_addr() {
        Some(addr) => addr,
        None => {
            eprintln!("exea-serve: --smoke needs a TCP endpoint");
            std::process::exit(2);
        }
    };
    let endpoint = Endpoint::Tcp(addr.to_string());
    let mut client = match Client::connect(&endpoint, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("exea-serve: smoke connect failed: {e}");
            std::process::exit(1);
        }
    };
    let mut check = |name: &str, request: Request| match client.call(request, 0) {
        Ok(response) => {
            eprintln!("exea-serve: smoke {name}: ok");
            response
        }
        Err(e) => {
            eprintln!("exea-serve: smoke {name} failed: {e}");
            std::process::exit(1);
        }
    };
    match check("health", Request::Health) {
        Response::Health { .. } => {}
        other => {
            eprintln!("exea-serve: smoke health: unexpected reply {other:?}");
            std::process::exit(1);
        }
    }
    match check(
        "predict",
        Request::Predict {
            source: 0,
            k: 5,
            tier: None,
        },
    ) {
        Response::Predict { candidates, .. } if !candidates.is_empty() => {}
        other => {
            eprintln!("exea-serve: smoke predict: unexpected reply {other:?}");
            std::process::exit(1);
        }
    }
    if let Some(pair) = engine.sample_pair() {
        match check(
            "explain",
            Request::Explain {
                source: pair.source.0,
                target: pair.target.0,
            },
        ) {
            Response::Explain { .. } => {}
            other => {
                eprintln!("exea-serve: smoke explain: unexpected reply {other:?}");
                std::process::exit(1);
            }
        }
    }
    match check("stats", Request::Stats) {
        Response::Stats(stats) if stats.served >= 2 => {}
        other => {
            eprintln!("exea-serve: smoke stats: unexpected reply {other:?}");
            std::process::exit(1);
        }
    }
    let report = handle.shutdown();
    eprintln!(
        "exea-serve: smoke shutdown: drained={} aborted={}",
        report.drained, report.aborted_jobs
    );
    if !report.drained {
        std::process::exit(1);
    }
    eprintln!("exea-serve: smoke ok");
}
