//! End-to-end daemon tests over real sockets.
//!
//! One warm engine is shared process-wide (training happens once); every
//! test starts its own daemon on an ephemeral port so tests run in
//! parallel without interfering.

use exea_serve::protocol::{Request, Response, Tier};
use exea_serve::{
    Client, Endpoint, Engine, EngineConfig, FaultPlan, RetryClient, RetryPolicy, Server,
    ServerConfig, ServerHandle,
};
use std::sync::OnceLock;
use std::time::Duration;

fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::build(&EngineConfig::default()).expect("engine builds"))
}

/// A second engine reserved for mutation tests: the shared one must stay
/// immutable or the predict-parity tests above would race its live corpus.
/// Tiny seal/compact thresholds so a handful of wire inserts exercises the
/// full seal → compact cycle.
fn lsm_engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        Engine::build(&EngineConfig {
            lsm_seal_rows: 4,
            compact_segments: 2,
            ..EngineConfig::default()
        })
        .expect("lsm engine builds")
    })
}

fn start(config: ServerConfig) -> (ServerHandle, Endpoint) {
    let handle = Server::start(
        engine(),
        &[Endpoint::Tcp("127.0.0.1:0".to_string())],
        config,
    )
    .expect("server starts");
    let addr = handle.tcp_addr().expect("tcp endpoint bound");
    (handle, Endpoint::Tcp(addr.to_string()))
}

fn client(endpoint: &Endpoint) -> Client {
    Client::connect(endpoint, Duration::from_secs(10)).expect("client connects")
}

/// A few known-good pairs (model predictions) to explain/verify.
fn sample_pairs(n: usize) -> Vec<(u32, u32)> {
    engine()
        .exea()
        .predictions()
        .iter()
        .take(n)
        .map(|p| (p.source.0, p.target.0))
        .collect()
}

#[test]
fn health_and_stats_answer_with_typed_replies() {
    let (handle, endpoint) = start(ServerConfig::default());
    let mut c = client(&endpoint);
    match c.call(Request::Health, 0).expect("health answers") {
        Response::Health {
            draining,
            tier,
            queue_depth,
            ..
        } => {
            assert!(!draining);
            assert_eq!(tier, Tier::Full, "idle daemon serves at the top tier");
            assert_eq!(queue_depth, 0);
        }
        other => panic!("expected Health, got {other:?}"),
    }
    match c.call(Request::Stats, 0).expect("stats answers") {
        Response::Stats(stats) => assert_eq!(stats.connections, 1),
        other => panic!("expected Stats, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn predict_is_bit_identical_to_the_engine_and_tier_tagged() {
    let (handle, endpoint) = start(ServerConfig::default());
    let mut c = client(&endpoint);
    for source in [0u32, 1, 7] {
        let served = match c
            .call(
                Request::Predict {
                    source,
                    k: 10,
                    tier: None,
                },
                0,
            )
            .expect("predict answers")
        {
            Response::Predict { tier, candidates } => {
                assert_eq!(tier, Tier::Full, "idle load serves full tier");
                candidates
            }
            other => panic!("expected Predict, got {other:?}"),
        };
        let direct = engine().predict(source, 10, Tier::Full);
        assert_eq!(served.len(), direct.len());
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s.target, d.target);
            assert_eq!(
                s.score.to_bits(),
                d.score.to_bits(),
                "served score must be bit-identical to the engine's"
            );
        }
    }
    // Explicit tier overrides are honoured and tagged.
    for tier in [Tier::Partial, Tier::Sq8] {
        match c
            .call(
                Request::Predict {
                    source: 0,
                    k: 5,
                    tier: Some(tier),
                },
                0,
            )
            .expect("tiered predict answers")
        {
            Response::Predict { tier: got, .. } => assert_eq!(got, tier),
            other => panic!("expected Predict, got {other:?}"),
        }
    }
    handle.shutdown();
}

/// The Partial tier's contract, checked for every source: a full,
/// canonically ordered list whose entries carry Full's exact score bits
/// and never outscore Full at the same rank (subset-only), with recall@10
/// against Full of at least 0.85 over the whole fixture.
#[test]
fn partial_tier_is_subset_only_with_exact_scores_and_high_recall() {
    const K: usize = 10;
    let engine = engine();
    let targets = engine.live_rows();
    let mut hits = 0usize;
    let mut wanted = 0usize;
    for source in 0..engine.num_sources() as u32 {
        let partial = engine.predict(source, K, Tier::Partial);
        let full = engine.predict(source, K, Tier::Full);
        let deep = engine.predict(source, engine.max_k(), Tier::Full);
        assert_eq!(partial.len(), K.min(targets), "source {source}");
        for pair in partial.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(
                a.score > b.score || (a.score == b.score && a.target < b.target),
                "source {source}: {a:?} must rank before {b:?}"
            );
        }
        for (rank, got) in partial.iter().enumerate() {
            assert!(
                got.score <= full[rank].score,
                "source {source} rank {rank}: {got:?} outscores Full's {:?}",
                full[rank]
            );
            if let Some(exact) = deep.iter().find(|c| c.target == got.target) {
                assert_eq!(
                    got.score.to_bits(),
                    exact.score.to_bits(),
                    "source {source}: target {} rescored",
                    got.target
                );
            }
        }
        hits += partial
            .iter()
            .filter(|p| full.iter().any(|f| f.target == p.target))
            .count();
        wanted += full.len();
    }
    let recall = hits as f64 / wanted as f64;
    assert!(
        recall >= 0.85,
        "Partial recall@{K} against Full: {recall:.3}"
    );
}

#[test]
fn explain_and_verify_are_bit_identical_to_the_pipeline() {
    let (handle, endpoint) = start(ServerConfig::default());
    let mut c = client(&endpoint);
    let pairs = sample_pairs(4);
    assert!(!pairs.is_empty(), "the model predicts at least one pair");

    for &(source, target) in &pairs {
        let (confidence, strong, triples) = match c
            .call(Request::Explain { source, target }, 0)
            .expect("explain")
        {
            Response::Explain {
                confidence,
                has_strong_edges,
                num_triples,
            } => (confidence, has_strong_edges, num_triples),
            other => panic!("expected Explain, got {other:?}"),
        };
        let direct = &engine().explain_batch(&[engine().pair_of(source, target)])[0];
        assert_eq!(
            confidence.to_bits(),
            direct.confidence().to_bits(),
            "served confidence must be bit-identical to the pipeline's"
        );
        assert_eq!(strong, direct.adg.has_strong_edges());
        assert_eq!(triples as usize, direct.explanation.num_triples());
    }

    let verdicts = match c
        .call(
            Request::Verify {
                pairs: pairs.clone(),
            },
            0,
        )
        .expect("verify")
    {
        Response::Verify { verdicts } => verdicts,
        other => panic!("expected Verify, got {other:?}"),
    };
    let direct_pairs: Vec<_> = pairs.iter().map(|&(s, t)| engine().pair_of(s, t)).collect();
    let direct = engine().score_batch(&direct_pairs);
    let beta = engine().beta();
    assert_eq!(verdicts.len(), direct.len());
    for ((accepted, confidence), d) in verdicts.iter().zip(&direct) {
        assert_eq!(confidence.to_bits(), d.confidence.to_bits());
        assert_eq!(*accepted, d.has_strong_edges && d.confidence >= beta);
    }
    handle.shutdown();
}

#[test]
fn concurrent_batched_serving_matches_sequential_bit_for_bit() {
    let config = ServerConfig {
        max_batch: 8,
        batch_workers: 2,
        ..ServerConfig::default()
    };
    let (handle, endpoint) = start(config);
    let pairs = sample_pairs(8);
    assert!(pairs.len() >= 2, "need a few predictions to batch");

    // Hammer the daemon from many threads so requests genuinely coalesce
    // into admission batches, then compare every reply to the sequential
    // pipeline result for the same pair.
    let mut threads = Vec::new();
    for round in 0..4 {
        for &(source, target) in &pairs {
            let endpoint = endpoint.clone();
            threads.push(std::thread::spawn(move || {
                let mut c =
                    Client::connect(&endpoint, Duration::from_secs(10)).expect("client connects");
                let _ = round;
                match c
                    .call(Request::Explain { source, target }, 0)
                    .expect("explain answers")
                {
                    Response::Explain { confidence, .. } => (source, target, confidence),
                    other => panic!("expected Explain, got {other:?}"),
                }
            }));
        }
    }
    let results: Vec<(u32, u32, f64)> = threads
        .into_iter()
        .map(|t| t.join().expect("no worker panics"))
        .collect();

    for (source, target, confidence) in results {
        let direct = &engine().explain_batch(&[engine().pair_of(source, target)])[0];
        assert_eq!(
            confidence.to_bits(),
            direct.confidence().to_bits(),
            "batched serving must be bit-identical to sequential for ({source},{target})"
        );
    }
    let stats = handle.stats();
    assert!(stats.batches >= 1, "requests went through the batch path");
    assert_eq!(stats.panics, 0);
    handle.shutdown();
}

#[test]
fn expired_deadlines_get_a_typed_rejection_not_a_late_answer() {
    let config = ServerConfig {
        // Every batch takes 150ms; a 30ms deadline can never be met.
        fault: FaultPlan {
            batch_delay: Some(Duration::from_millis(150)),
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    };
    let (handle, endpoint) = start(config);
    let mut c = client(&endpoint);
    let (source, target) = sample_pairs(1)[0];
    match c
        .call(Request::Explain { source, target }, 30)
        .expect("deadline expiry still answers")
    {
        Response::DeadlineExceeded => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let stats = handle.stats();
    assert!(stats.deadline_expired >= 1);
    // The daemon is healthy afterwards: a generous deadline succeeds.
    match c
        .call(Request::Explain { source, target }, 10_000)
        .expect("follow-up answers")
    {
        Response::Explain { .. } => {}
        other => panic!("expected Explain, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn overload_rejects_with_retry_hint_and_retry_client_recovers() {
    let config = ServerConfig {
        queue_capacity: 1,
        max_batch: 1,
        batch_workers: 1,
        retry_after_ms: 10,
        // Slow batches keep the single queue slot occupied.
        fault: FaultPlan {
            batch_delay: Some(Duration::from_millis(100)),
            ..FaultPlan::default()
        },
        ..ServerConfig::default()
    };
    let (handle, endpoint) = start(config);
    let (source, target) = sample_pairs(1)[0];

    // Flood from several threads; with one queue slot and slow batches at
    // least one must be turned away with the typed rejection.
    let mut threads = Vec::new();
    for _ in 0..6 {
        let endpoint = endpoint.clone();
        threads.push(std::thread::spawn(move || {
            let mut c =
                Client::connect(&endpoint, Duration::from_secs(10)).expect("client connects");
            c.call(Request::Explain { source, target }, 5_000)
                .expect("typed answer")
        }));
    }
    let outcomes: Vec<Response> = threads
        .into_iter()
        .map(|t| t.join().expect("no panics"))
        .collect();
    let overloaded = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Overloaded { .. }))
        .count();
    let served = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Explain { .. }))
        .count();
    assert!(
        overloaded >= 1,
        "the bounded queue rejected someone: {outcomes:?}"
    );
    assert!(served >= 1, "someone was served: {outcomes:?}");
    for r in &outcomes {
        if let Response::Overloaded { retry_after_ms } = r {
            assert_eq!(*retry_after_ms, 10, "the configured hint travels");
        }
    }
    let stats = handle.stats();
    assert!(stats.overloaded >= 1);

    // The retrying client honours retry_after and eventually gets through.
    let mut retry = RetryClient::new(
        endpoint,
        Duration::from_secs(10),
        RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::default()
        },
    );
    match retry
        .call(Request::Explain { source, target }, 5_000)
        .expect("retry client gets a typed answer")
    {
        Response::Explain { .. } => {}
        other => panic!("retry client should eventually be served, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn inserts_and_removes_flow_through_full_predict_immediately() {
    let engine = lsm_engine();
    let handle = Server::start(
        engine,
        &[Endpoint::Tcp("127.0.0.1:0".to_string())],
        ServerConfig::default(),
    )
    .expect("server starts");
    let endpoint = Endpoint::Tcp(handle.tcp_addr().expect("tcp endpoint bound").to_string());
    let mut c = client(&endpoint);
    let full = Some(Tier::Full);
    let predict = |c: &mut Client, source: u32| -> Vec<(u32, u32)> {
        match c
            .call(
                Request::Predict {
                    source,
                    k: 10,
                    tier: full,
                },
                0,
            )
            .expect("predict answers")
        {
            Response::Predict { candidates, .. } => candidates
                .iter()
                .map(|cand| (cand.target, cand.score.to_bits()))
                .collect(),
            other => panic!("expected Predict, got {other:?}"),
        }
    };
    let baseline = predict(&mut c, 0);
    let baseline_rows = engine.live_rows() as u64;

    // Insert the query vector of source 0 as a brand-new target row: its
    // dot with the query is ≈1, every real score is ≤1, so the new row
    // must surface as the top candidate on the very next request.
    let planted = 9_000_000u32;
    match c
        .call(
            Request::Insert {
                entity: planted,
                vector: engine.source_vector(0),
            },
            0,
        )
        .expect("insert answers")
    {
        Response::Insert { live_rows, .. } => assert_eq!(live_rows, baseline_rows + 1),
        other => panic!("expected Insert, got {other:?}"),
    }
    let with_planted = predict(&mut c, 0);
    assert_eq!(
        with_planted[0].0, planted,
        "a freshly inserted row is queryable immediately"
    );

    // Push enough rows through the wire to seal segments and trigger the
    // count-driven compaction, then tombstone everything we added.
    let mut sealed_count = 0u32;
    for i in 0..12u32 {
        match c
            .call(
                Request::Insert {
                    entity: planted + 1 + i,
                    vector: engine.source_vector(0),
                },
                0,
            )
            .expect("insert answers")
        {
            Response::Insert { sealed, .. } => sealed_count += u32::from(sealed),
            other => panic!("expected Insert, got {other:?}"),
        }
    }
    assert!(
        sealed_count >= 2,
        "a 4-row seal budget must seal several times over 12 inserts"
    );
    for i in 0..13u32 {
        match c
            .call(
                Request::Remove {
                    entity: planted + i,
                },
                0,
            )
            .expect("remove answers")
        {
            Response::Remove { existed, .. } => assert!(existed, "row {i} was live"),
            other => panic!("expected Remove, got {other:?}"),
        }
    }
    // Removing a tombstoned entity is acknowledged, not an error.
    match c
        .call(Request::Remove { entity: planted }, 0)
        .expect("idempotent remove answers")
    {
        Response::Remove { existed, live_rows } => {
            assert!(!existed);
            assert_eq!(live_rows, baseline_rows);
        }
        other => panic!("expected Remove, got {other:?}"),
    }

    // Insert-then-remove leaves no trace: the post-cycle prediction is
    // bit-identical to the pre-cycle one, across the seals and compactions
    // the cycle caused.
    assert_eq!(
        predict(&mut c, 0),
        baseline,
        "full predict is bit-identical to the pre-mutation baseline"
    );

    // A wrong-width vector is a typed BadRequest, not a panic.
    match c
        .call(
            Request::Insert {
                entity: planted,
                vector: vec![1.0; engine.dim() + 1],
            },
            0,
        )
        .expect("bad insert answers")
    {
        Response::BadRequest { message } => {
            assert!(message.contains("dimension"), "got: {message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(handle.stats().panics, 0);
    handle.shutdown();
}

#[test]
fn unknown_entities_are_bad_requests_not_panics() {
    let (handle, endpoint) = start(ServerConfig::default());
    let mut c = client(&endpoint);
    let bogus = u32::MAX - 1;
    for request in [
        Request::Predict {
            source: bogus,
            k: 5,
            tier: None,
        },
        Request::Explain {
            source: bogus,
            target: 0,
        },
        Request::Verify {
            pairs: vec![(0, 0), (bogus, 0)],
        },
    ] {
        match c.call(request, 0).expect("typed answer") {
            Response::BadRequest { message } => {
                assert!(message.contains("unknown"), "got: {message}")
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
    }
    let stats = handle.stats();
    assert!(stats.bad_requests >= 3);
    assert_eq!(stats.panics, 0);
    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let dir = std::env::temp_dir().join(format!("exea-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("e2e.sock");
    let handle = Server::start(
        engine(),
        &[Endpoint::Unix(path.clone())],
        ServerConfig::default(),
    )
    .expect("unix server starts");
    let endpoint = Endpoint::Unix(path.clone());
    let mut c = client(&endpoint);
    match c.call(Request::Health, 0).expect("health over unix") {
        Response::Health { .. } => {}
        other => panic!("expected Health, got {other:?}"),
    }
    let served = match c
        .call(
            Request::Predict {
                source: 0,
                k: 5,
                tier: None,
            },
            0,
        )
        .expect("predict over unix")
    {
        Response::Predict { candidates, .. } => candidates,
        other => panic!("expected Predict, got {other:?}"),
    };
    let direct = engine().predict(0, 5, Tier::Full);
    assert_eq!(served.len(), direct.len());
    for (s, d) in served.iter().zip(&direct) {
        assert_eq!(s.score.to_bits(), d.score.to_bits());
    }
    handle.shutdown();
    assert!(!path.exists(), "graceful shutdown unlinks the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let config = ServerConfig {
        fault: FaultPlan {
            batch_delay: Some(Duration::from_millis(80)),
            ..FaultPlan::default()
        },
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let (handle, endpoint) = start(config);
    let (source, target) = sample_pairs(1)[0];

    // A request that will still be in flight when shutdown starts.
    let inflight = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            let mut c =
                Client::connect(&endpoint, Duration::from_secs(10)).expect("client connects");
            c.call(Request::Explain { source, target }, 5_000)
        })
    };
    std::thread::sleep(Duration::from_millis(20));
    let report = handle.shutdown();
    assert!(report.drained, "drain finished inside the deadline");

    // The in-flight request was answered with a typed response — drained
    // work completes, it is never dropped on the floor.
    match inflight.join().expect("client thread survives") {
        Ok(Response::Explain { confidence, .. }) => {
            let direct = &engine().explain_batch(&[engine().pair_of(source, target)])[0];
            assert_eq!(confidence.to_bits(), direct.confidence().to_bits());
        }
        Ok(Response::ShuttingDown) => {
            panic!("a request admitted before shutdown must drain, not be rejected")
        }
        other => panic!("expected a drained Explain, got {other:?}"),
    }

    // New connections after shutdown are refused or reset — never a hang.
    assert!(
        Client::connect(&endpoint, Duration::from_secs(1)).is_err(),
        "the listener is gone after shutdown"
    );
}
