//! The telemetry contract at the serving surface:
//!
//! * the `ServerStats` snapshot and the exported `serve.*` counters are
//!   the **same cells** — they can never disagree, under load or after
//!   a drain;
//! * the per-stage histograms observe every delivered request, and the
//!   per-model counters mirror `model_stats` exactly;
//! * `metrics_snapshot()` folds in the registry-side gauges (cache
//!   stats, shared-pool occupancy) and serializes to stable JSON.

use std::sync::Arc;
use std::time::Duration;

use fastbn::bayesnet::datasets;
use fastbn::{
    CacheConfig, EngineKind, ModelConfig, Query, Registry, RoutedServer, Server, Solver,
    SINGLE_MODEL_ID,
};

/// Drives `n` submissions (alternating posterior and MPE queries, so
/// windows carry duplicates for dedup *and* distinct work) through a
/// single-model server and waits them all out.
fn drive(server: &Server, n: usize) {
    let pending: Vec<_> = (0..n)
        .map(|i| {
            let query = if i % 4 == 1 {
                Query::new().mpe()
            } else {
                Query::new()
            };
            server.submit(query).unwrap()
        })
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
}

#[test]
fn server_stats_and_metrics_are_one_source_of_truth() {
    let net = datasets::asia();
    let solver = Arc::new(
        Solver::builder(&net)
            .engine(EngineKind::Hybrid)
            .threads(2)
            .build(),
    );
    let server = Server::builder(Arc::clone(&solver))
        .workers(2)
        .max_batch(8)
        .max_delay(Duration::from_micros(200))
        .build();
    drive(&server, 64);
    server.shutdown();
    let server = server.routed();

    let stats = server.stats();
    assert_eq!(stats.submitted, 64);
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled,
        "drain invariant"
    );

    let snap = server.metrics_snapshot();
    // Bit-for-bit: both views read the same counter cells.
    assert_eq!(snap.counter("serve.submitted"), stats.submitted);
    assert_eq!(snap.counter("serve.rejected"), stats.rejected);
    assert_eq!(snap.counter("serve.dequeued"), stats.dequeued);
    assert_eq!(snap.counter("serve.completed"), stats.completed);
    assert_eq!(snap.counter("serve.cancelled"), stats.cancelled);
    assert_eq!(snap.counter("serve.batches"), stats.batches);
    assert_eq!(snap.counter("serve.dedups"), stats.dedups);
    assert_eq!(snap.counter("serve.worker_panics"), stats.worker_panics);

    // The per-model row mirrors the single model's counters.
    let per_model = server.model_stats();
    assert_eq!(per_model.len(), 1);
    let row = &per_model[0];
    assert_eq!(row.model, SINGLE_MODEL_ID);
    assert_eq!(
        snap.counter(&format!("serve.model.{SINGLE_MODEL_ID}.submitted")),
        row.submitted
    );
    assert_eq!(
        snap.counter(&format!("serve.model.{SINGLE_MODEL_ID}.completed")),
        row.completed
    );

    // Every delivered request passed through every stage histogram.
    for stage in [
        "serve.stage.admission_ns",
        "serve.stage.queue_wait_ns",
        "serve.stage.window_ns",
        "serve.stage.compute_ns",
        "serve.stage.delivery_ns",
        "serve.request.total_ns",
        "serve.batch.size",
    ] {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("stage histogram {stage} missing from snapshot"));
        assert!(h.count > 0, "{stage} recorded nothing");
    }
    let total = snap.histogram("serve.request.total_ns").unwrap();
    assert_eq!(
        total.count, stats.completed,
        "one end-to-end sample per delivered request"
    );
    assert!(total.p50() <= total.p99() && total.p99() <= total.max);
    let sizes = snap.histogram("serve.batch.size").unwrap();
    assert_eq!(
        sizes.count, stats.batches,
        "one size sample per dispatched batch"
    );
    assert!(sizes.max <= 8, "windows never exceed max_batch");
}

#[test]
fn routed_metrics_cover_models_caches_and_pool() {
    let registry = Arc::new(Registry::builder().threads(2).build());
    registry
        .load(
            "asia",
            &datasets::asia(),
            &ModelConfig::new().cache(CacheConfig::default()),
        )
        .unwrap();
    registry
        .load("sprinkler", &datasets::sprinkler(), &ModelConfig::new())
        .unwrap();
    let server = RoutedServer::builder(Arc::clone(&registry))
        .workers(2)
        .max_delay(Duration::from_micros(100))
        .build();
    let pending: Vec<_> = (0..24)
        .map(|i| {
            let model = if i % 3 == 0 { "sprinkler" } else { "asia" };
            server.submit(model, Query::new()).unwrap()
        })
        .collect();
    for p in pending {
        p.wait().unwrap();
    }
    server.shutdown();

    let snap = server.metrics_snapshot();
    for row in server.model_stats() {
        assert_eq!(
            snap.counter(&format!("serve.model.{}.submitted", row.model)),
            row.submitted,
            "per-model counters mirror model_stats for {}",
            row.model
        );
        assert_eq!(row.submitted, row.completed + row.cancelled);
    }
    // Registry-side gauges rode along with the snapshot: the cached
    // model's cache stats and the shared pool's occupancy counters.
    let cache_stats = registry.cache_stats_for("asia").unwrap();
    assert_eq!(
        snap.gauge("registry.model.asia.cache.hits"),
        Some(cache_stats.hits)
    );
    assert!(snap.gauge("registry.model.sprinkler.cache.hits").is_none());
    assert_eq!(snap.gauge("registry.pool.threads"), Some(2));
    assert_eq!(snap.gauge("registry.pool.occupancy"), Some(0), "drained");

    // The JSON export is stable, self-describing, and round-trips.
    let json = snap.to_json().to_pretty();
    let parsed = fastbn::telemetry::Json::parse(&json).unwrap();
    let counters = parsed.get("counters").unwrap();
    assert_eq!(
        counters.get("serve.submitted").and_then(|v| v.as_u64()),
        Some(24)
    );
}
