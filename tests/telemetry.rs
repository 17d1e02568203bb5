//! End-to-end check of the workspace telemetry layer: with collection
//! enabled, one fast training run plus one service flush must leave a
//! span or counter from every instrumented crate in the snapshots, and
//! the service wire stats must carry the batch-latency percentiles.
//!
//! This lives in its own test binary because `ppdl_obs::set_enabled`
//! and the global registry are process-wide; sharing a process with
//! telemetry-off tests would make their observations order-dependent.

use std::sync::{Arc, OnceLock};

use powerplanningdl::core::{DlFlowConfig, PredictRequest, TrainedBundle};
use powerplanningdl::netlist::IbmPgPreset;
use powerplanningdl::service::{Json, ModelRegistry, ServiceConfig};

/// One fast telemetry-enabled training run shared by every test here.
/// Collection is switched on before the first kernel call so the
/// solver, NN, and pipeline instrumentation all observe it.
fn bundle() -> &'static TrainedBundle {
    static BUNDLE: OnceLock<TrainedBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        powerplanningdl::obs::set_enabled(true);
        TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, 3, DlFlowConfig::fast(), None)
            .expect("train")
    })
}

fn object_keys(value: &Json) -> Vec<&str> {
    match value {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected object, got {other:?}"),
    }
}

#[test]
fn every_instrumented_crate_reports_into_the_global_snapshot() {
    let _ = bundle();
    let snapshot = powerplanningdl::obs::global().snapshot_json();
    let parsed = Json::parse(&snapshot).expect("snapshot is valid JSON");

    let counters = parsed.get("counters").expect("counters section");
    let counter_keys = object_keys(counters);
    for expected in [
        "solver/cg/solves",
        "solver/spmv/calls",
        "nn/epochs",
        "pipeline/stages",
    ] {
        assert!(
            counter_keys.contains(&expected),
            "missing counter {expected}; have {counter_keys:?}"
        );
        let count = counters.get(expected).and_then(Json::as_u64).unwrap();
        assert!(count > 0, "counter {expected} never incremented");
    }

    let histograms = parsed.get("histograms").expect("histograms section");
    let histogram_keys = object_keys(histograms);
    for expected in [
        "solver/cg/iterations",
        "solver/multilevel/levels",
        "nn/epoch_ms",
        "nn/epoch_loss",
    ] {
        assert!(
            histogram_keys.contains(&expected),
            "missing histogram {expected}; have {histogram_keys:?}"
        );
    }

    let spans = parsed.get("spans").expect("spans section");
    let span_keys = object_keys(spans);
    assert!(
        span_keys.iter().any(|k| k.starts_with("pipeline/")),
        "no pipeline stage span recorded; have {span_keys:?}"
    );
    assert!(
        span_keys.iter().any(|k| k.ends_with("nn/fit")),
        "no nn/fit span recorded; have {span_keys:?}"
    );
    assert!(
        span_keys.iter().any(|k| k.ends_with("analysis/solve")),
        "no analysis/solve span recorded; have {span_keys:?}"
    );
    // The sign-off's preconditioner set-up, apart from its iterations.
    assert!(
        span_keys
            .iter()
            .any(|k| k.ends_with("analysis/solve/cg/precond")),
        "no analysis/solve/cg/precond span recorded; have {span_keys:?}"
    );
}

#[test]
fn service_flush_populates_per_instance_registry_and_percentiles() {
    let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
    registry.install("m", bundle().clone()).expect("install");
    let mut service = registry.session();
    service
        .enqueue(None, PredictRequest::new("t0"))
        .expect("enqueue");
    let replies = service.flush();
    assert_eq!(replies.len(), 1);

    let stats = Json::parse(&registry.stats_json()).expect("stats_json is valid JSON");
    for field in ["p50_ms", "p95_ms", "p99_ms"] {
        let p = stats.get(field).and_then(Json::as_f64);
        assert!(
            p.is_some_and(|v| v >= 0.0),
            "stats_json {field} should be a number after one batch, got {p:?}"
        );
    }

    let telemetry = Json::parse(&registry.telemetry_json()).expect("telemetry_json is valid JSON");
    assert_eq!(
        telemetry.get("status").and_then(Json::as_str),
        Some("telemetry")
    );
    let own = telemetry.get("service").expect("service snapshot");
    let batches = own
        .get("counters")
        .and_then(|c| c.get("service/batches"))
        .and_then(Json::as_u64);
    assert_eq!(batches, Some(1));
    let samples = own
        .get("histograms")
        .and_then(|h| h.get("service/batch_ms"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(samples, Some(1), "one histogram sample per batch");
    // The global section rides along so one stats line captures both
    // the service and the solver/NN hot paths beneath it.
    assert!(telemetry.get("global").is_some());

    // The DL answer's phases, and the Kirchhoff plan built once when
    // the bundle was installed.
    let global = Json::parse(&powerplanningdl::obs::global().snapshot_json()).expect("snapshot");
    let span_keys = object_keys(global.get("spans").expect("spans section"));
    for phase in [
        "core/predict/apply",
        "core/predict/widths",
        "core/predict/widths/nn/forward",
        "core/predict/kirchhoff/coarse",
        "core/predict/kirchhoff/sweeps",
        "core/kirchhoff-plan",
    ] {
        assert!(
            span_keys.iter().any(|k| k.ends_with(phase)),
            "no {phase} span recorded; have {span_keys:?}"
        );
    }
    let builds = global
        .get("counters")
        .and_then(|c| c.get("core/kirchhoff/plan_builds"))
        .and_then(Json::as_u64);
    assert!(builds.is_some_and(|b| b >= 1), "plan builds: {builds:?}");
}
