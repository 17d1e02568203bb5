//! Pipeline engine integration tests: cache correctness, warm-run
//! bitwise reproducibility, key chaining, and corrupt-artifact
//! fallback.

use ppdl_core::pipeline::{
    ArtifactCache, BenchmarkSourceStage, PipelineCtx, Stage, StageRecord, TrainStage,
};
use ppdl_core::{BackendKind, CoreError, DlFlowConfig, DlOutcome, PowerPlanningDl};
use ppdl_netlist::IbmPgPreset;

/// The fast flow on an ibmpg2 preset against `cache`.
fn run(scale: f64, seed: u64, cache: &ArtifactCache) -> (DlOutcome, Vec<StageRecord>) {
    let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, scale, seed);
    PowerPlanningDl::new(DlFlowConfig::fast())
        .run(source, Some(cache))
        .unwrap()
}

/// A fresh, empty cache directory unique to one test.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ppdl_pipeline_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bitwise_equal(a: &DlOutcome, b: &DlOutcome) {
    assert_eq!(a.golden_widths, b.golden_widths, "golden widths drifted");
    assert_eq!(
        a.predicted_widths, b.predicted_widths,
        "predicted widths drifted"
    );
    assert_eq!(a.width_metrics.r2, b.width_metrics.r2, "r2 drifted");
    assert_eq!(
        a.width_metrics.mse_um2, b.width_metrics.mse_um2,
        "mse drifted"
    );
    assert_eq!(
        a.conventional_worst_ir_mv, b.conventional_worst_ir_mv,
        "conventional worst IR drifted"
    );
    assert_eq!(
        a.predicted_worst_ir_mv, b.predicted_worst_ir_mv,
        "predicted worst IR drifted"
    );
    assert_eq!(
        a.test_report.voltages(),
        b.test_report.voltages(),
        "ground-truth voltages drifted"
    );
    assert_eq!(
        a.train_report.final_loss(),
        b.train_report.final_loss(),
        "training loss drifted"
    );
}

#[test]
fn warm_run_hits_every_stage_bitwise() {
    let cache = ArtifactCache::new(cache_dir("warm"));
    let (cold, cold_records) = run(0.006, 3, &cache);
    assert_eq!(cold_records.len(), 5);
    assert!(
        cold_records.iter().all(|r| !r.cache_hit),
        "first run must execute every stage"
    );
    assert_eq!(cache.stats().stores, 5, "every stage stores its artifact");

    let (warm, warm_records) = run(0.006, 3, &cache);
    assert_eq!(warm_records.len(), 5);
    for r in &warm_records {
        assert!(r.cache_hit, "stage '{}' missed on the warm run", r.name);
    }
    assert_bitwise_equal(&cold, &warm);

    // The chained keys are reproducible across runs.
    for (c, w) in cold_records.iter().zip(&warm_records) {
        assert_eq!(c.key, w.key, "key of stage '{}' is unstable", c.name);
    }
}

#[test]
fn cache_keys_stable_and_sensitive_to_every_field() {
    let ctx = PipelineCtx::new(DlFlowConfig::fast(), None);
    let key = |s: &BenchmarkSourceStage| s.cache_key(&ctx).unwrap();

    let base = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.01, 7);
    assert_eq!(
        key(&base),
        key(&BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.01, 7)),
        "identical config must map to an identical key"
    );
    for changed in [
        BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg1, 0.01, 7),
        BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.011, 7),
        BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.01, 8),
        BenchmarkSourceStage::uncalibrated(IbmPgPreset::Ibmpg2, 0.01, 7),
    ] {
        assert_ne!(
            key(&base),
            key(&changed),
            "field change must change the key"
        );
    }
}

#[test]
fn downstream_keys_chain_on_upstream_inputs() {
    // Changing only the *source* seed must change every downstream key,
    // even though the downstream stages' own configs are identical.
    let cache = ArtifactCache::new(cache_dir("chain"));
    let (_, records_a) = run(0.005, 2, &cache);
    let (_, records_b) = run(0.005, 4, &cache);
    for (a, b) in records_a.iter().zip(&records_b) {
        assert!(!b.cache_hit, "seed change must not hit stage '{}'", b.name);
        assert_ne!(a.key, b.key, "stage '{}' key did not chain", a.name);
    }
}

#[test]
fn corrupt_artifacts_fall_back_to_recompute() {
    let dir = cache_dir("corrupt");
    let cache = ArtifactCache::new(&dir);
    let (cold, _) = run(0.005, 9, &cache);

    for entry in std::fs::read_dir(&dir).unwrap() {
        std::fs::write(entry.unwrap().path(), "not an artifact\n").unwrap();
    }

    let cache2 = ArtifactCache::new(&dir);
    let (recomputed, records) = run(0.005, 9, &cache2);
    assert!(
        records.iter().all(|r| !r.cache_hit),
        "corrupt artifacts must not be served"
    );
    assert_eq!(cache2.stats().hits, 0);
    assert_eq!(cache2.stats().misses, 5);
    // The recompute is deterministic, so the outcome still matches.
    assert_bitwise_equal(&cold, &recomputed);
}

#[test]
fn a_cnn_train_artifact_is_recomputed() {
    // What the removed CNN backend cached: a train artifact tagged
    // `backend cnn` over a `ppdl-spatial v1` body with `arch cnn`.
    let dir = cache_dir("cnn");
    let config = || {
        DlFlowConfig::builder()
            .fast()
            .backend(BackendKind::EncoderDecoder)
            .build()
    };
    let run = |cache: &ArtifactCache| {
        let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.005, 4);
        PowerPlanningDl::new(config())
            .run(source, Some(cache))
            .unwrap()
    };
    let (cold, _) = run(&ArtifactCache::new(&dir));
    let mut cnn_text = None;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .unwrap()
            .to_string_lossy()
            .starts_with("train-")
        {
            let text = std::fs::read_to_string(&path).unwrap();
            let cnn = text
                .replace("\nbackend encdec\n", "\nbackend cnn\n")
                .replace("\narch encdec\n", "\narch cnn\n");
            assert_eq!(cnn.matches("cnn").count(), 2, "{cnn}");
            std::fs::write(&path, &cnn).unwrap();
            cnn_text = Some(cnn);
        }
    }
    let cnn_text = cnn_text.expect("the cold run stores a train artifact");

    match TrainStage.decode(&mut PipelineCtx::new(config(), None), &cnn_text) {
        Err(CoreError::InvalidConfig { detail }) => {
            assert!(detail.contains("'cnn' was removed"), "{detail}")
        }
        other => panic!("a cnn artifact must not decode, got {other:?}"),
    }
    let cache = ArtifactCache::new(&dir);
    let (warm, records) = run(&cache);
    for r in &records {
        assert_eq!(r.cache_hit, r.name != "train", "stage '{}'", r.name);
    }
    assert_bitwise_equal(&cold, &warm);
}
