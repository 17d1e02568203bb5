//! Registry-level smoke tests: experiments run end to end through
//! `execute`, write manifests, hit the artifact cache on repeat runs
//! with identical configuration, and honour the shared options.

use ppdl_bench::experiments::{execute, find};
use ppdl_bench::harness::Options;
use ppdl_core::pipeline::RunManifest;
use ppdl_solver::PrecondKind;

fn opts_for(tag: &str, scale: f64) -> Options {
    let dir = std::env::temp_dir().join(format!("ppdl_registry_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = Options::defaults(scale);
    opts.out_dir = dir;
    opts.fast = true;
    opts.seed = 3;
    opts
}

#[test]
fn fig7_warm_run_is_full_cache_hit() {
    let def = find("fig7").expect("registered");
    let opts = opts_for("fig7", 0.006);
    let cold = execute(def, &opts).expect("cold run");
    assert_eq!(cold.manifest.stages.len(), 5, "full five-stage pipeline");
    assert_eq!(
        cold.manifest.cache_hits(),
        0,
        "first run executes everything"
    );

    let warm = execute(def, &opts).expect("warm run");
    assert!(
        warm.manifest.full_cache_hit(),
        "identical config must serve every stage from the cache"
    );
    // Bitwise-identical headline metrics, cold vs warm.
    assert_eq!(cold.manifest.metrics, warm.manifest.metrics);

    let manifest_path = opts.out_dir.join("fig7_width_prediction_manifest.json");
    let json = std::fs::read_to_string(manifest_path).expect("manifest written");
    assert!(json.contains("\"full_cache_hit\": true"));
    assert!(json.contains("\"experiment\": \"fig7_width_prediction\""));
}

#[test]
fn table2_caches_generation_and_honours_no_cache() {
    let def = find("table2").expect("registered");
    let mut opts = opts_for("table2", 0.01);
    let cold = execute(def, &opts).expect("cold run");
    assert!(!cold.manifest.stages.is_empty());
    let warm = execute(def, &opts).expect("warm run");
    assert!(warm.manifest.full_cache_hit());
    assert_eq!(cold.manifest.metrics, warm.manifest.metrics);

    opts.no_cache = true;
    let uncached = execute(def, &opts).expect("uncached run");
    assert_eq!(uncached.manifest.cache_hits(), 0, "--no-cache must bypass");
    assert_eq!(cold.manifest.metrics, uncached.manifest.metrics);
}

#[test]
fn precond_reaches_every_sizing_experiment() {
    // fig8 runs the whole flow, as table3/4/5 and fig10 do; fig9 runs
    // the source → size → train prefix with its own widening factor.
    // Every listed stage hashes the analysis options, so its key must
    // move with --precond.
    for (name, stages) in [
        ("fig8_ir_maps", &["feature-extract", "validate"][..]),
        ("fig9_perturbation", &["feature-extract"][..]),
    ] {
        let def = find(name).expect("registered");
        let mut opts = opts_for(&format!("precond_{name}"), 0.004);
        opts.no_cache = true;
        let default = execute(def, &opts).expect("default run");
        opts.precond = Some(PrecondKind::Jacobi);
        let jacobi = execute(def, &opts).expect("jacobi run");
        for stage in stages {
            let keys = |m: &RunManifest| -> Vec<_> {
                m.stages
                    .iter()
                    .filter(|r| r.name.ends_with(stage))
                    .map(|r| r.key)
                    .collect()
            };
            let (a, b) = (keys(&default.manifest), keys(&jacobi.manifest));
            assert_eq!(a.len(), 2, "{name}: one {stage} stage per preset");
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_ne!(x, y, "{name}: --precond did not reach {stage}");
            }
        }
    }
}
