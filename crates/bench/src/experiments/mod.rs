//! The experiment registry: every paper table/figure reproduction as a
//! named entry over the shared pipeline engine.
//!
//! Each experiment is a function from [`Options`] (one parser, one
//! `--help`) and an optional [`ArtifactCache`] to a [`RunOutput`]: a
//! structured [`RunManifest`] plus the human-readable report text. The
//! `ppdl-bench` binary dispatches `run <name>` through [`find`].

use std::time::Instant;

use ppdl_core::pipeline::{ArtifactCache, RunManifest};
use ppdl_core::DlFlowConfig;

use crate::harness::Options;

mod ablation_depth;
mod ablation_optimizer;
mod fig10_memory_profile;
mod fig4b_table1;
mod fig7_width_prediction;
mod fig8_ir_maps;
mod fig9_perturbation;
mod kernels;
mod serve_saturation;
mod serve_throughput;
mod synth_oracle;
mod table2_benchmarks;
mod table3_worst_ir;
mod table4_speedup;
mod table5_accuracy_memory;
mod transfer_matrix;

/// Error type experiments propagate: anything printable.
pub type DynError = Box<dyn std::error::Error + Send + Sync>;

/// What one experiment run produces.
pub struct RunOutput {
    /// The structured run record (stages, cache hits, metrics).
    pub manifest: RunManifest,
    /// The human-readable report (tables, notes).
    pub report: String,
}

/// The signature every registered experiment implements.
pub type RunFn = fn(&Options, Option<&ArtifactCache>) -> Result<RunOutput, DynError>;

/// One registry entry.
pub struct ExperimentDef {
    /// Canonical name (`ppdl-bench run <name>`).
    pub name: &'static str,
    /// Shorthand aliases (`table3` for `table3_worst_ir`, …).
    pub aliases: &'static [&'static str],
    /// One-line description for `ppdl-bench list`.
    pub title: &'static str,
    /// Default `--scale` when the flag is absent.
    pub default_scale: f64,
    /// The experiment body.
    pub run: RunFn,
}

/// Every registered experiment, in paper order.
pub const REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        name: "table2_benchmarks",
        aliases: &["table2"],
        title: "Table II: generated benchmark suite vs published sizes",
        default_scale: 0.02,
        run: table2_benchmarks::run,
    },
    ExperimentDef {
        name: "table3_worst_ir",
        aliases: &["table3"],
        title: "Table III: worst-case IR drop, conventional vs DL",
        default_scale: 0.02,
        run: table3_worst_ir::run,
    },
    ExperimentDef {
        name: "table4_speedup",
        aliases: &["table4"],
        title: "Table IV: convergence-time speedup on all 8 benchmarks",
        default_scale: 0.02,
        run: table4_speedup::run,
    },
    ExperimentDef {
        name: "table5_accuracy_memory",
        aliases: &["table5"],
        title: "Table V: r², MSE, and peak memory per benchmark",
        default_scale: 0.02,
        run: table5_accuracy_memory::run,
    },
    ExperimentDef {
        name: "fig4b_table1",
        aliases: &["fig4b", "table1"],
        title: "Table I / Fig. 4(b): feature ablation + windowed r²",
        default_scale: 0.02,
        run: fig4b_table1::run,
    },
    ExperimentDef {
        name: "fig7_width_prediction",
        aliases: &["fig7"],
        title: "Fig. 7: width-prediction scatter and error histogram",
        default_scale: 0.02,
        run: fig7_width_prediction::run,
    },
    ExperimentDef {
        name: "fig8_ir_maps",
        aliases: &["fig8"],
        title: "Fig. 8: 100x100 IR-drop maps, conventional vs predicted",
        default_scale: 0.02,
        run: fig8_ir_maps::run,
    },
    ExperimentDef {
        name: "fig9_perturbation",
        aliases: &["fig9"],
        title: "Fig. 9: prediction MSE vs perturbation size γ",
        default_scale: 0.015,
        run: fig9_perturbation::run,
    },
    ExperimentDef {
        name: "fig10_memory_profile",
        aliases: &["fig10"],
        title: "Fig. 10: memory-vs-time profile of the DL flow",
        default_scale: 0.02,
        run: fig10_memory_profile::run,
    },
    ExperimentDef {
        name: "serve_throughput",
        aliases: &["serve"],
        title: "Service: ECO batch throughput vs batch size, warm-cache replay",
        default_scale: 0.015,
        run: serve_throughput::run,
    },
    ExperimentDef {
        name: "serve_saturation",
        aliases: &["saturation"],
        title: "Service: networked latency percentiles vs concurrent client count",
        default_scale: 0.015,
        run: serve_saturation::run,
    },
    ExperimentDef {
        name: "ablation_depth",
        aliases: &["depth"],
        title: "Ablation: hidden-layer depth of the width model",
        default_scale: 0.015,
        run: ablation_depth::run,
    },
    ExperimentDef {
        name: "ablation_optimizer",
        aliases: &["optimizer"],
        title: "Ablation: Adam vs SGD/momentum/RMSProp",
        default_scale: 0.015,
        run: ablation_optimizer::run,
    },
    ExperimentDef {
        name: "transfer_matrix",
        aliases: &["transfer"],
        title: "Transfer: per-backend train-preset x test-preset error matrix",
        default_scale: 0.015,
        run: transfer_matrix::run,
    },
    ExperimentDef {
        name: "kernels",
        aliases: &["kernel_bench"],
        title: "Kernels: tiled GEMM vs scalar, blocked SpMV, CG iterations per preconditioner",
        default_scale: 0.02,
        run: kernels::run,
    },
    ExperimentDef {
        name: "synth_oracle",
        aliases: &["synth"],
        title:
            "Synthesis: predictor-in-the-loop template annealing vs conventional full-solve count",
        default_scale: 0.01,
        run: synth_oracle::run,
    },
];

/// Looks up an experiment by canonical name or alias.
#[must_use]
pub fn find(name: &str) -> Option<&'static ExperimentDef> {
    REGISTRY
        .iter()
        .find(|d| d.name == name || d.aliases.contains(&name))
}

/// The base flow configuration every experiment derives from `--fast`
/// and `--precond` ([`base_builder`] with no extra knobs).
#[must_use]
pub fn base_config(opts: &Options) -> DlFlowConfig {
    base_builder(opts).build()
}

/// A flow-configuration builder seeded from the shared options; chain
/// experiment-specific knobs before `build()` instead of mutating
/// [`DlFlowConfig`] fields.
#[must_use]
pub fn base_builder(opts: &Options) -> ppdl_core::DlFlowConfigBuilder {
    let mut builder = DlFlowConfig::builder();
    if opts.fast {
        builder = builder.fast();
    }
    if let Some(kind) = opts.precond {
        builder = builder.preconditioner(kind);
    }
    builder
}

/// Starts a manifest with the shared configuration echoed.
#[must_use]
pub fn manifest_for(name: &str, opts: &Options) -> RunManifest {
    let mut m = RunManifest::new(name);
    m.set_config("scale", opts.scale);
    m.set_config("seed", opts.seed);
    m.set_config("fast", opts.fast);
    m.set_config("cache", !opts.no_cache);
    m.set_config("out_dir", opts.out_dir.display());
    if let Some(kind) = opts.precond {
        m.set_config("precond", kind.name());
    }
    m
}

/// Runs one registered experiment end to end: applies `--threads`,
/// opens the cache, times the run, and writes the manifest JSON next to
/// the experiment's CSVs. With `--telemetry <out.json>`, process-wide
/// span/counter collection is enabled for the run, the snapshot is
/// written to the path, and a copy is embedded in the manifest.
///
/// # Errors
///
/// Propagates experiment, manifest-write, and snapshot-write errors.
pub fn execute(def: &ExperimentDef, opts: &Options) -> Result<RunOutput, DynError> {
    opts.apply_threads();
    if opts.telemetry.is_some() {
        ppdl_obs::set_enabled(true);
    }
    let cache = opts.open_cache();
    let t0 = Instant::now();
    let mut out = (def.run)(opts, cache.as_ref())?;
    out.manifest.wall = t0.elapsed();
    use std::fmt::Write as _;
    if let Some(telemetry_path) = &opts.telemetry {
        let snapshot = ppdl_obs::global().snapshot_json();
        if let Some(parent) = telemetry_path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
        {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(telemetry_path, format!("{snapshot}\n"))?;
        out.manifest.telemetry = Some(snapshot);
        let _ = writeln!(out.report, "telemetry: {}", telemetry_path.display());
    }
    let path = out.manifest.write(&opts.out_dir)?;
    let _ = writeln!(out.report, "manifest: {}", path.display());
    Ok(out)
}

/// Prints a run's output with `--json` routing: manifest JSON on
/// stdout and the report on stderr when `--json` is set, the report on
/// stdout otherwise.
pub fn emit(opts: &Options, out: &RunOutput) {
    if opts.json {
        eprint!("{}", out.report);
        print!("{}", out.manifest.to_json());
    } else {
        print!("{}", out.report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_and_aliases_resolve_uniquely() {
        assert_eq!(REGISTRY.len(), 16);
        let mut seen = std::collections::BTreeSet::new();
        for def in REGISTRY {
            assert!(seen.insert(def.name), "duplicate name {}", def.name);
            for alias in def.aliases {
                assert!(seen.insert(alias), "duplicate alias {alias}");
            }
            assert!(def.default_scale > 0.0);
        }
        assert_eq!(find("table3").unwrap().name, "table3_worst_ir");
        assert_eq!(find("fig9_perturbation").unwrap().name, "fig9_perturbation");
        assert!(find("nope").is_none());
    }
}
