//! Workload recipes, seeded inputs, set-up, and the conventional
//! sign-off every workload's answers go through.

use std::time::Instant;

use ppdl_analysis::{EmChecker, IrDropReport, StaticAnalysis};
use ppdl_core::predict::{PredictRequest, TrainedBundle};
use ppdl_core::{DlFlowConfig, Perturbation, PerturbationKind, PredictorConfig};
use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};

use crate::speed::{factor_of, Probe};
use crate::stats::median;
use crate::Error;

/// Worker threads for every parallel kernel, clamped to the machine.
pub const POOL_THREADS: usize = 1;

/// Closed-loop client connections of `serve`, clamped to the machine.
pub const SERVE_CLIENTS: usize = 2;

/// Host-speed probes taken between set-ups (about 10 ms).
const PROBES_PER_BURST: usize = 20;

/// ECO scenarios every run answers and signs off, whatever the time
/// budget, and over which the accuracy and area metrics are taken, so
/// those repeat exactly for a seed. About one scenario in 150 has an
/// error several times the rest, so a 90th percentile over 64 stays put
/// where the worst of 16 jumped between seeds.
pub const QUALITY_SET: usize = 64;

/// Grid-generation seed of every bundle. The workload seed drives only
/// the queries, so set-up does the same work on every seed.
const GRID_SEED: u64 = 1;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Table4Flipchip,
    Table4Wirebond,
    Synth,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Serve,
        Workload::Table4Flipchip,
        Workload::Table4Wirebond,
        Workload::Synth,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Table4Flipchip => "table4_flipchip",
            Workload::Table4Wirebond => "table4_wirebond",
            Workload::Synth => "synth",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid and model a workload runs on. `toy` shrinks the grid and
    /// the training for smoke tests; the model keeps the paper's shape.
    pub fn recipe(self, toy: bool) -> Recipe {
        let (preset, scale) = match self {
            Workload::Serve => (IbmPgPreset::Ibmpg2, 0.02),
            Workload::Table4Flipchip => (IbmPgPreset::Ibmpg6, 0.02),
            Workload::Table4Wirebond => (IbmPgPreset::Ibmpg3, 0.02),
            Workload::Synth => (IbmPgPreset::Ibmpg2, 0.05),
        };
        if toy {
            Recipe {
                preset,
                scale: match self {
                    Workload::Table4Flipchip => 0.002,
                    _ => 0.005,
                },
                epochs: 1,
                setups: 1,
            }
        } else {
            Recipe {
                preset,
                scale,
                epochs: 5,
                // 3 s of set-up or more in all, so `setup_s` is a median
                // of many short set-ups on the small grids.
                setups: match self {
                    Workload::Serve => 21,
                    Workload::Synth => 15,
                    Workload::Table4Flipchip | Workload::Table4Wirebond => 9,
                },
            }
        }
    }
}

/// How a workload's bundle is built.
#[derive(Debug, Clone, Copy)]
pub struct Recipe {
    pub preset: IbmPgPreset,
    pub scale: f64,
    /// Training epochs: cut so set-up takes seconds. Inference cost
    /// depends only on the model's shape.
    pub epochs: usize,
    pub setups: usize,
}

impl Recipe {
    /// The paper's predictor (10 hidden ReLU layers of 24) with the
    /// recipe's epoch budget.
    pub fn flow_config(&self) -> DlFlowConfig {
        let mut predictor = PredictorConfig::default();
        predictor.train.epochs = self.epochs;
        DlFlowConfig::builder().predictor(predictor).build()
    }
}

/// The trained bundle, its resident base design, and the EM limit its
/// conventional sizing used.
pub struct Fixture {
    pub bundle: TrainedBundle,
    pub base: SyntheticBenchmark,
    pub jmax: f64,
}

/// Wall time of one set-up and of its phases. The phases come from
/// the `pipeline/*` spans, so they read 0 when tracing is off.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub source_s: f64,
    pub size_s: f64,
    pub train_s: f64,
    pub base_s: f64,
}

fn span_total(path: &str) -> f64 {
    ppdl_obs::global().span_stats(path).map_or(0.0, |(_, s)| s)
}

/// Generates, calibrates and sizes the grid, trains the model without
/// the artifact cache, and instantiates the base design.
pub fn build_fixture(recipe: &Recipe) -> Result<(Fixture, SetupTimes), Error> {
    let spans = ["bench-source", "feature-extract", "train"].map(|s| format!("pipeline/{s}"));
    let before = spans.clone().map(|s| span_total(&s));
    let t0 = Instant::now();
    let config = recipe.flow_config();
    let jmax = config.conventional.jmax;
    let bundle = TrainedBundle::train(recipe.preset, recipe.scale, GRID_SEED, config, None)?;
    let t_base = Instant::now();
    let base = bundle.instantiate_base()?;
    let base_s = t_base.elapsed().as_secs_f64();
    let after = spans.map(|s| span_total(&s));
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        source_s: after[0] - before[0],
        size_s: after[1] - before[1],
        train_s: after[2] - before[2],
        base_s,
    };
    Ok((Fixture { bundle, base, jmax }, times))
}

/// Runs `setup` `recipe.setups` times and keeps the last result, with
/// the median of each time. Each set-up's total is scaled to the
/// reference host by the probes just before and after it (see `speed`),
/// so a set-up that met a slow spell of the host is read at its own
/// speed; the phases, which are per-layer metrics, are not scaled.
pub fn repeat_setup<T>(
    recipe: &Recipe,
    mut setup: impl FnMut() -> Result<(T, SetupTimes), Error>,
) -> Result<(T, SetupTimes), Error> {
    let mut runs = Vec::new();
    let mut scaled = Vec::new();
    let mut last = None;
    let mut probe = Probe::new();
    let mut before = probe.burst(PROBES_PER_BURST);
    for _ in 0..recipe.setups.max(1) {
        let (value, times) = setup()?;
        let after = probe.burst(PROBES_PER_BURST);
        scaled.push(times.total_s * factor_of(&[before, after.clone()].concat()));
        before = after;
        runs.push(times);
        last = Some(value);
    }
    eprintln!(
        "set-up: {} runs, seconds as measured {}",
        runs.len(),
        runs.iter()
            .map(|t| format!("{:.3}", t.total_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    probe.describe("set-ups (each scaled by the probes around it)");
    let med =
        |f: fn(&SetupTimes) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let times = SetupTimes {
        total_s: median(&scaled).unwrap_or(0.0),
        source_s: med(|t| t.source_s),
        size_s: med(|t| t.size_s),
        train_s: med(|t| t.train_s),
        base_s: med(|t| t.base_s),
    };
    Ok((last.expect("at least one set-up ran"), times))
}

/// SplitMix64: the benchmark's own input generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `i`-th ECO scenario of a seed's stream: a §IV-D perturbation of
/// both loads and supply voltages. The perturbation seed carries the
/// index in its low bits, so every scenario of a stream is distinct.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub index: usize,
    pub gamma: f64,
    pub seed: u64,
}

impl Scenario {
    pub fn nth(stream_seed: u64, index: usize) -> Self {
        let mut rng =
            SplitMix64::new(stream_seed ^ (index as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let gamma = 0.02 + 0.18 * rng.unit();
        // Below 2^53 so the wire's JSON numbers carry it exactly.
        let seed = ((rng.next_u64() >> 32) << 20) | (index as u64 & 0xf_ffff);
        Self { index, gamma, seed }
    }

    pub fn id(&self) -> String {
        format!("r{}", self.index)
    }

    pub fn request(&self) -> Result<PredictRequest, Error> {
        let p = Perturbation::new(self.gamma, PerturbationKind::Both, self.seed)?;
        Ok(PredictRequest::new(self.id()).with_perturbation(p))
    }

    /// The scenario as one NDJSON protocol line (no newline).
    pub fn line(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"gamma\":{},\"kind\":\"both\",\"seed\":{}}}",
            self.id(),
            self.gamma,
            self.seed
        )
    }
}

/// One conventional design iteration on an answered design.
pub struct Signoff {
    pub secs: f64,
    pub report: IrDropReport,
}

impl Signoff {
    pub fn worst_mv(&self) -> f64 {
        self.report.worst_drop().map_or(0.0, |(_, d)| d * 1e3)
    }
}

/// Resizes `test` to `widths`, solves it by MNA, and checks EM: one
/// iteration of the conventional loop. A solve that does not converge
/// is an error.
pub fn signoff(
    fx: &Fixture,
    test: &mut SyntheticBenchmark,
    widths: &[f64],
) -> Result<Signoff, Error> {
    let t0 = Instant::now();
    test.set_strap_widths(widths)?;
    let report = StaticAnalysis::default().solve(test.network())?;
    let em = EmChecker::new(fx.jmax).check(test, &report)?;
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(em);
    Ok(Signoff { secs, report })
}

/// |DL worst IR − MNA worst IR| / MNA worst IR, in percent.
pub fn ir_err_pct(dl_mv: f64, mna_mv: f64) -> f64 {
    (dl_mv - mna_mv).abs() / mna_mv * 100.0
}

/// Metal area of the (resized) `test` design over the base design's golden area.
pub fn area_ratio(fx: &Fixture, test: &SyntheticBenchmark) -> f64 {
    test.total_metal_area() / fx.base.total_metal_area()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_streams_are_seeded_and_distinct() {
        let a: Vec<_> = (0..200).map(|i| Scenario::nth(7, i)).collect();
        let b: Vec<_> = (0..200).map(|i| Scenario::nth(7, i)).collect();
        let mut seeds = std::collections::BTreeSet::new();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.gamma.to_bits(), x.seed), (y.gamma.to_bits(), y.seed));
            assert!(x.gamma > 0.0 && x.gamma < 1.0);
            assert!(x.seed < 1 << 53);
            assert!(seeds.insert(x.seed), "payloads repeat");
        }
        assert_ne!(Scenario::nth(8, 0).seed, a[0].seed);
    }

    #[test]
    fn scenario_line_parses_to_the_same_request() {
        let s = Scenario::nth(3, 41);
        let request = s.request().unwrap();
        match ppdl_service::parse_line(&s.line()).unwrap() {
            ppdl_service::Command::Request {
                bundle,
                request: parsed,
            } => {
                assert_eq!(bundle, None);
                assert_eq!(parsed.id, "r41");
                assert!(parsed.payload_eq(&request));
            }
            other => panic!("wanted a request, got {other:?}"),
        }
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}
