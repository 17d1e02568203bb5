//! The Table IV workloads: each unique ECO scenario is answered by
//! `predict`, then signed off conventionally on the returned design.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppdl_core::predict::PredictRequest;
use ppdl_netlist::SyntheticBenchmark;
use ppdl_service::{ModelRegistry, ServiceConfig};

use crate::dl::{self, answer};
use crate::fixture::{
    area_ratio, build_fixture, ir_err_pct, repeat_setup, signoff, Fixture, Recipe, Scenario,
    QUALITY_SET,
};
use crate::ledger::Report;
use crate::replay;
use crate::samples::{heap_growth, heap_mark, Samples, REPLAYS};
use crate::speed::Probe;
use crate::Error;

pub fn run(
    recipe: &Recipe,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<Samples, Error> {
    let (fx, setup) = repeat_setup(recipe, || build_fixture(recipe))?;
    let mut s = Samples {
        setup,
        ..Samples::default()
    };
    let registry = if report.trace() {
        Some(replay_registry(&fx)?)
    } else {
        None
    };

    let mut probe = Probe::new();
    let heap = heap_mark();
    let t_start = Instant::now();
    timed(
        &fx,
        registry.as_ref(),
        seed,
        budget,
        &mut probe,
        &mut s,
        report,
    );
    probe.describe("answers and sign-offs");
    s.wall_s = t_start.elapsed().as_secs_f64();
    s.peak_heap_bytes = heap_growth(heap);
    if let Some(registry) = &registry {
        s.cache_hit_ratio = cache_hit_ratio(registry);
    }
    Ok(s)
}

/// Answers and signs off unique scenarios until the budget is spent
/// and the quality set is done; traced runs replay the first few.
fn timed(
    fx: &Fixture,
    registry: Option<&Arc<ModelRegistry>>,
    seed: u64,
    budget: Duration,
    probe: &mut Probe,
    s: &mut Samples,
    report: &mut Report,
) {
    let t_start = Instant::now();
    let mut index = 0;
    while index < QUALITY_SET || t_start.elapsed() < budget {
        let scenario = Scenario::nth(seed, index);
        index += 1;
        let Some(request) = report.check("scenario", scenario.request()) else {
            continue;
        };
        let Some((dl_ms, p)) = report.check("predict", answer(fx, &request)) else {
            continue;
        };
        s.answer_ms.push(dl_ms);
        s.answer_ref_ms.push(dl_ms * probe.factor());
        let widths = p.response.widths;
        let mut design = p.test_bench;
        let before_resize = registry.is_some().then(|| design.clone());
        let Some(so) = report.check("sign-off", signoff(fx, &mut design, &widths)) else {
            continue;
        };
        s.signoff_ms.push(so.secs * 1e3);
        s.signoff_ref_ms.push(so.secs * 1e3 * probe.factor());
        s.answered_ok += 1;
        if scenario.index < QUALITY_SET {
            s.ir_err_pct
                .push(ir_err_pct(p.response.worst_ir_mv, so.worst_mv()));
            s.area_ratio.push(area_ratio(fx, &design));
        }
        if let (Some(registry), Some(before_resize)) = (registry, before_resize) {
            if s.dl.len() < REPLAYS {
                replay::service(registry, &[vec![scenario.line()]], &mut s.service, report);
                let traced = Traced {
                    request: &request,
                    widths: &widths,
                    before_resize: &before_resize,
                    answer_ms: dl_ms,
                    signoff_ms: so.secs * 1e3,
                };
                trace_answer(fx, &traced, s, report);
            }
        }
    }
}

/// A fresh one-bundle registry (default config, cache on) for replaying
/// requests through the service layer in-process.
pub fn replay_registry(fx: &Fixture) -> Result<Arc<ModelRegistry>, Error> {
    let registry = Arc::new(ModelRegistry::new(ServiceConfig::default()));
    registry.install("bench", fx.bundle.clone())?;
    Ok(registry)
}

/// Cache hits over requests on the registry's bundle.
pub fn cache_hit_ratio(registry: &ModelRegistry) -> f64 {
    registry.get("bench").map_or(0.0, |core| {
        let st = core.stats();
        st.cache_hits as f64 / st.requests.max(1) as f64
    })
}

/// One answered and signed-off request, as the traced replays need it.
pub struct Traced<'a> {
    pub request: &'a PredictRequest,
    pub widths: &'a [f64],
    /// The answer's design before the sign-off resized it.
    pub before_resize: &'a SyntheticBenchmark,
    pub answer_ms: f64,
    pub signoff_ms: f64,
}

/// Replays one answer as phases: the DL path, the sign-off, the oracle
/// on its widths, and a `predict` with tracing off and then on. A
/// width-override request runs no network, so its NN phases are not
/// recorded.
pub fn trace_answer(fx: &Fixture, t: &Traced<'_>, s: &mut Samples, report: &mut Report) {
    // Each replay is bracketed by the end-to-end call before it and a
    // repeat after it, and compared with their mean, so host drift
    // between the two does not show as unattributed time.
    if let Some(ph) = report.check("replay predict", dl::replay(fx, t.request, t.widths)) {
        if let Some((again, _)) = report.check("predict", answer(fx, t.request)) {
            if t.request.width_overrides.is_none() {
                s.nn.push(ph.clone());
            }
            s.dl.push(((t.answer_ms + again) / 2.0, ph));
        }
    }
    if let Some(ph) = report.check(
        "replay sign-off",
        replay::signoff(fx, t.before_resize, t.widths),
    ) {
        let mut design = t.before_resize.clone();
        if let Some(again) = report.check("sign-off", signoff(fx, &mut design, t.widths)) {
            s.signoff
                .push(((t.signoff_ms + again.secs * 1e3) / 2.0, ph));
        }
    }
    if let Some((ms, _)) = report.check("oracle", dl::oracle(fx, t.widths)) {
        s.oracle_ms.push(ms);
    }
    overhead_pair(s, report, || answer(fx, t.request).map(|a| a.0));
}

/// Times `op` once with tracing off and once with it on.
fn overhead_pair(s: &mut Samples, report: &mut Report, op: impl Fn() -> Result<f64, Error>) {
    ppdl_obs::set_enabled(false);
    let off = report.check("untraced predict", op());
    ppdl_obs::set_enabled(true);
    let on = report.check("traced predict", op());
    if let (Some(off), Some(on)) = (off, on) {
        s.untraced_ms.push(off);
        s.traced_ms.push(on);
    }
}
