//! Traced replays of the conventional sign-off and of the service
//! layer, each phase timed from outside.

use std::sync::Arc;
use std::time::Instant;

use ppdl_analysis::{EmChecker, StaticAnalysis};
use ppdl_netlist::SyntheticBenchmark;
use ppdl_service::{parse_line, render_reply, Command, ModelRegistry};

use crate::dl::{counter, ms};
use crate::fixture::Fixture;
use crate::ledger::Report;
use crate::Error;

/// The phases of one sign-off, in milliseconds (counts as counts).
/// `merge` is the `merged_shorts` step that `solve` also runs inside
/// itself, so it is a breakdown of `solve`, not an addend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SignoffPhases {
    pub resize: f64,
    pub merge: f64,
    pub solve: f64,
    pub cg_iters: f64,
    pub spmv_calls: f64,
    pub em: f64,
}

impl SignoffPhases {
    /// The phases that partition a sign-off.
    pub fn parts(&self) -> [f64; 3] {
        [self.resize, self.solve, self.em]
    }
}

/// Replays `fixture::signoff` on a copy of the not-yet-resized design.
pub fn signoff(
    fx: &Fixture,
    design: &SyntheticBenchmark,
    widths: &[f64],
) -> Result<SignoffPhases, Error> {
    let mut bench = design.clone();
    let mut ph = SignoffPhases::default();
    let t0 = Instant::now();
    bench.set_strap_widths(widths)?;
    ph.resize = ms(t0);
    let t0 = Instant::now();
    std::hint::black_box(bench.network().merged_shorts());
    ph.merge = ms(t0);
    let spmv0 = counter("solver/spmv/calls");
    let t0 = Instant::now();
    let report = StaticAnalysis::default().solve(bench.network())?;
    ph.solve = ms(t0);
    ph.spmv_calls = (counter("solver/spmv/calls") - spmv0) as f64;
    ph.cg_iters = report.iterations() as f64;
    let t0 = Instant::now();
    std::hint::black_box(EmChecker::new(fx.jmax).check(&bench, &report)?);
    ph.em = ms(t0);
    Ok(ph)
}

/// Per-call service timings.
#[derive(Debug, Clone, Default)]
pub struct ServicePhases {
    pub parse_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub batch_ms: Vec<f64>,
    pub outside_ms: Vec<f64>,
    pub batch_size: Vec<f64>,
    pub busy_s: f64,
    pub wall_s: f64,
}

/// Sends each batch of protocol lines through one registry session:
/// `parse_line` per line, `Session::enqueue`, one `Session::flush`
/// (which runs `ServiceCore::run_batch`), and `render_reply` per
/// reply. Every reply must be ok.
pub fn service(
    registry: &Arc<ModelRegistry>,
    batches: &[Vec<String>],
    ph: &mut ServicePhases,
    report: &mut Report,
) {
    let mut session = registry.session();
    for lines in batches {
        let t_batch = Instant::now();
        for line in lines {
            let t0 = Instant::now();
            let parsed = parse_line(line);
            ph.parse_us.push(ms(t0) * 1e3);
            let enqueued = match parsed {
                Ok(Command::Request { bundle, request }) => session
                    .enqueue(bundle.as_deref(), request)
                    .map_err(|e| e.to_string()),
                Ok(other) => Err(format!("not a request: {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            report.check("service replay enqueue", enqueued);
        }
        let t0 = Instant::now();
        let replies = session.flush();
        let batch = ms(t0);
        for reply in &replies {
            report.expect("service replay reply is ok", reply.result.is_ok());
            let t0 = Instant::now();
            std::hint::black_box(render_reply(reply));
            ph.render_us.push(ms(t0) * 1e3);
        }
        let wall = ms(t_batch);
        ph.batch_ms.push(batch);
        ph.outside_ms.push(wall - batch);
        ph.batch_size.push(replies.len() as f64);
        ph.busy_s += batch / 1e3;
        ph.wall_s += wall / 1e3;
    }
}
