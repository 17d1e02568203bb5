//! What a workload run collects, and how it becomes the ledger's
//! metrics: medians of exact samples, a supported tail, and the
//! unattributed remainder of each replayed total.

use ppdl_bench::memtrack;

use crate::dl::DlPhases;
use crate::fixture::SetupTimes;
use crate::ledger::{nn_layer_metric, Report, NN_LAYERS};
use crate::replay::{ServicePhases, SignoffPhases};
use crate::stats::{median, percentile, quartiles, tail, unattributed};

/// Phase replays per traced run, per kind.
pub const REPLAYS: usize = 16;

/// Marks the start of a timed phase: resets the allocator's peak and
/// returns the live heap then (the resident bundle, base design and the
/// benchmark's own buffers), which `peak_heap_mb` leaves out.
pub fn heap_mark() -> usize {
    memtrack::reset_peak();
    memtrack::current_bytes()
}

/// The peak live heap since `mark` was taken, above it: what the timed
/// operations themselves allocate at most at once.
pub fn heap_growth(mark: usize) -> usize {
    memtrack::peak_bytes().saturating_sub(mark)
}

#[derive(Debug, Default)]
pub struct Samples {
    pub setup: SetupTimes,
    /// Answers as their caller saw them, in ms.
    pub answer_ms: Vec<f64>,
    /// Answers that came back ok, and the timed phase's wall seconds.
    pub answered_ok: usize,
    pub wall_s: f64,
    pub signoff_ms: Vec<f64>,
    pub ir_err_pct: Vec<f64>,
    pub area_ratio: Vec<f64>,
    pub peak_heap_bytes: usize,
    /// The answer and sign-off times scaled to the reference host, each
    /// by the probes of the thread that timed it, taken right after it
    /// (see `speed`).
    pub answer_ref_ms: Vec<f64>,
    pub signoff_ref_ms: Vec<f64>,
    /// Traced replays: `(end-to-end ms, phases)` of the DL path.
    pub dl: Vec<(f64, DlPhases)>,
    /// Replays whose NN phases are reported (the DL replays, except on
    /// synthesis, whose oracle skips the network).
    pub nn: Vec<DlPhases>,
    pub signoff: Vec<(f64, SignoffPhases)>,
    pub service: ServicePhases,
    /// Overrides the replay's busy share when the workload ran the
    /// service for real over TCP.
    pub busy_frac: Option<f64>,
    /// Client round trip minus server busy time, per batch, when the
    /// service ran over TCP.
    pub outside_batch_ms: Option<f64>,
    pub cache_hit_ratio: f64,
    pub oracle_ms: Vec<f64>,
    pub synth_counts: Option<SynthCounts>,
    /// `predict` with tracing off and on, alternated.
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct SynthCounts {
    pub oracle_calls: f64,
    pub full_solves: f64,
    pub accept_ratio: f64,
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

fn med_of<T>(v: &[T], f: impl Fn(&T) -> f64) -> f64 {
    med(&v.iter().map(f).collect::<Vec<_>>())
}

impl Samples {
    /// Writes every metric this run can support into `report` and a
    /// human-readable account to stderr. Metrics with no samples stay
    /// unset, which the report counts as a failure.
    pub fn emit(&self, report: &mut Report, workload: &str) {
        let s = self;
        let answer = med(&s.answer_ref_ms);
        report.set("setup_s", s.setup.total_s);
        report.set("answer_p50_ms", answer);
        report.set("trace.answer_p50_ms", answer);
        let tail = tail(&s.answer_ref_ms);
        if let Some((_, v)) = tail {
            report.set("trace.answer_tail_ms", v);
        }
        if s.wall_s > 0.0 && s.answered_ok > 0 {
            // The wall time scaled as the median answer was.
            let k = answer / med(&s.answer_ms);
            report.set("trace.answers_per_s", s.answered_ok as f64 / s.wall_s / k);
        }
        report.set("signoff_p50_ms", med(&s.signoff_ref_ms));
        report.set(
            "ir_err_p90_pct",
            percentile(&s.ir_err_pct, 90).unwrap_or(f64::NAN),
        );
        report.set("area_ratio", med(&s.area_ratio));
        report.set("peak_heap_mb", memtrack::to_mib(s.peak_heap_bytes));

        report.set("setup.source_s", s.setup.source_s);
        report.set("setup.size_s", s.setup.size_s);
        report.set("setup.train_s", s.setup.train_s);
        report.set("setup.base_s", s.setup.base_s);

        if !s.dl.is_empty() {
            report.set("predict.total_ms", med_of(&s.dl, |d| d.0));
            report.set("predict.apply_ms", med_of(&s.dl, |d| d.1.apply));
            report.set("kirchhoff.coarse_ms", med_of(&s.dl, |d| d.1.coarse));
            report.set("kirchhoff.sweeps_ms", med_of(&s.dl, |d| d.1.sweeps));
            report.set("kirchhoff.cg_iters", med_of(&s.dl, |d| d.1.cg_iters));
            report.set(
                "predict.unattributed_ms",
                med_of(&s.dl, |(total, ph)| unattributed(*total, &ph.parts())),
            );
        }
        if !s.nn.is_empty() {
            report.set("predict.features_ms", med_of(&s.nn, |p| p.features));
            report.set("nn.forward_ms", med_of(&s.nn, |p| p.forward));
            report.set("nn.gemm_fmas", med_of(&s.nn, |p| p.gemm_fmas));
            for i in 0..NN_LAYERS {
                report.set(nn_layer_metric(i), med_of(&s.nn, |p| p.layers[i]));
            }
        }
        if !s.signoff.is_empty() {
            report.set("signoff.total_ms", med_of(&s.signoff, |d| d.0));
            report.set("mna.resize_ms", med_of(&s.signoff, |d| d.1.resize));
            report.set("mna.merge_ms", med_of(&s.signoff, |d| d.1.merge));
            report.set("mna.solve_ms", med_of(&s.signoff, |d| d.1.solve));
            report.set("mna.cg_iters", med_of(&s.signoff, |d| d.1.cg_iters));
            report.set("solver.spmv_calls", med_of(&s.signoff, |d| d.1.spmv_calls));
            report.set("mna.em_ms", med_of(&s.signoff, |d| d.1.em));
            report.set(
                "signoff.unattributed_ms",
                med_of(&s.signoff, |(total, ph)| unattributed(*total, &ph.parts())),
            );
        }
        let svc = &s.service;
        if !svc.batch_ms.is_empty() {
            report.set("proto.parse_us", med(&svc.parse_us));
            report.set("proto.render_us", med(&svc.render_us));
            report.set("service.batch_ms", med(&svc.batch_ms));
            report.set("service.batch_size", med(&svc.batch_size));
            report.set(
                "service.busy_frac",
                s.busy_frac.unwrap_or(svc.busy_s / svc.wall_s),
            );
            report.set(
                "service.outside_batch_ms",
                s.outside_batch_ms.unwrap_or_else(|| med(&svc.outside_ms)),
            );
            report.set("service.cache_hit_ratio", s.cache_hit_ratio);
        }
        report.set("synth.oracle_ms", med(&s.oracle_ms));
        let counts = s.synth_counts.unwrap_or(SynthCounts {
            oracle_calls: 0.0,
            full_solves: 0.0,
            accept_ratio: 0.0,
        });
        report.set("synth.oracle_calls", counts.oracle_calls);
        report.set("synth.full_solves", counts.full_solves);
        report.set("synth.accept_ratio", counts.accept_ratio);
        let (off, on) = (med(&s.untraced_ms), med(&s.traced_ms));
        report.set("trace.overhead_pct", (on / off - 1.0) * 100.0);

        self.describe(workload, tail);
    }

    /// The human-readable account: sample counts, the tail percentile,
    /// within-run quartiles, and the Table IV ratio.
    fn describe(&self, workload: &str, tail: Option<(u32, f64)>) {
        let q = |v: &[f64]| {
            quartiles(v).map_or_else(
                || "-".to_string(),
                |[a, b, c]| format!("{a:.3}/{b:.3}/{c:.3}"),
            )
        };
        eprintln!(
            "{workload}: {} answers (q1/median/q3 ms as measured {}, scaled {}), tail p{} over n={}; {} sign-offs (as measured {}, scaled {})",
            self.answer_ms.len(),
            q(&self.answer_ms),
            q(&self.answer_ref_ms),
            tail.map_or(0, |t| t.0),
            self.answer_ref_ms.len(),
            self.signoff_ms.len(),
            q(&self.signoff_ms),
            q(&self.signoff_ref_ms),
        );
        if let (true, Some(a), Some(so)) = (
            workload.starts_with("table4"),
            median(&self.answer_ms),
            median(&self.signoff_ms),
        ) {
            eprintln!(
                "{workload}: table4.speedup = signoff_p50 / answer_p50 = {:.3}",
                so / a
            );
        }
        if let Some(total) = median(&self.dl.iter().map(|d| d.0).collect::<Vec<_>>()) {
            let un = med_of(&self.dl, |(t, ph)| unattributed(*t, &ph.parts()));
            eprintln!(
                "{workload}: predict.unattributed = {un:.3} ms of {total:.3} ms ({:.1}%)",
                un / total * 100.0
            );
        }
        if let Some(total) = median(&self.signoff.iter().map(|d| d.0).collect::<Vec<_>>()) {
            let un = med_of(&self.signoff, |(t, ph)| unattributed(*t, &ph.parts()));
            eprintln!(
                "{workload}: signoff.unattributed = {un:.3} ms of {total:.3} ms ({:.1}%)",
                un / total * 100.0
            );
        }
    }
}
