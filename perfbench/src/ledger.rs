//! The metric ledger: every metric the benchmark prints, with its unit
//! and direction, and the result line that carries them.
//!
//! `BENCHMARK.json` at the repository root declares the same lists;
//! a test keeps the two in step. `LEDGER.md` next to this crate says
//! what each metric measures on each workload and which end-to-end
//! metric it is predicted to move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

// `better`, `bound` and `tag` are read by the test that compares this
// ledger with BENCHMARK.json.
#[cfg_attr(not(test), allow(dead_code))]
impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(test), allow(dead_code))]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which are unbounded).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by an untraced run (`--trace 0`), on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("answer_p50_ms", "ms", Lower, 0.25),
    e2e("signoff_p50_ms", "ms", Lower, 0.25),
    e2e("ir_err_p90_pct", "%", Lower, 0.25),
    e2e("area_ratio", "ratio", Lower, 0.1),
    e2e("peak_heap_mb", "MiB", Lower, 0.1),
];

/// Dense layers of the paper's width MLP (10 hidden + output).
pub const NN_LAYERS: usize = 11;

/// Printed by a traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[Metric] = &[
    // DL path: one ECO answer through `predict`, replayed as phases.
    layer("predict.total_ms", "ms", Lower),
    layer("predict.apply_ms", "ms", Lower),
    layer("predict.features_ms", "ms", Lower),
    layer("nn.forward_ms", "ms", Lower),
    layer("nn.layer00_ms", "ms", Lower),
    layer("nn.layer01_ms", "ms", Lower),
    layer("nn.layer02_ms", "ms", Lower),
    layer("nn.layer03_ms", "ms", Lower),
    layer("nn.layer04_ms", "ms", Lower),
    layer("nn.layer05_ms", "ms", Lower),
    layer("nn.layer06_ms", "ms", Lower),
    layer("nn.layer07_ms", "ms", Lower),
    layer("nn.layer08_ms", "ms", Lower),
    layer("nn.layer09_ms", "ms", Lower),
    layer("nn.layer10_ms", "ms", Lower),
    layer("nn.gemm_fmas", "count", Lower),
    layer("kirchhoff.coarse_ms", "ms", Lower),
    layer("kirchhoff.sweeps_ms", "ms", Lower),
    layer("kirchhoff.cg_iters", "count", Lower),
    layer("predict.unattributed_ms", "ms", Lower),
    // Conventional path: one sign-off, replayed as phases.
    layer("signoff.total_ms", "ms", Lower),
    layer("mna.resize_ms", "ms", Lower),
    layer("mna.merge_ms", "ms", Lower),
    layer("mna.solve_ms", "ms", Lower),
    layer("mna.cg_iters", "count", Lower),
    layer("solver.spmv_calls", "count", Lower),
    layer("mna.em_ms", "ms", Lower),
    layer("signoff.unattributed_ms", "ms", Lower),
    // Service: protocol lines through a registry session.
    layer("proto.parse_us", "us", Lower),
    layer("proto.render_us", "us", Lower),
    layer("service.batch_ms", "ms", Lower),
    layer("service.busy_frac", "ratio", Higher),
    layer("service.outside_batch_ms", "ms", Lower),
    layer("service.batch_size", "count", Higher),
    layer("service.cache_hit_ratio", "ratio", Higher),
    // Synthesis.
    layer("synth.oracle_calls", "count", Lower),
    layer("synth.full_solves", "count", Lower),
    layer("synth.oracle_ms", "ms", Lower),
    layer("synth.accept_ratio", "ratio", Higher),
    // Set-up.
    layer("setup.source_s", "s", Lower),
    layer("setup.size_s", "s", Lower),
    layer("setup.train_s", "s", Lower),
    layer("setup.base_s", "s", Lower),
    // Tracing itself.
    layer("trace.answer_p50_ms", "ms", Lower),
    layer("trace.answer_tail_ms", "ms", Lower),
    layer("trace.answers_per_s", "1/s", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// The metrics a run in this mode must print.
pub fn declared(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The name of the `i`-th dense layer's forward-time metric.
pub fn nn_layer_metric(i: usize) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| n.starts_with("nn.layer"))
        .nth(i)
        .expect("NN_LAYERS layer metrics are declared")
}

/// What one run measured: metrics by name, operations attempted and
/// failed, and why each failure happened.
#[derive(Debug)]
pub struct Report {
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Self {
            trace,
            metrics: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    pub fn trace(&self) -> bool {
        self.trace
    }

    /// Records a metric. Metrics the current mode does not print are
    /// ignored, so workloads set both kinds unconditionally.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if declared(self.trace).iter().any(|m| m.name == name) {
            self.metrics.insert(name, value);
        }
    }

    /// Counts one attempted operation and, when it failed, the failure.
    pub fn check<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        outcome: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one attempted operation that passed when `ok`.
    pub fn expect(&mut self, what: &str, ok: bool) {
        let _ = self.check(what, if ok { Ok(()) } else { Err("check failed") });
    }

    /// Records a failure that was already counted as attempted, or
    /// one that stopped the workload.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Missing or non-finite declared metrics: each one is a failure.
    fn incomplete(&self) -> Vec<&'static str> {
        declared(self.trace)
            .iter()
            .filter(|m| !self.metrics.get(m.name).is_some_and(|v| v.is_finite()))
            .map(|m| m.name)
            .collect()
    }

    /// Seals the report: every missing metric becomes a failure.
    /// Returns whether the run is correct.
    pub fn seal(&mut self) -> bool {
        for name in self.incomplete() {
            self.fail(format!("metric {name} was not measured"));
        }
        self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json_line(&self, correct: bool) -> String {
        let mut metrics = String::new();
        for m in declared(self.trace) {
            if let Some(v) = self.metrics.get(m.name).filter(|v| v.is_finite()) {
                if !metrics.is_empty() {
                    metrics.push(',');
                }
                let _ = write!(
                    metrics,
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name, v, m.unit
                );
            }
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed(),
            metrics
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;
    use ppdl_service::Json;

    fn all() -> impl Iterator<Item = &'static Metric> {
        END_TO_END.iter().chain(PER_LAYER)
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in all() {
            assert!(valid_metric_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                (1..=16).contains(&m.unit.len()) && m.unit.chars().all(unit_ok),
                "bad unit {}",
                m.unit
            );
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"
            && m.unit == "s"
            && m.better == Lower
            && m.bound == END_TO_END.iter().filter_map(|m| m.bound).reduce(f64::max)));
        for i in 0..NN_LAYERS {
            assert_eq!(nn_layer_metric(i), format!("nn.layer{i:02}_ms"));
        }
    }

    /// `BENCHMARK.json` declares exactly this ledger.
    #[test]
    fn benchmark_json_matches_the_ledger() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, ledger) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(listed.len(), ledger.len(), "{key} length");
            for (entry, m) in listed.iter().zip(ledger) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str);
                assert_eq!(field("name"), Some(m.name), "{key} order");
                assert_eq!(field("unit"), Some(m.unit), "{} unit", m.name);
                assert_eq!(field("better"), Some(m.better.tag()), "{} better", m.name);
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{} bound",
                    m.name
                );
            }
        }
    }

    /// `LEDGER.md` documents every metric.
    #[test]
    fn ledger_doc_names_every_metric() {
        let doc = include_str!("../LEDGER.md");
        for m in all() {
            assert!(
                doc.contains(&format!("`{}`", m.name)),
                "LEDGER.md lacks {}",
                m.name
            );
        }
    }

    #[test]
    fn report_line_carries_every_metric_with_its_unit() {
        let mut r = Report::new(false);
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        r.set("nn.forward_ms", 9.0); // not printed in this mode
        r.expect("op", true);
        assert!(r.seal());
        let line = r.json_line(true);
        let json = Json::parse(&line).expect("valid JSON");
        let metrics = json.get("metrics").expect("metrics");
        for m in END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        assert!(metrics.get("nn.forward_ms").is_none());
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn missing_metrics_and_failures_make_a_run_incorrect() {
        let mut r = Report::new(true);
        r.expect("op", true);
        assert!(!r.seal(), "no per-layer metric was set");
        let mut r = Report::new(false);
        for m in END_TO_END {
            r.set(m.name, 1.0);
        }
        r.set("setup_s", f64::NAN);
        r.expect("op", true);
        assert!(!r.seal());
        let mut r = Report::new(false);
        for m in END_TO_END {
            r.set(m.name, 1.0);
        }
        r.expect("signoff converges", false);
        assert!(!r.seal());
        assert_eq!(r.failed(), 1);
    }
}
