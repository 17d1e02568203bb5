//! End-to-end integration tests: the full PowerPlanningDL flow across
//! the crate stack, exercised through the umbrella crate's public API.

use powerplanningdl::core::pipeline::BenchmarkSourceStage;
use powerplanningdl::core::{DlFlowConfig, DlOutcome, PowerPlanningDl};
use powerplanningdl::netlist::IbmPgPreset;

fn run(preset: IbmPgPreset, scale: f64, seed: u64) -> DlOutcome {
    PowerPlanningDl::new(DlFlowConfig::fast())
        .run(BenchmarkSourceStage::preset(preset, scale, seed), None)
        .expect("flow")
        .0
}

#[test]
fn perimeter_benchmark_full_flow() {
    let o = run(IbmPgPreset::Ibmpg2, 0.006, 3);
    assert!(o.width_metrics.r2 > 0.6, "r2 = {}", o.width_metrics.r2);
    assert!(o.conventional_iterations > 1);
    // Predicted IR tracks the conventional analysis.
    let rel =
        (o.predicted_worst_ir_mv - o.conventional_worst_ir_mv).abs() / o.conventional_worst_ir_mv;
    assert!(
        rel < 0.25,
        "IR mismatch: {} vs {} mV",
        o.predicted_worst_ir_mv,
        o.conventional_worst_ir_mv
    );
}

#[test]
fn flipchip_benchmark_full_flow() {
    let o = run(IbmPgPreset::Ibmpg5, 0.002, 5);
    assert!(o.conventional_worst_ir_mv > 0.0);
    assert!(o.predicted_worst_ir_mv > 0.0);
    // Flip-chip grids have spiky widths; the estimate stays in the
    // right ballpark.
    let ratio = o.predicted_worst_ir_mv / o.conventional_worst_ir_mv;
    assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn flow_is_deterministic_given_seeds() {
    let a = run(IbmPgPreset::Ibmpg1, 0.008, 9);
    let b = run(IbmPgPreset::Ibmpg1, 0.008, 9);
    assert_eq!(a.golden_widths, b.golden_widths);
    assert_eq!(a.predicted_widths, b.predicted_widths);
    assert_eq!(a.conventional_worst_ir_mv, b.conventional_worst_ir_mv);
    assert_eq!(a.predicted_worst_ir_mv, b.predicted_worst_ir_mv);
}

#[test]
fn different_seeds_change_the_design() {
    let a = run(IbmPgPreset::Ibmpg1, 0.008, 1);
    let b = run(IbmPgPreset::Ibmpg1, 0.008, 2);
    assert_ne!(a.golden_widths, b.golden_widths);
}

#[test]
fn calibration_reproduces_table3_targets() {
    use powerplanningdl::analysis::StaticAnalysis;
    // After conventional sizing at the Table III margin, the worst-case
    // drop lands at (just under) the published value.
    for preset in [IbmPgPreset::Ibmpg2, IbmPgPreset::Ibmpg4] {
        let o = run(preset, 0.006, 7);
        let target_mv = preset.table3_worst_ir_mv().unwrap();
        let report = StaticAnalysis::default()
            .solve(o.sized_bench.network())
            .expect("solve");
        let worst_mv = report.worst_drop().unwrap().1 * 1e3;
        assert!(
            worst_mv <= target_mv + 1e-6,
            "{preset}: {worst_mv} > {target_mv}"
        );
        assert!(
            worst_mv > 0.4 * target_mv,
            "{preset}: sized drop {worst_mv} too far below target {target_mv}"
        );
    }
}

#[test]
fn widths_sized_up_only_where_needed() {
    let o = run(IbmPgPreset::Ibmpg2, 0.008, 3);
    let initial = 1.2_f64.max(1.0);
    let max = o.golden_widths.iter().cloned().fold(0.0_f64, f64::max);
    let min = o
        .golden_widths
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    assert!(max > initial, "sizing must widen something");
    assert!(
        max / min > 1.1,
        "width variation expected, got {min}..{max}"
    );
}
