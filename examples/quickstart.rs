//! Quickstart: the full PowerPlanningDL flow on an ibmpg2-style
//! benchmark, end to end.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The flow mirrors Fig. 2 / Fig. 6 of the paper:
//! 1. generate a synthetic IBM-PG-style grid and calibrate its loads
//!    to the published worst-case IR drop;
//! 2. run the conventional iterative sizing once to obtain the golden
//!    widths;
//! 3. train the width-prediction MLP on `(X, Y, Id) → w` quadruples;
//! 4. perturb the design by 10 % (the paper's test-set recipe) and let
//!    the model predict the widths and the IR drop of the new design,
//!    timing both approaches.

use powerplanningdl::core::pipeline::BenchmarkSourceStage;
use powerplanningdl::core::{experiment, DlFlowConfig, PowerPlanningDl};
use powerplanningdl::netlist::IbmPgPreset;

fn main() {
    // Scale 0.01 keeps this example under a few seconds; raise it (up
    // to 1.0 = the published benchmark size) for a realistic run.
    let scale = 0.01;
    let source = BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, scale, 7);
    let (outcome, _stages) = PowerPlanningDl::new(DlFlowConfig::default())
        .run(source, None)
        .expect("flow");

    let stats = outcome.sized_bench.network().stats();
    println!(
        "generated {}-style grid: {} nodes, {} resistors, {} sources, {} loads",
        IbmPgPreset::Ibmpg2,
        stats.nodes,
        stats.resistors,
        stats.sources,
        stats.loads
    );
    println!(
        "\nconventional sizing: {} design iterations to meet a {:.1} mV margin",
        outcome.conventional_iterations,
        experiment::target_worst_ir(IbmPgPreset::Ibmpg2) * 1e3
    );
    println!(
        "width prediction:    r2 = {:.3}, MSE = {:.4}, correlation = {:.3}",
        outcome.width_metrics.r2,
        outcome.width_metrics.mse_scaled,
        outcome.width_metrics.correlation
    );
    println!(
        "worst-case IR drop:  conventional {:.1} mV vs PowerPlanningDL {:.1} mV",
        outcome.conventional_worst_ir_mv, outcome.predicted_worst_ir_mv
    );
    println!(
        "convergence time:    conventional {:.2} ms vs PowerPlanningDL {:.2} ms ({:.2}x speedup)",
        outcome.timing.conventional.as_secs_f64() * 1e3,
        outcome.timing.dl.as_secs_f64() * 1e3,
        outcome.timing.speedup
    );
}
