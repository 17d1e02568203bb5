//! Incremental power-grid redesign — the use case the paper's
//! conclusions recommend PowerPlanningDL for: "the incremental-based
//! power grid designs, where we need to generate the power grid for
//! little changes (or perturbations) in the design".
//!
//! A model is trained once on a signed-off design; then a sequence of
//! ECO-style workload changes arrives and the model re-generates the
//! grid for each in milliseconds, with the conventional flow run only
//! as a reference.
//!
//! Run with: `cargo run --release --example incremental_redesign`

use std::time::Instant;

use powerplanningdl::core::pipeline::BenchmarkSourceStage;
use powerplanningdl::core::{
    experiment, ConventionalConfig, ConventionalFlow, DlFlowConfig, IrPredictor, Perturbation,
    PerturbationKind, PowerPlanningDl,
};
use powerplanningdl::netlist::IbmPgPreset;

fn main() {
    let preset = IbmPgPreset::Ibmpg2;
    // One-time investment: sign off the base design, train the model.
    let t_train = Instant::now();
    let (base, _) = PowerPlanningDl::new(DlFlowConfig::default())
        .run(BenchmarkSourceStage::preset(preset, 0.01, 11), None)
        .expect("base flow");
    let (signed_off, predictor) = (&base.sized_bench, &base.predictor);
    println!(
        "signed off and trained on the base design ({} interconnects) in {:.2} s",
        signed_off.segments().len(),
        t_train.elapsed().as_secs_f64()
    );
    // The conventional reference re-sizes each revision to the same
    // Table III margin the base design was signed off at.
    let vdd = signed_off.network().supply_voltage().expect("supply");
    let conventional = ConventionalFlow::new(ConventionalConfig {
        ir_margin_fraction: experiment::target_worst_ir(preset) / vdd,
        ..ConventionalConfig::default()
    });

    // A stream of ECO revisions: growing workload perturbations.
    println!(
        "\n gamma | DL widths+IR (ms) | conventional (ms) | speedup | DL worst IR | conv worst IR"
    );
    println!(
        " ------+-------------------+-------------------+---------+-------------+--------------"
    );
    for (i, gamma) in [0.05, 0.10, 0.15, 0.20].into_iter().enumerate() {
        let eco = Perturbation::new(gamma, PerturbationKind::CurrentWorkloads, 100 + i as u64)
            .expect("gamma")
            .apply(signed_off)
            .expect("perturb");

        // PowerPlanningDL path: predict widths, predict IR drop.
        let t_dl = Instant::now();
        let widths = predictor
            .predict_strap_widths_sampled(&eco, 4)
            .expect("widths");
        let ir = IrPredictor::new().predict(&eco, &widths).expect("ir");
        let dl_ms = t_dl.elapsed().as_secs_f64() * 1e3;

        // Conventional reference: full re-sizing of the revision.
        let t_conv = Instant::now();
        let (_, conv) = conventional.run(&eco).expect("conventional re-sizing");
        let conv_ms = t_conv.elapsed().as_secs_f64() * 1e3;

        println!(
            " {:4.0}% | {dl_ms:17.2} | {conv_ms:17.2} | {:6.1}x | {:8.1} mV | {:9.1} mV",
            gamma * 100.0,
            conv_ms / dl_ms,
            ir.worst_mv(),
            conv.worst_ir * 1e3,
        );
    }
    println!(
        "\nthe one-time training cost is amortised across every revision;\n\
         each redesign costs only inference plus the Kirchhoff IR estimate."
    );
}
