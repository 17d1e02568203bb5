//! Power planning for a hand-built SoC floorplan — the workload the
//! paper's introduction motivates: a designer places functional blocks
//! with known switching currents and needs an initial power grid that
//! meets the IR-drop and EM margins.
//!
//! Run with: `cargo run --release --example soc_power_planning`

use powerplanningdl::analysis::{EmChecker, IrDropMap, StaticAnalysis};
use powerplanningdl::core::{
    ConventionalConfig, ConventionalFlow, PredictorConfig, WidthPredictor,
};
use powerplanningdl::floorplan::{Floorplan, FunctionalBlock, PowerNet, PowerPad};
use powerplanningdl::netlist::{GridSpec, SyntheticBenchmark};

fn main() {
    // --- 1. The floorplan: a small SoC with CPU, GPU, caches, IO ----
    let die = 800.0; // µm
    let mut fp = Floorplan::new(die, die).expect("die");
    let blocks = [
        // name, x, y, w, h, switching current (A)
        ("cpu0", 40.0, 40.0, 280.0, 280.0, 0.45),
        ("cpu1", 40.0, 360.0, 280.0, 280.0, 0.42),
        ("gpu", 360.0, 40.0, 400.0, 300.0, 0.80),
        ("l2cache", 360.0, 380.0, 200.0, 180.0, 0.22),
        ("ddrphy", 580.0, 380.0, 180.0, 180.0, 0.30),
        ("io_ring", 360.0, 590.0, 400.0, 170.0, 0.15),
        ("pll", 40.0, 660.0, 120.0, 100.0, 0.05),
    ];
    for (name, x, y, w, h, id) in blocks {
        fp.add_block(FunctionalBlock::new(name, x, y, w, h, id).expect("block"))
            .expect("placement");
    }
    for i in 0..12 {
        let t = i as f64 / 12.0;
        let (x, y) = if t < 0.5 {
            (die * t * 2.0, 0.0)
        } else {
            (die * (t - 0.5) * 2.0, die)
        };
        fp.add_pad(PowerPad::new(format!("vdd{i}"), x, y, PowerNet::Vdd))
            .expect("pad");
    }
    println!(
        "floorplan: {} blocks drawing {:.2} A total, utilization {:.0}%",
        fp.blocks().len(),
        fp.total_switching_current(),
        100.0 * fp.utilization()
    );

    // --- 2. Draw the initial grid over it ---------------------------
    let spec = GridSpec {
        die_width: die,
        die_height: die,
        v_straps: 16,
        h_straps: 16,
        ..GridSpec::default()
    };
    let bench = SyntheticBenchmark::generate("soc", spec, fp).expect("grid");

    // --- 3. Conventional sizing: meet 5% IR margin and EM ------------
    let config = ConventionalConfig {
        ir_margin_fraction: 0.05,
        jmax: 0.05,
        ..ConventionalConfig::default()
    };
    let (sized, result) = ConventionalFlow::new(config.clone())
        .run(&bench)
        .expect("sizing");
    println!(
        "\nconventional flow: {} iterations, worst IR drop {:.1} mV (margin {:.1} mV)",
        result.iterations,
        result.worst_ir * 1e3,
        config.ir_margin_fraction * 1.8e3,
    );
    let total_metal: f64 = result.widths.iter().sum();
    println!(
        "strap widths: {:.2}..{:.2} µm ({:.1} µm of metal across the die)",
        result.widths.iter().cloned().fold(f64::INFINITY, f64::min),
        result.widths.iter().cloned().fold(0.0_f64, f64::max),
        total_metal
    );

    // EM sign-off on the sized grid.
    let em = EmChecker::new(config.jmax)
        .check(&sized, &result.report)
        .expect("EM check");
    println!(
        "EM check: max current density {:.4} A/µm against J_max {:.3} -> {}",
        em.max_density(),
        em.jmax(),
        if em.passes() { "PASS" } else { "FAIL" }
    );

    // --- 4. Train the DL model on this design ------------------------
    let (predictor, _) = WidthPredictor::train(&sized, &result.widths, PredictorConfig::default())
        .expect("training");
    let metrics = predictor.evaluate(&sized, &result.widths).expect("eval");
    println!(
        "\nDL width model: r2 = {:.3} on {} interconnects",
        metrics.r2,
        sized.segments().len()
    );

    // --- 5. Inspect the IR-drop map (ASCII rendering of Fig. 8) ------
    let map = IrDropMap::from_report(sized.network(), &result.report, 16).expect("map");
    println!(
        "\nIR-drop map ({}x{} cells, {:.1}..{:.1} mV):",
        map.resolution(),
        map.resolution(),
        map.min_mv(),
        map.max_mv()
    );
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for y in (0..map.resolution()).rev() {
        let mut line = String::new();
        for x in 0..map.resolution() {
            let norm = (map.get_mv(x, y) - map.min_mv()) / (map.max_mv() - map.min_mv()).max(1e-9);
            let idx = ((norm * (shades.len() - 1) as f64).round() as usize).min(shades.len() - 1);
            line.push(shades[idx]);
            line.push(shades[idx]);
        }
        println!("  {line}");
    }
    println!("  (darker = deeper IR drop; supply pads sit on the die edge)");

    // --- 6. Render the sized floorplan as SVG (Fig. 4(a)) ------------
    use powerplanningdl::floorplan::SvgOptions;
    use powerplanningdl::netlist::Orientation;
    let svg = sized.floorplan().to_svg(
        sized.strap_plan(Orientation::Vertical).ok().as_ref(),
        sized.strap_plan(Orientation::Horizontal).ok().as_ref(),
        &SvgOptions::default(),
    );
    let out = std::env::temp_dir().join("ppdl_soc_floorplan.svg");
    std::fs::write(&out, svg).expect("write svg");
    println!(
        "\nwrote the sized floorplan (blocks + grid straps) to {}",
        out.display()
    );
    println!("total grid metal area: {:.0} µm²", sized.total_metal_area());

    // Sanity: the analysis engine agrees with itself on a re-solve.
    let recheck = StaticAnalysis::default()
        .solve(sized.network())
        .expect("re-solve");
    assert!(
        (recheck.worst_drop().unwrap().1 - result.worst_ir).abs() < 1e-9,
        "deterministic re-solve"
    );
}
