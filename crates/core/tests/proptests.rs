//! Property-based tests for the PowerPlanningDL framework.

use ppdl_analysis::StaticAnalysis;
use ppdl_core::{
    calibrate_to_worst_ir, FeatureExtractor, FeatureSet, IrPredictor, Perturbation,
    PerturbationKind,
};
use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
use proptest::prelude::*;

fn bench(seed: u64) -> SyntheticBenchmark {
    SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.003, seed).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Calibration hits any positive target exactly (linearity of the
    /// resistive grid).
    #[test]
    fn calibration_is_exact(target_mv in 1.0_f64..100.0, seed in 0u64..20) {
        let mut b = bench(seed);
        let target = target_mv / 1e3;
        calibrate_to_worst_ir(&mut b, target).unwrap();
        let worst = StaticAnalysis::default()
            .solve(b.network())
            .unwrap()
            .worst_drop()
            .unwrap()
            .1;
        // Tolerance: calibration stops within `calibration_tolerance`
        // (1e-4 relative) of the target, and this solve stops at a
        // voltage-space relative residual of 1e-9 (its worst drop within
        // about 2e-6 relative of an exact factor), so the looser 1e-3
        // bound checks the loop, not the solver's last digits.
        prop_assert!(
            (worst - target).abs() < 1e-3 * target + 1e-6,
            "worst {worst} vs target {target}"
        );
    }

    /// Perturbation factors are exactly 1 ± gamma and the perturbation
    /// never mutates its input.
    #[test]
    fn perturbation_moves_by_exactly_gamma(gamma in 0.01_f64..0.9, seed in 0u64..50) {
        let b = bench(3);
        let before: Vec<f64> = b.network().current_loads().iter().map(|l| l.amps).collect();
        let out = Perturbation::new(gamma, PerturbationKind::CurrentWorkloads, seed)
            .unwrap()
            .apply(&b)
            .unwrap();
        for (new, old) in out.network().current_loads().iter().zip(&before) {
            let f = new.amps / old;
            let dev = (f - (1.0 + gamma)).abs().min((f - (1.0 - gamma)).abs());
            prop_assert!(dev < 1e-12, "factor {f} not 1 +/- {gamma}");
        }
        let after: Vec<f64> = b.network().current_loads().iter().map(|l| l.amps).collect();
        prop_assert_eq!(before, after);
    }

    /// The IR estimate is homogeneous of degree -1 in a uniform width
    /// scaling... not exactly (vias scale too), but it must be strictly
    /// monotone: wider grids never drop more.
    #[test]
    fn ir_estimate_monotone_in_width(factor in 1.1_f64..4.0, seed in 0u64..10) {
        let b = bench(seed);
        let w1 = b.strap_widths();
        let w2: Vec<f64> = w1.iter().map(|w| w * factor).collect();
        let p = IrPredictor::new();
        let e1 = p.predict(&b, &w1).unwrap();
        let e2 = p.predict(&b, &w2).unwrap();
        prop_assert!(e2.worst < e1.worst);
    }

    /// Feature extraction is pure: identical benchmarks give identical
    /// features, and every row matches its segment's midpoint.
    #[test]
    fn features_are_pure_and_positional(seed in 0u64..20) {
        let b = bench(seed);
        let fx = FeatureExtractor::new(FeatureSet::Combined);
        let a = fx.raw_features(&b);
        let c = fx.raw_features(&b);
        prop_assert_eq!(&a, &c);
        for (r, seg) in b.segments().iter().enumerate() {
            prop_assert_eq!(a.get(r, 0), seg.x);
            prop_assert_eq!(a.get(r, 1), seg.y);
            prop_assert!(a.get(r, 2) >= 0.0);
        }
    }

    /// The sampled strap-width prediction converges to the full one.
    #[test]
    fn sampled_prediction_close_to_full(seed in 0u64..6) {
        use ppdl_core::pipeline::{run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx};
        use ppdl_core::{DlFlowConfig, PredictorConfig, WidthPredictor};
        let mut ctx = PipelineCtx::new(DlFlowConfig::default(), None);
        run_stage(&BenchmarkSourceStage::preset(IbmPgPreset::Ibmpg2, 0.004, seed), &mut ctx).unwrap();
        run_stage(&FeatureExtractStage, &mut ctx).unwrap();
        let sizing = ctx.sizing().unwrap();
        let (sized, golden) = (&sizing.sized, &sizing.golden_widths);
        let (p, _) = WidthPredictor::train(sized, golden, PredictorConfig::fast()).unwrap();
        let full = p.predict_strap_widths(sized).unwrap();
        let sampled = p.predict_strap_widths_sampled(sized, 4).unwrap();
        for (f, s) in full.iter().zip(&sampled) {
            prop_assert!((f - s).abs() < 0.25 * f.max(0.1), "{f} vs {s}");
        }
    }
}
