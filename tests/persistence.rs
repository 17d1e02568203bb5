//! Persistence integration tests: models and decks written to disk by
//! one "process" must reload bit-exact for another.

use powerplanningdl::netlist::{parse_spice, IbmPgPreset, SyntheticBenchmark};
use powerplanningdl::nn::{Activation, Matrix, MlpBuilder, Network};

#[test]
fn model_file_round_trip() {
    let model = MlpBuilder::new(3)
        .hidden_stack(10, 24, Activation::Relu)
        .output(1)
        .seed(99)
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join("ppdl_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ppdl");
    std::fs::write(&path, model.to_text()).unwrap();

    let loaded = Network::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let x = Matrix::from_fn(16, 3, |r, c| (r as f64 - 8.0) * 0.3 + c as f64);
    assert_eq!(loaded.predict(&x).unwrap(), model.predict(&x).unwrap());
    assert_eq!(loaded.parameter_count(), model.parameter_count());
}

#[test]
fn deck_file_round_trip_preserves_analysis() {
    use powerplanningdl::analysis::StaticAnalysis;
    let bench = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg1, 0.01, 31).unwrap();
    let dir = std::env::temp_dir().join("ppdl_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.spice");
    std::fs::write(&path, bench.network().to_spice()).unwrap();

    let loaded = parse_spice(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(loaded.stats(), bench.network().stats());
    let a = StaticAnalysis::default().solve(bench.network()).unwrap();
    let b = StaticAnalysis::default().solve(&loaded).unwrap();
    assert!((a.worst_drop().unwrap().1 - b.worst_drop().unwrap().1).abs() < 1e-12);
}

/// A committed pre-backend (v1) bundle must keep loading as the MLP it
/// always was, and predict bitwise-identically to the golden widths
/// captured when the fixture was created. Guards the on-disk contract
/// across the layer-graph/backend refactor.
#[test]
fn committed_v1_bundle_loads_as_mlp_and_matches_golden() {
    use powerplanningdl::core::predict::{PredictRequest, TrainedBundle};
    use powerplanningdl::core::{BackendKind, Perturbation, PerturbationKind};

    let bundle = TrainedBundle::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/v1_mlp.bundle"
    ))
    .unwrap();
    assert_eq!(bundle.backend(), BackendKind::Mlp);
    // Re-encoding upgrades the header to the current version and tags
    // the backend, and the upgraded text still round-trips.
    let upgraded = bundle.to_text();
    assert!(upgraded.starts_with("ppdl-bundle v2\nbackend mlp\ninput_spec rows 3\n"));
    // Both legacy `ppdl-mlp v1` model blocks re-encode as `ppdl-net v1`.
    assert_eq!(upgraded.matches("\nppdl-net v1\ninput flat 3\n").count(), 2);
    assert!(!upgraded.contains("ppdl-mlp"));
    let back = TrainedBundle::from_text(&upgraded).unwrap();
    assert_eq!(back.to_text(), upgraded);

    let request = PredictRequest::new("compat")
        .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap());
    let prediction = bundle.predict(&request).unwrap();
    let (golden_widths, golden_worst_ir) = read_golden(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/v1_mlp_golden.txt"
    ));
    assert_eq!(prediction.response.widths, golden_widths);
    assert_eq!(prediction.response.worst_ir_mv, golden_worst_ir);
}

/// Fresh training must reproduce, bit for bit, the widths and worst IR
/// drop recorded when the golden was captured: pins the weight
/// initialisation, the minibatch engine, and the optimizer together.
#[test]
fn fresh_fast_training_matches_golden() {
    use powerplanningdl::core::predict::{PredictRequest, TrainedBundle};
    use powerplanningdl::core::{DlFlowConfig, Perturbation, PerturbationKind};
    use powerplanningdl::netlist::IbmPgPreset;

    let bundle =
        TrainedBundle::train(IbmPgPreset::Ibmpg1, 0.01, 3, DlFlowConfig::fast(), None).unwrap();
    let request = PredictRequest::new("fresh")
        .with_perturbation(Perturbation::new(0.1, PerturbationKind::Both, 5).unwrap());
    let prediction = bundle.predict(&request).unwrap();
    let (golden_widths, golden_worst_ir) = read_golden(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/fast_train_golden.txt"
    ));
    assert_eq!(prediction.response.widths, golden_widths);
    assert_eq!(prediction.response.worst_ir_mv, golden_worst_ir);
}

/// Parses a golden file: one width per line, then `worst_ir_mv <v>`.
fn read_golden(path: &str) -> (Vec<f64>, f64) {
    let golden = std::fs::read_to_string(path).unwrap();
    let mut golden_widths = Vec::new();
    let mut golden_worst_ir = None;
    for line in golden.lines() {
        if let Some(v) = line.strip_prefix("worst_ir_mv ") {
            golden_worst_ir = Some(v.parse::<f64>().unwrap());
        } else {
            golden_widths.push(line.parse::<f64>().unwrap());
        }
    }
    (golden_widths, golden_worst_ir.unwrap())
}

#[test]
fn corrupted_model_file_fails_loudly() {
    let model = MlpBuilder::new(2).output(1).build().unwrap();
    let text = model.to_text();
    // Flip the header version.
    let bad = text.replace("ppdl-net v1", "ppdl-net v9");
    assert!(Network::from_text(&bad).is_err());
    // Truncate mid-file.
    let truncated = &text[..text.len() / 2];
    assert!(Network::from_text(truncated).is_err());
}
