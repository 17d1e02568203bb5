//! End-to-end tests of the `ppdl` command-line tool.

use std::process::Command;

fn ppdl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ppdl"))
        .args(args)
        .output()
        .expect("spawn ppdl")
}

#[test]
fn help_prints_usage() {
    let out = ppdl(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
    // The named --precond default is the one the solves use.
    let default = powerplanningdl::analysis::AnalysisOptions::default()
        .preconditioner
        .name();
    assert!(text.contains(&format!("(default {default};")), "{text}");
}

#[test]
fn removed_cnn_backend_is_refused() {
    let out_path = std::env::temp_dir().join(format!("ppdl_cli_cnn_{}.bundle", std::process::id()));
    let out = ppdl(&[
        "train",
        "--preset",
        "ibmpg1",
        "--scale",
        "0.005",
        "--fast",
        "--backend",
        "cnn",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cnn") && err.contains("mlp|encdec"), "{err}");
    assert!(!out_path.exists(), "a refused backend must write nothing");
}

#[test]
fn unknown_subcommand_fails() {
    let out = ppdl(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn generate_then_analyze_round_trip() {
    let dir = std::env::temp_dir().join("ppdl_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let deck = dir.join("grid.spice");
    let svg = dir.join("fp.svg");
    let map = dir.join("map.csv");

    let out = ppdl(&[
        "generate",
        "--preset",
        "ibmpg1",
        "--scale",
        "0.005",
        "--seed",
        "3",
        "--out",
        deck.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(deck.exists());
    assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));

    let out = ppdl(&[
        "analyze",
        deck.to_str().unwrap(),
        "--map",
        map.to_str().unwrap(),
        "--resolution",
        "8",
    ]);
    assert!(
        out.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("worst-case IR drop"));
    let csv = std::fs::read_to_string(&map).unwrap();
    assert_eq!(csv.lines().count(), 8);

    // Every `--precond` spelling solves the same deck to the same drop.
    let default_mv = worst_drop_mv(&text);
    for kind in [
        "none",
        "jacobi",
        "block-jacobi",
        "ic0",
        "amg",
        "direct",
        "direct-cholesky",
    ] {
        let out = ppdl(&["analyze", deck.to_str().unwrap(), "--precond", kind]);
        assert!(
            out.status.success(),
            "analyze --precond {kind} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let mv = worst_drop_mv(&String::from_utf8_lossy(&out.stdout));
        assert!(
            (mv - default_mv).abs() <= 1e-3,
            "--precond {kind}: {mv} mV vs default {default_mv} mV"
        );
    }
    let out = ppdl(&["analyze", deck.to_str().unwrap(), "--precond", "ilu"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    for spelling in [
        "ilu",
        "none",
        "jacobi",
        "block-jacobi",
        "ic0",
        "multilevel",
        "direct",
    ] {
        assert!(err.contains(spelling), "missing {spelling:?} in: {err}");
    }
}

/// The millivolt figure of `analyze`'s `worst-case IR drop` line.
fn worst_drop_mv(stdout: &str) -> f64 {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("worst-case IR drop: "))
        .unwrap_or_else(|| panic!("no worst-case IR drop line in: {stdout}"));
    line.split_whitespace().next().unwrap().parse().unwrap()
}

#[test]
fn analyze_rejects_missing_file() {
    let out = ppdl(&["analyze", "/nonexistent/deck.spice"]);
    assert!(!out.status.success());
}

#[test]
fn flow_fast_runs_and_saves_model() {
    let dir = std::env::temp_dir().join("ppdl_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("model.ppdl");
    let out = ppdl(&[
        "flow",
        "--preset",
        "ibmpg2",
        "--scale",
        "0.004",
        "--fast",
        "--model",
        model.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "flow failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("width model"));
    assert!(text.contains("predicted IR"));
    // The saved model reloads.
    let loaded =
        powerplanningdl::core::WidthPredictor::from_text(&std::fs::read_to_string(&model).unwrap());
    assert!(loaded.is_ok());
}

#[test]
fn generate_requires_preset_and_out() {
    assert!(!ppdl(&["generate", "--out", "/tmp/x.spice"])
        .status
        .success());
    assert!(!ppdl(&["generate", "--preset", "ibmpg1"]).status.success());
    assert!(!ppdl(&["generate", "--preset", "bogus", "--out", "/tmp/x"])
        .status
        .success());
}
