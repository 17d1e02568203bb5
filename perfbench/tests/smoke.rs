//! Toy-size runs of every workload through the real command line: each
//! must pass its checks and print every declared metric, finite and
//! with its declared unit.

use std::process::Command;

use ppdl_service::Json;

fn declared(trace: bool) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let key = if trace { "per_layer" } else { "end_to_end" };
    json.get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one toy workload and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_ppdl-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.5",
            "--trace",
            if trace { "1" } else { "0" },
            "--toy",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

fn check_result(workload: &str, trace: bool) {
    let result = run(workload, 1, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64) >= Some(1),
        "{workload}"
    );
    let metrics = result.get("metrics").expect("metrics");
    let declared = declared(trace);
    let Json::Obj(printed) = metrics else {
        panic!("{workload}: metrics is not an object");
    };
    assert_eq!(
        printed.len(),
        declared.len(),
        "{workload} trace={trace}: metric count"
    );
    for (name, unit) in declared {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let value = m.get("value").and_then(Json::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload}: {name}"
        );
    }
}

#[test]
fn serve_prints_every_metric() {
    check_result("serve", false);
    check_result("serve", true);
}

#[test]
fn table4_flipchip_prints_every_metric() {
    check_result("table4_flipchip", false);
    check_result("table4_flipchip", true);
}

#[test]
fn table4_wirebond_prints_every_metric() {
    check_result("table4_wirebond", false);
    check_result("table4_wirebond", true);
}

#[test]
fn synth_prints_every_metric() {
    check_result("synth", false);
    check_result("synth", true);
}

/// Accuracy and area depend only on the seed, never on timing.
#[test]
fn quality_metrics_repeat_exactly_for_a_seed() {
    for workload in ["table4_wirebond", "synth"] {
        let (a, b) = (run(workload, 7, false), run(workload, 7, false));
        for name in ["ir_err_p90_pct", "area_ratio"] {
            let value = |r: &Json| {
                r.get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .map(f64::to_bits)
            };
            assert_eq!(value(&a), value(&b), "{workload}: {name}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ppdl-perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
