//! Golden tests for the batched prediction service: the spawned
//! `ppdl serve` process and the in-process pipeline Predict stage must
//! answer the same query with bitwise-identical widths and IR — both
//! are thin adapters over `ppdl_core::predict::predict`, and every
//! float crosses the wire in shortest-round-trip form.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::OnceLock;

use powerplanningdl::core::pipeline::{
    run_stage, BenchmarkSourceStage, FeatureExtractStage, PipelineCtx, PredictStage, TrainStage,
};
use powerplanningdl::core::{DlFlowConfig, TrainedBundle};
use powerplanningdl::netlist::IbmPgPreset;
use powerplanningdl::service::Json;

const PRESET: IbmPgPreset = IbmPgPreset::Ibmpg1;
const SCALE: f64 = 0.01;
const SEED: u64 = 3;

/// One fast training run shared by every test in this binary.
fn bundle() -> &'static TrainedBundle {
    static BUNDLE: OnceLock<TrainedBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        TrainedBundle::train(PRESET, SCALE, SEED, DlFlowConfig::fast(), None).expect("train")
    })
}

fn saved_bundle(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppdl_service_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bundle");
    bundle().save(&path).expect("save bundle");
    path
}

/// Pipes `input` through a spawned `ppdl serve` and returns its parsed
/// stdout lines (panics on a non-zero exit).
fn serve(tag: &str, input: &str) -> Vec<Json> {
    let path = saved_bundle(tag);
    let mut child = Command::new(env!("CARGO_BIN_EXE_ppdl"))
        .args(["serve", "--bundle", path.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ppdl serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("wait ppdl serve");
    assert!(
        out.status.success(),
        "serve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 replies")
        .lines()
        .map(|l| Json::parse(l).expect("reply line is JSON"))
        .collect()
}

#[test]
fn served_batch_matches_pipeline_predict_stage() {
    // The in-process reference: the same train prefix the bundle ran,
    // then the Predict stage at the config's default perturbation
    // (fast config: gamma 0.10, kind both, seed 1).
    let mut ctx = PipelineCtx::new(DlFlowConfig::fast(), None);
    run_stage(&BenchmarkSourceStage::preset(PRESET, SCALE, SEED), &mut ctx).unwrap();
    run_stage(&FeatureExtractStage, &mut ctx).unwrap();
    run_stage(&TrainStage, &mut ctx).unwrap();
    run_stage(&PredictStage, &mut ctx).unwrap();
    let predicted = ctx.predicted().unwrap();

    let replies = serve(
        "golden",
        "{\"id\":\"golden\",\"gamma\":0.1,\"kind\":\"both\",\"seed\":1}\n{\"cmd\":\"quit\"}\n",
    );
    assert_eq!(replies.len(), 1);
    let reply = &replies[0];
    assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
    let widths: Vec<f64> = reply
        .get("widths")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w.as_f64().unwrap())
        .collect();
    // Bitwise equality: same entry point, deterministic base
    // regeneration, shortest-round-trip floats on the wire.
    assert_eq!(widths, predicted.predicted_widths);
    assert_eq!(
        reply.get("worst_ir_mv").unwrap().as_f64().unwrap(),
        predicted.predicted_ir.worst_mv()
    );
}

#[test]
fn malformed_lines_keep_the_process_alive() {
    let replies = serve(
        "malformed",
        concat!(
            "{\"id\":\"first\",\"gamma\":0.1,\"seed\":2}\n",
            "this is not json\n",
            "{\"id\":\"bad-gamma\",\"gamma\":9.0}\n",
            "{\"no\":\"id\"}\n",
            "{\"id\":\"last\",\"gamma\":0.1,\"seed\":4}\n",
            "{\"cmd\":\"quit\"}\n",
        ),
    );
    // Three error replies arrive as the lines are read; the two valid
    // requests are answered by the quit flush, in order.
    assert_eq!(replies.len(), 5);
    assert_eq!(replies[0].get("status").unwrap().as_str(), Some("error"));
    assert_eq!(
        replies[0].get("code").unwrap().as_str(),
        Some("service/malformed")
    );
    assert_eq!(replies[1].get("id").unwrap().as_str(), Some("bad-gamma"));
    assert_eq!(
        replies[1].get("code").unwrap().as_str(),
        Some("core/invalid_config")
    );
    assert_eq!(
        replies[2].get("code").unwrap().as_str(),
        Some("service/malformed")
    );
    assert_eq!(replies[3].get("id").unwrap().as_str(), Some("first"));
    assert_eq!(replies[3].get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(replies[4].get("id").unwrap().as_str(), Some("last"));
    assert_eq!(replies[4].get("status").unwrap().as_str(), Some("ok"));
}

#[test]
fn answers_a_hundred_request_eco_batch() {
    let mut input = String::new();
    for i in 0..100 {
        let gamma = 0.05 + 0.002 * f64::from(i);
        input.push_str(&format!(
            "{{\"id\":\"eco{i}\",\"gamma\":{gamma},\"seed\":{}}}\n",
            100 + i
        ));
    }
    input.push_str("{\"cmd\":\"stats\"}\n{\"cmd\":\"quit\"}\n");
    let replies = serve("hundred", &input);

    // 100 ok replies in order (flushed by backpressure and quit), plus
    // the stats snapshot interleaved wherever the queue stood.
    let oks: Vec<&Json> = replies
        .iter()
        .filter(|r| r.get("status").unwrap().as_str() == Some("ok"))
        .collect();
    assert_eq!(oks.len(), 100);
    for (i, reply) in oks.iter().enumerate() {
        assert_eq!(
            reply.get("id").unwrap().as_str(),
            Some(format!("eco{i}").as_str())
        );
        assert!(reply.get("worst_ir_mv").unwrap().as_f64().unwrap() > 0.0);
        assert!(!reply.get("widths").unwrap().as_array().unwrap().is_empty());
    }
    let stats = replies
        .iter()
        .find(|r| r.get("status").unwrap().as_str() == Some("stats"))
        .expect("stats line");
    assert_eq!(stats.get("preset").unwrap().as_str(), Some("ibmpg1"));
}
