//! Thread-count determinism: `PPDL_THREADS=1` and `PPDL_THREADS=4`
//! must produce bitwise-identical results everywhere.
//!
//! The parallel layer promises that work decomposition depends only on
//! problem size and that reductions fold fixed chunks in a fixed order
//! (see `ppdl_solver::parallel`). These tests pin the promise end to
//! end on the ibmpg2 preset: the static IR-drop solve and a full
//! training run must not change by a single bit when the thread count
//! changes. The tests drive the thread count through
//! `ppdl_solver::set_threads`, the in-process equivalent of the
//! `PPDL_THREADS` environment variable.

use ppdl_analysis::StaticAnalysis;
use ppdl_core::{
    FeatureExtractor, IrPredictor, Perturbation, PerturbationKind, PredictedIr, PredictorConfig,
    WidthPredictor,
};
use ppdl_netlist::{IbmPgPreset, SyntheticBenchmark};
use ppdl_nn::{Activation, Adam, Layer, Loss, Matrix, MlpBuilder, Network};
use ppdl_solver::parallel::DEFAULT_PAR_THRESHOLD;
use ppdl_solver::{set_par_threshold, set_threads};

fn ibmpg2() -> SyntheticBenchmark {
    SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.01, 3).unwrap()
}

/// Runs `f` under `threads` threads with a tiny parallel threshold so
/// even this test-sized grid takes the chunked code paths, restoring
/// the global defaults afterwards.
fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    set_threads(threads);
    set_par_threshold(64);
    let out = f();
    set_threads(0);
    set_par_threshold(DEFAULT_PAR_THRESHOLD);
    out
}

#[test]
fn static_solve_is_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    let solve = |threads: usize| {
        with_threads(threads, || {
            StaticAnalysis::default().solve(bench.network()).unwrap()
        })
    };
    let one = solve(1);
    let four = solve(4);
    assert_eq!(one.voltages().len(), four.voltages().len());
    for (a, b) in one.voltages().iter().zip(four.voltages()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "node voltage differs between 1 and 4 threads: {a} vs {b}"
        );
    }
    assert_eq!(one.iterations(), four.iterations());
}

#[test]
fn training_on_ibmpg2_features_is_bitwise_stable() {
    // One sample per wire segment of the ibmpg2 grid, exactly as the
    // width predictor sees it; a synthetic smooth target stands in for
    // the golden widths so the test needs no conventional sizing run.
    let bench = ibmpg2();
    let x = FeatureExtractor::default().raw_features(&bench);
    assert!(
        x.rows() >= 512,
        "need enough segments to engage the chunked minibatch path, got {}",
        x.rows()
    );
    let y = Matrix::from_fn(x.rows(), 1, |r, _| {
        let f = x.row(r);
        0.3 * f[0] - 0.2 * f[1] + 5.0 * f[2]
    });

    let train = |threads: usize| -> (Vec<f64>, Network) {
        with_threads(threads, || {
            let mut model = MlpBuilder::new(x.cols())
                .hidden_stack(3, 16, Activation::Relu)
                .output(1)
                .seed(42)
                .build()
                .unwrap();
            let mut opt = Adam::new(1e-3).unwrap();
            let mut losses = Vec::new();
            for _ in 0..5 {
                losses.push(model.train_batch(&x, &y, Loss::Mse, &mut opt).unwrap());
            }
            (losses, model)
        })
    };

    let (loss_one, model_one) = train(1);
    let (loss_four, model_four) = train(4);
    assert_eq!(
        loss_one, loss_four,
        "loss trajectories must be bitwise identical"
    );
    for (la, lb) in model_one.layers().iter().zip(model_four.layers()) {
        let (Layer::Dense(la), Layer::Dense(lb)) = (la, lb) else {
            panic!("MlpBuilder builds dense layers only");
        };
        for (a, b) in la.weights().as_slice().iter().zip(lb.weights().as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "weight differs: {a} vs {b}");
        }
        for (a, b) in la.bias().iter().zip(lb.bias()) {
            assert_eq!(a.to_bits(), b.to_bits(), "bias differs: {a} vs {b}");
        }
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}] differs between 1 and 4 threads: {x} vs {y}"
        );
    }
}

/// The fast IR estimate sums load currents per coarse cell and per node
/// and runs a CG solve on the thread pool; every sum must keep its
/// order at any thread count.
#[test]
fn ir_prediction_is_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    let widths = bench.strap_widths();
    let predict = |threads: usize| {
        with_threads(threads, || {
            IrPredictor::new().predict(&bench, &widths).unwrap()
        })
    };
    let one = predict(1);
    let four = predict(4);
    assert_eq!(one.worst.to_bits(), four.worst.to_bits());
    assert_bits_eq(&one.node_drops, &four.node_drops, "node_drops");
    assert_bits_eq(&one.segment_drops, &four.segment_drops, "segment_drops");

    // Repeated runs in one process must agree too — the old HashMap
    // accumulation was stable per-process (fixed RandomState per map
    // creation differs across maps, not runs), so the cross-process
    // hazard is what the BTreeMap conversion removes; this guards the
    // in-process half.
    let again = predict(4);
    assert_bits_eq(&four.node_drops, &again.node_drops, "repeat node_drops");
}

/// Clones of one base share its Kirchhoff plan, and the first estimate
/// on any of them builds it. Four threads racing to build it on a base
/// that has none yet must each get what a sequential run on a fresh
/// bench gives, bit for bit.
#[test]
fn concurrent_first_estimates_on_clones_match_a_sequential_run() {
    let base = ibmpg2();
    let requests: Vec<(Perturbation, Vec<f64>)> = (0..4u32)
        .map(|i| {
            let kind = PerturbationKind::ALL[i as usize % 3];
            let p = Perturbation::new(0.1 + 0.05 * f64::from(i), kind, u64::from(i) + 1).unwrap();
            let scale = 1.0 + 0.2 * f64::from(i);
            let widths = base.strap_widths().iter().map(|w| w * scale).collect();
            (p, widths)
        })
        .collect();
    let sequential: Vec<PredictedIr> = requests
        .iter()
        .map(|(p, w)| {
            let fresh = p.apply(&ibmpg2()).unwrap();
            IrPredictor::new().predict(&fresh, w).unwrap()
        })
        .collect();
    let clones: Vec<SyntheticBenchmark> = requests
        .iter()
        .map(|(p, _)| p.apply(&base).unwrap())
        .collect();
    assert!(base.topology_memo().get().is_none());
    let start = std::sync::Barrier::new(clones.len());
    let concurrent: Vec<PredictedIr> = std::thread::scope(|s| {
        let handles: Vec<_> = clones
            .iter()
            .zip(&requests)
            .map(|(bench, (_, w))| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    IrPredictor::new().predict(bench, w).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(base.topology_memo().get().is_some());
    for (seq, con) in sequential.iter().zip(&concurrent) {
        assert_eq!(seq.worst.to_bits(), con.worst.to_bits());
        assert_bits_eq(&seq.node_drops, &con.node_drops, "node_drops");
        assert_bits_eq(&seq.segment_drops, &con.segment_drops, "segment_drops");
    }
}

/// The EM-safe width projection charges each strap for the current its
/// vias inject, accumulated through a coordinate-keyed map — same
/// hazard, same fix (`determinism/hashmap-iter`).
#[test]
fn em_safe_widths_are_bitwise_stable_across_thread_counts() {
    let bench = ibmpg2();
    // A tiny model is enough: the hazard is in the post-prediction
    // current accumulation, not the network itself.
    let config = PredictorConfig {
        hidden_layers: 2,
        hidden_width: 8,
        train: ppdl_nn::TrainConfig {
            epochs: 3,
            ..PredictorConfig::default().train
        },
        ..PredictorConfig::default()
    };
    let (predictor, _) = WidthPredictor::train(&bench, &bench.strap_widths(), config).unwrap();
    let run = |threads: usize| {
        with_threads(threads, || {
            predictor
                .predict_strap_widths_em_safe(&bench, 0.05)
                .unwrap()
        })
    };
    let one = run(1);
    let four = run(4);
    assert_bits_eq(&one, &four, "em_safe_widths");
}
