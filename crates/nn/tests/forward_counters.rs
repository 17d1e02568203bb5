//! The dense forward's work counter. It lives in its own test binary
//! because `nn/gemm/fmas` is a process-wide counter: no other test may
//! run kernels while this one reads it.

use ppdl_nn::{Activation, Layer, Matrix, MlpBuilder};

#[test]
fn one_predict_adds_sum_of_m_k_n_fmas() {
    ppdl_obs::set_enabled(true);
    let fmas = ppdl_obs::global().counter("nn/gemm/fmas");
    // The paper's MLP: 3 -> 24 x 10 -> 1.
    let model = MlpBuilder::new(3)
        .hidden_stack(10, 24, Activation::Relu)
        .output(1)
        .seed(1)
        .build()
        .unwrap();
    // Below and above the 512-row chunking threshold.
    for rows in [1, 97, 700] {
        let x = Matrix::from_fn(rows, 3, |r, c| ((r * 7 + c) % 13) as f64 / 13.0);
        let expected: u64 = model
            .layers()
            .iter()
            .map(|layer| match layer {
                Layer::Dense(d) => (rows * d.input_dim() * d.output_dim()) as u64,
                _ => 0,
            })
            .sum();
        let before = fmas.get();
        model.predict(&x).unwrap();
        assert_eq!(fmas.get() - before, expected, "{rows} rows");
        assert_eq!(expected, rows as u64 * 5280);
    }
    ppdl_obs::set_enabled(false);
}
