//! Versioned text persistence for layer-graph [`Network`] models.
//!
//! The format is line-oriented and human-inspectable, one tagged block
//! per layer:
//!
//! ```text
//! ppdl-net v1
//! input chw 2 8 8
//! layers 4
//! conv2d 4 2 8 8 3 relu
//! <4 weight rows (2·3·3 values each)>
//! <1 bias row>
//! maxpool2d 4 8 8 2
//! upsample2d 4 4 4 2
//! conv2d 2 4 8 8 3 identity
//! <2 weight rows (4·3·3 values each)>
//! <1 bias row>
//! end
//! ```
//!
//! An MLP reads `input flat <n>` and has one
//! `dense <out> <in> <activation>` block per layer.
//!
//! Values use shortest-round-trip float formatting, so save/load is
//! lossless and re-encoding a loaded model is byte-identical.

use crate::conv::{Conv2d, MaxPool2d, Upsample2d};
use crate::network::{Layer, Network, TensorShape};
use crate::{Activation, DenseLayer, Matrix, NnError};

fn activation_suffix(act: Activation) -> String {
    match act {
        Activation::LeakyRelu(alpha) => format!("leaky_relu {alpha}"),
        other => other.name().to_string(),
    }
}

fn parse_activation(fields: &[&str], at: usize, ln: usize) -> crate::Result<Activation> {
    let name = fields.get(at).ok_or_else(|| NnError::Decode {
        line: ln,
        detail: "missing activation".into(),
    })?;
    Ok(match *name {
        "identity" => Activation::Identity,
        "relu" => Activation::Relu,
        "tanh" => Activation::Tanh,
        "sigmoid" => Activation::Sigmoid,
        "leaky_relu" => {
            let alpha: f64 = fields
                .get(at + 1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| NnError::Decode {
                    line: ln,
                    detail: "leaky_relu requires an alpha".into(),
                })?;
            Activation::LeakyRelu(alpha)
        }
        other => {
            return Err(NnError::Decode {
                line: ln,
                detail: format!("unknown activation '{other}'"),
            })
        }
    })
}

fn parse_usizes(fields: &[&str], from: usize, n: usize, ln: usize) -> crate::Result<Vec<usize>> {
    (from..from + n)
        .map(|i| {
            fields
                .get(i)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| NnError::Decode {
                    line: ln,
                    detail: format!("expected {n} integer fields"),
                })
        })
        .collect()
}

fn write_matrix_rows(out: &mut String, weights: &Matrix, bias: &[f64]) {
    use std::fmt::Write as _;
    for r in 0..weights.rows() {
        let row: Vec<String> = weights.row(r).iter().map(|v| format!("{v}")).collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    let brow: Vec<String> = bias.iter().map(|b| format!("{b}")).collect();
    let _ = writeln!(out, "{}", brow.join(" "));
}

impl Network {
    /// Serialises the network to the versioned text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "ppdl-net v1");
        match self.input_shape() {
            TensorShape::Flat(n) => {
                let _ = writeln!(out, "input flat {n}");
            }
            TensorShape::Chw { c, h, w } => {
                let _ = writeln!(out, "input chw {c} {h} {w}");
            }
        }
        let _ = writeln!(out, "layers {}", self.layer_count());
        for layer in self.layers() {
            match layer {
                Layer::Dense(l) => {
                    let _ = writeln!(
                        out,
                        "dense {} {} {}",
                        l.output_dim(),
                        l.input_dim(),
                        activation_suffix(l.activation())
                    );
                    write_matrix_rows(&mut out, l.weights(), l.bias());
                }
                Layer::Conv2d(l) => {
                    let (h, w) = l.spatial();
                    let _ = writeln!(
                        out,
                        "conv2d {} {} {h} {w} {} {}",
                        l.out_channels(),
                        l.in_channels(),
                        l.kernel(),
                        activation_suffix(l.activation())
                    );
                    write_matrix_rows(&mut out, l.weights(), l.bias());
                }
                Layer::MaxPool2d(l) => {
                    let (h, w) = l.spatial();
                    let _ = writeln!(out, "maxpool2d {} {h} {w} {}", l.channels(), l.window());
                }
                Layer::Upsample2d(l) => {
                    let (h, w) = l.spatial();
                    let _ = writeln!(out, "upsample2d {} {h} {w} {}", l.channels(), l.factor());
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Reconstructs a network from [`to_text`](Self::to_text) output.
    ///
    /// Also reads the retired dense-only `ppdl-mlp v1` format, which
    /// has no input line and spells each layer `layer <out> <in>
    /// <activation>`; the input is then the first layer's width.
    ///
    /// Nothing is allocated from a declared count: parameter buffers
    /// grow with the rows actually present, and every product of
    /// declared dimensions is overflow-checked.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Decode`] (with a line number) for malformed
    /// or oversized input, and shape errors from
    /// [`Network::from_parts`] if the declared chain is inconsistent.
    pub fn from_text(text: &str) -> crate::Result<Self> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = next_line(&mut lines, "header")?;
        let legacy = match header {
            "ppdl-net v1" => false,
            "ppdl-mlp v1" => true,
            _ => {
                return Err(NnError::Decode {
                    line: ln,
                    detail: format!("bad header '{header}'"),
                })
            }
        };
        let declared_input = if legacy {
            None
        } else {
            Some(read_input_shape(&mut lines)?)
        };
        let (ln, count_line) = next_line(&mut lines, "layer count")?;
        let count: usize = count_line
            .strip_prefix("layers ")
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| NnError::Decode {
                line: ln,
                detail: format!("bad layer count line '{count_line}'"),
            })?;
        let mut layers = Vec::new();
        for _ in 0..count {
            let (ln, decl) = next_line(&mut lines, "layer declaration")?;
            let fields: Vec<&str> = decl.split_whitespace().collect();
            let declared = fields.first().copied().unwrap_or("");
            // `ppdl-mlp v1` is dense-only and spells each layer `layer`.
            let kind = match (legacy, declared) {
                (true, "layer") => "dense",
                (true, _) => "",
                (false, kind) => kind,
            };
            let layer = match kind {
                "dense" => {
                    let d = parse_usizes(&fields, 1, 2, ln)?;
                    let activation = parse_activation(&fields, 3, ln)?;
                    let (weights, bias) = read_params(&mut lines, d[0], d[1], ln)?;
                    Layer::Dense(DenseLayer::from_parameters(weights, bias, activation)?)
                }
                "conv2d" => {
                    let d = parse_usizes(&fields, 1, 5, ln)?;
                    let activation = parse_activation(&fields, 6, ln)?;
                    let (out_c, in_c, h, w, k) = (d[0], d[1], d[2], d[3], d[4]);
                    checked_product(&[in_c, h, w], ln)?;
                    checked_product(&[out_c, h, w], ln)?;
                    let fan_in = checked_product(&[in_c, k, k], ln)?;
                    let (weights, bias) = read_params(&mut lines, out_c, fan_in, ln)?;
                    Layer::Conv2d(Conv2d::from_parameters(
                        in_c, h, w, out_c, k, activation, weights, bias,
                    )?)
                }
                "maxpool2d" => {
                    let d = parse_usizes(&fields, 1, 4, ln)?;
                    checked_product(&d[..3], ln)?;
                    Layer::MaxPool2d(MaxPool2d::new(d[0], d[1], d[2], d[3])?)
                }
                "upsample2d" => {
                    let d = parse_usizes(&fields, 1, 4, ln)?;
                    // The output map is c·(h·k)·(w·k).
                    checked_product(&[d[0], d[1], d[2], d[3], d[3]], ln)?;
                    Layer::Upsample2d(Upsample2d::new(d[0], d[1], d[2], d[3])?)
                }
                _ => {
                    return Err(NnError::Decode {
                        line: ln,
                        detail: format!("unknown layer kind '{declared}'"),
                    })
                }
            };
            layers.push(layer);
        }
        let (ln, terminator) = next_line(&mut lines, "end")?;
        if terminator != "end" {
            return Err(NnError::Decode {
                line: ln,
                detail: format!("expected 'end', found '{terminator}'"),
            });
        }
        let input_shape = declared_input.unwrap_or_else(|| {
            layers
                .first()
                .map_or(TensorShape::Flat(0), Layer::input_shape)
        });
        Network::from_parts(input_shape, layers)
    }
}

fn next_line<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    expect: &str,
) -> crate::Result<(usize, &'a str)> {
    lines
        .next()
        .map(|(i, l)| (i + 1, l.trim()))
        .ok_or_else(|| NnError::Decode {
            line: 0,
            detail: format!("unexpected end of input, expected {expect}"),
        })
}

fn read_input_shape<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> crate::Result<TensorShape> {
    let (ln, input_line) = next_line(lines, "input shape")?;
    let fields: Vec<&str> = input_line.split_whitespace().collect();
    match (fields.first(), fields.get(1)) {
        (Some(&"input"), Some(&"flat")) => {
            let d = parse_usizes(&fields, 2, 1, ln)?;
            Ok(TensorShape::Flat(d[0]))
        }
        (Some(&"input"), Some(&"chw")) => {
            let d = parse_usizes(&fields, 2, 3, ln)?;
            checked_product(&d, ln)?;
            Ok(TensorShape::Chw {
                c: d[0],
                h: d[1],
                w: d[2],
            })
        }
        _ => Err(NnError::Decode {
            line: ln,
            detail: format!("bad input shape line '{input_line}'"),
        }),
    }
}

/// The product of declared dimensions, or a decode error if it
/// overflows `usize`.
fn checked_product(dims: &[usize], ln: usize) -> crate::Result<usize> {
    dims.iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| NnError::Decode {
            line: ln,
            detail: format!("dimensions {dims:?} overflow"),
        })
}

fn parse_floats(line: &str, ln: usize) -> crate::Result<Vec<f64>> {
    line.split_whitespace()
        .map(|t| {
            t.parse().map_err(|_| NnError::Decode {
                line: ln,
                detail: format!("bad float '{t}'"),
            })
        })
        .collect()
}

/// Reads a `rows × cols` weight block and its bias row for the layer
/// declared on line `ln`.
fn read_params<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
    rows: usize,
    cols: usize,
    ln: usize,
) -> crate::Result<(Matrix, Vec<f64>)> {
    checked_product(&[rows, cols], ln)?;
    let mut values = Vec::new();
    for _ in 0..rows {
        let (ln, row) = next_line(lines, "weight row")?;
        let vals = parse_floats(row, ln)?;
        if vals.len() != cols {
            return Err(NnError::Decode {
                line: ln,
                detail: format!("weight row has {} values, expected {cols}", vals.len()),
            });
        }
        values.extend(vals);
    }
    let (ln, brow) = next_line(lines, "bias row")?;
    let bias = parse_floats(brow, ln)?;
    if bias.len() != rows {
        return Err(NnError::Decode {
            line: ln,
            detail: format!("bias row has {} values, expected {rows}", bias.len()),
        });
    }
    Ok((Matrix::from_vec(rows, cols, values)?, bias))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MlpBuilder, NetworkBuilder, TensorShape};

    fn chw(c: usize, h: usize, w: usize) -> TensorShape {
        TensorShape::Chw { c, h, w }
    }

    fn spatial_net() -> Network {
        NetworkBuilder::new(chw(2, 4, 4))
            .conv2d(3, 3, Activation::Relu)
            .max_pool(2)
            .conv2d(4, 1, Activation::LeakyRelu(0.03))
            .upsample(2)
            .conv2d(2, 3, Activation::Identity)
            .seed(13)
            .build()
            .unwrap()
    }

    #[test]
    fn round_trip_covers_every_spatial_layer_kind() {
        let net = spatial_net();
        let text = net.to_text();
        // Every spatial layer kind appears in the artifact (`dense` is
        // covered by `mlp_round_trip_is_exact`).
        for kind in ["conv2d", "maxpool2d", "upsample2d"] {
            assert!(text.contains(kind), "missing {kind} in:\n{text}");
        }
        let back = Network::from_text(&text).unwrap();
        assert_eq!(back.layer_count(), net.layer_count());
        assert_eq!(back.input_shape(), net.input_shape());
        assert_eq!(back.output_shape(), net.output_shape());
        let x = Matrix::from_fn(5, 32, |r, i| ((r * 7 + i) % 9) as f64 * 0.2 - 0.8);
        assert_eq!(back.predict(&x).unwrap(), net.predict(&x).unwrap());
        // The text is a fixed point.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn flat_input_round_trips() {
        let net = MlpBuilder::new(3)
            .hidden(5, Activation::Tanh)
            .output(1)
            .seed(4)
            .build()
            .unwrap();
        let back = Network::from_text(&net.to_text()).unwrap();
        assert_eq!(back.input_shape(), TensorShape::Flat(3));
        let x = Matrix::from_fn(4, 3, |r, c| (r + c) as f64 * 0.3);
        assert_eq!(back.predict(&x).unwrap(), net.predict(&x).unwrap());
    }

    #[test]
    fn bad_header_rejected() {
        let err = Network::from_text("nonsense v9\n").unwrap_err();
        assert!(matches!(err, NnError::Decode { line: 1, .. }));
    }

    #[test]
    fn unknown_layer_kind_rejected() {
        let text = "ppdl-net v1\ninput flat 2\nlayers 1\nattention 2 2\nend\n";
        match Network::from_text(text) {
            Err(NnError::Decode { line: 4, detail }) => {
                assert!(detail.contains("attention"), "{detail}")
            }
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn removed_layer_kinds_rejected_with_line() {
        for (block, kind) in [
            ("avgpool2d 1 4 4 2", "avgpool2d"),
            ("flatten 1 4 4", "flatten"),
        ] {
            let text = format!("ppdl-net v1\ninput chw 1 4 4\nlayers 1\n{block}\nend\n");
            match Network::from_text(&text) {
                Err(NnError::Decode { line: 4, detail }) => {
                    assert!(detail.contains(kind), "{detail}")
                }
                other => panic!("expected a line-4 decode error, got {other:?}"),
            }
        }
    }

    #[test]
    fn broken_shape_chain_rejected() {
        // maxpool2d declares a 4x4 map but the conv output is 2x4x4,
        // i.e. widths disagree (1*4*4 != 2*4*4).
        let text = "ppdl-net v1\ninput chw 1 4 4\nlayers 2\n\
                    conv2d 2 1 4 4 1 identity\n1.0\n0.5\n1.0\n0.5\n\
                    maxpool2d 1 4 4 2\nend\n";
        assert!(Network::from_text(text).is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let net = spatial_net();
        let text = net.to_text();
        let truncated: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(Network::from_text(&truncated).is_err());
    }

    #[test]
    fn mlp_round_trip_is_exact() {
        let m = MlpBuilder::new(3)
            .hidden(5, Activation::Relu)
            .hidden(4, Activation::LeakyRelu(0.02))
            .output(2)
            .seed(17)
            .build()
            .unwrap();
        let text = m.to_text();
        assert!(text.starts_with("ppdl-net v1\ninput flat 3\nlayers 3\ndense 5 3 relu\n"));
        let back = Network::from_text(&text).unwrap();
        assert_eq!(back.layer_count(), m.layer_count());
        let x = Matrix::from_fn(7, 3, |r, c| (r as f64 - c as f64) * 0.37);
        assert_eq!(back.predict(&x).unwrap(), m.predict(&x).unwrap());
        for (a, b) in back.layers().iter().zip(m.layers()) {
            let (Layer::Dense(a), Layer::Dense(b)) = (a, b) else {
                panic!("dense layers must decode as dense");
            };
            assert_eq!(a.activation(), b.activation());
        }
    }

    #[test]
    fn corrupted_float_rejected_with_line() {
        let m = MlpBuilder::new(1).output(1).build().unwrap();
        let Layer::Dense(first) = &m.layers()[0] else {
            panic!("MlpBuilder builds dense layers");
        };
        let text = m.to_text().replace(
            first.weights().get(0, 0).to_string().as_str(),
            "not_a_number",
        );
        match Network::from_text(&text) {
            Err(NnError::Decode { line, .. }) => assert!(line >= 3),
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn trained_model_round_trips_bitwise() {
        // Adam-updated weights exercise the full float range (tiny
        // mantissa tails the builder's init never produces), which is
        // exactly what the artifact cache persists between runs.
        use crate::{Dataset, TrainConfig, Trainer};
        let mut m = MlpBuilder::new(2)
            .hidden(8, Activation::Tanh)
            .output(1)
            .seed(3)
            .build()
            .unwrap();
        let x = Matrix::from_fn(64, 2, |r, c| ((r * 7 + c * 3) % 13) as f64 / 13.0 - 0.5);
        let y = Matrix::from_fn(64, 1, |r, _| {
            let a = x.get(r, 0);
            let b = x.get(r, 1);
            (a * b + 0.3 * a).sin()
        });
        let data = Dataset::new(x.clone(), y).unwrap();
        let report = Trainer::new(TrainConfig {
            epochs: 20,
            ..TrainConfig::default()
        })
        .fit(&mut m, &data)
        .unwrap();
        assert_eq!(report.epochs_run, 20);

        let back = Network::from_text(&m.to_text()).unwrap();
        assert_eq!(
            back.predict(&x).unwrap(),
            m.predict(&x).unwrap(),
            "trained weights must survive save → load bit for bit"
        );
        // And the text itself is a fixed point: re-encoding the loaded
        // model reproduces the artifact byte for byte.
        assert_eq!(back.to_text(), m.to_text());
    }

    /// A hand-written block in the retired `ppdl-mlp v1` format.
    const LEGACY: &str = "ppdl-mlp v1\nlayers 2\n\
                          layer 2 1 leaky_relu 0.02\n0.5\n-1.25\n0.1 0\n\
                          layer 1 2 identity\n1 -2\n0.25\nend\n";

    #[test]
    fn legacy_mlp_block_decodes_to_dense_network() {
        let net = Network::from_text(LEGACY).unwrap();
        assert_eq!(net.input_shape(), TensorShape::Flat(1));
        assert_eq!(net.output_shape(), TensorShape::Flat(1));
        // Re-encoding upgrades to `ppdl-net v1`, which is a fixed point.
        let upgraded = net.to_text();
        assert_eq!(
            upgraded,
            "ppdl-net v1\ninput flat 1\nlayers 2\n\
             dense 2 1 leaky_relu 0.02\n0.5\n-1.25\n0.1 0\n\
             dense 1 2 identity\n1 -2\n0.25\nend\n"
        );
        assert_eq!(Network::from_text(&upgraded).unwrap().to_text(), upgraded);
        // y = 1·lrelu(0.5x + 0.1) − 2·lrelu(−1.25x) + 0.25 at x = 2.
        let y = net
            .predict(&Matrix::from_vec(1, 1, vec![2.0]).unwrap())
            .unwrap();
        assert!((y.get(0, 0) - 1.45).abs() < 1e-12, "{}", y.get(0, 0));
    }

    #[test]
    fn malformed_legacy_blocks_rejected() {
        for text in [
            // Truncated mid-layer.
            "ppdl-mlp v1\nlayers 1\nlayer 1 2 identity\n",
            // Weight row has 1 value but the input dim is 2.
            "ppdl-mlp v1\nlayers 1\nlayer 1 2 identity\n0.5\n0.0\nend\n",
            // Missing terminator.
            "ppdl-mlp v1\nlayers 1\nlayer 1 1 identity\n0.5\n0.0\nnot-end\n",
            // Unknown activation.
            "ppdl-mlp v1\nlayers 1\nlayer 1 1 swish extra\n0.5\n0.0\nend\n",
            // The legacy format is dense-only and has no input line.
            "ppdl-mlp v1\nlayers 1\ndense 1 1 identity\n0.5\n0.0\nend\n",
            "ppdl-mlp v1\ninput flat 1\nlayers 1\nlayer 1 1 identity\n0.5\n0.0\nend\n",
        ] {
            assert!(Network::from_text(text).is_err(), "{text}");
        }
        // `layer` is a legacy spelling only.
        let text = "ppdl-net v1\ninput flat 1\nlayers 1\nlayer 1 1 identity\n0.5\n0.0\nend\n";
        assert!(matches!(
            Network::from_text(text),
            Err(NnError::Decode { line: 4, .. })
        ));
    }

    /// Declared sizes that once sized allocations (or overflowed
    /// computing them) before any parameter was read. Each must fail
    /// as a decode error, not a panic or an allocator abort.
    #[test]
    fn oversized_declarations_are_decode_errors() {
        for text in [
            "ppdl-net v1\ninput flat 3\nlayers 18446744073709551615\n",
            "ppdl-mlp v1\nlayers 18446744073709551615\n",
            "ppdl-net v1\ninput flat 3\nlayers 1\ndense 4294967296 4294967296 relu\n",
            "ppdl-mlp v1\nlayers 1\nlayer 4294967296 4294967296 relu\n",
            "ppdl-net v1\ninput chw 4294967296 4294967296 1\nlayers 1\n\
             upsample2d 4294967296 4294967296 1 1\nend\n",
            "ppdl-net v1\ninput chw 1 3 3\nlayers 1\nconv2d 1 1 3 3 4294967297 relu\n",
            "ppdl-net v1\ninput flat 3\nlayers 1\ndense 3000000 3000000 relu\n",
            "ppdl-mlp v1\nlayers 1\nlayer 3000000 3000000 relu\n",
        ] {
            assert!(
                matches!(Network::from_text(text), Err(NnError::Decode { .. })),
                "{text}"
            );
        }
    }
}
