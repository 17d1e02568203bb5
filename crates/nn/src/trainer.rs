use std::time::Instant;

use crate::{Adam, Dataset, Loss, Network, NnError};

/// Per-epoch loss histogram edges: 1e-10 to 100, one decade per bucket.
const LOSS_BOUNDS: [f64; 13] = [
    1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
];

/// Configuration for mini-batch training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    ///
    /// Batches of 512 rows or more split into fixed 256-row chunks,
    /// run concurrently on the thread pool configured via
    /// `ppdl_solver::parallel` / `PPDL_THREADS` and reduced in chunk
    /// order; smaller ones are one chunk. Results are bitwise
    /// identical at any thread count, so raising the batch size trades
    /// gradient freshness for wall-clock speed without changing
    /// reproducibility.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Loss function (the paper uses MSE).
    pub loss: Loss,
    /// L2 weight-decay coefficient — the λC(Ω) regularisation term of
    /// the paper's eq. 2. `0.0` disables it.
    pub weight_decay: f64,
    /// Shuffling seed; each epoch reshuffles deterministically from it.
    pub shuffle_seed: u64,
    /// Fraction of the data held out for validation, in `[0, 1)`.
    /// `0.0` disables validation (and early stopping).
    pub validation_split: f64,
    /// Stop after this many epochs without validation improvement.
    /// `0` disables early stopping.
    pub patience: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 100,
            batch_size: 32,
            learning_rate: 1e-3,
            loss: Loss::Mse,
            weight_decay: 0.0,
            shuffle_seed: 0,
            validation_split: 0.0,
            patience: 0,
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean training loss of each epoch.
    pub train_losses: Vec<f64>,
    /// Validation loss of each epoch (empty when validation is off).
    pub val_losses: Vec<f64>,
    /// Number of epochs actually run (may be fewer than configured when
    /// early stopping triggers).
    pub epochs_run: usize,
    /// Whether early stopping ended the run.
    pub early_stopped: bool,
}

impl TrainReport {
    /// The best (lowest) validation loss seen, if validation ran.
    #[must_use]
    pub fn best_val_loss(&self) -> Option<f64> {
        self.val_losses
            .iter()
            .copied()
            .fold(None, |m, v| Some(m.map_or(v, |mv: f64| mv.min(v))))
    }
}

/// Mini-batch trainer driving a [`Network`] with Adam.
///
/// # Example
///
/// ```
/// use ppdl_nn::{Activation, Dataset, Matrix, MlpBuilder, TrainConfig, Trainer};
///
/// let x = Matrix::from_fn(100, 1, |r, _| r as f64 / 100.0);
/// let y = x.map(|v| 2.0 * v + 1.0);
/// let data = Dataset::new(x, y).unwrap();
/// let mut model = MlpBuilder::new(1).hidden(8, Activation::Tanh).output(1).build().unwrap();
/// let report = Trainer::new(TrainConfig { epochs: 50, ..TrainConfig::default() })
///     .fit(&mut model, &data)
///     .unwrap();
/// assert_eq!(report.epochs_run, 50);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    #[must_use]
    pub fn new(config: TrainConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `model` on `data` — the paper's dense MLP and the
    /// spatial layer graphs alike.
    ///
    /// # Errors
    ///
    /// * [`NnError::InvalidConfig`] — bad epochs/batch/learning rate or
    ///   validation split.
    /// * [`NnError::Diverged`] — a non-finite loss appeared.
    /// * Shape errors propagate from the model.
    pub fn fit(&self, model: &mut Network, data: &Dataset) -> crate::Result<TrainReport> {
        let c = &self.config;
        if c.epochs == 0 || c.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                detail: "epochs and batch size must be positive".into(),
            });
        }
        if !(0.0..1.0).contains(&c.validation_split) {
            return Err(NnError::InvalidConfig {
                detail: format!("validation split {} outside [0, 1)", c.validation_split),
            });
        }
        let (train, val) = if c.validation_split > 0.0 {
            let shuffled = data.shuffled(c.shuffle_seed.wrapping_mul(0x9e37_79b9));
            let (t, v) = shuffled.split(1.0 - c.validation_split)?;
            (t, Some(v))
        } else {
            (data.clone(), None)
        };

        let _fit_span = ppdl_obs::span("nn/fit");
        let mut optimizer = Adam::new(c.learning_rate)?;
        let mut train_losses = Vec::with_capacity(c.epochs);
        let mut val_losses = Vec::new();
        let mut best_val = f64::INFINITY;
        let mut stale = 0usize;
        let mut early_stopped = false;

        for epoch in 0..c.epochs {
            // ppdl-lint: allow(determinism/wall-clock) -- feeds the per-epoch telemetry span only; losses and weights never read it
            let epoch_start = Instant::now();
            let shuffled = train.shuffled(c.shuffle_seed.wrapping_add(epoch as u64));
            let mut sum = 0.0;
            let mut batches = 0usize;
            for (xb, yb) in shuffled.batches(c.batch_size) {
                let loss = model.train_batch_regularized(
                    &xb,
                    &yb,
                    c.loss,
                    c.weight_decay,
                    &mut optimizer,
                )?;
                if !loss.is_finite() {
                    return Err(NnError::Diverged { epoch });
                }
                sum += loss;
                batches += 1;
            }
            let epoch_loss = sum / batches as f64;
            if ppdl_obs::enabled() {
                ppdl_obs::counter_add("nn/epochs", 1);
                ppdl_obs::observe(
                    "nn/epoch_ms",
                    &ppdl_obs::latency_buckets_ms(),
                    epoch_start.elapsed().as_secs_f64() * 1e3,
                );
                ppdl_obs::observe("nn/epoch_loss", &LOSS_BOUNDS, epoch_loss);
            }
            train_losses.push(epoch_loss);

            if let Some(v) = &val {
                let pred = model.predict(v.x())?;
                let vloss = c.loss.value(&pred, v.y())?;
                if !vloss.is_finite() {
                    return Err(NnError::Diverged { epoch });
                }
                val_losses.push(vloss);
                if vloss < best_val - 1e-12 {
                    best_val = vloss;
                    stale = 0;
                } else {
                    stale += 1;
                    if c.patience > 0 && stale >= c.patience {
                        early_stopped = true;
                        break;
                    }
                }
            }
        }

        Ok(TrainReport {
            epochs_run: train_losses.len(),
            train_losses,
            val_losses,
            early_stopped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Layer, Matrix, MlpBuilder};

    fn linear_data(n: usize) -> Dataset {
        let x = Matrix::from_fn(n, 2, |r, c| ((r * 3 + c * 7) % 13) as f64 / 13.0);
        let y = Matrix::from_fn(n, 1, |r, _| 1.5 * x.get(r, 0) - 0.5 * x.get(r, 1) + 0.2);
        Dataset::new(x, y).unwrap()
    }

    fn model() -> Network {
        MlpBuilder::new(2)
            .hidden(12, Activation::Tanh)
            .output(1)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = linear_data(128);
        let mut m = model();
        let report = Trainer::new(TrainConfig {
            epochs: 60,
            learning_rate: 5e-3,
            ..TrainConfig::default()
        })
        .fit(&mut m, &data)
        .unwrap();
        assert_eq!(report.epochs_run, 60);
        assert!(report.train_losses[59] < report.train_losses[0] / 5.0);
    }

    #[test]
    fn validation_split_records_losses() {
        let data = linear_data(100);
        let mut m = model();
        let report = Trainer::new(TrainConfig {
            epochs: 10,
            validation_split: 0.2,
            ..TrainConfig::default()
        })
        .fit(&mut m, &data)
        .unwrap();
        assert_eq!(report.val_losses.len(), 10);
        assert!(report.best_val_loss().unwrap().is_finite());
    }

    #[test]
    fn early_stopping_stops_early() {
        let data = linear_data(60);
        let mut m = model();
        let report = Trainer::new(TrainConfig {
            epochs: 500,
            validation_split: 0.3,
            patience: 3,
            learning_rate: 1e-2,
            ..TrainConfig::default()
        })
        .fit(&mut m, &data)
        .unwrap();
        assert!(report.epochs_run < 500);
        assert!(report.early_stopped);
    }

    #[test]
    fn invalid_configs_rejected() {
        let data = linear_data(10);
        let mut m = model();
        for cfg in [
            TrainConfig {
                epochs: 0,
                ..TrainConfig::default()
            },
            TrainConfig {
                batch_size: 0,
                ..TrainConfig::default()
            },
            TrainConfig {
                validation_split: 1.0,
                ..TrainConfig::default()
            },
            TrainConfig {
                validation_split: -0.1,
                ..TrainConfig::default()
            },
        ] {
            assert!(Trainer::new(cfg).fit(&mut m, &data).is_err());
        }
    }

    #[test]
    fn weight_decay_flows_through_trainer() {
        let data = linear_data(64);
        let mut plain = model();
        let mut decayed = model();
        let base = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        Trainer::new(base.clone()).fit(&mut plain, &data).unwrap();
        Trainer::new(TrainConfig {
            weight_decay: 0.05,
            ..base
        })
        .fit(&mut decayed, &data)
        .unwrap();
        let norm = |m: &Network| -> f64 {
            m.layers()
                .iter()
                .flat_map(|l| match l {
                    Layer::Dense(d) => d.weights().as_slice(),
                    _ => &[],
                })
                .map(|w| w * w)
                .sum()
        };
        assert!(
            norm(&decayed) < norm(&plain),
            "decay should shrink weights: {} vs {}",
            norm(&decayed),
            norm(&plain)
        );
    }

    #[test]
    fn shuffle_seed_changes_trajectory_not_quality() {
        let data = linear_data(64);
        let mut m1 = model();
        let mut m2 = model();
        let r1 = Trainer::new(TrainConfig {
            epochs: 30,
            shuffle_seed: 1,
            ..TrainConfig::default()
        })
        .fit(&mut m1, &data)
        .unwrap();
        let r2 = Trainer::new(TrainConfig {
            epochs: 30,
            shuffle_seed: 2,
            ..TrainConfig::default()
        })
        .fit(&mut m2, &data)
        .unwrap();
        // Both converge to similar loss levels.
        let a = r1.train_losses.last().unwrap();
        let b = r2.train_losses.last().unwrap();
        assert!(a.max(*b) < 10.0 * a.min(*b) + 1e-6);
    }
}
