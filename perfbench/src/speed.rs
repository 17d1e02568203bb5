//! Host-speed normalisation of the end-to-end timings.
//!
//! On a shared host the same binary's timings drift by 20-50 % from one
//! run to the next, in slow spells of a fraction of a second to minutes,
//! because co-tenants change how fast a vCPU executes. So the thread
//! that times the workload also times, right after each operation, a
//! fixed kernel that belongs to the benchmark, not to the program: a
//! 128×128 dense product, in cache. Each timing is scaled by
//! `PROBE_REF_MS / probe` and read as milliseconds on a host where the
//! probe takes `PROBE_REF_MS`. A change to the program cannot move the
//! probe, so the scaled figures still move with the program, while
//! host drift largely cancels.
//!
//! The kernel is arithmetic only: in the host's slow spells the dense
//! product and a sign-off both took about 55 % longer, while an 8 MiB
//! copy barely slowed, so a probe that also copied followed the spells
//! only a third of the way. Scaling each operation by its own probe,
//! rather than a run's median timing by its median probe, follows spells
//! shorter than a run. Over five seeds the two changes cut the
//! seed-to-seed spread of the `serve` sign-off from 21 % to 3.5 % and of
//! the synthesis call from 9 % to 4 %.

use std::time::Instant;

use crate::stats::median;

/// The probe's time, in ms, on the reference host.
pub const PROBE_REF_MS: f64 = 0.5;

/// Side of the dense product (two 128 KiB matrices, in L2).
const N: usize = 128;

/// The fixed reference work, and its times on one thread. A probe
/// allocates its matrices when made and only its few-byte samples
/// afterwards, so probes made before a workload's heap mark stay out of
/// `peak_heap_mb`.
pub struct Probe {
    a: Vec<f64>,
    c: Vec<f64>,
    samples: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            a: (0..N * N).map(|i| (i % 7) as f64 * 0.5).collect(),
            c: vec![0.0; N * N],
            samples: Vec::new(),
        }
    }

    /// Times the kernel once on the calling thread; returns its ms.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        self.c.fill(0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = self.a[i * N + k];
                let (row, col) = (&mut self.c[i * N..(i + 1) * N], &self.a[k * N..(k + 1) * N]);
                for (c, a) in row.iter_mut().zip(col) {
                    *c += aik * a;
                }
            }
        }
        std::hint::black_box(&self.c);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        self.samples.push(ms);
        ms
    }

    /// `n` samples in a row.
    pub fn burst(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample()).collect()
    }

    /// Times the kernel once and returns the factor that scales an
    /// operation this thread timed just before it to the reference host.
    pub fn factor(&mut self) -> f64 {
        PROBE_REF_MS / self.sample()
    }

    pub fn merge(&mut self, other: Probe) {
        self.samples.extend(other.samples);
    }

    /// Writes the samples' count and median to stderr, with what they
    /// scaled.
    pub fn describe(&self, what: &str) {
        eprintln!(
            "host speed for {what}: {} probes, median {:.3} ms (reference {PROBE_REF_MS} ms)",
            self.samples.len(),
            median(&self.samples).unwrap_or(f64::NAN)
        );
    }
}

/// The factor that scales a time measured among these probe times to
/// the reference host (1 without samples).
pub fn factor_of(probe_ms: &[f64]) -> f64 {
    median(probe_ms).map_or(1.0, |m| PROBE_REF_MS / m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_scales_by_the_reference() {
        assert_eq!(factor_of(&[]), 1.0);
        assert_eq!(factor_of(&[0.25, 1.0, 2.0]), 0.5);
        let mut probe = Probe::new();
        let f = probe.factor();
        assert!(f.is_finite() && f > 0.0);
        let mut other = Probe::new();
        assert_eq!(other.burst(3).len(), 3);
        probe.merge(other);
        assert_eq!(probe.samples.len(), 4);
    }
}
