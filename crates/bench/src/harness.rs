//! Shared plumbing for the experiment registry.
//!
//! Every experiment run as `ppdl-bench run <name>` parses the same
//! [`Options`] with the same flags and the same `--help` text, runs
//! against the same artifact cache layout, and writes the same
//! [`RunManifest`](ppdl_core::pipeline::RunManifest) JSON.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ppdl_core::pipeline::ArtifactCache;

/// Command-line options shared by every experiment.
///
/// One parser, one help text: `--scale <f>` (fraction of the published
/// benchmark size, default per experiment), `--seed <n>`, `--fast`
/// (reduced model + training for smoke runs), `--out <dir>` (output
/// directory, default `bench_results`), `--json` (print the run
/// manifest to stdout, tables to stderr), `--csv <path>` (redirect the
/// experiment's primary CSV), `--threads <n>` (worker pool size),
/// `--no-cache` (bypass the artifact cache), `--telemetry
/// <out.json>` (collect process-wide spans/counters and write the
/// snapshot there), and `--precond <kind>` (preconditioner for the
/// conventional analysis solves).
#[derive(Debug, Clone)]
pub struct Options {
    /// Grid scale relative to Table II sizes.
    pub scale: f64,
    /// Base seed for generation/perturbation.
    pub seed: u64,
    /// Use the reduced ("fast") model configuration.
    pub fast: bool,
    /// Output directory for CSV artefacts and manifests.
    pub out_dir: PathBuf,
    /// Print the run manifest JSON to stdout (tables go to stderr).
    pub json: bool,
    /// Redirect the experiment's primary CSV to this exact path.
    pub csv: Option<PathBuf>,
    /// Worker thread count for the solver/NN pool.
    pub threads: Option<usize>,
    /// Disable the artifact cache (every stage recomputes).
    pub no_cache: bool,
    /// Enable telemetry collection and write the
    /// [`ppdl_obs`] snapshot to this path after the run.
    pub telemetry: Option<PathBuf>,
    /// Preconditioner override for the conventional analysis solves
    /// (`None` keeps each experiment's default).
    pub precond: Option<ppdl_solver::PrecondKind>,
}

/// Why [`Options::parse`] did not produce options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help`/`-h` was requested; print [`help_text`] and exit 0.
    Help,
    /// A malformed or unknown argument, with a message for stderr.
    Bad(String),
}

/// The shared `--help` text, parameterised on the experiment's default
/// scale.
#[must_use]
pub fn help_text(default_scale: f64) -> String {
    format!(
        "\
Options (shared by every ppdl experiment):
  --scale <f>     grid scale relative to Table II sizes (default {default_scale})
  --seed <n>      base seed for generation/perturbation (default 7)
  --fast          reduced model + training, for smoke runs
  --out <dir>     output directory for CSVs and manifests (default bench_results)
  --json          print the run manifest JSON to stdout; tables go to stderr
  --csv <path>    redirect the experiment's primary CSV to this path
  --threads <n>   worker threads for the solver/NN pool (default: all cores)
  --no-cache      bypass the artifact cache; recompute every stage
  --telemetry <out.json>
                  collect solver/NN/pipeline telemetry during the run and
                  write the snapshot to <out.json> (also embedded in the
                  run manifest)
  --precond <kind>
                  preconditioner for the conventional analysis solves
                  (default ic0; an unknown kind lists the accepted ones)
  --help          show this message
"
    )
}

impl Options {
    /// Default options for an experiment with the given default scale.
    #[must_use]
    pub fn defaults(default_scale: f64) -> Self {
        Self {
            scale: default_scale,
            seed: 7,
            fast: false,
            out_dir: PathBuf::from("bench_results"),
            json: false,
            csv: None,
            threads: None,
            no_cache: false,
            telemetry: None,
            precond: None,
        }
    }

    /// Parses an argument slice (already stripped of the program name).
    ///
    /// # Errors
    ///
    /// [`ParseError::Help`] when help was requested, [`ParseError::Bad`]
    /// for malformed or unknown arguments.
    pub fn parse(args: &[String], default_scale: f64) -> Result<Self, ParseError> {
        let mut opts = Self::defaults(default_scale);
        let mut i = 0;
        let value = |args: &[String], i: usize, flag: &str| -> Result<String, ParseError> {
            args.get(i)
                .cloned()
                .ok_or_else(|| ParseError::Bad(format!("{flag} needs a value")))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = value(args, i, "--scale")?
                        .parse()
                        .map_err(|_| ParseError::Bad("--scale needs a number".into()))?;
                }
                "--seed" => {
                    i += 1;
                    opts.seed = value(args, i, "--seed")?
                        .parse()
                        .map_err(|_| ParseError::Bad("--seed needs an integer".into()))?;
                }
                "--fast" => opts.fast = true,
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(value(args, i, "--out")?);
                }
                "--json" => opts.json = true,
                "--csv" => {
                    i += 1;
                    opts.csv = Some(PathBuf::from(value(args, i, "--csv")?));
                }
                "--threads" => {
                    i += 1;
                    opts.threads = Some(
                        value(args, i, "--threads")?
                            .parse()
                            .map_err(|_| ParseError::Bad("--threads needs an integer".into()))?,
                    );
                }
                "--no-cache" => opts.no_cache = true,
                "--telemetry" => {
                    i += 1;
                    opts.telemetry = Some(PathBuf::from(value(args, i, "--telemetry")?));
                }
                "--precond" => {
                    i += 1;
                    opts.precond = Some(
                        value(args, i, "--precond")?
                            .parse()
                            .map_err(|e| ParseError::Bad(format!("--precond: {e}")))?,
                    );
                }
                "--help" | "-h" => return Err(ParseError::Help),
                other => {
                    return Err(ParseError::Bad(format!(
                        "unknown argument '{other}' (try --help)"
                    )))
                }
            }
            i += 1;
        }
        Ok(opts)
    }

    /// Where this run's artifact cache lives.
    #[must_use]
    pub fn cache_dir(&self) -> PathBuf {
        self.out_dir.join("cache")
    }

    /// Opens the artifact cache, unless `--no-cache` disabled it.
    #[must_use]
    pub fn open_cache(&self) -> Option<ArtifactCache> {
        if self.no_cache {
            None
        } else {
            Some(ArtifactCache::new(self.cache_dir()))
        }
    }

    /// Applies `--threads` through `set_threads` (process-wide).
    pub fn apply_threads(&self) {
        if let Some(t) = self.threads {
            ppdl_solver::parallel::set_threads(t);
        }
    }
}

/// Formats an aligned text table.
#[must_use]
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{c:<w$}");
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    fmt_row(&header_cells, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Writes a CSV file (creating the directory), returning the path.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or file.
pub fn write_csv(
    dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    write_csv_file(&dir.join(name), header, rows)
}

/// Writes the experiment's *primary* CSV: to `--csv <path>` when given,
/// otherwise to `<out_dir>/<default_name>`.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or file.
pub fn write_primary_csv(
    opts: &Options,
    default_name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    match &opts.csv {
        Some(path) => {
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent)?;
            }
            write_csv_file(path, header, rows)
        }
        None => write_csv(&opts.out_dir, default_name, header, rows),
    }
}

fn write_csv_file(path: &Path, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let mut content = header.join(",");
    content.push('\n');
    for row in rows {
        content.push_str(&row.join(","));
        content.push('\n');
    }
    std::fs::write(path, content)?;
    Ok(path.to_path_buf())
}

/// Bins `values` into `bins` equal-width buckets over `[lo, hi]`,
/// returning `(bin_center, count)` pairs — the Fig. 7(b) histogram.
#[must_use]
pub fn histogram(values: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<(f64, usize)> {
    assert!(bins > 0 && hi > lo, "histogram needs a positive range");
    let width = (hi - lo) / bins as f64;
    let mut counts = vec![0usize; bins];
    for &v in values {
        if v < lo || v > hi {
            continue;
        }
        let idx = (((v - lo) / width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (lo + (i as f64 + 0.5) * width, c))
        .collect()
}

/// Windowed r² over an index-ordered series of (golden, predicted)
/// pairs — the Fig. 4(b) per-interconnect r² trace.
#[must_use]
pub fn windowed_r2(pairs: &[(f64, f64)], window: usize) -> Vec<(usize, f64)> {
    assert!(window >= 2, "window must cover at least 2 samples");
    let mut out = Vec::new();
    let mut start = 0;
    while start + window <= pairs.len() {
        let chunk = &pairs[start..start + window];
        let mean: f64 = chunk.iter().map(|(g, _)| g).sum::<f64>() / window as f64;
        let ss_tot: f64 = chunk.iter().map(|(g, _)| (g - mean) * (g - mean)).sum();
        let ss_res: f64 = chunk.iter().map(|(g, p)| (g - p) * (g - p)).sum();
        let r2 = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else if ss_res == 0.0 {
            1.0
        } else {
            0.0
        };
        out.push((start + window / 2, r2));
        start += window;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a   "));
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parser_accepts_every_shared_flag() {
        let opts = Options::parse(
            &argv(&[
                "--scale",
                "0.01",
                "--seed",
                "3",
                "--fast",
                "--out",
                "o",
                "--json",
                "--csv",
                "x.csv",
                "--threads",
                "2",
                "--no-cache",
                "--telemetry",
                "t.json",
                "--precond",
                "block-jacobi",
            ]),
            0.02,
        )
        .unwrap();
        assert!((opts.scale - 0.01).abs() < 1e-12);
        assert_eq!(opts.seed, 3);
        assert!(opts.fast && opts.json && opts.no_cache);
        assert_eq!(opts.out_dir, PathBuf::from("o"));
        assert_eq!(opts.csv.as_deref(), Some(Path::new("x.csv")));
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.telemetry.as_deref(), Some(Path::new("t.json")));
        assert_eq!(opts.precond, Some(ppdl_solver::PrecondKind::BlockJacobi));
        assert_eq!(opts.cache_dir(), PathBuf::from("o").join("cache"));
    }

    #[test]
    fn parser_defaults_and_help_and_errors() {
        let opts = Options::parse(&[], 0.015).unwrap();
        assert!((opts.scale - 0.015).abs() < 1e-12);
        assert_eq!(opts.seed, 7);
        assert!(!opts.no_cache && opts.csv.is_none() && opts.threads.is_none());
        assert!(opts.telemetry.is_none());
        assert!(matches!(
            Options::parse(&argv(&["--help"]), 0.02),
            Err(ParseError::Help)
        ));
        assert!(matches!(
            Options::parse(&argv(&["--bogus"]), 0.02),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            Options::parse(&argv(&["--scale", "abc"]), 0.02),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            Options::parse(&argv(&["--seed"]), 0.02),
            Err(ParseError::Bad(_))
        ));
        assert!(opts.precond.is_none());
        assert!(matches!(
            Options::parse(&argv(&["--precond", "bogus"]), 0.02),
            Err(ParseError::Bad(_))
        ));
        assert!(help_text(0.02).contains("--no-cache"));
        assert!(help_text(0.02).contains("--precond"));
    }

    #[test]
    fn no_cache_disables_the_cache() {
        let mut opts = Options::defaults(0.02);
        assert!(opts.open_cache().is_some());
        opts.no_cache = true;
        assert!(opts.open_cache().is_none());
    }

    #[test]
    fn histogram_bins_and_clips() {
        let h = histogram(&[0.1, 0.1, 0.9, 5.0, -3.0], 0.0, 1.0, 2);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1, 2);
        assert_eq!(h[1].1, 1);
        assert!((h[0].0 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_boundary_lands_in_last_bin() {
        let h = histogram(&[1.0], 0.0, 1.0, 4);
        assert_eq!(h[3].1, 1);
    }

    #[test]
    fn windowed_r2_perfect_prediction() {
        let pairs: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, i as f64)).collect();
        let series = windowed_r2(&pairs, 5);
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|(_, r2)| (*r2 - 1.0).abs() < 1e-12));
    }

    #[test]
    fn windowed_r2_mean_prediction_is_zero() {
        // Predict the window mean: r2 = 0 per window.
        let golden: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let pairs: Vec<(f64, f64)> = golden.iter().map(|g| (*g, 2.0)).collect();
        let series = windowed_r2(&pairs[..5], 5);
        assert_eq!(series.len(), 1);
        assert!(series[0].1 <= 0.0);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("ppdl_csv_test");
        let p = write_csv(&dir, "t.csv", &["a", "b"], &[vec!["1".into(), "2".into()]]).unwrap();
        let content = std::fs::read_to_string(p).unwrap();
        assert_eq!(content, "a,b\n1,2\n");
    }

    #[test]
    fn primary_csv_honours_override() {
        let dir = std::env::temp_dir().join("ppdl_primary_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = Options::defaults(0.02);
        opts.out_dir = dir.join("out");
        let p = write_primary_csv(&opts, "d.csv", &["a"], &[vec!["1".into()]]).unwrap();
        assert_eq!(p, opts.out_dir.join("d.csv"));
        opts.csv = Some(dir.join("custom").join("c.csv"));
        let p = write_primary_csv(&opts, "d.csv", &["a"], &[vec!["1".into()]]).unwrap();
        assert_eq!(p, dir.join("custom").join("c.csv"));
        assert!(p.exists());
    }
}
