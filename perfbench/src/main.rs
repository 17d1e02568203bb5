//! The repository benchmark: ECO serving, Table IV flip-chip and
//! wire-bond, and synthesis workloads, measured end to end and layer
//! by layer from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|table4_flipchip|table4_wirebond|synth> \
//!     --seed <n> --seconds <s> --trace <0|1> [--toy]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`) of `BENCHMARK.json`. A failed check, a missing metric
//! or an error exits with code 1; bad arguments with code 2.

mod dl;
mod fixture;
mod ledger;
mod replay;
mod samples;
mod serve;
mod speed;
mod stats;
mod synth;
mod table4;

use std::process::ExitCode;
use std::time::Duration;

use fixture::{Workload, POOL_THREADS, SERVE_CLIENTS};
use ledger::Report;

#[global_allocator]
static ALLOC: ppdl_bench::memtrack::TrackingAllocator =
    ppdl_bench::memtrack::TrackingAllocator::new();

pub type Error = Box<dyn std::error::Error + Send + Sync>;

const USAGE: &str =
    "usage: ppdl-perfbench --workload <serve|table4_flipchip|table4_wirebond|synth> \
                     --seed <n> --seconds <s> --trace <0|1> [--toy]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny grids and one epoch, for the crate's smoke tests.
    toy: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut toy) = (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            toy = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("want 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = POOL_THREADS.min(threads);
    let clients = SERVE_CLIENTS.min(threads);
    ppdl_solver::parallel::set_threads(pool);
    ppdl_obs::set_enabled(args.trace);
    let recipe = args.workload.recipe(args.toy);
    eprintln!(
        "{}: {}@{} MLP 10x24 relu, {} epochs, {} set-ups, pool {pool} of {threads} threads, {clients} serve clients, seed {}, {} s, trace {}",
        args.workload.name(),
        recipe.preset.name(),
        recipe.scale,
        recipe.epochs,
        recipe.setups,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let mut report = Report::new(args.trace);
    let budget = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload {
        Workload::Serve => serve::run(&recipe, args.seed, budget, clients, &mut report),
        Workload::Table4Flipchip | Workload::Table4Wirebond => {
            table4::run(&recipe, args.seed, budget, &mut report)
        }
        Workload::Synth => synth::run(&recipe, args.seed, budget, &mut report),
    };
    match outcome {
        Ok(samples) => samples.emit(&mut report, args.workload.name()),
        Err(e) => report.fail(format!("workload stopped: {e}")),
    }
    let correct = report.seal();
    for why in report.failures().iter().take(20) {
        eprintln!("FAILED: {why}");
    }
    println!("{}", report.json_line(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_benchmark_command_line_parses() {
        let a = args("--workload table4_wirebond --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Table4Wirebond);
        assert_eq!((a.seed, a.seconds, a.trace, a.toy), (7, 10.0, true, false));
        assert!(
            args("--workload serve --seed 1 --seconds 1 --trace 0 --toy")
                .unwrap()
                .toy
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve --seed x --seconds 1 --trace 0",
            "--workload serve --seed 1 --seconds 0 --trace 0",
            "--workload serve --seed 1 --seconds 1 --trace 2",
            "--workload serve --seed 1 --seconds 1",
            "--workload serve --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
