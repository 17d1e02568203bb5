//! The experiment driver: `ppdl-bench run <name> [flags]` dispatches
//! any registered paper table/figure reproduction; `ppdl-bench list`
//! shows the registry.

use ppdl_bench::experiments::{self, REGISTRY};
use ppdl_bench::harness::{help_text, Options, ParseError};
use ppdl_bench::memtrack::TrackingAllocator;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn usage() -> String {
    let mut out = String::from(
        "usage: ppdl-bench <command>\n\n\
         commands:\n  \
         run <name> [flags]   run a registered experiment\n  \
         list                 list registered experiments\n  \
         baseline <baseline.json> <manifest.json>\n                       \
         check a run manifest against a committed baseline\n  \
         help                 show this message\n\n",
    );
    out.push_str(&help_text(0.02));
    out
}

fn list() {
    println!("{:<24} {:<8} title", "name", "scale");
    println!("{}", "-".repeat(78));
    for def in REGISTRY {
        println!("{:<24} {:<8} {}", def.name, def.default_scale, def.title);
        if !def.aliases.is_empty() {
            println!("{:<24} (alias: {})", "", def.aliases.join(", "));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => list(),
        Some("baseline") => {
            std::process::exit(ppdl_bench::baseline::run_cli(&args[1..]));
        }
        Some("run") => {
            let Some(name) = args.get(1) else {
                eprintln!("error: 'run' needs an experiment name (see 'ppdl-bench list')");
                std::process::exit(2);
            };
            let Some(def) = experiments::find(name) else {
                eprintln!("error: unknown experiment '{name}' (see 'ppdl-bench list')");
                std::process::exit(2);
            };
            let opts = match Options::parse(&args[2..], def.default_scale) {
                Ok(opts) => opts,
                Err(ParseError::Help) => {
                    println!("{}: {}\n", def.name, def.title);
                    print!("{}", help_text(def.default_scale));
                    return;
                }
                Err(ParseError::Bad(msg)) => {
                    eprintln!("error: {msg}\n{}", help_text(def.default_scale));
                    std::process::exit(2);
                }
            };
            match experiments::execute(def, &opts) {
                Ok(out) => experiments::emit(&opts, &out),
                Err(e) => {
                    eprintln!("{}: {e}", def.name);
                    std::process::exit(1);
                }
            }
        }
        Some("help" | "--help" | "-h") | None => print!("{}", usage()),
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{}", usage());
            std::process::exit(2);
        }
    }
}
