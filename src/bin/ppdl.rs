//! `ppdl` — command-line front end for the PowerPlanningDL stack.
//!
//! ```text
//! ppdl generate --preset ibmpg2 --scale 0.01 --seed 7 --out grid.spice [--svg fp.svg]
//! ppdl analyze <deck.spice> [--map map.csv] [--resolution 100] [--precond ic0]
//! ppdl flow --preset ibmpg2 --scale 0.01 [--fast] [--gamma 0.1] [--model model.ppdl]
//!           [--precond ic0]
//! ppdl train --preset ibmpg2 --scale 0.006 --out model.bundle [--fast] [--backend mlp|cnn|encdec]
//! ppdl synth --preset ibmpg2 [--scale 0.01] [--seed 7] [--fast] [--backend mlp|cnn|encdec]
//!            [--precond ic0] [--budget 1200] [--bundle model.bundle] [--out widths.csv]
//! ppdl serve --bundle model.bundle [--queue 256] [--batch 64] [--cache 1024] [--telemetry]
//! ppdl serve --listen 127.0.0.1:7433 --bundle a.bundle --bundle b.bundle [--bundle-dir models/]
//! ppdl serve --unix /run/ppdl.sock --bundle-dir models/
//! ```
//!
//! Every subcommand accepts `--threads <n>` to pin the thread count —
//! applied before any parallel work runs, because the `PPDL_THREADS`
//! environment override is sampled exactly once at first use (see
//! `ppdl_solver::parallel::current_threads`).

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use powerplanningdl::analysis::{AnalysisOptions, IrDropMap, StaticAnalysis};
use powerplanningdl::core::pipeline::BenchmarkSourceStage;
use powerplanningdl::core::{
    synthesize, DlFlowConfig, PowerPlanningDl, SynthConfig, TrainedBundle,
};
use powerplanningdl::floorplan::SvgOptions;
use powerplanningdl::netlist::{parse_spice, IbmPgPreset, Orientation, SyntheticBenchmark};
use powerplanningdl::service::{
    serve_ndjson, serve_tcp, serve_unix, ModelRegistry, NetConfig, ServiceConfig,
};
use powerplanningdl::solver::PrecondKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("flow") => cmd_flow(&args[1..]),
        Some("train") => cmd_train(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
ppdl — reliability-aware power grid design using deep learning

USAGE:
  ppdl generate --preset <name> [--scale <f>] [--seed <n>] --out <deck.spice> [--svg <fp.svg>]
  ppdl analyze <deck.spice> [--map <map.csv>] [--resolution <n>] [--precond <kind>]
  ppdl flow --preset <name> [--scale <f>] [--seed <n>] [--fast] [--gamma <f>] [--model <out.ppdl>]
            [--precond <kind>]
  ppdl train --preset <name> [--scale <f>] [--seed <n>] [--fast]
             [--backend mlp|cnn|encdec] --out <model.bundle>
  ppdl synth --preset <name> [--scale <f>] [--seed <n>] [--fast] [--backend <kind>]
             [--precond <kind>] [--budget <n>] [--bundle <model.bundle>] [--out <widths.csv>]
  ppdl serve (--bundle <f>)* [--bundle-dir <dir>] [--queue <n>] [--batch <n>] [--cache <n>]
             [--pending <n>] [--telemetry]
             [--listen <addr:port> | --unix <sock>] [--max-clients <n>]

Every subcommand also accepts --threads <n> (pin the thread count before
any parallel work runs; overrides PPDL_THREADS). analyze, flow and synth
accept --precond <kind> to pick the preconditioner of the conventional
IR-drop solves (default ic0; an unknown kind lists the accepted ones).

synth runs predictor-in-the-loop synthesis: it trains (or loads, with
--bundle) a width model, anneals one width template per grid region
with the model as cost oracle, and verifies the result with real MNA
solves only at escalations and termination. --budget caps the oracle
calls; the run is bitwise deterministic for a fixed --seed at any
--threads count.

serve holds a *registry* of bundles — each --bundle file and every
*.bundle under --bundle-dir, registered under its file stem; the first
is the default — and reads NDJSON requests from stdin, answering on
stdout, e.g.
  {\"id\":\"q1\",\"gamma\":0.1,\"kind\":\"both\",\"seed\":5}
  {\"id\":\"q2\",\"loads\":[[0,0.0012]],\"stride\":2,\"bundle\":\"<name>\"}
  {\"cmd\":\"flush\"} | {\"cmd\":\"stats\"} | {\"cmd\":\"stats\",\"spans\":true} | {\"cmd\":\"quit\"}
Requests without \"bundle\" go to the default; {\"cmd\":\"load\",...} hot-swaps
a bundle, {\"cmd\":\"bundles\"} lists them. --telemetry additionally collects
process-wide spans/counters (solver, NN, pipeline) and dumps the snapshot
to stderr on exit. With --listen (TCP) / --unix (domain socket) the same
protocol serves concurrent connections instead, and {\"cmd\":\"shutdown\"}
stops the listener. Saturated bundles answer typed service/overloaded
errors (--pending bounds per-bundle admission, --max-clients the
connections).

PRESETS: ibmpg1..ibmpg6, ibmpgnew1, ibmpgnew2 (Table II of the paper)";

/// Tiny flag parser: `--key value` pairs plus positional arguments.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut f = Flags {
            positional: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    f.switches.push(name.to_string());
                } else {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    f.pairs.push((name.to_string(), v.clone()));
                }
            } else {
                f.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(f)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value '{v}' for --{key}")),
        }
    }

    /// Every value given for a repeatable `--key` flag, in order.
    fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

/// Applies `--threads <n>` through [`powerplanningdl::set_threads`].
/// Must run before the subcommand's first parallel call: the
/// `PPDL_THREADS` environment fallback is sampled exactly once, at the
/// first `current_threads()` call.
fn apply_threads(flags: &Flags) -> Result<(), String> {
    if let Some(n) = flags.get("threads") {
        let n: usize = n
            .parse()
            .map_err(|_| format!("bad value '{n}' for --threads"))?;
        powerplanningdl::set_threads(n);
    }
    Ok(())
}

/// Parses `--precond <kind>`, or `None` when the flag is absent.
fn precond_from(flags: &Flags) -> Result<Option<PrecondKind>, String> {
    flags
        .get("precond")
        .map(|s| s.parse::<PrecondKind>().map_err(|e| e.to_string()))
        .transpose()
}

fn preset_from(flags: &Flags) -> Result<IbmPgPreset, String> {
    let name = flags.get("preset").ok_or("--preset is required")?;
    name.parse()
        .map_err(|_| format!("unknown preset '{name}' (expected ibmpg1..ibmpgnew2)"))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    apply_threads(&flags)?;
    let preset = preset_from(&flags)?;
    let scale: f64 = flags.get_parse("scale", 0.01)?;
    let seed: u64 = flags.get_parse("seed", 7)?;
    let out = PathBuf::from(flags.get("out").ok_or("--out is required")?);

    let bench = SyntheticBenchmark::from_preset(preset, scale, seed).map_err(|e| e.to_string())?;
    let stats = bench.network().stats();
    std::fs::write(&out, bench.network().to_spice()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} nodes, {} resistors, {} sources, {} loads)",
        out.display(),
        stats.nodes,
        stats.resistors,
        stats.sources,
        stats.loads
    );
    if let Some(svg_path) = flags.get("svg") {
        let svg = bench.floorplan().to_svg(
            bench.strap_plan(Orientation::Vertical).ok().as_ref(),
            bench.strap_plan(Orientation::Horizontal).ok().as_ref(),
            &SvgOptions::default(),
        );
        std::fs::write(svg_path, svg).map_err(|e| e.to_string())?;
        println!("wrote {svg_path}");
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    apply_threads(&flags)?;
    let deck_path = flags
        .positional
        .first()
        .ok_or("analyze needs a deck path")?;
    let resolution: usize = flags.get_parse("resolution", 100)?;

    let deck = std::fs::read_to_string(deck_path).map_err(|e| e.to_string())?;
    let network = parse_spice(&deck).map_err(|e| e.to_string())?;
    let stats = network.stats();
    println!(
        "{deck_path}: #n={} #r={} #v={} #i={}",
        stats.nodes, stats.resistors, stats.sources, stats.loads
    );
    let analyzer = match precond_from(&flags)? {
        Some(kind) => StaticAnalysis::new(AnalysisOptions {
            preconditioner: kind,
            ..AnalysisOptions::default()
        }),
        None => StaticAnalysis::default(),
    };
    let report = analyzer.solve(&network).map_err(|e| e.to_string())?;
    let (node, worst) = report.worst_drop().ok_or("grid has no non-ground node")?;
    println!(
        "worst-case IR drop: {:.3} mV at {} (mean {:.3} mV, {} unknowns, {} CG iterations)",
        worst * 1e3,
        network.node_name(node),
        report.mean_drop() * 1e3,
        report.unknowns(),
        report.iterations()
    );
    if let Some(map_path) = flags.get("map") {
        let map =
            IrDropMap::from_report(&network, &report, resolution).map_err(|e| e.to_string())?;
        std::fs::write(map_path, map.to_csv()).map_err(|e| e.to_string())?;
        println!(
            "wrote {map_path} ({resolution}x{resolution} cells, {:.1}..{:.1} mV)",
            map.min_mv(),
            map.max_mv()
        );
    }
    Ok(())
}

fn cmd_flow(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["fast"])?;
    apply_threads(&flags)?;
    let preset = preset_from(&flags)?;
    let scale: f64 = flags.get_parse("scale", 0.01)?;
    let seed: u64 = flags.get_parse("seed", 7)?;
    let gamma: f64 = flags.get_parse("gamma", 0.10)?;

    let mut builder = DlFlowConfig::builder().perturbation_gamma(gamma);
    if flags.has("fast") {
        builder = builder.fast();
    }
    if let Some(kind) = precond_from(&flags)? {
        builder = builder.preconditioner(kind);
    }
    let config = builder.try_build().map_err(|e| e.to_string())?;
    let (outcome, _) = PowerPlanningDl::new(config)
        .run(BenchmarkSourceStage::preset(preset, scale, seed), None)
        .map_err(|e| e.to_string())?;

    println!("benchmark:        {preset} at scale {scale} (seed {seed})");
    println!(
        "conventional:     {} sizing iterations, worst IR {:.2} mV",
        outcome.conventional_iterations, outcome.conventional_worst_ir_mv
    );
    println!(
        "width model:      r2 {:.3}, MSE {:.4}, correlation {:.3}",
        outcome.width_metrics.r2,
        outcome.width_metrics.mse_scaled,
        outcome.width_metrics.correlation
    );
    println!(
        "predicted IR:     {:.2} mV ({:+.1}% vs conventional)",
        outcome.predicted_worst_ir_mv,
        100.0 * (outcome.predicted_worst_ir_mv - outcome.conventional_worst_ir_mv)
            / outcome.conventional_worst_ir_mv
    );
    println!(
        "convergence time: {:.2} ms conventional vs {:.2} ms DL ({:.2}x)",
        outcome.timing.conventional.as_secs_f64() * 1e3,
        outcome.timing.dl.as_secs_f64() * 1e3,
        outcome.timing.speedup
    );

    if let Some(model_path) = flags.get("model") {
        std::fs::write(model_path, outcome.predictor.to_text()).map_err(|e| e.to_string())?;
        println!("wrote trained model to {model_path}");
    }
    Ok(())
}

fn cmd_train(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["fast"])?;
    apply_threads(&flags)?;
    let preset = preset_from(&flags)?;
    let scale: f64 = flags.get_parse("scale", 0.01)?;
    let seed: u64 = flags.get_parse("seed", 7)?;
    let out = PathBuf::from(flags.get("out").ok_or("--out is required")?);

    let mut builder = powerplanningdl::core::DlFlowConfig::builder().seed(seed);
    if flags.has("fast") {
        builder = builder.fast();
    }
    if let Some(tag) = flags.get("backend") {
        let kind = powerplanningdl::core::BackendKind::parse(tag).map_err(|e| e.to_string())?;
        builder = builder.backend(kind);
    }
    let config = builder.try_build().map_err(|e| e.to_string())?;
    let bundle =
        TrainedBundle::train(preset, scale, seed, config, None).map_err(|e| e.to_string())?;
    bundle.save(&out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} {} at scale {scale}, seed {seed}, {} golden widths, stride {})",
        out.display(),
        bundle.backend().tag(),
        preset.name(),
        bundle.golden_widths.len(),
        bundle.meta.inference_stride
    );
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["fast"])?;
    apply_threads(&flags)?;
    let scale: f64 = flags.get_parse("scale", 0.01)?;
    let seed: u64 = flags.get_parse("seed", 7)?;

    // The oracle: a persisted bundle when given, otherwise train one
    // in-process exactly like `ppdl train` would.
    let bundle = match flags.get("bundle") {
        Some(path) => {
            let bundle = TrainedBundle::load(path).map_err(|e| e.to_string())?;
            println!("loaded bundle {path} ({})", bundle.meta.label());
            bundle
        }
        None => {
            let preset = preset_from(&flags)?;
            let mut builder = powerplanningdl::core::DlFlowConfig::builder().seed(seed);
            if flags.has("fast") {
                builder = builder.fast();
            }
            if let Some(tag) = flags.get("backend") {
                let kind =
                    powerplanningdl::core::BackendKind::parse(tag).map_err(|e| e.to_string())?;
                builder = builder.backend(kind);
            }
            let config = builder.try_build().map_err(|e| e.to_string())?;
            TrainedBundle::train(preset, scale, seed, config, None).map_err(|e| e.to_string())?
        }
    };

    let mut config = if flags.has("fast") {
        SynthConfig::fast()
    } else {
        SynthConfig::default()
    };
    config.seed = seed;
    config.budget = flags.get_parse("budget", config.budget)?;
    if let Some(kind) = precond_from(&flags)? {
        config.precond = kind;
    }
    let result = synthesize(&bundle, &config, None).map_err(|e| e.to_string())?;

    println!(
        "template:         {} regions x {}-level ladder ({:.3}..{:.3} um)",
        result.regions,
        result.ladder.len(),
        result.ladder.first().copied().unwrap_or(0.0),
        result.ladder.last().copied().unwrap_or(0.0)
    );
    println!(
        "search:           {} proposed, {} accepted over {} rounds ({} oracle calls, {} evaluated)",
        result.proposed, result.accepted, result.rounds, result.oracle_calls, result.oracle_evals
    );
    println!(
        "verification:     {} full MNA solves, {} repair round(s)",
        result.full_solves, result.repair_rounds
    );
    println!(
        "worst IR:         {:.3} mV verified vs {:.3} mV target ({})",
        result.worst_ir_mv(),
        result.target_worst_ir * 1e3,
        if result.feasible {
            "feasible"
        } else {
            "INFEASIBLE"
        }
    );
    println!(
        "metal area:       {:.0} um^2 ({:+.1}% vs golden widths)",
        result.metal_area,
        100.0 * (result.metal_area - result.golden_metal_area) / result.golden_metal_area
    );

    if let Some(out) = flags.get("out") {
        let mut csv = String::from("strap,width_um\n");
        for (i, w) in result.widths.iter().enumerate() {
            csv.push_str(&format!("{i},{w}\n"));
        }
        std::fs::write(out, csv).map_err(|e| e.to_string())?;
        println!("wrote {out} ({} strap widths)", result.widths.len());
    }
    if !result.feasible {
        return Err(format!(
            "synthesis missed the IR margin: {:.3} mV > {:.3} mV after {} repair round(s)",
            result.worst_ir_mv(),
            result.target_worst_ir * 1e3,
            result.repair_rounds
        ));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["telemetry"])?;
    apply_threads(&flags)?;
    let telemetry = flags.has("telemetry");
    if telemetry {
        powerplanningdl::obs::set_enabled(true);
    }
    if flags.get("listen").is_some() && flags.get("unix").is_some() {
        return Err("--listen and --unix are mutually exclusive".to_string());
    }
    let defaults = ServiceConfig::default();
    let config = ServiceConfig {
        queue_capacity: flags.get_parse("queue", defaults.queue_capacity)?,
        max_batch: flags.get_parse("batch", defaults.max_batch)?,
        cache_capacity: flags.get_parse("cache", defaults.cache_capacity)?,
        max_pending: flags.get_parse("pending", defaults.max_pending)?,
    };

    // Bundle set: every --bundle file, plus every *.bundle under
    // --bundle-dir (sorted for a deterministic registry), each named
    // by its file stem.
    let mut paths: Vec<PathBuf> = flags.get_all("bundle").iter().map(PathBuf::from).collect();
    if let Some(dir) = flags.get("bundle-dir") {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(|e| format!("--bundle-dir {dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("bundle") {
                found.push(path);
            }
        }
        found.sort();
        paths.extend(found);
    }
    if paths.is_empty() {
        return Err("serve needs at least one --bundle or a non-empty --bundle-dir".into());
    }

    let registry = Arc::new(ModelRegistry::new(config));
    for path in &paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("cannot derive a bundle name from {}", path.display()))?;
        registry
            .install_path(name, path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let core = registry
            .get(name)
            .ok_or_else(|| format!("bundle '{name}' vanished after install"))?;
        eprintln!(
            "loaded bundle '{name}' from {} ({})",
            path.display(),
            core.bundle().meta.label()
        );
    }

    let net = NetConfig {
        max_clients: flags.get_parse("max-clients", NetConfig::default().max_clients)?,
    };
    if let Some(addr) = flags.get("listen") {
        let listener = TcpListener::bind(addr).map_err(|e| format!("--listen {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // Parsed by clients/tests that bind port 0.
        eprintln!("listening on {local}");
        serve_tcp(&registry, &listener, &net).map_err(|e| e.to_string())?;
    } else if let Some(sock) = flags.get("unix") {
        // A stale socket file from a dead process blocks bind.
        let _ = std::fs::remove_file(sock);
        let listener = UnixListener::bind(sock).map_err(|e| format!("--unix {sock}: {e}"))?;
        eprintln!("listening on {sock}");
        let result = serve_unix(&registry, &listener, &net);
        let _ = std::fs::remove_file(sock);
        result.map_err(|e| e.to_string())?;
    } else {
        let mut stdout = std::io::stdout().lock();
        serve_ndjson(&registry, std::io::stdin().lock(), &mut stdout).map_err(|e| e.to_string())?;
    }
    eprintln!("{}", registry.stats_json());
    if telemetry {
        eprintln!("{}", registry.telemetry_json());
    }
    Ok(())
}
