//! Architecture rules: the declared crate-layering DAG and the blessed
//! hot-path instrumentation list.
//!
//! The DAG lives in `lint-layers.txt` at the workspace root — one line
//! per crate, `crate: dep dep …` using crate *directory* names — and
//! is enforced in both directions:
//!
//! * `arch/layering` flags any `Cargo.toml` dependency or resolved
//!   `use`/path reference that the DAG does not allow.
//! * [`dag_mismatches`] (the CLI's `--check-dag`) asserts the DAG
//!   matches the manifests *exactly*, so the declared architecture can
//!   never drift loose (an allowed-but-unused edge is as much rot as a
//!   forbidden one).
//!
//! `obs/uninstrumented-hot-path` closes the loop with `ppdl-obs`: the
//! functions on the blessed hot-path list ([`HOT_PATHS`]: CG inner
//! solve, the GEMM kernels, pipeline stage driver, service batch
//! flush, MNA solve, Kirchhoff estimate) must contain telemetry —
//! directly or in a direct callee — and must keep *existing* at their
//! declared locations, so a rename can't silently drop coverage.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lexer::TokKind;
use crate::rules::{Finding, ARCH_LAYERING, UNINSTRUMENTED_HOT_PATH};
use crate::symbols::{FileSem, Symbols};
use crate::walk::WorkspaceInfo;

/// The declared crate-layering DAG, keyed by crate directory name.
#[derive(Debug, Default, Clone)]
pub struct Layering {
    /// Crate dir → the crate dirs it may depend on.
    pub allowed: BTreeMap<String, BTreeSet<String>>,
}

/// The file the DAG is declared in, relative to the workspace root.
pub const LAYERS_FILE: &str = "lint-layers.txt";

/// Parses `lint-layers.txt` text: `crate: dep dep …` lines, `#`
/// comments, blank lines ignored.
#[must_use]
pub fn parse_layering(text: &str) -> Layering {
    let mut layering = Layering::default();
    for raw in text.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, deps)) = line.split_once(':') else {
            continue;
        };
        layering.allowed.insert(
            name.trim().to_string(),
            deps.split_whitespace().map(str::to_string).collect(),
        );
    }
    layering
}

/// Loads the DAG from `root`; `None` (rule inert) when the file is
/// absent — fixture workspaces without one are lexed-only.
#[must_use]
pub fn load_layering(root: &Path) -> Option<Layering> {
    let text = fs::read_to_string(root.join(LAYERS_FILE)).ok()?;
    Some(parse_layering(&text))
}

/// `arch/layering`: manifests and source references must stay inside
/// the declared DAG.
pub fn check_layering(
    ws: &WorkspaceInfo,
    files: &[FileSem],
    layering: &Layering,
    out: &mut Vec<Finding>,
) {
    // Package name → crate dir, for mapping Cargo.toml deps.
    let pkg_to_dir: BTreeMap<&str, &str> = ws
        .crates
        .iter()
        .map(|c| (c.pkg_name.as_str(), c.dir_name.as_str()))
        .collect();
    let lib_to_dir: BTreeMap<&str, &str> = ws
        .crates
        .iter()
        .map(|c| (c.lib_name.as_str(), c.dir_name.as_str()))
        .collect();

    for c in &ws.crates {
        let manifest_path = if c.rel_dir == "." {
            "Cargo.toml".to_string()
        } else {
            format!("{}/Cargo.toml", c.rel_dir)
        };
        let Some(allowed) = layering.allowed.get(&c.dir_name) else {
            out.push(Finding {
                rule: ARCH_LAYERING,
                path: manifest_path,
                line: 1,
                detail: format!("crate '{}' is not declared in {LAYERS_FILE}", c.dir_name),
            });
            continue;
        };
        for (dep, line) in c.deps.iter().zip(&c.dep_lines) {
            let Some(dep_dir) = pkg_to_dir.get(dep.as_str()) else {
                continue; // external dependency; out of DAG scope
            };
            if !allowed.contains(*dep_dir) {
                out.push(Finding {
                    rule: ARCH_LAYERING,
                    path: manifest_path.clone(),
                    line: *line,
                    detail: format!(
                        "'{}' may not depend on '{dep_dir}' per {LAYERS_FILE}",
                        c.dir_name
                    ),
                });
            }
        }
    }

    // Source references: `use other_lib::…` and fully-qualified
    // `other_lib::…` paths in code.
    for file in files {
        let Some(allowed) = layering.allowed.get(&file.crate_dir) else {
            continue; // already reported once at the manifest
        };
        let mut seen_lines: BTreeSet<u32> = BTreeSet::new();
        let mut check = |lib: &str, line: u32, out: &mut Vec<Finding>| {
            let Some(dep_dir) = lib_to_dir.get(lib) else {
                return;
            };
            if *dep_dir == file.crate_dir || allowed.contains(*dep_dir) {
                return;
            }
            if seen_lines.insert(line) {
                out.push(Finding {
                    rule: ARCH_LAYERING,
                    path: file.path.clone(),
                    line,
                    detail: format!(
                        "'{}' references '{dep_dir}' ({lib}) not allowed by {LAYERS_FILE}",
                        file.crate_dir
                    ),
                });
            }
        };
        for u in &file.parsed.uses {
            if let Some(head) = u.path.first() {
                check(head, u.line, out);
            }
        }
        for (j, t) in file.toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && file.toks.get(j + 1).is_some_and(|n| n.text == "::")
                && (j == 0 || file.toks[j - 1].text != "::")
            {
                check(&t.text, t.line, out);
            }
        }
    }
}

/// Differences between the declared DAG and the manifests' actual
/// workspace-local dependency edges. Empty means they match exactly.
#[must_use]
pub fn dag_mismatches(ws: &WorkspaceInfo, layering: &Layering) -> Vec<String> {
    let pkg_to_dir: BTreeMap<&str, &str> = ws
        .crates
        .iter()
        .map(|c| (c.pkg_name.as_str(), c.dir_name.as_str()))
        .collect();
    let mut out = Vec::new();
    let mut seen_dirs = BTreeSet::new();
    for c in &ws.crates {
        seen_dirs.insert(c.dir_name.clone());
        let actual: BTreeSet<String> = c
            .deps
            .iter()
            .filter_map(|d| pkg_to_dir.get(d.as_str()).map(|s| (*s).to_string()))
            .collect();
        let declared = layering
            .allowed
            .get(&c.dir_name)
            .cloned()
            .unwrap_or_default();
        if !layering.allowed.contains_key(&c.dir_name) {
            out.push(format!("crate '{}' missing from {LAYERS_FILE}", c.dir_name));
            continue;
        }
        for extra in declared.difference(&actual) {
            out.push(format!(
                "{LAYERS_FILE} allows '{}' -> '{extra}' but Cargo.toml has no such dependency",
                c.dir_name
            ));
        }
        for missing in actual.difference(&declared) {
            out.push(format!(
                "Cargo.toml has '{}' -> '{missing}' but {LAYERS_FILE} does not allow it",
                c.dir_name
            ));
        }
    }
    for dir in layering.allowed.keys() {
        if !seen_dirs.contains(dir) {
            out.push(format!(
                "{LAYERS_FILE} declares '{dir}' which is not a workspace crate"
            ));
        }
    }
    out
}

/// The blessed hot-path list: (file path suffix, fn name). These are
/// the kernels and drivers DESIGN.md commits to keeping instrumented.
pub const HOT_PATHS: &[(&str, &str)] = &[
    ("solver/src/cg.rs", "solve_core"),
    ("nn/src/gemm.rs", "gemm_nn"),
    ("nn/src/gemm.rs", "gemm_nt"),
    ("nn/src/gemm.rs", "gemm_tn"),
    ("nn/src/gemm.rs", "gemm_nt_bias_rows"),
    ("nn/src/gemm.rs", "dense_forward"),
    ("core/src/pipeline/mod.rs", "run_stage"),
    ("service/src/lib.rs", "run_batch"),
    ("analysis/src/mna.rs", "solve"),
    ("core/src/irpredict.rs", "predict"),
];

/// Whether a body token range contains telemetry: an `ppdl_obs` path,
/// a span/counter/histogram call, or a metric-handle method.
fn has_obs_marker(file: &FileSem, range: (usize, usize)) -> bool {
    let (start, end) = range;
    for j in start..end.min(file.toks.len()) {
        let t = &file.toks[j];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "ppdl_obs" | "span" | "counter" | "counter_add" | "histogram" | "observe"
            | "record_span" => return true,
            "inc" | "record" | "add_sample"
                if j > 0
                    && file.toks[j - 1].text == "."
                    && file.toks.get(j + 1).is_some_and(|n| n.text == "(") =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// `obs/uninstrumented-hot-path`: each [`HOT_PATHS`] entry must exist
/// and carry telemetry in its body or a direct callee's body.
///
/// An entry whose *crate* is absent from the workspace is skipped
/// silently (fixture workspaces); an entry whose crate exists but
/// whose fn is gone reports loudly, so a rename can't shed coverage.
pub fn check_hot_paths(
    files: &[FileSem],
    symbols: &Symbols,
    graph: &crate::callgraph::CallGraph,
    out: &mut Vec<Finding>,
) {
    for (suffix, name) in HOT_PATHS {
        let crate_dir = suffix.split('/').next().unwrap_or_default();
        if !files.iter().any(|f| f.crate_dir == crate_dir) {
            continue;
        }
        let ids: Vec<usize> = symbols
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == *name && files[f.file_idx].path.ends_with(suffix))
            .map(|(id, _)| id)
            .collect();
        if ids.is_empty() {
            out.push(Finding {
                rule: UNINSTRUMENTED_HOT_PATH,
                path: (*suffix).to_string(),
                line: 1,
                detail: format!(
                    "blessed hot-path fn '{name}' not found; update the HOT_PATHS list \
                     if it moved"
                ),
            });
            continue;
        }
        for id in ids {
            let sym = &symbols.fns[id];
            let file = &files[sym.file_idx];
            let instrumented = sym.body.is_some_and(|b| has_obs_marker(file, b))
                || graph.callees[id].iter().any(|&c| {
                    let cs = &symbols.fns[c];
                    cs.body
                        .is_some_and(|b| has_obs_marker(&files[cs.file_idx], b))
                });
            if !instrumented {
                out.push(Finding {
                    rule: UNINSTRUMENTED_HOT_PATH,
                    path: file.path.clone(),
                    line: sym.line,
                    detail: format!(
                        "hot-path fn '{name}' has no span/counter call (directly or in a \
                         direct callee)"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::lexer::{lex, strip_test_code};
    use crate::parse::parse_items;
    use crate::rules::FileClass;
    use crate::symbols::module_path_of;
    use crate::walk::CrateInfo;

    fn file(path: &str, crate_dir: &str, lib: &str, src: &str) -> FileSem {
        let toks = strip_test_code(&lex(src));
        let parsed = parse_items(&toks);
        FileSem {
            path: path.to_string(),
            crate_dir: crate_dir.to_string(),
            lib_name: lib.to_string(),
            class: FileClass::Lib,
            module: module_path_of(path),
            toks,
            parsed,
        }
    }

    fn krate(dir: &str, pkg: &str, deps: &[&str]) -> CrateInfo {
        CrateInfo {
            dir_name: dir.to_string(),
            pkg_name: pkg.to_string(),
            lib_name: pkg.replace('-', "_"),
            rel_dir: format!("crates/{dir}"),
            deps: deps.iter().map(|d| (*d).to_string()).collect(),
            dep_lines: deps
                .iter()
                .enumerate()
                .map(|(i, _)| i as u32 + 10)
                .collect(),
        }
    }

    fn ws(crates: Vec<CrateInfo>) -> WorkspaceInfo {
        WorkspaceInfo {
            crates,
            files: Vec::new(),
        }
    }

    #[test]
    fn parse_and_roundtrip() {
        let l = parse_layering("# comment\nobs:\nsolver: obs\ncore: solver obs\n");
        assert!(l.allowed["obs"].is_empty());
        assert_eq!(l.allowed["solver"].len(), 1);
        assert!(l.allowed["core"].contains("solver"));
    }

    #[test]
    fn manifest_dep_outside_dag_is_flagged() {
        let w = ws(vec![
            krate("obs", "ppdl-obs", &[]),
            krate("solver", "ppdl-solver", &["ppdl-service"]),
            krate("service", "ppdl-service", &[]),
        ]);
        let l = parse_layering("obs:\nsolver: obs\nservice: solver\n");
        let mut out = Vec::new();
        check_layering(&w, &[], &l, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, ARCH_LAYERING);
        assert_eq!(out[0].path, "crates/solver/Cargo.toml");
        assert!(out[0].detail.contains("service"), "{out:?}");
    }

    #[test]
    fn use_path_outside_dag_is_flagged_and_allowed_edge_is_not() {
        let w = ws(vec![
            krate("obs", "ppdl-obs", &[]),
            krate("solver", "ppdl-solver", &["ppdl-obs"]),
            krate("service", "ppdl-service", &[]),
        ]);
        let l = parse_layering("obs:\nsolver: obs\nservice: solver\n");
        let files = vec![file(
            "crates/solver/src/lib.rs",
            "solver",
            "ppdl_solver",
            "use ppdl_obs::span;\nuse ppdl_service::ServiceCore;\n\
             fn f() { ppdl_service::net::listen(); }",
        )];
        let mut out = Vec::new();
        check_layering(&w, &files, &l, &mut out);
        let lines: Vec<u32> = out.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{out:?}");
    }

    #[test]
    fn dag_mismatch_detects_both_directions() {
        let w = ws(vec![
            krate("obs", "ppdl-obs", &[]),
            krate("solver", "ppdl-solver", &["ppdl-obs"]),
        ]);
        let exact = parse_layering("obs:\nsolver: obs\n");
        assert!(dag_mismatches(&w, &exact).is_empty());
        let loose = parse_layering("obs: solver\nsolver: obs\n");
        let m = dag_mismatches(&w, &loose);
        assert_eq!(m.len(), 1, "{m:?}");
        assert!(m[0].contains("no such dependency"), "{m:?}");
        let tight = parse_layering("obs:\nsolver:\n");
        let m = dag_mismatches(&w, &tight);
        assert_eq!(m.len(), 1, "{m:?}");
        assert!(m[0].contains("does not allow"), "{m:?}");
    }

    #[test]
    fn hot_path_instrumented_directly_or_via_callee_passes() {
        let files = vec![file(
            "crates/solver/src/cg.rs",
            "solver",
            "ppdl_solver",
            "fn record_it(n: usize) { ppdl_obs::counter_add(n); }\n\
             fn solve_core(n: usize) { record_it(n); }",
        )];
        let symbols = Symbols::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let mut out = Vec::new();
        check_hot_paths(&files, &symbols, &graph, &mut out);
        let cg: Vec<_> = out.iter().filter(|f| f.path.contains("cg.rs")).collect();
        assert!(cg.is_empty(), "{cg:?}");
    }

    #[test]
    fn hot_path_without_telemetry_or_missing_is_flagged() {
        let files = vec![file(
            "crates/solver/src/cg.rs",
            "solver",
            "ppdl_solver",
            "fn solve_core(n: usize) -> usize { n * 2 }",
        )];
        let symbols = Symbols::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let mut out = Vec::new();
        check_hot_paths(&files, &symbols, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].path.contains("cg.rs"));
        assert!(out[0].detail.contains("no span/counter"));
    }

    #[test]
    fn hot_path_fn_gone_from_present_crate_reports_not_found() {
        // The solver crate exists but solve_core was renamed away: the
        // rule must say so rather than silently dropping coverage.
        let files = vec![file(
            "crates/solver/src/cg.rs",
            "solver",
            "ppdl_solver",
            "fn solve_core_renamed(n: usize) -> usize { n }",
        )];
        let symbols = Symbols::build(&files);
        let graph = CallGraph::build(&files, &symbols);
        let mut out = Vec::new();
        check_hot_paths(&files, &symbols, &graph, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].detail.contains("not found"), "{out:?}");
        // Entries whose crate is absent entirely (nn, core, service)
        // are skipped: fixture workspaces stay clean.
        assert!(out.iter().all(|f| f.path.contains("cg.rs")), "{out:?}");
    }
}
