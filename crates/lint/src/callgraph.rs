//! The intra-workspace call graph and the reachability rules built on
//! it.
//!
//! Edges are resolved from each function body's token stream using the
//! owning file's `use` imports plus path syntax (`crate::`, `self::`,
//! `super::`, `Self::`, lib-qualified paths, and `.method(…)` calls
//! resolved through workspace `impl` blocks). Resolution is a
//! *may*-analysis: where the receiver type of a method call is
//! unknown, every workspace method of that name becomes a candidate.
//! Over-approximation only adds edges, which is the safe direction for
//! the two rules that consume the graph:
//!
//! * [`check_tainted_parallel`] — `determinism/tainted-parallel`: no
//!   function transitively reachable from a closure handed to the
//!   `ppdl_solver::parallel` entry points may draw from an RNG, read a
//!   wall clock, or touch `HashMap`/`HashSet`. File-local rules catch
//!   direct uses; this rule sees through helper functions.
//! * [`check_panic_reachable`] — `robustness/panic-reachable`:
//!   call-graph reachability from the serving surface (every public
//!   `ppdl-service` function) and the `solve*` public APIs to
//!   `unwrap`/`expect`/`panic!` in non-test library code.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lexer::{Tok, TokKind};
use crate::rules::{FileClass, Finding, PANIC_REACHABLE, TAINTED_PARALLEL};
use crate::symbols::{FileSem, Symbols};

/// The resolved call graph over [`Symbols`] function ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Callee ids per caller id.
    pub callees: Vec<BTreeSet<usize>>,
    /// Caller ids per callee id (reverse edges, for taint).
    pub callers: Vec<BTreeSet<usize>>,
    /// Total resolved edges.
    pub edge_count: usize,
}

/// One extracted call site (before resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Path segments; a lone segment is a bare call, `.m(…)` method
    /// calls carry the marker `"."` as first segment.
    pub path: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

/// Per-file import environment, with `crate`/`self`/`super` prefixes
/// normalized to lib-rooted absolute paths.
#[derive(Debug, Default)]
pub struct ImportEnv {
    /// Alias → absolute path segments.
    pub aliases: BTreeMap<String, Vec<String>>,
    /// Glob-imported path prefixes.
    pub globs: Vec<Vec<String>>,
}

impl ImportEnv {
    /// Builds the environment for one file.
    #[must_use]
    pub fn of(file: &FileSem) -> Self {
        let mut env = ImportEnv::default();
        for u in &file.parsed.uses {
            let abs = normalize_path(&u.path, &file.lib_name, &file.module);
            if u.alias == "*" {
                env.globs.push(abs);
            } else {
                env.aliases.insert(u.alias.clone(), abs);
            }
        }
        env
    }
}

/// Expands leading `crate`/`self`/`super` segments to a lib-rooted
/// absolute path.
fn normalize_path(path: &[String], lib_name: &str, module: &[String]) -> Vec<String> {
    let mut out: Vec<String>;
    let mut rest = path;
    match path.first().map(String::as_str) {
        Some("crate") => {
            out = vec![lib_name.to_string()];
            rest = &path[1..];
        }
        Some("self") => {
            out = vec![lib_name.to_string()];
            out.extend(module.iter().cloned());
            rest = &path[1..];
        }
        Some("super") => {
            out = vec![lib_name.to_string()];
            let mut m = module.to_vec();
            let mut i = 0;
            while path.get(i).is_some_and(|s| s == "super") {
                m.pop();
                i += 1;
            }
            out.extend(m);
            rest = &path[i..];
        }
        _ => out = Vec::new(),
    }
    out.extend(rest.iter().cloned());
    out
}

/// Extracts call sites from a body token range. `self_type` is the
/// enclosing impl type, used to ground `self.m(…)` / `Self::m(…)`.
#[must_use]
pub fn extract_calls(
    toks: &[Tok],
    range: (usize, usize),
    self_type: Option<&str>,
) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    let t = |k: usize| toks.get(k).map(|t| t.text.as_str());
    let is_ident = |k: usize| toks.get(k).is_some_and(|t| t.kind == TokKind::Ident);
    let mut j = start;
    while j < end.min(toks.len()) {
        if !is_ident(j) {
            j += 1;
            continue;
        }
        // `name(`, `name::<T>(`, `.name(`, `a::b::name(`.
        let mut call_paren = None;
        if t(j + 1) == Some("(") {
            call_paren = Some(j + 1);
        } else if t(j + 1) == Some("::") && t(j + 2) == Some("<") {
            // Turbofish: find the matching `>` then require `(`.
            let mut depth = 0i32;
            let mut k = j + 2;
            while k < end.min(toks.len()) {
                match t(k) {
                    Some("<") => depth += 1,
                    Some(">") => {
                        let arrow = matches!(t(k - 1), Some("-") | Some("="));
                        if !arrow {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    Some(";") | Some("{") => break,
                    _ => {}
                }
                k += 1;
            }
            if t(k) == Some(">") && t(k + 1) == Some("(") {
                call_paren = Some(k + 1);
            }
        }
        let Some(_paren) = call_paren else {
            j += 1;
            continue;
        };
        let name = toks[j].text.clone();
        let line = toks[j].line;
        // Keywords that look like calls.
        if matches!(
            name.as_str(),
            "if" | "while" | "for" | "match" | "return" | "fn" | "move" | "loop" | "in" | "as"
        ) {
            j += 1;
            continue;
        }
        // Nested fn declaration, not a call.
        if j > start && t(j - 1) == Some("fn") {
            j += 1;
            continue;
        }
        if j > start && t(j - 1) == Some(".") {
            // Method call; ground a literal `self.` receiver.
            let path = if j >= 2 && t(j - 2) == Some("self") && self_type.is_some() {
                vec![
                    "<self>".to_string(),
                    self_type.unwrap_or_default().to_string(),
                    name,
                ]
            } else {
                vec![".".to_string(), name]
            };
            out.push(CallSite { path, line });
            j += 1;
            continue;
        }
        // Walk the `::` chain backwards.
        let mut k = j;
        while k >= start + 2 && t(k - 1) == Some("::") && is_ident(k - 2) {
            k -= 2;
        }
        let mut path: Vec<String> = (k..=j)
            .step_by(2)
            .filter_map(|p| toks.get(p).map(|t| t.text.clone()))
            .collect();
        if path.first().is_some_and(|s| s == "Self") {
            if let Some(st) = self_type {
                path[0] = st.to_string();
            }
        }
        out.push(CallSite { path, line });
        j += 1;
    }
    out
}

/// Resolves one call site to candidate fn ids.
#[must_use]
pub fn resolve_call(
    site: &CallSite,
    file: &FileSem,
    file_idx: usize,
    env: &ImportEnv,
    symbols: &Symbols,
) -> Vec<usize> {
    let segs = &site.path;
    if segs.is_empty() {
        return Vec::new();
    }
    // `.m(…)` with unknown receiver: every workspace method named `m`.
    if segs[0] == "." {
        return symbols.methods_named(&segs[1]).to_vec();
    }
    // `self.m(…)`: methods of the enclosing impl type, falling back to
    // name-only candidates (trait default methods, blanket impls).
    if segs[0] == "<self>" {
        let ids = symbols.methods_of(&segs[1], &segs[2]);
        if !ids.is_empty() {
            return ids.to_vec();
        }
        return symbols.methods_named(&segs[2]).to_vec();
    }
    if segs.len() == 1 {
        let name = &segs[0];
        // Same file first (any inline module), then same module in
        // crate, then imports, then glob imports.
        let local: Vec<usize> = symbols
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file_idx == file_idx && f.name == *name && f.self_type.is_none())
            .map(|(id, _)| id)
            .collect();
        if !local.is_empty() {
            return local;
        }
        let mut q = vec![file.lib_name.clone()];
        q.extend(file.module.iter().cloned());
        q.push(name.clone());
        if let Some(id) = symbols.by_qualified(&q.join("::")) {
            return vec![id];
        }
        if let Some(abs) = env.aliases.get(name) {
            return symbols.resolve_absolute(abs);
        }
        for g in &env.globs {
            let mut p = g.clone();
            p.push(name.clone());
            let ids = symbols.resolve_absolute(&p);
            if !ids.is_empty() {
                return ids;
            }
        }
        // Crate-wide free-fn fallback (same-crate helper reached
        // through a re-export or path the parser didn't see).
        return symbols.free_in_crate(&file.lib_name, name).to_vec();
    }
    // Multi-segment: normalize and expand the head.
    let abs = normalize_path(segs, &file.lib_name, &file.module);
    let head = &abs[0];
    // Import alias head: `synth::run()` after `use ppdl_core::synth;`.
    if let Some(expansion) = env.aliases.get(head) {
        let mut p = expansion.clone();
        p.extend(abs[1..].iter().cloned());
        let ids = symbols.resolve_absolute(&p);
        if !ids.is_empty() {
            return ids;
        }
        // The alias may name a type: `Type::new()` with `use x::Type;`.
        if abs.len() == 2 && symbols.is_workspace_type(head) {
            return symbols.methods_of(head, &abs[1]).to_vec();
        }
        return Vec::new();
    }
    // Workspace type head: `CsrMatrix::from_triplets(…)`.
    if abs.len() == 2 && symbols.is_workspace_type(head) {
        return symbols.methods_of(head, &abs[1]).to_vec();
    }
    // Absolute lib-rooted path (includes normalized crate/self/super).
    let ids = symbols.resolve_absolute(&abs);
    if !ids.is_empty() {
        return ids;
    }
    // Module-relative path: `helpers::go()` for a sibling module.
    let mut p = vec![file.lib_name.clone()];
    p.extend(file.module.iter().cloned());
    p.extend(abs.iter().cloned());
    symbols.resolve_absolute(&p)
}

impl CallGraph {
    /// Builds the graph for all files.
    #[must_use]
    pub fn build(files: &[FileSem], symbols: &Symbols) -> Self {
        let n = symbols.fns.len();
        let mut g = CallGraph {
            callees: vec![BTreeSet::new(); n],
            callers: vec![BTreeSet::new(); n],
            edge_count: 0,
        };
        let envs: Vec<ImportEnv> = files.iter().map(ImportEnv::of).collect();
        for (id, sym) in symbols.fns.iter().enumerate() {
            let Some(body) = sym.body else { continue };
            let file = &files[sym.file_idx];
            for site in extract_calls(&file.toks, body, sym.self_type.as_deref()) {
                for callee in resolve_call(&site, file, sym.file_idx, &envs[sym.file_idx], symbols)
                {
                    if callee != id && g.callees[id].insert(callee) {
                        g.callers[callee].insert(id);
                        g.edge_count += 1;
                    }
                }
            }
        }
        g
    }
}

// ---------------------------------------------------------------------------
// determinism/tainted-parallel
// ---------------------------------------------------------------------------

/// What a function body does that is unsafe inside a parallel closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Draws from an RNG (`gen_range`, `next_u64`, `shuffle`, …).
    Rng,
    /// Reads a wall clock (`Instant::now`, `SystemTime::now`).
    Clock,
    /// Touches `HashMap`/`HashSet` (iteration order leaks).
    HashIter,
}

impl TaintKind {
    const ALL: [TaintKind; 3] = [TaintKind::Rng, TaintKind::Clock, TaintKind::HashIter];

    fn index(self) -> usize {
        match self {
            TaintKind::Rng => 0,
            TaintKind::Clock => 1,
            TaintKind::HashIter => 2,
        }
    }

    fn label(self) -> &'static str {
        match self {
            TaintKind::Rng => "an RNG draw",
            TaintKind::Clock => "a wall-clock read",
            TaintKind::HashIter => "HashMap/HashSet",
        }
    }
}

/// RNG draw method/fn names from the vendored `rand` surface.
const RNG_DRAWS: &[&str] = &[
    "gen_range",
    "gen_bool",
    "next_u32",
    "next_u64",
    "shuffle",
    "sample_from",
];

/// The `ppdl_solver::parallel` entry points whose closures must stay
/// deterministic.
pub const PAR_ENTRIES: &[&str] = &["par_map_vec"];

/// Scans a token range for primitive taint sources. Returns
/// (kind, line, short description) per kind found (first hit wins).
fn scan_taints(toks: &[Tok], range: (usize, usize)) -> BTreeMap<TaintKind, (u32, String)> {
    let mut out = BTreeMap::new();
    let (start, end) = range;
    let t = |k: usize| toks.get(k).map(|t| t.text.as_str());
    for (j, tok) in toks
        .iter()
        .enumerate()
        .take(end.min(toks.len()))
        .skip(start)
    {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let name = tok.text.as_str();
        if RNG_DRAWS.contains(&name) && t(j + 1) == Some("(") {
            out.entry(TaintKind::Rng)
                .or_insert((tok.line, format!("{name}()")));
        }
        if (name == "Instant" || name == "SystemTime")
            && t(j + 1) == Some("::")
            && t(j + 2) == Some("now")
        {
            out.entry(TaintKind::Clock)
                .or_insert((tok.line, format!("{name}::now()")));
        }
        if name == "HashMap" || name == "HashSet" {
            out.entry(TaintKind::HashIter)
                .or_insert((tok.line, name.to_string()));
        }
    }
    out
}

/// One entry per fn: `Some((description, via))` when tainted, where
/// `via` is the callee the taint arrived through (`None` for
/// primitive sources).
type TaintSlots = Vec<Option<(String, Option<usize>)>>;

/// Per-kind taint state over all fns, with witness links for chain
/// reconstruction.
pub struct Taint {
    /// Indexed `state[kind.index()][fn]`.
    state: [TaintSlots; 3],
}

impl Taint {
    /// Computes the fixpoint: a fn is tainted if its body has a
    /// primitive source or any callee is tainted. Functions in the
    /// blessed telemetry/reporting crates (`obs`, `bench`) are never
    /// sources and do not propagate.
    #[must_use]
    pub fn compute(files: &[FileSem], symbols: &Symbols, graph: &CallGraph) -> Self {
        let n = symbols.fns.len();
        let exempt: Vec<bool> = symbols
            .fns
            .iter()
            .map(|f| matches!(f.crate_dir.as_str(), "obs" | "bench"))
            .collect();
        let mut state: [TaintSlots; 3] = [vec![None; n], vec![None; n], vec![None; n]];
        let mut queue: VecDeque<(TaintKind, usize)> = VecDeque::new();
        for (id, sym) in symbols.fns.iter().enumerate() {
            if exempt[id] {
                continue;
            }
            let Some(body) = sym.body else { continue };
            for (kind, (_, desc)) in scan_taints(&files[sym.file_idx].toks, body) {
                state[kind.index()][id] = Some((desc, None));
                queue.push_back((kind, id));
            }
        }
        while let Some((kind, id)) = queue.pop_front() {
            for &caller in &graph.callers[id] {
                if exempt[caller] {
                    continue;
                }
                let slot = &mut state[kind.index()][caller];
                if slot.is_none() {
                    *slot = Some((String::new(), Some(id)));
                    queue.push_back((kind, caller));
                }
            }
        }
        Taint { state }
    }

    /// Whether `id` is tainted with `kind`.
    #[must_use]
    pub fn is_tainted(&self, kind: TaintKind, id: usize) -> bool {
        self.state[kind.index()][id].is_some()
    }

    /// Reconstructs a `helper_a → helper_b → sink` witness chain.
    #[must_use]
    pub fn chain(&self, kind: TaintKind, id: usize, symbols: &Symbols) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(c) = cur {
            if hops >= 6 {
                parts.push("…".to_string());
                break;
            }
            parts.push(symbols.fns[c].qualified());
            match &self.state[kind.index()][c] {
                Some((desc, via)) => {
                    if via.is_none() && !desc.is_empty() {
                        parts.push(desc.clone());
                    }
                    cur = *via;
                }
                None => break,
            }
            hops += 1;
        }
        parts.join(" → ")
    }
}

/// `determinism/tainted-parallel`: at each `parallel::*` call site,
/// nothing reachable from the argument region (the closures and any
/// function references passed) may draw RNG, read a clock, or touch a
/// hash collection.
pub fn check_tainted_parallel(
    files: &[FileSem],
    symbols: &Symbols,
    taint: &Taint,
    out: &mut Vec<Finding>,
) {
    let envs: Vec<ImportEnv> = files.iter().map(ImportEnv::of).collect();
    for (file_idx, file) in files.iter().enumerate() {
        // The parallel layer itself hosts the entry points.
        if file.path.ends_with("solver/src/parallel.rs") {
            continue;
        }
        for item in &file.parsed.fns {
            let Some((bstart, bend)) = item.body else {
                continue;
            };
            let toks = &file.toks;
            let mut j = bstart;
            while j < bend.min(toks.len()) {
                let is_entry = toks[j].kind == TokKind::Ident
                    && PAR_ENTRIES.contains(&toks[j].text.as_str())
                    && toks.get(j + 1).is_some_and(|t| t.text == "(");
                if !is_entry {
                    j += 1;
                    continue;
                }
                let site_line = toks[j].line;
                let entry_name = toks[j].text.clone();
                // Argument region: balanced parens.
                let mut depth = 0i32;
                let mut k = j + 1;
                while k < bend.min(toks.len()) {
                    match toks[k].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let region = (j + 2, k);
                let mut hits: BTreeMap<TaintKind, String> = BTreeMap::new();
                // Direct sources inside the region.
                for (kind, (_, desc)) in scan_taints(toks, region) {
                    hits.entry(kind)
                        .or_insert_with(|| format!("closure body: {desc}"));
                }
                // Calls inside the region.
                let mut callees = BTreeSet::new();
                for site in extract_calls(toks, region, item.self_type.as_deref()) {
                    if site.path.len() == 1 && PAR_ENTRIES.contains(&site.path[0].as_str()) {
                        continue;
                    }
                    callees.extend(resolve_call(
                        &site,
                        file,
                        file_idx,
                        &envs[file_idx],
                        symbols,
                    ));
                }
                // Function references passed by name (`par_map_vec(&v, helper)`).
                for p in region.0..region.1.min(toks.len()) {
                    if toks[p].kind != TokKind::Ident {
                        continue;
                    }
                    let followed_by_call = toks.get(p + 1).is_some_and(|t| t.text == "(");
                    let preceded = p > 0
                        && matches!(toks[p - 1].text.as_str(), "." | "::" | "fn" | "let" | "mut");
                    if followed_by_call || preceded {
                        continue;
                    }
                    let site = CallSite {
                        path: vec![toks[p].text.clone()],
                        line: toks[p].line,
                    };
                    // Only free fns resolve here; bare idents that are
                    // locals simply fail to resolve.
                    for id in resolve_call(&site, file, file_idx, &envs[file_idx], symbols) {
                        if symbols.fns[id].self_type.is_none() {
                            callees.insert(id);
                        }
                    }
                }
                for kind in TaintKind::ALL {
                    if hits.contains_key(&kind) {
                        continue;
                    }
                    if let Some(&id) = callees.iter().find(|&&id| taint.is_tainted(kind, id)) {
                        hits.insert(kind, taint.chain(kind, id, symbols));
                    }
                }
                for (kind, chain) in hits {
                    out.push(Finding {
                        rule: TAINTED_PARALLEL,
                        path: file.path.clone(),
                        line: site_line,
                        detail: format!("{entry_name} closure reaches {}: {chain}", kind.label()),
                    });
                }
                j = k.max(j + 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// robustness/panic-reachable
// ---------------------------------------------------------------------------

/// Panic sites (line, description) in one body.
fn scan_panics(toks: &[Tok], range: (usize, usize), arithmetic_index: bool) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let (start, end) = range;
    let t = |k: usize| toks.get(k).map(|t| t.text.as_str());
    for j in start..end.min(toks.len()) {
        if toks[j].kind != TokKind::Ident {
            continue;
        }
        let name = toks[j].text.as_str();
        match name {
            "unwrap" | "expect" if t(j.wrapping_sub(1)) == Some(".") && t(j + 1) == Some("(") => {
                out.push((toks[j].line, format!(".{name}()")));
            }
            "panic" | "unreachable" | "todo" if t(j + 1) == Some("!") => {
                out.push((toks[j].line, format!("{name}!")));
            }
            _ if arithmetic_index
                && t(j + 1) == Some("[")
                && toks[j].text.chars().next().is_some_and(char::is_lowercase) =>
            {
                // Slice subscript with arithmetic inside: offset math
                // on wire-facing buffers.
                let mut depth = 0i32;
                let mut arith = false;
                let mut k = j + 1;
                while k < end.min(toks.len()) {
                    match t(k) {
                        Some("[") => depth += 1,
                        Some("]") => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Some("+") | Some("-") | Some("*") => arith = true,
                        _ => {}
                    }
                    k += 1;
                }
                if arith {
                    out.push((toks[j].line, format!("{}[…arith…]", toks[j].text)));
                }
            }
            _ => {}
        }
    }
    out
}

/// `robustness/panic-reachable`: every `unwrap`/`expect`/`panic!` (and
/// arithmetic slice indexing in the `service` crate) in library code
/// that the serving surface or a `solve*` public API can reach.
pub fn check_panic_reachable(
    files: &[FileSem],
    symbols: &Symbols,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    // Entry points: public service-crate lib fns; public solve* APIs.
    let mut queue: VecDeque<usize> = VecDeque::new();
    let n = symbols.fns.len();
    let mut entry_of: Vec<Option<usize>> = vec![None; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for (id, sym) in symbols.fns.iter().enumerate() {
        let class = files[sym.file_idx].class;
        let is_entry = sym.is_pub
            && class == FileClass::Lib
            && (sym.crate_dir == "service" || sym.name.starts_with("solve"));
        if is_entry {
            entry_of[id] = Some(id);
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &callee in &graph.callees[id] {
            if entry_of[callee].is_none() {
                entry_of[callee] = entry_of[id];
                parent[callee] = Some(id);
                queue.push_back(callee);
            }
        }
    }
    for (id, sym) in symbols.fns.iter().enumerate() {
        let Some(entry) = entry_of[id] else { continue };
        let file = &files[sym.file_idx];
        if file.class != FileClass::Lib || matches!(sym.crate_dir.as_str(), "bench") {
            continue;
        }
        let Some(body) = sym.body else { continue };
        let arith_idx = sym.crate_dir == "service";
        for (line, desc) in scan_panics(&file.toks, body, arith_idx) {
            // Reconstruct entry → … → here (shortest-path parents).
            let mut chain = vec![sym.qualified()];
            let mut cur = parent[id];
            let mut hops = 0;
            while let Some(c) = cur {
                if hops >= 5 {
                    chain.push("…".into());
                    break;
                }
                chain.push(symbols.fns[c].qualified());
                cur = parent[c];
                hops += 1;
            }
            chain.reverse();
            let via = if id == entry {
                String::new()
            } else {
                format!(" via {}", chain.join(" → "))
            };
            out.push(Finding {
                rule: PANIC_REACHABLE,
                path: file.path.clone(),
                line,
                detail: format!(
                    "{desc} reachable from {}{via}",
                    symbols.fns[entry].qualified()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, strip_test_code};
    use crate::parse::parse_items;
    use crate::symbols::module_path_of;

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

    fn build(files: &[FileSem]) -> (Symbols, CallGraph) {
        let symbols = Symbols::build(files);
        let graph = CallGraph::build(files, &symbols);
        (symbols, graph)
    }

    fn edge(symbols: &Symbols, graph: &CallGraph, from: &str, to: &str) -> bool {
        let f = symbols
            .by_qualified(from)
            .unwrap_or_else(|| panic!("no {from}"));
        let t = symbols
            .by_qualified(to)
            .unwrap_or_else(|| panic!("no {to}"));
        graph.callees[f].contains(&t)
    }

    #[test]
    fn bare_and_path_calls_resolve_same_file_and_module() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "lib_a",
            "fn helper() {}\npub fn entry() { helper(); crate::helper(); self::helper(); }",
        )];
        let (s, g) = build(&files);
        assert!(edge(&s, &g, "lib_a::entry", "lib_a::helper"));
        let entry = s.by_qualified("lib_a::entry").unwrap();
        assert_eq!(g.callees[entry].len(), 1, "all three spellings dedupe");
    }

    #[test]
    fn aliased_imports_resolve_cross_crate() {
        let files = vec![
            file("crates/a/src/util.rs", "a", "lib_a", "pub fn work() {}"),
            file(
                "crates/b/src/lib.rs",
                "b",
                "lib_b",
                "use lib_a::util::work as w;\nuse lib_a::util as u;\n\
                 pub fn go() { w(); u::work(); lib_a::util::work(); }",
            ),
        ];
        let (s, g) = build(&files);
        assert!(edge(&s, &g, "lib_b::go", "lib_a::util::work"));
        let go = s.by_qualified("lib_b::go").unwrap();
        assert_eq!(g.callees[go].len(), 1);
    }

    #[test]
    fn method_calls_resolve_through_impl() {
        let files = vec![
            file(
                "crates/a/src/grid.rs",
                "a",
                "lib_a",
                "pub struct Grid;\nimpl Grid {\n  pub fn solve(&self) { self.inner(); }\n  fn inner(&self) {}\n}",
            ),
            file(
                "crates/b/src/lib.rs",
                "b",
                "lib_b",
                "use lib_a::grid::Grid;\npub fn drive(g: &Grid) { g.solve(); Grid::solve(g); }",
            ),
        ];
        let (s, g) = build(&files);
        assert!(edge(&s, &g, "lib_b::drive", "lib_a::grid::Grid::solve"));
        assert!(edge(
            &s,
            &g,
            "lib_a::grid::Grid::solve",
            "lib_a::grid::Grid::inner"
        ));
    }

    #[test]
    fn super_paths_and_globs_resolve() {
        let files = vec![
            file(
                "crates/a/src/deep/inner.rs",
                "a",
                "lib_a",
                "pub fn leaf() { super::mid(); }",
            ),
            file("crates/a/src/deep/mod.rs", "a", "lib_a", "pub fn mid() {}"),
            file(
                "crates/b/src/lib.rs",
                "b",
                "lib_b",
                "use lib_a::deep::*;\npub fn go() { mid(); }",
            ),
        ];
        let (s, g) = build(&files);
        assert!(edge(&s, &g, "lib_a::deep::inner::leaf", "lib_a::deep::mid"));
        assert!(edge(&s, &g, "lib_b::go", "lib_a::deep::mid"));
    }

    #[test]
    fn taint_propagates_through_helper_fns() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "lib_a",
            "fn draw(rng: &mut R) -> f64 { rng.gen_range(0.0..1.0) }\n\
             fn helper(rng: &mut R) -> f64 { draw(rng) }\n\
             pub fn outer() { par_map_vec(&v, |_, x| helper(x)); }\n\
             pub fn clean() { par_map_vec(&v, |_, x| x + 1.0); }",
        )];
        let (s, g) = build(&files);
        let taint = Taint::compute(&files, &s, &g);
        let helper = s.by_qualified("lib_a::helper").unwrap();
        assert!(taint.is_tainted(TaintKind::Rng, helper), "one-hop taint");
        let mut findings = Vec::new();
        check_tainted_parallel(&files, &s, &taint, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("RNG"), "{findings:?}");
        assert!(findings[0].detail.contains("gen_range"), "{findings:?}");
    }

    #[test]
    fn panic_reachable_from_solve_entry() {
        let files = vec![file(
            "crates/solver/src/x.rs",
            "solver",
            "ppdl_solver",
            "pub fn solve_grid(v: Option<u8>) { step(v); }\n\
             fn step(v: Option<u8>) { v.unwrap(); }\n\
             fn unreached(v: Option<u8>) { v.unwrap(); }",
        )];
        let (s, g) = build(&files);
        let mut findings = Vec::new();
        check_panic_reachable(&files, &s, &g, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].detail.contains("solve_grid"), "{findings:?}");
        assert!(findings[0].detail.contains("via"), "{findings:?}");
    }
}
