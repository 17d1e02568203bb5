//! Predictor-in-the-loop PDN synthesis: greedy template selection plus
//! simulated annealing, with the Kirchhoff estimate as the cost oracle.
//!
//! The paper's economics (§V) make one full MNA solve the unit of
//! account: the conventional flow pays one per widening iteration,
//! while a trained model answers the same "how bad is this grid?"
//! question in microseconds. OpeNPDN turns that asymmetry into a
//! synthesis recipe — choose one width *template* per region of the
//! grid instead of one free width per strap, let the cheap predictor
//! score candidate templates, and escalate to a real solve only
//! occasionally. This module is that recipe over this repo's pieces:
//!
//! * **Oracle** — the Kirchhoff IR estimate
//!   ([`IrPredictor::predict`]) on the resident base design at a
//!   template's widths, whose plan [`TrainedBundle::instantiate_base`]
//!   has already built: no grid solve and no copy of the design. A
//!   template's metal area comes from its width vector
//!   ([`SyntheticBenchmark::metal_area_at`]). The raw drop is multiplied
//!   by a running calibration factor anchored to real solves. Each run
//!   keeps a memo from a template's levels to its raw score, so a
//!   template the search revisits is estimated once:
//!   [`SynthResult::oracle_calls`] counts the scorings the search asked
//!   for (the budget unit) and [`SynthResult::oracle_evals`] the
//!   estimates that ran.
//! * **Search** — greedy initialisation from the model's own width
//!   inference, then simulated annealing over per-region ladder levels.
//!   Every random draw happens sequentially on the calling thread; the
//!   batch's unseen templates are then scored in parallel with
//!   [`par_map_vec`](ppdl_solver::parallel::par_map_vec), whose output
//!   order is positional, and the memo is filled on the calling thread
//!   — so the optimizer is bitwise deterministic in `(config, bundle)`
//!   at any thread count.
//! * **Verification** — a real [`StaticAnalysis`] MNA solve (with the
//!   configured [`PrecondKind`]) every `verify_every` accepted
//!   moves and at termination, recalibrating the oracle each time. A
//!   deterministic greedy *polish* pass between annealing and the
//!   final verify lands the template on the aim one region-step at a
//!   time, and a bounded repair loop re-anchors the oracle at a failed
//!   verify and widens single regions (not the whole template) until
//!   the calibrated estimate clears the margin. Every full solve is
//!   counted in [`SynthResult::full_solves`] — the number the
//!   `synth_oracle` experiment compares against the conventional
//!   flow's iteration count.

use std::collections::{BTreeMap, BTreeSet};
use std::slice;

use ppdl_analysis::{AnalysisOptions, StaticAnalysis};
use ppdl_netlist::SyntheticBenchmark;
use ppdl_solver::PrecondKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::predict::TrainedBundle;
use crate::{CoreError, IrPredictor};

/// Histogram bounds for the per-round cumulative acceptance rate.
const ACCEPT_BOUNDS: &[f64] = &[0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Tuning knobs of the synthesis optimizer. Every field participates in
/// the determinism contract: two runs with equal configs (and equal
/// bundles) produce bitwise-identical results at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Contiguous template regions per strap direction (see
    /// [`SyntheticBenchmark::strap_regions`]).
    pub regions_per_orientation: usize,
    /// Number of discrete width levels on the geometric ladder.
    pub ladder_levels: usize,
    /// Multiplicative head-room of the ladder around the golden widths:
    /// the ladder spans `[min_golden / span, max_golden * span]`.
    pub ladder_span: f64,
    /// Total oracle-call budget; the annealer stops when the next batch
    /// would exceed it.
    pub budget: usize,
    /// Proposals scored in parallel per annealing round.
    pub batch: usize,
    /// Accepted moves between escalations to a real MNA solve.
    pub verify_every: usize,
    /// RNG seed for the annealer.
    pub seed: u64,
    /// Initial Metropolis temperature, in cost units.
    pub initial_temperature: f64,
    /// Per-round geometric cooling factor in `(0, 1]`.
    pub cooling: f64,
    /// Weight of normalised metal area in the cost.
    pub area_weight: f64,
    /// Weight of the relative margin violation in the cost.
    pub ir_penalty: f64,
    /// Fraction of the IR margin the annealer aims below (aiming
    /// exactly at the margin would leave half the moves infeasible).
    pub aim_fraction: f64,
    /// Explicit IR aim in volts, overriding `aim_fraction`. Callers who
    /// already hold a verified reference — the conventional flow's
    /// converged worst drop — set this so the annealer *tracks* that
    /// margin instead of trading it away for area: the IR term of the
    /// cost becomes symmetric around the aim, and the final design
    /// lands on the reference's margin with the minimum metal the
    /// template ladder allows. Clamped to the margin itself.
    pub aim_worst_ir: Option<f64>,
    /// Bounded widen-and-reverify rounds after a failed final verify.
    pub max_repair_rounds: usize,
    /// Preconditioner for the escalation/verification solves; by
    /// default the analysis default, so a default sign-off reproduces
    /// the verified worst IR bit for bit.
    pub precond: PrecondKind,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            regions_per_orientation: 4,
            ladder_levels: 24,
            ladder_span: 2.0,
            budget: 1200,
            batch: 8,
            verify_every: 200,
            seed: 1,
            initial_temperature: 0.05,
            cooling: 0.97,
            area_weight: 1.0,
            ir_penalty: 12.0,
            aim_fraction: 0.96,
            aim_worst_ir: None,
            max_repair_rounds: 4,
            precond: AnalysisOptions::default().preconditioner,
        }
    }
}

impl SynthConfig {
    /// A cheap preset for smoke tests and the `--fast` CLI/bench paths:
    /// smaller batches and budget, same determinism contract.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            ladder_levels: 16,
            budget: 240,
            batch: 6,
            ..Self::default()
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> crate::Result<()> {
        let bad = |detail: String| Err(CoreError::InvalidConfig { detail });
        if self.regions_per_orientation == 0 {
            return bad("regions_per_orientation must be at least 1".into());
        }
        if self.ladder_levels < 2 {
            return bad(format!(
                "ladder_levels must be at least 2, got {}",
                self.ladder_levels
            ));
        }
        if !(self.ladder_span.is_finite() && self.ladder_span >= 1.0) {
            return bad(format!(
                "ladder_span must be >= 1, got {}",
                self.ladder_span
            ));
        }
        if self.batch == 0 {
            return bad("batch must be at least 1".into());
        }
        if self.budget < self.batch {
            return bad(format!(
                "budget {} cannot fit a single batch of {}",
                self.budget, self.batch
            ));
        }
        if self.verify_every == 0 {
            return bad("verify_every must be at least 1".into());
        }
        if !(self.initial_temperature.is_finite() && self.initial_temperature > 0.0) {
            return bad(format!(
                "initial_temperature must be positive, got {}",
                self.initial_temperature
            ));
        }
        if !(self.cooling > 0.0 && self.cooling <= 1.0) {
            return bad(format!("cooling must be in (0, 1], got {}", self.cooling));
        }
        if !(self.area_weight.is_finite() && self.area_weight >= 0.0) {
            return bad(format!(
                "area_weight must be non-negative, got {}",
                self.area_weight
            ));
        }
        if !(self.ir_penalty.is_finite() && self.ir_penalty > 0.0) {
            return bad(format!(
                "ir_penalty must be positive, got {}",
                self.ir_penalty
            ));
        }
        if !(self.aim_fraction > 0.0 && self.aim_fraction <= 1.0) {
            return bad(format!(
                "aim_fraction must be in (0, 1], got {}",
                self.aim_fraction
            ));
        }
        if let Some(aim) = self.aim_worst_ir {
            if !(aim.is_finite() && aim > 0.0) {
                return bad(format!("aim_worst_ir must be positive, got {aim}"));
            }
        }
        Ok(())
    }
}

/// What the optimizer produced, with an honest account of the work it
/// took.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthResult {
    /// Final per-strap widths, in µm.
    pub widths: Vec<f64>,
    /// Final ladder level per region.
    pub levels: Vec<usize>,
    /// The width ladder the levels index into, in µm.
    pub ladder: Vec<f64>,
    /// Number of template regions.
    pub regions: usize,
    /// Oracle scorings the search asked for, the unit of
    /// [`SynthConfig::budget`]: the initial width inference, the
    /// golden anchor, and every template scoring, repeats included.
    pub oracle_calls: usize,
    /// Kirchhoff estimates the oracle ran: the golden anchor when a
    /// verified golden drop is given, and each distinct template once.
    /// The initial width inference is a call without an estimate, and
    /// so is the golden anchor without a verified drop; every other
    /// call beyond the estimates was answered from the run's memo.
    pub oracle_evals: usize,
    /// Real MNA solves performed (escalations + final verify + repair).
    pub full_solves: usize,
    /// Annealing proposals scored.
    pub proposed: usize,
    /// Annealing moves accepted.
    pub accepted: usize,
    /// Annealing rounds run.
    pub rounds: usize,
    /// Widen-and-reverify rounds taken after the final verify.
    pub repair_rounds: usize,
    /// MNA-verified worst-case IR drop of the final widths, in volts.
    pub worst_ir: f64,
    /// Calibrated oracle estimate at the final widths, in volts.
    pub oracle_worst_ir: f64,
    /// The margin the synthesis targeted, in volts.
    pub target_worst_ir: f64,
    /// Final total metal area, in µm².
    pub metal_area: f64,
    /// Metal area of the bundle's golden (conventionally sized) widths.
    pub golden_metal_area: f64,
    /// Final oracle calibration factor (verified / predicted).
    pub calibration: f64,
    /// Whether the verified worst drop meets the margin.
    pub feasible: bool,
}

impl SynthResult {
    /// Verified worst drop in millivolts.
    #[must_use]
    pub fn worst_ir_mv(&self) -> f64 {
        self.worst_ir * 1e3
    }
}

/// Geometric width ladder spanning the golden widths with
/// `config.ladder_span` head-room on both ends.
fn build_ladder(golden: &[f64], config: &SynthConfig) -> crate::Result<Vec<f64>> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &w in golden {
        lo = lo.min(w);
        hi = hi.max(w);
    }
    if !(lo.is_finite() && lo > 0.0 && hi.is_finite()) {
        return Err(CoreError::InvalidConfig {
            detail: format!("golden widths span [{lo}, {hi}] is unusable for a ladder"),
        });
    }
    let lo = lo / config.ladder_span;
    let hi = hi * config.ladder_span;
    let n = config.ladder_levels;
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    Ok((0..n).map(|l| lo * ratio.powi(l as i32)).collect())
}

/// Smallest ladder level whose width is `>= w` (last level when `w`
/// exceeds the ladder) — quantising *up* keeps the greedy start
/// conservative.
fn quantize_up(ladder: &[f64], w: f64) -> usize {
    ladder
        .iter()
        .position(|&lw| lw >= w)
        .unwrap_or(ladder.len() - 1)
}

/// Expands per-region levels into a full per-strap width vector.
fn expand(regions: &[Vec<usize>], ladder: &[f64], levels: &[usize], n_straps: usize) -> Vec<f64> {
    let mut widths = vec![0.0; n_straps];
    for (region, &level) in regions.iter().zip(levels) {
        for &strap in region {
            widths[strap] = ladder[level];
        }
    }
    widths
}

/// A template's raw oracle score: the uncalibrated worst drop in volts
/// and the metal area in µm².
type Score = (f64, f64);

/// The cost oracle of one synthesis run, with its ledger. A template is
/// one ladder level per region; its score is the Kirchhoff estimate of
/// the worst drop on the resident base at the template's widths, plus
/// the metal area of those widths. The memo holds every score the run
/// has estimated, so each distinct template is estimated once and a
/// repeat gets the bits of the first estimate.
struct Oracle<'a> {
    base: &'a SyntheticBenchmark,
    regions: &'a [Vec<usize>],
    ladder: &'a [f64],
    memo: BTreeMap<Vec<usize>, Score>,
    /// Scorings asked for: the budget unit.
    calls: usize,
    /// Estimates that ran.
    evals: usize,
}

impl Oracle<'_> {
    /// The per-strap widths of a template.
    fn widths(&self, levels: &[usize]) -> Vec<f64> {
        expand(self.regions, self.ladder, levels, self.base.straps().len())
    }

    /// Books `calls` scorings, `evals` of which ran an estimate.
    fn count(&mut self, calls: usize, evals: usize) {
        self.calls += calls;
        self.evals += evals;
        ppdl_obs::counter_add("synth/oracle_calls", calls as u64);
        ppdl_obs::counter_add("synth/oracle_evals", evals as u64);
    }

    /// One real estimate: the Kirchhoff worst drop on the base at
    /// `widths`.
    fn worst_drop(&self, widths: &[f64]) -> crate::Result<f64> {
        let _span = ppdl_obs::span("synth/oracle");
        Ok(IrPredictor::new().predict(self.base, widths)?.worst)
    }

    /// Scores `templates`, in order. The distinct templates the memo
    /// lacks are estimated once each, fanned out over
    /// [`par_map_vec`](ppdl_solver::parallel::par_map_vec), and
    /// remembered on the calling thread; every other one is answered
    /// from the memo.
    fn score(&mut self, templates: &[Vec<usize>]) -> crate::Result<Vec<Score>> {
        let unseen: Vec<&Vec<usize>> = templates
            .iter()
            .filter(|levels| !self.memo.contains_key(*levels))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        self.count(templates.len(), unseen.len());
        let this = &*self;
        let scored: Vec<crate::Result<Score>> =
            // ppdl-lint: allow(determinism/tainted-parallel) -- over-approximated: method-name resolution takes worst_drop's IrPredictor::predict for TrainedBundle::predict -> predict -> Perturbation::apply (StdRng) and Instant::now (latency telemetry); the Kirchhoff estimate draws no random number and reads no clock, so every score is bitwise deterministic
            ppdl_solver::parallel::par_map_vec(&unseen, |_, levels| {
                let widths = this.widths(levels);
                Ok((this.worst_drop(&widths)?, this.base.metal_area_at(&widths)?))
            });
        for (levels, score) in unseen.into_iter().zip(scored) {
            self.memo.insert(levels.clone(), score?);
        }
        Ok(templates.iter().map(|levels| self.memo[levels]).collect())
    }
}

/// Scores every movable single-region step (up when `up`, down
/// otherwise) with the oracle and returns the candidate with the
/// lowest raw worst drop as `(region, raw)`. Ties break toward the
/// lowest region index; `None` when no region can move.
fn best_step(
    oracle: &mut Oracle<'_>,
    levels: &[usize],
    up: bool,
) -> crate::Result<Option<(usize, f64)>> {
    let movable: Vec<usize> = (0..levels.len())
        .filter(|&r| {
            if up {
                levels[r] + 1 < oracle.ladder.len()
            } else {
                levels[r] > 0
            }
        })
        .collect();
    if movable.is_empty() {
        return Ok(None);
    }
    let candidates: Vec<Vec<usize>> = movable
        .iter()
        .map(|&r| {
            let mut next = levels.to_vec();
            next[r] = if up { next[r] + 1 } else { next[r] - 1 };
            next
        })
        .collect();
    let scores = oracle.score(&candidates)?;
    let mut best: Option<(usize, f64)> = None;
    for (&r, &(raw, _)) in movable.iter().zip(&scores) {
        if best.map_or(true, |(_, b)| raw < b) {
            best = Some((r, raw));
        }
    }
    Ok(best)
}

/// One escalation: a real MNA solve of the base design at `widths`.
fn full_solve(
    base: &SyntheticBenchmark,
    widths: &[f64],
    precond: PrecondKind,
) -> crate::Result<f64> {
    let mut bench = base.clone();
    bench.set_strap_widths(widths)?;
    let report = StaticAnalysis::new(AnalysisOptions {
        preconditioner: precond,
        ..AnalysisOptions::default()
    })
    .solve(bench.network())?;
    ppdl_obs::counter_add("synth/full_solves", 1);
    Ok(report.worst_drop().map_or(0.0, |(_, d)| d))
}

/// Runs predictor-in-the-loop synthesis against a trained bundle.
///
/// `known_golden_worst_ir` is the MNA-verified worst drop of the
/// bundle's golden widths when the caller already has it (the pipeline's
/// sizing stage records it); passing it anchors the oracle's initial
/// calibration for free. When `None`, the optimizer spends one extra
/// full solve on the initial template instead.
///
/// The returned [`SynthResult`] is bitwise identical across thread
/// counts for a fixed `(bundle, config)`: proposals and acceptance
/// draws come from one sequential seeded RNG, batch scoring preserves
/// slot order, and ties between equal-cost candidates break toward the
/// lowest index.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for bad knobs and propagates
/// oracle, netlist, and analysis errors.
pub fn synthesize(
    bundle: &TrainedBundle,
    config: &SynthConfig,
    known_golden_worst_ir: Option<f64>,
) -> crate::Result<SynthResult> {
    config.validate()?;
    let _span = ppdl_obs::span("synth/run");
    let base = bundle.instantiate_base()?;
    let regions = base.strap_regions(config.regions_per_orientation);
    if regions.is_empty() {
        return Err(CoreError::InvalidConfig {
            detail: "benchmark has no straps to synthesise".into(),
        });
    }
    let ladder = build_ladder(&bundle.golden_widths, config)?;
    let target = bundle.meta.margin_fraction * base.spec().vdd;
    // Tracking mode: an explicit aim pins the annealer to a verified
    // reference margin (symmetric IR term); otherwise aim a fixed
    // fraction below the margin (one-sided term, area does the rest).
    let aim = config
        .aim_worst_ir
        .map_or(config.aim_fraction * target, |a| a.min(target));
    let track = config.aim_worst_ir.is_some();
    // The base carries the golden widths.
    let golden_area = base.total_metal_area();

    let mut oracle = Oracle {
        base: &base,
        regions: &regions,
        ladder: &ladder,
        memo: BTreeMap::new(),
        calls: 0,
        evals: 0,
    };
    let mut full_solves = 0usize;

    // --- Greedy initialisation -------------------------------------
    // One NN inference on the base design seeds the template: each
    // region takes the ladder level covering the mean predicted width
    // of its straps. It is booked as one oracle call, not as an
    // estimate of the oracle.
    let inferred = bundle
        .predictor
        .predict_strap_widths_sampled(&base, bundle.meta.inference_stride)?;
    oracle.count(1, 0);
    let mut levels: Vec<usize> = regions
        .iter()
        .map(|region| {
            let mean = region.iter().map(|&s| inferred[s]).sum::<f64>() / region.len() as f64;
            quantize_up(&ladder, mean)
        })
        .collect();

    // --- Calibration anchor ----------------------------------------
    // The oracle is scaled so that at a known design it reproduces the
    // MNA answer exactly: scale = verified / predicted. The anchor is
    // free when the caller knows the golden design's verified drop.
    // The golden widths are not a template, so their score is not
    // remembered. Without a verified drop the golden estimate would go
    // unread, so it does not run, but the anchor is still booked as
    // one call: `oracle_calls` is the budget unit.
    let anchor = match known_golden_worst_ir {
        Some(verified) => {
            oracle.count(1, 1);
            let golden_raw = oracle.worst_drop(&bundle.golden_widths)?;
            (golden_raw > 0.0 && verified > 0.0).then(|| verified / golden_raw)
        }
        None => {
            oracle.count(1, 0);
            None
        }
    };
    let mut calibration = match anchor {
        Some(calibration) => calibration,
        None => {
            let (raw, _) = oracle.score(slice::from_ref(&levels))?[0];
            let verified = full_solve(&base, &oracle.widths(&levels), config.precond)?;
            full_solves += 1;
            if raw > 0.0 && verified > 0.0 {
                verified / raw
            } else {
                1.0
            }
        }
    };

    let cost_of = |raw_ir: f64, area: f64, calibration: f64| {
        let ir_cal = raw_ir * calibration;
        let rel = (ir_cal - aim) / aim;
        let ir_term = if track { rel.abs() } else { rel.max(0.0) };
        config.area_weight * (area / golden_area) + config.ir_penalty * ir_term
    };

    let (mut current_raw, mut current_area) = oracle.score(slice::from_ref(&levels))?[0];
    let mut current_cost = cost_of(current_raw, current_area, calibration);

    // --- Simulated annealing ----------------------------------------
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut temperature = config.initial_temperature;
    let mut proposed = 0usize;
    let mut accepted = 0usize;
    let mut rounds = 0usize;
    let mut accepted_since_verify = 0usize;
    while oracle.calls + config.batch <= config.budget {
        rounds += 1;
        // All randomness is drawn here, sequentially, before any
        // parallel work: the batch of (region, direction) moves and the
        // one acceptance uniform for this round.
        let moves: Vec<(usize, bool)> = (0..config.batch)
            .map(|_| (rng.gen_range(0..regions.len()), rng.gen_bool(0.5)))
            .collect();
        let uniform: f64 = rng.gen_range(0.0..1.0);

        let candidates: Vec<Vec<usize>> = moves
            .iter()
            .map(|&(region, up)| {
                let mut next = levels.clone();
                next[region] = if up {
                    (next[region] + 1).min(ladder.len() - 1)
                } else {
                    next[region].saturating_sub(1)
                };
                next
            })
            .collect();
        let scores = oracle.score(&candidates)?;
        proposed += candidates.len();
        ppdl_obs::counter_add("synth/proposed", candidates.len() as u64);

        // Lowest cost wins; ties break toward the lowest slot index
        // (strict `<` against the running best).
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (i, &(raw, area)) in scores.iter().enumerate() {
            let cost = cost_of(raw, area, calibration);
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }

        // Metropolis on the round's best candidate, with the pre-drawn
        // uniform.
        let delta = best_cost - current_cost;
        if delta <= 0.0 || uniform < (-delta / temperature).exp() {
            levels.clone_from(&candidates[best]);
            (current_raw, current_area) = scores[best];
            current_cost = best_cost;
            accepted += 1;
            accepted_since_verify += 1;
            ppdl_obs::counter_add("synth/accepted", 1);
        }
        ppdl_obs::observe(
            "synth/acceptance_rate",
            ACCEPT_BOUNDS,
            accepted as f64 / proposed as f64,
        );
        temperature = (temperature * config.cooling).max(f64::MIN_POSITIVE);

        // Escalate: anchor the oracle to a real solve every
        // `verify_every` accepted moves.
        if accepted_since_verify >= config.verify_every {
            accepted_since_verify = 0;
            let verified = full_solve(&base, &oracle.widths(&levels), config.precond)?;
            full_solves += 1;
            if current_raw > 0.0 && verified > 0.0 {
                calibration = verified / current_raw;
            }
            current_cost = cost_of(current_raw, current_area, calibration);
        }
    }

    // --- Greedy oracle-space polish ---------------------------------
    // The annealer leaves the template in the aim's neighbourhood; a
    // deterministic greedy pass lands it exactly: widen the single
    // most effective region while the calibrated estimate misses the
    // aim, then take back any step the aim does not need. Every move
    // costs oracle calls only.
    let polish_cap = ladder.len();
    let mut polish = 0usize;
    while current_raw * calibration > aim && polish < polish_cap {
        let Some((region, raw)) = best_step(&mut oracle, &levels, true)? else {
            break;
        };
        levels[region] += 1;
        current_raw = raw;
        polish += 1;
    }
    polish = 0;
    while polish < polish_cap {
        let Some((region, raw)) = best_step(&mut oracle, &levels, false)? else {
            break;
        };
        if raw * calibration > aim {
            break;
        }
        levels[region] -= 1;
        polish += 1;
    }
    // --- Final verification and bounded repair ----------------------
    let mut worst_ir = full_solve(&base, &oracle.widths(&levels), config.precond)?;
    full_solves += 1;
    let mut repair_rounds = 0usize;
    while worst_ir > target && repair_rounds < config.max_repair_rounds {
        // Oracle-guided repair: re-anchor the calibration at the
        // failed design (the scaled oracle is exact there), then take
        // the smallest chain of single-region widenings whose
        // calibrated estimate clears the margin with a little slack,
        // and re-verify. Each round costs one full solve.
        let (raw_here, _) = oracle.score(slice::from_ref(&levels))?[0];
        if raw_here > 0.0 && worst_ir > 0.0 {
            calibration = worst_ir / raw_here;
        }
        let repair_aim = aim.min(0.99 * target);
        let mut est = worst_ir;
        let mut steps = 0usize;
        while est > repair_aim && steps < ladder.len() {
            let Some((region, raw)) = best_step(&mut oracle, &levels, true)? else {
                break;
            };
            levels[region] += 1;
            est = raw * calibration;
            steps += 1;
        }
        if steps == 0 {
            // Every region is already on the top rung; the ladder has
            // no width left to give. `feasible` reports the miss.
            break;
        }
        worst_ir = full_solve(&base, &oracle.widths(&levels), config.precond)?;
        full_solves += 1;
        repair_rounds += 1;
    }
    let (final_raw, metal_area) = oracle.score(slice::from_ref(&levels))?[0];
    if final_raw > 0.0 && worst_ir > 0.0 {
        calibration = worst_ir / final_raw;
    }

    let widths = oracle.widths(&levels);
    let (oracle_calls, oracle_evals) = (oracle.calls, oracle.evals);
    Ok(SynthResult {
        widths,
        levels,
        ladder,
        regions: regions.len(),
        oracle_calls,
        oracle_evals,
        full_solves,
        proposed,
        accepted,
        rounds,
        repair_rounds,
        worst_ir,
        oracle_worst_ir: final_raw * calibration,
        target_worst_ir: target,
        metal_area,
        golden_metal_area: golden_area,
        calibration,
        feasible: worst_ir <= target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DlFlowConfig;
    use ppdl_netlist::IbmPgPreset;
    use ppdl_solver::set_threads;

    fn fast_bundle() -> TrainedBundle {
        TrainedBundle::train(IbmPgPreset::Ibmpg2, 0.006, 7, DlFlowConfig::fast(), None).unwrap()
    }

    #[test]
    fn fast_synthesis_meets_margin_with_few_full_solves() {
        let bundle = fast_bundle();
        let config = SynthConfig::fast();
        let result = synthesize(&bundle, &config, None).unwrap();
        assert!(
            result.feasible,
            "worst {} > target {}",
            result.worst_ir, result.target_worst_ir
        );
        assert!(result.worst_ir <= result.target_worst_ir);
        // Work accounting: the annealer itself stayed within the
        // proposal budget (polish/repair spend extra oracle calls, all
        // reported in `oracle_calls`), and the full-solve count is the
        // initial anchor + final verify + bounded repair.
        assert!(result.proposed <= config.budget);
        assert!(result.oracle_calls >= result.proposed);
        assert!(result.full_solves <= 2 + result.repair_rounds);
        assert!(result.proposed >= config.batch);
        assert!(result.accepted <= result.proposed);
        assert_eq!(result.widths.len(), bundle.golden_widths.len());
        assert_eq!(result.levels.len(), result.regions);
        // Every width sits on the ladder.
        for &w in &result.widths {
            assert!(result.ladder.contains(&w));
        }
    }

    #[test]
    fn golden_anchor_saves_the_initial_full_solve() {
        let bundle = fast_bundle();
        let config = SynthConfig::fast();
        // Anchor the calibration with a known verified drop: the only
        // remaining full solves are the final verify and any repair.
        let anchored = synthesize(&bundle, &config, Some(0.05)).unwrap();
        assert!(anchored.full_solves <= 1 + anchored.repair_rounds);
    }

    #[test]
    fn synthesis_is_bitwise_deterministic_across_thread_counts() {
        let bundle = fast_bundle();
        let config = SynthConfig::fast();
        let run = |threads: usize| {
            set_threads(threads);
            let out = synthesize(&bundle, &config, None).unwrap();
            set_threads(0);
            out
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.levels, four.levels);
        assert_eq!(one.accepted, four.accepted);
        assert_eq!(one.full_solves, four.full_solves);
        for (a, b) in one.widths.iter().zip(&four.widths) {
            assert_eq!(a.to_bits(), b.to_bits(), "width differs: {a} vs {b}");
        }
        assert_eq!(one.worst_ir.to_bits(), four.worst_ir.to_bits());
        assert_eq!(one.calibration.to_bits(), four.calibration.to_bits());
    }

    /// Every field of a result as bits: the widths, levels and ladder,
    /// every float, every counter and the verdict.
    fn digest(r: &SynthResult) -> u64 {
        let mut h = crate::pipeline::StableHasher::new("synth-result");
        h.write_f64_slice("widths", &r.widths);
        h.write_u64("levels", r.levels.len() as u64);
        for &l in &r.levels {
            h.write_u64("level", l as u64);
        }
        h.write_f64_slice("ladder", &r.ladder);
        for (tag, n) in [
            ("regions", r.regions),
            ("oracle_calls", r.oracle_calls),
            ("full_solves", r.full_solves),
            ("proposed", r.proposed),
            ("accepted", r.accepted),
            ("rounds", r.rounds),
            ("repair_rounds", r.repair_rounds),
        ] {
            h.write_u64(tag, n as u64);
        }
        for (tag, v) in [
            ("worst_ir", r.worst_ir),
            ("oracle_worst_ir", r.oracle_worst_ir),
            ("target_worst_ir", r.target_worst_ir),
            ("metal_area", r.metal_area),
            ("golden_metal_area", r.golden_metal_area),
            ("calibration", r.calibration),
        ] {
            h.write_f64(tag, v);
        }
        h.write_u64("feasible", u64::from(r.feasible));
        h.finish().value()
    }

    #[test]
    fn synthesis_keeps_its_pinned_results() {
        // Digests of the fast, default and anchored runs: how the
        // oracle is organised must not move a bit of what the search
        // finds. Re-pinned when the sign-off moved to the multilevel
        // solve at tolerance 1e-9, which verifies (and calibrates) with
        // other last digits.
        let bundle = fast_bundle();
        let fast = synthesize(&bundle, &SynthConfig::fast(), None).unwrap();
        assert_eq!(digest(&fast), 0x8a28_290c_6d0e_f519);
        let default = synthesize(&bundle, &SynthConfig::default(), None).unwrap();
        assert_eq!(digest(&default), 0x89fe_437c_1e43_c109);
        let anchored = synthesize(&bundle, &SynthConfig::fast(), Some(0.035)).unwrap();
        assert_eq!(digest(&anchored), 0x716b_20c2_2836_af9b);
        // The estimates the memo leaves to run (not part of the digests,
        // which predate the field). The two runs without a verified
        // golden drop skip the golden estimate.
        assert_eq!(
            [
                fast.oracle_evals,
                default.oracle_evals,
                anchored.oracle_evals
            ],
            [286, 518, 191]
        );
    }

    #[test]
    fn the_oracle_estimates_each_distinct_template_once() {
        let base = SyntheticBenchmark::from_preset(IbmPgPreset::Ibmpg2, 0.005, 3).unwrap();
        let regions = base.strap_regions(2);
        let ladder = build_ladder(&base.strap_widths(), &SynthConfig::fast()).unwrap();
        let mut oracle = Oracle {
            base: &base,
            regions: &regions,
            ladder: &ladder,
            memo: BTreeMap::new(),
            calls: 0,
            evals: 0,
        };
        let a = vec![3; regions.len()];
        let mut b = a.clone();
        b[0] = 5;
        let first = oracle.score(&[a.clone(), b.clone(), a.clone()]).unwrap();
        let second = oracle.score(&[b]).unwrap();
        assert_eq!((oracle.calls, oracle.evals), (4, 2));
        let bits = |(raw, area): Score| (raw.to_bits(), area.to_bits());
        assert_eq!(bits(first[0]), bits(first[2]));
        assert_eq!(bits(first[1]), bits(second[0]));
        assert_ne!(bits(first[0]), bits(first[1]));
        // A score is the estimate and the metal area of the design at
        // the template's widths.
        let widths = oracle.widths(&a);
        let mut sized = base.clone();
        sized.set_strap_widths(&widths).unwrap();
        let estimate = IrPredictor::new().predict(&sized, &widths).unwrap();
        assert_eq!(
            bits(first[0]),
            bits((estimate.worst, sized.total_metal_area()))
        );
    }

    #[test]
    fn seed_changes_the_search_trajectory() {
        let bundle = fast_bundle();
        let a = synthesize(&bundle, &SynthConfig::fast(), None).unwrap();
        let b = synthesize(
            &bundle,
            &SynthConfig {
                seed: 99,
                ..SynthConfig::fast()
            },
            None,
        )
        .unwrap();
        // Different seeds draw different proposals; both must still be
        // feasible. (Equal accepted counts are possible, so compare the
        // whole trajectory signature instead of a single field.)
        assert!(a.feasible && b.feasible);
        assert!(
            a.levels != b.levels || a.accepted != b.accepted || a.worst_ir != b.worst_ir,
            "two seeds produced identical trajectories"
        );
    }

    #[test]
    fn config_validation_names_bad_knobs() {
        let bad = |config: SynthConfig| {
            matches!(
                config.validate().unwrap_err(),
                CoreError::InvalidConfig { .. }
            )
        };
        assert!(bad(SynthConfig {
            regions_per_orientation: 0,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            ladder_levels: 1,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            ladder_span: 0.5,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            batch: 0,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            budget: 1,
            batch: 8,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            verify_every: 0,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            cooling: 0.0,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            aim_fraction: 1.5,
            ..SynthConfig::default()
        }));
        assert!(bad(SynthConfig {
            aim_worst_ir: Some(-0.01),
            ..SynthConfig::default()
        }));
        assert!(SynthConfig {
            aim_worst_ir: Some(0.03),
            ..SynthConfig::default()
        }
        .validate()
        .is_ok());
        assert!(SynthConfig::default().validate().is_ok());
        assert!(SynthConfig::fast().validate().is_ok());
    }

    #[test]
    fn ladder_spans_golden_widths_and_quantizes_up() {
        let golden = [1.0, 2.0, 4.0];
        let config = SynthConfig::default();
        let ladder = build_ladder(&golden, &config).unwrap();
        assert_eq!(ladder.len(), config.ladder_levels);
        assert!(ladder[0] <= 1.0 / config.ladder_span + 1e-12);
        assert!(ladder[config.ladder_levels - 1] >= 4.0 * config.ladder_span - 1e-9);
        for pair in ladder.windows(2) {
            assert!(pair[0] < pair[1], "ladder must be strictly increasing");
        }
        // Quantising up never lands below the requested width (except
        // past the top rung, which clamps).
        for w in [0.7, 1.0, 1.3, 3.9] {
            let q = quantize_up(&ladder, w);
            assert!(ladder[q] >= w, "ladder[{q}] = {} < {w}", ladder[q]);
        }
        assert_eq!(quantize_up(&ladder, 1e9), ladder.len() - 1);
        // Degenerate golden widths are a typed error.
        assert!(build_ladder(&[0.0], &config).is_err());
    }
}
