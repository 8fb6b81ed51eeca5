//! The sequential sampling engine: adaptive statistical campaigns with
//! per-cell early stopping.
//!
//! The paper sizes every (workload × location) cell with the Leveugle
//! 99%/1% formula and runs that fixed n, even though lopsided cells (PC
//! faults are ~90% crash) are decided long before the worst-case sizing
//! says so. This engine replaces the up-front worklist with
//! draw-on-demand: each round it draws a small batch per still-undecided
//! cell, executes the batch, folds the classified outcomes into streaming
//! [`CellStats`], and stops a cell the moment every outcome-rate Wilson CI
//! is tighter than the target half-width (with a `min_n` floor). Budget
//! not spent on early-stopped cells keeps flowing to the high-variance
//! cells that still need it.
//!
//! # Determinism and resume
//!
//! Every cell owns an independent sampler stream
//! ([`FaultSampler::for_cell`]), so draw `k` of a cell is a pure function
//! of `(seed, cell, k)` — independent of how rounds interleave. Decisions
//! are evaluated only at round boundaries over commutative counts, so the
//! whole draw/stop trajectory is a pure function of the seed, the config,
//! and the per-experiment outcomes. The journaling slot table
//! (`now::Campaign`) writes every draw of a round (`drawn`
//! events) before executing any of it; a resumed
//! campaign re-derives the identical trajectory, verifies it against the
//! journaled draws, folds the outcomes already recorded, executes only the
//! remainder, and keeps drawing — reaching byte-identical per-cell
//! decisions to an uninterrupted run.

use crate::journal::{spec_digest, JournalEvent, JOURNAL_VERSION};
use crate::report::OutcomeTable;
use crate::runner::{run_experiment, ForkConfig, PreparedWorkload, RunnerConfig};
use crate::sampler::{FaultSampler, LocationClass};
use crate::stats::{CellDecision, CellStats, StopRule, Z_95};
use gemfi::{CacheLevel, FaultSpec, Outcome};
use gemfi_workloads::Workload;
use std::fmt;

/// One sampling cell: a fault family whose outcome rates are estimated
/// independently. The Fig. 5 location classes, the PR 7 memory-hierarchy
/// families, and the security-style behaviors are all cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// A Fig. 5 location class (uniform transient single-bit flips).
    Class(LocationClass),
    /// Cache-array lesions at one level (data/tag/way, MBU patterns,
    /// transient or stuck-at) — [`FaultSampler::sample_cache`].
    Cache(CacheLevel),
    /// Security-style behaviors (skip, opcode replacement, branch
    /// inversion) — [`FaultSampler::sample_security`].
    Security,
}

impl CellKind {
    /// The Fig. 5 default cell set: the seven location classes.
    pub const CLASSES: [CellKind; 7] = [
        CellKind::Class(LocationClass::IntReg),
        CellKind::Class(LocationClass::FpReg),
        CellKind::Class(LocationClass::Fetch),
        CellKind::Class(LocationClass::Decode),
        CellKind::Class(LocationClass::Execute),
        CellKind::Class(LocationClass::Mem),
        CellKind::Class(LocationClass::Pc),
    ];

    /// Parses a cell label (the inverse of the `Display` form).
    pub fn parse(label: &str) -> Option<CellKind> {
        match label {
            "int-reg" => Some(CellKind::Class(LocationClass::IntReg)),
            "fp-reg" => Some(CellKind::Class(LocationClass::FpReg)),
            "fetch" => Some(CellKind::Class(LocationClass::Fetch)),
            "decode" => Some(CellKind::Class(LocationClass::Decode)),
            "execute" => Some(CellKind::Class(LocationClass::Execute)),
            "mem" => Some(CellKind::Class(LocationClass::Mem)),
            "pc" => Some(CellKind::Class(LocationClass::Pc)),
            "l1i-cache" => Some(CellKind::Cache(CacheLevel::L1I)),
            "l1d-cache" => Some(CellKind::Cache(CacheLevel::L1D)),
            "l2-cache" => Some(CellKind::Cache(CacheLevel::L2)),
            "security" => Some(CellKind::Security),
            _ => None,
        }
    }

    /// Draws one fault of this family from a cell-owned sampler stream.
    pub fn draw(&self, sampler: &mut FaultSampler) -> FaultSpec {
        match self {
            CellKind::Class(class) => sampler.sample(*class),
            CellKind::Cache(level) => sampler.sample_cache(*level),
            CellKind::Security => sampler.sample_security(),
        }
    }

    /// The fault-space population (the Leveugle `N`): activation events of
    /// the family's stage × 64 samplable bits. For register/pipeline
    /// classes this is exactly [`FaultSampler::population`]; cache and
    /// security families use the stage whose queue arms them.
    pub fn population(&self, sampler: &FaultSampler) -> u64 {
        match self {
            CellKind::Class(class) => sampler.population(*class),
            CellKind::Cache(level) => {
                let stage = if *level == CacheLevel::L1I {
                    gemfi::Stage::Fetch
                } else {
                    gemfi::Stage::Memory
                };
                sampler.stage_events(stage).saturating_mul(64)
            }
            CellKind::Security => sampler.stage_events(gemfi::Stage::Fetch).saturating_mul(64),
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellKind::Class(class) => write!(f, "{class}"),
            CellKind::Cache(CacheLevel::L1I) => f.write_str("l1i-cache"),
            CellKind::Cache(CacheLevel::L1D) => f.write_str("l1d-cache"),
            CellKind::Cache(CacheLevel::L2) => f.write_str("l2-cache"),
            CellKind::Security => f.write_str("security"),
        }
    }
}

/// Sequential-campaign parameters: the stopping rule plus the sampling
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Confidence z-value of the stopping rule (default [`Z_95`]).
    pub z: f64,
    /// Target Wilson CI half-width every outcome rate must reach.
    pub ci_halfwidth: f64,
    /// Minimum experiments per cell before it may stop.
    pub min_n: u64,
    /// Global experiment budget; `0` means bounded only by the cell
    /// populations. Budget unspent by early-stopped cells is what keeps
    /// flowing to the undecided ones.
    pub budget: u64,
    /// Draws per undecided cell per round (the granularity at which the
    /// stopping rule is re-evaluated).
    pub batch: u64,
    /// The cells under estimation, in sampling order.
    pub cells: Vec<CellKind>,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            z: Z_95,
            ci_halfwidth: 0.05,
            min_n: 25,
            budget: 0,
            batch: 16,
            cells: CellKind::CLASSES.to_vec(),
        }
    }
}

impl AdaptiveConfig {
    /// The stopping rule this config describes.
    pub(crate) fn rule(&self) -> StopRule {
        StopRule { z: self.z, halfwidth: self.ci_halfwidth, min_n: self.min_n }
    }

    /// Comma-joined cell labels (the journal-header identity form).
    pub fn cells_label(&self) -> String {
        self.cells.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
    }

    /// The journal header pinning this campaign's identity.
    pub fn header(&self, seed: u64, checkpoint_digest: u64) -> JournalEvent {
        JournalEvent::AdaptiveCampaign {
            version: JOURNAL_VERSION,
            seed,
            checkpoint_digest,
            z_ppm: ppm(self.z),
            halfwidth_ppm: ppm(self.ci_halfwidth),
            min_n: self.min_n,
            budget: self.budget,
            batch: self.batch,
            cells: self.cells_label(),
        }
    }
}

/// Fractional parameters ride the integer-only journal as parts per
/// million.
fn ppm(x: f64) -> u64 {
    (x * 1e6).round() as u64
}

/// One fault point the engine decided to spend budget on.
#[derive(Debug, Clone)]
pub struct Draw {
    /// Globally sequential experiment index (draw order).
    pub exp: u64,
    /// Index into [`AdaptiveConfig::cells`].
    pub cell: usize,
    /// 0-based ordinal within the cell's stream.
    pub draw: u64,
    /// The sampled fault.
    pub spec: FaultSpec,
}

/// Per-cell live state.
#[derive(Debug, Clone)]
struct Cell {
    kind: CellKind,
    sampler: FaultSampler,
    stats: CellStats,
    decision: CellDecision,
    /// Draws issued (≥ folded n: in-flight draws and infrastructure
    /// failures consume budget without contributing evidence).
    drawn: u64,
    population: u64,
}

/// The sequential sampler: per-cell streams, streaming stats, and the
/// round loop. Drivers call [`next_round`] / [`record`] / [`end_round`]
/// until [`next_round`] returns no draws, then [`finalize`].
///
/// [`next_round`]: AdaptiveState::next_round
/// [`record`]: AdaptiveState::record
/// [`end_round`]: AdaptiveState::end_round
/// [`finalize`]: AdaptiveState::finalize
#[derive(Debug, Clone)]
pub struct AdaptiveState {
    rule: StopRule,
    batch: u64,
    /// Resolved global cap (config budget, or the summed populations).
    budget: u64,
    cells: Vec<Cell>,
    drawn_total: u64,
    next_exp: u64,
    rounds: u64,
}

impl AdaptiveState {
    /// A fresh engine over the measured fault space of a prepared
    /// workload.
    ///
    /// # Panics
    ///
    /// Panics on a config with no cells or a zero batch.
    pub fn new(config: &AdaptiveConfig, seed: u64, stage_events: [u64; 5]) -> AdaptiveState {
        assert!(!config.cells.is_empty(), "adaptive campaign needs at least one cell");
        assert!(config.batch > 0, "adaptive campaign needs a non-zero batch");
        let cells: Vec<Cell> = config
            .cells
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let sampler = FaultSampler::for_cell(seed, i, stage_events);
                let population = kind.population(&sampler);
                Cell {
                    kind: *kind,
                    sampler,
                    stats: CellStats::new(),
                    decision: CellDecision::Sampling,
                    drawn: 0,
                    population,
                }
            })
            .collect();
        let budget = if config.budget == 0 {
            cells.iter().fold(0u64, |a, c| a.saturating_add(c.population))
        } else {
            config.budget
        };
        AdaptiveState {
            rule: config.rule(),
            batch: config.batch,
            budget,
            cells,
            drawn_total: 0,
            next_exp: 0,
            rounds: 0,
        }
    }

    /// Draws the next round: up to `batch` faults per still-sampling cell,
    /// bounded by each cell's remaining population and the remaining
    /// global budget, in fixed cell order. An empty result means the
    /// campaign is over (every cell stopped, or the budget is spent).
    pub fn next_round(&mut self) -> Vec<Draw> {
        let mut draws = Vec::new();
        for i in 0..self.cells.len() {
            if !self.cells[i].decision.is_sampling() {
                continue;
            }
            let cell = &mut self.cells[i];
            let k = self
                .batch
                .min(cell.population.saturating_sub(cell.drawn))
                .min(self.budget.saturating_sub(self.drawn_total));
            for _ in 0..k {
                let spec = cell.kind.draw(&mut cell.sampler);
                draws.push(Draw { exp: self.next_exp, cell: i, draw: cell.drawn, spec });
                self.next_exp += 1;
                cell.drawn += 1;
                self.drawn_total += 1;
            }
        }
        if !draws.is_empty() {
            self.rounds += 1;
        }
        draws
    }

    /// Folds one classified outcome into its cell. Infrastructure
    /// failures are *not* evidence: they spent budget at draw time but
    /// must not bias the rates, so they are skipped here.
    pub fn record(&mut self, cell: usize, outcome: Outcome) {
        if outcome.is_experiment_outcome() {
            self.cells[cell].stats.record(outcome);
        }
    }

    /// Evaluates the stopping rule at a round boundary: cells whose every
    /// outcome-rate CI reached the target become `Decided`; cells whose
    /// population ran dry become `Exhausted`.
    pub fn end_round(&mut self) {
        for cell in &mut self.cells {
            if !cell.decision.is_sampling() {
                continue;
            }
            if self.rule.satisfied(&cell.stats) {
                cell.decision = CellDecision::Decided { n: cell.stats.n() };
            } else if cell.drawn >= cell.population {
                cell.decision = CellDecision::Exhausted { n: cell.stats.n() };
            }
        }
    }

    /// Marks every still-sampling cell `Exhausted` — called once the
    /// budget is spent (i.e. when [`AdaptiveState::next_round`] comes back
    /// empty).
    pub fn finalize(&mut self) {
        for cell in &mut self.cells {
            if cell.decision.is_sampling() {
                cell.decision = CellDecision::Exhausted { n: cell.stats.n() };
            }
        }
    }

    /// Total draws issued so far (the spent budget).
    pub fn drawn_total(&self) -> u64 {
        self.drawn_total
    }

    /// Rounds drawn so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Per-cell reports in cell order.
    pub fn reports(&self, z: f64) -> Vec<CellReport> {
        self.cells
            .iter()
            .map(|c| CellReport {
                cell: c.kind,
                n: c.stats.n(),
                drawn: c.drawn,
                decision: c.decision,
                stats: c.stats,
                max_halfwidth: c.stats.max_halfwidth(z),
            })
            .collect()
    }

    /// What the campaign concluded, given the pooled `table` its driver
    /// kept and how many outcomes it `resumed` from a journal.
    pub(crate) fn outcome(&self, z: f64, table: OutcomeTable, resumed: u64) -> AdaptiveOutcome {
        AdaptiveOutcome {
            cells: self.reports(z),
            table,
            experiments: self.drawn_total,
            rounds: self.rounds,
            resumed,
            z,
        }
    }
}

/// The terminal per-cell record of an adaptive campaign.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// The cell.
    pub cell: CellKind,
    /// Experiments folded as evidence.
    pub n: u64,
    /// Draws issued (n plus infrastructure failures).
    pub drawn: u64,
    /// How sampling ended.
    pub decision: CellDecision,
    /// The streamed outcome statistics.
    pub stats: CellStats,
    /// Widest outcome-rate Wilson half-interval at campaign end.
    pub max_halfwidth: f64,
}

/// What an adaptive campaign concluded.
#[derive(Debug, Clone)]
pub struct AdaptiveOutcome {
    /// Per-cell reports, in cell order.
    pub cells: Vec<CellReport>,
    /// All outcomes pooled (including infrastructure failures).
    pub table: OutcomeTable,
    /// Total experiments drawn — the number the fixed-n ablation compares
    /// against.
    pub experiments: u64,
    /// Sampling rounds executed.
    pub rounds: u64,
    /// Experiments whose outcome was replayed from a journal rather than
    /// executed (resume path; 0 for in-process runs).
    pub resumed: u64,
    /// The z-value the per-cell half-widths were computed at.
    pub z: f64,
}

impl fmt::Display for AdaptiveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>6} {:>6} {:>13} {:>7}  crash nonprop strict correct sdc (rate%±ci)",
            "cell", "n", "drawn", "decision", "max±"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:<10} {:>6} {:>6} {:>13} {:>6.1}%  {}",
                c.cell.to_string(),
                c.n,
                c.drawn,
                c.decision.to_string(),
                c.max_halfwidth * 100.0,
                c.stats.table().rate_ci_row(self.z),
            )?;
        }
        write!(f, "total: {} experiments in {} rounds", self.experiments, self.rounds)
    }
}

/// Runs a whole adaptive campaign in-process: each round's batch executes
/// one [`run_experiment`] at a time, each forking the latest unarmed
/// station of `prepared` (the fault-free prefix is walked once per
/// prepared workload, not once per round), and the outcomes fold straight
/// back into the engine. The [`ForkConfig`] is accepted and ignored: the
/// benchmark passes one, and the argument goes with the benchmark's traced
/// replica. There is no share here, so nothing is journaled, leased or
/// resumable: the round protocol is driven directly instead of through
/// `now::Campaign`.
pub fn run_campaign_adaptive(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    runner: &RunnerConfig,
    _fork: Option<&ForkConfig>,
    config: &AdaptiveConfig,
    seed: u64,
) -> AdaptiveOutcome {
    let mut state = AdaptiveState::new(config, seed, prepared.stage_events);
    let mut table = OutcomeTable::new();
    loop {
        let draws = state.next_round();
        if draws.is_empty() {
            break;
        }
        for draw in &draws {
            let outcome = run_experiment(prepared, workload, draw.spec, runner).outcome;
            state.record(draw.cell, outcome);
            table.add(outcome);
        }
        state.end_round();
    }
    state.finalize();
    state.outcome(config.z, table, 0)
}

/// What a campaign spends its experiments on, one round at a time. A
/// fixed-n campaign is the one-round case of the sequential engine: its
/// whole spec list is round one and round two is empty.
pub(crate) enum Plan {
    /// A fixed experiment list.
    Fixed {
        /// The faults to inject, one experiment each.
        specs: Vec<FaultSpec>,
        /// Whether round one was handed out.
        issued: bool,
    },
    /// Sequential sampling with per-cell early stopping.
    Adaptive {
        /// Stopping rule and cell layout.
        config: AdaptiveConfig,
        /// Campaign RNG seed.
        seed: u64,
        /// The live engine.
        state: AdaptiveState,
    },
}

impl Plan {
    /// A fixed-n plan over `specs`.
    pub(crate) fn fixed(specs: Vec<FaultSpec>) -> Plan {
        Plan::Fixed { specs, issued: false }
    }

    /// An adaptive plan over the measured fault space of a prepared
    /// workload.
    pub(crate) fn adaptive(config: AdaptiveConfig, seed: u64, stage_events: [u64; 5]) -> Plan {
        let state = AdaptiveState::new(&config, seed, stage_events);
        Plan::Adaptive { config, seed, state }
    }

    /// The journal header pinning this campaign's identity.
    pub(crate) fn header(&self, checkpoint_digest: u64) -> JournalEvent {
        match self {
            Plan::Fixed { specs, .. } => JournalEvent::Campaign {
                version: JOURNAL_VERSION,
                experiments: specs.len() as u64,
                checkpoint_digest,
                spec_digest: spec_digest(specs),
            },
            Plan::Adaptive { config, seed, .. } => config.header(*seed, checkpoint_digest),
        }
    }

    /// Draws the next round. An empty result means the campaign is over
    /// (and finalizes the sequential engine).
    pub(crate) fn next_round(&mut self) -> Vec<Draw> {
        match self {
            Plan::Fixed { specs, issued } => {
                if std::mem::replace(issued, true) {
                    return Vec::new();
                }
                let draw = |(i, &spec)| Draw { exp: i as u64, cell: 0, draw: i as u64, spec };
                specs.iter().enumerate().map(draw).collect()
            }
            Plan::Adaptive { state, .. } => {
                let draws = state.next_round();
                if draws.is_empty() {
                    state.finalize();
                }
                draws
            }
        }
    }

    /// The `(cell label, ordinal)` a sampled draw is journaled under; a
    /// fixed plan's experiments are pinned by the header's spec digest
    /// instead and journal no draws.
    pub(crate) fn draw_label(&self, draw: &Draw) -> Option<(String, u64)> {
        match self {
            Plan::Fixed { .. } => None,
            Plan::Adaptive { config, .. } => Some((config.cells[draw.cell].to_string(), draw.draw)),
        }
    }

    /// Folds one terminal outcome of the open round.
    pub(crate) fn record(&mut self, cell: usize, outcome: Outcome) {
        if let Plan::Adaptive { state, .. } = self {
            state.record(cell, outcome);
        }
    }

    /// Closes the open round (re-evaluates the stopping rule).
    pub(crate) fn end_round(&mut self) {
        if let Plan::Adaptive { state, .. } = self {
            state.end_round();
        }
    }

    /// Experiments handed out so far.
    pub(crate) fn drawn_total(&self) -> u64 {
        match self {
            Plan::Fixed { specs, issued } => u64::from(*issued) * specs.len() as u64,
            Plan::Adaptive { state, .. } => state.drawn_total(),
        }
    }

    /// The sequential engine, when this is an adaptive plan.
    pub(crate) fn sequential(&self) -> Option<(&AdaptiveConfig, &AdaptiveState)> {
        match self {
            Plan::Fixed { .. } => None,
            Plan::Adaptive { config, state, .. } => Some((config, state)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::prepare_workload;
    use gemfi_cpu::CpuKind;
    use gemfi_workloads::pi::MonteCarloPi;

    fn tiny() -> (MonteCarloPi, PreparedWorkload, RunnerConfig) {
        let w = MonteCarloPi { points: 40, init_spins: 30, ..MonteCarloPi::default() };
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        };
        (w, p, runner)
    }

    #[test]
    fn cell_labels_roundtrip() {
        let mut cells = CellKind::CLASSES.to_vec();
        cells.extend([
            CellKind::Cache(CacheLevel::L1I),
            CellKind::Cache(CacheLevel::L1D),
            CellKind::Cache(CacheLevel::L2),
            CellKind::Security,
        ]);
        for cell in cells {
            assert_eq!(CellKind::parse(&cell.to_string()), Some(cell), "{cell}");
        }
        assert_eq!(CellKind::parse("bogus"), None);
    }

    #[test]
    fn rounds_draw_only_undecided_cells_within_budget() {
        let config = AdaptiveConfig {
            min_n: 4,
            batch: 5,
            budget: 23,
            cells: vec![CellKind::Class(LocationClass::Pc), CellKind::Class(LocationClass::IntReg)],
            ..AdaptiveConfig::default()
        };
        let mut state = AdaptiveState::new(&config, 9, [500; 5]);
        let first = state.next_round();
        assert_eq!(first.len(), 10, "batch per cell");
        assert_eq!(first.iter().filter(|d| d.cell == 0).count(), 5);
        // Exp indices are globally sequential; draw ordinals per-cell.
        for (i, d) in first.iter().enumerate() {
            assert_eq!(d.exp, i as u64);
        }
        for d in &first {
            state.record(d.cell, Outcome::Crashed);
        }
        state.end_round();
        // Decide cell 0 artificially by exhausting nothing: both still
        // sampling (±0.05 unreachable at n=5), so round 2 draws both, but
        // the 23-experiment budget caps the tail.
        let second = state.next_round();
        let third = state.next_round();
        assert_eq!(second.len(), 10);
        assert_eq!(third.len(), 3, "budget caps the last round");
        assert_eq!(state.drawn_total(), 23);
        assert!(state.next_round().is_empty());
        state.finalize();
        assert!(state.reports(Z_95).iter().all(|c| !c.decision.is_sampling()));
    }

    #[test]
    fn lopsided_cells_stop_early_and_release_budget() {
        let config = AdaptiveConfig {
            ci_halfwidth: 0.12,
            min_n: 10,
            batch: 8,
            budget: 400,
            cells: vec![CellKind::Class(LocationClass::Pc), CellKind::Class(LocationClass::IntReg)],
            ..AdaptiveConfig::default()
        };
        let mut state = AdaptiveState::new(&config, 3, [400; 5]);
        let mut lopsided_stopped_at = None;
        loop {
            let draws = state.next_round();
            if draws.is_empty() {
                break;
            }
            for d in &draws {
                // Cell 0 always crashes (perfectly lopsided); cell 1
                // alternates (maximum variance).
                let outcome = if d.cell == 0 || d.draw % 2 == 0 {
                    Outcome::Crashed
                } else {
                    Outcome::Correct
                };
                state.record(d.cell, outcome);
            }
            state.end_round();
            let reports = state.reports(Z_95);
            if lopsided_stopped_at.is_none() && reports[0].decision.is_decided() {
                lopsided_stopped_at = Some(reports[0].n);
            }
        }
        state.finalize();
        let reports = state.reports(Z_95);
        let stopped = lopsided_stopped_at.expect("lopsided cell decided");
        assert!(stopped <= 40, "lopsided cell stopped at n={stopped}");
        assert!(
            reports[1].n > reports[0].n * 2,
            "freed budget flowed to the mixed cell: {} vs {}",
            reports[1].n,
            reports[0].n
        );
        // The mixed cell kept its rule honest: decided only if its widest
        // CI reached the target.
        if reports[1].decision.is_decided() {
            assert!(reports[1].max_halfwidth <= 0.12 + 1e-9);
        }
    }

    #[test]
    fn min_n_floor_blocks_single_digit_decisions() {
        let config = AdaptiveConfig {
            ci_halfwidth: 0.49,
            min_n: 30,
            batch: 4,
            budget: 200,
            cells: vec![CellKind::Class(LocationClass::Fetch)],
            ..AdaptiveConfig::default()
        };
        let mut state = AdaptiveState::new(&config, 1, [300; 5]);
        loop {
            let draws = state.next_round();
            if draws.is_empty() {
                break;
            }
            for d in &draws {
                state.record(d.cell, Outcome::NonPropagated);
            }
            state.end_round();
            let r = &state.reports(Z_95)[0];
            if r.decision.is_decided() {
                assert!(r.n >= 30, "decided below the floor: n={}", r.n);
                break;
            }
        }
    }

    #[test]
    fn adaptive_campaign_runs_end_to_end_and_respects_the_budget() {
        let (w, p, runner) = tiny();
        let config = AdaptiveConfig {
            ci_halfwidth: 0.2,
            min_n: 5,
            batch: 6,
            budget: 40,
            cells: vec![CellKind::Class(LocationClass::FpReg), CellKind::Class(LocationClass::Pc)],
            ..AdaptiveConfig::default()
        };
        let out = run_campaign_adaptive(&p, &w, &runner, None, &config, 11);
        assert!(out.experiments <= 40, "budget respected: {}", out.experiments);
        assert_eq!(out.table.total(), out.experiments);
        assert_eq!(out.cells.len(), 2);
        for c in &out.cells {
            assert!(!c.decision.is_sampling(), "{}: {}", c.cell, c.decision);
            if let CellDecision::Decided { n } = c.decision {
                assert!(n >= 5, "min_n floor");
            }
        }
        let rendered = out.to_string();
        assert!(rendered.contains("fp-reg") && rendered.contains("pc"), "{rendered}");
    }

    #[test]
    fn forked_and_serial_adaptive_campaigns_agree() {
        let (w, p, runner) = tiny();
        let config = AdaptiveConfig {
            ci_halfwidth: 0.25,
            min_n: 4,
            batch: 5,
            budget: 25,
            cells: vec![CellKind::Class(LocationClass::IntReg)],
            ..AdaptiveConfig::default()
        };
        let serial = run_campaign_adaptive(&p, &w, &runner, None, &config, 5);
        let forked = run_campaign_adaptive(&p, &w, &runner, Some(&ForkConfig), &config, 5);
        assert_eq!(serial.experiments, forked.experiments);
        for (a, b) in serial.cells.iter().zip(&forked.cells) {
            assert_eq!(a.decision, b.decision, "{}", a.cell);
            assert_eq!(a.stats, b.stats, "{}", a.cell);
        }
    }
}
