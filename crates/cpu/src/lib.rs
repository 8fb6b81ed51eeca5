//! CPU models for the `ghost5` simulator.
//!
//! gem5 ships four CPU models trading speed against fidelity; this crate
//! reproduces that spectrum:
//!
//! * [`AtomicCpu`] — one instruction per tick, no memory timing (gem5's
//!   *Atomic Simple*). Used to fast-forward after a fault commits.
//! * [`TimingCpu`] — functional execution plus memory-reference timing
//!   (gem5's *Timing Simple*).
//! * [`InOrderCpu`] — a pipelined in-order core: icache/dcache stalls,
//!   load-use interlock, and a tournament branch predictor with a
//!   mispredict penalty.
//! * [`O3Cpu`] — a pipelined out-of-order core with a reorder buffer,
//!   renaming, speculative execution down predicted paths, a store buffer,
//!   and precise squash/commit — the model the paper performs injection in
//!   ("we restore from the checkpoint, start simulating in O3 mode and
//!   inject the fault. The simulation continues until the affected
//!   instruction commits or squashes").
//!
//! Every model drives the same [`FaultHooks`] surface, which is where GemFI
//! attaches (Fig. 2 of the paper): per-stage callbacks on fetch, decode,
//! execute, and memory transactions, plus register/PC corruption windows at
//! instruction boundaries. The [`NoopHooks`] implementation compiles to
//! nothing and serves as the "unmodified gem5" baseline for the Fig. 7
//! overhead comparison.
//!
//! Containment contract: every model's `step` returns
//! `Result<StepResult, ExecError>` — guest-reachable corruption surfaces as
//! `ExecError::Trap` (an architectural outcome) and broken simulator
//! invariants as `ExecError::Sim` (an infrastructure bug); neither panics.

// Guest-reachable crate: new unwrap/expect sites need an explicit allow with
// a written justification (fault containment, see DESIGN.md).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod exec;
mod hooks;
mod inorder;
mod model;
mod o3;
mod predictor;
mod simple;

pub use hooks::{Dormancy, ElidedHooks, ElisionBatch, FaultHooks, NoopHooks};
pub use inorder::InOrderCpu;
pub use model::{Cpu, CpuKind};
pub use o3::O3Cpu;
pub use predictor::{PredictorStats, TournamentPredictor};
pub use simple::{AtomicCpu, TimingCpu};

use gemfi_mem::Ticks;

/// What a CPU step did, beyond consuming time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Nothing special.
    None,
    /// A `fi_read_init_all` pseudo-op committed: the machine should take a
    /// checkpoint at this (quiesced) point.
    CheckpointRequest,
    /// The machine halted (all threads exited, or an explicit `halt`),
    /// carrying the main thread's exit code.
    Halted(u64),
}

/// The result of advancing a CPU model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepResult {
    /// Ticks consumed by this step.
    pub ticks: Ticks,
    /// Instructions committed during this step.
    pub committed: u64,
    /// Event raised, if any.
    pub event: StepEvent,
}
