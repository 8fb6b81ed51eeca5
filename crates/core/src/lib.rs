//! GemFI — configurable architectural fault injection for `ghost5`.
//!
//! This crate is the reproduction of the paper's contribution: a fault
//! injection layer over a cycle-accurate full-system simulator, following
//! the generic behavioural processor fault model of Yount & Siewiorek. It
//! provides:
//!
//! * a **fault specification language** ([`spec`], [`config`]) with the four
//!   attributes of Sec. III — *Location*, *Thread*, *Time*, *Behavior* —
//!   plus occurrence counts for transient/intermittent/permanent faults,
//!   parsed from input files in the style of the paper's Listing 1:
//!
//!   ```text
//!   RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu0 occ:1 int 1
//!   ```
//!
//! * **five per-pipeline-stage fault queues** ([`queues`]), sorted by fault
//!   time, scanned as instructions are served at each stage (Sec. III-C);
//!
//! * **thread tracking by PCB address** ([`thread`]): threads opt in with
//!   the `fi_activate_inst(id)` pseudo-op; GemFI keys its
//!   `ThreadEnabledFault` state on the PCB base and refreshes a per-core
//!   pointer cache on context switches rather than hashing every tick (the
//!   optimization Sec. III-C describes — reproducible here via
//!   [`EngineConfig::pcb_pointer_cache`]);
//!
//! * the **injection engine** ([`engine::GemFiEngine`]) implementing the
//!   simulator's [`FaultHooks`] surface: fetched-instruction corruption,
//!   decode register-selection corruption, execute-stage result corruption,
//!   memory-transaction corruption, and register/PC corruption at
//!   instruction boundaries, each producing an [`InjectionRecord`] with the
//!   disassembly of the affected instruction for post-mortem correlation;
//!
//! * **outcome classes** ([`outcome::Outcome`]) for campaign
//!   classification, and a **Vdd scaling model** ([`vdd`]) for the paper's
//!   future-work direction (supply voltage vs. error rate).
//!
//! [`FaultHooks`]: gemfi_cpu::FaultHooks
//!
//! # Example
//!
//! ```
//! use gemfi::{FaultConfig, GemFiEngine};
//!
//! let config: FaultConfig =
//!     "RegisterInjectedFault Inst:10 Flip:21 Threadid:0 system.cpu0 occ:1 int 1"
//!         .parse()
//!         .expect("valid fault description");
//! let engine = GemFiEngine::new(config);
//! assert_eq!(engine.pending_faults(), 1);
//! ```

pub mod config;
pub mod corrupt;
pub mod engine;
pub mod outcome;
pub mod queues;
pub mod record;
pub mod spec;
pub mod thread;
pub mod vdd;

pub use config::{FaultConfig, ParseFaultError};
pub use engine::{AbortToken, EngineConfig, GemFiEngine};
pub use outcome::Outcome;
pub use record::InjectionRecord;
pub use spec::{
    CacheLevel, FaultBehavior, FaultLocation, FaultSpec, FaultTiming, MbuPattern, MemTarget, Stage,
};
pub use vdd::VddModel;
