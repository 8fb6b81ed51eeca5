//! Classic memory system for the `ghost5` simulator.
//!
//! Reproduces gem5's *classic* memory model at the fidelity the paper needs:
//! a physical memory backing store, split L1 instruction/data caches, a
//! unified L2, and a fixed-latency DRAM behind them. Caches are tag-only
//! (data lives in [`PhysMem`]); they model hit/miss timing, evictions and
//! writebacks, and export the statistics the paper compares in its
//! validation runs ("the statistical results provided by the simulator …
//! were identical").
//!
//! The simulated configuration mirrors Sec. IV: "a single core ALPHA CPU
//! coupled with a tournament branch predictor, a L1 instruction cache and a
//! L1 data cache and as a L2 cache we used a unified L2 cache".
//!
//! # Example
//!
//! ```
//! use gemfi_mem::{MemConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! mem.write_u64_functional(0x1000, 42).unwrap();
//! let (value, latency) = mem.read_u64(0x1000, 0).unwrap();
//! assert_eq!(value, 42);
//! assert!(latency > 0);
//! ```

// Guest-reachable crate: new unwrap/expect sites need an explicit allow with
// a written justification (fault containment, see DESIGN.md).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod cache;
mod config;
mod cow;
mod hierarchy;
mod lesion;
mod phys;
mod snapshot;
mod stats;

pub use cache::{Cache, CacheConfig};
pub use config::MemConfig;
pub use gemfi_isa::{PredecodeStats, SuperblockStats};
pub use hierarchy::{AccessKind, MemorySystem};
pub use lesion::{CacheLesion, CacheLevel, LesionEffect, LesionKind, LesionTarget};
pub use phys::{PhysMem, PAGE_SIZE};
pub use snapshot::{decode_image, encode_image};
pub use stats::{CacheStats, MemStats};

/// Simulation time, in ticks.
pub type Ticks = u64;
