//! Fault-injection campaigns over the GemFI engine (Sec. IV–V methodology).
//!
//! A campaign reproduces the paper's experimental pipeline end to end:
//!
//! 1. **Checkpoint**: run the workload once up to its `fi_read_init_all()`
//!    marker (system "boot" + application initialization) and snapshot the
//!    machine (Fig. 3).
//! 2. **Golden run**: continue fault-free to get the reference output, the
//!    kernel's per-stage event counts (the samplable fault space), and the
//!    fault-free timing.
//! 3. **Sampling**: draw faults uniformly over *Location*, *Time* and
//!    *Behavior* (Sec. IV-B-1, single-event-upset bit flips), sized by the
//!    statistical-fault-injection formula of Leveugle et al. (DATE'09).
//! 4. **Experiments**: for each fault, restore the checkpoint into **O3**
//!    mode, inject, continue "until the affected instruction commits or
//!    squashes", then switch to **atomic** mode until termination.
//! 5. **Classification**: crashed / non-propagated / strictly-correct /
//!    correct / SDC, using each workload's acceptability gate.
//! 6. Optionally, execute the experiment set on a simulated **network of
//!    workstations** pulling work from a shared spool directory, or on a
//!    fleet of remote workers behind a campaign server (Sec. III-E).
//!
//! Steps 4–6 are one pipeline in three pieces (DESIGN.md §12): the
//! experiment **driver** ([`runner`]: build a machine from the checkpoint
//! or a fork plan's trunk; drive it; classify), a **plan** that hands out
//! experiments in rounds ([`adaptive`]: a fixed list is the one-round case
//! of the sequential sampler), and the **slot table** ([`now`]: one slot
//! per drawn experiment, the fold of its journal, a round being its open
//! range) that spool threads and socket workers claim from through one
//! [`transport`] trait. A retried attempt re-runs from the checkpoint; the
//! journal is the only per-experiment state. Every `run_*` entry point is a
//! thin composition of these.

pub mod adaptive;
pub mod classify;
pub mod clock;
pub mod fork;
pub mod journal;
pub mod lease;
pub mod now;
pub mod report;
pub mod rng;
pub mod runner;
pub mod sampler;
pub mod server;
pub mod stats;
pub mod transport;
pub mod wire;
pub mod worker;

pub use adaptive::{
    run_campaign_adaptive, AdaptiveConfig, AdaptiveOutcome, AdaptiveState, CellKind, CellReport,
};
pub use classify::classify;
pub use clock::Clock;
pub use fork::{drive_suffix, plan_suffixes, run_campaign_forked, ForkConfig, ForkedSuffix};
pub use journal::{Journal, JournalEvent};
pub use lease::{Lease, LeaseDir};
pub use now::{
    run_campaign_adaptive_now, run_campaign_now, CompletedExperiment, NowConfig, NowReport,
};
pub use report::OutcomeTable;
pub use rng::SplitMix64;
pub use runner::{
    drive_whole_run, prepare_workload, run_experiment, run_experiment_from_with_abort,
    run_experiment_multi, ExperimentResult, PreparedWorkload, RunnerConfig, DORMANT_CHUNK_FACTOR,
};
pub use sampler::{FaultSampler, LocationClass};
pub use server::{CampaignServer, QueueKind, QueueReport, QueueSpec, ServerConfig, ServerReport};
pub use stats::{leveugle_sample_size, wilson_interval, CellDecision, CellStats, Z_95, Z_99};
pub use transport::{CampaignTransport, ClaimReply, ReportAck, WorkAssignment};
pub use wire::{ClientMsg, ServerMsg, PROTO_VERSION};
pub use worker::{
    run_socket_worker, SocketTransport, WorkerOptions, WorkerReport, WorkloadResolver,
};
