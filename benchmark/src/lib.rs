//! `campaign_e2e` — the repository's benchmark: classified experiments per
//! second for a campaign through every executor (in-process, forked, spool,
//! socket, adaptive over the socket), with a per-layer time budget from a
//! separate traced run. See `README.md` for the metric definitions and
//! `../BENCHMARK.json` for the contract with the driver.
//!
//! It measures each layer from outside, by timing calls into `pub`
//! functions of the crates under test.

pub mod compare;
pub mod exec;
pub mod host;
pub mod json;
pub mod metrics;
pub mod micro;
pub mod replica;
pub mod run;
pub mod trace;
pub mod workloads;
