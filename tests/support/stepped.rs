//! The stepped reference the fast-path conformance tests compare against:
//! `Machine::run` sprints through dormant stretches with hooks elided (and
//! runs superblocks on Atomic), while this loop calls the fully hooked
//! `Machine::step()` for every step. Included with `#[path]` by the root
//! tests that compare the two.

use gemfi_cpu::FaultHooks;
use gemfi_sim::{Machine, RunExit};

/// Steps `m` to its terminal exit, stepping over checkpoint requests.
pub fn run_stepped<H: FaultHooks>(m: &mut Machine<H>) -> RunExit {
    loop {
        match m.step() {
            None | Some(RunExit::CheckpointRequest) => {}
            Some(exit) => return exit,
        }
    }
}
