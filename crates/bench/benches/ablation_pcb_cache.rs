//! Ablation of the Sec. III-C optimization: resolving the running thread's
//! `ThreadEnabledFault` through the per-core pointer cache (refreshed only
//! on context switches) versus a hash-table lookup on every simulated
//! event. The paper credits this cache with keeping GemFI's per-tick cost
//! negligible; this benchmark quantifies the claim on our engine.
//!
//! It is also the one whole-guest run of the hash-lookup path, so before
//! timing it checks that both arms see the same run: equal engine
//! per-stage event counts, final tick and retired instructions.

use gemfi::engine::EngineConfig;
use gemfi::{FaultConfig, GemFiEngine};
use gemfi_bench::time_it;
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::pi::MonteCarloPi;
use gemfi_workloads::{workload_machine_config, Workload};

/// Runs the guest fault-free; returns the engine's per-stage event counts,
/// the final tick and the retired-instruction count.
fn run_with_cache(pcb_pointer_cache: bool) -> ([u64; 5], u64, u64) {
    let w = MonteCarloPi { points: 400, init_spins: 100, ..MonteCarloPi::default() };
    let guest = w.build();
    let engine = GemFiEngine::with_config(
        FaultConfig::empty(),
        EngineConfig { pcb_pointer_cache, cores: 1 },
    );
    let mut m = Machine::boot(workload_machine_config(CpuKind::Atomic), &guest.program, engine)
        .expect("boots");
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    assert_eq!(exit, RunExit::Halted(0));
    (m.hooks().stage_events(), m.tick(), m.instret())
}

fn main() {
    println!("ablation_pcb_cache");
    let cached = run_with_cache(true);
    let hashed = run_with_cache(false);
    assert_eq!(
        cached, hashed,
        "(stage_events, tick, instret) must not depend on how the running thread is looked up"
    );
    assert!(cached.0.iter().any(|&n| n > 0), "the guest activates injection");
    time_it("pointer_cache", 20, || {
        run_with_cache(true);
    });
    time_it("hash_every_event", 20, || {
        run_with_cache(false);
    });
}
