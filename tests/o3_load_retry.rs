//! An O3 load that waits behind an older store keeps its execute-stage
//! fault.
//!
//! A load whose older store has no address yet cannot issue and retries
//! the next cycle. Its address generation runs the execute hook, so a
//! fault the hook fires there must reach the retried access: the engine
//! has already counted the event and recorded the injection. This pins
//! that the load reads the corrupted address through `Machine::run` and
//! through the stepped reference (a fully hooked `Machine::step()` loop).

#[path = "support/stepped.rs"]
mod stepped;

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_asm::{Assembler, Program, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};
use stepped::run_stepped;

const CLEAN: u64 = 11;
const FAULTED: u64 = 22;

/// Publishes the word a load reads at `buf`. An older store's address
/// waits on a `mulq` chain, so the load's first attempt finds it unknown
/// and retries. A flip of address bit 3 moves the load to `buf ^ 8`,
/// which holds `FAULTED` on either side of `buf`.
fn waiting_load_program() -> Program {
    let mut a = Assembler::new();
    a.dsym("below");
    a.data_u64(&[FAULTED]);
    a.dsym("buf");
    a.data_u64(&[CLEAN, FAULTED, 0]);
    a.fi_activate(0);
    a.la(Reg::R1, "buf");
    a.li(Reg::R2, 3);
    for _ in 0..8 {
        a.mulq(Reg::R2, Reg::R2, Reg::R2);
    }
    a.mulq_lit(Reg::R2, 0, Reg::R2);
    a.addq(Reg::R1, Reg::R2, Reg::R5); // `buf`, known only after the chain
    a.li(Reg::R6, 99);
    a.stq(Reg::R6, 16, Reg::R5);
    a.ldq(Reg::R3, 0, Reg::R1);
    a.mov(Reg::R3, Reg::A0);
    a.write_word();
    a.exit(0);
    a.finish().expect("assembles")
}

#[test]
fn a_load_retried_behind_a_store_reads_its_faulted_address() {
    let program = waiting_load_program();
    let buf = program.symbol("buf").expect("buf is defined");
    for stepped in [true, false] {
        let mut hit_the_load = false;
        for n in 1..=40 {
            let line =
                format!("ExecutionStageInjectedFault Inst:{n} Flip:3 Threadid:0 system.cpu0 occ:1");
            let faults: FaultConfig = line.parse().expect("spec parses");
            let config = MachineConfig {
                cpu: CpuKind::O3,
                max_ticks: 1_000_000,
                ..MachineConfig::default()
            };
            let mut machine =
                Machine::boot(config, &program, GemFiEngine::new(faults)).expect("boots");
            let exit = if stepped { run_stepped(&mut machine) } else { machine.run() };
            let records = machine.hooks().records();
            let on_load = records.iter().any(|r| {
                r.before == buf && r.instr.as_deref().is_some_and(|i| i.starts_with("ldq"))
            });
            if !on_load {
                continue;
            }
            hit_the_load = true;
            assert_eq!(exit, RunExit::Halted(0), "stepped={stepped} Inst:{n}");
            assert_eq!(
                machine.out_words(),
                [FAULTED],
                "stepped={stepped} Inst:{n}: the load must read its faulted address"
            );
        }
        assert!(hit_the_load, "stepped={stepped}: no Inst:N landed on the load's address");
    }
}
