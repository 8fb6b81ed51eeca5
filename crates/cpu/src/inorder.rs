//! The pipelined in-order CPU model.
//!
//! Functionally identical to the simple models (it funnels through
//! [`step_instruction`]); its contribution is a five-stage-pipeline *timing*
//! account: steady-state CPI of 1, instruction/data cache miss stalls, a
//! load-use interlock, multi-cycle execution units, and a tournament branch
//! predictor charging a redirect penalty on mispredictions.

use crate::exec::{exec_latency, step_instruction};
use crate::hooks::FaultHooks;
use crate::predictor::TournamentPredictor;
use crate::StepResult;
use gemfi_isa::{ArchState, ExecError, Instr, JumpKind, RegRef};
use gemfi_kernel::Kernel;
use gemfi_mem::{MemorySystem, Ticks};

/// Fetch-redirect penalty on a branch misprediction (pipeline refill).
const MISPREDICT_PENALTY: Ticks = 3;

/// Pipelined in-order core with a tournament predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct InOrderCpu {
    predictor: TournamentPredictor,
    last_load_dest: Option<RegRef>,
}

impl InOrderCpu {
    /// A fresh core with a cold predictor.
    pub fn new() -> InOrderCpu {
        InOrderCpu { predictor: TournamentPredictor::new(), last_load_dest: None }
    }

    /// The branch predictor (stats inspection).
    pub fn predictor(&self) -> &TournamentPredictor {
        &self.predictor
    }

    /// Executes one instruction and charges pipeline timing.
    ///
    /// # Errors
    ///
    /// [`ExecError::Trap`] with the guest trap that terminated execution.
    /// The hazard/predictor logic tolerates arbitrary corrupted PCs and
    /// register selections (the untimed peek falls back to a zero word and
    /// decode failures become `None`), so this model never reports
    /// `ExecError::Sim`.
    pub fn step<H: FaultHooks>(
        &mut self,
        core: usize,
        arch: &mut ArchState,
        mem: &mut MemorySystem,
        kernel: &mut Kernel,
        hooks: &mut H,
        now: Ticks,
    ) -> Result<StepResult, ExecError> {
        let l1i_hit = mem.config().l1i.hit_latency;
        let l1d_hit = mem.config().l1d.hit_latency;

        // One untimed peek at the upcoming word feeds both the direction
        // predictor and the load-use interlock. The predecode cache serves
        // it for free when warm; cold (or with the cache disabled) it falls
        // back to a functional read + decode. Neither path touches timing
        // or memory statistics — the timed fetch below is the
        // architectural one.
        let peeked = mem.peek_predecoded(arch.pc).or_else(|| {
            let word = mem.read_u32_functional(arch.pc).unwrap_or(0);
            gemfi_isa::decode(gemfi_isa::RawInstr(word)).ok()
        });

        // Direction prediction must be made before resolution.
        let prediction = match peeked {
            Some(i) if i.is_cond_branch() => Some(self.predictor.predict_direction(arch.pc)),
            _ => None,
        };

        // Load-use interlock: does this instruction consume the previous
        // load's destination?
        let mut stall: Ticks = 0;
        if let (Some(dest), Some(i)) = (self.last_load_dest, peeked) {
            if i.src_regs().iter().flatten().any(|&s| s == dest) {
                stall += 1;
            }
        }

        let rec = step_instruction(core, arch, mem, kernel, hooks, now)?;

        // Cache-miss stalls: anything beyond an L1 hit stalls the pipe.
        stall += rec.fetch_latency.saturating_sub(l1i_hit);
        if rec.mem_latency > 0 {
            stall += rec.mem_latency.saturating_sub(l1d_hit);
        }
        // Multi-cycle execution.
        stall += exec_latency(&rec.instr).saturating_sub(1);

        // Control flow: resolve predictions and charge redirects.
        match rec.instr {
            Instr::CondBr { .. } | Instr::FpCondBr { .. } => {
                let predicted = prediction.unwrap_or(false);
                self.predictor.update_direction(rec.pc, rec.taken, predicted);
                if predicted != rec.taken {
                    stall += MISPREDICT_PENALTY;
                } else if rec.taken {
                    // Direction right, but the target comes from the BTB.
                    if self.predictor.predict_target(rec.pc) != Some(rec.next_pc) {
                        stall += MISPREDICT_PENALTY;
                        self.predictor.update_target(rec.pc, rec.next_pc);
                    }
                }
            }
            Instr::Bsr { .. } => {
                self.predictor.push_return(rec.pc.wrapping_add(4));
            }
            Instr::Jump { kind, .. } => match kind {
                JumpKind::Ret => {
                    if self.predictor.pop_return() != Some(rec.next_pc) {
                        stall += MISPREDICT_PENALTY;
                        self.predictor.note_mispredict();
                    }
                }
                JumpKind::Jsr => {
                    self.predictor.push_return(rec.pc.wrapping_add(4));
                    if self.predictor.predict_target(rec.pc) != Some(rec.next_pc) {
                        stall += MISPREDICT_PENALTY;
                        self.predictor.update_target(rec.pc, rec.next_pc);
                    }
                }
                JumpKind::Jmp => {
                    if self.predictor.predict_target(rec.pc) != Some(rec.next_pc) {
                        stall += MISPREDICT_PENALTY;
                        self.predictor.update_target(rec.pc, rec.next_pc);
                    }
                }
            },
            _ => {}
        }

        self.last_load_dest = rec.load_dest;
        Ok(StepResult { ticks: 1 + stall, committed: 1, event: rec.event })
    }
}

impl Default for InOrderCpu {
    fn default() -> InOrderCpu {
        InOrderCpu::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHooks;
    use crate::StepEvent;
    use gemfi_asm::{Assembler, Reg};
    use gemfi_mem::MemConfig;

    fn boot(program: &gemfi_asm::Program) -> (ArchState, MemorySystem, Kernel) {
        let mut mem = MemorySystem::new(MemConfig { phys_size: 8 << 20, ..MemConfig::default() });
        let mut text = Vec::new();
        for w in program.text_words() {
            text.extend_from_slice(&w.to_le_bytes());
        }
        mem.write_slice(gemfi_asm::TEXT_BASE, &text).unwrap();
        mem.write_slice(program.data_base(), program.data_bytes()).unwrap();
        let mut arch = ArchState::default();
        let kernel =
            Kernel::boot(&mut arch, &mut mem, program.entry(), program.image_end(), 0).unwrap();
        (arch, mem, kernel)
    }

    fn loop_program() -> gemfi_asm::Program {
        let mut a = Assembler::new();
        a.li(Reg::R1, 0);
        a.li(Reg::R2, 300);
        a.label("loop");
        a.addq_lit(Reg::R1, 1, Reg::R1);
        a.subq(Reg::R2, Reg::R1, Reg::R3);
        a.bgt(Reg::R3, "loop");
        a.mov(Reg::R1, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        a.finish().unwrap()
    }

    #[test]
    fn inorder_matches_atomic_functionally() {
        let p = loop_program();

        let run = |use_inorder: bool| -> u64 {
            let (mut arch, mut mem, mut kernel) = boot(&p);
            let mut io = InOrderCpu::new();
            let mut at = crate::simple::AtomicCpu;
            let mut now = 0;
            loop {
                let r = if use_inorder {
                    io.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now).unwrap()
                } else {
                    at.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now).unwrap()
                };
                now += r.ticks;
                if let StepEvent::Halted(code) = r.event {
                    return code;
                }
            }
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(true), 300);
    }

    #[test]
    fn predictor_learns_the_loop_branch() {
        let p = loop_program();
        let (mut arch, mut mem, mut kernel) = boot(&p);
        let mut cpu = InOrderCpu::new();
        let mut now = 0;
        loop {
            let r = cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now).unwrap();
            now += r.ticks;
            if matches!(r.event, StepEvent::Halted(_)) {
                break;
            }
        }
        let s = cpu.predictor().stats();
        assert!(s.lookups >= 300);
        assert!(s.accuracy() > 0.85, "accuracy {}", s.accuracy());
    }

    #[test]
    fn inorder_is_slower_than_one_cpi_on_cold_caches() {
        let p = loop_program();
        let (mut arch, mut mem, mut kernel) = boot(&p);
        let mut cpu = InOrderCpu::new();
        let mut ticks = 0;
        let mut instrs = 0;
        loop {
            let r = cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, ticks).unwrap();
            ticks += r.ticks;
            instrs += r.committed;
            if matches!(r.event, StepEvent::Halted(_)) {
                break;
            }
        }
        assert!(ticks > instrs);
    }
}
