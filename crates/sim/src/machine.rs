//! The [`Machine`]: one simulated computer.

use crate::checkpoint::Checkpoint;
use crate::config::MachineConfig;
use crate::loader::load_program;
use crate::stats::SimStats;
use gemfi_asm::Program;
use gemfi_cpu::{Cpu, CpuKind, Dormancy, ElidedHooks, FaultHooks, StepEvent};
use gemfi_isa::{ArchState, ExecError, SimError, Trap, MAX_SUPERBLOCK_UOPS};
use gemfi_kernel::Kernel;
use gemfi_mem::{MemorySystem, Ticks};
use std::fmt;

/// Why [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// All guest threads exited (or an explicit halt); carries the main
    /// thread's exit code.
    Halted(u64),
    /// A fatal guest trap — the paper's *Crashed* outcome.
    Trapped(Trap),
    /// The watchdog tick budget was exhausted (hung execution; also
    /// classified as *Crashed*).
    Watchdog,
    /// A `fi_read_init_all()` committed: the caller should take a
    /// checkpoint (the machine is quiesced) and resume with `run`.
    CheckpointRequest,
    /// A simulator invariant was violated — a tool bug, not a guest
    /// outcome. Campaigns classify this as *Infrastructure*, keeping it out
    /// of the paper's guest outcome classes.
    SimError(SimError),
}

impl fmt::Display for RunExit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunExit::Halted(c) => write!(f, "halted (exit code {c})"),
            RunExit::Trapped(t) => write!(f, "trapped: {t}"),
            RunExit::Watchdog => write!(f, "watchdog timeout"),
            RunExit::CheckpointRequest => write!(f, "checkpoint requested"),
            RunExit::SimError(e) => write!(f, "{e}"),
        }
    }
}

/// Address of the synthetic boot stub in the kernel scratch region.
const BOOT_STUB_BASE: u64 = 0x3000;

/// Writes a spin-then-jump stub into the kernel region and points the boot
/// context at it: `r1 = n; while (--r1 > 0); jmp entry`.
fn install_boot_stub(
    mem: &mut MemorySystem,
    arch: &mut ArchState,
    spins: u64,
    entry: u64,
) -> Result<(), Trap> {
    use gemfi_isa::opcode::{BranchCond, IntFunc};
    use gemfi_isa::{encode, Instr, IntReg, JumpKind, Operand};
    // Infallible: 1 and 2 are valid register indices by construction.
    #[allow(clippy::expect_used)]
    let r1 = IntReg::new(1).expect("r1");
    #[allow(clippy::expect_used)]
    let r2 = IntReg::new(2).expect("r2");
    let split = |value: u64| {
        let lo = value as i16;
        let hi = ((value as i64).wrapping_sub(lo as i64) >> 16) as i16;
        (hi, lo)
    };
    let (nhi, nlo) = split(spins.min(1 << 30));
    let (ehi, elo) = split(entry);
    let stub = [
        Instr::Ldah { ra: r1, rb: IntReg::ZERO, disp: nhi },
        Instr::Lda { ra: r1, rb: r1, disp: nlo },
        Instr::IntOp { func: IntFunc::Subq, ra: r1, rb: Operand::Lit(1), rc: r1 },
        Instr::CondBr { cond: BranchCond::Gt, ra: r1, disp: -2 },
        Instr::Ldah { ra: r2, rb: IntReg::ZERO, disp: ehi },
        Instr::Lda { ra: r2, rb: r2, disp: elo },
        Instr::Jump { kind: JumpKind::Jmp, ra: IntReg::ZERO, rb: r2 },
    ];
    for (i, instr) in stub.iter().enumerate() {
        mem.write_u32_functional(BOOT_STUB_BASE + i as u64 * 4, encode(instr).0)?;
    }
    arch.pc = BOOT_STUB_BASE;
    Ok(())
}

/// One simulated computer: CPU + memory + kernel + fault hooks.
#[derive(Debug)]
pub struct Machine<H> {
    config: MachineConfig,
    arch: ArchState,
    mem: MemorySystem,
    kernel: Kernel,
    cpu: Cpu,
    hooks: H,
    tick: Ticks,
    instret: u64,
    /// Instructions committed inside elided sprints (diagnostic; not
    /// serialized — derived performance state, like the predecode cache).
    instret_elided: u64,
    next_preempt: Ticks,
    finished: Option<RunExit>,
    /// See [`Machine::set_elide`].
    elide: bool,
    /// See [`Machine::set_superblock`].
    superblock: bool,
}

impl<H: FaultHooks> Machine<H> {
    /// Boots a machine: loads the program, initializes the kernel and the
    /// first thread, and positions the CPU at the entry point.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] when the image does not fit guest memory.
    pub fn boot(config: MachineConfig, program: &Program, hooks: H) -> Result<Machine<H>, Trap> {
        let mut mem = MemorySystem::new(config.mem);
        load_program(&mut mem, program)?;
        let mut arch = ArchState::default();
        let kernel = Kernel::boot(
            &mut arch,
            &mut mem,
            program.entry(),
            program.image_end(),
            config.quantum,
        )?;
        if config.boot_spin > 0 {
            install_boot_stub(&mut mem, &mut arch, config.boot_spin, program.entry())?;
        }
        let cpu = Cpu::new(config.cpu, arch.pc);
        Ok(Machine {
            config,
            arch,
            mem,
            kernel,
            cpu,
            hooks,
            tick: 0,
            instret: 0,
            instret_elided: 0,
            next_preempt: if config.quantum > 0 { config.quantum } else { u64::MAX },
            finished: None,
            elide: true,
            superblock: true,
        })
    }

    /// Reconstructs a machine from a checkpoint. The CPU model starts fresh
    /// (cold caches and predictor — gem5's restore semantics) in the
    /// checkpoint's CPU mode unless `cpu_override` says otherwise.
    pub fn restore(checkpoint: &Checkpoint, cpu_override: Option<CpuKind>, hooks: H) -> Machine<H> {
        Machine::restore_with(checkpoint, cpu_override, None, hooks)
    }

    /// [`Machine::restore`] with a per-run watchdog override: `max_ticks`
    /// replaces the checkpointed budget for this machine only. The campaign
    /// runner bounds every experiment relative to the fault-free kernel
    /// time this way — as a restore parameter, not by mutating a clone of
    /// the (shared, immutable) checkpoint.
    ///
    /// The checkpoint is never written to: guest memory comes back as a
    /// copy-on-write snapshot of the page table's leaves, so restore cost
    /// is O(leaves) regardless of memory size and each restored machine
    /// pays only for the leaves and pages it subsequently dirties.
    ///
    /// A restore always starts the CPU model *fresh* (cold pipeline, cold
    /// predictor) and decode-cold, even when the checkpoint was captured
    /// from a warm machine — derived state is never serialized, so the
    /// image carries none to revive. This is deliberately different from
    /// [`Machine::fork_with`], which continues a live machine and must keep
    /// the microarchitectural state warm to stay tick-identical with it;
    /// even a fork, though, drops the (tick-invisible) predecode cache.
    /// `tests/fork_prefix_conformance.rs` pins both contracts.
    pub fn restore_with(
        checkpoint: &Checkpoint,
        cpu_override: Option<CpuKind>,
        max_ticks: Option<u64>,
        hooks: H,
    ) -> Machine<H> {
        let mut config = *checkpoint.config();
        if let Some(kind) = cpu_override {
            config.cpu = kind;
        }
        if let Some(budget) = max_ticks {
            config.max_ticks = budget;
        }
        let arch = checkpoint.arch().clone();
        let cpu = Cpu::new(config.cpu, arch.pc);
        // The predecode cache is derived state: a restored machine starts
        // with it empty (a clone is decode-cold), exactly like one rebuilt
        // from the serialized image. Cache tag/LRU state is likewise never
        // serialized, so the restore goes cache-cold even from an in-memory
        // checkpoint; cold caches hold no arrays, so this is O(chunks).
        let mut mem = checkpoint.mem().clone();
        mem.reset_caches();
        let tick = checkpoint.tick();
        Machine {
            config,
            arch,
            mem,
            kernel: checkpoint.kernel().clone(),
            cpu,
            hooks,
            tick,
            instret: checkpoint.instret(),
            instret_elided: 0,
            next_preempt: if config.quantum > 0 { tick + config.quantum } else { u64::MAX },
            finished: None,
            elide: true,
            superblock: true,
        }
    }

    /// Switches dormancy-aware hook elision on or off for this machine.
    /// While on (the default for every booted or restored machine),
    /// `run`/`run_for` sprint to the hooks' dormancy horizon with an
    /// uninstrumented interpreter loop, delivering stage-event counters in
    /// bulk at batch boundaries. Architecturally invisible — same
    /// injections, records, outcomes and bit-identical state either way;
    /// the fully hooked stepped loop stays because it is the reference the
    /// conformance tests, the fuzzer and the benchmarks compare against.
    /// Not machine state: never serialized, inherited only by
    /// [`Machine::fork_with`].
    pub fn set_elide(&mut self, on: bool) {
        self.elide = on;
    }

    /// Switches superblock execution inside dormant Atomic sprints on or
    /// off for this machine (default on; same contract as
    /// [`Machine::set_elide`]). Turning it off drops every cached
    /// translation and its counters.
    pub fn set_superblock(&mut self, on: bool) {
        self.superblock = on;
        if !on {
            self.mem.clear_superblocks();
        }
    }

    /// Forks this machine mid-run: an independent machine that continues
    /// from the exact same architectural *and* microarchitectural state,
    /// with `hooks` replacing this machine's hooks.
    ///
    /// Unlike [`Machine::restore`], which cold-starts the CPU model from a
    /// serialized image, a fork keeps the model warm — pipeline contents,
    /// branch-predictor state, the tick clock and the preempt phase all
    /// carry over — so the fork's future tick stream is bit-identical to
    /// this machine's. Guest memory and the cache arrays are shared
    /// copy-on-write, making a fork O(page-table leaves + cache chunks) like
    /// a restore; each side copies a chunk or page when it first writes it.
    ///
    /// Derived state is *not* carried: the predecode and superblock caches
    /// are not copied at the fork, per the never-serialized contract (they
    /// are architecturally and tick-invisible, so dropping them cannot
    /// change behavior). The fork does inherit this machine's
    /// [`Machine::set_elide`]/[`Machine::set_superblock`] positions.
    pub fn fork_with<H2: FaultHooks>(&self, hooks: H2) -> Machine<H2> {
        Machine {
            config: self.config,
            arch: self.arch.clone(),
            mem: self.mem.clone(),
            kernel: self.kernel.clone(),
            cpu: self.cpu.clone(),
            hooks,
            tick: self.tick,
            instret: self.instret,
            instret_elided: self.instret_elided,
            next_preempt: self.next_preempt,
            finished: self.finished,
            elide: self.elide,
            superblock: self.superblock,
        }
    }

    /// Bytes this machine holds that it does not share with `base`, the
    /// memory system of a machine or checkpoint it descends from: the
    /// machine itself, its CPU model, and the cache chunks, page-table
    /// leaves and pages whose storage differs from `base`'s
    /// ([`MemorySystem::unshared_bytes`]). For a fork this is what it has
    /// come to cost on its own; a line of stations charges each station
    /// this over the station before it.
    pub fn unshared_bytes(&self, base: &MemorySystem) -> usize {
        std::mem::size_of::<Self>() + self.cpu.heap_bytes() + self.mem.unshared_bytes(base)
    }

    /// Captures a checkpoint of the architectural machine state. Only valid
    /// at a quiesced point (no speculative work in flight) — [`Machine::run`]
    /// returns [`RunExit::CheckpointRequest`] exactly at such points.
    ///
    /// # Panics
    ///
    /// Panics if the CPU still has speculative work in flight.
    pub fn checkpoint(&self) -> Checkpoint {
        assert!(!self.cpu.has_in_flight(), "checkpoint requires a quiesced CPU");
        // The clone leaves the (derived) predecode and superblock tables
        // behind, so a checkpoint taken from a warm machine is
        // byte-identical to one taken from a cold machine in the same
        // architectural state. The cache hierarchy goes cold too: the
        // serialized image carries no tag/LRU state, and the in-memory
        // checkpoint must be indistinguishable from its own byte round-trip
        // — warm capture-time tags differ between stepped and superblock
        // execution, and must not leak into restored runs.
        let mut mem = self.mem.clone();
        mem.reset_caches();
        Checkpoint::new(
            self.config,
            self.arch.clone(),
            mem,
            self.kernel.clone(),
            self.tick,
            self.instret,
        )
    }

    /// Switches the CPU model at an instruction boundary, discarding
    /// speculative state (the Sec. IV-B methodology: O3 until the injected
    /// fault commits or squashes, atomic afterwards).
    pub fn switch_cpu(&mut self, kind: CpuKind) {
        self.cpu.flush(&self.arch);
        if self.cpu.kind() != kind {
            self.cpu = Cpu::new(kind, self.arch.pc);
            // Keep the config in sync with the live model: the sprint's
            // superblock gate reads `config.cpu`, so a stale value would
            // silently disable (or worse, enable) block execution after a
            // switch — e.g. the post-fault atomic fast-forward.
            self.config.cpu = kind;
            // Model switches start decode-cold, mirroring gem5 (and keeping
            // the per-model statistics surfaces independent).
            self.mem.clear_predecode();
            self.mem.clear_superblocks();
        }
    }

    /// Advances the machine by one CPU step (one instruction on the simple
    /// models, one cycle on O3).
    pub fn step(&mut self) -> Option<RunExit> {
        if let Some(exit) = self.finished {
            return Some(exit);
        }
        if self.tick >= self.config.max_ticks {
            self.finished = Some(RunExit::Watchdog);
            return self.finished;
        }
        // Timer interrupt at quantum boundaries.
        if self.tick >= self.next_preempt {
            self.next_preempt = self.tick + self.config.quantum;
            self.cpu.flush(&self.arch);
            let old_pcbb = self.arch.pcbb;
            match self.kernel.timer_preempt(&mut self.arch, &mut self.mem) {
                Ok(switched) => {
                    if switched {
                        self.hooks.on_context_switch(0, self.arch.pcbb);
                        debug_assert_ne!(old_pcbb, self.arch.pcbb);
                        self.cpu.flush(&self.arch); // re-aim fetch at new thread
                    }
                }
                Err(t) => {
                    self.finished = Some(RunExit::Trapped(t));
                    return self.finished;
                }
            }
        }

        match self.cpu.step(
            0,
            &mut self.arch,
            &mut self.mem,
            &mut self.kernel,
            &mut self.hooks,
            self.tick,
        ) {
            Ok(r) => {
                self.tick += r.ticks;
                self.instret += r.committed;
                match r.event {
                    StepEvent::None => None,
                    StepEvent::CheckpointRequest => {
                        self.cpu.flush(&self.arch);
                        Some(RunExit::CheckpointRequest)
                    }
                    StepEvent::Halted(code) => {
                        self.finished = Some(RunExit::Halted(code));
                        self.finished
                    }
                }
            }
            Err(ExecError::Trap(t)) => {
                self.finished = Some(RunExit::Trapped(t));
                self.finished
            }
            Err(ExecError::Sim(e)) => {
                self.finished = Some(RunExit::SimError(e));
                self.finished
            }
        }
    }

    /// Runs until the machine halts, traps, exhausts the watchdog, or
    /// requests a checkpoint.
    pub fn run(&mut self) -> RunExit {
        loop {
            if self.elide {
                if let Some(exit) = self.sprint(Ticks::MAX) {
                    return exit;
                }
            }
            if let Some(exit) = self.step() {
                return exit;
            }
        }
    }

    /// Runs for at most `budget` additional ticks; `None` means the budget
    /// expired with the machine still running.
    pub fn run_for(&mut self, budget: Ticks) -> Option<RunExit> {
        let deadline = self.tick.saturating_add(budget);
        while self.tick < deadline {
            if self.elide {
                if let Some(exit) = self.sprint(deadline) {
                    return Some(exit);
                }
                if self.tick >= deadline {
                    return None;
                }
            }
            if let Some(exit) = self.step() {
                return Some(exit);
            }
        }
        None
    }

    /// Runs until the tick clock reaches at least `target` (checkpoint
    /// requests along the way are serviced by continuing, like every
    /// campaign loop). Returns the terminal exit when the machine halts,
    /// traps, or exhausts the watchdog first; `None` once `target` is
    /// reached with the machine still live. The stopping tick is the first
    /// step-start tick at or past `target`, a deterministic function of the
    /// machine's execution alone — fork scheduling relies on that.
    pub fn run_to_tick(&mut self, target: Ticks) -> Option<RunExit> {
        while self.tick < target {
            match self.run_for(target - self.tick) {
                None | Some(RunExit::CheckpointRequest) => {}
                Some(exit) => return Some(exit),
            }
        }
        None
    }

    /// Headroom a sprint leaves below the `events` horizon: strictly larger
    /// than the number of events any single stage can observe in one CPU
    /// step on any model (the simple/in-order models see at most ~2 per
    /// stage per instruction; O3 is bounded by its width-4 pipeline stages
    /// per cycle). Generous by >30×, and irrelevant to correctness unless a
    /// model could outrun it within one step.
    const EVENT_SLACK: u64 = 128;

    /// The elided fast path: while the hooks report a dormancy horizon,
    /// execute with hook dispatch compiled down to batch counters
    /// ([`ElidedHooks`]), stopping at the first machine-level boundary — the
    /// tick `deadline`, the next timer preempt, the watchdog budget, the
    /// event/tick horizon, or a batch-interrupting pseudo-op (fi_activate /
    /// context switch). Terminal events (halt, trap, checkpoint request) are
    /// handled exactly like [`Machine::step`] and returned; `None` hands
    /// control back to the fully hooked loop with the batch flushed.
    ///
    /// Stopping conditions are all checked against the tick at the *start*
    /// of a step — the same instant every hook inside that step observes —
    /// so the instruction stream, preempt points, and chunk boundaries are
    /// identical to the unelided loop.
    fn sprint(&mut self, deadline: Ticks) -> Option<RunExit> {
        if self.finished.is_some() {
            return self.finished;
        }
        let limit = deadline.min(self.next_preempt).min(self.config.max_ticks);
        if self.tick >= limit {
            return None;
        }
        let (event_bound, tick_limit) = match self.hooks.dormancy(0, self.tick) {
            Dormancy::Active => return None,
            Dormancy::Dormant => (u64::MAX, limit),
            Dormancy::Quiet { events, ticks } => {
                // The earliest firing is the `events`-th event of a stage /
                // the tick `now + ticks`: both are exclusive sprint bounds.
                if events <= Self::EVENT_SLACK {
                    return None;
                }
                (events - 1, limit.min(self.tick.saturating_add(ticks)))
            }
        };
        let unbounded = event_bound == u64::MAX;
        // Superblock execution only inside the sprint, only on the atomic
        // model (which charges one tick per committed instruction, so
        // skipping the hierarchy walk is tick-invisible), and only with no
        // lesion planted (micro-ops apply no lesion transforms). Skips and
        // pending fault windows never reach here: armed state forces
        // `Dormancy::Active` and pending windows bound `event_bound`/
        // `tick_limit`, which the per-block budget check below honors.
        //
        // A block runs whole only when its register footprint misses every
        // register a live consumption watch waits on. Otherwise its
        // instructions are stepped under the shim, which reports the
        // watched accesses; `stepping` holds the rest of that block so its
        // tail is stepped too, instead of translating a block at every PC
        // inside it. A branch back to the block's start looks it up again.
        let sb_ok =
            self.superblock && self.config.cpu == CpuKind::Atomic && self.mem.lesions().is_empty();
        let mut stepping = 0..0;
        // Deadline bucketing: a block holds at most MAX_SUPERBLOCK_UOPS
        // micro-ops (n ticks, ≤ n events per stage on atomic), so while the
        // sprint is strictly below these saturating thresholds *any* block
        // fits and the per-block budget arithmetic is skipped. Near a bound
        // the thresholds saturate to 0 and the exact check takes over.
        let max_block = MAX_SUPERBLOCK_UOPS as u64;
        let safe_tick = tick_limit.saturating_sub(max_block);
        let safe_events = event_bound.saturating_sub(max_block.saturating_add(Self::EVENT_SLACK));
        let mut elided = ElidedHooks::new(&mut self.hooks);
        let mut exit = None;
        while self.tick < tick_limit
            && (unbounded
                || elided.max_stage_events().saturating_add(Self::EVENT_SLACK) <= event_bound)
        {
            if sb_ok && !stepping.contains(&self.arch.pc) {
                if let Some(block) = self.mem.superblock_at(self.arch.pc) {
                    let n = block.len() as u64;
                    // The whole block must fit below every sprint bound:
                    // on atomic, n micro-ops cost exactly n ticks and at
                    // most n events per stage. The bucketed fast path
                    // accepts any block far from the bounds; the exact
                    // per-block check runs only near a deadline. If the
                    // block does not fit, fall through to per-instruction
                    // stepping, which stops at precisely the same boundary
                    // as a run with superblocks off.
                    let fits = (self.tick < safe_tick
                        && (unbounded || elided.max_stage_events() < safe_events))
                        || (self.tick.saturating_add(n) <= tick_limit
                            && (unbounded
                                || elided
                                    .max_stage_events()
                                    .saturating_add(n)
                                    .saturating_add(Self::EVENT_SLACK)
                                    <= event_bound));
                    if block.footprint() & elided.watched() != 0 {
                        stepping = block.start().wrapping_add(4)..block.end();
                        self.mem.note_superblock_watch_fallback();
                    } else if fits {
                        let start_tick = self.tick;
                        let run = block.execute(&mut self.arch, &mut self.mem);
                        self.tick += run.committed;
                        self.instret += run.committed;
                        self.instret_elided += run.committed;
                        self.mem.note_superblock_run(run.committed);
                        // The last started instruction began at start_tick
                        // + (started - 1); started >= 1 for any block.
                        let last_now = run.started.checked_sub(1).map(|d| start_tick + d);
                        elided.record_block(0, last_now, run.events);
                        if let Some(t) = run.trap {
                            self.finished = Some(RunExit::Trapped(t));
                            exit = self.finished;
                            break;
                        }
                        continue;
                    } else {
                        self.mem.note_superblock_fallback();
                    }
                }
            }
            match self.cpu.step(
                0,
                &mut self.arch,
                &mut self.mem,
                &mut self.kernel,
                &mut elided,
                self.tick,
            ) {
                Ok(r) => {
                    self.tick += r.ticks;
                    self.instret += r.committed;
                    self.instret_elided += r.committed;
                    match r.event {
                        StepEvent::None => {}
                        StepEvent::CheckpointRequest => {
                            exit = Some(RunExit::CheckpointRequest);
                            break;
                        }
                        StepEvent::Halted(code) => {
                            self.finished = Some(RunExit::Halted(code));
                            exit = self.finished;
                            break;
                        }
                    }
                }
                Err(err) => {
                    self.finished = Some(match err {
                        ExecError::Trap(t) => RunExit::Trapped(t),
                        ExecError::Sim(e) => RunExit::SimError(e),
                    });
                    exit = self.finished;
                    break;
                }
            }
            if elided.interrupted() {
                break;
            }
        }
        elided.finish();
        if exit == Some(RunExit::CheckpointRequest) {
            self.cpu.flush(&self.arch);
        }
        exit
    }

    /// Current simulation time in ticks.
    pub fn tick(&self) -> Ticks {
        self.tick
    }

    /// Instructions committed so far.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    /// The active CPU model.
    pub fn cpu_kind(&self) -> CpuKind {
        self.cpu.kind()
    }

    /// Guest console output.
    pub fn console(&self) -> &[u8] {
        self.kernel.console()
    }

    /// Guest binary output channel.
    pub fn out_words(&self) -> &[u64] {
        self.kernel.out_words()
    }

    /// The architectural state (inspection).
    pub fn arch(&self) -> &ArchState {
        &self.arch
    }

    /// The memory system (host-side input placement / output extraction).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable memory access (host-side input placement).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The fault hooks.
    pub fn hooks(&self) -> &H {
        &self.hooks
    }

    /// Mutable access to the fault hooks (installing fault configurations).
    pub fn hooks_mut(&mut self) -> &mut H {
        &mut self.hooks
    }

    /// Whole-machine statistics.
    pub fn stats(&self) -> SimStats {
        let (mut lookups, mut mispredicts, mut squashed) = (0, 0, 0);
        match &self.cpu {
            Cpu::InOrder(c) => {
                lookups = c.predictor().stats().lookups;
                mispredicts = c.predictor().stats().mispredicts;
            }
            Cpu::O3(c) => {
                lookups = c.predictor().stats().lookups;
                mispredicts = c.predictor().stats().mispredicts;
                squashed = c.stats().squashed;
            }
            _ => {}
        }
        SimStats {
            ticks: self.tick,
            instructions: self.instret,
            instructions_elided: self.instret_elided,
            context_switches: self.kernel.context_switches(),
            mem: self.mem.stats(),
            branch_lookups: lookups,
            branch_mispredicts: mispredicts,
            squashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemfi_asm::{Assembler, Reg};
    use gemfi_cpu::NoopHooks;
    use gemfi_isa::PalFunc;

    fn small_config(cpu: CpuKind) -> MachineConfig {
        MachineConfig {
            cpu,
            mem: gemfi_mem::MemConfig { phys_size: 8 << 20, ..gemfi_mem::MemConfig::default() },
            quantum: 5_000,
            max_ticks: 50_000_000,
            ..MachineConfig::default()
        }
    }

    fn counting_program(n: i64) -> Program {
        let mut a = Assembler::new();
        a.li(Reg::R1, 0);
        a.li(Reg::R2, n);
        a.label("loop");
        a.addq_lit(Reg::R1, 1, Reg::R1);
        a.subq(Reg::R2, Reg::R1, Reg::R3);
        a.bgt(Reg::R3, "loop");
        a.mov(Reg::R1, Reg::A0);
        a.pal(PalFunc::Exit);
        a.finish().unwrap()
    }

    #[test]
    fn all_four_models_agree_on_the_result() {
        let p = counting_program(500);
        let mut exits = Vec::new();
        for kind in [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
            let mut m = Machine::boot(small_config(kind), &p, NoopHooks).unwrap();
            exits.push(m.run());
        }
        assert!(exits.iter().all(|e| *e == RunExit::Halted(500)), "{exits:?}");
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut a = Assembler::new();
        a.li(Reg::R1, 1111);
        a.fi_read_init();
        a.addq_lit(Reg::R1, 5, Reg::R1);
        a.mov(Reg::R1, Reg::A0);
        a.pal(PalFunc::Exit);
        let p = a.finish().unwrap();

        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        assert_eq!(m.run(), RunExit::CheckpointRequest);
        let ckpt = m.checkpoint();
        assert_eq!(m.run(), RunExit::Halted(1116));

        // Restore twice; both resumes see the same world.
        for kind in [None, Some(CpuKind::O3)] {
            let mut r = Machine::restore(&ckpt, kind, NoopHooks);
            assert_eq!(r.run(), RunExit::Halted(1116), "cpu override {kind:?}");
        }
    }

    #[test]
    fn switch_cpu_mid_run_preserves_semantics() {
        let p = counting_program(1000);
        let mut m = Machine::boot(small_config(CpuKind::O3), &p, NoopHooks).unwrap();
        // Run a while in O3, then switch to atomic (the campaign pattern).
        assert!(m.run_for(200).is_none());
        m.switch_cpu(CpuKind::Atomic);
        assert_eq!(m.run(), RunExit::Halted(1000));
    }

    #[test]
    fn watchdog_catches_infinite_loops() {
        let mut a = Assembler::new();
        a.label("spin");
        a.br("spin");
        let p = a.finish().unwrap();
        let mut cfg = small_config(CpuKind::Atomic);
        cfg.max_ticks = 10_000;
        let mut m = Machine::boot(cfg, &p, NoopHooks).unwrap();
        assert_eq!(m.run(), RunExit::Watchdog);
    }

    #[test]
    fn trap_is_reported_as_crash() {
        let mut a = Assembler::new();
        a.li(Reg::R1, 0x7f_ffff_fff8);
        a.ldq(Reg::R2, 0, Reg::R1);
        let p = a.finish().unwrap();
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        assert!(matches!(m.run(), RunExit::Trapped(Trap::UnmappedAccess { .. })));
    }

    #[test]
    fn multithreaded_guest_round_robins_under_timer() {
        // Main spawns a child that writes a word, then joins it.
        let mut a = Assembler::new();
        a.entry("main");
        a.label("child");
        a.li(Reg::A0, 0xc0de);
        a.pal(PalFunc::WriteWord);
        a.li(Reg::A0, 5);
        a.pal(PalFunc::Exit);
        a.label("main");
        a.la(Reg::A0, "child");
        a.li(Reg::A1, 0);
        a.li(Reg::A2, 0);
        a.pal(PalFunc::ThreadSpawn);
        a.mov(Reg::V0, Reg::A0);
        a.pal(PalFunc::ThreadJoin);
        a.mov(Reg::V0, Reg::A0); // join result = 5
        a.pal(PalFunc::Exit);
        let p = a.finish().unwrap();

        for kind in [CpuKind::Atomic, CpuKind::O3] {
            let mut m = Machine::boot(small_config(kind), &p, NoopHooks).unwrap();
            assert_eq!(m.run(), RunExit::Halted(5), "{kind}");
            assert_eq!(m.out_words(), &[0xc0de]);
        }
    }

    #[test]
    fn boot_spin_adds_work_but_not_semantics() {
        let p = counting_program(50);
        let mut plain = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        let plain_exit = plain.run();
        let mut cfg = small_config(CpuKind::Atomic);
        cfg.boot_spin = 100_000;
        let mut spun = Machine::boot(cfg, &p, NoopHooks).unwrap();
        let spun_exit = spun.run();
        assert_eq!(plain_exit, spun_exit);
        assert_eq!(plain_exit, RunExit::Halted(50));
        assert!(
            spun.instret() > plain.instret() + 100_000,
            "boot spin must execute ~2 instructions per count: {} vs {}",
            spun.instret(),
            plain.instret()
        );
    }

    #[test]
    fn predecode_cache_warms_but_never_enters_checkpoints() {
        let p = counting_program(200);
        // Superblocks off: they would absorb the dormant loop and starve
        // the predecode counters this test pins.
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        m.set_superblock(false);
        m.run();
        let s = m.stats();
        assert!(s.mem.predecode.hits > s.mem.predecode.misses, "loop must hit the warm cache");
        let ckpt = m.checkpoint();
        assert_eq!(
            ckpt.mem().stats().predecode,
            gemfi_mem::PredecodeStats::default(),
            "checkpoints must carry no predecode state"
        );
    }

    #[test]
    fn switch_cpu_goes_decode_cold() {
        let p = counting_program(1000);
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        m.set_superblock(false);
        assert!(m.run_for(500).is_none());
        assert!(m.stats().mem.predecode.accesses() > 0);
        m.switch_cpu(CpuKind::InOrder);
        assert_eq!(m.stats().mem.predecode, gemfi_mem::PredecodeStats::default());
        assert_eq!(m.run(), RunExit::Halted(1000));
    }

    #[test]
    fn superblocks_warm_on_dormant_atomic_but_never_enter_checkpoints() {
        let p = counting_program(200);
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        assert_eq!(m.run(), RunExit::Halted(200));
        let s = m.stats().mem.superblock;
        assert!(s.blocks_built > 0, "dormant atomic run must translate");
        assert!(s.hits > 0, "the loop must hit the warm translation cache");
        assert!(s.uops_executed > 0);
        let ckpt = m.checkpoint();
        assert_eq!(
            ckpt.mem().stats().superblock,
            gemfi_mem::SuperblockStats::default(),
            "checkpoints must carry no superblock state"
        );

        // Same outcome, same tick count, superblocks off.
        let mut off = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        off.set_superblock(false);
        assert_eq!(off.run(), RunExit::Halted(200));
        assert_eq!(off.stats().mem.superblock, gemfi_mem::SuperblockStats::default());
        assert_eq!((off.tick(), off.instret()), (m.tick(), m.instret()));
        assert_eq!(off.arch(), m.arch());
    }

    #[test]
    fn superblocks_run_only_on_the_atomic_model() {
        let p = counting_program(100);
        for kind in [CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
            let mut m = Machine::boot(small_config(kind), &p, NoopHooks).unwrap();
            assert_eq!(m.run(), RunExit::Halted(100), "{kind}");
            assert_eq!(
                m.stats().mem.superblock,
                gemfi_mem::SuperblockStats::default(),
                "{kind} must never touch the superblock cache"
            );
        }
    }

    #[test]
    fn set_superblock_off_drops_translations_mid_run() {
        let p = counting_program(1000);
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        assert!(m.run_for(200).is_none());
        assert!(m.stats().mem.superblock.blocks_built > 0);
        m.set_superblock(false);
        assert_eq!(m.stats().mem.superblock, gemfi_mem::SuperblockStats::default());
        assert_eq!(m.run(), RunExit::Halted(1000));
        assert_eq!(m.stats().mem.superblock, gemfi_mem::SuperblockStats::default());
    }

    #[test]
    fn run_to_tick_stops_at_a_deterministic_step_start() {
        let p = counting_program(2_000);
        let mut a = Machine::boot(small_config(CpuKind::InOrder), &p, NoopHooks).unwrap();
        let mut b = Machine::boot(small_config(CpuKind::InOrder), &p, NoopHooks).unwrap();
        assert!(a.run_to_tick(1_234).is_none());
        // Reaching the same target through different intermediate stops
        // must land on the same tick with the same state.
        assert!(b.run_to_tick(700).is_none());
        assert!(b.run_to_tick(1_234).is_none());
        assert_eq!(a.tick(), b.tick());
        assert_eq!(a.instret(), b.instret());
        assert_eq!(a.arch(), b.arch());
        assert_eq!(a.run(), b.run());
    }

    #[test]
    fn checkpoint_captures_without_stopping() {
        let p = counting_program(1_000);
        let mut m = Machine::boot(small_config(CpuKind::Atomic), &p, NoopHooks).unwrap();
        assert!(m.run_to_tick(500).is_none());
        let ckpt = m.checkpoint();
        assert_eq!(ckpt.tick(), m.tick());
        // The capture is a pure read: the machine keeps running to the same
        // result, and a restore of the snapshot agrees with it.
        assert_eq!(m.run(), RunExit::Halted(1000));
        let mut r = Machine::restore(&ckpt, None, NoopHooks);
        assert_eq!(r.run(), RunExit::Halted(1000));
    }

    #[test]
    fn fork_continues_tick_identically_with_the_parent() {
        for kind in [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
            let p = counting_program(1_500);
            let mut m = Machine::boot(small_config(kind), &p, NoopHooks).unwrap();
            assert!(m.run_to_tick(800).is_none());
            let mut f = m.fork_with(NoopHooks);
            assert_eq!(f.tick(), m.tick(), "{kind}");
            // The fork drops the derived predecode cache but nothing else:
            // both machines finish at the exact same tick and state.
            assert_eq!(
                f.stats().mem.predecode,
                gemfi_mem::PredecodeStats::default(),
                "{kind}: fork must start decode-cold"
            );
            assert_eq!(m.run(), RunExit::Halted(1500), "{kind}");
            assert_eq!(f.run(), RunExit::Halted(1500), "{kind}");
            assert_eq!(f.tick(), m.tick(), "{kind}: fork diverged in time");
            assert_eq!(f.instret(), m.instret(), "{kind}");
            assert_eq!(f.arch(), m.arch(), "{kind}");
        }
    }

    #[test]
    fn stats_surface_is_consistent() {
        let p = counting_program(300);
        let mut m = Machine::boot(small_config(CpuKind::InOrder), &p, NoopHooks).unwrap();
        m.run();
        let s = m.stats();
        assert!(s.instructions > 900);
        assert!(s.ticks >= s.instructions);
        assert!(s.branch_lookups >= 300);
        assert!(s.mem.l1i.accesses() > 0);
        assert!(s.ipc() > 0.0);
    }
}
