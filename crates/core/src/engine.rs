//! The GemFI injection engine: a [`FaultHooks`] implementation.
//!
//! Fig. 2 of the paper, as code: on each simulated instruction the engine
//! (1) resolves the running thread through [`ThreadTable::running`] — the
//! per-core cached pointer refreshed on context switches, or a hash lookup
//! when the optimization is disabled for the ablation — and so checks that
//! it has fault injection enabled, (2) updates the thread's per-stage
//! counters, (3) scans the stage's fault queue for matching faults, and (4)
//! corrupts the targeted value, logging an [`InjectionRecord`] with the
//! affected instruction's disassembly.
//!
//! Whether a queued spec is armed is [`FaultSpec::arming`]'s answer
//! everywhere: in the queue scan, in the elision horizon
//! ([`FaultHooks::dormancy`]) and for the campaign's choice of station
//! ([`GemFiEngine::arming`]).

use crate::config::FaultConfig;
use crate::corrupt::apply;
use crate::queues::StageQueues;
use crate::record::InjectionRecord;
use crate::spec::{FaultBehavior, FaultLocation, FaultSpec, MbuPattern, MemTarget, Stage};
use crate::thread::ThreadTable;
use gemfi_cpu::{Dormancy, ElisionBatch, FaultHooks};
use gemfi_isa::{disassemble, ArchState, FpReg, Instr, IntReg, RawInstr, RegRef};
use gemfi_mem::{CacheLesion, LesionEffect, LesionKind, LesionTarget, Ticks};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable abort flag — the campaign-side watchdog plumbing.
///
/// Campaign coordinators (lease reapers, wall-clock watchdogs, shutdown
/// paths) hold one end; the run loop driving an experiment holds the other.
/// Raising the flag asks that chunked run loop to stop at the next
/// scheduling boundary, so a hung or orphaned simulation is abandoned
/// promptly instead of burning its whole simulated-tick budget.
#[derive(Debug, Clone, Default)]
pub struct AbortToken(Arc<AtomicBool>);

impl AbortToken {
    /// A fresh, unraised token.
    pub fn new() -> AbortToken {
        AbortToken::default()
    }

    /// Raises the flag. Idempotent; visible to every clone.
    pub fn abort(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether any holder has raised the flag.
    pub fn is_aborted(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Use the per-core cached pointer to the running thread's
    /// `ThreadEnabledFault` (refreshed on context switches) instead of a
    /// hash-table lookup on every simulated event — the Sec. III-C
    /// optimization. Disable for the ablation benchmark.
    pub pcb_pointer_cache: bool,
    /// Number of cores the engine tracks.
    pub cores: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig { pcb_pointer_cache: true, cores: 1 }
    }
}

/// In decode-stage faults, the corruptible space is the concatenation of the
/// three register-selector fields: `Ra`(5) | `Rb`(5) | `Rc`(5) = 15 bits.
pub const DECODE_SELECTOR_BITS: u8 = 15;

fn selectors_of(word: RawInstr) -> u64 {
    ((word.ra() as u64) << 10) | ((word.rb() as u64) << 5) | word.rc() as u64
}

fn with_selectors(word: RawInstr, sel: u64) -> RawInstr {
    word.with_field(gemfi_isa::format::RA, ((sel >> 10) & 0x1f) as u32)
        .with_field(gemfi_isa::format::RB, ((sel >> 5) & 0x1f) as u32)
        .with_field(gemfi_isa::format::RC, (sel & 0x1f) as u32)
}

/// The nearest of several [`FaultSpec::arming`] answers: `Active` as soon as
/// one is, otherwise each axis's minimum, and `Dormant` when neither axis is
/// constrained.
fn nearest(distances: impl Iterator<Item = Dormancy>) -> Dormancy {
    let (mut events, mut ticks) = (u64::MAX, u64::MAX);
    for distance in distances {
        match distance {
            Dormancy::Active => return Dormancy::Active,
            Dormancy::Quiet { events: e, ticks: t } => {
                events = events.min(e);
                ticks = ticks.min(t);
            }
            Dormancy::Dormant => {}
        }
    }
    if events == u64::MAX && ticks == u64::MAX {
        Dormancy::Dormant
    } else {
        Dormancy::Quiet { events, ticks }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Watch {
    record: usize,
    core: usize,
    reg: RegRef,
}

/// The fault-injection engine. Plug into a machine as its hook
/// implementation:
///
/// ```
/// use gemfi::{FaultConfig, GemFiEngine};
/// use gemfi_asm::{Assembler, Reg};
/// use gemfi_sim::{Machine, MachineConfig, RunExit};
///
/// let mut a = Assembler::new();
/// a.fi_activate(0);
/// a.li(Reg::R1, 5);
/// a.addq_lit(Reg::R1, 1, Reg::A0);
/// a.pal(gemfi_isa::PalFunc::Exit);
/// let program = a.finish().expect("assembles");
///
/// let config: FaultConfig =
///     "ExecutionStageInjectedFault Inst:2 Flip:3 Threadid:0 system.cpu0 occ:1"
///         .parse()
///         .expect("valid");
/// let mut m = Machine::boot(
///     MachineConfig::default(),
///     &program,
///     GemFiEngine::new(config),
/// ).expect("boots");
/// let exit = m.run();
/// assert!(matches!(exit, RunExit::Halted(_)));
/// assert_eq!(m.hooks().records().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GemFiEngine {
    queues: StageQueues,
    threads: ThreadTable,
    records: Vec<InjectionRecord>,
    watches: Vec<Watch>,
    last_tick: Ticks,
    /// Events processed per stage while a thread was enabled (engine-side
    /// statistics; used by overhead analyses).
    stage_events: [u64; 5],
    /// Cache lesions fired but not yet planted into the memory system: the
    /// CPU model drains them at the next instruction boundary via
    /// [`FaultHooks::take_cache_lesions`].
    pending_lesions: Vec<CacheLesion>,
    /// Per-core armed instruction-skip flags ([`FaultHooks::take_skip`]).
    skip_armed: Vec<bool>,
}

impl GemFiEngine {
    /// An engine with the default configuration.
    pub fn new(faults: FaultConfig) -> GemFiEngine {
        GemFiEngine::with_config(faults, EngineConfig::default())
    }

    /// An engine with explicit tuning.
    pub fn with_config(faults: FaultConfig, config: EngineConfig) -> GemFiEngine {
        GemFiEngine {
            queues: StageQueues::from_faults(faults.faults()),
            threads: ThreadTable::new(config.cores, config.pcb_pointer_cache),
            records: Vec::new(),
            watches: Vec::new(),
            last_tick: 0,
            stage_events: [0; 5],
            pending_lesions: Vec::new(),
            skip_armed: vec![false; config.cores],
        }
    }

    /// The faults injected so far.
    pub fn records(&self) -> &[InjectionRecord] {
        &self.records
    }

    /// Faults still queued.
    pub fn pending_faults(&self) -> usize {
        self.queues.pending()
    }

    /// Threads currently enabled for injection.
    pub fn active_threads(&self) -> usize {
        self.threads.active_threads()
    }

    /// Events observed per stage while injection was enabled.
    pub fn stage_events(&self) -> [u64; 5] {
        self.stage_events
    }

    /// Whether the engine is fully dormant on `core` at `now`: no pending
    /// fault can ever fire in the current thread-activation state. A live
    /// consumption watch does not count against it — the elided sprint
    /// still reports the watched registers' accesses. Campaign schedulers
    /// use this to pick a coarser chunk granularity for the post-fault
    /// fast-forward, which only changes how often they poll for an abort.
    pub fn is_dormant(&self, core: usize, now: Ticks) -> bool {
        matches!(FaultHooks::dormancy(self, core, now), Dormancy::Dormant)
    }

    /// How far `spec` is from arming on `core` at `now`, given this engine's
    /// thread activations: [`FaultSpec::arming`] for every activated thread
    /// with the spec's id, the nearest of them — the queue scan fires the
    /// spec on whichever gets there first. The spec need not be queued here:
    /// a campaign asks a fault-free station's engine about an experiment's
    /// fault before it forks the station.
    ///
    /// A spec whose thread has not activated yet is evaluated at `(0, 0)`:
    /// activation resets the counters, so its whole offset still lies ahead
    /// (a lower bound). An ended activation that reached the spec's window
    /// keeps it `Active` for good — the spec may have fired or expired
    /// there — so the answer never goes back from `Active` as the machine
    /// runs on. A spec for another core can never fire here and reports
    /// `Dormant`.
    pub fn arming(&self, core: usize, now: Ticks, spec: &FaultSpec) -> Dormancy {
        if spec.location.core() != core {
            return Dormancy::Dormant;
        }
        if let Some(ended) = self.threads.ended(spec.thread) {
            // Each timing kind reads one axis, so the maxima suffice.
            let reached = spec.arming(ended.stage_counts[spec.stage().index()], ended.ticks);
            if reached == Dormancy::Active {
                return Dormancy::Active;
            }
        }
        let mut threads = self.threads.with_id(spec.thread).peekable();
        if threads.peek().is_none() {
            return spec.arming(0, 0);
        }
        nearest(
            threads
                .map(|rec| spec.arming(rec.count(spec.stage()), rec.ticks_since_activation(now))),
        )
    }

    /// An engine for a forked machine: carries over everything the guest's
    /// execution history determines — thread activations, per-core PCB
    /// bases, per-stage event counters, the tick clock — while installing a
    /// *fresh* fault queue built from `faults`, empty injection records and
    /// watches.
    ///
    /// Valid strictly *before* any of `faults` could have fired: queue scans
    /// ahead of a spec's window never mutate the queue, so an engine that
    /// had carried these specs from the start would be in exactly this state
    /// at the fork point. Fork-at-injection relies on that equivalence to
    /// run each experiment's divergent suffix from a shared fault-free
    /// trunk.
    pub fn fork_with_faults(&self, faults: FaultConfig) -> GemFiEngine {
        GemFiEngine {
            queues: StageQueues::from_faults(faults.faults()),
            threads: self.threads.clone(),
            records: Vec::new(),
            watches: Vec::new(),
            last_tick: self.last_tick,
            stage_events: self.stage_events,
            // Valid pre-fire only (see above), so nothing can be armed or
            // awaiting planting at the fork point.
            pending_lesions: Vec::new(),
            skip_armed: vec![false; self.skip_armed.len()],
        }
    }

    /// One stage event on `core`: resolve the running thread, advance its
    /// `stage` counter if `bump` (the event counts toward the stage's
    /// timing), and scan the stage's queue, narrowed by `filter`. Returns
    /// the fired specs (usually 0 or 1).
    ///
    /// This is the per-simulated-instruction hot path (Fig. 2): one thread
    /// resolution, one counter bump, and a queue scan that early-outs when
    /// the stage has nothing pending. An unbumped event reads the counter as
    /// it stands, so with nothing pending it has nothing to do at all.
    #[inline]
    fn stage_event(
        &mut self,
        core: usize,
        stage: Stage,
        bump: bool,
        filter: impl FnMut(&FaultSpec) -> bool,
    ) -> Vec<FaultSpec> {
        let pending = self.queues.pending_in(stage) != 0;
        if !(pending || bump) {
            return Vec::new();
        }
        let Some(rec) = self.threads.running_mut(core) else { return Vec::new() };
        let count = if bump {
            self.stage_events[stage.index()] += 1;
            rec.bump(stage)
        } else {
            rec.count(stage)
        };
        let (id, ticks_since) = (rec.id, rec.ticks_since_activation(self.last_tick));
        if !pending {
            return Vec::new();
        }
        let mut fired = Vec::new();
        self.queues.scan(stage, core, id, count, ticks_since, filter, |spec| {
            fired.push(*spec);
        });
        fired
    }

    /// A load (`direction` = `Load`) or store (`Store`) of `value` at
    /// `addr`. L1D/L2 cache faults ride the memory-stage timeline: any data
    /// memory event can fire them, planting a lesion without corrupting the
    /// firing transaction itself.
    fn mem_event(&mut self, core: usize, addr: u64, value: u64, direction: MemTarget) -> u64 {
        let fired = self.stage_event(core, Stage::Memory, true, |spec| match spec.location {
            FaultLocation::Mem { target, .. } => target == direction || target == MemTarget::Any,
            location => location.is_cache(),
        });
        let mut v = value;
        for spec in fired {
            if let Some(lesion) = Self::lesion_for(&spec) {
                self.pending_lesions.push(lesion);
                self.push_record(Stage::Memory, &spec, addr, None, v, v);
                continue;
            }
            let before = v;
            v = apply(spec.behavior, before, 64);
            self.push_record(Stage::Memory, &spec, addr, None, before, v);
        }
        v
    }

    /// Retires every consumption watch on `reg` of `core`, marking its
    /// record consumed (a `read`) or overwritten (a write).
    fn retire_watches(&mut self, core: usize, reg: RegRef, read: bool) {
        // Every register access lands here; almost none has a watch.
        if self.watches.is_empty() {
            return;
        }
        let records = &mut self.records;
        self.watches.retain(|w| {
            let hit = w.core == core && w.reg == reg;
            if hit {
                let record = &mut records[w.record];
                if read {
                    record.consumed = true;
                } else {
                    record.overwritten = true;
                }
            }
            !hit
        });
    }

    /// Compiles a fired cache-fault spec into the lesion the memory system
    /// will apply: behavior × MBU pattern becomes a bit-level
    /// [`LesionEffect`], and `occurrences` becomes the lesion's lifetime
    /// (`OCC_PERMANENT` = stuck-at). `None` for non-cache locations.
    fn lesion_for(spec: &FaultSpec) -> Option<CacheLesion> {
        let (level, target, kind, pattern) = match spec.location {
            FaultLocation::CacheData { level, set, way, pattern, .. } => {
                (level, LesionTarget::Line { set, way }, LesionKind::Data, pattern)
            }
            // Tag corruption has no MBU axis: the behavior acts on the full
            // tag value.
            FaultLocation::CacheTag { level, set, way, .. } => {
                (level, LesionTarget::Line { set, way }, LesionKind::Tag, MbuPattern::Single)
            }
            FaultLocation::CacheWay { level, way, pattern, .. } => {
                (level, LesionTarget::Way { way }, LesionKind::Data, pattern)
            }
            _ => return None,
        };
        let pmask = pattern.mask();
        let effect = match spec.behavior {
            FaultBehavior::Set(v) => LesionEffect { set_mask: pmask, set_value: v, xor_mask: 0 },
            FaultBehavior::AllZero => LesionEffect { set_mask: pmask, set_value: 0, xor_mask: 0 },
            FaultBehavior::AllOne => {
                LesionEffect { set_mask: pmask, set_value: u64::MAX, xor_mask: 0 }
            }
            FaultBehavior::Xor(m) => {
                LesionEffect { xor_mask: m & pmask, ..LesionEffect::default() }
            }
            FaultBehavior::Flip(bit) => LesionEffect {
                xor_mask: (1u64 << (u32::from(bit) % 64)) & pmask,
                ..LesionEffect::default()
            },
            // Control-flow behaviors never parse onto cache locations; on
            // programmatic misuse the lesion is identity (contained).
            FaultBehavior::Skip | FaultBehavior::Opcode(_) | FaultBehavior::InvertBranch => {
                LesionEffect::default()
            }
        };
        Some(CacheLesion { level, target, kind, effect, remaining: spec.occurrences })
    }

    fn push_record(
        &mut self,
        stage: Stage,
        spec: &FaultSpec,
        pc: u64,
        instr: Option<String>,
        before: u64,
        after: u64,
    ) -> usize {
        self.records.push(InjectionRecord {
            tick: self.last_tick,
            stage,
            location: spec.location,
            thread: spec.thread,
            pc,
            instr,
            before,
            after,
            consumed: false,
            overwritten: false,
        });
        self.records.len() - 1
    }
}

impl FaultHooks for GemFiEngine {
    fn before_instruction(&mut self, core: usize, now: Ticks, arch: &mut ArchState) {
        self.last_tick = now;
        self.threads.set_pcbb(core, arch.pcbb);
        // Register-stage timing counts *committed* instructions (bumped in
        // `on_commit`); read without bumping here.
        for spec in self.stage_event(core, Stage::Register, false, |_| true) {
            let (before, after, watch_reg) = match spec.location {
                FaultLocation::IntReg { reg, .. } => {
                    let r = IntReg::from_bits(reg as u32);
                    let before = arch.regs.read_int(r);
                    let after = apply(spec.behavior, before, 64);
                    arch.regs.write_int(r, after);
                    (before, after, Some(RegRef::Int(r)))
                }
                FaultLocation::FpReg { reg, .. } => {
                    let r = FpReg::from_bits(reg as u32);
                    let before = arch.regs.read_fp_bits(r);
                    let after = apply(spec.behavior, before, 64);
                    arch.regs.write_fp_bits(r, after);
                    (before, after, Some(RegRef::Fp(r)))
                }
                FaultLocation::SpecialReg { reg, .. } => {
                    let before = arch.read_special(reg);
                    let after = apply(spec.behavior, before, 64);
                    arch.write_special(reg, after);
                    (before, after, None)
                }
                FaultLocation::Pc { .. } => {
                    let before = arch.pc;
                    let after = apply(spec.behavior, before, 64);
                    arch.pc = after;
                    (before, after, None)
                }
                _ => unreachable!("register queue only holds register/PC faults"),
            };
            let idx = self.push_record(Stage::Register, &spec, arch.pc, None, before, after);
            if let Some(reg) = watch_reg {
                if before != after {
                    self.watches.push(Watch { record: idx, core, reg });
                }
            }
        }
    }

    fn on_fetch(&mut self, core: usize, pc: u64, word: RawInstr) -> RawInstr {
        let fired = self.stage_event(core, Stage::Fetch, true, |_| true);
        let mut w = word;
        for spec in fired {
            // An L1I cache fault plants a lesion instead of corrupting the
            // firing word: the damage shows up on subsequent fetches served
            // through the lesioned slot.
            if let Some(lesion) = Self::lesion_for(&spec) {
                let v = u64::from(w.0);
                self.pending_lesions.push(lesion);
                self.push_record(Stage::Fetch, &spec, pc, Some(disassemble(word)), v, v);
                continue;
            }
            // An instruction-skip fault arms the per-core flag; the CPU
            // model nullifies the instruction at [`FaultHooks::take_skip`].
            // Recorded as word → 0 (the pipeline sees it suppressed).
            if spec.behavior == FaultBehavior::Skip {
                if let Some(armed) = self.skip_armed.get_mut(core) {
                    *armed = true;
                }
                let v = u64::from(w.0);
                self.push_record(Stage::Fetch, &spec, pc, Some(disassemble(word)), v, 0);
                continue;
            }
            let before = w.0 as u64;
            let after = apply(spec.behavior, before, 32);
            w = RawInstr(after as u32);
            self.push_record(Stage::Fetch, &spec, pc, Some(disassemble(word)), before, after);
        }
        w
    }

    fn on_decode(&mut self, core: usize, word: RawInstr) -> RawInstr {
        let fired = self.stage_event(core, Stage::Decode, true, |_| true);
        let mut w = word;
        for spec in fired {
            let before = selectors_of(w);
            let after = apply(spec.behavior, before, DECODE_SELECTOR_BITS);
            w = with_selectors(w, after);
            self.push_record(Stage::Decode, &spec, 0, Some(disassemble(word)), before, after);
        }
        w
    }

    fn on_execute_result(&mut self, core: usize, instr: &Instr, value: u64) -> u64 {
        // Branch-inversion faults fire on branch *resolution* (`on_branch`),
        // never on a produced value.
        let fired = self.stage_event(core, Stage::Execute, true, |spec| {
            spec.behavior != FaultBehavior::InvertBranch
        });
        let mut v = value;
        for spec in fired {
            let before = v;
            v = apply(spec.behavior, before, 64);
            self.push_record(Stage::Execute, &spec, 0, Some(instr.to_string()), before, v);
        }
        v
    }

    fn on_mem_load(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        self.mem_event(core, addr, value, MemTarget::Load)
    }

    fn on_mem_store(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        self.mem_event(core, addr, value, MemTarget::Store)
    }

    fn take_skip(&mut self, core: usize) -> bool {
        match self.skip_armed.get_mut(core) {
            Some(armed) if *armed => {
                *armed = false;
                true
            }
            _ => false,
        }
    }

    fn on_branch(&mut self, core: usize, instr: &Instr, taken: bool) -> bool {
        // Branch inversion shares the execute-stage timeline but fires on
        // branch *resolution*, which is not itself a counted event: read
        // the counter without bumping (the register-stage convention).
        let fired = self.stage_event(core, Stage::Execute, false, |spec| {
            spec.behavior == FaultBehavior::InvertBranch
        });
        let mut t = taken;
        for spec in fired {
            let before = t as u64;
            t = !t;
            self.push_record(Stage::Execute, &spec, 0, Some(instr.to_string()), before, t as u64);
        }
        t
    }

    fn has_cache_lesions(&self) -> bool {
        !self.pending_lesions.is_empty()
    }

    fn take_cache_lesions(&mut self) -> Vec<CacheLesion> {
        std::mem::take(&mut self.pending_lesions)
    }

    fn on_reg_read(&mut self, core: usize, reg: RegRef) {
        self.retire_watches(core, reg, true);
    }

    fn on_reg_write(&mut self, core: usize, reg: RegRef) {
        self.retire_watches(core, reg, false);
    }

    fn on_commit(&mut self, core: usize, now: Ticks, _pc: u64, _instr: &Instr) {
        self.last_tick = now;
        // Advance the register-stage (committed-instruction) counter.
        if let Some(rec) = self.threads.running_mut(core) {
            rec.bump(Stage::Register);
            self.stage_events[Stage::Register.index()] += 1;
        }
    }

    fn on_fi_activate(&mut self, core: usize, now: Ticks, id: u32, pcbb: u64) {
        self.last_tick = now;
        self.threads.toggle(core, id, pcbb, now);
    }

    fn on_context_switch(&mut self, core: usize, new_pcbb: u64) {
        self.threads.on_context_switch(core, new_pcbb);
    }

    /// The dormancy horizon (the event-queue idea of gem5's scheduler,
    /// applied to fault arming): the nearest [`FaultSpec::arming`] over the
    /// queued faults that the *running* thread on `core` could reach — how
    /// many stage events / ticks must elapse before the earliest of them can
    /// fire. An armed spec, even one whose tick window has passed but which
    /// the lazy queue scan has not pruned yet, keeps the horizon `Active`.
    /// Faults belonging to other threads or cores are frozen — their
    /// counters cannot advance while this thread runs — and any
    /// thread-activation change arrives through a batch-interrupting
    /// passthrough hook, so the horizon stays valid for the whole sprint.
    ///
    /// Live consumption watches do not shorten the horizon: a watch
    /// corrupts nothing, and [`FaultHooks::watched_regs`] hands the elided
    /// sprint the registers it must still report.
    fn dormancy(&self, core: usize, now: Ticks) -> Dormancy {
        // An armed skip or a fired-but-unplanted lesion must reach the CPU
        // model on the very next instruction: never elide over it.
        if !self.pending_lesions.is_empty() || self.skip_armed.iter().any(|armed| *armed) {
            return Dormancy::Active;
        }
        if self.queues.pending() == 0 {
            return Dormancy::Dormant;
        }
        // No activated thread running: every queued fault is frozen.
        let Some(rec) = self.threads.running(core) else { return Dormancy::Dormant };
        let since = rec.ticks_since_activation(now);
        // A map, not a filter: the frozen faults of other threads and cores
        // fold in as `Dormant`, which keeps this per-step call a plain walk.
        nearest(self.queues.iter().map(|q| {
            if q.spec.thread == rec.id && q.spec.location.core() == core {
                q.spec.arming(rec.count(q.spec.stage()), since)
            } else {
                Dormancy::Dormant
            }
        }))
    }

    /// The registers of every live consumption watch, on any core. Retiring
    /// a watch is the only thing a register access does to this engine.
    fn watched_regs(&self) -> u64 {
        self.watches.iter().fold(0, |mask, w| mask | w.reg.mask_bit())
    }

    /// Bulk equivalent of the per-event counter maintenance: credit the
    /// batch to the running thread's stage counters and the engine's global
    /// profiling counters, gated on thread activation exactly like
    /// `stage_event`/`on_commit`. Activation can only change at batch
    /// boundaries (the passthrough hooks flush first), so one gate covers
    /// the whole batch.
    fn absorb_elided(&mut self, core: usize, now: Option<Ticks>, batch: &ElisionBatch) {
        if let Some(n) = now {
            self.last_tick = n;
        }
        if let Some(rec) = self.threads.running_mut(core) {
            for (i, n) in batch.stage_events.iter().enumerate() {
                rec.stage_counts[i] += n;
                self.stage_events[i] += n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultBehavior, FaultTiming};

    fn engine_with(line: &str) -> GemFiEngine {
        GemFiEngine::new(line.parse().expect("valid fault line"))
    }

    #[test]
    fn inactive_thread_sees_no_injection() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:1 Flip:0 Threadid:0 system.cpu0 occ:1");
        // No fi_activate yet: value passes through untouched.
        let nop = Instr::FiReadInit;
        assert_eq!(e.on_execute_result(0, &nop, 42), 42);
        assert!(e.records().is_empty());
    }

    #[test]
    fn execute_fault_fires_at_the_right_event() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:3 Flip:0 Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let nop = Instr::FiReadInit;
        assert_eq!(e.on_execute_result(0, &nop, 10), 10); // event 1
        assert_eq!(e.on_execute_result(0, &nop, 10), 10); // event 2
        assert_eq!(e.on_execute_result(0, &nop, 10), 11); // event 3: flip bit 0
        assert_eq!(e.on_execute_result(0, &nop, 10), 10); // exhausted
        assert_eq!(e.records().len(), 1);
        assert!(e.records()[0].propagated());
    }

    #[test]
    fn fetch_fault_corrupts_the_word_and_disassembles() {
        let mut e = engine_with(
            "FetchedInstructionInjectedFault Inst:1 Flip:26 Threadid:0 system.cpu0 occ:1",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        let w = RawInstr(0);
        let out = e.on_fetch(0, 0x1_0000, w);
        assert_eq!(out.0, 1 << 26);
        assert_eq!(e.records().len(), 1);
        assert!(e.records()[0].instr.is_some());
        assert_eq!(e.records()[0].pc, 0x1_0000);
    }

    #[test]
    fn decode_fault_only_touches_selector_fields() {
        let mut e =
            engine_with("DecodeStageInjectedFault Inst:1 AllOne Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let w = RawInstr(0);
        let out = e.on_decode(0, w);
        // All selector bits set; opcode/function/displacement bits untouched.
        assert_eq!(out.ra(), 0x1f);
        assert_eq!(out.rb(), 0x1f);
        assert_eq!(out.rc(), 0x1f);
        assert_eq!(out.opcode(), 0);
        assert_eq!(out.function(), 0);
    }

    #[test]
    fn register_fault_applies_at_boundary_and_tracks_consumption() {
        let mut e =
            engine_with("RegisterInjectedFault Inst:0 Flip:21 Threadid:0 system.cpu0 occ:1 int 1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0x1_0000);
        arch.pcbb = 0x4000;
        arch.regs.write_int(IntReg::from_bits(1), 5);
        e.before_instruction(0, 1, &mut arch);
        assert_eq!(arch.regs.read_int(IntReg::from_bits(1)), 5 | (1 << 21));
        assert_eq!(e.records().len(), 1);
        assert!(!e.records()[0].consumed);

        // Reading the register marks the fault consumed.
        e.on_reg_read(0, RegRef::Int(IntReg::from_bits(1)));
        assert!(e.records()[0].consumed);
        assert!(e.records()[0].propagated());
    }

    #[test]
    fn overwrite_before_read_is_non_propagated() {
        let mut e =
            engine_with("RegisterInjectedFault Inst:0 Flip:0 Threadid:0 system.cpu0 occ:1 int 2");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0);
        arch.pcbb = 0x4000;
        e.before_instruction(0, 1, &mut arch);
        e.on_reg_write(0, RegRef::Int(IntReg::from_bits(2)));
        assert!(e.records()[0].overwritten);
        assert!(!e.records()[0].consumed);
        assert!(!e.records()[0].propagated());
    }

    #[test]
    fn pc_fault_redirects_control() {
        let mut e = engine_with("PCInjectedFault Inst:0 Set:0x2_0000 Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0x1_0000);
        arch.pcbb = 0x4000;
        e.before_instruction(0, 1, &mut arch);
        assert_eq!(arch.pc, 0x2_0000);
    }

    #[test]
    fn toggling_twice_deactivates() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:1 Flip:0 Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        e.on_fi_activate(0, 10, 0, 0x4000);
        assert_eq!(e.active_threads(), 0);
        let nop = Instr::FiReadInit;
        assert_eq!(e.on_execute_result(0, &nop, 9), 9);
        assert!(e.records().is_empty());
    }

    #[test]
    fn thread_id_must_match_the_spec() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:1 Flip:0 Threadid:5 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 3, 0x4000); // activates thread id 3
        let nop = Instr::FiReadInit;
        assert_eq!(e.on_execute_result(0, &nop, 8), 8);
        assert_eq!(e.pending_faults(), 1, "fault for thread 5 must stay queued");
    }

    #[test]
    fn context_switch_gates_injection() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:2 Flip:0 Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let nop = Instr::FiReadInit;
        assert_eq!(e.on_execute_result(0, &nop, 3), 3); // event 1: too early
                                                        // Switch to a thread that never activated injection: its events do
                                                        // not advance the target thread's counters.
        e.on_context_switch(0, 0x4400);
        assert_eq!(e.on_execute_result(0, &nop, 3), 3);
        // Switch back: the counter resumes and the fault fires at event 2.
        e.on_context_switch(0, 0x4000);
        assert_eq!(e.on_execute_result(0, &nop, 3), 2);
    }

    #[test]
    fn uncached_lookup_behaves_identically() {
        for cache in [true, false] {
            let cfg = EngineConfig { pcb_pointer_cache: cache, cores: 1 };
            let faults: FaultConfig =
                "ExecutionStageInjectedFault Inst:2 Flip:1 Threadid:0 system.cpu0 occ:1"
                    .parse()
                    .unwrap();
            let mut e = GemFiEngine::with_config(faults, cfg);
            e.on_fi_activate(0, 0, 0, 0x4000);
            let nop = Instr::FiReadInit;
            assert_eq!(e.on_execute_result(0, &nop, 0), 0);
            assert_eq!(e.on_execute_result(0, &nop, 0), 2, "cache={cache}");
        }
    }

    #[test]
    fn mem_target_filter_distinguishes_loads_and_stores() {
        let mut e =
            engine_with("MemoryInjectedFault Inst:1 AllOne Threadid:0 system.cpu0 occ:1 store");
        e.on_fi_activate(0, 0, 0, 0x4000);
        // A load is a memory event but must not trigger the store-targeted
        // fault; the armed fault fires on the next *store*.
        assert_eq!(e.on_mem_load(0, 0x100, 7), 7);
        assert_eq!(e.on_mem_store(0, 0x100, 7), u64::MAX, "fires on the next store");
        assert_eq!(e.pending_faults(), 0);
    }

    #[test]
    fn dormancy_horizon_tracks_the_event_distance() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:100 Flip:0 Threadid:0 system.cpu0 occ:1");
        // Before activation nothing can reach the fault: fully dormant.
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Dormant);
        e.on_fi_activate(0, 0, 0, 0x4000);
        assert_eq!(
            FaultHooks::dormancy(&e, 0, 0),
            Dormancy::Quiet { events: 100, ticks: u64::MAX }
        );

        // Absorbing an elided batch must shrink the horizon exactly as the
        // same events arriving through the per-event hooks would have.
        let mut batch = ElisionBatch::default();
        batch.stage_events[Stage::Execute.index()] = 30;
        e.absorb_elided(0, Some(7), &batch);
        assert_eq!(FaultHooks::dormancy(&e, 0, 7), Dormancy::Quiet { events: 70, ticks: u64::MAX });

        // ... so the fault still fires on precisely the event the horizon
        // names: the 70th future execute event.
        let nop = Instr::FiReadInit;
        for _ in 0..69 {
            assert_eq!(e.on_execute_result(0, &nop, 8), 8);
        }
        // One event from firing: fewer than 1 further event is safe.
        assert_eq!(FaultHooks::dormancy(&e, 0, 7), Dormancy::Quiet { events: 1, ticks: u64::MAX });
        assert_eq!(e.on_execute_result(0, &nop, 8), 9, "fires at the horizon");
        assert_eq!(FaultHooks::dormancy(&e, 0, 7), Dormancy::Dormant, "queue drained");
    }

    #[test]
    fn a_watch_leaves_the_horizon_to_the_queue_and_holds_its_register_bit() {
        let mut e = engine_with(
            "RegisterInjectedFault Inst:0 Flip:0 Threadid:0 system.cpu0 occ:1 int 3\n\
             ExecutionStageInjectedFault Inst:50 Flip:0 Threadid:0 system.cpu0 occ:1",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0);
        arch.pcbb = 0x4000;
        e.before_instruction(0, 1, &mut arch);
        // The register fault fired and the consumption monitor watches r3.
        // The horizon is the queued execute fault's alone; the watch shows
        // up in the mask instead.
        let r3 = RegRef::Int(IntReg::from_bits(3));
        assert_eq!(e.pending_faults(), 1);
        assert_eq!(FaultHooks::dormancy(&e, 0, 1), Dormancy::Quiet { events: 50, ticks: u64::MAX });
        assert_eq!(e.watched_regs(), 1 << 3);
        e.on_reg_read(0, RegRef::Int(IntReg::from_bits(4)));
        assert_eq!(e.watched_regs(), 1 << 3, "another register leaves the watch live");
        e.on_reg_write(0, r3);
        assert!(e.records()[0].overwritten);
        assert_eq!(e.watched_regs(), 0, "watch retired");
        assert_eq!(FaultHooks::dormancy(&e, 0, 1), Dormancy::Quiet { events: 50, ticks: u64::MAX });
    }

    #[test]
    fn fp_watches_sit_in_the_high_half_of_the_mask() {
        let mut e = engine_with(
            "RegisterInjectedFault Inst:0 Flip:0 Threadid:0 system.cpu0 occ:1 float 31",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0);
        arch.pcbb = 0x4000;
        e.before_instruction(0, 1, &mut arch);
        assert_eq!(FaultHooks::dormancy(&e, 0, 1), Dormancy::Dormant);
        assert_eq!(e.watched_regs(), 1 << 63);
    }

    #[test]
    fn an_elided_hit_retires_the_watch_and_clears_its_bit() {
        let mut e =
            engine_with("RegisterInjectedFault Inst:0 Flip:0 Threadid:0 system.cpu0 occ:1 int 5");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0);
        arch.pcbb = 0x4000;
        e.before_instruction(0, 1, &mut arch);
        let mut shim = gemfi_cpu::ElidedHooks::new(&mut e);
        assert_eq!(shim.watched(), 1 << 5);
        // Accesses to unwatched registers are counted away, never delivered.
        shim.on_reg_write(0, RegRef::Int(IntReg::from_bits(6)));
        shim.on_reg_read(0, RegRef::Fp(FpReg::from_bits(5)));
        assert_eq!(shim.watched(), 1 << 5);
        shim.on_reg_read(0, RegRef::Int(IntReg::from_bits(5)));
        assert_eq!(shim.watched(), 0, "the hit drops the bit");
        shim.finish();
        let record = &e.records()[0];
        assert!(record.consumed && !record.overwritten, "retired exactly as on the hooked path");
        assert_eq!(e.watched_regs(), 0);
    }

    #[test]
    fn dormancy_respects_tick_timed_faults() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Tick:500 Flip:0 Threadid:0 system.cpu0 occ:4");
        e.on_fi_activate(0, 100, 0, 0x4000);
        assert_eq!(
            FaultHooks::dormancy(&e, 0, 100),
            Dormancy::Quiet { events: u64::MAX, ticks: 500 }
        );
        assert_eq!(
            FaultHooks::dormancy(&e, 0, 350),
            Dormancy::Quiet { events: u64::MAX, ticks: 250 }
        );
        // Inside (and past) the window the horizon is gone, even before the
        // lazy queue scan prunes an expired entry.
        assert_eq!(FaultHooks::dormancy(&e, 0, 600), Dormancy::Active);
        assert_eq!(FaultHooks::dormancy(&e, 0, 10_000), Dormancy::Active);
    }

    #[test]
    fn dormancy_ignores_faults_of_other_threads() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:5 Flip:0 Threadid:9 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000); // thread 0, not the fault's target
        assert_eq!(e.pending_faults(), 1);
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Dormant);
    }

    #[test]
    fn arming_tracks_a_single_spec() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Inst:40 Flip:0 Threadid:0 system.cpu0 occ:1");
        let spec = *e.queues.iter().next().map(|q| &q.spec).unwrap();
        // Before activation the full offset is a lower bound.
        assert_eq!(e.arming(0, 0, &spec), Dormancy::Quiet { events: 40, ticks: u64::MAX });
        e.on_fi_activate(0, 0, 0, 0x4000);
        let nop = Instr::FiReadInit;
        for _ in 0..10 {
            e.on_execute_result(0, &nop, 1);
        }
        // Activated: the distance is exact and shrinks with served events.
        assert_eq!(e.arming(0, 0, &spec), Dormancy::Quiet { events: 30, ticks: u64::MAX });
        for _ in 0..30 {
            e.on_execute_result(0, &nop, 1);
        }
        // 40 served >= start 40: armed (and in fact it just fired).
        assert_eq!(e.arming(0, 0, &spec), Dormancy::Active);
        // Wrong core: unreachable.
        assert_eq!(e.arming(1, 0, &spec), Dormancy::Dormant);
    }

    #[test]
    fn arming_remembers_ended_activations() {
        // A closing fi_activate drops the thread's record; a spec whose
        // window that activation reached must stay armed, while one beyond
        // it still lies ahead of the next activation.
        const N: u64 = 40;
        let spec = |start| FaultSpec {
            location: FaultLocation::Execute { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(start),
            behavior: FaultBehavior::Flip(0),
            occurrences: 1,
        };
        let mut e = GemFiEngine::new(FaultConfig::empty());
        e.on_fi_activate(0, 0, 0, 0x4000);
        let nop = Instr::FiReadInit;
        for _ in 0..N {
            e.on_execute_result(0, &nop, 1);
        }
        e.on_fi_activate(0, 10, 0, 0x4000);
        assert_eq!(e.active_threads(), 0);
        assert_eq!(e.arming(0, 10, &spec(N - 1)), Dormancy::Active);
        assert_eq!(
            e.arming(0, 10, &spec(N + 5)),
            Dormancy::Quiet { events: N + 5, ticks: u64::MAX }
        );
        // A fresh activation restarts the count but not the memory.
        e.on_fi_activate(0, 20, 0, 0x4000);
        assert_eq!(e.arming(0, 20, &spec(N - 1)), Dormancy::Active);
        assert_eq!(
            e.arming(0, 20, &spec(N + 5)),
            Dormancy::Quiet { events: N + 5, ticks: u64::MAX }
        );
    }

    #[test]
    fn arming_handles_tick_timed_and_immediate_specs() {
        let mut e =
            engine_with("ExecutionStageInjectedFault Tick:500 Flip:0 Threadid:0 system.cpu0 occ:4");
        let tick_spec = *e.queues.iter().next().map(|q| &q.spec).unwrap();
        assert_eq!(e.arming(0, 0, &tick_spec), Dormancy::Quiet { events: u64::MAX, ticks: 500 });
        e.on_fi_activate(0, 100, 0, 0x4000);
        assert_eq!(e.arming(0, 350, &tick_spec), Dormancy::Quiet { events: u64::MAX, ticks: 250 });
        assert_eq!(e.arming(0, 600, &tick_spec), Dormancy::Active);

        // An Inst:0 spec for an unactivated thread can fire the moment the
        // thread activates: never quiet.
        let immediate = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 9,
            timing: FaultTiming::Instructions(0),
            behavior: FaultBehavior::AllZero,
            occurrences: 1,
        };
        assert_eq!(e.arming(0, 0, &immediate), Dormancy::Active);
    }

    #[test]
    fn arming_answers_for_the_nearest_thread_sharing_the_id() {
        // Two threads activate under id 0; the queue scan fires the spec on
        // whichever reaches it first, so a station fork must see the nearer.
        let spec = FaultSpec {
            location: FaultLocation::Fetch { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(40),
            behavior: FaultBehavior::Flip(0),
            occurrences: 1,
        };
        let mut e = GemFiEngine::new(FaultConfig::empty());
        e.on_fi_activate(0, 0, 0, 0x4000);
        e.on_fi_activate(0, 0, 0, 0x4400);
        for pc in 0..10 {
            e.on_fetch(0, pc * 4, RawInstr(0));
        }
        assert_eq!(e.arming(0, 0, &spec), Dormancy::Quiet { events: 30, ticks: u64::MAX });
    }

    #[test]
    fn forked_engine_matches_a_carried_one() {
        // An engine that carried the spec from the start, and a fault-free
        // trunk engine forked with the same spec at the same point, must be
        // indistinguishable from here on.
        let line = "ExecutionStageInjectedFault Inst:20 Flip:3 Threadid:0 system.cpu0 occ:1";
        let mut carried = engine_with(line);
        let mut trunk = GemFiEngine::new(FaultConfig::empty());
        let nop = Instr::FiReadInit;
        for e in [&mut carried, &mut trunk] {
            e.on_fi_activate(0, 5, 0, 0x4000);
            for _ in 0..12 {
                e.on_execute_result(0, &nop, 7);
            }
        }
        let mut forked = trunk.fork_with_faults(line.parse().unwrap());
        assert_eq!(forked.pending_faults(), carried.pending_faults());
        assert_eq!(forked.stage_events(), carried.stage_events());
        for _ in 0..7 {
            assert_eq!(forked.on_execute_result(0, &nop, 7), carried.on_execute_result(0, &nop, 7));
        }
        // Event 20 since activation: both fire identically.
        assert_eq!(forked.on_execute_result(0, &nop, 7), 7 ^ (1 << 3));
        assert_eq!(carried.on_execute_result(0, &nop, 7), 7 ^ (1 << 3));
        assert_eq!(forked.records(), carried.records());
    }

    #[test]
    fn cache_fault_plants_a_lesion_and_retires() {
        let mut e = engine_with(
            "CacheInjectedFault Inst:2 Flip:3 Threadid:0 system.cpu0 occ:perm l1d data set:5 way:1",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        assert!(!e.has_cache_lesions());
        // First memory event: too early; second fires.
        assert_eq!(e.on_mem_load(0, 0x100, 7), 7);
        assert_eq!(e.on_mem_load(0, 0x108, 9), 9, "firing transaction passes through");
        assert!(e.has_cache_lesions());
        // One-shot: the spec retires at its first fire even though the
        // lesion itself is permanent.
        assert_eq!(e.pending_faults(), 0);
        let lesions = e.take_cache_lesions();
        assert_eq!(lesions.len(), 1);
        assert_eq!(lesions[0].level, gemfi_mem::CacheLevel::L1D);
        assert_eq!(lesions[0].target, LesionTarget::Line { set: 5, way: 1 });
        assert_eq!(lesions[0].kind, LesionKind::Data);
        assert_eq!(lesions[0].effect.xor_mask, 1 << 3);
        assert_eq!(lesions[0].remaining, crate::spec::OCC_PERMANENT);
        assert!(!e.has_cache_lesions(), "drained");
        assert_eq!(e.records().len(), 1);
    }

    #[test]
    fn l1i_cache_fault_fires_on_fetch_events() {
        let mut e = engine_with(
            "CacheInjectedFault Inst:1 AllOne Threadid:0 system.cpu0 occ:1 l1i way:0 mbu:row:0",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        let w = RawInstr(0x1234_5678);
        assert_eq!(e.on_fetch(0, 0x1_0000, w), w, "firing word passes through");
        assert!(e.has_cache_lesions());
        let lesions = e.take_cache_lesions();
        assert_eq!(lesions[0].level, gemfi_mem::CacheLevel::L1I);
        assert_eq!(lesions[0].effect.set_mask, 0xff, "row MBU pattern confines the effect");
        assert_eq!(lesions[0].remaining, 1);
    }

    #[test]
    fn skip_fault_arms_the_flag_once() {
        let mut e =
            engine_with("FetchedInstructionInjectedFault Inst:2 Skip Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        let w = RawInstr(0x1234_5678);
        assert_eq!(e.on_fetch(0, 0x1_0000, w), w);
        assert!(!e.take_skip(0), "too early");
        assert_eq!(e.on_fetch(0, 0x1_0004, w), w, "skip does not corrupt the word");
        assert!(e.take_skip(0), "armed at event 2");
        assert!(!e.take_skip(0), "consuming disarms");
        assert_eq!(e.records().len(), 1);
        assert!(e.records()[0].propagated(), "recorded as word suppressed");
    }

    #[test]
    fn invert_branch_fires_on_branch_resolution_only() {
        let mut e = engine_with(
            "ExecutionStageInjectedFault Inst:2 InvertBranch Threadid:0 system.cpu0 occ:1",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        let nop = Instr::FiReadInit;
        // Execute-stage value events never fire an InvertBranch fault...
        assert_eq!(e.on_execute_result(0, &nop, 42), 42); // event 1
        assert_eq!(e.on_execute_result(0, &nop, 42), 42); // event 2
        assert_eq!(e.pending_faults(), 1, "still armed");
        // ...only branch resolution does, without bumping the counter.
        assert!(!e.on_branch(0, &nop, true), "inverted");
        assert_eq!(e.pending_faults(), 0);
        assert!(e.on_branch(0, &nop, true), "exhausted: passes through");
        assert_eq!(e.records().len(), 1);
        assert!(e.records()[0].propagated());
    }

    #[test]
    fn pending_lesion_and_armed_skip_force_active_dormancy() {
        let mut e = engine_with(
            "CacheInjectedFault Inst:1 Flip:0 Threadid:0 system.cpu0 occ:1 l1d data set:0 way:0",
        );
        e.on_fi_activate(0, 0, 0, 0x4000);
        e.on_mem_load(0, 0x100, 1);
        assert!(e.has_cache_lesions());
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Active, "lesion awaits planting");
        e.take_cache_lesions();
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Dormant);

        let mut e =
            engine_with("FetchedInstructionInjectedFault Inst:1 Skip Threadid:0 system.cpu0 occ:1");
        e.on_fi_activate(0, 0, 0, 0x4000);
        e.on_fetch(0, 0x1_0000, RawInstr(0));
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Active, "skip armed");
        assert!(e.take_skip(0));
        assert_eq!(FaultHooks::dormancy(&e, 0, 0), Dormancy::Dormant);
    }

    #[test]
    fn permanent_register_fault_reasserts() {
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 4 },
            thread: 0,
            timing: FaultTiming::Instructions(0),
            behavior: FaultBehavior::AllZero,
            occurrences: crate::spec::OCC_PERMANENT,
        };
        let mut e = GemFiEngine::new(FaultConfig::from_specs(vec![spec]));
        e.on_fi_activate(0, 0, 0, 0x4000);
        let mut arch = ArchState::new(0);
        arch.pcbb = 0x4000;
        for i in 0..5 {
            arch.regs.write_int(IntReg::from_bits(4), 99);
            e.before_instruction(0, i, &mut arch);
            assert_eq!(arch.regs.read_int(IntReg::from_bits(4)), 0, "boundary {i}");
        }
        assert!(e.pending_faults() > 0, "permanent fault stays queued");
    }
}
