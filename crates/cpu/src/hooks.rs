//! The fault-injection hook surface (where GemFI attaches to the CPU).
//!
//! Fig. 1 of the paper marks the injectable locations in red: registers,
//! the fetched instruction, register selection at decode, execution-stage
//! results, the PC, and memory transactions. Each of those corresponds to a
//! method here, invoked by every CPU model at the architecturally correct
//! point. The out-of-order model calls the speculative-side hooks
//! (`on_fetch`, `on_decode`, `on_execute_result`, `on_mem_*`) for wrong-path
//! instructions too — exactly like gem5, which is why the paper observes
//! faults that "alter a squashed instruction" ending up harmless.
//!
//! Hooks are a generic parameter of the machine, so the [`NoopHooks`]
//! baseline monomorphizes to nothing: the Fig. 7 overhead experiment
//! compares a GemFI-hooked machine against this zero-cost baseline.

use gemfi_isa::{ArchState, Instr, RawInstr, RegRef};
use gemfi_mem::{CacheLesion, Ticks};

/// How long a hooks implementation guarantees to stay architecturally
/// unobservable — its *dormancy horizon*.
///
/// The machine asks before entering its elided fast path: while the horizon
/// holds, hooks cannot corrupt anything, so the interpreter may sprint with
/// a counting shim ([`ElidedHooks`]) instead of the full per-event hook
/// dispatch, and deliver the accumulated stage-event counters in one
/// [`FaultHooks::absorb_elided`] call at the batch boundary.
///
/// The horizon speaks only of *corruption*. Consumption watches — a fired
/// register fault waiting for the first read or write of its register —
/// do not shorten it: the hooks report them separately as
/// [`FaultHooks::watched_regs`], and the shim passes exactly those
/// registers' accesses through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dormancy {
    /// Something observable may happen on the very next event: run fully
    /// hooked. This is the conservative default.
    Active,
    /// Nothing observable can happen while *every* per-stage event counter
    /// advances by fewer than `events` and fewer than `ticks` simulation
    /// ticks elapse. Either bound may be `u64::MAX` ("unconstrained").
    Quiet {
        /// Strict per-stage event bound: the earliest event that could fire
        /// a fault is the `events`-th one of its stage.
        events: u64,
        /// Strict tick bound: the earliest tick at which a tick-timed fault
        /// arms is `now + ticks`.
        ticks: u64,
    },
    /// Nothing observable can ever happen in the current state (no pending
    /// faults, or none that the running thread can reach): sprint freely
    /// until the next machine-level boundary, delivering only the accesses
    /// to [`FaultHooks::watched_regs`].
    Dormant,
}

/// Stage events accumulated during one elided sprint, in stage-queue order:
/// fetch, decode, execute, memory, register (committed instructions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElisionBatch {
    /// Per-stage event counts (fetch, decode, execute, memory, commit).
    pub stage_events: [u64; 5],
}

impl ElisionBatch {
    /// The largest per-stage counter (compared against the `events` bound).
    pub fn max_stage_events(&self) -> u64 {
        self.stage_events.iter().copied().max().unwrap_or(0)
    }

    /// Whether any event was recorded.
    pub fn is_empty(&self) -> bool {
        self.stage_events == [0; 5]
    }
}

/// Per-stage fault-injection callbacks.
///
/// All methods have no-op defaults; an implementation overrides the stages
/// it cares about. `core` identifies the hardware context (always 0 on the
/// single-core configuration the paper evaluates, but the surface is
/// multi-core ready, as GemFI's `system.cpuN` fault syntax requires).
pub trait FaultHooks {
    /// Called at each committed-instruction boundary *before* the next
    /// instruction, with mutable architectural state: the window in which
    /// scheduled register, special-register and PC faults are applied.
    #[inline]
    fn before_instruction(&mut self, core: usize, now: Ticks, arch: &mut ArchState) {
        let _ = (core, now, arch);
    }

    /// An instruction word was fetched; may corrupt any of its 32 bits.
    #[inline]
    fn on_fetch(&mut self, core: usize, pc: u64, word: RawInstr) -> RawInstr {
        let _ = (core, pc);
        word
    }

    /// Decode is selecting source/destination registers; may corrupt the
    /// register-selector fields of the word.
    #[inline]
    fn on_decode(&mut self, core: usize, word: RawInstr) -> RawInstr {
        let _ = core;
        word
    }

    /// The execution stage produced `value` (an ALU/FPU result, a computed
    /// effective address, or a control-flow target); may corrupt it.
    #[inline]
    fn on_execute_result(&mut self, core: usize, instr: &Instr, value: u64) -> u64 {
        let _ = (core, instr);
        value
    }

    /// A load read `value` from `addr`; may corrupt the loaded value.
    #[inline]
    fn on_mem_load(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        let _ = (core, addr);
        value
    }

    /// A store is about to write `value` to `addr`; may corrupt the stored
    /// value.
    #[inline]
    fn on_mem_store(&mut self, core: usize, addr: u64, value: u64) -> u64 {
        let _ = (core, addr);
        value
    }

    /// Whether an instruction-skip fault fired on the word just fetched.
    /// Consuming the flag disarms it; the CPU model must then advance the PC
    /// past the instruction without executing any of its side effects.
    #[inline]
    fn take_skip(&mut self, core: usize) -> bool {
        let _ = core;
        false
    }

    /// A conditional branch resolved its direction as `taken`; a
    /// branch-inversion fault may flip it. The returned direction is the one
    /// the CPU model must commit (and train its predictor on).
    #[inline]
    fn on_branch(&mut self, core: usize, instr: &Instr, taken: bool) -> bool {
        let _ = (core, instr);
        taken
    }

    /// Whether any cache lesions fired and await planting into the memory
    /// system. Split from [`FaultHooks::take_cache_lesions`] so the common
    /// no-lesion path stays allocation-free.
    #[inline]
    fn has_cache_lesions(&self) -> bool {
        false
    }

    /// Drains the cache lesions that fired since the last drain. The CPU
    /// model plants them into its [`gemfi_mem::MemorySystem`] at the next
    /// instruction boundary.
    #[inline]
    fn take_cache_lesions(&mut self) -> Vec<CacheLesion> {
        Vec::new()
    }

    /// An architectural register was read as a source operand (consumption
    /// tracking for the *non-propagated* outcome class).
    #[inline]
    fn on_reg_read(&mut self, core: usize, reg: RegRef) {
        let _ = (core, reg);
    }

    /// An architectural register was overwritten.
    #[inline]
    fn on_reg_write(&mut self, core: usize, reg: RegRef) {
        let _ = (core, reg);
    }

    /// An instruction committed (per-thread instruction counting).
    #[inline]
    fn on_commit(&mut self, core: usize, now: Ticks, pc: u64, instr: &Instr) {
        let _ = (core, now, pc, instr);
    }

    /// `fi_activate_inst(id)` committed on the thread whose PCB base is
    /// `pcbb` (toggles injection for that thread).
    #[inline]
    fn on_fi_activate(&mut self, core: usize, now: Ticks, id: u32, pcbb: u64) {
        let _ = (core, now, id, pcbb);
    }

    /// The PCB base register changed (context switch): GemFI re-resolves its
    /// per-core `ThreadEnabledFault` pointer here instead of hashing on
    /// every tick (the Sec. III-C optimization).
    #[inline]
    fn on_context_switch(&mut self, core: usize, new_pcbb: u64) {
        let _ = (core, new_pcbb);
    }

    /// The dormancy horizon at simulation time `now`: how long these hooks
    /// guarantee to stay unobservable. The default is [`Dormancy::Active`]
    /// (never elide), so implementations that don't opt in keep exact
    /// per-event semantics.
    #[inline]
    fn dormancy(&self, core: usize, now: Ticks) -> Dormancy {
        let _ = (core, now);
        Dormancy::Active
    }

    /// The registers whose next read or write these hooks must see even
    /// inside an elided sprint — live consumption watches — as a
    /// [`RegRef::mask_bit`] mask (integer registers in the low half,
    /// floating-point registers in the high half). The default is empty.
    /// Implementations whose register hooks do anything else must keep
    /// reporting [`Dormancy::Active`] instead.
    #[inline]
    fn watched_regs(&self) -> u64 {
        0
    }

    /// Delivers the stage events of one elided sprint in bulk. `now` is the
    /// boundary tick of the last committed instruction in the batch (absent
    /// when the batch carried no instruction boundary). Implementations that
    /// report a non-`Active` horizon must account these exactly as if each
    /// event had arrived through its individual hook.
    #[inline]
    fn absorb_elided(&mut self, core: usize, now: Option<Ticks>, batch: &ElisionBatch) {
        let _ = (core, now, batch);
    }

    /// Whether [`FaultHooks::absorb_elided`] is non-trivial for this
    /// implementation. When `false`, the elided sprint skips event counting
    /// entirely (there is nobody to deliver the batch to). Defaults to
    /// `true` so custom hooks stay exact; only hooks whose `absorb_elided`
    /// is a no-op should override this.
    #[inline]
    fn absorbs_elided(&self) -> bool {
        true
    }
}

/// The "unmodified gem5" baseline: every hook is a no-op and inlines away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopHooks;

impl FaultHooks for NoopHooks {
    /// No-op hooks never observe anything: always dormant.
    #[inline]
    fn dormancy(&self, _core: usize, _now: Ticks) -> Dormancy {
        Dormancy::Dormant
    }

    /// Nothing to deliver batches to: the sprint shim compiles down to the
    /// same zero-cost loop as the hooked no-op baseline.
    #[inline]
    fn absorbs_elided(&self) -> bool {
        false
    }
}

/// The counting shim driven inside an elided sprint.
///
/// Wraps the real hooks without calling their per-event methods: value hooks
/// are identity, event hooks bump an [`ElisionBatch`] counter, and the two
/// state-changing pseudo-op hooks (`fi_activate`, context switch) flush the
/// batch, pass through to the inner hooks, and mark the sprint interrupted
/// so the machine re-evaluates the dormancy horizon. A read or write of a
/// watched register ([`FaultHooks::watched_regs`], read when the shim is
/// built) passes through too, without a flush: retiring a watch reads no
/// stage counter, so it needs no batch boundary.
///
/// Because every CPU model drives this shim through the *same* call sites as
/// the real hooks, the counters it accumulates are event-for-event identical
/// to what the inner hooks would have counted themselves — which is what
/// makes bulk absorption exact.
#[derive(Debug)]
pub struct ElidedHooks<'h, H> {
    inner: &'h mut H,
    batch: ElisionBatch,
    core: usize,
    /// Boundary tick of the last committed instruction seen in the batch.
    last_now: Option<Ticks>,
    /// Whether the inner hooks want the batch at all (false for no-op
    /// hooks, whose sprint then counts nothing).
    count: bool,
    interrupted: bool,
    /// The inner hooks' [`FaultHooks::watched_regs`], refreshed after every
    /// passthrough access.
    watched: u64,
}

impl<'h, H: FaultHooks> ElidedHooks<'h, H> {
    /// Wraps `inner` for one sprint.
    pub fn new(inner: &'h mut H) -> ElidedHooks<'h, H> {
        let count = inner.absorbs_elided();
        let watched = inner.watched_regs();
        ElidedHooks {
            inner,
            batch: ElisionBatch::default(),
            core: 0,
            last_now: None,
            count,
            interrupted: false,
            watched,
        }
    }

    /// The registers still watched, as a [`RegRef::mask_bit`] mask. The
    /// machine runs a superblock whole only when its footprint misses this.
    #[inline]
    pub fn watched(&self) -> u64 {
        self.watched
    }

    /// The largest per-stage counter accumulated so far.
    #[inline]
    pub fn max_stage_events(&self) -> u64 {
        self.batch.max_stage_events()
    }

    /// Whether a passthrough hook ended the batch (the horizon must be
    /// recomputed before sprinting further).
    #[inline]
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Folds a superblock run's bulk event counts into the batch — the
    /// counts the per-instruction path would have accumulated hook-by-hook
    /// for the same instructions (`events` in stage-queue order, `last_now`
    /// the start tick of the last instruction that *started*). Batch
    /// partitioning is absorption-insensitive, so delivering these together
    /// with per-instruction counts is tick- and event-identical.
    pub fn record_block(&mut self, core: usize, last_now: Option<Ticks>, events: [u64; 5]) {
        if !self.count {
            return;
        }
        self.core = core;
        for (acc, n) in self.batch.stage_events.iter_mut().zip(events) {
            *acc += n;
        }
        if let Some(now) = last_now {
            self.last_now = Some(now);
        }
    }

    /// Delivers the accumulated batch to the inner hooks and resets it.
    pub fn flush(&mut self) {
        if self.batch.is_empty() && self.last_now.is_none() {
            return;
        }
        self.inner.absorb_elided(self.core, self.last_now.take(), &self.batch);
        self.batch = ElisionBatch::default();
    }

    /// Flushes and releases the inner hooks (end of sprint).
    pub fn finish(mut self) {
        self.flush();
    }
}

impl<H: FaultHooks> FaultHooks for ElidedHooks<'_, H> {
    #[inline]
    fn before_instruction(&mut self, core: usize, now: Ticks, _arch: &mut ArchState) {
        if self.count {
            self.core = core;
            self.last_now = Some(now);
        }
    }

    #[inline]
    fn on_fetch(&mut self, core: usize, _pc: u64, word: RawInstr) -> RawInstr {
        if self.count {
            self.core = core;
            self.batch.stage_events[0] += 1;
        }
        word
    }

    #[inline]
    fn on_decode(&mut self, core: usize, word: RawInstr) -> RawInstr {
        if self.count {
            self.core = core;
            self.batch.stage_events[1] += 1;
        }
        word
    }

    #[inline]
    fn on_execute_result(&mut self, core: usize, _instr: &Instr, value: u64) -> u64 {
        if self.count {
            self.core = core;
            self.batch.stage_events[2] += 1;
        }
        value
    }

    #[inline]
    fn on_mem_load(&mut self, core: usize, _addr: u64, value: u64) -> u64 {
        if self.count {
            self.core = core;
            self.batch.stage_events[3] += 1;
        }
        value
    }

    #[inline]
    fn on_mem_store(&mut self, core: usize, _addr: u64, value: u64) -> u64 {
        if self.count {
            self.core = core;
            self.batch.stage_events[3] += 1;
        }
        value
    }

    // A watched register's access reaches the inner hooks, which retire the
    // watch exactly as on the hooked path; the shim then re-reads the mask
    // so the retired register drops out. Every other access is dropped.
    #[inline]
    fn on_reg_read(&mut self, core: usize, reg: RegRef) {
        if self.watched & reg.mask_bit() != 0 {
            self.inner.on_reg_read(core, reg);
            self.watched = self.inner.watched_regs();
        }
    }

    #[inline]
    fn on_reg_write(&mut self, core: usize, reg: RegRef) {
        if self.watched & reg.mask_bit() != 0 {
            self.inner.on_reg_write(core, reg);
            self.watched = self.inner.watched_regs();
        }
    }

    // `take_skip`, `on_branch`, `has_cache_lesions` and `take_cache_lesions`
    // likewise keep their identity defaults: an armed skip or pending lesion
    // forces `Dormancy::Active`, and the sprint's horizon ends before any
    // branch-inversion fault can arm, so none of them can be live mid-sprint.

    #[inline]
    fn on_commit(&mut self, core: usize, now: Ticks, _pc: u64, _instr: &Instr) {
        if self.count {
            self.core = core;
            self.last_now = Some(now);
            self.batch.stage_events[4] += 1;
        }
    }

    fn on_fi_activate(&mut self, core: usize, now: Ticks, id: u32, pcbb: u64) {
        // Events so far happened under the pre-toggle activity state;
        // absorb them before the toggle, exactly as the real hook order
        // would have attributed them.
        self.core = core;
        self.flush();
        self.inner.on_fi_activate(core, now, id, pcbb);
        self.interrupted = true;
    }

    fn on_context_switch(&mut self, core: usize, new_pcbb: u64) {
        self.core = core;
        self.flush();
        self.inner.on_context_switch(core, new_pcbb);
        self.interrupted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_hooks_are_identity() {
        let mut h = NoopHooks;
        let w = RawInstr(0x1234);
        assert_eq!(h.on_fetch(0, 0, w), w);
        assert_eq!(h.on_decode(0, w), w);
        assert_eq!(h.on_mem_load(0, 0, 9), 9);
        assert_eq!(h.on_mem_store(0, 0, 9), 9);
    }
}
