//! The out-of-order (O3) CPU model.
//!
//! A speculative, register-renaming, reorder-buffer core in the spirit of
//! gem5's O3 model, with the properties the paper's methodology depends on:
//!
//! * instructions are fetched down **predicted** paths (tournament
//!   predictor + BTB + return-address stack) and execute **speculatively**
//!   out of order as operands become ready;
//! * a mispredicted branch **squashes** younger in-flight instructions —
//!   fault hooks fire for wrong-path instructions too, so an injected fault
//!   can land on an instruction that later squashes (an outcome class the
//!   paper explicitly observes);
//! * commit is **in-order and precise**: architectural state (including the
//!   PC) advances only at commit, traps are raised only when the faulting
//!   instruction reaches the commit head, and the campaign runner can
//!   switch CPU models at any commit boundary ("the simulation continues
//!   until the affected instruction commits or squashes");
//! * stores drain from a **store buffer** at commit; loads forward from
//!   older in-flight stores or wait on unresolved store addresses.
//!
//! The scheduler never scans the ROB. In-flight entries carry contiguous
//! sequence numbers, so `seq % 64` names a slot no other in-flight entry
//! shares. The ROB is a fixed ring of 64 entries that holds entry `seq` at
//! that slot, written in place at dispatch, and four slot bitmasks hold the
//! scheduling state: `ready` (the `Dispatched` entries whose operands are
//! all ready), `issued` (the executing entries), `stores` (the store
//! entries) and, per producer, `waiters` (the entries waiting on its
//! result). Writeback and issue walk their mask oldest first (rotated to
//! the head's slot), a load checks only the older stores, youngest first,
//! a completion wakes only its registered waiters, and a squash clears the
//! killed slots from every mask, since the next dispatch reuses them.
//!
//! An entry is 112 bytes, assigned in its slot at dispatch and read in
//! place at execute, writeback and commit, never copied out whole. Its
//! operands are three values, three producer slots and a pending mask: a
//! completion delivers its result to the operands whose pending bit names
//! its slot, and the entry is ready once the mask is empty. A memory
//! entry adds only its address; its operand is the instruction's, and a
//! store keeps its data in the result field.

use crate::exec::{
    alu, branch_target, cmov_cond, exec_latency, fetch_decode, fp_cmov_cond, fpu, load, store,
};
use crate::hooks::FaultHooks;
use crate::predictor::TournamentPredictor;
use crate::{StepEvent, StepResult};
use gemfi_isa::{ArchState, ExecError, Instr, JumpKind, Operand, RegRef, SimError, Trap};
use gemfi_kernel::{Kernel, PalOutcome};
use gemfi_mem::{MemorySystem, Ticks};

/// Instructions fetched/dispatched per cycle.
const FETCH_WIDTH: usize = 4;
/// Instructions issued to execution per cycle.
const ISSUE_WIDTH: usize = 4;
/// Instructions committed per cycle.
const COMMIT_WIDTH: usize = 4;
/// Reorder-buffer capacity.
const ROB_SIZE: usize = 64;
/// Scheduler slots: one bit of a `u64` mask per slot.
const SLOTS: usize = u64::BITS as usize;
// At most `SLOTS` contiguous sequence numbers never share a slot.
const _: () = assert!(ROB_SIZE <= SLOTS);
/// Front-end refill delay after a squash, in ticks.
const MISPREDICT_PENALTY: Ticks = 5;

/// Aggregate statistics of the out-of-order engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct O3Stats {
    /// Instructions committed.
    pub committed: u64,
    /// Speculative instructions squashed.
    pub squashed: u64,
    /// Pipeline flushes (mispredicts, serializing instructions, PC faults).
    pub squash_events: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Waiting for operands / not yet picked.
    Dispatched,
    /// Executing; completes at `done_at`.
    Issued,
    /// Result (or trap) available; eligible to commit in order.
    Done,
}

/// [`RobEntry::flags`]: a serializing instruction (PAL call / GemFI
/// pseudo-op), which executes its effect at the commit head and flushes
/// younger instructions.
const SERIALIZE: u8 = 1;
/// [`RobEntry::flags`]: the direction fetch predicted for a conditional
/// branch.
const PREDICTED_TAKEN: u8 = 1 << 1;
/// [`RobEntry::flags`]: a memory entry's effective address is known
/// ([`RobEntry::addr`]).
const ADDR_KNOWN: u8 = 1 << 2;
/// [`RobEntry::flags`]: a dispatched store, which drains at commit. A
/// skipped store is not one: it executes nothing.
const STORE: u8 = 1 << 3;
// The other four flag bits are free.

/// One in-flight instruction. It is written in its slot at dispatch and
/// read in place afterwards, so it is kept small (at most 128 bytes): the
/// operands are three values, three producer slots and a pending mask, and
/// a memory access adds only its address, since its operand is the
/// instruction's and a store's data sits in `result`.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    pc: u64,
    /// The PC fetch redirected to after this instruction.
    predicted_next: u64,
    /// Resolved next PC (valid once `Done`).
    actual_next: u64,
    /// The result; for a store, the data (post-hook) it drains at commit.
    result: u64,
    done_at: Ticks,
    /// Operand values in [`Instr::src_regs`] order: 0 for an absent
    /// operand, and for one still pending until its producer wakes it.
    vals: [u64; 3],
    /// Effective address of a memory access, once `ADDR_KNOWN` is set.
    addr: u64,
    trap: Option<Trap>,
    instr: Option<Instr>,
    dst: Option<RegRef>,
    /// Per operand, the slot of the in-flight producer it waits on while
    /// its bit in `pending` is set.
    producers: [u8; 3],
    /// The operands still waiting for their producer's result, one bit per
    /// operand.
    pending: u8,
    state: EntryState,
    /// `SERIALIZE`, `PREDICTED_TAKEN`, `ADDR_KNOWN` and `STORE`.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<RobEntry>() <= 128);

impl RobEntry {
    /// A dead entry: no operands, no destination, no memory address and no
    /// flags. [`O3Cpu::start`] fills a slot from it.
    const EMPTY: RobEntry = RobEntry {
        pc: 0,
        predicted_next: 0,
        actual_next: 0,
        result: 0,
        done_at: 0,
        vals: [0; 3],
        addr: 0,
        trap: None,
        instr: None,
        dst: None,
        producers: [0; 3],
        pending: 0,
        state: EntryState::Done,
        flags: 0,
    };
}

/// Rename-table slot of `reg`: the int bank, then the fp bank. The zero
/// registers and the special registers are never renamed.
fn rename_slot(reg: RegRef) -> Option<usize> {
    match reg {
        RegRef::Int(r) if !r.is_zero() => Some(r.index()),
        RegRef::Fp(r) if !r.is_zero() => Some(32 + r.index()),
        _ => None,
    }
}

/// The scheduler slot of the in-flight entry with sequence number `seq`.
fn slot(seq: u64) -> usize {
    (seq % SLOTS as u64) as usize
}

/// A mask of the first `n` bits.
fn first(n: usize) -> u64 {
    u64::MAX.checked_shr((SLOTS - n) as u32).unwrap_or(0)
}

/// The out-of-order CPU.
#[derive(Debug, Clone)]
pub struct O3Cpu {
    /// The reorder buffer: in-flight entry `seq` at `rob[slot(seq)]`. The
    /// other slots hold dead entries the next dispatches overwrite.
    rob: [RobEntry; SLOTS],
    /// Number of in-flight entries.
    len: usize,
    /// Sequence number of the next dispatched entry. A squash rolls it back
    /// to the survivor's successor, so the in-flight entries always carry
    /// `next_seq - len .. next_seq`, oldest first.
    next_seq: u64,
    fetch_pc: u64,
    fetch_ready_at: Ticks,
    /// Fetch parked until a redirect (post-serialize or fetch fault).
    fetch_parked: bool,
    predictor: TournamentPredictor,
    /// Rename table: most recent in-flight producer of each register, the
    /// int bank then the fp bank ([`rename_slot`]).
    rename: [Option<u64>; 64],
    /// Slots of the `Dispatched` entries whose operands are all ready.
    ready: u64,
    /// Slots of the `Issued` entries.
    issued: u64,
    /// Slots of the store entries.
    stores: u64,
    /// Per producer slot, the slots of the entries waiting on its result.
    waiters: [u64; SLOTS],
    stats: O3Stats,
}

impl O3Cpu {
    /// A fresh core that will start fetching at `entry_pc`.
    pub fn new(entry_pc: u64) -> O3Cpu {
        O3Cpu {
            rob: [RobEntry::EMPTY; SLOTS],
            len: 0,
            next_seq: 0,
            fetch_pc: entry_pc,
            fetch_ready_at: 0,
            fetch_parked: false,
            predictor: TournamentPredictor::new(),
            rename: [None; 64],
            ready: 0,
            issued: 0,
            stores: 0,
            waiters: [0; SLOTS],
            stats: O3Stats::default(),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> &O3Stats {
        &self.stats
    }

    /// The branch predictor (stats inspection).
    pub fn predictor(&self) -> &TournamentPredictor {
        &self.predictor
    }

    /// Number of in-flight (uncommitted) instructions.
    pub fn in_flight(&self) -> usize {
        self.len
    }

    /// Discards all speculative state and restarts fetch at the committed
    /// PC. Used by the machine before delivering a timer interrupt and when
    /// switching CPU models.
    pub fn flush(&mut self, arch: &ArchState) {
        self.stats.squashed += self.len as u64;
        if self.len > 0 {
            self.stats.squash_events += 1;
        }
        self.len = 0;
        self.rename = [None; 64];
        self.ready = 0;
        self.issued = 0;
        self.stores = 0;
        self.waiters = [0; SLOTS];
        self.fetch_pc = arch.pc;
        self.fetch_parked = false;
    }

    /// Sequence number of the oldest in-flight entry.
    fn head_seq(&self) -> u64 {
        self.next_seq - self.len as u64
    }

    /// Whether `seq` names an in-flight entry.
    fn live(&self, seq: u64) -> bool {
        (self.head_seq()..self.next_seq).contains(&seq)
    }

    /// The slot of the entry at age `idx` (0 is the head).
    fn slot_at(&self, idx: usize) -> usize {
        slot(self.head_seq() + idx as u64)
    }

    /// `mask` re-based on the head's slot: bit `i` is the entry at age `i`,
    /// so trailing zeros walk it oldest first.
    fn by_age(&self, mask: u64) -> u64 {
        mask.rotate_right(slot(self.head_seq()) as u32)
    }

    /// Starts the next sequence number's entry in its slot, from
    /// [`RobEntry::EMPTY`], and returns it. The entry is assigned in its
    /// slot: building it elsewhere and copying it in costs a
    /// store-forwarding stall per dispatch.
    fn start(
        &mut self,
        pc: u64,
        instr: Option<Instr>,
        next: u64,
        state: EntryState,
        now: Ticks,
    ) -> &mut RobEntry {
        let at = slot(self.next_seq);
        self.next_seq += 1;
        self.len += 1;
        let e = &mut self.rob[at];
        *e = RobEntry {
            pc,
            predicted_next: next,
            actual_next: next,
            done_at: now,
            instr,
            state,
            ..RobEntry::EMPTY
        };
        e
    }

    /// Kills every entry younger than the one at age `idx`, clears their
    /// slots from the scheduler masks and rebuilds the rename table.
    fn squash_after(&mut self, idx: usize, redirect: u64, now: Ticks) {
        let dead = (first(self.len) & !first(idx + 1)).rotate_left(slot(self.head_seq()) as u32);
        self.ready &= !dead;
        self.issued &= !dead;
        self.stores &= !dead;
        // Consumers are younger than their producer, so this also empties
        // the killed producers' own lists.
        for w in &mut self.waiters {
            *w &= !dead;
        }
        let killed = self.len - (idx + 1);
        self.len = idx + 1;
        self.next_seq -= killed as u64;
        self.stats.squashed += killed as u64;
        self.stats.squash_events += 1;
        self.rename = [None; 64];
        for seq in self.head_seq()..self.next_seq {
            if let Some(r) = self.rob[slot(seq)].dst.and_then(rename_slot) {
                self.rename[r] = Some(seq);
            }
        }
        self.fetch_pc = redirect;
        self.fetch_parked = false;
        self.fetch_ready_at = now + MISPREDICT_PENALTY;
    }

    /// Delivers the result of the producer in slot `producer` to the
    /// consumers waiting on it; those left with no operand pending become
    /// issue candidates.
    fn wakeup(&mut self, producer: usize, value: u64) {
        let mut waiting = std::mem::take(&mut self.waiters[producer]);
        while waiting != 0 {
            let at = waiting.trailing_zeros() as usize;
            waiting &= waiting - 1;
            let e = &mut self.rob[at];
            for k in 0..3 {
                if e.pending & (1 << k) != 0 && usize::from(e.producers[k]) == producer {
                    e.vals[k] = value;
                    e.pending &= !(1 << k);
                }
            }
            if e.pending == 0 {
                self.ready |= 1 << at;
            }
        }
    }

    // --------------------------------------------------------------- fetch

    /// Fetches, decodes, renames and dispatches one instruction. `Ok(false)`
    /// means the front-end stalled this cycle.
    ///
    /// # Errors
    ///
    /// [`SimError`] when the rename table names a producer that is not in
    /// the ROB (a broken internal invariant, never a guest outcome).
    fn dispatch_one<H: FaultHooks>(
        &mut self,
        core: usize,
        arch: &ArchState,
        mem: &mut MemorySystem,
        hooks: &mut H,
        now: Ticks,
    ) -> Result<bool, SimError> {
        if self.len >= ROB_SIZE || self.fetch_parked {
            return Ok(false);
        }
        let pc = self.fetch_pc;
        let seq = self.next_seq;
        let at = slot(seq);

        let (instr, fetch_lat) = match fetch_decode(core, mem, hooks, pc) {
            Ok(v) => v,
            Err(t) => {
                // Possibly a wrong-path fetch (unmapped PC) or a word that
                // does not decode: park fetch and let the trap become
                // precise at commit (or be squashed away).
                let next = if matches!(t, Trap::IllegalInstruction { .. }) {
                    pc.wrapping_add(4)
                } else {
                    pc
                };
                self.start(pc, None, next, EntryState::Done, now).trap = Some(t);
                self.fetch_parked = true;
                return Ok(false);
            }
        };
        if fetch_lat > mem.config().l1i.hit_latency {
            self.fetch_ready_at = now + fetch_lat;
        }

        // An instruction-skip fault nullifies the fetched instruction: it
        // occupies a ROB slot (and commits, advancing per-thread counters)
        // but executes nothing. Checked before the serialize split so a
        // skipped PAL call really is skipped. A skip armed by a wrong-path
        // fetch is consumed here and squashed away — harmless, exactly like
        // any other fault on a squashed instruction.
        if hooks.take_skip(core) {
            let next = pc.wrapping_add(4);
            self.start(pc, Some(instr), next, EntryState::Done, now);
            self.fetch_pc = next;
            return Ok(true);
        }

        // Serializing instructions execute at the commit head.
        if matches!(instr, Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit) {
            self.start(pc, Some(instr), pc.wrapping_add(4), EntryState::Done, now).flags =
                SERIALIZE;
            self.fetch_parked = true; // resume at the post-commit PC
            return Ok(false);
        }

        // Front-end next-PC selection.
        let mut flags = 0;
        if instr.mem_operand().is_some_and(|op| op.store) {
            flags = STORE;
            self.stores |= 1 << at;
        }
        let next = match instr {
            Instr::Br { disp, .. } => branch_target(pc, disp),
            Instr::Bsr { disp, .. } => {
                self.predictor.push_return(pc.wrapping_add(4));
                branch_target(pc, disp)
            }
            Instr::CondBr { disp, .. } | Instr::FpCondBr { disp, .. } => {
                if self.predictor.predict_direction(pc) {
                    flags |= PREDICTED_TAKEN;
                    branch_target(pc, disp)
                } else {
                    pc.wrapping_add(4)
                }
            }
            Instr::Jump { kind, .. } => {
                if kind == JumpKind::Jsr {
                    self.predictor.push_return(pc.wrapping_add(4));
                }
                let guess = if kind == JumpKind::Ret {
                    self.predictor.pop_return()
                } else {
                    self.predictor.predict_target(pc)
                };
                guess.unwrap_or_else(|| pc.wrapping_add(4))
            }
            _ => pc.wrapping_add(4),
        };
        let dst = instr.dst_reg();
        let e = self.start(pc, Some(instr), next, EntryState::Dispatched, now);
        e.actual_next = pc.wrapping_add(4);
        e.dst = dst;
        e.flags = flags;

        // Capture operands through the rename table. A producer that has
        // already completed (but not committed) supplies its result
        // directly — it will never broadcast again. Operands with no
        // in-flight producer read the *architectural* register file here at
        // dispatch: that is the moment a register-file fault is consumed,
        // so the read hook fires now (forwarded operands never touch the
        // register file and must not count as consumption). An operand
        // whose producer is still executing makes the entry its waiter.
        // The entry's own sequence number is not in the rename table yet,
        // so every producer found is older.
        for (k, reg) in instr.src_regs().into_iter().enumerate() {
            let Some(reg) = reg else { continue };
            match rename_slot(reg).and_then(|r| self.rename[r]) {
                Some(p) => {
                    if !self.live(p) {
                        return Err(SimError::new("o3", "renamed producer present in ROB", pc));
                    }
                    let p_at = slot(p);
                    let p_entry = &self.rob[p_at];
                    if p_entry.state == EntryState::Done {
                        self.rob[at].vals[k] = p_entry.result;
                    } else {
                        self.waiters[p_at] |= 1 << at;
                        let e = &mut self.rob[at];
                        e.producers[k] = p_at as u8;
                        e.pending |= 1 << k;
                    }
                }
                None => {
                    hooks.on_reg_read(core, reg);
                    self.rob[at].vals[k] = arch.read_reg(reg);
                }
            }
        }
        if self.rob[at].pending == 0 {
            self.ready |= 1 << at;
        }
        if let Some(r) = dst.and_then(rename_slot) {
            self.rename[r] = Some(seq);
        }
        self.fetch_pc = next;
        Ok(true)
    }

    // ------------------------------------------------------------- execute

    /// Whether a load at age `idx` may proceed given older stores, and the
    /// forwarded value, if any. `Err(())` means it must wait. Only the
    /// older store entries are visited, youngest first.
    fn load_check(&self, idx: usize, addr: u64, width: u64) -> Result<Option<u64>, ()> {
        let mut older = self.by_age(self.stores) & first(idx);
        while older != 0 {
            let j = (u64::BITS - 1 - older.leading_zeros()) as usize;
            older &= !(1 << j);
            let e = &self.rob[self.slot_at(j)];
            let Some(op) = e.instr.and_then(|i| i.mem_operand()) else { continue };
            // Older store address unknown: conservative wait.
            if e.flags & ADDR_KNOWN == 0 {
                return Err(());
            }
            let sa = e.addr;
            // Widen to u128: a fault-corrupted base register can put `addr`
            // (or `sa`) near u64::MAX, where `addr + width` would overflow
            // and abort a debug build.
            let overlap = (sa as u128) < addr as u128 + width as u128
                && (addr as u128) < sa as u128 + op.width as u128;
            if !overlap {
                continue;
            }
            if sa == addr && op.width == width && e.state == EntryState::Done {
                return Ok(Some(e.result));
            }
            // Partial overlap or store not finished: wait until the store
            // commits (it will leave the ROB).
            return Err(());
        }
        Ok(None)
    }

    /// Executes the dispatched entry at age `idx`. `Ok(false)` means it
    /// could not issue this cycle (e.g. a load waiting on an older store).
    ///
    /// # Errors
    ///
    /// [`SimError`] when the entry violates pipeline bookkeeping invariants
    /// (undecoded, missing memory state, or a serializer reaching execute).
    fn execute_entry<H: FaultHooks>(
        &mut self,
        idx: usize,
        core: usize,
        mem: &mut MemorySystem,
        hooks: &mut H,
        now: Ticks,
    ) -> Result<bool, SimError> {
        let at = self.slot_at(idx);
        let e = &self.rob[at];
        let pc = e.pc;
        let Some(instr) = e.instr else {
            return Err(SimError::new("o3", "dispatched entries are decoded", pc));
        };
        let [a, b, old] = e.vals;

        let mut result = 0u64;
        let mut actual_next = pc.wrapping_add(4);
        let mut lat = exec_latency(&instr);
        let mut trap = None;

        match instr {
            Instr::Lda { disp, .. } => {
                result = hooks.on_execute_result(core, &instr, a.wrapping_add(disp as i64 as u64));
            }
            Instr::Ldah { disp, .. } => {
                result = hooks.on_execute_result(
                    core,
                    &instr,
                    a.wrapping_add((disp as i64 as u64) << 16),
                );
            }
            Instr::IntOp { func, rb, .. } => {
                let b = match rb {
                    Operand::Reg(_) => b,
                    Operand::Lit(v) => v as u64,
                };
                result = match cmov_cond(func, a) {
                    Some(true) => hooks.on_execute_result(core, &instr, b),
                    // A cmov whose condition is false still runs the execute
                    // hook, then keeps the old destination value.
                    Some(false) => {
                        hooks.on_execute_result(core, &instr, b);
                        old
                    }
                    None => hooks.on_execute_result(core, &instr, alu(func, a, b)),
                };
            }
            Instr::FpOp { func, .. } => {
                result = match fp_cmov_cond(func, a) {
                    Some(true) => hooks.on_execute_result(core, &instr, b),
                    Some(false) => {
                        hooks.on_execute_result(core, &instr, b);
                        old
                    }
                    None => hooks.on_execute_result(core, &instr, fpu(func, a, b)),
                };
            }
            Instr::Itoft { .. } | Instr::Ftoit { .. } => {
                result = hooks.on_execute_result(core, &instr, a);
            }
            Instr::Br { .. } | Instr::Bsr { .. } => {
                // Target already selected at fetch (always correct); the
                // result is the link value.
                actual_next = e.predicted_next;
                result = pc.wrapping_add(4);
            }
            Instr::Jump { .. } => {
                actual_next = hooks.on_execute_result(core, &instr, a & !3);
                result = pc.wrapping_add(4);
            }
            Instr::CondBr { .. } | Instr::FpCondBr { .. } => {
                let Some(br) = instr.cond_branch() else {
                    return Err(SimError::new("o3", "conditional branches test a register", pc));
                };
                let predicted_taken = e.flags & PREDICTED_TAKEN != 0;
                // Branch inversion hooks in at resolution; the predictor
                // trains on the post-inversion (architecturally committed)
                // direction.
                let taken = hooks.on_branch(core, &instr, br.taken(a));
                let target = if taken { branch_target(pc, br.disp) } else { pc.wrapping_add(4) };
                actual_next = hooks.on_execute_result(core, &instr, target);
                self.predictor.update_direction(pc, taken, predicted_taken);
            }
            Instr::Mem { .. } | Instr::Ldt { .. } | Instr::Stt { .. } => {
                let Some(op) = instr.mem_operand() else {
                    return Err(SimError::new("o3", "memory entries carry mem state", pc));
                };
                // Address generation and its hook run once: a load retried
                // behind an older store reuses the hooked address. Only
                // older stores' addresses gate `load_check`, so recording a
                // load's before the check is safe.
                let addr = if e.flags & ADDR_KNOWN != 0 {
                    e.addr
                } else {
                    let addr = hooks.on_execute_result(core, &instr, op.address(a));
                    let e = &mut self.rob[at];
                    e.addr = addr;
                    e.flags |= ADDR_KNOWN;
                    addr
                };
                if op.store {
                    // Address generation only; data drains at commit.
                    result = hooks.on_mem_store(core, addr, b);
                } else {
                    match self.load_check(idx, addr, op.width) {
                        // Retry next cycle.
                        Err(()) => return Ok(false),
                        Ok(Some(fwd)) => {
                            result = hooks.on_mem_load(core, addr, op.extend(fwd));
                            lat = 1; // store-buffer forward
                        }
                        Ok(None) => match load(mem, op, addr, pc) {
                            Ok((v, l)) => {
                                result = hooks.on_mem_load(core, addr, v);
                                lat = l;
                            }
                            Err(t) => trap = Some(t), // precise at commit
                        },
                    }
                }
            }
            Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit => {
                return Err(SimError::new("o3", "serializers never reach execute", pc));
            }
        }

        let bit = 1 << at;
        self.ready &= !bit;
        self.issued |= bit;
        let entry = &mut self.rob[at];
        entry.state = EntryState::Issued;
        entry.done_at = now + lat;
        entry.result = result;
        entry.actual_next = actual_next;
        entry.trap = trap;
        Ok(true)
    }

    // -------------------------------------------------------------- commit

    #[allow(clippy::too_many_arguments)]
    fn commit_head<H: FaultHooks>(
        &mut self,
        core: usize,
        arch: &mut ArchState,
        mem: &mut MemorySystem,
        kernel: &mut Kernel,
        hooks: &mut H,
        now: Ticks,
        event: &mut StepEvent,
    ) -> Result<bool, ExecError> {
        let seq = self.head_seq();
        let at = slot(seq);
        if self.len == 0 || self.rob[at].state != EntryState::Done {
            return Ok(false);
        }
        // Register/PC fault window at the committed-instruction boundary
        // (the head is about to commit; faults land before its effects).
        let pc_before = arch.pc;
        hooks.before_instruction(core, now, arch);
        if arch.pc != pc_before {
            // A PC fault redirected control: flush and refetch.
            self.flush(arch);
            self.fetch_ready_at = now + MISPREDICT_PENALTY;
            return Ok(false);
        }
        // The head's presence was checked above and nothing in between can
        // shrink the ROB.
        self.len -= 1;
        self.stores &= !(1 << at);
        let e = &self.rob[at];
        let pc = e.pc;
        if pc != arch.pc {
            // A committing entry off the architectural path is a renaming /
            // squash bookkeeping bug, not a guest outcome: report it as an
            // infrastructure error instead of corrupting the run silently.
            return Err(
                SimError::new("o3", "commit head on the architectural path", arch.pc).into()
            );
        }

        if let Some(t) = e.trap {
            arch.exc_addr = pc;
            return Err(t.into());
        }

        let Some(instr) = e.instr else {
            return Err(SimError::new("o3", "committing entries are decoded", pc).into());
        };

        if e.flags & SERIALIZE != 0 {
            match instr {
                Instr::CallPal { func } => {
                    let old_pcbb = arch.pcbb;
                    arch.pc = pc.wrapping_add(4);
                    match kernel.pal_call(func, arch, mem, now)? {
                        PalOutcome::Continue => {}
                        PalOutcome::Switched => {
                            if arch.pcbb != old_pcbb {
                                hooks.on_context_switch(core, arch.pcbb);
                            }
                        }
                        PalOutcome::AllExited(code) => *event = StepEvent::Halted(code),
                        PalOutcome::Halt => *event = StepEvent::Halted(0),
                    }
                }
                Instr::FiActivate { id } => {
                    arch.pc = pc.wrapping_add(4);
                    hooks.on_fi_activate(core, now, id, arch.pcbb);
                }
                Instr::FiReadInit => {
                    arch.pc = pc.wrapping_add(4);
                    *event = StepEvent::CheckpointRequest;
                }
                _ => {
                    return Err(
                        SimError::new("o3", "only serializers are marked serialize", pc).into()
                    );
                }
            }
            hooks.on_commit(core, now, pc, &instr);
            self.stats.committed += 1;
            // The serializer may have changed anything: restart the
            // front-end from the architectural PC.
            self.flush(arch);
            return Ok(true);
        }

        let (dst, result, actual_next) = (e.dst, e.result, e.actual_next);
        // Stores drain to memory at commit (store buffer semantics).
        if let Some(op) = instr.mem_operand().filter(|_| e.flags & STORE != 0) {
            if e.flags & ADDR_KNOWN == 0 {
                return Err(
                    SimError::new("o3", "stores resolve their address before commit", pc).into()
                );
            }
            if let Err(t) = store(mem, op, e.addr, result, pc) {
                arch.exc_addr = pc;
                return Err(t.into());
            }
        }

        if let Some(d) = dst {
            arch.write_reg(d, result);
            hooks.on_reg_write(core, d);
            // Retire from the rename table if this entry is still the
            // youngest producer.
            if let Some(slot) = rename_slot(d).filter(|&r| self.rename[r] == Some(seq)) {
                self.rename[slot] = None;
            }
        }

        arch.pc = actual_next;
        hooks.on_commit(core, now, pc, &instr);
        self.stats.committed += 1;
        Ok(true)
    }

    /// Advances the engine by one cycle (one tick).
    ///
    /// # Errors
    ///
    /// [`ExecError::Trap`] when a faulting instruction reaches the commit
    /// head (traps are precise); [`ExecError::Sim`] when pipeline
    /// bookkeeping breaks an internal invariant (a simulator bug — the
    /// campaign classifies it as infrastructure, never a guest outcome).
    pub fn step<H: FaultHooks>(
        &mut self,
        core: usize,
        arch: &mut ArchState,
        mem: &mut MemorySystem,
        kernel: &mut Kernel,
        hooks: &mut H,
        now: Ticks,
    ) -> Result<StepResult, ExecError> {
        let mut event = StepEvent::None;
        let mut committed = 0;

        // 1. Commit.
        for _ in 0..COMMIT_WIDTH {
            if !self.commit_head(core, arch, mem, kernel, hooks, now, &mut event)? {
                break;
            }
            committed += 1;
            if event != StepEvent::None {
                break;
            }
        }
        if event != StepEvent::None {
            crate::exec::drain_lesions(hooks, mem);
            return Ok(StepResult { ticks: 1, committed, event });
        }

        // 2. Writeback/complete + branch resolution (oldest first).
        let mut executing = self.by_age(self.issued);
        while executing != 0 {
            let i = executing.trailing_zeros() as usize;
            executing &= executing - 1;
            let at = self.slot_at(i);
            let e = &mut self.rob[at];
            if e.done_at <= now {
                e.state = EntryState::Done;
                let (result, has_dst) = (e.result, e.dst.is_some());
                // Control misprediction?
                let mispredicted = e.actual_next != e.predicted_next
                    && e.instr.is_some_and(|ins| ins.is_control());
                let (redirect, pc) = (e.actual_next, e.pc);
                self.issued &= !(1 << at);
                if has_dst {
                    self.wakeup(at, result);
                }
                if mispredicted {
                    self.predictor.update_target(pc, redirect);
                    self.squash_after(i, redirect, now);
                    // Everything younger is gone; stop walking.
                    break;
                }
            }
        }

        // 3. Issue (oldest ready first).
        let mut issued = 0;
        let mut candidates = self.by_age(self.ready);
        while candidates != 0 && issued < ISSUE_WIDTH {
            let idx = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if self.execute_entry(idx, core, mem, hooks, now)? {
                issued += 1;
            }
        }

        // 4. Fetch/dispatch.
        if self.fetch_ready_at <= now {
            for _ in 0..FETCH_WIDTH {
                if !self.dispatch_one(core, arch, mem, hooks, now)? {
                    break;
                }
            }
        }

        // Cache lesions fired this cycle become visible at the cycle
        // boundary (the O3 instruction-boundary analogue).
        crate::exec::drain_lesions(hooks, mem);

        Ok(StepResult { ticks: 1, committed, event })
    }

    /// Recomputes the scheduler masks from the ROB entries and asserts
    /// that the live ones equal them, and that every pending operand waits
    /// on an older in-flight producer.
    #[cfg(test)]
    fn check_schedule(&self) {
        let (mut ready, mut issued, mut stores, mut waiters) = (0, 0, 0, [0u64; SLOTS]);
        assert!(self.len <= ROB_SIZE, "ROB occupancy");
        for idx in 0..self.len {
            let e = &self.rob[self.slot_at(idx)];
            let bit = 1 << self.slot_at(idx);
            if e.flags & STORE != 0 {
                stores |= bit;
            }
            match e.state {
                EntryState::Dispatched if e.pending == 0 => ready |= bit,
                EntryState::Issued => issued |= bit,
                _ => {}
            }
            for k in (0..3).filter(|k| e.pending & (1 << k) != 0) {
                let p = usize::from(e.producers[k]);
                assert!(
                    (0..idx).any(|older| self.slot_at(older) == p),
                    "an operand waits on an older in-flight producer"
                );
                waiters[p] |= bit;
            }
        }
        assert_eq!(self.ready, ready, "ready mask");
        assert_eq!(self.issued, issued, "issued mask");
        assert_eq!(self.stores, stores, "stores mask");
        assert_eq!(self.waiters, waiters, "waiters");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoopHooks;
    use gemfi_asm::{Assembler, FReg, Reg};
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

    /// Runs to halt, or reports a watchdog-style `Trap::WatchdogTimeout`
    /// when the cycle budget runs out — a hung drain is an outcome
    /// (Crashed), never a panic. The scheduler masks are checked against
    /// the ROB after every cycle.
    fn try_run_o3(
        p: &gemfi_asm::Program,
        max_cycles: u64,
    ) -> Result<(u64, O3Stats, Vec<u64>), ExecError> {
        let (mut arch, mut mem, mut kernel) = boot(p);
        let mut cpu = O3Cpu::new(arch.pc);
        let mut now = 0;
        for _ in 0..max_cycles {
            let r = cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now)?;
            cpu.check_schedule();
            now += r.ticks;
            if let StepEvent::Halted(code) = r.event {
                return Ok((code, *cpu.stats(), kernel.out_words().to_vec()));
            }
        }
        Err(ExecError::Trap(Trap::WatchdogTimeout))
    }

    fn run_o3(p: &gemfi_asm::Program, max_cycles: u64) -> (u64, O3Stats, Vec<u64>) {
        try_run_o3(p, max_cycles).expect("program halts cleanly")
    }

    fn sum_loop() -> gemfi_asm::Program {
        let mut a = Assembler::new();
        a.li(Reg::R1, 0);
        a.li(Reg::R2, 1);
        a.li(Reg::R3, 200);
        a.label("loop");
        a.addq(Reg::R1, Reg::R2, Reg::R1);
        a.addq_lit(Reg::R2, 1, Reg::R2);
        a.cmple(Reg::R2, Reg::R3, Reg::R4);
        a.bne(Reg::R4, "loop");
        a.mov(Reg::R1, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        a.finish().unwrap()
    }

    #[test]
    fn hung_drain_reports_watchdog_timeout_not_panic() {
        let mut a = Assembler::new();
        a.label("spin");
        a.br("spin");
        let p = a.finish().unwrap();
        let err = try_run_o3(&p, 2_000).unwrap_err();
        assert_eq!(err, ExecError::Trap(Trap::WatchdogTimeout));
    }

    #[test]
    fn o3_computes_the_same_answer_as_atomic() {
        let p = sum_loop();
        let (code, stats, _) = run_o3(&p, 1_000_000);
        assert_eq!(code, 20100);
        assert!(stats.committed > 600);
    }

    #[test]
    fn o3_squashes_wrong_path_work() {
        // A data-dependent unpredictable branch pattern forces mispredicts.
        let mut a = Assembler::new();
        a.li(Reg::R1, 0); // i
        a.li(Reg::R2, 0); // acc
        a.li(Reg::R5, 0x9E3779B9); // LCG-ish multiplier
        a.li(Reg::R6, 12345);
        a.li(Reg::R7, 1); // rng state
        a.label("loop");
        a.mulq(Reg::R7, Reg::R5, Reg::R7);
        a.addq(Reg::R7, Reg::R6, Reg::R7);
        a.srl_lit(Reg::R7, 13, Reg::R8);
        a.and_lit(Reg::R8, 1, Reg::R8);
        a.beq(Reg::R8, "skip");
        a.addq_lit(Reg::R2, 1, Reg::R2);
        a.label("skip");
        a.addq_lit(Reg::R1, 1, Reg::R1);
        a.cmplt(Reg::R1, Reg::R3, Reg::R4);
        a.li(Reg::R3, 500);
        a.cmplt(Reg::R1, Reg::R3, Reg::R4);
        a.bne(Reg::R4, "loop");
        a.mov(Reg::R2, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        let p = a.finish().unwrap();
        let (_, stats, _) = run_o3(&p, 1_000_000);
        assert!(stats.squashed > 0, "unpredictable branches must squash work");
        assert!(stats.squash_events > 10);
    }

    #[test]
    fn o3_store_load_forwarding_is_correct() {
        let mut a = Assembler::new();
        a.dsym("buf");
        a.data_u64(&[0, 0]);
        a.la(Reg::R1, "buf");
        a.li(Reg::R2, 77);
        a.stq(Reg::R2, 0, Reg::R1); // store
        a.ldq(Reg::R3, 0, Reg::R1); // immediately load it back
        a.addq_lit(Reg::R3, 1, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        let p = a.finish().unwrap();
        let (code, _, _) = run_o3(&p, 100_000);
        assert_eq!(code, 78);
    }

    #[test]
    fn o3_fp_pipeline_works() {
        let mut a = Assembler::new();
        a.lif(FReg::F1, 0.5, Reg::R9);
        a.lif(FReg::F2, 8.0, Reg::R9);
        a.mult(FReg::F1, FReg::F2, FReg::F3); // 4.0
        a.sqrtt(FReg::F3, FReg::F4); // 2.0
        a.cvttq(FReg::F4, FReg::F5);
        a.ftoit(FReg::F5, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        let p = a.finish().unwrap();
        let (code, _, _) = run_o3(&p, 100_000);
        assert_eq!(code, 2);
    }

    #[test]
    fn o3_precise_trap_on_true_path_only() {
        // A branch guards a wild load; the wrong path may *speculatively*
        // touch the wild address but must not crash the machine.
        let mut a = Assembler::new();
        a.li(Reg::R1, 1); // condition: taken → skip the wild load
        a.li(Reg::R2, 0x7fff_fff8); // unmapped in an 8 MiB machine
        a.bne(Reg::R1, "safe");
        a.ldq(Reg::R3, 0, Reg::R2); // wrong path
        a.label("safe");
        a.li(Reg::A0, 9);
        a.pal(gemfi_isa::PalFunc::Exit);
        let p = a.finish().unwrap();
        let (code, _, _) = run_o3(&p, 100_000);
        assert_eq!(code, 9);
    }

    #[test]
    fn o3_true_path_trap_is_raised() {
        let mut a = Assembler::new();
        a.li(Reg::R2, 0x7fff_fff8);
        a.ldq(Reg::R3, 0, Reg::R2);
        a.exit(0);
        let p = a.finish().unwrap();
        let (mut arch, mut mem, mut kernel) = boot(&p);
        let mut cpu = O3Cpu::new(arch.pc);
        let mut now = 0;
        let mut trapped = false;
        for _ in 0..10_000 {
            match cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now) {
                Ok(r) => now += r.ticks,
                Err(t) => {
                    assert!(matches!(t, ExecError::Trap(Trap::UnmappedAccess { .. })));
                    trapped = true;
                    break;
                }
            }
        }
        assert!(trapped);
    }

    #[test]
    fn o3_ipc_exceeds_inorder_on_ilp_code() {
        // Independent operations expose instruction-level parallelism.
        let mut a = Assembler::new();
        a.li(Reg::R1, 1);
        a.li(Reg::R2, 2);
        a.li(Reg::R3, 3);
        a.li(Reg::R4, 4);
        a.li(Reg::R9, 0);
        a.li(Reg::R10, 2000);
        a.label("loop");
        for _ in 0..4 {
            a.addq(Reg::R1, Reg::R2, Reg::R5);
            a.addq(Reg::R3, Reg::R4, Reg::R6);
            a.addq(Reg::R1, Reg::R3, Reg::R7);
            a.addq(Reg::R2, Reg::R4, Reg::R8);
        }
        a.addq_lit(Reg::R9, 1, Reg::R9);
        a.cmplt(Reg::R9, Reg::R10, Reg::R11);
        a.bne(Reg::R11, "loop");
        a.exit(0);
        let p = a.finish().unwrap();

        // O3 cycles:
        let (mut arch, mut mem, mut kernel) = boot(&p);
        let mut cpu = O3Cpu::new(arch.pc);
        let mut o3_cycles = 0u64;
        loop {
            let r =
                cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, o3_cycles).unwrap();
            cpu.check_schedule();
            o3_cycles += 1;
            if matches!(r.event, StepEvent::Halted(_)) {
                break;
            }
        }
        let o3_committed = cpu.stats().committed;

        // In-order ticks:
        let (mut arch, mut mem, mut kernel) = boot(&p);
        let mut io = crate::inorder::InOrderCpu::new();
        let mut io_ticks = 0u64;
        loop {
            let r = io.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, io_ticks).unwrap();
            io_ticks += r.ticks;
            if matches!(r.event, StepEvent::Halted(_)) {
                break;
            }
        }
        let o3_ipc = o3_committed as f64 / o3_cycles as f64;
        let io_ipc = o3_committed as f64 / io_ticks as f64;
        assert!(
            o3_ipc > io_ipc,
            "O3 IPC {o3_ipc:.2} should beat in-order IPC {io_ipc:.2} on ILP code"
        );
        assert!(o3_ipc > 1.0, "O3 must exceed 1 IPC on independent ops, got {o3_ipc:.2}");
    }
}
