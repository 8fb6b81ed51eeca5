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

use crate::exec::{alu, cmov_cond, exec_latency, fp_cmov_cond, fpu, src_regs};
use crate::hooks::FaultHooks;
use crate::predictor::TournamentPredictor;
use crate::{StepEvent, StepResult};
use gemfi_isa::{ArchState, ExecError, Instr, JumpKind, Operand, RegRef, SimError, Trap};
use gemfi_kernel::{Kernel, PalOutcome};
use gemfi_mem::{MemorySystem, Ticks};
use std::collections::VecDeque;

/// Instructions fetched/dispatched per cycle.
const FETCH_WIDTH: usize = 4;
/// Instructions issued to execution per cycle.
const ISSUE_WIDTH: usize = 4;
/// Instructions committed per cycle.
const COMMIT_WIDTH: usize = 4;
/// Reorder-buffer capacity.
const ROB_SIZE: usize = 64;
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

#[derive(Debug, Clone, Copy)]
struct SrcOperand {
    /// Kept for debugging dumps of in-flight state.
    #[allow(dead_code)]
    reg: RegRef,
    /// Sequence number of the in-flight producer, if any.
    producer: Option<u64>,
    value: u64,
    ready: bool,
}

#[derive(Debug, Clone, Copy)]
struct MemAccess {
    is_store: bool,
    width: u64,
    /// Effective address, known after execute.
    addr: Option<u64>,
    /// Value to store (post-hook), captured at execute.
    store_val: u64,
}

#[derive(Debug, Clone)]
struct RobEntry {
    seq: u64,
    pc: u64,
    /// The PC fetch redirected to after this instruction.
    predicted_next: u64,
    /// Resolved next PC (valid once `Done`).
    actual_next: u64,
    instr: Option<Instr>,
    trap: Option<Trap>,
    state: EntryState,
    srcs: [Option<SrcOperand>; 3],
    dst: Option<RegRef>,
    result: u64,
    done_at: Ticks,
    /// Serializing instruction (PAL call / GemFI pseudo-op): executes its
    /// effect at the commit head and flushes younger instructions.
    serialize: bool,
    mem: Option<MemAccess>,
    predicted_taken: bool,
}

/// The out-of-order CPU.
#[derive(Debug, Clone)]
pub struct O3Cpu {
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    fetch_pc: u64,
    fetch_ready_at: Ticks,
    /// Fetch parked until a redirect (post-serialize or fetch fault).
    fetch_parked: bool,
    predictor: TournamentPredictor,
    /// Rename table: most recent in-flight producer of each register.
    rename_int: [Option<u64>; 32],
    rename_fp: [Option<u64>; 32],
    stats: O3Stats,
}

impl O3Cpu {
    /// A fresh core that will start fetching at `entry_pc`.
    pub fn new(entry_pc: u64) -> O3Cpu {
        O3Cpu {
            rob: VecDeque::with_capacity(ROB_SIZE),
            next_seq: 0,
            fetch_pc: entry_pc,
            fetch_ready_at: 0,
            fetch_parked: false,
            predictor: TournamentPredictor::new(),
            rename_int: [None; 32],
            rename_fp: [None; 32],
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
        self.rob.len()
    }

    /// Discards all speculative state and restarts fetch at the committed
    /// PC. Used by the machine before delivering a timer interrupt and when
    /// switching CPU models.
    pub fn flush(&mut self, arch: &ArchState) {
        self.stats.squashed += self.rob.len() as u64;
        if !self.rob.is_empty() {
            self.stats.squash_events += 1;
        }
        self.rob.clear();
        self.rename_int = [None; 32];
        self.rename_fp = [None; 32];
        self.fetch_pc = arch.pc;
        self.fetch_parked = false;
    }

    fn rename_lookup(&self, reg: RegRef) -> Option<u64> {
        match reg {
            RegRef::Int(r) => self.rename_int[r.index()],
            RegRef::Fp(r) => self.rename_fp[r.index()],
            RegRef::Special(_) => None,
        }
    }

    fn rename_set(&mut self, reg: RegRef, seq: u64) {
        match reg {
            RegRef::Int(r) if !r.is_zero() => self.rename_int[r.index()] = Some(seq),
            RegRef::Fp(r) if !r.is_zero() => self.rename_fp[r.index()] = Some(seq),
            _ => {}
        }
    }

    /// Index of the entry with sequence number `seq`. A linear scan: the ROB
    /// is small and sequence numbers are *not* contiguous after a squash
    /// (`next_seq` is never rolled back).
    fn entry_index(&self, seq: u64) -> Option<usize> {
        self.rob.iter().position(|e| e.seq == seq)
    }

    /// Kills every entry younger than `seq` and rebuilds the rename table.
    fn squash_after(&mut self, seq: u64, redirect: u64, now: Ticks) {
        let keep = match self.entry_index(seq) {
            Some(i) => i + 1,
            None => 0,
        };
        let killed = self.rob.len().saturating_sub(keep);
        self.rob.truncate(keep);
        self.stats.squashed += killed as u64;
        self.stats.squash_events += 1;
        self.rename_int = [None; 32];
        self.rename_fp = [None; 32];
        for i in 0..self.rob.len() {
            if let Some(d) = self.rob[i].dst {
                let s = self.rob[i].seq;
                self.rename_set(d, s);
            }
        }
        self.fetch_pc = redirect;
        self.fetch_parked = false;
        self.fetch_ready_at = now + MISPREDICT_PENALTY;
    }

    /// Broadcasts a completed result to waiting consumers.
    fn wakeup(&mut self, seq: u64, value: u64) {
        for e in &mut self.rob {
            for s in e.srcs.iter_mut().flatten() {
                if s.producer == Some(seq) {
                    s.value = value;
                    s.ready = true;
                }
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
        if self.rob.len() >= ROB_SIZE || self.fetch_parked {
            return Ok(false);
        }
        let pc = self.fetch_pc;
        let seq = self.next_seq;

        let (instr, fetch_lat) = match crate::exec::fetch_decode(core, mem, hooks, pc) {
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
                self.rob.push_back(RobEntry {
                    seq,
                    pc,
                    predicted_next: next,
                    actual_next: next,
                    instr: None,
                    trap: Some(t),
                    state: EntryState::Done,
                    srcs: [None, None, None],
                    dst: None,
                    result: 0,
                    done_at: now,
                    serialize: false,
                    mem: None,
                    predicted_taken: false,
                });
                self.next_seq += 1;
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
            self.rob.push_back(RobEntry {
                seq,
                pc,
                predicted_next: pc.wrapping_add(4),
                actual_next: pc.wrapping_add(4),
                instr: Some(instr),
                trap: None,
                state: EntryState::Done,
                srcs: [None, None, None],
                dst: None,
                result: 0,
                done_at: now,
                serialize: false,
                mem: None,
                predicted_taken: false,
            });
            self.next_seq += 1;
            self.fetch_pc = pc.wrapping_add(4);
            return Ok(true);
        }

        let mut entry = RobEntry {
            seq,
            pc,
            predicted_next: pc.wrapping_add(4),
            actual_next: pc.wrapping_add(4),
            instr: Some(instr),
            trap: None,
            state: EntryState::Dispatched,
            srcs: [None, None, None],
            dst: None,
            result: 0,
            done_at: now,
            serialize: false,
            mem: None,
            predicted_taken: false,
        };

        // Serializing instructions execute at the commit head.
        if matches!(instr, Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit) {
            entry.serialize = true;
            entry.state = EntryState::Done;
            self.rob.push_back(entry);
            self.next_seq += 1;
            self.fetch_parked = true; // resume at the post-commit PC
            return Ok(false);
        }

        // Capture operands through the rename table. A producer that has
        // already completed (but not committed) supplies its result
        // directly — it will never broadcast again. Operands with no
        // in-flight producer read the *architectural* register file here at
        // dispatch: that is the moment a register-file fault is consumed,
        // so the read hook fires now (forwarded operands never touch the
        // register file and must not count as consumption).
        let srcs = src_regs(&instr);
        for (slot, reg) in entry.srcs.iter_mut().zip(srcs) {
            if let Some(reg) = reg {
                let producer = self.rename_lookup(reg);
                let (value, ready) = match (producer, reg) {
                    (Some(seq), _) => {
                        let idx = self.entry_index(seq).ok_or_else(|| {
                            SimError::new("o3", "renamed producer present in ROB", pc)
                        })?;
                        if self.rob[idx].state == EntryState::Done {
                            (self.rob[idx].result, true)
                        } else {
                            (0, false)
                        }
                    }
                    (None, RegRef::Int(r)) => {
                        hooks.on_reg_read(core, reg);
                        (arch.regs.read_int(r), true)
                    }
                    (None, RegRef::Fp(r)) => {
                        hooks.on_reg_read(core, reg);
                        (arch.regs.read_fp_bits(r), true)
                    }
                    (None, RegRef::Special(s)) => {
                        hooks.on_reg_read(core, reg);
                        (arch.read_special(s), true)
                    }
                };
                *slot = Some(SrcOperand { reg, producer, value, ready });
            }
        }
        entry.dst = crate::exec::dst_reg(&instr);

        if let Instr::Mem { op, .. } = instr {
            entry.mem = Some(MemAccess {
                is_store: op.is_store(),
                width: op.width(),
                addr: None,
                store_val: 0,
            });
        } else if matches!(instr, Instr::Ldt { .. }) {
            entry.mem = Some(MemAccess { is_store: false, width: 8, addr: None, store_val: 0 });
        } else if matches!(instr, Instr::Stt { .. }) {
            entry.mem = Some(MemAccess { is_store: true, width: 8, addr: None, store_val: 0 });
        }

        // Front-end next-PC selection.
        let next = match instr {
            Instr::Br { disp, .. } => pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2),
            Instr::Bsr { disp, .. } => {
                self.predictor.push_return(pc.wrapping_add(4));
                pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2)
            }
            Instr::CondBr { disp, .. } | Instr::FpCondBr { disp, .. } => {
                let taken = self.predictor.predict_direction(pc);
                entry.predicted_taken = taken;
                if taken {
                    pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2)
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
        entry.predicted_next = next;

        if let Some(d) = entry.dst {
            self.rename_set(d, seq);
        }
        self.rob.push_back(entry);
        self.next_seq += 1;
        self.fetch_pc = next;
        Ok(true)
    }

    // ------------------------------------------------------------- execute

    /// Whether a load at `idx` may proceed given older stores, and the
    /// forwarded value, if any. `Err(())` means it must wait.
    fn load_check(&self, idx: usize, addr: u64, width: u64) -> Result<Option<u64>, ()> {
        for j in (0..idx).rev() {
            let e = &self.rob[j];
            let Some(m) = e.mem else { continue };
            if !m.is_store {
                continue;
            }
            match m.addr {
                // Older store address unknown: conservative wait.
                None => return Err(()),
                Some(sa) => {
                    // Widen to u128: a fault-corrupted base register can put
                    // `addr` (or `sa`) near u64::MAX, where `addr + width`
                    // would overflow and abort a debug build.
                    let overlap = (sa as u128) < addr as u128 + width as u128
                        && (addr as u128) < sa as u128 + m.width as u128;
                    if !overlap {
                        continue;
                    }
                    if sa == addr && m.width == width && e.state == EntryState::Done {
                        return Ok(Some(m.store_val));
                    }
                    // Partial overlap or store not finished: wait until the
                    // store commits (it will leave the ROB).
                    return Err(());
                }
            }
        }
        Ok(None)
    }

    /// Executes the dispatched entry at `idx`. `Ok(false)` means it could
    /// not issue this cycle (e.g. a load waiting on an older store).
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
        let e = self.rob[idx].clone();
        let Some(instr) = e.instr else {
            return Err(SimError::new("o3", "dispatched entries are decoded", e.pc));
        };
        let src = |n: usize| e.srcs[n].map(|s| s.value).unwrap_or(0);

        let mut result = 0u64;
        let mut actual_next = e.pc.wrapping_add(4);
        let mut lat = exec_latency(&instr);
        let mut trap = None;
        let mut mem_state = e.mem;

        match instr {
            Instr::Lda { disp, .. } => {
                result =
                    hooks.on_execute_result(core, &instr, src(0).wrapping_add(disp as i64 as u64));
            }
            Instr::Ldah { disp, .. } => {
                result = hooks.on_execute_result(
                    core,
                    &instr,
                    src(0).wrapping_add((disp as i64 as u64) << 16),
                );
            }
            Instr::IntOp { func, rb, .. } => {
                let a = src(0);
                let b = match rb {
                    Operand::Reg(_) => src(1),
                    Operand::Lit(v) => v as u64,
                };
                result = match cmov_cond(func, a) {
                    Some(cond) => {
                        let moved = hooks.on_execute_result(core, &instr, b);
                        if cond {
                            moved
                        } else {
                            src(2) // keep old destination value
                        }
                    }
                    None => hooks.on_execute_result(core, &instr, alu(func, a, b)),
                };
            }
            Instr::FpOp { func, .. } => {
                let a = src(0);
                let b = src(1);
                result = match fp_cmov_cond(func, a) {
                    Some(cond) => {
                        let moved = hooks.on_execute_result(core, &instr, b);
                        if cond {
                            moved
                        } else {
                            src(2)
                        }
                    }
                    None => hooks.on_execute_result(core, &instr, fpu(func, a, b)),
                };
            }
            Instr::Itoft { .. } | Instr::Ftoit { .. } => {
                result = hooks.on_execute_result(core, &instr, src(0));
            }
            Instr::Br { .. } | Instr::Bsr { .. } => {
                // Target already selected at fetch (always correct); the
                // result is the link value.
                actual_next = e.predicted_next;
                result = e.pc.wrapping_add(4);
            }
            Instr::Jump { .. } => {
                let target = hooks.on_execute_result(core, &instr, src(0) & !3);
                actual_next = target;
                result = e.pc.wrapping_add(4);
            }
            Instr::CondBr { cond, disp, .. } => {
                // Branch inversion hooks in at resolution; the predictor
                // trains on the post-inversion (architecturally committed)
                // direction.
                let taken = hooks.on_branch(core, &instr, cond.eval(src(0)));
                let target = if taken {
                    e.pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2)
                } else {
                    e.pc.wrapping_add(4)
                };
                actual_next = hooks.on_execute_result(core, &instr, target);
                self.predictor.update_direction(e.pc, taken, e.predicted_taken);
            }
            Instr::FpCondBr { cond, disp, .. } => {
                let taken = hooks.on_branch(core, &instr, cond.eval(src(0)));
                let target = if taken {
                    e.pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2)
                } else {
                    e.pc.wrapping_add(4)
                };
                actual_next = hooks.on_execute_result(core, &instr, target);
                self.predictor.update_direction(e.pc, taken, e.predicted_taken);
            }
            Instr::Mem { op, disp, .. } => {
                let Some(m) = mem_state.as_mut() else {
                    return Err(SimError::new("o3", "memory entries carry mem state", e.pc));
                };
                // Address generation and its hook run once: a load retried
                // behind an older store reuses the hooked address.
                let addr = *m.addr.get_or_insert_with(|| {
                    hooks.on_execute_result(core, &instr, src(0).wrapping_add(disp as i64 as u64))
                });
                if op.is_store() {
                    m.store_val = hooks.on_mem_store(core, addr, src(1));
                    // Address generation only; data drains at commit.
                } else {
                    match self.load_check(idx, addr, m.width) {
                        Err(()) => {
                            // Retry next cycle. Only older stores' addresses
                            // gate `load_check`, so keeping a load's is safe.
                            self.rob[idx].mem = mem_state;
                            return Ok(false);
                        }
                        Ok(Some(fwd)) => {
                            let v =
                                if m.width == 4 { (fwd as u32) as i32 as i64 as u64 } else { fwd };
                            result = hooks.on_mem_load(core, addr, v);
                            lat = 1; // store-buffer forward
                        }
                        Ok(None) => {
                            let r = if m.width == 4 {
                                mem.read_u32(addr, e.pc).map(|(v, l)| (v as i32 as i64 as u64, l))
                            } else {
                                mem.read_u64(addr, e.pc)
                            };
                            match r {
                                Ok((v, l)) => {
                                    result = hooks.on_mem_load(core, addr, v);
                                    lat = l;
                                }
                                Err(t) => trap = Some(t), // precise at commit
                            }
                        }
                    }
                }
            }
            Instr::Ldt { disp, .. } => {
                let Some(m) = mem_state.as_mut() else {
                    return Err(SimError::new("o3", "memory entries carry mem state", e.pc));
                };
                let addr = *m.addr.get_or_insert_with(|| {
                    hooks.on_execute_result(core, &instr, src(0).wrapping_add(disp as i64 as u64))
                });
                match self.load_check(idx, addr, 8) {
                    Err(()) => {
                        self.rob[idx].mem = mem_state;
                        return Ok(false);
                    }
                    Ok(Some(fwd)) => {
                        result = hooks.on_mem_load(core, addr, fwd);
                        lat = 1;
                    }
                    Ok(None) => match mem.read_u64(addr, e.pc) {
                        Ok((v, l)) => {
                            result = hooks.on_mem_load(core, addr, v);
                            lat = l;
                        }
                        Err(t) => trap = Some(t),
                    },
                }
            }
            Instr::Stt { disp, .. } => {
                let addr =
                    hooks.on_execute_result(core, &instr, src(0).wrapping_add(disp as i64 as u64));
                let Some(m) = mem_state.as_mut() else {
                    return Err(SimError::new("o3", "memory entries carry mem state", e.pc));
                };
                m.addr = Some(addr);
                m.store_val = hooks.on_mem_store(core, addr, src(1));
            }
            Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit => {
                return Err(SimError::new("o3", "serializers never reach execute", e.pc));
            }
        }

        let entry = &mut self.rob[idx];
        entry.state = EntryState::Issued;
        entry.done_at = now + lat;
        entry.result = result;
        entry.actual_next = actual_next;
        entry.trap = trap;
        entry.mem = mem_state;
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
        let Some(head) = self.rob.front() else { return Ok(false) };
        if head.state != EntryState::Done {
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
        // shrink the ROB; an empty queue here is just "nothing to commit".
        let Some(e) = self.rob.pop_front() else { return Ok(false) };
        if e.pc != arch.pc {
            // A committing entry off the architectural path is a renaming /
            // squash bookkeeping bug, not a guest outcome: report it as an
            // infrastructure error instead of corrupting the run silently.
            return Err(
                SimError::new("o3", "commit head on the architectural path", arch.pc).into()
            );
        }

        if let Some(t) = e.trap {
            arch.exc_addr = e.pc;
            return Err(t.into());
        }

        if e.serialize {
            let Some(instr) = e.instr else {
                return Err(SimError::new("o3", "serializing entries are decoded", e.pc).into());
            };
            match instr {
                Instr::CallPal { func } => {
                    let old_pcbb = arch.pcbb;
                    arch.pc = e.pc.wrapping_add(4);
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
                    arch.pc = e.pc.wrapping_add(4);
                    hooks.on_fi_activate(core, now, id, arch.pcbb);
                }
                Instr::FiReadInit => {
                    arch.pc = e.pc.wrapping_add(4);
                    *event = StepEvent::CheckpointRequest;
                }
                _ => {
                    return Err(
                        SimError::new("o3", "only serializers are marked serialize", e.pc).into()
                    );
                }
            }
            hooks.on_commit(core, now, e.pc, &instr);
            self.stats.committed += 1;
            // The serializer may have changed anything: restart the
            // front-end from the architectural PC.
            self.flush(arch);
            return Ok(true);
        }

        let Some(instr) = e.instr else {
            return Err(SimError::new("o3", "committing entries are decoded", e.pc).into());
        };

        // Stores drain to memory at commit (store buffer semantics).
        if let Some(m) = e.mem {
            if m.is_store {
                let Some(addr) = m.addr else {
                    return Err(SimError::new(
                        "o3",
                        "stores resolve their address before commit",
                        e.pc,
                    )
                    .into());
                };
                let r = if m.width == 4 {
                    mem.write_u32(addr, m.store_val as u32, e.pc).map(|_| ())
                } else {
                    mem.write_u64(addr, m.store_val, e.pc).map(|_| ())
                };
                if let Err(t) = r {
                    arch.exc_addr = e.pc;
                    return Err(t.into());
                }
            }
        }

        if let Some(d) = e.dst {
            match d {
                RegRef::Int(r) => arch.regs.write_int(r, e.result),
                RegRef::Fp(r) => arch.regs.write_fp_bits(r, e.result),
                RegRef::Special(s) => arch.write_special(s, e.result),
            }
            hooks.on_reg_write(core, d);
            // Retire from the rename table if this entry is still the
            // youngest producer.
            if self.rename_lookup(d) == Some(e.seq) {
                match d {
                    RegRef::Int(r) => self.rename_int[r.index()] = None,
                    RegRef::Fp(r) => self.rename_fp[r.index()] = None,
                    RegRef::Special(_) => {}
                }
            }
        }

        arch.pc = e.actual_next;
        hooks.on_commit(core, now, e.pc, &instr);
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
        let mut i = 0;
        while i < self.rob.len() {
            if self.rob[i].state == EntryState::Issued && self.rob[i].done_at <= now {
                self.rob[i].state = EntryState::Done;
                let seq = self.rob[i].seq;
                let result = self.rob[i].result;
                if self.rob[i].dst.is_some() {
                    self.wakeup(seq, result);
                }
                // Control misprediction?
                let mispredicted = self.rob[i].actual_next != self.rob[i].predicted_next
                    && self.rob[i].instr.map(|ins| ins.is_control()).unwrap_or(false);
                if mispredicted {
                    let redirect = self.rob[i].actual_next;
                    let pc = self.rob[i].pc;
                    self.predictor.update_target(pc, redirect);
                    self.squash_after(seq, redirect, now);
                    // Everything younger is gone; stop scanning.
                    break;
                }
            }
            i += 1;
        }

        // 3. Issue.
        let mut issued = 0;
        let mut idx = 0;
        while idx < self.rob.len() && issued < ISSUE_WIDTH {
            if self.rob[idx].state == EntryState::Dispatched
                && self.rob[idx].srcs.iter().flatten().all(|s| s.ready)
                && self.execute_entry(idx, core, mem, hooks, now)?
            {
                issued += 1;
            }
            idx += 1;
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
    /// (Crashed), never a panic.
    fn try_run_o3(
        p: &gemfi_asm::Program,
        max_cycles: u64,
    ) -> Result<(u64, O3Stats, Vec<u64>), ExecError> {
        let (mut arch, mut mem, mut kernel) = boot(p);
        let mut cpu = O3Cpu::new(arch.pc);
        let mut now = 0;
        for _ in 0..max_cycles {
            let r = cpu.step(0, &mut arch, &mut mem, &mut kernel, &mut NoopHooks, now)?;
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
