//! Thread tracking: `ThreadEnabledFault` objects keyed by PCB address.
//!
//! Sec. III-C: "Threads that have enabled fault injection are internally
//! represented as instances of a class (`ThreadEnabledFault`), containing
//! all per-thread information necessary for fault injection, such as the
//! number of instructions the thread has executed on each core. Each
//! simulated core has a pointer to a ThreadEnabledFault object. […] Threads
//! are identified at the hardware/simulator level by their unique Process
//! Control Block (PCB) address. […] Monitoring context switches allows
//! GemFI to eliminate the overhead of checking the fault injection status
//! of the executing thread in the hash table on each simulated clock tick."
//!
//! The table sees every activation and context switch, and the engine
//! hands it each instruction's PCB base, so it alone answers "which record
//! is running on this core" ([`ThreadTable::running`]). It answers through
//! the per-core pointer cache (a per-core index into the thread arena), or,
//! for the ablation with [`crate::EngineConfig::pcb_pointer_cache`] off,
//! through a hash lookup of the core's current PCB base on every call.

use crate::spec::Stage;
use std::collections::HashMap;

/// Per-thread fault-injection state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadEnabledFault {
    /// The identifier passed to `fi_activate_inst(id)` — the `Threadid:` a
    /// fault spec matches against.
    pub id: u32,
    /// PCB base address of the thread (its hardware-level identity).
    pub pcbb: u64,
    /// Tick at which injection was activated (origin for `Tick:` timing).
    pub activated_at: u64,
    /// Instructions served at each pipeline stage since activation.
    pub stage_counts: [u64; 5],
}

impl ThreadEnabledFault {
    /// Fresh state for a thread activating injection now.
    pub fn new(id: u32, pcbb: u64, now: u64) -> ThreadEnabledFault {
        ThreadEnabledFault { id, pcbb, activated_at: now, stage_counts: [0; 5] }
    }

    /// The stage-served counter for `stage`.
    pub fn count(&self, stage: Stage) -> u64 {
        self.stage_counts[stage.index()]
    }

    /// Increments and returns the new count for `stage`.
    pub fn bump(&mut self, stage: Stage) -> u64 {
        self.stage_counts[stage.index()] += 1;
        self.stage_counts[stage.index()]
    }

    /// Ticks elapsed since this thread activated injection.
    pub fn ticks_since_activation(&self, now: u64) -> u64 {
        now.saturating_sub(self.activated_at)
    }
}

/// What the ended activations under one `fi_activate_inst(id)` identity
/// reached: the largest per-stage counts and the longest duration among
/// them. A spec's window is reached within an activation once its stage
/// count or its ticks since activation reach the start; both only grow
/// while the activation lasts, and each timing kind reads one axis, so
/// these maxima answer "did any ended activation reach the window".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EndedActivations {
    /// The `fi_activate_inst(id)` identity.
    id: u32,
    /// Per-stage maximum of the ended activations' stage counts.
    pub(crate) stage_counts: [u64; 5],
    /// The longest ended activation, in ticks.
    pub(crate) ticks: u64,
}

/// The thread table: an arena of [`ThreadEnabledFault`] records, a PCB-keyed
/// hash index, each core's current PCB base, the per-core pointer cache,
/// and what the ended activations reached.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadTable {
    arena: Vec<ThreadEnabledFault>,
    /// One entry per id that ended an activation (a handful at most).
    ended: Vec<EndedActivations>,
    by_pcbb: HashMap<u64, usize>,
    /// Per-core cached index of the running thread's record (`None` when the
    /// running thread has not activated injection).
    core_active: Vec<Option<usize>>,
    /// Per-core PCB base of the running thread (the hash path's key).
    core_pcbb: Vec<u64>,
    /// Resolve through `core_active` (the Sec. III-C optimization) rather
    /// than hashing `core_pcbb`.
    pcb_pointer_cache: bool,
}

impl ThreadTable {
    /// A table for `cores` hardware contexts, resolving the running thread
    /// through the per-core pointer cache or, when `pcb_pointer_cache` is
    /// off, through the hash table.
    pub fn new(cores: usize, pcb_pointer_cache: bool) -> ThreadTable {
        ThreadTable {
            arena: Vec::new(),
            ended: Vec::new(),
            by_pcbb: HashMap::new(),
            core_active: vec![None; cores],
            core_pcbb: vec![0; cores],
            pcb_pointer_cache,
        }
    }

    /// Number of threads currently enabled for injection.
    pub fn active_threads(&self) -> usize {
        self.by_pcbb.len()
    }

    /// Handles `fi_activate_inst(id)` by the thread at `pcbb`, which is now
    /// running on `core`: successive occurrences toggle injection for the
    /// thread (Sec. III-A). Returns `true` if the thread is now active.
    pub fn toggle(&mut self, core: usize, id: u32, pcbb: u64, now: u64) -> bool {
        self.core_pcbb[core] = pcbb;
        if let Some(&idx) = self.by_pcbb.get(&pcbb) {
            // Deactivation: fold the record into its id's ended maxima,
            // drop it, compact the arena.
            self.by_pcbb.remove(&pcbb);
            let rec = self.arena.swap_remove(idx);
            self.end_activation(&rec, now);
            if idx < self.arena.len() {
                // The swapped-in record moved; re-index it.
                let moved_pcbb = self.arena[idx].pcbb;
                self.by_pcbb.insert(moved_pcbb, idx);
                for slot in &mut self.core_active {
                    if *slot == Some(self.arena.len()) {
                        *slot = Some(idx);
                    }
                }
            }
            self.core_active[core] = None;
            false
        } else {
            let idx = self.arena.len();
            self.arena.push(ThreadEnabledFault::new(id, pcbb, now));
            self.by_pcbb.insert(pcbb, idx);
            self.core_active[core] = Some(idx);
            true
        }
    }

    fn end_activation(&mut self, rec: &ThreadEnabledFault, now: u64) {
        let ticks = rec.ticks_since_activation(now);
        match self.ended.iter_mut().find(|e| e.id == rec.id) {
            Some(e) => {
                for (max, n) in e.stage_counts.iter_mut().zip(rec.stage_counts) {
                    *max = (*max).max(n);
                }
                e.ticks = e.ticks.max(ticks);
            }
            None => self.ended.push(EndedActivations {
                id: rec.id,
                stage_counts: rec.stage_counts,
                ticks,
            }),
        }
    }

    /// What the ended activations under `id` reached, if any has ended.
    pub(crate) fn ended(&self, id: u32) -> Option<&EndedActivations> {
        self.ended.iter().find(|e| e.id == id)
    }

    /// Context-switch notification: re-resolves the per-core cached pointer
    /// (the Sec. III-C optimization point).
    pub fn on_context_switch(&mut self, core: usize, new_pcbb: u64) {
        self.core_pcbb[core] = new_pcbb;
        self.core_active[core] = self.by_pcbb.get(&new_pcbb).copied();
    }

    /// Records the PCB base `core` is about to execute under. Only the hash
    /// path reads it: the pointer cache follows context switches instead.
    pub fn set_pcbb(&mut self, core: usize, pcbb: u64) {
        if let Some(slot) = self.core_pcbb.get_mut(core) {
            *slot = pcbb;
        }
    }

    #[inline]
    fn running_index(&self, core: usize) -> Option<usize> {
        if self.pcb_pointer_cache {
            self.core_active.get(core).copied().flatten()
        } else {
            self.hashed_index(core)
        }
    }

    /// The hash path, kept out of line: inlined into every per-event hook
    /// with the cached path, the lookup made the default (cached) engine
    /// measurably slower per event.
    #[inline(never)]
    fn hashed_index(&self, core: usize) -> Option<usize> {
        self.by_pcbb.get(self.core_pcbb.get(core)?).copied()
    }

    /// The record of the thread running on `core`, if it has activated
    /// injection.
    pub fn running(&self, core: usize) -> Option<&ThreadEnabledFault> {
        Some(&self.arena[self.running_index(core)?])
    }

    /// Mutable twin of [`ThreadTable::running`].
    pub fn running_mut(&mut self, core: usize) -> Option<&mut ThreadEnabledFault> {
        let idx = self.running_index(core)?;
        Some(&mut self.arena[idx])
    }

    /// Every activated record whose `fi_activate_inst(id)` identity is `id`
    /// — more than one when several threads activated under the same id.
    /// Linear over the (tiny) arena: a planning query, not a per-event path.
    pub fn with_id(&self, id: u32) -> impl Iterator<Item = &ThreadEnabledFault> {
        self.arena.iter().filter(move |rec| rec.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_activates_and_deactivates() {
        let mut t = ThreadTable::new(1, true);
        assert!(t.toggle(0, 7, 0x4000, 100));
        assert_eq!(t.running(0).unwrap().id, 7);
        assert_eq!(t.active_threads(), 1);
        // Second occurrence toggles off.
        assert!(!t.toggle(0, 7, 0x4000, 200));
        assert!(t.running(0).is_none());
        assert_eq!(t.active_threads(), 0);
    }

    #[test]
    fn ended_activations_keep_their_maxima() {
        let mut t = ThreadTable::new(1, true);
        assert!(t.ended(7).is_none());
        t.toggle(0, 7, 0x4000, 100);
        t.running_mut(0).unwrap().stage_counts = [5, 0, 9, 0, 3];
        t.toggle(0, 7, 0x4000, 150);
        t.toggle(0, 7, 0x4000, 200);
        t.running_mut(0).unwrap().stage_counts = [2, 4, 1, 0, 8];
        t.toggle(0, 7, 0x4000, 220);
        let ended = t.ended(7).unwrap();
        assert_eq!(ended.stage_counts, [5, 4, 9, 0, 8]);
        assert_eq!(ended.ticks, 50);
        assert!(t.ended(8).is_none());
    }

    #[test]
    fn context_switch_resolves_pointer() {
        for cached in [true, false] {
            let mut t = ThreadTable::new(1, cached);
            t.toggle(0, 0, 0x4000, 0);
            t.on_context_switch(0, 0x4400); // switched-in thread not activated
            assert!(t.running(0).is_none());
            t.on_context_switch(0, 0x4000); // back to the activated thread
            assert_eq!(t.running(0).unwrap().pcbb, 0x4000);
        }
    }

    #[test]
    fn swap_remove_reindexes_moved_record() {
        for cached in [true, false] {
            let mut t = ThreadTable::new(2, cached);
            t.toggle(0, 0, 0x4000, 0);
            t.on_context_switch(1, 0x4400);
            t.toggle(1, 1, 0x4400, 0);
            // Deactivate the first; the second's record moves into slot 0.
            t.toggle(0, 0, 0x4000, 10);
            assert_eq!(t.active_threads(), 1);
            assert_eq!(t.running(1).unwrap().pcbb, 0x4400);
            assert_eq!(t.running_mut(1).unwrap().id, 1);
        }
    }

    #[test]
    fn stage_counters_are_independent() {
        let mut rec = ThreadEnabledFault::new(0, 0x4000, 50);
        assert_eq!(rec.bump(Stage::Fetch), 1);
        assert_eq!(rec.bump(Stage::Fetch), 2);
        assert_eq!(rec.bump(Stage::Execute), 1);
        assert_eq!(rec.count(Stage::Fetch), 2);
        assert_eq!(rec.count(Stage::Memory), 0);
        assert_eq!(rec.ticks_since_activation(80), 30);
    }

    #[test]
    fn only_the_hash_path_follows_the_instruction_pcb_base() {
        // The cache is refreshed by context switches alone; the hash path
        // resolves whatever PCB base the core last executed under.
        for cached in [true, false] {
            let mut t = ThreadTable::new(1, cached);
            t.toggle(0, 3, 0x5000, 0);
            t.set_pcbb(0, 0x6000);
            assert_eq!(t.running(0).is_some(), cached, "cached={cached}");
            t.set_pcbb(0, 0x5000);
            assert_eq!(t.running(0).unwrap().id, 3);
        }
    }
}
