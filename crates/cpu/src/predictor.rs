//! Tournament branch predictor (the Sec. IV configuration).
//!
//! The classic Alpha-21264-style design: a *local* predictor (per-branch
//! history indexing a pattern table of 2-bit counters), a *global* predictor
//! (gshare over a global history register), and a *chooser* that learns per
//! branch-history which component to trust. A direct-mapped BTB supplies
//! targets and a return-address stack handles `bsr`/`ret`.

const LOCAL_HIST_BITS: usize = 10;
const LOCAL_ENTRIES: usize = 1 << LOCAL_HIST_BITS;
const GLOBAL_BITS: usize = 12;
const GLOBAL_ENTRIES: usize = 1 << GLOBAL_BITS;
const BTB_ENTRIES: usize = 1 << 10;
const RAS_DEPTH: usize = 16;

/// Saturating 2-bit counter helpers.
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// Prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub lookups: u64,
    /// Correct direction predictions.
    pub correct: u64,
    /// Mispredictions (direction or target).
    pub mispredicts: u64,
}

impl PredictorStats {
    /// Prediction accuracy in `[0, 1]`; 1.0 when nothing was predicted.
    pub fn accuracy(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.correct as f64 / self.lookups as f64
        }
    }
}

/// The tournament predictor with BTB and return-address stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentPredictor {
    local_history: Vec<u16>,
    local_counters: Vec<u8>,
    global_counters: Vec<u8>,
    chooser: Vec<u8>,
    global_history: u32,
    btb_tags: Vec<u64>,
    btb_targets: Vec<u64>,
    ras: Vec<u64>,
    stats: PredictorStats,
}

impl TournamentPredictor {
    /// A predictor with all counters weakly-not-taken and an empty BTB.
    pub fn new() -> TournamentPredictor {
        TournamentPredictor {
            local_history: vec![0; LOCAL_ENTRIES],
            local_counters: vec![1; LOCAL_ENTRIES],
            global_counters: vec![1; GLOBAL_ENTRIES],
            chooser: vec![1; GLOBAL_ENTRIES],
            global_history: 0,
            btb_tags: vec![u64::MAX; BTB_ENTRIES],
            btb_targets: vec![0; BTB_ENTRIES],
            ras: Vec::with_capacity(RAS_DEPTH),
            stats: PredictorStats::default(),
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Bytes of the predictor's tables (its heap; not the struct itself).
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&self.local_history[..])
            + self.local_counters.len()
            + self.global_counters.len()
            + self.chooser.len()
            + std::mem::size_of_val(&self.btb_tags[..])
            + std::mem::size_of_val(&self.btb_targets[..])
            + self.ras.capacity() * std::mem::size_of::<u64>()
    }

    fn local_index(pc: u64) -> usize {
        (pc >> 2) as usize % LOCAL_ENTRIES
    }

    fn global_index(&self) -> usize {
        (self.global_history as usize) % GLOBAL_ENTRIES
    }

    fn gshare_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize ^ self.global_history as usize) % GLOBAL_ENTRIES
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict_direction(&mut self, pc: u64) -> bool {
        self.stats.lookups += 1;
        let li = Self::local_index(pc);
        let lp = self.local_counters[self.local_history[li] as usize % LOCAL_ENTRIES] >= 2;
        let gp = self.global_counters[self.gshare_index(pc)] >= 2;
        let use_global = self.chooser[self.global_index()] >= 2;
        if use_global {
            gp
        } else {
            lp
        }
    }

    /// Updates the predictor with the resolved direction of the branch at
    /// `pc`; `predicted` is what [`predict_direction`] returned earlier.
    ///
    /// [`predict_direction`]: TournamentPredictor::predict_direction
    pub fn update_direction(&mut self, pc: u64, taken: bool, predicted: bool) {
        if predicted == taken {
            self.stats.correct += 1;
        } else {
            self.stats.mispredicts += 1;
        }
        let li = Self::local_index(pc);
        let lhist = self.local_history[li] as usize % LOCAL_ENTRIES;
        let lp = self.local_counters[lhist] >= 2;
        let gi = self.gshare_index(pc);
        let gp = self.global_counters[gi] >= 2;

        // Chooser learns toward whichever component was right.
        if lp != gp {
            let ci = self.global_index();
            bump(&mut self.chooser[ci], gp == taken);
        }
        bump(&mut self.local_counters[lhist], taken);
        bump(&mut self.global_counters[gi], taken);
        self.local_history[li] =
            ((self.local_history[li] << 1) | taken as u16) & (LOCAL_ENTRIES as u16 - 1);
        self.global_history =
            ((self.global_history << 1) | taken as u32) & (GLOBAL_ENTRIES as u32 - 1);
    }

    /// BTB lookup for the instruction at `pc`.
    pub fn predict_target(&self, pc: u64) -> Option<u64> {
        let i = (pc >> 2) as usize % BTB_ENTRIES;
        (self.btb_tags[i] == pc).then(|| self.btb_targets[i])
    }

    /// Installs/updates a BTB entry.
    pub fn update_target(&mut self, pc: u64, target: u64) {
        let i = (pc >> 2) as usize % BTB_ENTRIES;
        self.btb_tags[i] = pc;
        self.btb_targets[i] = target;
    }

    /// Pushes a return address (on `bsr`/`jsr`).
    pub fn push_return(&mut self, addr: u64) {
        if self.ras.len() == RAS_DEPTH {
            self.ras.remove(0);
        }
        self.ras.push(addr);
    }

    /// Pops the predicted return address (on `ret`).
    pub fn pop_return(&mut self) -> Option<u64> {
        self.ras.pop()
    }

    /// Records a direction misprediction discovered without a lookup (e.g.
    /// a BTB-missing taken branch in the pipelined models).
    pub fn note_mispredict(&mut self) {
        self.stats.mispredicts += 1;
    }
}

impl Default for TournamentPredictor {
    fn default() -> TournamentPredictor {
        TournamentPredictor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_branch() {
        let mut p = TournamentPredictor::new();
        let pc = 0x1000;
        // The local component indexes counters by branch history, so it
        // needs the history register to saturate before it stabilizes.
        for _ in 0..32 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, true, pred);
        }
        assert!(p.predict_direction(pc));
        assert!(p.stats().accuracy() > 0.5);
    }

    #[test]
    fn learns_alternating_pattern_via_local_history() {
        let mut p = TournamentPredictor::new();
        let pc = 0x2000;
        let mut taken = false;
        // Train on a strict alternation; the local component's
        // history-indexed counters capture period-2 patterns.
        for _ in 0..200 {
            let pred = p.predict_direction(pc);
            p.update_direction(pc, taken, pred);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..50 {
            let pred = p.predict_direction(pc);
            if pred == taken {
                correct += 1;
            }
            p.update_direction(pc, taken, pred);
            taken = !taken;
        }
        assert!(correct >= 45, "only {correct}/50 correct on alternation");
    }

    #[test]
    fn btb_round_trips_targets() {
        let mut p = TournamentPredictor::new();
        assert_eq!(p.predict_target(0x4000), None);
        p.update_target(0x4000, 0x5000);
        assert_eq!(p.predict_target(0x4000), Some(0x5000));
        // Aliasing entry replaces.
        let alias = 0x4000 + (BTB_ENTRIES as u64) * 4;
        p.update_target(alias, 0x6000);
        assert_eq!(p.predict_target(0x4000), None);
    }

    #[test]
    fn ras_is_lifo_and_bounded() {
        let mut p = TournamentPredictor::new();
        for i in 0..20u64 {
            p.push_return(i);
        }
        assert_eq!(p.pop_return(), Some(19));
        assert_eq!(p.pop_return(), Some(18));
        let mut n = 2;
        while p.pop_return().is_some() {
            n += 1;
        }
        assert_eq!(n, RAS_DEPTH, "stack depth must be bounded");
    }
}
