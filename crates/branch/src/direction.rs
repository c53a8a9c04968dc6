//! Conditional-branch direction predictors.

/// A conditional-branch direction predictor.
///
/// Implementations keep their own global history; history is updated at
/// [`DirectionPredictor::update`] (resolve time), the standard arrangement
/// for simple simulators. Predictors are `Send` (they are plain tables)
/// so cores embedding them can be ticked from CMP worker threads.
pub trait DirectionPredictor: Send {
    /// Predicts the direction of the branch at `pc`.
    fn predict(&self, pc: u64) -> bool;
    /// Trains with the resolved direction.
    fn update(&mut self, pc: u64, taken: bool);
    /// `true` when the predictor is confident (e.g. a saturated 2-bit
    /// counter). Default: always confident.
    fn confident(&self, _pc: u64) -> bool {
        true
    }
}

/// Selects and configures a concrete predictor (see [`make_predictor`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictorKind {
    /// Always predict taken (the weakest baseline).
    StaticTaken,
    /// PC-indexed table of 2-bit counters with `bits` index bits.
    Bimodal {
        /// log2 of the table size.
        bits: u32,
    },
    /// Global-history XOR PC indexed 2-bit counters.
    Gshare {
        /// log2 of the table size (also the history length).
        bits: u32,
    },
    /// Bimodal + gshare with a per-PC choice table.
    Tournament {
        /// log2 of each component table's size.
        bits: u32,
    },
}

/// Builds the predictor described by `kind`.
pub fn make_predictor(kind: PredictorKind) -> Box<dyn DirectionPredictor> {
    match kind {
        PredictorKind::StaticTaken => Box::new(StaticTaken),
        PredictorKind::Bimodal { bits } => Box::new(Bimodal::new(bits)),
        PredictorKind::Gshare { bits } => Box::new(Gshare::new(bits)),
        PredictorKind::Tournament { bits } => Box::new(Tournament::new(bits)),
    }
}

#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// Always-taken static predictor.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticTaken;

impl DirectionPredictor for StaticTaken {
    fn predict(&self, _pc: u64) -> bool {
        true
    }
    fn update(&mut self, _pc: u64, _taken: bool) {}
}

/// PC-indexed table of 2-bit saturating counters.
#[derive(Clone, Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u64,
}

impl Bimodal {
    /// Creates a table of `2^bits` counters, initialized weakly taken.
    pub fn new(bits: u32) -> Bimodal {
        Bimodal {
            table: vec![2; 1 << bits],
            mask: (1 << bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        bump(&mut self.table[i], taken);
    }

    fn confident(&self, pc: u64) -> bool {
        matches!(self.table[self.index(pc)], 0 | 3)
    }
}

/// Gshare: global history XORed with the PC indexes a counter table.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a `2^bits` table; history length equals `bits`.
    pub fn new(bits: u32) -> Gshare {
        Gshare {
            table: vec![2; 1 << bits],
            history: 0,
            mask: (1 << bits) - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        bump(&mut self.table[i], taken);
        self.history = ((self.history << 1) | taken as u64) & self.mask;
    }

    fn confident(&self, pc: u64) -> bool {
        matches!(self.table[self.index(pc)], 0 | 3)
    }
}

/// Tournament predictor: bimodal and gshare components with a 2-bit chooser.
#[derive(Clone, Debug)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: Gshare,
    choice: Vec<u8>, // >= 2 selects gshare
    mask: u64,
}

impl Tournament {
    /// Creates components with `2^bits` entries each.
    pub fn new(bits: u32) -> Tournament {
        Tournament {
            bimodal: Bimodal::new(bits),
            gshare: Gshare::new(bits),
            choice: vec![2; 1 << bits],
            mask: (1 << bits) - 1,
        }
    }

    fn choice_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl DirectionPredictor for Tournament {
    fn predict(&self, pc: u64) -> bool {
        if self.choice[self.choice_index(pc)] >= 2 {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let bp = self.bimodal.predict(pc);
        let gp = self.gshare.predict(pc);
        // Train the chooser toward the component that was right.
        if bp != gp {
            let i = self.choice_index(pc);
            bump(&mut self.choice[i], gp == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    fn confident(&self, pc: u64) -> bool {
        if self.choice[self.choice_index(pc)] >= 2 {
            self.gshare.confident(pc)
        } else {
            self.bimodal.confident(pc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(8);
        for _ in 0..4 {
            p.update(0x100, false);
        }
        assert!(!p.predict(0x100));
        for _ in 0..4 {
            p.update(0x100, true);
        }
        assert!(p.predict(0x100));
    }

    #[test]
    fn bimodal_hysteresis() {
        let mut p = Bimodal::new(8);
        for _ in 0..4 {
            p.update(0x100, true);
        }
        p.update(0x100, false); // one not-taken does not flip a strong state
        assert!(p.predict(0x100));
        p.update(0x100, false);
        assert!(!p.predict(0x100));
    }

    #[test]
    fn gshare_learns_alternating_pattern() {
        let mut p = Gshare::new(10);
        // T,N,T,N... is history-predictable; train then measure.
        let mut taken = true;
        for _ in 0..64 {
            p.update(0x200, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..32 {
            if p.predict(0x200) == taken {
                correct += 1;
            }
            p.update(0x200, taken);
            taken = !taken;
        }
        assert!(correct >= 30, "gshare should nail alternation, {correct}/32");
    }

    #[test]
    fn bimodal_cannot_learn_alternation() {
        let mut p = Bimodal::new(10);
        let mut taken = true;
        for _ in 0..64 {
            p.update(0x200, taken);
            taken = !taken;
        }
        let mut correct = 0;
        for _ in 0..32 {
            if p.predict(0x200) == taken {
                correct += 1;
            }
            p.update(0x200, taken);
            taken = !taken;
        }
        assert!(correct <= 20, "bimodal at chance on alternation, {correct}");
    }

    #[test]
    fn tournament_beats_both_components_on_mixed_load() {
        // One strongly-biased branch (bimodal-friendly) interleaved with an
        // alternating branch (gshare-friendly): the tournament should track
        // both.
        let mut t = Tournament::new(10);
        let mut alt = true;
        for _ in 0..256 {
            t.update(0x100, true); // biased
            t.update(0x200, alt); // alternating
            alt = !alt;
        }
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..64 {
            if t.predict(0x100) {
                correct += 1;
            }
            t.update(0x100, true);
            if t.predict(0x200) == alt {
                correct += 1;
            }
            t.update(0x200, alt);
            alt = !alt;
            total += 2;
        }
        assert!(
            correct as f64 / total as f64 > 0.9,
            "tournament accuracy {correct}/{total}"
        );
    }

    #[test]
    fn static_taken_is_constant() {
        let mut p = StaticTaken;
        assert!(p.predict(0));
        p.update(0, false);
        assert!(p.predict(0));
    }

    #[test]
    fn make_predictor_builds_each_kind() {
        for kind in [
            PredictorKind::StaticTaken,
            PredictorKind::Bimodal { bits: 4 },
            PredictorKind::Gshare { bits: 4 },
            PredictorKind::Tournament { bits: 4 },
        ] {
            let mut p = make_predictor(kind);
            p.update(0x40, true);
            let _ = p.predict(0x40);
        }
    }
}
