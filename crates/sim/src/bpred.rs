//! Branch prediction: gshare direction predictor, branch target buffer and
//! return address stack. FDIP's runahead frontend is steered by this unit,
//! so its accuracy determines which lines are easy or hard to prefetch —
//! the distinction at the heart of the paper's Observation #2.

use ripple_program::{Addr, BlockId, Layout, Program, Successors};

const GSHARE_BITS: u32 = 14;
const GSHARE_ENTRIES: usize = 1 << GSHARE_BITS;
const BTB_ENTRIES: usize = 512;
const RAS_DEPTH: usize = 32;

/// What the predictor believes the next block is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Confident prediction of the next block.
    Block(BlockId),
    /// No prediction possible (BTB miss / empty RAS); the runahead
    /// frontend stalls until execution catches up.
    Unknown,
}

/// A gshare + BTB + RAS predictor operating at basic-block granularity.
#[derive(Debug)]
pub struct BranchPredictor {
    gshare: Vec<u8>, // 2-bit counters
    ghr: u64,
    btb_tags: Vec<u64>,
    btb_targets: Vec<BlockId>,
    ras: Vec<BlockId>,
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl BranchPredictor {
    /// Creates an untrained predictor.
    pub fn new() -> Self {
        BranchPredictor {
            gshare: vec![1; GSHARE_ENTRIES], // weakly not-taken
            ghr: 0,
            btb_tags: vec![u64::MAX; BTB_ENTRIES],
            btb_targets: vec![BlockId::new(0); BTB_ENTRIES],
            ras: Vec::with_capacity(RAS_DEPTH),
        }
    }

    fn gshare_index(&self, pc: Addr) -> usize {
        (((pc.get() >> 2) ^ self.ghr) as usize) & (GSHARE_ENTRIES - 1)
    }

    fn btb_index(pc: Addr) -> usize {
        ((pc.get() >> 2) as usize) ^ ((pc.get() >> 17) as usize) & (BTB_ENTRIES - 1)
    }

    fn btb_lookup(&self, pc: Addr) -> Option<BlockId> {
        let i = Self::btb_index(pc) % BTB_ENTRIES;
        if self.btb_tags[i] == pc.get() {
            Some(self.btb_targets[i])
        } else {
            None
        }
    }

    fn btb_insert(&mut self, pc: Addr, target: BlockId) {
        let i = Self::btb_index(pc) % BTB_ENTRIES;
        self.btb_tags[i] = pc.get();
        self.btb_targets[i] = target;
    }

    /// Predicts the block following `block`, without updating any state
    /// other than the speculative RAS.
    ///
    /// The RAS is speculatively pushed/popped along the predicted path;
    /// [`BranchPredictor::train`] repairs it on mispredictions (a real
    /// core checkpoints the RAS; full repair is a close, simple model).
    pub fn predict(&mut self, program: &Program, layout: &Layout, block: BlockId) -> Prediction {
        let pc = layout.block_addr(block);
        match program.successors(block) {
            Successors::Cond { taken, not_taken } => {
                let taken_pred = self.gshare[self.gshare_index(pc)] >= 2;
                if taken_pred {
                    match self.btb_lookup(pc) {
                        Some(t) => Prediction::Block(t),
                        None => Prediction::Unknown,
                    }
                    .or_known(taken, false)
                } else {
                    Prediction::Block(not_taken)
                }
            }
            Successors::Jump(target) => match self.btb_lookup(pc) {
                Some(t) => Prediction::Block(t),
                None => Prediction::Unknown,
            }
            .or_known(target, false),
            Successors::Fallthrough(next) => Prediction::Block(next),
            Successors::Call { callee, return_to } => {
                let p = match self.btb_lookup(pc) {
                    Some(t) => Prediction::Block(t),
                    None => Prediction::Unknown,
                }
                .or_known(callee, false);
                if matches!(p, Prediction::Block(_)) {
                    self.ras_push(return_to);
                }
                p
            }
            Successors::IndirectCall { return_to } => {
                let p = match self.btb_lookup(pc) {
                    Some(t) => Prediction::Block(t),
                    None => Prediction::Unknown,
                };
                if matches!(p, Prediction::Block(_)) {
                    self.ras_push(return_to);
                }
                p
            }
            Successors::Indirect => match self.btb_lookup(pc) {
                Some(t) => Prediction::Block(t),
                None => Prediction::Unknown,
            },
            Successors::Return => match self.ras.pop() {
                Some(t) => Prediction::Block(t),
                None => Prediction::Unknown,
            },
        }
    }

    fn ras_push(&mut self, return_to: BlockId) {
        if self.ras.len() == RAS_DEPTH {
            self.ras.remove(0);
        }
        self.ras.push(return_to);
    }

    /// Trains the predictor with an observed transition `block -> actual`
    /// and returns whether the (fresh, non-speculative) prediction would
    /// have been correct.
    pub fn train(
        &mut self,
        program: &Program,
        layout: &Layout,
        block: BlockId,
        actual: BlockId,
    ) -> bool {
        let pc = layout.block_addr(block);
        match program.successors(block) {
            // A lossily decoded trace may present a transition that is
            // neither successor (packets dropped between the two blocks),
            // so `actual` is not checked against `not_taken`: anything
            // other than the taken target trains as not-taken.
            Successors::Cond { taken, .. } => {
                let was_taken = actual == taken;
                let idx = self.gshare_index(pc);
                let predicted_taken = self.gshare[idx] >= 2;
                let ctr = &mut self.gshare[idx];
                *ctr = if was_taken {
                    (*ctr + 1).min(3)
                } else {
                    ctr.saturating_sub(1)
                };
                self.ghr = (self.ghr << 1) | u64::from(was_taken);
                let btb_ok = self.btb_lookup(pc) == Some(taken);
                if was_taken {
                    self.btb_insert(pc, taken);
                }
                predicted_taken == was_taken && (!was_taken || btb_ok)
            }
            Successors::Jump(target) => {
                let ok = self.btb_lookup(pc) == Some(target);
                self.btb_insert(pc, target);
                ok
            }
            Successors::Fallthrough(_) => true,
            Successors::Call { callee, return_to } => {
                let ok = self.btb_lookup(pc) == Some(callee);
                self.btb_insert(pc, callee);
                self.ras_sync_push(return_to);
                ok
            }
            Successors::IndirectCall { return_to } => {
                let ok = self.btb_lookup(pc) == Some(actual);
                self.btb_insert(pc, actual);
                self.ras_sync_push(return_to);
                ok
            }
            Successors::Indirect => {
                let ok = self.btb_lookup(pc) == Some(actual);
                self.btb_insert(pc, actual);
                ok
            }
            Successors::Return => {
                // Repair the RAS to reflect the committed return.
                let ok = match self.ras.last() {
                    Some(&t) => t == actual,
                    None => false,
                };
                self.ras.pop();
                ok
            }
        }
    }

    /// Non-speculative RAS push used at commit time; replaces whatever the
    /// speculative path left behind when it diverged.
    fn ras_sync_push(&mut self, return_to: BlockId) {
        // Keep it simple: committed pushes overwrite speculative noise.
        if self.ras.last() != Some(&return_to) {
            self.ras_push(return_to);
        }
    }

    /// Clears speculative RAS state (used when the runahead path is
    /// squashed).
    pub fn reset_speculation(&mut self) {
        // The RAS doubles as committed state in this model; nothing to do.
    }
}

trait PredictionExt {
    fn or_known(self, known: BlockId, prefer_btb: bool) -> Prediction;
}

impl PredictionExt for Prediction {
    /// Direct branches encode their target in the instruction bytes; the
    /// front end can decode-assist, so a BTB miss on a *direct* target
    /// still yields the right block (with `prefer_btb = false`). We model
    /// decode-assisted BTB fill, which FDIP implementations rely on.
    fn or_known(self, known: BlockId, prefer_btb: bool) -> Prediction {
        match self {
            Prediction::Block(b) if prefer_btb => Prediction::Block(b),
            Prediction::Block(_) => Prediction::Block(known),
            Prediction::Unknown => Prediction::Block(known),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{CodeKind, Instruction, LayoutConfig, ProgramBuilder};

    fn loop_program() -> (Program, Layout, Vec<BlockId>) {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let b0 = b.add_block(main);
        let b1 = b.add_block(main);
        b.push_inst(b0, Instruction::other(4));
        b.push_inst(b0, Instruction::cond_branch(b0));
        b.push_inst(b1, Instruction::ret());
        let p = b.finish(main).unwrap();
        let l = Layout::new(&p, &LayoutConfig::default());
        (p, l, vec![b0, b1])
    }

    #[test]
    fn gshare_learns_a_biased_branch() {
        let (p, l, ids) = loop_program();
        let mut bp = BranchPredictor::new();
        // Train taken (self-loop) until the global history saturates with
        // taken bits and the gshare index stabilizes.
        for _ in 0..24 {
            bp.train(&p, &l, ids[0], ids[0]);
        }
        assert_eq!(bp.predict(&p, &l, ids[0]), Prediction::Block(ids[0]));
        // Now train not-taken repeatedly; prediction must flip.
        for _ in 0..24 {
            bp.train(&p, &l, ids[0], ids[1]);
        }
        assert_eq!(bp.predict(&p, &l, ids[0]), Prediction::Block(ids[1]));
    }

    #[test]
    fn cond_trains_an_unrelated_successor_as_not_taken() {
        // b0 branches to itself or falls through to b1; b2 is neither. A
        // lossy trace decode can still present b0 -> b2, which must train
        // exactly like the not-taken edge b0 -> b1 instead of panicking.
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let b0 = b.add_block(main);
        let b1 = b.add_block(main);
        let b2 = b.add_block(main);
        b.push_inst(b0, Instruction::other(4));
        b.push_inst(b0, Instruction::cond_branch(b0));
        b.push_inst(b1, Instruction::other(4));
        b.push_inst(b2, Instruction::ret());
        let p = b.finish(main).unwrap();
        let l = Layout::new(&p, &LayoutConfig::default());
        assert!(matches!(
            p.successors(b0),
            Successors::Cond { taken, not_taken } if taken == b0 && not_taken == b1
        ));

        let mut lossy = BranchPredictor::new();
        let mut exact = BranchPredictor::new();
        for round in 0..24 {
            let actual = if round % 3 == 0 { b0 } else { b2 };
            let expected = if actual == b2 { b1 } else { actual };
            assert_eq!(
                lossy.train(&p, &l, b0, actual),
                exact.train(&p, &l, b0, expected),
                "round {round}"
            );
            assert_eq!(lossy.predict(&p, &l, b0), exact.predict(&p, &l, b0));
        }
        assert_eq!(lossy.gshare, exact.gshare);
        assert_eq!(lossy.ghr, exact.ghr);
    }

    #[test]
    fn returns_use_the_ras() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let callee = b.add_function("callee", CodeKind::Static);
        let m0 = b.add_block(main);
        let m1 = b.add_block(main);
        let c0 = b.add_block(callee);
        b.push_inst(m0, Instruction::call(callee));
        b.push_inst(m1, Instruction::ret());
        b.push_inst(c0, Instruction::ret());
        let p = b.finish(main).unwrap();
        let l = Layout::new(&p, &LayoutConfig::default());

        let mut bp = BranchPredictor::new();
        // Commit the call; the RAS now holds m1.
        bp.train(&p, &l, m0, c0);
        assert_eq!(bp.predict(&p, &l, c0), Prediction::Block(m1));
    }

    #[test]
    fn indirect_without_btb_is_unknown() {
        let mut b = ProgramBuilder::new();
        let main = b.add_function("main", CodeKind::Static);
        let m0 = b.add_block(main);
        let m1 = b.add_block(main);
        let m2 = b.add_block(main);
        b.push_inst(m0, Instruction::indirect_jump());
        b.push_inst(m1, Instruction::other(4));
        b.push_inst(m2, Instruction::ret());
        let p = b.finish(main).unwrap();
        let l = Layout::new(&p, &LayoutConfig::default());

        let mut bp = BranchPredictor::new();
        assert_eq!(bp.predict(&p, &l, m0), Prediction::Unknown);
        bp.train(&p, &l, m0, m2);
        assert_eq!(bp.predict(&p, &l, m0), Prediction::Block(m2));
        // Retargeting retrains the BTB.
        bp.train(&p, &l, m0, m1);
        assert_eq!(bp.predict(&p, &l, m0), Prediction::Block(m1));
    }

    #[test]
    fn train_reports_correctness() {
        let (p, l, ids) = loop_program();
        let mut bp = BranchPredictor::new();
        // Counters start weakly not-taken: the first taken outcome counts
        // as a misprediction; once the history-indexed counters warm up,
        // taken predictions are correct.
        assert!(!bp.train(&p, &l, ids[0], ids[0]));
        for _ in 0..24 {
            bp.train(&p, &l, ids[0], ids[0]);
        }
        assert!(bp.train(&p, &l, ids[0], ids[0]));
    }
}
