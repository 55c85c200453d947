//! Functions: control-flow graphs of basic blocks.

use crate::block::{Block, BlockId, Terminator};
use crate::inst::Inst;
use crate::reg::Reg;
use std::fmt;

/// A function: a named control-flow graph over [`Block`]s.
///
/// On a network processor each thread executes one such function forever
/// (a packet main loop); the paper's whole-thread analyses operate on one
/// `Func` per thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Func {
    /// Function name (used in assembly syntax and reports).
    pub name: String,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Number of virtual registers (`v0..v{n-1}`); zero after the
    /// function has been rewritten to physical registers.
    pub num_vregs: u32,
}

/// An inconsistency detected by [`Func::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The entry block id is out of range.
    BadEntry(BlockId),
    /// A terminator references a block id that does not exist.
    BadTarget {
        /// Block containing the bad terminator.
        from: BlockId,
        /// The dangling target.
        to: BlockId,
    },
    /// A virtual register index is `>= num_vregs`.
    BadVReg {
        /// Block containing the instruction.
        block: BlockId,
        /// The offending register index.
        vreg: u32,
    },
    /// The function has no blocks.
    NoBlocks,
    /// A burst memory operation has a bad register list (empty, too
    /// long, or duplicated load destinations).
    BadBurst {
        /// Block containing the instruction.
        block: BlockId,
        /// The offending burst length.
        len: usize,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadEntry(b) => write!(f, "entry block {b} out of range"),
            ValidateError::BadTarget { from, to } => {
                write!(f, "terminator of {from} targets nonexistent block {to}")
            }
            ValidateError::BadVReg { block, vreg } => {
                write!(f, "block {block} references v{vreg} >= num_vregs")
            }
            ValidateError::NoBlocks => write!(f, "function has no blocks"),
            ValidateError::BadBurst { block, len } => {
                write!(f, "block {block} has a burst of invalid length {len}")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

impl Func {
    /// Creates a function from parts. Prefer [`crate::FuncBuilder`].
    pub fn new(name: impl Into<String>, blocks: Vec<Block>, entry: BlockId, num_vregs: u32) -> Self {
        Func {
            name: name.into(),
            blocks,
            entry,
            num_vregs,
        }
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over `(BlockId, &Block)` pairs in id order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total instruction count including terminators (the paper's
    /// "code size").
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Number of context-switch (CSB) instructions.
    pub fn num_ctx_insts(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| i.is_ctx_switch())
            .count()
    }

    /// Computes the predecessor lists of every block.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (id, block) in self.iter_blocks() {
            for succ in block.term.successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }

    /// Splits the CFG edge `from -> to` by inserting a fresh block that
    /// contains only a jump to `to`, and returns the new block's id. If
    /// the terminator of `from` has several edges to `to`, all of them
    /// are redirected through the same new block.
    ///
    /// # Panics
    ///
    /// Panics if the edge does not exist.
    pub fn split_edge(&mut self, from: BlockId, to: BlockId) -> BlockId {
        assert!(
            self.block(from).term.successors().any(|s| s == to),
            "no edge {from} -> {to}"
        );
        let new_id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new(Vec::new(), Terminator::Jump(to)));
        self.blocks[from.index()]
            .term
            .map_successors(|s| if s == to { new_id } else { s });
        new_id
    }

    /// Every register the function names, one item per occurrence, in
    /// block order: each instruction's definitions then its uses, then
    /// the block terminator's uses.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.blocks.iter().flat_map(|block| {
            block
                .insts
                .iter()
                .flat_map(|inst| inst.defs().chain(inst.uses()))
                .chain(block.term.uses())
        })
    }

    /// Highest virtual register index used, if any virtual register
    /// appears in the function.
    pub fn max_vreg(&self) -> Option<u32> {
        self.regs().filter_map(Reg::as_virt).map(|v| v.0).max()
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidateError`] found: missing blocks, a bad
    /// entry id, dangling branch targets, or virtual registers outside
    /// `0..num_vregs`.
    pub fn validate(&self) -> Result<(), ValidateError> {
        if self.blocks.is_empty() {
            return Err(ValidateError::NoBlocks);
        }
        if self.entry.index() >= self.blocks.len() {
            return Err(ValidateError::BadEntry(self.entry));
        }
        for (id, block) in self.iter_blocks() {
            for succ in block.term.successors() {
                if succ.index() >= self.blocks.len() {
                    return Err(ValidateError::BadTarget { from: id, to: succ });
                }
            }
            let mut bad: Option<u32> = None;
            let mut check = |r: Reg| {
                if let Reg::Virt(v) = r {
                    if v.0 >= self.num_vregs && bad.is_none() {
                        bad = Some(v.0);
                    }
                }
            };
            for inst in &block.insts {
                inst.defs().for_each(&mut check);
                inst.uses().for_each(&mut check);
                if let Some(n) = match inst {
                    Inst::LoadBurst { dsts, .. } => Some(dsts.len()),
                    Inst::StoreBurst { srcs, .. } => Some(srcs.len()),
                    _ => None,
                } {
                    if n == 0 || n > crate::inst::MAX_BURST {
                        return Err(ValidateError::BadBurst { block: id, len: n });
                    }
                }
                if let Inst::LoadBurst { dsts, .. } = inst {
                    let mut seen = dsts.clone();
                    seen.sort_unstable();
                    seen.dedup();
                    if seen.len() != dsts.len() {
                        return Err(ValidateError::BadBurst {
                            block: id,
                            len: dsts.len(),
                        });
                    }
                }
            }
            block.term.uses().for_each(&mut check);
            if let Some(vreg) = bad {
                return Err(ValidateError::BadVReg { block: id, vreg });
            }
        }
        Ok(())
    }

    /// Blocks reachable from the entry, as a boolean vector.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if std::mem::replace(&mut seen[b.index()], true) {
                continue;
            }
            stack.extend(self.block(b).term.successors());
        }
        seen
    }

    /// Iterates over every instruction as `(BlockId, index, &Inst)`.
    pub fn iter_insts(&self) -> impl Iterator<Item = (BlockId, usize, &Inst)> {
        self.iter_blocks()
            .flat_map(|(id, b)| b.insts.iter().enumerate().map(move |(i, inst)| (id, i, inst)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Cond;
    use crate::reg::{Operand, VReg};

    fn v(i: u32) -> Reg {
        Reg::Virt(VReg(i))
    }

    fn diamond() -> Func {
        // bb0 -> bb1, bb2; bb1 -> bb3; bb2 -> bb3; bb3 halt
        Func::new(
            "diamond",
            vec![
                Block::new(
                    vec![Inst::Nop],
                    Terminator::Branch {
                        cond: Cond::Eq,
                        lhs: v(0),
                        rhs: Operand::Imm(0),
                        taken: BlockId(1),
                        fallthrough: BlockId(2),
                    },
                ),
                Block::new(vec![Inst::Ctx], Terminator::Jump(BlockId(3))),
                Block::new(vec![], Terminator::Jump(BlockId(3))),
                Block::new(vec![], Terminator::Halt),
            ],
            BlockId(0),
            1,
        )
    }

    #[test]
    fn validate_ok_and_counts() {
        let f = diamond();
        f.validate().unwrap();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 6);
        assert_eq!(f.num_ctx_insts(), 1);
        assert_eq!(f.max_vreg(), Some(0));
        assert!(f.reachable().iter().all(|&r| r));
    }

    #[test]
    fn regs_visit_defs_uses_and_terminators_in_block_order() {
        let f = crate::parse_func(
            "func f {\nbb0:\n v0 = mov 1\n v1 = add v0, 2\n bne v1, v0, bb1, bb1\nbb1:\n store scratch[v1+0], v0\n halt\n}",
        )
        .unwrap();
        let seen: Vec<Reg> = f.regs().collect();
        assert_eq!(seen, vec![v(0), v(1), v(0), v(1), v(0), v(0), v(1)]);
    }

    #[test]
    fn validate_detects_bad_target() {
        let mut f = diamond();
        f.blocks[1].term = Terminator::Jump(BlockId(9));
        assert_eq!(
            f.validate(),
            Err(ValidateError::BadTarget {
                from: BlockId(1),
                to: BlockId(9)
            })
        );
    }

    #[test]
    fn validate_detects_bad_vreg() {
        let mut f = diamond();
        f.num_vregs = 0;
        assert!(matches!(
            f.validate(),
            Err(ValidateError::BadVReg { vreg: 0, .. })
        ));
    }

    #[test]
    fn validate_detects_bad_entry_and_empty() {
        let mut f = diamond();
        f.entry = BlockId(10);
        assert_eq!(f.validate(), Err(ValidateError::BadEntry(BlockId(10))));
        f.blocks.clear();
        assert_eq!(f.validate(), Err(ValidateError::NoBlocks));
    }

    #[test]
    fn predecessors_of_join() {
        let f = diamond();
        let preds = f.predecessors();
        assert_eq!(preds[3], vec![BlockId(1), BlockId(2)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn split_edge_inserts_trampoline() {
        let mut f = diamond();
        let mid = f.split_edge(BlockId(0), BlockId(2));
        f.validate().unwrap();
        assert_eq!(f.block(mid).term, Terminator::Jump(BlockId(2)));
        let succs: Vec<_> = f.block(BlockId(0)).term.successors().collect();
        assert_eq!(succs, vec![BlockId(1), mid]);
    }

    #[test]
    #[should_panic(expected = "no edge")]
    fn split_missing_edge_panics() {
        let mut f = diamond();
        f.split_edge(BlockId(1), BlockId(0));
    }

    #[test]
    fn unreachable_block_detected() {
        let mut f = diamond();
        f.blocks.push(Block::new(vec![], Terminator::Halt));
        let r = f.reachable();
        assert!(!r[4]);
        assert!(r[..4].iter().all(|&x| x));
    }
}
