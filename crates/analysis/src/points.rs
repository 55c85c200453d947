//! Dense numbering of program points.

use regbal_ir::{BlockId, Func, Inst, Reg, Terminator, VReg};
use std::fmt;

/// A program point: one instruction slot of the function, including
/// block terminators. Points are numbered densely in block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Point(pub u32);

impl Point {
    /// Dense index of the point.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// What occupies a program point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot<'a> {
    /// A body instruction.
    Inst(&'a Inst),
    /// The block terminator.
    Term(&'a Terminator),
}

impl Slot<'_> {
    /// The registers defined at this slot (terminators never define
    /// registers; burst loads define several).
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Slot::Inst(i) => i.defs().collect(),
            Slot::Term(_) => Vec::new(),
        }
    }

    /// The virtual registers defined at this slot.
    pub fn defs_vreg(&self) -> Vec<VReg> {
        match self {
            Slot::Inst(i) => i.defs().filter_map(Reg::as_virt).collect(),
            Slot::Term(_) => Vec::new(),
        }
    }

    /// The registers used at this slot.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Slot::Inst(i) => i.uses().collect(),
            Slot::Term(t) => t.uses().collect(),
        }
    }

    /// Whether the slot holds a context-switch instruction. Terminators
    /// never context-switch.
    pub fn is_ctx_switch(&self) -> bool {
        matches!(self, Slot::Inst(i) if i.is_ctx_switch())
    }
}

/// Point numbering for one function, with point-level CFG relations.
#[derive(Debug, Clone)]
pub struct PointMap {
    /// First point of each block (index = block id); one extra sentinel
    /// entry holding the total number of points.
    block_start: Vec<u32>,
    /// Owning block of each point.
    block_of: Vec<BlockId>,
    /// Point-level successors.
    succs: Vec<Vec<Point>>,
    /// Point-level predecessors.
    preds: Vec<Vec<Point>>,
    entry: Point,
}

impl PointMap {
    /// Numbers the points of `func` and records successor/predecessor
    /// relations.
    pub fn new(func: &Func) -> PointMap {
        let mut block_start = Vec::with_capacity(func.num_blocks() + 1);
        let mut block_of = Vec::new();
        let mut next = 0u32;
        for (id, block) in func.iter_blocks() {
            block_start.push(next);
            for _ in 0..block.len() {
                block_of.push(id);
            }
            next += block.len() as u32;
        }
        block_start.push(next);
        let n = next as usize;

        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (id, block) in func.iter_blocks() {
            let start = block_start[id.index()];
            let term = start + block.len() as u32 - 1;
            for p in start..term {
                succs[p as usize].push(Point(p + 1));
                preds[(p + 1) as usize].push(Point(p));
            }
            for succ in block.term.successors() {
                let sp = Point(block_start[succ.index()]);
                succs[term as usize].push(sp);
                preds[sp.index()].push(Point(term));
            }
        }
        let entry = Point(block_start[func.entry.index()]);
        PointMap {
            block_start,
            block_of,
            succs,
            preds,
            entry,
        }
    }

    /// Total number of points.
    pub fn num_points(&self) -> usize {
        self.block_of.len()
    }

    /// The first point executed by the function.
    pub fn entry(&self) -> Point {
        self.entry
    }

    /// The point of instruction `idx` in `block`; `idx == insts.len()`
    /// addresses the terminator.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn point(&self, block: BlockId, idx: usize) -> Point {
        let p = self.block_start[block.index()] + idx as u32;
        assert!(
            p < self.block_start[block.index() + 1],
            "instruction index {idx} out of range for {block}"
        );
        Point(p)
    }

    /// Inverse of [`point`](Self::point): the block and instruction index
    /// of a point.
    pub fn location(&self, p: Point) -> (BlockId, usize) {
        let block = self.block_of[p.index()];
        (block, (p.0 - self.block_start[block.index()]) as usize)
    }

    /// The block containing a point.
    pub fn block_of(&self, p: Point) -> BlockId {
        self.block_of[p.index()]
    }

    /// The slot (instruction or terminator) at a point.
    pub fn slot<'f>(&self, func: &'f Func, p: Point) -> Slot<'f> {
        let (block, idx) = self.location(p);
        let b = func.block(block);
        if idx < b.insts.len() {
            Slot::Inst(&b.insts[idx])
        } else {
            Slot::Term(&b.term)
        }
    }

    /// Successor points (fallthrough within a block, branch targets for
    /// terminators).
    pub fn succs(&self, p: Point) -> &[Point] {
        &self.succs[p.index()]
    }

    /// Predecessor points.
    pub fn preds(&self, p: Point) -> &[Point] {
        &self.preds[p.index()]
    }

    /// Iterates over all points.
    pub fn points(&self) -> impl Iterator<Item = Point> {
        (0..self.num_points() as u32).map(Point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    fn sample() -> Func {
        parse_func(
            "func f {\nbb0:\n v0 = mov 1\n bne v0, 0, bb1, bb2\nbb1:\n ctx\n jump bb2\nbb2:\n halt\n}",
        )
        .unwrap()
    }

    #[test]
    fn numbering_and_location() {
        let f = sample();
        let pm = PointMap::new(&f);
        assert_eq!(pm.num_points(), 5);
        assert_eq!(pm.point(BlockId(0), 0), Point(0));
        assert_eq!(pm.point(BlockId(0), 1), Point(1)); // terminator
        assert_eq!(pm.point(BlockId(1), 0), Point(2));
        assert_eq!(pm.location(Point(3)), (BlockId(1), 1));
        assert_eq!(pm.block_of(Point(4)), BlockId(2));
        assert_eq!(pm.entry(), Point(0));
    }

    #[test]
    fn successor_relations() {
        let f = sample();
        let pm = PointMap::new(&f);
        assert_eq!(pm.succs(Point(0)), &[Point(1)]);
        // branch: taken bb1 (point 2), fallthrough bb2 (point 4)
        assert_eq!(pm.succs(Point(1)), &[Point(2), Point(4)]);
        assert_eq!(pm.succs(Point(3)), &[Point(4)]);
        assert!(pm.succs(Point(4)).is_empty());
        assert_eq!(pm.preds(Point(4)), &[Point(1), Point(3)]);
        assert!(pm.preds(Point(0)).is_empty());
    }

    #[test]
    fn slot_access() {
        let f = sample();
        let pm = PointMap::new(&f);
        assert!(matches!(pm.slot(&f, Point(0)), Slot::Inst(_)));
        assert!(matches!(pm.slot(&f, Point(1)), Slot::Term(_)));
        assert!(pm.slot(&f, Point(2)).is_ctx_switch());
        assert!(!pm.slot(&f, Point(1)).is_ctx_switch());
        assert_eq!(pm.slot(&f, Point(0)).defs_vreg(), vec![VReg(0)]);
        assert_eq!(pm.slot(&f, Point(1)).uses().len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn point_out_of_range_panics() {
        let f = sample();
        let pm = PointMap::new(&f);
        pm.point(BlockId(0), 5);
    }
}
