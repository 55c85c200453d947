//! Physical-register layout and code rewriting.
//!
//! The layout places each thread's private colors in a disjoint bank of
//! the register file and maps each thread's shared colors onto one
//! common bank of `SGR = max SRᵢ` registers — the partition of paper §2.
//! Rewriting replaces virtual registers by physical ones according to
//! the (possibly split) fragment colors and materialises one `mov` per
//! cut flow edge, sequencing simultaneous moves as a parallel copy.

use crate::alloc::{MoveSite, ThreadAlloc};
use crate::error::AllocError;
use crate::half::HalfPoint;
use regbal_analysis::ProgramInfo;
use regbal_ir::{BinOp, BlockId, Func, Inst, Operand, PReg, Reg, UnOp};
use std::collections::HashMap;

/// Physical placement of every thread's colors in the shared register
/// file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    private_base: Vec<u32>,
    shared_base: u32,
    sgr: usize,
    nreg: usize,
}

impl Layout {
    /// Computes the layout for threads with the given `(PR, SR)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `Σ PRᵢ + max SRᵢ > nreg`.
    pub fn new(prs_srs: &[(usize, usize)], nreg: usize) -> Layout {
        let mut private_base = Vec::with_capacity(prs_srs.len());
        let mut next = 0u32;
        for &(pr, _) in prs_srs {
            private_base.push(next);
            next += pr as u32;
        }
        let sgr = prs_srs.iter().map(|&(_, sr)| sr).max().unwrap_or(0);
        assert!(
            next as usize + sgr <= nreg,
            "layout needs {} registers but only {nreg} exist",
            next as usize + sgr
        );
        Layout {
            private_base,
            shared_base: next,
            sgr,
            nreg,
        }
    }

    /// The private bank of a thread, as a physical register range.
    pub fn private_range(&self, thread: usize) -> std::ops::Range<u32> {
        let base = self.private_base[thread];
        let end = self
            .private_base
            .get(thread + 1)
            .copied()
            .unwrap_or(self.shared_base);
        base..end
    }

    /// The shared bank, common to all threads.
    pub fn shared_range(&self) -> std::ops::Range<u32> {
        self.shared_base..self.shared_base + self.sgr as u32
    }

    /// Number of globally shared registers.
    pub fn sgr(&self) -> usize {
        self.sgr
    }

    /// Size of the register file the layout was computed for.
    pub fn nreg(&self) -> usize {
        self.nreg
    }

    /// Maps one thread's abstract colors to physical registers: the
    /// `i`-th private palette color to `private_base + i`, the `j`-th
    /// shared palette color to `shared_base + j`.
    pub fn color_map(&self, thread: usize, alloc: &ThreadAlloc) -> HashMap<u32, PReg> {
        let mut map = HashMap::new();
        let base = self.private_base[thread];
        for (i, &c) in alloc.private_palette().iter().enumerate() {
            map.insert(c, PReg(base + i as u32));
        }
        for (j, &c) in alloc.shared_palette().iter().enumerate() {
            map.insert(c, PReg(self.shared_base + j as u32));
        }
        map
    }
}

/// Rewrites one thread's function to physical registers.
///
/// Every virtual-register use reads the color of the covering fragment
/// just before its instruction, every definition writes the color just
/// after; cut flow edges become `mov` instructions (or XOR-swap
/// sequences when a parallel copy contains a cycle), inserted between
/// instructions or on split CFG edges.
///
/// # Panics
///
/// Panics if the allocation does not belong to `func` or a color is
/// missing from `color_map` (see [`try_rewrite_thread`] for the
/// panic-free variant).
pub fn rewrite_thread(
    func: &Func,
    info: &ProgramInfo,
    alloc: &ThreadAlloc,
    color_map: &HashMap<u32, PReg>,
) -> Func {
    try_rewrite_thread(func, info, alloc, color_map)
        .expect("allocation must belong to the rewritten function")
}

/// Panic-free [`rewrite_thread`]: a register without a covering
/// fragment or a color missing from `color_map` (both meaning the
/// allocation does not belong to `func`) is reported as
/// [`AllocError::InvalidAllocation`] instead of aborting.
///
/// # Errors
///
/// Returns [`AllocError::InvalidAllocation`] on any mismatch between
/// the allocation and `func`.
pub fn try_rewrite_thread(
    func: &Func,
    info: &ProgramInfo,
    alloc: &ThreadAlloc,
    color_map: &HashMap<u32, PReg>,
) -> Result<Func, AllocError> {
    // The register-mapping closures below cannot early-return, so the
    // first mismatch is parked here and checked after each pass.
    let mut fail: Option<String> = None;
    let preg_of = |color: u32, fail: &mut Option<String>| -> Reg {
        match color_map.get(&color) {
            Some(&p) => Reg::Phys(p),
            None => {
                fail.get_or_insert_with(|| format!("color {color} missing from layout map"));
                Reg::Phys(PReg(0))
            }
        }
    };
    let mut out = func.clone();

    // Substitute registers instruction by instruction.
    for (bid, block) in func.iter_blocks() {
        let new_block = &mut out.blocks[bid.index()];
        for (idx, _) in block.insts.iter().enumerate() {
            let p = info.pmap.point(bid, idx);
            let inst = &mut new_block.insts[idx];
            inst.map_uses(|r| match r {
                Reg::Virt(v) => match alloc.node_at(v, HalfPoint::before(p)) {
                    Some(node) => preg_of(alloc.node_color(node), &mut fail),
                    None => {
                        fail.get_or_insert_with(|| format!("use of {v} at {p} has no fragment"));
                        r
                    }
                },
                phys => phys,
            });
            inst.map_defs(|r| match r {
                Reg::Virt(v) => match alloc.node_at(v, HalfPoint::after(p)) {
                    Some(node) => preg_of(alloc.node_color(node), &mut fail),
                    None => {
                        fail.get_or_insert_with(|| format!("def of {v} at {p} has no fragment"));
                        r
                    }
                },
                phys => phys,
            });
        }
        let p = info.pmap.point(bid, block.insts.len());
        new_block.term.map_uses(|r| match r {
            Reg::Virt(v) => match alloc.node_at(v, HalfPoint::before(p)) {
                Some(node) => preg_of(alloc.node_color(node), &mut fail),
                None => {
                    fail.get_or_insert_with(|| {
                        format!("terminator use of {v} at {p} has no fragment")
                    });
                    r
                }
            },
            phys => phys,
        });
    }
    if let Some(reason) = fail {
        return Err(AllocError::InvalidAllocation { reason });
    }

    // Collect the moves per insertion site.
    let mut inline: HashMap<(BlockId, usize), Vec<(u32, u32)>> = HashMap::new();
    let mut on_edge: HashMap<(BlockId, BlockId), Vec<(u32, u32)>> = HashMap::new();
    for MoveSite {
        from,
        to,
        old_color,
        new_color,
        ..
    } in alloc.move_sites()
    {
        let p = from.point();
        let q = to.point();
        let (bp, ip) = info.pmap.location(p);
        let (bq, iq) = info.pmap.location(q);
        let lookup = |color: u32| -> Result<u32, AllocError> {
            color_map
                .get(&color)
                .map(|p| p.0)
                .ok_or_else(|| AllocError::InvalidAllocation {
                    reason: format!("move color {color} missing from layout map"),
                })
        };
        let dst = lookup(new_color)?;
        let src = lookup(old_color)?;
        if bp == bq && iq == ip + 1 {
            // Between two consecutive instructions of one block.
            inline.entry((bp, ip)).or_default().push((dst, src));
        } else {
            // A CFG edge — including a single-block loop's back edge
            // (`bp == bq` with `q` at the block head).
            on_edge.entry((bp, bq)).or_default().push((dst, src));
        }
    }

    // Inline insertions, applied back to front so indices stay valid.
    type InlineSites = Vec<((BlockId, usize), Vec<(u32, u32)>)>;
    let mut inline: InlineSites = inline.into_iter().collect();
    inline.sort_by_key(|&((b, i), _)| std::cmp::Reverse((b, i)));
    for ((bid, after_idx), pairs) in inline {
        let seq = sequence_parallel_copy(pairs);
        let insts = &mut out.blocks[bid.index()].insts;
        let at = after_idx + 1;
        insts.splice(at..at, seq);
    }

    // Edge insertions: prepend when the target is exclusively reached
    // from the source block, otherwise split the edge. A self-loop is
    // never "exclusive": prepending would also run the moves on the
    // first entry into the loop.
    let preds = out.predecessors();
    for ((from, to), pairs) in on_edge {
        let seq = sequence_parallel_copy(pairs);
        let exclusive = from != to && preds[to.index()].iter().all(|&p| p == from);
        if exclusive {
            let insts = &mut out.blocks[to.index()].insts;
            insts.splice(0..0, seq);
        } else {
            let mid = out.split_edge(from, to);
            out.blocks[mid.index()].insts = seq;
        }
    }

    out.num_vregs = 0;
    out.validate().map_err(|e| AllocError::InvalidAllocation {
        reason: format!("rewritten function is invalid: {e}"),
    })?;
    Ok(out)
}

/// Orders a set of simultaneous register copies so that no source is
/// overwritten before it is read; cycles are broken with XOR swaps.
fn sequence_parallel_copy(mut pending: Vec<(u32, u32)>) -> Vec<Inst> {
    let mut out = Vec::new();
    let mov = |dst: u32, src: u32| Inst::Un {
        op: UnOp::Mov,
        dst: Reg::Phys(PReg(dst)),
        src: Operand::Reg(Reg::Phys(PReg(src))),
    };
    let xor = |dst: u32, lhs: u32, rhs: u32| Inst::Bin {
        op: BinOp::Xor,
        dst: Reg::Phys(PReg(dst)),
        lhs: Reg::Phys(PReg(lhs)),
        rhs: Operand::Reg(Reg::Phys(PReg(rhs))),
    };
    loop {
        // Retargeting after a swap can leave no-op self-moves behind.
        pending.retain(|&(d, s)| d != s);
        if pending.is_empty() {
            break;
        }
        if let Some(pos) = pending
            .iter()
            .position(|&(d, _)| !pending.iter().any(|&(_, s)| s == d))
        {
            let (d, s) = pending.swap_remove(pos);
            out.push(mov(d, s));
        } else {
            // Cycle: swap the first pair's registers with XORs, then
            // retarget the remaining reads of the two registers.
            let (d, s) = pending.remove(0);
            out.push(xor(d, d, s));
            out.push(xor(s, s, d));
            out.push(xor(d, d, s));
            for (_, src) in &mut pending {
                if *src == d {
                    *src = s;
                } else if *src == s {
                    *src = d;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_copy(pairs: Vec<(u32, u32)>, regs: &mut [u32]) {
        for inst in sequence_parallel_copy(pairs) {
            match inst {
                Inst::Un {
                    dst: Reg::Phys(d),
                    src: Operand::Reg(Reg::Phys(s)),
                    ..
                } => regs[d.index()] = regs[s.index()],
                Inst::Bin {
                    op: BinOp::Xor,
                    dst: Reg::Phys(d),
                    lhs: Reg::Phys(l),
                    rhs: Operand::Reg(Reg::Phys(r)),
                } => regs[d.index()] = regs[l.index()] ^ regs[r.index()],
                other => panic!("unexpected inst {other}"),
            }
        }
    }

    #[test]
    fn parallel_copy_chain() {
        // r1 <- r0, r2 <- r1 must read old r1 for r2.
        let mut regs = [10, 20, 30];
        run_copy(vec![(1, 0), (2, 1)], &mut regs);
        assert_eq!(regs, [10, 10, 20]);
    }

    #[test]
    fn parallel_copy_swap_cycle() {
        let mut regs = [10, 20];
        run_copy(vec![(0, 1), (1, 0)], &mut regs);
        assert_eq!(regs, [20, 10]);
    }

    #[test]
    fn parallel_copy_three_cycle() {
        // r0<-r1, r1<-r2, r2<-r0.
        let mut regs = [1, 2, 3];
        run_copy(vec![(0, 1), (1, 2), (2, 0)], &mut regs);
        assert_eq!(regs, [2, 3, 1]);
    }

    #[test]
    fn layout_banks_are_disjoint() {
        let l = Layout::new(&[(3, 2), (1, 4), (0, 1)], 16);
        assert_eq!(l.private_range(0), 0..3);
        assert_eq!(l.private_range(1), 3..4);
        assert_eq!(l.private_range(2), 4..4);
        assert_eq!(l.shared_range(), 4..8);
        assert_eq!(l.sgr(), 4);
        assert_eq!(l.nreg(), 16);
    }

    #[test]
    #[should_panic(expected = "layout needs")]
    fn layout_overflow_panics() {
        Layout::new(&[(10, 10), (10, 10)], 16);
    }
}

#[cfg(test)]
mod rewrite_tests {
    use super::*;
    use crate::engine::force_min_bounds;
    use regbal_analysis::ProgramInfo;
    use regbal_ir::parse_func;

    /// The paper's Figure 9 shape: three values pairwise live across
    /// three different switches. Forcing MinPR requires splits, and the
    /// split moves land on CFG edges into the join block — exercising
    /// edge splitting in the rewriter.
    const FIG9ISH: &str = "
func f {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    beq v0, 1, bb1, bb2
bb1:
    store scratch[v0+0], v0
    v3 = add v0, v1
    jump bb3
bb2:
    store scratch[v1+0], v1
    v3 = add v1, v2
    jump bb3
bb3:
    store scratch[v2+0], v2
    v4 = add v3, v2
    store scratch[v4+4], v4
    halt
}";

    #[test]
    fn rewrite_materialises_split_moves() {
        let func = parse_func(FIG9ISH).unwrap();
        let t = force_min_bounds(&func).unwrap();
        let map = Layout::new(&[(t.pr(), t.sr())], 64).color_map(0, &t.alloc);
        let out = rewrite_thread(&func, &t.info, &t.alloc, &map);
        out.validate().unwrap();
        assert_eq!(out.num_vregs, 0);
        // Exactly the allocator's move count appears as reg-to-reg movs
        // (no parallel-copy cycles in this small case).
        if t.moves() > 0 {
            let reg_moves = out
                .iter_insts()
                .filter(|(_, _, inst)| inst.is_reg_move())
                .count();
            assert!(
                reg_moves >= t.moves(),
                "{reg_moves} movs for {} cut edges",
                t.moves()
            );
        }
    }

    #[test]
    fn rewrite_without_splits_changes_no_instruction_count() {
        let func = parse_func(
            "func g {\nbb0:\n v0 = mov 1\n ctx\n v1 = add v0, 1\n store scratch[v1+0], v1\n halt\n}",
        )
        .unwrap();
        let t = crate::engine::zero_cost_frontier(&func);
        assert_eq!(t.moves(), 0);
        let map = Layout::new(&[(t.pr(), t.sr())], 16).color_map(0, &t.alloc);
        let out = rewrite_thread(&func, &t.info, &t.alloc, &map);
        assert_eq!(out.num_insts(), func.num_insts());
        assert_eq!(out.num_blocks(), func.num_blocks());
    }

    #[test]
    fn rewritten_uses_stay_inside_the_mapped_banks() {
        let func = parse_func(FIG9ISH).unwrap();
        let info = ProgramInfo::compute(&func);
        let _ = info;
        let t = force_min_bounds(&func).unwrap();
        let layout = Layout::new(&[(t.pr(), t.sr())], 64);
        let map = layout.color_map(0, &t.alloc);
        let out = rewrite_thread(&func, &t.info, &t.alloc, &map);
        let limit = (t.pr() + t.sr()) as u32 + layout.shared_range().start
            - t.pr() as u32; // == shared end
        let check = |r: regbal_ir::Reg| {
            if let regbal_ir::Reg::Phys(p) = r {
                assert!(p.0 < limit.max(layout.shared_range().end), "register {p}");
            }
        };
        for (_, _, inst) in out.iter_insts() {
            inst.defs().for_each(check);
            inst.uses().for_each(check);
        }
    }
}

#[cfg(test)]
mod selfloop_tests {
    use super::*;
    use regbal_ir::parse_func;

    /// Regression: a move on a single-block loop's back edge must be
    /// materialised by splitting the edge, never by splicing "after the
    /// terminator" (which is out of bounds) or prepending into the loop
    /// head (which would also run on first entry). Full pipeline runs
    /// rarely place cuts there today, so the pipeline smoke test is
    /// paired with a direct simulation check.
    #[test]
    fn single_block_loop_allocates_and_runs() {
        let src = "
func selfloop {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    v9 = mov 8
    jump loop
loop:
    v3 = add v0, v1
    store scratch[v3+0], v3
    v4 = add v1, v2
    store scratch[v4+0], v4
    v5 = add v2, v0
    store scratch[v5+0], v5
    v0 = add v0, 1
    v1 = add v1, 1
    v2 = add v2, 1
    v9 = sub v9, 1
    iter_end
    bne v9, 0, loop, done
done:
    store scratch[v0+64], v1
    halt
}";
        let f = parse_func(src).unwrap();
        let t = crate::engine::force_min_bounds(&f).unwrap();
        let map = Layout::new(&[(t.pr(), t.sr())], 64).color_map(0, &t.alloc);
        let out = rewrite_thread(&f, &t.info, &t.alloc, &map);
        out.validate().unwrap();
        // Same behaviour as the reference.
        let run = |g: &Func| {
            let mut sim = regbal_sim::Simulator::new(regbal_sim::SimConfig::default());
            sim.add_thread(g.clone());
            sim.run(regbal_sim::StopWhen::Iterations(u64::MAX));
            sim.memory().read_bytes(regbal_ir::MemSpace::Scratch, 0, 128)
        };
        assert_eq!(run(&f), run(&out));
    }

    /// The self-loop edge can be split without corrupting the CFG.
    #[test]
    fn split_edge_handles_self_loops() {
        let mut f = parse_func(
            "func s {\nbb0:\n v0 = mov 4\n jump bb1\nbb1:\n v0 = sub v0, 1\n bne v0, 0, bb1, bb2\nbb2:\n halt\n}",
        )
        .unwrap();
        let mid = f.split_edge(regbal_ir::BlockId(1), regbal_ir::BlockId(1));
        f.validate().unwrap();
        // bb1's back edge now goes through `mid`.
        let succs: Vec<_> = f.block(regbal_ir::BlockId(1)).term.successors().collect();
        assert!(succs.contains(&mid));
        assert!(!succs.contains(&regbal_ir::BlockId(1)));
    }
}
