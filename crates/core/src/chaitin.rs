//! Chaitin-style graph-coloring register allocation with spilling — the
//! baseline the paper's evaluation compares against (the stock compiler
//! gives each thread a fixed 32-register partition and spills when it
//! runs out; spills are memory operations that cost a context switch).
//!
//! Standard Chaitin-Briggs: build the interference graph, simplify
//! (remove nodes of degree `< k`), optimistically push potential spills,
//! color on pop, insert spill code for the failures, repeat.
//!
//! [`partition`] is that baseline for a thread group: each thread gets
//! an equal private bank of the file and [`allocate`] colors it alone.
//! Every fixed-partition allocation of the workspace goes through it —
//! the ladder's two Chaitin rungs, the sweep's `fixed-partition`
//! strategy, Table 3 and Figure 14 — and every result it returns is
//! checked to stay inside its banks.
//!
//! Spill code addresses its slot by materialising the address in a
//! fresh temporary (`tmp = mov slot; store sram[tmp+0], v`), because the
//! ISA has no absolute addressing; this mirrors real IXP microcode,
//! where spill addresses also occupy a register.

use crate::engine::ThreadSummary;
use crate::error::AllocError;
use regbal_analysis::ProgramInfo;
use regbal_igraph::build_gig;
use regbal_ir::{
    Func, Inst, MemSpace, Operand, PReg, Reg, UnOp, VReg,
};
use std::ops::Range;

/// Byte stride between the spill areas of consecutive threads of a
/// [`partition`].
pub(crate) const THREAD_STRIDE: i64 = 0x1000;

/// Configuration of the baseline allocator.
#[derive(Debug, Clone)]
pub struct ChaitinConfig {
    /// Colors (physical registers) available to this thread.
    pub k: usize,
    /// First physical register of the thread's bank.
    pub phys_base: u32,
    /// Memory space for spill slots.
    pub spill_space: MemSpace,
    /// Base byte address of the spill area.
    pub spill_base: i64,
}

/// Result of the baseline allocation.
#[derive(Debug, Clone)]
pub struct ChaitinResult {
    /// The function rewritten to physical registers, with spill code.
    pub func: Func,
    /// Virtual registers that were spilled to memory.
    pub spilled: usize,
    /// Spill reload (`load`) instructions inserted.
    pub spill_loads: usize,
    /// Spill store instructions inserted.
    pub spill_stores: usize,
    /// Build–spill rounds needed to converge.
    pub rounds: usize,
}

const MAX_ROUNDS: usize = 24;

/// Allocates `func` with `config.k` registers, spilling as needed.
///
/// # Errors
///
/// Returns [`AllocError::SpillDiverged`] if spilling fails to converge
/// within a bounded number of rounds (pathological inputs only).
///
/// # Example
///
/// ```
/// use regbal_core::chaitin::{allocate, ChaitinConfig};
///
/// let f = regbal_ir::parse_func(
///     "func f {\nbb0:\n v0 = mov 1\n v1 = add v0, 2\n store scratch[v1+0], v1\n halt\n}",
/// )?;
/// let bank = ChaitinConfig {
///     k: 32,
///     phys_base: 0,
///     spill_space: regbal_ir::MemSpace::Sram,
///     spill_base: 0x1_0000,
/// };
/// let result = allocate(&f, &bank)?;
/// assert_eq!(result.spilled, 0);
/// assert_eq!(result.func.num_vregs, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn allocate(func: &Func, config: &ChaitinConfig) -> Result<ChaitinResult, AllocError> {
    let mut work = func.clone();
    // A wide burst defines (or reads) all its registers at one instant —
    // an unspillable clique. With a small bank, real microcode issues
    // narrower bursts; mirror that before coloring.
    let burst_cap = (config.k / 3).clamp(2, regbal_ir::MAX_BURST);
    split_wide_bursts(&mut work, burst_cap);
    let original_vregs = func.num_vregs;
    let mut spilled_total = 0usize;
    let mut spill_loads = 0usize;
    let mut spill_stores = 0usize;
    let mut next_slot = 0i64;
    let mut already_spilled: Vec<bool> = vec![false; original_vregs as usize];

    for round in 1..=MAX_ROUNDS {
        let info = ProgramInfo::compute(&work);
        let gig = build_gig(&info);
        let nv = work.num_vregs as usize;

        // Occurrence counts for the spill metric.
        let mut occurrences = vec![0usize; nv];
        for v in work.regs().filter_map(Reg::as_virt) {
            occurrences[v.index()] += 1;
        }

        let live: Vec<bool> = (0..nv).map(|v| occurrences[v] > 0).collect();
        let colors = color_with_spills(&gig, &live, config.k, |v| {
            // Spill-generated temporaries and already-spilled ranges get
            // infinite cost: re-spilling them cannot relieve pressure.
            if (v as u32) >= original_vregs || already_spilled[v] {
                f64::INFINITY
            } else {
                occurrences[v] as f64 / (gig.degree(v).max(1) as f64)
            }
        });

        let to_spill: Vec<VReg> = colors
            .iter()
            .enumerate()
            .filter(|&(v, c)| live[v] && c.is_none())
            .map(|(v, _)| VReg(v as u32))
            .collect();

        if to_spill.is_empty() {
            let rewritten = apply_colors(&work, &colors, config.phys_base);
            return Ok(ChaitinResult {
                func: rewritten,
                spilled: spilled_total,
                spill_loads,
                spill_stores,
                rounds: round,
            });
        }
        if to_spill.iter().any(|v| v.0 >= original_vregs) {
            return Err(AllocError::SpillDiverged { rounds: round });
        }
        spilled_total += to_spill.len();
        for v in to_spill {
            already_spilled[v.index()] = true;
            let slot = config.spill_base + next_slot;
            next_slot += 4;
            let (l, s) = insert_spill_code(&mut work, v, slot, config.spill_space);
            spill_loads += l;
            spill_stores += s;
        }
    }
    Err(AllocError::SpillDiverged { rounds: MAX_ROUNDS })
}

/// A thread group allocated over the fixed partition: thread `t` owns
/// the private bank `[t·k, (t+1)·k)` and nothing is shared.
#[derive(Debug, Clone)]
pub struct Partition {
    /// The thread programs, rewritten to physical registers (spill code
    /// included), in input order.
    pub funcs: Vec<Func>,
    /// Bank size per thread.
    pub k: usize,
    /// Live ranges spilled per thread.
    pub spills: Vec<usize>,
}

impl Partition {
    /// Per-thread `(PR, SR, moves, spills)` accounting: each thread's
    /// private registers are its whole bank, and it shares none.
    pub fn thread_summaries(&self) -> Vec<ThreadSummary> {
        self.spills
            .iter()
            .map(|&spills| ThreadSummary {
                pr: self.k,
                sr: 0,
                moves: 0,
                spills,
            })
            .collect()
    }

    /// Each thread's private bank, in thread order.
    pub fn banks(&self) -> Vec<Range<u32>> {
        (0..self.funcs.len())
            .map(|t| (t * self.k) as u32..((t + 1) * self.k) as u32)
            .collect()
    }

    /// Distinct registers the rewritten programs name (all physical:
    /// [`partition`] checks every thread).
    pub fn registers_used(&self) -> usize {
        let used: std::collections::BTreeSet<Reg> =
            self.funcs.iter().flat_map(Func::regs).collect();
        used.len()
    }
}

/// Allocates `funcs` over the stock compiler's fixed partition of an
/// `nreg`-register file: thread `t` gets the bank `[t·k, (t+1)·k)` with
/// `k = nreg / max(1, funcs.len())`, and [`allocate`] colors it alone,
/// spilling to SRAM slots from `spill_base + t·0x1000`. Every rewritten
/// thread is checked to name only physical registers of its own bank.
///
/// # Errors
///
/// [`AllocError::Infeasible`] when a bank would be empty, the first
/// thread's [`allocate`] error, or [`AllocError::InvalidAllocation`]
/// when a rewritten thread leaves its bank.
pub fn partition(funcs: &[Func], nreg: usize, spill_base: i64) -> Result<Partition, AllocError> {
    let nthd = funcs.len().max(1);
    let k = nreg / nthd;
    if k == 0 {
        return Err(AllocError::Infeasible {
            needed: nthd,
            available: nreg,
        });
    }
    let mut physical = Vec::with_capacity(funcs.len());
    let mut spills = Vec::with_capacity(funcs.len());
    for (t, func) in funcs.iter().enumerate() {
        let bank = ChaitinConfig {
            k,
            phys_base: (t * k) as u32,
            spill_space: MemSpace::Sram,
            spill_base: spill_base + (t as i64) * THREAD_STRIDE,
        };
        let result = allocate(func, &bank)?;
        verify_partition(&result.func, t, k)?;
        spills.push(result.spilled);
        physical.push(result.func);
    }
    Ok(Partition {
        funcs: physical,
        k,
        spills,
    })
}

/// Checks that a rewritten thread stays inside its private bank
/// `[t·k, (t+1)·k)` and holds no residual virtual registers.
fn verify_partition(func: &Func, t: usize, k: usize) -> Result<(), AllocError> {
    let (lo, hi) = ((t * k) as u32, ((t + 1) * k) as u32);
    func.regs().try_for_each(|r| {
        let reason = match r {
            Reg::Phys(p) if (lo..hi).contains(&p.0) => return Ok(()),
            Reg::Phys(p) => format!("thread {t} uses {p} outside its bank [{lo}, {hi})"),
            Reg::Virt(v) => format!("thread {t} still uses virtual register {v}"),
        };
        Err(AllocError::InvalidAllocation { reason })
    })
}

/// Chaitin-Briggs simplify/select. Returns a color `< k` per live node
/// or `None` for actual spills.
fn color_with_spills(
    gig: &regbal_igraph::Graph,
    live: &[bool],
    k: usize,
    spill_cost: impl Fn(usize) -> f64,
) -> Vec<Option<u32>> {
    let n = gig.len();
    let mut in_graph: Vec<bool> = live.to_vec();
    let degree = |v: usize, in_graph: &[bool]| {
        gig.neighbors(v).iter().filter(|&n| in_graph[n]).count()
    };
    let mut stack = Vec::with_capacity(n);
    loop {
        // Simplify: remove a trivially colorable node.
        if let Some(v) = (0..n).find(|&v| in_graph[v] && degree(v, &in_graph) < k) {
            in_graph[v] = false;
            stack.push(v);
            continue;
        }
        // Optimistic potential spill: cheapest remaining node.
        let Some(v) = (0..n)
            .filter(|&v| in_graph[v])
            .min_by(|&a, &b| {
                spill_cost(a)
                    .partial_cmp(&spill_cost(b))
                    .expect("spill costs are comparable")
            })
        else {
            break;
        };
        in_graph[v] = false;
        stack.push(v);
    }

    let mut colors: Vec<Option<u32>> = vec![None; n];
    while let Some(v) = stack.pop() {
        let used: Vec<u32> = gig.neighbors(v).iter().filter_map(|n| colors[n]).collect();
        colors[v] = (0..k as u32).find(|c| !used.contains(c));
    }
    colors
}

/// Splits burst memory operations wider than `max_len` words into
/// consecutive narrower bursts (each still a single context-switching
/// memory operation).
fn split_wide_bursts(func: &mut Func, max_len: usize) {
    for block in &mut func.blocks {
        let mut insts = Vec::with_capacity(block.insts.len());
        for inst in std::mem::take(&mut block.insts) {
            match inst {
                Inst::LoadBurst {
                    dsts,
                    base,
                    offset,
                    space,
                } if dsts.len() > max_len => {
                    for (i, chunk) in dsts.chunks(max_len).enumerate() {
                        insts.push(Inst::LoadBurst {
                            dsts: chunk.to_vec(),
                            base,
                            offset: offset + (i * max_len * 4) as i64,
                            space,
                        });
                    }
                }
                Inst::StoreBurst {
                    srcs,
                    base,
                    offset,
                    space,
                } if srcs.len() > max_len => {
                    for (i, chunk) in srcs.chunks(max_len).enumerate() {
                        insts.push(Inst::StoreBurst {
                            srcs: chunk.to_vec(),
                            base,
                            offset: offset + (i * max_len * 4) as i64,
                            space,
                        });
                    }
                }
                other => insts.push(other),
            }
        }
        block.insts = insts;
    }
}

/// Rewrites all virtual registers to `phys_base + color`.
fn apply_colors(func: &Func, colors: &[Option<u32>], phys_base: u32) -> Func {
    let map = |r: Reg| -> Reg {
        match r {
            Reg::Virt(v) => {
                let c = colors[v.index()].expect("colored before rewrite");
                Reg::Phys(PReg(phys_base + c))
            }
            phys => phys,
        }
    };
    let mut out = func.clone();
    for block in &mut out.blocks {
        for inst in &mut block.insts {
            inst.map_uses(map);
            inst.map_defs(map);
        }
        block.term.map_uses(map);
    }
    out.num_vregs = 0;
    out.validate().expect("rewritten function must be valid");
    out
}

/// Rewrites `func` so that `v` lives in memory slot `slot`: a store
/// after every definition, a reload into a fresh temporary before every
/// use. Returns `(loads, stores)` inserted.
pub fn insert_spill_code(func: &mut Func, v: VReg, slot: i64, space: MemSpace) -> (usize, usize) {
    let mut loads = 0usize;
    let mut stores = 0usize;
    let mut next_vreg = func.num_vregs;
    let mut fresh = || {
        let r = VReg(next_vreg);
        next_vreg += 1;
        r
    };

    for block in &mut func.blocks {
        let mut insts = Vec::with_capacity(block.insts.len());
        for mut inst in std::mem::take(&mut block.insts) {
            let uses_v = inst.uses().any(|r| r == Reg::Virt(v));
            if uses_v {
                let addr = fresh();
                let tmp = fresh();
                insts.push(Inst::Un {
                    op: UnOp::Mov,
                    dst: Reg::Virt(addr),
                    src: Operand::Imm(slot),
                });
                insts.push(Inst::Load {
                    dst: Reg::Virt(tmp),
                    base: Reg::Virt(addr),
                    offset: 0,
                    space,
                });
                loads += 1;
                inst.map_uses(|r| if r == Reg::Virt(v) { Reg::Virt(tmp) } else { r });
            }
            let defs_v = inst.defs().any(|r| r == Reg::Virt(v));
            insts.push(inst);
            if defs_v {
                let addr = fresh();
                insts.push(Inst::Un {
                    op: UnOp::Mov,
                    dst: Reg::Virt(addr),
                    src: Operand::Imm(slot),
                });
                insts.push(Inst::Store {
                    src: Reg::Virt(v),
                    base: Reg::Virt(addr),
                    offset: 0,
                    space,
                });
                stores += 1;
            }
        }
        // Terminator uses reload at the end of the block.
        if block.term.uses().any(|r| r == Reg::Virt(v)) {
            let addr = fresh();
            let tmp = fresh();
            insts.push(Inst::Un {
                op: UnOp::Mov,
                dst: Reg::Virt(addr),
                src: Operand::Imm(slot),
            });
            insts.push(Inst::Load {
                dst: Reg::Virt(tmp),
                base: Reg::Virt(addr),
                offset: 0,
                space,
            });
            loads += 1;
            block
                .term
                .map_uses(|r| if r == Reg::Virt(v) { Reg::Virt(tmp) } else { r });
        }
        block.insts = insts;
    }
    func.num_vregs = next_vreg;
    (loads, stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    #[test]
    fn no_spill_when_registers_suffice() {
        let f = parse_func(
            "func f {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = add v0, v1\n store scratch[v2+0], v2\n halt\n}",
        )
        .unwrap();
        let cfg = ChaitinConfig {
            k: 32,
            phys_base: 0,
            spill_space: MemSpace::Sram,
            spill_base: 0x1_0000,
        };
        let r = allocate(&f, &cfg).unwrap();
        assert_eq!(r.spilled, 0);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.func.num_vregs, 0);
        assert_eq!(r.func.num_insts(), f.num_insts());
    }

    #[test]
    fn spills_when_pressure_exceeds_k() {
        // Five co-live values, two registers.
        let src = "
func hot {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    v3 = mov 4
    v4 = mov 5
    v5 = add v0, v1
    v5 = add v5, v2
    v5 = add v5, v3
    v5 = add v5, v4
    store scratch[v5+0], v5
    halt
}";
        let f = parse_func(src).unwrap();
        let cfg = ChaitinConfig {
            k: 2,
            phys_base: 0,
            spill_space: MemSpace::Sram,
            spill_base: 0x8000,
        };
        let r = allocate(&f, &cfg).unwrap();
        assert!(r.spilled >= 3, "spilled {}", r.spilled);
        assert!(r.spill_loads > 0 && r.spill_stores > 0);
        assert!(r.func.num_ctx_insts() > f.num_ctx_insts());
        r.func.validate().unwrap();
    }

    #[test]
    fn colors_respect_k() {
        let src = "
func mid {
bb0:
    v0 = mov 1
    v1 = mov 2
    v2 = mov 3
    v3 = add v0, v1
    v3 = add v3, v2
    store scratch[v3+0], v3
    halt
}";
        let f = parse_func(src).unwrap();
        let cfg = ChaitinConfig {
            k: 3,
            phys_base: 10,
            spill_space: MemSpace::Sram,
            spill_base: 0,
        };
        let r = allocate(&f, &cfg).unwrap();
        // Every physical register must come from the bank 10..13, unless
        // spilling introduced temporaries (still inside the bank).
        for (_, _, inst) in r.func.iter_insts() {
            let check = |reg: Reg| {
                if let Reg::Phys(p) = reg {
                    assert!((10..13).contains(&p.0), "register {p} outside bank");
                }
            };
            inst.defs().for_each(check);
            inst.uses().for_each(check);
        }
    }

    #[test]
    fn loop_pressure_spills_converge() {
        // A loop with more co-live accumulators than registers.
        let src = "
func loopy {
bb0:
    v0 = mov 0
    v1 = mov 1
    v2 = mov 2
    v3 = mov 3
    v4 = mov 100
    jump bb1
bb1:
    v0 = add v0, v1
    v1 = add v1, v2
    v2 = add v2, v3
    v3 = add v3, 1
    v4 = sub v4, 1
    bne v4, 0, bb1, bb2
bb2:
    store scratch[v0+0], v1
    halt
}";
        let f = parse_func(src).unwrap();
        let cfg = ChaitinConfig {
            k: 3,
            phys_base: 0,
            spill_space: MemSpace::Sram,
            spill_base: 0,
        };
        let r = allocate(&f, &cfg).unwrap();
        assert!(r.spilled > 0);
        r.func.validate().unwrap();
    }

    /// Five co-live values per thread: a bank of fewer registers spills.
    fn hot() -> Func {
        parse_func(
            "func hot {\nbb0:\n v0 = mov 1\n v1 = mov 2\n v2 = mov 3\n v3 = mov 4\n v4 = mov 5\n v5 = add v0, v1\n v5 = add v5, v2\n v5 = add v5, v3\n v5 = add v5, v4\n store scratch[v5+0], v5\n halt\n}",
        )
        .unwrap()
    }

    #[test]
    fn fixed_partition_banks() {
        let p = partition(&[hot(), hot(), hot()], 128, 0x1_0000).unwrap();
        assert_eq!(p.k, 42, "128 / 3 threads, the remainder unused");
        assert_eq!(p.banks(), vec![0..42, 42..84, 84..126]);
        for (f, bank) in p.funcs.iter().zip(p.banks()) {
            assert!(f
                .regs()
                .all(|r| matches!(r, Reg::Phys(q) if bank.contains(&q.0))));
        }
        assert_eq!(
            p.thread_summaries(),
            vec![
                ThreadSummary {
                    pr: 42,
                    sr: 0,
                    moves: 0,
                    spills: 0
                };
                3
            ]
        );
        assert_eq!(p.registers_used(), 3 * 5);
    }

    #[test]
    fn each_thread_spills_into_its_own_area() {
        let p = partition(&[hot(), hot()], 6, 0x8000).unwrap();
        assert_eq!(p.k, 3);
        assert!(p.spills.iter().all(|&s| s > 0), "{:?}", p.spills);
        for (t, f) in p.funcs.iter().enumerate() {
            let area = 0x8000 + t as i64 * THREAD_STRIDE..0x8000 + (t as i64 + 1) * THREAD_STRIDE;
            let slots: Vec<i64> = f
                .iter_insts()
                .filter_map(|(_, _, inst)| match inst {
                    Inst::Un {
                        src: Operand::Imm(slot),
                        ..
                    } if *slot >= 0x8000 => Some(*slot),
                    _ => None,
                })
                .collect();
            assert!(!slots.is_empty());
            assert!(
                slots.iter().all(|s| area.contains(s)),
                "thread {t}: {slots:?}"
            );
        }
    }

    #[test]
    fn an_empty_bank_is_infeasible() {
        let err = partition(&[hot(), hot(), hot()], 2, 0).unwrap_err();
        assert_eq!(
            err,
            AllocError::Infeasible {
                needed: 3,
                available: 2
            }
        );
    }

    #[test]
    fn the_bank_check_names_the_first_stray_register() {
        let inside = partition(&[hot()], 8, 0).unwrap().funcs.remove(0);
        verify_partition(&inside, 0, 8).unwrap();
        let first = inside.regs().next().unwrap();
        let err = verify_partition(&inside, 1, 8).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("thread 1 uses {first} outside its bank [8, 16)")),
            "{err}"
        );
        let err = verify_partition(&hot(), 0, 8).unwrap_err();
        assert!(
            err.to_string()
                .contains("thread 0 still uses virtual register v0"),
            "{err}"
        );
    }
}
