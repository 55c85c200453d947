//! Non-terminator instructions of the IXP-style RISC core.

use crate::reg::{Operand, Reg};

/// Two-operand ALU operations. All complete in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (modelled as a 1-cycle ALU op).
    Mul,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (shift amount taken modulo 32).
    Shl,
    /// Logical shift right (shift amount taken modulo 32).
    Shr,
    /// Arithmetic shift right (shift amount taken modulo 32).
    Asr,
    /// Set `dst` to 1 if `lhs < rhs` as signed 32-bit values, else 0.
    SetLt,
    /// Set `dst` to 1 if `lhs < rhs` as unsigned 32-bit values, else 0.
    SetLtU,
}

impl BinOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Asr => "asr",
            BinOp::SetLt => "slt",
            BinOp::SetLtU => "sltu",
        }
    }

    /// All binary operations, in mnemonic-table order.
    pub const ALL: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Asr,
        BinOp::SetLt,
        BinOp::SetLtU,
    ];
}

/// Single-operand ALU operations. All complete in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Register/immediate copy. The allocator inserts these to split live
    /// ranges; the paper's cost objective minimises their number.
    Mov,
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

impl UnOp {
    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Mov => "mov",
            UnOp::Not => "not",
            UnOp::Neg => "neg",
        }
    }

    /// All unary operations.
    pub const ALL: [UnOp; 3] = [UnOp::Mov, UnOp::Not, UnOp::Neg];
}

/// Branch conditions (signed and unsigned 32-bit comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    LtU,
    /// Unsigned greater-or-equal.
    GeU,
}

impl Cond {
    /// The assembly mnemonic (used as a branch suffix, e.g. `beq`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::LtU => "ltu",
            Cond::GeU => "geu",
        }
    }

    /// All conditions.
    pub const ALL: [Cond; 8] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::LtU,
        Cond::GeU,
    ];

    /// Evaluates the condition on two 32-bit values.
    pub fn eval(self, lhs: u32, rhs: u32) -> bool {
        let (sl, sr) = (lhs as i32, rhs as i32);
        match self {
            Cond::Eq => lhs == rhs,
            Cond::Ne => lhs != rhs,
            Cond::Lt => sl < sr,
            Cond::Le => sl <= sr,
            Cond::Gt => sl > sr,
            Cond::Ge => sl >= sr,
            Cond::LtU => lhs < rhs,
            Cond::GeU => lhs >= rhs,
        }
    }
}

/// The memory space targeted by a `load`/`store`.
///
/// Each space has its own latency in the simulator; all of them are
/// long-latency operations that context-switch the issuing thread
/// (IXP1200: no cache, ≥ 20 cycles per access, §1.1 feature 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// On-chip scratchpad memory (lowest latency of the paper's three).
    Scratch,
    /// Off-chip SRAM (control structures, tables).
    Sram,
    /// Off-chip SDRAM (packet data, highest latency).
    Sdram,
    /// The small per-PU-cluster shared fast store (RegDem-style spill
    /// scratchpad): a few cycles per access, far below even `Scratch`.
    /// The allocator's `balanced-scratch` rung packs its cheapest spill
    /// slots here.
    Spad,
}

impl MemSpace {
    /// The assembly name of the space.
    pub fn name(self) -> &'static str {
        match self {
            MemSpace::Scratch => "scratch",
            MemSpace::Sram => "sram",
            MemSpace::Sdram => "sdram",
            MemSpace::Spad => "spad",
        }
    }

    /// All memory spaces.
    pub const ALL: [MemSpace; 4] = [
        MemSpace::Scratch,
        MemSpace::Sram,
        MemSpace::Sdram,
        MemSpace::Spad,
    ];
}

/// A non-terminator instruction.
///
/// Instructions that can trigger a context switch — `Ctx`, `Load` and
/// `Store` — are the *CSB* (context-switch boundary) instructions of the
/// paper; see [`Inst::is_ctx_switch`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `dst = op(lhs, rhs)`.
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left (register) source.
        lhs: Reg,
        /// Right source (register or immediate).
        rhs: Operand,
    },
    /// `dst = op(src)`.
    Un {
        /// Operation.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Source (register or immediate).
        src: Operand,
    },
    /// `dst = space[base + offset]`; context-switches the thread while the
    /// access completes. Per the paper's transfer-register model
    /// (footnote 3), `dst` is **not** live across the switch: the data
    /// arrives in a per-thread transfer register and is moved to `dst`
    /// when the thread resumes.
    Load {
        /// Destination register (written at thread resume).
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Target memory space.
        space: MemSpace,
    },
    /// `space[base + offset] = src`; context-switches the thread while the
    /// write completes.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Target memory space.
        space: MemSpace,
    },
    /// Burst read: `dsts[i] = space[base + offset + 4·i]` — the IXP's
    /// multi-word memory reads through transfer registers. One context
    /// switch covers the whole burst, and like [`Inst::Load`] the
    /// destinations are written at thread resume, so none of them is
    /// live across the switch.
    LoadBurst {
        /// Destination registers, in address order (1 to 16 words).
        dsts: Vec<Reg>,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Target memory space.
        space: MemSpace,
    },
    /// Burst write: `space[base + offset + 4·i] = srcs[i]`. The sources
    /// are read when the instruction issues (into write transfer
    /// registers), so they are dead across the switch.
    StoreBurst {
        /// Source registers, in address order (1 to 16 words).
        srcs: Vec<Reg>,
        /// Base address register.
        base: Reg,
        /// Byte offset added to the base.
        offset: i64,
        /// Target memory space.
        space: MemSpace,
    },
    /// Microcode subroutine call. The callee shares the caller's
    /// register namespace (as IXP subroutines do — values are passed in
    /// registers without renaming), so a call carries no operands.
    /// Calls exist only at the module level: [`crate::inline_module`]
    /// expands them before analysis, allocation or simulation.
    Call {
        /// Name of the called function within the module.
        callee: String,
    },
    /// Voluntary context switch (`ctx_arb`); costs one cycle and yields
    /// the processing unit to the next ready thread.
    Ctx,
    /// Pseudo-instruction marking the end of one main-loop iteration;
    /// free at run time, used by the simulator for per-iteration cycle
    /// statistics (the paper reports cycles per main-loop iteration, §9).
    IterEnd,
    /// No operation (one cycle).
    Nop,
}

/// Maximum words in a burst memory operation (the IXP's transfer
/// register file holds 16 words per direction per thread).
pub const MAX_BURST: usize = 16;

impl Inst {
    /// The register defined by this instruction when it defines exactly
    /// one; burst loads define several — see [`Inst::defs`].
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Inst::Bin { dst, .. } | Inst::Un { dst, .. } | Inst::Load { dst, .. } => Some(dst),
            Inst::LoadBurst { .. }
            | Inst::Store { .. }
            | Inst::StoreBurst { .. }
            | Inst::Call { .. }
            | Inst::Ctx
            | Inst::IterEnd
            | Inst::Nop => None,
        }
    }

    /// All registers defined by this instruction.
    pub fn defs(&self) -> impl Iterator<Item = Reg> + '_ {
        let burst: &[Reg] = match self {
            Inst::LoadBurst { dsts, .. } => dsts,
            _ => &[],
        };
        self.def().into_iter().chain(burst.iter().copied())
    }

    /// The registers read by this instruction.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        let pair: [Option<Reg>; 2] = match *self {
            Inst::Bin { lhs, rhs, .. } => [Some(lhs), rhs.reg()],
            Inst::Un { src, .. } => [src.reg(), None],
            Inst::Load { base, .. } | Inst::LoadBurst { base, .. } => [Some(base), None],
            Inst::Store { src, base, .. } => [Some(src), Some(base)],
            Inst::StoreBurst { base, .. } => [Some(base), None],
            Inst::Call { .. } | Inst::Ctx | Inst::IterEnd | Inst::Nop => [None, None],
        };
        let burst: &[Reg] = match self {
            Inst::StoreBurst { srcs, .. } => srcs,
            _ => &[],
        };
        pair.into_iter().flatten().chain(burst.iter().copied())
    }

    /// Returns `true` if executing this instruction switches the thread
    /// out (a *CSB instruction*: explicit `ctx` or a memory access).
    pub fn is_ctx_switch(&self) -> bool {
        matches!(
            self,
            Inst::Ctx
                | Inst::Load { .. }
                | Inst::Store { .. }
                | Inst::LoadBurst { .. }
                | Inst::StoreBurst { .. }
        )
    }

    /// Returns `true` for `mov` between two registers (the live-range
    /// splitting instruction whose count the allocator minimises).
    pub fn is_reg_move(&self) -> bool {
        matches!(
            self,
            Inst::Un {
                op: UnOp::Mov,
                src: Operand::Reg(_),
                ..
            }
        )
    }

    /// Rewrites every *use* register through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        let map_op = |o: &mut Operand, f: &mut dyn FnMut(Reg) -> Reg| {
            if let Operand::Reg(r) = o {
                *r = f(*r);
            }
        };
        match self {
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                map_op(rhs, &mut f);
            }
            Inst::Un { src, .. } => map_op(src, &mut f),
            Inst::Load { base, .. } | Inst::LoadBurst { base, .. } => *base = f(*base),
            Inst::Store { src, base, .. } => {
                *src = f(*src);
                *base = f(*base);
            }
            Inst::StoreBurst { srcs, base, .. } => {
                for s in srcs {
                    *s = f(*s);
                }
                *base = f(*base);
            }
            Inst::Call { .. } | Inst::Ctx | Inst::IterEnd | Inst::Nop => {}
        }
    }

    /// Rewrites every *def* register through `f`.
    pub fn map_defs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Bin { dst, .. } | Inst::Un { dst, .. } | Inst::Load { dst, .. } => *dst = f(*dst),
            Inst::LoadBurst { dsts, .. } => {
                for d in dsts {
                    *d = f(*d);
                }
            }
            Inst::Store { .. }
            | Inst::StoreBurst { .. }
            | Inst::Call { .. }
            | Inst::Ctx
            | Inst::IterEnd
            | Inst::Nop => {}
        }
    }

    /// Returns `true` for a subroutine call (must be inlined before
    /// analysis or simulation).
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Reg, VReg};

    fn v(i: u32) -> Reg {
        Reg::Virt(VReg(i))
    }

    #[test]
    fn defs_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: Operand::Reg(v(2)),
        };
        assert_eq!(i.def(), Some(v(0)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![v(1), v(2)]);

        let i = Inst::Bin {
            op: BinOp::Add,
            dst: v(0),
            lhs: v(1),
            rhs: Operand::Imm(3),
        };
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![v(1)]);

        let i = Inst::Store {
            src: v(4),
            base: v(5),
            offset: 8,
            space: MemSpace::Sram,
        };
        assert_eq!(i.def(), None);
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![v(4), v(5)]);

        assert_eq!(Inst::Ctx.def(), None);
        assert_eq!(Inst::Ctx.uses().count(), 0);
    }

    #[test]
    fn ctx_switch_classification() {
        assert!(Inst::Ctx.is_ctx_switch());
        assert!(Inst::Load {
            dst: v(0),
            base: v(1),
            offset: 0,
            space: MemSpace::Sdram
        }
        .is_ctx_switch());
        assert!(Inst::Store {
            src: v(0),
            base: v(1),
            offset: 0,
            space: MemSpace::Scratch
        }
        .is_ctx_switch());
        assert!(!Inst::Nop.is_ctx_switch());
        assert!(!Inst::IterEnd.is_ctx_switch());
        assert!(!Inst::Un {
            op: UnOp::Mov,
            dst: v(0),
            src: Operand::Imm(1)
        }
        .is_ctx_switch());
    }

    #[test]
    fn reg_move_classification() {
        let m = Inst::Un {
            op: UnOp::Mov,
            dst: v(0),
            src: Operand::Reg(v(1)),
        };
        assert!(m.is_reg_move());
        let imm = Inst::Un {
            op: UnOp::Mov,
            dst: v(0),
            src: Operand::Imm(7),
        };
        assert!(!imm.is_reg_move());
    }

    #[test]
    fn map_uses_and_def() {
        let mut i = Inst::Bin {
            op: BinOp::Xor,
            dst: v(0),
            lhs: v(1),
            rhs: Operand::Reg(v(2)),
        };
        i.map_uses(|r| if r == v(1) { v(10) } else { r });
        i.map_defs(|_| v(20));
        assert_eq!(i.def(), Some(v(20)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![v(10), v(2)]);
    }

    #[test]
    fn cond_eval_signed_and_unsigned() {
        assert!(Cond::Lt.eval(u32::MAX, 1)); // -1 < 1 signed
        assert!(!Cond::LtU.eval(u32::MAX, 1));
        assert!(Cond::GeU.eval(u32::MAX, 1));
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = BinOp::ALL.iter().map(|o| o.mnemonic()).collect();
        names.extend(UnOp::ALL.iter().map(|o| o.mnemonic()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
