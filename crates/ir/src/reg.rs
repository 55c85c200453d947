//! Register and operand types.

use std::fmt;

/// A virtual register, the unit of allocation before register assignment.
///
/// Virtual registers are function-local and numbered densely from zero;
/// the paper calls a virtual register's live range a *node* of the
/// interference graph (one live range per variable is assumed, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl VReg {
    /// The dense index of this virtual register.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A physical general-purpose register of the processing unit.
///
/// The IXP1200 model exposes `Nreg = 128` GPRs shared by all threads of a
/// micro-engine; the allocator decides which physical registers are
/// *private* to a thread and which are *shared* across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PReg(pub u32);

impl PReg {
    /// The index of this physical register in the shared register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A register reference: virtual before allocation, physical after.
///
/// A function normally uses registers of one kind only; [`crate::Func`]
/// validation does not enforce this, but the analyses in
/// `regbal-analysis` operate on virtual registers and the simulator in
/// `regbal-sim` accepts both (virtual registers execute against a
/// per-thread spill-free register file, which gives the reference
/// semantics that allocated code must preserve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Reg {
    /// A virtual (pre-allocation) register.
    Virt(VReg),
    /// A physical (post-allocation) register.
    Phys(PReg),
}

impl Reg {
    /// Returns the virtual register, if this is one.
    pub fn as_virt(self) -> Option<VReg> {
        match self {
            Reg::Virt(v) => Some(v),
            Reg::Phys(_) => None,
        }
    }
}

impl From<VReg> for Reg {
    fn from(v: VReg) -> Reg {
        Reg::Virt(v)
    }
}

impl From<PReg> for Reg {
    fn from(p: PReg) -> Reg {
        Reg::Phys(p)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Virt(v) => v.fmt(f),
            Reg::Phys(p) => p.fmt(f),
        }
    }
}

/// A source operand: either a register or a (sign-extended) immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(Reg),
    /// An immediate constant.
    Imm(i64),
}

impl Operand {
    /// Returns the register if the operand reads one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<VReg> for Operand {
    fn from(v: VReg) -> Operand {
        Operand::Reg(Reg::Virt(v))
    }
}

impl From<PReg> for Operand {
    fn from(p: PReg) -> Operand {
        Operand::Reg(Reg::Phys(p))
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Operand {
        Operand::Imm(i)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => r.fmt(f),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VReg(7).to_string(), "v7");
        assert_eq!(PReg(3).to_string(), "r3");
        assert_eq!(Reg::Virt(VReg(0)).to_string(), "v0");
        assert_eq!(Operand::Imm(-4).to_string(), "-4");
        assert_eq!(Operand::from(VReg(2)).to_string(), "v2");
    }

    #[test]
    fn conversions() {
        let r: Reg = VReg(1).into();
        assert_eq!(r.as_virt(), Some(VReg(1)));
        let r: Reg = PReg(9).into();
        let o: Operand = 5i64.into();
        assert_eq!(o.reg(), None);
        let o: Operand = r.into();
        assert_eq!(o.reg(), Some(r));
    }

    #[test]
    fn ordering_and_index() {
        assert!(VReg(1) < VReg(2));
        assert_eq!(VReg(4).index(), 4);
        assert_eq!(PReg(4).index(), 4);
    }
}
