//! Dual-bank register-file diagnostics.
//!
//! The real IXP splits its GPRs into two banks (A and B); an ALU
//! instruction reading **two registers** must take one operand from
//! each bank. The paper deliberately abstracts this away (its model has
//! one uniform file; bank-aware allocation is the subject of George &
//! Blume's PLDI 2003 compiler, the paper's reference \[19\]). This module
//! provides the companion *diagnostic*: given allocated physical code,
//! decide whether a consistent A/B assignment of the registers exists —
//! i.e. whether the operand-pair graph is bipartite — and produce one,
//! or report an odd cycle that would force fix-up copies.

use regbal_ir::{Func, Inst, Operand, Reg, Terminator};
use std::collections::HashMap;
use std::fmt;

/// One of the two register banks of a banked GPR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bank {
    /// The A bank.
    A,
    /// The B bank.
    B,
}

impl Bank {
    /// The opposite bank.
    pub fn other(self) -> Bank {
        match self {
            Bank::A => Bank::B,
            Bank::B => Bank::A,
        }
    }
}

/// A consistent bank assignment for every physical register that
/// appears as one of a two-register operand pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankAssignment {
    banks: HashMap<u32, Bank>,
}

impl BankAssignment {
    /// The bank of a register; `None` if the register is unconstrained
    /// (never paired with another register in one instruction).
    pub fn bank_of(&self, preg: u32) -> Option<Bank> {
        self.banks.get(&preg).copied()
    }

    /// Number of constrained registers.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// Whether no register is constrained.
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }
}

/// The operand-pair graph contains an odd cycle: no two-bank split can
/// satisfy every instruction, and a compiler for the banked file would
/// have to insert copy fix-ups (George & Blume's problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankConflict {
    /// A register on the odd cycle.
    pub reg: u32,
    /// The neighbouring register that closes the cycle.
    pub with: u32,
}

impl fmt::Display for BankConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "registers r{} and r{} close an odd operand-pair cycle; no A/B split exists",
            self.reg, self.with
        )
    }
}

impl std::error::Error for BankConflict {}

/// Collects the two-register operand pairs of an instruction stream.
fn operand_pairs(funcs: &[Func]) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    let mut add = |a: Reg, b: Reg| {
        if let (Reg::Phys(x), Reg::Phys(y)) = (a, b) {
            if x != y {
                pairs.push((x.0, y.0));
            }
        }
    };
    for f in funcs {
        for (_, _, inst) in f.iter_insts() {
            if let Inst::Bin {
                lhs,
                rhs: Operand::Reg(r),
                ..
            } = inst
            {
                add(*lhs, *r);
            }
        }
        for (_, b) in f.iter_blocks() {
            if let Terminator::Branch {
                lhs,
                rhs: Operand::Reg(r),
                ..
            } = &b.term
            {
                add(*lhs, *r);
            }
        }
    }
    pairs
}

/// Computes a consistent A/B bank assignment for the physical registers
/// of `funcs` (typically the output of
/// [`crate::MultiAllocation::rewrite_funcs`], with all threads passed
/// together since they share the file).
///
/// # Errors
///
/// Returns [`BankConflict`] when the operand-pair graph is not
/// bipartite.
///
/// # Example
///
/// ```
/// use regbal_core::banks::assign_banks;
///
/// let f = regbal_ir::parse_func(
///     "func f {\nbb0:\n r0 = mov 1\n r1 = mov 2\n r2 = add r0, r1\n halt\n}",
/// )?;
/// let banks = assign_banks(std::slice::from_ref(&f))?;
/// assert_ne!(banks.bank_of(0), banks.bank_of(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn assign_banks(funcs: &[Func]) -> Result<BankAssignment, BankConflict> {
    let pairs = operand_pairs(funcs);
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(a, b) in &pairs {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let mut banks: HashMap<u32, Bank> = HashMap::new();
    let mut regs: Vec<u32> = adj.keys().copied().collect();
    regs.sort_unstable();
    for &start in &regs {
        if banks.contains_key(&start) {
            continue;
        }
        banks.insert(start, Bank::A);
        let mut queue = vec![start];
        while let Some(r) = queue.pop() {
            let bank = banks[&r];
            for &n in &adj[&r] {
                match banks.get(&n) {
                    None => {
                        banks.insert(n, bank.other());
                        queue.push(n);
                    }
                    Some(&nb) if nb == bank => {
                        return Err(BankConflict { reg: r, with: n });
                    }
                    Some(_) => {}
                }
            }
        }
    }
    Ok(BankAssignment { banks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regbal_ir::parse_func;

    #[test]
    fn chain_is_bipartite() {
        let f = parse_func(
            "func f {\nbb0:\n r0 = mov 1\n r1 = mov 2\n r2 = add r0, r1\n r3 = add r1, r2\n halt\n}",
        )
        .unwrap();
        let banks = assign_banks(std::slice::from_ref(&f)).unwrap();
        assert_ne!(banks.bank_of(0), banks.bank_of(1));
        assert_ne!(banks.bank_of(1), banks.bank_of(2));
        assert_eq!(banks.bank_of(0), banks.bank_of(2));
        assert!(!banks.is_empty());
    }

    #[test]
    fn triangle_conflicts() {
        let f = parse_func(
            "func f {\nbb0:\n r0 = mov 1\n r1 = mov 2\n r2 = mov 3\n r3 = add r0, r1\n r3 = add r1, r2\n r3 = add r2, r0\n halt\n}",
        )
        .unwrap();
        let err = assign_banks(std::slice::from_ref(&f)).unwrap_err();
        assert!(err.to_string().contains("odd"), "{err}");
    }

    #[test]
    fn branch_operands_constrain_too() {
        let f = parse_func(
            "func f {\nbb0:\n r0 = mov 1\n r1 = mov 2\n beq r0, r1, bb1, bb1\nbb1:\n halt\n}",
        )
        .unwrap();
        let banks = assign_banks(std::slice::from_ref(&f)).unwrap();
        assert_ne!(banks.bank_of(0), banks.bank_of(1));
    }

    #[test]
    fn unconstrained_registers_have_no_bank() {
        let f = parse_func(
            "func f {\nbb0:\n r0 = mov 1\n r1 = add r0, 3\n store scratch[r1+0], r0\n halt\n}",
        )
        .unwrap();
        // No instruction reads two registers via the ALU path
        // (store/base pairs are memory-path, not banked-ALU reads).
        let banks = assign_banks(std::slice::from_ref(&f)).unwrap();
        assert_eq!(banks.bank_of(0), None);
        assert_eq!(banks.bank_of(1), None);
        assert!(banks.is_empty());
        assert_eq!(banks.len(), 0);
    }

    #[test]
    fn threads_share_one_assignment() {
        let a = parse_func("func a {\nbb0:\n r0 = mov 1\n r2 = add r0, r1\n halt\n}").unwrap();
        let b = parse_func("func b {\nbb0:\n r1 = mov 1\n r3 = add r1, r2\n halt\n}").unwrap();
        let banks = assign_banks(&[a, b]).unwrap();
        // r0-r1 from thread a, r1-r2 from thread b: consistent chain.
        assert_ne!(banks.bank_of(0), banks.bank_of(1));
        assert_ne!(banks.bank_of(1), banks.bank_of(2));
    }

    #[test]
    fn real_allocation_is_usually_bankable() {
        use regbal_ir::parse_func as pf;
        let t = pf(
            "func t {\nbb0:\n v0 = mov 64\n v1 = load sram[v0+0]\n v2 = add v1, 1\n v3 = add v2, v1\n store sram[v0+4], v3\n halt\n}",
        )
        .unwrap();
        let funcs = vec![t.clone(), t];
        let alloc = crate::allocate_threads(&funcs, 16).unwrap();
        let physical = alloc.rewrite_funcs(&funcs);
        // Not guaranteed in general, but this simple chain must split.
        assert!(assign_banks(&physical).is_ok());
    }

    #[test]
    fn bank_other_flips() {
        assert_eq!(Bank::A.other(), Bank::B);
        assert_eq!(Bank::B.other(), Bank::A);
    }
}
