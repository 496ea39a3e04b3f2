//! Programs and the assembler-style builder used to write microbenchmarks.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use serde::Serialize;

use crate::inst::{AluOp, Cond, FpuOp, Inst, LabelId, MemWidth, Operand};
use crate::reg::{FReg, Reg};

/// A forward-declarable branch target.
///
/// Created with [`Assembler::new_label`] and bound to a position with
/// [`Assembler::bind`]; may be referenced by branches before or after
/// binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(LabelId);

/// Error produced while assembling a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A label was referenced by a branch but never bound.
    UnboundLabel {
        /// The unbound label's id.
        label: u32,
    },
    /// A label was bound twice.
    Rebound {
        /// The rebound label's id.
        label: u32,
    },
    /// The program contains no `halt`, so the simulator would never stop.
    MissingHalt,
    /// The program is empty.
    Empty,
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnboundLabel { label } => {
                write!(f, "label L{label} referenced but never bound")
            }
            ProgramError::Rebound { label } => write!(f, "label L{label} bound twice"),
            ProgramError::MissingHalt => f.write_str("program contains no halt instruction"),
            ProgramError::Empty => f.write_str("program is empty"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// An assembled, immutable program: instructions plus resolved branch targets.
///
/// Branch targets are resolved to instruction indices at assembly time; the
/// CPU asks for them with [`Program::branch_target`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Program {
    insts: Vec<Inst>,
    /// The instruction index of each label, indexed by label id
    /// (`usize::MAX` for an id the program never binds, which assembly
    /// guarantees no branch names).
    targets: Vec<usize>,
}

impl Program {
    /// Returns the instruction at `pc`, or `None` past the end.
    pub fn fetch(&self, pc: usize) -> Option<Inst> {
        self.insts.get(pc).copied()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Resolves a branch's target to an instruction index.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a branch of this program (assembly guarantees
    /// every branch target resolves).
    pub fn branch_target(&self, inst: &Inst) -> usize {
        match inst {
            Inst::Branch { target, .. } => self.targets[target.0 as usize],
            other => panic!("branch_target called on non-branch {other}"),
        }
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Inst> {
        self.insts.iter()
    }

    /// Renders the program as human-readable assembly listing.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, inst) in self.insts.iter().enumerate() {
            let _ = writeln!(out, "{i:4}: {inst}");
        }
        out
    }
}

/// A program's identity: its instructions in order, each branch by its
/// condition and resolved target pc instead of its label id. Two
/// assemblies of the same code hash alike whatever order they allocated
/// their labels in, and whatever labels they bound that no branch names.
impl Hash for Program {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.insts.len().hash(state);
        for inst in &self.insts {
            match *inst {
                Inst::Branch { cond, .. } => {
                    std::mem::discriminant(inst).hash(state);
                    cond.hash(state);
                    self.branch_target(inst).hash(state);
                }
                _ => inst.hash(state),
            }
        }
    }
}

/// The instruction at `pc`, borrowed in place; [`Program::fetch`] is the
/// checked form.
///
/// # Panics
///
/// Panics if `pc` is past the end.
impl std::ops::Index<usize> for Program {
    type Output = Inst;

    #[inline]
    fn index(&self, pc: usize) -> &Inst {
        &self.insts[pc]
    }
}

/// Builder that assembles microbenchmark kernels instruction by instruction.
///
/// All emit methods append one instruction and return `&mut self` for
/// chaining. See the crate-level example for the paper's CSB sequence.
///
/// # Examples
///
/// ```
/// use csb_isa::{Assembler, Reg, MemWidth};
///
/// # fn main() -> Result<(), csb_isa::ProgramError> {
/// let mut a = Assembler::new();
/// a.movi(Reg::O1, 0x2000_0000);
/// a.st(Reg::G0, Reg::O1, 0, MemWidth::B8);
/// a.halt();
/// let p = a.assemble()?;
/// assert_eq!(p.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    insts: Vec<Inst>,
    next_label: u32,
    bound: HashMap<u32, usize>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let id = self.next_label;
        self.next_label += 1;
        Label(LabelId(id))
    }

    /// Binds `label` to the current position.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Rebound`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<&mut Self, ProgramError> {
        let id = label.0 .0;
        if self.bound.insert(id, self.insts.len()).is_some() {
            return Err(ProgramError::Rebound { label: id });
        }
        Ok(self)
    }

    /// Current instruction count (the position the next emit lands at).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Emits `dst = a op b` with a register operand.
    pub fn alu(&mut self, op: AluOp, dst: Reg, a: Reg, b: Reg) -> &mut Self {
        self.emit(Inst::Alu {
            op,
            dst,
            a,
            b: Operand::Reg(b),
        })
    }

    /// Emits `dst = a op imm`.
    pub fn alui(&mut self, op: AluOp, dst: Reg, a: Reg, imm: i64) -> &mut Self {
        self.emit(Inst::Alu {
            op,
            dst,
            a,
            b: Operand::Imm(imm),
        })
    }

    /// Emits `dst = dst + imm`.
    pub fn addi(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.alui(AluOp::Add, dst, dst, imm)
    }

    /// Emits `set imm, dst`.
    pub fn movi(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.emit(Inst::Movi { dst, imm })
    }

    /// Emits an FP operation `dst = a op b`.
    pub fn fpu(&mut self, op: FpuOp, dst: FReg, a: FReg, b: FReg) -> &mut Self {
        self.emit(Inst::Fpu { op, dst, a, b })
    }

    /// Emits an FP immediate load (raw bit pattern).
    pub fn fmovi(&mut self, dst: FReg, bits: u64) -> &mut Self {
        self.emit(Inst::FMovi { dst, bits })
    }

    /// Emits `cmp a, b` (register).
    pub fn cmp(&mut self, a: Reg, b: Reg) -> &mut Self {
        self.emit(Inst::Cmp {
            a,
            b: Operand::Reg(b),
        })
    }

    /// Emits `cmp a, imm`.
    pub fn cmpi(&mut self, a: Reg, imm: i64) -> &mut Self {
        self.emit(Inst::Cmp {
            a,
            b: Operand::Imm(imm),
        })
    }

    /// Emits a conditional branch.
    pub fn branch(&mut self, cond: Cond, target: Label) -> &mut Self {
        self.emit(Inst::Branch {
            cond,
            target: target.0,
        })
    }

    /// Emits `bnz target` (branch if not equal).
    pub fn bnz(&mut self, target: Label) -> &mut Self {
        self.branch(Cond::Ne, target)
    }

    /// Emits `bz target` (branch if equal).
    pub fn bz(&mut self, target: Label) -> &mut Self {
        self.branch(Cond::Eq, target)
    }

    /// Emits `ba target` (branch always).
    pub fn ba(&mut self, target: Label) -> &mut Self {
        self.branch(Cond::Always, target)
    }

    /// Emits a load of the given width.
    pub fn ld(&mut self, dst: Reg, base: Reg, offset: i64, width: MemWidth) -> &mut Self {
        self.emit(Inst::Load {
            dst,
            base,
            offset,
            width,
        })
    }

    /// Emits a store of the given width.
    pub fn st(&mut self, src: Reg, base: Reg, offset: i64, width: MemWidth) -> &mut Self {
        self.emit(Inst::Store {
            src,
            base,
            offset,
            width,
        })
    }

    /// Emits a doubleword store from an integer register.
    pub fn std(&mut self, src: Reg, base: Reg, offset: i64) -> &mut Self {
        self.st(src, base, offset, MemWidth::B8)
    }

    /// Emits a doubleword store from an FP register (`std %f`).
    pub fn stdf(&mut self, src: FReg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Inst::StoreF { src, base, offset })
    }

    /// Emits an atomic swap (lock primitive / conditional flush).
    pub fn swap(&mut self, reg: Reg, base: Reg, offset: i64) -> &mut Self {
        self.emit(Inst::Swap { reg, base, offset })
    }

    /// Emits a memory barrier.
    pub fn membar(&mut self) -> &mut Self {
        self.emit(Inst::Membar)
    }

    /// Emits a no-op.
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Inst::Nop)
    }

    /// Emits a timing marker (see [`Inst::Mark`]).
    pub fn mark(&mut self, id: u32) -> &mut Self {
        self.emit(Inst::Mark { id })
    }

    /// Emits `halt`.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Inst::Halt)
    }

    /// Finalizes the program, resolving all labels.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError`] if the program is empty, lacks a `halt`, or
    /// references an unbound label.
    pub fn assemble(self) -> Result<Program, ProgramError> {
        if self.insts.is_empty() {
            return Err(ProgramError::Empty);
        }
        if !self.insts.iter().any(|i| matches!(i, Inst::Halt)) {
            return Err(ProgramError::MissingHalt);
        }
        for inst in &self.insts {
            if let Inst::Branch { target, .. } = inst {
                if !self.bound.contains_key(&target.0) {
                    return Err(ProgramError::UnboundLabel { label: target.0 });
                }
            }
        }
        let labels = self.bound.keys().max().map_or(0, |&id| id as usize + 1);
        let mut targets = vec![usize::MAX; labels];
        for (&id, &pc) in &self.bound {
            targets[id as usize] = pc;
        }
        Ok(Program {
            insts: self.insts,
            targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_and_resolves_labels() {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.movi(Reg::L0, 4);
        a.bind(top).unwrap();
        a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
        a.cmpi(Reg::L0, 0);
        a.bnz(top);
        a.halt();
        let p = a.assemble().unwrap();
        assert_eq!(p.len(), 5);
        let br = p.fetch(3).unwrap();
        assert_eq!(p.branch_target(&br), 1);
        assert!(p.listing().contains("halt"));
    }

    #[test]
    fn forward_labels_work() {
        let mut a = Assembler::new();
        let out = a.new_label();
        a.ba(out);
        a.nop();
        a.bind(out).unwrap();
        a.halt();
        let p = a.assemble().unwrap();
        let br = p.fetch(0).unwrap();
        assert_eq!(p.branch_target(&br), 2);
    }

    #[test]
    fn unbound_label_rejected() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.ba(l);
        a.halt();
        assert!(matches!(
            a.assemble(),
            Err(ProgramError::UnboundLabel { .. })
        ));
    }

    #[test]
    fn rebinding_rejected() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l).unwrap();
        assert!(matches!(a.bind(l), Err(ProgramError::Rebound { .. })));
    }

    #[test]
    fn empty_and_missing_halt_rejected() {
        assert_eq!(
            Assembler::new().assemble().unwrap_err(),
            ProgramError::Empty
        );
        let mut a = Assembler::new();
        a.nop();
        assert_eq!(a.assemble().unwrap_err(), ProgramError::MissingHalt);
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn branch_target_panics_on_non_branch() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.assemble().unwrap();
        p.branch_target(&Inst::Nop);
    }

    #[test]
    fn fetch_past_end_is_none() {
        let mut a = Assembler::new();
        a.halt();
        let p = a.assemble().unwrap();
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(1).is_none());
        assert!(!p.is_empty());
    }
}
