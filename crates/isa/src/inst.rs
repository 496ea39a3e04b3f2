//! The semantic instruction set executed by the out-of-order core.
//!
//! Instructions are represented at the semantic level (no binary encoding):
//! the simulator models timing and dataflow, not instruction fetch bytes.
//! Whether a memory operation is cached, uncached, or combining is *not*
//! encoded in the opcode — it is determined by the page attribute of the
//! effective address, exactly as in the paper's TLB-based scheme (§3.1).

use std::fmt;

use serde::Serialize;

use crate::reg::{FReg, Reg};

/// Width of a memory access in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum MemWidth {
    /// 1 byte.
    B1,
    /// 2 bytes (halfword).
    B2,
    /// 4 bytes (word).
    B4,
    /// 8 bytes (doubleword) — the width used by `std` in the paper's kernels.
    B8,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            MemWidth::B1 => 1,
            MemWidth::B2 => 2,
            MemWidth::B4 => 4,
            MemWidth::B8 => 8,
        }
    }
}

impl fmt::Display for MemWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

/// Integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AluOp {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left (by `b & 63`).
    Sll,
    /// Logical shift right (by `b & 63`).
    Srl,
}

impl AluOp {
    /// Applies the operation to two 64-bit operands.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Floating-point operation (operands interpreted as `f64` bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FpuOp {
    /// Addition.
    FAdd,
    /// Subtraction.
    FSub,
    /// Multiplication.
    FMul,
}

impl FpuOp {
    /// Applies the operation to two `f64` values carried as raw bits.
    pub fn apply(self, a: u64, b: u64) -> u64 {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match self {
            FpuOp::FAdd => x + y,
            FpuOp::FSub => x - y,
            FpuOp::FMul => x * y,
        };
        r.to_bits()
    }
}

/// Branch condition, evaluated against the condition codes set by `cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Cond {
    /// Branch if equal (`bz`).
    Eq,
    /// Branch if not equal (`bnz`).
    Ne,
    /// Branch if signed less-than (`bl`).
    Lt,
    /// Branch if signed greater-or-equal (`bge`).
    Ge,
    /// Unconditional branch (`ba`).
    Always,
}

impl Cond {
    /// Evaluates the condition against a `cmp a, b` result.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i64) < (b as i64),
            Cond::Ge => (a as i64) >= (b as i64),
            Cond::Always => true,
        }
    }
}

/// Second ALU operand: a register or a sign-extended immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Operand {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// A label identifier produced by [`crate::Assembler::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct LabelId(pub(crate) u32);

/// A reference to an architectural register for dependence tracking,
/// including the condition-code pseudo-register written by `cmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RegRef {
    /// Integer register.
    Int(Reg),
    /// Floating-point register.
    Fp(FReg),
    /// The condition-code register.
    Cc,
}

/// Coarse instruction class used by the pipeline to pick a functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum InstKind {
    /// Integer ALU (including `cmp` and immediate moves).
    IntAlu,
    /// Floating-point ALU.
    FpAlu,
    /// Branch.
    Branch,
    /// Load (cached or uncached, per the address map).
    Load,
    /// Store (cached, uncached, or combining, per the address map).
    Store,
    /// Atomic swap: lock primitive in cached space, conditional flush in
    /// combining space.
    Swap,
    /// Memory barrier: retirement blocks until the uncached buffer drains.
    Membar,
    /// No operation.
    Nop,
    /// Marker pseudo-instruction recording its retirement cycle.
    Mark,
    /// Stops the processor.
    Halt,
}

/// One semantic instruction.
///
/// # Examples
///
/// ```
/// use csb_isa::{AluOp, Inst, InstKind, Operand, Reg};
///
/// let add = Inst::Alu {
///     op: AluOp::Add,
///     dst: Reg::O1,
///     a: Reg::O1,
///     b: Operand::Imm(64),
/// };
/// assert_eq!(add.kind(), InstKind::IntAlu);
/// assert!(add.to_string().contains("%o1"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Inst {
    /// Integer ALU operation `dst = a op b`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// Load immediate `dst = imm` (models `set`/`mov`).
    Movi {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Floating-point operation `dst = a op b`.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register.
        dst: FReg,
        /// First source register.
        a: FReg,
        /// Second source register.
        b: FReg,
    },
    /// Load an immediate bit pattern into an FP register.
    FMovi {
        /// Destination register.
        dst: FReg,
        /// Raw 64-bit pattern.
        bits: u64,
    },
    /// Compare `a` with `b`, setting the condition codes.
    Cmp {
        /// First operand.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// Conditional branch to a label.
    Branch {
        /// Condition evaluated against the condition codes.
        cond: Cond,
        /// Branch target.
        target: LabelId,
    },
    /// Integer load `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Integer store `mem[base + offset] = src`.
    Store {
        /// Source register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
        /// Access width.
        width: MemWidth,
    },
    /// Doubleword store from an FP register (`std %f, [base + offset]`).
    StoreF {
        /// Source FP register.
        src: FReg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Atomic swap `tmp = mem[base+offset]; mem[...] = reg; reg = tmp`.
    ///
    /// To combining space this is the *conditional flush*: `reg` carries the
    /// expected hit count in and receives the success/failure indication out
    /// (unchanged on success, 0 on failure — §3.2 of the paper).
    Swap {
        /// Register swapped with memory.
        reg: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset.
        offset: i64,
    },
    /// Memory barrier.
    Membar,
    /// No operation.
    Nop,
    /// Marker pseudo-instruction: records the cycle at which it retires,
    /// keyed by `id`. Used by the experiment harness to time sequences.
    Mark {
        /// Marker key.
        id: u32,
    },
    /// Halt the processor.
    Halt,
}

impl Inst {
    /// Returns the pipeline class of the instruction.
    pub fn kind(&self) -> InstKind {
        match self {
            Inst::Alu { .. } | Inst::Movi { .. } | Inst::Cmp { .. } => InstKind::IntAlu,
            Inst::Fpu { .. } | Inst::FMovi { .. } => InstKind::FpAlu,
            Inst::Branch { .. } => InstKind::Branch,
            Inst::Load { .. } => InstKind::Load,
            Inst::Store { .. } | Inst::StoreF { .. } => InstKind::Store,
            Inst::Swap { .. } => InstKind::Swap,
            Inst::Membar => InstKind::Membar,
            Inst::Nop => InstKind::Nop,
            Inst::Mark { .. } => InstKind::Mark,
            Inst::Halt => InstKind::Halt,
        }
    }

    /// Returns `true` if the instruction accesses memory.
    pub fn is_mem(&self) -> bool {
        matches!(
            self.kind(),
            InstKind::Load | InstKind::Store | InstKind::Swap
        )
    }

    /// Registers read by the instruction (up to three).
    pub fn uses(&self) -> Vec<RegRef> {
        let mut buf = [RegRef::Cc; 3];
        let n = self.uses_into(&mut buf);
        buf[..n].to_vec()
    }

    /// Writes the registers read by the instruction into `out` and returns
    /// how many were written (at most three). The allocation-free form of
    /// [`Inst::uses`], for per-instruction hot paths like dispatch.
    pub fn uses_into(&self, out: &mut [RegRef; 3]) -> usize {
        let mut n = 0;
        let mut push = |r: RegRef| {
            out[n] = r;
            n += 1;
        };
        match *self {
            Inst::Alu { a, b, .. } => {
                push(RegRef::Int(a));
                if let Operand::Reg(r) = b {
                    push(RegRef::Int(r));
                }
            }
            Inst::Movi { .. } | Inst::FMovi { .. } => {}
            Inst::Fpu { a, b, .. } => {
                push(RegRef::Fp(a));
                push(RegRef::Fp(b));
            }
            Inst::Cmp { a, b } => {
                push(RegRef::Int(a));
                if let Operand::Reg(r) = b {
                    push(RegRef::Int(r));
                }
            }
            Inst::Branch { cond, .. } => {
                if cond != Cond::Always {
                    push(RegRef::Cc);
                }
            }
            Inst::Load { base, .. } => push(RegRef::Int(base)),
            Inst::Store { src, base, .. } => {
                push(RegRef::Int(src));
                push(RegRef::Int(base));
            }
            Inst::StoreF { src, base, .. } => {
                push(RegRef::Fp(src));
                push(RegRef::Int(base));
            }
            Inst::Swap { reg, base, .. } => {
                push(RegRef::Int(reg));
                push(RegRef::Int(base));
            }
            Inst::Membar | Inst::Nop | Inst::Mark { .. } | Inst::Halt => {}
        }
        n
    }

    /// Register written by the instruction, if any.
    pub fn def(&self) -> Option<RegRef> {
        match *self {
            Inst::Alu { dst, .. } | Inst::Movi { dst, .. } => {
                (!dst.is_zero()).then_some(RegRef::Int(dst))
            }
            Inst::Fpu { dst, .. } | Inst::FMovi { dst, .. } => Some(RegRef::Fp(dst)),
            Inst::Cmp { .. } => Some(RegRef::Cc),
            Inst::Load { dst, .. } => (!dst.is_zero()).then_some(RegRef::Int(dst)),
            Inst::Swap { reg, .. } => (!reg.is_zero()).then_some(RegRef::Int(reg)),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Alu { op, dst, a, b } => write!(f, "{op:?} {dst}, {a}, {b}"),
            Inst::Movi { dst, imm } => write!(f, "set {imm}, {dst}"),
            Inst::Fpu { op, dst, a, b } => write!(f, "{op:?} {dst}, {a}, {b}"),
            Inst::FMovi { dst, bits } => write!(f, "fset {bits:#x}, {dst}"),
            Inst::Cmp { a, b } => write!(f, "cmp {a}, {b}"),
            Inst::Branch { cond, target } => write!(f, "b{cond:?} L{}", target.0),
            Inst::Load {
                dst,
                base,
                offset,
                width,
            } => {
                write!(f, "ld{width} {dst}, [{base}+{offset}]")
            }
            Inst::Store {
                src,
                base,
                offset,
                width,
            } => {
                write!(f, "st{width} {src}, [{base}+{offset}]")
            }
            Inst::StoreF { src, base, offset } => write!(f, "std {src}, [{base}+{offset}]"),
            Inst::Swap { reg, base, offset } => write!(f, "swap [{base}+{offset}], {reg}"),
            Inst::Membar => f.write_str("membar"),
            Inst::Nop => f.write_str("nop"),
            Inst::Mark { id } => write!(f, "mark #{id}"),
            Inst::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.apply(1, 8), 256);
        assert_eq!(AluOp::Srl.apply(256, 8), 1);
        // Shift amounts are taken modulo 64.
        assert_eq!(AluOp::Sll.apply(1, 64), 1);
    }

    #[test]
    fn fpu_ops_apply() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(FpuOp::FAdd.apply(a, b)), 3.5);
        assert_eq!(f64::from_bits(FpuOp::FSub.apply(a, b)), -0.5);
        assert_eq!(f64::from_bits(FpuOp::FMul.apply(a, b)), 3.0);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(4, 4));
        assert!(Cond::Ne.eval(4, 5));
        assert!(Cond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
        assert!(Cond::Ge.eval(0, u64::MAX));
        assert!(Cond::Always.eval(0, 0));
        assert!(!Cond::Eq.eval(1, 2));
    }

    #[test]
    fn defs_and_uses() {
        let st = Inst::Store {
            src: Reg::G1,
            base: Reg::O1,
            offset: 8,
            width: MemWidth::B8,
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses(), vec![RegRef::Int(Reg::G1), RegRef::Int(Reg::O1)]);

        let swap = Inst::Swap {
            reg: Reg::L4,
            base: Reg::O1,
            offset: 0,
        };
        assert_eq!(swap.def(), Some(RegRef::Int(Reg::L4)));
        assert!(swap.is_mem());

        let cmp = Inst::Cmp {
            a: Reg::L4,
            b: Operand::Imm(8),
        };
        assert_eq!(cmp.def(), Some(RegRef::Cc));

        let bnz = Inst::Branch {
            cond: Cond::Ne,
            target: LabelId(0),
        };
        assert_eq!(bnz.uses(), vec![RegRef::Cc]);
        let ba = Inst::Branch {
            cond: Cond::Always,
            target: LabelId(0),
        };
        assert!(ba.uses().is_empty());
    }

    #[test]
    fn writes_to_g0_are_discarded() {
        let mv = Inst::Movi {
            dst: Reg::G0,
            imm: 7,
        };
        assert_eq!(mv.def(), None);
    }

    #[test]
    fn kinds() {
        assert_eq!(Inst::Membar.kind(), InstKind::Membar);
        assert_eq!(Inst::Halt.kind(), InstKind::Halt);
        assert_eq!(Inst::Nop.kind(), InstKind::Nop);
        assert_eq!(Inst::Mark { id: 3 }.kind(), InstKind::Mark);
        assert_eq!(
            Inst::StoreF {
                src: FReg::new(0),
                base: Reg::O1,
                offset: 0
            }
            .kind(),
            InstKind::Store
        );
    }

    #[test]
    fn display_is_nonempty() {
        let insts = [
            Inst::Movi {
                dst: Reg::L4,
                imm: 8,
            },
            Inst::Membar,
            Inst::Swap {
                reg: Reg::L4,
                base: Reg::O1,
                offset: 0,
            },
        ];
        for i in insts {
            assert!(!i.to_string().is_empty());
        }
    }
}
