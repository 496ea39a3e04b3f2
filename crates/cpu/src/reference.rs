//! A reference in-order interpreter for the ISA.
//!
//! [`Interpreter`] executes programs sequentially with no pipeline, no
//! speculation, and no timing — one instruction at a time against the same
//! [`MemPort`] the out-of-order core uses. Its purpose is to be *obviously
//! correct*: the property suite runs random programs through both engines
//! and requires identical architectural results, which pins down the
//! pipeline's renaming, forwarding, disambiguation, and squash logic.
//!
//! # Examples
//!
//! ```
//! use csb_cpu::{Interpreter, SimpleMemPort};
//! use csb_isa::{AluOp, Assembler, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new();
//! a.movi(Reg::L0, 40);
//! a.alui(AluOp::Add, Reg::L0, Reg::L0, 2);
//! a.halt();
//!
//! let mut interp = Interpreter::new(a.assemble()?);
//! let mut port = SimpleMemPort::new();
//! interp.run(&mut port, 1_000)?;
//! assert_eq!(interp.context().int_reg(Reg::L0), 42);
//! # Ok(())
//! # }
//! ```

use csb_isa::{AddressSpace, Cond, Inst, Operand, Program};

use crate::context::CpuContext;
use crate::core::RunError;
use crate::port::MemPort;

const FLAG_EQ: u64 = 1;
const FLAG_LT: u64 = 2;

/// The sequential reference engine. See the module docs.
#[derive(Debug)]
pub struct Interpreter {
    program: Program,
    ctx: CpuContext,
    halted: bool,
    executed: u64,
    next_tag: u64,
}

impl Interpreter {
    /// Creates an interpreter for `program` as process 0.
    pub fn new(program: Program) -> Self {
        Self::with_context(program, CpuContext::new(0))
    }

    /// Creates an interpreter with an explicit initial context.
    pub fn with_context(program: Program, ctx: CpuContext) -> Self {
        Interpreter {
            program,
            ctx,
            halted: false,
            executed: 0,
            next_tag: 1 << 62,
        }
    }

    /// The architectural state.
    pub fn context(&self) -> &CpuContext {
        &self.ctx
    }

    /// `true` once `halt` executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Runs until `halt` or `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CycleLimit`] if the program does not halt within
    /// the step budget (the interpreter's "cycles" are instructions).
    ///
    /// # Panics
    ///
    /// Panics if the program counter runs off the end of the program (the
    /// assembler's mandatory `halt` prevents this for generated programs).
    pub fn run<P: MemPort>(&mut self, port: &mut P, max_steps: u64) -> Result<u64, RunError> {
        while !self.halted {
            if self.executed >= max_steps {
                return Err(RunError::CycleLimit { limit: max_steps });
            }
            self.step(port);
        }
        Ok(self.executed)
    }

    /// Executes one instruction.
    ///
    /// # Panics
    ///
    /// Panics on a pc past the end of the program.
    pub fn step<P: MemPort>(&mut self, port: &mut P) {
        let pc = self.ctx.pc();
        let inst = self
            .program
            .fetch(pc)
            .unwrap_or_else(|| panic!("pc {pc} past end of program"));
        self.executed += 1;
        let mut next = pc + 1;
        match inst {
            Inst::Alu { op, dst, a, b } => {
                let bv = self.operand(b);
                let av = self.ctx.int_reg(a);
                self.ctx.set_int_reg(dst, op.apply(av, bv));
            }
            Inst::Movi { dst, imm } => self.ctx.set_int_reg(dst, imm as u64),
            Inst::Fpu { op, dst, a, b } => {
                let r = op.apply(self.ctx.fp_reg(a), self.ctx.fp_reg(b));
                self.ctx.set_fp_reg(dst, r);
            }
            Inst::FMovi { dst, bits } => self.ctx.set_fp_reg(dst, bits),
            Inst::Cmp { a, b } => {
                let (av, bv) = (self.ctx.int_reg(a), self.operand(b));
                let mut f = 0;
                if av == bv {
                    f |= FLAG_EQ;
                }
                if (av as i64) < (bv as i64) {
                    f |= FLAG_LT;
                }
                self.ctx.set_cc(f);
            }
            Inst::Branch { cond, .. } => {
                let taken = match cond {
                    Cond::Eq => self.ctx.cc() & FLAG_EQ != 0,
                    Cond::Ne => self.ctx.cc() & FLAG_EQ == 0,
                    Cond::Lt => self.ctx.cc() & FLAG_LT != 0,
                    Cond::Ge => self.ctx.cc() & FLAG_LT == 0,
                    Cond::Always => true,
                };
                if taken {
                    next = self.program.branch_target(&inst);
                }
            }
            Inst::Load {
                dst,
                base,
                offset,
                width,
            } => {
                let addr = csb_isa::Addr::new(self.ctx.int_reg(base)).offset(offset);
                let v = match port.space_of(addr) {
                    AddressSpace::Cached => port.read(addr, width.bytes()),
                    _ => self.uncached_read(port, addr, width.bytes(), None),
                };
                self.ctx.set_int_reg(dst, v);
            }
            Inst::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = csb_isa::Addr::new(self.ctx.int_reg(base)).offset(offset);
                let v = self.ctx.int_reg(src);
                self.store(port, addr, width.bytes(), v);
            }
            Inst::StoreF { src, base, offset } => {
                let addr = csb_isa::Addr::new(self.ctx.int_reg(base)).offset(offset);
                let v = self.ctx.fp_reg(src);
                self.store(port, addr, 8, v);
            }
            Inst::Swap { reg, base, offset } => {
                let addr = csb_isa::Addr::new(self.ctx.int_reg(base)).offset(offset);
                let v = self.ctx.int_reg(reg);
                let old = match port.space_of(addr) {
                    AddressSpace::Cached => port.swap_value(addr, v),
                    AddressSpace::UncachedCombining => {
                        // The conditional flush.
                        while !port.csb_can_flush() {}
                        port.csb_flush(self.ctx.pid(), addr, v)
                    }
                    AddressSpace::Uncached => self.uncached_read(port, addr, 8, Some(v)),
                };
                self.ctx.set_int_reg(reg, old);
            }
            Inst::Membar => {
                // Sequential execution drains implicitly; nothing to wait on
                // for ports with synchronous completion.
            }
            Inst::Nop | Inst::Mark { .. } => {}
            Inst::Halt => self.halted = true,
        }
        self.ctx.set_pc(next);
    }

    fn operand(&self, b: Operand) -> u64 {
        match b {
            Operand::Reg(r) => self.ctx.int_reg(r),
            Operand::Imm(i) => i as u64,
        }
    }

    fn store<P: MemPort>(&mut self, port: &mut P, addr: csb_isa::Addr, width: usize, v: u64) {
        match port.space_of(addr) {
            AddressSpace::Cached => port.write(addr, width, v),
            AddressSpace::Uncached => while !port.uncached_store(addr, width, v) {},
            AddressSpace::UncachedCombining => {
                while !port.csb_store(self.ctx.pid(), addr, width, v) {}
            }
        }
    }

    /// One uncached round trip under a fresh tag, polled to completion.
    fn uncached_read<P: MemPort>(
        &mut self,
        port: &mut P,
        addr: csb_isa::Addr,
        width: usize,
        swap: Option<u64>,
    ) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        assert!(port.uncached_read(addr, width, swap, tag));
        loop {
            if let Some(v) = port.uncached_poll(tag) {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::SimpleMemPort;
    use csb_isa::{Addr, AluOp, Assembler, MemWidth, Reg};

    fn run(f: impl FnOnce(&mut Assembler)) -> (Interpreter, SimpleMemPort) {
        let mut a = Assembler::new();
        f(&mut a);
        let mut interp = Interpreter::new(a.assemble().unwrap());
        let mut port = SimpleMemPort::new();
        interp.run(&mut port, 100_000).unwrap();
        (interp, port)
    }

    #[test]
    fn alu_and_branches() {
        let (i, _) = run(|a| {
            let top = a.new_label();
            a.movi(Reg::L0, 5);
            a.movi(Reg::L1, 0);
            a.bind(top).unwrap();
            a.addi(Reg::L1, 7);
            a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
            a.cmpi(Reg::L0, 0);
            a.bnz(top);
            a.halt();
        });
        assert_eq!(i.context().int_reg(Reg::L1), 35);
        assert!(i.halted());
        assert!(i.executed() > 20);
    }

    #[test]
    fn memory_and_swap() {
        let (i, mut port) = run(|a| {
            a.movi(Reg::O0, 0x4000);
            a.movi(Reg::L0, 99);
            a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
            a.ld(Reg::L1, Reg::O0, 0, MemWidth::B8);
            a.movi(Reg::L2, 7);
            a.swap(Reg::L2, Reg::O0, 0);
            a.halt();
        });
        assert_eq!(i.context().int_reg(Reg::L1), 99);
        assert_eq!(i.context().int_reg(Reg::L2), 99);
        assert_eq!(port.read(Addr::new(0x4000), 8), 7);
    }

    #[test]
    fn step_budget_enforced() {
        let mut a = Assembler::new();
        let spin = a.new_label();
        a.bind(spin).unwrap();
        a.ba(spin);
        a.halt();
        let mut interp = Interpreter::new(a.assemble().unwrap());
        let mut port = SimpleMemPort::new();
        assert_eq!(
            interp.run(&mut port, 100),
            Err(RunError::CycleLimit { limit: 100 })
        );
    }
}
