//! The dynamically scheduled out-of-order processor model.
//!
//! This is the reproduction's stand-in for RSIM (Rice, 1997), configured as
//! in the paper's §4.1: a unified dispatch window tracking true data
//! dependences and structural hazards, out-of-order issue as operands become
//! ready, and strictly in-order retirement for precise interrupts. The
//! default machine dispatches and retires up to four instructions per cycle
//! into two integer units, two floating-point units, and an address-
//! generation/memory queue.
//!
//! The property the whole paper rests on is the split between the two
//! memory paths:
//!
//! * **cached** operations are speculative — loads execute as soon as their
//!   address is known and no older store might alias it;
//! * **uncached** operations (including combining stores and the
//!   conditional flush) are non-speculative, issued strictly in program
//!   order *at retirement*, at most one per cycle, and never forwarded —
//!   every one must reach the bus exactly once because I/O accesses can
//!   have side effects.
//!
//! The processor is connected to the rest of the machine through the
//! [`MemPort`] trait, implemented by the simulator facade in `csb-core` (and
//! by lightweight mocks in this crate's tests).
//!
//! # Examples
//!
//! Running a small program against the test port:
//!
//! ```
//! use csb_cpu::{Cpu, CpuConfig, SimpleMemPort};
//! use csb_isa::{Assembler, Reg};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Assembler::new();
//! a.movi(Reg::L0, 6);
//! a.alui(csb_isa::AluOp::Add, Reg::L1, Reg::L0, 36);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let mut cpu = Cpu::new(CpuConfig::default(), program);
//! let mut port = SimpleMemPort::new();
//! let stats = cpu.run(&mut port, 10_000)?;
//! assert_eq!(cpu.context().int_reg(Reg::L1), 42);
//! assert!(stats.cycles < 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod context;
mod core;
mod port;
mod stats;

pub mod reference;
pub mod trace;

pub use config::CpuConfig;
pub use context::CpuContext;
pub use core::{Cpu, CpuHorizon, RunError, StallCause, StreamAnchor, StreamPeriod, TextRun};
pub use port::{MemPort, SimpleMemPort};
pub use reference::Interpreter;
pub use stats::CpuStats;
pub use trace::InstTrace;

/// Process identifier presented to the CSB (mirrors
/// `csb_uncached::Pid` without coupling the crates).
pub type Pid = u32;
