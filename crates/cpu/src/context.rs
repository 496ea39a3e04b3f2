//! Architectural (commit-level) processor context.

use csb_isa::{FReg, Reg};
use serde::Serialize;

use crate::Pid;

/// The architectural state of one process: program counter, register files,
/// condition codes, and the supervisor-held process ID visible to the CSB.
///
/// Context switching in the multi-process experiments saves and restores
/// this structure; everything else in the pipeline is squashed, which is
/// precisely what makes a competing process's first combining store able to
/// disturb an interrupted CSB sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CpuContext {
    pc: usize,
    int: [u64; 32],
    fp: [u64; 32],
    cc: u64,
    pid: Pid,
}

impl CpuContext {
    /// A fresh context for process `pid` starting at instruction 0.
    pub fn new(pid: Pid) -> Self {
        CpuContext {
            pc: 0,
            int: [0; 32],
            fp: [0; 32],
            cc: 0,
            pid,
        }
    }

    /// The committed program counter (instruction index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Sets the committed program counter.
    pub fn set_pc(&mut self, pc: usize) {
        self.pc = pc;
    }

    /// The process ID.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Reads an integer register (`%g0` reads zero).
    pub fn int_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.int[r.index()]
        }
    }

    /// Writes an integer register (writes to `%g0` are discarded).
    pub fn set_int_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.int[r.index()] = v;
        }
    }

    /// Reads a floating-point register (raw bits).
    pub fn fp_reg(&self, r: FReg) -> u64 {
        self.fp[r.index()]
    }

    /// Writes a floating-point register (raw bits).
    pub fn set_fp_reg(&mut self, r: FReg, v: u64) {
        self.fp[r.index()] = v;
    }

    /// Both register files, integer then floating point, as their slots
    /// hold them.
    pub(crate) fn regs(&self) -> [&[u64; 32]; 2] {
        [&self.int, &self.fp]
    }

    /// [`CpuContext::regs`], to overwrite.
    pub(crate) fn regs_mut(&mut self) -> [&mut [u64; 32]; 2] {
        [&mut self.int, &mut self.fp]
    }

    /// The committed condition-code flags (bit 0 = equal, bit 1 = signed
    /// less-than, as produced by `cmp`).
    pub fn cc(&self) -> u64 {
        self.cc
    }

    /// Sets the condition-code flags.
    pub fn set_cc(&mut self, flags: u64) {
        self.cc = flags;
    }

    /// Walks the full architectural state but `%g0`, which reads zero
    /// whatever its slot holds: written by a [`csb_snap::SnapshotWriter`],
    /// overwritten by a [`csb_snap::SnapshotReader`].
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("ctx")?;
        s.usize(&mut self.pc)?;
        for v in self.int[1..].iter_mut().chain(&mut self.fp) {
            s.u64(v)?;
        }
        s.u64(&mut self.cc)?;
        s.u32(&mut self.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g0_is_hardwired() {
        let mut c = CpuContext::new(1);
        c.set_int_reg(Reg::G0, 42);
        assert_eq!(c.int_reg(Reg::G0), 0);
        c.set_int_reg(Reg::L3, 42);
        assert_eq!(c.int_reg(Reg::L3), 42);
    }

    #[test]
    fn fp_and_cc_round_trip() {
        let mut c = CpuContext::new(7);
        c.set_fp_reg(FReg::new(5), 3.5f64.to_bits());
        assert_eq!(f64::from_bits(c.fp_reg(FReg::new(5))), 3.5);
        c.set_cc(0b10);
        assert_eq!(c.cc(), 0b10);
        assert_eq!(c.pid(), 7);
        c.set_pc(12);
        assert_eq!(c.pc(), 12);
    }
}
