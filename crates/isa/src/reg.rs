//! Architectural registers.
//!
//! The simulated machine has 32 64-bit integer registers (with SPARC-style
//! naming aliases: `%g`, `%o`, `%l`, `%i`) and 32 64-bit floating-point
//! registers. Integer register 0 (`%g0`) is hardwired to zero, as on SPARC.

use std::fmt;

use serde::Serialize;

/// Number of integer registers.
pub const NUM_INT_REGS: usize = 32;
/// Number of floating-point registers.
pub const NUM_FP_REGS: usize = 32;

/// An integer register.
///
/// `Reg::G0` is hardwired to zero: reads return 0 and writes are discarded.
///
/// # Examples
///
/// ```
/// use csb_isa::Reg;
///
/// assert_eq!(Reg::G0.index(), 0);
/// assert_eq!(Reg::O1.to_string(), "%o1");
/// assert!(Reg::G0.is_zero());
/// assert!(!Reg::L4.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Reg(u8);

macro_rules! reg_consts {
    ($($name:ident = $idx:expr;)*) => {
        impl Reg {
            $(
                #[doc = concat!("SPARC register `%", stringify!($name), "` (lowercased).")]
                pub const $name: Reg = Reg($idx);
            )*
        }
    };
}

reg_consts! {
    G0 = 0; G1 = 1; G2 = 2; G3 = 3; G4 = 4; G5 = 5; G6 = 6; G7 = 7;
    O0 = 8; O1 = 9; O2 = 10; O3 = 11; O4 = 12; O5 = 13; O6 = 14; O7 = 15;
    L0 = 16; L1 = 17; L2 = 18; L3 = 19; L4 = 20; L5 = 21; L6 = 22; L7 = 23;
    I0 = 24; I1 = 25; I2 = 26; I3 = 27; I4 = 28; I5 = 29; I6 = 30; I7 = 31;
}

impl Reg {
    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_INT_REGS,
            "integer register index {index} out of range"
        );
        Reg(index)
    }

    /// Returns the register index (0–31).
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the hardwired-zero register `%g0`.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (group, n) = match self.0 / 8 {
            0 => ('g', self.0),
            1 => ('o', self.0 - 8),
            2 => ('l', self.0 - 16),
            _ => ('i', self.0 - 24),
        };
        write!(f, "%{group}{n}")
    }
}

/// A floating-point register (`%f0`–`%f31`), 64 bits wide.
///
/// The paper's bandwidth microbenchmark uses `std %f`, doubleword stores
/// from FP registers, mirroring the SPARC assembly listing in §3.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct FReg(u8);

impl FReg {
    /// Creates an FP register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_FP_REGS,
            "fp register index {index} out of range"
        );
        FReg(index)
    }

    /// Returns the register index (0–31).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_groups() {
        assert_eq!(Reg::G0.to_string(), "%g0");
        assert_eq!(Reg::O7.to_string(), "%o7");
        assert_eq!(Reg::L0.to_string(), "%l0");
        assert_eq!(Reg::I7.to_string(), "%i7");
        assert_eq!(FReg::new(12).to_string(), "%f12");
    }

    #[test]
    fn indices_round_trip() {
        for i in 0..32u8 {
            assert_eq!(Reg::new(i).index(), i as usize);
            assert_eq!(FReg::new(i).index(), i as usize);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn int_reg_bounds_checked() {
        Reg::new(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fp_reg_bounds_checked() {
        FReg::new(32);
    }

    #[test]
    fn only_g0_is_zero() {
        assert!(Reg::G0.is_zero());
        for i in 1..32u8 {
            assert!(!Reg::new(i).is_zero());
        }
    }
}
