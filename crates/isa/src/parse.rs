//! A text assembler for the SPARC-flavored assembly the paper writes its
//! kernels in.
//!
//! The accepted syntax mirrors the listing in the paper's §3.2:
//!
//! ```text
//! .RETRY:
//!     set 8, %l4          ! expected value
//!     std %f0, [%o1]
//!     std %f1, [%o1+40]
//!     swap [%o1], %l4     ! conditional flush
//!     cmp %l4, 8
//!     bnz .RETRY          ! retry on failure
//!     halt
//! ```
//!
//! * `! comment` to end of line; blank lines ignored;
//! * labels are identifiers (optionally starting with `.`) ending in `:`;
//! * registers: `%g0-7`, `%o0-7`, `%l0-7`, `%i0-7`, `%r0-31`, `%f0-31`;
//! * numbers: decimal or `0x…` hex, optionally negative;
//! * memory operands: `[%base]`, `[%base+off]`, `[%base-off]`.
//!
//! Mnemonics: `set`, `fset`, three-operand ALU `add/sub/and/or/xor/sll/srl
//! a, b, dst` (SPARC operand order), `fadd/fsub/fmul`, `cmp`, branches
//! `ba/bz/bnz/bl/bge`, loads `ldb/ldh/ldw/ldx`, stores `stb/sth/stw/stx`,
//! `std` (doubleword store from an integer or FP register), `swap`,
//! `membar`, `nop`, `mark N`, `halt`.

use std::collections::HashMap;
use std::fmt;

use crate::inst::{AluOp, Cond, FpuOp, MemWidth};
use crate::program::{Assembler, Label, Program, ProgramError};
use crate::reg::{FReg, Reg};

/// Assembly-text parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl ParseError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

fn parse_int(s: &str, line: usize) -> Result<i64, ParseError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| ParseError::new(line, format!("invalid number `{s}`")))?;
    Ok(if neg { -v } else { v })
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    let err = || ParseError::new(line, format!("invalid integer register `{s}`"));
    let mut body = s.strip_prefix('%').ok_or_else(err)?.chars();
    let group = body.next().ok_or_else(err)?;
    let n: u8 = body.as_str().parse().map_err(|_| err())?;
    let idx = match group {
        'g' if n < 8 => n,
        'o' if n < 8 => 8 + n,
        'l' if n < 8 => 16 + n,
        'i' if n < 8 => 24 + n,
        'r' if (n as usize) < 32 => n,
        _ => return Err(err()),
    };
    Ok(Reg::new(idx))
}

fn parse_freg(s: &str, line: usize) -> Result<FReg, ParseError> {
    let err = || ParseError::new(line, format!("invalid FP register `{s}`"));
    let body = s.strip_prefix("%f").ok_or_else(err)?;
    let n: u8 = body.parse().map_err(|_| err())?;
    if n >= 32 {
        return Err(err());
    }
    Ok(FReg::new(n))
}

/// `[%base]` / `[%base+off]` / `[%base-off]`.
fn parse_mem(s: &str, line: usize) -> Result<(Reg, i64), ParseError> {
    let err = || ParseError::new(line, format!("invalid memory operand `{s}`"));
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(err)?
        .trim();
    if let Some(pos) = inner.find(['+', '-'].as_ref()) {
        if pos == 0 {
            return Err(err());
        }
        let (base, off) = inner.split_at(pos);
        let sign = if off.starts_with('-') { -1 } else { 1 };
        let off_val = parse_int(&off[1..], line)?;
        Ok((parse_reg(base.trim(), line)?, sign * off_val))
    } else {
        Ok((parse_reg(inner, line)?, 0))
    }
}

/// Splits operands on top-level commas (commas inside `[...]` don't occur,
/// but this keeps the splitter honest about bracket depth anyway).
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for ch in s.chars() {
        match ch {
            '[' => {
                depth += 1;
                cur.push(ch);
            }
            ']' => {
                depth = depth.saturating_sub(1);
                cur.push(ch);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(ch),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

/// Assembles SPARC-flavored source text into a [`Program`].
///
/// # Errors
///
/// Returns [`ParseError`] for syntax errors (with the offending line) and
/// for program-level failures (unbound labels, missing `halt`) mapped from
/// [`ProgramError`].
///
/// # Examples
///
/// ```
/// let program = csb_isa::parse_asm(
///     r"
///     .RETRY:
///         set 8, %l4
///         std %f0, [%o1]
///         swap [%o1], %l4
///         cmp %l4, 8
///         bnz .RETRY
///         halt
///     ",
/// )?;
/// assert_eq!(program.len(), 6);
/// # Ok::<(), csb_isa::ParseError>(())
/// ```
pub fn parse_asm(source: &str) -> Result<Program, ParseError> {
    let mut a = Assembler::new();
    let mut labels: HashMap<String, Label> = HashMap::new();
    let mut bound: Vec<String> = Vec::new();

    let mut get_label = |a: &mut Assembler, name: &str| -> Label {
        *labels
            .entry(name.to_string())
            .or_insert_with(|| a.new_label())
    };

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('!').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        // Leading label(s).
        let mut rest = text;
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let name = head.trim();
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            let label = get_label(&mut a, name);
            a.bind(label)
                .map_err(|_| ParseError::new(line, format!("label `{name}` bound twice")))?;
            bound.push(name.to_string());
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        let (mnemonic, args) = match rest.split_once(char::is_whitespace) {
            Some((m, a)) => (m, a.trim()),
            None => (rest, ""),
        };
        let ops = split_operands(args);
        let argc = ops.len();
        let wrong_arity = |want: usize| {
            ParseError::new(
                line,
                format!("`{mnemonic}` expects {want} operands, got {argc}"),
            )
        };

        let alu = |m: &str| -> Option<AluOp> {
            Some(match m {
                "add" => AluOp::Add,
                "sub" => AluOp::Sub,
                "and" => AluOp::And,
                "or" => AluOp::Or,
                "xor" => AluOp::Xor,
                "sll" => AluOp::Sll,
                "srl" => AluOp::Srl,
                _ => return None,
            })
        };
        let fpu = |m: &str| -> Option<FpuOp> {
            Some(match m {
                "fadd" => FpuOp::FAdd,
                "fsub" => FpuOp::FSub,
                "fmul" => FpuOp::FMul,
                _ => return None,
            })
        };
        let cond = |m: &str| -> Option<Cond> {
            Some(match m {
                "ba" => Cond::Always,
                "bz" | "be" => Cond::Eq,
                "bnz" | "bne" => Cond::Ne,
                "bl" => Cond::Lt,
                "bge" => Cond::Ge,
                _ => return None,
            })
        };
        let load_width = |m: &str| -> Option<MemWidth> {
            Some(match m {
                "ldb" => MemWidth::B1,
                "ldh" => MemWidth::B2,
                "ldw" => MemWidth::B4,
                "ldx" | "ld" => MemWidth::B8,
                _ => return None,
            })
        };
        let store_width = |m: &str| -> Option<MemWidth> {
            Some(match m {
                "stb" => MemWidth::B1,
                "sth" => MemWidth::B2,
                "stw" => MemWidth::B4,
                "stx" => MemWidth::B8,
                _ => return None,
            })
        };

        match mnemonic {
            "set" => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let imm = parse_int(&ops[0], line)?;
                if let Ok(f) = parse_freg(&ops[1], line) {
                    a.fmovi(f, imm as u64);
                } else {
                    a.movi(parse_reg(&ops[1], line)?, imm);
                }
            }
            "fset" => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                a.fmovi(parse_freg(&ops[1], line)?, parse_int(&ops[0], line)? as u64);
            }
            m if alu(m).is_some() => {
                if argc != 3 {
                    return Err(wrong_arity(3));
                }
                let op = alu(m).expect("checked");
                let ra = parse_reg(&ops[0], line)?;
                let rd = parse_reg(&ops[2], line)?;
                if let Ok(rb) = parse_reg(&ops[1], line) {
                    a.alu(op, rd, ra, rb);
                } else {
                    a.alui(op, rd, ra, parse_int(&ops[1], line)?);
                }
            }
            m if fpu(m).is_some() => {
                if argc != 3 {
                    return Err(wrong_arity(3));
                }
                let op = fpu(m).expect("checked");
                a.fpu(
                    op,
                    parse_freg(&ops[2], line)?,
                    parse_freg(&ops[0], line)?,
                    parse_freg(&ops[1], line)?,
                );
            }
            "cmp" => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let ra = parse_reg(&ops[0], line)?;
                if let Ok(rb) = parse_reg(&ops[1], line) {
                    a.cmp(ra, rb);
                } else {
                    a.cmpi(ra, parse_int(&ops[1], line)?);
                }
            }
            m if cond(m).is_some() => {
                if argc != 1 {
                    return Err(wrong_arity(1));
                }
                let label = get_label(&mut a, &ops[0]);
                a.branch(cond(m).expect("checked"), label);
            }
            m if load_width(m).is_some() => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let (base, off) = parse_mem(&ops[0], line)?;
                a.ld(
                    parse_reg(&ops[1], line)?,
                    base,
                    off,
                    load_width(m).expect("checked"),
                );
            }
            m if store_width(m).is_some() => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let (base, off) = parse_mem(&ops[1], line)?;
                a.st(
                    parse_reg(&ops[0], line)?,
                    base,
                    off,
                    store_width(m).expect("checked"),
                );
            }
            "std" => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let (base, off) = parse_mem(&ops[1], line)?;
                if let Ok(f) = parse_freg(&ops[0], line) {
                    a.stdf(f, base, off);
                } else {
                    a.std(parse_reg(&ops[0], line)?, base, off);
                }
            }
            "swap" => {
                if argc != 2 {
                    return Err(wrong_arity(2));
                }
                let (base, off) = parse_mem(&ops[0], line)?;
                a.swap(parse_reg(&ops[1], line)?, base, off);
            }
            "membar" => {
                a.membar();
            }
            "nop" => {
                a.nop();
            }
            "halt" => {
                a.halt();
            }
            "mark" => {
                if argc != 1 {
                    return Err(wrong_arity(1));
                }
                let id = parse_int(&ops[0], line)?;
                if !(0..=u32::MAX as i64).contains(&id) {
                    return Err(ParseError::new(line, format!("mark id {id} out of range")));
                }
                a.mark(id as u32);
            }
            other => {
                return Err(ParseError::new(line, format!("unknown mnemonic `{other}`")));
            }
        }
    }

    a.assemble().map_err(|e| match e {
        ProgramError::UnboundLabel { .. } => {
            let unbound: Vec<String> = labels
                .keys()
                .filter(|k| !bound.contains(k))
                .cloned()
                .collect();
            ParseError::new(0, format!("unbound label(s): {}", unbound.join(", ")))
        }
        other => ParseError::new(0, other.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn malformed_registers_are_errors_not_panics() {
        for source in [
            "set 1, %",
            "ldx [%], %l0",
            "set 1, %é1",
            "add %é, %l0, %l1",
            "std %f1, [%é+8]",
            "cmp %, 1",
        ] {
            let err = parse_asm(source).expect_err(source);
            assert_eq!(err.line, 1, "{source}: {err}");
            assert!(err.message.contains("register"), "{source}: {err}");
        }
    }

    #[test]
    fn parses_the_papers_kernel() {
        let p = parse_asm(
            r"
            .RETRY:
                set 8, %l4          ! expected value
                std %f0, [%o1]
                std %f10, [%o1+40]
                std %f12, [%o1+8]
                swap [%o1], %l4     ! conditional flush
                cmp %l4, 8          ! compare values
                bnz .RETRY          ! retry on failure
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 8);
        assert!(matches!(p.fetch(0), Some(Inst::Movi { .. })));
        assert!(matches!(p.fetch(4), Some(Inst::Swap { .. })));
        let br = p.fetch(6).unwrap();
        assert_eq!(p.branch_target(&br), 0);
    }

    #[test]
    fn full_mnemonic_coverage() {
        let p = parse_asm(
            r"
            top:
                set 0x10, %o0
                fset 0x3ff0000000000000, %f1
                add %o0, 4, %l0
                add %o0, %l0, %l1
                sub %l1, 1, %l1
                and %l1, 0xf, %l2
                or %l2, %g1, %l2
                xor %l2, %l2, %l3
                sll %l0, 2, %l0
                srl %l0, 2, %l0
                fadd %f1, %f1, %f2
                fsub %f2, %f1, %f3
                fmul %f2, %f3, %f4
                ldb [%o0], %l4
                ldh [%o0+2], %l4
                ldw [%o0+4], %l4
                ldx [%o0+8], %l4
                stb %l4, [%o0]
                sth %l4, [%o0+2]
                stw %l4, [%o0+4]
                stx %l4, [%o0+8]
                std %l4, [%o0+16]
                std %f4, [%o0+24]
                swap [%o0], %l5
                cmp %l5, %l4
                bge done
                cmp %l5, 3
                bl done
                ba done
            done:
                membar
                nop
                mark 7
                halt
            ",
        )
        .unwrap();
        assert_eq!(p.len(), 33);
    }

    #[test]
    fn negative_offsets_and_registers() {
        let p = parse_asm(
            r"
            set -8, %r20
            ldx [%i3-16], %g7
            halt
            ",
        )
        .unwrap();
        assert!(matches!(p.fetch(1), Some(Inst::Load { offset: -16, .. })));
        assert!(matches!(p.fetch(0), Some(Inst::Movi { imm: -8, .. })));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_asm("set 1, %l0\nfrobnicate %l0\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"));
        assert!(e.to_string().contains("line 2"));

        let e = parse_asm("set 1\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("expects 2"));

        let e = parse_asm("ldx [%q1], %l0\nhalt").unwrap_err();
        assert!(e.message.contains("%q1"));

        let e = parse_asm("set zzz, %l0\nhalt").unwrap_err();
        assert!(e.message.contains("zzz"));
    }

    #[test]
    fn unbound_label_reported_by_name() {
        let e = parse_asm("ba nowhere\nhalt").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse_asm("x:\nx:\nhalt").unwrap_err();
        assert!(e.message.contains("bound twice"));
    }

    #[test]
    fn missing_halt_rejected() {
        let e = parse_asm("nop").unwrap_err();
        assert!(e.message.contains("halt"));
    }

    #[test]
    fn forward_references_resolve() {
        let p = parse_asm("ba out\nnop\nout: halt").unwrap();
        let br = p.fetch(0).unwrap();
        assert_eq!(p.branch_target(&br), 2);
    }

    #[test]
    fn label_and_instruction_on_one_line() {
        let p = parse_asm("start: set 1, %l0\nba start\nhalt").unwrap();
        let br = p.fetch(1).unwrap();
        assert_eq!(p.branch_target(&br), 0);
    }
}
