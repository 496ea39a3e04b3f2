//! Per-instruction pipeline traces and ASCII pipeline-diagram rendering.
//!
//! Enable with [`crate::Cpu::enable_trace`]; every instruction that leaves
//! the pipeline (retired or squashed) contributes one [`InstTrace`].
//! [`render`] draws the classic pipeline diagram — one row per instruction,
//! one column per cycle:
//!
//! ```text
//! cycle           0         10
//! seq pc inst
//!   0  0 set 5..  FD-IC---R
//!   1  1 Add ...  FD--IC--R
//! ```
//!
//! Legend: `F` fetched, `D` dispatched, `I` issued, `C` completed,
//! `R` retired, `x` squashed (at its last known cycle), `-` in flight.
//!
//! The core keeps only the fetch cycle of an instruction in flight; an
//! observer that exists only while the trace is on records the other
//! stage cycles.

use csb_isa::Inst;
use serde::Serialize;

/// Lifetime record of one instruction's trip through the pipeline.
///
/// All times are CPU cycles. `issued`/`completed` are `None` for
/// instructions with no execution stage (`nop`, `mark`, `membar`, `halt`)
/// or ones squashed before issuing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct InstTrace {
    /// Pipeline sequence number (unique per dispatch).
    pub seq: u64,
    /// Program counter (instruction index).
    pub pc: usize,
    /// Disassembly of the instruction.
    pub text: String,
    /// Fetch cycle.
    pub fetched: u64,
    /// Dispatch cycle (entered the ROB).
    pub dispatched: u64,
    /// Issue cycle (left the dispatch queue), if reached.
    pub issued: Option<u64>,
    /// Completion cycle (result available), if reached.
    pub completed: Option<u64>,
    /// Retirement cycle; `None` if squashed.
    pub retired: Option<u64>,
    /// `true` if the instruction was squashed (mispredict or context
    /// switch) instead of retiring.
    pub squashed: bool,
}

/// The dispatch, issue and completion cycles of the entry in one ROB
/// ring slot; `dispatched` is `None` for an entry dispatched before
/// recording started, which is never recorded.
#[derive(Debug, Clone, Copy, Default)]
struct Stamps {
    dispatched: Option<u64>,
    issued: Option<u64>,
    completed: Option<u64>,
}

/// A pipeline stage the core reports to a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Dispatch,
    Issue,
    Complete,
}

/// The pipeline-diagram observer behind [`crate::Cpu::enable_trace`]: the
/// stage cycles of each in-flight entry by ROB ring slot, and one
/// [`InstTrace`] per instruction that left the pipeline. Like the trace
/// sink it is wiring, not machine state: it exists only while the trace
/// is on, no frame holds it, and a reset or restore turns it off.
#[derive(Debug)]
pub(crate) struct Recorder {
    stamps: Box<[Stamps]>,
    left: Vec<InstTrace>,
}

impl Recorder {
    /// A recorder for a ROB ring of `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        Recorder {
            stamps: vec![Stamps::default(); slots].into_boxed_slice(),
            left: Vec::new(),
        }
    }

    /// The entry in ring slot `slot` reached `stage` at `now`; a dispatch
    /// forgets the slot's previous entry.
    pub(crate) fn stage(&mut self, slot: usize, stage: Stage, now: u64) {
        let st = &mut self.stamps[slot];
        match stage {
            Stage::Dispatch => {
                *st = Stamps {
                    dispatched: Some(now),
                    ..Stamps::default()
                }
            }
            Stage::Issue => st.issued = Some(now),
            Stage::Complete => st.completed = Some(now),
        }
    }

    /// The entry `seq` in ring slot `slot`, `inst` at `pc` fetched at
    /// `fetched`, left the pipeline: retired at `retired`, or squashed.
    pub(crate) fn leave(
        &mut self,
        slot: usize,
        seq: u64,
        pc: usize,
        inst: &Inst,
        fetched: u64,
        retired: Option<u64>,
    ) {
        let st = self.stamps[slot];
        let Some(dispatched) = st.dispatched else {
            return;
        };
        self.left.push(InstTrace {
            seq,
            pc,
            text: inst.to_string(),
            fetched,
            dispatched,
            issued: st.issued,
            completed: st.completed,
            retired,
            squashed: retired.is_none(),
        });
    }

    /// Every instruction recorded leaving the pipeline, in leaving order.
    pub(crate) fn traces(&self) -> &[InstTrace] {
        &self.left
    }
}

/// Renders traces whose lifetime intersects `[from, to]` as an ASCII
/// pipeline diagram (see the module docs for the legend).
pub fn render(traces: &[InstTrace], from: u64, to: u64) -> String {
    use std::fmt::Write as _;
    assert!(from <= to, "empty cycle range");
    let width = (to - from + 1) as usize;
    let mut out = String::new();
    let mut ruler = String::new();
    let mut i = from;
    while i <= to {
        if i.is_multiple_of(10) {
            let label = i.to_string();
            ruler.push_str(&label);
            i += label.len() as u64;
        } else {
            ruler.push(' ');
            i += 1;
        }
    }
    let _ = writeln!(out, "cycle{:20}{}", "", ruler);
    let _ = writeln!(out, "{:>4} {:>4} {:14}", "seq", "pc", "inst");
    for t in traces {
        let last = t
            .retired
            .or(t.completed)
            .or(t.issued)
            .unwrap_or(t.dispatched);
        if last < from || t.fetched > to {
            continue;
        }
        let mut lane = vec![' '; width];
        let mut put = |cycle: u64, ch: char| {
            if cycle >= from && cycle <= to {
                let slot = &mut lane[(cycle - from) as usize];
                // Later stages override the in-flight filler only.
                if *slot == ' ' || *slot == '-' {
                    *slot = ch;
                }
            }
        };
        for c in t.fetched..=last {
            put(c, '-');
        }
        put(t.fetched, 'F');
        put(t.dispatched, 'D');
        if let Some(c) = t.issued {
            put(c, 'I');
        }
        if let Some(c) = t.completed {
            put(c, 'C');
        }
        // Retirement (or the squash point) always wins its cycle: for
        // head-issued uncached operations, issue/complete/retire coincide
        // and `R` is the interesting one.
        let mut put_final = |cycle: u64, ch: char| {
            if cycle >= from && cycle <= to {
                lane[(cycle - from) as usize] = ch;
            }
        };
        match t.retired {
            Some(c) => put_final(c, 'R'),
            None => put_final(last, 'x'),
        }
        let text: String = t.text.chars().take(14).collect();
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:14} {}",
            t.seq,
            t.pc,
            text,
            lane.into_iter().collect::<String>().trim_end()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::SimpleMemPort;
    use crate::{Cpu, CpuConfig};
    use csb_isa::{AluOp, Assembler, Reg};

    fn traced_run(f: impl FnOnce(&mut Assembler)) -> Cpu {
        let mut a = Assembler::new();
        f(&mut a);
        let program = a.assemble().unwrap();
        let mut cpu = Cpu::new(CpuConfig::default(), program);
        cpu.enable_trace();
        let mut port = SimpleMemPort::new();
        cpu.run(&mut port, 100_000).unwrap();
        cpu
    }

    #[test]
    fn trace_records_every_retired_instruction_in_order() {
        let cpu = traced_run(|a| {
            a.movi(Reg::L0, 1);
            a.alui(AluOp::Add, Reg::L1, Reg::L0, 2);
            a.halt();
        });
        let t = cpu.trace();
        assert_eq!(t.len(), 3);
        assert!(t.windows(2).all(|w| w[0].retired <= w[1].retired));
        let add = &t[1];
        assert!(add.fetched <= add.dispatched);
        assert!(add.dispatched <= add.issued.unwrap());
        assert!(add.issued.unwrap() < add.completed.unwrap());
        assert!(add.completed.unwrap() <= add.retired.unwrap());
        assert!(add.retired.unwrap() > add.fetched);
        assert!(!add.squashed);
    }

    #[test]
    fn dependent_chain_issues_in_dataflow_order() {
        let cpu = traced_run(|a| {
            a.movi(Reg::L0, 1);
            for _ in 0..4 {
                a.alui(AluOp::Add, Reg::L0, Reg::L0, 1);
            }
            a.halt();
        });
        let t = cpu.trace();
        let issues: Vec<u64> = t[1..5].iter().map(|x| x.issued.unwrap()).collect();
        assert!(
            issues.windows(2).all(|w| w[0] < w[1]),
            "serial chain: {issues:?}"
        );
    }

    #[test]
    fn squashed_instructions_are_marked() {
        let cpu = traced_run(|a| {
            let skip = a.new_label();
            a.movi(Reg::L0, 1);
            a.cmpi(Reg::L0, 1);
            a.bz(skip); // forward taken: mispredicted
            a.movi(Reg::L1, 99); // squashed
            a.bind(skip).unwrap();
            a.halt();
        });
        let t = cpu.trace();
        assert!(t.iter().any(|x| x.squashed), "wrong-path work must appear");
        assert!(t.iter().filter(|x| x.squashed).all(|x| x.retired.is_none()));
    }

    #[test]
    fn render_produces_diagram() {
        let cpu = traced_run(|a| {
            a.movi(Reg::L0, 7);
            a.halt();
        });
        let end = cpu.now();
        let s = render(cpu.trace(), 0, end);
        assert!(s.contains('F'));
        assert!(s.contains('R'));
        assert!(s.contains("set 7"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn render_clips_to_window() {
        let cpu = traced_run(|a| {
            a.movi(Reg::L0, 7);
            a.nop();
            a.halt();
        });
        let s = render(cpu.trace(), 1_000, 1_010);
        // Nothing retires that late: only headers remain.
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "empty cycle range")]
    fn render_rejects_bad_range() {
        render(&[], 5, 4);
    }

    #[test]
    fn trace_off_by_default() {
        let mut a = Assembler::new();
        a.halt();
        let mut cpu = Cpu::new(CpuConfig::default(), a.assemble().unwrap());
        let mut port = SimpleMemPort::new();
        cpu.run(&mut port, 1_000).unwrap();
        assert!(cpu.trace().is_empty());
    }
}
