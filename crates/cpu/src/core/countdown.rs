//! Periodic fast-forward over countdown delay loops.
//!
//! A delay loop `sub r, r, #c; cmp r, #0; bnz <sub>` keeps the core busy
//! without touching memory, so [`Cpu::next_event`] calls each of its
//! cycles `Active` and the idle-gap jump never engages. In steady state
//! the pipeline repeats itself: P cycles later every fetch-queue and ROB
//! entry looks as it did, with its times later by P, its sequence numbers
//! later by the instructions retired, and every copy of the counter lower
//! by the same drop D. [`Cpu::skip_loop_periods`] finds such a period by
//! comparing the normalised pipeline state with its state up to
//! [`LOOP_HISTORY`] cycles earlier, and then jumps whole periods by
//! shifting those three quantities.
//!
//! Every step of the loop is equivariant under that shift except the
//! `cmp`, whose flags are the same for every counter value in
//! `1..=i64::MAX`. A period's `cmp`s read no counter value smaller than
//! the smallest one in the current state, so a jump of `k` periods is
//! exact while that value minus `k × D` is still at least 1.
//!
//! The steady state comes only after a warm-up of some dozens of cycles,
//! which [`memo`] records once per loop-entry state and replays after.
//! Once no further skip can come before the loop exits, the detector
//! stops observing until it resets.

use csb_isa::{AluOp, Cond, Inst, Operand, Reg, RegRef};

use super::{Cpu, Src, St};

mod memo;

/// The longest loop period, in cycles, the detector looks for.
pub(super) const LOOP_HISTORY: usize = 12;

/// A recognised countdown loop: `sub r, r, #c` (c ≥ 1, r ≠ `%g0`) at
/// `start`, `cmp r, #0` after it and `bnz start` after that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CountdownLoop {
    start: usize,
    reg: Reg,
    /// The decrement `c`.
    step: u64,
}

impl CountdownLoop {
    fn contains(&self, pc: usize) -> bool {
        pc.wrapping_sub(self.start) < 3
    }
}

/// The pipeline as observed at one cycle of a countdown loop.
#[derive(Debug, Default)]
struct Observation {
    cycle: u64,
    /// `CpuStats::retired` at `cycle`.
    retired: u64,
    /// The architectural counter at `cycle`.
    counter: u64,
    /// A few normalised fields, compared before the full state is built.
    signature: [u64; 4],
    /// `true` once `state`, `low` and `high` describe this cycle.
    encoded: bool,
    /// The normalised pipeline state (see [`Cpu::encode_loop_state`]).
    state: Vec<u64>,
    /// Smallest and largest counter value in the state, as signed.
    low: i64,
    high: i64,
}

/// Recent observations of the countdown loop at the ROB head. Never
/// serialized; [`LoopDetector::reset`] runs wherever the pipeline is
/// replaced or redirected (reset, restore, context switch, squash), and
/// the observations start over whenever one does not follow the previous
/// by exactly one real tick. The buffers are kept across resets, so a
/// warm core observes without allocating.
#[derive(Debug, Default)]
pub(super) struct LoopDetector {
    lp: Option<CountdownLoop>,
    /// `true` once the fetch pc and every fetch-queue and ROB entry were
    /// seen to lie in the loop body (see [`Cpu::in_loop_body`]).
    in_body: bool,
    /// `true` once no skip can come before the loop exits: nothing is
    /// observed until the next reset.
    dormant: bool,
    /// Ring of the last `len` observations, the newest at `newest`.
    ring: Vec<Observation>,
    newest: usize,
    len: usize,
    /// Warm-up spans recorded in this run. A reset leaves them.
    memo: memo::Memo,
}

impl LoopDetector {
    /// Starts over for the next loop: drops the observations and any span
    /// being recorded, and keeps the memo.
    pub(super) fn reset(&mut self) {
        self.lp = None;
        self.in_body = false;
        self.dormant = false;
        self.len = 0;
        self.memo.abandon();
    }

    /// [`LoopDetector::reset`] for a new run: empties the memo too.
    pub(super) fn forget(&mut self) {
        self.reset();
        self.memo.clear();
    }

    /// The observation `back` cycles before the newest.
    fn at(&self, back: usize) -> &Observation {
        &self.ring[(self.newest + self.ring.len() - back) % self.ring.len()]
    }

    /// Starts a new newest observation at `cycle`, dropping the oldest.
    fn push(&mut self, cycle: u64, retired: u64, counter: u64, signature: [u64; 4]) {
        if self.ring.is_empty() {
            self.ring
                .resize_with(LOOP_HISTORY + 1, Observation::default);
        }
        self.newest = (self.newest + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
        let o = &mut self.ring[self.newest];
        o.cycle = cycle;
        o.retired = retired;
        o.counter = counter;
        o.signature = signature;
        o.encoded = false;
    }
}

/// The state word of a ROB entry's status: its kind and, while an
/// operation is in flight, its completion time relative to `now`.
fn st_words(st: St, now: u64) -> [u64; 2] {
    match st {
        St::Waiting => [0, 0],
        St::Agen { done_at } => [1, done_at.wrapping_sub(now)],
        St::AddrReady => [2, 0],
        St::MemAccess { done_at } => [3, done_at.wrapping_sub(now)],
        St::UncachedWait => [4, 0],
        St::Exec { done_at } => [5, done_at.wrapping_sub(now)],
        St::Done => [6, 0],
    }
}

/// `true` for an instruction that can belong to a countdown loop.
#[inline]
fn loop_shaped(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Alu {
            op: AluOp::Sub,
            b: Operand::Imm(_),
            ..
        } | Inst::Cmp {
            b: Operand::Imm(0),
            ..
        } | Inst::Branch { cond: Cond::Ne, .. }
    )
}

fn shift_st(st: &mut St, dt: u64) {
    if let St::Agen { done_at } | St::MemAccess { done_at } | St::Exec { done_at } = st {
        *done_at += dt;
    }
}

impl Cpu {
    /// Periodic fast-forward: observes the pipeline at the current cycle
    /// and, when the ROB head sits in a countdown loop (`sub r, r, #c;
    /// cmp r, #0; bnz` back to the `sub`) whose steady state has repeated
    /// with a period of at most `max_period` cycles, jumps as many whole
    /// periods as fit in `max_cycles` while every counter value in flight
    /// stays at 1 or more. The jump is exactly what that many
    /// [`Cpu::tick`]s would have done: the clock, sequence numbers,
    /// counter values, retirement count and the metrics timeline's
    /// retirements all move along.
    /// Returns the cycles skipped; 0 means the next cycle must be ticked.
    ///
    /// Observations must come once per cycle, right before that cycle's
    /// tick: a cycle ticked without one, or any other change to the
    /// pipeline in between, starts the detection over. The loop touches
    /// no memory, so the caller advances everything outside the core over
    /// the skipped cycles on its own; pass `max_cycles = 0` to observe
    /// without skipping while that is not possible. Nothing is observed or
    /// skipped while the structured trace or the pipeline trace records,
    /// since the skipped ticks would owe them per-instruction events, or
    /// while a stall run is open.
    ///
    /// At the loop's first observation with every fetched instruction in
    /// its body, the warm-up up to its steady state may be a span the core
    /// recorded earlier in the run from an equal state: the span's end
    /// state is installed and its skip taken in the same call, which then
    /// covers the span too. The recorded spans belong to the run: a warm
    /// reset or a restore forgets them, a context switch keeps them.
    #[inline]
    pub fn skip_loop_periods(&mut self, max_cycles: u64, max_period: u64) -> u64 {
        // Most cycles end here: the head is no instruction of such a loop.
        if !self.rob.front().is_some_and(|head| loop_shaped(&head.inst)) {
            self.detector.reset();
            return 0;
        }
        if self.detector.dormant {
            return 0;
        }
        self.observe_loop(max_cycles, max_period)
    }

    /// [`Cpu::skip_loop_periods`] once the head looks like part of a loop.
    fn observe_loop(&mut self, max_cycles: u64, max_period: u64) -> u64 {
        if self.obs.is_enabled()
            || self.trace.is_some()
            || self.uncached_stall_start.is_some()
            || self.membar_stall_start.is_some()
        {
            self.detector.reset();
            return 0;
        }
        let Some(lp) = self.countdown_loop() else {
            self.detector.reset();
            return 0;
        };
        if self.detector.lp != Some(lp) {
            self.detector.reset();
            self.detector.lp = Some(lp);
        }
        if !self.detector.in_body {
            if !self.in_loop_body(lp) {
                return 0;
            }
            self.detector.in_body = true;
            if let Some(skipped) = self.enter_loop(lp, max_cycles, max_period) {
                return skipped;
            }
        }
        let d = &self.detector;
        let fresh = d.len == 0 || d.at(0).cycle != self.now;
        if fresh {
            if d.len > 0 && d.at(0).cycle + 1 != self.now {
                self.detector.len = 0;
            }
            let signature = self.loop_signature(lp);
            let counter = self.ctx.int_reg(lp.reg);
            self.detector
                .push(self.now, self.stats.retired, counter, signature);
            self.detector.memo.note(self.now, self.stats.retired);
        }
        let Some(period) = self.loop_period(lp) else {
            return 0;
        };
        let d = &self.detector;
        let (cur, last, old) = (d.at(0), d.at(1), d.at(period));
        let p = period as u64;
        let per_retired = cur.retired - old.retired;
        let drop = old.counter.wrapping_sub(cur.counter);
        let (low, high) = (cur.low, cur.high);
        // The period's last tick must retire, so the watchdog's progress
        // stamp after the jump is the post-jump cycle, as it would be.
        let settled =
            cur.retired != last.retired && per_retired > 0 && drop != 0 && drop <= i64::MAX as u64;
        if settled && d.memo.recording() {
            self.finish_recording(lp, p, per_retired, drop);
        }
        if !settled || p > max_period || high > i64::MAX - drop as i64 {
            return 0;
        }
        // The counter only falls: once it is too small for a period, it
        // stays so until the loop exits.
        let most = if low < 1 { 0 } else { (low - 1) as u64 / drop };
        if most == 0 {
            self.detector.dormant = true;
            return 0;
        }
        let k = most.min(max_cycles / p);
        if k == 0 {
            return 0;
        }
        let d = &self.detector;
        for o in 0..period {
            let n = d.at(period - o - 1).retired - d.at(period - o).retired;
            self.metrics
                .timeline_retired_every(self.now + o as u64, p, k, n);
        }
        self.shift_loop_state(lp, k * p, k * per_retired, k.wrapping_mul(drop));
        self.detector.dormant = k == most;
        k * p
    }

    /// The countdown loop the ROB head, an instruction [`loop_shaped`],
    /// sits in, if any.
    fn countdown_loop(&self) -> Option<CountdownLoop> {
        let head = self.rob.front()?;
        if let Some(lp) = self.detector.lp.filter(|lp| lp.contains(head.pc)) {
            return Some(lp);
        }
        let start = match head.inst {
            Inst::Alu { .. } => head.pc,
            Inst::Cmp { .. } => head.pc.checked_sub(1)?,
            _ => head.pc.checked_sub(2)?,
        };
        let (reg, step) = match self.program.fetch(start)? {
            Inst::Alu {
                op: AluOp::Sub,
                dst,
                a,
                b: Operand::Imm(c),
            } if dst == a && !dst.is_zero() && c >= 1 => (dst, c as u64),
            _ => return None,
        };
        let cmp = self.program.fetch(start + 1)?;
        let bnz = self.program.fetch(start + 2)?;
        let closes = matches!(bnz, Inst::Branch { cond: Cond::Ne, .. })
            && self.program.branch_target(&bnz) == start;
        (cmp == Inst::Cmp {
            a: reg,
            b: Operand::Imm(0),
        } && closes)
            .then_some(CountdownLoop { start, reg, step })
    }

    /// `true` when the fetch pc and every fetch-queue and ROB entry lie in
    /// the loop body. Once it holds, the predicted path never leaves the
    /// body, so it keeps holding until a squash resets the detector.
    fn in_loop_body(&self, lp: CountdownLoop) -> bool {
        !self.fetch_stopped
            && lp.contains(self.fetch_pc)
            && self.fetch_q.iter().all(|f| lp.contains(f.pc))
            && self.rob.iter().all(|e| lp.contains(e.pc))
    }

    /// A few normalised fields of the state, enough to tell the loop's
    /// start-up from its steady state without building the whole state:
    /// the instructions fetched while the loop started up keep their
    /// own timing until they retire.
    fn loop_signature(&self, lp: CountdownLoop) -> [u64; 4] {
        let now = self.now;
        let head = &self.rob[0];
        let tail = &self.rob[self.rob.len() - 1];
        [
            (self.rob.len() as u64) << 32 | self.fetch_q.len() as u64,
            (head.pc - lp.start) as u64 | st_words(head.st, now)[0] << 8,
            now - head.t_fetch,
            (tail.pc - lp.start) as u64 | (now - tail.t_fetch) << 8,
        ]
    }

    /// The shortest lag at which the newest observation's normalised state
    /// repeats an earlier one, building states only for observations whose
    /// signatures repeat.
    fn loop_period(&mut self, lp: CountdownLoop) -> Option<usize> {
        let d = &self.detector;
        let lags = 1..d.len.min(LOOP_HISTORY + 1);
        let sig = d.at(0).signature;
        if !lags.clone().any(|p| d.at(p).signature == sig) {
            return None;
        }
        if !d.at(0).encoded {
            let slot = self.detector.newest;
            let mut state = std::mem::take(&mut self.detector.ring[slot].state);
            let (low, high) = self.encode_loop_state(lp, &mut state);
            let o = &mut self.detector.ring[slot];
            o.state = state;
            o.low = low;
            o.high = high;
            o.encoded = true;
        }
        let d = &self.detector;
        let cur = d.at(0);
        lags.into_iter().find(|&p| {
            let o = d.at(p);
            o.encoded && o.signature == sig && o.state == cur.state
        })
    }

    /// Writes the pipeline state into `out` with times relative to `now`,
    /// sequence numbers relative to `front_seq`, and every value that
    /// derives from the counter relative to the architectural counter;
    /// returns the smallest and largest such value (the architectural
    /// counter included), as signed. Two cycles of the loop with equal
    /// words differ only by that shift. Fields no loop instruction can
    /// change (other registers, marks, addresses, memory flags) are left
    /// out; every `CpuStats` field except `cycles` and `retired` is in.
    fn encode_loop_state(&self, lp: CountdownLoop, out: &mut Vec<u64>) -> (i64, i64) {
        let (now, front) = (self.now, self.front_seq);
        let base = self.ctx.int_reg(lp.reg);
        let (mut low, mut high) = (base as i64, base as i64);
        let mut counter = |v: u64| {
            low = low.min(v as i64);
            high = high.max(v as i64);
            v.wrapping_sub(base)
        };
        let rel_seq = |s: Option<u64>| s.map_or(0, |s| s.wrapping_sub(front).wrapping_add(1));
        let s = &self.stats;
        out.clear();
        out.extend_from_slice(&[
            self.fetch_pc as u64,
            u64::from(self.fetch_stopped)
                | u64::from(self.halted) << 1
                | u64::from(self.worked) << 2,
            self.ctx.pc() as u64,
            self.ctx.cc(),
            self.next_seq.wrapping_sub(front),
            rel_seq(self.rename.get(RegRef::Int(lp.reg))),
            rel_seq(self.rename.get(RegRef::Cc)),
            s.squashed,
            s.mispredicts,
            s.loads,
            s.stores,
            s.uncached_ops,
            s.combining_stores,
            s.flush_successes,
            s.flush_failures,
            s.uncached_stall_cycles,
            s.membar_stall_cycles,
            self.fetch_q.len() as u64,
            self.rob.len() as u64,
        ]);
        for f in &self.fetch_q {
            out.extend_from_slice(&[f.pc as u64, f.predicted_next as u64, now - f.t_fetch]);
        }
        for e in self.rob.iter() {
            out.extend_from_slice(&[e.pc as u64, e.predicted_next as u64]);
            out.extend_from_slice(&st_words(e.st, now));
            for op in e.ops.iter() {
                out.extend_from_slice(&match op.src {
                    Src::Ready(v) if op.reg == RegRef::Int(lp.reg) => [0, counter(v)],
                    Src::Ready(v) => [1, v],
                    Src::Wait(seq) => [2, seq.wrapping_sub(front)],
                });
            }
            let computed = matches!(e.st, St::Exec { .. } | St::Done);
            out.push(if e.pc == lp.start && computed {
                counter(e.value)
            } else {
                e.value
            });
            out.extend_from_slice(&[
                now - e.t_fetch,
                now - e.t_dispatch,
                e.t_issue.map_or(0, |t| now - t + 1),
                e.t_complete.map_or(0, |t| now - t + 1),
            ]);
        }
        (low, high)
    }

    /// Applies `dt` cycles of the loop's steady state: every time moves
    /// `dt` later, every sequence number `ds` later, and the counter and
    /// every value derived from it `dv` lower. The ROB keeps its ring
    /// positions, so the scheduling sets stay valid; the detector's
    /// observations shift along and stay comparable.
    fn shift_loop_state(&mut self, lp: CountdownLoop, dt: u64, ds: u64, dv: u64) {
        let down = |v: u64| v.wrapping_sub(dv);
        self.now += dt;
        self.stats.cycles = self.now;
        self.stats.retired += ds;
        self.front_seq += ds;
        self.next_seq += ds;
        let counter = self.ctx.int_reg(lp.reg);
        self.ctx.set_int_reg(lp.reg, down(counter));
        for f in &mut self.fetch_q {
            f.t_fetch += dt;
        }
        for i in 0..self.rob.len() {
            let e = &mut self.rob[i];
            e.seq += ds;
            shift_st(&mut e.st, dt);
            for slot in &mut e.ops.slots[..e.ops.len as usize] {
                match &mut slot.src {
                    Src::Ready(v) if slot.reg == RegRef::Int(lp.reg) => *v = down(*v),
                    Src::Ready(_) => {}
                    Src::Wait(seq) => *seq += ds,
                }
            }
            if e.pc == lp.start && matches!(e.st, St::Exec { .. } | St::Done) {
                e.value = down(e.value);
            }
            e.t_fetch += dt;
            e.t_dispatch += dt;
            e.t_issue = e.t_issue.map(|t| t + dt);
            e.t_complete = e.t_complete.map(|t| t + dt);
        }
        for r in [RegRef::Int(lp.reg), RegRef::Cc] {
            if let Some(seq) = self.rename.get(r) {
                self.rename.insert(r, seq + ds);
            }
        }
        let d = &mut self.detector;
        for back in 0..d.len {
            let i = (d.newest + d.ring.len() - back) % d.ring.len();
            let o = &mut d.ring[i];
            o.cycle += dt;
            o.retired += ds;
            o.counter = down(o.counter);
            o.low = o.low.wrapping_sub(dv as i64);
            o.high = o.high.wrapping_sub(dv as i64);
        }
    }
}
