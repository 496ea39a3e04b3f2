//! Periodic fast-forward: countdown delay loops and store streams.
//!
//! Two shapes of busy pipeline repeat themselves. A delay loop `sub r, r,
//! #c; cmp r, #0; bnz <sub>` keeps the core busy without touching memory,
//! so [`Cpu::next_event`] calls each of its cycles `Active` and the
//! idle-gap jump never engages. In steady state P cycles later every
//! fetch-queue and ROB entry looks as it did, with its times later by P,
//! its sequence numbers later by the instructions retired, and every copy
//! of the counter lower by the same drop D. A store stream (see [`stream`])
//! repeats the same way one window of text later, with its pcs and store
//! addresses shifted as well.
//!
//! The fetch cycle each fetch-queue and ROB entry keeps is the detector's
//! fill clock, and host-side: the instructions fetched while the loop
//! started up keep their own fetch ages until they retire, which is how
//! an observation tells the start-up from the steady state. No frame
//! holds it; a restore sets it to the restore cycle, where the detector
//! and the memo start over anyway. The core keeps no other stage stamp:
//! no stage reads them, dropping them from the packed state moved no skip,
//! and the pipeline diagram's observer records them while it is on, when
//! nothing is skipped.
//!
//! A repeating pipeline state has one form, the packed words of
//! [`Cpu::pack_state`], relative to an [`Origin`]: pcs relative to the
//! loop start or the stream window, store addresses relative to the
//! window's address, sequence numbers relative to the ROB front, counter
//! values relative to a base counter, and completion and fetch times
//! relative to the clock. Two cycles with equal words differ only by that
//! origin, and [`Cpu::unpack_state`] installs the words at any origin.
//! [`Cpu::skip_loop_periods`] finds a loop's period by comparing the
//! newest observation's words, and the statistics a loop tick leaves
//! alone, with those of up to [`LOOP_HISTORY`] cycles earlier; it then
//! jumps whole periods by unpacking the newest words at the origin that
//! many periods later. A stream compares one window's words with the
//! previous window's, and jumps the same way.
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

use csb_isa::{Addr, AluOp, Cond, Inst, Operand, Reg, RegRef};

use super::{Cpu, Fetched, OperandSlot, Ops, RobEntry, Src, St, SPACES};
use crate::config::CpuConfig;
use crate::stats::CpuStats;

mod memo;
pub(crate) mod stream;

/// The longest loop period, in cycles, the detector looks for.
const LOOP_HISTORY: usize = 12;
/// Width of a loop's packed fetch time, which bounds an entry's age.
const TIME_BITS: u32 = 10;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;
/// Words of a loop's packed state before its entries (see
/// [`Cpu::pack_state`]).
const LOOP_HEADER: usize = 9;
/// A stream's pc offsets pack as 12-bit two's complement fields.
const PC_FIELD: isize = 1 << 11;
const PC_MASK: u64 = (1 << 12) - 1;
/// Words of a stream's packed state before its entries: every register.
const STREAM_HEADER: usize = 6 + 2 * 32;

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

    /// The register the body instruction at offset `off` reads: the
    /// condition codes for the `bnz`, the counter for the others.
    fn operand(&self, off: u64) -> RegRef {
        if off == 2 {
            RegRef::Cc
        } else {
            RegRef::Int(self.reg)
        }
    }
}

/// What a packed state is relative to besides the clock and the ROB front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A countdown loop: every fetched pc lies in its body, and every
    /// value of its counter is relative to a base counter. Only the
    /// counter and the condition codes are packed of the registers.
    Loop(CountdownLoop),
    /// A store stream: pcs and store addresses relative to the window,
    /// every register and every other value exact.
    Stream,
}

/// One period of a steady state: its length, the instructions it retires,
/// the counter's drop over it (loops), the shift of its pcs and addresses
/// (streams), and what it adds to the statistics [`still_stats`] lists
/// (nothing, for a loop).
#[derive(Debug, Clone, Copy)]
struct Period {
    cycles: u64,
    retired: u64,
    drop: u64,
    pc: usize,
    addr: u64,
    stats: [u64; 10],
}

impl Period {
    /// A loop's period, which shifts no pc or address and moves no
    /// statistic but the clock and the retirement count.
    fn of_loop(cycles: u64, retired: u64, drop: u64) -> Self {
        Period {
            cycles,
            retired,
            drop,
            pc: 0,
            addr: 0,
            stats: [0; 10],
        }
    }
}

/// Where packed words are installed: the shape, and the pc, address,
/// clock, ROB front and counter value they are relative to.
#[derive(Debug, Clone, Copy)]
struct Origin {
    shape: Shape,
    pc: usize,
    addr: u64,
    now: u64,
    front: u64,
    base: u64,
}

impl Origin {
    /// The origin of a loop's state at `now`, `front` and counter `base`.
    fn of_loop(lp: CountdownLoop, now: u64, front: u64, base: u64) -> Self {
        Origin {
            shape: Shape::Loop(lp),
            pc: lp.start,
            addr: 0,
            now,
            front,
            base,
        }
    }

    /// The origin `k` periods `per` later.
    fn after(self, k: u64, per: &Period) -> Self {
        Origin {
            pc: self.pc.wrapping_add((k as usize).wrapping_mul(per.pc)),
            addr: self.addr.wrapping_add(k.wrapping_mul(per.addr)),
            now: self.now + k * per.cycles,
            front: self.front + k * per.retired,
            base: self.base.wrapping_sub(k.wrapping_mul(per.drop)),
            ..self
        }
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
    /// A few normalised fields, compared before the state is packed.
    signature: [u64; 4],
    /// The statistics a loop tick leaves alone (see [`still_stats`]).
    stats: [u64; 10],
    /// The state packed with times, relative to `counter` (see
    /// [`Cpu::pack_state`]); empty until packed.
    words: Vec<u64>,
    /// The lowest and highest counter offset in `words`, or `None` when
    /// the state does not pack and so is never compared.
    bounds: Option<(i64, i64)>,
}

/// Recent observations of the countdown loop at the ROB head, and the
/// store stream being watched. Never serialized; [`LoopDetector::reset`]
/// runs wherever the pipeline is replaced or redirected (reset, restore,
/// context switch, squash), and the observations start over whenever one
/// does not follow the previous by exactly one real tick. A squash leaves
/// the stream watch: a stream's periods squash the path fetch predicted
/// past each line's retry branch. The buffers are reserved at each loop
/// entry for the core's largest packed state and kept across resets, so a
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
    /// The store stream at the ROB head, if any.
    pub(super) stream: stream::StreamWatch,
}

impl LoopDetector {
    /// Starts over for the next loop: drops the observations and any span
    /// being recorded, and keeps the memo and the stream watch.
    pub(super) fn reset(&mut self) {
        self.lp = None;
        self.in_body = false;
        self.dormant = false;
        self.len = 0;
        self.memo.abandon();
    }

    /// [`LoopDetector::reset`] for another program or process: stops
    /// watching the stream too.
    pub(super) fn switch(&mut self) {
        self.reset();
        self.stream.stop();
    }

    /// [`LoopDetector::switch`] for a new run: empties the memo too.
    pub(super) fn forget(&mut self) {
        self.switch();
        self.memo.clear();
    }

    /// Sizes the ring and reserves every slot and the memo for the packed
    /// states of a core under `cfg`, so that no observation, recording or
    /// replay reallocates them.
    fn reserve(&mut self, cfg: &CpuConfig) {
        let words = state_words(cfg, false);
        if self.ring.is_empty() {
            self.ring
                .resize_with(LOOP_HISTORY + 1, Observation::default);
        }
        for o in &mut self.ring {
            o.words.reserve_exact(words.saturating_sub(o.words.len()));
        }
        self.memo.reserve(cfg);
    }

    /// The observation `back` cycles before the newest.
    fn at(&self, back: usize) -> &Observation {
        &self.ring[(self.newest + self.ring.len() - back) % self.ring.len()]
    }

    /// Starts a new newest observation at `cycle`, dropping the oldest.
    fn push(&mut self, cycle: u64, retired: u64, counter: u64, signature: [u64; 4]) {
        self.newest = (self.newest + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
        let o = &mut self.ring[self.newest];
        o.cycle = cycle;
        o.retired = retired;
        o.counter = counter;
        o.signature = signature;
        o.words.clear();
        o.bounds = None;
    }
}

/// The most words a packed loop state (or, with `stream`, a packed stream
/// state) of a core under `cfg` takes: the header, one word per fetched
/// instruction and, per ROB entry, its state and fetch time, then a
/// loop's operand and value in one word, or a stream's operands, value
/// and address.
fn state_words(cfg: &CpuConfig, stream: bool) -> usize {
    if stream {
        STREAM_HEADER + cfg.fetch_queue + 6 * cfg.rob_size
    } else {
        LOOP_HEADER + cfg.fetch_queue + 2 * cfg.rob_size
    }
}

/// The `CpuStats` fields a loop tick leaves alone, and that a stream's
/// period adds to in equal steps.
fn still_stats(s: &CpuStats) -> [u64; 10] {
    [
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
    ]
}

/// [`still_stats`]'s fields, to add to.
fn still_stats_mut(s: &mut CpuStats) -> [&mut u64; 10] {
    [
        &mut s.squashed,
        &mut s.mispredicts,
        &mut s.loads,
        &mut s.stores,
        &mut s.uncached_ops,
        &mut s.combining_stores,
        &mut s.flush_successes,
        &mut s.flush_failures,
        &mut s.uncached_stall_cycles,
        &mut s.membar_stall_cycles,
    ]
}

/// `v` as a 32-bit two's-complement field, if it fits.
fn i32_field(v: i64) -> Option<u64> {
    i32::try_from(v).ok().map(|x| u64::from(x as u32))
}

/// The 32-bit field at `shift` of `w`, sign-extended.
fn i32_at(w: u64, shift: u32) -> u64 {
    (w >> shift) as u32 as i32 as i64 as u64
}

/// Whole periods left before a `cmp` could read a counter value below 1,
/// when `low` (`None` if out of range) is the lowest one in flight.
fn periods_left(low: Option<i64>, drop: u64) -> u64 {
    low.filter(|&v| v >= 1).map_or(0, |v| (v - 1) as u64 / drop)
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

/// The state [`st_words`] packed, at completion time `done` after `now`.
fn st_of(kind: u64, done: u64) -> St {
    match kind {
        0 => St::Waiting,
        1 => St::Agen { done_at: done },
        2 => St::AddrReady,
        3 => St::MemAccess { done_at: done },
        4 => St::UncachedWait,
        5 => St::Exec { done_at: done },
        _ => St::Done,
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

impl Cpu {
    /// Periodic fast-forward: observes the pipeline at the current cycle
    /// and, when the ROB head sits in a countdown loop (`sub r, r, #c;
    /// cmp r, #0; bnz` back to the `sub`) whose steady state has repeated
    /// with a period of at most `max_period` cycles, jumps as many whole
    /// periods as fit in `max_cycles()` while every counter value in flight
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
    /// the skipped cycles on its own; have `max_cycles` return 0 to
    /// observe without skipping while that is not possible. It is called
    /// only once the ROB head can be part of such a loop, so the caller's
    /// check stays off every other cycle. Nothing is observed or skipped
    /// while the structured trace or the pipeline trace records, since
    /// the skipped ticks would owe them per-instruction events, or while a
    /// stall run is open.
    ///
    /// At the loop's first observation with every fetched instruction in
    /// its body, the warm-up up to its steady state may be a span the core
    /// recorded earlier in the run from an equal state: the span's end
    /// state is installed and its skip taken in the same call, which then
    /// covers the span too. The recorded spans belong to the run: a warm
    /// reset or a restore forgets them, a context switch keeps them.
    #[inline]
    pub fn skip_loop_periods(&mut self, max_cycles: impl FnOnce() -> u64, max_period: u64) -> u64 {
        // Most cycles end here: the head is no instruction of such a loop.
        if !self.rob.front().is_some_and(|head| loop_shaped(&head.inst)) {
            self.detector.reset();
            return 0;
        }
        if self.detector.dormant {
            return 0;
        }
        self.observe_loop(max_cycles(), max_period)
    }

    /// `true` while a structured trace, the pipeline trace or an open
    /// stall run owes the skipped ticks events a periodic skip cannot
    /// synthesize.
    fn watched(&self) -> bool {
        self.obs.is_enabled()
            || self.pipe.is_some()
            || self.uncached_stall_start.is_some()
            || self.membar_stall_start.is_some()
    }

    /// [`Cpu::skip_loop_periods`] once the head looks like part of a loop.
    fn observe_loop(&mut self, max_cycles: u64, max_period: u64) -> u64 {
        if self.watched() {
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
            self.detector.reserve(&self.cfg);
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
        let Some((period, (low, high))) = self.loop_period(lp) else {
            return 0;
        };
        let d = &self.detector;
        let (cur, last, old) = (d.at(0), d.at(1), d.at(period));
        let at = Origin::of_loop(lp, self.now, self.front_seq, cur.counter);
        let per = Period::of_loop(
            period as u64,
            cur.retired - old.retired,
            old.counter.wrapping_sub(cur.counter),
        );
        // The period's last tick must retire, so the watchdog's progress
        // stamp after the jump is the post-jump cycle, as it would be.
        let settled = cur.retired != last.retired
            && per.retired > 0
            && per.drop != 0
            && per.drop <= i64::MAX as u64;
        if settled && d.memo.recording() {
            self.finish_recording(lp, per);
        }
        let b = at.base as i64;
        if !settled
            || per.cycles > max_period
            || b.checked_add(high)
                .is_none_or(|h| h > i64::MAX - per.drop as i64)
        {
            return 0;
        }
        // The counter only falls: once it is too small for a period, it
        // stays so until the loop exits.
        let most = periods_left(b.checked_add(low), per.drop);
        if most == 0 {
            self.detector.dormant = true;
            return 0;
        }
        let d = &self.detector;
        let mut per_cycle = [0; LOOP_HISTORY];
        for (o, n) in per_cycle[..period].iter_mut().enumerate() {
            *n = d.at(period - o - 1).retired - d.at(period - o).retired;
        }
        let per_cycle = per_cycle[..period].iter().copied();
        let slot = d.newest;
        let words = std::mem::take(&mut self.detector.ring[slot].words);
        let k = self.take_periods(&words, at, per, per_cycle, most, max_cycles);
        self.detector.ring[slot].words = words;
        k * per.cycles
    }

    /// Jumps `k` periods `per` of a steady state, as many as fit in `room`
    /// cycles up to `most`, from the state `words` packed with times at
    /// `at`: records each period's retirements (`per_cycle`, one count per
    /// cycle of a period) in the metrics timeline, adds the periods'
    /// statistics, installs `words` at the origin `k` periods after `at`,
    /// and shifts the loop detector's observations along so they stay
    /// comparable. Returns `k`; 0 leaves everything as it was. The
    /// periodic skip, the memo's replay and the stream skip all jump
    /// through here.
    fn take_periods(
        &mut self,
        words: &[u64],
        at: Origin,
        per: Period,
        per_cycle: impl IntoIterator<Item = u64>,
        most: u64,
        room: u64,
    ) -> u64 {
        let k = most.min(room / per.cycles);
        if k == 0 {
            return 0;
        }
        for (o, n) in (0..).zip(per_cycle) {
            self.metrics
                .timeline_retired_every(at.now + o, per.cycles, k, n);
        }
        let to = at.after(k, &per);
        // Each instruction retired moves the ROB front by one.
        self.stats.retired += to.front - self.front_seq;
        for (v, d) in still_stats_mut(&mut self.stats).into_iter().zip(per.stats) {
            *v += k * d;
        }
        self.unpack_state(to, words);
        let (dt, ds, dv) = (
            to.now - at.now,
            to.front - at.front,
            k.wrapping_mul(per.drop),
        );
        let d = &mut self.detector;
        for o in &mut d.ring {
            o.cycle += dt;
            o.retired += ds;
            o.counter = o.counter.wrapping_sub(dv);
        }
        d.dormant = k == most && matches!(at.shape, Shape::Loop(_));
        k
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
    /// start-up from its steady state without packing the whole state:
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

    /// The shortest lag at which the newest observation's packed state and
    /// statistics repeat an earlier one's, with the lowest and highest
    /// counter offset in that state, packing states only for observations
    /// whose signatures repeat.
    fn loop_period(&mut self, lp: CountdownLoop) -> Option<(usize, (i64, i64))> {
        let d = &self.detector;
        let lags = 1..d.len.min(LOOP_HISTORY + 1);
        let sig = d.at(0).signature;
        if !lags.clone().any(|p| d.at(p).signature == sig) {
            return None;
        }
        if d.at(0).words.is_empty() {
            let slot = self.detector.newest;
            let mut words = std::mem::take(&mut self.detector.ring[slot].words);
            let at = Origin::of_loop(lp, self.now, self.front_seq, self.ctx.int_reg(lp.reg));
            let bounds = self.pack_state(at, true, &mut words);
            let o = &mut self.detector.ring[slot];
            o.words = words;
            o.bounds = bounds;
            o.stats = still_stats(&self.stats);
        }
        let d = &self.detector;
        let cur = d.at(0);
        let bounds = cur.bounds?;
        let period = lags.into_iter().find(|&p| {
            let o = d.at(p);
            o.bounds.is_some() && o.signature == sig && o.stats == cur.stats && o.words == cur.words
        })?;
        Some((period, bounds))
    }

    /// Appends the pipeline state to `out` relative to `at`'s pc, address
    /// and counter base, the ROB front and the clock (`at`'s own clock and
    /// front are not read): fetch times too with `times` (without, they
    /// pack as 0). Returns the lowest and highest counter offset in a
    /// loop's state, or the lowest and highest pc in flight in a stream's
    /// (the fetch pc included), or `None` when a field does not fit its
    /// packing or a loop's state leaves its body (`out` is then partly
    /// written).
    ///
    /// The header comes first: the fetch pc, the committed pc, the
    /// condition codes and the flags; then a loop's register, step and
    /// counter, or a stream's every register; then the fetch-queue and ROB
    /// lengths. One word per fetched instruction follows (pc, predicted
    /// next pc, fetch time), then per ROB entry one word of pc, predicted
    /// next pc, state kind, waiting operands, address space, completion
    /// time and fetch time; then a loop entry's one operand (a ready value
    /// or a waiting producer) and its value as 32-bit fields of one word,
    /// or a stream entry's operands and value a word each and its address
    /// if it has one. A loop's state keeps only its counter, condition
    /// codes and body: fields no loop instruction can change (other
    /// registers, marks, memory flags), the rename map, which the ROB
    /// determines, and [`CpuStats`] are left out, and a state with an
    /// entry outside the body, a fetch age of [`TIME_MASK`] or more, an
    /// address, or a counter offset outside 32 bits does not pack.
    fn pack_state(&self, at: Origin, times: bool, out: &mut Vec<u64>) -> Option<(i64, i64)> {
        let rel = |pc: usize| pc.wrapping_sub(at.pc) as u64;
        out.extend_from_slice(&[
            rel(self.fetch_pc),
            rel(self.ctx.pc()),
            self.ctx.cc(),
            u64::from(self.fetch_stopped) | u64::from(self.halted) << 1,
        ]);
        match at.shape {
            Shape::Loop(lp) => {
                let arch = self.ctx.int_reg(lp.reg).wrapping_sub(at.base);
                out.extend_from_slice(&[lp.reg.index() as u64, lp.step, arch]);
            }
            Shape::Stream => self
                .ctx
                .regs()
                .into_iter()
                .for_each(|r| out.extend_from_slice(r)),
        }
        out.extend_from_slice(&[self.fetch_q.len() as u64, self.rob.len() as u64]);
        match at.shape {
            Shape::Loop(lp) => self.pack_loop_entries(lp, at.base, times, out),
            Shape::Stream => self
                .pack_stream_entries(at, out)
                .map(|(lo, hi)| (lo as i64, hi as i64)),
        }
    }

    /// [`Cpu::pack_state`]'s entries of a loop's state: per fetched
    /// instruction its pc and predicted next pc (2 bits each) and fetch
    /// age; per ROB entry one word of pc, predicted next pc, state kind, a
    /// waiting operand, completion time and fetch age, and one of its
    /// operand and value as 32-bit fields, counter values relative to
    /// `base`.
    fn pack_loop_entries(
        &self,
        lp: CountdownLoop,
        base: u64,
        times: bool,
        out: &mut Vec<u64>,
    ) -> Option<(i64, i64)> {
        let (now, front, start) = (self.now, self.front_seq, lp.start);
        let counter = |v: u64| v.wrapping_sub(base) as i64;
        let arch = counter(self.ctx.int_reg(lp.reg));
        let (mut low, mut high) = (arch, arch);
        let body = |pc: usize| Some(pc.wrapping_sub(start) as u64).filter(|&o| o < 3);
        let next = |pc: usize| Some(pc.wrapping_sub(start) as u64).filter(|&o| o < 4);
        // A fetch time packs as its age, leaving the top value unused.
        let time = |t: u64| {
            if times {
                Some(now - t).filter(|&dt| dt < TIME_MASK)
            } else {
                Some(0)
            }
        };
        for f in &self.fetch_q {
            out.push(body(f.pc)? | next(f.predicted_next)? << 2 | time(f.t_fetch)? << 4);
        }
        for e in self.rob.iter() {
            let off = body(e.pc)?;
            let [kind, done] = st_words(e.st, now);
            let loop_entry = matches!(e.st, St::Waiting | St::Exec { .. } | St::Done)
                && e.ops.len == 1
                && e.ops.slots[0].reg == lp.operand(off)
                && e.addr.is_none()
                && e.space.is_none();
            if !loop_entry {
                return None;
            }
            let (wait, src) = match e.ops.slots[0].src {
                Src::Ready(v) if off < 2 => {
                    let o = counter(v);
                    (low, high) = (low.min(o), high.max(o));
                    (0, o)
                }
                Src::Ready(v) => (0, v as i64),
                Src::Wait(seq) => (1, seq.wrapping_sub(front) as i64),
            };
            let computed = matches!(e.st, St::Exec { .. } | St::Done);
            let value = match off {
                0 if computed => {
                    let o = counter(e.value);
                    (low, high) = (low.min(o), high.max(o));
                    o
                }
                2 if computed => e.value.wrapping_sub(start as u64) as i64,
                _ => e.value as i64,
            };
            let done = u64::from(i16::try_from(done as i64).ok()? as u16);
            out.push(
                off | next(e.predicted_next)? << 2
                    | kind << 4
                    | wait << 7
                    | done << 8
                    | time(e.t_fetch)? << 24,
            );
            out.push(i32_field(src)? | i32_field(value)? << 32);
        }
        Some((low, high))
    }

    /// [`Cpu::pack_state`]'s entries of a stream's state, relative to
    /// `at`'s pc and address: per fetched instruction its pc and predicted
    /// next pc (12-bit offsets); per ROB entry one word of pc, predicted
    /// next pc, state kind, waiting operands, address space and
    /// completion time, then each operand (a ready value or a waiting
    /// producer), the value (a branch's resolved pc relative to `at`) and
    /// the address if it has one, a word each. Fetch times are left out.
    /// Returns the lowest and highest pc in flight, the fetch pc included.
    fn pack_stream_entries(&self, at: Origin, out: &mut Vec<u64>) -> Option<(usize, usize)> {
        let (now, front) = (self.now, self.front_seq);
        let mut pcs = (self.fetch_pc, self.fetch_pc);
        let mut saw = |pc: usize| pcs = (pcs.0.min(pc), pcs.1.max(pc));
        let rel = |pc: usize| pc.wrapping_sub(at.pc);
        let field = |pc: usize| {
            let o = rel(pc) as isize;
            (-PC_FIELD..PC_FIELD)
                .contains(&o)
                .then_some(o as u64 & PC_MASK)
        };
        for f in &self.fetch_q {
            saw(f.pc);
            out.push(field(f.pc)? | field(f.predicted_next)? << 12);
        }
        for e in self.rob.iter() {
            saw(e.pc);
            let [kind, done] = st_words(e.st, now);
            let done = u64::from(i16::try_from(done as i64).ok()? as u16);
            let waits = e.ops.iter().enumerate().fold(0, |w, (i, op)| {
                w | u64::from(matches!(op.src, Src::Wait(_))) << i
            });
            let space = SPACES
                .iter()
                .position(|sp| *sp == e.space)
                .unwrap_or_default() as u64;
            out.push(
                field(e.pc)?
                    | field(e.predicted_next)? << 12
                    | kind << 24
                    | waits << 27
                    | space << 30
                    | done << 32,
            );
            out.extend(e.ops.iter().map(|op| match op.src {
                Src::Ready(v) => v,
                Src::Wait(seq) => seq.wrapping_sub(front),
            }));
            let computed = matches!(e.st, St::Exec { .. } | St::MemAccess { .. } | St::Done);
            out.push(match e.inst {
                Inst::Branch { .. } if computed => rel(e.value as usize) as u64,
                _ => e.value,
            });
            if let Some(a) = e.addr {
                out.push(a.raw().wrapping_sub(at.addr));
            }
        }
        Some(pcs)
    }

    /// Installs a state [`Cpu::pack_state`] wrote with times at the origin
    /// `at`: the clock and the ROB front move there, every packed field is
    /// rebuilt from `words` relative to `at`, each entry's instruction and
    /// operand registers are fetched from its pc, and the rename map and
    /// the scheduling state are rebuilt from the ROB. The ROB keeps its
    /// ring positions, since clearing it keeps its head.
    fn unpack_state(&mut self, at: Origin, words: &[u64]) {
        let pc = |w: u64| at.pc.wrapping_add(w as usize);
        let mut w = words.iter().copied();
        let mut next = || w.next().expect("a packed state is complete");
        self.now = at.now;
        self.stats.cycles = at.now;
        self.fetch_pc = pc(next());
        self.ctx.set_pc(pc(next()));
        self.ctx.set_cc(next());
        let flags = next();
        self.fetch_stopped = flags & 1 != 0;
        self.halted = flags & 2 != 0;
        match at.shape {
            Shape::Loop(lp) => {
                next();
                next();
                self.ctx.set_int_reg(lp.reg, at.base.wrapping_add(next()));
            }
            Shape::Stream => self
                .ctx
                .regs_mut()
                .into_iter()
                .flatten()
                .for_each(|r| *r = next()),
        }
        let (nq, nrob) = (next() as usize, next() as usize);
        self.fetch_q.clear();
        self.rob.clear();
        match at.shape {
            Shape::Loop(lp) => self.unpack_loop_entries(at, lp, nq, nrob, &mut next),
            Shape::Stream => self.unpack_stream_entries(at, nq, nrob, &mut next),
        }
        debug_assert!(w.next().is_none(), "a packed state is read whole");
        self.front_seq = at.front;
        self.rename.rebuild(&self.rob);
        self.sched.rebuild(&self.rob, at.front);
    }

    /// Rebuilds a loop's fetch queue and ROB from the entries
    /// [`Cpu::pack_loop_entries`] wrote, `nq` and `nrob` of them, read
    /// through `next`, at the origin `at`.
    fn unpack_loop_entries(
        &mut self,
        at: Origin,
        lp: CountdownLoop,
        nq: usize,
        nrob: usize,
        next: &mut impl FnMut() -> u64,
    ) {
        let (now, front, base, start) = (at.now, at.front, at.base, lp.start);
        let pc = |w: u64| start.wrapping_add(w as usize);
        let inst = |o: u64| {
            self.program
                .fetch(start + o as usize)
                .expect("the loop body lies in the program")
        };
        let body = [inst(0), inst(1), inst(2)];
        let time = |w: u64, shift: u32| now - (w >> shift & TIME_MASK);
        for _ in 0..nq {
            let w = next();
            self.fetch_q.push_back(Fetched {
                pc: pc(w & 3),
                predicted_next: pc(w >> 2 & 3),
                t_fetch: time(w, 4),
            });
        }
        for seq in (front..).take(nrob) {
            let (w, v) = (next(), next());
            let off = w & 3;
            let st = match w >> 4 & 7 {
                0 => St::Waiting,
                5 => St::Exec {
                    done_at: now.wrapping_add((w >> 8) as u16 as i16 as i64 as u64),
                },
                6 => St::Done,
                k => unreachable!("a packed loop entry in state {k}"),
            };
            let src = match (off, w >> 7 & 1) {
                (_, 1) => Src::Wait(front.wrapping_add(i32_at(v, 0))),
                (2, _) => Src::Ready(i32_at(v, 0)),
                _ => Src::Ready(base.wrapping_add(i32_at(v, 0))),
            };
            let computed = matches!(st, St::Exec { .. } | St::Done);
            let value = match off {
                0 if computed => base.wrapping_add(i32_at(v, 32)),
                2 if computed => (start as u64).wrapping_add(i32_at(v, 32)),
                _ => i32_at(v, 32),
            };
            let mut ops = Ops::EMPTY;
            ops.push(OperandSlot {
                reg: lp.operand(off),
                src,
            });
            *self.rob.push_back() = RobEntry {
                seq,
                pc: pc(off),
                inst: body[off as usize],
                st,
                ops,
                value,
                addr: None,
                space: None,
                predicted_next: pc(w >> 2 & 3),
                t_fetch: time(w, 24),
            };
        }
    }

    /// Rebuilds a stream's fetch queue and ROB from the entries
    /// [`Cpu::pack_stream_entries`] wrote, `nq` and `nrob` of them, read
    /// through `next`, at the origin `at`: each entry's instruction and
    /// operand registers come from its pc, and every fetch time is the
    /// clock's.
    fn unpack_stream_entries(
        &mut self,
        at: Origin,
        nq: usize,
        nrob: usize,
        next: &mut impl FnMut() -> u64,
    ) {
        let (now, front) = (at.now, at.front);
        // A 12-bit pc offset, sign-extended.
        let pc = |w: u64| {
            at.pc
                .wrapping_add((((w & PC_MASK) << 52) as i64 >> 52) as usize)
        };
        for _ in 0..nq {
            let w = next();
            self.fetch_q.push_back(Fetched {
                pc: pc(w),
                predicted_next: pc(w >> 12),
                t_fetch: now,
            });
        }
        for seq in (front..).take(nrob) {
            let h = next();
            let inst = self
                .program
                .fetch(pc(h))
                .expect("a packed pc lies in the program");
            let mut regs = [RegRef::Cc; 3];
            let n = inst.uses_into(&mut regs);
            let mut ops = Ops::EMPTY;
            for (i, reg) in regs[..n].iter().copied().enumerate() {
                let v = next();
                let src = if h >> (27 + i) & 1 != 0 {
                    Src::Wait(front.wrapping_add(v))
                } else {
                    Src::Ready(v)
                };
                ops.push(OperandSlot { reg, src });
            }
            let st = st_of(
                h >> 24 & 7,
                now.wrapping_add((h >> 32) as u16 as i16 as i64 as u64),
            );
            let computed = matches!(st, St::Exec { .. } | St::MemAccess { .. } | St::Done);
            let value = match (inst, next()) {
                (Inst::Branch { .. }, v) if computed => at.pc.wrapping_add(v as usize) as u64,
                (_, v) => v,
            };
            let space = SPACES[(h >> 30 & 3) as usize];
            let addr = space.map(|_| Addr::new(at.addr.wrapping_add(next())));
            *self.rob.push_back() = RobEntry {
                seq,
                pc: pc(h),
                inst,
                st,
                ops,
                value,
                addr,
                space,
                predicted_next: pc(h >> 12),
                t_fetch: now,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use csb_isa::{AluOp, Assembler, Reg};
    use csb_snap::SnapshotWriter;

    use super::{CountdownLoop, Origin, LOOP_HISTORY};
    use crate::port::SimpleMemPort;
    use crate::{Cpu, CpuConfig};

    fn frame(cpu: &mut Cpu) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        cpu.state(&mut w).expect("writing never fails");
        w.finish()
    }

    /// Checks the codec at every cycle of `start / step` iterations of a
    /// countdown loop (at most `cycles`) on a `width`-wide core where
    /// every fetched instruction lies in the loop body: the state packs;
    /// unpacking it at its own origin leaves the snapshot frame and the
    /// scheduling state as they were; and unpacking the words of `P`
    /// cycles earlier, `P` a period the detector found, one period later
    /// gives the frame the core reached by ticking. The detector's compare
    /// is exact because packing is injective, and these checks prove that
    /// state by state. Returns the checked states and periods.
    fn round_trip(width: usize, step: i64, start: i64, cycles: u64) -> (u64, u64) {
        let mut a = Assembler::new();
        let spin = a.new_label();
        a.movi(Reg::L0, start);
        a.bind(spin).unwrap();
        a.alui(AluOp::Sub, Reg::L0, Reg::L0, step);
        a.cmpi(Reg::L0, 0);
        a.bnz(spin);
        a.halt();
        let mut cpu = Cpu::new(CpuConfig::superscalar(width), a.assemble().unwrap());
        let mut port = SimpleMemPort::new();
        let mut history: Vec<Option<(Origin, Vec<u64>)>> = Vec::new();
        let (mut states, mut periods) = (0, 0);
        while !cpu.halted() && cpu.now() < cycles {
            // Observe only: the detector records, and never skips.
            assert_eq!(cpu.skip_loop_periods(|| 0, LOOP_HISTORY as u64), 0);
            let lp = cpu.countdown_loop().filter(|&lp| cpu.in_loop_body(lp));
            history.push(lp.map(|lp| check_state(&mut cpu, lp)));
            states += u64::from(lp.is_some());
            let observed = cpu.detector.len > 0 && cpu.detector.at(0).cycle == cpu.now;
            let found = lp.filter(|_| observed).and_then(|lp| cpu.loop_period(lp));
            if let Some((p, _)) = found {
                // The retirements and the counter's drop the skip reads.
                let d = &cpu.detector;
                let ds = d.at(0).retired - d.at(p).retired;
                let dv = d.at(p).counter.wrapping_sub(d.at(0).counter);
                let (old, words) = history[history.len() - 1 - p].as_ref().unwrap();
                let to = Origin {
                    now: old.now + p as u64,
                    front: old.front + ds,
                    base: old.base.wrapping_sub(dv),
                    ..*old
                };
                let before = frame(&mut cpu);
                cpu.unpack_state(to, words);
                assert_eq!(
                    frame(&mut cpu),
                    before,
                    "a period later at cycle {}",
                    cpu.now
                );
                periods += 1;
            }
            cpu.tick(&mut port);
        }
        (states, periods)
    }

    /// Packs the state of the in-body loop `lp`, checks that it unpacks
    /// to itself, and returns it with its origin.
    fn check_state(cpu: &mut Cpu, lp: CountdownLoop) -> (Origin, Vec<u64>) {
        let at = Origin::of_loop(lp, cpu.now, cpu.front_seq, cpu.ctx.int_reg(lp.reg));
        let mut words = Vec::new();
        let packed = cpu.pack_state(at, true, &mut words);
        assert!(
            packed.is_some(),
            "an in-body state packs at cycle {}",
            at.now
        );
        let (before, sched) = (frame(cpu), cpu.sched.clone());
        cpu.unpack_state(at, &words);
        assert_eq!(frame(cpu), before, "the round trip at cycle {}", at.now);
        assert!(cpu.sched == sched, "the rebuilt Sched at cycle {}", at.now);
        (at, words)
    }

    #[test]
    fn packed_loop_states_unpack_to_themselves_and_to_the_next_period() {
        let (mut states, mut periods) = (0, 0);
        for width in [1, 2, 4, 8] {
            for step in 1..=3 {
                // Start 0 wraps the counter below zero and never exits.
                for start in [0, 5, 50, 500] {
                    let (s, p) = round_trip(width, step, start, 160);
                    states += s;
                    periods += p;
                }
            }
        }
        assert!(
            states > 1000 && periods > 500,
            "{states} states, {periods} periods"
        );
    }
}
