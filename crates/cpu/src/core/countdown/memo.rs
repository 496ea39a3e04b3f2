//! The warm-up memo of periodic fast-forward.
//!
//! A countdown loop reaches the steady state [`Cpu::skip_loop_periods`]
//! jumps only once the instructions fetched while the fetch queue and ROB
//! filled behind it have retired: 63–72 real ticks per loop of the
//! messaging sweep on the default core. Those ticks are a function of the
//! pipeline state at the loop's first in-body observation, taken relative
//! to the loop, so the first loop entered from a state records its
//! warm-up span and every later one installs the span's end state and
//! takes the periodic skip in the same call.
//!
//! The key holds what steers the pipeline and nothing else: pcs relative
//! to the loop start, sequence numbers relative to the ROB front, counter
//! values relative to the architectural counter, completion times relative
//! to the clock, the condition codes, and the loop's register and step.
//! It leaves out the stage timestamps and [`crate::CpuStats`], which no
//! stage reads. The end state holds the timestamps too; a span is kept
//! only if every entry in flight at the key retired inside it, so every
//! timestamp at its end lies inside the span and is exact relative to the
//! clock. The configuration is not part of each key: the memo belongs to
//! one configuration and empties when asked about another.

use csb_isa::RegRef;

use super::super::{rename_slot, Cpu, Fetched, OperandSlot, Ops, RobEntry, Src, St};
use super::{st_words, CountdownLoop};
use crate::config::CpuConfig;
use crate::stats::CpuStats;

/// Most spans one memo keeps.
const MEMO_SPANS: usize = 16;
/// Most words of keys and end states one memo keeps (24 KiB).
const MEMO_WORDS: usize = 3 * 1024;
/// Most per-cycle retirement counts one memo keeps.
const MEMO_CYCLES: usize = 4 * 1024;
/// Width of a packed stage time, which bounds the span length.
const TIME_BITS: u32 = 10;
const TIME_MASK: u64 = (1 << TIME_BITS) - 1;
/// Longest span recorded, in cycles: every stage time at its end fits.
const MAX_SPAN: u64 = TIME_MASK - 1;
/// Words of a packed state before its entries (see [`Cpu::pack_loop_state`]).
const HEADER: usize = 11;

/// The words a packed state of a core under `cfg` can take.
fn state_words(cfg: &CpuConfig) -> usize {
    HEADER + cfg.fetch_queue + 2 * cfg.rob_size
}

/// The `CpuStats` fields a loop tick leaves alone.
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

/// `v` as a 32-bit two's-complement field, if it fits.
fn i32_field(v: i64) -> Option<u64> {
    i32::try_from(v).ok().map(|x| u64::from(x as u32))
}

/// The 32-bit field at `shift` of `w`, sign-extended.
fn i32_at(w: u64, shift: u32) -> u64 {
    (w >> shift) as u32 as i32 as i64 as u64
}

/// One memoized warm-up span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Where its key starts in [`Memo::words`]; its end state follows.
    at: usize,
    key_len: usize,
    end_len: usize,
    /// Where its retirements per cycle start in [`Memo::retired`].
    pattern_at: usize,
    /// Its length in cycles, and the period found at its end.
    cycles: u64,
    period: u64,
    /// Instructions retired over the span and over one period.
    retired: u64,
    per_retired: u64,
    /// The counter's drop over one period.
    drop: u64,
    /// Counter offsets from the counter at the key: the lowest in the end
    /// state (no `cmp` of the span reads less), the highest at the key (no
    /// `cmp` reads more), and the highest in the end state.
    low: i64,
    high: i64,
    end_high: i64,
    /// The longest run of ticks in the span that retired nothing.
    gap: u64,
}

/// The span being recorded; its key sits at the tail of [`Memo::words`].
#[derive(Debug, Clone, Copy)]
struct Recording {
    at: usize,
    key_len: usize,
    pattern_at: usize,
    /// Cycle, retirement count and counter at the key.
    cycle: u64,
    retired: u64,
    counter: u64,
    /// Retirement count at the latest observation.
    last_retired: u64,
    /// Fetch-queue and ROB entries at the key, all of which must retire
    /// inside the span.
    in_flight: u64,
    /// The key's highest counter offset.
    high: i64,
    stats: [u64; 10],
}

/// Warm-up spans of countdown loops, recorded in one run (see the module
/// docs). Derived state: never serialized, emptied by
/// [`LoopDetector::forget`](super::LoopDetector::forget) on a warm reset
/// or a restore, kept across context switches. Its buffers are reserved
/// once and reused, so a replay allocates nothing.
#[derive(Debug, Default)]
pub(super) struct Memo {
    /// The configuration the spans were recorded under.
    cfg: Option<CpuConfig>,
    spans: Vec<Span>,
    /// Each span's key, then its end state (see [`Cpu::pack_loop_state`]).
    words: Vec<u64>,
    /// Each span's retirements per cycle.
    retired: Vec<u8>,
    rec: Option<Recording>,
}

impl Memo {
    /// Drops every span.
    pub(super) fn clear(&mut self) {
        self.spans.clear();
        self.words.clear();
        self.retired.clear();
        self.rec = None;
    }

    /// Drops the span being recorded, if any.
    pub(super) fn abandon(&mut self) {
        if let Some(rec) = self.rec.take() {
            self.words.truncate(rec.at);
            self.retired.truncate(rec.pattern_at);
        }
    }

    /// `true` while a span is being recorded.
    pub(super) fn recording(&self) -> bool {
        self.rec.is_some()
    }

    /// Notes the retirement count at an observation at `cycle`: the
    /// retirements of the tick before it join the recorded span, which is
    /// dropped when the observation does not follow the previous one by
    /// exactly one tick, or the span grows past what the memo keeps.
    pub(super) fn note(&mut self, cycle: u64, retired: u64) {
        let Some(rec) = &mut self.rec else {
            return;
        };
        let len = (self.retired.len() - rec.pattern_at) as u64;
        if cycle == rec.cycle + len {
            return;
        }
        let n = retired.wrapping_sub(rec.last_retired);
        if cycle != rec.cycle + len + 1
            || n > u64::from(u8::MAX)
            || len == MAX_SPAN
            || self.retired.len() == MEMO_CYCLES
        {
            self.abandon();
            return;
        }
        self.retired.push(n as u8);
        rec.last_retired = retired;
    }

    /// Reserves the memo's buffers, once, for states of a core under
    /// `cfg`, so neither a lookup nor a recording reallocates them.
    fn reserve(&mut self, cfg: &CpuConfig) {
        let words = MEMO_WORDS + state_words(cfg);
        if self.words.capacity() < words {
            self.words.reserve_exact(words - self.words.len());
        }
        if self.retired.capacity() < MEMO_CYCLES {
            self.retired.reserve_exact(MEMO_CYCLES - self.retired.len());
        }
        if self.spans.capacity() < MEMO_SPANS {
            self.spans.reserve_exact(MEMO_SPANS - self.spans.len());
        }
    }
}

impl Cpu {
    /// Looks up the warm-up of the loop `lp` at its first in-body
    /// observation. On a hit that fits `max_cycles` and `max_period` (see
    /// [`Cpu::skip_loop_periods`]), installs the span's end state and
    /// takes the periodic skip after it, and returns the cycles both
    /// cover. Returns `Some(0)` when the counter is too small for the loop
    /// to reach a skip before it exits, and `None` to observe on: on a
    /// miss, the span is recorded.
    pub(super) fn enter_loop(
        &mut self,
        lp: CountdownLoop,
        max_cycles: u64,
        max_period: u64,
    ) -> Option<u64> {
        let mut memo = std::mem::take(&mut self.detector.memo);
        let skipped = self.enter_loop_with(&mut memo, lp, max_cycles, max_period);
        self.detector.memo = memo;
        skipped
    }

    fn enter_loop_with(
        &mut self,
        memo: &mut Memo,
        lp: CountdownLoop,
        max_cycles: u64,
        max_period: u64,
    ) -> Option<u64> {
        debug_assert!(memo.rec.is_none(), "a recording outlived its loop");
        if memo.cfg != Some(self.cfg) {
            memo.clear();
            memo.cfg = Some(self.cfg);
        }
        memo.reserve(&self.cfg);
        let base = self.ctx.int_reg(lp.reg);
        let at = memo.words.len();
        let Some((_, high)) = self.pack_loop_state(lp, base, false, &mut memo.words) else {
            memo.words.truncate(at);
            return None;
        };
        let key = &memo.words[at..];
        let hit = memo
            .spans
            .iter()
            .find(|s| memo.words[s.at..s.at + s.key_len] == *key)
            .copied();
        if let Some(span) = hit {
            memo.words.truncate(at);
            return self.replay(memo, &span, lp, base, max_cycles, max_period);
        }
        let key_len = memo.words.len() - at;
        if memo.spans.len() == MEMO_SPANS || at + key_len + state_words(&self.cfg) > MEMO_WORDS {
            memo.words.truncate(at);
            return None;
        }
        memo.rec = Some(Recording {
            at,
            key_len,
            pattern_at: memo.retired.len(),
            cycle: self.now,
            retired: self.stats.retired,
            counter: base,
            last_retired: self.stats.retired,
            in_flight: (self.fetch_q.len() + self.rob.len()) as u64,
            high,
            stats: still_stats(&self.stats),
        });
        None
    }

    /// Ends the span being recorded at the first observation that found
    /// the loop's period (`period` cycles, retiring `per_retired` and
    /// dropping the counter by `drop` each), and keeps it if a replay
    /// would be exact: every entry in flight at the key retired, every
    /// field packs, and every counter value the span read was positive.
    pub(super) fn finish_recording(
        &mut self,
        lp: CountdownLoop,
        period: u64,
        per_retired: u64,
        drop: u64,
    ) {
        let mut memo = std::mem::take(&mut self.detector.memo);
        if let Some(rec) = memo.rec {
            match self.end_span(&mut memo, &rec, lp, period, per_retired, drop) {
                Some(span) => {
                    memo.rec = None;
                    memo.spans.push(span);
                }
                None => memo.abandon(),
            }
        }
        self.detector.memo = memo;
    }

    /// The span `rec` recorded, with its end state appended to the memo's
    /// words, or `None` if it may not be replayed.
    fn end_span(
        &self,
        memo: &mut Memo,
        rec: &Recording,
        lp: CountdownLoop,
        period: u64,
        per_retired: u64,
        drop: u64,
    ) -> Option<Span> {
        assert_eq!(
            still_stats(&self.stats),
            rec.stats,
            "a countdown loop's warm-up moved statistics other than cycles and retired"
        );
        let cycles = self.now - rec.cycle;
        let retired = self.stats.retired - rec.retired;
        let recorded = (memo.retired.len() - rec.pattern_at) as u64;
        if recorded != cycles || period > cycles || retired < rec.in_flight {
            return None;
        }
        let end_at = memo.words.len();
        let (low, end_high) = self.pack_loop_state(lp, rec.counter, true, &mut memo.words)?;
        let b = rec.counter as i64;
        if b.checked_add(rec.high).is_none() || b.checked_add(low).is_none_or(|v| v < 1) {
            return None;
        }
        let pattern = &memo.retired[rec.pattern_at..];
        debug_assert_eq!(
            pattern[(cycles - period) as usize..]
                .iter()
                .map(|&n| u64::from(n))
                .sum::<u64>(),
            per_retired
        );
        let gap = pattern
            .split(|&n| n > 0)
            .map(|run| run.len() as u64)
            .max()
            .unwrap_or(0);
        Some(Span {
            at: rec.at,
            key_len: rec.key_len,
            end_len: memo.words.len() - end_at,
            pattern_at: rec.pattern_at,
            cycles,
            period,
            retired,
            per_retired,
            drop,
            low,
            high: rec.high,
            end_high,
            gap,
        })
    }

    /// Replays `span` from the key state with counter `base` if the skip
    /// at its end takes at least one period, as [`Cpu::enter_loop`]
    /// describes.
    fn replay(
        &mut self,
        memo: &Memo,
        s: &Span,
        lp: CountdownLoop,
        base: u64,
        max_cycles: u64,
        max_period: u64,
    ) -> Option<u64> {
        let b = base as i64;
        // A span that would take the counter below 1 ends in the loop's
        // exit, and one that leaves it too small for a period never skips.
        let Some(low) = b.checked_add(s.low).filter(|&v| v >= 1) else {
            self.detector.dormant = true;
            return Some(0);
        };
        let most = (low - 1) as u64 / s.drop;
        if most == 0 {
            self.detector.dormant = true;
            return Some(0);
        }
        let fits = b.checked_add(s.high).is_some()
            && b.checked_add(s.end_high)
                .is_some_and(|h| h <= i64::MAX - s.drop as i64)
            && s.period <= max_period
            && s.gap < max_period
            && s.cycles + s.period <= max_cycles;
        if !fits {
            return None;
        }
        let k = most.min((max_cycles - s.cycles) / s.period);
        let pattern = &memo.retired[s.pattern_at..][..s.cycles as usize];
        self.metrics.timeline_retired_at(self.now, pattern);
        let now = self.now + s.cycles;
        let front = self.front_seq + s.retired;
        let end = &memo.words[s.at + s.key_len..][..s.end_len];
        self.unpack_loop_state(lp, base, now, front, end);
        self.now = now;
        self.stats.cycles = now;
        self.stats.retired += s.retired;
        let p = s.period;
        let per_period = &pattern[(s.cycles - p) as usize..];
        for (o, &n) in (0..).zip(per_period) {
            self.metrics
                .timeline_retired_every(now + o, p, k, u64::from(n));
        }
        self.shift_loop_state(lp, k * p, k * s.per_retired, k.wrapping_mul(s.drop));
        let d = &mut self.detector;
        d.lp = Some(lp);
        d.in_body = true;
        d.len = 0;
        d.dormant = k == most;
        Some(s.cycles + k * p)
    }

    /// Appends the pipeline state to `out` relative to the loop `lp`: pcs
    /// relative to its start, sequence numbers to the ROB front, counter
    /// values to `base`, completion times to the clock and, with `times`,
    /// stage timestamps too (without, they and `worked` are left out).
    /// Returns the lowest and highest counter offset in the state, or
    /// `None` when a field does not fit its packing (`out` is then partly
    /// written).
    ///
    /// Eleven header words (register, step, fetch pc, committed pc,
    /// condition codes, flags, the counter's and the condition codes'
    /// rename slots, the counter, fetch-queue and ROB lengths) come first,
    /// then one word per fetched instruction (pc, predicted next pc, fetch
    /// time) and two per ROB entry: pc, predicted next pc, state,
    /// operand kind, completion time and four stage times in one; the
    /// operand and the result as 32-bit fields in the other.
    fn pack_loop_state(
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
        let rel_seq = |s: Option<u64>| s.map_or(0, |s| s.wrapping_sub(front).wrapping_add(1));
        out.extend_from_slice(&[
            lp.reg.index() as u64,
            lp.step,
            self.fetch_pc.wrapping_sub(start) as u64,
            self.ctx.pc().wrapping_sub(start) as u64,
            self.ctx.cc(),
            u64::from(self.fetch_stopped)
                | u64::from(self.halted) << 1
                | u64::from(times && self.worked) << 2,
            rel_seq(self.rename.get(RegRef::Int(lp.reg))),
            rel_seq(self.rename.get(RegRef::Cc)),
            arch as u64,
            self.fetch_q.len() as u64,
            self.rob.len() as u64,
        ]);
        debug_assert!(
            (0..self.rename.slots.len()).all(|i| self.rename.slots[i].is_none()
                || i == rename_slot(RegRef::Int(lp.reg))
                || i == rename_slot(RegRef::Cc)),
            "a loop-only ROB leaves other rename slots empty"
        );
        let body = |pc: usize| Some(pc.wrapping_sub(start) as u64).filter(|&o| o < 3);
        let next = |pc: usize| Some(pc.wrapping_sub(start) as u64).filter(|&o| o < 4);
        // A stage time packs as its age, an optional one as its age plus
        // one (0 for none); both leave the top value unused.
        let time = |t: u64| {
            if times {
                Some(now - t).filter(|&dt| dt < TIME_MASK)
            } else {
                Some(0)
            }
        };
        let stamp = |t: Option<u64>| match t {
            Some(t) if times => time(t).map(|dt| dt + 1),
            _ => Some(0),
        };
        for f in &self.fetch_q {
            out.push(body(f.pc)? | next(f.predicted_next)? << 2 | time(f.t_fetch)? << 4);
        }
        for e in self.rob.iter() {
            let off = body(e.pc)?;
            let reg = if off == 2 {
                RegRef::Cc
            } else {
                RegRef::Int(lp.reg)
            };
            let [kind, done] = st_words(e.st, now);
            let loop_entry = matches!(e.st, St::Waiting | St::Exec { .. } | St::Done)
                && e.ops.len == 1
                && e.ops.slots[0].reg == reg
                && e.addr.is_none()
                && e.space.is_none()
                && !e.mem_started;
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
                    | time(e.t_fetch)? << 24
                    | time(e.t_dispatch)? << 34
                    | stamp(e.t_issue)? << 44
                    | stamp(e.t_complete)? << 54,
            );
            out.push(i32_field(src)? | i32_field(value)? << 32);
        }
        Some((low, high))
    }

    /// Installs a state [`Cpu::pack_loop_state`] wrote with `times`, at
    /// clock `now` and ROB front `front`, with counter values relative to
    /// `base`, and rebuilds the scheduling state from it.
    fn unpack_loop_state(
        &mut self,
        lp: CountdownLoop,
        base: u64,
        now: u64,
        front: u64,
        words: &[u64],
    ) {
        let start = lp.start;
        let pc = |w: u64| start.wrapping_add(w as usize);
        let h = &words[..HEADER];
        self.fetch_pc = pc(h[2]);
        self.ctx.set_pc(pc(h[3]));
        self.ctx.set_cc(h[4]);
        self.fetch_stopped = h[5] & 1 != 0;
        self.halted = h[5] & 2 != 0;
        self.worked = h[5] & 4 != 0;
        let seq = |w: u64| (w != 0).then(|| front.wrapping_add(w - 1));
        self.rename.slots[rename_slot(RegRef::Int(lp.reg))] = seq(h[6]);
        self.rename.slots[rename_slot(RegRef::Cc)] = seq(h[7]);
        self.ctx.set_int_reg(lp.reg, base.wrapping_add(h[8]));
        let (nq, nrob) = (h[9] as usize, h[10] as usize);
        let inst = |o: u64| {
            self.program
                .fetch(start + o as usize)
                .expect("the loop body lies in the program")
        };
        let body = [inst(0), inst(1), inst(2)];
        let time = |w: u64, shift: u32| now - (w >> shift & TIME_MASK);
        let stamp = |w: u64, shift: u32| {
            let dt = w >> shift & TIME_MASK;
            (dt != 0).then(|| now - (dt - 1))
        };
        self.fetch_q.clear();
        for &w in &words[HEADER..HEADER + nq] {
            self.fetch_q.push_back(Fetched {
                pc: pc(w & 3),
                inst: body[(w & 3) as usize],
                predicted_next: pc(w >> 2 & 3),
                t_fetch: time(w, 4),
            });
        }
        self.rob.clear();
        for (seq, e) in (front..).zip(words[HEADER + nq..].chunks_exact(2)) {
            let (w, v) = (e[0], e[1]);
            let off = w & 3;
            let st = match w >> 4 & 7 {
                0 => St::Waiting,
                5 => St::Exec {
                    done_at: now.wrapping_add((w >> 8) as u16 as i16 as i64 as u64),
                },
                6 => St::Done,
                k => unreachable!("a packed loop entry in state {k}"),
            };
            let reg = if off == 2 {
                RegRef::Cc
            } else {
                RegRef::Int(lp.reg)
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
            ops.push(OperandSlot { reg, src });
            self.rob.push_back(RobEntry {
                seq,
                pc: pc(off),
                inst: body[off as usize],
                st,
                ops,
                value,
                addr: None,
                space: None,
                predicted_next: pc(w >> 2 & 3),
                mem_started: false,
                t_fetch: time(w, 24),
                t_dispatch: time(w, 34),
                t_issue: stamp(w, 44),
                t_complete: stamp(w, 54),
            });
        }
        debug_assert_eq!(self.rob.len(), nrob);
        self.front_seq = front;
        self.next_seq = front + nrob as u64;
        self.sched.rebuild(&self.rob, front);
    }
}
