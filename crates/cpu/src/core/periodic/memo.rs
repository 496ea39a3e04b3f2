//! The warm-up memo of periodic fast-forward.
//!
//! A countdown loop reaches the steady state [`Cpu::skip_loop_periods`]
//! jumps only once the instructions fetched while the fetch queue and ROB
//! filled behind it have retired: 63–72 real ticks per loop of the
//! messaging sweep on the default core. Those ticks are a function of the
//! pipeline state at the loop's first in-body observation, taken relative
//! to the loop, so the first loop entered from a state records its
//! warm-up span and every later one takes the span and the periodic skip
//! after it in one call, installing the span's end state once, at the
//! end of both.
//!
//! The key holds what steers the pipeline and nothing else: pcs relative
//! to the loop start, sequence numbers relative to the ROB front, counter
//! values relative to the architectural counter, completion times relative
//! to the clock, the condition codes, and the loop's register and step.
//! It leaves out the fetch times, the detector's fill clock, and
//! [`crate::CpuStats`], which no stage reads. The end state holds the
//! fetch times too; a span is kept only if every entry in flight at the
//! key retired inside it, so every fetch time at its end lies inside the
//! span and is exact relative to the clock. The configuration is not part of each key: the memo belongs to
//! one run, and a run's core changes its configuration only in a warm
//! reset, which empties the memo.

use super::super::Cpu;
use super::{periods_left, state_words, still_stats, CountdownLoop, Origin, Period, TIME_MASK};
use crate::config::CpuConfig;

/// Most spans one memo keeps.
const MEMO_SPANS: usize = 16;
/// Most words of keys and end states one memo keeps (24 KiB).
const MEMO_WORDS: usize = 3 * 1024;
/// Most per-cycle retirement counts one memo keeps.
const MEMO_CYCLES: usize = 4 * 1024;
/// Longest span recorded, in cycles: every fetch time at its end fits.
const MAX_SPAN: u64 = TIME_MASK - 1;

/// One memoized warm-up span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Where its key starts in [`Memo::words`]; its end state follows.
    at: usize,
    key_len: usize,
    end_len: usize,
    /// Where its retirements per cycle start in [`Memo::retired`].
    pattern_at: usize,
    /// Its length in cycles, and the instructions retired over it.
    cycles: u64,
    retired: u64,
    /// The period found at its end.
    per: Period,
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
    spans: Vec<Span>,
    /// Each span's key, then its end state (see [`Cpu::pack_state`]).
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
    pub(super) fn reserve(&mut self, cfg: &CpuConfig) {
        let words = MEMO_WORDS + state_words(cfg, false);
        self.words
            .reserve_exact(words.saturating_sub(self.words.len()));
        self.retired
            .reserve_exact(MEMO_CYCLES.saturating_sub(self.retired.len()));
        self.spans
            .reserve_exact(MEMO_SPANS.saturating_sub(self.spans.len()));
    }
}

impl Cpu {
    /// Looks up the warm-up of the loop `lp` at its first in-body
    /// observation. On a hit that fits `max_cycles` and `max_period` (see
    /// [`Cpu::skip_loop_periods`]), takes the span and the periodic skip
    /// after it, installing the span's end state once at the end of both,
    /// and returns the cycles both cover. Returns `Some(0)` when the counter is too small for the loop
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
        let base = self.ctx.int_reg(lp.reg);
        let at = memo.words.len();
        let key_at = Origin::of_loop(lp, self.now, self.front_seq, base);
        let Some((_, high)) = self.pack_state(key_at, false, &mut memo.words) else {
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
        if memo.spans.len() == MEMO_SPANS
            || at + key_len + state_words(&self.cfg, false) > MEMO_WORDS
        {
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
    /// the loop's period `per`, and keeps it if a replay would be exact:
    /// every entry in flight at the key retired, every field packs, and
    /// every counter value the span read was positive.
    pub(super) fn finish_recording(&mut self, lp: CountdownLoop, per: Period) {
        let mut memo = std::mem::take(&mut self.detector.memo);
        if let Some(rec) = memo.rec {
            match self.end_span(&mut memo, &rec, lp, per) {
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
        per: Period,
    ) -> Option<Span> {
        assert_eq!(
            still_stats(&self.stats),
            rec.stats,
            "a countdown loop's warm-up moved statistics other than cycles and retired"
        );
        let cycles = self.now - rec.cycle;
        let retired = self.stats.retired - rec.retired;
        let recorded = (memo.retired.len() - rec.pattern_at) as u64;
        if recorded != cycles || per.cycles > cycles || retired < rec.in_flight {
            return None;
        }
        let end_at = memo.words.len();
        let end = Origin::of_loop(lp, self.now, self.front_seq, rec.counter);
        let (low, end_high) = self.pack_state(end, true, &mut memo.words)?;
        let b = rec.counter as i64;
        if b.checked_add(rec.high).is_none() || b.checked_add(low).is_none_or(|v| v < 1) {
            return None;
        }
        let pattern = &memo.retired[rec.pattern_at..];
        debug_assert_eq!(
            pattern[(cycles - per.cycles) as usize..]
                .iter()
                .map(|&n| u64::from(n))
                .sum::<u64>(),
            per.retired
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
            retired,
            per,
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
        let p = s.per.cycles;
        // A span that would take the counter below 1 ends in the loop's
        // exit, and one that leaves it too small for a period never skips.
        let most = periods_left(b.checked_add(s.low), s.per.drop);
        if most == 0 {
            self.detector.dormant = true;
            return Some(0);
        }
        let fits = b.checked_add(s.high).is_some()
            && b.checked_add(s.end_high)
                .is_some_and(|h| h <= i64::MAX - s.per.drop as i64)
            && p <= max_period
            && s.gap < max_period
            && s.cycles + p <= max_cycles;
        if !fits {
            return None;
        }
        let pattern = &memo.retired[s.pattern_at..][..s.cycles as usize];
        self.metrics.timeline_retired_at(self.now, pattern);
        let at = Origin::of_loop(lp, self.now + s.cycles, self.front_seq + s.retired, base);
        let per_cycle = pattern[(s.cycles - p) as usize..]
            .iter()
            .map(|&n| u64::from(n));
        let end = &memo.words[s.at + s.key_len..][..s.end_len];
        let k = self.take_periods(end, at, s.per, per_cycle, most, max_cycles - s.cycles);
        Some(s.cycles + k * p)
    }
}
