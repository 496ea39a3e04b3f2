//! Windowed time-series metrics: a fixed-capacity timeline of per-window
//! activity counters fed identically by the naive loop and the
//! fast-forward walk.
//!
//! A [`Timeline`] divides the run into windows of `window_cycles` CPU
//! cycles and accumulates one [`WindowStats`] per window (bus occupancy,
//! flush outcomes, fault counts, retirement rate). The capacity is fixed:
//! when a run outgrows it, the window size doubles and adjacent windows
//! are compacted pairwise in place, so arbitrarily long runs fit in
//! bounded memory, per-window resolution degrades gracefully, and the
//! *sums* across windows stay exact at every resolution — the invariant
//! the timeline's consumers (over-time curves at gigacycle scale) rely
//! on, and the one the test suite pins against the totals counters.

use serde::Serialize;

/// Fixed number of windows a [`Timeline`] holds before coarsening.
pub const TIMELINE_WINDOWS: usize = 64;

/// Initial window width in CPU cycles.
pub const TIMELINE_BASE_WINDOW: u64 = 4096;

/// Activity accumulated over one timeline window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct WindowStats {
    /// Bus transactions issued (accepted) in the window.
    pub bus_txns: u64,
    /// CPU cycles of bus occupancy attributed to the window (each
    /// transaction's full duration is attributed to its issue window).
    pub bus_busy_cycles: u64,
    /// Payload bytes carried by transactions issued in the window.
    pub bus_payload_bytes: u64,
    /// Conditional flushes that committed in the window.
    pub flush_successes: u64,
    /// Conditional flushes that failed (disturbed) in the window.
    pub flush_failures: u64,
    /// Injected faults observed in the window (bus errors, device NACKs,
    /// flush disturbs).
    pub faults: u64,
    /// Instructions retired in the window.
    pub retired: u64,
}

impl WindowStats {
    fn add(&mut self, other: &WindowStats) {
        self.bus_txns += other.bus_txns;
        self.bus_busy_cycles += other.bus_busy_cycles;
        self.bus_payload_bytes += other.bus_payload_bytes;
        self.flush_successes += other.flush_successes;
        self.flush_failures += other.flush_failures;
        self.faults += other.faults;
        self.retired += other.retired;
    }

    fn is_zero(&self) -> bool {
        *self == WindowStats::default()
    }
}

/// One timeline sample: what happened, to be accumulated into the window
/// covering the cycle it happened at.
#[derive(Debug, Clone, Copy)]
pub enum TimelineEvent {
    /// A bus transaction was accepted: `busy_cycles` of occupancy (CPU
    /// cycles) carrying `payload` bytes.
    BusTxn {
        /// Transaction duration in CPU cycles.
        busy_cycles: u64,
        /// Payload bytes carried.
        payload: u64,
    },
    /// A conditional flush committed.
    FlushSuccess,
    /// A conditional flush failed (line disturbed mid-flush).
    FlushFailure,
    /// An injected fault fired (bus error, device NACK, or flush disturb).
    Fault,
    /// An instruction retired.
    Retired,
}

/// The adaptive-resolution window ring described in the module docs, and
/// the `timeline` section of the metrics JSON artifact: a snapshot is a
/// clone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Timeline {
    /// Window width in CPU cycles.
    pub window_cycles: u64,
    /// Per-window activity, window 0 covering cycles
    /// `[0, window_cycles)`. Trailing all-zero windows are kept (they are
    /// real quiet windows); an unfed timeline has none.
    pub windows: Vec<WindowStats>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline {
            window_cycles: TIMELINE_BASE_WINDOW,
            windows: Vec::new(),
        }
    }
}

impl Timeline {
    /// Accumulates `event` into the window covering `cycle`, coarsening
    /// first if `cycle` lies beyond the fixed capacity.
    pub fn record(&mut self, cycle: u64, event: TimelineEvent) {
        let idx = self.make_room(cycle);
        let w = &mut self.windows[idx];
        match event {
            TimelineEvent::BusTxn {
                busy_cycles,
                payload,
            } => {
                w.bus_txns += 1;
                w.bus_busy_cycles += busy_cycles;
                w.bus_payload_bytes += payload;
            }
            TimelineEvent::FlushSuccess => w.flush_successes += 1,
            TimelineEvent::FlushFailure => w.flush_failures += 1,
            TimelineEvent::Fault => w.faults += 1,
            TimelineEvent::Retired => w.retired += 1,
        }
    }

    /// Accumulates `count` retirements at each of the `times` cycles
    /// `first`, `first + period`, … — the windows `times × count` single
    /// [`TimelineEvent::Retired`] records would fill, added per window
    /// rather than per record. The window layout depends only on the
    /// latest cycle recorded, so making room for the last cycle up front
    /// leaves the same timeline as recording in cycle order.
    pub fn record_retired_every(&mut self, first: u64, period: u64, times: u64, count: u64) {
        if times == 0 || count == 0 {
            return;
        }
        let period = period.max(1);
        self.make_room(first + (times - 1) * period);
        let mut done = 0;
        while done < times {
            let idx = (first + done * period) / self.window_cycles;
            // Records before the next window's first cycle land here.
            let end = (idx + 1) * self.window_cycles;
            let upto = (end - first).div_ceil(period).min(times);
            self.windows[idx as usize].retired += (upto - done) * count;
            done = upto;
        }
    }

    /// Accumulates `counts[i]` retirements at cycle `first + i` for every
    /// `i` — the windows those single [`TimelineEvent::Retired`] records
    /// would fill, added in one pass. Like
    /// [`Timeline::record_retired_every`], it makes room for the last
    /// cycle up front.
    pub fn record_retired_at(&mut self, first: u64, counts: &[u8]) {
        let Some(last) = counts.iter().rposition(|&n| n > 0) else {
            return;
        };
        self.make_room(first + last as u64);
        for (cycle, &n) in (first..).zip(counts) {
            self.windows[(cycle / self.window_cycles) as usize].retired += u64::from(n);
        }
    }

    /// Coarsens until `cycle` lies within the fixed capacity, then grows
    /// the window list to cover it. Returns the index of its window.
    fn make_room(&mut self, cycle: u64) -> usize {
        while cycle / self.window_cycles >= TIMELINE_WINDOWS as u64 {
            self.coarsen();
        }
        let idx = (cycle / self.window_cycles) as usize;
        if self.windows.len() <= idx {
            self.windows.resize(idx + 1, WindowStats::default());
        }
        idx
    }

    /// Doubles the window width, folding adjacent window pairs together.
    /// Sums across windows are preserved exactly.
    fn coarsen(&mut self) {
        let pairs = self.windows.len().div_ceil(2);
        for i in 0..pairs {
            let mut merged = self.windows[2 * i];
            if let Some(odd) = self.windows.get(2 * i + 1) {
                merged.add(odd);
            }
            self.windows[i] = merged;
        }
        self.windows.truncate(pairs);
        self.window_cycles *= 2;
    }

    /// `true` if no activity was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.windows.iter().all(WindowStats::is_zero)
    }

    /// Sums every window into one [`WindowStats`] — by construction equal
    /// to the run totals at any resolution.
    pub fn totals(&self) -> WindowStats {
        let mut t = WindowStats::default();
        for w in &self.windows {
            t.add(w);
        }
        t
    }

    /// Folds another timeline into this one: the finer side is coarsened
    /// to the wider window width, then windows add elementwise. Used when
    /// sweep points merge into one run-level profile.
    pub fn merge(&mut self, other: &Timeline) {
        let mut other = other.clone();
        while self.window_cycles < other.window_cycles {
            self.coarsen();
        }
        while other.window_cycles < self.window_cycles {
            other.coarsen();
        }
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize(other.windows.len(), WindowStats::default());
        }
        for (a, b) in self.windows.iter_mut().zip(other.windows.iter()) {
            a.add(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_the_covering_window() {
        let mut t = Timeline::default();
        t.record(0, TimelineEvent::Retired);
        t.record(TIMELINE_BASE_WINDOW - 1, TimelineEvent::Retired);
        t.record(TIMELINE_BASE_WINDOW, TimelineEvent::FlushSuccess);
        let s = t;
        assert_eq!(s.window_cycles, TIMELINE_BASE_WINDOW);
        assert_eq!(s.windows.len(), 2);
        assert_eq!(s.windows[0].retired, 2);
        assert_eq!(s.windows[1].flush_successes, 1);
    }

    #[test]
    fn coarsening_preserves_totals_exactly() {
        let mut t = Timeline::default();
        // Spread activity far enough to force several coarsenings.
        for i in 0..1000u64 {
            t.record(
                i * 997,
                TimelineEvent::BusTxn {
                    busy_cycles: 48,
                    payload: 64,
                },
            );
            t.record(i * 997, TimelineEvent::Retired);
        }
        // Jump three orders of magnitude past the base capacity.
        t.record(
            TIMELINE_BASE_WINDOW * TIMELINE_WINDOWS as u64 * 1000,
            TimelineEvent::Fault,
        );
        let s = t;
        assert!(s.windows.len() <= TIMELINE_WINDOWS);
        assert!(s.window_cycles > TIMELINE_BASE_WINDOW);
        let totals = s.totals();
        assert_eq!(totals.bus_txns, 1000);
        assert_eq!(totals.bus_busy_cycles, 48_000);
        assert_eq!(totals.bus_payload_bytes, 64_000);
        assert_eq!(totals.retired, 1000);
        assert_eq!(totals.faults, 1);
    }

    #[test]
    fn bulk_retire_equals_single_records_at_every_resolution() {
        let span = TIMELINE_BASE_WINDOW * TIMELINE_WINDOWS as u64;
        // Starts at, inside and past the base capacity, so the bulk call
        // meets every resolution and crosses coarsenings of its own.
        for (first, period, times, count) in [
            (0, 1, 5000, 1),
            (17, 3, 2000, 2),
            (TIMELINE_BASE_WINDOW - 1, 7, 3, 4),
            (span - 5, 2, 10, 1),
            (span - 100, 13, 20_000, 3),
            (3 * span + 11, 4096, 300, 1),
            (9, 5, 0, 1),
        ] {
            let mut single = Timeline::default();
            let mut bulk = Timeline::default();
            for t in [&mut single, &mut bulk] {
                t.record(5, TimelineEvent::Retired);
                t.record(span / 2, TimelineEvent::Fault);
            }
            for j in 0..times {
                for _ in 0..count {
                    single.record(first + j * period, TimelineEvent::Retired);
                }
            }
            bulk.record_retired_every(first, period, times, count);
            assert_eq!(
                bulk, single,
                "first {first} period {period} times {times} count {count}"
            );
        }
    }

    #[test]
    fn retirement_pattern_equals_single_records_at_every_resolution() {
        let span = TIMELINE_BASE_WINDOW * TIMELINE_WINDOWS as u64;
        let pattern: Vec<u8> = (0..300u32).map(|i| (i * 7 % 5) as u8).collect();
        for (first, counts) in [
            (0, &pattern[..]),
            (TIMELINE_BASE_WINDOW - 3, &pattern[..40]),
            (span - 150, &pattern[..]),
            (3 * span + 11, &pattern[..]),
            (9, &[0u8, 0, 0][..]),
            (9, &[][..]),
        ] {
            let mut single = Timeline::default();
            let mut bulk = Timeline::default();
            for t in [&mut single, &mut bulk] {
                t.record(5, TimelineEvent::Retired);
                t.record(span / 2, TimelineEvent::Fault);
            }
            for (cycle, &n) in (first..).zip(counts) {
                for _ in 0..n {
                    single.record(cycle, TimelineEvent::Retired);
                }
            }
            bulk.record_retired_at(first, counts);
            assert_eq!(bulk, single, "first {first}, {} cycles", counts.len());
        }
    }

    #[test]
    fn merge_coarsens_to_the_wider_window() {
        let mut fine = Timeline::default();
        fine.record(0, TimelineEvent::Retired);
        fine.record(TIMELINE_BASE_WINDOW * 3, TimelineEvent::FlushFailure);
        let mut coarse = Timeline::default();
        coarse.record(
            TIMELINE_BASE_WINDOW * TIMELINE_WINDOWS as u64 * 2,
            TimelineEvent::Fault,
        );
        let mut merged = fine.clone();
        merged.merge(&coarse);
        assert_eq!(merged.window_cycles, coarse.window_cycles);
        let totals = merged.totals();
        assert_eq!(totals.retired, 1);
        assert_eq!(totals.flush_failures, 1);
        assert_eq!(totals.faults, 1);
        // Symmetric direction: coarse absorbs fine.
        let mut merged2 = coarse;
        merged2.merge(&fine);
        assert_eq!(merged2, merged);
    }

    #[test]
    fn unfed_timeline_is_empty() {
        let t = Timeline::default();
        assert!(t.is_empty());
        assert_eq!(t.totals(), WindowStats::default());
    }
}
