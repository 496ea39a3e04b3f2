//! ASCII bus timelines drawn from the structured trace stream.
//!
//! Enable tracing with [`crate::Simulator::enable_tracing`], run a
//! workload, and render what the bus actually did cycle by cycle — the
//! fastest way to *see* why combining schemes differ:
//!
//! ```text
//! bus cycle 0        1         2         3
//!           AD.AD.AD.AD.                      <- non-combining, turnaround
//!           ADDDDDDDD                         <- one CSB line burst
//! ```
//!
//! Legend: `A` address cycle, `D` data cycle, `a`/`d` the same for a read,
//! `F` foreign-master occupancy, `.` idle.

use csb_obs::{EventKind, TraceEvent};
use serde::Serialize;

/// A rendered timeline plus its bounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Timeline {
    /// First bus cycle rendered.
    pub from: u64,
    /// Last bus cycle rendered (inclusive).
    pub to: u64,
    /// One character per bus cycle (see module docs for the legend).
    pub lane: String,
}

impl Timeline {
    /// Renders the timeline with a cycle ruler: the window start is always
    /// labeled, then every multiple of ten, each label sitting directly
    /// above the cycle it names. A label whose column is still covered by
    /// the previous label is skipped rather than shifted, so the ones that
    /// do appear are never misaligned — windows starting off a multiple of
    /// ten (or too short to contain one) stay readable.
    pub fn render(&self) -> String {
        let offset = |cycle: u64| (cycle - self.from) as usize;
        let mut anchors = vec![self.from];
        let mut next = (self.from / 10 + 1) * 10;
        while next <= self.to {
            anchors.push(next);
            next += 10;
        }
        let mut ruler = String::new();
        for anchor in anchors {
            if offset(anchor) < ruler.len() {
                // The previous label spills over this column; skipping
                // keeps every printed label on its own cycle.
                continue;
            }
            while ruler.len() < offset(anchor) {
                ruler.push(' ');
            }
            ruler.push_str(&anchor.to_string());
        }
        format!("bus cycle {ruler}\n          {}", self.lane)
    }
}

/// Builds a bus-occupancy [`Timeline`] over `[from, to]` bus cycles from
/// a [`csb_obs`] trace stream.
///
/// Trace events are stamped in *CPU* cycles (the bus sink is pre-scaled by
/// the CPU:bus frequency ratio), so `ratio` converts them back to the bus
/// cycles the lane is drawn in. Only bus-master and foreign-traffic spans
/// contribute; everything else in the stream is ignored. Each span's
/// first cycle is drawn as its address cycle, also on a split bus, where
/// that is the cycle the arbitration decision lands.
///
/// Overlapping spans (impossible on a correct single bus) are rendered
/// with `X` so model bugs become visible rather than silently masked.
///
/// # Examples
///
/// ```
/// use csb_bus::{BusConfig, SystemBus, Transaction};
/// use csb_core::trace;
/// use csb_isa::Addr;
/// use csb_obs::TraceSink;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut bus = SystemBus::new(BusConfig::multiplexed(8).build()?);
/// let sink = TraceSink::enabled();
/// bus.set_trace_sink(sink.clone());
/// bus.try_issue(0, Transaction::write(Addr::new(0), 8))?;
/// bus.try_issue(2, Transaction::write(Addr::new(64), 64))?;
/// let t = trace::timeline(&sink.snapshot(), 0, 10, 1);
/// assert_eq!(t.lane, "ADADDDDDDDD");
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if `from > to` or `ratio == 0`.
pub fn timeline(events: &[TraceEvent], from: u64, to: u64, ratio: u64) -> Timeline {
    assert!(from <= to, "empty timeline range");
    assert!(ratio > 0, "CPU:bus ratio must be positive");
    let mut lane: Vec<char> = vec!['.'; (to - from + 1) as usize];
    let mut put = |cycle: u64, ch: char| {
        if cycle < from || cycle > to {
            return;
        }
        let slot = &mut lane[(cycle - from) as usize];
        *slot = if *slot == '.' { ch } else { 'X' };
    };
    for e in events {
        let (addr_ch, data_ch) = match e.kind {
            EventKind::BusTxn { write: true, .. } => ('A', 'D'),
            EventKind::BusTxn { write: false, .. } => ('a', 'd'),
            EventKind::ForeignTxn { .. } => ('F', 'F'),
            _ => continue,
        };
        let addr_cycle = e.cycle / ratio;
        let beats = (e.dur / ratio).max(1);
        put(addr_cycle, addr_ch);
        for c in addr_cycle + 1..addr_cycle + beats {
            put(c, data_ch);
        }
    }
    Timeline {
        from,
        to,
        lane: lane.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_bus::{BusConfig, SystemBus, Transaction};
    use csb_isa::Addr;
    use csb_obs::TraceSink;

    /// A bare bus recording into an enabled sink at ratio 1, so event
    /// cycles are bus cycles.
    fn traced_bus(cfg: BusConfig) -> (SystemBus, TraceSink) {
        let mut bus = SystemBus::new(cfg);
        let sink = TraceSink::enabled();
        bus.set_trace_sink(sink.clone());
        (bus, sink)
    }

    /// Three back-to-back doubleword writes.
    fn events_of(turnaround: u64) -> Vec<TraceEvent> {
        let cfg = BusConfig::multiplexed(8)
            .turnaround(turnaround)
            .max_burst(64)
            .build()
            .unwrap();
        let (mut bus, sink) = traced_bus(cfg);
        let mut now = 0;
        for i in 0..3u64 {
            now = bus.earliest_start(now);
            let issued = bus
                .try_issue(now, Transaction::write(Addr::new(i * 8), 8))
                .unwrap()
                .unwrap();
            now = issued.completes_at + 1;
        }
        sink.snapshot()
    }

    #[test]
    fn back_to_back_lane() {
        let t = timeline(&events_of(0), 0, 5, 1);
        assert_eq!(t.lane, "ADADAD");
    }

    #[test]
    fn turnaround_leaves_idle_cycles() {
        let t = timeline(&events_of(1), 0, 7, 1);
        assert_eq!(t.lane, "AD.AD.AD");
    }

    #[test]
    fn reads_render_lowercase() {
        let (mut bus, sink) = traced_bus(BusConfig::multiplexed(8).build().unwrap());
        bus.try_issue(0, Transaction::read(Addr::new(0), 8))
            .unwrap()
            .unwrap();
        let t = timeline(&sink.snapshot(), 0, 2, 1);
        assert_eq!(t.lane, "ad.");
    }

    #[test]
    fn foreign_traffic_renders_f() {
        let cfg = BusConfig::multiplexed(8)
            .background(0.5, 8)
            .build()
            .unwrap();
        let (mut bus, sink) = traced_bus(cfg);
        bus.try_issue(0, Transaction::write(Addr::new(0), 8))
            .unwrap()
            .unwrap();
        let t = timeline(&sink.snapshot(), 0, 3, 1);
        assert_eq!(t.lane, "ADFF");
    }

    #[test]
    fn ruler_renders() {
        let t = timeline(&events_of(0), 0, 15, 1);
        let s = t.render();
        assert!(s.contains("bus cycle"));
        assert!(s.contains("0"));
        assert!(s.lines().count() == 2);
    }

    fn ruler_of(from: u64, to: u64) -> String {
        let t = Timeline {
            from,
            to,
            lane: ".".repeat((to - from + 1) as usize),
        };
        let s = t.render();
        let line = s.lines().next().unwrap();
        line.strip_prefix("bus cycle ").unwrap().to_string()
    }

    #[test]
    fn ruler_from_zero_labels_every_ten() {
        assert_eq!(ruler_of(0, 25), "0         10        20");
    }

    #[test]
    fn ruler_offset_window_labels_its_start() {
        // A window starting off a multiple of ten is anchored at `from`,
        // with each later label above the cycle it names.
        assert_eq!(ruler_of(13, 34), "13     20        30");
    }

    #[test]
    fn ruler_short_window_without_decade_still_labeled() {
        // 5..=9 contains no multiple of ten; the old renderer printed
        // nothing but spaces here.
        assert_eq!(ruler_of(5, 9), "5");
    }

    #[test]
    fn ruler_skips_overlapping_labels() {
        // "99" covers the column where "100" would start.
        assert_eq!(ruler_of(99, 112), "99         110");
    }

    #[test]
    fn ruler_single_cycle_window() {
        assert_eq!(ruler_of(7, 7), "7");
        assert_eq!(ruler_of(10, 10), "10");
    }

    #[test]
    fn timeline_from_trace_events_pins_a_csb_burst() {
        // A whole simulated CSB line: eight combining stores, then the
        // conditional flush commits one 9-cycle burst. The stream is
        // stamped in CPU cycles; `ratio` draws it in bus cycles.
        use crate::config::COMBINING_BASE;
        use crate::{SimConfig, Simulator};
        use csb_isa::{Assembler, Reg};

        let mut a = Assembler::new();
        a.movi(Reg::O1, COMBINING_BASE as i64);
        for i in 0..8 {
            a.movi(Reg::L0, i);
            a.std(Reg::L0, Reg::O1, 8 * i);
        }
        a.movi(Reg::L4, 8);
        a.swap(Reg::L4, Reg::O1, 0);
        a.halt();
        let program = a.assemble().unwrap();
        let cfg = SimConfig::default();
        let ratio = cfg.ratio;
        let mut sim = Simulator::new(cfg, program).unwrap();
        sim.enable_tracing();
        sim.run(100_000).unwrap();

        let t = timeline(&sim.trace_events(), 0, 40, ratio);
        assert_eq!(t.lane, "...ADDDDDDDD.............................");
    }

    #[test]
    fn window_clips() {
        let t = timeline(&events_of(0), 2, 3, 1);
        assert_eq!(t.lane, "AD");
    }

    #[test]
    #[should_panic(expected = "empty timeline")]
    fn bad_range_panics() {
        timeline(&[], 5, 4, 1);
    }
}
