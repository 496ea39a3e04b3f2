//! Unified cycle-stamped tracing and metrics for the CSB simulator.
//!
//! The paper's argument lives in cycle-level interleavings — who owned the
//! bus when, how long a conditional flush optimistically retried, where
//! retirement stalled. This crate gives every simulation component one
//! shared, zero-cost-when-disabled way to record that evidence:
//!
//! * [`TraceSink`] — a cloneable handle into one stream of cycle-stamped
//!   structured [`TraceEvent`]s. Components hold a (possibly disabled)
//!   handle and call [`TraceSink::emit`]; a disabled handle is a single
//!   `Option` check, no allocation, no formatting.
//! * [`MetricsRegistry`] — named counters and log2-bucketed [`Histogram`]s
//!   (flush retry latency, store→flush gaps, burst sizes, stall runs),
//!   snapshotted into a serializable [`MetricsSnapshot`].
//! * [`chrome_trace_json`] — exports a recorded event stream as Chrome
//!   trace-event JSON, loadable directly in `ui.perfetto.dev`, with one
//!   track per agent (CPU pipeline, CSB, uncached buffer, bus master,
//!   foreign traffic).
//! * [`Timeline`] — a fixed-capacity ring of per-window activity counters
//!   (bus occupancy, flush outcomes, faults, retirement), fed identically
//!   by the naive loop and the fast-forward walk and exported as the
//!   `timeline` section of [`MetricsSnapshot`].
//! * [`LedgerRecord`] / [`diff_ledgers`] — the append-only JSONL perf
//!   ledger bench binaries write one record per point into, and the diff
//!   that flags cycle-count or flush-latency regressions between runs.
//!
//! Time is always the **CPU cycle** clock (one trace microsecond per CPU
//! cycle in the export). Components clocked in bus cycles attach through
//! [`TraceSink::scaled`], which rescales their timestamps onto the shared
//! timeline at emission.
//!
//! # Examples
//!
//! ```
//! use csb_obs::{chrome_trace_json, EventKind, TraceSink, Track};
//!
//! let sink = TraceSink::enabled();
//! sink.set_now(12);
//! sink.emit(Track::Cpu, EventKind::Retire { pc: 3, inst: "std".into() });
//!
//! // A bus-clocked component (ratio 6) stamps in bus cycles:
//! let bus_sink = sink.scaled(6);
//! bus_sink.emit_span(2, 9, Track::Bus, EventKind::BusTxn {
//!     addr: 0x2000_0000, size: 64, payload: 64, write: true, tag: 0,
//! });
//!
//! let events = sink.snapshot();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].cycle, 12); // 2 bus cycles × 6
//! let json = chrome_trace_json(&events);
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
mod ledger;
mod metrics;
mod sink;
mod timeline;

pub use chrome::chrome_trace_json;
pub use event::{EventKind, TraceEvent, Track};
pub use ledger::{
    diff_ledgers, parse_ledger, parse_record, LedgerDiff, LedgerRecord, LedgerRegression,
};
pub use metrics::{BucketCount, Histogram, HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use sink::TraceSink;
pub use timeline::{
    Timeline, TimelineEvent, TimelineSnapshot, WindowStats, TIMELINE_BASE_WINDOW, TIMELINE_WINDOWS,
};
