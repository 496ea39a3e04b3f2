//! Seeded, deterministic fault injection for the CSB simulator.
//!
//! The CSB's conditional flush is an *optimistic* protocol: the paper's
//! lock-free I/O claim rests on software retrying a flush that a
//! competing access disturbed. To quantify how that optimism degrades,
//! this crate provides a [`FaultConfig`]: a reproducible schedule of
//! injected faults derived entirely from a `u64` seed plus per-kind rate
//! and window parameters — no wall clock, no global RNG, no
//! injection-site state beyond a per-kind ordinal counter.
//!
//! # Determinism
//!
//! Each fault site asks the schedule one question: *should the n-th
//! event of kind K fault?* The answer is a pure function of
//! `(seed, K, n)` (a SplitMix64 hash compared against the kind's rate
//! threshold), so the decision stream is invariant under anything that
//! preserves event *order*: the event-driven fast-forward path, warm
//! simulator reuse, and `--jobs N` parallel sweeps all see byte-identical
//! fault schedules. Raising the rate only ever *adds* fault ordinals
//! (the hash is compared against a larger threshold), which is what makes
//! success-rate curves monotone in the rate for retry policies that probe
//! a fixed ordinal prefix.
//!
//! A disabled [`FaultInjector`] (the default) costs one branch per hook,
//! mirroring the `csb-obs` trace-sink design, so a zero-fault run is
//! byte-identical to a build without the layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// The kinds of fault the schedule can inject, each with an independent
/// ordinal stream and rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A bus transaction completes with an error status: the slot (and
    /// its occupancy) is consumed but nothing is delivered, and the
    /// master must re-arbitrate. Bounded hardware retry comes from
    /// [`FaultConfig::max_consecutive`].
    BusError,
    /// The target device answers a write with busy/NACK: the bus carried
    /// the transaction but the payload is refused and the master retries.
    DeviceNack,
    /// A conditional flush is disturbed (as if a competing access hit
    /// the buffered line), forcing flush-failure semantics without a
    /// second processor.
    FlushDisturb,
}

impl FaultKind {
    const ALL: [FaultKind; 3] = [
        FaultKind::BusError,
        FaultKind::DeviceNack,
        FaultKind::FlushDisturb,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::BusError => 0,
            FaultKind::DeviceNack => 1,
            FaultKind::FlushDisturb => 2,
        }
    }

    /// Per-kind salt so the three ordinal streams are independent even
    /// under the same seed.
    fn salt(self) -> u64 {
        match self {
            FaultKind::BusError => 0x6275_735f_6572_7221, // "bus_err!"
            FaultKind::DeviceNack => 0x6465_765f_6e61_636b, // "dev_nack"
            FaultKind::FlushDisturb => 0x666c_7573_685f_7821, // "flush_x!"
        }
    }

    /// Stable lower-case name, used for trace/report labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::BusError => "bus_error",
            FaultKind::DeviceNack => "device_nack",
            FaultKind::FlushDisturb => "flush_disturb",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Declarative description of a fault schedule.
///
/// Rates are probabilities in `[0, 1]` applied independently to each
/// ordinal of the kind's event stream. The optional window restricts
/// injection to an ordinal range, and `max_consecutive` bounds how many
/// faults in a row a single kind may produce (modelling bounded hardware
/// retry: the K+1-th consecutive attempt is forced to succeed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the whole schedule. The same seed and parameters always
    /// reproduce the same fault decisions.
    pub seed: u64,
    /// Fault probability per bus transaction issue.
    pub bus_error_rate: f64,
    /// Fault probability per device write delivery.
    pub device_nack_rate: f64,
    /// Fault probability per conditional-flush attempt.
    pub flush_disturb_rate: f64,
    /// Upper bound on consecutive injected faults per kind; `0` means
    /// unbounded. With a bound K, any run of injected faults is forced
    /// to end after K, so bounded hardware retry always terminates.
    pub max_consecutive: u32,
    /// Restrict injection to ordinals in `[start, start + len)` of each
    /// kind's stream; `None` leaves every ordinal eligible.
    pub window: Option<FaultWindow>,
}

/// An ordinal window `[start, start + len)` limiting when a schedule is
/// active within each kind's event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First eligible ordinal.
    pub start: u64,
    /// Number of eligible ordinals.
    pub len: u64,
}

impl FaultConfig {
    /// A schedule with the given seed and all rates zero.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            bus_error_rate: 0.0,
            device_nack_rate: 0.0,
            flush_disturb_rate: 0.0,
            max_consecutive: 0,
            window: None,
        }
    }

    /// Sets the bus-transaction error rate.
    #[must_use]
    pub fn bus_error_rate(mut self, rate: f64) -> Self {
        self.bus_error_rate = rate;
        self
    }

    /// Sets the device busy/NACK rate.
    #[must_use]
    pub fn device_nack_rate(mut self, rate: f64) -> Self {
        self.device_nack_rate = rate;
        self
    }

    /// Sets the conditional-flush disturbance rate.
    #[must_use]
    pub fn flush_disturb_rate(mut self, rate: f64) -> Self {
        self.flush_disturb_rate = rate;
        self
    }

    /// Bounds consecutive injected faults per kind (`0` = unbounded).
    #[must_use]
    pub fn max_consecutive(mut self, bound: u32) -> Self {
        self.max_consecutive = bound;
        self
    }

    /// Restricts injection to an ordinal window of each kind's stream.
    #[must_use]
    pub fn window(mut self, start: u64, len: u64) -> Self {
        self.window = Some(FaultWindow { start, len });
        self
    }

    fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::BusError => self.bus_error_rate,
            FaultKind::DeviceNack => self.device_nack_rate,
            FaultKind::FlushDisturb => self.flush_disturb_rate,
        }
    }

    /// `true` if no kind can ever fault (the schedule is a no-op).
    pub fn is_zero(&self) -> bool {
        FaultKind::ALL.iter().all(|&k| self.rate(k) <= 0.0)
    }
}

/// Injection counts per kind, plus how many decisions were taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Decisions asked per kind (the ordinal counters).
    pub checks: [u64; 3],
    /// Faults injected per kind.
    pub injected: [u64; 3],
}

impl FaultStats {
    /// Decisions asked for `kind`.
    pub fn checks(&self, kind: FaultKind) -> u64 {
        self.checks[kind.index()]
    }

    /// Faults injected for `kind`.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }

    /// Total faults injected across all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[derive(Debug)]
struct Shared {
    cfg: FaultConfig,
    /// Precomputed 53-bit thresholds per kind.
    thresholds: [u64; 3],
    stats: FaultStats,
    /// Current run length of consecutive injected faults per kind.
    consecutive: [u32; 3],
}

impl Shared {
    fn new(cfg: FaultConfig) -> Self {
        let mut thresholds = [0u64; 3];
        for &k in &FaultKind::ALL {
            thresholds[k.index()] = threshold(cfg.rate(k));
        }
        Shared {
            cfg,
            thresholds,
            stats: FaultStats::default(),
            consecutive: [0; 3],
        }
    }

    fn inject(&mut self, kind: FaultKind) -> bool {
        let i = kind.index();
        let ordinal = self.stats.checks[i];
        self.stats.checks[i] += 1;
        if let Some(w) = self.cfg.window {
            if ordinal < w.start || ordinal - w.start >= w.len {
                self.consecutive[i] = 0;
                return false;
            }
        }
        if self.cfg.max_consecutive > 0 && self.consecutive[i] >= self.cfg.max_consecutive {
            self.consecutive[i] = 0;
            return false;
        }
        let h =
            splitmix64(self.cfg.seed ^ kind.salt() ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let fault = (h >> 11) < self.thresholds[i];
        if fault {
            self.stats.injected[i] += 1;
            self.consecutive[i] += 1;
        } else {
            self.consecutive[i] = 0;
        }
        fault
    }
}

/// A cloneable handle onto one shared fault schedule.
///
/// Every fault site (the system bus, the CSB, the simulator's delivery
/// path) holds an injector; the default handle is *disabled* and every
/// [`FaultInjector::inject`] call on it is a single branch returning
/// `false`. The simulator creates one enabled injector from a
/// [`FaultConfig`] and installs clones into the components, exactly like
/// the trace-sink pattern. Handles are `Rc`-based and deliberately not
/// `Send`: a simulator and all its components live on one worker thread.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    shared: Option<Rc<RefCell<Shared>>>,
}

impl FaultInjector {
    /// A disabled handle: every decision is "no fault" at the cost of one
    /// branch.
    pub fn disabled() -> Self {
        FaultInjector { shared: None }
    }

    /// An enabled injector following `cfg`'s schedule from ordinal zero.
    pub fn enabled(cfg: FaultConfig) -> Self {
        FaultInjector {
            shared: Some(Rc::new(RefCell::new(Shared::new(cfg)))),
        }
    }

    /// `true` if this handle can ever inject a fault.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Consumes the next ordinal of `kind`'s stream and reports whether
    /// that event faults. Disabled handles always answer `false`.
    #[inline]
    pub fn inject(&self, kind: FaultKind) -> bool {
        match &self.shared {
            Some(s) => s.borrow_mut().inject(kind),
            None => false,
        }
    }

    /// Snapshot of the ordinal counters and injection counts.
    pub fn stats(&self) -> FaultStats {
        self.shared
            .as_ref()
            .map_or(FaultStats::default(), |s| s.borrow().stats)
    }

    /// The schedule's configuration, if enabled.
    pub fn config(&self) -> Option<FaultConfig> {
        self.shared.as_ref().map(|s| s.borrow().cfg)
    }

    /// Current run lengths of consecutive injected faults per kind
    /// (snapshot support; all zero when disabled).
    pub fn consecutive_runs(&self) -> [u32; 3] {
        self.shared
            .as_ref()
            .map_or([0; 3], |s| s.borrow().consecutive)
    }

    /// Overwrites the ordinal counters, injection counts, and consecutive
    /// run lengths on an enabled handle (snapshot restore: the schedule is
    /// a pure function of `(seed, kind, ordinal)`, so repositioning the
    /// counters replays the stream from exactly where a saved run stood).
    /// No-op when disabled.
    pub fn restore_counters(&self, stats: FaultStats, consecutive: [u32; 3]) {
        if let Some(s) = &self.shared {
            let mut s = s.borrow_mut();
            s.stats = stats;
            s.consecutive = consecutive;
        }
    }

    /// Rewinds the schedule to ordinal zero and clears the statistics
    /// (the simulator's warm-reset path). The seed and rates are kept, so
    /// a reset schedule replays the same decisions.
    pub fn reset(&self) {
        if let Some(s) = &self.shared {
            let mut s = s.borrow_mut();
            s.stats = FaultStats::default();
            s.consecutive = [0; 3];
        }
    }
}

/// Converts a probability to a 53-bit integer threshold so the decision
/// compare is exact and platform-independent.
fn threshold(rate: f64) -> u64 {
    const ONE: f64 = (1u64 << 53) as f64;
    let r = rate.clamp(0.0, 1.0);
    // Round up so rate 1.0 maps to the full 53-bit range and any nonzero
    // rate has a nonzero threshold.
    (r * ONE).ceil() as u64
}

/// SplitMix64: the standard 64-bit finalizer-style mixer (public domain,
/// Vigna). Pure function of its input; besides the fault schedule it
/// draws the backoff jitter and the contention arrival schedule in
/// `csb-core`. The vendored `rand` shim keeps its own copy for seeding.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injects_nothing_and_counts_nothing() {
        let f = FaultInjector::disabled();
        for _ in 0..100 {
            assert!(!f.inject(FaultKind::BusError));
            assert!(!f.inject(FaultKind::FlushDisturb));
        }
        assert_eq!(f.stats(), FaultStats::default());
        assert!(!f.is_enabled());
    }

    #[test]
    fn zero_rate_schedule_never_faults_but_counts_ordinals() {
        let f = FaultInjector::enabled(FaultConfig::new(42));
        for _ in 0..1000 {
            assert!(!f.inject(FaultKind::BusError));
        }
        let s = f.stats();
        assert_eq!(s.checks(FaultKind::BusError), 1000);
        assert_eq!(s.total_injected(), 0);
    }

    #[test]
    fn rate_one_always_faults_until_consecutive_bound() {
        let f = FaultInjector::enabled(
            FaultConfig::new(7)
                .flush_disturb_rate(1.0)
                .max_consecutive(3),
        );
        let pattern: Vec<bool> = (0..8).map(|_| f.inject(FaultKind::FlushDisturb)).collect();
        // Three faults, one forced success, repeating.
        assert_eq!(
            pattern,
            vec![true, true, true, false, true, true, true, false]
        );
    }

    #[test]
    fn same_seed_reproduces_and_different_seeds_differ() {
        let run = |seed: u64| -> Vec<bool> {
            let f = FaultInjector::enabled(FaultConfig::new(seed).bus_error_rate(0.5));
            (0..256).map(|_| f.inject(FaultKind::BusError)).collect()
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(1235));
    }

    #[test]
    fn kinds_have_independent_streams() {
        let f = FaultInjector::enabled(
            FaultConfig::new(99)
                .bus_error_rate(0.5)
                .device_nack_rate(0.5),
        );
        let bus: Vec<bool> = (0..128).map(|_| f.inject(FaultKind::BusError)).collect();
        let dev: Vec<bool> = (0..128).map(|_| f.inject(FaultKind::DeviceNack)).collect();
        assert_ne!(bus, dev);
        let s = f.stats();
        assert_eq!(s.checks(FaultKind::BusError), 128);
        assert_eq!(s.checks(FaultKind::DeviceNack), 128);
    }

    #[test]
    fn raising_the_rate_only_adds_fault_ordinals() {
        let faults_at = |rate: f64| -> Vec<u64> {
            let f = FaultInjector::enabled(FaultConfig::new(5).flush_disturb_rate(rate));
            (0..512u64)
                .filter(|_| f.inject(FaultKind::FlushDisturb))
                .collect()
        };
        let low = faults_at(0.2);
        let high = faults_at(0.6);
        assert!(low.len() < high.len());
        for o in &low {
            assert!(high.contains(o), "ordinal {o} faulted at 0.2 but not 0.6");
        }
    }

    #[test]
    fn window_restricts_injection() {
        let f = FaultInjector::enabled(FaultConfig::new(11).flush_disturb_rate(1.0).window(10, 5));
        let fired: Vec<u64> = (0..32u64)
            .filter(|_| f.inject(FaultKind::FlushDisturb))
            .collect();
        assert_eq!(fired, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn reset_replays_the_same_schedule() {
        let f = FaultInjector::enabled(FaultConfig::new(77).bus_error_rate(0.3));
        let first: Vec<bool> = (0..64).map(|_| f.inject(FaultKind::BusError)).collect();
        f.reset();
        assert_eq!(f.stats(), FaultStats::default());
        let second: Vec<bool> = (0..64).map(|_| f.inject(FaultKind::BusError)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn clones_share_one_schedule() {
        let a = FaultInjector::enabled(FaultConfig::new(3).bus_error_rate(1.0).max_consecutive(2));
        let b = a.clone();
        assert!(a.inject(FaultKind::BusError));
        assert!(b.inject(FaultKind::BusError));
        assert!(!a.inject(FaultKind::BusError)); // bound reached via both handles
        assert_eq!(a.stats().checks(FaultKind::BusError), 3);
    }

    #[test]
    fn rate_bounds_are_exact() {
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(2.0), 1 << 53);
        assert!(threshold(1e-18) > 0);
    }

    #[test]
    fn is_zero_reflects_rates() {
        assert!(FaultConfig::new(0).is_zero());
        assert!(!FaultConfig::new(0).device_nack_rate(0.01).is_zero());
    }
}
