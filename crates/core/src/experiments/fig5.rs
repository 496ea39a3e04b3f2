//! Figure 5: locking vs. the conditional store buffer, panels (a)–(b).
//!
//! The conventional path acquires a spin lock (SPARC `swap` on a cached
//! lock variable), performs 2–8 uncached doubleword stores, executes a
//! memory barrier (release may only happen after the last uncached store
//! leaves the uncached buffer), and releases the lock. The CSB path issues
//! the same stores as combining stores and commits them with one
//! conditional flush — complete as soon as the flush succeeds.
//!
//! Panel (a): the lock hits in the L1. Panel (b): the lock access misses
//! the whole hierarchy (100-cycle miss latency), modeling a lock recently
//! taken by another processor.

use super::runner::{
    run_panels_observed, LabeledArtifacts, Measure, ObsConfig, PanelSpec, RunReport,
};
use super::{ExpError, Panel};
use crate::config::SimConfig;

/// Doubleword counts swept (2–8, i.e. 16–64 bytes).
pub const DWORDS: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];

/// Whether the lock variable hits in the L1 when acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockResidency {
    /// Lock line pre-loaded into the L1 (panel (a)).
    Hit,
    /// Lock line evicted from both caches (panel (b)).
    Miss,
}

/// The declarative panel spec for one residency on the given machine.
pub fn panel_spec(cfg: &SimConfig, residency: LockResidency) -> PanelSpec {
    let (id, title) = match residency {
        LockResidency::Hit => (
            "5a",
            "lock hits in L1; 8B multiplexed bus, ratio 6, 64B line",
        ),
        LockResidency::Miss => (
            "5b",
            "lock misses to memory (100 cycles); 8B multiplexed bus, ratio 6, 64B line",
        ),
    };
    PanelSpec::new(id, title, cfg.clone(), Measure::Latency(residency))
}

/// Both panels' specs on the paper's default machine.
pub fn panel_specs() -> Vec<PanelSpec> {
    let cfg = SimConfig::default();
    vec![
        panel_spec(&cfg, LockResidency::Hit),
        panel_spec(&cfg, LockResidency::Miss),
    ]
}

/// Runs both panels on `jobs` workers (`0` = all cores): the panels, one
/// [`LabeledArtifacts`] per simulation point in enumeration order, and the
/// sweep's [`RunReport`].
///
/// # Errors
///
/// Propagates the first failing point, lowest point index first.
pub fn run_jobs_observed(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<Panel>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    run_panels_observed(&panel_specs(), jobs, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{tests::latency_point, Scheme};

    #[test]
    fn csb_beats_locking_everywhere() {
        let cfg = SimConfig::default();
        for &d in &[2usize, 8] {
            let lock =
                latency_point(&cfg, d, Scheme::Uncached { block: 8 }, LockResidency::Hit).unwrap();
            let csb = latency_point(&cfg, d, Scheme::Csb, LockResidency::Hit).unwrap();
            assert!(
                csb * 2 < lock,
                "{d} dwords: CSB {csb} should be far below locking {lock}"
            );
        }
    }

    #[test]
    fn lock_miss_adds_roughly_the_miss_latency() {
        let cfg = SimConfig::default();
        let hit =
            latency_point(&cfg, 4, Scheme::Uncached { block: 8 }, LockResidency::Hit).unwrap();
        let miss =
            latency_point(&cfg, 4, Scheme::Uncached { block: 8 }, LockResidency::Miss).unwrap();
        let delta = miss - hit;
        assert!(
            (80..=140).contains(&delta),
            "miss-hit delta should be near the 100-cycle miss, got {delta}"
        );
    }

    #[test]
    fn non_combining_slope_near_twelve() {
        // Paper: +12 cycles per doubleword at ratio 6 (each store is a
        // 2-bus-cycle transaction the membar must wait out).
        let cfg = SimConfig::default();
        let c2 = latency_point(&cfg, 2, Scheme::Uncached { block: 8 }, LockResidency::Hit).unwrap();
        let c8 = latency_point(&cfg, 8, Scheme::Uncached { block: 8 }, LockResidency::Hit).unwrap();
        let slope = (c8 - c2) as f64 / 6.0;
        assert!(
            (10.0..=14.0).contains(&slope),
            "expected ~12 cycles/dword, got {slope} ({c2}..{c8})"
        );
    }

    #[test]
    fn csb_slope_near_one() {
        let cfg = SimConfig::default();
        let c2 = latency_point(&cfg, 2, Scheme::Csb, LockResidency::Hit).unwrap();
        let c8 = latency_point(&cfg, 8, Scheme::Csb, LockResidency::Hit).unwrap();
        let slope = (c8 - c2) as f64 / 6.0;
        assert!(
            (0.5..=2.5).contains(&slope),
            "expected ~1 cycle/dword, got {slope} ({c2}..{c8})"
        );
    }

    #[test]
    fn seven_to_eight_dwords_can_reduce_lock_latency() {
        // Alignment: 7 dwords = 3 transactions (32+16+8), 8 dwords = 1
        // full-line burst, with full-line combining.
        let cfg = SimConfig::default();
        let c7 =
            latency_point(&cfg, 7, Scheme::Uncached { block: 64 }, LockResidency::Hit).unwrap();
        let c8 =
            latency_point(&cfg, 8, Scheme::Uncached { block: 64 }, LockResidency::Hit).unwrap();
        assert!(
            c8 <= c7,
            "8 dwords ({c8}) should not exceed 7 dwords ({c7})"
        );
    }
}
