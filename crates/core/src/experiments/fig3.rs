//! Figure 3: uncached store bandwidth on a multiplexed bus, panels (a)–(i).
//!
//! All panels use an 8-byte multiplexed bus. The sweeps:
//!
//! * (a)–(c): CPU:bus frequency ratio ∈ {3, 6, 9}, 32-byte line, no
//!   turnaround. (The paper plots three "current and probable design
//!   points" without naming them; 3–9 spans late-90s machines around the
//!   ratio of 6 the rest of the evaluation fixes.)
//! * (d)–(f): line size ∈ {32, 64, 128} bytes at ratio 6.
//! * (g): a turnaround cycle after every transaction (ratio 6, 64 B line).
//! * (h)–(i): minimum address-to-address delay ∈ {4, 8} cycles — the
//!   unpipelined flow-control acknowledgment penalty for strongly ordered
//!   uncached accesses.

use csb_bus::BusConfig;

use super::runner::{
    run_panels_observed, LabeledArtifacts, Measure, ObsConfig, PanelSpec, RunReport,
};
use super::{ExpError, Panel};
use crate::config::SimConfig;

/// Frequency ratios swept by panels (a)–(c).
pub const RATIOS: [u64; 3] = [3, 6, 9];
/// Line sizes swept by panels (d)–(f).
pub const LINES: [usize; 3] = [32, 64, 128];
/// Acknowledgment delays swept by panels (h)–(i).
pub const DELAYS: [u64; 2] = [4, 8];

/// One panel's machine parameters — the whole figure as a declarative
/// table consumed by the engine.
#[derive(Debug, Clone, Copy)]
pub struct PanelDef {
    /// Panel id, e.g. `"3a"`.
    pub id: &'static str,
    /// Cache line (= max burst) size in bytes.
    pub line: usize,
    /// CPU:bus frequency ratio.
    pub ratio: u64,
    /// Turnaround cycles after every transaction.
    pub turnaround: u64,
    /// Minimum address-to-address delay in bus cycles.
    pub delay: u64,
}

/// All nine panels. (a)–(c) sweep the frequency ratio, (d)–(f) the line
/// size, (g) adds a turnaround cycle, (h)–(i) sweep the ack delay.
pub const PANELS: [PanelDef; 9] = [
    PanelDef {
        id: "3a",
        line: 32,
        ratio: RATIOS[0],
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3b",
        line: 32,
        ratio: RATIOS[1],
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3c",
        line: 32,
        ratio: RATIOS[2],
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3d",
        line: LINES[0],
        ratio: 6,
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3e",
        line: LINES[1],
        ratio: 6,
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3f",
        line: LINES[2],
        ratio: 6,
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "3g",
        line: 64,
        ratio: 6,
        turnaround: 1,
        delay: 0,
    },
    PanelDef {
        id: "3h",
        line: 64,
        ratio: 6,
        turnaround: 0,
        delay: DELAYS[0],
    },
    PanelDef {
        id: "3i",
        line: 64,
        ratio: 6,
        turnaround: 0,
        delay: DELAYS[1],
    },
];

fn mux_bus(line: usize, turnaround: u64, delay: u64) -> BusConfig {
    BusConfig::multiplexed(8)
        .max_burst(line)
        .turnaround(turnaround)
        .min_addr_delay(delay)
        .build()
        .expect("static Figure 3 bus configs are valid")
}

impl PanelDef {
    /// Expands the table row into the engine's panel spec.
    pub fn spec(&self) -> PanelSpec {
        let suffix = super::flow_control(self.turnaround, self.delay);
        let title = format!(
            "8B multiplexed bus, {}B line, CPU:bus ratio {}, {suffix}",
            self.line, self.ratio
        );
        let cfg = SimConfig::default()
            .line_size(self.line)
            .bus(mux_bus(self.line, self.turnaround, self.delay))
            .frequency_ratio(self.ratio);
        PanelSpec::new(self.id, title, cfg, Measure::Bandwidth)
    }
}

/// The figure's panel specs, in panel order.
pub fn panel_specs() -> Vec<PanelSpec> {
    PANELS.iter().map(PanelDef::spec).collect()
}

/// Runs all nine panels on `jobs` workers (`0` = all cores): the panels,
/// one [`LabeledArtifacts`] per simulation point in enumeration order, and
/// the sweep's [`RunReport`].
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
    use crate::experiments::{bandwidth_point, Scheme};

    #[test]
    fn panel_g_turnaround_shapes() {
        // With a turnaround cycle, non-combining bandwidth *decreases* with
        // transfer size (2, 5, 8, ... cycles for 1, 2, 3 transactions) and
        // the CSB overtakes everything earlier.
        let cfg = SimConfig::default()
            .bus(mux_bus(64, 1, 0))
            .frequency_ratio(6);
        let none_16 = bandwidth_point(&cfg, 16, Scheme::Uncached { block: 8 }).unwrap();
        let none_1k = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 8 }).unwrap();
        assert!(
            none_16 > none_1k,
            "turnaround penalizes long non-combined streams"
        );
        let csb_1k = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
        assert!(csb_1k > 2.0 * none_1k, "CSB {csb_1k} vs none {none_1k}");
    }

    #[test]
    fn panel_h_delay_hurts_short_transactions_only() {
        // An 8-beat burst (9 cycles) completely overlaps a 4-cycle ack
        // window; doubleword singles are throttled to one per 4 cycles.
        let cfg = SimConfig::default()
            .bus(mux_bus(64, 0, 4))
            .frequency_ratio(6);
        let none = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 8 }).unwrap();
        assert!(
            (none - 2.0).abs() < 0.1,
            "8B per 4 cycles = 2 B/c, got {none}"
        );
        let csb = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
        assert!(csb > 6.5, "burst hides the ack window, got {csb}");
    }

    #[test]
    fn ratio_improves_early_combining() {
        // Higher CPU:bus ratio lets more stores pile into the buffer while
        // the first transaction occupies the bus, so full-line combining at
        // a fixed transfer size cannot get worse.
        let line = 32;
        let slow = SimConfig::default()
            .line_size(line)
            .bus(mux_bus(line, 0, 0))
            .frequency_ratio(3);
        let fast = slow.clone().frequency_ratio(9);
        let b_slow = bandwidth_point(&slow, 256, Scheme::Uncached { block: 32 }).unwrap();
        let b_fast = bandwidth_point(&fast, 256, Scheme::Uncached { block: 32 }).unwrap();
        assert!(
            b_fast >= b_slow - 1e-9,
            "ratio 9 {b_fast} vs ratio 3 {b_slow}"
        );
    }
}
