//! Figure 4: uncached store bandwidth on a split address/data bus, (a)–(e).
//!
//! Split buses carry the address on its own path, so a transaction occupies
//! the data path only for its beats — but the wide data path (128/256 bits)
//! introduces a new overhead: wasted width for sub-width transfers. The
//! sweeps:
//!
//! * (a)–(b): bus width ∈ {16, 32} bytes, 64-byte line, ratio 6, no
//!   turnaround;
//! * (c): 16-byte bus with a turnaround cycle;
//! * (d)–(e): 16-byte bus with a minimum address-to-address delay of
//!   {4, 8} cycles (unpipelined acknowledgments for strongly ordered I/O).

use csb_bus::BusConfig;

use super::runner::{
    run_panels_observed, LabeledArtifacts, Measure, ObsConfig, PanelSpec, RunReport,
};
use super::{ExpError, Panel};
use crate::config::SimConfig;

/// Bus widths swept by panels (a)–(b), in bytes.
pub const WIDTHS: [usize; 2] = [16, 32];
/// Acknowledgment delays swept by panels (d)–(e).
pub const DELAYS: [u64; 2] = [4, 8];

/// One panel's machine parameters — the whole figure as a declarative
/// table consumed by the engine.
#[derive(Debug, Clone, Copy)]
pub struct PanelDef {
    /// Panel id, e.g. `"4a"`.
    pub id: &'static str,
    /// Data-path width in bytes.
    pub width: usize,
    /// Turnaround cycles after every transaction.
    pub turnaround: u64,
    /// Minimum address-to-address delay in bus cycles.
    pub delay: u64,
}

/// All five panels. (a)–(b) sweep the bus width, (c) adds a turnaround
/// cycle, (d)–(e) sweep the ack delay on the 16-byte bus.
pub const PANELS: [PanelDef; 5] = [
    PanelDef {
        id: "4a",
        width: WIDTHS[0],
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "4b",
        width: WIDTHS[1],
        turnaround: 0,
        delay: 0,
    },
    PanelDef {
        id: "4c",
        width: 16,
        turnaround: 1,
        delay: 0,
    },
    PanelDef {
        id: "4d",
        width: 16,
        turnaround: 0,
        delay: DELAYS[0],
    },
    PanelDef {
        id: "4e",
        width: 16,
        turnaround: 0,
        delay: DELAYS[1],
    },
];

fn split_bus(width: usize, turnaround: u64, delay: u64) -> BusConfig {
    BusConfig::split(width)
        .max_burst(64)
        .turnaround(turnaround)
        .min_addr_delay(delay)
        .build()
        .expect("static Figure 4 bus configs are valid")
}

impl PanelDef {
    /// Expands the table row into the engine's panel spec.
    pub fn spec(&self) -> PanelSpec {
        let suffix = super::flow_control(self.turnaround, self.delay);
        let title = format!(
            "{}B split bus, 64B line, CPU:bus ratio 6, {suffix}",
            self.width
        );
        let cfg = SimConfig::default()
            .bus(split_bus(self.width, self.turnaround, self.delay))
            .frequency_ratio(6);
        PanelSpec::new(self.id, title, cfg, Measure::Bandwidth)
    }
}

/// The figure's panel specs, in panel order.
pub fn panel_specs() -> Vec<PanelSpec> {
    PANELS.iter().map(PanelDef::spec).collect()
}

/// Runs all five panels on `jobs` workers (`0` = all cores): the panels,
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
    use crate::experiments::{tests::bandwidth_point, Scheme};

    #[test]
    fn dword_wastes_half_of_a_128bit_bus() {
        let cfg = SimConfig::default()
            .bus(split_bus(16, 0, 0))
            .frequency_ratio(6);
        let bw = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 8 }).unwrap();
        assert!(
            (bw - 8.0).abs() < 0.1,
            "8B per data cycle on a 16B bus, got {bw}"
        );
    }

    #[test]
    fn line_burst_on_256bit_bus_takes_two_cycles() {
        // Paper: "a burst transfer takes only two cycles, the same number of
        // cycles as two individual doubleword stores." One line through the
        // CSB is exactly one 2-cycle burst: 32 bytes per bus cycle.
        let cfg = SimConfig::default()
            .bus(split_bus(32, 0, 0))
            .frequency_ratio(6);
        let csb = bandwidth_point(&cfg, 64, Scheme::Csb).unwrap();
        assert!(
            (csb - 32.0).abs() < 0.5,
            "64B per 2 cycles = 32 B/c, got {csb}"
        );
        let none = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 8 }).unwrap();
        assert!((none - 8.0).abs() < 0.2, "got {none}");
        // For long streams the 1-uncached-store/cycle issue rate becomes the
        // bottleneck on so wide a bus; the CSB still beats non-combining by
        // a wide margin.
        let csb_long = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
        assert!(csb_long > 3.0 * none, "got {csb_long} vs none {none}");
    }

    #[test]
    fn only_csb_hides_delay_4_on_16b_bus() {
        // A full-line burst is 4 data cycles on a 16-byte bus, exactly
        // covering a 4-cycle ack window; everything shorter is throttled.
        let cfg = SimConfig::default()
            .bus(split_bus(16, 0, 4))
            .frequency_ratio(6);
        let csb = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
        assert!(csb > 15.0, "CSB should sustain ~16 B/c, got {csb}");
        let half = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 32 }).unwrap();
        assert!(
            half < csb * 0.6,
            "32B chunks are throttled by the ack, got {half}"
        );
    }

    #[test]
    fn delay_8_affects_even_bursts() {
        let cfg = SimConfig::default()
            .bus(split_bus(16, 0, 8))
            .frequency_ratio(6);
        let csb = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
        assert!((csb - 8.0).abs() < 0.5, "64B per 8 cycles, got {csb}");
    }
}
