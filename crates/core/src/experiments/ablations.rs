//! In-text ablation studies.
//!
//! * **Superscalar width vs. lock overhead** (§4.3.2): the paper reports
//!   that 2-way and 8-way machines "did not change the lock overhead at
//!   all, because of the short data and control dependencies".
//! * **Double-buffered CSB** (§3.2): a second line buffer lets combining
//!   stores proceed while a flushed line awaits the system interface.
//! * **Variable-burst CSB** (§3.2): on buses with multiple burst sizes the
//!   always-full-line restriction can be relaxed, removing the small-
//!   transfer padding penalty.

use csb_cpu::CpuConfig;
use serde::Serialize;

use super::fig5::LockResidency;
use super::runner::{
    self, LabeledArtifacts, ObsConfig, PointSpec, PointValue, PointWork, RunReport,
};
use super::{ExpError, Scheme, TRANSFERS};
use crate::config::SimConfig;
use crate::workloads::StoreOrder;

/// Builds a bandwidth point spec for the ablation sweeps.
fn bw_spec(label: String, cfg: &SimConfig, transfer: usize, scheme: Scheme) -> PointSpec {
    bw_spec_ordered(label, cfg, transfer, scheme, StoreOrder::Ascending)
}

/// [`bw_spec`] with an explicit store order.
fn bw_spec_ordered(
    label: String,
    cfg: &SimConfig,
    transfer: usize,
    scheme: Scheme,
    order: StoreOrder,
) -> PointSpec {
    PointSpec {
        label,
        cfg: cfg.clone(),
        work: PointWork::Bandwidth {
            transfer,
            scheme,
            order,
        },
    }
}

/// Builds a lock-hit latency point spec for the ablation sweeps.
fn lat_spec(label: String, cfg: &SimConfig, dwords: usize, scheme: Scheme) -> PointSpec {
    PointSpec {
        label,
        cfg: cfg.clone(),
        work: PointWork::Latency {
            dwords,
            scheme,
            residency: LockResidency::Hit,
        },
    }
}

fn expect_bw(v: PointValue) -> f64 {
    v.bandwidth()
        .expect("ablation enumerated a bandwidth point")
}

fn expect_lat(v: PointValue) -> u64 {
    v.latency().expect("ablation enumerated a latency point")
}

/// Lock/CSB latency at a fixed transfer size for one machine width.
#[derive(Debug, Clone, Serialize)]
pub struct WidthRow {
    /// Superscalar width (dispatch/retire per cycle).
    pub width: usize,
    /// Lock sequence latency (cycles), non-combining, lock hit.
    pub lock_cycles: u64,
    /// CSB sequence latency (cycles).
    pub csb_cycles: u64,
}

/// Runs the superscalar-width ablation at `dwords` doublewords on `jobs`
/// workers (`0` = all cores): the rows, one [`LabeledArtifacts`] per
/// point in enumeration order, and the sweep's [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn superscalar_widths(
    dwords: usize,
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<WidthRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) = runner::run_values_observed(&width_specs(dwords), jobs, obs)?;
    let rows = WIDTHS
        .iter()
        .zip(values.chunks(2))
        .map(|(&width, pair)| WidthRow {
            width,
            lock_cycles: expect_lat(pair[0]),
            csb_cycles: expect_lat(pair[1]),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// The superscalar widths [`superscalar_widths`] sweeps.
const WIDTHS: [usize; 3] = [2, 4, 8];

/// [`superscalar_widths`]'s points: lock, then CSB, per width.
fn width_specs(dwords: usize) -> Vec<PointSpec> {
    WIDTHS
        .iter()
        .flat_map(|&width| {
            let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
            [
                lat_spec(
                    format!("width/{width}/lock"),
                    &cfg,
                    dwords,
                    Scheme::Uncached { block: 8 },
                ),
                lat_spec(format!("width/{width}/csb"), &cfg, dwords, Scheme::Csb),
            ]
        })
        .collect()
}

/// Bandwidth comparison between two CSB configurations over [`TRANSFERS`].
#[derive(Debug, Clone, Serialize)]
pub struct CsbVariantRow {
    /// Transfer size in bytes.
    pub transfer: usize,
    /// Baseline single-buffered full-line CSB (bytes/bus cycle).
    pub baseline: f64,
    /// The variant's bandwidth (bytes/bus cycle).
    pub variant: f64,
}

/// Compares the baseline CSB against the double-buffered extension.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn double_buffered(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<CsbVariantRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    csb_variant(double_buffered_specs(), jobs, obs)
}

/// [`double_buffered`]'s points.
fn double_buffered_specs() -> Vec<PointSpec> {
    csb_variant_specs("double", &SimConfig::default().csb_double_buffered())
}

/// Compares the baseline CSB against the variable-burst extension.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn variable_burst(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<CsbVariantRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    csb_variant(variable_burst_specs(), jobs, obs)
}

/// [`variable_burst`]'s points.
fn variable_burst_specs() -> Vec<PointSpec> {
    csb_variant_specs("varburst", &SimConfig::default().csb_variable_burst())
}

/// A CSB extension's points, labelled by `tag`: baseline, then the
/// extension on `var_cfg`, per transfer.
fn csb_variant_specs(tag: &str, var_cfg: &SimConfig) -> Vec<PointSpec> {
    let base_cfg = SimConfig::default();
    TRANSFERS
        .iter()
        .flat_map(|&t| {
            [
                bw_spec(format!("{tag}/{t}B/base"), &base_cfg, t, Scheme::Csb),
                bw_spec(format!("{tag}/{t}B/variant"), var_cfg, t, Scheme::Csb),
            ]
        })
        .collect()
}

/// Shared sweep for the CSB extensions: baseline vs. variant over
/// [`TRANSFERS`], through the engine.
fn csb_variant(
    specs: Vec<PointSpec>,
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<CsbVariantRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) = runner::run_values_observed(&specs, jobs, obs)?;
    let rows = TRANSFERS
        .iter()
        .zip(values.chunks(2))
        .map(|(&transfer, pair)| CsbVariantRow {
            transfer,
            baseline: expect_bw(pair[0]),
            variant: expect_bw(pair[1]),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// One scheme's bandwidth under three bus-load models.
#[derive(Debug, Clone, Serialize)]
pub struct LoadedBusRow {
    /// Scheme label.
    pub scheme: String,
    /// Dedicated, idle bus (the figures' baseline assumption).
    pub idle: f64,
    /// The paper's loaded-bus approximation: a turnaround cycle after every
    /// transaction.
    pub turnaround_approx: f64,
    /// Real multi-master contention: foreign masters holding one third of
    /// the bus in line-sized bursts.
    pub contention: f64,
}

/// Compares the paper's turnaround-as-loaded-bus approximation (Figure
/// 3(g)) against an explicit multi-master contention model at one-third
/// foreign utilization, for a 1 KiB transfer on the default machine.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn loaded_bus(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<LoadedBusRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) = runner::run_values_observed(&loaded_bus_specs(), jobs, obs)?;
    let rows = LOADED_SCHEMES
        .iter()
        .zip(values.chunks(3))
        .map(|(&s, triple)| LoadedBusRow {
            scheme: s.to_string(),
            idle: expect_bw(triple[0]),
            turnaround_approx: expect_bw(triple[1]),
            contention: expect_bw(triple[2]),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// The schemes [`loaded_bus`] compares.
const LOADED_SCHEMES: [Scheme; 3] = [
    Scheme::Uncached { block: 8 },
    Scheme::Uncached { block: 64 },
    Scheme::Csb,
];

/// [`loaded_bus`]'s points: idle, approximated and contended bus, per
/// scheme.
fn loaded_bus_specs() -> Vec<PointSpec> {
    let idle_cfg = SimConfig::default();
    let approx_cfg = SimConfig::default().bus(
        csb_bus::BusConfig::multiplexed(8)
            .max_burst(64)
            .turnaround(1)
            .build()
            .expect("static config is valid"),
    );
    let loaded_cfg = SimConfig::default().bus(
        csb_bus::BusConfig::multiplexed(8)
            .max_burst(64)
            .background(1.0 / 3.0, 64)
            .build()
            .expect("static config is valid"),
    );
    LOADED_SCHEMES
        .iter()
        .flat_map(|&s| {
            [
                bw_spec(format!("load/{s}/idle"), &idle_cfg, 1024, s),
                bw_spec(format!("load/{s}/approx"), &approx_cfg, 1024, s),
                bw_spec(format!("load/{s}/contention"), &loaded_cfg, 1024, s),
            ]
        })
        .collect()
}

/// Bandwidth as a function of uncached-buffer capacity for one scheme.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityRow {
    /// Buffer entries.
    pub capacity: usize,
    /// Non-combining bandwidth at 1 KiB (B/bus-cycle).
    pub none: f64,
    /// Full-line combining bandwidth at 1 KiB.
    pub full_line: f64,
}

/// Sweeps the uncached buffer's entry count. Combining quality depends on
/// how long stores wait in the buffer (§4.1: "combining is limited by the
/// time that an entry spends waiting in the buffer"), and a deeper buffer
/// absorbs a longer burst of retired stores before stalling the core.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn buffer_capacity(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<CapacityRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) = runner::run_values_observed(&capacity_specs(), jobs, obs)?;
    let rows = CAPACITIES
        .iter()
        .zip(values.chunks(2))
        .map(|(&capacity, pair)| CapacityRow {
            capacity,
            none: expect_bw(pair[0]),
            full_line: expect_bw(pair[1]),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// The uncached-buffer entry counts [`buffer_capacity`] sweeps.
const CAPACITIES: [usize; 4] = [2, 4, 8, 16];

/// [`buffer_capacity`]'s points: non-combining, then full-line
/// combining, per capacity.
fn capacity_specs() -> Vec<PointSpec> {
    CAPACITIES
        .iter()
        .flat_map(|&capacity| {
            let mut none_cfg = SimConfig::default();
            none_cfg.uncached.capacity = capacity;
            let mut full_cfg = SimConfig::default().combining_block(64);
            full_cfg.uncached.capacity = capacity;
            [
                bw_spec(
                    format!("depth/{capacity}/none"),
                    &none_cfg,
                    1024,
                    Scheme::Uncached { block: 8 },
                ),
                bw_spec(
                    format!("depth/{capacity}/full"),
                    &full_cfg,
                    1024,
                    Scheme::Uncached { block: 64 },
                ),
            ]
        })
        .collect()
}

/// CSB sequence latency as a function of the core's uncached issue rate.
#[derive(Debug, Clone, Serialize)]
pub struct IssueRateRow {
    /// Non-speculative uncached operations issued per cycle at retirement.
    pub per_cycle: usize,
    /// CSB sequence latency for 8 doublewords (CPU cycles).
    pub csb_cycles: u64,
}

/// Sweeps the retirement-stage uncached issue rate: the paper's model
/// issues one non-speculative operation per cycle, which is what pins the
/// CSB's latency slope at 1 cycle per doubleword; a dual-issue uncached
/// path halves the slope.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn uncached_issue_rate(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<IssueRateRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) = runner::run_values_observed(&issue_rate_specs(), jobs, obs)?;
    let rows = ISSUE_RATES
        .iter()
        .zip(values)
        .map(|(&per_cycle, v)| IssueRateRow {
            per_cycle,
            csb_cycles: expect_lat(v),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// The uncached issue rates [`uncached_issue_rate`] sweeps.
const ISSUE_RATES: [usize; 3] = [1, 2, 4];

/// [`uncached_issue_rate`]'s points, one per rate.
fn issue_rate_specs() -> Vec<PointSpec> {
    ISSUE_RATES
        .iter()
        .map(|&per_cycle| {
            let mut cfg = SimConfig::default();
            cfg.cpu.uncached_per_cycle = per_cycle;
            lat_spec(format!("issue/{per_cycle}/csb"), &cfg, 8, Scheme::Csb)
        })
        .collect()
}

/// Store-order sensitivity of one scheme at one transfer size.
#[derive(Debug, Clone, Serialize)]
pub struct OrderSensitivityRow {
    /// Transfer size in bytes.
    pub transfer: usize,
    /// Scheme label.
    pub scheme: String,
    /// Bandwidth (B/bus-cycle) with ascending consecutive stores.
    pub ascending: f64,
    /// Bandwidth with the per-line even/odd shuffle.
    pub shuffled: f64,
}

/// Quantifies the paper's §2 claim that hardware pattern-combining "fails
/// if the sequence of stores is interrupted": compares the related-work
/// baselines (R10000 uncached-accelerated, PowerPC 620 pairing) against
/// idealized block combining and the CSB under ascending vs. shuffled
/// per-line store order, on the default machine.
///
/// Runs on `jobs` workers (`0` = all cores) and returns the rows, one
/// [`LabeledArtifacts`] per point in enumeration order, and the sweep's
/// [`RunReport`].
///
/// # Errors
///
/// Propagates simulation failures.
pub fn related_work(
    jobs: usize,
    obs: ObsConfig<'_>,
) -> Result<(Vec<OrderSensitivityRow>, Vec<LabeledArtifacts>, RunReport), ExpError> {
    let (values, artifacts, report) =
        runner::run_values_observed(&related_work_specs(), jobs, obs)?;
    let rows = order_grid()
        .into_iter()
        .zip(values.chunks(2))
        .map(|((transfer, s), pair)| OrderSensitivityRow {
            transfer,
            scheme: s.to_string(),
            ascending: expect_bw(pair[0]),
            shuffled: expect_bw(pair[1]),
        })
        .collect();
    Ok((rows, artifacts, report))
}

/// [`related_work`]'s (transfer, scheme) grid, row-major.
fn order_grid() -> Vec<(usize, Scheme)> {
    let schemes = [
        Scheme::Uncached { block: 8 },
        Scheme::Ppc620,
        Scheme::R10k,
        Scheme::Uncached { block: 64 },
        Scheme::Csb,
    ];
    [64usize, 256, 1024]
        .iter()
        .flat_map(|&t| schemes.iter().map(move |&s| (t, s)))
        .collect()
}

/// [`related_work`]'s points: ascending, then shuffled, per grid cell.
fn related_work_specs() -> Vec<PointSpec> {
    let cfg = SimConfig::default();
    order_grid()
        .into_iter()
        .flat_map(|(t, s)| {
            [
                bw_spec_ordered(
                    format!("order/{t}B/{s}/asc"),
                    &cfg,
                    t,
                    s,
                    StoreOrder::Ascending,
                ),
                bw_spec_ordered(
                    format!("order/{t}B/{s}/shuf"),
                    &cfg,
                    t,
                    s,
                    StoreOrder::Shuffled,
                ),
            ]
        })
        .collect()
}

/// Every point of the `ablations` binary's sweeps, in its order.
#[cfg(test)]
pub(super) fn all_specs() -> Vec<PointSpec> {
    [
        width_specs(4),
        double_buffered_specs(),
        variable_burst_specs(),
        related_work_specs(),
        capacity_specs(),
        issue_rate_specs(),
        loaded_bus_specs(),
    ]
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::{bandwidth_point, bandwidth_point_ordered};

    #[test]
    fn r10000_matches_full_line_on_ascending_streams() {
        let cfg = SimConfig::default();
        let r10k = bandwidth_point(&cfg, 1024, Scheme::R10k).unwrap();
        let block = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 64 }).unwrap();
        assert!(
            (r10k - block).abs() < 0.5,
            "sequential streams: R10000 {r10k} ~ block combining {block}"
        );
    }

    #[test]
    fn r10000_collapses_on_shuffled_streams() {
        // The §2 claim: pattern detection fails on interrupted sequences,
        // degrading to single-beat transfers (the non-combining 4 B/c),
        // while block combining and the CSB do not care about order.
        let cfg = SimConfig::default();
        let r10k = bandwidth_point_ordered(&cfg, 1024, Scheme::R10k, StoreOrder::Shuffled).unwrap();
        assert!(
            (r10k - 4.0).abs() < 0.3,
            "shuffled R10000 ~ non-combining, got {r10k}"
        );
        let block = bandwidth_point_ordered(
            &cfg,
            1024,
            Scheme::Uncached { block: 64 },
            StoreOrder::Shuffled,
        )
        .unwrap();
        assert!(
            block > 6.5,
            "block combining is order-insensitive, got {block}"
        );
        let csb = bandwidth_point_ordered(&cfg, 1024, Scheme::Csb, StoreOrder::Shuffled).unwrap();
        assert!(
            (csb - 64.0 / 9.0).abs() < 0.2,
            "CSB is order-insensitive, got {csb}"
        );
    }

    #[test]
    fn ppc620_pairs_only_consecutive_stores() {
        let cfg = SimConfig::default();
        let asc = bandwidth_point(&cfg, 1024, Scheme::Ppc620).unwrap();
        assert!(
            (asc - 16.0 / 3.0).abs() < 0.2,
            "pairs: 16B per 3 cycles, got {asc}"
        );
        let shuf =
            bandwidth_point_ordered(&cfg, 1024, Scheme::Ppc620, StoreOrder::Shuffled).unwrap();
        assert!(
            (shuf - 4.0).abs() < 0.3,
            "no pairs when shuffled, got {shuf}"
        );
    }

    #[test]
    fn deeper_buffers_help_combining_not_singles() {
        let (rows, _, _) = buffer_capacity(1, ObsConfig::default()).unwrap();
        let shallow = rows.iter().find(|r| r.capacity == 2).unwrap();
        let deep = rows.iter().find(|r| r.capacity == 16).unwrap();
        // Non-combining is bus-bound: 4 B/c regardless of depth.
        assert!((shallow.none - 4.0).abs() < 0.1);
        assert!((deep.none - 4.0).abs() < 0.1);
        // Combining cannot get worse with depth.
        assert!(deep.full_line + 1e-9 >= shallow.full_line);
    }

    #[test]
    fn dual_issue_uncached_path_cuts_csb_latency() {
        let (rows, _, _) = uncached_issue_rate(1, ObsConfig::default()).unwrap();
        let single = rows.iter().find(|r| r.per_cycle == 1).unwrap().csb_cycles;
        let dual = rows.iter().find(|r| r.per_cycle == 2).unwrap().csb_cycles;
        assert!(dual < single, "dual issue {dual} must beat single {single}");
        // The slope component halves: 8 stores at 2/cycle save ~4 cycles.
        assert!(single - dual >= 3, "saved {} cycles", single - dual);
    }

    #[test]
    fn loaded_bus_degrades_everyone_but_csb_least() {
        let (rows, _, _) = loaded_bus(1, ObsConfig::default()).unwrap();
        for r in &rows {
            assert!(
                r.turnaround_approx < r.idle,
                "{}: approx must cost bandwidth",
                r.scheme
            );
            assert!(
                r.contention < r.idle,
                "{}: contention must cost bandwidth",
                r.scheme
            );
        }
        let none = rows.iter().find(|r| r.scheme == "none").unwrap();
        let csb = rows.iter().find(|r| r.scheme == "CSB").unwrap();
        // Under contention the CSB's relative advantage grows: bursts lose a
        // smaller fraction of their bandwidth than single beats do.
        assert!(
            csb.contention / csb.idle > none.contention / none.idle,
            "CSB {:.2}/{:.2} vs none {:.2}/{:.2}",
            csb.contention,
            csb.idle,
            none.contention,
            none.idle
        );
    }

    #[test]
    fn related_work_table_is_complete() {
        let (rows, _, _) = related_work(1, ObsConfig::default()).unwrap();
        assert_eq!(rows.len(), 15); // 3 transfers x 5 schemes
        assert!(rows.iter().any(|r| r.scheme == "R10000"));
    }

    #[test]
    fn lock_overhead_insensitive_to_width() {
        // The paper's claim: short dependence chains make the lock overhead
        // identical on 2-way and 8-way machines. Allow a small tolerance
        // for front-end width effects.
        let (rows, _, _) = superscalar_widths(4, 1, ObsConfig::default()).unwrap();
        let base = rows.iter().find(|r| r.width == 4).unwrap().lock_cycles;
        for r in &rows {
            let diff = r.lock_cycles.abs_diff(base);
            assert!(
                diff <= base / 5,
                "width {} lock {} deviates from width-4 {}",
                r.width,
                r.lock_cycles,
                base
            );
        }
    }

    #[test]
    fn variable_burst_removes_small_transfer_penalty() {
        let (rows, _, _) = variable_burst(1, ObsConfig::default()).unwrap();
        let t16 = rows.iter().find(|r| r.transfer == 16).unwrap();
        // 16 bytes: full line costs 9 bus cycles; a 16B transaction costs 3.
        assert!(
            t16.variant > t16.baseline * 2.0,
            "variable burst {} vs full line {}",
            t16.variant,
            t16.baseline
        );
        // At a full line the two are identical.
        let t64 = rows.iter().find(|r| r.transfer == 64).unwrap();
        assert!((t64.variant - t64.baseline).abs() < 0.2);
    }

    #[test]
    fn double_buffering_never_hurts() {
        for row in double_buffered(1, ObsConfig::default()).unwrap().0 {
            assert!(
                row.variant >= row.baseline - 0.2,
                "double buffering regressed at {}B: {} vs {}",
                row.transfer,
                row.variant,
                row.baseline
            );
        }
    }
}
