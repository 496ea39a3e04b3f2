//! Quantitative anchors quoted in the paper's text (§4.3), asserted
//! end-to-end against the full simulator. Absolute constants are matched
//! within tolerances; shapes (slopes, orderings, crossovers) exactly.

use csb_bus::BusConfig;
use csb_core::experiments::{bandwidth_point, fig5, Scheme};
use csb_core::SimConfig;

/// "The effective bus bandwidth is 4 bytes per bus cycle, which is half of
/// the peak bandwidth" — non-combining doubleword stores, 8-byte
/// multiplexed bus, independent of the total amount of data.
#[test]
fn anchor_non_combining_4_bytes_per_cycle() {
    let cfg = SimConfig::default();
    for transfer in [16usize, 64, 256, 1024] {
        let bw = bandwidth_point(&cfg, transfer, Scheme::Uncached { block: 8 }).unwrap();
        assert!(
            (bw - 4.0).abs() < 0.1,
            "{transfer}B: expected ~4 B/cycle, got {bw}"
        );
    }
}

/// "A doubleword transaction takes 2 cycles, two consecutive transactions
/// take 5 cycles, three transactions take 8 cycles" — with a turnaround
/// cycle, N non-combined transactions span 3N-1 bus cycles.
#[test]
fn anchor_turnaround_3n_minus_1() {
    let cfg = SimConfig::default().bus(
        BusConfig::multiplexed(8)
            .turnaround(1)
            .max_burst(64)
            .build()
            .unwrap(),
    );
    for n in [2usize, 3, 4, 8] {
        let bw = bandwidth_point(&cfg, 8 * n, Scheme::Uncached { block: 8 }).unwrap();
        let expected = (8 * n) as f64 / (3 * n - 1) as f64;
        assert!(
            (bw - expected).abs() < 0.05,
            "{n} transactions: expected {expected}, got {bw}"
        );
    }
}

/// "Larger data transfers benefit increasingly from combining, ultimately
/// approaching the peak bandwidth" — full-line combining at 1 KiB gets
/// close to the 64B-per-9-cycles peak of the multiplexed bus.
#[test]
fn anchor_combining_approaches_peak() {
    let cfg = SimConfig::default();
    let peak = 64.0 / 9.0;
    let bw = bandwidth_point(&cfg, 1024, Scheme::Uncached { block: 64 }).unwrap();
    assert!(bw > 0.8 * peak, "expected near {peak}, got {bw}");
    let csb = bandwidth_point(&cfg, 1024, Scheme::Csb).unwrap();
    assert!(csb > 0.85 * peak, "CSB expected near {peak}, got {csb}");
}

/// "The conditional store buffer clearly has the greatest advantage over
/// all other schemes for transfer sizes of about a cache line", while
/// "transfers that are significantly smaller than a cache line are
/// penalized by the unnecessary long burst".
#[test]
fn anchor_csb_crossover_around_a_line() {
    let cfg = SimConfig::default();
    let schemes: Vec<Scheme> = Scheme::ladder(64);
    // At one line, CSB is the best scheme.
    let at_line: Vec<f64> = schemes
        .iter()
        .map(|&s| bandwidth_point(&cfg, 64, s).unwrap())
        .collect();
    let csb = *at_line.last().unwrap();
    for (i, &bw) in at_line.iter().enumerate().take(at_line.len() - 1) {
        assert!(csb >= bw, "CSB {csb} must beat scheme {i} ({bw}) at 64B");
    }
    // At 16 bytes, CSB is worse than non-combining.
    let none_16 = bandwidth_point(&cfg, 16, Scheme::Uncached { block: 8 }).unwrap();
    let csb_16 = bandwidth_point(&cfg, 16, Scheme::Csb).unwrap();
    assert!(csb_16 < none_16, "small transfers pay the full-line burst");
    // And the penalty is exactly a 64B burst carrying 16 payload bytes.
    assert!((csb_16 - 16.0 / 9.0).abs() < 0.05, "got {csb_16}");
}

/// "Increasing the cache line size pushes the crossover point between the
/// CSB and other schemes towards larger transfers."
#[test]
fn anchor_crossover_moves_with_line_size() {
    let crossover = |line: usize| -> usize {
        let cfg = SimConfig::default().line_size(line);
        for &t in &[16usize, 32, 64, 128, 256, 512, 1024] {
            let none = bandwidth_point(&cfg, t, Scheme::Uncached { block: 8 }).unwrap();
            let csb = bandwidth_point(&cfg, t, Scheme::Csb).unwrap();
            if csb >= none {
                return t;
            }
        }
        usize::MAX
    };
    let c32 = crossover(32);
    let c128 = crossover(128);
    assert!(
        c32 < c128,
        "crossover must move right with line size: 32B line at {c32}, 128B line at {c128}"
    );
}

/// "The net overhead of locking and unlocking is 8 cycles even when the
/// lock access hits in the L1 cache, and 137 cycles for a miss. The cache
/// miss latency is 100 cycles." We assert the miss-hit difference is the
/// miss latency give or take pipeline effects, and that the hit overhead
/// is small (single digits to low tens).
#[test]
fn anchor_lock_overhead_hit_vs_miss() {
    let cfg = SimConfig::default();
    let hit = fig5::latency_point(
        &cfg,
        2,
        Scheme::Uncached { block: 8 },
        fig5::LockResidency::Hit,
    )
    .unwrap();
    let miss = fig5::latency_point(
        &cfg,
        2,
        Scheme::Uncached { block: 8 },
        fig5::LockResidency::Miss,
    )
    .unwrap();
    assert!(
        (85..=130).contains(&(miss - hit)),
        "miss adds ~100 cycles: hit {hit}, miss {miss}"
    );
    // Paper: 28..100 cycles for 2..8 dwords with locking. Same ballpark.
    assert!(
        (20..=60).contains(&hit),
        "2-dword locked sequence: got {hit}"
    );
}

/// "Latency increases by 12 cycles for every doubleword transferred"
/// (locking, ratio 6) vs. "Latency increases by 1 cycle for each
/// transferred doubleword" (CSB).
#[test]
fn anchor_latency_slopes() {
    let cfg = SimConfig::default();
    let lock: Vec<u64> = (2..=8)
        .map(|d| {
            fig5::latency_point(
                &cfg,
                d,
                Scheme::Uncached { block: 8 },
                fig5::LockResidency::Hit,
            )
            .unwrap()
        })
        .collect();
    let csb: Vec<u64> = (2..=8)
        .map(|d| fig5::latency_point(&cfg, d, Scheme::Csb, fig5::LockResidency::Hit).unwrap())
        .collect();
    let lock_slope = (lock[6] - lock[0]) as f64 / 6.0;
    let csb_slope = (csb[6] - csb[0]) as f64 / 6.0;
    assert!(
        (10.0..=14.0).contains(&lock_slope),
        "locking slope ~12 cycles/dword, got {lock_slope} ({lock:?})"
    );
    assert!(
        (0.5..=2.5).contains(&csb_slope),
        "CSB slope ~1 cycle/dword, got {csb_slope} ({csb:?})"
    );
    // The CSB sequence is much cheaper in absolute terms, too.
    assert!(csb[6] * 3 < lock[6], "CSB {} vs lock {}", csb[6], lock[6]);
}

/// "Experiments with a 2-way and 8-way superscalar CPU did not change the
/// lock overhead at all, because of the short data and control
/// dependencies."
#[test]
fn anchor_lock_overhead_width_insensitive() {
    let obs = csb_core::experiments::runner::ObsConfig::default();
    let (rows, _, _) = csb_core::experiments::ablations::superscalar_widths(4, 1, obs).unwrap();
    let four = rows.iter().find(|r| r.width == 4).unwrap().lock_cycles;
    for r in &rows {
        assert!(
            r.lock_cycles.abs_diff(four) * 5 <= four,
            "width {} lock latency {} deviates >20% from {}",
            r.width,
            r.lock_cycles,
            four
        );
    }
}

/// "The bus alignment restrictions lead to better bus utilization when
/// going from 7 to 8 transactions" — with full-line combining, 8 dwords
/// (one burst) complete no later than 7 dwords (three bursts).
#[test]
fn anchor_seven_vs_eight_dwords() {
    let cfg = SimConfig::default();
    let c7 = fig5::latency_point(
        &cfg,
        7,
        Scheme::Uncached { block: 64 },
        fig5::LockResidency::Hit,
    )
    .unwrap();
    let c8 = fig5::latency_point(
        &cfg,
        8,
        Scheme::Uncached { block: 64 },
        fig5::LockResidency::Hit,
    )
    .unwrap();
    assert!(c8 <= c7, "8 dwords ({c8}) must not exceed 7 dwords ({c7})");
}

/// Figures 3(h)/(i): a minimum address-to-address delay throttles short
/// transactions to `8 bytes / delay` while a full-line burst (9 cycles on
/// the multiplexed bus) hides a 4-cycle acknowledgment completely.
#[test]
fn anchor_ack_delay_throttles_singles_only() {
    let delay4 = SimConfig::default().bus(
        BusConfig::multiplexed(8)
            .min_addr_delay(4)
            .max_burst(64)
            .build()
            .unwrap(),
    );
    let none = bandwidth_point(&delay4, 1024, Scheme::Uncached { block: 8 }).unwrap();
    assert!((none - 2.0).abs() < 0.1, "8B per 4 cycles, got {none}");
    let csb = bandwidth_point(&delay4, 1024, Scheme::Csb).unwrap();
    assert!(csb > 6.0, "bursts hide the 4-cycle ack, got {csb}");

    let delay8 = SimConfig::default().bus(
        BusConfig::multiplexed(8)
            .min_addr_delay(8)
            .max_burst(64)
            .build()
            .unwrap(),
    );
    let none8 = bandwidth_point(&delay8, 1024, Scheme::Uncached { block: 8 }).unwrap();
    assert!((none8 - 1.0).abs() < 0.1, "8B per 8 cycles, got {none8}");
}
