//! Differential tests for the event-driven fast-forward path.
//!
//! Fast-forward must be invisible: every observable — `RunSummary` (byte-
//! identical JSON), `CsbStats`, metrics snapshots, golden traces — must
//! match the naive cycle-by-cycle loop exactly, on the figure workloads
//! and on randomized programs/configurations. The only permitted
//! difference is wall clock: a fully idle gap must cost O(1) real ticks.

use csb_bus::BusConfig;
use csb_core::experiments::fig5::LockResidency;
use csb_core::experiments::runner::{run_values_observed, ObsConfig, PointSpec, PointWork};
use csb_core::experiments::Scheme;
use csb_core::multiproc::{MultiSim, SwitchPolicy};
use csb_core::{workloads, FaultConfig, SimConfig, SimError, Simulator, WatchdogConfig};
use csb_isa::Program;
use csb_uncached::UncachedConfig;
use proptest::prelude::*;

/// Runs `program` twice — fast-forward on and off — with metrics enabled
/// on both, and asserts every observable is identical. Returns
/// `(cycles, ff_ticks, naive_ticks)`.
fn assert_differential(cfg: &SimConfig, program: &Program, limit: u64) -> (u64, u64, u64) {
    assert_differential_with(cfg, program, limit, |_| {})
}

/// [`assert_differential`] with a setup hook applied to both simulators
/// before running (fault schedules, watchdog thresholds, …).
fn assert_differential_with(
    cfg: &SimConfig,
    program: &Program,
    limit: u64,
    setup: impl Fn(&mut Simulator),
) -> (u64, u64, u64) {
    let mut ff = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    ff.set_fast_forward(true);
    ff.enable_metrics();
    setup(&mut ff);
    let mut naive = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    naive.set_fast_forward(false);
    naive.enable_metrics();
    setup(&mut naive);

    let ff_result = ff.run(limit);
    let naive_result = naive.run(limit);
    match (&ff_result, &naive_result) {
        (Ok(a), Ok(b)) => {
            let a_json = serde_json::to_string(a).expect("summary serializes");
            let b_json = serde_json::to_string(b).expect("summary serializes");
            assert_eq!(a_json, b_json, "RunSummary JSON must be byte-identical");
        }
        (Err(SimError::Livelock(a)), Err(SimError::Livelock(b))) => {
            // The watchdog must fire at the identical cycle with the
            // identical trigger and statistics on both loops.
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "livelock reports must be identical"
            );
        }
        (Err(_), Err(_)) => {
            // Both hit the cycle limit; the partial stats must still agree.
        }
        (a, b) => panic!("outcome diverged: ff={a:?} naive={b:?}"),
    }
    let a_sum = ff.summary();
    let b_sum = naive.summary();
    assert_eq!(
        serde_json::to_string(&a_sum).unwrap(),
        serde_json::to_string(&b_sum).unwrap(),
        "post-run summaries must match"
    );
    assert_eq!(ff.csb_stats(), naive.csb_stats(), "CsbStats must match");
    assert_eq!(
        ff.metrics_snapshot(),
        naive.metrics_snapshot(),
        "metrics snapshots must match"
    );
    (a_sum.cycles, ff.ticks(), naive.ticks())
}

// ---------------------------------------------------------------------
// Figure-style points, all schemes.
// ---------------------------------------------------------------------

#[test]
fn differential_bandwidth_workloads_all_schemes() {
    let base = SimConfig::default();
    let configs: Vec<(&str, SimConfig)> = vec![
        ("base", base.clone()),
        ("comb16", base.clone().combining_block(16)),
        ("r10k", {
            let mut c = base.clone();
            c.uncached = UncachedConfig::r10000(c.line());
            c
        }),
        ("ppc620", {
            let mut c = base.clone();
            c.uncached = UncachedConfig::ppc620();
            c
        }),
        ("double-buffered", base.clone().csb_double_buffered()),
        (
            "loaded-split-bus",
            base.clone()
                .bus(BusConfig::split(8).background(0.4, 64).build().unwrap())
                .frequency_ratio(3),
        ),
    ];
    for (name, cfg) in configs {
        for path in [workloads::StorePath::Uncached, workloads::StorePath::Csb] {
            let program = workloads::store_bandwidth(256, &cfg, path).unwrap();
            let (cycles, ff_ticks, naive_ticks) = assert_differential(&cfg, &program, 50_000_000);
            assert_eq!(
                naive_ticks, cycles,
                "naive loop ticks every cycle ({name}, {path:?})"
            );
            assert!(
                ff_ticks <= naive_ticks,
                "fast-forward never ticks more ({name}, {path:?})"
            );
        }
    }
}

#[test]
fn differential_lock_latency_hit_and_miss() {
    let cfg = SimConfig::default();
    for dwords in [2usize, 8] {
        for warm in [true, false] {
            let program = workloads::lock_sequence(dwords).unwrap();
            // `assert_differential` cannot warm/evict, so replicate inline.
            let mut ff = Simulator::new(cfg.clone(), program.clone()).unwrap();
            let mut naive = Simulator::new(cfg.clone(), program).unwrap();
            naive.set_fast_forward(false);
            for sim in [&mut ff, &mut naive] {
                sim.enable_metrics();
                let lock = csb_isa::Addr::new(csb_core::LOCK_ADDR);
                if warm {
                    sim.warm_line(lock);
                } else {
                    sim.evict_line(lock);
                }
            }
            let a = ff.run(50_000_000).unwrap();
            let b = naive.run(50_000_000).unwrap();
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            assert_eq!(ff.metrics_snapshot(), naive.metrics_snapshot());
        }
    }
}

/// The sweep engine takes its fast-forward switch from the `ObsConfig` it
/// is given: with the switch off, figure points run the naive loop (one
/// real tick per cycle) and yield identical values and cycle counts.
#[test]
fn figure_points_identical_via_obs_toggle() {
    let cfg = SimConfig::default();
    let specs = [
        PointSpec {
            label: "3e/256B/CSB".into(),
            cfg: cfg.clone(),
            work: PointWork::Bandwidth {
                transfer: 256,
                scheme: Scheme::Csb,
                order: workloads::StoreOrder::Ascending,
            },
        },
        PointSpec {
            label: "5b/4dw/CSB".into(),
            cfg: cfg.clone(),
            work: PointWork::Latency {
                dwords: 4,
                scheme: Scheme::Csb,
                residency: LockResidency::Miss,
            },
        },
    ];
    let on = ObsConfig::default();
    let off = ObsConfig {
        fast_forward: false,
        ..ObsConfig::default()
    };
    let (on_values, on_points, _) = run_values_observed(&specs, 2, on).unwrap();
    let (off_values, off_points, _) = run_values_observed(&specs, 2, off).unwrap();
    assert_eq!(on_values, off_values);
    for (a, b) in on_points.iter().zip(&off_points) {
        assert_eq!(a.sim_cycles, b.sim_cycles, "{}", a.label);
    }

    // The switch really selects the loop.
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    for (obs, naive) in [(on, false), (off, true)] {
        let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
        let summary = obs.simulate(&mut sim, 50_000_000).unwrap();
        assert_eq!(sim.fast_forward_enabled(), !naive);
        assert_eq!(sim.ticks() == summary.cycles, naive);
    }
}

// ---------------------------------------------------------------------
// Multi-process scheduling.
// ---------------------------------------------------------------------

#[test]
fn differential_multiproc_policies() {
    let cfg = SimConfig::default();
    let policies = [
        SwitchPolicy::Fixed(60),
        SwitchPolicy::Fixed(100_000),
        SwitchPolicy::Backoff { base: 6, max: 4096 },
    ];
    for policy in policies {
        let programs = vec![
            workloads::csb_worker(3, 8, 0, &cfg).unwrap(),
            workloads::csb_worker(3, 8, 1, &cfg).unwrap(),
        ];
        let mut ff = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        ff.set_fast_forward(true);
        let mut naive = MultiSim::new(cfg.clone(), programs, policy).unwrap();
        naive.set_fast_forward(false);
        let a = ff.run(10_000_000).unwrap();
        let b = naive.run(10_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "MultiSummary diverged under {policy:?}"
        );
    }
}

#[test]
fn differential_multiproc_livelock() {
    // Pathological 6-cycle slices livelock to the cycle limit; the limit
    // must be hit at the identical cycle either way.
    let cfg = SimConfig::default();
    let programs = vec![
        workloads::csb_worker(1, 8, 0, &cfg).unwrap(),
        workloads::csb_worker(1, 8, 1, &cfg).unwrap(),
    ];
    let mut ff = MultiSim::new(cfg.clone(), programs.clone(), SwitchPolicy::Fixed(6)).unwrap();
    ff.set_fast_forward(true);
    let mut naive = MultiSim::new(cfg, programs, SwitchPolicy::Fixed(6)).unwrap();
    naive.set_fast_forward(false);
    assert!(ff.run(300_000).is_err());
    assert!(naive.run(300_000).is_err());
    assert_eq!(
        serde_json::to_string(&ff.simulator().summary()).unwrap(),
        serde_json::to_string(&naive.simulator().summary()).unwrap()
    );
}

// ---------------------------------------------------------------------
// Tracing: fast-forward stays active and the walk synthesizes the events
// the naive loop would have emitted, so the exported streams match.
// ---------------------------------------------------------------------

#[test]
fn tracing_composes_with_fast_forward_and_matches_naive() {
    let cfg = SimConfig::default();
    for transfer in [512usize, 2048] {
        let program =
            workloads::store_bandwidth(transfer, &cfg, workloads::StorePath::Csb).unwrap();
        let mut ff = Simulator::new(cfg.clone(), program.clone()).unwrap();
        ff.set_fast_forward(true);
        ff.enable_tracing();
        let mut naive = Simulator::new(cfg.clone(), program).unwrap();
        naive.set_fast_forward(false);
        naive.enable_tracing();
        let a = ff.run(50_000_000).unwrap();
        let b = naive.run(50_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert_eq!(
            ff.chrome_trace(),
            naive.chrome_trace(),
            "trace streams must be byte-identical ({transfer} B)"
        );
        // Tracing no longer forfeits the event-driven loop: the traced
        // run really jumps while emitting the same stream.
        assert!(
            ff.ticks() < a.cycles,
            "traced fast-forward run must still skip cycles \
             (ticked {} of {}, {transfer} B)",
            ff.ticks(),
            a.cycles
        );
    }
}

// ---------------------------------------------------------------------
// The point of it all: idle gaps cost O(1) ticks.
// ---------------------------------------------------------------------

#[test]
fn idle_gap_advances_in_constant_ticks() {
    // Figure 5(b)-style point: a lock miss pays a ~100-cycle memory round
    // trip and the uncached stores wait out bus transactions at ratio 6 —
    // nearly all cycles are provably inert.
    let cfg = SimConfig::default();
    let program = workloads::lock_sequence(8).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    sim.set_fast_forward(true);
    sim.evict_line(csb_isa::Addr::new(csb_core::LOCK_ADDR));
    let s = sim.run(50_000_000).unwrap();
    assert!(
        sim.ticks() * 2 < s.cycles,
        "fast-forward must skip most of the {} cycles (ticked {})",
        s.cycles,
        sim.ticks()
    );
}

#[test]
fn post_halt_drain_is_skipped() {
    // One uncached store, then halt: the drain is a single bus transaction
    // many CPU cycles long; fast-forward jumps straight to the issue slot.
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(8, &cfg, workloads::StorePath::Uncached).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    sim.set_fast_forward(true);
    let s = sim.run(50_000_000).unwrap();
    assert!(
        sim.ticks() < s.cycles,
        "drain gap must be skipped ({} ticks for {} cycles)",
        sim.ticks(),
        s.cycles
    );
}

// ---------------------------------------------------------------------
// Active-bus drain walks: the bus stays occupied for thousands of cycles
// and the walk must bulk-apply every transaction cycle-exactly.
// ---------------------------------------------------------------------

#[test]
fn differential_sustained_uncached_store_stream() {
    // 4 KB of back-to-back uncached stores: the buffer is full nearly the
    // whole run and every jump crosses live bus occupancy.
    for ratio in [1u64, 6, 12] {
        let cfg = SimConfig::default().frequency_ratio(ratio);
        let program =
            workloads::store_bandwidth(4096, &cfg, workloads::StorePath::Uncached).unwrap();
        let (cycles, ff_ticks, naive_ticks) = assert_differential(&cfg, &program, 50_000_000);
        assert_eq!(naive_ticks, cycles, "naive loop ticks every cycle");
        assert!(ff_ticks <= naive_ticks);
    }
}

#[test]
fn differential_csb_flush_storm() {
    // Back-to-back full-line CSB bursts, inline and out-of-line retry
    // layouts, single- and double-buffered: sustained store/flush/drain
    // traffic with the CPU mostly waiting on CSB capacity.
    for double in [false, true] {
        let mut cfg = SimConfig::default().frequency_ratio(8);
        if double {
            cfg = cfg.csb_double_buffered();
        }
        for path in [workloads::StorePath::Csb, workloads::StorePath::CsbOutlined] {
            let program = workloads::store_bandwidth(2048, &cfg, path).unwrap();
            let (cycles, ff_ticks, naive_ticks) = assert_differential(&cfg, &program, 50_000_000);
            assert_eq!(naive_ticks, cycles, "naive loop ticks every cycle");
            assert!(ff_ticks <= naive_ticks, "({double}, {path:?})");
        }
    }
}

#[test]
fn differential_nic_messaging_both_send_paths() {
    // The attached NI ingests deliveries and stamps its obs events from
    // the bus-transaction timeline, so the delivered-message log, NI
    // counters, and the full Chrome trace must be byte-identical on the
    // naive and fast-forward loops — for the beat-dribbling lock path and
    // the burst-per-message CSB path alike.
    let cfg = SimConfig::default();
    let spec = workloads::MessagingSpec {
        count: 8,
        payload_dwords: 3,
        sender: 2,
        slots: 2,
    };
    let policy = workloads::RetryPolicy::NaiveSpin;
    let cases = [
        (
            workloads::lock_messages(spec, policy, &cfg).unwrap(),
            csb_core::UNCACHED_BASE,
        ),
        (
            workloads::csb_messages(spec, policy, &cfg).unwrap(),
            csb_core::COMBINING_BASE,
        ),
    ];
    for (program, base) in cases {
        let run = |fast_forward: bool| {
            let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
            sim.attach_nic(
                csb_nic::NicConfig {
                    slot_size: cfg.line(),
                    slots: 2,
                    ..csb_nic::NicConfig::default()
                },
                csb_isa::Addr::new(base),
            )
            .unwrap();
            sim.set_fast_forward(fast_forward);
            sim.enable_tracing();
            sim.run(50_000_000).unwrap();
            sim
        };
        let ff = run(true);
        let naive = run(false);
        assert_eq!(
            ff.chrome_trace(),
            naive.chrome_trace(),
            "trace export (NIC events included) must be byte-identical"
        );
        let nic_ff = ff.nic().unwrap();
        let nic_naive = naive.nic().unwrap();
        assert_eq!(nic_ff.stats(), nic_naive.stats(), "NI counters must match");
        assert_eq!(
            serde_json::to_string(&nic_ff.messages().to_vec()).unwrap(),
            serde_json::to_string(&nic_naive.messages().to_vec()).unwrap(),
            "delivered-message logs must be byte-identical"
        );
        assert_eq!(nic_ff.stats().messages, spec.count as u64);
        assert_eq!(nic_ff.stats().torn_frames, 0);
    }
}

#[test]
fn csb_active_phase_is_transaction_granular() {
    // The throughput bench's CSB-active shape: the bus is busy nearly end
    // to end, yet the walk must make real ticks scale with the CPU's own
    // work (a handful per line), not with the simulated cycle count.
    let spec = csb_core::experiments::throughput::csb_active_point();
    let csb_core::experiments::runner::PointWork::Bandwidth {
        transfer, scheme, ..
    } = spec.work
    else {
        panic!("csb-active point is a bandwidth point");
    };
    assert_eq!(scheme, Scheme::CsbOutlined);
    let program =
        workloads::store_bandwidth(transfer, &spec.cfg, workloads::StorePath::CsbOutlined).unwrap();
    let (cycles, ff_ticks, naive_ticks) = assert_differential(&spec.cfg, &program, 50_000_000);
    assert_eq!(naive_ticks, cycles);
    assert!(cycles >= 10_000, "point stays long ({cycles} cycles)");
    assert!(
        ff_ticks * 4 < cycles,
        "active-bus walk must skip most cycles (ticked {ff_ticks} of {cycles})"
    );
}

#[test]
fn differential_nack_retry_storm_and_watchdog_parity() {
    // A 100% device-NACK schedule turns the drain into an endless
    // reissue loop: the slot-per-carry walk must reproduce it exactly,
    // and the hard-stall watchdog must fire at the identical cycle on
    // both loops.
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(64, &cfg, workloads::StorePath::Uncached).unwrap();
    let (_, ff_ticks, naive_ticks) = assert_differential_with(&cfg, &program, 5_000_000, |sim| {
        sim.set_faults(Some(FaultConfig::new(7).device_nack_rate(1.0)));
        sim.set_watchdog(WatchdogConfig {
            stall_cycles: 2_000,
            futile_flushes: 0,
        });
    });
    assert!(
        ff_ticks < naive_ticks,
        "the NACK storm must be fast-forwarded ({ff_ticks} vs {naive_ticks} ticks)"
    );
}

#[test]
fn differential_multiproc_slicing_over_active_bus() {
    // Slice boundaries clamp the walk mid-drain; the clamp must stay
    // cycle-exact while bursts are being bulk-applied.
    let cfg = SimConfig::default().frequency_ratio(8);
    for policy in [SwitchPolicy::Fixed(40), SwitchPolicy::Fixed(137)] {
        let programs = vec![
            workloads::store_bandwidth(512, &cfg, workloads::StorePath::CsbOutlined).unwrap(),
            workloads::store_bandwidth(512, &cfg, workloads::StorePath::Uncached).unwrap(),
        ];
        let mut ff = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        ff.set_fast_forward(true);
        let mut naive = MultiSim::new(cfg.clone(), programs, policy).unwrap();
        naive.set_fast_forward(false);
        let a = ff.run(10_000_000).unwrap();
        let b = naive.run(10_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "MultiSummary diverged under {policy:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized active-bus storms: bulk transfers through every store
    /// path, under random bus shapes and nonzero fault rates, must match
    /// the naive loop on every observable (fault counters included —
    /// the walk replays the schedule ordinal-for-ordinal).
    #[test]
    fn differential_active_bus_under_faults(
        seed in any::<u64>(),
        kb in 1usize..=4,
        ratio in 1u64..=12,
        rate_pct in 0u32..40,
        path_idx in 0usize..3,
        split in any::<bool>(),
    ) {
        let rate = f64::from(rate_pct) / 100.0;
        let bus = if split {
            BusConfig::split(8).max_burst(64).build().unwrap()
        } else {
            BusConfig::multiplexed(8).max_burst(64).build().unwrap()
        };
        let cfg = SimConfig::default().bus(bus).frequency_ratio(ratio);
        let path = [
            workloads::StorePath::Uncached,
            workloads::StorePath::Csb,
            workloads::StorePath::CsbOutlined,
        ][path_idx];
        let program = workloads::store_bandwidth(kb * 1024, &cfg, path).unwrap();
        let (_, ff_ticks, naive_ticks) =
            assert_differential_with(&cfg, &program, 50_000_000, |sim| {
                sim.set_faults(Some(
                    FaultConfig::new(seed)
                        .bus_error_rate(rate * 0.5)
                        .device_nack_rate(rate)
                        .flush_disturb_rate(rate * 0.5)
                        .max_consecutive(8),
                ));
            });
        prop_assert!(ff_ticks <= naive_ticks);
    }
}

// ---------------------------------------------------------------------
// Randomized programs and configurations.
// ---------------------------------------------------------------------

proptest! {
    /// Random mixed workloads (cached + uncached + combining + membar)
    /// over random machine shapes: the two loops must agree bit-for-bit.
    #[test]
    fn differential_random_programs(
        seed in 0u64..1_000_000,
        ops in 30usize..120,
        mem_percent in 20u8..80,
        ratio in 1u64..8,
        block_log in 3u32..7,
    ) {
        let cfg = SimConfig::default()
            .frequency_ratio(ratio)
            .combining_block(1usize << block_log);
        let mix = workloads::RandomMix { ops, mem_percent };
        let program = workloads::random_mixed(seed, mix, &cfg).unwrap();
        let (cycles, ff_ticks, naive_ticks) =
            assert_differential(&cfg, &program, 50_000_000);
        prop_assert_eq!(naive_ticks, cycles);
        prop_assert!(ff_ticks <= naive_ticks);
    }

    /// A queue of random points through ONE warm-reset simulator
    /// ([`Simulator::reset_with`]) must match fresh construction
    /// point-for-point, byte-for-byte — the invariant the sweep engine's
    /// per-worker simulator reuse rests on. Machine shape, program, and
    /// queue length all vary, so every reset crosses a config change.
    #[test]
    fn warm_reuse_matches_fresh_construction(
        points in proptest::collection::vec(
            (0u64..1_000_000, 30usize..120, 20u8..80, 1u64..8, 3u32..7),
            2..5,
        ),
    ) {
        let mut slot: Option<Simulator> = None;
        for (seed, ops, mem_percent, ratio, block_log) in points {
            let cfg = SimConfig::default()
                .frequency_ratio(ratio)
                .combining_block(1usize << block_log);
            let mix = workloads::RandomMix { ops, mem_percent };
            let program = workloads::random_mixed(seed, mix, &cfg).unwrap();
            match slot.as_mut() {
                Some(sim) => sim.reset_with(cfg.clone(), program.clone()).unwrap(),
                None => slot = Some(Simulator::new(cfg.clone(), program.clone()).unwrap()),
            }
            let warm = slot.as_mut().unwrap();
            let mut fresh = Simulator::new(cfg, program).unwrap();
            match (warm.run(50_000_000), fresh.run(50_000_000)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    serde_json::to_string(&a).unwrap(),
                    serde_json::to_string(&b).unwrap(),
                    "warm-reset RunSummary JSON must be byte-identical to fresh"
                ),
                (Err(_), Err(_)) => {} // both hit the limit; compare partial state below
                (a, b) => panic!("outcome diverged: warm={a:?} fresh={b:?}"),
            }
            prop_assert_eq!(
                serde_json::to_string(&warm.summary()).unwrap(),
                serde_json::to_string(&fresh.summary()).unwrap()
            );
            prop_assert_eq!(warm.csb_stats(), fresh.csb_stats());
        }
    }

    /// Hardware-combining rules have deferred-mutation subtleties
    /// (`closed` entries); stress them specifically.
    #[test]
    fn differential_random_programs_hw_combining(
        seed in 0u64..1_000_000,
        r10k in any::<bool>(),
    ) {
        let mut cfg = SimConfig::default();
        cfg.uncached = if r10k {
            UncachedConfig::r10000(cfg.line())
        } else {
            UncachedConfig::ppc620()
        };
        let mix = workloads::RandomMix { ops: 80, mem_percent: 70 };
        let program = workloads::random_mixed(seed, mix, &cfg).unwrap();
        assert_differential(&cfg, &program, 50_000_000);
    }
}
