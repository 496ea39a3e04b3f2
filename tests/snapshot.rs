//! Differential tests for snapshot/resume and the sweep-point cache.
//!
//! A snapshot taken at an arbitrary cycle — mid-flush, mid-bus-
//! transaction, under an active fault schedule, mid-slice in a
//! multi-process run — must restore to a machine that continues
//! **byte-identically** to one that never stopped, on both the naive and
//! fast-forward loops. The cache tests check the content-addressing
//! contract: a warm sweep is all hits with identical values, a corrupted
//! or stale-format record is detected and transparently re-simulated,
//! changing one point's configuration invalidates exactly that point, and
//! the pack survives a reopen, a torn tail and a merge by concatenation.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use csb_core::experiments::runner::{
    run_values_observed, ObsConfig, PointSpec, PointValue, PointWork, RunReport,
};
use csb_core::experiments::{ExpError, Scheme};
use csb_core::multiproc::{MultiSim, SchedulerMode, SwitchPolicy};
use csb_core::snapshot::AutosnapConfig;
use csb_core::workloads::{self, RetryPolicy, StoreOrder};
use csb_core::{cache, FaultConfig, RestoreError, SimConfig, SimError, Simulator, WatchdogConfig};
use csb_isa::Program;
use proptest::prelude::*;

const LIMIT: u64 = 2_000_000;

/// Runs `(cfg, program)` uninterrupted, and again with a snapshot/restore
/// boundary at cycle `snap_at`; asserts the resumed machine's summary,
/// CSB stats, device log, and fault counters are byte-identical, and that
/// the donor simulator (the one snapshotted) also finishes identically.
fn assert_snapshot_differential(
    cfg: &SimConfig,
    program: &Program,
    snap_at: u64,
    fast_forward: bool,
    faults: Option<FaultConfig>,
) {
    let mut whole = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    whole.set_fast_forward(fast_forward);
    whole.set_faults(faults);
    let expected = whole.run(LIMIT).expect("uninterrupted run completes");

    let mut donor = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    donor.set_fast_forward(fast_forward);
    donor.set_faults(faults);
    donor.run_to(snap_at).expect("run to snapshot cycle");
    let bytes = donor.snapshot();

    let mut resumed =
        Simulator::restore(cfg.clone(), program.clone(), &bytes).expect("snapshot restores");
    let got = resumed.run(LIMIT).expect("resumed run completes");

    let ctx = format!("snap_at={snap_at} ff={fast_forward}");
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "{ctx}: resumed summary must be byte-identical"
    );
    assert_eq!(
        resumed.csb_stats(),
        whole.csb_stats(),
        "{ctx}: CSB stats must match"
    );
    assert_eq!(
        serde_json::to_string(resumed.device()).unwrap(),
        serde_json::to_string(whole.device()).unwrap(),
        "{ctx}: device log must be byte-identical"
    );
    assert_eq!(
        format!("{:?}", resumed.fault_stats()),
        format!("{:?}", whole.fault_stats()),
        "{ctx}: fault counters must match"
    );

    // Snapshotting is non-destructive: the donor finishes identically too.
    let donor_summary = donor.run(LIMIT).expect("donor continues");
    assert_eq!(
        serde_json::to_string(&donor_summary).unwrap(),
        serde_json::to_string(&expected).unwrap(),
        "{ctx}: donor must be unaffected by taking a snapshot"
    );
}

#[test]
fn snapshot_restore_on_figure_workloads() {
    let cfg = SimConfig::default();
    let csb = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    let uncached = workloads::store_bandwidth(128, &cfg, workloads::StorePath::Uncached).unwrap();
    // Snapshot cycles chosen to land mid-run: combining stores in flight,
    // bursts mid-drain on the bus, flushes pending.
    for &snap_at in &[1, 17, 100, 250, 1_000] {
        for ff in [false, true] {
            assert_snapshot_differential(&cfg, &csb, snap_at, ff, None);
            assert_snapshot_differential(&cfg, &uncached, snap_at, ff, None);
        }
    }
}

#[test]
fn snapshot_restore_under_active_fault_schedule() {
    let cfg = SimConfig::default();
    let program = workloads::csb_sequence_with_policy(
        8,
        RetryPolicy::Backoff {
            attempts: 12,
            base: 32,
            max: 1024,
            seed: 11,
        },
        &cfg,
    )
    .unwrap();
    let faults = FaultConfig::new(0x5eed)
        .flush_disturb_rate(0.5)
        .bus_error_rate(0.125)
        .device_nack_rate(0.125);
    // Mid-retry snapshots: the fault ordinal streams must reposition
    // exactly, or the schedule replays differently after restore.
    for &snap_at in &[1, 40, 150, 700] {
        for ff in [false, true] {
            assert_snapshot_differential(&cfg, &program, snap_at, ff, Some(faults));
        }
    }
}

#[test]
fn snapshot_preserves_trace_stream_as_concatenation() {
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();

    let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
    whole.enable_tracing();
    whole.run(LIMIT).unwrap();
    let uninterrupted = whole.trace_events();

    let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
    donor.enable_tracing();
    donor.run_to(120).unwrap();
    let pre = donor.trace_events();
    let bytes = donor.snapshot();
    let mut resumed = Simulator::restore(cfg, program, &bytes).unwrap();
    resumed.run(LIMIT).unwrap();
    let post = resumed.trace_events();

    let mut concat = pre;
    concat.extend(post);
    assert_eq!(
        concat, uninterrupted,
        "pre-snapshot + post-restore events must equal the uninterrupted stream"
    );
}

#[test]
fn snapshot_restore_mid_slice_in_multisim() {
    let cfg = SimConfig::default();
    let programs = vec![
        workloads::csb_worker(4, 8, 0, &cfg).unwrap(),
        workloads::csb_worker(4, 8, 1, &cfg).unwrap(),
    ];
    for policy in [
        SwitchPolicy::Fixed(60),
        SwitchPolicy::Backoff { base: 6, max: 4096 },
    ] {
        let mut whole = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        let expected = whole.run(10_000_000).unwrap();

        // Drive the donor into the middle of the run (CycleLimit is the
        // documented bounded-run return), snapshot mid-slice, restore.
        let mut donor = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
        match donor.run(150) {
            Err(SimError::CycleLimit { .. }) => {}
            other => panic!("expected mid-run CycleLimit, got {other:?}"),
        }
        let bytes = donor.snapshot();
        let mut resumed = MultiSim::restore(cfg.clone(), programs.clone(), policy, &bytes).unwrap();
        let got = resumed.run(10_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&expected).unwrap(),
            "{policy:?}: resumed multi-process run must be byte-identical"
        );
        assert_eq!(
            serde_json::to_string(resumed.simulator().device()).unwrap(),
            serde_json::to_string(whole.simulator().device()).unwrap(),
            "{policy:?}: device log must be byte-identical"
        );
    }
}

#[test]
fn restore_rejects_mismatch_and_corruption() {
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(64, &cfg, workloads::StorePath::Csb).unwrap();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.run_to(50).unwrap();
    let bytes = sim.snapshot();

    // Different program.
    let other = workloads::store_bandwidth(128, &cfg, workloads::StorePath::Csb).unwrap();
    assert!(matches!(
        Simulator::restore(cfg.clone(), other, &bytes),
        Err(RestoreError::ProgramMismatch)
    ));

    // Different configuration.
    let other_cfg = SimConfig::default().line_size(32);
    assert!(matches!(
        Simulator::restore(other_cfg, program.clone(), &bytes),
        Err(RestoreError::ConfigMismatch)
    ));

    // A frame of another format version is refused for its version, not
    // for its fingerprints, even with a checksum that matches.
    let older = csb_core::SNAPSHOT_FORMAT_VERSION - 1;
    let mut stale = bytes.clone();
    stale[8..12].copy_from_slice(&older.to_le_bytes());
    let sum_at = stale.len() - 8;
    let sum = csb_snap::fnv1a(&stale[..sum_at]);
    stale[sum_at..].copy_from_slice(&sum.to_le_bytes());
    assert!(matches!(
        Simulator::restore(cfg.clone(), program.clone(), &stale),
        Err(RestoreError::Snapshot(csb_snap::SnapshotError::Version { found, .. })) if found == older
    ));

    // Flipped byte fails the checksum.
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    assert!(matches!(
        Simulator::restore(cfg.clone(), program.clone(), &corrupt),
        Err(RestoreError::Snapshot(_))
    ));

    // Truncation fails too.
    assert!(matches!(
        Simulator::restore(cfg, program, &bytes[..bytes.len() / 2]),
        Err(RestoreError::Snapshot(_))
    ));
}

/// `frame` with bit `bit` of byte `i` flipped and the trailing checksum
/// recomputed, so the flip reaches the section decoders.
fn flipped(frame: &[u8], i: usize, bit: u8) -> Vec<u8> {
    let body = frame.len() - 8;
    let mut bytes = frame.to_vec();
    bytes[i] ^= bit;
    let checksum = csb_snap::fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

#[test]
fn byte_flipped_frames_with_valid_checksums_restore_or_fail_cleanly() {
    // Mid-run frames with every section live: CSB traffic, an attached
    // NIC and a fault schedule in the first; uncached-buffer entries
    // mid-drain in the second; a message half assembled in a NIC slot in
    // the third. Each byte is flipped in its low and its
    // high bit. Restore must answer `Ok` or `Err` — never panic, and never
    // abort on an allocation sized by a corrupt count — and a restored
    // machine must run: a field no run produces is rejected on restore,
    // not trusted by the loop that reads it.
    let cfg = SimConfig::default();
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.attach_nic(
        csb_nic::NicConfig::default(),
        csb_isa::Addr::new(csb_core::COMBINING_BASE),
    )
    .unwrap();
    sim.set_faults(Some(
        FaultConfig::new(7)
            .bus_error_rate(0.3)
            .device_nack_rate(0.2)
            .flush_disturb_rate(0.3),
    ));
    sim.run_to(40).unwrap();
    let csb = (cfg, program, sim.snapshot());

    let cfg = SimConfig::default().combining_block(64);
    let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Uncached).unwrap();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.run_to(90).unwrap();
    let uncached = (cfg, program, sim.snapshot());

    // Lock-path messages into the NIC's uncached window, with slot 0
    // mid-assembly at the cut: flips reach a pending message's header.
    let cfg = SimConfig::default();
    let spec = workloads::MessagingSpec {
        count: 16,
        payload_dwords: 7,
        sender: 1,
        slots: 4,
    };
    let program = workloads::lock_messages(spec, RetryPolicy::NaiveSpin, &cfg).unwrap();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    let nic = csb_nic::NicConfig {
        slot_size: cfg.line(),
        slots: 4,
        ..csb_nic::NicConfig::default()
    };
    sim.attach_nic(nic, csb_isa::Addr::new(csb_core::UNCACHED_BASE))
        .unwrap();
    sim.run_to(116).unwrap();
    let messages = (cfg, program, sim.snapshot());

    for (cfg, program, frame) in [csb, uncached, messages] {
        let mut target = Simulator::new(cfg, program).unwrap();
        let mut restored = 0;
        for i in 0..frame.len() - 8 {
            for bit in [0x01u8, 0x80] {
                if target.restore_from(&flipped(&frame, i, bit)).is_ok() {
                    restored += 1;
                    let _ = target.run(target.cpu().now().saturating_add(40));
                }
            }
        }
        // Flips in plain counters and cycle stamps still decode.
        assert!(restored > 0, "no flipped frame restored");
    }
}

#[test]
fn byte_flipped_multiprocess_frames_restore_and_run_or_fail_cleanly() {
    // A two-process frame mid-slice, flipped byte by byte as above. Every
    // frame that restores must then run: a decoded field that no run
    // could have produced — a bus horizon far past the restored cycle,
    // say — must be rejected on restore, not hang or overflow the loop
    // that trusts it. Each flip runs under the other scheduler mode too.
    let cfg = SimConfig::default();
    let programs: Vec<Program> = [0, 1]
        .map(|line| workloads::csb_worker(4, 8, line, &cfg).unwrap())
        .to_vec();
    let policy = SwitchPolicy::Fixed(60);
    let mut ms = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
    assert!(matches!(ms.run(150), Err(SimError::CycleLimit { .. })));
    let frame = ms.snapshot();
    let mut restored = 0;
    for i in 0..frame.len() - 8 {
        for (bit, mode) in [
            (0x01u8, SchedulerMode::HorizonHeap),
            (0x80, SchedulerMode::RoundRobin),
        ] {
            let bytes = flipped(&frame, i, bit);
            let Ok(mut ms) = MultiSim::restore(cfg.clone(), programs.clone(), policy, &bytes)
            else {
                continue;
            };
            restored += 1;
            ms.set_scheduler(mode);
            ms.set_fast_forward(true);
            for limit in [200, 210] {
                let _ = ms.run(limit);
            }
        }
    }
    assert!(restored > 0, "no flipped frame restored");
}

#[test]
fn a_bus_horizon_no_run_reaches_is_rejected_on_restore() {
    // At cycle 150 of this two-process run the bus is free from bus cycle
    // 30. The same frame with 2^63 added to that horizon used to restore,
    // and fast-forward then jumped toward it: an overflow in a debug
    // build, a walk that never returned in a release build.
    let cfg = SimConfig::default();
    let programs: Vec<Program> = [0, 1]
        .map(|line| workloads::csb_worker(4, 8, line, &cfg).unwrap())
        .to_vec();
    let policy = SwitchPolicy::Fixed(60);
    let mut ms = MultiSim::new(cfg.clone(), programs.clone(), policy).unwrap();
    assert!(matches!(ms.run(150), Err(SimError::CycleLimit { .. })));
    let frame = ms.snapshot();
    let tag = (csb_snap::fnv1a_str("bus") as u32).to_le_bytes();
    let at = frame.windows(4).position(|w| w == tag).unwrap() + 4;
    let next_free = u64::from_le_bytes(frame[at..at + 8].try_into().unwrap());
    assert_eq!(next_free, 30, "the bus section's first field");

    let far = flipped(&frame, at + 7, 0x80);
    assert!(matches!(
        MultiSim::restore(cfg.clone(), programs.clone(), policy, &far),
        Err(RestoreError::Snapshot(csb_snap::SnapshotError::Corrupt(_)))
    ));
    let mut resumed = MultiSim::restore(cfg, programs, policy, &frame).unwrap();
    assert!(resumed.run(2_000_000).is_ok());
}

#[test]
fn snapshot_respects_watchdog_state() {
    // A snapshot taken shortly before a livelock fires must, after
    // restore, still fire at the identical cycle with the identical
    // report.
    let cfg = SimConfig::default();
    let program = workloads::csb_sequence_with_policy(8, RetryPolicy::NaiveSpin, &cfg).unwrap();
    let faults = FaultConfig::new(3).flush_disturb_rate(1.0);

    let run_whole = |ff: bool| {
        let mut s = Simulator::new(cfg.clone(), program.clone()).unwrap();
        s.set_fast_forward(ff);
        s.set_faults(Some(faults));
        s.set_watchdog(WatchdogConfig::default());
        match s.run(LIMIT) {
            Err(SimError::Livelock(r)) => format!("{r:?}"),
            other => panic!("expected livelock, got {other:?}"),
        }
    };
    for ff in [false, true] {
        let expected = run_whole(ff);
        let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
        donor.set_fast_forward(ff);
        donor.set_faults(Some(faults));
        donor.set_watchdog(WatchdogConfig::default());
        donor.run_to(200).unwrap();
        let bytes = donor.snapshot();
        let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
        let got = match resumed.run(LIMIT) {
            Err(SimError::Livelock(r)) => format!("{r:?}"),
            other => panic!("expected livelock after restore, got {other:?}"),
        };
        assert_eq!(got, expected, "ff={ff}: livelock report must be identical");
    }
}

#[test]
fn snapshot_restore_with_attached_nic() {
    // The NIC attachment — window base, configuration, per-slot in-flight
    // assembly, and the delivered-message log — rides the snapshot frame:
    // restore reconstructs it without the caller re-attaching, and the
    // resumed machine's NI state is byte-identical to the uninterrupted
    // run's. Snapshot cycles are chosen to land mid-message on the lock
    // path (frames half-assembled from single beats).
    let cfg = SimConfig::default();
    let spec = workloads::MessagingSpec {
        count: 8,
        payload_dwords: 7,
        sender: 3,
        slots: 2,
    };
    let nic_cfg = csb_nic::NicConfig {
        slot_size: cfg.line(),
        slots: 2,
        ..csb_nic::NicConfig::default()
    };
    let cases = [
        (
            workloads::lock_messages(spec, RetryPolicy::NaiveSpin, &cfg).unwrap(),
            csb_core::UNCACHED_BASE,
            None,
        ),
        (
            workloads::csb_messages(
                spec,
                RetryPolicy::Backoff {
                    attempts: 12,
                    base: 32,
                    max: 1024,
                    seed: 5,
                },
                &cfg,
            )
            .unwrap(),
            csb_core::COMBINING_BASE,
            Some(
                FaultConfig::new(0x11c)
                    .flush_disturb_rate(0.4)
                    .bus_error_rate(0.1)
                    .device_nack_rate(0.1),
            ),
        ),
    ];
    for (program, base, faults) in cases {
        for &snap_at in &[1, 60, 400, 900] {
            for ff in [false, true] {
                let attach = |s: &mut Simulator| {
                    s.attach_nic(nic_cfg, csb_isa::Addr::new(base)).unwrap();
                    s.set_fast_forward(ff);
                    s.set_faults(faults);
                };
                let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
                attach(&mut whole);
                let expected = whole.run(LIMIT).expect("uninterrupted run completes");

                let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
                attach(&mut donor);
                donor.run_to(snap_at).unwrap();
                let bytes = donor.snapshot();
                let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
                let got = resumed.run(LIMIT).expect("resumed run completes");

                let ctx = format!("base={base:#x} snap_at={snap_at} ff={ff}");
                assert_eq!(
                    serde_json::to_string(&got).unwrap(),
                    serde_json::to_string(&expected).unwrap(),
                    "{ctx}: summaries must match"
                );
                let nic = resumed.nic().expect("attachment restored from frame");
                let nic_whole = whole.nic().unwrap();
                assert_eq!(
                    nic.stats(),
                    nic_whole.stats(),
                    "{ctx}: NI counters must match"
                );
                assert_eq!(
                    serde_json::to_string(&nic.messages().to_vec()).unwrap(),
                    serde_json::to_string(&nic_whole.messages().to_vec()).unwrap(),
                    "{ctx}: delivered-message logs must be byte-identical"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random snapshot cycles on random workload shapes, both loops:
    /// including cycles that land mid-flush and mid-bus-transaction.
    #[test]
    fn snapshot_round_trips_at_random_cycles(
        snap_at in 1u64..2_500,
        transfer_idx in 0usize..3,
        csb_path in proptest::bool::ANY,
        ff in proptest::bool::ANY,
        shuffled in proptest::bool::ANY,
    ) {
        let cfg = SimConfig::default();
        let transfer = [64usize, 256, 512][transfer_idx];
        let path = if csb_path {
            workloads::StorePath::Csb
        } else {
            workloads::StorePath::Uncached
        };
        let order = if shuffled { StoreOrder::Shuffled } else { StoreOrder::Ascending };
        let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order).unwrap();
        assert_snapshot_differential(&cfg, &program, snap_at, ff, None);
    }

    /// Random snapshot cycles under a seeded fault schedule.
    #[test]
    fn snapshot_round_trips_under_faults(
        snap_at in 1u64..1_500,
        seed in 0u64..64,
        ff in proptest::bool::ANY,
    ) {
        let cfg = SimConfig::default();
        let program = workloads::csb_sequence_with_policy(
            8,
            RetryPolicy::Bounded { attempts: 8 },
            &cfg,
        ).unwrap();
        let faults = FaultConfig::new(seed)
            .flush_disturb_rate(0.4)
            .bus_error_rate(0.1)
            .device_nack_rate(0.1);
        let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
        whole.set_fast_forward(ff);
        whole.set_faults(Some(faults));
        let expected = match whole.run(LIMIT) {
            Ok(s) => serde_json::to_string(&s).unwrap(),
            Err(e) => format!("{e:?}"),
        };
        let mut donor = Simulator::new(cfg.clone(), program.clone()).unwrap();
        donor.set_fast_forward(ff);
        donor.set_faults(Some(faults));
        donor.run_to(snap_at).unwrap();
        let bytes = donor.snapshot();
        let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).unwrap();
        let got = match resumed.run(LIMIT) {
            Ok(s) => serde_json::to_string(&s).unwrap(),
            Err(e) => format!("{e:?}"),
        };
        prop_assert_eq!(got, expected);
    }
}

// ---------------------------------------------------------------------------
// Point-cache contract. Each test opens its own store and hands it to the
// sweep in its `ObsConfig`; nothing is shared between tests.
// ---------------------------------------------------------------------------

/// A fresh, empty directory under the system temp dir, unique to `name`
/// and this process.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csb-snapshot-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn with_cache<T>(name: &str, f: impl FnOnce(&cache::PointCache) -> T) -> T {
    let dir = scratch_dir(name);
    let store = cache::PointCache::open(&dir).expect("cache dir");
    let out = f(&store);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs `specs` through the engine with `store` as the sweep's cache.
fn run_cached(
    specs: &[PointSpec],
    jobs: usize,
    store: &cache::PointCache,
) -> Result<(Vec<PointValue>, RunReport), ExpError> {
    let obs = ObsConfig {
        cache: Some(store),
        ..ObsConfig::default()
    };
    let (values, _, report) = run_values_observed(specs, jobs, obs)?;
    Ok((values, report))
}

fn small_specs() -> Vec<PointSpec> {
    let cfg = SimConfig::default();
    [64usize, 128, 256]
        .iter()
        .map(|&transfer| PointSpec {
            label: format!("cache-test/{transfer}B"),
            cfg: cfg.clone(),
            work: PointWork::Bandwidth {
                transfer,
                scheme: Scheme::Csb,
                order: StoreOrder::Ascending,
            },
        })
        .collect()
}

#[test]
fn warm_sweep_is_all_hits_with_identical_values() {
    with_cache("warm", |store| {
        let specs = small_specs();
        let (cold_values, cold_report) = run_cached(&specs, 1, store).unwrap();
        let cold = cold_report.cache.expect("cache stats recorded");
        assert_eq!(cold.misses, specs.len() as u64);
        assert_eq!(cold.hits, 0);
        assert!(cold.bytes_written > 0);

        let (warm_values, warm_report) = run_cached(&specs, 2, store).unwrap();
        let warm = warm_report.cache.expect("cache stats recorded");
        assert_eq!(
            warm.hits,
            specs.len() as u64,
            "second sweep must be all hits"
        );
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.invalidations, 0);
        assert_eq!(warm_values, cold_values, "cached values must be identical");
        assert_eq!(store.stats().hits, specs.len() as u64);

        // The report surfaces the pair as metrics counters too.
        assert!(warm_report.render().contains("cache"));
        let m = warm_report.metrics.expect("cache counters in metrics");
        assert_eq!(m.counters["cache.hit"], specs.len() as u64);
        assert_eq!(m.counters["cache.miss"], 0);
    });
}

/// Bytes of a pack record before its payload: magic[8] | version u32 |
/// key u64 | len u32.
const RECORD_HEADER: usize = 24;

fn pack_path(store: &cache::PointCache) -> PathBuf {
    store.dir().join(cache::PACK_FILE)
}

/// The byte ranges of the records in an undamaged pack, walked through
/// each record's length field (a checksum u64 follows every payload).
fn pack_records(pack: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < pack.len() {
        let len = u32::from_le_bytes(pack[pos + 20..pos + 24].try_into().unwrap()) as usize;
        let end = pos + RECORD_HEADER + len + 8;
        records.push(pos..end);
        pos = end;
    }
    records
}

#[test]
fn corrupted_entry_is_detected_and_resimulated() {
    with_cache("corrupt", |store| {
        let specs = small_specs();
        let (cold_values, _) = run_cached(&specs, 1, store).unwrap();

        // Flip one byte inside the second record's payload.
        let mut bytes = std::fs::read(pack_path(store)).unwrap();
        let record = pack_records(&bytes)[1].clone();
        bytes[record.start + RECORD_HEADER + 3] ^= 0xff;
        std::fs::write(pack_path(store), &bytes).unwrap();

        let (warm_values, report) = run_cached(&specs, 1, store).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(stats.invalidations, 1, "corruption must be detected");
        assert_eq!(stats.misses, 1, "the corrupted point re-simulates");
        assert_eq!(stats.hits, specs.len() as u64 - 1);
        assert_eq!(warm_values, cold_values, "values must survive corruption");

        // The re-simulated entry was rewritten: a third sweep is all hits.
        let (_, report) = run_cached(&specs, 1, store).unwrap();
        assert_eq!(report.cache.unwrap().hits, specs.len() as u64);
    });
}

#[test]
fn fresh_open_serves_a_filled_dir_as_hits() {
    with_cache("reopen", |store| {
        let specs = small_specs();
        let (cold_values, _) = run_cached(&specs, 1, store).unwrap();
        // A second handle on the same dir indexes the pack as a new
        // process would.
        let reopened = cache::PointCache::open(store.dir()).unwrap();
        let (warm_values, report) = run_cached(&specs, 2, &reopened).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(stats.hits, specs.len() as u64);
        assert_eq!((stats.misses, stats.invalidations), (0, 0));
        assert_eq!(warm_values, cold_values);
    });
}

#[test]
fn truncated_pack_resimulates_only_the_cut_records() {
    with_cache("truncated", |store| {
        let specs = small_specs();
        let (cold_values, _) = run_cached(&specs, 1, store).unwrap();

        // Cut the pack in the middle of its second record: the second and
        // third points lose their records, the first keeps its own.
        let bytes = std::fs::read(pack_path(store)).unwrap();
        let records = pack_records(&bytes);
        assert_eq!(records.len(), specs.len());
        let cut = records[1].start + records[1].len() / 2;
        std::fs::write(pack_path(store), &bytes[..cut]).unwrap();

        let torn = cache::PointCache::open(store.dir()).unwrap();
        let (values, report) = run_cached(&specs, 1, &torn).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(stats.hits, 1, "the uncut record still serves");
        assert_eq!(stats.misses, 2, "exactly the cut records re-simulate");
        assert_eq!(values, cold_values);

        // That open dropped the torn tail, so the re-simulated records it
        // appended are reachable: the next run is all hits.
        let healed = cache::PointCache::open(store.dir()).unwrap();
        let (values, report) = run_cached(&specs, 1, &healed).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(stats.hits, specs.len() as u64);
        assert_eq!((stats.misses, stats.invalidations), (0, 0));
        assert_eq!(values, cold_values);
    });
}

#[test]
fn stale_format_record_is_rejected_and_resimulated() {
    with_cache("stale-format", |store| {
        let specs = small_specs();
        let (cold_values, _) = run_cached(&specs, 1, store).unwrap();

        // Rewrite the first record as another format version would have
        // written it, with a checksum that matches.
        let mut bytes = std::fs::read(pack_path(store)).unwrap();
        let record = pack_records(&bytes)[0].clone();
        let stale = csb_core::cache::CACHE_FORMAT_VERSION + 1;
        bytes[record.start + 8..record.start + 12].copy_from_slice(&stale.to_le_bytes());
        let sum_at = record.end - 8;
        let sum = csb_snap::fnv1a(&bytes[record.start..sum_at]);
        bytes[sum_at..record.end].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(pack_path(store), &bytes).unwrap();

        let reopened = cache::PointCache::open(store.dir()).unwrap();
        let (values, report) = run_cached(&specs, 1, &reopened).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(stats.invalidations, 1, "the stale record is rejected");
        assert_eq!(stats.misses, 1, "and its point re-simulates");
        assert_eq!(stats.hits, specs.len() as u64 - 1);
        assert_eq!(values, cold_values);
    });
}

#[test]
fn concatenated_packs_merge_disjoint_halves() {
    let specs = small_specs();
    let (first, second) = specs.split_at(1);
    let halves = [scratch_dir("merge-a"), scratch_dir("merge-b")];
    for (dir, half) in halves.iter().zip([first, second]) {
        let store = cache::PointCache::open(dir).unwrap();
        run_cached(half, 1, &store).unwrap();
    }
    // Merging two machines' caches is concatenating their packs.
    let merged = scratch_dir("merge-ab");
    std::fs::create_dir_all(&merged).unwrap();
    let mut pack = Vec::new();
    for dir in &halves {
        pack.extend(std::fs::read(dir.join(cache::PACK_FILE)).unwrap());
    }
    std::fs::write(merged.join(cache::PACK_FILE), pack).unwrap();

    let store = cache::PointCache::open(&merged).unwrap();
    let (values, report) = run_cached(&specs, 2, &store).unwrap();
    let stats = report.cache.expect("cache stats recorded");
    assert_eq!(stats.hits, specs.len() as u64, "the merged pack serves all");
    assert_eq!((stats.misses, stats.invalidations), (0, 0));
    let uncached = run_values_observed(&specs, 1, ObsConfig::default())
        .unwrap()
        .0;
    assert_eq!(values, uncached);
    for dir in halves.iter().chain([&merged]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn config_change_invalidates_only_that_point() {
    with_cache("invalidate", |store| {
        let mut specs = small_specs();
        let (_, cold_report) = run_cached(&specs, 1, store).unwrap();
        assert_eq!(cold_report.cache.unwrap().misses, specs.len() as u64);

        // Change ONE point's machine configuration.
        specs[1].cfg = SimConfig::default().line_size(32);
        let (_, report) = run_cached(&specs, 1, store).unwrap();
        let stats = report.cache.expect("cache stats recorded");
        assert_eq!(
            stats.hits,
            specs.len() as u64 - 1,
            "unchanged points must stay warm"
        );
        assert_eq!(stats.misses, 1, "exactly the edited point re-simulates");
    });
}

#[test]
fn observed_points_bypass_the_cache() {
    with_cache("observed", |store| {
        let specs = small_specs();
        let obs = ObsConfig {
            metrics: true,
            cache: Some(store),
            ..ObsConfig::default()
        };
        let (_, artifacts, report) = run_values_observed(&specs, 1, obs).unwrap();
        assert!(
            report.cache.is_none(),
            "artifact-capturing sweeps must not touch the cache"
        );
        assert_eq!(store.stats(), cache::CacheStats::default());
        assert!(artifacts.iter().all(|a| a.artifacts.metrics.is_some()));
    });
}

#[test]
fn concurrent_sweeps_keep_their_own_caches() {
    // Two sweeps on two threads, each with its own store, released into
    // the engine together: each store counts exactly its own points, and
    // both sweeps' values match an uncached run.
    let bandwidth = small_specs();
    let latency: Vec<PointSpec> = [2usize, 8]
        .iter()
        .map(|&dwords| PointSpec {
            label: format!("cache-test/{dwords}dw"),
            cfg: SimConfig::default(),
            work: PointWork::Latency {
                dwords,
                scheme: Scheme::Csb,
                residency: csb_core::experiments::fig5::LockResidency::Hit,
            },
        })
        .collect();
    let uncached = |specs: &[PointSpec]| {
        run_values_observed(specs, 1, ObsConfig::default())
            .expect("uncached sweep")
            .0
    };
    let expected = [uncached(&bandwidth), uncached(&latency)];

    let dirs = [scratch_dir("concurrent-a"), scratch_dir("concurrent-b")];
    let stores = dirs
        .each_ref()
        .map(|d| cache::PointCache::open(d).expect("cache dir"));
    let sweeps = [&bandwidth, &latency];
    let start = Barrier::new(2);
    for round in 0..2 {
        let values: Vec<Vec<PointValue>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sweeps
                .iter()
                .zip(&stores)
                .map(|(specs, store)| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        run_cached(specs, 2, store).expect("cached sweep").0
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep thread"))
                .collect()
        });
        for ((got, want), (specs, store)) in
            values.iter().zip(&expected).zip(sweeps.iter().zip(&stores))
        {
            assert_eq!(got, want, "round {round}: cached values must match");
            let n = specs.len() as u64;
            let stats = store.stats();
            assert_eq!(
                stats.misses, n,
                "round {round}: only this sweep's points missed"
            );
            assert_eq!(
                stats.hits,
                round * n,
                "round {round}: only this sweep's points hit"
            );
            assert_eq!(stats.invalidations, 0);
        }
    }
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

// ---------------------------------------------------------------------------
// Autosnap: periodic frames written during a sweep.
// ---------------------------------------------------------------------------

/// The frame files in an autosnap directory.
fn frame_names(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("autosnap dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8 name")
        })
        .collect()
}

/// Splits a frame name `snap-<cfg fp><program fp>-<point key>-<cycle>.bin`
/// into its fingerprints, point key and cycle.
fn parse_frame_name(name: &str) -> (String, u64, u64) {
    let fields: Vec<&str> = name
        .strip_prefix("snap-")
        .and_then(|n| n.strip_suffix(".bin"))
        .expect("snap-*.bin")
        .split('-')
        .collect();
    let [fingerprints, key, cycle] = fields[..] else {
        panic!("{name}: not fingerprints-key-cycle");
    };
    assert_eq!(fingerprints.len(), 32, "{name}: two 16-digit fingerprints");
    let key = u64::from_str_radix(key, 16).expect("hex point key");
    let cycle = cycle.parse().expect("decimal cycle");
    (fingerprints.to_string(), key, cycle)
}

#[test]
fn autosnap_writes_the_same_frames_on_both_loops() {
    // Every frame lands on a multiple of the cadence, whether the run
    // jumps or ticks there, and holds the same bytes either way.
    let specs = small_specs();
    let every = 23;
    let mut loops = Vec::new();
    for fast_forward in [true, false] {
        let dir = scratch_dir(&format!("autosnap-ff-{fast_forward}"));
        std::fs::create_dir_all(&dir).expect("autosnap dir");
        let obs = ObsConfig {
            fast_forward,
            autosnap: Some(AutosnapConfig::new(every, &dir)),
            ..ObsConfig::default()
        };
        run_values_observed(&specs, 1, obs).expect("autosnap sweep");
        let mut names = frame_names(&dir);
        names.sort();
        assert!(names
            .iter()
            .all(|name| parse_frame_name(name).2.is_multiple_of(every)));
        let frames: Vec<(String, Vec<u8>)> = names
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).expect("frame readable");
                (name, bytes)
            })
            .collect();
        loops.push(frames);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(!loops[0].is_empty());
    assert!(loops[0] == loops[1], "frames differ between the loops");
}

#[test]
fn autosnap_frames_restore_and_finish_identically() {
    let specs = small_specs();
    let dir = scratch_dir("autosnap");
    std::fs::create_dir_all(&dir).expect("autosnap dir");
    let snapping = ObsConfig {
        autosnap: Some(AutosnapConfig::new(40, &dir)),
        ..ObsConfig::default()
    };
    let (plain_values, plain, _) =
        run_values_observed(&specs, 1, ObsConfig::default()).expect("plain sweep");
    let (snap_values, snapped, _) =
        run_values_observed(&specs, 1, snapping).expect("autosnap sweep");
    assert_eq!(snap_values, plain_values, "autosnap must not change values");
    for (a, b) in snapped.iter().zip(&plain) {
        assert_eq!(a.sim_cycles, b.sim_cycles, "{}", a.label);
    }

    let mut frames: Vec<(u64, String)> = frame_names(&dir)
        .into_iter()
        .map(|name| (parse_frame_name(&name).2, name))
        .collect();
    assert!(!frames.is_empty(), "autosnap must write frames");
    frames.sort();
    let (_, newest) = frames.last().expect("at least one frame");

    // Rebuild the point's machine and program, restore the newest frame,
    // and finish: the summary must match an uninterrupted run.
    let (cfg, program) = specs
        .iter()
        .map(|spec| {
            let PointWork::Bandwidth {
                transfer,
                scheme,
                order,
            } = spec.work
            else {
                unreachable!("small_specs are bandwidth points")
            };
            let (cfg, path) = scheme.machine(&spec.cfg);
            let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order)
                .expect("workload builds");
            (cfg, program)
        })
        .find(|(cfg, program)| {
            let prefix = format!(
                "snap-{:016x}{:016x}-",
                csb_snap::hash_of(cfg),
                csb_snap::hash_of(program)
            );
            newest.starts_with(&prefix)
        })
        .expect("the newest frame belongs to one of the specs");
    let bytes = std::fs::read(dir.join(newest)).expect("frame readable");
    let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes).expect("restores");
    let got = resumed.run(LIMIT).expect("resumed run completes");
    let mut whole = Simulator::new(cfg, program).expect("config valid");
    let expected = whole.run(LIMIT).expect("uninterrupted run completes");
    assert_eq!(
        serde_json::to_string(&got).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Uncached reads on the bus: a swap and a load through `UNCACHED_BASE`.
// ---------------------------------------------------------------------------

/// Swaps 0x55 into `UNCACHED_BASE + 0x40`, loads it back, then swaps 0x66
/// into `+ 0x48`; the machine starts with 0x77 and 0x88 there. Every
/// access is a bus round trip through the uncached buffer.
fn uncached_swap_machine(fast_forward: bool) -> (SimConfig, Program, Simulator) {
    use csb_isa::{Addr, Assembler, MemWidth, Reg};
    let mut a = Assembler::new();
    a.movi(Reg::O1, csb_core::UNCACHED_BASE as i64);
    a.movi(Reg::L0, 0x55);
    a.swap(Reg::L0, Reg::O1, 0x40);
    a.ld(Reg::L1, Reg::O1, 0x40, MemWidth::B8);
    a.movi(Reg::L2, 0x66);
    a.swap(Reg::L2, Reg::O1, 0x48);
    a.halt();
    let program = a.assemble().expect("swap program assembles");
    let cfg = SimConfig::default();
    let mut sim = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    sim.set_fast_forward(fast_forward);
    let mem = sim.memory_mut();
    mem.write(Addr::new(csb_core::UNCACHED_BASE + 0x40), 8, 0x77);
    mem.write(Addr::new(csb_core::UNCACHED_BASE + 0x48), 8, 0x88);
    (cfg, program, sim)
}

#[test]
fn uncached_swaps_round_trip_through_the_bus() {
    use csb_isa::Reg;
    let mut summaries = Vec::new();
    for ff in [false, true] {
        let (cfg, program, mut whole) = uncached_swap_machine(ff);
        let expected = whole.run(LIMIT).expect("uninterrupted run completes");
        let regs = whole.cpu().context();
        assert_eq!(
            regs.int_reg(Reg::L0),
            0x77,
            "ff={ff}: first swap's old value"
        );
        assert_eq!(
            regs.int_reg(Reg::L1),
            0x55,
            "ff={ff}: the load sees the swap"
        );
        assert_eq!(
            regs.int_reg(Reg::L2),
            0x88,
            "ff={ff}: second swap's old value"
        );
        assert_eq!(expected.bus.transactions, 3, "ff={ff}: three round trips");

        // A frame at every cycle restores and finishes like the uncut run:
        // swaps on the bus and values delivered but not yet polled ride
        // the frame.
        let expected = serde_json::to_string(&expected).unwrap();
        let (_, _, mut donor) = uncached_swap_machine(ff);
        let mut frames = 0;
        while !donor.complete() {
            let at = donor.cpu().now() + 1;
            donor.run_to(at).expect("run to snapshot cycle");
            let bytes = donor.snapshot();
            let mut resumed = Simulator::restore(cfg.clone(), program.clone(), &bytes)
                .unwrap_or_else(|e| panic!("ff={ff} cycle {at}: {e}"));
            let got = resumed.run(LIMIT).expect("resumed run completes");
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                expected,
                "ff={ff}: frame at cycle {at} finishes differently"
            );
            frames += 1;
        }
        assert!(frames > 20, "ff={ff}: only {frames} frames");
        summaries.push(expected);
    }
    assert_eq!(summaries[0], summaries[1], "naive and fast-forward differ");
}

#[test]
fn restore_rejects_a_read_tag_listed_twice() {
    // Tick until the first swap is on the bus: the frame's read lists are
    // then no delivered load, no delivered swap and one swap on the bus
    // (tag, width 8, value 0x55). Forge a delivered load under the same
    // tag in front of it.
    let (cfg, program, mut sim) = uncached_swap_machine(false);
    let is_lists = |w: &[u8]| {
        let word = |i: usize| u64::from_le_bytes(w[8 * i..8 * i + 8].try_into().unwrap());
        (word(0), word(1), word(2), word(4), word(5)) == (0, 0, 1, 8, 0x55)
    };
    let (frame, at) = loop {
        assert!(!sim.complete(), "the swap never went on the bus");
        let now = sim.cpu().now();
        sim.run_to(now + 1).unwrap();
        let frame = sim.snapshot();
        let hits: Vec<usize> = (0..frame.len() - 48)
            .filter(|&i| is_lists(&frame[i..i + 48]))
            .collect();
        if let [at] = hits[..] {
            break (frame, at);
        }
    };
    assert!(Simulator::restore(cfg.clone(), program.clone(), &frame).is_ok());
    let tag = u64::from_le_bytes(frame[at + 24..at + 32].try_into().unwrap());
    let body = &frame[..frame.len() - 8];
    let mut forged = body[..at].to_vec();
    forged.extend([1, tag, 0, 0x77].iter().flat_map(|w: &u64| w.to_le_bytes()));
    forged.extend(&body[at + 8..]);
    let sum = csb_snap::fnv1a(&forged);
    forged.extend(sum.to_le_bytes());
    assert!(
        Simulator::restore(cfg, program, &forged).is_err(),
        "a tag both delivered and on the bus restored"
    );
}

// ---------------------------------------------------------------------------
// Whole-machine frame bytes, pinned.
// ---------------------------------------------------------------------------

/// Appends `len fnv1a` of `sim`'s frame at every `every`-th cycle of its
/// run, one line per frame, until the run completes. The run advances
/// from frame to frame, so on the fast-forward loop it jumps between them.
fn pin_frames(out: &mut String, name: &str, sim: &mut Simulator, every: u64) {
    use std::fmt::Write as _;
    loop {
        let now = sim.cpu().now();
        if now.is_multiple_of(every) {
            let frame = sim.snapshot();
            let sum = csb_snap::fnv1a(&frame);
            writeln!(out, "{name} {now} {} {sum:016x}", frame.len()).unwrap();
        }
        if sim.complete() {
            return;
        }
        if let Err(e) = sim.run_to((now / every + 1) * every) {
            writeln!(out, "{name} {now} stopped: {e}").unwrap();
            return;
        }
    }
}

/// Appends `len fnv1a` of `ms`'s frame at every cycle of its run, one
/// line per frame, until the run completes.
fn pin_multi_frames(out: &mut String, name: &str, ms: &mut MultiSim) {
    use std::fmt::Write as _;
    let mut finished = false;
    loop {
        let now = ms.simulator().cpu().now();
        let frame = ms.snapshot();
        let sum = csb_snap::fnv1a(&frame);
        writeln!(out, "{name} {now} {} {sum:016x}", frame.len()).unwrap();
        if finished {
            return;
        }
        finished = match ms.run(now + 1) {
            Ok(_) => true,
            Err(SimError::CycleLimit { .. }) => false,
            Err(e) => {
                writeln!(out, "{name} {now} stopped: {e}").unwrap();
                return;
            }
        };
    }
}

/// The `len` and FNV-1a of `Simulator::snapshot()` at every cycle of the
/// uncached swap program and of `4a/256B/CSB`, at every 101st cycle of
/// `messaging/csb/8B/r90/backoff-12` (NIC attached, faults on), and of
/// `MultiSim::snapshot()` at every cycle of two CSB workers under
/// exponential-backoff slicing (saved contexts, doubling slices,
/// completions and scheduler keys all move), each machine run on the loop
/// `fast_forward` picks.
fn machine_frames(fast_forward: bool) -> String {
    let mut out = String::new();
    let (_, _, mut sim) = uncached_swap_machine(fast_forward);
    pin_frames(&mut out, "swap", &mut sim, 1);

    let spec = csb_core::experiments::figure_points()
        .into_iter()
        .find(|s| s.label == "4a/256B/CSB")
        .expect("Figure 4 enumerates 4a/256B/CSB");
    let PointWork::Bandwidth {
        transfer,
        scheme,
        order,
    } = spec.work
    else {
        unreachable!("4a/256B/CSB is a bandwidth point")
    };
    let (cfg, path) = scheme.machine(&spec.cfg);
    let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order).unwrap();
    let mut sim = Simulator::new(cfg, program).unwrap();
    sim.set_fast_forward(fast_forward);
    pin_frames(&mut out, "4a/256B/CSB", &mut sim, 1);

    // The messaging sweep's first seed of its csb/8B/r90/backoff-12 cell.
    let seed = 0x0e2e_0000 + 102_000;
    let cfg = SimConfig::default();
    let spec = workloads::MessagingSpec {
        count: 16,
        payload_dwords: 1,
        sender: 1,
        slots: 4,
    };
    let policy = RetryPolicy::Backoff {
        attempts: 12,
        base: 32,
        max: 1024,
        seed,
    };
    let program = workloads::csb_messages(spec, policy, &cfg).unwrap();
    let nic = csb_nic::NicConfig {
        slot_size: cfg.line(),
        slots: 4,
        ..csb_nic::NicConfig::default()
    };
    let mut sim = Simulator::new(cfg, program).unwrap();
    sim.attach_nic(nic, csb_isa::Addr::new(csb_core::COMBINING_BASE))
        .unwrap();
    sim.set_faults(Some(
        FaultConfig::new(seed)
            .flush_disturb_rate(0.9)
            .bus_error_rate(0.9 * 0.25)
            .device_nack_rate(0.9 * 0.25),
    ));
    sim.enable_metrics();
    sim.set_fast_forward(fast_forward);
    pin_frames(&mut out, "messaging/csb/8B/r90/backoff-12", &mut sim, 101);

    let cfg = SimConfig::default();
    let programs = vec![
        workloads::csb_worker(2, 8, 0, &cfg).unwrap(),
        workloads::csb_worker(2, 8, 1, &cfg).unwrap(),
    ];
    let policy = SwitchPolicy::Backoff { base: 6, max: 4096 };
    let mut ms = MultiSim::new(cfg, programs, policy).unwrap();
    ms.set_fast_forward(fast_forward);
    pin_multi_frames(&mut out, "multi/backoff-6", &mut ms);
    out
}

/// [`machine_frames`] on both loops: a frame is the same bytes whichever
/// loop reached its cycle, and a refactor must leave every byte of every
/// frame where it was. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p csb-core --test snapshot` only for an
/// intentional change to the frame.
#[test]
fn machine_frames_match_golden() {
    let out = machine_frames(false);
    let jumped = machine_frames(true);
    for (i, (naive, ff)) in out.lines().zip(jumped.lines()).enumerate() {
        assert_eq!(ff, naive, "frame line {} differs between the loops", i + 1);
    }
    assert_eq!(jumped.lines().count(), out.lines().count());

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/frames.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &out).expect("golden frames write");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{} missing — run UPDATE_GOLDEN=1 cargo test -p csb-core --test snapshot",
            path.display()
        )
    });
    for (i, (got, want)) in out.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "frame line {} drifted", i + 1);
    }
    assert_eq!(
        out.lines().count(),
        expected.lines().count(),
        "frame count drifted"
    );
}

// ---------------------------------------------------------------------------
// Warm restores: a frame continues the same whichever simulator it lands in.
// ---------------------------------------------------------------------------

/// A machine under the default configuration whose frames a restore
/// must continue alike, warm or cold.
struct Probe {
    name: &'static str,
    /// The program the frames are taken under.
    program: Program,
    /// The machine at its first frame.
    start: Box<dyn Fn() -> Simulator>,
    /// CPU cycles between frames.
    every: u64,
}

/// Counts a word of cached memory up from zero six times, then writes the
/// count to the device: a restore that kept the last run's memory counts
/// on from where that run stopped.
fn counter_program() -> Program {
    use csb_isa::{Assembler, MemWidth, Reg};
    let mut a = Assembler::new();
    let top = a.new_label();
    a.movi(Reg::O1, csb_core::LOCK_ADDR as i64 + 0x100);
    a.movi(Reg::O2, csb_core::UNCACHED_BASE as i64);
    a.movi(Reg::L1, 6);
    a.bind(top).unwrap();
    a.ld(Reg::L0, Reg::O1, 0, MemWidth::B8);
    a.addi(Reg::L0, 1);
    a.std(Reg::L0, Reg::O1, 0);
    a.addi(Reg::L1, -1);
    a.cmpi(Reg::L1, 0);
    a.bnz(top);
    a.std(Reg::L0, Reg::O2, 0);
    a.halt();
    a.assemble().expect("counter program assembles")
}

/// Single- and two-process machines, a NIC mid-message under faults, and
/// tracing and metrics on and off.
fn probes() -> Vec<Probe> {
    let cfg = SimConfig::default();
    let csb = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb).unwrap();
    let traced = |sim: &mut Simulator| {
        sim.enable_tracing();
        sim.enable_metrics();
    };
    let spec = workloads::MessagingSpec {
        count: 4,
        payload_dwords: 3,
        sender: 2,
        slots: 2,
    };
    let policy = RetryPolicy::Backoff {
        attempts: 12,
        base: 32,
        max: 1024,
        seed: 9,
    };
    let messages = workloads::csb_messages(spec, policy, &cfg).unwrap();
    let workers = [0, 1].map(|pid| workloads::csb_worker(2, 8, pid, &cfg).unwrap());
    let machine = {
        let cfg = cfg.clone();
        move |program: &Program| Simulator::new(cfg.clone(), program.clone()).unwrap()
    };
    vec![
        Probe {
            name: "csb",
            start: Box::new({
                let (machine, csb) = (machine.clone(), csb.clone());
                move || machine(&csb)
            }),
            program: csb.clone(),
            every: 40,
        },
        Probe {
            name: "csb traced",
            start: Box::new({
                let (machine, csb) = (machine.clone(), csb.clone());
                move || {
                    let mut sim = machine(&csb);
                    traced(&mut sim);
                    sim
                }
            }),
            program: csb,
            every: 40,
        },
        Probe {
            name: "counter",
            start: Box::new({
                let machine = machine.clone();
                move || machine(&counter_program())
            }),
            program: counter_program(),
            every: 25,
        },
        Probe {
            name: "nic under faults",
            start: Box::new({
                let (machine, messages, line) = (machine.clone(), messages.clone(), cfg.line());
                move || {
                    let mut sim = machine(&messages);
                    let nic = csb_nic::NicConfig {
                        slot_size: line,
                        slots: 2,
                        ..csb_nic::NicConfig::default()
                    };
                    sim.attach_nic(nic, csb_isa::Addr::new(csb_core::COMBINING_BASE))
                        .unwrap();
                    sim.set_faults(Some(
                        FaultConfig::new(0x51)
                            .flush_disturb_rate(0.3)
                            .bus_error_rate(0.1)
                            .device_nack_rate(0.1),
                    ));
                    sim.enable_metrics();
                    sim
                }
            }),
            program: messages,
            every: 150,
        },
        Probe {
            // Process 0 runs to its halt; process 1 then takes the core,
            // with process 0's line still in the CSB or on the bus.
            name: "two processes",
            start: Box::new({
                let workers = workers.clone();
                move || {
                    let mut sim = machine(&workers[0]);
                    traced(&mut sim);
                    while !sim.cpu().halted() {
                        sim.advance_checked(LIMIT).unwrap();
                    }
                    let next = csb_cpu::CpuContext::new(1);
                    sim.cpu_mut().switch_context(next, Some(workers[1].clone()));
                    sim
                }
            }),
            program: workers[1].clone(),
            every: 20,
        },
    ]
}

/// `probe`'s frames: one at its start, then one at every multiple of its
/// cadence until the run completes.
fn probe_frames(probe: &Probe) -> Vec<Vec<u8>> {
    let mut sim = (probe.start)();
    let mut frames = Vec::new();
    loop {
        frames.push(sim.snapshot());
        if sim.complete() {
            return frames;
        }
        let now = sim.cpu().now();
        sim.run_to((now / probe.every + 1) * probe.every).unwrap();
    }
}

/// Everything a continuation outputs: its summary (or why it stopped),
/// metrics, trace events, device log, NIC and fault counters.
fn continuation(sim: &mut Simulator) -> String {
    let run = sim
        .run(LIMIT)
        .map(|summary| serde_json::to_string(&summary).unwrap());
    format!(
        "{run:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        sim.metrics_snapshot(),
        sim.trace_events(),
        sim.device().writes(),
        sim.nic().map(csb_nic::Nic::stats),
        sim.fault_stats(),
    )
}

#[test]
fn warm_restores_continue_as_cold_restores() {
    let cfg = SimConfig::default();
    for probe in probes() {
        let frames = probe_frames(&probe);
        assert!(frames.len() > 2, "{}: {} frames", probe.name, frames.len());
        for (i, frame) in frames.iter().enumerate() {
            // A simulator that just ran the same pair to completion with
            // every optional part on.
            let mut warm = Simulator::new(cfg.clone(), probe.program.clone()).unwrap();
            warm.enable_tracing();
            warm.enable_metrics();
            warm.set_faults(Some(
                FaultConfig::new(3)
                    .flush_disturb_rate(0.2)
                    .bus_error_rate(0.2)
                    .device_nack_rate(0.2),
            ));
            let nic = csb_nic::NicConfig {
                slot_size: cfg.line(),
                ..csb_nic::NicConfig::default()
            };
            warm.attach_nic(nic, csb_isa::Addr::new(csb_core::COMBINING_BASE))
                .unwrap();
            let _ = warm.run(LIMIT);
            warm.restore_from(frame).unwrap();
            let mut cold = Simulator::restore(cfg.clone(), probe.program.clone(), frame).unwrap();
            assert_eq!(
                continuation(&mut warm),
                continuation(&mut cold),
                "{} frame {i}",
                probe.name
            );
        }
    }
}
