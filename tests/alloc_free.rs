//! Steady-state allocation audit: once a simulation is past its warmup
//! window, the cycle kernel must not touch the heap at all.
//!
//! A counting global allocator wraps the system allocator; one test runs
//! one Figure 3 bandwidth point (CSB store stream) and one Figure 5
//! latency point (lock sequence through the uncached buffer), ticks each
//! through its warmup — first-touch functional-memory chunks, the
//! MARK_START retirement, device-log growth into its reserved capacity —
//! and then asserts that a long mid-run window of ticks performs zero
//! allocations. Another drives the fault sweep's backoff points through
//! the fast-forward loop `Simulator::run` uses, so the idle walk, the
//! delay-loop skip and its warm-up memo are audited too, and a third the
//! long uncached and CSB store streams, whose settled tails and skipped
//! stream periods must not allocate either. Counting is
//! thread-local so that the libtest harness thread (which may print or
//! poll concurrently) and sibling tests cannot pollute a measurement
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use csb_core::experiments::runner::PointWork;
use csb_core::experiments::throughput;
use csb_core::workloads::{self, RetryPolicy};
use csb_core::{FaultConfig, SimConfig, Simulator};
use csb_isa::Program;

struct CountingAllocator;

// Const-initialized thread-locals: first access from the allocator hooks
// must not itself allocate (a lazily-initialized thread-local could).
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCS.with(|a| a.set(a.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The cycle limit of every audited run.
const LIMIT: u64 = 50_000_000;

/// Audits one point the way the sweep engine runs it in steady state: a
/// first cold execution pays every one-time cost (functional-memory
/// chunk first-touch, reserved capacities), then the simulator is
/// warm-reset onto the same point. The re-run steps through the first
/// 30% of its cycles (warmup: MARK_START retirement, allocator-free by
/// then) and must perform zero allocations over the next 40% (safely
/// clear of both MARK retirements and run completion). `step` advances
/// the machine: one real tick, or one step of the fast-forward loop,
/// which may jump many cycles but not past the cycle it is passed, the
/// end of the audited window. Returns the re-run simulator.
fn audit(
    label: &str,
    cfg: &SimConfig,
    program: &Program,
    prep: impl Fn(&mut Simulator),
    step: fn(&mut Simulator, u64),
) -> Simulator {
    let mut sim = Simulator::new(cfg.clone(), program.clone()).expect("point builds");
    prep(&mut sim);
    let total = sim.run(LIMIT).expect("point completes").cycles;
    let warmup = total * 3 / 10;
    let window = total * 4 / 10;
    assert!(
        window > 100,
        "{label}: run too short to audit ({total} cycles)"
    );

    sim.reset_with(cfg.clone(), program.clone())
        .expect("warm reset");
    prep(&mut sim);
    while sim.cpu().now() < warmup {
        step(&mut sim, warmup);
    }
    ALLOCS.with(|a| a.set(0));
    COUNTING.with(|c| c.set(true));
    while sim.cpu().now() < warmup + window {
        step(&mut sim, warmup + window);
    }
    COUNTING.with(|c| c.set(false));
    assert!(
        !sim.complete(),
        "{label}: completed inside the measured window"
    );
    let n = ALLOCS.with(Cell::get);
    assert_eq!(n, 0, "{label}: {n} heap allocation(s) in steady state");
    sim
}

#[test]
fn steady_state_ticks_do_not_allocate() {
    // Figure 3 shape: 8B multiplexed bus, 64B line, 1 KB CSB store
    // stream. Exercises the CSB line buffers, burst decomposition, the
    // bus, and delivery into functional memory + device log.
    let cfg = SimConfig::default();
    let program =
        workloads::store_bandwidth(1024, &cfg, workloads::StorePath::Csb).expect("fig3 workload");
    audit("fig3 1KB/CSB", &cfg, &program, |_| {}, |sim, _| sim.tick());

    // Figure 5 shape: the lock/store/unlock sequence under 8-byte
    // (uncombined) staging, lock line missing to memory. Exercises the
    // uncached buffer's drain scratch, the swap path, and the caches.
    let cfg = SimConfig::default().combining_block(8);
    let program = workloads::lock_sequence(16).expect("fig5 workload");
    audit(
        "fig5 16dw/none/miss",
        &cfg,
        &program,
        |sim| {
            sim.evict_line(csb_isa::Addr::new(csb_core::LOCK_ADDR));
        },
        |sim, _| sim.tick(),
    );
}

#[test]
fn fast_forwarded_delay_loops_do_not_allocate() {
    // The fault sweep's r90 backoff cell: flush disturbances at 90%, bus
    // errors and NACKs at a quarter of that. Each failed flush backs off
    // through a countdown delay loop, which the periodic skip and the
    // warm-up memo jump, and the audit steps the way `run` does. The
    // detector's observations and the memo keep their buffers across the
    // warm reset, so the re-run must not allocate where the cold run did
    // not, with the metrics timeline on or off.
    let cfg = SimConfig::default();
    // Seed 0x5eed1452 finishes in 93 cycles, too few to audit.
    for seed in (0x5eed_1450..0x5eed_1458).filter(|&s| s != 0x5eed_1452) {
        let policy = RetryPolicy::Backoff {
            attempts: 12,
            base: 32,
            max: 1024,
            seed,
        };
        let program = workloads::csb_sequence_with_policy(4, policy, &cfg).expect("backoff");
        for metrics in [false, true] {
            let prep = |sim: &mut Simulator| {
                sim.set_faults(Some(
                    FaultConfig::new(seed)
                        .flush_disturb_rate(0.9)
                        .bus_error_rate(0.225)
                        .device_nack_rate(0.225),
                ));
                if metrics {
                    sim.enable_metrics();
                }
            };
            let label = format!("r90 backoff seed {seed:#x}, metrics {metrics}");
            audit(&label, &cfg, &program, prep, |sim, _| {
                sim.advance_checked(LIMIT).expect("no livelock");
            });
        }
    }
}

#[test]
fn store_streams_do_not_allocate() {
    // The perf-smoke gate's long uncached stream (3long/1024B/none) and
    // long CSB stream (4along/16KB/CSB), stepped the way `run` steps
    // them. The steady-stream skip's packed states, machine prints and
    // recorded calls, and the settled tail, keep their buffers across the
    // warm reset, so the re-run must not allocate where the cold run did
    // not; both stream steps engage.
    for spec in [throughput::long_point(), throughput::csb_active_point()] {
        let PointWork::Bandwidth {
            transfer,
            scheme,
            order,
        } = spec.work
        else {
            unreachable!("the long points are bandwidth points");
        };
        let (cfg, path) = scheme.machine(&spec.cfg);
        let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order)
            .expect("long stream builds");
        let mut sim = audit(
            &spec.label,
            &cfg,
            &program,
            |_| {},
            |sim, end| {
                sim.advance_checked(end).expect("no livelock");
            },
        );
        sim.run(LIMIT).expect("long stream completes");
        assert!(
            sim.stream_steps() > 1,
            "{}: {} stream step(s)",
            spec.label,
            sim.stream_steps()
        );
    }
}
