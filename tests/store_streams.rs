//! Differential tests for the store-stream fast-forward: the settled tail
//! and the steady-stream skip.
//!
//! Retiring a settled tail in one call and skipping whole periods of a
//! steady store stream must be invisible: the summary, the CSB's
//! counters, the device's write log and a snapshot frame at any cut must
//! be the bytes the naive loop produces. The only permitted difference is
//! host time, which the engagement tests bound by real ticks.

use csb_bus::BusConfig;
use csb_core::experiments::runner::{PointSpec, PointWork};
use csb_core::experiments::{throughput, Scheme};
use csb_core::workloads::{self, MessagingSpec, RetryPolicy, StoreOrder, StorePath};
use csb_core::{FaultConfig, SimConfig, Simulator};
use csb_cpu::{CpuConfig, TextRun};
use csb_isa::{Inst, Program};
use proptest::prelude::*;

/// Cycle limit of every run.
const LIMIT: u64 = 10_000_000;

/// What a run leaves behind: the summary as JSON, the CSB's counters and
/// the device's write log, each rendered for a byte comparison.
fn outcome(sim: &Simulator) -> [String; 3] {
    [
        serde_json::to_string(&sim.summary()).expect("summary serializes"),
        format!("{:?}", sim.csb_stats()),
        format!("{:?}", sim.device().writes()),
    ]
}

/// Runs `program` on `cfg` with fast-forward `on`, taking a snapshot
/// frame at each of `cuts` on the way, and returns the frames, the
/// outcome and the simulator.
fn run(
    cfg: &SimConfig,
    program: &Program,
    on: bool,
    setup: &impl Fn(&mut Simulator),
    cuts: &[u64],
) -> (Vec<Vec<u8>>, [String; 3], Simulator) {
    let mut sim = Simulator::new(cfg.clone(), program.clone()).expect("config valid");
    sim.set_fast_forward(on);
    setup(&mut sim);
    let mut frames = Vec::new();
    for &cut in cuts {
        sim.run_to(cut).expect("no livelock");
        frames.push(sim.snapshot());
    }
    sim.run(LIMIT).expect("stream completes");
    let out = outcome(&sim);
    (frames, out, sim)
}

/// Runs `program` on both loops and asserts every observable equal,
/// frames at cuts spread over the run included. Returns the fast-forward
/// simulator.
///
/// Frames are compared only under the block combining rule and the CSB:
/// under the R10000 and PowerPC 620 rules a refused store closes the
/// entry whose pattern it breaks, which the naive loop's refused pushes
/// do and a jump's booked refusals do not, so frames taken inside such a
/// stall differ on the two loops whether or not a stream is skipped.
fn assert_streams_exact(
    cfg: &SimConfig,
    program: &Program,
    setup: impl Fn(&mut Simulator),
    cut_seed: u64,
) -> Simulator {
    let frames = cfg.uncached.rule == csb_uncached::CombineRule::Block;
    let (_, naive_out, naive) = run(cfg, program, false, &setup, &[]);
    let cycles = naive.summary().cycles;
    assert_eq!(naive.ticks(), cycles, "the naive loop ticks every cycle");
    // Cuts at pseudo-random cycles inside the run, so that frames land
    // inside skipped periods and settled tails.
    let mut x = cut_seed | 1;
    let mut cuts: Vec<u64> = (0..3)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1 + x % cycles.max(1)
        })
        .collect();
    cuts.sort_unstable();
    let (naive_frames, _, _) = run(cfg, program, false, &setup, &cuts);
    let (ff_frames, ff_out, ff) = run(cfg, program, true, &setup, &cuts);
    assert_eq!(ff_out, naive_out, "outcome differs from the naive loop");
    for ((cut, a), b) in cuts.iter().zip(&ff_frames).zip(&naive_frames) {
        assert!(
            a == b || !frames,
            "frame at cycle {cut} differs from the naive loop"
        );
    }
    assert!(ff.ticks() <= naive.ticks(), "fast-forward never ticks more");
    ff
}

/// The machine a case runs on.
#[allow(clippy::too_many_arguments)]
fn machine(
    cpu_width: usize,
    line: usize,
    split: bool,
    ratio: u64,
    turnaround: u64,
    delay: u64,
    depth: usize,
) -> SimConfig {
    let bus = if split {
        BusConfig::split(8)
    } else {
        BusConfig::multiplexed(8)
    };
    let bus = bus
        .turnaround(turnaround)
        .min_addr_delay(delay)
        .build()
        .expect("bus valid");
    let mut cfg = SimConfig::default()
        .cpu(CpuConfig::superscalar(cpu_width))
        .bus(bus)
        .line_size(line)
        .frequency_ratio(ratio);
    cfg.uncached.capacity = depth;
    cfg
}

/// Every scheme of the ladder for `line`, plus the CSB's out-of-line
/// retry layout.
fn schemes(line: usize) -> Vec<Scheme> {
    let mut v = Scheme::ladder(line);
    v.extend([Scheme::R10k, Scheme::Ppc620, Scheme::CsbOutlined]);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random store streams over random machines: every scheme of the
    /// ladder and the CSB, buffer depths, transfers from 8 B to 4 KiB,
    /// ascending and shuffled stores. With nothing recording, both stream
    /// steps engage; with metrics on, or a zero-rate fault schedule
    /// installed, neither does. Either way the loops agree.
    #[test]
    fn store_streams_match_the_naive_loop(
        width_log in 1u32..=3,
        line_log in 5u32..=7,
        split in any::<bool>(),
        ratio_pick in 1u64..=3,
        turnaround in 0u64..=1,
        delay in 0u64..=6,
        depth in 1usize..=8,
        scheme_pick in 0usize..16,
        dwords in 1usize..=512,
        shuffled in any::<bool>(),
        watch in 0u8..3,
        cut_seed in any::<u64>(),
    ) {
        let (cpu_width, line, ratio) = (1 << width_log, 1 << line_log, 3 * ratio_pick);
        let base = machine(cpu_width, line, split, ratio, turnaround, delay, depth);
        let ladder = schemes(line);
        let scheme = ladder[scheme_pick % ladder.len()];
        let (cfg, path) = scheme.machine(&base);
        let order = if shuffled { StoreOrder::Shuffled } else { StoreOrder::Ascending };
        let program = workloads::store_bandwidth_ordered(8 * dwords, &cfg, path, order)
            .expect("stream builds");
        let setup = |sim: &mut Simulator| match watch {
            1 => sim.enable_metrics(),
            2 => sim.set_faults(Some(FaultConfig::new(cut_seed))),
            _ => {}
        };
        let ff = assert_streams_exact(&cfg, &program, setup, cut_seed);
        if watch != 0 {
            prop_assert_eq!(ff.stream_steps(), 0, "a recording or fault schedule keeps streams off");
        }
    }
}

/// The simulator for `spec`'s bandwidth kernel, not yet run.
fn bandwidth_point(spec: &PointSpec) -> (SimConfig, Program) {
    let PointWork::Bandwidth {
        transfer,
        scheme,
        order,
    } = spec.work
    else {
        panic!("{} is a bandwidth point", spec.label);
    };
    let (cfg, path) = scheme.machine(&spec.cfg);
    let program = workloads::store_bandwidth_ordered(transfer, &cfg, path, order)
        .expect("bandwidth kernel builds");
    (cfg, program)
}

#[test]
fn long_streams_take_few_real_ticks() {
    // The perf-smoke gate's two long stream shapes and a Figure 3 CSB
    // point: both stream steps engage, the loops agree, and the real
    // ticks are a small fraction of the cycles.
    let fig3 = PointSpec {
        label: "3e/1024B/CSB".to_string(),
        cfg: SimConfig::default(),
        work: PointWork::Bandwidth {
            transfer: 1024,
            scheme: Scheme::Csb,
            order: StoreOrder::Ascending,
        },
    };
    for spec in [
        throughput::long_point(),
        throughput::csb_active_point(),
        fig3,
    ] {
        let (cfg, program) = bandwidth_point(&spec);
        assert_streams_exact(&cfg, &program, |_| {}, 0x5eed);
        let (_, _, ff) = run(&cfg, &program, true, &|_: &mut Simulator| {}, &[]);
        let cycles = ff.summary().cycles;
        assert!(ff.stream_steps() > 0, "{}: no stream step", spec.label);
        assert!(
            ff.ticks() * 5 < cycles,
            "{}: {} real ticks over {cycles} cycles",
            spec.label,
            ff.ticks()
        );
    }
}

/// The pcs of `program`'s uncached and combining stores.
fn store_pcs(program: &Program) -> Vec<usize> {
    (0..program.len())
        .filter(|&pc| {
            matches!(
                program.fetch(pc),
                Some(Inst::Store { .. } | Inst::StoreF { .. })
            )
        })
        .collect()
}

#[test]
fn stream_kernels_have_text_runs() {
    let cfg = SimConfig::default();
    let line = cfg.line() as u64;
    // The uncached stream repeats every store at its own block, and
    // every line at the CSB's.
    let stream = workloads::store_bandwidth(1024, &cfg, StorePath::Uncached).unwrap();
    let first = store_pcs(&stream)[0];
    let run = TextRun::at(&stream, first, 8).expect("an uncached stream has a run");
    assert_eq!((run.start, run.dpc, run.da), (first, 1, 8));
    let run = TextRun::at(&stream, first, line).expect("whole lines repeat too");
    assert_eq!((run.dpc, run.da), (8, line));
    // The CSB kernel repeats line by line: eight stores, the conditional
    // flush, its check and the retry branch, and the next line's count.
    let csb = workloads::store_bandwidth(1024, &cfg, StorePath::Csb).unwrap();
    let first = store_pcs(&csb)[0];
    let run = TextRun::at(&csb, first, line).expect("the CSB line kernel has a run");
    assert_eq!((run.dpc, run.da), (12, line));
    let run = run.extended(&csb, usize::MAX);
    assert!(run.end >= first + 14 * 12, "the run covers the transfer");
}

#[test]
fn messaging_frames_and_lock_sequences_have_no_text_run() {
    let cfg = SimConfig::default();
    let line = cfg.line() as u64;
    // Each message's header carries its own sequence number, so no frame
    // repeats the one before up to a shift.
    let spec = MessagingSpec {
        count: 16,
        payload_dwords: 7,
        sender: 1,
        slots: 4,
    };
    let frames = workloads::csb_messages(spec, RetryPolicy::NaiveSpin, &cfg).unwrap();
    let lock = workloads::lock_sequence(8).unwrap();
    for (name, program) in [("messaging frames", &frames), ("lock sequence", &lock)] {
        for pc in store_pcs(program) {
            assert_eq!(
                TextRun::at(program, pc, line),
                None,
                "{name}: a run at pc {pc}"
            );
        }
    }
}
