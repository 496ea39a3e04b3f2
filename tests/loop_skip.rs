//! Differential tests for periodic fast-forward: the skip over whole
//! periods of a countdown delay loop (`sub r, r, #c; cmp r, #0; bnz`)
//! must leave every observable exactly as the naive loop does, whatever
//! runs beside the loop — bus traffic draining, faults, metrics — and
//! wherever a run is cut or snapshotted.

use csb_core::{
    FaultConfig, SimConfig, SimError, Simulator, WatchdogConfig, COMBINING_BASE, UNCACHED_BASE,
};
use csb_cpu::CpuConfig;
use csb_isa::{AluOp, Assembler, Program, Reg};
use proptest::prelude::*;

/// What a program does right before one of its delay loops, so the
/// machine has traffic in flight while the loop runs.
#[derive(Debug, Clone, Copy)]
enum Prelude {
    Nothing,
    /// `n` uncached doubleword stores.
    Uncached(usize),
    /// `n` combining stores and the conditional flush of their line.
    Flush(usize),
}

/// One delay loop: its counter register, start count and step.
#[derive(Debug, Clone, Copy)]
struct DelayLoop {
    prelude: Prelude,
    reg: Reg,
    start: i64,
    step: i64,
}

fn program(loops: &[DelayLoop]) -> Program {
    let mut a = Assembler::new();
    a.movi(Reg::O0, UNCACHED_BASE as i64);
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L1, 0x5a5a);
    for (i, lp) in loops.iter().enumerate() {
        let line = 64 * i as i64;
        match lp.prelude {
            Prelude::Nothing => {}
            Prelude::Uncached(n) => {
                for d in 0..n {
                    a.std(Reg::L1, Reg::O0, line + 8 * d as i64);
                }
            }
            Prelude::Flush(n) => {
                for d in 0..n {
                    a.std(Reg::L1, Reg::O1, line + 8 * d as i64);
                }
                a.movi(Reg::L4, n as i64);
                a.swap(Reg::L4, Reg::O1, line);
            }
        }
        let spin = a.new_label();
        a.movi(lp.reg, lp.start);
        a.bind(spin).unwrap();
        a.alui(AluOp::Sub, lp.reg, lp.reg, lp.step);
        a.cmpi(lp.reg, 0);
        a.bnz(spin);
    }
    a.halt();
    a.assemble().unwrap()
}

fn delay_loop(start: i64) -> DelayLoop {
    DelayLoop {
        prelude: Prelude::Nothing,
        reg: Reg::L0,
        start,
        step: 1,
    }
}

/// Everything two runs of one program must agree on, rendered for
/// comparison: the outcome, the summary, the CSB counters, the metrics
/// snapshot with its timeline, and the device log.
fn observables(sim: &Simulator, outcome: &Result<(), SimError>) -> [String; 5] {
    [
        format!("{outcome:?}"),
        serde_json::to_string(&sim.summary()).unwrap(),
        format!("{:?}", sim.csb_stats()),
        format!("{:?}", sim.metrics_snapshot()),
        format!("{:?}", sim.device()),
    ]
}

/// A simulator for `program` on `cfg` with the given loop and setup.
fn build(
    cfg: &SimConfig,
    program: &Program,
    fast_forward: bool,
    setup: &dyn Fn(&mut Simulator),
) -> Simulator {
    let mut sim = Simulator::new(cfg.clone(), program.clone()).unwrap();
    sim.set_fast_forward(fast_forward);
    setup(&mut sim);
    sim
}

/// Runs `program` on both loops — first to `cut` (if any), comparing
/// there, then on to completion or `limit` — and returns the real ticks
/// of (fast-forward, naive) and the final cycle.
fn assert_differential(
    cfg: &SimConfig,
    program: &Program,
    cut: Option<u64>,
    limit: u64,
    setup: &dyn Fn(&mut Simulator),
) -> (u64, u64, u64) {
    let mut ff = build(cfg, program, true, setup);
    let mut naive = build(cfg, program, false, setup);
    if let Some(cut) = cut {
        let a = ff.run_to(cut);
        let b = naive.run_to(cut);
        assert_eq!(
            observables(&ff, &a),
            observables(&naive, &b),
            "at cycle {cut}"
        );
        if a.is_err() {
            return (ff.ticks(), naive.ticks(), naive.cpu().now());
        }
    }
    let a = ff.run(limit).map(drop);
    let b = naive.run(limit).map(drop);
    assert_eq!(observables(&ff, &a), observables(&naive, &b));
    assert_eq!(
        naive.ticks(),
        naive.cpu().now(),
        "the naive loop takes no skips"
    );
    (ff.ticks(), naive.ticks(), naive.cpu().now())
}

fn prelude() -> impl Strategy<Value = Prelude> {
    prop_oneof![
        Just(Prelude::Nothing),
        (1usize..=8).prop_map(Prelude::Uncached),
        (1usize..=8).prop_map(Prelude::Flush),
    ]
}

fn delay_loops() -> impl Strategy<Value = Vec<DelayLoop>> {
    const REGS: [Reg; 5] = [Reg::L0, Reg::L2, Reg::L5, Reg::L6, Reg::G1];
    let reg = (0..REGS.len()).prop_map(|i| REGS[i]);
    let start = prop_oneof![1 => 0i64..=3, 3 => 100i64..=3_100];
    proptest::collection::vec(
        (prelude(), reg, start, 1i64..=3).prop_map(|(prelude, reg, start, step)| DelayLoop {
            prelude,
            reg,
            start,
            step,
        }),
        1..=3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random programs of one to three delay loops, each behind uncached
    /// stores, combining stores and a flush or nothing, on 1- to 8-wide
    /// cores, under fault schedules or none, with metrics or without, cut
    /// by a `run_to` that may land inside a loop (or after the end): both
    /// loops agree on every observable, at the cut and at the end. A start count the
    /// step cannot reach zero from wraps the counter and runs to the
    /// cycle limit, where the partial state must agree too.
    #[test]
    fn differential_countdown_loops(
        loops in delay_loops(),
        width_log in 0u32..4,
        faults in proptest::option::of((any::<u64>(), 1u32..60)),
        metrics in any::<bool>(),
        cut in 0u64..15_000,
    ) {
        let cfg = SimConfig::default().cpu(CpuConfig::superscalar(1 << width_log));
        let program = program(&loops);
        let setup = move |sim: &mut Simulator| {
            if metrics {
                sim.enable_metrics();
            }
            if let Some((seed, pct)) = faults {
                let rate = f64::from(pct) / 100.0;
                sim.set_faults(Some(
                    FaultConfig::new(seed)
                        .bus_error_rate(rate * 0.5)
                        .device_nack_rate(rate * 0.5)
                        .flush_disturb_rate(rate)
                        .max_consecutive(4),
                ));
            }
        };
        let (ff_ticks, naive_ticks, _) =
            assert_differential(&cfg, &program, Some(cut), 40_000, &setup);
        prop_assert!(ff_ticks <= naive_ticks);
    }
}

#[test]
fn long_delay_loop_is_skipped_in_few_ticks() {
    let cfg = SimConfig::default();
    let program = program(&[delay_loop(3_000)]);
    let (ff, naive, cycles) = assert_differential(&cfg, &program, None, 1_000_000, &|sim| {
        sim.enable_metrics();
    });
    assert!(cycles > 3_000, "3,000 iterations take {cycles} cycles");
    assert!(
        ff * 20 < naive,
        "fast-forward ticked {ff} of {naive} cycles through the loop"
    );
}

#[test]
fn watchdog_fires_identically_after_a_skipped_delay_loop() {
    // A delay loop, then uncached stores the device NACKs forever: the
    // hard-stall trigger must fire at the same cycle with the same report
    // on both loops, after the skip has crossed the delay loop.
    let cfg = SimConfig::default();
    let program = program(&[
        delay_loop(2_500),
        DelayLoop {
            prelude: Prelude::Uncached(4),
            ..delay_loop(1)
        },
    ]);
    let watchdog = WatchdogConfig {
        stall_cycles: 2_000,
        futile_flushes: 0,
    };
    let setup = |sim: &mut Simulator| {
        sim.set_watchdog(watchdog);
        sim.set_faults(Some(FaultConfig::new(3).device_nack_rate(1.0)));
    };
    let mut reports = Vec::new();
    for fast_forward in [true, false] {
        let mut sim = build(&cfg, &program, fast_forward, &setup);
        match sim.run(1_000_000) {
            Err(SimError::Livelock(report)) => reports.push((format!("{report:?}"), sim.ticks())),
            other => panic!("expected a livelock, got {other:?}"),
        }
    }
    assert_eq!(reports[0].0, reports[1].0, "livelock reports");
    assert!(
        reports[0].1 * 4 < reports[1].1,
        "fast-forward ticked {} of {} cycles",
        reports[0].1,
        reports[1].1
    );
}

/// `true` when two frames of the same length differ only inside one
/// eight-byte word (the real-tick count) and the trailing checksum.
fn differ_in_tick_count_only(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let body = a.len() - 8;
    let diffs: Vec<usize> = (0..body).filter(|&i| a[i] != b[i]).collect();
    diffs.last().is_none_or(|&hi| hi - diffs[0] < 8)
}

#[test]
fn snapshot_inside_a_skipped_span_restores_and_finishes_identically() {
    let cfg = SimConfig::default();
    let program = program(&[
        DelayLoop {
            prelude: Prelude::Flush(8),
            ..delay_loop(3_000)
        },
        DelayLoop {
            prelude: Prelude::Uncached(4),
            ..delay_loop(500)
        },
    ]);
    let mut whole = Simulator::new(cfg.clone(), program.clone()).unwrap();
    whole.enable_metrics();
    let expected = whole.run(1_000_000).unwrap();
    // An uncut run skips this cycle; `run_to` stops on it. The naive run
    // switches fast-forward on before its snapshot, so the two frames may
    // differ only in the real-tick count.
    let cut = 2_345;
    let mut frames = Vec::new();
    for fast_forward in [true, false] {
        let mut sim = build(&cfg, &program, fast_forward, &|sim| sim.enable_metrics());
        sim.run_to(cut).unwrap();
        assert_eq!(sim.cpu().now(), cut);
        sim.set_fast_forward(true);
        frames.push((sim.snapshot(), sim.ticks()));
    }
    assert!(
        frames[0].1 * 10 < frames[1].1,
        "the cut must fall in a skip"
    );
    let frames = [frames.remove(0).0, frames.remove(0).0];
    assert!(
        differ_in_tick_count_only(&frames[0], &frames[1]),
        "a frame inside a skipped span differs from a ticked one beyond its tick count"
    );
    for frame in &frames {
        let mut resumed = Simulator::restore(cfg.clone(), program.clone(), frame).unwrap();
        let got = resumed.run(1_000_000).unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&expected).unwrap()
        );
    }
}
