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

/// Metrics on, faults on the bus and the device, or both.
fn setup_for(faults: Option<(u64, u32)>, metrics: bool) -> impl Fn(&mut Simulator) {
    move |sim: &mut Simulator| {
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
    }
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
        let setup = setup_for(faults, metrics);
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
    // An uncut run skips this cycle; `run_to` stops on it. The frame is
    // the same bytes whether the run jumped or ticked there.
    let cut = 2_345;
    let mut frames = Vec::new();
    for fast_forward in [true, false] {
        let mut sim = build(&cfg, &program, fast_forward, &|sim| sim.enable_metrics());
        sim.run_to(cut).unwrap();
        assert_eq!(sim.cpu().now(), cut);
        frames.push((sim.snapshot(), sim.ticks()));
    }
    assert!(
        frames[0].1 * 10 < frames[1].1,
        "the cut must fall in a skip"
    );
    let frames = [frames.remove(0).0, frames.remove(0).0];
    assert!(
        frames[0] == frames[1],
        "a frame inside a skipped span differs from a ticked one"
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

/// `n` copies of one delay loop, each behind its own prelude: the loops
/// after the first enter from equal pipeline states, so their warm-ups
/// replay the span an earlier one recorded.
fn repeated(prelude: Prelude, start: i64, step: i64, n: usize) -> Program {
    let lp = DelayLoop {
        prelude,
        reg: Reg::L0,
        start,
        step,
    };
    program(&vec![lp; n])
}

/// Runs `program` three ways — on the naive loop, on a fresh simulator,
/// and on a warm one that first ran it under another core configuration
/// — and asserts that every observable, the metrics timeline included,
/// agrees. The warm simulator runs it twice: warm-up spans belong to one
/// run, so each of its runs takes the fresh run's real ticks, which this
/// returns.
fn assert_three_legs(
    cfg: &SimConfig,
    program: &Program,
    limit: u64,
    setup: &dyn Fn(&mut Simulator),
) -> u64 {
    let run = |sim: &mut Simulator| {
        let outcome = sim.run(limit).map(drop);
        (observables(sim, &outcome), sim.ticks())
    };
    let (naive, _) = run(&mut build(cfg, program, false, setup));
    let (fresh, ticks) = run(&mut build(cfg, program, true, setup));
    assert_eq!(fresh, naive, "fresh simulator against the naive loop");
    let width = if cfg.cpu.fetch_width == 8 { 2 } else { 8 };
    let other = cfg.clone().cpu(CpuConfig::superscalar(width));
    let mut warm = build(&other, program, true, setup);
    let _ = warm.run(limit);
    for pass in 0..2 {
        warm.reset_with(cfg.clone(), program.clone()).unwrap();
        setup(&mut warm);
        let (got, warm_ticks) = run(&mut warm);
        assert_eq!(
            got, naive,
            "warm simulator, run {pass}, against the naive loop"
        );
        assert_eq!(warm_ticks, ticks, "warm simulator, run {pass}: real ticks");
    }
    ticks
}

/// Roughly the iterations from which a loop on a `width`-wide core
/// outlasts its warm-up by a period, so a replay can take a skip: the
/// proptest below aims its start counts around it.
fn replay_threshold(width: usize) -> i64 {
    match width {
        1 => 6,
        2 => 29,
        4 => 54,
        _ => 84,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two to four identical delay loops, so the later ones replay the
    /// warm-up an earlier one recorded, with start counts around the
    /// count that first lets a replay skip, or far above it: the naive
    /// loop, a fresh simulator and a warm one agree on every observable.
    #[test]
    fn memo_replays_repeated_loops_exactly(
        prelude in prelude(),
        n in 2usize..=4,
        step in 1i64..=3,
        width_log in 0u32..4,
        offset in -3i64..=3,
        long in prop_oneof![3 => Just(None), 1 => (100i64..=2_000).prop_map(Some)],
        faults in proptest::option::of((any::<u64>(), 1u32..60)),
        metrics in any::<bool>(),
    ) {
        let width = 1usize << width_log;
        let iterations = long.unwrap_or(replay_threshold(width) + offset).max(1);
        let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
        let program = repeated(prelude, iterations * step, step, n);
        assert_three_legs(&cfg, &program, 60_000, &setup_for(faults, metrics));
    }
}

/// The first iteration count at which four identical loops take at
/// least `saving` fewer real ticks than at the count before, with
/// fast-forward on: where the later loops' replays start to take a skip.
fn first_replay(cfg: &SimConfig, prelude: Prelude, step: i64, saving: u64) -> i64 {
    let ticks = |k: i64| {
        let program = repeated(prelude, k * step, step, 4);
        let mut sim = build(cfg, &program, true, &|_| {});
        sim.run(1_000_000).unwrap();
        sim.ticks()
    };
    let mut before = ticks(1);
    for k in 2..=200 {
        let now = ticks(k);
        if now + saving <= before {
            return k;
        }
        before = now;
    }
    panic!("no replay up to 200 iterations of step {step}");
}

#[test]
fn memo_agrees_at_the_replay_threshold() {
    // Around the count where a replay starts to pay, the replay decision
    // flips: one iteration fewer must tick the warm-up through, and the
    // count itself must replay and skip exactly one period.
    for width in [1usize, 2, 4, 8] {
        let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
        let saving = if width == 1 { 8 } else { 20 };
        for step in 1..=3 {
            for prelude in [Prelude::Nothing, Prelude::Uncached(2), Prelude::Flush(2)] {
                let at = first_replay(&cfg, prelude, step, saving);
                for k in at - 1..=at + 1 {
                    for metrics in [false, true] {
                        let program = repeated(prelude, k * step, step, 4);
                        assert_three_legs(&cfg, &program, 100_000, &setup_for(None, metrics));
                    }
                }
            }
        }
    }
}

#[test]
fn each_repeated_long_loop_costs_only_its_entry_and_exit() {
    // A long delay loop ticks through its warm-up once; every identical
    // loop after the recording one jumps from its entry straight into the
    // periodic skip, so it adds only the ticks around its entry and exit.
    for width in [1usize, 4, 8] {
        let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
        let ticks: Vec<u64> = (1..=5)
            .map(|n| {
                let program = repeated(Prelude::Nothing, 3_000, 1, n);
                assert_three_legs(&cfg, &program, 1_000_000, &|sim| sim.enable_metrics())
            })
            .collect();
        // The first two loops enter from different states (the program's
        // start, then the first loop's exit) and record; the rest replay.
        let added: Vec<u64> = ticks.windows(2).map(|w| w[1] - w[0]).collect();
        for &a in &added[1..] {
            assert!(
                a <= 12,
                "width {width}: a replayed loop added {a} ticks ({added:?})"
            );
        }
    }
}

/// The first and last cycle of each fast-forward jump over at least
/// `min` cycles in a run of `program`.
fn long_jumps(
    cfg: &SimConfig,
    program: &Program,
    min: u64,
    setup: &dyn Fn(&mut Simulator),
) -> Vec<(u64, u64)> {
    let mut sim = build(cfg, program, true, setup);
    let mut jumps = Vec::new();
    while !sim.complete() {
        let (at, ticks) = (sim.cpu().now(), sim.ticks());
        sim.advance_checked(1_000_000).unwrap();
        if sim.ticks() == ticks && sim.cpu().now() - at >= min {
            jumps.push((at, sim.cpu().now()));
        }
    }
    jumps
}

#[test]
fn a_cut_inside_a_replayable_warm_up_ticks_it_through_and_restores_exactly() {
    // The third of four identical loops replays its warm-up from its
    // entry. A run cut (as by an autosnap boundary) before the span and
    // one period end there cannot replay: it ticks the warm-up through to
    // the cut, where its frame matches the naive loop's. A cut past that
    // replays and skips up to it. Either frame
    // restores with an empty memo, so the loops after it record again,
    // and finishes as the uncut run does.
    let cfg = SimConfig::default();
    let program = repeated(Prelude::Flush(2), 3_000, 1, 4);
    let setup = |sim: &mut Simulator| sim.enable_metrics();
    // The loops' skips; the third and fourth start at their loops' entry.
    let jumps = long_jumps(&cfg, &program, 2_000, &setup);
    assert_eq!(jumps.len(), 4, "{jumps:?}");
    let entry = jumps[2].0;
    let mut whole = build(&cfg, &program, true, &setup);
    let expected = serde_json::to_string(&whole.run(1_000_000).unwrap()).unwrap();
    let entry_ticks = {
        let mut sim = build(&cfg, &program, true, &setup);
        sim.run_to(entry).unwrap();
        sim.ticks()
    };
    for cut in [entry + 1, entry + 40, entry + 700] {
        let mut frames = Vec::new();
        for fast_forward in [true, false] {
            let mut sim = build(&cfg, &program, fast_forward, &setup);
            sim.run_to(cut).unwrap();
            assert_eq!(sim.cpu().now(), cut);
            if fast_forward && cut < entry + 60 {
                assert_eq!(
                    sim.ticks(),
                    entry_ticks + (cut - entry),
                    "a cut inside the span ticks the warm-up through"
                );
            }
            frames.push(sim.snapshot());
        }
        assert!(
            frames[0] == frames[1],
            "the frame at cycle {cut} differs between the loops"
        );
        for frame in &frames {
            let mut resumed = Simulator::restore(cfg.clone(), program.clone(), frame).unwrap();
            let got = resumed.run(1_000_000).unwrap();
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                expected,
                "resumed at {cut}"
            );
        }
    }
}

#[test]
fn replays_fit_inside_the_hard_stall_deadline() {
    // The watchdog caps every jump at its hard-stall deadline. A deadline
    // too close for a warm-up span and one period leaves the warm-ups to
    // tick through; a farther one lets them replay. Thresholds of 2 and 3
    // cycles fire before the first loop. Either way both loops stop at
    // the same cycle with the same outcome.
    for width in [4usize, 8] {
        let cfg = SimConfig::default().cpu(CpuConfig::superscalar(width));
        let program = repeated(Prelude::Flush(2), 600, 1, 4);
        let ticks: Vec<u64> = [2, 3, 8, 40, 70, 75, 80, 85, 100, 400]
            .into_iter()
            .map(|stall_cycles| {
                let watchdog = WatchdogConfig {
                    stall_cycles,
                    futile_flushes: 0,
                };
                let setup = move |sim: &mut Simulator| {
                    sim.enable_metrics();
                    sim.set_watchdog(watchdog);
                };
                assert_three_legs(&cfg, &program, 100_000, &setup)
            })
            .collect();
        assert!(
            ticks[9] < ticks[3],
            "width {width}: no replay under a distant deadline ({ticks:?})"
        );
    }
}
