use std::cell::Cell;

use csb_isa::{Addr, AddressMap, AddressSpace, AluOp, Assembler, FReg, MemWidth, Reg};
use csb_mem::AccessKind;

use super::*;
use crate::port::SimpleMemPort;
use crate::{CpuConfig, Pid};

mod random;

const UNCACHED_BASE: u64 = 0x1000_0000;
const COMBINING_BASE: u64 = 0x2000_0000;

fn io_map() -> AddressMap {
    let mut map = AddressMap::new();
    map.add_region(Addr::new(UNCACHED_BASE), 0x10000, AddressSpace::Uncached)
        .unwrap();
    map.add_region(
        Addr::new(COMBINING_BASE),
        0x10000,
        AddressSpace::UncachedCombining,
    )
    .unwrap();
    map
}

fn run_program(a: Assembler) -> (Cpu, SimpleMemPort) {
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 2);
    cpu.run(&mut port, 100_000).unwrap();
    (cpu, port)
}

#[test]
fn trace_sink_records_retires_squashes_and_stall_runs() {
    let mut a = Assembler::new();
    let skip = a.new_label();
    a.movi(Reg::L0, 1);
    a.cmpi(Reg::L0, 1);
    a.bz(skip); // forward taken: mispredict squashes the next inst
    a.movi(Reg::L1, 99);
    a.bind(skip).unwrap();
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let sink = TraceSink::enabled();
    let metrics = MetricsRegistry::enabled();
    cpu.set_trace_sink(sink.clone());
    cpu.set_metrics(metrics.clone());
    let mut port = SimpleMemPort::with_map(io_map(), 2);
    cpu.run(&mut port, 100_000).unwrap();

    let events = sink.snapshot();
    let retires = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retire { .. }))
        .count() as u64;
    assert_eq!(retires, cpu.stats().retired);
    assert!(events.iter().any(|e| matches!(
        e.kind,
        EventKind::Squash {
            reason: "mispredict",
            ..
        }
    )));
    // Every event sits on the CPU track, stamped within the run.
    assert!(events
        .iter()
        .all(|e| e.track == Track::Cpu && e.cycle < cpu.now()));
    // The retire payload carries the instruction text.
    assert!(events.iter().any(|e| matches!(
        &e.kind,
        EventKind::Retire { inst, .. } if inst == "halt"
    )));
}

#[test]
fn stall_runs_emit_spans_and_histogram_observations() {
    // A refused combining store (uncached stall run) followed by a membar
    // held by a slow-draining port (membar stall run).
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L0, 5);
    a.std(Reg::L0, Reg::O1, 0);
    a.membar();
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let sink = TraceSink::enabled();
    let metrics = MetricsRegistry::enabled();
    cpu.set_trace_sink(sink.clone());
    cpu.set_metrics(metrics.clone());
    let mut inner = SimpleMemPort::with_map(io_map(), 2);
    inner.refuse_csb = 3;
    let mut port = DrainPort {
        inner,
        drain_polls: Cell::new(0),
        polls_needed: 20,
    };
    cpu.run(&mut port, 10_000).unwrap();

    assert!(cpu.stats().uncached_stall_cycles >= 3);
    assert!(cpu.stats().membar_stall_cycles > 0);
    let events = sink.snapshot();
    let stall_span_cycles: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::UncachedStallRun { cycles } => Some(cycles),
            _ => None,
        })
        .sum();
    assert_eq!(stall_span_cycles, cpu.stats().uncached_stall_cycles);
    let membar_span_cycles: u64 = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MembarStallRun { cycles } => Some(cycles),
            _ => None,
        })
        .sum();
    assert_eq!(membar_span_cycles, cpu.stats().membar_stall_cycles);
    let h = metrics.histogram("membar_stall_run").unwrap();
    assert_eq!(h.sum(), cpu.stats().membar_stall_cycles);
    assert_eq!(
        metrics.histogram("rob_uncached_stall_run").unwrap().sum(),
        cpu.stats().uncached_stall_cycles
    );
}

#[test]
fn alu_dataflow_chain() {
    let mut a = Assembler::new();
    a.movi(Reg::L0, 5);
    a.alui(AluOp::Add, Reg::L1, Reg::L0, 10); // 15
    a.alu(AluOp::Add, Reg::L2, Reg::L1, Reg::L1); // 30
    a.alui(AluOp::Sll, Reg::L3, Reg::L2, 1); // 60
    a.alui(AluOp::Xor, Reg::L4, Reg::L3, 0xf); // 51
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L4), 51);
    assert_eq!(cpu.stats().retired, 6);
}

#[test]
fn countdown_loop_executes_correct_trip_count() {
    let mut a = Assembler::new();
    let top = a.new_label();
    a.movi(Reg::L0, 10);
    a.movi(Reg::L1, 0);
    a.bind(top).unwrap();
    a.addi(Reg::L1, 3);
    a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
    a.cmpi(Reg::L0, 0);
    a.bnz(top);
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L1), 30);
    assert_eq!(cpu.context().int_reg(Reg::L0), 0);
    // Backward branch is predicted taken: exactly one mispredict (the exit).
    assert_eq!(cpu.stats().mispredicts, 1);
}

#[test]
fn forward_branch_taken_mispredicts_once() {
    let mut a = Assembler::new();
    let skip = a.new_label();
    a.movi(Reg::L0, 1);
    a.cmpi(Reg::L0, 1);
    a.bz(skip); // forward, predicted not-taken, actually taken
    a.movi(Reg::L1, 99); // must be squashed
    a.bind(skip).unwrap();
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L1), 0);
    assert_eq!(cpu.stats().mispredicts, 1);
    assert!(cpu.stats().squashed >= 1);
}

#[test]
fn unconditional_branch_never_mispredicts() {
    let mut a = Assembler::new();
    let out = a.new_label();
    a.ba(out);
    a.movi(Reg::L1, 99);
    a.bind(out).unwrap();
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L1), 0);
    assert_eq!(cpu.stats().mispredicts, 0);
}

#[test]
fn cached_store_load_forwarding_through_memory() {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x4000);
    a.movi(Reg::L0, 1234);
    a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
    a.ld(Reg::L1, Reg::O0, 0, MemWidth::B8); // must observe the store
    a.alui(AluOp::Add, Reg::L2, Reg::L1, 1);
    a.halt();
    let (cpu, port) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L2), 1235);
    let mut p = port;
    assert_eq!(p.read(Addr::new(0x4000), 8), 1234);
}

#[test]
fn cached_load_reads_preinitialized_memory() {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x4000);
    a.ld(Reg::L1, Reg::O0, 8, MemWidth::B4);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 2);
    port.write(Addr::new(0x4008), 4, 0xabcd);
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L1), 0xabcd);
}

#[test]
fn cached_swap_is_atomic_exchange() {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x5000);
    a.movi(Reg::L0, 7);
    a.swap(Reg::L0, Reg::O0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 2);
    port.write(Addr::new(0x5000), 8, 42);
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L0), 42); // old value returned
    assert_eq!(port.read(Addr::new(0x5000), 8), 7); // new value stored
}

#[test]
fn spin_lock_acquire_releases() {
    // swap-based lock: spins while the lock reads 1; memory holds 0 so the
    // first attempt wins.
    let mut a = Assembler::new();
    let retry = a.new_label();
    a.movi(Reg::O0, 0x5000);
    a.bind(retry).unwrap();
    a.movi(Reg::L0, 1);
    a.swap(Reg::L0, Reg::O0, 0);
    a.cmpi(Reg::L0, 0);
    a.bnz(retry);
    a.movi(Reg::L5, 77); // critical section
    a.st(Reg::G0, Reg::O0, 0, MemWidth::B8); // release
    a.halt();
    let (cpu, port) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L5), 77);
    let mut p = port;
    assert_eq!(p.read(Addr::new(0x5000), 8), 0);
}

#[test]
fn uncached_stores_issue_in_program_order() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    for i in 0..6 {
        a.movi(Reg::L0, 100 + i);
        a.std(Reg::L0, Reg::O1, 8 * i);
    }
    a.halt();
    let (_, port) = run_program(a);
    let log = port.uncached_log();
    assert_eq!(log.len(), 6);
    for (i, (addr, width, val)) in log.iter().enumerate() {
        assert_eq!(addr.raw(), UNCACHED_BASE + 8 * i as u64);
        assert_eq!(*width, 8);
        assert_eq!(*val, 100 + i as u64);
    }
}

#[test]
fn uncached_stores_rate_limited_to_one_per_cycle() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L0, 1);
    a.mark(0);
    for i in 0..8 {
        a.std(Reg::L0, Reg::O1, 8 * i);
    }
    a.mark(1);
    a.halt();
    let (cpu, _) = run_program(a);
    let dt = cpu.stats().mark_interval(0, 1).unwrap();
    assert!(dt >= 7, "8 uncached stores need >= 7 cycles, got {dt}");
    assert!(dt <= 12, "should be near 1/cycle, got {dt}");
}

#[test]
fn uncached_load_round_trip() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.ld(Reg::L1, Reg::O1, 0, MemWidth::B8);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 5);
    port.write(Addr::new(UNCACHED_BASE), 8, 0x55aa);
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L1), 0x55aa);
    assert_eq!(cpu.stats().uncached_ops, 1);
}

#[test]
fn uncached_swap_round_trip() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L0, 9);
    a.swap(Reg::L0, Reg::O1, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 3);
    port.write(Addr::new(UNCACHED_BASE), 8, 4);
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L0), 4);
    assert_eq!(port.read(Addr::new(UNCACHED_BASE), 8), 9);
}

#[test]
fn csb_sequence_success_sets_register() {
    // The paper's §3.2 kernel: 8 combining stores, conditional flush, check.
    let mut a = Assembler::new();
    let retry = a.new_label();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.bind(retry).unwrap();
    a.movi(Reg::L4, 8);
    a.movi(Reg::L0, 0xbeef);
    for i in 0..8 {
        a.std(Reg::L0, Reg::O1, 8 * i);
    }
    a.swap(Reg::L4, Reg::O1, 0);
    a.cmpi(Reg::L4, 8);
    a.bnz(retry);
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L4), 8);
    assert_eq!(cpu.stats().flush_successes, 1);
    assert_eq!(cpu.stats().flush_failures, 0);
    assert_eq!(cpu.stats().combining_stores, 8);
}

#[test]
fn csb_flush_failure_returns_zero() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L4, 3); // expect 3, but only store 2
    a.movi(Reg::L0, 1);
    a.std(Reg::L0, Reg::O1, 0);
    a.std(Reg::L0, Reg::O1, 8);
    a.swap(Reg::L4, Reg::O1, 0);
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L4), 0);
    assert_eq!(cpu.stats().flush_failures, 1);
}

#[test]
fn csb_busy_stall_retries_until_accepted() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L0, 5);
    a.std(Reg::L0, Reg::O1, 0);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::with_map(io_map(), 2);
    port.refuse_csb = 3; // refuse the store three times
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(port.uncached_log().len(), 1);
    assert!(cpu.stats().uncached_stall_cycles >= 3);
}

struct DrainPort {
    inner: SimpleMemPort,
    drain_polls: Cell<u64>,
    polls_needed: u64,
}

impl MemPort for DrainPort {
    fn space_of(&self, addr: Addr) -> AddressSpace {
        self.inner.space_of(addr)
    }
    fn cached_access(&mut self, a: Addr, k: AccessKind, n: u64) -> u64 {
        self.inner.cached_access(a, k, n)
    }
    fn read(&mut self, a: Addr, w: usize) -> u64 {
        self.inner.read(a, w)
    }
    fn write(&mut self, a: Addr, w: usize, v: u64) {
        self.inner.write(a, w, v)
    }
    fn swap_value(&mut self, a: Addr, v: u64) -> u64 {
        self.inner.swap_value(a, v)
    }
    fn uncached_store(&mut self, a: Addr, w: usize, v: u64) -> bool {
        self.inner.uncached_store(a, w, v)
    }
    fn uncached_read(&mut self, a: Addr, w: usize, s: Option<u64>, t: u64) -> bool {
        self.inner.uncached_read(a, w, s, t)
    }
    fn uncached_poll(&mut self, t: u64) -> Option<u64> {
        self.inner.uncached_poll(t)
    }
    fn uncached_drained(&self) -> bool {
        let n = self.drain_polls.get() + 1;
        self.drain_polls.set(n);
        n > self.polls_needed
    }
    fn csb_store(&mut self, p: Pid, a: Addr, w: usize, v: u64) -> bool {
        self.inner.csb_store(p, a, w, v)
    }
    fn csb_can_flush(&self) -> bool {
        self.inner.csb_can_flush()
    }
    fn csb_flush(&mut self, p: Pid, a: Addr, e: u64) -> u64 {
        self.inner.csb_flush(p, a, e)
    }
}

#[test]
fn membar_stalls_retirement_until_drained() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L0, 1);
    a.std(Reg::L0, Reg::O1, 0);
    a.mark(0);
    a.membar();
    a.mark(1);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = DrainPort {
        inner: SimpleMemPort::with_map(io_map(), 2),
        drain_polls: Cell::new(0),
        polls_needed: 20,
    };
    cpu.run(&mut port, 10_000).unwrap();
    let dt = cpu.stats().mark_interval(0, 1).unwrap();
    assert!(dt >= 20, "membar must wait ~20 drain polls, got {dt}");
    assert!(cpu.stats().membar_stall_cycles >= 20);
}

#[test]
fn fp_path_and_stdf() {
    let mut a = Assembler::new();
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.fmovi(FReg::new(0), 1.5f64.to_bits());
    a.fmovi(FReg::new(1), 2.25f64.to_bits());
    a.fpu(
        csb_isa::FpuOp::FAdd,
        FReg::new(2),
        FReg::new(0),
        FReg::new(1),
    );
    a.stdf(FReg::new(2), Reg::O1, 0);
    a.halt();
    let (cpu, port) = run_program(a);
    assert_eq!(f64::from_bits(cpu.context().fp_reg(FReg::new(2))), 3.75);
    assert_eq!(port.uncached_log()[0].2, 3.75f64.to_bits());
}

#[test]
fn independent_ops_exploit_superscalar_width() {
    // 16 independent int ops on a 4-wide machine: far fewer than 16 cycles
    // of pure execution between first and last retire.
    let mut a = Assembler::new();
    a.mark(0);
    for i in 0..16 {
        a.movi(Reg::new((8 + (i % 16)) as u8), i as i64);
    }
    a.mark(1);
    a.halt();
    let (cpu, _) = run_program(a);
    let dt = cpu.stats().mark_interval(0, 1).unwrap();
    assert!(
        dt <= 8,
        "4-wide machine should retire 16 indep ops fast, got {dt}"
    );
}

#[test]
fn narrow_machine_is_slower() {
    let build = || {
        let mut a = Assembler::new();
        a.mark(0);
        for i in 0..32 {
            a.movi(Reg::new((8 + (i % 16)) as u8), i as i64);
        }
        a.mark(1);
        a.halt();
        a.assemble().unwrap()
    };
    let mut wide = Cpu::new(CpuConfig::superscalar(8), build());
    let mut narrow = Cpu::new(CpuConfig::superscalar(1), build());
    let mut p1 = SimpleMemPort::new();
    let mut p2 = SimpleMemPort::new();
    wide.run(&mut p1, 10_000).unwrap();
    narrow.run(&mut p2, 10_000).unwrap();
    let dw = wide.stats().mark_interval(0, 1).unwrap();
    let dn = narrow.stats().mark_interval(0, 1).unwrap();
    assert!(dn > dw, "1-wide ({dn}) must be slower than 8-wide ({dw})");
}

#[test]
fn g0_writes_discarded_in_pipeline() {
    let mut a = Assembler::new();
    a.movi(Reg::G0, 55);
    a.alui(AluOp::Add, Reg::L0, Reg::G0, 1);
    a.halt();
    let (cpu, _) = run_program(a);
    assert_eq!(cpu.context().int_reg(Reg::L0), 1);
}

#[test]
fn cycle_limit_guards_infinite_loops() {
    let mut a = Assembler::new();
    let spin = a.new_label();
    a.bind(spin).unwrap();
    a.ba(spin);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::new();
    assert_eq!(
        cpu.run(&mut port, 500),
        Err(RunError::CycleLimit { limit: 500 })
    );
    assert!(!RunError::CycleLimit { limit: 500 }.to_string().is_empty());
}

#[test]
fn context_switch_preserves_both_processes() {
    let build = |n: i64| {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.movi(Reg::L0, n);
        a.movi(Reg::L1, 0);
        a.bind(top).unwrap();
        a.addi(Reg::L1, 1);
        a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
        a.cmpi(Reg::L0, 0);
        a.bnz(top);
        a.halt();
        a.assemble().unwrap()
    };
    let prog_a = build(50);
    let prog_b = build(5);

    let mut cpu = Cpu::new(CpuConfig::default(), prog_a.clone());
    let mut port = SimpleMemPort::new();
    // Run A for a while (not to completion).
    for _ in 0..40 {
        cpu.tick(&mut port);
    }
    assert!(!cpu.halted());
    // Switch to B, run it to completion.
    let ctx_a = cpu.switch_context(CpuContext::new(2), Some(prog_b));
    while !cpu.halted() {
        cpu.tick(&mut port);
    }
    assert_eq!(cpu.context().int_reg(Reg::L1), 5);
    // Switch back to A and finish it.
    cpu.switch_context(ctx_a, Some(prog_a));
    while !cpu.halted() {
        cpu.tick(&mut port);
    }
    assert_eq!(cpu.context().int_reg(Reg::L1), 50);
    assert_eq!(cpu.context().pid(), 0);
}

#[test]
fn marks_record_retirement_cycles_in_order() {
    let mut a = Assembler::new();
    a.mark(5);
    a.nop();
    a.mark(5);
    a.halt();
    let (cpu, _) = run_program(a);
    let marks = &cpu.stats().marks[&5];
    assert_eq!(marks.len(), 2);
    assert!(marks[0] <= marks[1]);
}

#[test]
fn ipc_is_bounded_by_width() {
    let mut a = Assembler::new();
    for i in 0..200 {
        a.movi(Reg::new((8 + (i % 16)) as u8), i as i64);
    }
    a.halt();
    let (cpu, _) = run_program(a);
    assert!(cpu.stats().ipc() <= 4.0 + 1e-9);
    assert!(cpu.stats().ipc() > 1.0, "should sustain >1 IPC");
}

#[test]
fn the_pipeline_trace_stays_out_of_frames_and_off_after_a_restore() {
    let mut a = Assembler::new();
    for i in 0..24 {
        a.movi(Reg::new(8 + (i % 16) as u8), i64::from(i));
    }
    a.halt();
    let (cfg, program) = (CpuConfig::default(), a.assemble().unwrap());
    let mut traced = Cpu::new(cfg, program.clone());
    let mut plain = Cpu::new(cfg, program.clone());
    traced.enable_trace();
    let (mut p1, mut p2) = (SimpleMemPort::new(), SimpleMemPort::new());
    for _ in 0..6 {
        traced.tick(&mut p1);
        plain.tick(&mut p2);
    }
    assert!(!traced.trace().is_empty(), "some instructions retired");
    let frame = |cpu: &mut Cpu| {
        let mut w = csb_snap::SnapshotWriter::new();
        cpu.state(&mut w).expect("writing never fails");
        w.finish()
    };
    let bytes = frame(&mut traced);
    assert_eq!(bytes, frame(&mut plain));
    let mut restored = Cpu::new(cfg, program);
    restored
        .state(&mut csb_snap::SnapshotReader::new(&bytes))
        .unwrap();
    restored.run(&mut p1, 10_000).unwrap();
    assert!(restored.trace().is_empty());
}

#[test]
fn a_rob_entry_holds_only_the_fetch_stamp() {
    // The other stage cycles live in the pipeline diagram's observer.
    let size = std::mem::size_of::<RobEntry>();
    assert!(size <= 184, "a ROB entry takes {size} bytes");
}

#[test]
fn pipeline_empty_reports() {
    let mut a = Assembler::new();
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    assert!(cpu.rob.is_empty() && cpu.fetch_q.is_empty());
    let mut port = SimpleMemPort::new();
    cpu.run(&mut port, 100).unwrap();
    assert!(cpu.halted());
}

#[test]
fn flags_and_conditions() {
    assert_eq!(flags_of(1, 1), FLAG_EQ);
    assert_eq!(flags_of(u64::MAX, 0), FLAG_LT); // -1 < 0
    assert_eq!(flags_of(5, 3), 0);
    assert!(cond_holds(Cond::Eq, FLAG_EQ));
    assert!(cond_holds(Cond::Ne, 0));
    assert!(cond_holds(Cond::Lt, FLAG_LT));
    assert!(cond_holds(Cond::Ge, FLAG_EQ));
    assert!(cond_holds(Cond::Always, 0));
}

#[test]
fn store_to_load_disambiguation_blocks_stale_reads() {
    // A younger load to the same address must not read memory before the
    // older store commits, even though loads are speculative.
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x6000);
    a.movi(Reg::L0, 111);
    // A long dependency chain delaying the store's data.
    for _ in 0..6 {
        a.alui(AluOp::Add, Reg::L0, Reg::L0, 1);
    }
    a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
    a.ld(Reg::L1, Reg::O0, 0, MemWidth::B8);
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::new();
    port.write(Addr::new(0x6000), 8, 0xdead); // stale value
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L1), 117);
}

#[test]
fn loads_to_different_addresses_proceed_past_stores() {
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x6000);
    a.movi(Reg::L0, 1);
    a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
    a.ld(Reg::L1, Reg::O0, 64, MemWidth::B8); // disjoint: may bypass
    a.halt();
    let program = a.assemble().unwrap();
    let mut cpu = Cpu::new(CpuConfig::default(), program);
    let mut port = SimpleMemPort::new();
    port.write(Addr::new(0x6040), 8, 7);
    cpu.run(&mut port, 10_000).unwrap();
    assert_eq!(cpu.context().int_reg(Reg::L1), 7);
}

#[test]
fn a_cached_store_completes_while_older_ops_spend_every_agen_unit() {
    // Both loads wait on %o1 and take the two agen units in cycle 4, the
    // cycle the younger store's address generation ends. Issue completes
    // a cached store without a unit, so it still completes in cycle 4.
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x6000);
    a.movi(Reg::L0, 7);
    a.movi(Reg::O1, 0x6100);
    a.ld(Reg::L1, Reg::O1, 0, MemWidth::B8);
    a.ld(Reg::L2, Reg::O1, 8, MemWidth::B8);
    a.st(Reg::L0, Reg::O0, 0, MemWidth::B8);
    a.halt();
    let mut cpu = Cpu::new(CpuConfig::default(), a.assemble().unwrap());
    assert_eq!(cpu.cfg.agen_units, 2);
    cpu.enable_trace();
    cpu.run(&mut SimpleMemPort::new(), 10_000).unwrap();
    let t = cpu.trace();
    assert_eq!((t[3].issued, t[4].issued), (Some(4), Some(4)));
    assert_eq!((t[5].issued, t[5].completed), (Some(3), Some(4)));
}
