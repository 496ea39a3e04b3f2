//! Random programs against a port with real flow control: a cycle-timing
//! golden of every program's statistics, snapshot frames and horizons,
//! and checks that the derived scheduling state always equals a rebuild
//! from the ROB.
//!
//! Regenerate the golden after an intentional timing change with
//! `UPDATE_GOLDEN=1 cargo test -p csb-cpu random_programs_match_timing_golden`.

use std::collections::VecDeque;
use std::fmt::Write as _;

use csb_isa::{Addr, AddressSpace, AluOp, Assembler, FReg, FpuOp, MemWidth, Program, Reg};
use csb_mem::AccessKind;
use csb_snap::{Fnv1a, SnapshotReader, SnapshotWriter};
use proptest::TestRng;

use super::{io_map, InstKind, Sched, St, COMBINING_BASE, UNCACHED_BASE};
use crate::port::SimpleMemPort;
use crate::{Cpu, CpuConfig, CpuStats, MemPort, Pid};

const SCRATCH: i64 = 0x4000;
/// Programs in the golden; each runs at every width in [`WIDTHS`].
const PROGRAMS: u64 = 200;
const WIDTHS: [usize; 4] = [1, 2, 4, 8];
const LIMIT: u64 = 100_000;

/// Uncached-buffer entries, and the cycles each takes to drain.
const UNCACHED_ENTRIES: usize = 2;
const DRAIN_CYCLES: u64 = 3;
/// Extra cycles an uncached load or swap waits after its entry drains.
const ROUND_TRIP: u64 = 2;
/// Cycles the CSB refuses stores and flushes after each flush.
const CSB_BUSY: u64 = 4;
const HIT_CYCLES: u64 = 1;
const MISS_CYCLES: u64 = 6;

/// A deterministic port with the stalls the real machine has: a small
/// uncached buffer that drains one entry every [`DRAIN_CYCLES`], uncached
/// loads and swaps that complete after their entry drains, a CSB that is
/// busy after each flush, and a direct-mapped cache with slow misses.
/// The driver sets `now` before each tick; functional memory and the
/// CSB's store count come from [`SimpleMemPort`].
struct TimedPort {
    mem: SimpleMemPort,
    now: u64,
    tags: [Option<u64>; 8],
    /// Cycle each buffered uncached operation leaves the buffer.
    drains: VecDeque<u64>,
    /// In-flight uncached loads and swaps: `(tag, ready_at, value)`.
    pending: Vec<(u64, u64, u64)>,
    csb_busy_until: u64,
}

impl TimedPort {
    fn new() -> Self {
        TimedPort {
            mem: SimpleMemPort::with_map(io_map(), 0),
            now: 0,
            tags: [None; 8],
            drains: VecDeque::new(),
            pending: Vec::new(),
            csb_busy_until: 0,
        }
    }

    fn occupancy(&self) -> usize {
        self.drains.iter().filter(|&&d| d > self.now).count()
    }

    /// Takes a buffer entry; returns the cycle it drains.
    fn enqueue(&mut self) -> u64 {
        let now = self.now;
        self.drains.retain(|&d| d > now);
        let at = self.drains.back().map_or(now, |&d| d.max(now)) + DRAIN_CYCLES;
        self.drains.push_back(at);
        at
    }

    fn ready(&self, tag: u64) -> bool {
        self.pending
            .iter()
            .any(|&(t, at, _)| t == tag && at <= self.now)
    }

    fn poll(&mut self, tag: u64) -> Option<u64> {
        let i = self
            .pending
            .iter()
            .position(|&(t, at, _)| t == tag && at <= self.now)?;
        Some(self.pending.swap_remove(i).2)
    }
}

impl MemPort for TimedPort {
    fn space_of(&self, addr: Addr) -> AddressSpace {
        self.mem.space_of(addr)
    }

    fn cached_access(&mut self, addr: Addr, _kind: AccessKind, now: u64) -> u64 {
        let line = addr.raw() / 32;
        let slot = &mut self.tags[(line % 8) as usize];
        if *slot == Some(line) {
            now + HIT_CYCLES
        } else {
            *slot = Some(line);
            now + MISS_CYCLES
        }
    }

    fn read(&mut self, addr: Addr, width: usize) -> u64 {
        self.mem.read(addr, width)
    }

    fn write(&mut self, addr: Addr, width: usize, value: u64) {
        self.mem.write(addr, width, value);
    }

    fn swap_value(&mut self, addr: Addr, new: u64) -> u64 {
        self.mem.swap_value(addr, new)
    }

    fn uncached_store(&mut self, addr: Addr, width: usize, value: u64) -> bool {
        if self.occupancy() >= UNCACHED_ENTRIES {
            return false;
        }
        self.enqueue();
        self.mem.uncached_store(addr, width, value)
    }

    fn uncached_read(&mut self, addr: Addr, width: usize, swap: Option<u64>, tag: u64) -> bool {
        if self.occupancy() >= UNCACHED_ENTRIES {
            return false;
        }
        let at = self.enqueue() + ROUND_TRIP;
        let value = self.mem.read(addr, width);
        if let Some(new) = swap {
            self.mem.write(addr, width, new);
        }
        self.pending.push((tag, at, value));
        true
    }

    fn uncached_poll(&mut self, tag: u64) -> Option<u64> {
        self.poll(tag)
    }

    fn uncached_drained(&self) -> bool {
        self.occupancy() == 0
    }

    fn csb_store(&mut self, pid: Pid, addr: Addr, width: usize, value: u64) -> bool {
        self.now >= self.csb_busy_until && self.mem.csb_store(pid, addr, width, value)
    }

    fn csb_can_flush(&self) -> bool {
        self.now >= self.csb_busy_until
    }

    fn csb_flush(&mut self, pid: Pid, addr: Addr, expected: u64) -> u64 {
        self.csb_busy_until = self.now + CSB_BUSY;
        self.mem.csb_flush(pid, addr, expected)
    }

    fn uncached_store_would_accept(&self, _addr: Addr, _width: usize) -> bool {
        self.occupancy() < UNCACHED_ENTRIES
    }

    fn uncached_read_would_accept(&self) -> bool {
        self.occupancy() < UNCACHED_ENTRIES
    }

    fn csb_store_would_accept(&self) -> bool {
        self.now >= self.csb_busy_until
    }

    fn uncached_ready(&self, tag: u64) -> bool {
        self.ready(tag)
    }
}

/// Seeded program generator. Data lives in `%l0`–`%l5` and `%f0`–`%f3`;
/// `%o0`–`%o2` hold the cached, uncached and combining bases, `%l6` a
/// cached address computed from data (so stores can have addresses that
/// resolve late), and `%l7` the loop counter no body writes.
struct ProgramGen {
    rng: TestRng,
}

impl ProgramGen {
    fn new(seed: u64) -> Self {
        ProgramGen {
            rng: TestRng::from_seed(proptest::name_seed("random programs") ^ seed),
        }
    }

    fn below(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn data_reg(&mut self) -> Reg {
        Reg::new(16 + self.below(6) as u8)
    }

    /// A data register or `%g0`.
    fn src_reg(&mut self) -> Reg {
        if self.below(8) == 0 {
            Reg::G0
        } else {
            self.data_reg()
        }
    }

    fn fp_reg(&mut self) -> FReg {
        FReg::new(self.below(4) as u8)
    }

    fn width(&mut self) -> MemWidth {
        [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8][self.below(4) as usize]
    }

    /// A cached base register and an aligned offset for `width` bytes.
    fn cached_slot(&mut self, width: MemWidth) -> (Reg, i64) {
        let base = if self.below(3) == 0 { Reg::L6 } else { Reg::O0 };
        let w = width.bytes() as i64;
        let slot = self.below(8) as i64 * 8 + self.below((8 / w) as u64) as i64 * w;
        (base, slot)
    }

    fn program(&mut self) -> Program {
        let mut a = Assembler::new();
        a.movi(Reg::O0, SCRATCH);
        a.movi(Reg::O1, UNCACHED_BASE as i64);
        a.movi(Reg::O2, COMBINING_BASE as i64);
        a.movi(Reg::L6, SCRATCH);
        for r in 16..22 {
            let v = self.below(200) as i64 - 100;
            a.movi(Reg::new(r), v);
        }
        for f in 0..4 {
            let bits = (1.0 + self.below(16) as f64 / 4.0).to_bits();
            a.fmovi(FReg::new(f), bits);
        }
        let n = 15 + self.below(30);
        for _ in 0..n {
            match self.below(12) {
                0 => self.skip_block(&mut a),
                1 => self.loop_block(&mut a),
                _ => self.simple(&mut a),
            }
        }
        a.halt();
        a.assemble().expect("generated programs assemble")
    }

    /// A forward branch over a short block: taken branches mispredict.
    fn skip_block(&mut self, a: &mut Assembler) {
        let r = self.src_reg();
        let imm = self.below(4) as i64 - 1;
        a.cmpi(r, imm);
        let skip = a.new_label();
        if self.below(2) == 0 {
            a.bz(skip);
        } else {
            a.bnz(skip);
        }
        for _ in 0..1 + self.below(3) {
            self.simple(a);
        }
        a.bind(skip).expect("fresh label");
    }

    /// A counted loop: its exit mispredicts.
    fn loop_block(&mut self, a: &mut Assembler) {
        a.movi(Reg::L7, 1 + self.below(4) as i64);
        let top = a.new_label();
        a.bind(top).expect("fresh label");
        for _ in 0..1 + self.below(5) {
            match self.below(6) {
                0 => self.skip_block(a),
                _ => self.simple(a),
            }
        }
        a.alui(AluOp::Sub, Reg::L7, Reg::L7, 1);
        a.cmpi(Reg::L7, 0);
        a.bnz(top);
    }

    fn simple(&mut self, a: &mut Assembler) {
        const ALU: [AluOp; 7] = [
            AluOp::Add,
            AluOp::Sub,
            AluOp::And,
            AluOp::Or,
            AluOp::Xor,
            AluOp::Sll,
            AluOp::Srl,
        ];
        const FPU: [FpuOp; 3] = [FpuOp::FAdd, FpuOp::FSub, FpuOp::FMul];
        match self.below(40) {
            0..=9 => {
                let op = ALU[self.below(7) as usize];
                let (dst, src) = (self.data_reg(), self.src_reg());
                if self.below(2) == 0 {
                    let imm = self.below(16) as i64;
                    a.alui(op, dst, src, imm);
                } else {
                    let b = self.src_reg();
                    a.alu(op, dst, src, b);
                }
            }
            10..=13 => {
                let op = FPU[self.below(3) as usize];
                let (d, x, y) = (self.fp_reg(), self.fp_reg(), self.fp_reg());
                a.fpu(op, d, x, y);
            }
            14..=17 => {
                let width = self.width();
                let (base, off) = self.cached_slot(width);
                let src = self.src_reg();
                a.st(src, base, off, width);
            }
            18..=22 => {
                let width = self.width();
                let (base, off) = self.cached_slot(width);
                let dst = self.data_reg();
                a.ld(dst, base, off, width);
            }
            23 => {
                let (base, off) = self.cached_slot(MemWidth::B8);
                let f = self.fp_reg();
                a.stdf(f, base, off);
            }
            24 => {
                let off = self.below(8) as i64 * 8;
                let r = self.data_reg();
                a.swap(r, Reg::O0, off);
            }
            25..=27 => {
                let off = self.below(16) as i64 * 8;
                let r = self.src_reg();
                a.std(r, Reg::O1, off);
            }
            28 | 29 => {
                let off = self.below(16) as i64 * 8;
                let r = self.data_reg();
                a.ld(r, Reg::O1, off, MemWidth::B8);
            }
            30 => {
                let off = self.below(16) as i64 * 8;
                let r = self.data_reg();
                a.swap(r, Reg::O1, off);
            }
            31..=33 => {
                // A combining sequence and its conditional flush; one in
                // five expects the wrong count and fails.
                let n = 1 + self.below(4) as i64;
                for i in 0..n {
                    let r = self.src_reg();
                    a.std(r, Reg::O2, i * 8);
                }
                let expect = if self.below(5) == 0 { n + 1 } else { n };
                a.movi(Reg::L4, expect);
                a.swap(Reg::L4, Reg::O2, 0);
            }
            34 => {
                a.membar();
            }
            35..=37 => {
                // Recompute %l6 from data: younger accesses through it
                // wait on whatever produced that data.
                let r = self.data_reg();
                a.alui(AluOp::And, Reg::L6, r, 0x38);
                a.alu(AluOp::Add, Reg::L6, Reg::L6, Reg::O0);
            }
            _ => {
                let r = self.data_reg();
                a.cmp(r, Reg::L6);
            }
        }
    }
}

/// The generated program for `seed`.
fn program(seed: u64) -> Program {
    ProgramGen::new(seed).program()
}

/// Runs `program` to `halt` at `width`, folding the snapshot frame and
/// the [`Cpu::next_event`] verdict after every tick into one digest.
fn run_timed(program: Program, width: usize) -> (CpuStats, u64) {
    let mut cpu = Cpu::new(CpuConfig::superscalar(width), program);
    let mut port = TimedPort::new();
    let mut digest = Fnv1a::new();
    while !cpu.halted() {
        assert!(cpu.now() < LIMIT, "program did not halt");
        port.now = cpu.now();
        cpu.tick(&mut port);
        port.now = cpu.now();
        let mut w = SnapshotWriter::new();
        cpu.save_state(&mut w);
        digest.update(&w.finish());
        write!(digest, "{:?}", cpu.next_event(&port)).expect("hashing cannot fail");
    }
    (cpu.stats().clone(), digest.finish())
}

#[test]
fn random_programs_match_timing_golden() {
    let mut actual = String::from(
        "# seed width cycles retired squashed mispredicts loads stores \
         uncached_stall membar_stall frames\n",
    );
    let mut total = CpuStats::default();
    for seed in 0..PROGRAMS {
        let program = program(seed);
        for width in WIDTHS {
            let (s, digest) = run_timed(program.clone(), width);
            total.mispredicts += s.mispredicts;
            total.flush_failures += s.flush_failures;
            total.uncached_stall_cycles += s.uncached_stall_cycles;
            total.membar_stall_cycles += s.membar_stall_cycles;
            writeln!(
                actual,
                "{seed} {width} {} {} {} {} {} {} {} {} {digest:016x}",
                s.cycles,
                s.retired,
                s.squashed,
                s.mispredicts,
                s.loads,
                s.stores,
                s.uncached_stall_cycles,
                s.membar_stall_cycles,
            )
            .expect("writing to a String cannot fail");
        }
    }
    assert!(total.mispredicts > 0 && total.flush_failures > 0);
    assert!(total.uncached_stall_cycles > 0 && total.membar_stall_cycles > 0);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/timing.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &actual).expect("golden file writes");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!("{path} missing — run UPDATE_GOLDEN=1 cargo test -p csb-cpu random_programs")
    });
    for (i, (got, want)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "timing golden line {} drifted", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}

/// Fails unless the incrementally maintained scheduling sets equal the
/// ones [`Cpu::restore_state`] rebuilds from the ROB.
fn assert_sched_matches_rebuild(cpu: &Cpu) {
    let mut rebuilt = Sched::new(cpu.rob.slots.len());
    rebuilt.rebuild(&cpu.rob, cpu.front_seq);
    assert_eq!(
        cpu.sched,
        rebuilt,
        "scheduling sets drifted from the ROB at cycle {}",
        cpu.now()
    );
}

/// How often each situation the scheduling sets must survive occurred.
#[derive(Debug, Default)]
struct Reached {
    squashes: u64,
    blocked_loads: u64,
    cached_swaps: u64,
    uncached_loads: u64,
    uncached_swaps: u64,
    flushes: u64,
    switches_in_flight: u64,
    restores_in_flight: u64,
}

impl Reached {
    fn observe(&mut self, cpu: &Cpu) {
        for (idx, e) in cpu.rob.iter().enumerate() {
            match (e.st, e.inst.kind(), e.space) {
                (St::AddrReady, InstKind::Load, Some(AddressSpace::Cached))
                    if !cpu.load_may_proceed(idx) =>
                {
                    self.blocked_loads += 1;
                }
                (St::MemAccess { .. }, InstKind::Swap, Some(AddressSpace::Cached)) => {
                    self.cached_swaps += 1;
                }
                (St::UncachedWait, InstKind::Load, _) => self.uncached_loads += 1,
                (St::UncachedWait, InstKind::Swap, _) => self.uncached_swaps += 1,
                _ => {}
            }
        }
    }
}

/// Runs `programs[0]` as process 0 with `programs[1]` parked as process
/// 1, checking the scheduling sets after every tick. At random cycles the
/// two processes swap with instructions in flight, and the core is saved
/// and restored into a fresh one. Each process runs until it halts.
fn drive_with_switches_and_restores(programs: [Program; 2], width: usize, reached: &mut Reached) {
    let cfg = CpuConfig::superscalar(width);
    let mut rng = ProgramGen::new(width as u64 ^ programs[0].len() as u64);
    let [first, second] = programs;
    let mut current = first.clone();
    let mut cpu = Cpu::new(cfg, first);
    let mut parked = Some((crate::CpuContext::new(1), second));
    let mut port = TimedPort::new();
    loop {
        if cpu.halted() {
            let Some((ctx, program)) = parked.take() else {
                break;
            };
            cpu.switch_context(ctx, Some(program.clone()));
            current = program;
        }
        assert!(cpu.now() < LIMIT, "processes did not halt");
        port.now = cpu.now();
        let mispredicts = cpu.stats().mispredicts;
        cpu.tick(&mut port);
        assert_sched_matches_rebuild(&cpu);
        reached.observe(&cpu);
        reached.squashes += cpu.stats().mispredicts - mispredicts;
        match rng.below(48) {
            0 if cpu.switch_safe() && !cpu.halted() && parked.is_some() => {
                reached.switches_in_flight += u64::from(!cpu.rob.is_empty());
                let (ctx, program) = parked.take().expect("checked above");
                let old = cpu.switch_context(ctx, Some(program.clone()));
                parked = Some((old, std::mem::replace(&mut current, program)));
                assert_sched_matches_rebuild(&cpu);
            }
            1 => {
                reached.restores_in_flight += u64::from(!cpu.rob.is_empty());
                let mut w = SnapshotWriter::new();
                cpu.save_state(&mut w);
                let frame = w.finish();
                let mut fresh = Cpu::new(cfg, current.clone());
                fresh
                    .restore_state(&mut SnapshotReader::new(&frame))
                    .expect("a core restores its own frame");
                cpu = fresh;
                assert_sched_matches_rebuild(&cpu);
            }
            _ => {}
        }
    }
    reached.flushes += cpu.stats().flush_successes + cpu.stats().flush_failures;
}

#[test]
fn scheduling_sets_match_a_rebuild_after_every_tick() {
    let mut reached = Reached::default();
    for seed in 0..PROGRAMS / 2 {
        for width in WIDTHS {
            let programs = [program(seed), program(PROGRAMS + seed)];
            drive_with_switches_and_restores(programs, width, &mut reached);
        }
    }
    let counts = [
        reached.squashes,
        reached.blocked_loads,
        reached.cached_swaps,
        reached.uncached_loads,
        reached.uncached_swaps,
        reached.flushes,
        reached.switches_in_flight,
        reached.restores_in_flight,
    ];
    assert!(
        counts.iter().all(|&n| n > 0),
        "a situation was never reached: {reached:?}"
    );
}

/// Restoring a core frame with any one byte flipped returns an error or a
/// core whose scheduling state is consistent; the rebuild never indexes
/// outside the ROB.
#[test]
fn corrupt_frames_never_panic_the_rebuild() {
    let program = program(3);
    let cfg = CpuConfig::default();
    let mut cpu = Cpu::new(cfg, program.clone());
    let mut port = TimedPort::new();
    while cpu.rob.len() < 12 {
        port.now = cpu.now();
        cpu.tick(&mut port);
    }
    let mut w = SnapshotWriter::new();
    cpu.save_state(&mut w);
    let frame = w.finish();
    for i in 0..frame.len() {
        for flip in [0x01, 0x80] {
            let mut bad = frame.clone();
            bad[i] ^= flip;
            let mut fresh = Cpu::new(cfg, program.clone());
            if fresh.restore_state(&mut SnapshotReader::new(&bad)).is_ok() {
                assert_sched_matches_rebuild(&fresh);
            }
        }
    }
}
