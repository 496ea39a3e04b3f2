//! The out-of-order pipeline: fetch, dispatch, issue, execute, retire.
//!
//! Stage processing runs in reverse order each cycle (writeback, retire,
//! issue, dispatch, fetch) so an instruction advances at most one stage per
//! cycle. Register renaming is implicit through the reorder buffer: each
//! architectural register maps to the sequence number of its youngest
//! in-flight writer, and consumers capture either a committed value or that
//! producer reference at dispatch.
//!
//! Non-speculative semantics for uncached operations (§4.1 of the paper) are
//! enforced in the retire stage: an uncached load, store, combining store,
//! or `swap` only touches the [`MemPort`] once it is the oldest instruction
//! in the machine, in program order, at most `uncached_per_cycle` per cycle,
//! and is never replayed — a failed flow-control offer stalls retirement and
//! is retried the next cycle, which is exactly the back-pressure that lets
//! the uncached buffer combine stores while the bus is busy.

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Index, IndexMut};

use csb_isa::{Addr, AddressSpace, Cond, Inst, InstKind, Operand, Program, RegRef};
use csb_mem::AccessKind;
use csb_obs::{EventKind, MetricsRegistry, TimelineEvent, TraceSink, Track};

use crate::config::CpuConfig;
use crate::context::CpuContext;
use crate::port::MemPort;
use crate::stats::CpuStats;
use crate::trace::InstTrace;

mod countdown;

use countdown::LoopDetector;

/// Condition-code flag: operands compared equal.
const FLAG_EQ: u64 = 1;
/// Condition-code flag: first operand signed-less-than the second.
const FLAG_LT: u64 = 2;

fn flags_of(a: u64, b: u64) -> u64 {
    let mut f = 0;
    if a == b {
        f |= FLAG_EQ;
    }
    if (a as i64) < (b as i64) {
        f |= FLAG_LT;
    }
    f
}

fn cond_holds(cond: Cond, flags: u64) -> bool {
    match cond {
        Cond::Eq => flags & FLAG_EQ != 0,
        Cond::Ne => flags & FLAG_EQ == 0,
        Cond::Lt => flags & FLAG_LT != 0,
        Cond::Ge => flags & FLAG_LT == 0,
        Cond::Always => true,
    }
}

/// Error returned by [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// The cycle limit elapsed before the program halted (livelock guard).
    CycleLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::CycleLimit { limit } => {
                write!(f, "program did not halt within {limit} cycles")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Why the pipeline is blocked at an idle horizon (see
/// [`Cpu::next_event`]). Distinguishing the cause lets the fast-forward
/// path bulk-update the matching stall counter for the skipped cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Head uncached store refused: the uncached buffer is full.
    UncachedStoreFull,
    /// Head uncached load or swap refused: the uncached buffer is full.
    UncachedLoadFull,
    /// Head combining store refused: the CSB is busy.
    CsbStoreBusy,
    /// Head conditional flush blocked: the CSB cannot accept a flush.
    CsbFlushWait,
    /// Head `membar` blocked: the uncached buffer has not drained.
    Membar,
}

/// The core's activity horizon, computed by [`Cpu::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuHorizon {
    /// The next [`Cpu::tick`] can change pipeline state; do not skip it.
    Active,
    /// No pipeline state can change before external input arrives.
    Idle {
        /// Earliest future cycle at which an in-flight operation
        /// completes on its own (`None`: only external events — bus
        /// deliveries, buffer drains — can wake the core).
        wake: Option<u64>,
        /// The stall counter every skipped cycle would have incremented
        /// (`None`: the idle cycles are not accounted as stalls).
        stall: Option<StallCause>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready(u64),
    Wait(u64), // producer sequence number
}

#[derive(Debug, Clone, Copy)]
struct OperandSlot {
    reg: RegRef,
    src: Src,
}

/// Inline operand list: an instruction reads at most three registers, so
/// the slots live directly in the ROB entry instead of a per-dispatch
/// `Vec` allocation.
#[derive(Debug, Clone, Copy)]
struct Ops {
    slots: [OperandSlot; 3],
    len: u8,
}

impl Ops {
    const NONE: OperandSlot = OperandSlot {
        reg: RegRef::Cc,
        src: Src::Ready(0),
    };
    const EMPTY: Ops = Ops {
        slots: [Self::NONE; 3],
        len: 0,
    };

    #[inline]
    fn push(&mut self, slot: OperandSlot) {
        self.slots[self.len as usize] = slot;
        self.len += 1;
    }

    #[inline]
    fn iter(&self) -> std::slice::Iter<'_, OperandSlot> {
        self.slots[..self.len as usize].iter()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Waiting for operands / a functional unit.
    Waiting,
    /// Address generation in flight.
    Agen { done_at: u64 },
    /// Effective address known; memory action not yet started.
    AddrReady,
    /// Cached access (load or atomic) in flight.
    MemAccess { done_at: u64 },
    /// Uncached split transaction in flight; poll the port.
    UncachedWait,
    /// Functional-unit execution in flight.
    Exec { done_at: u64 },
    /// Result available; eligible for in-order retirement.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    pc: usize,
    inst: Inst,
    st: St,
    ops: Ops,
    /// Result value: ALU result, condition flags, load value, swap result,
    /// or (for branches) the resolved next pc.
    value: u64,
    addr: Option<Addr>,
    space: Option<AddressSpace>,
    predicted_next: usize,
    /// Head-triggered memory action already started (never replay).
    mem_started: bool,
    /// Stage timestamps for the optional pipeline trace.
    t_fetch: u64,
    t_dispatch: u64,
    t_issue: Option<u64>,
    t_complete: Option<u64>,
}

impl RobEntry {
    /// Placeholder filling unused ring slots; never observed by the
    /// pipeline (the ring's length bounds every access).
    const EMPTY: RobEntry = RobEntry {
        seq: 0,
        pc: 0,
        inst: Inst::Nop,
        st: St::Done,
        ops: Ops::EMPTY,
        value: 0,
        addr: None,
        space: None,
        predicted_next: 0,
        mem_started: false,
        t_fetch: 0,
        t_dispatch: 0,
        t_issue: None,
        t_complete: None,
    };

    #[inline]
    fn op_val(&self, i: usize) -> u64 {
        match self.ops.slots[i].src {
            Src::Ready(v) => v,
            Src::Wait(_) => panic!("operand {i} of {} not ready", self.inst),
        }
    }
}

/// The reorder buffer as a fixed-capacity ring indexed by position from
/// the head, upholding the invariant `rob[i].seq == front_seq + i`. Every
/// slot is allocated once at construction; push/pop/truncate only move
/// indices, so the steady-state pipeline neither touches the heap nor
/// clones an entry.
#[derive(Debug)]
struct Rob {
    slots: Box<[RobEntry]>,
    head: usize,
    len: usize,
}

impl Rob {
    fn with_capacity(cap: usize) -> Self {
        Rob {
            slots: vec![RobEntry::EMPTY; cap.max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn wrap(&self, i: usize) -> usize {
        let p = self.head + i;
        if p >= self.slots.len() {
            p - self.slots.len()
        } else {
            p
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn front(&self) -> Option<&RobEntry> {
        (self.len > 0).then(|| &self.slots[self.head])
    }

    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len < self.slots.len(), "ROB ring overflow");
        let p = self.wrap(self.len);
        self.slots[p] = e;
        self.len += 1;
    }

    /// Pops the head entry by value (a plain `Copy`, not a heap clone).
    #[inline]
    fn pop_front(&mut self) -> RobEntry {
        debug_assert!(self.len > 0, "pop on empty ROB");
        let e = self.slots[self.head];
        self.head = self.wrap(1);
        self.len -= 1;
        e
    }

    /// Drops every entry at position `n` and beyond (squash).
    #[inline]
    fn truncate(&mut self, n: usize) {
        if n < self.len {
            self.len = n;
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        (0..self.len).map(move |i| &self.slots[self.wrap(i)])
    }

    /// The ROB index of a ring slot.
    #[inline]
    fn index_of(&self, slot: usize) -> usize {
        if slot >= self.head {
            slot - self.head
        } else {
            slot + self.slots.len() - self.head
        }
    }

    /// The index of the oldest member of `set` at index `idx` or younger.
    #[inline]
    fn next_in(&self, set: &SlotSet, idx: usize) -> Option<usize> {
        if idx >= self.len {
            return None;
        }
        let p = self.wrap(idx);
        let slot = if p >= self.head {
            set.first_in(p, self.slots.len())
                .or_else(|| set.first_in(0, self.head))
        } else {
            set.first_in(p, self.head)
        }?;
        let i = self.index_of(slot);
        debug_assert!(i < self.len, "scheduling set names an empty ROB slot");
        Some(i)
    }
}

/// A set of ROB ring slots, one bit per slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SlotSet {
    words: Box<[u64]>,
}

impl SlotSet {
    fn new(cap: usize) -> Self {
        SlotSet {
            words: vec![0; cap.div_ceil(64)].into_boxed_slice(),
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The lowest member in `from..to`.
    #[inline]
    fn first_in(&self, from: usize, to: usize) -> Option<usize> {
        if from >= to {
            return None;
        }
        let mut w = from / 64;
        let mut bits = self.words[w] & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = self.words[w];
        }
        let slot = w * 64 + bits.trailing_zeros() as usize;
        (slot < to).then_some(slot)
    }

    /// Every member, lowest first.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + b
                })
            })
        })
    }
}

/// Scheduling state derived from the ROB, so writeback, issue and the
/// horizon scan visit only the entries that can move instead of the whole
/// ring. Never serialized: [`Sched::rebuild`] recomputes it from the ROB
/// wherever the ROB is replaced wholesale (reset, restore, context switch,
/// squash), and the pipeline stages update it incrementally in between.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Sched {
    /// Slots with an operation in flight: `Agen`, `Exec`, `MemAccess` or
    /// `UncachedWait`.
    inflight: SlotSet,
    /// Issue candidates: `AddrReady` cached loads and stores, and `Waiting`
    /// entries whose operands are all ready or that hold an operand whose
    /// producer has completed (the issue scan rewrites it, as
    /// [`Cpu::ops_ready`] always has). A `Waiting` entry outside this set
    /// waits only on producers that have not completed.
    ready: SlotSet,
    /// One row per producer slot, each laid out like a [`SlotSet`]: the
    /// `Waiting` slots with an operand still waiting on that producer,
    /// moved into `ready` when it turns `Done`.
    consumers: Box<[u64]>,
}

impl Sched {
    fn new(cap: usize) -> Self {
        let ready = SlotSet::new(cap);
        Sched {
            inflight: SlotSet::new(cap),
            consumers: vec![0; cap * ready.words.len()].into_boxed_slice(),
            ready,
        }
    }

    /// `consumer` has an operand waiting on `producer`.
    #[inline]
    fn add_consumer(&mut self, producer: usize, consumer: usize) {
        let row = producer * self.ready.words.len();
        self.consumers[row + consumer / 64] |= 1 << (consumer % 64);
    }

    /// The state `rob` implies, computed from scratch.
    fn rebuild(&mut self, rob: &Rob, front_seq: u64) {
        self.inflight.clear();
        self.ready.clear();
        self.consumers.fill(0);
        for idx in 0..rob.len() {
            let slot = rob.wrap(idx);
            let e = &rob[idx];
            match e.st {
                St::Agen { .. } | St::Exec { .. } | St::MemAccess { .. } | St::UncachedWait => {
                    self.inflight.insert(slot);
                }
                St::AddrReady if is_cached_load_or_store(e) => self.ready.insert(slot),
                St::Waiting => {
                    let (mut waits, mut resolvable) = (false, false);
                    for op in e.ops.iter() {
                        if let Src::Wait(seq) = op.src {
                            if seq < front_seq || rob[(seq - front_seq) as usize].st == St::Done {
                                resolvable = true;
                            } else {
                                waits = true;
                                self.add_consumer(rob.wrap((seq - front_seq) as usize), slot);
                            }
                        }
                    }
                    if resolvable || !waits {
                        self.ready.insert(slot);
                    }
                }
                St::AddrReady | St::Done => {}
            }
        }
    }

    /// `slot`'s operation left flight with its result: its consumers
    /// become issue candidates.
    #[inline]
    fn complete(&mut self, slot: usize) {
        self.inflight.remove(slot);
        let stride = self.ready.words.len();
        let row = &mut self.consumers[slot * stride..(slot + 1) * stride];
        for (r, c) in self.ready.words.iter_mut().zip(row) {
            *r |= std::mem::take(c);
        }
    }

    /// `slot`'s entry started an operation.
    #[inline]
    fn start(&mut self, slot: usize) {
        self.ready.remove(slot);
        self.inflight.insert(slot);
    }
}

/// `true` for an `AddrReady` entry the issue stage advances (cached loads
/// and stores); uncached operations and atomics wait for the ROB head.
fn is_cached_load_or_store(e: &RobEntry) -> bool {
    e.space == Some(AddressSpace::Cached)
        && matches!(e.inst.kind(), InstKind::Load | InstKind::Store)
}

impl Index<usize> for Rob {
    type Output = RobEntry;

    #[inline]
    fn index(&self, i: usize) -> &RobEntry {
        debug_assert!(i < self.len, "ROB index {i} out of {}", self.len);
        &self.slots[self.wrap(i)]
    }
}

impl IndexMut<usize> for Rob {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut RobEntry {
        debug_assert!(i < self.len, "ROB index {i} out of {}", self.len);
        let p = self.wrap(i);
        &mut self.slots[p]
    }
}

/// Register rename map as a dense array (32 int + 32 fp + condition
/// codes): each slot holds the sequence number of the youngest in-flight
/// writer. Replaces the former `HashMap<RegRef, u64>` so dispatch, commit,
/// and squash never hash or allocate.
#[derive(Debug)]
struct RenameTable {
    slots: [Option<u64>; RENAME_SLOTS],
}

const RENAME_SLOTS: usize = csb_isa::reg::NUM_INT_REGS + csb_isa::reg::NUM_FP_REGS + 1;

#[inline]
fn rename_slot(r: RegRef) -> usize {
    match r {
        RegRef::Int(reg) => reg.index(),
        RegRef::Fp(f) => csb_isa::reg::NUM_INT_REGS + f.index(),
        RegRef::Cc => RENAME_SLOTS - 1,
    }
}

impl RenameTable {
    fn new() -> Self {
        RenameTable {
            slots: [None; RENAME_SLOTS],
        }
    }

    #[inline]
    fn get(&self, r: RegRef) -> Option<u64> {
        self.slots[rename_slot(r)]
    }

    #[inline]
    fn insert(&mut self, r: RegRef, seq: u64) {
        self.slots[rename_slot(r)] = Some(seq);
    }

    /// Clears the mapping only if it still names `seq` (commit of the
    /// youngest writer).
    #[inline]
    fn remove_if(&mut self, r: RegRef, seq: u64) {
        let s = &mut self.slots[rename_slot(r)];
        if *s == Some(seq) {
            *s = None;
        }
    }

    #[inline]
    fn clear(&mut self) {
        self.slots = [None; RENAME_SLOTS];
    }
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: usize,
    inst: Inst,
    predicted_next: usize,
    t_fetch: u64,
}

fn save_st(w: &mut csb_snap::SnapshotWriter, st: St) {
    match st {
        St::Waiting => w.put_u8(0),
        St::Agen { done_at } => {
            w.put_u8(1);
            w.put_u64(done_at);
        }
        St::AddrReady => w.put_u8(2),
        St::MemAccess { done_at } => {
            w.put_u8(3);
            w.put_u64(done_at);
        }
        St::UncachedWait => w.put_u8(4),
        St::Exec { done_at } => {
            w.put_u8(5);
            w.put_u64(done_at);
        }
        St::Done => w.put_u8(6),
    }
}

fn take_st(r: &mut csb_snap::SnapshotReader<'_>) -> Result<St, csb_snap::SnapshotError> {
    Ok(match r.take_u8()? {
        0 => St::Waiting,
        1 => St::Agen {
            done_at: r.take_u64()?,
        },
        2 => St::AddrReady,
        3 => St::MemAccess {
            done_at: r.take_u64()?,
        },
        4 => St::UncachedWait,
        5 => St::Exec {
            done_at: r.take_u64()?,
        },
        6 => St::Done,
        k => {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "unknown ROB entry state {k}"
            )))
        }
    })
}

fn save_reg_ref(w: &mut csb_snap::SnapshotWriter, reg: RegRef) {
    match reg {
        RegRef::Int(r) => {
            w.put_u8(0);
            w.put_u8(r.index() as u8);
        }
        RegRef::Fp(f) => {
            w.put_u8(1);
            w.put_u8(f.index() as u8);
        }
        RegRef::Cc => {
            w.put_u8(2);
            w.put_u8(0);
        }
    }
}

fn take_reg_ref(r: &mut csb_snap::SnapshotReader<'_>) -> Result<RegRef, csb_snap::SnapshotError> {
    let kind = r.take_u8()?;
    let idx = r.take_u8()?;
    let bad = |what: &str| {
        csb_snap::SnapshotError::Corrupt(format!("register index {idx} out of range for {what}"))
    };
    Ok(match kind {
        0 => {
            if (idx as usize) >= csb_isa::reg::NUM_INT_REGS {
                return Err(bad("int"));
            }
            RegRef::Int(csb_isa::Reg::new(idx))
        }
        1 => {
            if (idx as usize) >= csb_isa::reg::NUM_FP_REGS {
                return Err(bad("fp"));
            }
            RegRef::Fp(csb_isa::FReg::new(idx))
        }
        2 => RegRef::Cc,
        k => {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "unknown register kind {k}"
            )))
        }
    })
}

fn mem_width(inst: &Inst) -> usize {
    match inst {
        Inst::Load { width, .. } | Inst::Store { width, .. } => width.bytes(),
        Inst::StoreF { .. } | Inst::Swap { .. } => 8,
        other => panic!("mem_width on non-memory {other}"),
    }
}

/// The out-of-order core.
///
/// See the crate-level docs for the machine model and an end-to-end
/// example. Drive it either cycle by cycle with [`Cpu::tick`] (the
/// simulator facade does this, interleaving bus ticks) or to completion
/// with [`Cpu::run`].
#[derive(Debug)]
pub struct Cpu {
    cfg: CpuConfig,
    program: Program,
    ctx: CpuContext,
    fetch_pc: usize,
    fetch_stopped: bool,
    fetch_q: VecDeque<Fetched>,
    rob: Rob,
    /// Derived from `rob` (see [`Sched`]).
    sched: Sched,
    front_seq: u64,
    next_seq: u64,
    rename: RenameTable,
    halted: bool,
    now: u64,
    stats: CpuStats,
    trace: Option<Vec<InstTrace>>,
    /// Structured trace sink (disabled by default; see
    /// [`Cpu::set_trace_sink`]).
    obs: TraceSink,
    /// Metrics registry for stall-run histograms (disabled by default).
    metrics: MetricsRegistry,
    /// First cycle of the uncached-stall run currently in progress.
    uncached_stall_start: Option<u64>,
    /// First cycle of the membar-stall run currently in progress.
    membar_stall_start: Option<u64>,
    /// `true` if the most recent tick moved any instruction through the
    /// pipeline: fetched, dispatched, issued, completed, redirected, or
    /// retired something, or started a memory action. Carried in
    /// snapshot frames.
    worked: bool,
    /// Observations of the countdown loop at the ROB head and the warm-up
    /// spans of the run's loops, for periodic fast-forward (see
    /// [`Cpu::skip_loop_periods`]). Never serialized.
    detector: LoopDetector,
}

impl Cpu {
    /// Creates a core about to execute `program` as process 0.
    pub fn new(cfg: CpuConfig, program: Program) -> Self {
        Self::with_context(cfg, program, CpuContext::new(0))
    }

    /// Creates a core with an explicit initial context (PID, registers, pc).
    pub fn with_context(cfg: CpuConfig, program: Program, ctx: CpuContext) -> Self {
        let fetch_pc = ctx.pc();
        let fetch_q = VecDeque::with_capacity(cfg.fetch_queue.max(1));
        let rob = Rob::with_capacity(cfg.rob_size);
        let sched = Sched::new(rob.slots.len());
        Cpu {
            cfg,
            program,
            ctx,
            fetch_pc,
            fetch_stopped: false,
            fetch_q,
            rob,
            sched,
            front_seq: 0,
            next_seq: 0,
            rename: RenameTable::new(),
            halted: false,
            now: 0,
            stats: CpuStats::default(),
            trace: None,
            obs: TraceSink::disabled(),
            metrics: MetricsRegistry::disabled(),
            uncached_stall_start: None,
            membar_stall_start: None,
            worked: false,
            detector: LoopDetector::default(),
        }
    }

    /// Warm-resets the core in place to the state [`Cpu::with_context`]
    /// would construct, reusing the ROB ring and fetch-queue storage when
    /// the new configuration permits. Behaviorally indistinguishable from
    /// a fresh core; observability sinks revert to disabled.
    pub fn reset_with(&mut self, cfg: CpuConfig, program: Program, ctx: CpuContext) {
        if cfg.rob_size != self.cfg.rob_size {
            self.rob = Rob::with_capacity(cfg.rob_size);
            self.sched = Sched::new(self.rob.slots.len());
        } else {
            self.rob.clear();
            self.rob.head = 0;
        }
        self.sched.rebuild(&self.rob, 0);
        self.fetch_q.clear();
        self.fetch_q.reserve(cfg.fetch_queue.max(1));
        self.cfg = cfg;
        self.program = program;
        self.ctx = ctx;
        self.fetch_pc = self.ctx.pc();
        self.fetch_stopped = false;
        self.front_seq = 0;
        self.next_seq = 0;
        self.rename.clear();
        self.halted = false;
        self.now = 0;
        self.stats = CpuStats::default();
        self.trace = None;
        self.obs = TraceSink::disabled();
        self.metrics = MetricsRegistry::disabled();
        self.uncached_stall_start = None;
        self.membar_stall_start = None;
        self.worked = false;
        self.detector.forget();
    }

    /// Serializes the core's complete microarchitectural state: committed
    /// context, fetch queue, ROB (with in-flight operand and timing
    /// state), rename table, counters, and stall-run bookkeeping.
    /// Instructions are not stored — each entry's `pc` re-derives its
    /// `Inst` from the program the restoring side supplies. The trace
    /// sink and metrics registry are wiring the restoring side re-installs.
    pub fn save_state(&self, w: &mut csb_snap::SnapshotWriter) {
        w.put_tag("cpu");
        self.ctx.save_state(w);
        w.put_usize(self.fetch_pc);
        w.put_bool(self.fetch_stopped);
        w.put_usize(self.fetch_q.len());
        for f in &self.fetch_q {
            w.put_usize(f.pc);
            w.put_usize(f.predicted_next);
            w.put_u64(f.t_fetch);
        }
        w.put_usize(self.rob.len());
        for e in self.rob.iter() {
            w.put_u64(e.seq);
            w.put_usize(e.pc);
            save_st(w, e.st);
            w.put_u8(e.ops.len);
            for op in e.ops.iter() {
                save_reg_ref(w, op.reg);
                match op.src {
                    Src::Ready(v) => {
                        w.put_u8(0);
                        w.put_u64(v);
                    }
                    Src::Wait(seq) => {
                        w.put_u8(1);
                        w.put_u64(seq);
                    }
                }
            }
            w.put_u64(e.value);
            w.put_opt_u64(e.addr.map(Addr::raw));
            w.put_u8(match e.space {
                None => 0,
                Some(AddressSpace::Cached) => 1,
                Some(AddressSpace::Uncached) => 2,
                Some(AddressSpace::UncachedCombining) => 3,
            });
            w.put_usize(e.predicted_next);
            w.put_bool(e.mem_started);
            w.put_u64(e.t_fetch);
            w.put_u64(e.t_dispatch);
            w.put_opt_u64(e.t_issue);
            w.put_opt_u64(e.t_complete);
        }
        w.put_u64(self.front_seq);
        w.put_u64(self.next_seq);
        for slot in &self.rename.slots {
            w.put_opt_u64(*slot);
        }
        w.put_bool(self.halted);
        w.put_u64(self.now);
        w.put_u64(self.stats.cycles);
        w.put_u64(self.stats.retired);
        w.put_u64(self.stats.squashed);
        w.put_u64(self.stats.mispredicts);
        w.put_u64(self.stats.loads);
        w.put_u64(self.stats.stores);
        w.put_u64(self.stats.uncached_ops);
        w.put_u64(self.stats.combining_stores);
        w.put_u64(self.stats.flush_successes);
        w.put_u64(self.stats.flush_failures);
        w.put_u64(self.stats.uncached_stall_cycles);
        w.put_u64(self.stats.membar_stall_cycles);
        let mut mark_ids: Vec<u32> = self.stats.marks.keys().copied().collect();
        mark_ids.sort_unstable();
        w.put_usize(mark_ids.len());
        for id in mark_ids {
            w.put_u32(id);
            let cycles = &self.stats.marks[&id];
            w.put_usize(cycles.len());
            for c in cycles {
                w.put_u64(*c);
            }
        }
        w.put_bool(self.trace.is_some());
        w.put_opt_u64(self.uncached_stall_start);
        w.put_opt_u64(self.membar_stall_start);
        w.put_bool(self.worked);
    }

    /// Restores state written by [`Cpu::save_state`] into a core already
    /// holding the same configuration and program. Pipeline-trace
    /// recording resumes empty if it was enabled at save time (records
    /// retired before the snapshot are not carried over).
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream or an entry `pc`
    /// the current program cannot fetch.
    pub fn restore_state(
        &mut self,
        r: &mut csb_snap::SnapshotReader<'_>,
    ) -> Result<(), csb_snap::SnapshotError> {
        r.take_tag("cpu")?;
        self.ctx.restore_state(r)?;
        self.fetch_pc = r.take_usize()?;
        self.fetch_stopped = r.take_bool()?;
        self.fetch_q.clear();
        let nq = r.take_usize()?;
        if nq > self.cfg.fetch_queue.max(1) {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "{nq} fetched instructions exceed queue depth {}",
                self.cfg.fetch_queue
            )));
        }
        for _ in 0..nq {
            let pc = r.take_usize()?;
            let inst = self.fetch_inst(pc)?;
            self.fetch_q.push_back(Fetched {
                pc,
                inst,
                predicted_next: r.take_usize()?,
                t_fetch: r.take_u64()?,
            });
        }
        let nrob = r.take_usize()?;
        if nrob > self.cfg.rob_size {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "{nrob} ROB entries exceed capacity {}",
                self.cfg.rob_size
            )));
        }
        self.rob.clear();
        self.rob.head = 0;
        for _ in 0..nrob {
            let seq = r.take_u64()?;
            let pc = r.take_usize()?;
            let inst = self.fetch_inst(pc)?;
            let st = take_st(r)?;
            let mut ops = Ops::EMPTY;
            let nops = r.take_u8()?;
            if nops > 3 {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "{nops} operand slots exceed 3"
                )));
            }
            for _ in 0..nops {
                let reg = take_reg_ref(r)?;
                let src = match r.take_u8()? {
                    0 => Src::Ready(r.take_u64()?),
                    1 => Src::Wait(r.take_u64()?),
                    k => {
                        return Err(csb_snap::SnapshotError::Corrupt(format!(
                            "unknown operand source {k}"
                        )))
                    }
                };
                ops.push(OperandSlot { reg, src });
            }
            let value = r.take_u64()?;
            let addr = r.take_opt_u64()?.map(Addr::new);
            let space = match r.take_u8()? {
                0 => None,
                1 => Some(AddressSpace::Cached),
                2 => Some(AddressSpace::Uncached),
                3 => Some(AddressSpace::UncachedCombining),
                k => {
                    return Err(csb_snap::SnapshotError::Corrupt(format!(
                        "unknown address space {k}"
                    )))
                }
            };
            self.rob.push_back(RobEntry {
                seq,
                pc,
                inst,
                st,
                ops,
                value,
                addr,
                space,
                predicted_next: r.take_usize()?,
                mem_started: r.take_bool()?,
                t_fetch: r.take_u64()?,
                t_dispatch: r.take_u64()?,
                t_issue: r.take_opt_u64()?,
                t_complete: r.take_opt_u64()?,
            });
        }
        self.front_seq = r.take_u64()?;
        self.next_seq = r.take_u64()?;
        for (i, e) in self.rob.iter().enumerate() {
            if e.seq != self.front_seq.wrapping_add(i as u64) {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "ROB entry {i} has sequence number {}, not front {} + {i}",
                    e.seq, self.front_seq
                )));
            }
            if e.ops
                .iter()
                .any(|op| matches!(op.src, Src::Wait(p) if p >= e.seq))
            {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "ROB entry {i} waits on a producer that is not older"
                )));
            }
        }
        self.sched.rebuild(&self.rob, self.front_seq);
        for slot in 0..RENAME_SLOTS {
            self.rename.slots[slot] = r.take_opt_u64()?;
        }
        // Dispatch numbers the ROB without gaps, and the rename map names
        // only producers still in it.
        let in_flight = self.front_seq..self.next_seq;
        if self.front_seq.checked_add(self.rob.len() as u64) != Some(self.next_seq) {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "next sequence number {} after {} ROB entries from {}",
                self.next_seq,
                self.rob.len(),
                self.front_seq
            )));
        }
        if let Some(seq) = self
            .rename
            .slots
            .iter()
            .flatten()
            .find(|s| !in_flight.contains(s))
        {
            return Err(csb_snap::SnapshotError::Corrupt(format!(
                "rename map names producer {seq} outside the ROB's {in_flight:?}"
            )));
        }
        self.halted = r.take_bool()?;
        self.now = r.take_u64()?;
        self.stats.cycles = r.take_u64()?;
        self.stats.retired = r.take_u64()?;
        self.stats.squashed = r.take_u64()?;
        self.stats.mispredicts = r.take_u64()?;
        self.stats.loads = r.take_u64()?;
        self.stats.stores = r.take_u64()?;
        self.stats.uncached_ops = r.take_u64()?;
        self.stats.combining_stores = r.take_u64()?;
        self.stats.flush_successes = r.take_u64()?;
        self.stats.flush_failures = r.take_u64()?;
        self.stats.uncached_stall_cycles = r.take_u64()?;
        self.stats.membar_stall_cycles = r.take_u64()?;
        self.stats.marks.clear();
        let nmarks = r.take_usize()?;
        for _ in 0..nmarks {
            let id = r.take_u32()?;
            let len = r.take_usize()?;
            // Bounded by the bytes left, so a corrupt length cannot
            // demand a huge allocation.
            let mut cycles = Vec::with_capacity(len.min(r.remaining() / 8));
            for _ in 0..len {
                cycles.push(r.take_u64()?);
            }
            self.stats.marks.insert(id, cycles);
        }
        self.trace = if r.take_bool()? {
            Some(Vec::new())
        } else {
            None
        };
        self.uncached_stall_start = r.take_opt_u64()?;
        self.membar_stall_start = r.take_opt_u64()?;
        self.worked = r.take_bool()?;
        self.detector.forget();
        Ok(())
    }

    /// Re-derives the `Inst` at `pc` for snapshot restore.
    fn fetch_inst(&self, pc: usize) -> Result<Inst, csb_snap::SnapshotError> {
        self.program.fetch(pc).ok_or_else(|| {
            csb_snap::SnapshotError::Corrupt(format!("pc {pc} is outside the restored program"))
        })
    }

    /// Installs a structured trace sink: retires and squashes emit instants
    /// and stall runs emit spans on the CPU track. The core advances the
    /// sink's shared clock each [`Cpu::tick`].
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.obs = sink;
    }

    /// Installs a metrics registry: completed stall runs are observed into
    /// the `rob_uncached_stall_run` and `membar_stall_run` histograms.
    pub fn set_metrics(&mut self, metrics: MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Starts recording one [`InstTrace`] per instruction that leaves the
    /// pipeline (retired or squashed), for [`Cpu::trace`] /
    /// [`crate::trace::render`]. Costs memory per instruction; intended
    /// for short diagnostic runs.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The recorded pipeline trace (empty unless enabled).
    pub fn trace(&self) -> &[InstTrace] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Appends one trace record. Callers guard on `self.trace.is_some()`
    /// so the disabled hot path pays a single branch and never formats.
    #[inline]
    fn record_trace(&mut self, e: &RobEntry, retired: Option<u64>) {
        if let Some(t) = &mut self.trace {
            t.push(InstTrace {
                seq: e.seq,
                pc: e.pc,
                text: e.inst.to_string(),
                fetched: e.t_fetch,
                dispatched: e.t_dispatch,
                issued: e.t_issue,
                completed: e.t_complete,
                retired,
                squashed: retired.is_none(),
            });
        }
    }

    /// The committed architectural context.
    pub fn context(&self) -> &CpuContext {
        &self.ctx
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// `true` once a `halt` instruction has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// `true` when a context switch would not replay a side effect: the
    /// ROB head has not started a non-restartable memory action (atomic
    /// swap, conditional flush, uncached load/swap round trip).
    ///
    /// A precise-interrupt machine drains such an instruction before taking
    /// the interrupt; schedulers should poll this and delay
    /// [`Cpu::switch_context`] for the few cycles it takes to retire —
    /// otherwise the resumed process would re-execute an I/O operation that
    /// already reached the device, violating exactly-once semantics.
    pub fn switch_safe(&self) -> bool {
        self.rob.front().is_none_or(|e| !e.mem_started)
    }

    /// Performs a context switch: squashes all in-flight work (a precise
    /// interrupt), installs `new` (and its program, if given), and returns
    /// the outgoing context.
    ///
    /// The outgoing context's pc is its committed pc, so resuming it re-runs
    /// exactly the unretired instructions — which is how an interrupted CSB
    /// store sequence comes back and finds its conditional flush failing.
    /// Callers must respect [`Cpu::switch_safe`]; switching past it replays
    /// a side-effecting instruction.
    pub fn switch_context(&mut self, new: CpuContext, program: Option<Program>) -> CpuContext {
        self.stats.squashed += self.rob.len() as u64;
        if !self.rob.is_empty() {
            self.obs.emit(
                Track::Cpu,
                EventKind::Squash {
                    count: self.rob.len() as u64,
                    reason: "context-switch",
                },
            );
        }
        self.rob.clear();
        self.front_seq = self.next_seq;
        self.sched.rebuild(&self.rob, self.front_seq);
        self.detector.reset();
        self.rename.clear();
        self.fetch_q.clear();
        let old = std::mem::replace(&mut self.ctx, new);
        if let Some(p) = program {
            self.program = p;
        }
        self.fetch_pc = self.ctx.pc();
        self.fetch_stopped = false;
        self.halted = false;
        old
    }

    /// Runs until `halt` retires or `limit` cycles elapse.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::CycleLimit`] if the program does not halt in
    /// time.
    pub fn run<P: MemPort>(&mut self, port: &mut P, limit: u64) -> Result<CpuStats, RunError> {
        while !self.halted {
            if self.now >= limit {
                return Err(RunError::CycleLimit { limit });
            }
            self.tick(port);
        }
        Ok(self.stats.clone())
    }

    /// Advances the core by one cycle.
    pub fn tick<P: MemPort>(&mut self, port: &mut P) {
        let watching = self.obs.is_enabled() || self.metrics.is_enabled();
        let (u0, m0) = (
            self.stats.uncached_stall_cycles,
            self.stats.membar_stall_cycles,
        );
        if watching {
            self.obs.set_now(self.now);
        }
        self.worked = false;
        if !self.halted {
            self.writeback(port);
            self.retire(port);
            self.issue(port);
            self.dispatch(port);
            self.fetch();
        }
        if watching {
            self.stall_runs(
                self.stats.uncached_stall_cycles > u0,
                self.stats.membar_stall_cycles > m0,
            );
        }
        self.now += 1;
        self.stats.cycles = self.now;
    }

    /// Stall-run bookkeeping for the cycle at `now`: the uncached run is
    /// open while the cycle stalled on the uncached path (`uncached`), the
    /// membar run while it stalled on a `membar`; a run that ends emits one
    /// span and one histogram observation. A real tick passes what its
    /// stall counters did; [`Cpu::fast_forward`] passes its stall cause for
    /// the first skipped cycle, and later skipped cycles only extend the
    /// open run.
    fn stall_runs(&mut self, uncached: bool, membar: bool) {
        let now = self.now;
        if uncached {
            self.uncached_stall_start.get_or_insert(now);
        } else if let Some(start) = self.uncached_stall_start.take() {
            let cycles = now - start;
            self.obs.emit_span(
                start,
                cycles,
                Track::Cpu,
                EventKind::UncachedStallRun { cycles },
            );
            self.metrics.observe("rob_uncached_stall_run", cycles);
        }
        if membar {
            self.membar_stall_start.get_or_insert(now);
        } else if let Some(start) = self.membar_stall_start.take() {
            let cycles = now - start;
            self.obs.emit_span(
                start,
                cycles,
                Track::Cpu,
                EventKind::MembarStallRun { cycles },
            );
            self.metrics.observe("membar_stall_run", cycles);
        }
    }

    /// The value `op` reads, or `None` while its producer is in flight:
    /// a retired producer's value is architectural, a `Done` producer's
    /// sits in its ROB entry. The one operand resolver behind
    /// [`Cpu::ops_ready`], which latches what it resolves, and the pure
    /// [`Cpu::ops_would_be_ready`].
    fn operand(&self, op: &OperandSlot) -> Option<u64> {
        match op.src {
            Src::Ready(v) => Some(v),
            Src::Wait(seq) if seq < self.front_seq => Some(self.arch_value(op.reg)),
            Src::Wait(seq) => {
                let p = &self.rob[(seq - self.front_seq) as usize];
                (p.st == St::Done).then_some(p.value)
            }
        }
    }

    /// `true` when every operand of `rob[idx]` resolves. Leaving the lazy
    /// `Src::Ready` rewrite to [`Cpu::ops_ready`] is invisible: retired
    /// producers' values are architectural (frozen while retirement is
    /// idle) and `Done` producers' values no longer change.
    fn ops_would_be_ready(&self, idx: usize) -> bool {
        self.rob[idx]
            .ops
            .iter()
            .all(|op| self.operand(op).is_some())
    }

    /// Computes the core's activity horizon without mutating anything: if
    /// the next tick would change pipeline state, returns
    /// [`CpuHorizon::Active`]; otherwise the pipeline is provably inert
    /// until either the returned wake cycle or an external event (tracked
    /// by the memory system's own horizon), and every skipped cycle would
    /// have behaved identically — including incrementing the returned
    /// stall counter.
    ///
    /// Over-claiming `Active` is always safe (it costs one real tick);
    /// the implementation errs that way on every uncertain case.
    pub fn next_event<P: MemPort>(&self, port: &P) -> CpuHorizon {
        if self.halted {
            // `tick` does nothing once halted; no run can still be open
            // (stalls only accrue at the head, and the halting tick
            // committed the head).
            return CpuHorizon::Idle {
                wake: None,
                stall: None,
            };
        }
        if self.cfg.uncached_per_cycle == 0 {
            // Degenerate config: the budget check precedes every stall
            // counter, so an uncached op at the head spins silently
            // forever. Claim Active so the naive loop's livelock-to-limit
            // behavior (and cycle accounting) is reproduced exactly.
            return CpuHorizon::Active;
        }
        if !self.fetch_stopped
            && self.fetch_q.len() < self.cfg.fetch_queue
            && self.program.fetch(self.fetch_pc).is_some()
        {
            return CpuHorizon::Active;
        }
        if !self.fetch_q.is_empty() && self.rob.len() < self.cfg.rob_size {
            return CpuHorizon::Active;
        }
        // Head first: during busy phases the head is almost always about
        // to commit, complete, or have its memory op accepted, so the
        // common `Active` verdicts resolve in O(1). Only a stalled head
        // reaches the scan below, which visits the in-flight slots and the
        // issue candidates, not every ROB entry.
        let mut wake: Option<u64> = None;
        let stall = match self.rob.front() {
            None => {
                // Nothing in flight, nothing to fetch: quiescent (either
                // about to sit at a drained non-halt end-of-program
                // forever, exactly like the naive loop, or mid-drain
                // waiting on the fetch path handled above).
                None
            }
            Some(head) => match head.st {
                St::Done => {
                    if head.inst.kind() == InstKind::Membar && !port.uncached_drained() {
                        Some(StallCause::Membar)
                    } else {
                        // Commit makes progress.
                        return CpuHorizon::Active;
                    }
                }
                St::Agen { done_at } | St::Exec { done_at } | St::MemAccess { done_at } => {
                    if done_at <= self.now {
                        return CpuHorizon::Active;
                    }
                    wake = Some(done_at);
                    None
                }
                St::UncachedWait => {
                    if port.uncached_ready(head.seq) {
                        return CpuHorizon::Active;
                    }
                    // The completion cycle lives in the memory system's
                    // horizon, not ours.
                    None
                }
                St::Waiting => {
                    // Unit budgets reset every tick, so operand readiness
                    // is the only cross-cycle blocker. (A zero-unit config
                    // never leaves Waiting; claiming Active then matches
                    // the naive loop's livelock.)
                    if self.ops_would_be_ready(0) {
                        return CpuHorizon::Active;
                    }
                    None
                }
                St::AddrReady => {
                    if !self.ops_would_be_ready(0) {
                        // Producers of head operands are always retired in
                        // practice; be conservative if not.
                        return CpuHorizon::Active;
                    }
                    let addr = head.addr.expect("AddrReady implies address");
                    let space = head.space.expect("AddrReady implies space");
                    match (&head.inst, space) {
                        (Inst::Swap { .. }, AddressSpace::UncachedCombining) => {
                            if port.csb_can_flush() {
                                return CpuHorizon::Active;
                            }
                            Some(StallCause::CsbFlushWait)
                        }
                        (Inst::Swap { .. }, AddressSpace::Uncached)
                        | (
                            Inst::Load { .. },
                            AddressSpace::Uncached | AddressSpace::UncachedCombining,
                        ) => {
                            if port.uncached_read_would_accept() {
                                return CpuHorizon::Active;
                            }
                            Some(StallCause::UncachedLoadFull)
                        }
                        (Inst::Store { .. } | Inst::StoreF { .. }, AddressSpace::Uncached) => {
                            if port.uncached_store_would_accept(addr, mem_width(&head.inst)) {
                                return CpuHorizon::Active;
                            }
                            Some(StallCause::UncachedStoreFull)
                        }
                        (
                            Inst::Store { .. } | Inst::StoreF { .. },
                            AddressSpace::UncachedCombining,
                        ) => {
                            if port.csb_store_would_accept() {
                                return CpuHorizon::Active;
                            }
                            Some(StallCause::CsbStoreBusy)
                        }
                        // Cached swap executes at the head next tick; cached
                        // loads/stores at the head always advance via issue.
                        _ => return CpuHorizon::Active,
                    }
                }
            },
        };
        // Every other entry is inert until the in-order head reaches it:
        // `Done` entries, uncached ops and atomics in `AddrReady`, and
        // `Waiting` entries whose producers are all still in flight. The
        // head is visited again here; every verdict it can add is one the
        // checks above already reached.
        for slot in self.sched.inflight.iter() {
            let e = &self.rob.slots[slot];
            match e.st {
                St::Agen { done_at } | St::Exec { done_at } | St::MemAccess { done_at } => {
                    if done_at <= self.now {
                        return CpuHorizon::Active;
                    }
                    wake = Some(wake.map_or(done_at, |w| w.min(done_at)));
                }
                St::UncachedWait => {
                    if port.uncached_ready(e.seq) {
                        return CpuHorizon::Active;
                    }
                }
                St::Waiting | St::AddrReady | St::Done => {
                    unreachable!("in-flight set names a {:?} entry", e.st)
                }
            }
        }
        for slot in self.sched.ready.iter() {
            let idx = self.rob.index_of(slot);
            let active = match self.rob[idx].st {
                St::Waiting => self.ops_would_be_ready(idx),
                // A blocked load (older store in the way) stays blocked
                // until the head retires, which the head checks cover.
                St::AddrReady => {
                    self.rob[idx].inst.kind() == InstKind::Store || self.load_may_proceed(idx)
                }
                st => unreachable!("issue candidate set names a {st:?} entry"),
            };
            if active {
                return CpuHorizon::Active;
            }
        }
        CpuHorizon::Idle { wake, stall }
    }

    /// Bulk-advances the core's clock to `to` across a gap that
    /// [`Cpu::next_event`] proved inert, applying exactly the per-cycle
    /// effects the skipped ticks would have had: the matching stall
    /// counter grows by the gap length, and stall-run bookkeeping is
    /// opened/closed as the first skipped tick would have done.
    pub fn fast_forward(&mut self, to: u64, stall: Option<StallCause>) {
        let k = to.saturating_sub(self.now);
        if k == 0 {
            return;
        }
        if self.obs.is_enabled() || self.metrics.is_enabled() {
            let membar = stall == Some(StallCause::Membar);
            self.stall_runs(stall.is_some() && !membar, membar);
        }
        match stall {
            Some(StallCause::Membar) => self.stats.membar_stall_cycles += k,
            Some(_) => self.stats.uncached_stall_cycles += k,
            None => {}
        }
        self.now = to;
        self.stats.cycles = to;
    }

    fn arch_value(&self, r: RegRef) -> u64 {
        match r {
            RegRef::Int(reg) => self.ctx.int_reg(reg),
            RegRef::Fp(f) => self.ctx.fp_reg(f),
            RegRef::Cc => self.ctx.cc(),
        }
    }

    /// Resolves pending operand references; returns `true` when all ready.
    /// The update scratch is a stack array — an instruction has at most
    /// three operands — so the per-tick wakeup scan never allocates.
    #[inline]
    fn ops_ready(&mut self, idx: usize) -> bool {
        let mut updates = [(0usize, 0u64); 3];
        let mut n = 0;
        let mut all = true;
        for (i, op) in self.rob[idx].ops.iter().enumerate() {
            if let Src::Wait(_) = op.src {
                match self.operand(op) {
                    Some(v) => {
                        updates[n] = (i, v);
                        n += 1;
                    }
                    None => all = false,
                }
            }
        }
        let e = &mut self.rob[idx];
        for &(i, v) in &updates[..n] {
            e.ops.slots[i].src = Src::Ready(v);
        }
        all
    }

    // ------------------------------------------------------------------
    // Writeback: complete in-flight operations, resolve branches.
    // ------------------------------------------------------------------
    fn writeback<P: MemPort>(&mut self, port: &mut P) {
        let now = self.now;
        let mut redirect: Option<(usize, usize)> = None; // (rob idx, next pc)
        let mut cursor = self.rob.next_in(&self.sched.inflight, 0);
        while let Some(idx) = cursor {
            cursor = self.rob.next_in(&self.sched.inflight, idx + 1);
            let slot = self.rob.wrap(idx);
            let e = &mut self.rob[idx];
            match e.st {
                St::Agen { done_at } if done_at <= now => {
                    e.st = St::AddrReady;
                    self.worked = true;
                    self.sched.inflight.remove(slot);
                    if is_cached_load_or_store(e) {
                        self.sched.ready.insert(slot);
                    }
                }
                St::Exec { done_at } if done_at <= now => {
                    e.st = St::Done;
                    e.t_complete = Some(now);
                    self.worked = true;
                    self.sched.complete(slot);
                    if e.inst.kind() == InstKind::Branch && e.value as usize != e.predicted_next {
                        redirect = Some((idx, e.value as usize));
                        break;
                    }
                }
                St::MemAccess { done_at } if done_at <= now => {
                    e.st = St::Done;
                    e.t_complete = Some(now);
                    self.worked = true;
                    self.sched.complete(slot);
                }
                St::UncachedWait => {
                    if let Some(v) = port.uncached_poll(e.seq) {
                        let e = &mut self.rob[idx];
                        e.value = v;
                        e.st = St::Done;
                        e.t_complete = Some(now);
                        self.worked = true;
                        self.sched.complete(slot);
                    }
                }
                _ => {}
            }
        }
        if let Some((idx, next)) = redirect {
            self.stats.mispredicts += 1;
            self.squash_after(idx);
            self.fetch_q.clear();
            self.fetch_pc = next;
            self.fetch_stopped = false;
        }
    }

    /// Removes every entry younger than `idx` and rebuilds the rename map.
    fn squash_after(&mut self, idx: usize) {
        let removed = self.rob.len() - (idx + 1);
        self.stats.squashed += removed as u64;
        if removed > 0 {
            self.obs.emit(
                Track::Cpu,
                EventKind::Squash {
                    count: removed as u64,
                    reason: "mispredict",
                },
            );
        }
        if let Some(t) = self.trace.as_mut() {
            for i in idx + 1..self.rob.len {
                let e = &self.rob[i];
                t.push(InstTrace {
                    seq: e.seq,
                    pc: e.pc,
                    text: e.inst.to_string(),
                    fetched: e.t_fetch,
                    dispatched: e.t_dispatch,
                    issued: e.t_issue,
                    completed: e.t_complete,
                    retired: None,
                    squashed: true,
                });
            }
        }
        self.rob.truncate(idx + 1);
        // Recycle the squashed sequence numbers so the ROB invariant
        // `rob[i].seq == front_seq + i` keeps holding for new dispatches.
        // Squashed entries never issued uncached transactions (only the ROB
        // head does), so their tags cannot be in flight.
        self.next_seq = self.front_seq + self.rob.len() as u64;
        self.sched.rebuild(&self.rob, self.front_seq);
        self.detector.reset();
        self.rename.clear();
        for e in self.rob.iter() {
            if let Some(d) = e.inst.def() {
                self.rename.insert(d, e.seq);
            }
        }
    }

    // ------------------------------------------------------------------
    // Retire: in-order commit; non-speculative uncached issue at the head.
    // ------------------------------------------------------------------
    fn retire<P: MemPort>(&mut self, port: &mut P) {
        let mut budget = self.cfg.retire_width;
        let mut uncached_budget = self.cfg.uncached_per_cycle;
        while budget > 0 && !self.halted {
            let Some(head) = self.rob.front() else { break };
            match head.st {
                St::Done => {
                    if self.membar_blocked(port) {
                        break;
                    }
                    self.commit_head(port);
                    budget -= 1;
                }
                St::AddrReady => {
                    // Head-triggered, non-speculative memory action.
                    if !self.head_mem_action(port, &mut uncached_budget, &mut budget) {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    /// Attempts the head's non-speculative memory action. Returns `false`
    /// when retirement must stall this cycle. `budget`/`uncached_budget`
    /// are decremented for ops that complete instantly (uncached stores).
    fn head_mem_action<P: MemPort>(
        &mut self,
        port: &mut P,
        uncached_budget: &mut usize,
        budget: &mut usize,
    ) -> bool {
        if !self.ops_ready(0) {
            return false;
        }
        let e = &self.rob[0];
        let addr = e.addr.expect("AddrReady implies address");
        let space = e.space.expect("AddrReady implies space");
        let now = self.now;
        let pid = self.ctx.pid();
        match (&e.inst, space) {
            // Cached stores complete in issue; cached loads in MemAccess.
            // The only cached op handled here is the atomic swap, which must
            // execute non-speculatively at the head.
            (Inst::Swap { .. }, AddressSpace::Cached) => {
                if e.mem_started {
                    return false; // access in flight; wait for writeback
                }
                let new = e.op_val(0);
                let done_at = port.cached_access(addr, AccessKind::Atomic, now);
                let old = port.swap_value(addr, new);
                let e = &mut self.rob[0];
                e.value = old;
                e.mem_started = true;
                e.st = St::MemAccess { done_at };
                self.worked = true;
                self.sched.inflight.insert(self.rob.head);
                false
            }
            (Inst::Swap { .. }, AddressSpace::UncachedCombining) => {
                // The conditional flush (§3.2).
                if e.mem_started {
                    return false;
                }
                if *uncached_budget == 0 {
                    return false;
                }
                if !port.csb_can_flush() {
                    self.stats.uncached_stall_cycles += 1;
                    return false;
                }
                let expected = e.op_val(0);
                let result = port.csb_flush(pid, addr, expected);
                if result == expected {
                    self.stats.flush_successes += 1;
                } else {
                    self.stats.flush_failures += 1;
                }
                *uncached_budget -= 1;
                let done_at = now + self.cfg.flush_latency;
                let e = &mut self.rob[0];
                e.value = result;
                e.mem_started = true;
                e.st = St::Exec { done_at };
                self.worked = true;
                self.sched.inflight.insert(self.rob.head);
                false
            }
            (
                Inst::Store { .. } | Inst::StoreF { .. },
                AddressSpace::Uncached | AddressSpace::UncachedCombining,
            ) => {
                if *uncached_budget == 0 {
                    return false;
                }
                let (val, width) = (e.op_val(0), mem_width(&e.inst));
                let combining = space == AddressSpace::UncachedCombining;
                let accepted = if combining {
                    port.csb_store(pid, addr, width, val)
                } else {
                    port.uncached_store(addr, width, val)
                };
                if !accepted {
                    self.stats.uncached_stall_cycles += 1;
                    return false;
                }
                *uncached_budget -= 1;
                self.stats.combining_stores += u64::from(combining);
                let e = &mut self.rob[0];
                e.st = St::Done;
                e.t_issue = Some(now);
                e.t_complete = Some(now);
                self.commit_head(port);
                *budget -= 1;
                true
            }
            (Inst::Swap { .. }, AddressSpace::Uncached)
            | (Inst::Load { .. }, AddressSpace::Uncached | AddressSpace::UncachedCombining) => {
                // One bus round trip through the uncached buffer. Uncached
                // loads bypass combined stores (§3.2), so both spaces route
                // here; a swap to plain uncached space writes its new value
                // on the same trip.
                if e.mem_started {
                    return false;
                }
                if *uncached_budget == 0 {
                    return false;
                }
                let swap = matches!(e.inst, Inst::Swap { .. }).then(|| e.op_val(0));
                if !port.uncached_read(addr, mem_width(&e.inst), swap, e.seq) {
                    self.stats.uncached_stall_cycles += 1;
                    return false;
                }
                *uncached_budget -= 1;
                let e = &mut self.rob[0];
                e.mem_started = true;
                e.st = St::UncachedWait;
                self.worked = true;
                self.sched.inflight.insert(self.rob.head);
                false
            }
            // Cached loads/stores never reach here in AddrReady at the
            // head for long: issue() advances them. Stall until it does.
            _ => false,
        }
    }

    /// Commits the head entry (which must be `Done`).
    fn commit_head<P: MemPort>(&mut self, port: &mut P) {
        let e = self.rob.pop_front();
        self.front_seq = e.seq + 1;
        self.worked = true;
        debug_assert_eq!(e.st, St::Done);
        let now = self.now;
        self.record_trace(&e, Some(now));
        self.obs.emit_with(Track::Cpu, || EventKind::Retire {
            pc: e.pc,
            inst: e.inst.to_string(),
        });

        // Cached stores write memory at commit (release semantics of the
        // store buffer); uncached stores were delivered at head-issue time.
        if let (Inst::Store { .. } | Inst::StoreF { .. }, Some(AddressSpace::Cached)) =
            (&e.inst, e.space)
        {
            let addr = e.addr.expect("store has address");
            port.cached_access(addr, AccessKind::Write, now);
            port.write(addr, mem_width(&e.inst), e.op_val(0));
        }

        // Architectural register update.
        if let Some(d) = e.inst.def() {
            match d {
                RegRef::Int(r) => self.ctx.set_int_reg(r, e.value),
                RegRef::Fp(r) => self.ctx.set_fp_reg(r, e.value),
                RegRef::Cc => self.ctx.set_cc(e.value),
            }
            self.rename.remove_if(d, e.seq);
        }

        // Committed pc.
        let next_pc = if e.inst.kind() == InstKind::Branch {
            e.value as usize
        } else {
            e.pc + 1
        };
        self.ctx.set_pc(next_pc);

        // Bookkeeping.
        self.stats.retired += 1;
        self.metrics.timeline_mark(now, TimelineEvent::Retired);
        match e.inst.kind() {
            InstKind::Load => {
                self.stats.loads += 1;
                if e.space.is_some_and(|s| s.is_uncached()) {
                    self.stats.uncached_ops += 1;
                }
            }
            InstKind::Store => {
                self.stats.stores += 1;
                if e.space.is_some_and(|s| s.is_uncached()) {
                    self.stats.uncached_ops += 1;
                }
            }
            InstKind::Swap if e.space.is_some_and(|s| s.is_uncached()) => {
                self.stats.uncached_ops += 1;
            }
            InstKind::Mark => {
                if let Inst::Mark { id } = e.inst {
                    self.stats.marks.entry(id).or_default().push(now);
                }
            }
            InstKind::Halt => {
                self.halted = true;
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Issue: out-of-order dispatch-queue scan, oldest first.
    // ------------------------------------------------------------------
    fn issue<P: MemPort>(&mut self, port: &mut P) {
        let now = self.now;
        let mut int_avail = self.cfg.int_units;
        let mut fp_avail = self.cfg.fp_units;
        let mut agen_avail = self.cfg.agen_units;

        let mut cursor = self.rob.next_in(&self.sched.ready, 0);
        while let Some(idx) = cursor {
            if int_avail == 0 && fp_avail == 0 && agen_avail == 0 {
                break;
            }
            cursor = self.rob.next_in(&self.sched.ready, idx + 1);
            let slot = self.rob.wrap(idx);
            match self.rob[idx].st {
                St::Waiting => {
                    let kind = self.rob[idx].inst.kind();
                    let (avail, latency) = match kind {
                        InstKind::IntAlu | InstKind::Branch => {
                            (&mut int_avail, self.cfg.int_latency)
                        }
                        InstKind::FpAlu => (&mut fp_avail, self.cfg.fp_latency),
                        InstKind::Load | InstKind::Store | InstKind::Swap => {
                            (&mut agen_avail, self.cfg.agen_latency)
                        }
                        // Nop/Mark/Halt/Membar were Done at dispatch.
                        _ => continue,
                    };
                    if *avail == 0 {
                        continue;
                    }
                    if !self.ops_ready(idx) {
                        // The completed producers' operands are rewritten;
                        // the others' completion brings it back.
                        self.sched.ready.remove(slot);
                        continue;
                    }
                    *avail -= 1;
                    self.sched.start(slot);
                    self.worked = true;
                    let e = &self.rob[idx];
                    if e.inst.is_mem() {
                        let base_idx = match e.inst {
                            Inst::Load { .. } => 0,
                            _ => 1, // Store/StoreF/Swap: [data, base]
                        };
                        let offset = match e.inst {
                            Inst::Load { offset, .. }
                            | Inst::Store { offset, .. }
                            | Inst::StoreF { offset, .. }
                            | Inst::Swap { offset, .. } => offset,
                            _ => unreachable!(),
                        };
                        let addr = Addr::new(e.op_val(base_idx)).offset(offset);
                        let space = port.space_of(addr);
                        let e = &mut self.rob[idx];
                        e.addr = Some(addr);
                        e.space = Some(space);
                        e.t_issue = Some(now);
                        e.st = St::Agen {
                            done_at: now + latency,
                        };
                    } else {
                        let value = self.compute(e);
                        let e = &mut self.rob[idx];
                        e.value = value;
                        e.t_issue = Some(now);
                        e.st = St::Exec {
                            done_at: now + latency,
                        };
                    }
                }
                St::AddrReady => {
                    if self.rob[idx].inst.kind() == InstKind::Store {
                        // Completes now; memory written at commit.
                        let e = &mut self.rob[idx];
                        e.st = St::Done;
                        e.t_complete = Some(now);
                        self.worked = true;
                        self.sched.ready.remove(slot);
                    } else if agen_avail > 0 && self.load_may_proceed(idx) {
                        agen_avail -= 1;
                        let e = &self.rob[idx];
                        let (addr, width) = (e.addr.unwrap(), mem_width(&e.inst));
                        let done_at = port.cached_access(addr, AccessKind::Read, now);
                        let value = port.read(addr, width);
                        let e = &mut self.rob[idx];
                        e.value = value;
                        e.st = St::MemAccess { done_at };
                        self.worked = true;
                        self.sched.start(slot);
                    }
                }
                st => unreachable!("issue candidate set names a {st:?} entry"),
            }
        }
    }

    /// Conservative memory disambiguation: a cached load may start only when
    /// no older store/atomic might write an overlapping byte.
    fn load_may_proceed(&self, idx: usize) -> bool {
        let (l_addr, l_w) = {
            let e = &self.rob[idx];
            (
                e.addr.expect("load addr known").raw(),
                mem_width(&e.inst) as u64,
            )
        };
        for older in self.rob.iter().take(idx) {
            let is_write = matches!(older.inst.kind(), InstKind::Store | InstKind::Swap);
            if !is_write {
                continue;
            }
            match older.addr {
                None => return false, // unknown address: must wait
                Some(a) => {
                    let (s_addr, s_w) = (a.raw(), mem_width(&older.inst) as u64);
                    if l_addr < s_addr + s_w && s_addr < l_addr + l_w {
                        return false; // overlap: wait for the store to retire
                    }
                }
            }
        }
        true
    }

    /// Computes the result of a ready ALU/branch instruction.
    fn compute(&self, e: &RobEntry) -> u64 {
        match e.inst {
            Inst::Alu { op, a: _, b, .. } => {
                let av = e.op_val(0);
                let bv = match b {
                    Operand::Imm(i) => i as u64,
                    Operand::Reg(_) => e.op_val(1),
                };
                op.apply(av, bv)
            }
            Inst::Movi { imm, .. } => imm as u64,
            Inst::Fpu { op, .. } => op.apply(e.op_val(0), e.op_val(1)),
            Inst::FMovi { bits, .. } => bits,
            Inst::Cmp { b, .. } => {
                let av = e.op_val(0);
                let bv = match b {
                    Operand::Imm(i) => i as u64,
                    Operand::Reg(_) => e.op_val(1),
                };
                flags_of(av, bv)
            }
            Inst::Branch { cond, .. } => {
                let flags = if cond == Cond::Always { 0 } else { e.op_val(0) };
                let taken = cond_holds(cond, flags);
                let next = if taken {
                    self.program.branch_target(&e.inst)
                } else {
                    e.pc + 1
                };
                next as u64
            }
            ref other => panic!("compute on {other}"),
        }
    }

    // ------------------------------------------------------------------
    // Dispatch: fetch queue -> ROB, with register renaming.
    // ------------------------------------------------------------------
    fn dispatch<P: MemPort>(&mut self, _port: &mut P) {
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let Some(f) = self.fetch_q.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;

            let slot = self.rob.wrap(self.rob.len());
            let mut waits = false;
            let mut ops = Ops::EMPTY;
            let mut regs = [RegRef::Cc; 3];
            let nregs = f.inst.uses_into(&mut regs);
            for &reg in &regs[..nregs] {
                let src = match self.rename.get(reg) {
                    Some(pseq) => {
                        let idx = (pseq - self.front_seq) as usize;
                        let p = &self.rob[idx];
                        if p.st == St::Done {
                            Src::Ready(p.value)
                        } else {
                            waits = true;
                            self.sched.add_consumer(self.rob.wrap(idx), slot);
                            Src::Wait(pseq)
                        }
                    }
                    None => Src::Ready(self.arch_value(reg)),
                };
                ops.push(OperandSlot { reg, src });
            }
            if let Some(d) = f.inst.def() {
                self.rename.insert(d, seq);
            }

            let st = match f.inst.kind() {
                InstKind::Nop | InstKind::Mark | InstKind::Halt | InstKind::Membar => St::Done,
                _ => St::Waiting,
            };
            if st == St::Waiting && !waits {
                self.sched.ready.insert(slot);
            }
            self.rob.push_back(RobEntry {
                seq,
                pc: f.pc,
                inst: f.inst,
                st,
                ops,
                value: 0,
                addr: None,
                space: None,
                predicted_next: f.predicted_next,
                mem_started: false,
                t_fetch: f.t_fetch,
                t_dispatch: self.now,
                t_issue: None,
                t_complete: None,
            });
            self.worked = true;
        }
    }

    // ------------------------------------------------------------------
    // Fetch: static backward-taken / forward-not-taken prediction.
    // ------------------------------------------------------------------
    fn fetch(&mut self) {
        if self.fetch_stopped {
            return;
        }
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_q.len() >= self.cfg.fetch_queue {
                break;
            }
            let Some(inst) = self.program.fetch(self.fetch_pc) else {
                self.fetch_stopped = true;
                break;
            };
            let predicted_next = match inst {
                Inst::Branch { cond, .. } => {
                    let target = self.program.branch_target(&inst);
                    if cond == Cond::Always || target <= self.fetch_pc {
                        target
                    } else {
                        self.fetch_pc + 1
                    }
                }
                _ => self.fetch_pc + 1,
            };
            self.fetch_q.push_back(Fetched {
                pc: self.fetch_pc,
                inst,
                predicted_next,
                t_fetch: self.now,
            });
            self.worked = true;
            if matches!(inst, Inst::Halt) {
                self.fetch_stopped = true;
                break;
            }
            self.fetch_pc = predicted_next;
        }
    }

    /// `true` if the machine has no in-flight instructions (ROB and fetch
    /// queue empty) — a safe point for a context switch that must not
    /// replay committed work.
    pub fn pipeline_empty(&self) -> bool {
        self.rob.is_empty() && self.fetch_q.is_empty()
    }

    /// The resolved address of the ROB head's memory op, if any — the
    /// address the naive loop's per-cycle refusal events
    /// (`uncached.full` / `csb.busy`) carry, which the fast-forward walk
    /// needs to synthesize those events inside a jump.
    pub fn head_addr(&self) -> Option<Addr> {
        self.rob.front().and_then(|e| e.addr)
    }
}

// Membar retirement gating lives in `retire` via commit ordering: a membar
// is `Done` from dispatch but `commit_head` must not run until the uncached
// buffer drains. That check needs the port, so it is done here rather than
// in `commit_head`.
impl Cpu {
    fn membar_blocked<P: MemPort>(&mut self, port: &P) -> bool {
        if self
            .rob
            .front()
            .is_some_and(|e| e.inst.kind() == InstKind::Membar)
            && !port.uncached_drained()
        {
            self.stats.membar_stall_cycles += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests;
