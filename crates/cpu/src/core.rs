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
use csb_snap::{Codec, SnapshotError};

use crate::config::CpuConfig;
use crate::context::CpuContext;
use crate::port::MemPort;
use crate::stats::CpuStats;
use crate::trace::{InstTrace, Recorder, Stage};

mod periodic;

pub use periodic::stream::{StreamAnchor, StreamPeriod, TextRun};
use periodic::LoopDetector;

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
/// `Vec` allocation. Slots past `len` are never read; dispatch leaves
/// what an earlier entry wrote there.
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
    /// Fetch cycle: the loop detector's fill clock (see
    /// [`Cpu::skip_loop_periods`]), and the diagram's `F`.
    t_fetch: u64,
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
        t_fetch: 0,
    };

    /// `true` once the entry's head-triggered memory action has started,
    /// so that it must never replay: a swap (cached, conditional flush or
    /// uncached) or an uncached load past `AddrReady`. The head starts
    /// each from `AddrReady`, and nothing else leaves it for these states.
    fn mem_started(&self) -> bool {
        let past_head_action = matches!(
            self.st,
            St::MemAccess { .. } | St::Exec { .. } | St::UncachedWait | St::Done
        );
        past_head_action
            && match self.inst.kind() {
                InstKind::Swap => true,
                InstKind::Load => self.space.is_some_and(AddressSpace::is_uncached),
                _ => false,
            }
    }

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
#[derive(Debug, Default)]
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

    /// Appends an entry at the tail and returns its slot, which still
    /// holds the entry that last used it: the caller writes every field.
    #[inline]
    fn push_back(&mut self) -> &mut RobEntry {
        debug_assert!(self.len < self.slots.len(), "ROB ring overflow");
        let p = self.wrap(self.len);
        self.len += 1;
        &mut self.slots[p]
    }

    /// Pops the head entry and returns its slot, where it stays until a
    /// later push reuses the slot.
    #[inline]
    fn pop_front(&mut self) -> usize {
        debug_assert!(self.len > 0, "pop on empty ROB");
        let slot = self.head;
        self.head = self.wrap(1);
        self.len -= 1;
        slot
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

    /// The index of the oldest slot at index `idx` or younger in the set
    /// whose `w`-th word is `word(w)` (laid out like a [`SlotSet`]): the
    /// ring is walked from index `idx` a word's worth of slots at a time,
    /// wrapping at the ring's end.
    #[inline]
    fn next_in(&self, mut word: impl FnMut(usize) -> u64, mut idx: usize) -> Option<usize> {
        let cap = self.slots.len();
        let mut p = self.wrap(idx);
        while idx < self.len {
            // The slots from `p` to the end of its word, of the ring and
            // of the ROB.
            let span = (64 - p % 64).min(cap - p).min(self.len - idx);
            let bits = (word(p / 64) >> (p % 64)) & (!0 >> (64 - span));
            if bits != 0 {
                return Some(idx + bits.trailing_zeros() as usize);
            }
            idx += span;
            p += span;
            if p == cap {
                p = 0;
            }
        }
        None
    }
}

/// A set of ROB ring slots, one bit per slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

    #[inline]
    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Word `w` of the set, for [`Rob::next_in`].
    #[inline]
    fn word(&self, w: usize) -> u64 {
        self.words[w]
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    /// One set per [`Unit`] class: the entries that need one of its units
    /// to move, ready or not. A `Waiting` entry is in its instruction's
    /// class and an `AddrReady` cached load in [`Unit::Agen`]'s. An
    /// `AddrReady` cached store is in none: issue completes it without a
    /// unit, so it moves while any class still has one free.
    units: [SlotSet; Unit::COUNT],
    /// One row per producer slot, each laid out like a [`SlotSet`]: the
    /// `Waiting` slots with an operand still waiting on that producer,
    /// moved into `ready` when it turns `Done`.
    consumers: Box<[u64]>,
}

/// A class of functional units, each with its own per-cycle issue budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    /// Integer ALU operations and branches.
    Int,
    /// Floating-point operations.
    Fp,
    /// Address generation for loads, stores and swaps, and the start of a
    /// cached load's access.
    Agen,
}

impl Unit {
    const COUNT: usize = 3;

    /// The class a `Waiting` instruction of `kind` issues to; `None` for
    /// the kinds dispatch completes at once.
    fn of(kind: InstKind) -> Option<Unit> {
        match kind {
            InstKind::IntAlu | InstKind::Branch => Some(Unit::Int),
            InstKind::FpAlu => Some(Unit::Fp),
            InstKind::Load | InstKind::Store | InstKind::Swap => Some(Unit::Agen),
            InstKind::Nop | InstKind::Mark | InstKind::Halt | InstKind::Membar => None,
        }
    }
}

impl Sched {
    fn new(cap: usize) -> Self {
        let ready = SlotSet::new(cap);
        Sched {
            inflight: SlotSet::new(cap),
            units: std::array::from_fn(|_| SlotSet::new(cap)),
            consumers: vec![0; cap * ready.words.len()].into_boxed_slice(),
            ready,
        }
    }

    /// `slot`'s entry needs a unit of `unit` to move.
    #[inline]
    fn needs(&mut self, unit: Unit, slot: usize) {
        self.units[unit as usize].insert(slot);
    }

    /// Word `w` of the issue candidates, less the members of every class
    /// whose mask in `spent` is `!0` (a class with no unit left this
    /// cycle; 0 for the others).
    #[inline]
    fn candidates(&self, spent: &[u64; Unit::COUNT], w: usize) -> u64 {
        let blocked = (0..Unit::COUNT).fold(0, |b, c| b | self.units[c].word(w) & spent[c]);
        self.ready.word(w) & !blocked
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
        self.units.iter_mut().for_each(SlotSet::clear);
        self.consumers.fill(0);
        for idx in 0..rob.len() {
            let slot = rob.wrap(idx);
            let e = &rob[idx];
            match e.st {
                St::Agen { .. } | St::Exec { .. } | St::MemAccess { .. } | St::UncachedWait => {
                    self.inflight.insert(slot);
                }
                St::AddrReady if is_cached_load_or_store(e) => self.addr_ready(e, slot),
                St::Waiting => {
                    if let Some(unit) = Unit::of(e.inst.kind()) {
                        self.needs(unit, slot);
                    }
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

    /// `slot`'s entry, a cached load or store `e`, learned its address:
    /// it becomes an issue candidate, and a load needs an agen unit.
    #[inline]
    fn addr_ready(&mut self, e: &RobEntry, slot: usize) {
        self.ready.insert(slot);
        if e.inst.kind() == InstKind::Load {
            self.needs(Unit::Agen, slot);
        }
    }

    /// `slot`'s entry started an operation on a unit of `unit`.
    #[inline]
    fn start(&mut self, unit: Unit, slot: usize) {
        self.ready.remove(slot);
        self.units[unit as usize].remove(slot);
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

impl Default for RenameTable {
    fn default() -> Self {
        RenameTable {
            slots: [None; RENAME_SLOTS],
        }
    }
}

impl RenameTable {
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

    /// The map `rob` implies: each register names its youngest in-flight
    /// writer. Dispatch and commit keep the map so; a squash, a restore
    /// and a loop unpack rebuild it here.
    fn rebuild(&mut self, rob: &Rob) {
        self.clear();
        for e in rob.iter() {
            if let Some(d) = e.inst.def() {
                self.insert(d, e.seq);
            }
        }
    }
}

/// A fetch-queue entry. Dispatch reads the instruction from the program
/// by `pc`.
#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: usize,
    predicted_next: usize,
    t_fetch: u64,
}

impl St {
    /// Every state, in snapshot kind order, with its cycle zeroed.
    const KINDS: [St; 7] = [
        St::Waiting,
        St::Agen { done_at: 0 },
        St::AddrReady,
        St::MemAccess { done_at: 0 },
        St::UncachedWait,
        St::Exec { done_at: 0 },
        St::Done,
    ];

    /// Walks the state's kind, then the cycle an in-flight kind ends at.
    fn state(&mut self, s: &mut impl Codec) -> Result<(), SnapshotError> {
        let same = |k: &St| std::mem::discriminant(k) == std::mem::discriminant(self);
        let mut k = St::KINDS.iter().position(same).unwrap_or_default() as u8;
        s.kind(&mut k, St::KINDS.len() as u8, "ROB entry state")?;
        if s.reading() {
            *self = St::KINDS[usize::from(k)];
        }
        match self {
            St::Agen { done_at } | St::MemAccess { done_at } | St::Exec { done_at } => {
                s.u64(done_at)
            }
            _ => Ok(()),
        }
    }
}

impl Src {
    /// Walks the source's kind, then a ready operand's value. A waiting
    /// operand's producer is not stored: [`Cpu::producer`] derives it.
    fn state(&mut self, s: &mut impl Codec) -> Result<(), SnapshotError> {
        let (mut k, mut v) = match *self {
            Src::Ready(v) => (0, v),
            Src::Wait(seq) => (1, seq),
        };
        s.kind(&mut k, 2, "operand source")?;
        if k == 0 {
            s.u64(&mut v)?;
        }
        *self = if k == 0 { Src::Ready(v) } else { Src::Wait(v) };
        Ok(())
    }
}

/// Every address space an entry can hold, in snapshot kind order.
const SPACES: [Option<AddressSpace>; 4] = [
    None,
    Some(AddressSpace::Cached),
    Some(AddressSpace::Uncached),
    Some(AddressSpace::UncachedCombining),
];

/// Re-derives the `Inst` at `pc` of `program` for snapshot restore.
fn fetch_inst(program: &Program, pc: usize) -> Result<Inst, SnapshotError> {
    program
        .fetch(pc)
        .ok_or_else(|| SnapshotError::Corrupt(format!("pc {pc} is outside the restored program")))
}

/// The pc fetch predicts after `inst` at `pc` of `program`: a branch's
/// target if it is unconditional or backward (static backward-taken,
/// forward-not-taken), else the next pc.
fn predict(program: &Program, pc: usize, inst: &Inst) -> usize {
    match *inst {
        Inst::Branch { cond, .. } => {
            let target = program.branch_target(inst);
            if cond == Cond::Always || target <= pc {
                target
            } else {
                pc + 1
            }
        }
        _ => pc + 1,
    }
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
/// with [`Cpu::run`]. `Cpu::default()` is a blank with no program and no
/// ROB storage: only [`Cpu::reset_with`] makes it a core.
#[derive(Debug, Default)]
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
    /// Sequence number of the ROB head; entry `i` has `front_seq + i`.
    front_seq: u64,
    rename: RenameTable,
    halted: bool,
    now: u64,
    stats: CpuStats,
    /// The pipeline diagram's observer, while it records (see
    /// [`Cpu::enable_trace`]).
    pipe: Option<Recorder>,
    /// Structured trace sink (disabled by default; see
    /// [`Cpu::set_trace_sink`]).
    obs: TraceSink,
    /// Metrics registry for stall-run histograms (disabled by default).
    metrics: MetricsRegistry,
    /// First cycle of the uncached-stall run currently in progress.
    uncached_stall_start: Option<u64>,
    /// First cycle of the membar-stall run currently in progress.
    membar_stall_start: Option<u64>,
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
        let mut cpu = Cpu::default();
        cpu.reset_with(cfg, program, ctx);
        cpu
    }

    /// Resets the core in place to its state before the first cycle of
    /// `program` under `cfg` from `ctx`, reusing the ROB ring and
    /// fetch-queue storage when they already fit `cfg` (a blank's never
    /// do). Behaviorally indistinguishable from a fresh core;
    /// observability sinks revert to disabled.
    pub fn reset_with(&mut self, cfg: CpuConfig, program: Program, ctx: CpuContext) {
        if self.rob.slots.len() != cfg.rob_size.max(1) {
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
        self.rename.clear();
        self.halted = false;
        self.now = 0;
        self.stats = CpuStats::default();
        self.pipe = None;
        self.obs = TraceSink::disabled();
        self.metrics = MetricsRegistry::disabled();
        self.uncached_stall_start = None;
        self.membar_stall_start = None;
        self.detector.forget();
    }

    /// Walks the state of the core that nothing else determines: the
    /// committed context, the fetch pc and each fetched pc, the ROB from
    /// its head's sequence number, the counters and the stall-run
    /// bookkeeping. A restore reads into a core fresh from
    /// [`Cpu::reset_with`] under the snapshot's configuration and program,
    /// and derives the rest as dispatch would have left it: each entry's
    /// instruction, prediction and operand registers from its `pc`, its
    /// sequence number from its position, each waiting operand's producer
    /// (the youngest older in-flight writer of its register, or a retired
    /// instruction), the rename map from the ROB, and a result only for
    /// the states that hold one; whether an entry's head action started
    /// follows from its state. The cycle count is the clock.
    /// Host-side state is not stored: the loop detector's fetch cycles
    /// restart at the restore cycle, the pipeline diagram is off, and the
    /// trace sink and metrics registry are wiring the restoring side
    /// re-installs.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a malformed stream, a `pc` the current program
    /// cannot fetch, or a ROB no dispatch builds.
    pub fn state(&mut self, s: &mut impl Codec) -> Result<(), SnapshotError> {
        s.tag("cpu")?;
        self.ctx.state(s)?;
        s.usize(&mut self.fetch_pc)?;
        s.bool(&mut self.fetch_stopped)?;
        let blank = Fetched {
            pc: 0,
            predicted_next: 0,
            t_fetch: 0,
        };
        let (max, program) = (self.cfg.fetch_queue.max(1), &self.program);
        s.list(
            &mut self.fetch_q,
            max,
            "fetched instructions",
            blank,
            |s, f| {
                s.usize(&mut f.pc)?;
                if s.reading() {
                    f.predicted_next = predict(program, f.pc, &fetch_inst(program, f.pc)?);
                }
                Ok(())
            },
        )?;
        s.u64(&mut self.front_seq)?;
        let mut n = self.rob.len();
        s.len(&mut n, self.cfg.rob_size, "ROB entries")?;
        if s.reading() {
            if self.front_seq.checked_add(n as u64).is_none() {
                return Err(SnapshotError::Corrupt(format!(
                    "{n} ROB entries from sequence number {}",
                    self.front_seq
                )));
            }
            for _ in 0..n {
                *self.rob.push_back() = RobEntry::EMPTY;
            }
        }
        for i in 0..n {
            let e = &mut self.rob[i];
            s.usize(&mut e.pc)?;
            if s.reading() {
                e.inst = fetch_inst(&self.program, e.pc)?;
                e.seq = self.front_seq + i as u64;
                e.predicted_next = predict(&self.program, e.pc, &e.inst);
                let mut regs = [RegRef::Cc; 3];
                e.ops.len = e.inst.uses_into(&mut regs) as u8;
                for (op, reg) in e.ops.slots.iter_mut().zip(regs) {
                    op.reg = reg;
                }
            }
            e.st.state(s)?;
            for op in &mut e.ops.slots[..usize::from(e.ops.len)] {
                op.src.state(s)?;
            }
            if matches!(e.st, St::Exec { .. } | St::MemAccess { .. } | St::Done) {
                s.u64(&mut e.value)?;
            }
            let mut addr = e.addr.map(Addr::raw);
            s.opt_u64(&mut addr)?;
            e.addr = addr.map(Addr::new);
            let space = SPACES.iter().position(|sp| *sp == e.space);
            let mut k = space.unwrap_or_default() as u8;
            s.kind(&mut k, SPACES.len() as u8, "address space")?;
            e.space = SPACES[usize::from(k)];
        }
        if s.reading() {
            for i in 0..n {
                for j in 0..usize::from(self.rob[i].ops.len) {
                    let op = self.rob[i].ops.slots[j];
                    if let Src::Wait(_) = op.src {
                        let p = self.producer(i, op.reg).ok_or_else(|| {
                            SnapshotError::Corrupt(format!(
                                "ROB entry {i} waits on {:?}, which nothing wrote",
                                op.reg
                            ))
                        })?;
                        self.rob[i].ops.slots[j].src = Src::Wait(p);
                    }
                }
            }
            self.rename.rebuild(&self.rob);
            self.sched.rebuild(&self.rob, self.front_seq);
        }
        s.bool(&mut self.halted)?;
        s.u64(&mut self.now)?;
        let st = &mut self.stats;
        st.cycles = self.now;
        for v in [
            &mut st.retired,
            &mut st.squashed,
            &mut st.mispredicts,
            &mut st.loads,
            &mut st.stores,
            &mut st.uncached_ops,
            &mut st.combining_stores,
            &mut st.flush_successes,
            &mut st.flush_failures,
            &mut st.uncached_stall_cycles,
            &mut st.membar_stall_cycles,
        ] {
            s.u64(v)?;
        }
        let mut ids: Vec<u32> = st.marks.keys().copied().collect();
        ids.sort_unstable();
        s.list(&mut ids, usize::MAX, "marks", 0, |s, id| {
            s.u32(id)?;
            if s.reading() && st.marks.contains_key(id) {
                return Err(SnapshotError::Corrupt(format!("mark {id} listed twice")));
            }
            let cycles = st.marks.entry(*id).or_default();
            s.list(cycles, usize::MAX, "mark cycles", 0, |s, c| s.u64(c))
        })?;
        s.opt_u64(&mut self.uncached_stall_start)?;
        s.opt_u64(&mut self.membar_stall_start)?;
        if s.reading() {
            let now = self.now;
            self.fetch_q.iter_mut().for_each(|f| f.t_fetch = now);
            for i in 0..self.rob.len() {
                self.rob[i].t_fetch = now;
            }
        }
        Ok(())
    }

    /// The producer a waiting operand of `rob[idx]` reading `reg` names:
    /// the youngest older in-flight writer of `reg`, which dispatch named
    /// and which has not retired, or else the last retired instruction
    /// (any retired producer's value is architectural). `None` when
    /// nothing has retired either.
    fn producer(&self, idx: usize, reg: RegRef) -> Option<u64> {
        match (0..idx)
            .rev()
            .find(|&j| self.rob[j].inst.def() == Some(reg))
        {
            Some(j) => Some(self.front_seq + j as u64),
            None => self.front_seq.checked_sub(1),
        }
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

    /// Starts recording one [`InstTrace`] per instruction dispatched from
    /// now on that leaves the pipeline (retired or squashed), for
    /// [`Cpu::trace`] / [`crate::trace::render`]. Costs memory per
    /// instruction; intended for short diagnostic runs. The recording is
    /// wiring, not machine state: a reset or restore turns it off.
    pub fn enable_trace(&mut self) {
        if self.pipe.is_none() {
            self.pipe = Some(Recorder::new(self.rob.slots.len()));
        }
    }

    /// The recorded pipeline trace (empty unless enabled).
    pub fn trace(&self) -> &[InstTrace] {
        self.pipe.as_ref().map_or(&[], Recorder::traces)
    }

    /// Reports `stage` of the entry in ring slot `slot` to the pipeline
    /// diagram's observer, if it records.
    #[inline]
    fn stage(pipe: &mut Option<Recorder>, slot: usize, stage: Stage, now: u64) {
        if let Some(p) = pipe {
            p.stage(slot, stage, now);
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
        self.rob.front().is_none_or(|e| !e.mem_started())
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
        self.front_seq += self.rob.len() as u64;
        self.rob.clear();
        self.sched.rebuild(&self.rob, self.front_seq);
        self.detector.switch();
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
        let mut cursor = self.rob.next_in(|w| self.sched.inflight.word(w), 0);
        while let Some(idx) = cursor {
            cursor = self.rob.next_in(|w| self.sched.inflight.word(w), idx + 1);
            let slot = self.rob.wrap(idx);
            let e = &mut self.rob[idx];
            match e.st {
                St::Agen { done_at } if done_at <= now => {
                    e.st = St::AddrReady;
                    self.sched.inflight.remove(slot);
                    if is_cached_load_or_store(e) {
                        self.sched.addr_ready(e, slot);
                    }
                }
                St::Exec { done_at } if done_at <= now => {
                    e.st = St::Done;
                    Self::stage(&mut self.pipe, slot, Stage::Complete, now);
                    self.sched.complete(slot);
                    if e.inst.kind() == InstKind::Branch && e.value as usize != e.predicted_next {
                        redirect = Some((idx, e.value as usize));
                        break;
                    }
                }
                St::MemAccess { done_at } if done_at <= now => {
                    e.st = St::Done;
                    Self::stage(&mut self.pipe, slot, Stage::Complete, now);
                    self.sched.complete(slot);
                }
                St::UncachedWait => {
                    if let Some(v) = port.uncached_poll(e.seq) {
                        let e = &mut self.rob[idx];
                        e.value = v;
                        e.st = St::Done;
                        Self::stage(&mut self.pipe, slot, Stage::Complete, now);
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
            // Fetch read up to the fetch pc at most (a halt stops it there).
            self.detector.stream.span.jumped(self.fetch_pc, next);
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
        if let Some(p) = &mut self.pipe {
            for i in idx + 1..self.rob.len() {
                let e = &self.rob[i];
                p.leave(self.rob.wrap(i), e.seq, e.pc, &e.inst, e.t_fetch, None);
            }
        }
        // New dispatches reuse the squashed sequence numbers, so that
        // `rob[i].seq == front_seq + i` keeps holding. Squashed entries
        // never issued uncached transactions (only the ROB head does), so
        // their tags cannot be in flight.
        self.rob.truncate(idx + 1);
        self.sched.rebuild(&self.rob, self.front_seq);
        self.detector.reset();
        self.rename.rebuild(&self.rob);
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
                let new = e.op_val(0);
                let done_at = port.cached_access(addr, AccessKind::Atomic, now);
                let old = port.swap_value(addr, new);
                let e = &mut self.rob[0];
                e.value = old;
                e.st = St::MemAccess { done_at };
                self.sched.inflight.insert(self.rob.head);
                false
            }
            (Inst::Swap { .. }, AddressSpace::UncachedCombining) => {
                // The conditional flush (§3.2).
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
                e.st = St::Exec { done_at };
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
                self.rob[0].st = St::Done;
                let head = self.rob.head;
                Self::stage(&mut self.pipe, head, Stage::Issue, now);
                Self::stage(&mut self.pipe, head, Stage::Complete, now);
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
                if *uncached_budget == 0 {
                    return false;
                }
                let swap = matches!(e.inst, Inst::Swap { .. }).then(|| e.op_val(0));
                if !port.uncached_read(addr, mem_width(&e.inst), swap, e.seq) {
                    self.stats.uncached_stall_cycles += 1;
                    return false;
                }
                *uncached_budget -= 1;
                self.rob[0].st = St::UncachedWait;
                self.sched.inflight.insert(self.rob.head);
                false
            }
            // Cached loads/stores never reach here in AddrReady at the
            // head for long: issue() advances them. Stall until it does.
            _ => false,
        }
    }

    /// Commits the head entry (which must be `Done`), reading it in its
    /// ring slot.
    fn commit_head<P: MemPort>(&mut self, port: &mut P) {
        let slot = self.rob.pop_front();
        let e = &self.rob.slots[slot];
        self.front_seq = e.seq + 1;
        debug_assert_eq!(e.st, St::Done);
        let now = self.now;
        if let Some(p) = &mut self.pipe {
            p.leave(slot, e.seq, e.pc, &e.inst, e.t_fetch, Some(now));
        }
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
    /// Visits the issue candidates oldest first, passing over those whose
    /// unit class has no unit left this cycle, until every class is spent.
    fn issue<P: MemPort>(&mut self, port: &mut P) {
        let now = self.now;
        let cfg = &self.cfg;
        let mut avail = [cfg.int_units, cfg.fp_units, cfg.agen_units];
        let latency = [cfg.int_latency, cfg.fp_latency, cfg.agen_latency];
        // `!0` for a class with no unit left (see `Sched::candidates`).
        let mut spent = avail.map(|n| if n == 0 { !0 } else { 0 });
        let mut open = avail.iter().filter(|&&n| n > 0).count();
        let mut from = 0;
        // The candidate word last derived, by word index: derived once per
        // pass and again only when a class runs out of units. Every bit a
        // visit clears lies at or below the cursor, so the word stays exact.
        let mut word = (usize::MAX, 0);
        while open > 0 {
            let candidates = |w| {
                if word.0 != w {
                    word = (w, self.sched.candidates(&spent, w));
                }
                word.1
            };
            let Some(idx) = self.rob.next_in(candidates, from) else {
                break;
            };
            from = idx + 1;
            let slot = self.rob.wrap(idx);
            let used = match self.rob[idx].st {
                St::Waiting => match Unit::of(self.rob[idx].inst.kind()) {
                    // Nop/Mark/Halt/Membar were Done at dispatch.
                    None => None,
                    Some(_) if !self.ops_ready(idx) => {
                        // The completed producers' operands are rewritten;
                        // the others' completion brings it back.
                        self.sched.ready.remove(slot);
                        None
                    }
                    Some(unit) => {
                        let done_at = now + latency[unit as usize];
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
                            self.detector.stream.span.computed(addr.raw());
                            let e = &mut self.rob[idx];
                            e.addr = Some(addr);
                            e.space = Some(space);
                            e.st = St::Agen { done_at };
                        } else {
                            let value = self.compute(e);
                            let e = &mut self.rob[idx];
                            e.value = value;
                            e.st = St::Exec { done_at };
                        }
                        Self::stage(&mut self.pipe, slot, Stage::Issue, now);
                        Some(unit)
                    }
                },
                St::AddrReady if self.rob[idx].inst.kind() == InstKind::Store => {
                    // Completes now; memory written at commit.
                    self.rob[idx].st = St::Done;
                    Self::stage(&mut self.pipe, slot, Stage::Complete, now);
                    self.sched.ready.remove(slot);
                    None
                }
                St::AddrReady if self.load_may_proceed(idx) => {
                    let e = &self.rob[idx];
                    let (addr, width) = (e.addr.unwrap(), mem_width(&e.inst));
                    let done_at = port.cached_access(addr, AccessKind::Read, now);
                    let value = port.read(addr, width);
                    let e = &mut self.rob[idx];
                    e.value = value;
                    e.st = St::MemAccess { done_at };
                    Some(Unit::Agen)
                }
                St::AddrReady => None,
                st => unreachable!("issue candidate set names a {st:?} entry"),
            };
            if let Some(unit) = used {
                self.sched.start(unit, slot);
                let c = unit as usize;
                debug_assert!(avail[c] > 0, "issued to a spent {unit:?} class");
                avail[c] -= 1;
                if avail[c] == 0 {
                    spent[c] = !0;
                    open -= 1;
                    word.0 = usize::MAX;
                }
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
    /// Moves up to `fetch_width` fetched instructions into the ROB,
    /// writing each entry, operands included, straight into its ring slot.
    fn dispatch<P: MemPort>(&mut self, _port: &mut P) {
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_size {
                break;
            }
            let Some(f) = self.fetch_q.pop_front() else {
                break;
            };
            // Fetch queues only pcs inside the program.
            let inst = self.program[f.pc];
            let seq = self.front_seq + self.rob.len() as u64;

            let slot = self.rob.wrap(self.rob.len());
            let mut waits = false;
            let mut regs = [RegRef::Cc; 3];
            let nregs = inst.uses_into(&mut regs);
            for (i, &reg) in regs[..nregs].iter().enumerate() {
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
                self.rob.slots[slot].ops.slots[i] = OperandSlot { reg, src };
            }
            if let Some(d) = inst.def() {
                self.rename.insert(d, seq);
            }

            let st = match Unit::of(inst.kind()) {
                Some(unit) => {
                    self.sched.needs(unit, slot);
                    if !waits {
                        self.sched.ready.insert(slot);
                    }
                    St::Waiting
                }
                None => St::Done,
            };
            Self::stage(&mut self.pipe, slot, Stage::Dispatch, self.now);
            let e = self.rob.push_back();
            e.seq = seq;
            e.pc = f.pc;
            e.inst = inst;
            e.st = st;
            e.ops.len = nregs as u8;
            e.value = 0;
            e.addr = None;
            e.space = None;
            e.predicted_next = f.predicted_next;
            e.t_fetch = f.t_fetch;
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
            let predicted_next = predict(&self.program, self.fetch_pc, &inst);
            if predicted_next != self.fetch_pc + 1 {
                // A run of fetched pcs ends here and another starts.
                self.detector
                    .stream
                    .span
                    .jumped(self.fetch_pc, predicted_next);
            }
            self.fetch_q.push_back(Fetched {
                pc: self.fetch_pc,
                predicted_next,
                t_fetch: self.now,
            });
            if matches!(inst, Inst::Halt) {
                self.fetch_stopped = true;
                break;
            }
            self.fetch_pc = predicted_next;
        }
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
