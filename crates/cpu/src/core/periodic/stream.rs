//! Store streams: the settled tail and the steady stream.
//!
//! The figure kernels stream doubleword stores into the uncached buffer or
//! the CSB, one store per cycle at most and usually fewer, as the bus
//! drains them. Two cases let the caller cover such a stream without a
//! real tick per store:
//!
//! - *Settled tail.* Once fetch has stopped with a store at the ROB head
//!   ([`Cpu::store_tail`]), the core drains the stream's tail. Once the
//!   fetch queue is empty too and nothing in the ROB can move but the
//!   head ([`Cpu::tail_settled`]), each cycle is its retire stage alone:
//!   the head store is offered to its buffer, and retires if the buffer
//!   takes it. [`Cpu::tail_cycle`] runs each cycle of the tail; the
//!   caller walks the bus between offers and books the refused cycles of
//!   a settled tail as a jump books them.
//! - *Steady stream.* Where the text repeats every `dpc` instructions up
//!   to a shift of its memory offsets by `da` bytes ([`TextRun`]), the
//!   pipeline can repeat one window of text later with its pcs, store
//!   addresses, sequence numbers and times shifted.
//!   [`Cpu::stream_anchor`] packs the state ([`Cpu::pack_state`]) at the
//!   first observation of each window, its *anchor*, and compares it with
//!   the previous window's. On a repeat the caller, which owns the rest of
//!   the machine, checks that its side repeats as well and replays the
//!   machine's side of the skipped windows itself;
//!   [`Cpu::take_stream_periods`] installs the state those windows end in.
//!
//! A period is exact to skip only if every instruction it reads repeats:
//! the text from the lowest pc in flight at the earlier anchor to the
//! highest one fetched up to the later, shifted once per skipped window.
//! The watch keeps that range, and the range of addresses computed, so
//! that the caller can check that each shifted address lies in the same
//! address space.

use csb_isa::{AddressSpace, Cond, Inst, Program};

use super::{state_words, still_stats, Origin, Period, Shape};
use crate::core::{Cpu, St};
use crate::port::MemPort;

/// The longest period of text, in instructions, a run is looked for with.
const MAX_TEXT_PERIOD: usize = 64;
/// The fewest cycles of a window whose state is packed whatever its
/// signature: the window's ticks outweigh a pack.
const PACKED_WINDOW: u64 = 32;
/// The fewest copies of its period a run holds to be watched: a skip
/// needs two equal anchors after the pipeline has filled, and whole
/// periods of text past them.
const MIN_PERIODS: usize = 6;

/// Text that repeats every `dpc` instructions up to a shift of every
/// memory offset by `da` bytes and every branch target by `dpc`: for each
/// pc `q` in `start..end`, the instruction at `q + dpc` is the one at `q`
/// shifted. A `mark` or `halt` repeats nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextRun {
    /// The first pc of the run.
    pub start: usize,
    /// The first pc past `start` whose instruction does not repeat.
    pub end: usize,
    /// The period, in instructions.
    pub dpc: usize,
    /// The memory offset shift per period, in bytes (two's complement).
    pub da: u64,
    /// The pc the run must end before: the lowest target of a pair of
    /// forward branches a period apart whose targets are not (see
    /// [`shifted`]).
    bound: usize,
}

impl TextRun {
    /// The run starting at `pc`, a memory instruction, with the shortest
    /// period whose memory shift is a multiple of `quantum` and that holds
    /// at least six copies of the period, if any, with its end
    /// verified that far ([`TextRun::extended`] verifies the rest). The
    /// instruction at `pc` and its copy a period later fix the shift.
    pub fn at(program: &Program, pc: usize, quantum: u64) -> Option<TextRun> {
        let x = mem_offset(&program.fetch(pc)?)?;
        (1..=MAX_TEXT_PERIOD).find_map(|dpc| {
            let da = mem_offset(&program.fetch(pc + dpc)?)?.wrapping_sub(x);
            if da.rem_euclid(quantum as i64) != 0 {
                return None;
            }
            let least = pc + (MIN_PERIODS - 1) * dpc;
            let run = TextRun {
                start: pc,
                end: pc,
                dpc,
                da: da as u64,
                bound: usize::MAX,
            }
            .extended(program, least);
            (run.end == least).then_some(run)
        })
    }

    /// The run with its end verified up to `limit` or the first pc that
    /// does not repeat, whichever comes first.
    pub fn extended(mut self, program: &Program, limit: usize) -> TextRun {
        while self.end < limit.min(self.bound) {
            let Some(bound) = shifted(program, self.end, self.dpc, self.da) else {
                break;
            };
            self.bound = self.bound.min(bound);
            self.end += 1;
        }
        self.end = self.end.min(self.bound);
        self
    }

    /// Whole periods the text repeats over beyond the pcs `lo..=hi`: the
    /// windows that can follow one whose instructions all lie there.
    fn periods_past(&self, lo: usize, hi: usize) -> u64 {
        if lo < self.start || hi >= self.end {
            return 0;
        }
        ((self.end - 1 - hi) / self.dpc + 1) as u64
    }
}

/// The byte offset of a memory instruction.
fn mem_offset(inst: &Inst) -> Option<i64> {
    match *inst {
        Inst::Load { offset, .. }
        | Inst::Store { offset, .. }
        | Inst::StoreF { offset, .. }
        | Inst::Swap { offset, .. } => Some(offset),
        _ => None,
    }
}

/// `inst` with its memory offset replaced by `offset`.
fn with_offset(mut inst: Inst, to: i64) -> Inst {
    if let Inst::Load { offset, .. }
    | Inst::Store { offset, .. }
    | Inst::StoreF { offset, .. }
    | Inst::Swap { offset, .. } = &mut inst
    {
        *offset = to;
    }
    inst
}

/// Whether the instruction at `q + dpc` is the one at `q` with its memory
/// offset moved by `da` and its branch target by `dpc`: `None` if not,
/// else the pc a run holding the pair must end before. That is
/// `usize::MAX`, but for a pair of forward conditional branches whose
/// targets do not shift alike (an out-of-line retry, say): fetch predicts
/// both not taken, and a run that ends before both targets keeps every
/// window that takes one from being skipped, since fetch then reads text
/// past the run.
fn shifted(program: &Program, q: usize, dpc: usize, da: u64) -> Option<usize> {
    let (x, y) = (program.fetch(q)?, program.fetch(q + dpc)?);
    match (x, y) {
        (Inst::Mark { .. } | Inst::Halt, _) => None,
        (Inst::Branch { cond: a, .. }, Inst::Branch { cond: b, .. }) if a == b => {
            let (tx, ty) = (program.branch_target(&x), program.branch_target(&y));
            if ty == tx.wrapping_add(dpc) {
                Some(usize::MAX)
            } else {
                (a != Cond::Always && tx > q && ty > q + dpc).then_some(tx.min(ty))
            }
        }
        _ => match mem_offset(&x) {
            Some(offset) => {
                (y == with_offset(x, offset.wrapping_add(da as i64))).then_some(usize::MAX)
            }
            None => (x == y).then_some(usize::MAX),
        },
    }
}

/// The lowest and highest pc fetched and address computed since an
/// anchor. Fetch reads runs of consecutive pcs, and a run starts only at
/// the anchor's fetch pc or where a taken prediction or a redirect sends
/// fetch, and ends only where one leaves or at the next anchor's fetch
/// pc: noting those ends bounds every pc fetched in between.
#[derive(Debug, Clone, Copy)]
pub(in crate::core) struct Span {
    pcs: (usize, usize),
    addrs: (u64, u64),
}

impl Default for Span {
    fn default() -> Self {
        Span {
            pcs: (usize::MAX, 0),
            addrs: (u64::MAX, 0),
        }
    }
}

impl Span {
    /// Fetch left a run at `last` (or before it) for one starting at
    /// `next`.
    #[inline]
    pub(in crate::core) fn jumped(&mut self, last: usize, next: usize) {
        self.pcs = (
            self.pcs.0.min(last).min(next),
            self.pcs.1.max(last).max(next),
        );
    }

    /// Issue computed the address `addr`.
    #[inline]
    pub(in crate::core) fn computed(&mut self, addr: u64) {
        self.addrs = (self.addrs.0.min(addr), self.addrs.1.max(addr));
    }
}

/// The state packed at a window's anchor, and what the next anchor
/// compares with it.
#[derive(Debug, Default)]
struct Anchor {
    words: Vec<u64>,
    now: u64,
    front: u64,
    stats: [u64; 10],
    marks: usize,
    /// The lowest and highest pc in flight (fetch pc included).
    pcs: (usize, usize),
    /// A few fields of the state and the window before it, compared
    /// before the state is packed.
    sig: [u64; 5],
    /// `true` when `words` holds the state.
    packed: bool,
}

/// The store stream at the ROB head: its text run, the latest anchor and
/// what was fetched and computed since. Derived state beside the loop
/// detector: never serialized, stopped by a context switch, a reset or a
/// restore, and kept across squashes. Its buffers are reserved once, for
/// the core's largest packed stream state.
#[derive(Debug, Default)]
pub(in crate::core) struct StreamWatch {
    run: Option<TextRun>,
    /// The window of the run the latest anchor is in.
    window: usize,
    /// `true` while `anchor` holds the state at the latest anchor.
    anchored: bool,
    anchor: Anchor,
    /// Scratch for the state at the next anchor.
    current: Vec<u64>,
    /// Head pcs where a search for a run found none, so none starts.
    quiet: std::ops::Range<usize>,
    /// Head pcs at which nothing is to do: the latest anchor's window, or
    /// `quiet`.
    idle: std::ops::Range<usize>,
    /// Pcs fetched and addresses computed since the latest anchor.
    pub(in crate::core) span: Span,
    /// The period found at the latest anchor and the most periods the
    /// text allows, until they are taken.
    found: Option<(Period, u64)>,
}

impl StreamWatch {
    /// Stops watching: the next store at the head searches afresh.
    pub(in crate::core) fn stop(&mut self) {
        self.run = None;
        self.anchored = false;
        self.quiet = 0..0;
        self.idle = 0..0;
        self.found = None;
    }

    /// Stops watching `run`, whose text no later window can skip past:
    /// no search starts inside it either.
    fn exhaust(&mut self, run: TextRun) {
        self.stop();
        self.quiet = run.start..run.end + run.dpc;
        self.idle = self.quiet.clone();
    }
}

/// What [`Cpu::stream_anchor`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamAnchor {
    /// No anchor: the head is in the latest anchor's window, or in no run.
    None,
    /// A first anchor, or one whose state does not repeat the previous:
    /// the caller starts recording the machine's side of the window. Its
    /// addresses are relative to `addr`.
    Fresh {
        /// The window's address origin.
        addr: u64,
    },
    /// The state repeats the previous anchor's, one period later.
    Repeat(StreamPeriod),
}

/// A steady stream's period, as [`Cpu::stream_anchor`] found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPeriod {
    /// Its length in cycles.
    pub cycles: u64,
    /// The most whole periods the text lets the caller skip.
    pub periods: u64,
    /// The window's address origin: the caller prints the machine
    /// relative to it at this anchor, as it did relative to `addr - da`
    /// at the previous one.
    pub addr: u64,
    /// The address shift per period, in bytes (two's complement).
    pub da: u64,
    /// The lowest and highest address computed in the period, if any.
    pub addrs: Option<(u64, u64)>,
}

impl Cpu {
    /// `true` when the core drains the tail of a store stream: fetch has
    /// stopped and the ROB head is an uncached or combining store whose
    /// address and data are ready. Its cycles are [`Cpu::tail_cycle`]s.
    /// Never while a trace records or a stall run is open.
    pub fn store_tail(&self) -> bool {
        self.fetch_stopped
            && self.rob.front().is_some_and(|e| {
                e.st == St::AddrReady
                    && matches!(e.inst, Inst::Store { .. } | Inst::StoreF { .. })
                    && e.space.is_some_and(AddressSpace::is_uncached)
            })
            && self.ops_would_be_ready(0)
            && !self.watched()
    }

    /// `true` when, in a store tail, nothing moves before the head store is
    /// taken: nothing is in flight or can issue, and no fetched
    /// instruction can be dispatched (the fetch queue is empty or the ROB
    /// full). A refused head store then waits for its buffer as a jump
    /// waits.
    pub fn tail_settled(&self) -> bool {
        (self.fetch_q.is_empty() || self.rob.len() >= self.cfg.rob_size)
            && self.sched.inflight.is_empty()
            && self.sched.ready.is_empty()
    }

    /// One cycle of a store tail ([`Cpu::store_tail`]), exactly what
    /// [`Cpu::tick`] does: while the tail is settled and the fetch queue
    /// empty, every stage but retirement finds nothing to do, so the
    /// retire stage runs alone and offers the head store to its buffer;
    /// otherwise the whole tick runs. Returns `true` for a whole tick.
    pub fn tail_cycle<P: MemPort>(&mut self, port: &mut P) -> bool {
        debug_assert!(self.store_tail(), "a tail cycle of a core in no tail");
        if !self.fetch_q.is_empty() || !self.tail_settled() {
            self.tick(port);
            return true;
        }
        self.retire(port);
        self.now += 1;
        self.stats.cycles = self.now;
        false
    }

    /// Watches for a steady store stream. Call it before a real tick on
    /// every cycle the core is active; `quantum` gives, for the address
    /// space of the store at the head of a possible run, the address shift
    /// the buffer behind it is equivariant under (its block or line), or
    /// `None` for a space no stream is watched in. At the first such call
    /// in a window of a text run, the state is packed and compared with
    /// the previous window's; see [`StreamAnchor`]. After a
    /// [`StreamAnchor::Repeat`] the caller may take the periods with
    /// [`Cpu::take_stream_periods`]; the current window becomes the one
    /// the next anchor compares with, whether or not it does.
    pub fn stream_anchor(
        &mut self,
        quantum: impl FnOnce(AddressSpace) -> Option<u64>,
    ) -> StreamAnchor {
        let Some(head) = self.rob.front() else {
            return StreamAnchor::None;
        };
        let w = &mut self.detector.stream;
        // Most calls end here: the head is still in the latest anchor's
        // window, or in text a search or a run already ruled out.
        if w.idle.contains(&head.pc) {
            return StreamAnchor::None;
        }
        let pc = head.pc;
        w.found = None;
        let run = match w.run {
            Some(run) if (run.start..run.end).contains(&pc) => run,
            _ => {
                w.run = None;
                w.anchored = false;
                let store = matches!(head.inst, Inst::Store { .. } | Inst::StoreF { .. });
                let Some(quantum) = head.space.filter(|_| store).and_then(quantum) else {
                    return StreamAnchor::None;
                };
                if w.quiet.contains(&pc) {
                    return StreamAnchor::None;
                }
                let Some(run) = TextRun::at(&self.program, pc, quantum) else {
                    w.quiet = pc..pc + MAX_TEXT_PERIOD;
                    w.idle = w.quiet.clone();
                    return StreamAnchor::None;
                };
                let words = state_words(&self.cfg, true);
                for buf in [&mut w.anchor.words, &mut w.current] {
                    buf.reserve_exact(words.saturating_sub(buf.len()));
                }
                // The pipeline is still filling at the run's first window:
                // the first anchor is the next window's.
                w.run = Some(run);
                w.idle = pc..(pc + run.dpc).min(run.end);
                return StreamAnchor::None;
            }
        };
        if self.watched() {
            self.detector.stream.anchored = false;
            return StreamAnchor::None;
        }
        let run = run.extended(&self.program, usize::MAX);
        let w = &mut self.detector.stream;
        let window = (pc - run.start) / run.dpc;
        let repeat = w.anchored && window == w.window + 1;
        // Once fetch is past the run's end, every later window reads text
        // that does not repeat; a window that does not repeat the last
        // one yet needs two more of text ahead of fetch to skip any.
        let ahead = if repeat { 0 } else { 2 * run.dpc };
        if self.fetch_stopped || self.fetch_pc + ahead >= run.end {
            w.exhaust(run);
            return StreamAnchor::None;
        }
        w.run = Some(run);
        let a = &w.anchor;
        let sig = [
            self.rob.len() as u64,
            self.fetch_q.len() as u64,
            self.fetch_pc.wrapping_sub(pc) as u64,
            self.now.wrapping_sub(a.now),
            self.front_seq.wrapping_sub(a.front),
        ];
        // Pack only a state that may repeat the last one, or the next:
        // a cheap signature must repeat, unless the window is long enough
        // for its ticks to outweigh a pack.
        let pack = repeat && (sig == a.sig || sig[3] >= PACKED_WINDOW);
        let at = Origin {
            shape: Shape::Stream,
            pc: run.start + window * run.dpc,
            addr: (window as u64).wrapping_mul(run.da),
            now: self.now,
            front: self.front_seq,
            base: 0,
        };
        w.window = window;
        w.anchored = true;
        w.idle = at.pc..(at.pc + run.dpc).min(run.end);
        let span = std::mem::take(&mut w.span);
        let mut words = std::mem::take(&mut w.current);
        words.clear();
        // Fetch times are left out: no stage reads them, so states that
        // differ only there behave alike, and the instructions fetched
        // while the ROB filled keep their early times until they retire.
        let packed = if pack {
            self.pack_state(at, false, &mut words)
        } else {
            None
        };
        let w = &mut self.detector.stream;
        let Some((lo, hi)) = packed else {
            let a = &mut w.anchor;
            (a.sig, a.now, a.front, a.packed) = (sig, at.now, at.front, false);
            w.current = words;
            return StreamAnchor::None;
        };
        let stats = still_stats(&self.stats);
        let marks = self.stats.marks.values().map(Vec::len).sum();
        let w = &mut self.detector.stream;
        let a = &w.anchor;
        let mut seen = StreamAnchor::Fresh { addr: at.addr };
        if a.packed && words == a.words && marks == a.marks {
            let per = Period {
                cycles: at.now - a.now,
                retired: at.front - a.front,
                drop: 0,
                pc: run.dpc,
                addr: run.da,
                stats: std::array::from_fn(|i| stats[i] - a.stats[i]),
            };
            // A failed flush feeds the watchdog's futility count, which a
            // skip does not keep.
            let failures = per.stats[7];
            // Every pc the window read: those in flight at the last anchor
            // and those fetched since, up to the fetch pc.
            let lo_pc = a.pcs.0.min(span.pcs.0);
            let hi_pc = a.pcs.1.max(span.pcs.1).max(self.fetch_pc);
            let periods = run.periods_past(lo_pc, hi_pc);
            if per.cycles > 0 && per.retired > 0 && failures == 0 && periods > 0 {
                w.found = Some((per, periods));
                seen = StreamAnchor::Repeat(StreamPeriod {
                    cycles: per.cycles,
                    periods,
                    addr: at.addr,
                    da: run.da,
                    addrs: (span.addrs.0 <= span.addrs.1).then_some(span.addrs),
                });
            }
        }
        w.current = std::mem::replace(&mut w.anchor.words, words);
        let a = &mut w.anchor;
        (a.sig, a.now, a.front, a.packed) = (sig, at.now, at.front, true);
        a.stats = stats;
        a.marks = marks;
        a.pcs = (lo as usize, hi as usize);
        seen
    }

    /// Skips `k` periods of the stream [`Cpu::stream_anchor`] just found
    /// repeating: installs the latest anchor's state `k` periods later,
    /// adds `k` periods' statistics, and makes that the anchor the next
    /// window compares with. The caller has advanced the rest of the
    /// machine over the same cycles.
    ///
    /// # Panics
    ///
    /// Panics unless the last [`Cpu::stream_anchor`] call returned
    /// [`StreamAnchor::Repeat`], and if `k` is 0.
    pub fn take_stream_periods(&mut self, k: u64) {
        let w = &mut self.detector.stream;
        let (per, most) = w.found.take().expect("a stream period to take");
        let run = w.run.expect("a stream with a period has a run");
        assert!(k > 0, "a stream skip takes at least one period");
        let at = Origin {
            shape: Shape::Stream,
            pc: run.start + w.window * run.dpc,
            addr: (w.window as u64).wrapping_mul(run.da),
            now: w.anchor.now,
            front: w.anchor.front,
            base: 0,
        };
        let words = std::mem::take(&mut w.anchor.words);
        let taken = self.take_periods(&words, at, per, [], k, k * per.cycles);
        debug_assert_eq!(taken, k);
        let w = &mut self.detector.stream;
        w.anchor.words = words;
        let to = at.after(k, &per);
        w.anchor.now = to.now;
        w.anchor.front = to.front;
        w.anchor.stats = still_stats(&self.stats);
        let shift = k as usize * run.dpc;
        w.anchor.pcs = (w.anchor.pcs.0 + shift, w.anchor.pcs.1 + shift);
        w.window += k as usize;
        let pc = run.start + w.window * run.dpc;
        w.idle = pc..(pc + run.dpc).min(run.end);
        w.span = Span::default();
        if k == most {
            w.exhaust(run);
        }
    }
}
