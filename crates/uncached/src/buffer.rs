//! The FIFO uncached buffer with hardware-transparent store combining.

use std::collections::VecDeque;
use std::fmt;

use csb_bus::Transaction;
use csb_isa::Addr;
use csb_obs::{EventKind, TraceSink, Track};
use serde::Serialize;

use crate::mask::{decompose_into, ByteMask, Chunk, MAX_BLOCK};
use crate::{PayloadBuf, PreparedTxn};

/// How the buffer decides which stores may combine and how entries drain.
///
/// The paper's figures sweep [`CombineRule::Block`] sizes; the other two
/// rules model the specific processors named in its related-work section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize)]
pub enum CombineRule {
    /// Combine any store falling in the same block-aligned window
    /// (idealized combining; what the figures call "16B"/"32B"/…). Entries
    /// drain as the minimal set of naturally aligned power-of-two chunks.
    #[default]
    Block,
    /// MIPS R10000 uncached-accelerated mode: combining continues only
    /// while stores arrive at strictly sequential ascending addresses; a
    /// store breaking the pattern closes the entry. An entry drains as a
    /// single burst only if it filled the entire block — otherwise as a
    /// series of single-beat (store-sized) transfers.
    Sequential,
    /// PowerPC 620: at most two same-size stores to consecutive addresses
    /// merge into one double-width transaction (and only when the pair is
    /// naturally aligned for it).
    Pair,
}

impl fmt::Display for CombineRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineRule::Block => f.write_str("block"),
            CombineRule::Sequential => f.write_str("sequential (R10000)"),
            CombineRule::Pair => f.write_str("pair (PowerPC 620)"),
        }
    }
}

/// Uncached buffer configuration. The default (a zero block and capacity)
/// fails validation: it marks a blank [`UncachedBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub struct UncachedConfig {
    /// Combining block size in bytes: the width of one buffer entry and the
    /// largest transaction the buffer can emit. 8 = non-combining (every
    /// doubleword store is its own transaction); a full cache line models
    /// R10000-style uncached-accelerated combining.
    pub block: usize,
    /// Number of entries the buffer can hold before the processor stalls.
    pub capacity: usize,
    /// Pattern rule governing combining and draining.
    pub rule: CombineRule,
}

impl UncachedConfig {
    /// A buffer with the given combining block, the default 8 entries, and
    /// the idealized [`CombineRule::Block`] rule.
    pub fn with_block(block: usize) -> Self {
        UncachedConfig {
            block,
            capacity: 8,
            rule: CombineRule::Block,
        }
    }

    /// The non-combining baseline (8-byte entries).
    pub fn non_combining() -> Self {
        Self::with_block(8)
    }

    /// The MIPS R10000 uncached-accelerated baseline over a full `line`.
    pub fn r10000(line: usize) -> Self {
        UncachedConfig {
            block: line,
            capacity: 8,
            rule: CombineRule::Sequential,
        }
    }

    /// The PowerPC 620 pairing baseline (16-byte entries, pair rule).
    pub fn ppc620() -> Self {
        UncachedConfig {
            block: 16,
            capacity: 8,
            rule: CombineRule::Pair,
        }
    }
}

/// Invalid [`UncachedConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UncachedConfigError {
    /// Block must be a power of two in `8..=MAX_BLOCK`.
    BadBlock(usize),
    /// Capacity must be nonzero.
    ZeroCapacity,
}

impl fmt::Display for UncachedConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UncachedConfigError::BadBlock(b) => {
                write!(
                    f,
                    "combining block {b} is not a power of two in 8..={MAX_BLOCK}"
                )
            }
            UncachedConfigError::ZeroCapacity => f.write_str("buffer capacity must be nonzero"),
        }
    }
}

impl std::error::Error for UncachedConfigError {}

/// Result of offering a store to the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Coalesced into an existing waiting entry (no new bus transaction).
    Coalesced,
    /// Allocated a new entry.
    NewEntry,
    /// Buffer full — the processor must stall and retry.
    Full,
}

/// Counters accumulated by [`UncachedBuffer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UncachedStats {
    /// Stores accepted.
    pub stores: u64,
    /// Stores that coalesced into an existing entry.
    pub coalesced: u64,
    /// Store entries allocated.
    pub entries: u64,
    /// Loads accepted.
    pub loads: u64,
    /// Stalls reported (push attempts while full).
    pub full_stalls: u64,
    /// Transactions handed to the bus.
    pub transactions: u64,
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    base: Addr, // block-aligned
    mask: ByteMask,
    /// Inline staging for the entry's data; the first `block` bytes are
    /// live. Fixed at the maximum line size so entries never allocate.
    data: [u8; MAX_BLOCK],
    /// Once the entry starts draining it no longer accepts coalescing.
    locked: bool,
    /// Pattern rules close an entry against further coalescing without
    /// locking it (e.g. an R10000 sequence broken by a non-sequential
    /// store).
    closed: bool,
    /// Next strictly-sequential address ([`CombineRule::Sequential`] /
    /// [`CombineRule::Pair`]).
    expected_next: u64,
    /// Width of the stores accumulated (the single-beat size).
    beat: usize,
    /// Number of stores merged into the entry.
    stores: usize,
}

#[derive(Debug, Clone, Copy)]
enum Entry {
    Store(StoreEntry),
    Load { addr: Addr, width: usize, tag: u64 },
}

/// The FIFO buffer between the processor's memory queue and the system
/// interface, holding uncached loads and stores until the bus accepts them.
///
/// Combining model (paper §4.1): a store coalesces into an existing entry
/// iff its address falls in the same `block`-aligned window and it would not
/// bypass an earlier load (or an entry already draining).
/// Entries drain in FIFO order as the minimal sequence of naturally aligned
/// power-of-two transactions covering their present bytes — so partial
/// blocks degrade into multiple single-beat transfers, which is exactly the
/// guarantee hardware combining cannot make and the CSB can.
///
/// `UncachedBuffer::default()` is a blank with no configuration: only
/// [`UncachedBuffer::reset_with`] makes it a buffer.
///
/// # Examples
///
/// ```
/// use csb_isa::Addr;
/// use csb_uncached::{PushOutcome, UncachedBuffer, UncachedConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buf = UncachedBuffer::new(UncachedConfig::with_block(64))?;
/// let base = Addr::new(0x1000_0000);
/// assert_eq!(buf.push_store(base, &[1u8; 8]), PushOutcome::NewEntry);
/// assert_eq!(buf.push_store(base.offset(8), &[2u8; 8]), PushOutcome::Coalesced);
///
/// // Both doublewords drain as one 16-byte transaction.
/// let txn = buf.peek_transaction().expect("entry ready");
/// assert_eq!(txn.txn.size, 16);
/// buf.transaction_accepted();
/// assert!(buf.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct UncachedBuffer {
    cfg: UncachedConfig,
    entries: VecDeque<Entry>,
    /// Remaining decomposed chunks of the locked head entry. Only the head
    /// ever drains, so one reusable queue serves the whole buffer — refilled
    /// in place when a head locks, never reallocated in steady state.
    drain: VecDeque<Chunk>,
    stats: UncachedStats,
    /// Structured trace sink (disabled by default; see
    /// [`UncachedBuffer::set_trace_sink`]).
    sink: TraceSink,
}

impl UncachedBuffer {
    /// Creates an empty buffer.
    ///
    /// # Errors
    ///
    /// Returns [`UncachedConfigError`] if the block size is not a power of
    /// two in `8..=128` or the capacity is zero.
    pub fn new(cfg: UncachedConfig) -> Result<Self, UncachedConfigError> {
        let mut buf = UncachedBuffer::default();
        buf.reset_with(cfg)?;
        Ok(buf)
    }

    /// Resets to an empty buffer under `cfg`, keeping the entry and drain
    /// storage (each queue's reservation grows to what `cfg` needs). The
    /// simulator's warm-reset path.
    ///
    /// # Errors
    ///
    /// As for [`UncachedBuffer::new`]. On error the buffer is unchanged.
    pub fn reset_with(&mut self, cfg: UncachedConfig) -> Result<(), UncachedConfigError> {
        if cfg.block < 8 || cfg.block > MAX_BLOCK || !cfg.block.is_power_of_two() {
            return Err(UncachedConfigError::BadBlock(cfg.block));
        }
        if cfg.capacity == 0 {
            return Err(UncachedConfigError::ZeroCapacity);
        }
        self.entries.clear();
        self.entries.reserve(cfg.capacity);
        self.drain.clear();
        self.drain.reserve(MAX_BLOCK);
        self.cfg = cfg;
        self.stats = UncachedStats::default();
        self.sink = TraceSink::disabled();
        Ok(())
    }

    /// Installs a structured trace sink; accepted pushes, loads, and full
    /// stalls emit instants on the uncached-buffer track, stamped by the
    /// sink's shared clock.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
    }

    /// The buffer configuration.
    pub fn config(&self) -> &UncachedConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &UncachedStats {
        &self.stats
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the buffer holds no entries: every entry has been
    /// handed to the bus — the condition a `membar` waits for before
    /// letting retirement proceed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Walks the buffer's architectural state: counters, queued entries,
    /// and the drain decomposition of a locked head. The configuration and
    /// trace sink are wiring the restoring side supplies: it restores into
    /// an empty buffer configured with the same [`UncachedConfig`].
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream, or entries and
    /// drain chunks no sequence of pushes and drains builds.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("ubuf")?;
        let st = &mut self.stats;
        for v in [
            &mut st.stores,
            &mut st.coalesced,
            &mut st.entries,
            &mut st.loads,
            &mut st.full_stalls,
            &mut st.transactions,
        ] {
            s.u64(v)?;
        }
        let load = Entry::Load {
            addr: Addr::default(),
            width: 0,
            tag: 0,
        };
        let max = self.cfg.capacity;
        s.list(
            &mut self.entries,
            max,
            "uncached entries",
            load,
            |s, entry| {
                let mut k = u8::from(matches!(entry, Entry::Load { .. }));
                s.kind(&mut k, 2, "uncached entry kind")?;
                if s.reading() && k == 0 {
                    *entry = Entry::Store(StoreEntry {
                        base: Addr::default(),
                        mask: ByteMask::empty(),
                        data: [0u8; MAX_BLOCK],
                        locked: false,
                        closed: false,
                        expected_next: 0,
                        beat: 0,
                        stores: 0,
                    });
                }
                match entry {
                    Entry::Store(se) => {
                        s.u64_as(&mut se.base, Addr::raw, Addr::new)?;
                        s.u128_as(&mut se.mask, |m| m.bits(), ByteMask::from_bits)?;
                        se.mask.walk_bytes(&mut se.data, s)?;
                        s.bool(&mut se.locked)?;
                        s.bool(&mut se.closed)?;
                        s.u64(&mut se.expected_next)?;
                        s.usize(&mut se.beat)?;
                        s.usize(&mut se.stores)
                    }
                    Entry::Load { addr, width, tag } => {
                        s.u64_as(addr, Addr::raw, Addr::new)?;
                        s.usize(width)?;
                        s.u64(tag)
                    }
                }
            },
        )?;
        let (blank, block) = (Chunk { offset: 0, size: 0 }, self.cfg.block);
        s.list(
            &mut self.drain,
            usize::MAX,
            "drain chunks",
            blank,
            |s, chunk| {
                s.usize(&mut chunk.offset)?;
                s.usize(&mut chunk.size)?;
                if s.reading() && !legal_chunk(*chunk, block) {
                    return Err(csb_snap::SnapshotError::Corrupt(format!(
                        "drain chunk {}+{} is not a transfer of a {block}-byte block",
                        chunk.offset, chunk.size
                    )));
                }
                Ok(())
            },
        )?;
        if s.reading() {
            self.check_entries()?;
        }
        Ok(())
    }

    /// Rejects restored entries no sequence of pushes and drains builds:
    /// a load that is not naturally aligned; a store entry off its block,
    /// empty, or masked past it, with a beat no store has, with more
    /// sequential stores than fit, or with an `expected_next` its rule's
    /// pushes cannot leave; a lock anywhere but on a front store entry
    /// that still has chunks to drain; or an unlocked entry that would
    /// drain into transfers the bus rejects.
    fn check_entries(&self) -> Result<(), csb_snap::SnapshotError> {
        let block = self.cfg.block;
        let corrupt = |what: String| Err(csb_snap::SnapshotError::Corrupt(what));
        for (i, entry) in self.entries.iter().enumerate() {
            let se = match entry {
                Entry::Load { addr, width, .. } => {
                    if !(width.is_power_of_two() && *width <= 8 && addr.is_aligned(*width as u64)) {
                        return corrupt(format!("uncached load of {width} bytes at {addr}"));
                    }
                    continue;
                }
                Entry::Store(se) => se,
            };
            let bits = se.mask.bits();
            let shape = se.base.is_aligned(block as u64)
                && bits != 0
                && (block == MAX_BLOCK || bits >> block == 0)
                && se.beat.is_power_of_two()
                && se.beat <= 8
                && (matches!(self.cfg.rule, CombineRule::Block) || se.stores <= block / se.beat);
            if !shape {
                return corrupt(format!(
                    "uncached store entry at {} with mask {bits:#x}, {} store(s) of {} bytes",
                    se.base, se.stores, se.beat
                ));
            }
            if !self.next_is_reachable(se) {
                return corrupt(format!(
                    "uncached store entry at {} expects its next store at {:#x}",
                    se.base, se.expected_next
                ));
            }
            if se.locked != (i == 0 && !self.drain.is_empty()) {
                return corrupt(format!("uncached entry {i} lock does not match the drain"));
            }
            if !se.locked {
                let (mut chunks, mut legal) = (0, true);
                chunks_of(&self.cfg, se, |c| {
                    chunks += 1;
                    legal &= legal_chunk(c, block);
                });
                if chunks == 0 || !legal {
                    return corrupt(format!("uncached entry {i} drains into illegal transfers"));
                }
            }
        }
        if !self.drain.is_empty() && !matches!(self.entries.front(), Some(Entry::Store(_))) {
            return corrupt("drain chunks without a store entry to drain".to_string());
        }
        Ok(())
    }

    /// `true` when `se.expected_next` is a value the configured rule's
    /// pushes leave in an entry of `se`'s shape: the end of the single
    /// run a [`CombineRule::Sequential`] entry grows by one beat per
    /// store; the end of a [`CombineRule::Pair`] entry's first store,
    /// which its second store does not move; and under
    /// [`CombineRule::Block`], which never moves it, the end of a
    /// beat-aligned, beat-wide run inside the mask.
    fn next_is_reachable(&self, se: &StoreEntry) -> bool {
        let first = se.mask.bits().trailing_zeros() as usize;
        let Some(end) = se
            .expected_next
            .checked_sub(se.base.raw())
            .and_then(|e| usize::try_from(e).ok())
            .filter(|&e| e <= self.cfg.block)
        else {
            return false;
        };
        match self.cfg.rule {
            CombineRule::Sequential => {
                let len = se.stores * se.beat;
                end == first + len && se.mask.bits() == ByteMask::range(first, len).bits()
            }
            CombineRule::Pair => end == first + se.beat,
            CombineRule::Block => {
                end >= se.beat && end % se.beat == 0 && se.mask.covers(end - se.beat, se.beat)
            }
        }
    }

    /// Appends what decides the buffer's future to `out`, with every
    /// address relative to `origin`: each entry and the drain chunks left
    /// of the head. Two buffers with equal prints whose origins differ by a
    /// multiple of the block behave alike, every address shifted by that
    /// difference, which is what a store stream's skip compares. Returns
    /// `false`, and prints nothing useful, when an uncached load waits in
    /// the buffer: its tag is a sequence number, which no shift keeps.
    pub fn stream_print(&self, origin: u64, out: &mut Vec<u64>) -> bool {
        for entry in &self.entries {
            let Entry::Store(se) = entry else {
                return false;
            };
            let bits = se.mask.bits();
            out.extend_from_slice(&[
                se.base.raw().wrapping_sub(origin),
                bits as u64,
                (bits >> 64) as u64,
                u64::from(se.locked) | u64::from(se.closed) << 1,
                se.expected_next.wrapping_sub(origin),
                se.beat as u64,
                se.stores as u64,
            ]);
            out.extend(crate::words_of(&se.data[..self.cfg.block]));
        }
        out.push(self.entries.len() as u64);
        out.extend(
            self.drain
                .iter()
                .map(|c| (c.offset as u64) << 32 | c.size as u64),
        );
        out.push(self.drain.len() as u64);
        true
    }

    /// Offers an uncached store of `data.len()` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the store is wider than the combining block or not
    /// naturally aligned to its own width.
    pub fn push_store(&mut self, addr: Addr, data: &[u8]) -> PushOutcome {
        let width = data.len();
        assert!(
            width > 0 && width <= self.cfg.block && width.is_power_of_two(),
            "store width {width} invalid for block {}",
            self.cfg.block
        );
        assert!(
            addr.is_aligned(width as u64),
            "store at {addr} not aligned to {width}"
        );

        let base = addr.align_down(self.cfg.block as u64);
        let off = addr.offset_in(self.cfg.block as u64) as usize;

        let coalesced = match self.merge_target(addr, base, width) {
            Ok(i) => {
                let Entry::Store(se) = &mut self.entries[i] else {
                    unreachable!("stores merge only into store entries")
                };
                se.mask.set_range(off, width);
                se.data[off..off + width].copy_from_slice(data);
                se.stores += 1;
                match self.cfg.rule {
                    CombineRule::Block => {}
                    CombineRule::Sequential => se.expected_next += width as u64,
                    CombineRule::Pair => se.closed = true, // a pair is complete
                }
                true
            }
            Err(close) => {
                if let Some(Entry::Store(se)) = close.map(|i| &mut self.entries[i]) {
                    se.closed = true;
                }
                if self.entries.len() >= self.cfg.capacity {
                    self.stats.full_stalls += 1;
                    self.sink.emit(
                        Track::Uncached,
                        EventKind::UncachedFull { addr: addr.raw() },
                    );
                    return PushOutcome::Full;
                }
                let mut se = StoreEntry {
                    base,
                    mask: ByteMask::empty(),
                    data: [0u8; MAX_BLOCK],
                    locked: false,
                    closed: false,
                    expected_next: addr.raw() + width as u64,
                    beat: width,
                    stores: 1,
                };
                se.mask.set_range(off, width);
                se.data[off..off + width].copy_from_slice(data);
                self.entries.push_back(Entry::Store(se));
                self.stats.entries += 1;
                false
            }
        };
        self.stats.stores += 1;
        self.stats.coalesced += u64::from(coalesced);
        self.sink.emit(
            Track::Uncached,
            EventKind::UncachedPush {
                addr: addr.raw(),
                width,
                coalesced,
            },
        );
        if coalesced {
            PushOutcome::Coalesced
        } else {
            PushOutcome::NewEntry
        }
    }

    /// The merge decision for a store of `width` bytes at `addr` (in the
    /// block at `base`) under the configured rule: `Ok(i)` when it merges
    /// into entry `i`; otherwise `Err(close)`, where `close` names the
    /// entry whose Sequential/Pair pattern the store breaks — offering it
    /// closes that entry for good, accepted or not. [`push_store`] applies
    /// the decision and [`would_accept_store`] peeks at it, so the
    /// fast-forward path's verdict is the tick's own.
    ///
    /// [`push_store`]: UncachedBuffer::push_store
    /// [`would_accept_store`]: UncachedBuffer::would_accept_store
    fn merge_target(&self, addr: Addr, base: Addr, width: usize) -> Result<usize, Option<usize>> {
        match self.cfg.rule {
            CombineRule::Block => {
                // Scan from the tail; stop at the first load or draining
                // store — coalescing past those would reorder. An older
                // unlocked store to a different block does not order
                // against this store, so the scan passes it.
                for (i, entry) in self.entries.iter().enumerate().rev() {
                    match entry {
                        Entry::Store(se) if !se.locked => {
                            if se.base == base {
                                return Ok(i);
                            }
                        }
                        _ => return Err(None),
                    }
                }
                Err(None)
            }
            // Only the youngest entry detects the pattern; breaking it
            // closes that entry (R10000). A 620 pair takes exactly one
            // more store, and only when the pair is naturally aligned.
            rule => {
                let Some(Entry::Store(se)) = self.entries.back() else {
                    return Err(None);
                };
                let youngest = self.entries.len() - 1;
                if se.locked || se.closed || (rule == CombineRule::Pair && se.stores != 1) {
                    return Err(None);
                }
                let first_off = se.mask.bits().trailing_zeros() as usize;
                let merges = se.base == base
                    && addr.raw() == se.expected_next
                    && width == se.beat
                    && (rule == CombineRule::Sequential || first_off.is_multiple_of(2 * se.beat));
                if merges {
                    Ok(youngest)
                } else {
                    Err(Some(youngest))
                }
            }
        }
    }

    /// `true` if [`UncachedBuffer::push_store`] would accept the store: it
    /// merges, or a new entry fits. No stall counting, no trace events,
    /// no entry mutation — the fast-forward path uses this to prove a
    /// refused store would stay refused. (A refused push also closes the
    /// entry its offer breaks; the peek leaves it open. Skipping those
    /// closes is invisible: while the buffer is full the decision's inputs
    /// are frozen, and `closed` feeds nothing but the next decision.)
    pub fn would_accept_store(&self, addr: Addr, width: usize) -> bool {
        let base = addr.align_down(self.cfg.block as u64);
        self.merge_target(addr, base, width).is_ok() || self.entries.len() < self.cfg.capacity
    }

    /// Pure mirror of [`UncachedBuffer::push_load`]'s acceptance (loads
    /// never combine, so this is just the capacity check).
    pub fn would_accept_load(&self) -> bool {
        self.entries.len() < self.cfg.capacity
    }

    /// Bulk-accounts `n` full-buffer stalls the fast-forward path skipped
    /// (each skipped cycle would have re-offered and been refused).
    pub fn add_full_stalls(&mut self, n: u64) {
        self.stats.full_stalls += n;
    }

    /// Offers an uncached load. Loads never combine and act as ordering
    /// fences for later stores. Returns `false` (and counts a stall) if the
    /// buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if the width is not a power of two in `1..=8` or the address
    /// is not naturally aligned.
    pub fn push_load(&mut self, addr: Addr, width: usize, tag: u64) -> bool {
        assert!(
            (1..=8).contains(&width) && width.is_power_of_two(),
            "load width {width} invalid"
        );
        assert!(
            addr.is_aligned(width as u64),
            "load at {addr} not aligned to {width}"
        );
        if self.entries.len() >= self.cfg.capacity {
            self.stats.full_stalls += 1;
            self.sink.emit(
                Track::Uncached,
                EventKind::UncachedFull { addr: addr.raw() },
            );
            return false;
        }
        self.entries.push_back(Entry::Load { addr, width, tag });
        self.stats.loads += 1;
        self.sink.emit(
            Track::Uncached,
            EventKind::UncachedLoad {
                addr: addr.raw(),
                width,
            },
        );
        true
    }

    /// Returns the next transaction to present to the bus, locking the head
    /// entry against further coalescing. Returns `None` when nothing is
    /// ready. Call [`UncachedBuffer::transaction_accepted`] once the bus
    /// takes it.
    pub fn peek_transaction(&mut self) -> Option<PreparedTxn> {
        match self.entries.front_mut()? {
            Entry::Store(se) => {
                if !se.locked {
                    se.locked = true;
                    debug_assert!(self.drain.is_empty());
                    chunks_of(&self.cfg, se, |c| self.drain.push_back(c));
                }
                let chunk = *self.drain.front().expect("locked store entry has chunks");
                Some(PreparedTxn {
                    txn: Transaction::write(se.base.offset(chunk.offset as i64), chunk.size),
                    data: PayloadBuf::from_slice(&se.data[chunk.offset..chunk.offset + chunk.size]),
                })
            }
            Entry::Load { addr, width, tag } => Some(PreparedTxn {
                txn: Transaction::read(*addr, *width).tag(*tag),
                data: PayloadBuf::empty(),
            }),
        }
    }

    /// Acknowledges that the bus accepted the transaction most recently
    /// returned by [`UncachedBuffer::peek_transaction`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction was pending.
    pub fn transaction_accepted(&mut self) {
        self.stats.transactions += 1;
        let done = match self.entries.front().expect("no pending transaction") {
            Entry::Store(se) => {
                assert!(se.locked, "no pending transaction");
                self.drain.pop_front().expect("no pending chunk");
                self.drain.is_empty()
            }
            Entry::Load { .. } => true,
        };
        if done {
            self.entries.pop_front();
        }
    }
}

/// Whether `c` is a transfer the bus takes from a `block`-byte entry: a
/// naturally aligned power of two inside the block.
fn legal_chunk(c: Chunk, block: usize) -> bool {
    c.size.is_power_of_two()
        && c.offset.is_multiple_of(c.size)
        && c.offset.checked_add(c.size).is_some_and(|end| end <= block)
}

/// The bus transfers `se` drains as under `cfg`'s combining rule, in
/// order.
fn chunks_of(cfg: &UncachedConfig, se: &StoreEntry, mut emit: impl FnMut(Chunk)) {
    match cfg.rule {
        CombineRule::Block => decompose_into(se.mask, cfg.block, emit),
        CombineRule::Sequential => {
            if se.mask.covers(0, cfg.block) {
                // Complete line: one burst (R10000).
                emit(Chunk {
                    offset: 0,
                    size: cfg.block,
                });
            } else {
                // Pattern incomplete: single-beat transfers.
                let first = se.mask.bits().trailing_zeros() as usize;
                for i in 0..se.stores {
                    emit(Chunk {
                        offset: first + i * se.beat,
                        size: se.beat,
                    });
                }
            }
        }
        CombineRule::Pair => {
            let first = se.mask.bits().trailing_zeros() as usize;
            emit(Chunk {
                offset: first,
                size: se.beat * se.stores,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(block: usize) -> UncachedBuffer {
        UncachedBuffer::new(UncachedConfig::with_block(block)).unwrap()
    }

    fn dword(v: u64) -> [u8; 8] {
        v.to_le_bytes()
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            UncachedBuffer::new(UncachedConfig::with_block(4)),
            Err(UncachedConfigError::BadBlock(4))
        ));
        assert!(matches!(
            UncachedBuffer::new(UncachedConfig::with_block(48)),
            Err(UncachedConfigError::BadBlock(48))
        ));
        assert!(matches!(
            UncachedBuffer::new(UncachedConfig {
                capacity: 0,
                ..UncachedConfig::with_block(64)
            }),
            Err(UncachedConfigError::ZeroCapacity)
        ));
        assert_eq!(UncachedConfig::non_combining().block, 8);
    }

    #[test]
    fn non_combining_never_coalesces() {
        let mut b = buf(8);
        let base = Addr::new(0x1000);
        assert_eq!(b.push_store(base, &dword(1)), PushOutcome::NewEntry);
        assert_eq!(
            b.push_store(base.offset(8), &dword(2)),
            PushOutcome::NewEntry
        );
        assert_eq!(b.len(), 2);
        let t = b.peek_transaction().unwrap();
        assert_eq!(t.txn.size, 8);
        assert_eq!(t.data, dword(1));
    }

    #[test]
    fn sequential_dwords_coalesce_to_full_line() {
        let mut b = buf(64);
        let base = Addr::new(0x2000);
        for i in 0..8 {
            b.push_store(base.offset(8 * i), &dword(i as u64));
        }
        assert_eq!(b.len(), 1);
        let t = b.peek_transaction().unwrap();
        assert_eq!(t.txn.size, 64);
        assert_eq!(t.txn.addr, base);
        assert_eq!(&t.data[8..16], &dword(1));
        b.transaction_accepted();
        assert!(b.is_empty());
        assert_eq!(b.stats().coalesced, 7);
    }

    #[test]
    fn partial_block_drains_as_aligned_chunks() {
        let mut b = buf(64);
        let base = Addr::new(0x2000);
        // Dwords 1..8 -> 8B@8, 16B@16, 32B@32.
        for i in 1..8 {
            b.push_store(base.offset(8 * i), &dword(i as u64));
        }
        let mut sizes = Vec::new();
        while let Some(t) = b.peek_transaction() {
            sizes.push(t.txn.size);
            b.transaction_accepted();
        }
        assert_eq!(sizes, vec![8, 16, 32]);
        assert_eq!(b.stats().transactions, 3);
        // Bytes 0..8 and 16..24 of one block: two aligned transactions,
        // never one.
        b.push_store(base, &dword(1));
        b.push_store(base.offset(16), &dword(2));
        sizes.clear();
        while let Some(t) = b.peek_transaction() {
            sizes.push(t.txn.size);
            b.transaction_accepted();
        }
        assert_eq!(sizes, vec![8, 8]);
    }

    #[test]
    fn locked_entry_rejects_coalescing() {
        let mut b = buf(64);
        let base = Addr::new(0x2000);
        b.push_store(base, &dword(1));
        let _ = b.peek_transaction().unwrap(); // locks the entry
        assert_eq!(
            b.push_store(base.offset(8), &dword(2)),
            PushOutcome::NewEntry
        );
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn load_fences_later_stores() {
        let mut b = buf(64);
        let base = Addr::new(0x2000);
        b.push_store(base, &dword(1));
        assert!(b.push_load(base.offset(32), 8, 7));
        // Same block, but an intervening load forbids coalescing.
        assert_eq!(
            b.push_store(base.offset(8), &dword(2)),
            PushOutcome::NewEntry
        );
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn interleaved_blocks_coalesce_independently() {
        // A store to a different block does not stop older-entry coalescing.
        let mut b = buf(64);
        let (b0, b1) = (Addr::new(0x2000), Addr::new(0x2040));
        b.push_store(b0, &dword(1));
        b.push_store(b1, &dword(2));
        assert_eq!(
            b.push_store(b0.offset(8), &dword(3)),
            PushOutcome::Coalesced
        );
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn capacity_stalls() {
        let mut b = UncachedBuffer::new(UncachedConfig {
            capacity: 2,
            ..UncachedConfig::with_block(8)
        })
        .unwrap();
        b.push_store(Addr::new(0), &dword(1));
        b.push_store(Addr::new(8), &dword(2));
        assert_eq!(b.push_store(Addr::new(16), &dword(3)), PushOutcome::Full);
        assert!(!b.push_load(Addr::new(24), 8, 0));
        assert_eq!(b.stats().full_stalls, 2);
    }

    #[test]
    fn loads_drain_as_reads() {
        let mut b = buf(64);
        b.push_load(Addr::new(0x3000), 4, 99);
        let t = b.peek_transaction().unwrap();
        assert_eq!(t.txn.kind, csb_bus::TxnKind::Read);
        assert_eq!(t.txn.size, 4);
        assert_eq!(t.txn.tag, 99);
        b.transaction_accepted();
        assert!(b.is_empty());
    }

    #[test]
    fn overwrite_within_entry_keeps_latest_data() {
        let mut b = buf(64);
        let base = Addr::new(0x2000);
        b.push_store(base, &dword(1));
        b.push_store(base, &dword(2));
        let t = b.peek_transaction().unwrap();
        assert_eq!(t.data, dword(2));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_store_rejected() {
        buf(64).push_store(Addr::new(0x2004), &dword(1));
    }

    #[test]
    #[should_panic(expected = "no pending transaction")]
    fn accept_without_peek_panics() {
        buf(64).transaction_accepted();
    }

    fn drain_sizes(b: &mut UncachedBuffer) -> Vec<usize> {
        let mut sizes = Vec::new();
        while let Some(t) = b.peek_transaction() {
            sizes.push(t.txn.size);
            b.transaction_accepted();
        }
        sizes
    }

    #[test]
    fn r10000_full_line_is_one_burst() {
        let mut b = UncachedBuffer::new(UncachedConfig::r10000(64)).unwrap();
        let base = Addr::new(0x2000);
        for i in 0..8 {
            b.push_store(base.offset(8 * i), &dword(i as u64));
        }
        assert_eq!(b.len(), 1);
        assert_eq!(drain_sizes(&mut b), vec![64]);
    }

    #[test]
    fn r10000_partial_line_degrades_to_single_beats() {
        // Unlike Block combining (which would emit 8B+16B+32B aligned
        // chunks), the R10000 issues a series of single-beat transfers when
        // the line is incomplete.
        let mut b = UncachedBuffer::new(UncachedConfig::r10000(64)).unwrap();
        let base = Addr::new(0x2000);
        for i in 1..8 {
            b.push_store(base.offset(8 * i), &dword(i as u64));
        }
        assert_eq!(drain_sizes(&mut b), vec![8; 7]);
    }

    #[test]
    fn r10000_pattern_break_closes_entry() {
        let mut b = UncachedBuffer::new(UncachedConfig::r10000(64)).unwrap();
        let base = Addr::new(0x2000);
        b.push_store(base, &dword(0));
        b.push_store(base.offset(8), &dword(1));
        // Out-of-order store to the same line: breaks the pattern.
        assert_eq!(
            b.push_store(base.offset(32), &dword(4)),
            PushOutcome::NewEntry
        );
        // The original entry is closed: even a sequential continuation of
        // it cannot reopen combining there, and the new entry expects its
        // own continuation.
        assert_eq!(
            b.push_store(base.offset(16), &dword(2)),
            PushOutcome::NewEntry
        );
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn r10000_descending_never_combines() {
        let mut b = UncachedBuffer::new(UncachedConfig::r10000(64)).unwrap();
        let base = Addr::new(0x2000);
        for i in (0..4).rev() {
            b.push_store(base.offset(8 * i), &dword(i as u64));
        }
        assert_eq!(b.len(), 4);
        assert_eq!(b.stats().coalesced, 0);
    }

    #[test]
    fn ppc620_pairs_two_consecutive_same_size_stores() {
        let mut b = UncachedBuffer::new(UncachedConfig::ppc620()).unwrap();
        let base = Addr::new(0x2000);
        assert_eq!(b.push_store(base, &dword(1)), PushOutcome::NewEntry);
        assert_eq!(
            b.push_store(base.offset(8), &dword(2)),
            PushOutcome::Coalesced
        );
        // Third consecutive store cannot join the completed pair.
        assert_eq!(
            b.push_store(base.offset(16), &dword(3)),
            PushOutcome::NewEntry
        );
        assert_eq!(
            b.push_store(base.offset(24), &dword(4)),
            PushOutcome::Coalesced
        );
        assert_eq!(drain_sizes(&mut b), vec![16, 16]);
    }

    #[test]
    fn ppc620_rejects_misaligned_pairs() {
        let mut b = UncachedBuffer::new(UncachedConfig::ppc620()).unwrap();
        // A pair starting at offset 8 would form a misaligned 16B txn.
        let base = Addr::new(0x2008);
        assert_eq!(b.push_store(base, &dword(1)), PushOutcome::NewEntry);
        assert_eq!(
            b.push_store(base.offset(8), &dword(2)),
            PushOutcome::NewEntry
        );
        assert_eq!(drain_sizes(&mut b), vec![8, 8]);
    }

    #[test]
    fn ppc620_rejects_mixed_width_pairs() {
        let mut b = UncachedBuffer::new(UncachedConfig::ppc620()).unwrap();
        let base = Addr::new(0x2000);
        b.push_store(base, &dword(1));
        // Consecutive address but different width: no pairing.
        assert_eq!(
            b.push_store(base.offset(8), &[2u8; 4]),
            PushOutcome::NewEntry
        );
    }

    #[test]
    fn trace_sink_records_pushes_loads_and_full_stalls() {
        let mut b = UncachedBuffer::new(UncachedConfig {
            capacity: 2,
            ..UncachedConfig::with_block(64)
        })
        .unwrap();
        let sink = TraceSink::enabled();
        b.set_trace_sink(sink.clone());
        let base = Addr::new(0x2000);
        sink.set_now(3);
        b.push_store(base, &dword(1));
        b.push_store(base.offset(8), &dword(2));
        b.push_load(Addr::new(0x3000), 4, 1);
        b.push_load(Addr::new(0x3008), 4, 2); // full
        let kinds: Vec<&'static str> = sink.snapshot().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            vec![
                "uncached.push",
                "uncached.push",
                "uncached.load",
                "uncached.full"
            ]
        );
        let events = sink.snapshot();
        assert!(matches!(
            events[1].kind,
            EventKind::UncachedPush {
                coalesced: true,
                ..
            }
        ));
        assert_eq!(events[0].cycle, 3);
    }

    /// The saved bytes of a buffer under `cfg` holding one 8-byte store at
    /// `0x2000_0000`, with the entry's `expected_next` rewritten to `next`.
    fn saved_with_expected_next(cfg: UncachedConfig, next: u64) -> Vec<u8> {
        let mut b = UncachedBuffer::new(cfg).unwrap();
        assert_eq!(
            b.push_store(Addr::new(0x2000_0000), &dword(1)),
            PushOutcome::NewEntry
        );
        let mut w = csb_snap::SnapshotWriter::new();
        b.state(&mut w).expect("writing never fails");
        let mut bytes = w.finish();
        let saved = 0x2000_0008u64.to_le_bytes();
        let at = bytes
            .windows(8)
            .position(|win| win == saved)
            .expect("the saved entry holds its expected_next");
        bytes[at..at + 8].copy_from_slice(&next.to_le_bytes());
        bytes
    }

    /// Restores `bytes` into a fresh buffer under `cfg`.
    fn restore(
        cfg: UncachedConfig,
        bytes: &[u8],
    ) -> Result<UncachedBuffer, csb_snap::SnapshotError> {
        let mut b = UncachedBuffer::new(cfg).unwrap();
        b.state(&mut csb_snap::SnapshotReader::new(bytes))?;
        Ok(b)
    }

    #[test]
    fn restore_rejects_a_sequential_entry_expecting_a_store_it_already_holds() {
        let cfg = UncachedConfig::r10000(64);
        // The live buffer: a second store to the same address opens a
        // new entry.
        let mut live = restore(cfg, &saved_with_expected_next(cfg, 0x2000_0008)).unwrap();
        assert_eq!(
            live.push_store(Addr::new(0x2000_0000), &dword(2)),
            PushOutcome::NewEntry
        );
        for next in [0x2000_0000, 0x2000_0010, 0x2000_0004, 0x1fff_fff8, u64::MAX] {
            assert!(
                restore(cfg, &saved_with_expected_next(cfg, next)).is_err(),
                "expected_next {next:#x} accepted"
            );
        }
    }

    #[test]
    fn restore_rejects_a_pair_entry_expecting_anything_but_its_first_stores_end() {
        let cfg = UncachedConfig::ppc620();
        assert!(restore(cfg, &saved_with_expected_next(cfg, 0x2000_0008)).is_ok());
        for next in [0x2000_0000, 0x2000_0010, 0x2000_0018, 0x2000_0004] {
            assert!(
                restore(cfg, &saved_with_expected_next(cfg, next)).is_err(),
                "expected_next {next:#x} accepted"
            );
        }
    }

    #[test]
    fn restore_rejects_a_block_entry_expecting_a_store_outside_its_mask() {
        let cfg = UncachedConfig::with_block(64);
        assert!(restore(cfg, &saved_with_expected_next(cfg, 0x2000_0008)).is_ok());
        // Past the mask, unaligned to the beat, before the block, past it.
        for next in [0x2000_0010, 0x2000_0004, 0x2000_0000, 0x2000_0048] {
            assert!(
                restore(cfg, &saved_with_expected_next(cfg, next)).is_err(),
                "expected_next {next:#x} accepted"
            );
        }
    }

    #[test]
    fn rule_display_and_defaults() {
        assert_eq!(CombineRule::default(), CombineRule::Block);
        assert!(CombineRule::Sequential.to_string().contains("R10000"));
        assert!(CombineRule::Pair.to_string().contains("620"));
        assert_eq!(UncachedConfig::r10000(64).rule, CombineRule::Sequential);
        assert_eq!(UncachedConfig::ppc620().block, 16);
    }
}
