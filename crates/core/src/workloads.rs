//! Generators for the paper's microbenchmark kernels (§4.2).
//!
//! Two microbenchmarks drive the whole evaluation:
//!
//! * **Store bandwidth** — a tight, fully unrolled sequence of doubleword
//!   stores covering `total_bytes` of ascending uncached addresses, putting
//!   maximum pressure on the system bus. Through the CSB, each cache line's
//!   worth of stores ends with a conditional flush (and a retry check, as in
//!   the paper's assembly listing).
//! * **Atomic device access** — either the conventional
//!   lock/store/membar/unlock sequence (a swap-based spin lock on a cached
//!   lock variable) or the CSB store/conditional-flush sequence; Figure 5
//!   compares their latencies.
//!
//! All generators target the standard address layout of
//! [`SimConfig::default_map`]: device registers live at [`UNCACHED_BASE`] or
//! [`COMBINING_BASE`], the lock at [`LOCK_ADDR`].

use std::fmt;

use csb_isa::{Assembler, MemWidth, Program, ProgramError, Reg};

use crate::config::{SimConfig, COMBINING_BASE, IO_WINDOW, LOCK_ADDR, UNCACHED_BASE};

/// Mark id retired immediately before the measured sequence begins.
pub const MARK_START: u32 = 0;
/// Mark id retired when the measured sequence is architecturally complete.
pub const MARK_END: u32 = 1;

/// Which store path the bandwidth kernel exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorePath {
    /// Plain uncached space: the uncached buffer (combining per its block
    /// size) turns the stores into bus transactions.
    Uncached,
    /// Combining space: stores accumulate in the CSB; each line is committed
    /// with a conditional flush.
    Csb,
    /// [`StorePath::Csb`] with the retry branch compiled out of line: the
    /// per-line flush check is a *forward* `bnz` to a stub after the hot
    /// sequence, and the stub branches back to the line's start. Static
    /// forward-not-taken prediction is then correct on every successful
    /// flush, so the hot path retires without a single squash — the
    /// unlikely-path layout a compiler's branch-probability pass produces
    /// for the paper's §3.2 retry idiom.
    CsbOutlined,
}

/// Issue order of the stores within each cache line.
///
/// Hardware pattern detectors (the R10000's uncached-accelerated mode, the
/// PowerPC 620's pairing) only combine strictly sequential streams; the
/// paper's §2 point is that they "fail if the sequence of stores is
/// interrupted by a store to a different address". [`StoreOrder::Shuffled`]
/// keeps every store inside its line but breaks consecutiveness, separating
/// pattern-based combining from block-based combining and the CSB (whose
/// stores may arrive in any order, §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOrder {
    /// Ascending consecutive addresses (the paper's unrolled loop).
    Ascending,
    /// A fixed even/odd interleave within each line: offsets 0, 2, 4, …
    /// then 1, 3, 5, … (in doublewords).
    Shuffled,
}

impl StoreOrder {
    /// Doubleword visit order for a group of `n` doublewords.
    fn order(self, n: usize) -> Vec<usize> {
        match self {
            StoreOrder::Ascending => (0..n).collect(),
            StoreOrder::Shuffled => {
                let mut v: Vec<usize> = (0..n).step_by(2).collect();
                v.extend((1..n).step_by(2));
                v
            }
        }
    }
}

/// Invalid workload parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// Transfer size must be a nonzero multiple of 8 that fits the I/O
    /// window.
    BadTransfer {
        /// Requested bytes.
        bytes: usize,
    },
    /// Doubleword count out of the supported range.
    BadDwords {
        /// Requested doublewords.
        dwords: usize,
        /// Maximum supported.
        max: usize,
    },
    /// Program assembly failed (generator bug).
    Assemble(ProgramError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::BadTransfer { bytes } => {
                write!(f, "transfer of {bytes} bytes is not a positive multiple of 8 within the I/O window")
            }
            WorkloadError::BadDwords { dwords, max } => {
                write!(f, "{dwords} doublewords outside supported range 1..={max}")
            }
            WorkloadError::Assemble(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<ProgramError> for WorkloadError {
    fn from(e: ProgramError) -> Self {
        WorkloadError::Assemble(e)
    }
}

/// Builds the uncached-store-bandwidth kernel (§4.2): `total_bytes / 8`
/// doubleword stores to consecutive addresses.
///
/// For [`StorePath::Csb`] the stores are grouped per cache line, each group
/// followed by the conditional flush + check + retry idiom from the paper's
/// §3.2 listing. A final partial line is flushed with its own (smaller)
/// expected count.
///
/// # Errors
///
/// Returns [`WorkloadError::BadTransfer`] unless `total_bytes` is a nonzero
/// multiple of 8 that fits in the I/O window.
///
/// # Examples
///
/// ```
/// use csb_core::{workloads, SimConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cfg = SimConfig::default();
/// let p = workloads::store_bandwidth(64, &cfg, workloads::StorePath::Uncached)?;
/// assert!(p.len() > 8); // 8 stores plus setup
/// # Ok(())
/// # }
/// ```
pub fn store_bandwidth(
    total_bytes: usize,
    cfg: &SimConfig,
    path: StorePath,
) -> Result<Program, WorkloadError> {
    store_bandwidth_ordered(total_bytes, cfg, path, StoreOrder::Ascending)
}

/// [`store_bandwidth`] with an explicit per-line store order (see
/// [`StoreOrder`]).
///
/// # Errors
///
/// As for [`store_bandwidth`].
pub fn store_bandwidth_ordered(
    total_bytes: usize,
    cfg: &SimConfig,
    path: StorePath,
    order: StoreOrder,
) -> Result<Program, WorkloadError> {
    if total_bytes == 0 || !total_bytes.is_multiple_of(8) || total_bytes as u64 > IO_WINDOW {
        return Err(WorkloadError::BadTransfer { bytes: total_bytes });
    }
    let dwords = total_bytes / 8;
    let line = cfg.line();
    let per_line = line / 8;
    let mut a = Assembler::new();
    a.movi(Reg::L1, 0x5151_5151_5151_5151u64 as i64);
    a.mark(MARK_START);
    // (out-of-line stub, line entry) pairs, emitted after `halt`.
    let mut stubs = Vec::new();
    match path {
        StorePath::Uncached => {
            a.movi(Reg::O1, UNCACHED_BASE as i64);
            let mut remaining = dwords;
            let mut line_idx = 0i64;
            while remaining > 0 {
                let n = remaining.min(per_line);
                let base_off = line_idx * line as i64;
                for i in order.order(n) {
                    a.std(Reg::L1, Reg::O1, base_off + 8 * i as i64);
                }
                remaining -= n;
                line_idx += 1;
            }
        }
        StorePath::Csb => {
            a.movi(Reg::O1, COMBINING_BASE as i64);
            let mut remaining = dwords;
            let mut line_idx = 0i64;
            while remaining > 0 {
                let n = remaining.min(per_line);
                let base_off = line_idx * line as i64;
                let retry = a.new_label();
                a.bind(retry)?;
                a.movi(Reg::L4, n as i64);
                for i in order.order(n) {
                    a.std(Reg::L1, Reg::O1, base_off + 8 * i as i64);
                }
                a.swap(Reg::L4, Reg::O1, base_off);
                a.cmpi(Reg::L4, n as i64);
                a.bnz(retry);
                remaining -= n;
                line_idx += 1;
            }
        }
        StorePath::CsbOutlined => {
            a.movi(Reg::O1, COMBINING_BASE as i64);
            let mut remaining = dwords;
            let mut line_idx = 0i64;
            while remaining > 0 {
                let n = remaining.min(per_line);
                let base_off = line_idx * line as i64;
                let retry = a.new_label();
                let stub = a.new_label();
                a.bind(retry)?;
                a.movi(Reg::L4, n as i64);
                for i in order.order(n) {
                    a.std(Reg::L1, Reg::O1, base_off + 8 * i as i64);
                }
                a.swap(Reg::L4, Reg::O1, base_off);
                a.cmpi(Reg::L4, n as i64);
                // Forward branch: predicted not-taken, i.e. correct on a
                // successful flush. A failed flush pays one squash to
                // reach the stub, which re-enters the line's retry loop.
                a.bnz(stub);
                stubs.push((stub, retry));
                remaining -= n;
                line_idx += 1;
            }
        }
    }
    a.mark(MARK_END);
    a.halt();
    for (stub, retry) in stubs {
        a.bind(stub)?;
        a.ba(retry);
    }
    Ok(a.assemble()?)
}

/// Builds the conventional atomic-access kernel of §4.2: spin-lock acquire
/// (SPARC `swap` in a retry loop), `dwords` uncached doubleword stores, a
/// memory barrier, and the lock release, bracketed by timing marks.
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] unless `1 <= dwords <= 512`.
pub fn lock_sequence(dwords: usize) -> Result<Program, WorkloadError> {
    if dwords == 0 || dwords > 512 {
        return Err(WorkloadError::BadDwords { dwords, max: 512 });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.mark(MARK_START);
    // Lock acquire: swap 1 into the lock until the old value was 0.
    let retry = a.new_label();
    a.bind(retry)?;
    a.movi(Reg::L0, 1);
    a.swap(Reg::L0, Reg::O0, 0);
    a.cmpi(Reg::L0, 0);
    a.bnz(retry);
    // Barrier between the lock acquire and the device stores, as in §4.2.
    a.membar();
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O1, 8 * i as i64);
    }
    // The lock may be released only after the last uncached store has left
    // the uncached buffer.
    a.membar();
    a.std(Reg::G0, Reg::O0, 0); // release: store 0 (cached)
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Builds a worker for the many-core contention sweep's conventional
/// baseline: `iterations` lock-based accesses ([`lock_sequence`] body) of
/// `dwords` uncached stores each, every process contending on the single
/// global lock word — the §4.2 path whose convoy the per-process CSB
/// schemes eliminate.
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] unless `1 <= dwords <= 512`.
pub fn lock_worker(iterations: usize, dwords: usize) -> Result<Program, WorkloadError> {
    if dwords == 0 || dwords > 512 {
        return Err(WorkloadError::BadDwords { dwords, max: 512 });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.movi(Reg::L5, iterations as i64);
    a.mark(MARK_START);
    let outer = a.new_label();
    a.bind(outer)?;
    // Lock acquire: swap 1 into the lock until the old value was 0.
    let retry = a.new_label();
    a.bind(retry)?;
    a.movi(Reg::L0, 1);
    a.swap(Reg::L0, Reg::O0, 0);
    a.cmpi(Reg::L0, 0);
    a.bnz(retry);
    a.membar();
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O1, 8 * i as i64);
    }
    // The lock may be released only after the last uncached store has left
    // the uncached buffer.
    a.membar();
    a.std(Reg::G0, Reg::O0, 0); // release: store 0 (cached)
    a.alui(csb_isa::AluOp::Sub, Reg::L5, Reg::L5, 1);
    a.cmpi(Reg::L5, 0);
    a.bnz(outer);
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Builds the CSB atomic-access kernel of §4.2: `dwords` combining stores
/// followed by a conditional flush, its check, and a retry branch. The
/// access is architecturally complete as soon as the flush succeeds.
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] unless `1 <= dwords <= line/8`.
pub fn csb_sequence(dwords: usize, cfg: &SimConfig) -> Result<Program, WorkloadError> {
    let max = cfg.line() / 8;
    if dwords == 0 || dwords > max {
        return Err(WorkloadError::BadDwords { dwords, max });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.mark(MARK_START);
    let retry = a.new_label();
    a.bind(retry)?;
    a.movi(Reg::L4, dwords as i64);
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O1, 8 * i as i64);
    }
    a.swap(Reg::L4, Reg::O1, 0);
    a.cmpi(Reg::L4, dwords as i64);
    a.bnz(retry);
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Builds the CSB sequence with the paper's first livelock remedy (§3.2):
/// after `max_retries` failed conditional flushes the program falls back to
/// the heavyweight lock-based path, which tolerates preemption and thus
/// guarantees progress.
///
/// The `mark` pair brackets the whole access either way; compare
/// [`csb_sequence`] (retry forever) and [`lock_sequence`] (lock always).
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] for out-of-range sizes or a zero
/// retry budget.
pub fn csb_sequence_with_fallback(
    dwords: usize,
    max_retries: u64,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    let max = cfg.line() / 8;
    if dwords == 0 || dwords > max || max_retries == 0 {
        return Err(WorkloadError::BadDwords { dwords, max });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::O2, UNCACHED_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.movi(Reg::L6, max_retries as i64);
    a.mark(MARK_START);
    let retry = a.new_label();
    let done = a.new_label();
    let fallback = a.new_label();
    a.bind(retry)?;
    a.movi(Reg::L4, dwords as i64);
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O1, 8 * i as i64);
    }
    a.swap(Reg::L4, Reg::O1, 0);
    a.cmpi(Reg::L4, dwords as i64);
    a.bz(done);
    // Failed flush: burn one retry, fall back once the budget is gone.
    a.alui(csb_isa::AluOp::Sub, Reg::L6, Reg::L6, 1);
    a.cmpi(Reg::L6, 0);
    a.bnz(retry);
    a.bind(fallback)?;
    let spin = a.new_label();
    a.bind(spin)?;
    a.movi(Reg::L0, 1);
    a.swap(Reg::L0, Reg::O0, 0);
    a.cmpi(Reg::L0, 0);
    a.bnz(spin);
    a.membar();
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O2, 8 * i as i64);
    }
    a.membar();
    a.std(Reg::G0, Reg::O0, 0);
    a.bind(done)?;
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Software retry policy for the conditional-flush loop — the space of
/// §3.2 livelock remedies the fault sweeps compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryPolicy {
    /// Retry forever, back-to-back (the paper's baseline listing). Under a
    /// hostile fault schedule this is the policy the livelock watchdog
    /// exists for.
    NaiveSpin,
    /// Give up after `attempts` failed conditional flushes and halt
    /// without delivering (success is observable from the device
    /// contents).
    Bounded {
        /// Total flush attempts before giving up (>= 1).
        attempts: u64,
    },
    /// Bounded retries with exponential backoff and deterministic jitter:
    /// after the k-th failure the program spins a delay loop of
    /// `min(base << k, max)` iterations plus a seed-derived jitter of at
    /// most half that, then retries. Jitter is computed at assembly time,
    /// so the program — and therefore the whole simulation — stays fully
    /// deterministic per seed.
    Backoff {
        /// Total flush attempts before giving up (>= 1).
        attempts: u64,
        /// Delay-loop iterations after the first failure.
        base: u64,
        /// Upper bound on the un-jittered delay.
        max: u64,
        /// Jitter seed (vary per actor to de-synchronize retries).
        seed: u64,
    },
}

impl RetryPolicy {
    /// Short label for tables and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RetryPolicy::NaiveSpin => "naive-spin",
            RetryPolicy::Bounded { .. } => "bounded",
            RetryPolicy::Backoff { .. } => "backoff",
        }
    }
}

/// Assembly-time jitter for [`RetryPolicy::Backoff`]: the `attempt`-th
/// SplitMix64 draw of `seed`, reduced into `[0, span)`.
fn backoff_jitter(seed: u64, attempt: u64, span: u64) -> u64 {
    if span == 0 {
        return 0;
    }
    csb_faults::splitmix64(seed.wrapping_add(attempt.wrapping_mul(0x9e37_79b9_7f4a_7c15))) % span
}

/// Builds the CSB atomic-access kernel under a configurable software
/// retry policy: `dwords` combining stores, a conditional flush, and —
/// on failure — whatever [`RetryPolicy`] prescribes. The success path
/// retires [`MARK_END`]; a bounded policy that exhausts its budget halts
/// without it, leaving the device empty (how the fault sweeps measure
/// success rate).
///
/// [`RetryPolicy::NaiveSpin`] reduces to [`csb_sequence`]; bounded
/// policies are unrolled per attempt so each backoff delay can carry its
/// own assembly-time jittered immediate.
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] for out-of-range sizes or a zero
/// attempt budget.
pub fn csb_sequence_with_policy(
    dwords: usize,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    let max_dw = cfg.line() / 8;
    if dwords == 0 || dwords > max_dw {
        return Err(WorkloadError::BadDwords {
            dwords,
            max: max_dw,
        });
    }
    let attempts = match policy {
        RetryPolicy::NaiveSpin => return csb_sequence(dwords, cfg),
        RetryPolicy::Bounded { attempts } | RetryPolicy::Backoff { attempts, .. } => attempts,
    };
    if attempts == 0 {
        return Err(WorkloadError::BadDwords {
            dwords,
            max: max_dw,
        });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.mark(MARK_START);
    let done = a.new_label();
    for attempt in 0..attempts {
        a.movi(Reg::L4, dwords as i64);
        for i in 0..dwords {
            a.std(Reg::L1, Reg::O1, 8 * i as i64);
        }
        a.swap(Reg::L4, Reg::O1, 0);
        a.cmpi(Reg::L4, dwords as i64);
        a.bz(done);
        if attempt + 1 == attempts {
            // Budget exhausted: give up without delivering.
            continue;
        }
        if let RetryPolicy::Backoff {
            base, max, seed, ..
        } = policy
        {
            let delay = (base << attempt.min(63)).min(max.max(base));
            let delay = delay + backoff_jitter(seed, attempt, delay / 2 + 1);
            if delay > 0 {
                let spin = a.new_label();
                a.movi(Reg::L0, delay as i64);
                a.bind(spin)?;
                a.alui(csb_isa::AluOp::Sub, Reg::L0, Reg::L0, 1);
                a.cmpi(Reg::L0, 0);
                a.bnz(spin);
            }
        }
    }
    // Budget exhausted: fall through and halt without MARK_END.
    a.halt();
    a.bind(done)?;
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Builds a worker for the multi-process conflict experiments: `iterations`
/// CSB sequences of `dwords` stores each (each with the full retry loop),
/// all to this process's own `line_index`-th line of the combining window.
///
/// # Errors
///
/// Returns [`WorkloadError`] for out-of-range parameters.
pub fn csb_worker(
    iterations: usize,
    dwords: usize,
    line_index: usize,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    let max = cfg.line() / 8;
    if dwords == 0 || dwords > max {
        return Err(WorkloadError::BadDwords { dwords, max });
    }
    let line_off = (line_index * cfg.line()) as u64;
    if line_off + cfg.line() as u64 > IO_WINDOW {
        return Err(WorkloadError::BadTransfer {
            bytes: line_off as usize,
        });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O1, (COMBINING_BASE + line_off) as i64);
    a.movi(Reg::L1, 0x7373_7373_7373_7373u64 as i64);
    a.movi(Reg::L5, iterations as i64);
    a.mark(MARK_START);
    let outer = a.new_label();
    a.bind(outer)?;
    let retry = a.new_label();
    a.bind(retry)?;
    a.movi(Reg::L4, dwords as i64);
    for i in 0..dwords {
        a.std(Reg::L1, Reg::O1, 8 * i as i64);
    }
    a.swap(Reg::L4, Reg::O1, 0);
    a.cmpi(Reg::L4, dwords as i64);
    a.bnz(retry);
    a.alui(csb_isa::AluOp::Sub, Reg::L5, Reg::L5, 1);
    a.cmpi(Reg::L5, 0);
    a.bnz(outer);
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// Parameters for the reliable-messaging senders ([`csb_messages`] /
/// [`lock_messages`]): a stream of sequence-numbered messages, each one
/// [`csb_nic::Header`]-framed in its own NI window slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessagingSpec {
    /// Messages to send, with consecutive sequence numbers `0..count`.
    pub count: usize,
    /// Payload doublewords per message (the header adds one more).
    pub payload_dwords: usize,
    /// Sender id stamped into every header.
    pub sender: u16,
    /// NI window slots cycled round-robin (message `m` lands in slot
    /// `m % slots`; one slot per cache line).
    pub slots: usize,
}

impl MessagingSpec {
    /// Payload value pattern for message `seq`: the sequence number
    /// replicated into every byte, so receivers can verify payload
    /// integrity per message.
    pub fn payload_pattern(seq: u16) -> u64 {
        u64::from(seq as u8).wrapping_mul(0x0101_0101_0101_0101)
    }

    fn validate(&self, cfg: &SimConfig) -> Result<(), WorkloadError> {
        let max = cfg.line() / 8 - 1;
        if self.payload_dwords == 0 || self.payload_dwords > max {
            return Err(WorkloadError::BadDwords {
                dwords: self.payload_dwords,
                max,
            });
        }
        let window_bytes = self.slots * cfg.line();
        if self.count == 0
            || self.count > u16::MAX as usize
            || self.slots == 0
            || window_bytes as u64 > IO_WINDOW
        {
            return Err(WorkloadError::BadTransfer {
                bytes: window_bytes,
            });
        }
        Ok(())
    }
}

/// Builds the CSB messaging sender: for each message, one combining-store
/// group writes the [`csb_nic::encode_header`] doubleword plus
/// `payload_dwords` payload dwords into the message's window slot, then
/// commits the line with a conditional flush under `policy` — so the NI
/// receives each message as a single atomic burst. A bounded policy that
/// exhausts its flush budget halts the sender mid-stream (messages from
/// that point on are never sent: the receive-side seq accounting reports
/// them as dropped).
///
/// # Errors
///
/// Returns [`WorkloadError`] for out-of-range sizes, slot counts past the
/// I/O window, or a zero attempt budget.
pub fn csb_messages(
    spec: MessagingSpec,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    spec.validate(cfg)?;
    let attempts = match policy {
        RetryPolicy::NaiveSpin => u64::MAX,
        RetryPolicy::Bounded { attempts } | RetryPolicy::Backoff { attempts, .. } => attempts,
    };
    if attempts == 0 {
        return Err(WorkloadError::BadDwords {
            dwords: spec.payload_dwords,
            max: cfg.line() / 8 - 1,
        });
    }
    let expected = spec.payload_dwords as i64 + 1;
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.mark(MARK_START);
    let give_up = a.new_label();
    for m in 0..spec.count {
        let seq = m as u16;
        let line_off = ((m % spec.slots) * cfg.line()) as i64;
        let header = csb_nic::encode_header((spec.payload_dwords * 8) as u16, seq, spec.sender);
        a.movi(Reg::L2, header as i64);
        a.movi(Reg::L1, MessagingSpec::payload_pattern(seq) as i64);
        let msg_done = a.new_label();
        if matches!(policy, RetryPolicy::NaiveSpin) {
            let retry = a.new_label();
            a.bind(retry)?;
            a.movi(Reg::L4, expected);
            a.std(Reg::L2, Reg::O1, line_off);
            for i in 0..spec.payload_dwords {
                a.std(Reg::L1, Reg::O1, line_off + 8 * (i as i64 + 1));
            }
            a.swap(Reg::L4, Reg::O1, line_off);
            a.cmpi(Reg::L4, expected);
            a.bnz(retry);
        } else {
            for attempt in 0..attempts {
                a.movi(Reg::L4, expected);
                a.std(Reg::L2, Reg::O1, line_off);
                for i in 0..spec.payload_dwords {
                    a.std(Reg::L1, Reg::O1, line_off + 8 * (i as i64 + 1));
                }
                a.swap(Reg::L4, Reg::O1, line_off);
                a.cmpi(Reg::L4, expected);
                a.bz(msg_done);
                if attempt + 1 == attempts {
                    continue;
                }
                if let RetryPolicy::Backoff {
                    base, max, seed, ..
                } = policy
                {
                    let delay = (base << attempt.min(63)).min(max.max(base));
                    let delay = delay + backoff_jitter(seed, attempt, delay / 2 + 1);
                    if delay > 0 {
                        let spin = a.new_label();
                        a.movi(Reg::L0, delay as i64);
                        a.bind(spin)?;
                        a.alui(csb_isa::AluOp::Sub, Reg::L0, Reg::L0, 1);
                        a.cmpi(Reg::L0, 0);
                        a.bnz(spin);
                    }
                }
            }
            // This message's budget is gone: abandon the whole stream
            // (later messages would arrive out of order otherwise).
            a.ba(give_up);
        }
        a.bind(msg_done)?;
    }
    a.mark(MARK_END);
    a.halt();
    a.bind(give_up)?;
    a.halt();
    Ok(a.assemble()?)
}

/// Builds the conventional locked messaging sender: for each message, the
/// swap-based spin lock is acquired under `policy`, the header and payload
/// dwords are written to the message's slot as plain uncached stores
/// (strongly ordered, so the NI assembles each frame from a dribble of
/// beats), a membar drains them, and the lock is released. With a single
/// sender the acquire always succeeds on its first attempt; the policy
/// dimension exists so the sweep's program shapes mirror the CSB paths.
///
/// # Errors
///
/// Returns [`WorkloadError`] for out-of-range sizes, slot counts past the
/// I/O window, or a zero attempt budget.
pub fn lock_messages(
    spec: MessagingSpec,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    spec.validate(cfg)?;
    let attempts = match policy {
        RetryPolicy::NaiveSpin => u64::MAX,
        RetryPolicy::Bounded { attempts } | RetryPolicy::Backoff { attempts, .. } => attempts,
    };
    if attempts == 0 {
        return Err(WorkloadError::BadDwords {
            dwords: spec.payload_dwords,
            max: cfg.line() / 8 - 1,
        });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.mark(MARK_START);
    let give_up = a.new_label();
    for m in 0..spec.count {
        let seq = m as u16;
        let line_off = ((m % spec.slots) * cfg.line()) as i64;
        let header = csb_nic::encode_header((spec.payload_dwords * 8) as u16, seq, spec.sender);
        a.movi(Reg::L2, header as i64);
        a.movi(Reg::L1, MessagingSpec::payload_pattern(seq) as i64);
        let acquired = a.new_label();
        if matches!(policy, RetryPolicy::NaiveSpin) {
            let retry = a.new_label();
            a.bind(retry)?;
            a.movi(Reg::L0, 1);
            a.swap(Reg::L0, Reg::O0, 0);
            a.cmpi(Reg::L0, 0);
            a.bnz(retry);
        } else {
            for attempt in 0..attempts {
                a.movi(Reg::L0, 1);
                a.swap(Reg::L0, Reg::O0, 0);
                a.cmpi(Reg::L0, 0);
                a.bz(acquired);
                if attempt + 1 == attempts {
                    continue;
                }
                if let RetryPolicy::Backoff {
                    base, max, seed, ..
                } = policy
                {
                    let delay = (base << attempt.min(63)).min(max.max(base));
                    let delay = delay + backoff_jitter(seed, attempt, delay / 2 + 1);
                    if delay > 0 {
                        let spin = a.new_label();
                        a.movi(Reg::L0, delay as i64);
                        a.bind(spin)?;
                        a.alui(csb_isa::AluOp::Sub, Reg::L0, Reg::L0, 1);
                        a.cmpi(Reg::L0, 0);
                        a.bnz(spin);
                    }
                }
            }
            a.ba(give_up);
        }
        a.bind(acquired)?;
        a.membar();
        a.std(Reg::L2, Reg::O1, line_off);
        for i in 0..spec.payload_dwords {
            a.std(Reg::L1, Reg::O1, line_off + 8 * (i as i64 + 1));
        }
        // The lock may be released only after the last store has left the
        // uncached buffer.
        a.membar();
        a.std(Reg::G0, Reg::O0, 0); // release: store 0 (cached)
    }
    a.mark(MARK_END);
    a.halt();
    a.bind(give_up)?;
    a.halt();
    Ok(a.assemble()?)
}

/// Parameters for [`random_mixed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomMix {
    /// Instructions to generate (excluding the trailing `halt`).
    pub ops: usize,
    /// Percent (0–100) of generated instructions that are memory
    /// operations; the rest are ALU work.
    pub mem_percent: u8,
}

impl Default for RandomMix {
    fn default() -> Self {
        RandomMix {
            ops: 200,
            mem_percent: 40,
        }
    }
}

/// Generates a random but architecturally valid mixed workload: cached
/// loads/stores to a scratch region, uncached and combining doubleword
/// stores, occasional uncached loads, membars, and ALU filler — a stress
/// harness for the whole machine rather than a benchmark.
///
/// Every memory access is naturally aligned and lands in a mapped window;
/// combining stores are always committed with a matching conditional flush
/// (the generator tracks its own store count), so a conflict-free run must
/// end with zero failed flushes. Deterministic per `seed`.
///
/// # Errors
///
/// Returns [`WorkloadError`] if assembly fails (generator bug).
pub fn random_mixed(seed: u64, mix: RandomMix, cfg: &SimConfig) -> Result<Program, WorkloadError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let line = cfg.line() as i64;
    let per_line = (cfg.line() / 8) as i64;
    let mut a = Assembler::new();
    a.movi(Reg::O0, 0x4000); // cached scratch
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::O2, COMBINING_BASE as i64);
    a.movi(Reg::L1, 0x9a9a_9a9a_9a9a_9a9au64 as i64);
    a.mark(MARK_START);

    let mut csb_pending = 0i64; // stores accumulated toward the open line
    let mut emitted = 0usize;
    while emitted < mix.ops {
        let is_mem = rng.gen_range(0..100u8) < mix.mem_percent;
        if !is_mem {
            // ALU filler over scratch registers L2/L3.
            let dst = if rng.gen_bool(0.5) { Reg::L2 } else { Reg::L3 };
            a.alui(csb_isa::AluOp::Add, dst, Reg::L1, rng.gen_range(0..64));
            emitted += 1;
            continue;
        }
        match rng.gen_range(0..5) {
            0 => {
                // Cached store then load (always within 4 KiB scratch).
                let off = rng.gen_range(0..512i64) * 8;
                a.st(Reg::L1, Reg::O0, off, MemWidth::B8);
            }
            1 => {
                let off = rng.gen_range(0..512i64) * 8;
                a.ld(Reg::L2, Reg::O0, off, MemWidth::B8);
            }
            2 => {
                // Plain uncached store anywhere in the window's first 4 KiB.
                let off = rng.gen_range(0..512i64) * 8;
                a.std(Reg::L1, Reg::O1, off);
            }
            3 => {
                // Uncached load (round trip).
                let off = rng.gen_range(0..512i64) * 8;
                a.ld(Reg::L3, Reg::O1, off, MemWidth::B8);
            }
            _ => {
                // Combining store into line 0 of the CSB window; the flush
                // below keeps the bookkeeping exact.
                let slot = rng.gen_range(0..per_line);
                a.std(Reg::L1, Reg::O2, slot * 8);
                csb_pending += 1;
                // Commit with some probability, or when the budget is rich.
                if csb_pending > 0 && (rng.gen_bool(0.3) || csb_pending == per_line) {
                    let retry = a.new_label();
                    a.bind(retry)?;
                    a.movi(Reg::L4, csb_pending);
                    a.swap(Reg::L4, Reg::O2, 0);
                    a.cmpi(Reg::L4, csb_pending);
                    a.bnz(retry);
                    csb_pending = 0;
                }
            }
        }
        if rng.gen_bool(0.05) {
            a.membar();
        }
        emitted += 1;
        let _ = line; // line retained for clarity in offsets above
    }
    // Close any open combining sequence so the run drains fully.
    if csb_pending > 0 {
        let retry = a.new_label();
        a.bind(retry)?;
        a.movi(Reg::L4, csb_pending);
        a.swap(Reg::L4, Reg::O2, 0);
        a.cmpi(Reg::L4, csb_pending);
        a.bnz(retry);
    }
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_program_shapes() {
        let cfg = SimConfig::default();
        let p = store_bandwidth(64, &cfg, StorePath::Uncached).unwrap();
        // 2 setup + mark + 8 stores + mark + halt
        assert_eq!(p.len(), 13);
        let p = store_bandwidth(64, &cfg, StorePath::Csb).unwrap();
        // adds movi/swap/cmp/bnz per line
        assert_eq!(p.len(), 17);
    }

    #[test]
    fn csb_partial_line_expected_count() {
        let cfg = SimConfig::default();
        // 24 bytes = 3 dwords: one group expecting 3.
        let p = store_bandwidth(24, &cfg, StorePath::Csb).unwrap();
        let listing = p.listing();
        assert!(listing.contains("set 3, %l4"), "listing:\n{listing}");
    }

    #[test]
    fn multi_line_csb_groups() {
        let cfg = SimConfig::default().line_size(32);
        // 80 bytes over 32B lines: groups of 4, 4, 2 dwords.
        let p = store_bandwidth(80, &cfg, StorePath::Csb).unwrap();
        let listing = p.listing();
        assert!(listing.contains("set 4, %l4"));
        assert!(listing.contains("set 2, %l4"));
    }

    #[test]
    fn rejects_bad_sizes() {
        let cfg = SimConfig::default();
        assert!(matches!(
            store_bandwidth(0, &cfg, StorePath::Uncached),
            Err(WorkloadError::BadTransfer { .. })
        ));
        assert!(matches!(
            store_bandwidth(12, &cfg, StorePath::Uncached),
            Err(WorkloadError::BadTransfer { .. })
        ));
        assert!(matches!(
            lock_sequence(0),
            Err(WorkloadError::BadDwords { .. })
        ));
        assert!(matches!(
            lock_sequence(513),
            Err(WorkloadError::BadDwords { .. })
        ));
        assert!(matches!(
            csb_sequence(9, &cfg),
            Err(WorkloadError::BadDwords { dwords: 9, max: 8 })
        ));
        assert!(!csb_sequence(9, &cfg).unwrap_err().to_string().is_empty());
    }

    #[test]
    fn lock_sequence_contains_membar_and_release() {
        let p = lock_sequence(4).unwrap();
        let listing = p.listing();
        assert_eq!(listing.matches("membar").count(), 2);
        assert!(listing.contains("swap"));
        assert!(listing.contains("%g0")); // release stores zero
    }

    #[test]
    fn worker_respects_window() {
        let cfg = SimConfig::default();
        assert!(csb_worker(3, 4, 0, &cfg).is_ok());
        assert!(csb_worker(3, 4, 2000, &cfg).is_err());
    }

    fn msg_spec() -> MessagingSpec {
        MessagingSpec {
            count: 4,
            payload_dwords: 3,
            sender: 7,
            slots: 2,
        }
    }

    #[test]
    fn csb_messages_expected_count_includes_header() {
        let cfg = SimConfig::default();
        let p = csb_messages(msg_spec(), RetryPolicy::NaiveSpin, &cfg).unwrap();
        let listing = p.listing();
        // 3 payload dwords + 1 header dword per flush group.
        assert!(listing.contains("set 4, %l4"), "listing:\n{listing}");
        assert_eq!(listing.matches("swap").count(), 4);
    }

    #[test]
    fn bounded_csb_messages_unroll_attempts() {
        let cfg = SimConfig::default();
        let naive = csb_messages(msg_spec(), RetryPolicy::NaiveSpin, &cfg).unwrap();
        let bounded = csb_messages(msg_spec(), RetryPolicy::Bounded { attempts: 3 }, &cfg).unwrap();
        // 3 flush attempts per message instead of one looped attempt.
        assert_eq!(bounded.listing().matches("swap").count(), 12);
        assert!(bounded.len() > naive.len());
    }

    #[test]
    fn lock_messages_bracket_stores_with_membars() {
        let cfg = SimConfig::default();
        let p = lock_messages(msg_spec(), RetryPolicy::NaiveSpin, &cfg).unwrap();
        let listing = p.listing();
        // Two membars per message: post-acquire and pre-release.
        assert_eq!(listing.matches("membar").count(), 8);
        assert!(listing.contains("%g0")); // release stores zero
    }

    #[test]
    fn messaging_rejects_bad_specs() {
        let cfg = SimConfig::default();
        let bad_dwords = MessagingSpec {
            payload_dwords: cfg.line() / 8,
            ..msg_spec()
        };
        assert!(matches!(
            csb_messages(bad_dwords, RetryPolicy::NaiveSpin, &cfg),
            Err(WorkloadError::BadDwords { .. })
        ));
        let bad_window = MessagingSpec {
            slots: 2000,
            ..msg_spec()
        };
        assert!(matches!(
            lock_messages(bad_window, RetryPolicy::NaiveSpin, &cfg),
            Err(WorkloadError::BadTransfer { .. })
        ));
        let empty = MessagingSpec {
            count: 0,
            ..msg_spec()
        };
        assert!(matches!(
            csb_messages(empty, RetryPolicy::NaiveSpin, &cfg),
            Err(WorkloadError::BadTransfer { .. })
        ));
        assert!(csb_messages(msg_spec(), RetryPolicy::Bounded { attempts: 0 }, &cfg).is_err());
        assert!(lock_messages(msg_spec(), RetryPolicy::Bounded { attempts: 0 }, &cfg).is_err());
    }

    #[test]
    fn messaging_headers_decode_back() {
        let spec = msg_spec();
        for seq in 0..spec.count as u16 {
            let h = csb_nic::encode_header((spec.payload_dwords * 8) as u16, seq, spec.sender);
            let d = csb_nic::decode_header(h).unwrap();
            assert_eq!(d.len as usize, spec.payload_dwords * 8);
            assert_eq!(d.seq, seq);
            assert_eq!(d.sender, spec.sender);
        }
    }
}
