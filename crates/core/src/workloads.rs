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
//!
//! Every generator is a composition of one software idiom (§3.2), and each
//! part of it is written once, by a private emitter: `lock_attempt` (the
//! `swap` acquire), `locked_access` (barrier, stores, barrier, release),
//! `csb_attempt` (arm the count, stores, conditional flush, compare), and
//! `retry`, which repeats an attempt under a [`RetryPolicy`] — the paper's
//! `retry: …; bnz retry` loop, or one unrolled copy per attempt with its
//! `bz` and backoff delay. A program's identity (snapshot headers,
//! autosnap frame names) hashes each branch by its resolved target pc,
//! not its label id, so an emitter may allocate its labels in any order.

use std::fmt;

use csb_isa::{AluOp, Assembler, Label, MemWidth, Program, ProgramError, Reg};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// A bounded retry policy or a lock fallback with no attempt to spend.
    ZeroBudget,
    /// A backoff delay that a `set` immediate cannot hold.
    DelayOverflow {
        /// Zero-based index of the failed attempt the delay follows.
        failure: u64,
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
            WorkloadError::ZeroBudget => {
                f.write_str("retry budget of 0 attempts; at least 1 is required")
            }
            WorkloadError::DelayOverflow { failure } => {
                write!(
                    f,
                    "backoff delay after failure {failure} exceeds i64::MAX iterations"
                )
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
    let (dwords, per_line) = (total_bytes / 8, cfg.line() / 8);
    let mut a = Assembler::new();
    a.movi(Reg::L1, 0x5151_5151_5151_5151u64 as i64);
    a.mark(MARK_START);
    let base = if path == StorePath::Uncached {
        UNCACHED_BASE
    } else {
        COMBINING_BASE
    };
    a.movi(Reg::O1, base as i64);
    // (out-of-line stub, line entry) pairs, emitted after `halt`.
    let mut stubs = Vec::new();
    for first in (0..dwords).step_by(per_line) {
        let (n, off) = ((dwords - first).min(per_line), 8 * first as i64);
        let stores = |a: &mut Assembler| {
            for i in order.order(n) {
                a.std(Reg::L1, Reg::O1, off + 8 * i as i64);
            }
        };
        match path {
            StorePath::Uncached => stores(&mut a),
            StorePath::Csb => retry_loop(&mut a, |a| csb_attempt(a, Reg::O1, off, n, stores))?,
            StorePath::CsbOutlined => {
                let (retry, stub) = (a.new_label(), a.new_label());
                a.bind(retry)?;
                csb_attempt(&mut a, Reg::O1, off, n, stores);
                // Forward branch: predicted not-taken, i.e. correct on a
                // successful flush. A failed flush pays one squash to
                // reach the stub, which re-enters the line's retry loop.
                a.bnz(stub);
                stubs.push((stub, retry));
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
    check_dwords(dwords, 512)?;
    let mut a = lock_prologue();
    a.mark(MARK_START);
    retry_loop(&mut a, lock_attempt)?;
    locked_access(&mut a, |a| store_dwords(a, Reg::O1, 0, dwords));
    finish(a)
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
    check_dwords(dwords, 512)?;
    worker(lock_prologue(), iterations, |a| {
        retry_loop(a, lock_attempt)?;
        locked_access(a, |a| store_dwords(a, Reg::O1, 0, dwords));
        Ok(())
    })
}

/// Builds the CSB atomic-access kernel of §4.2: `dwords` combining stores
/// followed by a conditional flush, its check, and a retry branch. The
/// access is architecturally complete as soon as the flush succeeds.
///
/// # Errors
///
/// Returns [`WorkloadError::BadDwords`] unless `1 <= dwords <= line/8`.
pub fn csb_sequence(dwords: usize, cfg: &SimConfig) -> Result<Program, WorkloadError> {
    check_dwords(dwords, cfg.line() / 8)?;
    let mut a = csb_prologue();
    retry_loop(&mut a, line_attempt(dwords))?;
    finish(a)
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
/// Returns [`WorkloadError::BadDwords`] for out-of-range sizes and
/// [`WorkloadError::ZeroBudget`] for a zero retry budget.
pub fn csb_sequence_with_fallback(
    dwords: usize,
    max_retries: u64,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    check_dwords(dwords, cfg.line() / 8)?;
    if max_retries == 0 {
        return Err(WorkloadError::ZeroBudget);
    }
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::O2, UNCACHED_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.movi(Reg::L6, max_retries as i64);
    a.mark(MARK_START);
    let (retry, done) = (a.new_label(), a.new_label());
    a.bind(retry)?;
    line_attempt(dwords)(&mut a);
    a.bz(done);
    // Failed flush: burn one retry, fall back once the budget is gone.
    a.alui(AluOp::Sub, Reg::L6, Reg::L6, 1);
    a.cmpi(Reg::L6, 0);
    a.bnz(retry);
    retry_loop(&mut a, lock_attempt)?;
    locked_access(&mut a, |a| store_dwords(a, Reg::O2, 0, dwords));
    a.bind(done)?;
    finish(a)
}

/// Software retry policy for the conditional-flush loop — the space of
/// §3.2 livelock remedies the fault sweeps compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
    /// `min(base · 2^k, max(base, max))` iterations plus a seed-derived
    /// jitter of at most half that, then retries. Jitter is computed at
    /// assembly time, so the program — and therefore the whole simulation
    /// — stays fully deterministic per seed.
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
/// Returns [`WorkloadError::BadDwords`] for out-of-range sizes,
/// [`WorkloadError::ZeroBudget`] for a zero attempt budget, and
/// [`WorkloadError::DelayOverflow`] for a backoff delay past `i64::MAX`.
pub fn csb_sequence_with_policy(
    dwords: usize,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    if policy == RetryPolicy::NaiveSpin {
        return csb_sequence(dwords, cfg);
    }
    check_dwords(dwords, cfg.line() / 8)?;
    let mut a = csb_prologue();
    let done = a.new_label();
    retry(&mut a, policy, done, line_attempt(dwords))?;
    // Budget exhausted: halt without MARK_END.
    a.halt();
    a.bind(done)?;
    finish(a)
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
    check_dwords(dwords, cfg.line() / 8)?;
    let line_off = (line_index * cfg.line()) as u64;
    if line_off + cfg.line() as u64 > IO_WINDOW {
        return Err(WorkloadError::BadTransfer {
            bytes: line_off as usize,
        });
    }
    let mut a = Assembler::new();
    a.movi(Reg::O1, (COMBINING_BASE + line_off) as i64);
    a.movi(Reg::L1, 0x7373_7373_7373_7373u64 as i64);
    worker(a, iterations, |a| retry_loop(a, line_attempt(dwords)))
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
        check_dwords(self.payload_dwords, cfg.line() / 8 - 1)?;
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

    /// Stores one message's frame at `off(%o1)`: the header in `%l2`, then
    /// the payload pattern in `%l1`.
    fn frame(&self, a: &mut Assembler, off: i64) {
        a.std(Reg::L2, Reg::O1, off);
        store_dwords(a, Reg::O1, off + 8, self.payload_dwords);
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
/// I/O window, a zero attempt budget, or a backoff delay past `i64::MAX`.
pub fn csb_messages(
    spec: MessagingSpec,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    let count = spec.payload_dwords + 1;
    let attempt =
        |a: &mut Assembler, off| csb_attempt(a, Reg::O1, off, count, |a| spec.frame(a, off));
    messages(a, spec, policy, cfg, attempt, |_, _| {})
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
/// I/O window, a zero attempt budget, or a backoff delay past `i64::MAX`.
pub fn lock_messages(
    spec: MessagingSpec,
    policy: RetryPolicy,
    cfg: &SimConfig,
) -> Result<Program, WorkloadError> {
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    let sent = |a: &mut Assembler, off| locked_access(a, |a| spec.frame(a, off));
    messages(a, spec, policy, cfg, |a, _| lock_attempt(a), sent)
}

/// The stream both messaging senders share. Each message loads its header
/// into `%l2` and its payload pattern into `%l1`, retries `attempt` under
/// `policy`, then runs `sent`; both get the message's slot offset. A
/// message whose budget runs out abandons the rest of the stream (later
/// messages would arrive out of order otherwise).
fn messages(
    mut a: Assembler,
    spec: MessagingSpec,
    policy: RetryPolicy,
    cfg: &SimConfig,
    attempt: impl Fn(&mut Assembler, i64),
    sent: impl Fn(&mut Assembler, i64),
) -> Result<Program, WorkloadError> {
    spec.validate(cfg)?;
    a.mark(MARK_START);
    let give_up = a.new_label();
    for m in 0..spec.count {
        let seq = m as u16;
        let off = ((m % spec.slots) * cfg.line()) as i64;
        let header = csb_nic::encode_header((spec.payload_dwords * 8) as u16, seq, spec.sender);
        a.movi(Reg::L2, header as i64);
        a.movi(Reg::L1, MessagingSpec::payload_pattern(seq) as i64);
        let done = a.new_label();
        retry(&mut a, policy, done, |a| attempt(a, off))?;
        if policy != RetryPolicy::NaiveSpin {
            // This message's budget is gone: abandon the whole stream.
            a.ba(give_up);
        }
        a.bind(done)?;
        sent(&mut a, off);
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
            a.alui(AluOp::Add, dst, Reg::L1, rng.gen_range(0..64));
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
                    retry_loop(&mut a, |a| {
                        csb_attempt(a, Reg::O2, 0, csb_pending as usize, |_| {})
                    })?;
                    csb_pending = 0;
                }
            }
        }
        if rng.gen_bool(0.05) {
            a.membar();
        }
        emitted += 1;
    }
    // Close any open combining sequence so the run drains fully.
    if csb_pending > 0 {
        retry_loop(&mut a, |a| {
            csb_attempt(a, Reg::O2, 0, csb_pending as usize, |_| {})
        })?;
    }
    finish(a)
}

/// `Ok` when `1 <= dwords <= max`.
fn check_dwords(dwords: usize, max: usize) -> Result<(), WorkloadError> {
    if dwords == 0 || dwords > max {
        return Err(WorkloadError::BadDwords { dwords, max });
    }
    Ok(())
}

/// The lock kernels' registers: the lock word in `%o0`, the device in
/// `%o1`, the store value in `%l1`.
fn lock_prologue() -> Assembler {
    let mut a = Assembler::new();
    a.movi(Reg::O0, LOCK_ADDR as i64);
    a.movi(Reg::O1, UNCACHED_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a
}

/// The CSB kernels' registers — the combining line in `%o1`, the store
/// value in `%l1` — and the start mark.
fn csb_prologue() -> Assembler {
    let mut a = Assembler::new();
    a.movi(Reg::O1, COMBINING_BASE as i64);
    a.movi(Reg::L1, 0x6262_6262_6262_6262u64 as i64);
    a.mark(MARK_START);
    a
}

/// Retires the end mark, halts, and assembles.
fn finish(mut a: Assembler) -> Result<Program, WorkloadError> {
    a.mark(MARK_END);
    a.halt();
    Ok(a.assemble()?)
}

/// `iterations` passes of `body` between the timing marks, counted down in
/// `%l5`.
fn worker(
    mut a: Assembler,
    iterations: usize,
    body: impl FnOnce(&mut Assembler) -> Result<(), WorkloadError>,
) -> Result<Program, WorkloadError> {
    a.movi(Reg::L5, iterations as i64);
    a.mark(MARK_START);
    let outer = a.new_label();
    a.bind(outer)?;
    body(&mut a)?;
    a.alui(AluOp::Sub, Reg::L5, Reg::L5, 1);
    a.cmpi(Reg::L5, 0);
    a.bnz(outer);
    finish(a)
}

/// Stores `%l1` into `dwords` consecutive doublewords from `off(base)`.
fn store_dwords(a: &mut Assembler, base: Reg, off: i64, dwords: usize) {
    for i in 0..dwords {
        a.std(Reg::L1, base, off + 8 * i as i64);
    }
}

/// One lock-acquire attempt (§4.2): swap 1 into the lock word at `%o0`.
/// The condition codes read "equal" when the old value was 0, i.e. the
/// lock is now held.
fn lock_attempt(a: &mut Assembler) {
    a.movi(Reg::L0, 1);
    a.swap(Reg::L0, Reg::O0, 0);
    a.cmpi(Reg::L0, 0);
}

/// The device access under the held lock at `%o0`: a barrier between the
/// acquire and the device stores, `stores`, then a barrier so the release
/// (a cached store of 0) waits until the last uncached store has left the
/// uncached buffer.
fn locked_access(a: &mut Assembler, stores: impl FnOnce(&mut Assembler)) {
    a.membar();
    stores(a);
    a.membar();
    a.std(Reg::G0, Reg::O0, 0);
}

/// One CSB attempt (§3.2): arm the expected store count in `%l4`, issue
/// `stores` into the combining line at `off(base)`, conditionally flush
/// the line, and compare. The condition codes read "equal" when all
/// `count` stores left as one burst.
fn csb_attempt(
    a: &mut Assembler,
    base: Reg,
    off: i64,
    count: usize,
    stores: impl FnOnce(&mut Assembler),
) {
    a.movi(Reg::L4, count as i64);
    stores(a);
    a.swap(Reg::L4, base, off);
    a.cmpi(Reg::L4, count as i64);
}

/// The CSB attempt of the single-line kernels: `dwords` stores of `%l1`
/// from the start of the line at `%o1`.
fn line_attempt(dwords: usize) -> impl Fn(&mut Assembler) {
    move |a| {
        csb_attempt(a, Reg::O1, 0, dwords, |a| {
            store_dwords(a, Reg::O1, 0, dwords)
        })
    }
}

/// The paper's §3.2 retry loop, `retry: attempt; bnz retry`: repeats
/// `attempt` until it leaves "equal" in the condition codes.
fn retry_loop(
    a: &mut Assembler,
    attempt: impl FnOnce(&mut Assembler),
) -> Result<(), WorkloadError> {
    let retry = a.new_label();
    a.bind(retry)?;
    attempt(a);
    a.bnz(retry);
    Ok(())
}

/// Repeats `attempt` under `policy` until it leaves "equal" in the
/// condition codes, then continues at `done`. [`RetryPolicy::NaiveSpin`]
/// is the [`retry_loop`], which never reaches `done` through a branch.
/// A bounded policy emits one copy of `attempt` per attempt, each followed
/// by `bz done` and, under [`RetryPolicy::Backoff`], by the jittered delay
/// loop before the next copy; it falls through once its budget is spent.
///
/// The delay after failure `k` is `min(base · 2^k, max(base, max))`
/// iterations, saturating rather than wrapping, plus jitter. It counts
/// down `%l0` in the `sub; cmp #0; bnz` shape that periodic fast-forward
/// recognises, and this is the one place a delay loop is written.
fn retry(
    a: &mut Assembler,
    policy: RetryPolicy,
    done: Label,
    attempt: impl Fn(&mut Assembler),
) -> Result<(), WorkloadError> {
    let attempts = match policy {
        RetryPolicy::NaiveSpin => return retry_loop(a, attempt),
        RetryPolicy::Bounded { attempts } | RetryPolicy::Backoff { attempts, .. } => attempts,
    };
    if attempts == 0 {
        return Err(WorkloadError::ZeroBudget);
    }
    for k in 0..attempts {
        attempt(a);
        a.bz(done);
        // No delay after the last failure: the caller gives up at once.
        let RetryPolicy::Backoff {
            base, max, seed, ..
        } = policy
        else {
            continue;
        };
        if k + 1 == attempts {
            break;
        }
        let delay = base
            .saturating_mul(2u64.saturating_pow(k.min(64) as u32))
            .min(max.max(base));
        let delay = delay
            .checked_add(backoff_jitter(seed, k, delay / 2 + 1))
            .and_then(|d| i64::try_from(d).ok())
            .ok_or(WorkloadError::DelayOverflow { failure: k })?;
        if delay > 0 {
            let spin = a.new_label();
            a.movi(Reg::L0, delay);
            a.bind(spin)?;
            a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
            a.cmpi(Reg::L0, 0);
            a.bnz(spin);
        }
    }
    Ok(())
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

    /// A program's identity hashes each branch by its resolved target, so
    /// the same code is the same program whatever order its labels were
    /// allocated in and whatever labels it bound that nothing targets.
    #[test]
    fn program_identity_ignores_label_ids() {
        let build = |swapped: bool, spare: bool, exit_at_top: bool| {
            let mut a = Assembler::new();
            let spare = spare.then(|| a.new_label());
            let (top, out) = if swapped {
                let out = a.new_label();
                (a.new_label(), out)
            } else {
                (a.new_label(), a.new_label())
            };
            a.movi(Reg::L0, 4);
            a.bind(top).unwrap();
            if let Some(spare) = spare {
                a.bind(spare).unwrap();
            }
            a.alui(AluOp::Sub, Reg::L0, Reg::L0, 1);
            a.cmpi(Reg::L0, 0);
            a.bz(if exit_at_top { top } else { out });
            a.ba(top);
            a.bind(out).unwrap();
            a.halt();
            a.assemble().unwrap()
        };
        let plain = build(false, false, false);
        for (swapped, spare) in [(true, false), (false, true)] {
            let relabeled = build(swapped, spare, false);
            assert_ne!(relabeled, plain, "the label ids differ");
            assert_eq!(csb_snap::hash_of(&relabeled), csb_snap::hash_of(&plain));
        }
        let retargeted = build(false, false, true);
        assert_ne!(csb_snap::hash_of(&retargeted), csb_snap::hash_of(&plain));
    }

    #[test]
    fn zero_budgets_are_reported_as_budgets() {
        let cfg = SimConfig::default();
        let bounded = RetryPolicy::Bounded { attempts: 0 };
        let backoff = RetryPolicy::Backoff {
            attempts: 0,
            base: 32,
            max: 1024,
            seed: 1,
        };
        for result in [
            csb_sequence_with_policy(4, bounded, &cfg),
            csb_sequence_with_fallback(4, 0, &cfg),
            csb_messages(msg_spec(), bounded, &cfg),
            lock_messages(msg_spec(), backoff, &cfg),
        ] {
            let e = result.unwrap_err();
            assert_eq!(e, WorkloadError::ZeroBudget);
            assert!(e.to_string().contains("budget"), "{e}");
        }
        // A size outside the line is still reported as the size.
        assert_eq!(
            csb_sequence_with_fallback(9, 0, &cfg).unwrap_err(),
            WorkloadError::BadDwords { dwords: 9, max: 8 }
        );
    }

    #[test]
    fn backoff_delays_saturate_instead_of_wrapping() {
        let cfg = SimConfig::default();
        let extremes = [0, 1, 32, 1 << 40, i64::MAX as u64, u64::MAX];
        for attempts in 1..=70u64 {
            for base in extremes {
                for max in extremes {
                    let policy = RetryPolicy::Backoff {
                        attempts,
                        base,
                        max,
                        seed: 1,
                    };
                    // min(base · 2^k, max(base, max)), without overflow.
                    let floor =
                        |k: u64| (u128::from(base) << k.min(64)).min(u128::from(max.max(base)));
                    match csb_sequence_with_policy(4, policy, &cfg) {
                        Ok(p) => {
                            // Only the delay loops load %l0 in a CSB kernel.
                            let delays: Vec<i64> = p
                                .iter()
                                .filter_map(|inst| match *inst {
                                    csb_isa::Inst::Movi { dst: Reg::L0, imm } => Some(imm),
                                    _ => None,
                                })
                                .collect();
                            if base >= 1 {
                                assert_eq!(delays.len() as u64, attempts - 1, "{policy:?}");
                            }
                            for (k, &delay) in (0u64..).zip(&delays) {
                                assert!(delay >= 0, "{policy:?}: delay {k} is {delay}");
                                assert!(delay as u128 >= floor(k), "{policy:?}: delay {k}");
                            }
                        }
                        Err(WorkloadError::DelayOverflow { failure }) => {
                            // The jitter adds at most half the delay.
                            let f = floor(failure);
                            assert!(f + f / 2 > i64::MAX as u128, "{policy:?}: {failure}");
                        }
                        Err(e) => panic!("{policy:?}: {e}"),
                    }
                }
            }
        }
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
