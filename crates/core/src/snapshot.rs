//! Deterministic snapshot/resume for the full machine.
//!
//! A snapshot captures **every** stateful component [`Simulator::reset_with`]
//! enumerates — pipeline, caches, functional memory, uncached buffer, CSB,
//! bus, device log, pending completions, fault-schedule counters, watchdog
//! bookkeeping — in a versioned binary frame, so that a restored simulator
//! continues **byte-identically** to one that never stopped: same
//! [`RunSummary`](crate::RunSummary), same statistics, same device bytes,
//! same fault schedule, under both the naive and fast-forward loops.
//!
//! A frame holds what the continuation's results depend on (the tracing
//! and metrics flags and the watchdog thresholds included) and nothing a
//! result does not depend on: not the fast-forward setting or the
//! real-tick count, which are host-side, and no value derived from
//! another. So a frame of the same point at the same cycle is the same
//! bytes on both loops, and a restore is a [`Simulator::reset_with`]
//! followed by the walk, whichever simulator it lands in.
//!
//! The frame is `magic | version | cfg fingerprint | program fingerprint |
//! payload | FNV-1a checksum` (see `csb-snap`). The configuration and
//! program are *not* stored — a snapshot is a delta against the `(cfg,
//! program)` pair the caller supplies to [`Simulator::restore`], and the
//! fingerprints reject a mismatched pair up front instead of producing a
//! silently wrong machine.
//!
//! **Version bump rule:** any change to the byte layout a `state` walk
//! visits anywhere in the workspace — a new field, a reordering, a
//! widened integer — must bump [`SNAPSHOT_FORMAT_VERSION`], and old
//! snapshots are then rejected rather than misread. Cached sweep points
//! hold no frame: their keys and records carry
//! [`CACHE_FORMAT_VERSION`](crate::cache::CACHE_FORMAT_VERSION), which a
//! change to a `SweepPoint::payload` walk or to the record framing bumps.
//!
//! # Examples
//!
//! ```
//! use csb_core::{SimConfig, Simulator, workloads};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SimConfig::default();
//! let program = workloads::store_bandwidth(256, &cfg, workloads::StorePath::Csb)?;
//!
//! // Uninterrupted run.
//! let mut whole = Simulator::new(cfg.clone(), program.clone())?;
//! let expected = whole.run(1_000_000)?;
//!
//! // Run to an arbitrary mid-run cycle, snapshot, restore, continue.
//! let mut first = Simulator::new(cfg.clone(), program.clone())?;
//! first.run_to(150)?;
//! let bytes = first.snapshot();
//! let mut resumed = Simulator::restore(cfg, program, &bytes)?;
//! let got = resumed.run(1_000_000)?;
//! assert_eq!(
//!     serde_json::to_string(&got)?,
//!     serde_json::to_string(&expected)?
//! );
//! # Ok(())
//! # }
//! ```

use std::fmt::{self, Write as _};
use std::path::Path;

use csb_isa::{Inst, Program};
use csb_snap::{fnv1a, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::config::SimConfig;
use crate::sim::{SimError, Simulator};

/// Leading magic of every simulator snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CSBSNAP\0";

/// Version of the snapshot byte layout. Bump on **any** layout change in
/// any component's `state` walk (see the module docs).
pub const SNAPSHOT_FORMAT_VERSION: u32 = 6;

/// FNV-1a fingerprint of a machine configuration, as embedded in
/// snapshot frames and sweep-cache keys.
pub fn config_fingerprint(cfg: &SimConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

/// FNV-1a fingerprint of a program, as embedded in snapshot frames: each
/// instruction plus, for a branch, its resolved target. `Program`'s
/// `Debug` is not used: it renders the branch-target map in hash order,
/// which differs between two builds of the same program, so a frame
/// would not restore against a regenerated program.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut text = String::new();
    for inst in program.iter() {
        let _ = write!(text, "{inst:?};");
        if let Inst::Branch { .. } = inst {
            let _ = write!(text, "->{};", program.branch_target(inst));
        }
    }
    fnv1a(text.as_bytes())
}

/// Why [`Simulator::restore`] refused a snapshot.
#[derive(Debug)]
pub enum RestoreError {
    /// The `(cfg, program)` pair failed machine validation.
    Sim(SimError),
    /// The frame is malformed: bad magic, wrong format version, failed
    /// checksum, or a structurally impossible payload.
    Snapshot(SnapshotError),
    /// The frame was taken under a different machine configuration.
    ConfigMismatch,
    /// The frame was taken under a different program.
    ProgramMismatch,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::Sim(e) => write!(f, "restore rejected: {e}"),
            RestoreError::Snapshot(e) => write!(f, "malformed snapshot: {e}"),
            RestoreError::ConfigMismatch => {
                f.write_str("snapshot was taken under a different machine configuration")
            }
            RestoreError::ProgramMismatch => {
                f.write_str("snapshot was taken under a different program")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<SimError> for RestoreError {
    fn from(e: SimError) -> Self {
        RestoreError::Sim(e)
    }
}

impl From<SnapshotError> for RestoreError {
    fn from(e: SnapshotError) -> Self {
        RestoreError::Snapshot(e)
    }
}

impl Simulator {
    /// Serializes the complete machine state into a versioned,
    /// checksummed frame. Valid at **any** CPU cycle — mid-flush,
    /// mid-bus-transaction, under an active fault schedule. The walk
    /// needs `&mut` fields but changes nothing.
    ///
    /// The configuration and program are fingerprinted, not stored;
    /// [`Simulator::restore`] needs the same pair again.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION);
        w.put_u64(config_fingerprint(self.config()));
        w.put_u64(program_fingerprint(self.cpu().program()));
        self.state(&mut w).expect("a writer never fails");
        w.finish()
    }

    /// Builds a simulator that continues byte-identically from `bytes`
    /// (a frame produced by [`Simulator::snapshot`] under the same
    /// `(cfg, program)` pair).
    ///
    /// # Errors
    ///
    /// [`RestoreError`] when the pair fails validation, the frame is
    /// malformed (truncated, bad checksum, wrong version), or the
    /// fingerprints reveal a different configuration or program.
    pub fn restore(cfg: SimConfig, program: Program, bytes: &[u8]) -> Result<Self, RestoreError> {
        let mut sim = Simulator::new(cfg, program)?;
        sim.restore_from(bytes)?;
        Ok(sim)
    }

    /// Restores `self` in place from `bytes`, reusing this simulator's
    /// allocations (the warm path for worker threads): a
    /// [`Simulator::reset_with`] under this simulator's current
    /// configuration and program, which the snapshot must have been taken
    /// under, then the frame's walk. The fast-forward setting is this
    /// simulator's, not the frame's.
    ///
    /// # Errors
    ///
    /// As for [`Simulator::restore`]. A frame that fails its header or
    /// fingerprints leaves `self` unchanged; on a later error `self` may
    /// be partially restored — warm-reset it before running anything.
    pub fn restore_from(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let mut r = SnapshotReader::framed(bytes, SNAPSHOT_MAGIC, SNAPSHOT_FORMAT_VERSION)?;
        if r.take_u64()? != config_fingerprint(self.config()) {
            return Err(RestoreError::ConfigMismatch);
        }
        if r.take_u64()? != program_fingerprint(self.cpu().program()) {
            return Err(RestoreError::ProgramMismatch);
        }
        let fast_forward = self.fast_forward_enabled();
        self.reset_with(self.config().clone(), self.cpu().program().clone())?;
        self.set_fast_forward(fast_forward);
        self.state(&mut r)?;
        r.expect_end("simulator snapshot")?;
        Ok(())
    }

    /// Advances until the CPU clock reaches `cycle` (or the run
    /// completes first), respecting fast-forward: an idle gap is jumped
    /// but never past `cycle`, so a snapshot taken afterwards is
    /// cycle-exact.
    ///
    /// # Errors
    ///
    /// [`SimError::Livelock`] if the progress watchdog fires first.
    pub fn run_to(&mut self, cycle: u64) -> Result<(), SimError> {
        while !self.complete() && self.cpu().now() < cycle {
            self.advance_checked(cycle)?;
        }
        Ok(())
    }

    /// The [`Simulator::run`] loop with periodic snapshot dumps: at every
    /// multiple of `auto.every` CPU cycles the full machine state is
    /// written to `auto.dir/snap-<cfg fp><program fp>-<point key>-<cycle>.bin`.
    /// Each boundary caps the advance toward it, as in
    /// [`Simulator::run_to`], so fast-forward and the naive loop write
    /// frames at the same cycles. Write failures are swallowed — autosnap
    /// is a forensic aid, never a correctness dependency — and results
    /// are byte-identical to a plain run.
    pub(crate) fn run_autosnap(
        &mut self,
        limit: u64,
        auto: AutosnapConfig<'_>,
    ) -> Result<crate::RunSummary, SimError> {
        let cfg_fp = config_fingerprint(self.config());
        let prog_fp = program_fingerprint(self.cpu().program());
        while !self.complete() {
            if self.cpu().now() >= limit {
                return Err(SimError::CycleLimit { limit });
            }
            let next = auto.next_boundary(self.cpu().now(), limit);
            while !self.complete() && self.cpu().now() < next {
                self.advance_checked(next)?;
            }
            if !self.complete() && auto.is_boundary(self.cpu().now()) {
                auto.write(cfg_fp, prog_fp, self.cpu().now(), &self.snapshot());
            }
        }
        Ok(self.summary())
    }
}

/// Periodic snapshot dumping for the points of a sweep, carried in the
/// sweep's [`ObsConfig`](crate::experiments::runner::ObsConfig): at every
/// multiple of `every` CPU cycles of each simulated point, a restorable
/// snapshot goes into `dir`, named by the machine's configuration and
/// program fingerprints, the point's cache key and the cycle. The bench
/// binaries wire this to `--snapshot-every` so a long or misbehaving point
/// can be resumed and dissected from the nearest dump instead of
/// re-simulated from cycle zero.
#[derive(Debug, Clone, Copy)]
pub struct AutosnapConfig<'a> {
    /// CPU cycles between dumps.
    pub every: u64,
    /// Directory the `snap-*.bin` files go to.
    pub dir: &'a Path,
    /// Cache key of the point being simulated: points that share a
    /// configuration and a program (one program under several fault
    /// schedules) still write distinct frames. The sweep engine sets it
    /// for each point.
    point: u64,
}

impl<'a> AutosnapConfig<'a> {
    /// Dumps every `every` CPU cycles into `dir`.
    pub fn new(every: u64, dir: &'a Path) -> Self {
        AutosnapConfig {
            every,
            dir,
            point: 0,
        }
    }

    /// The same dumps, named for the point with cache key `key`.
    pub(crate) fn for_point(self, key: u64) -> Self {
        AutosnapConfig { point: key, ..self }
    }

    /// The cycle a run at `now` stops at next: the following multiple of
    /// `every`, or `limit` if that comes first.
    pub(crate) fn next_boundary(self, now: u64, limit: u64) -> u64 {
        let every = self.every.max(1);
        (now / every + 1).saturating_mul(every).min(limit)
    }

    /// Whether a frame is due at `cycle`.
    pub(crate) fn is_boundary(self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.every.max(1))
    }

    /// Writes `frame`, taken at `cycle` of a run whose configuration and
    /// program fingerprints are `cfg_fp` and `prog_fp`, as
    /// `dir/snap-<cfg fp><program fp>-<point key>-<cycle>.bin`. A failed
    /// write is swallowed: autosnap is a forensic aid, never a
    /// correctness dependency.
    pub(crate) fn write(self, cfg_fp: u64, prog_fp: u64, cycle: u64, frame: &[u8]) {
        let name = format!(
            "snap-{cfg_fp:016x}{prog_fp:016x}-{:016x}-{cycle:012}.bin",
            self.point
        );
        let _ = std::fs::write(self.dir.join(name), frame);
    }
}
