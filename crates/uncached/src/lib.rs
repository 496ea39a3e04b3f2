//! The uncached buffer, hardware combining baselines, and the conditional
//! store buffer (CSB).
//!
//! This crate implements the paper's primary contribution and the baseline
//! mechanisms it is compared against:
//!
//! * [`UncachedBuffer`] — the FIFO buffer between the processor and the
//!   system interface that holds uncached loads and stores. Configured with
//!   a combining block size it models the spectrum of hardware-transparent
//!   write combining found in 1990s processors: 8 B (non-combining, every
//!   store is its own bus transaction), 16 B (PowerPC 620-style pairing), up
//!   to a full cache line (MIPS R10000 uncached-accelerated mode). Combining
//!   is opportunistic: a store coalesces into a waiting entry only while the
//!   bus keeps that entry waiting, and the resulting transactions must be
//!   naturally aligned powers of two — which is why hardware combining
//!   cannot guarantee a single burst.
//! * [`ConditionalStoreBuffer`] — the paper's CSB (§3.2): one cache line of
//!   data plus the issuing process's ID, the line-aligned target address,
//!   and a hit counter. Software accumulates *combining stores* and commits
//!   them with a *conditional flush* that atomically emits the line as a
//!   single burst — or fails, returning 0, if a competing process disturbed
//!   the buffer. This provides lock-free, exactly-once device access.
//! * [`ByteMask`] / [`decompose`] — the natural-alignment burst decomposition
//!   shared by both mechanisms.
//!
//! # Examples
//!
//! An uninterrupted CSB sequence commits atomically; an interleaved store
//! from another process makes the flush fail:
//!
//! ```
//! use csb_isa::Addr;
//! use csb_uncached::{ConditionalStoreBuffer, CsbConfig, FlushOutcome};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut csb = ConditionalStoreBuffer::new(CsbConfig::new(64))?;
//! let line = Addr::new(0x2000_0000);
//!
//! for i in 0..8u64 {
//!     csb.store(1, line.offset(8 * i as i64), &i.to_le_bytes())?;
//! }
//! assert_eq!(csb.conditional_flush(1, line, 8), FlushOutcome::Success);
//! let burst = csb.transaction_accepted(); // the bus takes the line
//! assert_eq!(burst.txn.size, 64);
//!
//! // Second attempt by PID 1, but PID 2 sneaks a store in.
//! csb.store(1, line, &[0xff; 8])?;
//! csb.store(2, line.offset(8), &[0xee; 8])?; // clears the buffer, count=1
//! assert_eq!(csb.conditional_flush(1, line, 2), FlushOutcome::Fail);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod buffer;
mod csb;
mod mask;

pub use buffer::{
    CombineRule, PushOutcome, UncachedBuffer, UncachedConfig, UncachedConfigError, UncachedStats,
};
pub use csb::{
    ConditionalStoreBuffer, CsbConfig, CsbConfigError, CsbError, CsbStats, FlushOutcome,
    StoreOutcome,
};
pub use mask::{decompose, decompose_into, ByteMask, Chunk, MAX_BLOCK};

/// `bytes` as little-endian words, the last one zero-padded: how the
/// buffers' stream prints hold data.
fn words_of(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks(8).map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    })
}

/// Fixed-capacity inline payload staging: up to [`MAX_BLOCK`] bytes held
/// directly in the value, no heap allocation. This is the data half of
/// every transaction the uncached buffer and the CSB prepare — sized by
/// the largest line the model supports, so staging, peeking, and handing a
/// payload to the bus are all allocation-free in steady state.
///
/// Dereferences to `[u8]`, so slicing, indexing, and iteration work as
/// they did when this was a `Vec<u8>`.
#[derive(Clone, Copy)]
pub struct PayloadBuf {
    len: u8,
    bytes: [u8; MAX_BLOCK],
}

impl PayloadBuf {
    /// The empty payload (a read transaction carries no data).
    pub const fn empty() -> Self {
        PayloadBuf {
            len: 0,
            bytes: [0; MAX_BLOCK],
        }
    }

    /// Copies `src` into a fresh payload.
    ///
    /// # Panics
    ///
    /// Panics if `src` exceeds [`MAX_BLOCK`] bytes.
    pub fn from_slice(src: &[u8]) -> Self {
        assert!(
            src.len() <= MAX_BLOCK,
            "payload of {} bytes exceeds {MAX_BLOCK}",
            src.len()
        );
        let mut p = PayloadBuf::empty();
        p.bytes[..src.len()].copy_from_slice(src);
        p.len = src.len() as u8;
        p
    }

    /// The staged bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// Number of staged bytes.
    #[allow(clippy::len_without_is_empty)] // is_empty comes via Deref
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Walks the staged bytes as a length-prefixed byte string of at most
    /// [`MAX_BLOCK`] bytes.
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream or a payload
    /// longer than [`MAX_BLOCK`].
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        let mut n = self.len();
        s.len(&mut n, MAX_BLOCK, "payload bytes")?;
        self.len = n as u8;
        s.raw(&mut self.bytes[..n])
    }
}

impl std::ops::Deref for PayloadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBuf {}

impl PartialEq<[u8]> for PayloadBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PayloadBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PayloadBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for PayloadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(src: &[u8]) -> Self {
        PayloadBuf::from_slice(src)
    }
}

// Serialized exactly as the `Vec<u8>` it replaced: a JSON array of
// numbers, so checked-in artifacts are unchanged.
impl serde::Serialize for PayloadBuf {
    fn to_value(&self) -> serde::value::Value {
        serde::value::Value::Array(
            self.as_slice()
                .iter()
                .map(serde::Serialize::to_value)
                .collect(),
        )
    }
}

/// A bus transaction paired with the data bytes it carries.
///
/// [`csb_bus::Transaction`] is timing-only; I/O devices in the simulator
/// also need the written values, which travel alongside in a fixed
/// [`PayloadBuf`] — copying a prepared transaction is a plain memcpy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedTxn {
    /// The timing-level transaction to hand to the bus.
    pub txn: csb_bus::Transaction,
    /// The `txn.size` data bytes (padding already zeroed).
    pub data: PayloadBuf,
}
