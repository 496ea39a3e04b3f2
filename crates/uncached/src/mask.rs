//! Byte-presence masks and natural-alignment burst decomposition.
//!
//! System buses in the modeled era transfer naturally aligned power-of-two
//! sizes only (§4.1: "All transactions must be naturally aligned, which
//! restricts the ability to combine stores"). When a combining buffer entry
//! drains, its present bytes must therefore be carved into such chunks —
//! e.g. seven consecutive doublewords starting at offset 8 become an 8-byte,
//! a 16-byte, and a 32-byte transaction, while eight doublewords starting at
//! offset 0 are a single 64-byte burst. This is the effect behind the
//! paper's observation that going from 7 to 8 doublewords *reduces* latency.

use serde::Serialize;

/// Maximum supported combining block (the largest cache line studied).
pub const MAX_BLOCK: usize = 128;

/// One naturally aligned power-of-two chunk produced by [`decompose`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Chunk {
    /// Byte offset within the block.
    pub offset: usize,
    /// Chunk size in bytes (power of two).
    pub size: usize,
}

/// A presence bitmask over a block of up to [`MAX_BLOCK`] bytes.
///
/// Bit *i* set means byte *i* of the block holds valid store data.
///
/// # Examples
///
/// ```
/// use csb_uncached::ByteMask;
///
/// let mut m = ByteMask::empty();
/// m.set_range(8, 8);
/// assert_eq!(m.count(), 8);
/// assert!(m.covers(8, 8));
/// assert!(!m.covers(0, 16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct ByteMask(u128);

impl ByteMask {
    /// The empty mask.
    pub const fn empty() -> Self {
        ByteMask(0)
    }

    /// Mask with bytes `[offset, offset + len)` set.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`MAX_BLOCK`].
    pub fn range(offset: usize, len: usize) -> Self {
        let mut m = ByteMask::empty();
        m.set_range(offset, len);
        m
    }

    /// Sets bytes `[offset, offset + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`MAX_BLOCK`].
    pub fn set_range(&mut self, offset: usize, len: usize) {
        assert!(
            offset + len <= MAX_BLOCK,
            "range {offset}+{len} exceeds {MAX_BLOCK}"
        );
        if len == 0 {
            return;
        }
        let bits = if len == MAX_BLOCK {
            u128::MAX
        } else {
            ((1u128 << len) - 1) << offset
        };
        self.0 |= bits;
    }

    /// Returns `true` if every byte of `[offset, offset + len)` is set.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds [`MAX_BLOCK`].
    pub fn covers(&self, offset: usize, len: usize) -> bool {
        assert!(
            offset + len <= MAX_BLOCK,
            "range {offset}+{len} exceeds {MAX_BLOCK}"
        );
        if len == 0 {
            return true;
        }
        let bits = if len == MAX_BLOCK {
            u128::MAX
        } else {
            ((1u128 << len) - 1) << offset
        };
        self.0 & bits == bits
    }

    /// Number of present bytes.
    pub const fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if no byte is present.
    pub const fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Returns `true` if byte `i` is present.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < MAX_BLOCK);
        self.0 >> i & 1 == 1
    }

    /// Raw bits (bit *i* = byte *i*).
    pub const fn bits(&self) -> u128 {
        self.0
    }

    /// Walks the bytes of `data` under the mask. A store fills only bytes
    /// under its buffer's mask and every buffer starts zeroed, so the
    /// others are zero, and a restore into a zeroed buffer leaves them so.
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub(crate) fn walk_bytes(
        self,
        data: &mut [u8; MAX_BLOCK],
        s: &mut impl csb_snap::Codec,
    ) -> Result<(), csb_snap::SnapshotError> {
        for (i, b) in data.iter_mut().enumerate() {
            if self.0 >> i & 1 != 0 {
                s.u8(b)?;
            }
        }
        Ok(())
    }

    /// Rebuilds a mask from [`ByteMask::bits`] (snapshot restore).
    pub const fn from_bits(bits: u128) -> Self {
        ByteMask(bits)
    }
}

impl std::ops::BitOr for ByteMask {
    type Output = ByteMask;
    fn bitor(self, rhs: ByteMask) -> ByteMask {
        ByteMask(self.0 | rhs.0)
    }
}

/// Decomposes a presence mask into the minimal greedy sequence of maximal
/// naturally aligned power-of-two chunks, capped at `max_chunk` bytes.
///
/// Chunks are returned in ascending offset order and cover exactly the set
/// bytes. Bytes that are present but cannot pad a larger aligned chunk are
/// emitted as smaller transactions — this models the series of single-beat
/// transfers a hardware combining buffer degrades to when software cannot
/// guarantee a full line.
///
/// # Panics
///
/// Panics if `max_chunk` is zero or not a power of two.
///
/// # Examples
///
/// ```
/// use csb_uncached::{decompose, ByteMask, Chunk};
///
/// // Doublewords 1..8 (bytes 8..64): 8B + 16B + 32B.
/// let chunks = decompose(ByteMask::range(8, 56), 64);
/// assert_eq!(
///     chunks,
///     vec![
///         Chunk { offset: 8, size: 8 },
///         Chunk { offset: 16, size: 16 },
///         Chunk { offset: 32, size: 32 },
///     ]
/// );
///
/// // A full aligned line is a single burst.
/// assert_eq!(decompose(ByteMask::range(0, 64), 64).len(), 1);
/// ```
pub fn decompose(mask: ByteMask, max_chunk: usize) -> Vec<Chunk> {
    let mut out = Vec::new();
    decompose_into(mask, max_chunk, |c| out.push(c));
    out
}

/// Streaming form of [`decompose`]: invokes `emit` for each chunk in
/// ascending offset order without allocating. The hot drain path uses this
/// to refill a reused scratch queue.
///
/// # Panics
///
/// Panics if `max_chunk` is zero or not a power of two.
pub fn decompose_into(mask: ByteMask, max_chunk: usize, mut emit: impl FnMut(Chunk)) {
    assert!(
        max_chunk > 0 && max_chunk.is_power_of_two(),
        "max_chunk {max_chunk} must be a nonzero power of two"
    );
    let mut bits = mask.bits();
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        let mut size = 1usize;
        // Grow while alignment holds, the doubled chunk stays within the
        // cap, and all of its bytes are present.
        while size < max_chunk {
            let next = size * 2;
            if !i.is_multiple_of(next) || i + next > MAX_BLOCK || !mask.covers(i, next) {
                break;
            }
            size = next;
        }
        emit(Chunk { offset: i, size });
        let clear = if size == MAX_BLOCK {
            u128::MAX
        } else {
            ((1u128 << size) - 1) << i
        };
        bits &= !clear;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_basics() {
        let m = ByteMask::range(0, 0);
        assert!(m.is_empty());
        let m = ByteMask::range(4, 4);
        assert_eq!(m.count(), 4);
        assert!(m.get(4) && m.get(7) && !m.get(3) && !m.get(8));
        assert!(m.covers(4, 4));
        assert!(m.covers(5, 2));
        assert!(!m.covers(4, 5));
        assert!(m.covers(0, 0));
        let full = ByteMask::range(0, MAX_BLOCK);
        assert_eq!(full.count(), MAX_BLOCK);
        assert!(full.covers(0, MAX_BLOCK));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn mask_bounds_checked() {
        ByteMask::range(120, 16);
    }

    #[test]
    fn or_merges() {
        let m = ByteMask::range(0, 8) | ByteMask::range(8, 8);
        assert!(m.covers(0, 16));
    }

    #[test]
    fn decompose_full_line() {
        assert_eq!(
            decompose(ByteMask::range(0, 64), 64),
            vec![Chunk {
                offset: 0,
                size: 64
            }]
        );
    }

    #[test]
    fn decompose_seven_dwords() {
        // The paper's 7-vs-8 dword effect: 7 dwords -> 3 transactions.
        let chunks = decompose(ByteMask::range(0, 56), 64);
        assert_eq!(
            chunks,
            vec![
                Chunk {
                    offset: 0,
                    size: 32
                },
                Chunk {
                    offset: 32,
                    size: 16
                },
                Chunk {
                    offset: 48,
                    size: 8
                },
            ]
        );
    }

    #[test]
    fn decompose_respects_cap() {
        // Same 56 bytes but capped at 16-byte chunks.
        let chunks = decompose(ByteMask::range(0, 56), 16);
        assert_eq!(chunks.len(), 4); // 16+16+16+8
        assert!(chunks.iter().all(|c| c.size <= 16));
    }

    #[test]
    fn decompose_single_bytes() {
        let mut m = ByteMask::empty();
        m.set_range(3, 1);
        m.set_range(9, 1);
        let chunks = decompose(m, 64);
        assert_eq!(
            chunks,
            vec![Chunk { offset: 3, size: 1 }, Chunk { offset: 9, size: 1 }]
        );
    }

    #[test]
    fn decompose_empty() {
        assert!(decompose(ByteMask::empty(), 64).is_empty());
    }

    #[test]
    fn decompose_max_block() {
        assert_eq!(
            decompose(ByteMask::range(0, 128), 128),
            vec![Chunk {
                offset: 0,
                size: 128
            }]
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn decompose_rejects_bad_cap() {
        decompose(ByteMask::range(0, 8), 24);
    }

    #[test]
    fn chunks_are_aligned_and_cover_exactly() {
        // Deterministic sweep over many masks; the proptest suite fuzzes more.
        for seed in 0..512u64 {
            let bits = (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) as u128) << (seed % 64);
            let mask = ByteMask(bits & ((1u128 << 64) - 1));
            let chunks = decompose(mask, 64);
            let mut rebuilt = ByteMask::empty();
            for c in &chunks {
                assert!(c.size.is_power_of_two());
                assert_eq!(c.offset % c.size, 0, "chunk {c:?} not naturally aligned");
                assert!(mask.covers(c.offset, c.size));
                assert!(!rebuilt.covers(c.offset, 1), "chunk overlap at {c:?}");
                rebuilt.set_range(c.offset, c.size);
            }
            assert_eq!(rebuilt, mask, "decomposition must cover exactly");
        }
    }
}
