//! Sparse functional memory.

use std::collections::HashMap;

/// Size of each internally allocated memory chunk.
const CHUNK: u64 = 4096;

/// Sparse byte-addressable memory holding the simulated machine's data.
///
/// Unwritten locations read as zero. Values are little-endian.
///
/// # Examples
///
/// ```
/// use csb_isa::Addr;
/// use csb_mem::FlatMemory;
///
/// let mut mem = FlatMemory::new();
/// mem.write(Addr::new(0x1000), 8, 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(Addr::new(0x1000), 8), 0xdead_beef_cafe_f00d);
/// assert_eq!(mem.read(Addr::new(0x1004), 4), 0xdead_beef);
/// assert_eq!(mem.read(Addr::new(0x9999), 8), 0); // untouched reads zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlatMemory {
    chunks: HashMap<u64, Box<[u8]>>,
}

impl FlatMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn chunk_mut(&mut self, base: u64) -> &mut [u8] {
        self.chunks
            .entry(base)
            .or_insert_with(|| vec![0u8; CHUNK as usize].into_boxed_slice())
    }

    /// Reads `width` bytes (1–8) at `addr` as a little-endian value.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn read(&self, addr: csb_isa::Addr, width: usize) -> u64 {
        assert!((1..=8).contains(&width), "width {width} out of range");
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf[..width]);
        u64::from_le_bytes(buf)
    }

    /// Writes the low `width` bytes (1–8) of `value` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 8.
    pub fn write(&mut self, addr: csb_isa::Addr, width: usize, value: u64) {
        assert!((1..=8).contains(&width), "width {width} out of range");
        let bytes = value.to_le_bytes();
        self.write_bytes(addr, &bytes[..width]);
    }

    /// Atomically swaps `value` with the 8-byte word at `addr`, returning the
    /// old contents (the SPARC `swap` semantics the lock benchmark relies on).
    pub fn swap(&mut self, addr: csb_isa::Addr, value: u64) -> u64 {
        let old = self.read(addr, 8);
        self.write(addr, 8, value);
        old
    }

    /// Copies bytes out of memory into `buf`, one chunk lookup per chunk
    /// the range touches.
    pub fn read_bytes(&self, addr: csb_isa::Addr, buf: &mut [u8]) {
        let mut a = addr.raw();
        let mut rest = buf;
        while !rest.is_empty() {
            let (base, off) = (a & !(CHUNK - 1), (a & (CHUNK - 1)) as usize);
            let n = rest.len().min(CHUNK as usize - off);
            let (part, tail) = rest.split_at_mut(n);
            match self.chunks.get(&base) {
                Some(c) => part.copy_from_slice(&c[off..off + n]),
                None => part.fill(0),
            }
            rest = tail;
            a = a.wrapping_add(n as u64);
        }
    }

    /// Copies `buf` into memory, one chunk lookup per chunk the range
    /// touches.
    pub fn write_bytes(&mut self, addr: csb_isa::Addr, buf: &[u8]) {
        let mut a = addr.raw();
        let mut rest = buf;
        while !rest.is_empty() {
            let (base, off) = (a & !(CHUNK - 1), (a & (CHUNK - 1)) as usize);
            let n = rest.len().min(CHUNK as usize - off);
            self.chunk_mut(base)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            a = a.wrapping_add(n as u64);
        }
    }

    /// Walks the memory contents: every chunk holding at least one
    /// nonzero byte, sorted by base address. All-zero chunks are skipped,
    /// so the byte stream depends only on the memory's observable
    /// contents — not on which chunks a warm-reused instance happens to
    /// have allocated. A restore reads into all-zero memory (fresh, or
    /// after [`FlatMemory::reset`]) and rewrites the saved chunks.
    ///
    /// # Errors
    ///
    /// [`csb_snap::SnapshotError`] on a malformed stream.
    pub fn state(&mut self, s: &mut impl csb_snap::Codec) -> Result<(), csb_snap::SnapshotError> {
        s.tag("flat")?;
        let mut bases: Vec<u64> = self
            .chunks
            .iter()
            .filter(|(_, c)| c.iter().any(|&b| b != 0))
            .map(|(&base, _)| base)
            .collect();
        bases.sort_unstable();
        s.list(&mut bases, usize::MAX, "memory chunks", 0, |s, base| {
            s.u64(base)?;
            if s.reading() && *base % CHUNK != 0 {
                return Err(csb_snap::SnapshotError::Corrupt(format!(
                    "unaligned memory chunk base {base:#x}"
                )));
            }
            s.raw(self.chunk_mut(*base))
        })
    }

    /// Zeroes every allocated chunk in place, keeping the storage. The
    /// memory reads all-zero afterwards — indistinguishable from a fresh
    /// instance — without returning anything to the allocator, which is
    /// what the simulator's warm-reset path wants between sweep points.
    pub fn reset(&mut self) {
        for chunk in self.chunks.values_mut() {
            chunk.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csb_isa::Addr;

    #[test]
    fn read_write_round_trip_all_widths() {
        let mut m = FlatMemory::new();
        for (w, v) in [
            (1usize, 0xabu64),
            (2, 0xabcd),
            (4, 0xdead_beef),
            (8, u64::MAX - 5),
        ] {
            m.write(Addr::new(0x100), w, v);
            assert_eq!(m.read(Addr::new(0x100), w), v);
        }
    }

    #[test]
    fn cross_chunk_access() {
        let mut m = FlatMemory::new();
        let boundary = Addr::new(CHUNK - 4);
        m.write(boundary, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read(boundary, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.chunks.len(), 2);
    }

    #[test]
    fn swap_returns_old_value() {
        let mut m = FlatMemory::new();
        m.write(Addr::new(0x40), 8, 7);
        let old = m.swap(Addr::new(0x40), 99);
        assert_eq!(old, 7);
        assert_eq!(m.read(Addr::new(0x40), 8), 99);
        // Swap on untouched memory returns zero (unlocked lock).
        assert_eq!(m.swap(Addr::new(0x80), 1), 0);
    }

    #[test]
    fn partial_overwrite_is_little_endian() {
        let mut m = FlatMemory::new();
        m.write(Addr::new(0), 8, 0xffff_ffff_ffff_ffff);
        m.write(Addr::new(0), 2, 0);
        assert_eq!(m.read(Addr::new(0), 8), 0xffff_ffff_ffff_0000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        FlatMemory::new().read(Addr::new(0), 0);
    }

    #[test]
    fn byte_slices_cross_a_chunk_edge_into_an_untouched_chunk() {
        let mut m = FlatMemory::new();
        let edge = 3 * CHUNK;
        m.write(Addr::new(edge - 8), 8, u64::MAX);
        // Starts in a touched chunk, ends in one nothing has written.
        let mut buf = [0xaau8; 12];
        m.read_bytes(Addr::new(edge - 4), &mut buf);
        assert_eq!(buf, [0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(m.chunks.len(), 1, "reads allocate nothing");
        let data: Vec<u8> = (1..=10).collect();
        m.write_bytes(Addr::new(edge - 3), &data);
        assert_eq!(m.chunks.len(), 2);
        let mut back = [0u8; 14];
        m.read_bytes(Addr::new(edge - 5), &mut back);
        assert_eq!(back, [0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0]);
        // A range wider than a chunk spans three of them.
        let wide = vec![7u8; CHUNK as usize + 2];
        m.write_bytes(Addr::new(8 * CHUNK - 1), &wide);
        assert_eq!(m.chunks.len(), 5);
        let mut out = vec![0u8; CHUNK as usize + 4];
        m.read_bytes(Addr::new(8 * CHUNK - 2), &mut out);
        assert_eq!(out[0], 0);
        assert!(out[1..=CHUNK as usize + 2].iter().all(|&b| b == 7));
        assert_eq!(out[CHUNK as usize + 3], 0);
    }

    #[test]
    fn byte_slice_io() {
        let mut m = FlatMemory::new();
        m.write_bytes(Addr::new(0x10), &[1, 2, 3, 4, 5]);
        let mut buf = [0u8; 5];
        m.read_bytes(Addr::new(0x10), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5]);
    }
}
