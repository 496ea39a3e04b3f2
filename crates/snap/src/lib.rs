//! Versioned binary snapshot format for the CSB simulator.
//!
//! The workspace's vendored `serde` shim serializes only, so simulator
//! snapshots and cache entries use this hand-rolled format instead: a
//! fixed-width little-endian byte stream framed by an 8-byte magic, a
//! format version, and a trailing FNV-1a checksum over everything before
//! it.
//!
//! Layout of a framed document:
//!
//! ```text
//! magic[8] | version u32 | payload ... | checksum u64
//! ```
//!
//! Every multi-byte integer is little-endian. Compound values are
//! length-prefixed (`u64` count) or tag-prefixed (`u8` discriminant for
//! options and enums). Components additionally drop named section tags
//! ([`SnapshotWriter::put_tag`]) into the stream; a reader that drifts
//! out of alignment fails on the next tag with the section's name
//! instead of silently misinterpreting bytes.
//!
//! Version discipline: any change to what a component writes — field
//! added, removed, reordered, or re-encoded — must bump the consumer's
//! format version (see `SNAPSHOT_FORMAT_VERSION` in `csb-core`). Readers
//! never attempt cross-version migration; a mismatched version is an
//! error the caller handles by re-simulating.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice — the checksum and key hash used
/// throughout the snapshot and cache layers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`fnv1a`] over a string's UTF-8 bytes.
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Incremental [`fnv1a`]: feed byte runs with [`Fnv1a::update`], read the
/// digest with [`Fnv1a::finish`]. Hashing N runs produces the same digest
/// as hashing their concatenation, so streaming callers (e.g. hashing a
/// `Debug` rendering as it is written) avoid materializing the input.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher in the empty-input state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Why a snapshot or cache entry could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The document ends before the value being read.
    Truncated,
    /// The leading magic does not identify this document kind.
    BadMagic,
    /// The document's format version is not the one this build reads.
    Version {
        /// Version found in the document.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The trailing FNV-1a checksum does not match the content.
    Checksum,
    /// A section tag or value failed validation; the payload names the
    /// section or invariant that failed.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::Version { found, expected } => {
                write!(f, "snapshot format version {found}, expected {expected}")
            }
            SnapshotError::Checksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Appends fixed-width little-endian values to a growing byte buffer.
/// Pair with [`SnapshotReader`]: every `put_x` call must be mirrored by
/// a `take_x` call in the same order.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty, unframed writer (for cache-entry payloads, which the
    /// caller frames itself).
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// A writer pre-seeded with the document frame header: `magic`,
    /// then `version`. Finish with [`SnapshotWriter::finish`].
    pub fn framed(magic: [u8; 8], version: u32) -> Self {
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(256),
        };
        w.buf.extend_from_slice(&magic);
        w.put_u32(version);
        w
    }

    /// Appends the trailing checksum and returns the finished document.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.put_u64(sum);
        self.buf
    }

    /// Bytes written so far (before the checksum).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drops a named section tag into the stream. The matching
    /// [`SnapshotReader::take_tag`] turns any encode/decode misalignment
    /// into a named error at the section boundary.
    pub fn put_tag(&mut self, name: &str) {
        self.put_u32(fnv1a_str(name) as u32);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends an `Option<u64>` as a tag byte plus the value when set.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends raw bytes with no length prefix (fixed-width payloads
    /// whose length both sides know).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads values back in the order a [`SnapshotWriter`] wrote them.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over an unframed payload (cache-entry bodies).
    pub fn new(data: &'a [u8]) -> Self {
        SnapshotReader { data, pos: 0 }
    }

    /// Validates a framed document — magic, version, trailing checksum —
    /// and returns a reader positioned at the start of the payload.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] / [`SnapshotError::Version`] /
    /// [`SnapshotError::Checksum`] / [`SnapshotError::Truncated`] per
    /// which part of the frame fails.
    pub fn framed(
        data: &'a [u8],
        magic: [u8; 8],
        version: u32,
    ) -> Result<SnapshotReader<'a>, SnapshotError> {
        // magic + version + checksum is the minimum well-formed document.
        if data.len() < 8 + 4 + 8 {
            return Err(SnapshotError::Truncated);
        }
        if data[..8] != magic {
            return Err(SnapshotError::BadMagic);
        }
        let (body, sum_bytes) = data.split_at(data.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().expect("8-byte split"));
        if fnv1a(body) != stored {
            return Err(SnapshotError::Checksum);
        }
        let mut r = SnapshotReader { data: body, pos: 8 };
        let found = r.take_u32()?;
        if found != version {
            return Err(SnapshotError::Version {
                found,
                expected: version,
            });
        }
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails with [`SnapshotError::Corrupt`] naming the document if any
    /// payload bytes remain unread — the end-of-decode sanity check.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when trailing bytes remain.
    pub fn expect_end(&self, what: &str) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{what}: {} trailing byte(s)",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Verifies the next section tag matches `name`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the section on mismatch.
    pub fn take_tag(&mut self, name: &str) -> Result<(), SnapshotError> {
        let found = self.take_u32()?;
        if found != fnv1a_str(name) as u32 {
            return Err(SnapshotError::Corrupt(format!("section tag {name:?}")));
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte, rejecting values other than `0`/`1`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`].
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4-byte take"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte take"),
        ))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] when the
    /// value does not fit this platform's `usize`.
    pub fn take_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| SnapshotError::Corrupt("usize overflow".to_string()))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an `Option<u64>` written by [`SnapshotWriter::put_opt_u64`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`].
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_u64()?)),
            b => Err(SnapshotError::Corrupt(format!("option tag {b}"))),
        }
    }

    /// Reads a length-prefixed byte string, borrowed from the document.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.take_usize()?;
        self.take(n)
    }

    /// Reads `n` raw bytes (fixed-width payloads).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"CSBTEST\0";

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_str("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn round_trips_every_primitive() {
        let mut w = SnapshotWriter::framed(MAGIC, 3);
        w.put_tag("prims");
        w.put_u8(0xab);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 1);
        w.put_usize(123_456);
        w.put_f64(3.875);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(7));
        w.put_bytes(b"payload");
        w.put_raw(&[1, 2, 3]);
        let doc = w.finish();

        let mut r = SnapshotReader::framed(&doc, MAGIC, 3).unwrap();
        r.take_tag("prims").unwrap();
        assert_eq!(r.take_u8().unwrap(), 0xab);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_usize().unwrap(), 123_456);
        assert_eq!(r.take_f64().unwrap(), 3.875);
        assert_eq!(r.take_opt_u64().unwrap(), None);
        assert_eq!(r.take_opt_u64().unwrap(), Some(7));
        assert_eq!(r.take_bytes().unwrap(), b"payload");
        assert_eq!(r.take_raw(3).unwrap(), &[1, 2, 3]);
        r.expect_end("test doc").unwrap();
    }

    #[test]
    fn frame_rejects_tampering() {
        let mut w = SnapshotWriter::framed(MAGIC, 1);
        w.put_u64(99);
        let doc = w.finish();

        // Wrong magic.
        assert_eq!(
            SnapshotReader::framed(&doc, *b"WRONGMAG", 1).unwrap_err(),
            SnapshotError::BadMagic
        );
        // Wrong version (checksum still valid).
        assert!(matches!(
            SnapshotReader::framed(&doc, MAGIC, 2).unwrap_err(),
            SnapshotError::Version {
                found: 1,
                expected: 2
            }
        ));
        // One flipped payload bit fails the checksum.
        let mut bad = doc.clone();
        bad[13] ^= 0x40;
        assert_eq!(
            SnapshotReader::framed(&bad, MAGIC, 1).unwrap_err(),
            SnapshotError::Checksum
        );
        // Truncation below the minimum frame.
        assert_eq!(
            SnapshotReader::framed(&doc[..10], MAGIC, 1).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn misaligned_reads_fail_on_tags() {
        let mut w = SnapshotWriter::framed(MAGIC, 1);
        w.put_tag("alpha");
        w.put_u64(1);
        w.put_tag("beta");
        let doc = w.finish();
        let mut r = SnapshotReader::framed(&doc, MAGIC, 1).unwrap();
        r.take_tag("alpha").unwrap();
        // Reading the wrong width desynchronizes; the next tag catches it.
        let _ = r.take_u32().unwrap();
        assert!(matches!(
            r.take_tag("beta").unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn reads_past_the_end_are_truncated() {
        let mut r = SnapshotReader::new(&[1, 2]);
        assert_eq!(r.take_u64().unwrap_err(), SnapshotError::Truncated);
        assert_eq!(r.take_u8().unwrap(), 1);
        assert_eq!(r.take_raw(2).unwrap_err(), SnapshotError::Truncated);
    }
}
