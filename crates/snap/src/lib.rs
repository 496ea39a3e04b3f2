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
//! ([`Codec::tag`]) into the stream; a reader that drifts out of
//! alignment fails on the next tag with the section's name instead of
//! silently misinterpreting bytes.
//!
//! A component writes its layout once, as one walk over its fields
//! through a [`Codec`]: the [`SnapshotWriter`] appends each field it
//! visits, the [`SnapshotReader`] overwrites it from the stream, so the
//! two directions cannot drift apart. A reading walk starts from a
//! component fresh from its reset, so it only overwrites; work only a
//! restore needs — validation and rebuilding derived state — runs under
//! [`Codec::reading`].
//!
//! Version discipline: any change to what a component's walk visits —
//! field added, removed, reordered, or re-encoded — must bump the
//! consumer's format version (see `SNAPSHOT_FORMAT_VERSION` in
//! `csb-core`). Readers never attempt cross-version migration; a
//! mismatched version is an error the caller handles by re-simulating.

use std::fmt;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice — the checksum used throughout the
/// snapshot and cache layers.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// [`Fnv1a`] over `value`'s [`Hash`](std::hash::Hash) walk: the one
/// identity of a machine configuration, a program or a sweep point. It is
/// the same on every host (see the [`Hasher`](std::hash::Hasher) impl).
pub fn hash_of(value: &(impl std::hash::Hash + ?Sized)) -> u64 {
    let mut h = Fnv1a::new();
    value.hash(&mut h);
    h.finish()
}

/// [`fnv1a`] over a string's UTF-8 bytes.
pub fn fnv1a_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Incremental [`fnv1a`]: feed byte runs with [`Fnv1a::update`], read the
/// digest with [`Fnv1a::finish`]. Hashing N runs produces the same digest
/// as hashing their concatenation, so streaming callers avoid
/// materializing the input.
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

/// Integers fold as fixed-width little-endian bytes, and `usize` and
/// `isize` widen to 64 bits, so a value hashes the same on every host.
/// (Signed integers other than `isize` reach the unsigned writers through
/// the trait's defaults.)
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn write_u16(&mut self, v: u16) {
        self.update(&v.to_le_bytes());
    }

    fn write_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.update(&v.to_le_bytes());
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as i64 as u64);
    }

    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
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

/// One walk over a value's serialized fields, run in either direction.
///
/// Each method visits one field through `&mut`: a [`SnapshotWriter`]
/// appends its value, a [`SnapshotReader`] overwrites it with the next
/// value in the stream (and rejects bytes no writer produces). Only
/// [`Codec::reading`], [`Codec::remaining`] and [`Codec::raw`] differ
/// between the two; every other method is built on them, so both
/// directions share one byte layout by construction. A writer never
/// returns `Err`.
pub trait Codec {
    /// `true` when the walk overwrites fields from a stream: restore-only
    /// work (validation, derived state) runs under it.
    fn reading(&self) -> bool;

    /// Bytes not yet consumed (unbounded for a writer).
    fn remaining(&self) -> usize;

    /// Visits `v.len()` bytes with no length prefix (fixed-width payloads
    /// whose length both sides know).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapshotError>;

    /// A named section tag: written, or checked against `name`, turning
    /// any misalignment into a named error at the section boundary.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming the section on mismatch.
    fn tag(&mut self, name: &str) -> Result<(), SnapshotError> {
        let want = fnv1a_str(name) as u32;
        let mut found = want;
        self.u32(&mut found)?;
        if found != want {
            return Err(SnapshotError::Corrupt(format!("section tag {name:?}")));
        }
        Ok(())
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn u8(&mut self, v: &mut u8) -> Result<(), SnapshotError> {
        self.raw(std::slice::from_mut(v))
    }

    /// A bool as one byte, `0` or `1`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on any other byte.
    fn bool(&mut self, v: &mut bool) -> Result<(), SnapshotError> {
        let mut b = u8::from(*v);
        self.u8(&mut b)?;
        *v = match b {
            0 => false,
            1 => true,
            b => return Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        };
        Ok(())
    }

    /// A little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn u32(&mut self, v: &mut u32) -> Result<(), SnapshotError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u32::from_le_bytes(b);
        Ok(())
    }

    /// A little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn u64(&mut self, v: &mut u64) -> Result<(), SnapshotError> {
        let mut b = v.to_le_bytes();
        self.raw(&mut b)?;
        *v = u64::from_le_bytes(b);
        Ok(())
    }

    /// A `usize` as a `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the value does not fit this
    /// platform's `usize`.
    fn usize(&mut self, v: &mut usize) -> Result<(), SnapshotError> {
        let mut x = *v as u64;
        self.u64(&mut x)?;
        *v = usize::try_from(x).map_err(|_| SnapshotError::Corrupt("usize overflow".into()))?;
        Ok(())
    }

    /// An `f64` as its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn f64(&mut self, v: &mut f64) -> Result<(), SnapshotError> {
        self.u64_as(v, f64::to_bits, f64::from_bits)
    }

    /// An `Option<u64>` as a tag byte plus the value when set.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] on a tag other than `0`/`1`.
    fn opt_u64(&mut self, v: &mut Option<u64>) -> Result<(), SnapshotError> {
        self.opt(v, || 0, |s, x| s.u64(x))
    }

    /// A count that sizes what follows. On read it rejects a count above
    /// `max`, or above the bytes left (every counted item takes at least
    /// one byte), before anything is sized by it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming `what` for an impossible count.
    fn len(&mut self, n: &mut usize, max: usize, what: &str) -> Result<(), SnapshotError> {
        self.usize(n)?;
        if self.reading() && *n > max.min(self.remaining()) {
            return Err(SnapshotError::Corrupt(format!(
                "{n} {what} exceed the bound {max} or the {} bytes left",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// An option as a bool, then `walk` over the value when set. On read
    /// a set option starts from `empty()`.
    ///
    /// # Errors
    ///
    /// Whatever the tag or `walk` reports.
    fn opt<T>(
        &mut self,
        v: &mut Option<T>,
        empty: impl FnOnce() -> T,
        walk: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if self.reading() {
            *v = some.then(empty);
        }
        match v {
            Some(x) => walk(self, x),
            None => Ok(()),
        }
    }

    /// An enum discriminant `k` below `kinds`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] naming `what` for an unknown kind.
    fn kind(&mut self, k: &mut u8, kinds: u8, what: &str) -> Result<(), SnapshotError> {
        self.u8(k)?;
        if *k >= kinds {
            return Err(SnapshotError::Corrupt(format!("unknown {what} {k}")));
        }
        Ok(())
    }

    /// A value stored as the `u64` that `to` gives and `from` rebuilds.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn u64_as<T: Copy>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(T) -> u64,
        from: impl FnOnce(u64) -> T,
    ) -> Result<(), SnapshotError> {
        let mut x = to(*v);
        self.u64(&mut x)?;
        if self.reading() {
            *v = from(x);
        }
        Ok(())
    }

    /// A value stored as the `u128` that `to` gives and `from` rebuilds,
    /// low `u64` first.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    fn u128_as<T: Copy>(
        &mut self,
        v: &mut T,
        to: impl FnOnce(T) -> u128,
        from: impl FnOnce(u128) -> T,
    ) -> Result<(), SnapshotError> {
        let x = to(*v);
        let (mut lo, mut hi) = (x as u64, (x >> 64) as u64);
        self.u64(&mut lo)?;
        self.u64(&mut hi)?;
        if self.reading() {
            *v = from(u128::from(hi) << 64 | u128::from(lo));
        }
        Ok(())
    }

    /// A counted list: its count as [`Codec::len`] with `max` and
    /// `what`, then `walk` over each element in order. On read the list
    /// starts empty (a restore reads into a component fresh from its
    /// reset) and is first filled with the count's `blank`s.
    ///
    /// # Errors
    ///
    /// Whatever the count or `walk` reports.
    fn list<L, T: Clone>(
        &mut self,
        v: &mut L,
        max: usize,
        what: &str,
        blank: T,
        mut walk: impl FnMut(&mut Self, &mut T) -> Result<(), SnapshotError>,
    ) -> Result<(), SnapshotError>
    where
        L: Extend<T>,
        for<'a> &'a mut L: IntoIterator<Item = &'a mut T>,
    {
        let had = (&mut *v).into_iter().count();
        let mut n = had;
        self.len(&mut n, max, what)?;
        if self.reading() {
            debug_assert_eq!(had, 0, "{what} read into a list that is not empty");
            v.extend(std::iter::repeat_n(blank, n));
        }
        v.into_iter().try_for_each(|x| walk(self, x))
    }

    /// A length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for a length past the bytes left.
    fn bytes(&mut self, v: &mut Vec<u8>) -> Result<(), SnapshotError> {
        self.list(v, usize::MAX, "bytes", 0, |_, _| Ok(()))?;
        self.raw(v)
    }
}

/// Appends fixed-width little-endian values to a growing byte buffer: the
/// writing side of a [`Codec`] walk, plus `put_x` calls for documents
/// written by hand and read back with [`SnapshotReader`]'s `take_x`.
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

    /// The bytes written so far, with no checksum: for a payload whose
    /// caller frames and checks it.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Drops a named section tag into the stream (see [`Codec::tag`]).
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

    /// Appends raw bytes with no length prefix (fixed-width payloads
    /// whose length both sides know).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

impl Codec for SnapshotWriter {
    fn reading(&self) -> bool {
        false
    }

    fn remaining(&self) -> usize {
        usize::MAX
    }

    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapshotError> {
        self.put_raw(v);
        Ok(())
    }
}

/// Reads values back in the order a [`SnapshotWriter`] wrote them: the
/// reading side of a [`Codec`] walk, plus `take_x` calls.
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
        self.tag(name)
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
        let mut v = false;
        self.bool(&mut v)?;
        Ok(v)
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
        let mut v = 0;
        self.usize(&mut v)?;
        Ok(v)
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of document.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
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

impl Codec for SnapshotReader<'_> {
    fn reading(&self) -> bool {
        true
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn raw(&mut self, v: &mut [u8]) -> Result<(), SnapshotError> {
        v.copy_from_slice(self.take(v.len())?);
        Ok(())
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
    fn hash_of_folds_integers_as_fixed_width_little_endian() {
        let one = fnv1a(&1u64.to_le_bytes());
        assert_eq!(hash_of(&1u64), one);
        assert_eq!(hash_of(&1usize), one, "usize widens to 64 bits");
        assert_eq!(hash_of(&-1isize), fnv1a(&u64::MAX.to_le_bytes()));
        assert_eq!(hash_of(&-1i32), fnv1a(&u32::MAX.to_le_bytes()));
        assert_eq!(hash_of(&0x0102u16), fnv1a(&[2, 1]));
        // A slice folds its length first, a `str` its bytes then 0xff.
        let mut slice = 2u64.to_le_bytes().to_vec();
        slice.extend_from_slice(&[7, 9]);
        assert_eq!(hash_of(&[7u8, 9][..]), fnv1a(&slice));
        assert_eq!(hash_of("ab"), fnv1a(b"ab\xff"));
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
        w.opt_u64(&mut None).unwrap();
        w.opt_u64(&mut Some(7)).unwrap();
        w.bytes(&mut b"payload".to_vec()).unwrap();
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
        let (mut none, mut some, mut bytes) = (Some(1), None, Vec::new());
        r.opt_u64(&mut none).unwrap();
        r.opt_u64(&mut some).unwrap();
        r.bytes(&mut bytes).unwrap();
        assert_eq!((none, some), (None, Some(7)));
        assert_eq!(bytes, b"payload");
        assert_eq!(r.take_raw(3).unwrap(), &[1, 2, 3]);
        r.expect_end("test doc").unwrap();
    }

    /// Every field kind a [`Codec`] walk visits, once each.
    #[derive(Debug, Clone, PartialEq)]
    struct AllKinds {
        small: u8,
        flag: bool,
        word: u32,
        wide: u64,
        size: usize,
        real: f64,
        maybe: Option<u64>,
        fixed: [u8; 3],
        count: usize,
        nested: Option<(u64, bool)>,
        kind: u8,
        stamp: Stamp,
        mask: Stamp,
        blob: Vec<u8>,
        queue: std::collections::VecDeque<(u64, bool)>,
    }

    /// A newtype walked through [`Codec::u64_as`] and [`Codec::u128_as`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Stamp(u128);

    impl AllKinds {
        fn state(&mut self, s: &mut impl Codec) -> Result<(), SnapshotError> {
            s.tag("all")?;
            s.u8(&mut self.small)?;
            s.bool(&mut self.flag)?;
            s.u32(&mut self.word)?;
            s.u64(&mut self.wide)?;
            s.usize(&mut self.size)?;
            s.f64(&mut self.real)?;
            s.opt_u64(&mut self.maybe)?;
            s.raw(&mut self.fixed)?;
            s.len(&mut self.count, 4, "items")?;
            s.opt(
                &mut self.nested,
                || (0, false),
                |s, (a, b)| {
                    s.u64(a)?;
                    s.bool(b)
                },
            )?;
            s.kind(&mut self.kind, 3, "kind")?;
            s.u64_as(&mut self.stamp, |t| t.0 as u64, |x| Stamp(x.into()))?;
            s.u128_as(&mut self.mask, |t| t.0, Stamp)?;
            s.bytes(&mut self.blob)?;
            s.list(&mut self.queue, 3, "queue", (0, false), |s, (a, b)| {
                s.u64(a)?;
                s.bool(b)
            })
        }
    }

    #[test]
    fn one_walk_writes_and_reads_every_codec_method() {
        let mut written = AllKinds {
            small: 0xab,
            flag: true,
            word: 0xdead_beef,
            wide: u64::MAX - 1,
            size: 123_456,
            real: -3.875,
            maybe: Some(7),
            fixed: [1, 2, 3],
            count: 4,
            nested: Some((9, true)),
            kind: 2,
            stamp: Stamp(0x1234),
            mask: Stamp(u128::MAX - 5),
            blob: b"payload".to_vec(),
            queue: [(5, true), (6, false)].into(),
        };
        let expected = written.clone();
        let mut w = SnapshotWriter::framed(MAGIC, 1);
        assert!(!w.reading());
        written.state(&mut w).unwrap();
        assert_eq!(written, expected, "writing leaves the fields as they were");
        let doc = w.finish();

        let mut read = AllKinds {
            small: 0,
            flag: false,
            word: 0,
            wide: 0,
            size: 0,
            real: 0.0,
            maybe: None,
            fixed: [0; 3],
            count: 0,
            nested: None,
            kind: 0,
            stamp: Stamp(0),
            mask: Stamp(0),
            blob: Vec::new(),
            queue: Default::default(),
        };
        let mut r = SnapshotReader::framed(&doc, MAGIC, 1).unwrap();
        assert!(r.reading());
        read.state(&mut r).unwrap();
        r.expect_end("codec doc").unwrap();
        assert_eq!(read, expected);
    }

    #[test]
    fn len_rejects_counts_past_its_bound_or_the_bytes_left() {
        let mut w = SnapshotWriter::new();
        w.put_usize(5);
        w.put_usize(3);
        w.put_usize(1 << 40);
        let doc = w.finish();
        let mut r = SnapshotReader::new(&doc);
        let mut n = 0;
        // Above the caller's bound.
        assert!(matches!(
            r.len(&mut n, 4, "items"),
            Err(SnapshotError::Corrupt(_))
        ));
        // Within both: the 16 bytes after it hold three one-byte items.
        r.len(&mut n, 4, "items").unwrap();
        assert_eq!(n, 3);
        // Unbounded by the caller, yet past the 8 bytes left: a corrupt
        // count never sizes an allocation.
        assert!(matches!(
            r.len(&mut n, usize::MAX, "items"),
            Err(SnapshotError::Corrupt(_))
        ));
        // A writer writes any count.
        let mut n = usize::MAX;
        SnapshotWriter::new().len(&mut n, 0, "items").unwrap();
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
