//! Content-addressed sweep-point cache: every sweep becomes incremental.
//!
//! Each completed simulation point is keyed by an FNV-1a hash over the
//! snapshot format version, the point's machine configuration, its
//! workload, and its fault seed, and its result is appended as one
//! checksummed record to a single append-only pack ([`PACK_FILE`]) in a
//! `--cache-dir` store. A later sweep consults the store before
//! simulating: unchanged points are served from the pack (a *hit*),
//! changed or new points simulate as before (a *miss*) and append a record
//! that supersedes any older one. Because the key hashes the full
//! configuration, editing one point's parameters invalidates exactly that
//! point — everything else stays warm, across processes and machines.
//!
//! One pack instead of one file per point is the burst-buffer shape: many
//! small writes absorbed into one sequential log.
//!
//! Key derivation has two layouts, [`PointCache::key`]'s and
//! [`PointCache::key_debug`]'s, and each is also built part by part
//! (`PartsKey`, `DebugKey`). The sweep engine hashes a machine
//! configuration once and forks the hash state for every point on it, so
//! a hit renders and hashes only its workload and seed; the values are
//! the ones the two functions give for all parts at once.
//!
//! * [`PointCache::open`] indexes the pack with one sequential read. When
//!   a key appears twice, the newest record wins.
//! * A hit is one positioned read from the handle `open` left open, plus
//!   a checksum check.
//! * A store is one `write_all` of the whole record on an append-mode
//!   handle behind the index's lock; the index learns the offset where the
//!   record landed, so later loads in the same process hit.
//!
//! Every record frames itself as a csb-snap document (little-endian):
//!
//! ```text
//! magic[8] | version u32 | key u64 | len u32 | payload[len] | checksum u64
//! ```
//!
//! The checksum is FNV-1a over everything before it. Concatenating two
//! packs therefore merges them: `cat a/points.pack b/points.pack >
//! merged/points.pack`.
//!
//! Correctness guards:
//!
//! * A record that fails its checksum, or carries another
//!   [`CACHE_FORMAT_VERSION`], is
//!   counted as an *invalidation* when its key is loaded, and the point
//!   transparently re-simulates. Every hit re-checks its record, so
//!   corruption after `open` is caught too.
//! * Bytes that break the framing — a torn tail, a flipped length,
//!   garbage — cost at most the records they hide: the scan resumes at the
//!   next magic. The next `open` rewrites the pack without them (temp file
//!   plus rename), so later appends stay reachable, and it also rewrites
//!   the pack when dead records (superseded or failed) outnumber live ones.
//!   A process still appending to the pack a rewrite replaced loses those
//!   appends; the cache is best-effort, so they only cost re-simulations.
//! * Points that capture observability artifacts (tracing/metrics) are
//!   never served from cache — artifacts are not stored, so a cached
//!   result could not carry them.
//! * The one-file-per-entry stores of older builds are never read: such a
//!   directory misses once and is refilled into its pack.
//!
//! A sweep consults the store it is handed in its
//! [`ObsConfig`](crate::experiments::runner::ObsConfig): the sweep engine
//! alone looks points up and stores them, and two sweeps with two stores
//! never see each other's entries or counters. The bench binaries open
//! one from `--cache-dir`.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use csb_snap::{Fnv1a, SnapshotReader, SnapshotWriter};

/// Version of what a point cache stores: the record framing and every
/// `SweepPoint::payload` walk. Every key hashes it first, so a bump
/// misses every record and a frame-only change
/// (`SNAPSHOT_FORMAT_VERSION`) keeps every key.
pub const CACHE_FORMAT_VERSION: u32 = 5;

/// Leading magic of every pack record.
pub const CACHE_MAGIC: [u8; 8] = *b"CSBCACH\0";

/// File name of the pack inside a cache directory.
pub const PACK_FILE: &str = "points.pack";

/// Bytes of a record before its payload: magic, version, key, length.
const HEADER: usize = 8 + 4 + 8 + 4;

/// Bytes of a record after its payload: the checksum.
const TRAILER: usize = 8;

/// Counters describing how effective the cache was over some interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Points served from the store without simulating.
    pub hits: u64,
    /// Points simulated because no (valid) entry existed.
    pub misses: u64,
    /// Records rejected (corrupt, stale format, undecodable).
    pub invalidations: u64,
    /// Bytes read from the store (including rejected entries).
    pub bytes_read: u64,
    /// Bytes written to the store.
    pub bytes_written: u64,
}

impl CacheStats {
    /// Whether any counter moved.
    pub fn any(&self) -> bool {
        self.hits != 0
            || self.misses != 0
            || self.invalidations != 0
            || self.bytes_read != 0
            || self.bytes_written != 0
    }

    /// Counter-wise difference `self - since` (for before/after deltas
    /// around one sweep).
    pub fn delta(&self, since: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - since.hits,
            misses: self.misses - since.misses,
            invalidations: self.invalidations - since.invalidations,
            bytes_read: self.bytes_read - since.bytes_read,
            bytes_written: self.bytes_written - since.bytes_written,
        }
    }

    /// Counter-wise sum (for merging sweep reports).
    pub fn add(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// What the index knows of a key's newest record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// The whole record: `len` bytes at `offset` in the pack.
    Record { offset: u64, len: usize },
    /// The record failed its check when the pack was opened; loading the
    /// key counts the invalidation.
    Failed,
}

/// An on-disk content-addressed store of completed sweep points.
#[derive(Debug)]
pub struct PointCache {
    dir: PathBuf,
    /// The pack, opened once: positioned reads serve hits, appends store.
    pack: File,
    /// Key → newest record. Its lock also serializes appends.
    index: Mutex<HashMap<u64, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl PointCache {
    /// Opens (creating if needed) the store at `dir` and indexes its pack,
    /// rewriting the pack first when it holds stray bytes or more dead
    /// records than live ones.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created or the pack cannot
    /// be read or opened.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<PointCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let path = dir.join(PACK_FILE);
        // Index the bytes of the very file this handle appends to.
        let mut pack = pack_handle(OpenOptions::new().create(true), &path)?;
        let mut bytes = Vec::new();
        pack.read_to_end(&mut bytes)?;
        let scan = Scan::of(&bytes);
        let rewrite = scan.needs_rewrite().then(|| scan.compact(&bytes));
        let mut index = scan.index;
        if let Some((packed, compacted)) = rewrite {
            let tmp = dir.join(format!("{PACK_FILE}.{}.tmp", std::process::id()));
            if let Ok(rewritten) = replace(&tmp, &path, &packed) {
                pack = rewritten;
                index = compacted;
            }
        }
        Ok(PointCache {
            dir,
            pack,
            index: Mutex::new(index),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content-addresses one point: an FNV-1a fold of the snapshot format
    /// version and each part in order. Callers pass the point's
    /// configuration/workload renderings and seed; the version term makes
    /// every entry self-invalidate across format bumps.
    pub fn key(parts: &[&[u8]]) -> u64 {
        let mut key = PartsKey::new();
        for p in parts {
            key.part(p);
        }
        key.finish()
    }

    /// [`PointCache::key`] for `Debug`-renderable parts plus a seed: each
    /// rendering is streamed straight into the hash, with no allocation.
    /// Each part's byte length is folded after its content, the streaming
    /// analogue of `key`'s length prefixes, so part boundaries can't alias.
    pub fn key_debug(parts: &[&dyn fmt::Debug], seed: u64) -> u64 {
        let mut key = DebugKey::new();
        for p in parts {
            key.part(*p);
        }
        key.finish(seed)
    }

    fn index(&self) -> MutexGuard<'_, HashMap<u64, Slot>> {
        self.index
            .lock()
            .expect("no pack index holder panics while holding it")
    }

    /// Loads the payload stored under `key`, or `None` on a miss. A record
    /// that fails its check (corrupt, stale format) is counted as an
    /// invalidation, dropped from the index, and reported as a miss so the
    /// caller re-simulates. The hit/miss counters are the caller's to bump
    /// ([`PointCache::note_hit`] / [`PointCache::note_miss`]) once it knows
    /// the payload decoded.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let slot = self.index().get(&key).copied()?;
        let Slot::Record { offset, len } = slot else {
            self.reject(key, slot);
            return None;
        };
        let mut record = vec![0; len];
        let read = self.read_at(&mut record, offset);
        if read.is_ok() {
            self.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        }
        match read.ok().and_then(|()| payload_len(&record, key)) {
            Some(n) => {
                record.truncate(HEADER + n);
                record.drain(..HEADER);
                Some(record)
            }
            None => {
                self.reject(key, slot);
                None
            }
        }
    }

    /// Drops `key`'s `slot` from the index and counts one invalidation,
    /// once however many concurrent loads saw that slot fail.
    fn reject(&self, key: u64, slot: Slot) {
        let mut index = self.index();
        if index.get(&key) == Some(&slot) {
            index.remove(&key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fills `buf` from `offset` of the pack without moving the cursor
    /// other threads share.
    #[cfg(unix)]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.pack, buf, offset)
    }

    /// Fills `buf` from `offset` of the pack through a handle of its own,
    /// so no cursor is shared with other threads.
    #[cfg(not(unix))]
    fn read_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        use std::io::SeekFrom;
        let mut own = File::open(self.dir.join(PACK_FILE))?;
        own.seek(SeekFrom::Start(offset))?;
        own.read_exact(buf)
    }

    /// Appends `payload` under `key`. I/O errors are swallowed: the cache
    /// is best-effort and a failed write only costs a future
    /// re-simulation.
    pub fn store(&self, key: u64, payload: &[u8]) {
        let Ok(len) = u32::try_from(payload.len()) else {
            return;
        };
        let mut w = SnapshotWriter::framed(CACHE_MAGIC, CACHE_FORMAT_VERSION);
        w.put_u64(key);
        w.put_u32(len);
        w.put_raw(payload);
        let record = w.finish();
        let mut index = self.index();
        let mut pack = &self.pack;
        if pack.write_all(&record).is_err() {
            return;
        }
        self.bytes_written
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        // An append-mode write leaves this handle's position at the end
        // of the record, wherever other writers' records landed.
        let start = pack
            .stream_position()
            .ok()
            .and_then(|end| end.checked_sub(record.len() as u64));
        if let Some(offset) = start {
            let len = record.len();
            index.insert(key, Slot::Record { offset, len });
        }
    }

    /// Drops `key` from the index and counts an invalidation: the caller
    /// got a payload that passed its check but does not decode. The record
    /// stays in the pack until a re-store supersedes it.
    pub fn invalidate(&self, key: u64) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        self.index().remove(&key);
    }

    /// Counts one served point.
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one simulated point.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// [`PointCache::key`]'s layout fed one part at a time: the snapshot
/// format version, then each part with its length before it. A clone
/// taken after some leading parts forks that prefix, so keys that share
/// their leading parts hash them once.
#[derive(Debug, Clone)]
pub(crate) struct PartsKey(Fnv1a);

impl PartsKey {
    /// A key with no parts yet.
    pub(crate) fn new() -> Self {
        PartsKey(versioned())
    }

    /// Folds one part, length first so part boundaries can't alias.
    pub(crate) fn part(&mut self, bytes: &[u8]) {
        self.0.update(&(bytes.len() as u64).to_le_bytes());
        self.0.update(bytes);
    }

    /// The key of the parts folded so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// [`PointCache::key_debug`]'s layout fed one part at a time: the
/// snapshot format version, then each part's `Debug` rendering with its
/// byte length after it, then the seed. Clones fork a prefix as
/// [`PartsKey`]'s do.
#[derive(Debug, Clone)]
pub(crate) struct DebugKey(Fnv1a);

impl DebugKey {
    /// A key with no parts yet.
    pub(crate) fn new() -> Self {
        DebugKey(versioned())
    }

    /// Streams `part`'s rendering into the hash, then its byte length.
    pub(crate) fn part(&mut self, part: &dyn fmt::Debug) {
        struct Counted<'a> {
            h: &'a mut Fnv1a,
            len: u64,
        }
        impl fmt::Write for Counted<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.h.update(s.as_bytes());
                self.len += s.len() as u64;
                Ok(())
            }
        }
        let mut w = Counted {
            h: &mut self.0,
            len: 0,
        };
        let _ = write!(w, "{part:?}");
        let len = w.len;
        self.0.update(&len.to_le_bytes());
    }

    /// The key of the parts folded so far, closed by `seed`.
    pub(crate) fn finish(mut self, seed: u64) -> u64 {
        self.0.update(&seed.to_le_bytes());
        self.0.finish()
    }
}

/// The hash state every key starts from: the cache format version.
fn versioned() -> Fnv1a {
    let mut h = Fnv1a::new();
    h.update(&CACHE_FORMAT_VERSION.to_le_bytes());
    h
}

/// Opens `path` for positioned reads and appends.
fn pack_handle(options: &mut OpenOptions, path: &Path) -> io::Result<File> {
    options.read(true).append(true).open(path)
}

/// Writes `bytes` to a fresh file at `tmp` and renames it over `path`,
/// returning a handle on the renamed file.
fn replace(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<File> {
    let _ = fs::remove_file(tmp);
    let mut file = pack_handle(OpenOptions::new().create_new(true), tmp)?;
    let replaced = file.write_all(bytes).and_then(|()| fs::rename(tmp, path));
    if replaced.is_err() {
        let _ = fs::remove_file(tmp);
    }
    replaced.map(|()| file)
}

/// The payload length of `record` if it is one whole record stored under
/// `key` that passes its checksum and carries this build's format version.
fn payload_len(record: &[u8], key: u64) -> Option<usize> {
    let mut r = SnapshotReader::framed(record, CACHE_MAGIC, CACHE_FORMAT_VERSION).ok()?;
    if r.take_u64().ok()? != key {
        return None;
    }
    let len = r.take_u32().ok()? as usize;
    r.take_raw(len).ok()?;
    r.expect_end("cache record").ok()?;
    Some(len)
}

/// The key and byte range of the record framed at `pos`: a magic and a
/// length that fits the rest of the pack. Says nothing about the checksum.
fn frame(bytes: &[u8], pos: usize) -> Option<(u64, Range<usize>)> {
    let head = bytes.get(pos..pos.checked_add(HEADER)?)?;
    if head[..8] != CACHE_MAGIC {
        return None;
    }
    let key = u64::from_le_bytes(head[12..20].try_into().ok()?);
    let len = u32::from_le_bytes(head[20..24].try_into().ok()?) as usize;
    let end = pos.checked_add(len.checked_add(HEADER + TRAILER)?)?;
    (end <= bytes.len()).then_some((key, pos..end))
}

/// The first position at or after `from` where a magic starts, or the end.
fn next_magic(bytes: &[u8], from: usize) -> usize {
    bytes
        .get(from..)
        .and_then(|rest| {
            rest.windows(CACHE_MAGIC.len())
                .position(|w| w == CACHE_MAGIC)
        })
        .map_or(bytes.len(), |i| from + i)
}

/// What one sequential pass over a pack found.
struct Scan {
    /// Key → newest record.
    index: HashMap<u64, Slot>,
    /// Every framed record in pack order: its key and its bytes.
    records: Vec<(u64, Range<usize>)>,
    /// Whether some bytes belong to no framed record.
    stray: bool,
}

impl Scan {
    fn of(bytes: &[u8]) -> Scan {
        let mut scan = Scan {
            index: HashMap::new(),
            records: Vec::new(),
            stray: false,
        };
        let mut pos = 0;
        while pos < bytes.len() {
            let Some((key, range)) = frame(bytes, pos) else {
                scan.stray = true;
                pos = next_magic(bytes, pos + 1);
                continue;
            };
            let ok = payload_len(&bytes[range.clone()], key).is_some();
            let slot = if ok {
                Slot::Record {
                    offset: range.start as u64,
                    len: range.len(),
                }
            } else {
                Slot::Failed
            };
            scan.index.insert(key, slot);
            // A failed record's length may be what broke, so look for the
            // next record just past its magic instead of trusting it.
            pos = if ok {
                range.end
            } else {
                next_magic(bytes, pos + 1)
            };
            scan.records.push((key, range));
        }
        scan
    }

    /// Whether `open` should rewrite the pack: stray bytes, or more dead
    /// records (superseded or failed) than live ones.
    fn needs_rewrite(&self) -> bool {
        let live = self
            .index
            .values()
            .filter(|s| matches!(s, Slot::Record { .. }))
            .count();
        self.stray || self.records.len() - live > live
    }

    /// The live records in pack order, and the index re-pointed at them.
    fn compact(&self, bytes: &[u8]) -> (Vec<u8>, HashMap<u64, Slot>) {
        let mut packed = Vec::with_capacity(bytes.len());
        let mut index = self.index.clone();
        for (key, range) in &self.records {
            if let Some(Slot::Record { offset, .. }) = index.get_mut(key) {
                if *offset == range.start as u64 {
                    *offset = packed.len() as u64;
                    packed.extend_from_slice(&bytes[range.clone()]);
                }
            }
        }
        (packed, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("csb-cache-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trips_and_counts() {
        let cache = PointCache::open(tmp_dir("rt")).unwrap();
        let key = PointCache::key(&[b"cfg", b"work", &7u64.to_le_bytes()]);
        assert!(cache.load(key).is_none());
        cache.store(key, b"payload");
        assert_eq!(cache.load(key).as_deref(), Some(&b"payload"[..]));
        let s = cache.stats();
        assert!(s.bytes_written > 0 && s.bytes_read > 0);
        assert_eq!(s.invalidations, 0);
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_entry_is_invalidated() {
        let cache = PointCache::open(tmp_dir("corrupt")).unwrap();
        let key = PointCache::key(&[b"x"]);
        let other = PointCache::key(&[b"y"]);
        cache.store(key, b"data");
        cache.store(other, b"kept");
        let path = cache.dir().join(PACK_FILE);
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER + 1] ^= 0xff; // inside the first record's payload
        fs::write(&path, &bytes).unwrap();

        assert!(cache.load(key).is_none(), "flipped byte must fail checksum");
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.load(key).is_none(), "a failed record is never served");
        assert_eq!(cache.load(other).as_deref(), Some(&b"kept"[..]));
        let reopened = PointCache::open(cache.dir()).unwrap();
        assert!(reopened.load(key).is_none(), "nor by a later open");
        assert_eq!(reopened.stats().invalidations, 1);

        cache.store(key, b"fresh");
        assert_eq!(cache.load(key).as_deref(), Some(&b"fresh"[..]));
        let reopened = PointCache::open(cache.dir()).unwrap();
        assert_eq!(reopened.load(key).as_deref(), Some(&b"fresh"[..]));
        assert_eq!(reopened.load(other).as_deref(), Some(&b"kept"[..]));
        assert_eq!(reopened.stats().invalidations, 0, "the re-store supersedes");
        fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Every record the index points at lies inside the pack as `open`
    /// found it, so a load never allocates more than the file held.
    fn assert_slots_inside(cache: &PointCache, pack_len: usize) {
        for slot in cache.index().values() {
            if let Slot::Record { offset, len } = *slot {
                assert!(
                    offset as usize + len <= pack_len,
                    "{slot:?} past {pack_len}"
                );
            }
        }
    }

    #[test]
    fn open_rewrites_stray_bytes_and_dead_records() {
        let dir = tmp_dir("rewrite");
        let cache = PointCache::open(&dir).unwrap();
        let [a, b] = [PointCache::key(&[b"a"]), PointCache::key(&[b"b"])];
        cache.store(a, b"one");
        cache.store(b, b"two");
        let path = dir.join(PACK_FILE);
        let whole = fs::read(&path).unwrap();
        // A torn third record.
        let mut torn = whole.clone();
        torn.extend_from_slice(&whole[..HEADER + 2]);
        fs::write(&path, &torn).unwrap();
        let reopened = PointCache::open(&dir).unwrap();
        assert_eq!(fs::read(&path).unwrap(), whole, "the torn tail is cut");
        assert_eq!(reopened.load(a).as_deref(), Some(&b"one"[..]));

        // Three superseded records of `a` outnumber the two live ones: the
        // next open keeps only the newest record of each key.
        for payload in [b"six", b"ten", b"two"] {
            reopened.store(a, payload);
        }
        let compacted = PointCache::open(&dir).unwrap();
        assert_eq!(fs::read(&path).unwrap().len(), whole.len());
        assert_eq!(compacted.load(a).as_deref(), Some(&b"two"[..]));
        assert_eq!(compacted.load(b).as_deref(), Some(&b"two"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn two_handles_on_one_dir_store_concurrently() {
        let dir = tmp_dir("two-handles");
        let key = |i: u64| PointCache::key(&[&i.to_le_bytes()]);
        // Any record under a key carries that key's payload, so a wrong
        // payload cannot pass for a right one.
        let payload = |i: u64| -> Vec<u8> { (0..i % 64).map(|j| (i ^ j) as u8).collect() };
        let handles = [
            PointCache::open(&dir).unwrap(),
            PointCache::open(&dir).unwrap(),
        ];
        let start = std::sync::Barrier::new(handles.len());
        std::thread::scope(|scope| {
            for (t, cache) in (0u64..).zip(&handles) {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    // Overlapping ranges: keys 150..300 are stored twice.
                    for i in t * 150..t * 150 + 300 {
                        cache.store(key(i), &payload(i));
                        assert_eq!(cache.load(key(i)), Some(payload(i)), "key {i}");
                        let j = i / 2;
                        if let Some(p) = cache.load(key(j)) {
                            assert_eq!(p, payload(j), "key {j}");
                        }
                    }
                });
            }
        });
        let fresh = PointCache::open(&dir).unwrap();
        for i in 0..450 {
            assert_eq!(fresh.load(key(i)), Some(payload(i)), "key {i}");
        }
        assert_eq!(fresh.stats().invalidations, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Opens `bytes` as a pack and checks what no input may break: `open`
    /// and `load` do not panic, every indexed record lies inside the file,
    /// a load returns only a payload `stored` lists under its key, and
    /// fresh stores through the damaged handle are what the next open
    /// serves.
    fn check_damaged_pack(name: &str, bytes: &[u8], stored: &HashMap<u64, Vec<Vec<u8>>>) {
        let dir = tmp_dir(name);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(PACK_FILE), bytes).unwrap();
        let cache = PointCache::open(&dir).unwrap();
        assert_slots_inside(&cache, bytes.len());
        for (key, payloads) in stored {
            if let Some(p) = cache.load(*key) {
                assert!(payloads.contains(&p), "key {key:x} served {p:?}");
            }
        }
        for key in stored.keys() {
            cache.store(*key, &key.to_le_bytes());
        }
        let reopened = PointCache::open(&dir).unwrap();
        for key in stored.keys() {
            assert_eq!(reopened.load(*key), Some(key.to_le_bytes().to_vec()));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One of a handful of keys, so packs hold superseded records.
    fn small_key(i: u64) -> u64 {
        PointCache::key(&[&(i % 5).to_le_bytes()])
    }

    use proptest::collection::vec as vec_of;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Arbitrary bytes, with magics and record-shaped headers mixed in
        /// so the framing paths run: nothing is ever served.
        #[test]
        fn arbitrary_bytes_never_serve_a_payload(
            chunks in vec_of(
                (any::<bool>(), any::<u64>(), 0u32..96, any::<u32>(), vec_of(any::<u8>(), 0..64)),
                0..10,
            ),
        ) {
            let mut bytes = Vec::new();
            let mut stored = HashMap::new();
            for (framed, k, len, version, body) in chunks {
                if framed {
                    let key = small_key(k);
                    stored.insert(key, Vec::new());
                    bytes.extend_from_slice(&CACHE_MAGIC);
                    let version = if version % 2 == 0 { CACHE_FORMAT_VERSION } else { version };
                    bytes.extend_from_slice(&version.to_le_bytes());
                    bytes.extend_from_slice(&key.to_le_bytes());
                    bytes.extend_from_slice(&len.to_le_bytes());
                }
                bytes.extend_from_slice(&body);
            }
            check_damaged_pack("fuzz-bytes", &bytes, &stored);
        }

        /// A real pack, then byte flips, truncations, and whole or partial
        /// records copied in anywhere.
        #[test]
        fn damaged_packs_serve_only_stored_payloads(
            records in vec_of((any::<u64>(), vec_of(any::<u8>(), 0..40)), 1..12),
            damage in vec_of((0u8..4, any::<u64>(), any::<u64>(), any::<u8>()), 0..5),
        ) {
            let dir = tmp_dir("fuzz-source");
            let source = PointCache::open(&dir).unwrap();
            let mut stored: HashMap<u64, Vec<Vec<u8>>> = HashMap::new();
            for (k, payload) in &records {
                source.store(small_key(*k), payload);
                stored.entry(small_key(*k)).or_default().push(payload.clone());
            }
            let pack = fs::read(dir.join(PACK_FILE)).unwrap();
            drop(source);
            fs::remove_dir_all(&dir).unwrap();
            let spans = Scan::of(&pack).records;
            let mut bytes = pack.clone();
            for (op, a, b, mask) in damage {
                let at = |n: usize| (a % (n as u64 + 1)) as usize;
                let (_, span) = &spans[(b % spans.len() as u64) as usize];
                match op {
                    0 if !bytes.is_empty() => {
                        let i = at(bytes.len() - 1);
                        bytes[i] ^= mask | 1;
                    }
                    1 => bytes.truncate(at(bytes.len())),
                    2 => {
                        let i = at(bytes.len());
                        bytes.splice(i..i, pack[span.clone()].iter().copied());
                    }
                    _ => {
                        // Part of a record, spliced in anywhere.
                        let cut = span.start + usize::from(mask) % span.len();
                        let i = at(bytes.len());
                        bytes.splice(i..i, pack[span.start..cut].iter().copied());
                    }
                }
            }
            check_damaged_pack("fuzz-pack", &bytes, &stored);
        }
    }

    #[test]
    fn key_layouts_are_pinned_and_fork_at_any_part() {
        // Values an earlier build derived at cache format 5 (every key
        // hashes the version first): every store a user filled holds
        // records under these byte streams.
        let cfg = crate::SimConfig::default();
        let seed = 7u64.to_le_bytes();
        assert_eq!(
            PointCache::key(&[b"cfg", b"work", &seed]),
            0x3a06_b2a6_d5b7_d869
        );
        assert_eq!(PointCache::key(&[]), 0x2d40_1a55_eec1_6520);
        assert_eq!(
            PointCache::key_debug(&[&cfg, &"work"], 7),
            0xf8a7_79ce_f2d4_583f
        );
        assert_eq!(PointCache::key_debug(&[], 0), 0x8a16_1eb8_5709_4920);

        let mut parts = PartsKey::new();
        parts.part(b"cfg");
        let mut fork = parts.clone();
        fork.part(b"work");
        fork.part(&seed);
        assert_eq!(fork.finish(), PointCache::key(&[b"cfg", b"work", &seed]));
        assert_eq!(parts.finish(), PointCache::key(&[b"cfg"]));

        let mut debug = DebugKey::new();
        debug.part(&cfg);
        let mut fork = debug.clone();
        fork.part(&"work");
        assert_eq!(fork.finish(7), PointCache::key_debug(&[&cfg, &"work"], 7));
        assert_eq!(debug.finish(0), PointCache::key_debug(&[&cfg], 0));
    }

    #[test]
    fn keys_separate_parts_and_version() {
        // ["ab","c"] and ["a","bc"] must not collide: parts are
        // length-prefixed inside the fold.
        assert_ne!(
            PointCache::key(&[b"ab", b"c"]),
            PointCache::key(&[b"a", b"bc"])
        );
        assert_ne!(PointCache::key(&[b"a"]), PointCache::key(&[b"b"]));
    }
}
