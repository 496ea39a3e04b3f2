//! Content-addressed sweep-point cache: every sweep becomes incremental.
//!
//! Each completed simulation point is keyed by an FNV-1a hash over the
//! snapshot format version, the point's machine configuration, its
//! workload, and its fault seed, and its result is persisted as one small
//! checksummed file in a `--cache-dir` store. A later sweep consults the
//! store before simulating: unchanged points are served from disk (a
//! *hit*), changed or new points simulate as before (a *miss*) and
//! overwrite their entry. Because the key hashes the full configuration,
//! editing one point's parameters invalidates exactly that point —
//! everything else stays warm, across processes and machines (entries are
//! plain files; a cache dir can be copied or shared).
//!
//! Correctness guards:
//!
//! * Entries are framed with their own magic and the global
//!   [`SNAPSHOT_FORMAT_VERSION`](crate::SNAPSHOT_FORMAT_VERSION), plus a
//!   trailing FNV-1a checksum. A corrupted, truncated, or stale-format
//!   file is detected on load, counted as an *invalidation*, deleted, and
//!   the point transparently re-simulated.
//! * Points that capture observability artifacts (tracing/metrics) are
//!   never served from cache — artifacts are not stored, so a cached
//!   result could not carry them.
//! * Writes go through a temp file + atomic rename, so concurrent
//!   workers (or concurrent processes sharing one dir) never expose a
//!   half-written entry.
//!
//! A sweep consults the store it is handed in its
//! [`ObsConfig`](crate::experiments::runner::ObsConfig): the sweep engine
//! alone looks points up and stores them, and two sweeps with two stores
//! never see each other's entries or counters. The bench binaries open
//! one from `--cache-dir`.

use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use csb_snap::{SnapshotReader, SnapshotWriter};

use crate::snapshot::SNAPSHOT_FORMAT_VERSION;

/// Leading magic of every cache entry file.
pub const CACHE_MAGIC: [u8; 8] = *b"CSBCACH\0";

/// Counters describing how effective the cache was over some interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Points served from the store without simulating.
    pub hits: u64,
    /// Points simulated because no (valid) entry existed.
    pub misses: u64,
    /// Entries rejected (corrupt, truncated, stale format) and deleted.
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

/// An on-disk content-addressed store of completed sweep points.
#[derive(Debug)]
pub struct PointCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    tmp_seq: AtomicU64,
}

impl PointCache {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<PointCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(PointCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
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
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        for p in parts {
            // Length-prefix each part so part boundaries can't alias.
            buf.extend_from_slice(&(p.len() as u64).to_le_bytes());
            buf.extend_from_slice(p);
        }
        csb_snap::fnv1a(&buf)
    }

    /// [`PointCache::key`] for `Debug`-renderable parts plus a seed: each
    /// rendering is streamed straight into the hash (no allocation — the
    /// hot path of a warm sweep is key computation). Each part's byte
    /// length is folded after its content, the streaming analogue of
    /// `key`'s length prefixes, so part boundaries can't alias.
    pub fn key_debug(parts: &[&dyn fmt::Debug], seed: u64) -> u64 {
        struct Counted {
            h: csb_snap::Fnv1a,
            len: u64,
        }
        impl fmt::Write for Counted {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.h.update(s.as_bytes());
                self.len += s.len() as u64;
                Ok(())
            }
        }
        let mut w = Counted {
            h: csb_snap::Fnv1a::new(),
            len: 0,
        };
        w.h.update(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        for p in parts {
            w.len = 0;
            let _ = write!(w, "{p:?}");
            let len = w.len;
            w.h.update(&len.to_le_bytes());
        }
        w.h.update(&seed.to_le_bytes());
        w.h.finish()
    }

    fn path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}"))
    }

    /// Loads the payload stored under `key`, or `None` on a miss. A
    /// present-but-invalid entry (corrupt, truncated, stale format) is
    /// counted as an invalidation, deleted, and reported as a miss so the
    /// caller re-simulates. The hit/miss counters are the caller's to
    /// bump ([`PointCache::note_hit`] / [`PointCache::note_miss`]) once
    /// it knows the payload decoded.
    pub fn load(&self, key: u64) -> Option<Vec<u8>> {
        let path = self.path(key);
        let bytes = fs::read(&path).ok()?;
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        let payload = SnapshotReader::framed(&bytes, CACHE_MAGIC, SNAPSHOT_FORMAT_VERSION)
            .and_then(|mut r| {
                let p = r.take_bytes()?.to_vec();
                r.expect_end("cache entry")?;
                Ok(p)
            });
        match payload {
            Ok(p) => Some(p),
            Err(_) => {
                self.invalidate(key);
                None
            }
        }
    }

    /// Stores `payload` under `key` (temp file + atomic rename; I/O
    /// errors are swallowed — the cache is best-effort and a failed write
    /// only costs a future re-simulation).
    pub fn store(&self, key: u64, payload: &[u8]) {
        let mut w = SnapshotWriter::framed(CACHE_MAGIC, SNAPSHOT_FORMAT_VERSION);
        w.put_bytes(payload);
        let bytes = w.finish();
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("{key:016x}.tmp{seq}"));
        if fs::write(&tmp, &bytes).is_ok() {
            if fs::rename(&tmp, self.path(key)).is_ok() {
                self.bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            } else {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Deletes the entry under `key` and counts an invalidation (a
    /// caller that got a framed-but-undecodable payload uses this too).
    pub fn invalidate(&self, key: u64) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(self.path(key));
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
        cache.store(key, b"data");
        let path = cache.dir().join(format!("{key:016x}"));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load(key).is_none(), "flipped byte must fail checksum");
        assert_eq!(cache.stats().invalidations, 1);
        assert!(!path.exists(), "invalid entry must be deleted");
        fs::remove_dir_all(cache.dir()).unwrap();
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
