//! Sharded in-memory LRU over compiled artifacts, plus an optional
//! on-disk artifact store.
//!
//! The unit of caching is the whole [`CacheEntry`] behind an `Arc`:
//! workers share one compiled kernel without cloning netlists, and a
//! request renders whatever artifact it asked for from the shared entry.
//! Sharding by key keeps lock contention proportional to `1/shards`
//! under concurrent load; eviction is least-recently-used per shard
//! (a stamp scan — shards are small, so O(shard) eviction beats the
//! bookkeeping of an intrusive list).

use roccc::{Compiled, Diagnostic, PhaseTimings};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One cached compile: the compiled kernel plus artifacts that are
/// rendered once and shared (VHDL text and its lint findings).
#[derive(Debug)]
pub struct CacheEntry {
    /// The compiled kernel (netlist, datapath, IR, kernel description).
    pub compiled: Compiled,
    /// Rendered VHDL (rendered once at compile time; also the source of
    /// the lint findings below).
    pub vhdl: String,
    /// `roccc-vhdl` lint findings over `vhdl` (empty = clean).
    pub lint: Vec<Diagnostic>,
    /// `roccc-verify` findings over the compiled IR, data path and
    /// netlist (always computed on a cache miss, independent of the
    /// request's verify level; empty = clean).
    pub verify: Vec<Diagnostic>,
    /// Per-phase compile timings (includes the VHDL rendering phase).
    pub timings: PhaseTimings,
}

struct Slot<E> {
    entry: Arc<E>,
    last_used: u64,
}

struct Shard<E> {
    map: HashMap<u64, Slot<E>>,
}

/// A sharded LRU keyed by the 64-bit content hash, of compiled kernels
/// unless told otherwise.
pub struct ShardedLru<E = CacheEntry> {
    shards: Box<[Mutex<Shard<E>>]>,
    cap_per_shard: usize,
    clock: AtomicU64,
}

impl<E> ShardedLru<E> {
    /// Cache holding at most `capacity` entries across `shards` shards
    /// (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let cap_per_shard = capacity.max(1).div_ceil(shards);
        ShardedLru {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            cap_per_shard,
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<E>> {
        // High bits: the FNV avalanche is weakest in the low bits.
        &self.shards[(key >> 57) as usize % self.shards.len()]
    }

    /// Looks up `key`, refreshing its recency on hit.
    pub fn get(&self, key: u64) -> Option<Arc<E>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let slot = shard.map.get_mut(&key)?;
        slot.last_used = stamp;
        Some(Arc::clone(&slot.entry))
    }

    /// Inserts (or replaces) `key`, evicting the least-recently-used
    /// entry of the shard if it is full.
    pub fn insert(&self, key: u64, entry: Arc<E>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if !shard.map.contains_key(&key) && shard.map.len() >= self.cap_per_shard {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            key,
            Slot {
                entry,
                last_used: stamp,
            },
        );
    }

    /// Number of resident entries (sums shard sizes; racy but exact
    /// when quiescent).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Write-through on-disk artifact store: rendered artifact bytes keyed
/// by `(cache key, emit kind)`. Survives server restarts — a warm disk
/// store serves artifacts without recompiling.
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path) -> std::io::Result<DiskStore> {
        std::fs::create_dir_all(dir)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
        })
    }

    fn path(&self, key: u64, emit: &str) -> PathBuf {
        // emit kinds are a fixed vocabulary (validated upstream), so the
        // filename is shell- and filesystem-safe.
        self.dir.join(format!("{key:016x}.{emit}"))
    }

    /// Fetches the artifact bytes for `(key, emit)` if present.
    pub fn get(&self, key: u64, emit: &str) -> Option<Vec<u8>> {
        std::fs::read(self.path(key, emit)).ok()
    }

    /// Stores artifact bytes (atomically via a temp-file rename so a
    /// concurrent reader never observes a torn write).
    pub fn put(&self, key: u64, emit: &str, bytes: &[u8]) {
        let tmp = self.dir.join(format!(".tmp.{key:016x}.{emit}"));
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, self.path(key, emit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_entry() -> Arc<CacheEntry> {
        let compiled = roccc::compile(
            "void id(int a, int* o) { *o = a; }",
            "id",
            &roccc::CompileOptions::default(),
        )
        .expect("dummy kernel compiles");
        Arc::new(CacheEntry {
            vhdl: String::new(),
            lint: Vec::new(),
            verify: Vec::new(),
            timings: PhaseTimings::default(),
            compiled,
        })
    }

    #[test]
    fn get_after_insert_and_miss() {
        let lru = ShardedLru::new(8, 4);
        assert!(lru.get(1).is_none());
        let e = dummy_entry();
        lru.insert(1, Arc::clone(&e));
        assert!(Arc::ptr_eq(&lru.get(1).unwrap(), &e));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        // One shard of capacity 2 so the policy is observable.
        let lru = ShardedLru::new(2, 1);
        let e = dummy_entry();
        lru.insert(10, Arc::clone(&e));
        lru.insert(20, Arc::clone(&e));
        // Touch 10 so 20 becomes the LRU victim.
        assert!(lru.get(10).is_some());
        lru.insert(30, Arc::clone(&e));
        assert!(lru.get(10).is_some(), "recently used survives");
        assert!(lru.get(20).is_none(), "LRU entry evicted");
        assert!(lru.get(30).is_some());
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn disk_store_roundtrips_and_overwrites() {
        let dir = std::env::temp_dir().join(format!("roccc_serve_store_{}", std::process::id()));
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.get(0xabc, "vhdl").is_none());
        store.put(0xabc, "vhdl", b"entity x is");
        assert_eq!(store.get(0xabc, "vhdl").unwrap(), b"entity x is");
        store.put(0xabc, "vhdl", b"v2");
        assert_eq!(store.get(0xabc, "vhdl").unwrap(), b"v2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
