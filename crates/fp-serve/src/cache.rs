//! An LRU solution cache keyed by instance fingerprints.
//!
//! Floorplanning is expensive and deterministic given the instance and
//! parameters, so repeated instances (common in parameter sweeps and load
//! tests) can be answered from memory. Eviction is least-recently-used via
//! a monotone stamp per entry; hit/miss totals are relaxed atomics so the
//! counters cost nothing on the solve path.
//!
//! The 64-bit FNV fingerprint is only an index: every entry also stores
//! the [`canonical`](crate::fingerprint::canonical) instance text, and a
//! lookup whose canonical form differs is a **miss** — a hash collision
//! (FNV-1a is trivially collidable by an adversarial client) can never
//! serve the wrong instance's placement.

use crate::protocol::JobResponse;
use fp_obs::Scalar;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

struct Entry {
    stamp: u64,
    /// Canonical instance text; compared on every hit to rule out
    /// fingerprint collisions. Shared (`Arc<str>`) because the engine
    /// carries the same text through the single-flight table and the job
    /// queue — one allocation per instance, not one per subsystem.
    canon: Arc<str>,
    value: JobResponse,
}

/// A bounded LRU map from fingerprint key to solved response.
///
/// Stored responses are templates: per-job fields (`id`, `micros`,
/// `cached`) are rewritten by [`SolutionCache::get`]'s caller, so one
/// cached solve can answer many differently-numbered jobs.
pub struct SolutionCache {
    map: Mutex<(HashMap<u64, Entry>, u64)>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Bumped on every [`insert`](Self::insert); the background persist
    /// loop compares generations to skip snapshots of an unchanged cache.
    generation: AtomicU64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` solutions; 0 disables storage
    /// (every lookup misses).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SolutionCache {
            map: Mutex::new((HashMap::new(), 0)),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit and counting the
    /// outcome either way. An entry whose stored canonical text differs
    /// from `canon` is a fingerprint collision and counts as a miss.
    #[must_use]
    pub fn get(&self, key: u64, canon: &str) -> Option<JobResponse> {
        let mut guard = self.map.lock().expect("cache lock");
        let (map, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        match map.get_mut(&key) {
            Some(entry) if *entry.canon == *canon => {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `value` under `key` (with its canonical text `canon` for
    /// collision verification), evicting the least-recently-used entry
    /// when the cache is full. A no-op at capacity 0.
    pub fn insert(&self, key: u64, canon: Arc<str>, value: JobResponse) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.map.lock().expect("cache lock");
        let (map, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        if map.len() >= self.capacity && !map.contains_key(&key) {
            let oldest = map.iter().min_by_key(|(_, e)| e.stamp).map(|(&k, _)| k);
            if let Some(oldest) = oldest {
                map.remove(&oldest);
            }
        }
        map.insert(
            key,
            Entry {
                stamp,
                canon,
                value,
            },
        );
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// A counter that advances whenever [`insert`](Self::insert) stores
    /// something. Two equal readings mean no writes happened in between,
    /// so a persisted snapshot taken at the first reading is still
    /// current at the second.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of solutions currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").0.len()
    }

    /// Whether the cache currently stores nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every entry to `path` as one flat JSON line each
    /// (`key` as fixed-width hex, `canon`, and the encoded response),
    /// oldest first so a reload replays recency. [`load`](Self::load)
    /// round-trips it. The write goes through a `.tmp` sibling and a
    /// rename, so a crash mid-save never truncates a previous snapshot.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut entries: Vec<(u64, u64, String, String)> = {
            let guard = self.map.lock().expect("cache lock");
            guard
                .0
                .iter()
                .map(|(&k, e)| (e.stamp, k, e.canon.to_string(), e.value.encode()))
                .collect()
        };
        entries.sort_by_key(|(stamp, ..)| *stamp);
        let tmp = path.with_extension("tmp");
        let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for (_, key, canon, resp) in entries {
            let line = fp_obs::format_line([
                ("key", Scalar::Key(key)),
                ("canon", Scalar::Str(&canon)),
                ("resp", Scalar::Str(&resp)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()?;
        drop(out);
        std::fs::rename(&tmp, path)
    }

    /// Loads a [`save`](Self::save) snapshot into the cache, inserting
    /// entries in file order (capacity and LRU eviction apply as usual).
    /// Returns how many entries were loaded. Malformed lines, including
    /// lines that are not UTF-8, are *skipped*, not fatal — a truncated or
    /// hand-edited snapshot still restores everything salvageable. A read
    /// error ends the load.
    ///
    /// # Errors
    ///
    /// Only failing to open the file; a missing file is the caller's
    /// cold-start case to handle (`io::ErrorKind::NotFound`).
    pub fn load(&self, path: &Path) -> std::io::Result<usize> {
        let reader = std::io::BufReader::new(std::fs::File::open(path)?);
        let mut loaded = 0;
        for line in reader.split(b'\n') {
            let Ok(line) = line else { break };
            let Some((key, canon, resp)) = std::str::from_utf8(&line)
                .ok()
                .and_then(decode_snapshot_line)
            else {
                continue;
            };
            self.insert(key, Arc::from(canon), resp);
            loaded += 1;
        }
        Ok(loaded)
    }
}

/// Decodes one snapshot line; `None` for anything malformed (bad JSON,
/// missing fields, a key that is not 16 hex digits, an undecodable
/// response).
fn decode_snapshot_line(line: &str) -> Option<(u64, String, JobResponse)> {
    let p = fp_obs::parse_line(line).ok()?;
    let key = p.key_field("key")?;
    let canon = p.str_field("canon")?.to_string();
    let resp = JobResponse::decode(p.str_field("resp")?).ok()?;
    Some((key, canon, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(id: u64) -> JobResponse {
        let mut r = JobResponse::failure(id, "");
        r.ok = true;
        r.area = id as f64;
        r
    }

    /// Shorthand: entry `k`'s canonical text in these tests is just `k`
    /// stringified.
    fn canon(key: u64) -> Arc<str> {
        Arc::from(key.to_string())
    }

    #[test]
    fn miss_then_hit() {
        let c = SolutionCache::new(4);
        assert!(c.get(7, &canon(7)).is_none());
        c.insert(7, canon(7), resp(1));
        let got = c.get(7, &canon(7)).expect("hit");
        assert_eq!(got.area, 1.0);
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = SolutionCache::new(2);
        c.insert(1, canon(1), resp(1));
        c.insert(2, canon(2), resp(2));
        assert!(c.get(1, &canon(1)).is_some()); // refresh 1: now 2 is the LRU entry
        c.insert(3, canon(3), resp(3));
        assert_eq!(c.len(), 2);
        assert!(c.get(2, &canon(2)).is_none(), "2 should have been evicted");
        assert!(c.get(1, &canon(1)).is_some() && c.get(3, &canon(3)).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let c = SolutionCache::new(0);
        c.insert(1, canon(1), resp(1));
        assert!(c.get(1, &canon(1)).is_none());
        assert!(c.is_empty());
        assert_eq!(c.stats(), (0, 1));
    }

    #[test]
    fn reinsert_same_key_keeps_size() {
        let c = SolutionCache::new(2);
        c.insert(1, canon(1), resp(1));
        c.insert(1, canon(1), resp(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, &canon(1)).unwrap().area, 9.0);
    }

    /// A unique temp path per test (pid + name) with drop cleanup.
    struct TempPath(std::path::PathBuf);
    impl TempPath {
        fn new(name: &str) -> Self {
            TempPath(
                std::env::temp_dir().join(format!("fp-serve-cache-{}-{name}", std::process::id())),
            )
        }
    }
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn snapshot_round_trips_entries_and_recency() {
        let path = TempPath::new("roundtrip.jsonl");
        let c = SolutionCache::new(4);
        let mut special = resp(1);
        special.placement = "a 0 0 1 2 0;b 1 0 2 1 1".to_string();
        special.backend = "milp".to_string();
        c.insert(
            1,
            Arc::from("canon with \"quotes\"\nand newline"),
            special.clone(),
        );
        c.insert(2, canon(2), resp(2));
        assert!(c.get(1, "canon with \"quotes\"\nand newline").is_some()); // 1 is now MRU
        c.save(&path.0).unwrap();

        let fresh = SolutionCache::new(2);
        assert_eq!(fresh.load(&path.0).unwrap(), 2);
        let got = fresh
            .get(1, "canon with \"quotes\"\nand newline")
            .expect("hit");
        assert_eq!(got.placement, special.placement);
        assert_eq!(got.area, 1.0);
        // Recency replayed: at capacity 2 both fit, and key 2 (saved
        // older) is the one a new insert evicts.
        fresh.insert(3, canon(3), resp(3));
        assert!(fresh.get(2, &canon(2)).is_none(), "2 was the LRU entry");
        assert!(fresh.get(1, "canon with \"quotes\"\nand newline").is_some());
    }

    /// Snapshots saved by a running server must load after an upgrade, so
    /// `save` keeps every byte of this line and `load` reads it back.
    #[test]
    fn snapshot_line_is_golden() {
        const LINE: &str = r#"{"key":"00abcdef00000042","canon":"problem p\nmodule a rigid 2 3 rot\n","resp":"{\"id\":0,\"ok\":true,\"chip_width\":6,\"chip_height\":4.5,\"area\":27,\"utilization\":0.8,\"wirelength\":3.25,\"degraded\":false,\"cached\":false,\"coalesced\":false,\"micros\":0,\"backend\":\"milp\",\"portfolio\":false,\"placement\":\"a 0 0 2 3 0\",\"fingerprint\":\"00abcdef00000042\"}"}"#;
        let path = TempPath::new("golden.jsonl");
        let mut hit = JobResponse::failure(0, "");
        hit.ok = true;
        hit.chip_width = 6.0;
        hit.chip_height = 4.5;
        hit.area = 27.0;
        hit.utilization = 0.8;
        hit.wirelength = 3.25;
        hit.backend = "milp".to_string();
        hit.placement = "a 0 0 2 3 0".to_string();
        hit.fingerprint = 0x00ab_cdef_0000_0042;
        let canon = "problem p\nmodule a rigid 2 3 rot\n";
        let c = SolutionCache::new(2);
        c.insert(0x00ab_cdef_0000_0042, Arc::from(canon), hit.clone());
        c.save(&path.0).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path.0).unwrap(),
            format!("{LINE}\n")
        );
        let fresh = SolutionCache::new(2);
        assert_eq!(fresh.load(&path.0).unwrap(), 1);
        assert_eq!(fresh.get(0x00ab_cdef_0000_0042, canon), Some(hit));
    }

    #[test]
    fn corrupt_snapshot_lines_are_skipped_not_fatal() {
        let path = TempPath::new("corrupt.jsonl");
        let c = SolutionCache::new(4);
        c.insert(1, canon(1), resp(1));
        c.insert(2, canon(2), resp(2));
        c.save(&path.0).unwrap();
        // Corrupt the middle: garbage, a non-hex key, a truncated line,
        // a well-formed line whose resp doesn't decode, and a line that is
        // not UTF-8.
        let good = std::fs::read_to_string(&path.0).unwrap();
        let mut lines: Vec<&str> = good.lines().collect();
        let withheld = lines.remove(1);
        let mangled = format!(
            "{}\nnot json at all\n{{\"key\":\"zz\",\"canon\":\"c\",\"resp\":\"r\"}}\n\
             {{\"key\":\"0000000000000003\",\"canon\":\"c\",\"resp\":\"not a response\"}}\n\
             {{\"key\":\"00000000000\n",
            lines.join("\n")
        );
        let mangled = [
            mangled.as_bytes(),
            b"\xff\xfe\n",
            withheld.as_bytes(),
            b"\n",
        ]
        .concat();
        std::fs::write(&path.0, mangled).unwrap();

        let fresh = SolutionCache::new(8);
        assert_eq!(fresh.load(&path.0).unwrap(), 2, "both real entries survive");
        assert!(fresh.get(1, &canon(1)).is_some());
        assert!(fresh.get(2, &canon(2)).is_some());
        assert!(fresh.get(3, "c").is_none());
    }

    #[test]
    fn loading_missing_snapshot_is_not_found() {
        let path = TempPath::new("missing.jsonl");
        let c = SolutionCache::new(4);
        let err = c.load(&path.0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn fingerprint_collision_misses_instead_of_serving_wrong_instance() {
        // Two different instances whose fingerprints collide on the same
        // 64-bit key: the canonical-text check must turn the lookup into a
        // miss, never hand instance B instance A's placement.
        let c = SolutionCache::new(4);
        c.insert(7, Arc::from("instance-a"), resp(1));
        assert!(c.get(7, "instance-b").is_none());
        assert_eq!(c.stats(), (0, 1));
        // The colliding instance may then claim the slot like any write.
        c.insert(7, Arc::from("instance-b"), resp(2));
        assert_eq!(c.get(7, "instance-b").unwrap().area, 2.0);
        assert!(c.get(7, "instance-a").is_none());
    }
}
