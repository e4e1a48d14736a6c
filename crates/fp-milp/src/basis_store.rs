//! Cross-solve basis snapshots: a keyed store of committed root bases.
//!
//! Warm starts so far lived inside one branch-and-bound tree: each node
//! re-pivots from its parent's [`BasisSnapshot`]. This store carries the
//! *root* basis across whole solves — a caller keys its solves (e.g. by
//! instance fingerprint) and a later solve of the same or a structurally
//! similar model seeds its root LP from the earlier solve's committed
//! basis instead of a cold two-phase primal. The floorplan service uses it
//! for ECO re-solves: the delta job's step LPs load the base job's bases.
//!
//! Safety is inherited from the kernel's snapshot validation: a snapshot
//! with the wrong column count never loads, one with fewer rows loads via
//! the same slack-extension path the root cut loop uses, and any numerical
//! doubt falls back to the cold solve. A wrong-but-well-formed basis can
//! only cost extra pivots, never a wrong answer.

use crate::simplex::BasisSnapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How a solve's root LP was seeded from a [`BasisStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum BasisTier {
    /// No cross-solve basis was fetched (no store, a store miss, or warm
    /// starts off).
    #[default]
    Cold,
    /// A stored basis over fewer rows than the presolved root was fetched;
    /// it loads via slack extension into the root cut loop's first LP (or
    /// the root node, with strengthening off).
    Warm,
    /// A stored basis with exactly matching dimensions was fetched and
    /// seeds the same first root LP.
    Hot,
}

impl BasisTier {
    /// Stable lowercase name (`"hot"` / `"warm"` / `"cold"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BasisTier::Cold => "cold",
            BasisTier::Warm => "warm",
            BasisTier::Hot => "hot",
        }
    }
}

/// A bounded, thread-safe map from caller-chosen keys to committed root
/// bases. Keys are mixed with the model's structural column count (see
/// [`slot`]) so a stored basis can only ever be offered to a solve whose
/// variable space it describes.
///
/// Eviction is least-recently-stored via a monotonic clock, matching the
/// service's solution-cache policy.
pub struct BasisStore {
    /// `(map, clock)` under one lock: slot → (stamp, snapshot).
    #[allow(clippy::type_complexity)]
    inner: Mutex<(HashMap<u64, (u64, Arc<BasisSnapshot>)>, u64)>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    published: AtomicU64,
}

/// Two stores are equal when they are the same store (handle identity, like
/// [`StopFlag`](crate::StopFlag)) — configs holding shared stores compare
/// equal without comparing contents.
impl PartialEq for BasisStore {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl std::fmt::Debug for BasisStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasisStore")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

/// Mixes a caller key with the structural column count into a store slot.
/// FNV-1a over both values: solves over different variable spaces can
/// never collide onto each other's bases.
#[must_use]
pub(crate) fn slot(key: u64, ncols: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    for b in (ncols as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl BasisStore {
    /// An empty store holding at most `capacity` bases (`0` disables it:
    /// every fetch misses and publishes are dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        BasisStore {
            inner: Mutex::new((HashMap::new(), 0)),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            published: AtomicU64::new(0),
        }
    }

    /// Number of bases currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("basis store poisoned").0.len()
    }

    /// Whether the store holds no bases.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses, published)` counters since creation.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.published.load(Ordering::Relaxed),
        )
    }

    /// Looks up the basis stored under `slot`, counting a hit or miss.
    pub(crate) fn fetch(&self, slot: u64) -> Option<Arc<BasisSnapshot>> {
        let guard = self.inner.lock().expect("basis store poisoned");
        match guard.0.get(&slot) {
            Some((_, snap)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(snap))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `snap` under `slot`, evicting the oldest entry at capacity.
    pub(crate) fn publish(&self, slot: u64, snap: Arc<BasisSnapshot>) {
        if self.capacity == 0 {
            return;
        }
        let mut guard = self.inner.lock().expect("basis store poisoned");
        let (map, clock) = &mut *guard;
        *clock += 1;
        let stamp = *clock;
        if map.len() >= self.capacity && !map.contains_key(&slot) {
            if let Some(&oldest) = map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k)
            {
                map.remove(&oldest);
            }
        }
        map.insert(slot, (stamp, snap));
        self.published.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::ColStatus;

    fn snap(m: usize) -> Arc<BasisSnapshot> {
        Arc::new(BasisSnapshot {
            m,
            n_struct: 3,
            basis: (0..m).collect(),
            status: vec![ColStatus::AtLower; 3 + m],
        })
    }

    #[test]
    fn fetch_publish_round_trip() {
        let store = BasisStore::new(4);
        assert!(store.is_empty());
        let s = slot(7, 3);
        assert!(store.fetch(s).is_none());
        store.publish(s, snap(2));
        let got = store.fetch(s).expect("published basis");
        assert_eq!(got.m, 2);
        assert_eq!(store.stats(), (1, 1, 1));
    }

    #[test]
    fn slots_separate_column_spaces() {
        assert_ne!(slot(1, 3), slot(1, 4));
        assert_ne!(slot(1, 3), slot(2, 3));
        assert_eq!(slot(9, 5), slot(9, 5));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let store = BasisStore::new(2);
        store.publish(1, snap(1));
        store.publish(2, snap(2));
        store.publish(3, snap(3));
        assert_eq!(store.len(), 2);
        assert!(store.fetch(1).is_none(), "oldest evicted");
        assert!(store.fetch(3).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let store = BasisStore::new(0);
        store.publish(1, snap(1));
        assert!(store.fetch(1).is_none());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn tier_names() {
        assert_eq!(BasisTier::Hot.as_str(), "hot");
        assert_eq!(BasisTier::Warm.as_str(), "warm");
        assert_eq!(BasisTier::Cold.as_str(), "cold");
        assert_eq!(BasisTier::default(), BasisTier::Cold);
    }
}
