//! The LRU session cache — what makes the daemon cheaper than a CLI.
//!
//! A [`Session`] front-loads the expensive,
//! placement-independent work for one design: timing-graph
//! construction. The batch runner amortizes that cost across the
//! jobs of one *plan*; this cache amortizes it across *connections and
//! across time* — any request for a design the daemon has served before
//! (keyed by [`design_key`](crate::protocol::design_key), so `case`
//! references and bit-identical inline parameters share entries) reuses
//! the cached session, paying the STA setup exactly once per design per
//! residency.
//!
//! Construction is lazy and deduplicated: a submit only *reserves* a
//! slot; the worker that first executes a job for the design builds the
//! session inside the slot's [`OnceLock`], and concurrent workers
//! needing the same design block on that initialization instead of
//! building twice. Eviction is LRU by submit order and drops the cache's
//! `Arc` only — jobs already holding the slot keep it alive until they
//! finish, so eviction can never yank a session out from under a run.

use benchgen::CircuitParams;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use tdp_core::Session;

/// A lazily-built, shareable session slot.
///
/// The inner result is `Err` when session construction failed (e.g. a
/// cyclic design); every job for that design then fails with the same
/// message instead of retrying a build that cannot succeed.
#[derive(Debug, Default)]
pub struct SessionSlot {
    cell: OnceLock<Result<Mutex<Session>, String>>,
}

impl SessionSlot {
    /// The design's session, built on first use (concurrent callers
    /// block until the one build finishes). `builds` counts the build
    /// attempts: one timing graph each, failed ones included.
    ///
    /// # Errors
    ///
    /// Returns the (cached) construction error message if the design
    /// cannot produce a session.
    pub fn session(
        &self,
        params: &CircuitParams,
        builds: &AtomicU64,
    ) -> Result<&Mutex<Session>, String> {
        self.cell
            .get_or_init(|| {
                builds.fetch_add(1, Ordering::Relaxed);
                let (design, pads) = benchgen::generate(params);
                Session::builder(design, pads)
                    .build()
                    .map(Mutex::new)
                    .map_err(|e| format!("session construction failed: {e}"))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// [`SessionSlot::session`], locked for one user.
    ///
    /// # Errors
    ///
    /// The construction error, or a poisoned session: a panic inside an
    /// earlier job may have left it half-updated, so callers fail
    /// cleanly rather than run on it (the batch runner's group policy).
    pub fn lock(
        &self,
        params: &CircuitParams,
        builds: &AtomicU64,
    ) -> Result<MutexGuard<'_, Session>, String> {
        self.session(params, builds)?
            .lock()
            .map_err(|_| "session poisoned by a previous job's panic on this design".to_string())
    }

    /// Whether the slot has been initialized (for tests/metrics).
    pub fn is_built(&self) -> bool {
        self.cell.get().is_some()
    }
}

struct Entry {
    key: u64,
    slot: Arc<SessionSlot>,
    /// Last-touched stamp; smallest = least recently used.
    stamp: u64,
    /// Open ECO sessions holding this design resident. A pinned entry
    /// is never an eviction candidate: an interactive client's
    /// sub-millisecond queries must not race a cold rebuild.
    pins: u64,
}

/// LRU map from design key to session slot.
pub struct SessionCache {
    capacity: usize,
    clock: AtomicU64,
    entries: Mutex<Vec<Entry>>,
}

impl SessionCache {
    /// An empty cache holding at most `capacity` sessions (minimum 1 —
    /// a zero-capacity cache would deadlock the "build once" promise).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Capacity in sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached designs right now.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the slot for `key`, recording whether it was already
    /// present (`true` = hit). On a miss beyond capacity the
    /// least-recently-used **unpinned** entry is evicted (second
    /// return: evictions performed, 0 or 1). With `pin`, the entry is
    /// also pinned for the lifetime of an ECO session; balance with
    /// [`SessionCache::unpin`].
    ///
    /// # Errors
    ///
    /// Returns a message when the cache is at capacity and every entry
    /// is pinned by an open ECO session — eviction is denied rather
    /// than yanking a resident design out from under a live editor.
    pub fn checkout(&self, key: u64, pin: bool) -> Result<(Arc<SessionSlot>, bool, usize), String> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("cache lock");
        if let Some(e) = entries.iter_mut().find(|e| e.key == key) {
            e.stamp = stamp;
            if pin {
                e.pins += 1;
            }
            return Ok((Arc::clone(&e.slot), true, 0));
        }
        let mut evicted = 0;
        if entries.len() >= self.capacity {
            let lru = entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i);
            let Some(lru) = lru else {
                return Err(format!(
                    "session cache is full ({} sessions) and every session is pinned by an \
                     open eco session",
                    self.capacity
                ));
            };
            entries.swap_remove(lru);
            evicted = 1;
        }
        let slot = Arc::new(SessionSlot::default());
        entries.push(Entry {
            key,
            slot: Arc::clone(&slot),
            stamp,
            pins: u64::from(pin),
        });
        Ok((slot, false, evicted))
    }

    /// Releases one pin on `key` (no-op for unknown keys — a pinned
    /// entry cannot have been evicted, so an unknown key means the pin
    /// was already released).
    pub fn unpin(&self, key: u64) {
        let mut entries = self.entries.lock().expect("cache lock");
        if let Some(e) = entries.iter_mut().find(|e| e.key == key) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Open pins on `key` (0 for unknown keys).
    pub fn pins(&self, key: u64) -> u64 {
        self.entries
            .lock()
            .expect("cache lock")
            .iter()
            .find(|e| e.key == key)
            .map_or(0, |e| e.pins)
    }
}

impl std::fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_hits_misses_and_evicts_lru() {
        let cache = SessionCache::new(2);
        let (a1, hit, ev) = cache.checkout(1, false).unwrap();
        assert!(!hit);
        assert_eq!(ev, 0);
        let (_b, hit, ev) = cache.checkout(2, false).unwrap();
        assert!(!hit);
        assert_eq!(ev, 0);
        // Touch 1 so 2 becomes the LRU.
        let (a2, hit, _) = cache.checkout(1, false).unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a1, &a2), "hits return the same slot");
        // A third key evicts key 2 (the LRU), not key 1.
        let (_c, hit, ev) = cache.checkout(3, false).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        let (_a3, hit, _) = cache.checkout(1, false).unwrap();
        assert!(hit, "recently used key must survive eviction");
        let (_b2, hit, _) = cache.checkout(2, false).unwrap();
        assert!(!hit, "evicted key is a miss again");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let cache = SessionCache::new(2);
        cache.checkout(1, true).unwrap();
        let (_b, _, _) = cache.checkout(2, false).unwrap();
        assert_eq!(cache.pins(1), 1);
        assert_eq!(cache.pins(2), 0);
        // Key 1 is the LRU but pinned: key 2 is evicted instead.
        let (_c, hit, ev) = cache.checkout(3, false).unwrap();
        assert!(!hit);
        assert_eq!(ev, 1);
        let (_a, hit, _) = cache.checkout(1, false).unwrap();
        assert!(hit, "pinned entry survives eviction pressure");
        // Pin the whole cache: a miss at capacity is now denied.
        cache.checkout(3, true).unwrap();
        let err = cache.checkout(4, false).expect_err("all entries pinned");
        assert!(err.contains("pinned"), "error explains the denial: {err}");
        // Releasing a pin re-enables eviction.
        cache.unpin(3);
        assert_eq!(cache.pins(3), 0);
        cache
            .checkout(4, false)
            .expect("unpinned entry can be evicted");
        // Double-unpin saturates instead of underflowing.
        cache.unpin(3);
        cache.unpin(99);
        assert_eq!(cache.pins(1), 1);
    }

    #[test]
    fn slots_build_lazily_and_cache_failures() {
        let slot = SessionSlot::default();
        assert!(!slot.is_built());
        let params = CircuitParams::small("lazy", 5);
        let builds = AtomicU64::new(0);
        let m = slot.session(&params, &builds).expect("small design builds");
        assert!(slot.is_built());
        // Second call returns the same session, no rebuild.
        let m2 = slot.session(&params, &builds).unwrap();
        assert!(std::ptr::eq(m, m2));
        assert_eq!(builds.load(Ordering::Relaxed), 1);
    }
}
