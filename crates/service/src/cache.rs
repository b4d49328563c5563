//! The distance-table cache: LRU + single-flight over resistive solves.
//!
//! Building a table of equivalent distances is the expensive step of a
//! scheduling request (one linear solve per switch). The cache keys the
//! finished `(routing, table)` pair by `(topology fingerprint,
//! [`RoutingSpec`], [`TableSpec`])`. Concurrent requests for the same key
//! are *single-flighted*: the first computes while the rest block on a
//! condvar and then share the result — they count as hits, because they
//! obtained the table without solving.

use commsched_distance::SharedDistanceTable;
pub use commsched_distance::TableSpec;
use commsched_routing::Routing;
pub use commsched_routing::RoutingSpec;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A routing and its table of equivalent distances, built once and
/// shared by every job that schedules on the same network.
pub struct RoutedTable {
    /// The routing model.
    pub routing: Box<dyn Routing>,
    /// The table of equivalent distances under that routing, as a
    /// shareable handle so jobs can keep it past an LRU eviction.
    pub table: SharedDistanceTable,
}

type Key = (u64, RoutingSpec, TableSpec);

enum Slot {
    /// Some thread is building this entry; waiters block on the condvar.
    Building,
    /// Finished; `last_used` orders LRU eviction.
    Ready {
        value: Arc<RoutedTable>,
        last_used: u64,
    },
}

struct CacheInner {
    entries: HashMap<Key, Slot>,
    clock: u64,
    /// Wall time of the most recently *completed* build (completion
    /// order is defined by who re-acquires this lock first, so the
    /// value is coherent even with concurrent misses on distinct keys).
    build_nanos_last: u64,
}

/// LRU + single-flight cache of [`RoutedTable`]s.
pub struct DistanceCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    build_nanos_total: AtomicU64,
}

/// Clears a `Slot::Building` reservation if the build closure unwinds.
///
/// Without this, a panicking build leaves the slot `Building` forever
/// and every later caller for the key blocks on the condvar. On drop
/// (reached only via unwind — the success and error paths disarm it)
/// the guard removes the slot and wakes all waiters so the next one
/// becomes the builder.
struct BuildGuard<'a> {
    cache: &'a DistanceCache,
    key: Key,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = match self.cache.inner.lock() {
            Ok(inner) => inner,
            // The mutex can only be poisoned by a panic under the lock,
            // which this module never does while holding it.
            Err(poisoned) => poisoned.into_inner(),
        };
        if matches!(inner.entries.get(&self.key), Some(Slot::Building)) {
            inner.entries.remove(&self.key);
        }
        self.cache.ready.notify_all();
    }
}

impl DistanceCache {
    /// A cache evicting least-recently-used entries beyond `capacity`
    /// (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                clock: 0,
                build_nanos_last: 0,
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            build_nanos_total: AtomicU64::new(0),
        }
    }

    /// Times a lookup found (or waited for) an existing entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Times a lookup had to build the entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total wall time spent inside `build` closures, in nanoseconds
    /// (failed builds included — their time was still paid).
    pub fn build_nanos_total(&self) -> u64 {
        self.build_nanos_total.load(Ordering::Relaxed)
    }

    /// Wall time of the most recently *completed* `build` closure, in
    /// nanoseconds (0 until the first miss). "Most recent" is defined
    /// by completion order under the cache lock, so with two concurrent
    /// misses the value is whichever build finished (re-acquired the
    /// lock) last — never a torn mix of the two.
    pub fn build_nanos_last(&self) -> u64 {
        self.inner.lock().expect("cache lock").build_nanos_last
    }

    /// Number of finished entries currently held.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("cache lock");
        inner
            .entries
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count()
    }

    /// Whether no finished entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the entry for `key`, building it with `build` on a miss.
    ///
    /// Exactly one caller runs `build` per key at a time; concurrent
    /// callers for the same key block until it finishes and then share
    /// the value (counted as hits). If `build` fails the error goes to
    /// the building caller and waiters retry (the next one becomes the
    /// builder).
    ///
    /// # Errors
    /// Propagates `build`'s error.
    pub fn get_or_build<F>(&self, key: Key, build: F) -> Result<Arc<RoutedTable>, String>
    where
        F: FnOnce() -> Result<RoutedTable, String>,
    {
        let mut inner = self.inner.lock().expect("cache lock");
        loop {
            match inner.entries.get(&key) {
                Some(Slot::Ready { .. }) => {
                    inner.clock += 1;
                    let stamp = inner.clock;
                    let Some(Slot::Ready { value, last_used }) = inner.entries.get_mut(&key) else {
                        unreachable!("entry vanished under the lock");
                    };
                    *last_used = stamp;
                    let out = Arc::clone(value);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(out);
                }
                Some(Slot::Building) => {
                    inner = self.ready.wait(inner).expect("cache lock");
                }
                None => {
                    inner.entries.insert(key, Slot::Building);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    drop(inner);
                    let mut guard = BuildGuard {
                        cache: self,
                        key,
                        armed: true,
                    };
                    let t0 = std::time::Instant::now();
                    let built = build();
                    guard.armed = false;
                    let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.build_nanos_total.fetch_add(nanos, Ordering::Relaxed);
                    let mut inner = self.inner.lock().expect("cache lock");
                    inner.build_nanos_last = nanos;
                    match built {
                        Ok(value) => {
                            let value = Arc::new(value);
                            inner.clock += 1;
                            let stamp = inner.clock;
                            inner.entries.insert(
                                key,
                                Slot::Ready {
                                    value: Arc::clone(&value),
                                    last_used: stamp,
                                },
                            );
                            Self::evict_over_capacity(&mut inner, self.capacity, key);
                            self.ready.notify_all();
                            return Ok(value);
                        }
                        Err(e) => {
                            inner.entries.remove(&key);
                            self.ready.notify_all();
                            return Err(e);
                        }
                    }
                }
            }
        }
    }

    /// Drop every *ready* entry built for `fingerprint` (any routing
    /// spec), returning the removed `(spec, table)` pairs so the caller
    /// can refresh them against the successor topology.
    ///
    /// In-flight `Building` slots are left untouched: their builder will
    /// finish and insert normally (single-flight stays sound), and the
    /// stale result is keyed by the *old* fingerprint, which no new job
    /// will request once the registry epoch has moved on.
    pub fn invalidate_topology(
        &self,
        fingerprint: u64,
    ) -> Vec<(RoutingSpec, TableSpec, Arc<RoutedTable>)> {
        let mut inner = self.inner.lock().expect("cache lock");
        let victims: Vec<Key> = inner
            .entries
            .iter()
            .filter_map(|(k, s)| {
                (k.0 == fingerprint && matches!(s, Slot::Ready { .. })).then_some(*k)
            })
            .collect();
        let mut removed = Vec::with_capacity(victims.len());
        for k in victims {
            if let Some(Slot::Ready { value, .. }) = inner.entries.remove(&k) {
                removed.push((k.1, k.2, value));
            }
        }
        // Deterministic order for reporting.
        removed.sort_by_key(|(spec, tspec, _)| format!("{spec} {tspec}"));
        removed
    }

    /// Install a finished entry directly (recovery path: the table was
    /// deserialized from a snapshot/WAL rather than built here). An
    /// existing `Ready` entry for the key is replaced; an in-flight
    /// `Building` slot is left alone — the builder wins, since it is
    /// at least as fresh as the persisted copy.
    pub fn insert_ready(&self, key: Key, value: Arc<RoutedTable>) {
        let mut inner = self.inner.lock().expect("cache lock");
        if matches!(inner.entries.get(&key), Some(Slot::Building)) {
            return;
        }
        inner.clock += 1;
        let stamp = inner.clock;
        inner.entries.insert(
            key,
            Slot::Ready {
                value,
                last_used: stamp,
            },
        );
        Self::evict_over_capacity(&mut inner, self.capacity, key);
    }

    /// Every finished entry currently held, least-recently-used first
    /// (the snapshot writer's view; `Building` slots are skipped).
    pub fn ready_entries(&self) -> Vec<(Key, Arc<RoutedTable>)> {
        let inner = self.inner.lock().expect("cache lock");
        let mut out: Vec<(Key, u64, Arc<RoutedTable>)> = inner
            .entries
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Ready { value, last_used } => Some((*k, *last_used, Arc::clone(value))),
                Slot::Building => None,
            })
            .collect();
        out.sort_by_key(|&(_, stamp, _)| stamp);
        out.into_iter().map(|(k, _, v)| (k, v)).collect()
    }

    /// Evict least-recently-used *ready* entries (never the one just
    /// inserted, never in-flight builds) until at most `capacity` ready
    /// entries remain.
    fn evict_over_capacity(inner: &mut CacheInner, capacity: usize, keep: Key) {
        loop {
            let ready = inner
                .entries
                .iter()
                .filter(|(_, s)| matches!(s, Slot::Ready { .. }))
                .count();
            if ready <= capacity {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if *k != keep => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, stamp)| stamp)
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    inner.entries.remove(&k);
                }
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commsched_distance::equivalent_distance_table;
    use commsched_routing::UpDownRouting;
    use commsched_topology::designed;

    fn build_for(n: usize) -> RoutedTable {
        let topo = designed::ring(n, 1);
        let routing = UpDownRouting::new(&topo, 0).unwrap();
        let table = equivalent_distance_table(&topo, &routing)
            .unwrap()
            .into_shared();
        RoutedTable {
            routing: Box::new(routing),
            table,
        }
    }

    fn key(fp: u64) -> Key {
        (fp, RoutingSpec::UpDown { root: 0 }, TableSpec::Exact)
    }

    #[test]
    fn hit_after_miss() {
        let cache = DistanceCache::new(4);
        let a = cache.get_or_build(key(1), || Ok(build_for(4))).unwrap();
        let b = cache
            .get_or_build(key(1), || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_share() {
        let cache = DistanceCache::new(4);
        let a = cache.get_or_build(key(1), || Ok(build_for(4))).unwrap();
        let b = cache
            .get_or_build((1, RoutingSpec::ShortestPath, TableSpec::Exact), || {
                Ok(build_for(4))
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = DistanceCache::new(2);
        cache.get_or_build(key(1), || Ok(build_for(4))).unwrap();
        cache.get_or_build(key(2), || Ok(build_for(5))).unwrap();
        // Touch 1 so 2 is the LRU victim.
        cache.get_or_build(key(1), || panic!("cached")).unwrap();
        cache.get_or_build(key(3), || Ok(build_for(6))).unwrap();
        assert_eq!(cache.len(), 2);
        // 1 survived, 2 was evicted (rebuilding it is a miss).
        cache
            .get_or_build(key(1), || panic!("still cached"))
            .unwrap();
        let mut rebuilt = false;
        cache
            .get_or_build(key(2), || {
                rebuilt = true;
                Ok(build_for(5))
            })
            .unwrap();
        assert!(rebuilt);
    }

    #[test]
    fn build_failure_propagates_and_clears_slot() {
        let cache = DistanceCache::new(2);
        let Err(err) = cache.get_or_build(key(9), || Err("boom".into())) else {
            panic!("expected the build error to propagate");
        };
        assert_eq!(err, "boom");
        // The slot is free again: a retry builds.
        cache.get_or_build(key(9), || Ok(build_for(4))).unwrap();
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn build_time_is_tracked_per_miss() {
        let cache = DistanceCache::new(4);
        assert_eq!(cache.build_nanos_total(), 0);
        assert_eq!(cache.build_nanos_last(), 0);
        cache
            .get_or_build(key(1), || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                Ok(build_for(4))
            })
            .unwrap();
        let after_first = cache.build_nanos_total();
        assert!(after_first >= 5_000_000, "got {after_first} ns");
        assert_eq!(cache.build_nanos_last(), after_first);
        // A hit costs no build time.
        cache.get_or_build(key(1), || panic!("cached")).unwrap();
        assert_eq!(cache.build_nanos_total(), after_first);
        // A second miss accumulates and replaces the last-build figure.
        cache.get_or_build(key(2), || Ok(build_for(5))).unwrap();
        assert!(cache.build_nanos_total() > after_first);
        assert!(cache.build_nanos_last() < after_first);
    }

    #[test]
    fn invalidate_topology_removes_only_that_fingerprint() {
        let cache = DistanceCache::new(8);
        cache.get_or_build(key(1), || Ok(build_for(4))).unwrap();
        cache
            .get_or_build((1, RoutingSpec::ShortestPath, TableSpec::Exact), || {
                Ok(build_for(4))
            })
            .unwrap();
        cache.get_or_build(key(2), || Ok(build_for(5))).unwrap();
        let removed = cache.invalidate_topology(1);
        assert_eq!(removed.len(), 2);
        assert_eq!(cache.len(), 1);
        // The unrelated topology is still a hit; the invalidated one
        // rebuilds.
        cache.get_or_build(key(2), || panic!("cached")).unwrap();
        let mut rebuilt = false;
        cache
            .get_or_build(key(1), || {
                rebuilt = true;
                Ok(build_for(4))
            })
            .unwrap();
        assert!(rebuilt);
        // Invalidating a fingerprint with no entries is a no-op.
        assert!(cache.invalidate_topology(99).is_empty());
    }

    #[test]
    fn panicking_build_unblocks_waiters() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;
        let cache = Arc::new(DistanceCache::new(4));
        let in_build = Arc::new(Barrier::new(2));
        let waiter_builds = Arc::new(AtomicUsize::new(0));

        std::thread::scope(|scope| {
            let waiter = {
                let cache = Arc::clone(&cache);
                let in_build = Arc::clone(&in_build);
                let waiter_builds = Arc::clone(&waiter_builds);
                scope.spawn(move || {
                    // Arrive only once the panicking builder owns the
                    // slot, so this thread really blocks on the condvar.
                    in_build.wait();
                    cache.get_or_build(key(7), || {
                        waiter_builds.fetch_add(1, Ordering::SeqCst);
                        Ok(build_for(4))
                    })
                })
            };

            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_build(key(7), || {
                    in_build.wait();
                    // Give the waiter time to block on the condvar
                    // before unwinding out of the build closure.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    panic!("builder died");
                })
            }));
            assert!(panicked.is_err(), "the build panic must propagate");

            // Pre-fix this join hangs forever: the Building slot is
            // never cleared and the waiter waits on the condvar.
            let value = waiter.join().expect("waiter thread").unwrap();
            assert_eq!(waiter_builds.load(Ordering::SeqCst), 1);
            drop(value);
        });

        // The cache is fully usable afterwards.
        cache.get_or_build(key(7), || panic!("cached")).unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn insert_ready_restores_and_lists_entries() {
        let cache = DistanceCache::new(4);
        cache.get_or_build(key(1), || Ok(build_for(4))).unwrap();
        let entries = cache.ready_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, key(1));

        // Round-trip through insert_ready: the exact Arc is served back
        // without a rebuild.
        let restored = DistanceCache::new(4);
        for (k, v) in entries {
            restored.insert_ready(k, v);
        }
        let got = restored
            .get_or_build(key(1), || panic!("must not rebuild"))
            .unwrap();
        assert_eq!(restored.hits(), 1);
        drop(got);
        assert_eq!(restored.len(), 1);
    }

    #[test]
    fn concurrent_same_key_single_flights() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(DistanceCache::new(4));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    cache
                        .get_or_build(key(7), || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window so the other threads
                            // really do arrive while this build runs.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            Ok(build_for(6))
                        })
                        .unwrap();
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }
}
