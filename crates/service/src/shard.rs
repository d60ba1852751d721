//! A sharded, thread-partitioned map with in-flight coalescing and
//! LRU/memory-budget eviction — the concurrency substrate of the service's
//! [`WarmCache`](crate::WarmCache) (PR 6 tentpole).
//!
//! The layout follows the `ThreadPartitionedMap` idiom (`nmandery/rout3serv`,
//! see SNIPPETS.md): one plain `HashMap` per shard, every shard built over
//! the **same fixed-seed hasher** as the shard router, so a key's shard index
//! and its slot are derived from one hash function and stay stable across
//! processes. Each shard sits behind its own mutex; concurrent requests for
//! *different* keys almost never contend, and the critical sections are
//! pointer-sized (the expensive compute happens outside every lock).
//!
//! On top of the partitioning, [`ShardedMap::get_or_compute`] adds:
//!
//! * **in-flight coalescing** — N concurrent requests for one absent key run
//!   the compute closure exactly once; the N−1 followers block on the
//!   leader's [`Flight`] and share the finished `Arc`. A leader that panics
//!   clears the flight and wakes the followers, which re-elect a new leader
//!   instead of hanging.
//! * **LRU eviction under a memory budget** — every value carries a weight
//!   (bytes, via the weigher passed at construction); the budget is split
//!   evenly across shards and an insert that pushes its shard over the split
//!   evicts least-recently-used entries until it fits. A value too large for
//!   the split is served to its callers but not retained, so the budget is
//!   an invariant, never a soft target.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// FNV-1a with a caller-fixed seed.
///
/// All shards and the shard router must agree on one hash function (the
/// "shared-seed hasher" of the rout3serv idiom); `std`'s `RandomState` is
/// seeded per instance, so it cannot be shared declaratively. FNV-1a is
/// small, deterministic, and good enough for fingerprint strings.
#[derive(Debug, Clone, Copy)]
pub struct FixedSeedHasher {
    state: u64,
}

/// [`BuildHasher`] producing [`FixedSeedHasher`]s with a shared seed.
#[derive(Debug, Clone, Copy)]
pub struct FixedSeedState {
    seed: u64,
}

impl FixedSeedState {
    /// A builder whose hashers all start from `seed`.
    pub fn new(seed: u64) -> Self {
        FixedSeedState { seed }
    }
}

impl Default for FixedSeedState {
    fn default() -> Self {
        // The FNV-1a offset basis, xored with an arbitrary project constant
        // so the stream differs from vanilla FNV users.
        FixedSeedState::new(0xcbf2_9ce4_8422_2325 ^ 0x7072_696d_6570_6172)
    }
}

impl BuildHasher for FixedSeedState {
    type Hasher = FixedSeedHasher;

    fn build_hasher(&self) -> FixedSeedHasher {
        FixedSeedHasher { state: self.seed }
    }
}

impl Hasher for FixedSeedHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// How one [`ShardedMap::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The key was resident: answered from the shard, no compute.
    Hit,
    /// This call was the leader: it ran the compute closure.
    Miss,
    /// Another in-flight call was already computing this key; this call
    /// waited and shares the leader's result.
    Coalesced,
}

/// Point-in-time counters of a [`ShardedMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that ran the compute closure (leaders).
    pub misses: u64,
    /// Lookups that waited on another call's in-flight compute.
    pub coalesced: u64,
    /// Entries evicted to respect the memory budget.
    pub evictions: u64,
    /// Resident entries across all shards.
    pub len: usize,
    /// Total weight (bytes) of resident entries across all shards.
    pub weight: u64,
}

enum FlightState<V> {
    Pending,
    Done(Arc<V>),
    /// The leader panicked; followers re-run the election.
    Abandoned,
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    arrived: Condvar,
}

impl<V> Flight<V> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            arrived: Condvar::new(),
        }
    }

    /// Blocks until the leader lands (or abandons), returning the value if
    /// one was produced.
    fn wait(&self) -> Option<Arc<V>> {
        let mut state = self.state.lock().expect("flight lock");
        loop {
            match &*state {
                FlightState::Pending => state = self.arrived.wait(state).expect("flight lock"),
                FlightState::Done(value) => return Some(value.clone()),
                FlightState::Abandoned => return None,
            }
        }
    }

    fn land(&self, value: Arc<V>) {
        *self.state.lock().expect("flight lock") = FlightState::Done(value);
        self.arrived.notify_all();
    }

    fn abandon(&self) {
        *self.state.lock().expect("flight lock") = FlightState::Abandoned;
        self.arrived.notify_all();
    }
}

enum Slot<V> {
    Ready {
        value: Arc<V>,
        weight: u64,
        /// Last-touch tick from the map-wide clock; smallest = LRU victim.
        tick: u64,
    },
    InFlight(Arc<Flight<V>>),
}

struct Shard<V> {
    entries: HashMap<String, Slot<V>, FixedSeedState>,
    /// Number of `Ready` entries in this shard (in-flight markers excluded).
    len: usize,
    /// Total weight of the `Ready` entries in this shard.
    weight: u64,
}

/// Clears a leader's in-flight marker if it unwinds before landing, so
/// coalesced followers re-elect instead of deadlocking.
struct LeaderGuard<'m, V> {
    map: &'m ShardedMap<V>,
    key: &'m str,
    flight: &'m Arc<Flight<V>>,
    landed: bool,
}

impl<V> Drop for LeaderGuard<'_, V> {
    fn drop(&mut self) {
        if self.landed {
            return;
        }
        let mut shard = self.map.shard_for(self.key).lock().expect("shard lock");
        if let Some(Slot::InFlight(current)) = shard.entries.get(self.key) {
            if Arc::ptr_eq(current, self.flight) {
                shard.entries.remove(self.key);
            }
        }
        drop(shard);
        self.flight.abandon();
    }
}

/// A string-keyed concurrent map partitioned into independently locked
/// shards (see the module docs for the full design).
pub struct ShardedMap<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hasher: FixedSeedState,
    /// Per-shard weight budget (the configured budget split evenly); `None`
    /// disables eviction.
    shard_budget: Option<u64>,
    /// Map-wide LRU clock.
    clock: AtomicU64,
    weigher: fn(&V) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl<V> std::fmt::Debug for ShardedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .field("shard_budget", &self.shard_budget)
            .finish_non_exhaustive()
    }
}

fn unit_weight<V>(_: &V) -> u64 {
    1
}

impl<V> ShardedMap<V> {
    /// A map with `shards` partitions (rounded up to a power of two, minimum
    /// 1), no memory budget, and every entry weighing 1.
    pub fn new(shards: usize) -> Self {
        ShardedMap::with_budget(shards, 0, unit_weight)
    }

    /// A map with `shards` partitions and a total weight budget of `budget`
    /// (0 = unlimited), weighing each value with `weigher`. The budget is
    /// split evenly across shards; each shard evicts LRU-first to keep its
    /// share, so the map's total weight never exceeds `budget`.
    pub fn with_budget(shards: usize, budget: u64, weigher: fn(&V) -> u64) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let hasher = FixedSeedState::default();
        ShardedMap {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::with_hasher(hasher),
                        len: 0,
                        weight: 0,
                    })
                })
                .collect(),
            hasher,
            shard_budget: (budget > 0).then(|| (budget / shards as u64).max(1)),
            clock: AtomicU64::new(0),
            weigher,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of partitions (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to — stable across processes (fixed-seed
    /// hasher) and identical to the slot hash the shard's own map uses.
    pub fn shard_of(&self, key: &str) -> usize {
        (self.hasher.hash_one(key) as usize) & (self.shards.len() - 1)
    }

    fn shard_for(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[self.shard_of(key)]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Resident entries across all shards (in-flight computes excluded).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").len)
            .sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total weight of resident entries.
    pub fn weight(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard lock").weight)
            .sum()
    }

    /// The resident value for `key`, refreshing its LRU position. Counts
    /// nothing and never computes.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let tick = self.tick();
        let mut shard = self.shard_for(key).lock().expect("shard lock");
        match shard.entries.get_mut(key) {
            Some(Slot::Ready { value, tick: t, .. }) => {
                *t = tick;
                Some(value.clone())
            }
            _ => None,
        }
    }

    /// Counts a hit answered from a value an earlier [`ShardedMap::get`]
    /// returned — for callers that look up first and answer later.
    pub(crate) fn count_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Inserts `value` (replacing any resident entry), enforcing the shard
    /// budget. Returns the entry's weight.
    pub fn insert(&self, key: &str, value: Arc<V>) -> u64 {
        let weight = (self.weigher)(&value);
        let tick = self.tick();
        let mut shard = self.shard_for(key).lock().expect("shard lock");
        match shard.entries.insert(
            key.to_string(),
            Slot::Ready {
                value,
                weight,
                tick,
            },
        ) {
            Some(Slot::Ready { weight: old, .. }) => shard.weight -= old,
            _ => shard.len += 1,
        }
        shard.weight += weight;
        self.enforce_budget(&mut shard);
        weight
    }

    /// Evicts LRU-first until the shard fits its budget share. The newest
    /// entry is not special-cased: a value larger than the share is evicted
    /// too (its callers already hold the `Arc`), keeping the budget a hard
    /// invariant.
    fn enforce_budget(&self, shard: &mut Shard<V>) {
        let Some(budget) = self.shard_budget else {
            return;
        };
        while shard.weight > budget {
            let victim = shard
                .entries
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { tick, .. } => Some((*tick, k.clone())),
                    Slot::InFlight(_) => None,
                })
                .min()
                .map(|(_, k)| k);
            let Some(key) = victim else {
                return; // nothing evictable (only in-flight markers remain)
            };
            if let Some(Slot::Ready { weight, .. }) = shard.entries.remove(&key) {
                shard.len -= 1;
                shard.weight -= weight;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The value for `key`, computing it with `compute` on a miss.
    ///
    /// Concurrent calls for the same absent key elect one leader; the rest
    /// coalesce onto its flight (see the module docs). `compute` runs outside
    /// every lock.
    pub fn get_or_compute(&self, key: &str, compute: impl FnOnce() -> V) -> (Arc<V>, Outcome) {
        loop {
            let flight = {
                let tick = self.tick();
                let mut shard = self.shard_for(key).lock().expect("shard lock");
                match shard.entries.get_mut(key) {
                    Some(Slot::Ready { value, tick: t, .. }) => {
                        *t = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (value.clone(), Outcome::Hit);
                    }
                    Some(Slot::InFlight(flight)) => Some(flight.clone()),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard
                            .entries
                            .insert(key.to_string(), Slot::InFlight(flight.clone()));
                        drop(shard);
                        // Leader: compute outside the lock, then land.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let mut guard = LeaderGuard {
                            map: self,
                            key,
                            flight: &flight,
                            landed: false,
                        };
                        let value = Arc::new(compute());
                        guard.landed = true;
                        drop(guard);
                        self.land(key, &flight, value.clone());
                        return (value, Outcome::Miss);
                    }
                }
            };
            if let Some(flight) = flight {
                if let Some(value) = flight.wait() {
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return (value, Outcome::Coalesced);
                }
                // The leader abandoned (panicked): retry the election.
            }
        }
    }

    /// Replaces the in-flight marker with the finished value and wakes the
    /// coalesced followers.
    fn land(&self, key: &str, flight: &Arc<Flight<V>>, value: Arc<V>) {
        let weight = (self.weigher)(&value);
        let tick = self.tick();
        let mut shard = self.shard_for(key).lock().expect("shard lock");
        match shard.entries.get(key) {
            // Still our marker: promote it.
            Some(Slot::InFlight(current)) if Arc::ptr_eq(current, flight) => {
                shard.entries.insert(
                    key.to_string(),
                    Slot::Ready {
                        value: value.clone(),
                        weight,
                        tick,
                    },
                );
                shard.len += 1;
                shard.weight += weight;
                self.enforce_budget(&mut shard);
            }
            // Evicted or replaced while computing: deliver without retaining.
            _ => {}
        }
        drop(shard);
        flight.land(value);
    }

    /// Visits every resident entry (shard by shard, in shard order).
    pub fn for_each(&self, mut f: impl FnMut(&str, &Arc<V>)) {
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (key, slot) in &shard.entries {
                if let Slot::Ready { value, .. } = slot {
                    f(key, value);
                }
            }
        }
    }

    /// Current counters: one short lock per shard, no entry walk.
    pub fn stats(&self) -> ShardStats {
        let (len, weight) = self.shards.iter().fold((0, 0), |(len, weight), s| {
            let shard = s.lock().expect("shard lock");
            (len + shard.len, weight + shard.weight)
        });
        ShardStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            weight,
        }
    }

    /// Per-shard occupancy, indexed by shard: resident entries, resident
    /// weight, and in-flight computes. The `stats` protocol frame reports
    /// this so hot-shard skew is visible live (hit/miss counters stay
    /// map-global — routing makes per-shard attribution ambiguous once a
    /// coalesced waiter lands).
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("shard lock");
                ShardLoad {
                    len: shard.len,
                    weight: shard.weight,
                    in_flight: shard.entries.len() - shard.len,
                }
            })
            .collect()
    }
}

/// One shard's live occupancy, as reported by [`ShardedMap::shard_loads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLoad {
    /// Resident (ready) entries in the shard.
    pub len: usize,
    /// Total weight (bytes) of the shard's resident entries.
    pub weight: u64,
    /// Computes currently in flight in the shard.
    pub in_flight: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn routing_is_deterministic_and_matches_the_shared_seed() {
        let a: ShardedMap<u64> = ShardedMap::new(8);
        let b: ShardedMap<u64> = ShardedMap::new(8);
        for key in ["plan:opt67b:d4", "plan:opt67b:d8", "", "x"] {
            assert_eq!(a.shard_of(key), b.shard_of(key), "{key}");
            assert!(a.shard_of(key) < 8);
        }
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(ShardedMap::<u8>::new(0).num_shards(), 1);
        assert_eq!(ShardedMap::<u8>::new(3).num_shards(), 4);
        assert_eq!(ShardedMap::<u8>::new(8).num_shards(), 8);
    }

    #[test]
    fn shard_loads_partition_the_aggregate_view() {
        let map: ShardedMap<u64> = ShardedMap::with_budget(4, 0, |_| 10);
        for key in ["a", "b", "c", "d", "e"] {
            map.insert(key, Arc::new(1));
        }
        let loads = map.shard_loads();
        assert_eq!(loads.len(), map.num_shards());
        assert_eq!(loads.iter().map(|l| l.len).sum::<usize>(), map.len());
        assert_eq!(loads.iter().map(|l| l.weight).sum::<u64>(), map.weight());
        assert!(loads.iter().all(|l| l.in_flight == 0));
    }

    #[test]
    fn get_or_compute_runs_once_and_then_hits() {
        let map: ShardedMap<u64> = ShardedMap::new(4);
        let runs = AtomicUsize::new(0);
        let compute = || {
            runs.fetch_add(1, Ordering::SeqCst);
            7u64
        };
        let (v, outcome) = map.get_or_compute("k", compute);
        assert_eq!((*v, outcome), (7, Outcome::Miss));
        let (v, outcome) = map.get_or_compute("k", compute);
        assert_eq!((*v, outcome), (7, Outcome::Hit));
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn concurrent_identical_keys_elect_one_leader() {
        let map: ShardedMap<u64> = ShardedMap::new(4);
        let runs = AtomicUsize::new(0);
        let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let (v, outcome) = map.get_or_compute("hot", || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            // Linger so siblings arrive while in flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            42u64
                        });
                        assert_eq!(*v, 42);
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "exactly one compute");
        assert_eq!(
            outcomes.iter().filter(|o| **o == Outcome::Miss).count(),
            1,
            "{outcomes:?}"
        );
        let stats = map.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 7);
    }

    #[test]
    fn panicking_leader_does_not_strand_followers() {
        let map = Arc::new(ShardedMap::<u64>::new(2));
        let leader = {
            let map = map.clone();
            std::thread::spawn(move || {
                map.get_or_compute("doomed", || panic!("leader dies"));
            })
        };
        assert!(leader.join().is_err(), "leader must panic");
        // The key is computable again — no stuck in-flight marker.
        let (v, outcome) = map.get_or_compute("doomed", || 9);
        assert_eq!((*v, outcome), (9, Outcome::Miss));
    }

    /// Resident entries counted by walking every shard's slots — the
    /// reference the maintained per-shard counters must agree with.
    fn walked_len<V>(map: &ShardedMap<V>) -> usize {
        map.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .entries
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready { .. }))
                    .count()
            })
            .sum()
    }

    #[test]
    fn resident_counter_matches_a_walk() {
        // Budget of three unit-weight entries on one shard.
        let map = Arc::new(ShardedMap::<u64>::with_budget(1, 3, |_| 1));
        let agree = |map: &ShardedMap<u64>| {
            assert_eq!(map.len(), walked_len(map));
            assert_eq!(map.stats().len, walked_len(map));
        };
        for key in ["a", "b", "c"] {
            map.insert(key, Arc::new(1));
        }
        map.insert("a", Arc::new(2)); // replacing keeps the count
        agree(&map);
        assert_eq!(map.len(), 3);
        map.insert("d", Arc::new(1)); // evicts the LRU entry
        agree(&map);
        assert_eq!((map.len(), map.stats().evictions), (3, 1));

        // Coalesced landing: followers share one leader's insert.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    map.get_or_compute("hot", || {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        5
                    })
                });
            }
        });
        agree(&map);
        assert!(map.get("hot").is_some());

        // A failed leader leaves no entry behind.
        let leader = {
            let map = map.clone();
            std::thread::spawn(move || {
                map.get_or_compute("doomed", || panic!("leader dies"));
            })
        };
        assert!(leader.join().is_err());
        agree(&map);
        assert!(map.get("doomed").is_none());
        assert_eq!(map.shard_loads()[0].len, map.len());
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_prefers_cold_entries() {
        // 1 shard so the budget split is the whole budget.
        let map: ShardedMap<Vec<u8>> = ShardedMap::with_budget(1, 100, |v| v.len() as u64);
        map.insert("a", Arc::new(vec![0; 40]));
        map.insert("b", Arc::new(vec![0; 40]));
        assert!(map.get("a").is_some(), "refresh a: b becomes LRU");
        map.insert("c", Arc::new(vec![0; 40]));
        assert!(map.weight() <= 100, "budget is an invariant");
        assert!(map.get("b").is_none(), "b was the LRU victim");
        assert!(map.get("a").is_some() && map.get("c").is_some());
        assert_eq!(map.stats().evictions, 1);

        // An entry larger than the budget is served but not retained.
        let (v, outcome) = map.get_or_compute("huge", || vec![0; 200]);
        assert_eq!((v.len(), outcome), (200, Outcome::Miss));
        assert!(map.weight() <= 100);
        assert!(map.get("huge").is_none());
    }
}
