//! Keyed lock arena: millions of logical locks with an inline-word
//! fast path and futex-class parking.
//!
//! [`Arena<K, T>`] keys a space of logical locks (each protecting its
//! own `T`) by hash. [`Arena::acquire`] executes any
//! [`Acquire`] request on a key — predicate, deadline
//! or abort signal — and [`lock`](Arena::lock) /
//! [`try_lock`](Arena::try_lock) are one-line sugar. Two properties make
//! it an *arena* rather than a map of mutexes:
//!
//! * **Inline-word fast path.** An uncontended key is one `AtomicU64`
//!   (see [`sal_core::arena_word`]): acquisition is a single CAS, no
//!   lock core exists. This is the word-sized-futex shape (nsync,
//!   WebKit parking): the overwhelmingly common case — skewed traffic
//!   over a huge key space where almost every acquisition meets a free
//!   key — pays for a word, not a queue lock.
//! * **Bounded materialization.** Only a key that *observes contention*
//!   (a second arrival while held, or a conditional waiter that must
//!   block) promotes to a real lock core — the paper's bounded
//!   long-lived abortable lock plus its waiter registry — drawn from a
//!   bounded pool, and is demoted back to the inline word when the last
//!   participant leaves. Resident lock-core memory is therefore
//!   O(currently contended keys), not O(keys): the practical analogue
//!   of the paper's §6.2 bounded-space constructions.
//!
//! Every key runs the one lock path of the mutexes: the inline word and
//! its promotion, join and demotion protocol live in the crate's driver
//! (shared with [`AbortableMutex`](crate::AbortableMutex), whose word has
//! one resident core), and past the word every acquisition is the same
//! attempt state machine over the same lock core, so a limit that fires
//! while queued abandons on the paper's bounded abort path. The arena
//! itself is the key → entry lookup and the core pool. A `when` request
//! whose predicate is false materializes the inline key it holds (the
//! registry lives in a core) and waits there, registered in that core.
//!
//! Limits: per key at most `core_capacity - 1` threads share the core
//! (one pid is the promotion proxy; more wait for a pid under their
//! limit, FIFO, through the core's pid admission); at most `pool` keys are
//! materialized at once, and further contended keys spin with backoff
//! on the inline word ([`ArenaStats::fallback_spins`]) — bounded space,
//! no RMR guarantee on that path, never incorrect. Locking a key twice
//! from one thread deadlocks, as with `std::sync::Mutex`.
//!
//! The protocol ([`sal_core::arena_word`], model-checked in
//! `tests/arena_protocol.rs`; DESIGN.md §13): a promoter enters a pooled
//! core with the reserved **proxy pid** for the inline holder, then
//! publishes `LOCKED_INLINE → MATERIALIZED(idx)` or undoes everything;
//! an inline holder whose unlock CAS fails exits through the proxy pid;
//! every participant counts in `users`, and the last one out swaps in a
//! demoting sentinel, resets the word and returns the core. Joiners
//! increment first and revalidate the word after, so they either block
//! demotion or see it and retry.
//!
//! ```
//! use sal_sync::Arena;
//!
//! let arena: Arena<u64, u64> = Arena::builder().build();
//! *arena.lock(&7) += 1;                        // inline CAS, no core
//! if let Some(mut g) = arena.try_lock(&8) {
//!     *g += 1;
//! }
//! assert_eq!(*arena.lock(&7), 1);
//! assert_eq!(arena.stats().resident_cores, 0); // nothing materialized
//! ```

use crate::acquire::Predicate;
use crate::driver::{Core, Cores, Hold, Seated, Transitions, Word};
use crate::{AbortReason, Acquire, Immediate};
use sal_core::arena_word as word;
use sal_memory::AbortSignal;
use sal_obs::NoProbe;
use std::cell::UnsafeCell;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};

/// One logical lock: the inline word plus the protected value. Boxed
/// inside the shard map and never removed while the arena lives, so
/// references to it are stable across map growth.
struct Entry<T> {
    word: AtomicU64,
    data: UnsafeCell<T>,
}

/// One hash shard: a lazily populated key → entry map. Entries are only
/// ever inserted (the *cores* are what get reclaimed), so the read path
/// is a shared-lock map probe.
struct Shard<K, T> {
    map: RwLock<HashMap<K, Box<Entry<T>>>>,
}

/// The bounded core pool: slots are built lazily, never torn down, and
/// recycled through a free list, so `built` is the high-water mark of
/// contended keys and space is `pool × O(capacity²)` words.
struct CorePool<T> {
    slots: Box<[OnceLock<Seated<T>>]>,
    free: Mutex<Vec<u32>>,
    built: AtomicUsize,
    capacity: usize,
    branching: usize,
    transitions: Transitions,
}

impl<T> CorePool<T> {
    fn new(pool: usize, capacity: usize, branching: usize) -> Self {
        CorePool {
            slots: (0..pool).map(|_| OnceLock::new()).collect(),
            free: Mutex::new(Vec::new()),
            built: AtomicUsize::new(0),
            capacity,
            branching,
            transitions: Transitions::default(),
        }
    }
}

impl<T> Cores for CorePool<T> {
    type T = T;
    type P = NoProbe;
    const REPORTS: bool = false;

    /// A recycled core off the free list, else the next never-used slot
    /// built; `None`, counted as a fallback spin, when all are in use.
    fn claim(&self) -> Option<u32> {
        if let Some(i) = self.free.lock().unwrap().pop() {
            return Some(i);
        }
        loop {
            let b = self.built.load(Ordering::SeqCst);
            if b >= self.slots.len() {
                // Fully built: one more look at the free list (a racing
                // release may have restocked it).
                let idx = self.free.lock().unwrap().pop();
                if idx.is_none() {
                    let spins = &self.transitions.fallback_spins;
                    spins.fetch_add(1, Ordering::Relaxed);
                }
                return idx;
            }
            if self
                .built
                .compare_exchange(b, b + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let core = Core::new(self.capacity, self.branching, NoProbe);
                let users = AtomicUsize::new(0);
                let set = self.slots[b].set(Seated { users, core });
                debug_assert!(set.is_ok(), "slot {b} built twice");
                return Some(b as u32);
            }
        }
    }

    fn unclaim(&self, idx: u32) {
        self.free.lock().unwrap().push(idx);
    }

    fn seated(&self, idx: u32) -> &Seated<T> {
        self.slots[idx as usize]
            .get()
            .expect("materialized index names a built core")
    }

    fn transitions(&self) -> &Transitions {
        &self.transitions
    }
}

/// Snapshot of arena-level counters; see [`Arena::stats`].
///
/// The memory bound in two numbers: `built_cores` (capped by
/// `pool_capacity`) stays a handful while `keys` reaches millions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Keys currently materialized (holding a pooled core).
    pub resident_cores: usize,
    /// High-water mark of cores ever constructed (≤ `pool_capacity`).
    pub built_cores: usize,
    /// The configured pool bound.
    pub pool_capacity: usize,
    /// Keys ever touched (entries in the shard maps).
    pub keys: usize,
    /// Inline → materialized transitions.
    pub promotions: u64,
    /// Materialized → inline reclamations (core returned to the pool).
    pub demotions: u64,
    /// Promotions undone because the holder released (or another
    /// promoter published) first.
    pub raced_promotions: u64,
    /// Degraded-path retries taken because the core pool was exhausted
    /// (the key stayed inline and the waiter spun with backoff).
    pub fallback_spins: u64,
}

/// Configures and constructs an [`Arena`]; obtain with
/// [`Arena::builder`].
#[derive(Debug)]
pub struct ArenaBuilder<K, T> {
    shards: usize,
    pool: usize,
    capacity: usize,
    branching: usize,
    _marker: PhantomData<fn() -> (K, T)>,
}

impl<K, T> ArenaBuilder<K, T> {
    /// Number of hash shards (rounded up to a power of two; default
    /// 64). More shards, less map-lock contention on first touches.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1).next_power_of_two();
        self
    }

    /// Bound on concurrently materialized keys (default 64). This is
    /// the resident-memory knob: lock-core space is `pool ×
    /// O(core_capacity²)` words, independent of key count.
    pub fn pool(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "arena needs at least one pooled core");
        self.pool = cores;
        self
    }

    /// Process slots per core, including the promotion proxy (default
    /// 8, minimum 2): at most `n - 1` threads participate in one key's
    /// core concurrently; more wait for a slot under their limit.
    pub fn core_capacity(mut self, n: usize) -> Self {
        assert!(n >= 2, "core capacity must cover the proxy plus a waiter");
        self.capacity = n;
        self
    }

    /// Branching factor of each core's tree (`2 ..= 64`, default 16 —
    /// cores are small, a flat tree wastes words).
    pub fn branching(mut self, w: usize) -> Self {
        self.branching = w;
        self
    }

    /// Build the arena.
    pub fn build(self) -> Arena<K, T> {
        assert!(
            self.pool <= word::MAX_CORE_INDEX,
            "pool exceeds the word encoding"
        );
        Arena {
            shards: (0..self.shards)
                .map(|_| Shard {
                    map: RwLock::new(HashMap::new()),
                })
                .collect(),
            shard_mask: self.shards - 1,
            hasher: RandomState::new(),
            pool: CorePool::new(self.pool, self.capacity, self.branching),
        }
    }
}

/// A sharded, hash-keyed arena of logical locks with an inline-word
/// fast path and bounded lazy materialization; see the module docs.
///
/// No per-thread registration: any thread may use any key; pids are
/// checked out per contended acquisition from the key's core.
pub struct Arena<K, T> {
    shards: Box<[Shard<K, T>]>,
    shard_mask: usize,
    hasher: RandomState,
    pool: CorePool<T>,
}

// Safety: `T` lives in per-entry `UnsafeCell`s handed out only under
// that entry's lock (inline word or core — mutual exclusion per key),
// so crossing threads needs exactly `T: Send`. Keys are shared and
// compared across threads (`K: Send + Sync`). Everything else is
// atomics, std locks, and the already-`Sync` core machinery.
unsafe impl<K: Send + Sync, T: Send> Send for Arena<K, T> {}
// Safety: as above — `&Arena` exposes `&T`/`&mut T` only through
// per-key mutual exclusion.
unsafe impl<K: Send + Sync, T: Send> Sync for Arena<K, T> {}

impl<K: Hash + Eq + Clone, T: Default> Default for Arena<K, T> {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl<K: Hash + Eq + Clone, T: Default> Arena<K, T> {
    /// Start configuring an arena (shards, pool bound, core capacity,
    /// branching).
    pub fn builder() -> ArenaBuilder<K, T> {
        ArenaBuilder {
            shards: 64,
            pool: 64,
            capacity: 8,
            branching: 16,
            _marker: PhantomData,
        }
    }

    /// An arena with default configuration.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Resolve `key` to its entry, creating it (with `T::default()`) on
    /// first touch.
    fn entry(&self, key: &K) -> &Entry<T> {
        let shard = &self.shards[(self.hasher.hash_one(key) as usize) & self.shard_mask];
        {
            let map = shard.map.read().unwrap();
            if let Some(e) = map.get(key) {
                // Safety: entries are boxed and never removed while the
                // arena lives (maps only grow), so the pointee is
                // stable for the arena's — hence `&self`'s — lifetime.
                return unsafe { &*(&**e as *const Entry<T>) };
            }
        }
        let mut map = shard.map.write().unwrap();
        let e = map.entry(key.clone()).or_insert_with(|| {
            Box::new(Entry {
                word: AtomicU64::new(word::UNLOCKED),
                data: UnsafeCell::new(T::default()),
            })
        });
        // Safety: same stability argument as above.
        unsafe { &*(&**e as *const Entry<T>) }
    }

    /// Execute `req` on `key`'s lock. An uncontended plain request is
    /// one CAS on the inline word. A `when` request whose predicate is
    /// false materializes the key (the registry lives in a core) and
    /// waits there, demoting again once the last waiter leaves. On `Err`
    /// nothing is held or leaked.
    pub fn acquire<F, S>(
        &self,
        key: &K,
        req: Acquire<F, S>,
    ) -> Result<ArenaGuard<'_, K, T>, AbortReason>
    where
        F: Predicate<T>,
        S: AbortSignal,
    {
        let entry = self.entry(key);
        let hold = self.word(entry).acquire(&req.pred, req.limit)?;
        Ok(self.guard(entry, hold))
    }

    /// Acquire `key`'s lock, waiting as long as it takes:
    /// `acquire(key, Acquire::new())`. Uncontended: one CAS.
    pub fn lock(&self, key: &K) -> ArenaGuard<'_, K, T> {
        self.acquire(key, Acquire::new())
            .unwrap_or_else(|_| unreachable!("an unbounded acquisition cannot abort"))
    }

    /// One near-immediate attempt,
    /// `acquire(key, Acquire::new().abort_on(Immediate))`: a held
    /// *inline* key fails without materializing anything; a materialized
    /// key runs one bounded abortable enter.
    pub fn try_lock(&self, key: &K) -> Option<ArenaGuard<'_, K, T>> {
        self.acquire(key, Acquire::new().abort_on(Immediate)).ok()
    }
}

impl<K, T> Arena<K, T> {
    /// Snapshot the arena counters.
    pub fn stats(&self) -> ArenaStats {
        let (t, built) = (
            &self.pool.transitions,
            self.pool.built.load(Ordering::SeqCst),
        );
        ArenaStats {
            // Cores checked out: materialized keys, right now.
            resident_cores: built - self.pool.free.lock().unwrap().len(),
            built_cores: built,
            pool_capacity: self.pool.slots.len(),
            keys: self
                .shards
                .iter()
                .map(|s| s.map.read().unwrap().len())
                .sum(),
            promotions: t.promotions.load(Ordering::Relaxed),
            demotions: t.demotions.load(Ordering::Relaxed),
            raced_promotions: t.raced_promotions.load(Ordering::Relaxed),
            fallback_spins: t.fallback_spins.load(Ordering::Relaxed),
        }
    }

    /// Number of hash shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn guard<'a>(&'a self, entry: &'a Entry<T>, hold: Hold) -> ArenaGuard<'a, K, T> {
        ArenaGuard {
            arena: self,
            entry,
            hold,
            _not_send: PhantomData,
        }
    }

    /// `entry`'s word over the pool.
    #[inline]
    fn word<'a>(&'a self, entry: &'a Entry<T>) -> Word<'a, CorePool<T>> {
        Word {
            word: &entry.word,
            data: &entry.data,
            cores: &self.pool,
        }
    }
}

impl<K, T> fmt::Debug for Arena<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("shards", &self.shards.len())
            .field("pool", &self.pool.slots.len())
            .field("built_cores", &self.pool.built.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// RAII guard over one key's value; the key's lock is held while the
/// guard lives and released (with demotion bookkeeping) on drop.
///
/// Like [`MutexGuard`](crate::MutexGuard): `Sync` only when `T: Sync`,
/// never `Send` (core-mode guards own a checked-out pid seat).
pub struct ArenaGuard<'a, K, T> {
    arena: &'a Arena<K, T>,
    entry: &'a Entry<T>,
    hold: Hold,
    /// Suppresses auto `Send`/`Sync` (see type docs).
    _not_send: PhantomData<*const ()>,
}

// Safety: `&ArenaGuard` only exposes `&T`, so sharing requires exactly
// `T: Sync` (matching std's guard).
unsafe impl<K, T: Sync> Sync for ArenaGuard<'_, K, T> {}

impl<K, T> Deref for ArenaGuard<'_, K, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // Safety: we hold the key's lock.
        unsafe { &*self.entry.data.get() }
    }
}

impl<K, T> DerefMut for ArenaGuard<'_, K, T> {
    fn deref_mut(&mut self) -> &mut T {
        // Safety: we hold the key's lock exclusively.
        unsafe { &mut *self.entry.data.get() }
    }
}

impl<K, T> Drop for ArenaGuard<'_, K, T> {
    fn drop(&mut self) {
        self.arena.word(self.entry).unlock(self.hold);
    }
}

impl<K, T: fmt::Debug> fmt::Debug for ArenaGuard<'_, K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArenaGuard").field(&&**self).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn uncontended_traffic_never_materializes() {
        let arena: Arena<u64, u64> = Arena::builder().shards(4).build();
        for k in 0..100u64 {
            *arena.lock(&k) += 1;
            *arena.lock(&k) += 1;
        }
        let s = arena.stats();
        assert_eq!(s.keys, 100);
        assert_eq!(s.built_cores, 0, "no contention, no cores");
        assert_eq!(s.promotions, 0);
        for k in 0..100u64 {
            assert_eq!(*arena.lock(&k), 2);
        }
    }

    #[test]
    fn contended_key_promotes_and_demotes() {
        let arena: Arc<Arena<u32, u64>> = Arc::new(Arena::builder().shards(2).pool(4).build());
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let arena = Arc::clone(&arena);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..2000 {
                        *arena.lock(&1) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*arena.lock(&1), 8000, "no lost updates");
        let s = arena.stats();
        assert_eq!(
            s.resident_cores, 0,
            "quiescent arena has demoted everything"
        );
        assert_eq!(s.promotions, s.demotions, "every promotion reclaimed");
        assert!(s.built_cores <= 4);
    }

    #[test]
    fn try_lock_on_held_inline_key_fails_without_materializing() {
        let arena: Arena<u8, ()> = Arena::new();
        let g = arena.lock(&1);
        assert!(arena.try_lock(&1).is_none());
        assert_eq!(arena.stats().built_cores, 0);
        drop(g);
        assert!(arena.try_lock(&1).is_some());
    }

    #[test]
    fn deadline_abandons_a_held_key() {
        let arena: Arc<Arena<u8, ()>> = Arc::new(Arena::new());
        let g = arena.lock(&1);
        let start = Instant::now();
        let arena2 = Arc::clone(&arena);
        let t = std::thread::spawn(move || {
            let r = arena2.acquire(&1, Acquire::new().within(Duration::from_millis(20)));
            r.err() == Some(AbortReason::Deadline)
        });
        assert!(t.join().unwrap(), "waiter should time out");
        assert!(start.elapsed() >= Duration::from_millis(20));
        drop(g);
        // The aborted waiter departed: the key demotes once we release.
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn abort_flag_unblocks_a_queued_waiter() {
        let arena: Arc<Arena<u8, u32>> = Arc::new(Arena::new());
        let flag = crate::AbortFlag::new();
        let g = arena.lock(&3);
        let t = {
            let arena = Arc::clone(&arena);
            let flag = flag.clone();
            std::thread::spawn(move || {
                let r = arena.acquire(&3, Acquire::new().abort_on(&flag));
                r.err() == Some(AbortReason::Caller)
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        flag.set();
        assert!(t.join().unwrap(), "waiter should abort");
        drop(g);
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn lock_when_waits_across_a_transition() {
        let arena: Arc<Arena<u8, u64>> = Arc::new(Arena::new());
        let t = {
            let arena = Arc::clone(&arena);
            std::thread::spawn(move || {
                let g = arena
                    .acquire(&1, Acquire::new().when(|v: &u64| *v == 42))
                    .unwrap();
                *g
            })
        };
        std::thread::sleep(Duration::from_millis(10));
        *arena.lock(&1) = 42;
        assert_eq!(t.join().unwrap(), 42);
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn a_cond_waiter_leaves_the_pid_to_the_producer() {
        let arena: Arena<u8, u64> = Arena::builder().core_capacity(2).build();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let req = Acquire::new()
                    .when(|v: &u64| *v > 0)
                    .within(Duration::from_secs(1));
                arena.acquire(&1, req).map(|g| *g)
            });
            // The first core built is the waiter's.
            let registered = || {
                arena.pool.slots[0]
                    .get()
                    .is_some_and(|p| p.core.ccs.waiting() > 0)
            };
            while !registered() {
                std::thread::yield_now();
            }
            let req = Acquire::new().within(Duration::from_millis(500));
            *arena.acquire(&1, req).expect("the waiter holds no pid") = 1;
            assert_eq!(waiter.join().unwrap(), Ok(1));
        });
        assert_eq!(arena.stats().resident_cores, 0);
    }

    #[test]
    fn lock_when_already_true_stays_inline() {
        let arena: Arena<u8, u64> = Arena::new();
        *arena.lock(&1) = 5;
        let g = arena
            .acquire(&1, Acquire::new().when(|v: &u64| *v == 5))
            .unwrap();
        assert_eq!(*g, 5);
        drop(g);
        assert_eq!(arena.stats().built_cores, 0);
    }

    #[test]
    fn lock_when_deadline_expires() {
        let arena: Arena<u8, u64> = Arena::new();
        let req = Acquire::new()
            .when(|v: &u64| *v == 99)
            .within(Duration::from_millis(15));
        assert_eq!(arena.acquire(&1, req).err(), Some(AbortReason::Deadline));
        assert_eq!(arena.stats().resident_cores, 0, "waiter departed cleanly");
    }

    #[test]
    fn distinct_keys_do_not_contend() {
        let arena: Arc<Arena<u64, u64>> = Arc::new(Arena::builder().shards(8).build());
        let threads: Vec<_> = (0..4u64)
            .map(|k| {
                let arena = Arc::clone(&arena);
                std::thread::spawn(move || {
                    for _ in 0..5000 {
                        *arena.lock(&k) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for k in 0..4u64 {
            assert_eq!(*arena.lock(&k), 5000);
        }
        assert_eq!(arena.stats().built_cores, 0, "disjoint keys stay inline");
    }

    #[test]
    fn pool_of_one_still_correct_under_many_contended_keys() {
        // More concurrently contended keys than pooled cores: the
        // overflow keys take the degraded path; counts must still hold.
        let arena: Arc<Arena<u32, u64>> = Arc::new(Arena::builder().pool(1).build());
        let start = Arc::new(std::sync::Barrier::new(6));
        let threads: Vec<_> = (0..6)
            .map(|_| {
                let arena = Arc::clone(&arena);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for n in 0..1500u32 {
                        *arena.lock(&(n % 3)) += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: u64 = (0..3u32).map(|k| *arena.lock(&k)).sum();
        assert_eq!(total, 9000);
        let s = arena.stats();
        assert!(s.built_cores <= 1, "pool bound respected");
        assert_eq!(s.resident_cores, 0);
    }

    #[test]
    fn guard_debug_and_arena_debug() {
        let arena: Arena<u8, u64> = Arena::new();
        let g = arena.lock(&1);
        assert!(format!("{g:?}").contains("ArenaGuard"));
        drop(g);
        assert!(format!("{arena:?}").contains("Arena"));
    }
}
