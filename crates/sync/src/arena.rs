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
//! itself is the key → entry lookup (one hash, then a lock-free probe of
//! the shard's table) and the core pool. A `when` request whose
//! predicate is false materializes the inline key it holds (the registry
//! lives in a core) and waits there, registered in that core.
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
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// One logical lock: the inline word, the protected value, and the key
/// with its hash, so a probe compares keys without hashing again and
/// growth re-places an entry without rehashing it. Boxed, published
/// into a shard's table once and never removed while the arena lives,
/// so references to it are stable across table growth.
struct Entry<K, T> {
    word: AtomicU64,
    data: UnsafeCell<T>,
    hash: u64,
    key: K,
}

/// An open-addressed, insert-only table of entry pointers, probed
/// linearly from the hash's high bits. Slots go from null to an entry
/// once; it is never more than half full, so every probe ends at an
/// empty slot.
struct Table<K, T> {
    slots: Box<[AtomicPtr<Entry<K, T>>]>,
}

impl<K, T> Table<K, T> {
    fn with_slots(n: usize) -> Box<Self> {
        let slots = (0..n).map(|_| AtomicPtr::new(ptr::null_mut())).collect();
        Box::new(Table { slots })
    }
}

impl<K: Eq, T> Table<K, T> {
    /// `key`'s entry, or the index of the empty slot its probe ended at.
    #[inline]
    fn find(&self, hash: u64, key: &K) -> Result<&Entry<K, T>, usize> {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> 32) as usize & mask;
        loop {
            let e = self.slots[i].load(Ordering::Acquire);
            if e.is_null() {
                return Err(i);
            }
            // Safety: a published entry is initialized (the `Release`
            // store that published it orders its fields first) and lives
            // as long as the arena.
            let e = unsafe { &*e };
            if e.hash == hash && e.key == *key {
                return Ok(e);
            }
            i = (i + 1) & mask;
        }
    }
}

/// One hash shard: the current table, read without a lock, and the
/// mutex that serializes inserts and growth. Entries are only ever
/// inserted (the *cores* are what get reclaimed), so a hit is plain
/// `Acquire` loads and writes nothing shared.
struct Shard<K, T> {
    table: AtomicPtr<Table<K, T>>,
    inserts: Mutex<Inserts<K, T>>,
}

/// A shard's insert-side state, behind its mutex.
struct Inserts<K, T> {
    /// Entries in the current table.
    len: usize,
    /// Tables replaced by growth, kept until the arena drops because a
    /// reader may still be probing them. Each is half the size of the
    /// next, so together they hold fewer slots than the current table.
    /// Boxed, as published: a reader may still hold the table's address.
    #[allow(clippy::vec_box)]
    retired: Vec<Box<Table<K, T>>>,
}

/// Slots in a shard's first table.
const FIRST_SLOTS: usize = 8;

impl<K, T> Shard<K, T> {
    fn new() -> Self {
        Shard {
            table: AtomicPtr::new(Box::into_raw(Table::with_slots(FIRST_SLOTS))),
            inserts: Mutex::new(Inserts {
                len: 0,
                retired: Vec::new(),
            }),
        }
    }

    /// The insert-side state. A panic under the mutex (in `K::eq`,
    /// `K::clone` or `T::default`) leaves `len` and the current table
    /// consistent (a grown table is published last), so a poisoned
    /// mutex is taken as it is.
    fn inserts(&self) -> MutexGuard<'_, Inserts<K, T>> {
        self.inserts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn current(&self) -> &Table<K, T> {
        // Safety: the current table is boxed, published with `Release`
        // after its slots are filled, and freed only when the shard drops.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }
}

impl<K: Eq + Clone, T: Default> Shard<K, T> {
    /// The slow half of a lookup that missed: under the mutex, re-probe
    /// the current table (a racing insert or growth may have added the
    /// key), else publish a new entry, growing the table past ½ load.
    #[cold]
    fn insert(&self, hash: u64, key: &K) -> &Entry<K, T> {
        let mut inserts = self.inserts();
        let table = self.current();
        let slot = match table.find(hash, key) {
            Ok(e) => return e,
            Err(slot) => slot,
        };
        let e = Box::into_raw(Box::new(Entry {
            word: AtomicU64::new(word::UNLOCKED),
            data: UnsafeCell::new(T::default()),
            hash,
            key: key.clone(),
        }));
        table.slots[slot].store(e, Ordering::Release);
        inserts.len += 1;
        if inserts.len * 2 > table.slots.len() {
            let grown = Table::with_slots(table.slots.len() * 2);
            for e in table.slots.iter().map(|s| s.load(Ordering::Relaxed)) {
                // Safety: as in `find`.
                let Some(entry) = (unsafe { e.as_ref() }) else {
                    continue;
                };
                let Err(i) = grown.find(entry.hash, &entry.key) else {
                    unreachable!("a table holds each key once");
                };
                grown.slots[i].store(e, Ordering::Relaxed);
            }
            let old = self.table.swap(Box::into_raw(grown), Ordering::Release);
            // Safety: `old` was the current table, boxed by this shard.
            inserts.retired.push(unsafe { Box::from_raw(old) });
        }
        // Safety: as in `find`.
        unsafe { &*e }
    }
}

impl<K, T> Drop for Shard<K, T> {
    /// The current table holds every entry exactly once (growth copies
    /// pointers, retired tables only share them): free each, then it.
    fn drop(&mut self) {
        // Safety: we are the last user; the table and its entries were
        // boxed by `insert`/`new` and are freed nowhere else.
        let table = unsafe { Box::from_raw(*self.table.get_mut()) };
        for slot in table.slots.iter() {
            let e = slot.load(Ordering::Relaxed);
            if !e.is_null() {
                drop(unsafe { Box::from_raw(e) });
            }
        }
    }
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
    /// Keys ever touched (entries in the shard tables).
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
    /// 64). Lookups take no lock either way; more shards spread first
    /// touches, which insert under their shard's mutex, over more
    /// mutexes.
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
            shards: (0..self.shards).map(|_| Shard::new()).collect(),
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
// compared across threads (`K: Send + Sync`). The shard tables' raw
// pointers name boxed entries that only the arena's drop frees, on
// whichever thread drops it (`K: Send`, `T: Send`). Everything else is
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
    /// first touch. One hash: its low bits pick the shard, its high bits
    /// the probe start. A hit is lock-free; a miss re-probes under the
    /// shard's mutex (DESIGN.md §13, "Key lookup").
    #[inline]
    fn entry(&self, key: &K) -> &Entry<K, T> {
        let hash = self.hasher.hash_one(key);
        let shard = &self.shards[hash as usize & self.shard_mask];
        match shard.current().find(hash, key) {
            Ok(e) => e,
            Err(_) => shard.insert(hash, key),
        }
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
            keys: self.shards.iter().map(|s| s.inserts().len).sum(),
            promotions: t.promotions.load(Ordering::Relaxed),
            demotions: t.demotions.load(Ordering::Relaxed),
            raced_promotions: t.raced_promotions.load(Ordering::Relaxed),
            fallback_spins: t.fallback_spins.load(Ordering::Relaxed),
        }
    }

    fn guard<'a>(&'a self, entry: &'a Entry<K, T>, hold: Hold) -> ArenaGuard<'a, K, T> {
        ArenaGuard {
            arena: self,
            entry,
            hold,
            _not_send: PhantomData,
        }
    }

    /// `entry`'s word over the pool.
    #[inline]
    fn word<'a>(&'a self, entry: &'a Entry<K, T>) -> Word<'a, CorePool<T>> {
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
/// A panic in the critical section releases the key too: the drop runs
/// on unwind, gives back any pid, and a core the key was promoted to
/// goes back to the pool once its last user leaves. There is no poison
/// flag.
///
/// Like [`MutexGuard`](crate::MutexGuard): `Sync` only when `T: Sync`,
/// never `Send` (core-mode guards own a checked-out pid seat).
pub struct ArenaGuard<'a, K, T> {
    arena: &'a Arena<K, T>,
    entry: &'a Entry<K, T>,
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
    fn a_panicking_critical_section_releases_the_key() {
        // As for the mutexes: the drop runs on unwind, inline or through
        // a pooled core, which goes back to the pool.
        let arena: Arena<u8, u64> = Arena::builder().core_capacity(2).build();
        for (through_core, value) in [(false, 1), (true, 2)] {
            let cs = std::panic::AssertUnwindSafe(|| {
                let mut g = if through_core {
                    let word = &arena.entry(&1).word;
                    let held = std::sync::atomic::AtomicBool::new(false);
                    std::thread::scope(|s| {
                        s.spawn(|| {
                            let g = arena.lock(&1);
                            held.store(true, Ordering::SeqCst);
                            while word.load(Ordering::SeqCst) == word::LOCKED_INLINE {
                                std::thread::yield_now();
                            }
                            drop(g);
                        });
                        while !held.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        arena.lock(&1)
                    })
                } else {
                    arena.lock(&1)
                };
                assert_eq!(g.hold == Hold::INLINE, !through_core);
                assert_eq!(arena.stats().resident_cores, usize::from(through_core));
                *g += 1;
                panic!("critical section panics");
            });
            assert!(std::panic::catch_unwind(cs).is_err());
            assert_eq!(*arena.lock(&1), value, "the next lock succeeds");
            let stats = arena.stats();
            assert_eq!(stats.resident_cores, 0, "the core went back");
            assert_eq!(stats.promotions, stats.demotions);
        }
    }

    #[test]
    fn a_predicate_panicking_on_the_fast_path_leaves_the_key_free() {
        let arena: Arena<u8, u64> = Arena::new();
        let req = || {
            arena
                .acquire(
                    &1,
                    Acquire::new().when(|_: &u64| panic!("predicate panics")),
                )
                .map(drop)
        };
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(req)).is_err());
        assert!(arena.try_lock(&1).is_some(), "the word was released");
        assert_eq!(arena.stats().built_cores, 0);
    }

    #[test]
    fn a_default_panicking_on_first_touch_leaves_the_shard_usable() {
        struct Fussy(u8);
        impl Default for Fussy {
            fn default() -> Self {
                assert!(!FAIL.load(Ordering::SeqCst), "default panics");
                Fussy(1)
            }
        }
        static FAIL: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);
        let arena: Arena<u8, Fussy> = Arena::builder().shards(1).build();
        let touch = || arena.lock(&1).0;
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(touch)).is_err());
        FAIL.store(false, Ordering::SeqCst);
        assert_eq!((arena.lock(&1).0, arena.lock(&2).0), (1, 1));
        assert_eq!(arena.stats().keys, 2);
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
