//! How a prepared handle's caches are bounded, and what a panic leaves
//! behind in them and in every other lock of the workspace.
//!
//! A prepared handle serves one dataset to many users, each with their own
//! `r`, `k` or sample count, and caches per-request state for them in
//! [`Memo`]s. A memo keeps at most a fixed number of keys. The bound is a
//! constant or a count taken from the data, never a setting:
//! [`PREPARED_CACHE_CAP`] where the key is a request's sample count, and
//! [`PROBE_CACHE_CAP`] where a search probes the keys. A key past the bound
//! is built and answered but not kept, which is the right failure mode for
//! a hostile stream of distinct requests: correct, only unamortized.
//!
//! Each kept key is built once, in its own slot: concurrent callers of one
//! key wait for its build, callers of other keys do not.
//!
//! Locks never pass a panic on. Every lock is taken through [`lock`],
//! [`read`], [`write()`] or [`wait_timeout`], which take a poisoned lock as
//! it is: the only std lock calls in the workspace are in this module
//! (the root `clippy.toml` rejects any other). That is sound because no
//! lock guards state a panic can leave half-written. A memo's map is held
//! only to find or add a slot, a slot's value is published only once
//! built, and a build a panic interrupted leaves its slot empty, so the
//! next caller builds the key again. The one cached value mutated after it
//! is built, MDRMS's greedy state, is rebuilt by its owner when a panic
//! interrupted an extension.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Most keys kept by a memo whose key is a request's sample count. A
/// long-lived session answering untrusted requests must not grow with
/// every distinct budget it sees.
pub const PREPARED_CACHE_CAP: usize = 16;

/// Most keys kept by a memo whose keys a search probes: thresholds, sizes
/// and bands. One doubling-then-binary search probes about `2·log₂ n`.
pub const PROBE_CACHE_CAP: usize = 8 * PREPARED_CACHE_CAP;

/// A bounded map from keys to values built on first use.
pub struct Memo<K, V> {
    cap: usize,
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

/// One key's value, set once built.
struct Slot<V> {
    value: OnceLock<V>,
    /// Held while the value is built, so one caller builds it and the rest
    /// of its callers wait.
    building: Mutex<()>,
}

impl<V> Default for Slot<V> {
    fn default() -> Self {
        Self { value: OnceLock::new(), building: Mutex::new(()) }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo that keeps at most `cap` keys.
    pub fn new(cap: usize) -> Self {
        Self { cap, slots: Mutex::new(HashMap::new()) }
    }

    /// The value kept for `key`, if it has been built.
    pub fn get(&self, key: &K) -> Option<V> {
        lock(&self.slots).get(key).and_then(|slot| slot.value.get().cloned())
    }

    /// The value for `key`: the kept one, else `build()`'s, kept while
    /// fewer than the bound's keys are.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        match self.get_or_try_build(key, || Ok::<V, Infallible>(build())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// [`Memo::get_or_build`] for a build that can fail. An error is
    /// returned and not kept: the key's next caller builds it again.
    pub fn get_or_try_build<E>(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let slot = {
            let mut slots = lock(&self.slots);
            let kept = slots.len();
            match slots.entry(key) {
                Entry::Occupied(slot) => Some(Arc::clone(slot.get())),
                Entry::Vacant(slot) => {
                    (kept < self.cap).then(|| Arc::clone(slot.insert(Arc::default())))
                }
            }
        };
        let Some(slot) = slot else { return build() };
        if let Some(value) = slot.value.get() {
            return Ok(value.clone());
        }
        let _building = lock(&slot.building);
        if let Some(value) = slot.value.get() {
            return Ok(value.clone());
        }
        let value = build()?;
        Ok(slot.value.get_or_init(|| value).clone())
    }

    /// Number of keys kept, built or not.
    pub fn len(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Whether no key is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every value built so far, in no particular order.
    pub fn values(&self) -> Vec<V> {
        lock(&self.slots).values().filter_map(|slot| slot.value.get().cloned()).collect()
    }
}

/// A new memo under the same bound, holding the built values.
impl<K: Eq + Hash + Clone, V: Clone> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        let slots = lock(&self.slots)
            .iter()
            .filter_map(|(key, slot)| {
                let value = slot.value.get()?.clone();
                let copy = Slot::default();
                let _ = copy.value.set(value);
                Some((key.clone(), Arc::new(copy)))
            })
            .collect();
        Self { cap: self.cap, slots: Mutex::new(slots) }
    }
}

pub use unpoisoned::{lock, read, wait_timeout, write};

/// The workspace's only calls of std's lock methods.
#[allow(clippy::disallowed_methods)]
mod unpoisoned {
    use super::*;
    use std::sync::PoisonError;

    /// Lock `mutex`, taking what a panicking holder left as it is.
    pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
        mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Read-lock `rwlock`, taking what a panicking writer left as it is.
    pub fn read<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
        rwlock.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock `rwlock`, taking what a panicking holder left as it is.
    pub fn write<T: ?Sized>(rwlock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
        rwlock.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait on `condvar` for at most `timeout`, then hold `guard`'s mutex
    /// again, whoever poisoned it meanwhile.
    pub fn wait_timeout<'a, T>(
        condvar: &Condvar,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> MutexGuard<'a, T> {
        condvar.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_key_past_the_bound_is_answered_but_not_kept() {
        let memo: Memo<usize, usize> = Memo::new(3);
        for key in 0..10 {
            assert_eq!(memo.get_or_build(key, || key * 10), key * 10);
        }
        assert_eq!(memo.len(), 3, "keys past the bound must not be kept");
        // Kept keys answer their kept value...
        assert_eq!(memo.get_or_build(0, || 999), 0);
        // ...and keys past the bound are built again, still unkept.
        assert_eq!(memo.get_or_build(42, || 420), 420);
        assert_eq!(memo.get(&42), None);
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.values().len(), 3);
        // An error is answered and not kept; the key builds again.
        let memo: Memo<usize, usize> = Memo::new(2);
        assert_eq!(memo.get_or_try_build(1, || Err("no")), Err("no"));
        assert_eq!(memo.get_or_try_build(1, || Ok::<_, &str>(7)), Ok(7));
        assert_eq!(memo.get(&1), Some(7));
        // A clone keeps the built values under the same bound.
        let copy = memo.clone();
        assert_eq!(copy.get(&1), Some(7));
        assert_eq!(copy.get_or_build(2, || 8), 8);
        assert_eq!(copy.get_or_build(3, || 9), 9);
        assert_eq!(copy.len(), 2);
    }

    #[test]
    fn eight_threads_racing_one_key_build_it_once() {
        let memo: Memo<usize, usize> = Memo::new(4);
        let builds = AtomicUsize::new(0);
        // The build publishes only once all eight racers hold the key's
        // slot (the map holds one more reference), so seven of them wait
        // on it rather than find its value.
        let all_in = || Arc::strong_count(&lock(&memo.slots)[&5]) == 1 + 8;
        let answers: Vec<usize> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        memo.get_or_build(5, || {
                            builds.fetch_add(1, Ordering::SeqCst);
                            while !all_in() {
                                std::thread::yield_now();
                            }
                            50
                        })
                    })
                })
                .collect();
            racers.into_iter().map(|racer| racer.join().unwrap()).collect()
        });
        assert_eq!(answers, vec![50; 8]);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panic_inside_a_build_leaves_every_key_answerable() {
        let memo: Memo<usize, usize> = Memo::new(4);
        assert_eq!(memo.get_or_build(1, || 10), 10);
        let interrupted = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_build(2, || panic!("a build interrupted"));
        }));
        assert!(interrupted.is_err());
        assert_eq!(memo.get(&2), None, "an interrupted build publishes nothing");
        assert_eq!(memo.get_or_build(2, || 20), 20, "the key builds again");
        assert_eq!(memo.get_or_build(1, || 0), 10);
        assert_eq!(memo.get_or_build(3, || 30), 30);
    }

    #[test]
    fn a_panic_while_the_map_lock_is_held_leaves_every_key_answerable() {
        let memo: Memo<usize, usize> = Memo::new(4);
        assert_eq!(memo.get_or_build(1, || 10), 10);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = lock(&memo.slots);
                panic!("poisoning the map lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(memo.slots.is_poisoned());
        assert_eq!(memo.get_or_build(1, || 0), 10);
        assert_eq!(memo.get_or_build(2, || 20), 20);
        assert_eq!(memo.get(&2), Some(20));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn lock_helpers_take_a_poisoned_lock_as_it_is() {
        let mutex = Mutex::new(1);
        let rwlock = RwLock::new(2);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                *lock(&mutex) += 1;
                let mut value = write(&rwlock);
                *value += 1;
                let _held = lock(&mutex);
                panic!("poisoning both locks");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned() && rwlock.is_poisoned());
        assert_eq!(*lock(&mutex), 2);
        assert_eq!(*read(&rwlock), 3);
        *write(&rwlock) = 4;
        assert_eq!(*read(&rwlock), 4);
        let guard = wait_timeout(&Condvar::new(), lock(&mutex), Duration::from_millis(1));
        assert_eq!(*guard, 2);
    }
}
