//! `scalfrag-host` — a self-scheduling thread pool (no external deps)
//! plus the *deterministic* parallel primitive the rest of the repo
//! builds on.
//!
//! # The determinism contract
//!
//! The pool schedules freely — a unit runs on whichever thread claims it —
//! but [`par_map`] gives every unit a private output slot, so the
//! returned `Vec` is in unit order no matter the schedule. Callers then
//! fold those per-unit results **in submission order** (the same
//! chunk-indexed reduction discipline `balance-segscan` uses for its
//! carry chain). Two consequences, both load-bearing for the repo's
//! golden fingerprint pins:
//!
//! * **Thread-count invariance:** the fold order is a function of the
//!   unit decomposition only, so 1, 2, 4 and 8 threads produce
//!   bit-identical f32 outputs. [`check::thread_invariant`] is the
//!   reusable harness for asserting this.
//! * **Sequential equivalence:** with units folded in submission order,
//!   the parallel path performs the *same add sequence* as the
//!   sequential shim did, so pre-pool golden checksums survive.
//!
//! The unit decomposition itself must therefore *not* depend on
//! [`current_num_threads`] — that was the bug class behind the stale
//! `current_num_threads() == 1` assumption this crate retires (kernels
//! now use fixed chunk counts; see `scalfrag_kernels::reference`).
//!
//! # Thread-count control
//!
//! The effective thread count is resolved per call site:
//! 1. while running units (on a pool worker, or on a caller helping its
//!    own [`par_map`]) → `1` (nested parallelism runs inline —
//!    deadlock-free by construction);
//! 2. innermost [`with_threads`] override on this thread, if any;
//! 3. the `SCALFRAG_THREADS` env var, if set;
//! 4. `std::thread::available_parallelism()`.
//!
//! Pools are cached per size and shared by every calling thread, so
//! `with_threads(4, ..)` in a loop spawns threads once.

#![deny(clippy::undocumented_unsafe_blocks)]

mod pool;

pub mod check;

use std::cell::{RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::OnceLock;

thread_local! {
    static THREAD_OVERRIDE: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(s) = std::env::var("SCALFRAG_THREADS") {
            if let Ok(n) = s.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    })
}

/// The thread count parallel primitives will use *right now* on this
/// thread (see the crate docs for the resolution order).
///
/// Chunking heuristics must **not** divide work by this value if they
/// feed a bit-pinned path — decomposition must be thread-independent.
pub fn current_num_threads() -> usize {
    if pool::in_worker() {
        return 1;
    }
    THREAD_OVERRIDE.with(|o| o.borrow().last().copied()).unwrap_or_else(default_threads)
}

/// Runs `f` with the effective thread count pinned to `n.max(1)` on this
/// thread (nestable; innermost wins). `n <= 1` selects the inline
/// sequential path — the reference the determinism tests compare against.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| {
                o.borrow_mut().pop();
            });
        }
    }
    THREAD_OVERRIDE.with(|o| o.borrow_mut().push(n.max(1)));
    let _guard = Guard;
    f()
}

/// One unit's output, written by whichever thread runs the unit.
struct Slot<T>(UnsafeCell<MaybeUninit<T>>);

// SAFETY: threads share slots only inside `par_map`'s `run`, where each
// slot is written once, by the one thread that claimed its unit, and read
// by none; `T: Send` lets that thread hand the value over.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Maps `f` over `0..n` in parallel, returning results **in unit order**
/// regardless of the schedule — the deterministic building block.
///
/// Each unit writes a private slot, so this is exactly as deterministic
/// as `(0..n).map(f).collect()` provided `f(i)` itself only depends on
/// `i`. Fold the returned `Vec` in order and the whole pipeline is
/// bit-identical across thread counts. A panic in `f` reaches the caller.
pub fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let threads = current_num_threads();
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<Slot<T>> =
        (0..n).map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit()))).collect();
    pool::pool_for(threads).run(n, &|i| {
        let value = f(i);
        // SAFETY: the pool hands unit `i` to this thread alone, so this is
        // slot `i`'s only access until `run` returns.
        unsafe { (*slots[i].0.get()).write(value) };
    });
    // SAFETY: `run` returned without re-throwing a panic, so every unit
    // ran to the end and wrote its slot.
    slots.into_iter().map(|slot| unsafe { slot.0.into_inner().assume_init() }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_is_in_unit_order() {
        for &threads in &[1usize, 2, 4, 8] {
            for n in [0, 1000] {
                let got = with_threads(threads, || par_map(n, |i| i * 3));
                assert_eq!(got, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    #[test]
    fn with_threads_nests_innermost_wins() {
        with_threads(4, || {
            assert_eq!(current_num_threads(), 4);
            with_threads(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 4);
        });
    }

    #[test]
    fn nested_par_map_runs_inline_without_deadlock() {
        let got = with_threads(4, || {
            par_map(16, |i| {
                // Every thread running a unit, the caller included, sees
                // one thread, so this nested call runs inline.
                assert_eq!(current_num_threads(), 1, "outer unit {i}");
                let inner: usize = par_map(8, |j| i * j).into_iter().sum();
                inner
            })
        });
        let want: Vec<usize> = (0..16).map(|i| (0..8).map(|j| i * j).sum()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_covers_every_unit_once() {
        for (threads, n) in [(4usize, 513usize), (4, 10_007), (2, 10_007)] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            with_threads(threads, || par_map(n, |i| hits[i].fetch_add(1, Ordering::Relaxed)));
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "{threads} threads, {n} units: unit {i}");
            }
        }
    }

    #[test]
    fn par_map_propagates_panics() {
        with_threads(4, || {
            let caught = std::panic::catch_unwind(|| {
                par_map(64, |i| if i == 13 { panic!("unlucky") } else { i })
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "unlucky");
            // The caller's flag is restored and the pool serves the next call.
            assert_eq!(current_num_threads(), 4);
            assert_eq!(par_map(10, |i| i), (0..10).collect::<Vec<_>>());
        });
    }

    #[test]
    fn many_back_to_back_calls_do_not_wedge() {
        let total = AtomicUsize::new(0);
        with_threads(3, || {
            for _ in 0..200 {
                par_map(97, |_| total.fetch_add(1, Ordering::Relaxed));
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 200 * 97);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Four OS threads post jobs on the one cached 2-thread pool at once;
        // each must get its own results, in unit order.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for caller in 0..4usize {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for round in 0..100 {
                        let got = with_threads(2, || par_map(16, |i| (caller, round, i)));
                        let want: Vec<_> = (0..16).map(|i| (caller, round, i)).collect();
                        assert_eq!(got, want, "caller {caller} round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn f32_fold_bit_identical_across_thread_counts() {
        // Order-sensitive f32 payload: if units ran out of order *and*
        // were folded in completion order, bits would move.
        let fold = |threads: usize| -> u32 {
            with_threads(threads, || {
                par_map(257, |i| (i as f32 * 0.1).sin())
                    .into_iter()
                    .fold(0.0f32, |a, b| a + b)
                    .to_bits()
            })
        };
        let golden = fold(1);
        for &t in &[2usize, 4, 8] {
            assert_eq!(fold(t), golden, "{t} threads moved bits");
        }
    }
}
