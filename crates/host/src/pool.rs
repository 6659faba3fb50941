//! The self-scheduling pool behind [`crate::par_map`].
//!
//! A job is one `run(n, body)` call. It goes on the pool's open-job list,
//! and its caller and every idle worker claim units from the job's one
//! counter (`next.fetch_add(1)`) until the counter passes `n`, so each
//! unit index is handed out exactly once. The caller then takes the job
//! off the list and waits until the last claimed unit has finished.
//! Several threads may run jobs on one pool at once; idle workers help
//! the oldest open job.
//!
//! Determinism note: the pool promises nothing about *order* — a unit
//! runs on whichever thread claims it. Callers that need bit-deterministic
//! results use [`crate::par_map`], which gives every unit a private output
//! slot and folds afterwards in submission order.
//!
//! Pools are cached per size and live for the whole process, so their
//! workers are never joined and nothing shuts them down.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// How long an idle worker parks before it looks at the job list again.
/// No wakeup is lost without it: a worker looks and parks under the
/// list's lock, and a job is posted under that lock before the notify.
/// The re-check stays because, on the 2-core `als-nell2` benchmark
/// workload, a variant that parked with no timeout read 1.2 % slower per
/// ALS call, slower in 10 of 11 pairs (a second, 8-pair measurement read
/// the two level, +0.05 %).
const RECHECK: Duration = Duration::from_millis(1);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True while this thread runs units: on a pool worker, and on a caller
/// while it helps its own job. Nested parallel calls then run inline.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Units run under `catch_unwind` and outside every pool lock, so no pool
/// lock is ever poisoned.
const UNPOISONED: &str = "no pool lock is held while a unit runs";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(UNPOISONED)
}

/// One `run` call: the units `0..n` of one body.
struct Job {
    /// The caller's body with its lifetime erased (see `run`).
    body: *const (dyn Fn(usize) + Sync),
    n: usize,
    /// The next unclaimed unit; at or past `n` once every unit is claimed.
    next: AtomicUsize,
    /// Units that have finished, by returning or by panicking.
    finished: Mutex<usize>,
    all_finished: Condvar,
    /// The first panic payload of any unit, re-thrown by `run`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` is the one field that is not `Send + Sync`. It points to
// a `Sync` closure, so calling it from any thread through a shared
// reference is allowed, and `work` calls it only for a claimed unit, while
// `run` is still waiting and so keeps the closure alive.
unsafe impl Send for Job {}
// SAFETY: as for `Send`.
unsafe impl Sync for Job {}

impl Job {
    fn is_open(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Claims and runs units until every unit is claimed, then counts the
    /// units this thread ran as finished: one lock per thread and job, not
    /// one per unit.
    fn work(&self) {
        let mut ran = 0;
        loop {
            // Relaxed: the counter hands out indices and publishes nothing;
            // the job reaches workers through the list's lock and the
            // results reach the caller through `finished`'s.
            let unit = self.next.fetch_add(1, Ordering::Relaxed);
            if unit >= self.n {
                break;
            }
            // SAFETY: this thread claimed `unit` and counts it finished
            // only after its last claim fails, so `run` is still waiting
            // and the closure behind `body` is alive.
            let body = unsafe { &*self.body };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(unit))) {
                lock(&self.panic).get_or_insert(payload);
            }
            ran += 1;
        }
        if ran > 0 {
            let mut finished = lock(&self.finished);
            *finished += ran;
            if *finished == self.n {
                self.all_finished.notify_all();
            }
        }
    }
}

/// A fixed set of workers serving the open jobs of every thread that runs
/// a job on it.
pub(crate) struct Pool {
    /// Jobs whose caller has not yet claimed past the last unit, oldest
    /// first.
    jobs: Mutex<Vec<Arc<Job>>>,
    posted: Condvar,
}

/// The cached pool for `threads` running threads, spawned on first use.
/// The caller of `run` is one of them, so the pool has `threads - 1`
/// workers.
pub(crate) fn pool_for(threads: usize) -> &'static Pool {
    static POOLS: OnceLock<Mutex<HashMap<usize, &'static Pool>>> = OnceLock::new();
    let pools = POOLS.get_or_init(Default::default);
    lock(pools).entry(threads).or_insert_with(|| Pool::spawn(threads - 1))
}

impl Pool {
    fn spawn(workers: usize) -> &'static Pool {
        let pool: &'static Pool =
            Box::leak(Box::new(Pool { jobs: Mutex::new(Vec::new()), posted: Condvar::new() }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("scalfrag-host-{i}"))
                .spawn(move || pool.serve())
                .expect("spawn pool worker");
        }
        pool
    }

    /// Runs `body(i)` for every `i` in `0..n` on this thread and the
    /// pool's idle workers, returning once all `n` units have finished.
    /// A panic in any unit is caught, the other units still run, and the
    /// first payload is re-thrown here.
    pub(crate) fn run(&self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime changes. Workers may hold the job after
        // this call returns, but `Job::work` calls `body` only for a
        // claimed unit, and this call returns only after all `n` units
        // have finished.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Job {
            body,
            n,
            next: AtomicUsize::new(0),
            finished: Mutex::new(0),
            all_finished: Condvar::new(),
            panic: Mutex::new(None),
        });
        lock(&self.jobs).push(Arc::clone(&job));
        self.posted.notify_all();
        let was_worker = IN_WORKER.replace(true);
        job.work();
        IN_WORKER.set(was_worker);
        lock(&self.jobs).retain(|open| !Arc::ptr_eq(open, &job));
        let finished = job.all_finished.wait_while(lock(&job.finished), |finished| *finished < n);
        drop(finished.expect(UNPOISONED));
        let payload = lock(&job.panic).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's life: help the oldest open job, or park.
    fn serve(&self) {
        IN_WORKER.set(true);
        let mut jobs = lock(&self.jobs);
        loop {
            match jobs.iter().find(|job| job.is_open()).cloned() {
                Some(job) => {
                    drop(jobs);
                    job.work();
                    jobs = lock(&self.jobs);
                }
                None => jobs = self.posted.wait_timeout(jobs, RECHECK).expect(UNPOISONED).0,
            }
        }
    }
}
