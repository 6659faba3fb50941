//! The work-stealing pool: per-worker Chase–Lev deques, a mutex-guarded
//! injector for job seeding, condvar parking, and a per-job completion
//! latch.
//!
//! A job is one `run(n, grain, body)` call: the index range `0..n` is
//! seeded into the injector as one balanced slab per worker, and each
//! worker recursively halves its slab — pushing the upper half onto its
//! own deque for thieves to take — until a piece is at most `grain`
//! indices, then runs `body(start, end)` on it. Completion is counted in
//! *indices* (not tasks), so the caller's latch trips exactly when all
//! `n` indices have executed, however the range was split.
//!
//! Determinism note: the pool itself promises nothing about *order* —
//! pieces run wherever stealing lands them. Callers that need
//! bit-deterministic results use [`crate::par_map`], which gives every
//! unit a private output slot and folds afterwards in submission order.

use crate::deque::{deque, Stealer, Worker};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A contiguous index range of one job. `Copy` so the deque never needs
/// to reclaim dropped tasks.
#[derive(Clone, Copy)]
struct Task {
    job: *const JobHeader,
    start: usize,
    end: usize,
}

// The raw job pointer is valid for the task's whole life: `run` blocks
// until every index has executed, and a queued task always holds
// unexecuted indices.
unsafe impl Send for Task {}

/// Stack-allocated per-job state shared between the caller and workers.
struct JobHeader {
    /// The caller's `&dyn Fn(usize, usize)` with its lifetime erased —
    /// sound because `run` outlives every task (see `Task`'s safety note).
    body: *const (dyn Fn(usize, usize) + Sync),
    grain: usize,
    /// Indices not yet executed; the latch trips at zero.
    pending: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// First panic payload from any worker, re-thrown on the caller.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

unsafe impl Send for JobHeader {}
unsafe impl Sync for JobHeader {}

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    stealers: Vec<Stealer<Task>>,
    sleep: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop_injected(&self) -> Option<Task> {
        self.injector.lock().unwrap().pop_front()
    }

    fn try_steal(&self, me: usize) -> Option<Task> {
        let n = self.stealers.len();
        // Fixed probe order (me+1, me+2, …): simple and sufficient — any
        // bias only shifts *which* worker runs a piece, never the result.
        for k in 1..n {
            if let Some(t) = self.stealers[(me + k) % n].steal() {
                return Some(t);
            }
        }
        None
    }

    fn work_visible(&self, me: usize) -> bool {
        if !self.injector.lock().unwrap().is_empty() {
            return true;
        }
        let n = self.stealers.len();
        (1..n).any(|k| !self.stealers[(me + k) % n].is_empty())
    }

    fn wake_all(&self) {
        let _guard = self.sleep.lock().unwrap();
        self.wake.notify_all();
    }

    fn wake_one_if_sleeping(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_one();
        }
    }
}

/// A fixed-size work-stealing thread pool.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl Pool {
    /// Spawns `threads.max(1)` workers, parked until work arrives.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut owners = Vec::with_capacity(threads);
        let mut stealers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (w, s) = deque::<Task>();
            owners.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            stealers,
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let handles = owners
            .into_iter()
            .enumerate()
            .map(|(i, own)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scalfrag-host-{i}"))
                    .spawn(move || worker_loop(i, own, shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles: Mutex::new(handles), threads }
    }

    /// Runs `body(start, end)` over a partition of `0..n` on the pool,
    /// blocking until all `n` indices have executed. Pieces never exceed
    /// `grain.max(1)` indices. Worker panics are captured and the first
    /// one is re-thrown here.
    pub fn run(&self, n: usize, grain: usize, body: &(dyn Fn(usize, usize) + Sync)) {
        if n == 0 {
            return;
        }
        let grain = grain.max(1);
        // Erase `body`'s lifetime for storage in the header; sound per
        // the `Task` safety note (no task outlives this call).
        let body: &'static (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(body) };
        let header = JobHeader {
            body: body as *const (dyn Fn(usize, usize) + Sync),
            grain,
            pending: AtomicUsize::new(n),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        };
        // Seed one balanced slab per worker so everyone starts local;
        // stealing only kicks in once slabs go uneven.
        let slabs = self.threads.min(n.div_ceil(grain)).max(1);
        {
            let mut injector = self.shared.injector.lock().unwrap();
            let mut start = 0;
            for k in 0..slabs {
                let end = n * (k + 1) / slabs;
                if end > start {
                    injector.push_back(Task { job: &header, start, end });
                    start = end;
                }
            }
        }
        self.shared.wake_all();

        let mut done = header.done.lock().unwrap();
        while !*done {
            done = header.done_cv.wait(done).unwrap();
        }
        drop(done);
        let payload = header.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, own: Worker<Task>, shared: Arc<Shared>) {
    crate::enter_worker();
    loop {
        if let Some(task) = own.pop() {
            run_task(&own, &shared, task);
            continue;
        }
        if let Some(task) = shared.pop_injected() {
            run_task(&own, &shared, task);
            continue;
        }
        if let Some(task) = shared.try_steal(index) {
            run_task(&own, &shared, task);
            continue;
        }
        // Park. Producers notify under the sleep mutex's shadow via
        // `wake_*`; the re-check after locking plus a short timeout (for
        // the lock-free own-deque push path, which notifies without the
        // lock) rules out lost-wakeup hangs.
        let guard = shared.sleep.lock().unwrap();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.work_visible(index) {
            continue;
        }
        shared.sleepers.fetch_add(1, Ordering::Relaxed);
        let (_guard, _timeout) = shared.wake.wait_timeout(guard, Duration::from_millis(1)).unwrap();
        shared.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

fn run_task(own: &Worker<Task>, shared: &Shared, task: Task) {
    let header = unsafe { &*task.job };
    let (start, mut end) = (task.start, task.end);
    // Halve until at most `grain`, exposing the upper halves to thieves.
    while end - start > header.grain {
        let mid = start + (end - start).div_ceil(2);
        own.push(Task { job: task.job, start: mid, end });
        shared.wake_one_if_sleeping();
        end = mid;
    }
    let body = unsafe { &*header.body };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(start, end))) {
        let mut slot = header.panic.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    let finished = end - start;
    if header.pending.fetch_sub(finished, Ordering::AcqRel) == finished {
        let mut done = header.done.lock().unwrap();
        *done = true;
        header.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_index_exactly_once() {
        let pool = Pool::new(4);
        let n = 10_007;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, 16, &|s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_len_job_returns_immediately() {
        let pool = Pool::new(2);
        pool.run(0, 1, &|_, _| panic!("must not run"));
    }

    #[test]
    fn pieces_respect_grain() {
        let pool = Pool::new(4);
        let max_seen = AtomicUsize::new(0);
        pool.run(5_000, 64, &|s, e| {
            max_seen.fetch_max(e - s, Ordering::Relaxed);
        });
        assert!(max_seen.load(Ordering::Relaxed) <= 64);
    }

    #[test]
    fn worker_panic_reaches_caller() {
        let pool = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, 1, &|s, _| {
                if s == 37 {
                    panic!("boom at 37");
                }
            });
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
        // The pool must survive a panicked job.
        pool.run(10, 1, &|_, _| {});
    }

    #[test]
    fn many_sequential_jobs_do_not_wedge() {
        let pool = Pool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(97, 8, &|s, e| {
                total.fetch_add(e - s, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 97);
    }
}
