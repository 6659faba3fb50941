//! The served-job allocation budget: a dry job stream shaped like the
//! benchmark's `serve-dry` workload (4 tenants, 6 shape classes × 3
//! variants, rank 16, 80 % of a two-RTX 3090 pool, a batch window of half
//! a mean arrival gap) costs at most [`BUDGET`] heap allocations per
//! completed job, counted on the serving thread around
//! `ScalFragServer::run` only.
//!
//! The binary holds this one test, because its counting allocator is the
//! binary's global allocator.

use scalfrag_gpusim::DeviceSpec;
use scalfrag_serve::workload::mean_service_estimate_s;
use scalfrag_serve::{synthesize, AdmissionPolicy, DevicePool, ScalFragServer, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations a served job may cost: every `alloc`, `alloc_zeroed`
/// and `realloc` call made on the serving thread, over completed jobs.
const BUDGET: f64 = 45.0;

/// Forwards to the system allocator and counts the calls made while the
/// calling thread's `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn spec(jobs: usize, mean_interarrival_s: f64) -> WorkloadSpec {
    WorkloadSpec {
        jobs,
        tenants: 4,
        shape_classes: 6,
        variants_per_class: 3,
        skew: 1.0,
        mean_interarrival_s,
        burstiness: 3.0,
        rank: 16,
        base_nnz: 3_000,
        seed: 2,
    }
}

#[test]
fn a_served_dry_job_stays_inside_its_allocation_budget() {
    const JOBS: usize = 2_000;
    let device = DeviceSpec::rtx3090();
    let gap = mean_service_estimate_s(&synthesize(&spec(JOBS, 1.0)), &device) / (0.8 * 2.0);
    let server = ScalFragServer::builder()
        .pool(DevicePool::homogeneous(device, 2))
        .batch_window_s(0.5 * gap)
        .admission(AdmissionPolicy { max_queue_depth: 1 << 20, makespan_budget_s: 1e6 })
        .train_tiers(vec![3_000, 12_000])
        .build();
    // The predictor trains once per rank, lazily: train it before the
    // count, as the benchmark's set-up does.
    server.trained_predictor().for_rank(16);
    let jobs = synthesize(&spec(JOBS, gap));

    COUNTING.with(|c| c.set(true));
    let report = server.run(jobs);
    COUNTING.with(|c| c.set(false));

    assert_eq!(report.completed.len(), JOBS, "the loose admission refuses no job");
    let per_job = CALLS.load(Ordering::Relaxed) as f64 / JOBS as f64;
    println!(
        "{} dispatch groups, {per_job:.1} heap allocations per served job",
        report.dispatch_groups
    );
    assert!(
        per_job <= BUDGET,
        "{per_job:.1} heap allocations per served job, budget {BUDGET} \
         ({} dispatch groups)",
        report.dispatch_groups
    );
}
