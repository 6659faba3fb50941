//! `scalfrag-oom` — out-of-core streaming MTTKRP under a device-memory
//! budget.
//!
//! Every other execution path assumes the tensor fits in device memory.
//! This crate lowers the opposite regime: the COO entry list is cut into
//! segments sized so that **two** segment staging buffers plus the
//! persistent working set (factor matrices + output) fit inside a
//! configurable byte budget. Segments then stream through a two-slot
//! double buffer — while slot A's kernel runs on stream 0, slot B's
//! `Prefetch` overlaps on stream 1; once a slot's kernel has drained, a
//! clean `Evict` releases its pool page for the next resident segment.
//! Eviction and re-staging are first-class ScheduleIR ops, so they
//! participate in dry runs, trace fingerprints and the interpreter's
//! leak check like any `H2D` or `Launch`.
//!
//! The budget is enforced physically: the plan's device spec caps
//! `global_mem_bytes` at the budget, so the pooled allocator rejects any
//! schedule that would exceed it — there is no separate accounting to
//! drift. Infeasible budgets are rejected at *build* time with a typed
//! [`StreamError`] instead.
//!
//! [`SyntheticPreset`] scales the same machinery past what host memory
//! can materialise (a ~1B-nnz tensor is ~16 GB): virtual plans carry
//! analytic segment statistics per unit and execute dry-only, with the
//! identical op schedule a materialised run would have.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod preset;
mod stream;

pub use preset::SyntheticPreset;
pub use stream::{build_streaming_plan, registry_budget, registry_plan, StreamError, MAX_SEGMENTS};

use scalfrag_exec::PlanBuilder;

/// The oom crate's registered plan builders.
pub fn plan_builders() -> Vec<PlanBuilder> {
    vec![PlanBuilder::new("oom-stream", |tensor, factors, mode| {
        registry_plan(tensor, factors, mode)
    })]
}
