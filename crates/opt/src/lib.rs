//! # scalfrag-opt — a pass-based plan optimizer over the ScheduleIR.
//!
//! The plan builders (`pipeline`, `cluster`, `serve`, `oom`, `core`)
//! emit *correct* schedules; this crate makes them *fast* without
//! touching the builders. Every optimization is a [`Pass`]: an in-place
//! rewrite of the op programs, carrying a
//! machine-checkable safety [`Contract`] the in-repo verifier
//! ([`verify::check_pass`]) enforces by replaying raw and optimized
//! plans through the one interpreter.
//!
//! The pass set — each pass rewrites the program of some registered
//! builder's plan (`tests/opt.rs` keeps it that way):
//!
//! | pass | what it does |
//! |------|--------------|
//! | [`passes::DeadOpElim`] | drops zero-byte copies, empty-segment launches, degenerate barrier edges |
//! | [`passes::HoistPrefetch`] | hoists prefetches over other-stream compute/readback |
//! | [`passes::CoalesceH2d`] | merges adjacent same-stream H2D copies (one PCIe latency each) |
//! | [`passes::BatchH2d`] | folds the first copy wave into the factor upload, cross-stream |
//! | [`passes::SlimFactors`] | drops the write-only output-mode factor from the upload |
//!
//! Passes compose into [`Pipeline`]s; [`optimize_default`] runs the
//! always-profitable subset, and the cost-model orderer
//! ([`choose_pipeline`]) dry-runs every candidate pipeline through the
//! interpreter — the same analytic workload model the autotuner trains
//! on — and keeps the cheapest schedule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod orderer;
pub mod pass;
pub mod passes;
pub mod verify;

pub use orderer::{choose_pipeline, OrderedChoice};
pub use pass::{applied, Contract, Pass, Pipeline, TraceEffect};
pub use passes::{all_passes, candidate_pipelines, default_pipeline};
pub use verify::{check_commutation, check_pass, lowered_programs, Violation};

use scalfrag_exec::Plan;

/// Runs the default pass pipeline over a copy of `plan` — the entry
/// point the conformance suite, the benchmarks and `plan_dump` use.
pub fn optimize_default(plan: &Plan) -> Plan {
    default_pipeline().apply(plan)
}

/// Runs the cost-model orderer and applies the chosen pipeline,
/// returning the optimized plan and the choice that produced it.
pub fn optimize_chosen(plan: &Plan) -> (Plan, OrderedChoice) {
    let choice = choose_pipeline(plan);
    (choice.pipeline.apply(plan), choice)
}
