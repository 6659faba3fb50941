//! # scalfrag-pipeline
//!
//! The pipelined parallel processing of ScalFrag (§IV-C) plus the hybrid
//! CPU–GPU execution of §I.
//!
//! The paper's flow, reproduced stage by stage:
//!
//! 1. **Data preprocessing** — the COO tensor is sorted for the target
//!    mode and segmented on slice boundaries into nnz-balanced chunks
//!    ([`plan`]).
//! 2. **Storage allocation** — segment buffers, factors and the output are
//!    charged against the simulated 24 GB device pool; the segment count
//!    adapts to what fits ([`PipelinePlan::auto`]).
//! 3. **Streamed transfer + compute** — each segment's H2D copy and kernel
//!    launch are issued on one of `num_streams` CUDA-style streams, so
//!    segment *k+1* transfers while segment *k* computes
//!    ([`build_pipelined_plan`]).
//! 4. **Result synchronisation** — a single D2H copy, ordered after every
//!    kernel through events, returns the output matrix.
//! 5. **Hybrid execution** — optionally, the low-parallelism slices run on
//!    the host CPU while the device processes the bulk ([`hybrid`]).
//!
//! This crate only builds plans: every schedule lowers to a
//! [`scalfrag_exec::Plan`] ([`builders`]) and callers hand it to the one
//! interpreter in `scalfrag-exec` — [`scalfrag_exec::run_plan`], or
//! [`scalfrag_exec::run_plan_on`] on a caller's GPU. Dry runs are the
//! interpreter's [`ExecMode::Dry`]; fault injection runs the same plan
//! through [`scalfrag_exec::run_plan_faulted`].

#![forbid(unsafe_code)]

pub mod builders;
pub mod hybrid;
pub mod plan;

pub use builders::{
    balance_plan_builders, batched_plan_builders, build_balance_flycoo_plan,
    build_balance_segscan_plan, build_batched_plan, build_hybrid_plan, build_pipelined_plan,
    build_shared_pipelined_plan, build_sync_plan, lower_batched_plan, plan_builders,
    BatchedJobSpec,
};
pub use hybrid::{split_by_slice_population, HybridSplit};
pub use plan::PipelinePlan;
pub use scalfrag_exec::{ExecMode, KernelChoice};
