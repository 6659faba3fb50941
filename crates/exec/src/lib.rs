//! `scalfrag-exec` — the ScheduleIR execution engine.
//!
//! A [`Plan`] is a schedule: per-device programs of typed ops (`H2D`,
//! `Launch`, `Reduce`, `D2H`, `HostResidue`, `Barrier`, memory ops) with
//! stream placement, plus plan-level metadata (segment map, optimizer
//! provenance, batch size). The `pipeline`, `cluster`, `serve`,
//! `oom` and `core` crates are pure plan *builders*; this crate owns the
//! single interpreter that executes any plan over the simulated GPU —
//! fault-free or under fault injection, functional or dry — and emits a
//! fingerprintable [`PlanTrace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod interp;
mod ir;
mod kernel;
mod registry;
mod retry;
mod trace;

pub use interp::{
    run_plan, run_plan_faulted, run_plan_on, DeviceMemStats, ExecOutcome, UnitOutcome,
};
pub use ir::{
    lower_program, op_label, ClusterPolicy, DeviceOps, ExecMode, PlaceStrategy, Plan, PlanMeta,
    PlanOp, Reduce, ResidueWork, ShardDesc, StreamRef, WorkUnit,
};
pub use kernel::KernelChoice;
pub use registry::{BuildFn, PlanBuilder};
pub use retry::{FaultRecoveryPolicy, RecoveryMode, RetryPolicy};
pub use trace::{PlanTrace, TraceEvent};
