//! # scalfrag-cluster
//!
//! Multi-GPU sharded MTTKRP on the simulated-GPU substrate: one tensor,
//! `N` simulated devices, an interconnect model, and a reduction stage —
//! the strong-scaling extension of the single-device ScalFrag pipeline.
//!
//! The flow mirrors the single-GPU stack, lifted one level:
//!
//! 1. **Node model** ([`node`]) — `N` (possibly heterogeneous) devices
//!    behind a host, with per-link PCIe, shared-host-bandwidth contention,
//!    or NVLink-style peer lanes.
//! 2. **Sharding** ([`shard`]) — the mode-sorted COO tensor is cut into
//!    contiguous shards, either perfectly nnz-balanced or aligned to slice
//!    boundaries so output rows never straddle devices.
//! 3. **Scheduling** ([`schedule`]) — shards are placed round-robin or by
//!    speed-weighted LPT (which is what makes a 3090 + 3060 node finish
//!    together instead of waiting on the slow card).
//! 4. **Plan building** ([`builders`]) — the schedule lowers to a
//!    multi-device [`scalfrag_exec::Plan`], carrying the node-aware
//!    placement callbacks and the reduction cost model as a
//!    [`scalfrag_exec::ClusterPolicy`].
//! 5. **Execution** — callers hand the plan to the one interpreter in
//!    `scalfrag-exec`: [`scalfrag_exec::run_plan`] instantiates one
//!    simulated GPU per device; dry runs are its
//!    [`scalfrag_exec::ExecMode::Dry`]. Fault injection runs the same plan
//!    through [`scalfrag_exec::run_plan_faulted`], which moves a dead
//!    device's work onto survivors through the plan's placement policy.
//!
//! Numerics are decoupled from placement: partial outputs live per
//! *shard* and fold in shard-index order, so for a fixed shard count the
//! result is bitwise identical across device counts and schedulers.

#![forbid(unsafe_code)]

pub mod builders;
pub mod node;
pub mod schedule;
pub mod shard;

pub use builders::{build_cluster_plan, plan_builders, ClusterOptions, NodePlacement};
pub use node::{Interconnect, NodeSpec};
pub use scalfrag_exec::{ExecMode, FaultRecoveryPolicy, RecoveryMode};
pub use schedule::{assign_shards, DeviceScheduler};
pub use shard::{shard_tensor, Shard, ShardPolicy};
