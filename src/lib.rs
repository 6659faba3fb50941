//! # ScalFrag
//!
//! A full-system Rust reproduction of *“ScalFrag: Efficient Tiled-MTTKRP
//! with Adaptive Launching on GPUs”* (IEEE CLUSTER 2024).
//!
//! This facade crate re-exports every sub-crate of the workspace so that
//! downstream users can depend on a single `scalfrag` crate:
//!
//! * [`tensor`] — sparse tensor formats (COO, CSF, HiCOO-lite), synthetic
//!   FROSTT-like dataset generators, feature extraction and `.tns` I/O.
//! * [`linalg`] — the small dense linear algebra CPD-ALS needs (Gram,
//!   Hadamard, Khatri-Rao, pseudo-inverse).
//! * [`gpusim`] — the GPU execution simulator substrate: device model,
//!   occupancy, streams, copy engines and the analytic kernel cost model.
//! * [`kernels`] — MTTKRP kernels (CPU reference, ParTI-style COO atomic,
//!   ScalFrag shared-memory tiled, CSF) and the CPD-ALS driver.
//! * [`balance`] — the load-imbalance-immune kernel arms: the Nisa-style
//!   load-balanced segmented-scan kernel over fixed-nnz chunks (bit-stable
//!   across chunk counts) and the FLYCOO-style mode-agnostic kernel whose
//!   single tensor copy plus per-mode remap tables serves every CPD-ALS
//!   mode without re-tiling.
//! * [`autotune`] — the adaptive launching strategy: from-scratch ML models
//!   (CART, bagging, AdaBoost.R2, kNN, ridge) mapping tensor features to
//!   launch configurations.
//! * [`pipeline`] — tensor segmentation, CUDA-stream-style scheduling and
//!   the pipelined transfer/compute overlap of §IV-C.
//! * [`exec`] — the ScheduleIR execution engine: every path above lowers
//!   to one typed [`exec::Plan`] DAG, and one op loop executes it —
//!   dry-run, fault polling, retry/backoff and shard re-placement are
//!   steps of executing an op, not separate code paths.
//! * [`opt`] — the pass-based plan optimizer over the ScheduleIR:
//!   transfer coalescing, copy/compute overlap re-streaming, dead-op
//!   elimination, eviction sinking / prefetch hoisting, each with a
//!   machine-checked safety contract, plus a cost-model-guided orderer
//!   that picks the best pass pipeline per plan.
//! * [`cluster`] — multi-GPU sharded MTTKRP: node/interconnect model,
//!   shard policies, device-level scheduling and the cross-device
//!   reduction stage.
//! * [`core`] — the end-to-end [`core::ScalFrag`] framework facade, the
//!   [`core::Parti`] baseline it is evaluated against, and the
//!   multi-GPU [`core::ClusterScalFrag`] facade.
//! * [`serve`] — the multi-tenant serving layer: job queue with priority +
//!   EDF scheduling and tenant fairness, admission control with typed
//!   rejections, an LRU plan cache over quantized tensor features, and
//!   per-job/aggregate serving reports.
//! * [`oom`] — out-of-core streaming MTTKRP: double-buffered segment
//!   staging under a configurable device-memory budget with `Evict` /
//!   `Prefetch` ScheduleIR ops, plus synthetic ≥1B-nnz presets executed
//!   as virtual (analytic-workload) plans.
//! * [`host`] — the work-stealing host executor: Chase-Lev deques, a
//!   parking worker pool, order-preserving `par_map`/`par_for` helpers
//!   and the thread-count-invariance test harness. Kernel inner loops
//!   and the conformance corpus runner fan out through it while staying
//!   bit-identical at every pool size.
//! * [`conformance`] — the conformance harness: a slow `f64` differential
//!   MTTKRP oracle with a seeded property-based corpus, a metamorphic
//!   invariant catalogue, and the simulated-race checker driver.
//! * [`faults`] — deterministic fault injection (device failures, transfer
//!   corruption, kernel aborts, stragglers) and the recovery machinery:
//!   op retries and unit re-placement in [`exec::run_plan_faulted`], job
//!   requeue in [`serve`] and checkpoint/rollback in [`kernels`].
//!
//! ## Quickstart
//!
//! ```
//! use scalfrag::prelude::*;
//!
//! // A small synthetic 3-way tensor, rank-8 factors.
//! let tensor = CooTensor::random_uniform(&[64, 48, 32], 2_000, 1);
//! let factors = FactorSet::random(tensor.dims(), 8, 42);
//!
//! // End-to-end MTTKRP through the ScalFrag stack (tiled kernel +
//! // pipelined transfers) on a simulated RTX 3090. A fixed launch
//! // configuration skips the adaptive-launch training for this example;
//! // the default builder trains a DecisionTree predictor instead.
//! let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).build();
//! let report = ctx.mttkrp(&tensor, &factors, 0);
//! assert!(report.timing.total_s > 0.0);
//! ```

pub use scalfrag_autotune as autotune;
pub use scalfrag_balance as balance;
pub use scalfrag_cluster as cluster;
pub use scalfrag_conformance as conformance;
pub use scalfrag_core as core;
pub use scalfrag_exec as exec;
pub use scalfrag_faults as faults;
pub use scalfrag_gpusim as gpusim;
pub use scalfrag_host as host;
pub use scalfrag_kernels as kernels;
pub use scalfrag_linalg as linalg;
pub use scalfrag_oom as oom;
pub use scalfrag_opt as opt;
pub use scalfrag_pipeline as pipeline;
pub use scalfrag_serve as serve;
pub use scalfrag_tensor as tensor;

/// Convenient glob-importable re-exports of the most used types.
pub mod prelude {
    pub use scalfrag_cluster::{DeviceScheduler, Interconnect, NodeSpec, ShardPolicy};
    pub use scalfrag_conformance::{oracle_mttkrp, run_differential, ConformanceReport};
    pub use scalfrag_core::{
        ClusterMttkrpReport, ClusterScalFrag, MttkrpReport, Parti, ResilientClusterMttkrpReport,
        ScalFrag,
    };
    pub use scalfrag_exec::{
        run_plan, run_plan_faulted, ExecMode, ExecOutcome, FaultRecoveryPolicy, Plan, PlanBuilder,
        PlanTrace, RecoveryMode, RetryPolicy,
    };
    pub use scalfrag_faults::{
        DeviceHealth, FaultInjector, FaultKind, FaultLog, FaultPlan, FaultTrigger,
    };
    pub use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
    pub use scalfrag_kernels::{FactorSet, MttkrpBackend};
    pub use scalfrag_linalg::Mat;
    pub use scalfrag_serve::{
        AdmissionPolicy, DevicePool, MttkrpJob, ScalFragServer, ServeReport, WorkloadSpec,
    };
    pub use scalfrag_tensor::{CooTensor, CsfTensor, FeatureKey, TensorFeatures};
}
