//! The backends the differential runner drives against the oracle.
//!
//! Two registries, matching the two layers a divergence can hide in:
//!
//! * [`kernel_backends`] — the raw kernel formats (COO atomic, ScalFrag
//!   tiled, CSF fiber, BCSF heavy/light, HiCOO block, the F-COO segmented
//!   reduction, the load-balanced segmented scan over fixed-nnz chunks and
//!   the FLYCOO mode-agnostic remap kernel). Each runner owns its format
//!   conversion and preprocessing (mode sort, block build, remap build), so
//!   a conversion bug is attributed to the format that performed it.
//! * [`path_backends`] — full execution paths: the ParTI baseline facade,
//!   ScalFrag single-GPU (sync and pipelined+hybrid), ClusterScalFrag
//!   across scheduler/shard-policy combos and device counts, the serving
//!   layer in functional mode, and the cluster plan run through the
//!   faulted interpreter with injected-and-recovered faults. These
//!   exercise segmentation, sharding, reduction and recovery on top of
//!   the same kernels.
//!
//! Every runner returns the dense `rows × rank` MTTKRP output as a `Mat`.

use std::sync::Arc;

use scalfrag_balance::{BalancedKernel, FlycooKernel, CHUNK_LEN, FLYCOO_SEG_LEN};
use scalfrag_cluster::{
    build_cluster_plan, ClusterOptions, DeviceScheduler, FaultRecoveryPolicy, NodeSpec, ShardPolicy,
};
use scalfrag_core::{ClusterScalFrag, Parti, ScalFrag};
use scalfrag_exec::{run_plan_faulted, ExecMode, PlanBuilder};
use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{
    AtomicF32Buffer, BcsfKernel, CooAtomicKernel, CsfFiberKernel, FCooKernel, FactorSet,
    HiCooKernel, TiledKernel,
};
use scalfrag_linalg::Mat;
use scalfrag_serve::{MttkrpJob, ScalFragServer};
use scalfrag_tensor::{ChunkedTensor, CooTensor, CsfTensor, FCooTensor, FlycooTensor, HiCooTensor};

/// A named way of computing MTTKRP.
pub struct Backend {
    /// Stable identifier printed in the PASS/FAIL table.
    pub name: &'static str,
    /// Computes `Y = X_(mode) (⊙ factors)`.
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(&CooTensor, &FactorSet, usize) -> Mat + Send + Sync>,
}

impl Backend {
    fn new(
        name: &'static str,
        run: impl Fn(&CooTensor, &FactorSet, usize) -> Mat + Send + Sync + 'static,
    ) -> Self {
        Self { name, run: Box::new(run) }
    }
}

fn out_buffer(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> AtomicF32Buffer {
    AtomicF32Buffer::new(tensor.dims()[mode] as usize * factors.rank())
}

fn into_mat(buf: AtomicF32Buffer, rows: usize, rank: usize) -> Mat {
    Mat::from_vec(rows, rank, buf.to_vec())
}

fn sorted_for(tensor: &CooTensor, mode: usize) -> CooTensor {
    let mut t = tensor.clone();
    t.sort_for_mode(mode);
    t
}

/// The five kernel formats (plus F-COO) as raw-format backends.
pub fn kernel_backends() -> Vec<Backend> {
    vec![
        Backend::new(CooAtomicKernel::NAME, |t, f, mode| {
            let out = out_buffer(t, f, mode);
            CooAtomicKernel::execute(t, f, mode, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(TiledKernel::NAME, |t, f, mode| {
            let seg = sorted_for(t, mode);
            let out = out_buffer(t, f, mode);
            TiledKernel::execute(&seg, f, mode, 256, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(CsfFiberKernel::NAME, |t, f, mode| {
            let csf = CsfTensor::from_coo(t, mode);
            let out = out_buffer(t, f, mode);
            CsfFiberKernel::execute(&csf, f, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(BcsfKernel::NAME, |t, f, mode| {
            let seg = sorted_for(t, mode);
            let split = BcsfKernel::split(&seg, mode, 64);
            let out = out_buffer(t, f, mode);
            BcsfKernel::execute(&seg, f, mode, &split, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(HiCooKernel::NAME, |t, f, mode| {
            let hicoo = HiCooTensor::from_coo(t, 3);
            let out = out_buffer(t, f, mode);
            HiCooKernel::execute(&hicoo, f, mode, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(FCooKernel::NAME, |t, f, mode| {
            let fcoo = FCooTensor::from_coo(t, mode, 128);
            let out = out_buffer(t, f, mode);
            FCooKernel::execute(&fcoo, f, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(BalancedKernel::NAME, |t, f, mode| {
            let chunked = ChunkedTensor::from_coo(t, mode, CHUNK_LEN);
            let out = out_buffer(t, f, mode);
            BalancedKernel::execute(&chunked, f, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
        Backend::new(FlycooKernel::NAME, |t, f, mode| {
            let fly = FlycooTensor::from_coo(t, FLYCOO_SEG_LEN);
            let out = out_buffer(t, f, mode);
            FlycooKernel::execute(&fly, f, mode, &out);
            into_mat(out, t.dims()[mode] as usize, f.rank())
        }),
    ]
}

const CFG: LaunchConfig = LaunchConfig { grid: 512, block: 256, shared_mem_per_block: 0 };

fn node(n: usize) -> NodeSpec {
    NodeSpec::homogeneous(DeviceSpec::rtx3090(), n)
}

/// The end-to-end execution paths. Heavier than [`kernel_backends`] —
/// the runner drives them over a corpus subset.
pub fn path_backends() -> Vec<Backend> {
    vec![
        Backend::new("path:parti", |t, f, mode| Parti::rtx3090().mttkrp(t, f, mode).output),
        Backend::new("path:scalfrag-sync", |t, f, mode| {
            let ctx = ScalFrag::builder().fixed_config(CFG).pipelined(false).build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:scalfrag-pipelined", |t, f, mode| {
            let ctx = ScalFrag::builder().fixed_config(CFG).segments(4).hybrid(true).build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:cluster-rr-nnz", |t, f, mode| {
            let ctx = ClusterScalFrag::builder()
                .node(node(2))
                .fixed_config(CFG)
                .shards(4)
                .scheduler(DeviceScheduler::RoundRobin)
                .shard_policy(ShardPolicy::NnzBalanced)
                .build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:cluster-lpt-slice", |t, f, mode| {
            let ctx = ClusterScalFrag::builder()
                .node(node(3))
                .fixed_config(CFG)
                .shards(6)
                .scheduler(DeviceScheduler::Lpt)
                .shard_policy(ShardPolicy::SliceAligned)
                .build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:serve-functional", |t, f, mode| {
            let server = ScalFragServer::builder()
                .device(DeviceSpec::rtx3090())
                .functional(true)
                .train_tiers(vec![f.rank()])
                .build();
            let job =
                MttkrpJob::new(1, "conformance", Arc::new(t.clone()), Arc::new(f.clone()), mode);
            let report = server.run(vec![job]);
            report
                .completed
                .first()
                .and_then(|r| r.output.clone())
                .expect("functional serve run must yield the job output")
        }),
        Backend::new("path:oom-stream", |t, f, mode| {
            // The streaming path under the registry budget: the tensor is
            // cut so it must actually stream (evictions included), and
            // the interpreter runs the functional kernels through the
            // same Prefetch/Evict op program dry runs fingerprint.
            let plan = scalfrag_oom::registry_plan(t, f, mode);
            scalfrag_exec::run_plan(&plan, scalfrag_exec::ExecMode::Functional).output
        }),
        Backend::new("path:balance-segscan", |t, f, mode| {
            let ctx = ScalFrag::builder()
                .fixed_config(CFG)
                .pipelined(false)
                .balanced_kernel(true)
                .build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:balance-flycoo", |t, f, mode| {
            let ctx = ScalFrag::builder()
                .fixed_config(CFG)
                .pipelined(false)
                .mode_agnostic_kernel(true)
                .build();
            ctx.mttkrp(t, f, mode).output
        }),
        Backend::new("path:serve-batched", |t, f, mode| {
            // The batch-fused serving path: the registered builder fuses
            // three copies of the job into one plan (shared factor
            // upload, per-job launches); the differential output is the
            // LAST fused job's matrix, so the fan-out — not just the
            // group lead — must be numerically right.
            let builders = scalfrag_pipeline::batched_plan_builders();
            let plan = (builders[0].build)(t, f, mode);
            let outcome = scalfrag_exec::run_plan(&plan, scalfrag_exec::ExecMode::Functional);
            outcome.shard_outputs.last().cloned().expect("batched plan yields per-job outputs")
        }),
        Backend::new("path:cluster-resilient", |t, f, mode| {
            let plan = build_cluster_plan(&node(3), t, f, mode, &ClusterOptions::new(CFG, 6));
            // Two recoverable faults, recovered in-run; the output must
            // still be conformant (no double accumulation on retry).
            let faults = FaultPlan::new()
                .fault(0, FaultTrigger::AtOp(2), FaultKind::DeviceFail { down_s: Some(1e-3) })
                .fault(1, FaultTrigger::AtOp(5), FaultKind::KernelAbort);
            let mut inj = FaultInjector::new(faults);
            let policy = FaultRecoveryPolicy::retry_reshard();
            let run = run_plan_faulted(&plan, ExecMode::Functional, &mut inj, &policy);
            assert!(run.all_complete(), "recoverable plan must fully recover");
            run.output
        }),
    ]
}

/// Every ScheduleIR plan builder registered anywhere in the workspace
/// (core, pipeline, cluster, serve, oom, balance, serve-batched),
/// concatenated in crate order — later additions append, so the seed
/// builders keep their pinned fold order in the golden trace
/// fingerprints.
///
/// The coverage contract: each builder named `X` must have a
/// [`path_backends`] entry named `path:X`, so no execution path can be
/// added without joining the differential table.
pub fn all_plan_builders() -> Vec<PlanBuilder> {
    let mut v = scalfrag_core::plan_builders();
    v.extend(scalfrag_pipeline::plan_builders());
    v.extend(scalfrag_cluster::plan_builders());
    v.extend(scalfrag_serve::plan_builders());
    v.extend(scalfrag_oom::plan_builders());
    v.extend(scalfrag_pipeline::balance_plan_builders());
    v.extend(scalfrag_pipeline::batched_plan_builders());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_have_the_contracted_coverage() {
        let kernels = kernel_backends();
        assert!(kernels.len() >= 5, "five kernel formats minimum");
        let paths = path_backends();
        assert!(paths.len() >= 3, "three execution paths minimum");
        let names: Vec<_> = kernels.iter().chain(&paths).map(|b| b.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "backend names must be unique");
    }

    #[test]
    fn every_registered_plan_builder_has_a_path_backend() {
        let builders = all_plan_builders();
        assert!(builders.len() >= 6, "the workspace registers at least six plan builders");
        let paths: Vec<_> = path_backends().iter().map(|b| b.name.to_string()).collect();
        let mut builder_names: Vec<_> = builders.iter().map(|b| b.name).collect();
        let deduped = builder_names.len();
        builder_names.sort_unstable();
        builder_names.dedup();
        assert_eq!(builder_names.len(), deduped, "plan-builder names must be unique");
        for b in &builders {
            let want = format!("path:{}", b.name);
            assert!(
                paths.contains(&want),
                "plan builder `{}` has no `{want}` conformance backend — register one",
                b.name
            );
        }
    }
}
