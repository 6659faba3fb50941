//! Plan builders: lower the pipeline crate's schedules (sync baseline,
//! segmented pipeline, CPU–GPU hybrid) into ScheduleIR [`Plan`]s for the
//! `scalfrag-exec` interpreter. Pure construction — no simulated time
//! passes here.

use crate::hybrid::HybridSplit;
use crate::plan::PipelinePlan;
use scalfrag_exec::{
    DeviceOps, KernelChoice, Plan, PlanBuilder, PlanMeta, Reduce, ResidueWork, ShardDesc,
    ShardWork, WorkUnit,
};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::{segment::Segment, CooTensor};
use std::sync::Arc;

/// Lowers the ParTI-style synchronous schedule: one stream, whole-tensor
/// H2D, one kernel over all non-zeros, D2H (the §III-B baseline).
pub fn build_sync_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    config: LaunchConfig,
    kernel: KernelChoice,
) -> Plan {
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let order = tensor.order();
    let factors_bytes = factors.byte_size() as u64;
    let out_bytes = (rows * rank * 4) as u64;
    let tensor_bytes = tensor.byte_size() as u64;
    let units = vec![WorkUnit {
        shard: 0,
        segment: 0,
        seg: Segment { start: 0, end: tensor.nnz() },
        stream: Some(0),
        alloc: None, // the prologue charged the whole tensor
        h2d_bytes: tensor_bytes,
        h2d_label: "tensor H2D".to_string(),
        kernel_label: "kernel".to_string(),
        workload: None,
    }];
    Plan {
        name: "scalfrag-sync",
        mode,
        rank,
        rows,
        order,
        config,
        kernel,
        factors: Arc::new(factors.clone()),
        factors_bytes,
        shards: vec![ShardDesc { index: 0, tensor: Arc::new(tensor.clone()), rows: None }],
        devices: vec![DeviceOps {
            device: 0,
            name: spec.name,
            spec: spec.clone(),
            host: None,
            worker_streams: 1,
            dedicated_d2h: false,
            residue: None,
            prologue_allocs: vec![
                (factors_bytes, "factors fit"),
                (out_bytes, "output fits"),
                (tensor_bytes, "tensor fits"),
            ],
            shard_work: vec![ShardWork { shard: 0, output_alloc: None, units: vec![0], d2h: None }],
            units,
            final_d2h: Some((out_bytes, "output D2H")),
            shard_list: vec![0],
            skip_if_idle: false,
            program: Vec::new(),
        }],
        reduce: Reduce::Single,
        reduction_s: 0.0,
        cluster: None,
        meta: PlanMeta {
            segment_map: "monolithic (1 segment, 1 stream)".to_string(),
            predictor: "fixed config".to_string(),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
    .lowered()
}

/// Lowers the segmented pipeline of §IV-C over a *mode-sorted* tensor:
/// per-segment H2D + kernel spread over `plan.num_streams` streams, one
/// event-ordered D2H at the end.
pub fn build_pipelined_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    plan: &PipelinePlan,
    kernel: KernelChoice,
) -> Plan {
    let mode = plan.mode;
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let order = tensor.order();
    let factors_bytes = factors.byte_size() as u64;
    let out_bytes = (rows * rank * 4) as u64;
    let units: Vec<WorkUnit> = plan
        .segments
        .iter()
        .enumerate()
        .map(|(i, seg)| WorkUnit {
            shard: 0,
            segment: i,
            seg: seg.clone(),
            stream: Some(plan.stream_of(i)),
            alloc: Some((seg.byte_size(order) as u64, "segment buffer must fit")),
            h2d_bytes: seg.byte_size(order) as u64,
            h2d_label: format!("seg{i} H2D ({} nnz)", seg.nnz()),
            kernel_label: format!("seg{i} kernel"),
            workload: None,
        })
        .collect();
    let unit_ids: Vec<usize> = (0..units.len()).collect();
    Plan {
        name: "scalfrag-pipelined",
        mode,
        rank,
        rows,
        order,
        config: plan.config,
        kernel,
        factors: Arc::new(factors.clone()),
        factors_bytes,
        shards: vec![ShardDesc { index: 0, tensor: Arc::new(tensor.clone()), rows: None }],
        devices: vec![DeviceOps {
            device: 0,
            name: spec.name,
            spec: spec.clone(),
            host: None,
            worker_streams: plan.num_streams,
            dedicated_d2h: false,
            residue: None,
            prologue_allocs: vec![
                (factors_bytes, "factor matrices must fit on the device"),
                (out_bytes, "output matrix must fit on the device"),
            ],
            shard_work: vec![ShardWork {
                shard: 0,
                output_alloc: None,
                units: unit_ids,
                d2h: None,
            }],
            units,
            final_d2h: Some((out_bytes, "output D2H")),
            shard_list: vec![0],
            skip_if_idle: false,
            program: Vec::new(),
        }],
        reduce: Reduce::Single,
        reduction_s: 0.0,
        cluster: None,
        meta: PlanMeta {
            segment_map: format!(
                "{} slice-aligned segment(s) over {} stream(s)",
                plan.segments.len(),
                plan.num_streams
            ),
            predictor: "fixed config".to_string(),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
    .lowered()
}

/// Lowers the hybrid schedule of §I: the dense-slice bulk goes through
/// the segmented pipeline, the sparse-slice tail becomes a `HostResidue`
/// op folded concurrently on the host stream.
#[allow(clippy::too_many_arguments)]
pub fn build_hybrid_plan(
    spec: &DeviceSpec,
    split: &HybridSplit,
    factors: &FactorSet,
    mode: usize,
    config: LaunchConfig,
    plan_segments: usize,
    plan_streams: usize,
    kernel: KernelChoice,
) -> Plan {
    let mut gpu_tensor = split.gpu_part.clone();
    gpu_tensor.sort_for_mode(mode);
    let pipeline = PipelinePlan::new(&gpu_tensor, mode, config, plan_segments, plan_streams);
    let mut plan = build_pipelined_plan(spec, &gpu_tensor, factors, &pipeline, kernel);
    plan.name = "scalfrag-hybrid";
    if split.cpu_part.nnz() > 0 {
        let rank = factors.rank() as u32;
        let stats = SegmentStats::compute(&split.cpu_part, mode);
        plan.devices[0].residue = Some(ResidueWork {
            tensor: Arc::new(split.cpu_part.clone()),
            flops: stats.flops(rank),
            bytes: stats.bytes_read(rank),
            label: "host tail MTTKRP",
        });
    }
    plan.meta.segment_map = format!(
        "{} (host tail: {} nnz below threshold {})",
        plan.meta.segment_map,
        split.cpu_part.nnz(),
        split.threshold
    );
    plan.lowered()
}

/// Lowers the load-balanced segmented-scan schedule: the monolithic sync
/// shape (one stream, whole-tensor H2D) but with the `balance-segscan`
/// kernel folding fixed-nnz chunks, immune to slice/fiber skew.
pub fn build_balance_segscan_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    config: LaunchConfig,
) -> Plan {
    let mut plan = build_sync_plan(spec, tensor, factors, mode, config, KernelChoice::Balanced);
    plan.name = "balance-segscan";
    plan.meta.segment_map =
        format!("monolithic; {}-nnz balanced chunks + carry chain", scalfrag_balance::CHUNK_LEN);
    plan
}

/// Lowers the FLYCOO mode-agnostic schedule: one *unsorted* tensor copy is
/// shipped once and the `balance-flycoo` kernel walks the per-mode remap
/// table — no re-sorting or re-tiling per mode.
pub fn build_balance_flycoo_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    config: LaunchConfig,
) -> Plan {
    let mut plan = build_sync_plan(spec, tensor, factors, mode, config, KernelChoice::ModeAgnostic);
    plan.name = "balance-flycoo";
    plan.meta.segment_map = format!(
        "monolithic; mode-agnostic remap, {}-nnz partitions",
        scalfrag_balance::FLYCOO_SEG_LEN
    );
    plan
}

/// One job's slice of a batch-fused serving plan: a stable id (drives the
/// span labels the serving layer splits per-job timing out of) and its
/// *mode-sorted* tensor.
#[derive(Clone, Debug)]
pub struct BatchedJobSpec {
    /// Stable job id — appears in every span label of this job.
    pub id: u64,
    /// The job's tensor, already sorted for the target mode.
    pub tensor: Arc<CooTensor>,
}

/// Lowers a batch of FeatureKey-compatible serving jobs into ONE plan:
/// the shared factor matrices ride a single H2D on worker stream 0 (the
/// generic lowering's factors-once + barrier prologue), then each job
/// fans out as its own shard — one whole-tensor H2D + one kernel launch
/// on a round-robin worker stream, one per-job D2H on the dedicated
/// return stream. `Reduce::PerJob` keeps every job in its own buffer, so
/// a group of N is bit-identical per job to N solo single-launch runs —
/// the ULP-cleanliness contract of the batch-fused serving path.
///
/// All jobs must share the factor set, mode, and dims (group formation in
/// `serve::batch` guarantees it); the per-job transient tensor buffers
/// are recycled per stream by the lowering, so device memory holds the
/// factors, N output buffers, and at most `streams` staged tensors.
pub fn build_batched_plan(
    spec: &DeviceSpec,
    jobs: &[BatchedJobSpec],
    factors: Arc<FactorSet>,
    mode: usize,
    config: LaunchConfig,
    kernel: KernelChoice,
    streams: usize,
) -> Plan {
    assert!(!jobs.is_empty(), "a batched plan needs at least one job");
    let dims = jobs[0].tensor.dims().to_vec();
    for j in &jobs[1..] {
        assert_eq!(j.tensor.dims(), &dims[..], "batched jobs must share tensor dims");
    }
    let rank = factors.rank();
    let rows = dims[mode] as usize;
    let order = jobs[0].tensor.order();
    let factors_bytes = factors.byte_size() as u64;
    let out_bytes = (rows * rank * 4) as u64;
    let worker_streams = streams.max(1).min(jobs.len());

    let mut units = Vec::with_capacity(jobs.len());
    let mut shard_work = Vec::with_capacity(jobs.len());
    let mut shards = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let seg = Segment { start: 0, end: job.tensor.nnz() };
        let tensor_bytes = job.tensor.byte_size() as u64;
        let s = j % worker_streams;
        units.push(WorkUnit {
            shard: j,
            segment: 0,
            stream: Some(s),
            alloc: Some((tensor_bytes, "job tensor must fit")),
            h2d_bytes: tensor_bytes,
            h2d_label: format!("job{} H2D ({} nnz)", job.id, seg.nnz()),
            kernel_label: format!("job{} kernel", job.id),
            workload: None,
            seg,
        });
        shard_work.push(ShardWork {
            shard: j,
            output_alloc: Some((out_bytes, "job output must fit")),
            units: vec![j],
            d2h: Some((out_bytes, format!("job{} output D2H", job.id))),
        });
        shards.push(ShardDesc { index: j, tensor: Arc::clone(&job.tensor), rows: None });
    }
    Plan {
        name: "serve-batched",
        mode,
        rank,
        rows,
        order,
        config,
        kernel,
        factors,
        factors_bytes,
        shards,
        devices: vec![DeviceOps {
            device: 0,
            name: spec.name,
            spec: spec.clone(),
            host: None,
            worker_streams,
            dedicated_d2h: true,
            residue: None,
            prologue_allocs: vec![(factors_bytes, "factor matrices must fit on the device")],
            units,
            shard_work,
            final_d2h: None,
            shard_list: (0..jobs.len()).collect(),
            skip_if_idle: false,
            program: Vec::new(),
        }],
        reduce: Reduce::PerJob,
        reduction_s: 0.0,
        cluster: None,
        meta: PlanMeta {
            segment_map: format!(
                "batched ×{}: shared factor upload, per-job H2D/launch/D2H over {} stream(s)",
                jobs.len(),
                worker_streams
            ),
            predictor: "fixed config".to_string(),
            optimizer: String::new(),
            batch_jobs: jobs.len(),
        },
    }
    .lowered()
}

/// The batch-fused serving builder, registered separately so the
/// conformance registry can append it after every earlier builder without
/// disturbing pinned fold orders. The registry shape is one tensor, so
/// the builder synthesizes a deterministic three-job batch (three fused
/// copies of the input) over two worker streams — enough to exercise the
/// shared factor upload, the round-robin fan-out, and the per-job D2H.
pub fn batched_plan_builders() -> Vec<PlanBuilder> {
    let cfg = LaunchConfig::new(512, 256);
    vec![PlanBuilder::new("serve-batched", move |tensor, factors, mode| {
        let mut t = tensor.clone();
        t.sort_for_mode(mode);
        let t = Arc::new(t);
        let jobs: Vec<BatchedJobSpec> =
            (0..3).map(|id| BatchedJobSpec { id, tensor: Arc::clone(&t) }).collect();
        build_batched_plan(
            &DeviceSpec::rtx3090(),
            &jobs,
            Arc::new(factors.clone()),
            mode,
            cfg,
            KernelChoice::Tiled,
            2,
        )
    })]
}

/// The pipeline crate's registered plan builders.
pub fn plan_builders() -> Vec<PlanBuilder> {
    let cfg = LaunchConfig::new(512, 256);
    vec![
        PlanBuilder::new("scalfrag-sync", move |tensor, factors, mode| {
            let mut t = tensor.clone();
            t.sort_for_mode(mode);
            build_sync_plan(&DeviceSpec::rtx3090(), &t, factors, mode, cfg, KernelChoice::Tiled)
        }),
        PlanBuilder::new("scalfrag-pipelined", move |tensor, factors, mode| {
            let split = crate::hybrid::split_by_slice_population(tensor, mode, 4);
            build_hybrid_plan(
                &DeviceSpec::rtx3090(),
                &split,
                factors,
                mode,
                cfg,
                4,
                4,
                KernelChoice::Tiled,
            )
        }),
    ]
}

/// The load-imbalance-immune builders of `scalfrag-balance`, registered
/// separately so the conformance registry can append them after the seed
/// builders without disturbing pinned fold orders.
pub fn balance_plan_builders() -> Vec<PlanBuilder> {
    let cfg = LaunchConfig::new(512, 256);
    vec![
        PlanBuilder::new("balance-segscan", move |tensor, factors, mode| {
            let mut t = tensor.clone();
            t.sort_for_mode(mode);
            build_balance_segscan_plan(&DeviceSpec::rtx3090(), &t, factors, mode, cfg)
        }),
        PlanBuilder::new("balance-flycoo", move |tensor, factors, mode| {
            // Deliberately unsorted: the remap table is the sort.
            build_balance_flycoo_plan(&DeviceSpec::rtx3090(), tensor, factors, mode, cfg)
        }),
    ]
}
