//! Plan builders: lower the pipeline crate's schedules (sync baseline,
//! segmented pipeline, CPU–GPU hybrid) into ScheduleIR [`Plan`]s for the
//! `scalfrag-exec` interpreter. Pure construction — no simulated time
//! passes here.

use crate::hybrid::HybridSplit;
use crate::plan::PipelinePlan;
use scalfrag_exec::{
    lower_program, op_label, DeviceOps, KernelChoice, Plan, PlanBuilder, PlanMeta, PlanOp, Reduce,
    ResidueWork, ShardDesc, StreamRef, WorkUnit,
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
    let out_bytes = (rows * rank * 4) as u64;
    let units = vec![WorkUnit {
        shard: 0,
        segment: 0,
        seg: Segment { start: 0, end: tensor.nnz() },
        stats: SegmentStats::compute(tensor, mode),
    }];
    // The prologue charges the whole tensor, so the unit stages into it.
    let program = lower_program(
        factors,
        &[
            (factors.byte_size() as u64, "factors fit"),
            (out_bytes, "output fits"),
            (tensor.byte_size() as u64, "tensor fits"),
        ],
        1,
        kernel.full_config(config, rank as u32),
        &units,
        None,
        |_| ["tensor H2D".into(), "kernel".into()],
        |_| None,
        Some((out_bytes, "output D2H")),
    );
    Plan {
        name: "scalfrag-sync",
        mode,
        rank,
        rows,
        config,
        kernel,
        factors: Arc::new(factors.clone()),
        shards: vec![ShardDesc { index: 0, tensor: Arc::new(tensor.clone()), rows: None }],
        devices: vec![DeviceOps {
            device: 0,
            spec: spec.clone(),
            worker_streams: 1,
            dedicated_d2h: false,
            residue: None,
            units,
            program,
        }],
        reduce: Reduce::Single,
        reduction_s: 0.0,
        cluster: None,
        meta: PlanMeta {
            segment_map: "monolithic (1 segment, 1 stream)".to_string(),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
}

/// Lowers the segmented pipeline of §IV-C over a *mode-sorted* tensor:
/// per-segment H2D + kernel spread over `plan.num_streams` streams, one
/// event-ordered D2H at the end. The plan holds a copy of `tensor`;
/// [`build_shared_pipelined_plan`] takes one the caller already shares.
pub fn build_pipelined_plan(
    spec: &DeviceSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    plan: &PipelinePlan,
    kernel: KernelChoice,
) -> Plan {
    build_shared_pipelined_plan(spec, Arc::new(tensor.clone()), factors, plan, kernel)
}

/// [`build_pipelined_plan`] over a shared *mode-sorted* tensor: the plan's
/// one shard is `tensor` itself and every launch reads a range of it.
pub fn build_shared_pipelined_plan(
    spec: &DeviceSpec,
    tensor: Arc<CooTensor>,
    factors: &FactorSet,
    plan: &PipelinePlan,
    kernel: KernelChoice,
) -> Plan {
    let mode = plan.mode;
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let out_bytes = (rows * rank * 4) as u64;
    let units: Vec<WorkUnit> = plan
        .segments
        .iter()
        .enumerate()
        .map(|(i, seg)| WorkUnit {
            shard: 0,
            segment: i,
            seg: seg.clone(),
            stats: SegmentStats::compute_range(&tensor, mode, seg.start..seg.end),
        })
        .collect();
    let program = lower_program(
        factors,
        &[
            (factors.byte_size() as u64, "factor matrices must fit on the device"),
            (out_bytes, "output matrix must fit on the device"),
        ],
        plan.num_streams,
        kernel.full_config(plan.config, rank as u32),
        &units,
        Some("segment buffer must fit"),
        |u| {
            let i = u.segment;
            [
                op_label(format_args!("seg{i} H2D ({} nnz)", u.seg.nnz())),
                op_label(format_args!("seg{i} kernel")),
            ]
        },
        |_| None,
        Some((out_bytes, "output D2H")),
    );
    Plan {
        name: "scalfrag-pipelined",
        mode,
        rank,
        rows,
        config: plan.config,
        kernel,
        factors: Arc::new(factors.clone()),
        shards: vec![ShardDesc { index: 0, tensor, rows: None }],
        devices: vec![DeviceOps {
            device: 0,
            spec: spec.clone(),
            worker_streams: plan.num_streams,
            dedicated_d2h: false,
            residue: None,
            units,
            program,
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
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
}

/// Lowers the hybrid schedule of §I: the dense-slice bulk goes through
/// the segmented pipeline, the sparse-slice tail becomes a `HostResidue`
/// op folded concurrently on the host stream, ahead of the device work.
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
    let gpu_tensor = Arc::new(split.gpu_part.sorted_for_mode(mode));
    let pipeline = PipelinePlan::new(&gpu_tensor, mode, config, plan_segments, plan_streams);
    let mut plan = build_shared_pipelined_plan(spec, gpu_tensor, factors, &pipeline, kernel);
    plan.name = "scalfrag-hybrid";
    if split.cpu_part.nnz() > 0 {
        let rank = factors.rank() as u32;
        let stats = SegmentStats::compute(&split.cpu_part, mode);
        let label = "host tail MTTKRP";
        let dev = &mut plan.devices[0];
        dev.residue = Some(ResidueWork {
            tensor: Arc::new(split.cpu_part.clone()),
            flops: stats.flops(rank),
            bytes: stats.bytes_read(rank),
            label,
        });
        dev.program.insert(0, PlanOp::HostResidue { stream: StreamRef::Host, label });
    }
    plan.meta.segment_map = format!(
        "{} (host tail: {} nnz below threshold {})",
        plan.meta.segment_map,
        split.cpu_part.nnz(),
        split.threshold
    );
    plan
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
///
/// Computes each job's whole-tensor [`SegmentStats`] and hands off to
/// [`lower_batched_plan`]; a caller that already holds them (the serving
/// scheduler memoizes them per tensor) calls that directly.
pub fn build_batched_plan(
    spec: &DeviceSpec,
    jobs: &[BatchedJobSpec],
    factors: Arc<FactorSet>,
    mode: usize,
    config: LaunchConfig,
    kernel: KernelChoice,
    streams: usize,
) -> Plan {
    let jobs: Vec<(BatchedJobSpec, SegmentStats)> =
        jobs.iter().map(|j| (j.clone(), SegmentStats::compute(&j.tensor, mode))).collect();
    lower_batched_plan(spec, &jobs, factors, mode, config, kernel, streams)
}

/// The batched lowering behind [`build_batched_plan`]: each job comes
/// with its tensor's whole-tensor statistics for `mode`
/// (`SegmentStats::compute(&job.tensor, mode)`), which its one launch
/// carries.
pub fn lower_batched_plan(
    spec: &DeviceSpec,
    jobs: &[(BatchedJobSpec, SegmentStats)],
    factors: Arc<FactorSet>,
    mode: usize,
    config: LaunchConfig,
    kernel: KernelChoice,
    streams: usize,
) -> Plan {
    assert!(!jobs.is_empty(), "a batched plan needs at least one job");
    let dims = jobs[0].0.tensor.dims();
    for (j, _) in &jobs[1..] {
        assert_eq!(j.tensor.dims(), dims, "batched jobs must share tensor dims");
    }
    let rank = factors.rank();
    let rows = dims[mode] as usize;
    let out_bytes = (rows * rank * 4) as u64;
    let worker_streams = streams.max(1).min(jobs.len());

    let mut units = Vec::with_capacity(jobs.len());
    let mut shards = Vec::with_capacity(jobs.len());
    for (j, (job, stats)) in jobs.iter().enumerate() {
        let seg = Segment { start: 0, end: job.tensor.nnz() };
        units.push(WorkUnit { shard: j, segment: 0, seg, stats: *stats });
        shards.push(ShardDesc { index: j, tensor: Arc::clone(&job.tensor), rows: None });
    }
    let program = lower_program(
        &factors,
        &[(factors.byte_size() as u64, "factor matrices must fit on the device")],
        worker_streams,
        kernel.full_config(config, rank as u32),
        &units,
        Some("job tensor must fit"),
        |u| {
            let id = jobs[u.shard].0.id;
            [
                op_label(format_args!("job{id} H2D ({} nnz)", u.seg.nnz())),
                op_label(format_args!("job{id} kernel")),
            ]
        },
        |j| {
            let d2h = op_label(format_args!("job{} output D2H", jobs[j].0.id));
            Some((out_bytes, "job output must fit", Some(d2h)))
        },
        None,
    );
    Plan {
        name: "serve-batched",
        mode,
        rank,
        rows,
        config,
        kernel,
        factors,
        shards,
        devices: vec![DeviceOps {
            device: 0,
            spec: spec.clone(),
            worker_streams,
            dedicated_d2h: true,
            residue: None,
            units,
            program,
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
            optimizer: String::new(),
            batch_jobs: jobs.len(),
        },
    }
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
        let t = Arc::new(tensor.sorted_for_mode(mode));
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
            let t = tensor.sorted_for_mode(mode);
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
            let t = tensor.sorted_for_mode(mode);
            build_balance_segscan_plan(&DeviceSpec::rtx3090(), &t, factors, mode, cfg)
        }),
        PlanBuilder::new("balance-flycoo", move |tensor, factors, mode| {
            // Deliberately unsorted: the remap table is the sort.
            build_balance_flycoo_plan(&DeviceSpec::rtx3090(), tensor, factors, mode, cfg)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_exec::{run_plan, run_plan_on, ExecMode};
    use scalfrag_gpusim::Gpu;
    use scalfrag_kernels::reference::mttkrp_seq;

    fn setup(nnz: usize) -> (CooTensor, FactorSet) {
        let dims = [300u32, 200, 150];
        let mut t = scalfrag_tensor::gen::zipf_slices(&dims, nnz, 0.7, 11);
        t.sort_for_mode(0);
        let f = FactorSet::random(&dims, 16, 12);
        (t, f)
    }

    fn pipelined(t: &CooTensor, f: &FactorSet, plan: &PipelinePlan) -> Plan {
        build_pipelined_plan(&DeviceSpec::rtx3090(), t, f, plan, KernelChoice::Tiled)
    }

    #[test]
    fn pipelined_output_matches_reference() {
        let (t, f) = setup(20_000);
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let plan = PipelinePlan::new(&t, 0, LaunchConfig::new(1024, 256), 4, 4);
        let run = run_plan_on(&mut gpu, &pipelined(&t, &f, &plan), ExecMode::Functional);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(
            run.output.max_abs_diff(&expect) < 1e-2,
            "diff {}",
            run.output.max_abs_diff(&expect)
        );
        assert!(run.timeline.validate().is_ok());
        // Memory fully released.
        assert_eq!(gpu.memory().used(), 0);
    }

    #[test]
    fn sync_output_matches_reference() {
        let (t, f) = setup(10_000);
        let cfg = LaunchConfig::parti_default(t.nnz());
        let p = build_sync_plan(&DeviceSpec::rtx3090(), &t, &f, 0, cfg, KernelChoice::CooAtomic);
        let run = run_plan(&p, ExecMode::Functional);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn pipelining_beats_sync_end_to_end() {
        // At paper-like scale the transfer and kernel times are comparable,
        // so overlap pays; timing-only execution keeps the test fast.
        let dims = [2_000u32, 1_500, 1_000];
        let mut t = scalfrag_tensor::gen::uniform(&dims, 400_000, 31);
        t.sort_for_mode(0);
        let f = FactorSet::random(&dims, 16, 32);
        let cfg = LaunchConfig::new(2048, 256);

        let p = build_sync_plan(&DeviceSpec::rtx3090(), &t, &f, 0, cfg, KernelChoice::Tiled);
        let sync = run_plan(&p, ExecMode::Dry);

        let plan = PipelinePlan::new(&t, 0, cfg, 4, 4);
        let piped = run_plan(&pipelined(&t, &f, &plan), ExecMode::Dry);

        assert!(
            piped.makespan() < sync.makespan(),
            "pipelined {} should beat sync {}",
            piped.makespan(),
            sync.makespan()
        );
        let overlap = piped.timeline.overlap_ratio();
        assert!(overlap > 0.1, "overlap {overlap}");
    }

    #[test]
    fn dry_and_functional_runs_report_identical_times_and_traces() {
        // The dry-mode regression contract: for a fault-free plan, a dry
        // run must report exactly the simulated times (and therefore the
        // trace fingerprint) of the functional run.
        let (t, f) = setup(10_000);
        let cfg = LaunchConfig::new(1024, 256);
        let p = pipelined(&t, &f, &PipelinePlan::new(&t, 0, cfg, 4, 2));
        let wet = run_plan(&p, ExecMode::Functional);
        let dry = run_plan(&p, ExecMode::Dry);
        assert_eq!(wet.makespan(), dry.makespan());
        assert!(!wet.trace.is_empty() && !dry.trace.is_empty());
        assert_eq!(
            wet.trace.fingerprint(),
            dry.trace.fingerprint(),
            "dry and functional runs must execute the identical schedule"
        );
        assert_eq!(dry.output.frob_norm(), 0.0, "dry runs compute nothing");
    }

    #[test]
    fn single_segment_single_stream_degenerates_to_sync_shape() {
        let (t, f) = setup(5_000);
        let plan = PipelinePlan::new(&t, 0, LaunchConfig::new(512, 256), 1, 1);
        let run = run_plan(&pipelined(&t, &f, &plan), ExecMode::Functional);
        // One segment: H2D factors, H2D seg, kernel, D2H = 4 spans.
        assert_eq!(run.timeline.spans.len(), 4);
        assert!(run.timeline.overlap_ratio() < 0.05);
    }

    #[test]
    fn works_for_every_mode_and_4way() {
        let dims = [40u32, 30, 20, 10];
        let f = FactorSet::random(&dims, 8, 5);
        for mode in 0..4 {
            let mut t = scalfrag_tensor::gen::uniform(&dims, 3_000, 9);
            t.sort_for_mode(mode);
            let plan = PipelinePlan::new(&t, mode, LaunchConfig::new(256, 128), 3, 2);
            let run = run_plan(&pipelined(&t, &f, &plan), ExecMode::Functional);
            let expect = mttkrp_seq(&t, &f, mode);
            assert!(run.output.max_abs_diff(&expect) < 1e-2, "mode {mode}");
        }
    }

    #[test]
    fn more_streams_help_until_engines_saturate() {
        // Fig. 11's mechanism: with 8 segments, 1 stream serialises
        // everything, 4 streams overlap; beyond that gains flatten because
        // there is one H2D engine and one compute engine.
        let dims = [2_000u32, 1_500, 1_000];
        let mut t = scalfrag_tensor::gen::uniform(&dims, 400_000, 33);
        t.sort_for_mode(0);
        let f = FactorSet::random(&dims, 16, 34);
        let cfg = LaunchConfig::new(2048, 256);
        let mut times = Vec::new();
        for streams in [1usize, 2, 4, 8] {
            let plan = PipelinePlan::new(&t, 0, cfg, 8, streams);
            times.push(run_plan(&pipelined(&t, &f, &plan), ExecMode::Dry).makespan());
        }
        assert!(times[1] < times[0], "2 streams should beat 1: {times:?}");
        let gain_12 = times[0] / times[1];
        let gain_48 = times[2] / times[3];
        assert!(gain_48 < gain_12, "stream gains should flatten: {times:?}");
    }

    #[test]
    fn plan_renders_a_typed_ir_dump() {
        let (t, f) = setup(5_000);
        let plan = PipelinePlan::new(&t, 0, LaunchConfig::new(512, 256), 4, 2);
        let dump = pipelined(&t, &f, &plan).render();
        assert!(dump.contains("H2D"), "dump:\n{dump}");
        assert!(dump.contains("Launch"), "dump:\n{dump}");
        assert!(dump.contains("Barrier"), "dump:\n{dump}");
        assert!(dump.contains("output D2H"), "dump:\n{dump}");
    }
}
