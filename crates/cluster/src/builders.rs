//! Plan builder: lowers a multi-device cluster schedule (shard →
//! per-device pipeline → reduce) into a ScheduleIR [`Plan`] for the
//! `scalfrag-exec` interpreter. Pure construction — no simulated time
//! passes here.
//!
//! The node/interconnect knowledge the interpreter must not own —
//! re-placement of orphaned work and the analytic reduction cost —
//! travels with the plan as a [`ClusterPolicy`] implementation
//! ([`NodePlacement`]).
//!
//! Partial outputs are kept **per shard**, not per device, and folded on
//! the host in shard-index order — so the numeric result is bitwise
//! invariant to the device count and the scheduler, which only move work
//! between timelines.
//!
//! The reduction stage depends on the shard policy:
//!
//! * slice-aligned shards own disjoint output rows; each device returns
//!   exactly its final row block and the merge costs nothing;
//! * nnz-balanced shards overlap on rows; every shard's full partial
//!   output returns D2H and the host pays one add per extra shard — or,
//!   with peer links, partials gather device-to-device and only the merged
//!   result crosses PCIe.

use crate::node::{Interconnect, NodeSpec};
use crate::schedule::{assign_shards, DeviceScheduler};
use crate::shard::{shard_tensor, Shard, ShardPolicy};
use scalfrag_exec::{
    op_label, ClusterPolicy, DeviceOps, KernelChoice, PlaceStrategy, Plan, PlanBuilder, PlanMeta,
    Reduce, ShardDesc, ShardWork, WorkUnit,
};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::{FactorSet, SegmentStats};
use scalfrag_tensor::segment::segment_by_nnz;
use scalfrag_tensor::{CooTensor, Idx};
use std::sync::Arc;

/// Pipeline segments each shard is cut into (transfer/compute overlap
/// within a device).
const SEGMENTS_PER_SHARD: usize = 2;

/// Worker streams per device.
const STREAMS_PER_DEVICE: usize = 2;

/// Execution knobs of one cluster MTTKRP.
#[derive(Clone, Copy, Debug)]
pub struct ClusterOptions {
    /// Kernel launched per segment (tiled or ParTI-style atomic COO).
    pub kernel: KernelChoice,
    /// How the tensor is cut into shards.
    pub policy: ShardPolicy,
    /// How shards are placed on devices.
    pub scheduler: DeviceScheduler,
    /// Shard count. Fixing this independently of the device count keeps
    /// the numeric output bitwise identical across node sizes.
    pub num_shards: usize,
    /// Kernel launch configuration (shared by all devices).
    pub config: LaunchConfig,
}

impl ClusterOptions {
    /// Paper-style defaults: tiled kernel, slice-aligned shards, LPT
    /// placement. Every plan runs each shard as 2 pipelined segments on 2
    /// worker streams per device, whatever the options.
    pub fn new(config: LaunchConfig, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        Self {
            kernel: KernelChoice::Tiled,
            policy: ShardPolicy::SliceAligned,
            scheduler: DeviceScheduler::Lpt,
            num_shards,
            config,
        }
    }
}

/// The placement callbacks a cluster plan carries: the re-placement
/// strategy, the per-device speed proxy and the analytic reduction cost.
pub struct NodePlacement {
    node: NodeSpec,
    /// Each shard's owned row bounds, in shard-index order.
    shard_rows: Vec<Option<(Idx, Idx)>>,
    scheduler: DeviceScheduler,
    rank: usize,
    rows: usize,
}

impl ClusterPolicy for NodePlacement {
    fn strategy(&self) -> PlaceStrategy {
        match self.scheduler {
            DeviceScheduler::RoundRobin => PlaceStrategy::RoundRobin,
            DeviceScheduler::Lpt => PlaceStrategy::Lpt,
        }
    }

    fn speed_proxy(&self, d: usize) -> f64 {
        self.node.device_speed_proxy(d, self.rank)
    }

    fn reduction_s(&self, assignment: &[Vec<usize>]) -> f64 {
        reduction_seconds(&self.node, &self.shard_rows, assignment, self.rows, self.rank)
    }
}

/// Lowers one cluster MTTKRP: the mode-sorted tensor is sharded, shards
/// are placed by the scheduler, and each device's shards become pipelined
/// `H2D → Launch` units on round-robin streams with a per-shard partial
/// D2H on a dedicated return stream (absent under peer reduction).
pub fn build_cluster_plan(
    node: &NodeSpec,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
    opts: &ClusterOptions,
) -> Plan {
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let out_bytes = (rows * rank * 4) as u64;
    let factors_bytes = factors.byte_size() as u64;

    let sorted = tensor.sorted_for_mode(mode);
    let order = sorted.order();
    let shards = shard_tensor(&sorted, mode, opts.policy, opts.num_shards);
    let assignment = assign_shards(&shards, node, opts.scheduler, rank);

    // Peer-linked nodes gather row-overlapping partials device-to-device,
    // so the per-shard D2H hop disappears from the device timelines.
    let peer_reduce =
        opts.policy == ShardPolicy::NnzBalanced && node.peer_bandwidth_gbs().is_some();

    let mut devices = Vec::with_capacity(node.num_devices());
    for (d, shard_indices) in assignment.iter().enumerate() {
        let spec = node.effective_device(d);
        let mut units: Vec<WorkUnit> = Vec::new();
        let mut shard_work: Vec<ShardWork> = Vec::new();
        for &si in shard_indices {
            let d2h_bytes = shard_output_bytes(&shards[si], rank, out_bytes);
            let mut unit_ids = Vec::new();
            for (j, seg) in
                segment_by_nnz(shards[si].nnz(), SEGMENTS_PER_SHARD).into_iter().enumerate()
            {
                unit_ids.push(units.len());
                units.push(WorkUnit {
                    shard: si,
                    segment: j,
                    alloc: Some("segment must fit"),
                    h2d_label: op_label(format_args!("shard{si} seg{j} H2D")),
                    kernel_label: op_label(format_args!("shard{si} seg{j} kernel")),
                    stats: SegmentStats::compute_range(
                        &shards[si].tensor,
                        mode,
                        seg.start..seg.end,
                    ),
                    seg,
                });
            }
            shard_work.push(ShardWork {
                shard: si,
                output_alloc: Some((d2h_bytes, "shard output must fit")),
                units: unit_ids,
                d2h: (!peer_reduce).then(|| (d2h_bytes, op_label(format_args!("shard{si} D2H")))),
            });
        }
        devices.push(DeviceOps {
            device: d,
            spec,
            worker_streams: STREAMS_PER_DEVICE,
            dedicated_d2h: true,
            residue: None,
            prologue_allocs: vec![(factors_bytes, "factor matrices must fit on each device")],
            units,
            shard_work,
            final_d2h: None,
            program: Vec::new(),
        });
    }

    let shard_rows: Vec<Option<(Idx, Idx)>> = shards.iter().map(|s| s.rows).collect();
    // Each shard's entries move into its descriptor, uncopied.
    let shard_descs: Vec<ShardDesc> = shards
        .into_iter()
        .map(|s| ShardDesc { index: s.index, tensor: Arc::new(s.tensor), rows: s.rows })
        .collect();
    let reduction_s = reduction_seconds(node, &shard_rows, &assignment, rows, rank);
    let policy =
        NodePlacement { node: node.clone(), shard_rows, scheduler: opts.scheduler, rank, rows };
    Plan {
        name: "scalfrag-cluster",
        mode,
        rank,
        rows,
        order,
        config: opts.config,
        kernel: opts.kernel,
        factors: Arc::new(factors.clone()),
        factors_bytes,
        shards: shard_descs,
        devices,
        reduce: Reduce::FoldShards,
        reduction_s,
        cluster: Some(Arc::new(policy)),
        meta: PlanMeta {
            segment_map: format!(
                "{} shard(s) ({:?}) × {} segment(s), {:?} over {} device(s)",
                opts.num_shards,
                opts.policy,
                SEGMENTS_PER_SHARD,
                opts.scheduler,
                node.num_devices(),
            ),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
    .lowered()
}

/// Bytes of one shard's D2H result: its owned row block when slice-aligned,
/// the full partial output otherwise.
fn shard_output_bytes(shard: &Shard, rank: usize, full_out_bytes: u64) -> u64 {
    match shard.rows {
        Some((lo, hi)) => ((hi - lo + 1) as u64) * rank as u64 * 4,
        None => full_out_bytes,
    }
}

/// Analytic cost of the cross-shard reduction stage over shards with
/// owned row bounds `shard_rows` (in shard-index order).
fn reduction_seconds(
    node: &NodeSpec,
    shard_rows: &[Option<(Idx, Idx)>],
    assignment: &[Vec<usize>],
    rows: usize,
    rank: usize,
) -> f64 {
    let num_shards = shard_rows.len();
    if num_shards <= 1 {
        return 0.0;
    }
    // Slice-aligned shards own disjoint rows: the per-shard D2H copies in
    // the device timelines already returned the final rows.
    if shard_rows.iter().all(Option::is_some) {
        return 0.0;
    }
    let bytes = (rows * rank * 4) as f64;
    let extra = (num_shards - 1) as f64;
    match node.interconnect {
        Interconnect::PerLinkPcie | Interconnect::SharedHost { .. } => {
            // Host sums S partial matrices: one add per extra shard,
            // streaming two operands in and one result out.
            extra * node.host.task_duration_s((rows * rank) as u64, 3 * (rows * rank * 4) as u64)
        }
        Interconnect::PeerLinks { peer_gbs } => {
            // Gather on the device owning shard 0: off-root partials hop
            // one peer link each, every extra shard costs one device-side
            // add, and the merged matrix crosses PCIe once.
            let root = assignment.iter().position(|list| list.contains(&0)).unwrap_or(0);
            let off_root = (1..num_shards).filter(|s| !assignment[root].contains(s)).count() as f64;
            let gather = off_root * bytes / (peer_gbs * 1e9);
            let root_spec = node.effective_device(root);
            let adds = extra * 3.0 * bytes / (root_spec.mem_bandwidth_gbs * 1e9);
            let d2h = root_spec.pcie_latency_us * 1e-6 + bytes / (root_spec.pcie_d2h_gbs * 1e9);
            gather + adds + d2h
        }
    }
}

/// The cluster crate's registered plan builders (mirroring the
/// conformance path backends).
pub fn plan_builders() -> Vec<PlanBuilder> {
    let cfg = LaunchConfig::new(512, 256);
    let node = |n: usize| NodeSpec::homogeneous(DeviceSpec::rtx3090(), n);
    vec![
        PlanBuilder::new("cluster-rr-nnz", move |tensor, factors, mode| {
            let mut opts = ClusterOptions::new(cfg, 4);
            opts.kernel = KernelChoice::Tiled;
            opts.scheduler = DeviceScheduler::RoundRobin;
            opts.policy = ShardPolicy::NnzBalanced;
            let mut p = build_cluster_plan(&node(2), tensor, factors, mode, &opts);
            p.name = "cluster-rr-nnz";
            p
        }),
        PlanBuilder::new("cluster-lpt-slice", move |tensor, factors, mode| {
            let mut opts = ClusterOptions::new(cfg, 6);
            opts.kernel = KernelChoice::Tiled;
            opts.scheduler = DeviceScheduler::Lpt;
            opts.policy = ShardPolicy::SliceAligned;
            let mut p = build_cluster_plan(&node(3), tensor, factors, mode, &opts);
            p.name = "cluster-lpt-slice";
            p
        }),
        PlanBuilder::new("cluster-resilient", move |tensor, factors, mode| {
            let opts = ClusterOptions::new(cfg, 6);
            let mut p = build_cluster_plan(&node(3), tensor, factors, mode, &opts);
            p.name = "cluster-resilient";
            p
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_exec::{run_plan, ExecMode, ExecOutcome};
    use scalfrag_kernels::reference::mttkrp_seq;

    fn setup() -> (CooTensor, FactorSet) {
        let dims = [120u32, 90, 70];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 9_000, 0.8, 41);
        let f = FactorSet::random(&dims, 8, 42);
        (t, f)
    }

    fn run(
        node: &NodeSpec,
        t: &CooTensor,
        f: &FactorSet,
        o: &ClusterOptions,
        exec: ExecMode,
    ) -> ExecOutcome {
        run_plan(&build_cluster_plan(node, t, f, 0, o), exec)
    }

    fn opts(policy: ShardPolicy, kernel: KernelChoice) -> ClusterOptions {
        let mut o = ClusterOptions::new(LaunchConfig::new(512, 256), 4);
        o.policy = policy;
        o.kernel = kernel;
        o
    }

    #[test]
    fn slice_aligned_output_matches_reference() {
        let (t, f) = setup();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2);
        let o = opts(ShardPolicy::SliceAligned, KernelChoice::Tiled);
        let run = run(&node, &t, &f, &o, ExecMode::Functional);
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let expect = mttkrp_seq(&sorted, &f, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-2);
        assert_eq!(run.reduction_s, 0.0, "slice-aligned reduce is free");
        for timeline in &run.device_timelines {
            assert!(timeline.validate().is_ok());
        }
    }

    #[test]
    fn nnz_balanced_pays_for_reduction() {
        let (t, f) = setup();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2);
        let o = opts(ShardPolicy::NnzBalanced, KernelChoice::Tiled);
        let run = run(&node, &t, &f, &o, ExecMode::Functional);
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let expect = mttkrp_seq(&sorted, &f, 0);
        assert!(run.output.max_abs_diff(&expect) < 1e-2);
        assert!(run.reduction_s > 0.0, "cross-shard rows must cost a reduction");
    }

    #[test]
    fn output_is_bitwise_invariant_to_device_count() {
        let (t, f) = setup();
        let o = opts(ShardPolicy::SliceAligned, KernelChoice::CooAtomic);
        let outputs: Vec<Vec<f32>> = [1usize, 2, 3]
            .iter()
            .map(|&n| {
                let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), n);
                run(&node, &t, &f, &o, ExecMode::Functional).output.into_vec()
            })
            .collect();
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn dry_run_matches_functional_timing_and_computes_nothing() {
        let (t, f) = setup();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2);
        let o = opts(ShardPolicy::SliceAligned, KernelChoice::Tiled);
        let wet = run(&node, &t, &f, &o, ExecMode::Functional);
        let dry = run(&node, &t, &f, &o, ExecMode::Dry);
        assert_eq!(wet.makespan(), dry.makespan());
        assert_eq!(dry.output.frob_norm(), 0.0);
    }

    #[test]
    fn peer_links_cheapen_the_nnz_balanced_reduction() {
        // Output large enough for bandwidth (not PCIe latency) to dominate
        // the reduction: 4000 rows × rank 32 ≈ 512 KB of partial output.
        let dims = [4_000u32, 90, 70];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 20_000, 0.8, 41);
        let f = FactorSet::random(&dims, 32, 42);
        let base = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2)
            .with_interconnect(Interconnect::PerLinkPcie);
        let peered = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2)
            .with_interconnect(Interconnect::PeerLinks { peer_gbs: 300.0 });
        let o = opts(ShardPolicy::NnzBalanced, KernelChoice::Tiled);
        let host_path = run(&base, &t, &f, &o, ExecMode::Dry);
        let peer_path = run(&peered, &t, &f, &o, ExecMode::Dry);
        assert!(
            peer_path.reduction_s < host_path.reduction_s,
            "peer gather {} should beat host adds {}",
            peer_path.reduction_s,
            host_path.reduction_s
        );
        // Peer reduction also drops the per-shard D2H hops from the device
        // timelines, so the end-to-end makespan improves as well.
        assert!(peer_path.makespan() < host_path.makespan());
    }

    #[test]
    fn devices_beyond_shard_count_stay_idle() {
        let (t, f) = setup();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 6);
        let mut o = opts(ShardPolicy::SliceAligned, KernelChoice::Tiled);
        o.num_shards = 2;
        let run = run(&node, &t, &f, &o, ExecMode::Dry);
        let idle: Vec<usize> = (0..6).filter(|&d| run.device_shards[d].is_empty()).collect();
        assert!(idle.len() >= 4, "only 2 shards: at least 4 of 6 devices idle");
        for d in idle {
            assert_eq!(run.device_timelines[d].makespan(), 0.0);
        }
    }

    #[test]
    fn cluster_plan_renders_a_typed_ir_dump() {
        let (t, f) = setup();
        let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2);
        let p = build_cluster_plan(
            &node,
            &t,
            &f,
            0,
            &opts(ShardPolicy::SliceAligned, KernelChoice::Tiled),
        );
        let dump = p.render();
        assert!(dump.contains("device 0"), "dump:\n{dump}");
        assert!(dump.contains("device 1"), "dump:\n{dump}");
        assert!(dump.contains("shard0 seg0 H2D"), "dump:\n{dump}");
        assert!(dump.contains("D2H"), "dump:\n{dump}");
    }
}
