//! Plan builder: lowers a multi-device cluster schedule (shard →
//! per-device pipeline → reduce) into a ScheduleIR [`Plan`] for the
//! `scalfrag-exec` interpreter. Pure construction — no simulated time
//! passes here.
//!
//! The node/interconnect knowledge the interpreter must not own —
//! re-placement of orphaned work and the analytic reduction cost —
//! travels with the plan as a [`ClusterPolicy`] implementation
//! ([`NodePlacement`]).

use crate::executor::{reduction_seconds, shard_output_bytes, ClusterOptions};
use crate::node::NodeSpec;
use crate::schedule::{assign_shards, DeviceScheduler};
use crate::shard::{shard_tensor, Shard, ShardPolicy};
use scalfrag_exec::{
    ClusterPolicy, DeviceOps, KernelChoice, PlaceStrategy, Plan, PlanBuilder, PlanMeta, Reduce,
    ShardDesc, ShardWork, WorkUnit,
};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_tensor::segment::segment_by_nnz;
use scalfrag_tensor::CooTensor;
use std::sync::Arc;

/// The placement callbacks a cluster plan carries: the re-placement
/// strategy, the per-device speed proxy and the analytic reduction cost.
pub struct NodePlacement {
    node: NodeSpec,
    shards: Vec<Shard>,
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
        reduction_seconds(&self.node, &self.shards, assignment, self.rows, self.rank)
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
    assert!(opts.segments_per_shard > 0, "need at least one segment per shard");
    assert!(opts.streams_per_device > 0, "need at least one stream per device");
    let rank = factors.rank();
    let rows = tensor.dims()[mode] as usize;
    let out_bytes = (rows * rank * 4) as u64;
    let factors_bytes = factors.byte_size() as u64;

    let mut sorted = tensor.clone();
    sorted.sort_for_mode(mode);
    let order = sorted.order();
    let shards = shard_tensor(&sorted, mode, opts.policy, opts.num_shards);
    let assignment = assign_shards(&shards, node, opts.scheduler, rank);

    // Peer-linked nodes gather row-overlapping partials device-to-device,
    // so the per-shard D2H hop disappears from the device timelines.
    let peer_reduce =
        opts.policy == ShardPolicy::NnzBalanced && node.peer_bandwidth_gbs().is_some();

    let shard_descs: Vec<ShardDesc> = shards
        .iter()
        .map(|s| ShardDesc { index: s.index, tensor: Arc::new(s.tensor.clone()), rows: s.rows })
        .collect();

    let mut devices = Vec::with_capacity(node.num_devices());
    for (d, shard_indices) in assignment.iter().enumerate() {
        let spec = node.effective_device(d);
        let mut units: Vec<WorkUnit> = Vec::new();
        let mut shard_work: Vec<ShardWork> = Vec::new();
        for &si in shard_indices {
            let d2h_bytes = shard_output_bytes(&shards[si], rank, out_bytes);
            let mut unit_ids = Vec::new();
            for (j, seg) in
                segment_by_nnz(shards[si].nnz(), opts.segments_per_shard).into_iter().enumerate()
            {
                let bytes = seg.byte_size(order) as u64;
                unit_ids.push(units.len());
                units.push(WorkUnit {
                    shard: si,
                    segment: j,
                    seg,
                    stream: None, // the device's round-robin counter places it
                    alloc: Some((bytes, "segment must fit")),
                    h2d_bytes: bytes,
                    h2d_label: format!("shard{si} seg{j} H2D"),
                    kernel_label: format!("shard{si} seg{j} kernel"),
                    workload: None,
                });
            }
            shard_work.push(ShardWork {
                shard: si,
                output_alloc: Some((d2h_bytes, "shard output must fit")),
                units: unit_ids,
                d2h: (!peer_reduce).then(|| (d2h_bytes, format!("shard{si} D2H"))),
            });
        }
        devices.push(DeviceOps {
            device: d,
            name: spec.name,
            spec,
            host: Some(node.host.clone()),
            worker_streams: opts.streams_per_device,
            dedicated_d2h: true,
            residue: None,
            prologue_allocs: vec![(factors_bytes, "factor matrices must fit on each device")],
            units,
            shard_work,
            final_d2h: None,
            shard_list: shard_indices.clone(),
            skip_if_idle: true,
            program: Vec::new(),
        });
    }

    let reduction_s = reduction_seconds(node, &shards, &assignment, rows, rank);
    let policy =
        NodePlacement { node: node.clone(), shards, scheduler: opts.scheduler, rank, rows };
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
                opts.segments_per_shard,
                opts.scheduler,
                node.num_devices(),
            ),
            predictor: "fixed config".to_string(),
            optimizer: String::new(),
            batch_jobs: 0,
        },
    }
    .lowered()
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
