//! The multi-GPU ScalFrag facade: the [`ScalFrag`](crate::ScalFrag)
//! builder pattern lifted onto a [`NodeSpec`] of simulated devices.

use crate::report::PhaseTiming;
use scalfrag_autotune::TrainedPredictor;
use scalfrag_cluster::{
    build_cluster_plan, execute_cluster, ClusterOptions, ClusterRun, DeviceScheduler, ExecMode,
    FaultRecoveryPolicy, NodeSpec, ShardPolicy,
};
use scalfrag_exec::{run_plan_faulted, ExecOutcome};
use scalfrag_faults::FaultInjector;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_linalg::Mat;
use scalfrag_pipeline::KernelChoice;
use scalfrag_tensor::{CooTensor, TensorFeatures};

/// Feature toggles of the cluster stack — the multi-GPU ablation surface.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Pick the launch configuration with the trained predictor (per
    /// shard-sized tensor features); otherwise use `fixed_config` or the
    /// ParTI heuristic.
    pub adaptive_launch: bool,
    /// Launch the shared-memory tiled kernel instead of the atomic COO
    /// kernel.
    pub tiled_kernel: bool,
    /// How the tensor is cut into shards.
    pub shard_policy: ShardPolicy,
    /// How shards are placed on devices.
    pub scheduler: DeviceScheduler,
    /// Shard count override. `None` = `2 × num_devices`. Pin this
    /// explicitly when comparing node sizes: the numeric output is bitwise
    /// stable across device counts only for a fixed shard count.
    pub shards: Option<usize>,
    /// Pipeline segments per shard.
    pub segments_per_shard: usize,
    /// Streams per device.
    pub streams_per_device: usize,
    /// Launch configuration override used when `adaptive_launch` is off.
    pub fixed_config: Option<LaunchConfig>,
    /// Seed for predictor training.
    pub train_seed: u64,
    /// Non-zero tiers for predictor training (`None` = autotune defaults).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            adaptive_launch: true,
            tiled_kernel: true,
            shard_policy: ShardPolicy::SliceAligned,
            scheduler: DeviceScheduler::Lpt,
            shards: None,
            segments_per_shard: 2,
            streams_per_device: 2,
            fixed_config: None,
            train_seed: 0x5ca1,
            train_tiers: None,
        }
    }
}

/// Builder for [`ClusterScalFrag`].
pub struct ClusterScalFragBuilder {
    node: NodeSpec,
    config: ClusterConfig,
    predictor: Option<TrainedPredictor>,
}

impl ClusterScalFragBuilder {
    /// Sets the node (default: 2 × RTX 3090 with shared-host contention).
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.node = node;
        self
    }

    /// Enables/disables the adaptive launching strategy.
    pub fn adaptive_launch(mut self, on: bool) -> Self {
        self.config.adaptive_launch = on;
        self
    }

    /// Enables/disables the tiled kernel.
    pub fn tiled_kernel(mut self, on: bool) -> Self {
        self.config.tiled_kernel = on;
        self
    }

    /// Sets the shard policy.
    pub fn shard_policy(mut self, p: ShardPolicy) -> Self {
        self.config.shard_policy = p;
        self
    }

    /// Sets the device scheduler.
    pub fn scheduler(mut self, s: DeviceScheduler) -> Self {
        self.config.scheduler = s;
        self
    }

    /// Pins the shard count (required for bitwise-stable comparisons
    /// across different device counts).
    pub fn shards(mut self, n: usize) -> Self {
        self.config.shards = Some(n);
        self
    }

    /// Sets pipeline segments per shard.
    pub fn segments(mut self, n: usize) -> Self {
        self.config.segments_per_shard = n;
        self
    }

    /// Sets streams per device.
    pub fn streams(mut self, n: usize) -> Self {
        self.config.streams_per_device = n;
        self
    }

    /// Overrides the nnz tiers used to train the launch predictor.
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.train_tiers = Some(tiers);
        self
    }

    /// Pins a fixed launch configuration (implies `adaptive_launch(false)`).
    pub fn fixed_config(mut self, c: LaunchConfig) -> Self {
        self.config.fixed_config = Some(c);
        self.config.adaptive_launch = false;
        self
    }

    /// Shares an already-created [`TrainedPredictor`] handle instead of
    /// training privately (see [`crate::ScalFragBuilder::predictor`]).
    pub fn predictor(mut self, handle: TrainedPredictor) -> Self {
        self.predictor = Some(handle);
        self
    }

    /// Finalises the framework instance.
    pub fn build(self) -> ClusterScalFrag {
        let predictor = self.predictor.unwrap_or_else(|| {
            // Train against the node's first device; the launch space is
            // shared by all devices in the node.
            TrainedPredictor::train_once(
                &self.node.devices[0],
                self.config.train_seed,
                self.config.train_tiers.clone(),
            )
        });
        ClusterScalFrag { node: self.node, config: self.config, predictor }
    }
}

/// The multi-GPU ScalFrag framework: shard → schedule → per-device
/// pipeline → reduce, behind the same builder/report surface as the
/// single-GPU [`ScalFrag`](crate::ScalFrag).
pub struct ClusterScalFrag {
    node: NodeSpec,
    config: ClusterConfig,
    predictor: TrainedPredictor,
}

impl ClusterScalFrag {
    /// Starts a builder with the defaults: 2 × RTX 3090 behind a shared
    /// host link, slice-aligned shards, LPT placement, everything on.
    pub fn builder() -> ClusterScalFragBuilder {
        ClusterScalFragBuilder {
            node: NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2),
            config: ClusterConfig::default(),
            predictor: None,
        }
    }

    /// The node model.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The shared trained-predictor handle.
    pub fn trained_predictor(&self) -> &TrainedPredictor {
        &self.predictor
    }

    /// Selects the launch configuration for `(tensor, mode)`.
    pub fn select_config(&self, tensor: &CooTensor, mode: usize, rank: u32) -> LaunchConfig {
        if self.config.adaptive_launch {
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            self.predictor.for_rank(rank).predict_from_features(&features)
        } else {
            self.config.fixed_config.unwrap_or_else(|| LaunchConfig::parti_default(tensor.nnz()))
        }
    }

    fn options(&self, cfg: LaunchConfig) -> ClusterOptions {
        let num_shards = self.config.shards.unwrap_or(2 * self.node.num_devices());
        ClusterOptions {
            kernel: if self.config.tiled_kernel {
                KernelChoice::Tiled
            } else {
                KernelChoice::CooAtomic
            },
            policy: self.config.shard_policy,
            scheduler: self.config.scheduler,
            num_shards,
            segments_per_shard: self.config.segments_per_shard,
            streams_per_device: self.config.streams_per_device,
            config: cfg,
        }
    }

    /// Runs one end-to-end multi-device MTTKRP (functional).
    pub fn mttkrp(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
    ) -> ClusterMttkrpReport {
        self.run(tensor, factors, mode, true)
    }

    /// Timing-only variant for benchmark sweeps.
    pub fn mttkrp_dry(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
    ) -> ClusterMttkrpReport {
        self.run(tensor, factors, mode, false)
    }

    /// Runs one multi-device MTTKRP under injected faults, recovering per
    /// `policy` (segment retries, transient-outage waits and — in
    /// re-shard mode — placement of a dead device's shards onto the
    /// survivors). When the run completes fully, the output is bitwise
    /// identical to [`ClusterScalFrag::mttkrp`] on the same inputs.
    pub fn mttkrp_resilient(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        injector: &mut FaultInjector,
        policy: &FaultRecoveryPolicy,
    ) -> ResilientClusterMttkrpReport {
        let rank = factors.rank();
        let cfg = self.select_config(tensor, mode, rank as u32);
        let opts = self.options(cfg);
        let stats = scalfrag_kernels::SegmentStats::compute(tensor, mode);
        let plan = build_cluster_plan(&self.node, tensor, factors, mode, &opts);
        let run = run_plan_faulted(&plan, ExecMode::Functional, injector, policy);
        let report = ClusterMttkrpReport {
            mode,
            rank,
            config: opts.kernel.full_config(cfg, rank as u32),
            num_shards: plan.shards.len(),
            per_device: run.device_timelines.iter().map(PhaseTiming::from_timeline).collect(),
            device_names: plan.devices.iter().map(|d| d.name).collect(),
            assignments: run.device_shards.clone(),
            reduction_s: run.reduction_s,
            total_s: run.makespan(),
            flops: stats.flops(rank as u32),
            output: run.output.clone(),
        };
        ResilientClusterMttkrpReport::new(report, &run)
    }

    fn run(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        functional: bool,
    ) -> ClusterMttkrpReport {
        let rank = factors.rank();
        let cfg = self.select_config(tensor, mode, rank as u32);
        let opts = self.options(cfg);
        let stats = scalfrag_kernels::SegmentStats::compute(tensor, mode);
        let exec = if functional { ExecMode::Functional } else { ExecMode::Dry };
        let run = execute_cluster(&self.node, tensor, factors, mode, &opts, exec);
        ClusterMttkrpReport::new(
            &run,
            mode,
            rank,
            opts.kernel.full_config(cfg, rank as u32),
            stats.flops(rank as u32),
        )
    }
}

/// The result of one multi-device MTTKRP.
#[derive(Clone, Debug)]
pub struct ClusterMttkrpReport {
    /// Target mode.
    pub mode: usize,
    /// CPD rank.
    pub rank: usize,
    /// The launch configuration the kernels ran with.
    pub config: LaunchConfig,
    /// Number of shards the tensor was cut into.
    pub num_shards: usize,
    /// Per-device phase breakdowns, index-aligned with the node's device
    /// list (idle devices report zeros).
    pub per_device: Vec<PhaseTiming>,
    /// Device names, index-aligned with `per_device`.
    pub device_names: Vec<&'static str>,
    /// Global shard indices each device executed.
    pub assignments: Vec<Vec<usize>>,
    /// Simulated seconds of the cross-shard reduction stage.
    pub reduction_s: f64,
    /// Cluster makespan: slowest device + reduction (s).
    pub total_s: f64,
    /// MTTKRP FLOPs.
    pub flops: u64,
    /// The MTTKRP output (zeros for dry runs).
    pub output: Mat,
}

impl ClusterMttkrpReport {
    fn new(run: &ClusterRun, mode: usize, rank: usize, config: LaunchConfig, flops: u64) -> Self {
        Self {
            mode,
            rank,
            config,
            num_shards: run.num_shards,
            per_device: run
                .devices
                .iter()
                .map(|d| PhaseTiming::from_timeline(&d.timeline))
                .collect(),
            device_names: run.devices.iter().map(|d| d.device_name).collect(),
            assignments: run.devices.iter().map(|d| d.shard_indices.clone()).collect(),
            reduction_s: run.reduction_s,
            total_s: run.makespan(),
            flops,
            output: run.output.clone(),
        }
    }

    /// Number of devices in the node (including idle ones).
    pub fn num_devices(&self) -> usize {
        self.per_device.len()
    }

    /// End-to-end achieved GFLOP/s across the node.
    pub fn e2e_gflops(&self) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.total_s / 1e9
        }
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let busiest = self.per_device.iter().map(|p| p.total_s).fold(0.0, f64::max);
        format!(
            "cluster   mode-{} {} gpus={} shards={} | busiest {:.3}ms reduce {:.3}ms | total {:.3}ms ({:.1} GF/s e2e)",
            self.mode,
            self.config,
            self.num_devices(),
            self.num_shards,
            busiest * 1e3,
            self.reduction_s * 1e3,
            self.total_s * 1e3,
            self.e2e_gflops(),
        )
    }
}

/// A [`ClusterMttkrpReport`] plus the fault-recovery bookkeeping of the
/// run that produced it.
#[derive(Clone, Debug)]
pub struct ResilientClusterMttkrpReport {
    /// The usual cluster report (output, per-device timings, makespan).
    pub report: ClusterMttkrpReport,
    /// Segments permanently lost (0 when recovery succeeded everywhere).
    pub failed_segments: usize,
    /// Segments that completed somewhere.
    pub completed_segments: usize,
    /// Segments rescued by re-sharding onto a surviving device.
    pub replaced_segments: usize,
    /// Total segment retry attempts beyond the first.
    pub retries: usize,
    /// Devices that died permanently during the run.
    pub dead_devices: Vec<usize>,
}

impl ResilientClusterMttkrpReport {
    fn new(report: ClusterMttkrpReport, run: &ExecOutcome) -> Self {
        Self {
            report,
            failed_segments: run.lost_items(),
            completed_segments: run.completed_items,
            replaced_segments: run.replaced_items,
            retries: run.retries,
            dead_devices: run.dead_devices.clone(),
        }
    }

    /// True when every segment completed despite the faults.
    pub fn all_complete(&self) -> bool {
        self.failed_segments == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_kernels::reference::mttkrp_seq;

    fn small() -> (CooTensor, FactorSet) {
        let dims = [150u32, 100, 80];
        let t = scalfrag_tensor::gen::zipf_slices(&dims, 8_000, 0.9, 51);
        let f = FactorSet::random(&dims, 16, 52);
        (t, f)
    }

    #[test]
    fn cluster_facade_matches_reference() {
        let (t, f) = small();
        let ctx = ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).build();
        let r = ctx.mttkrp(&t, &f, 0);
        let expect = mttkrp_seq(&t, &f, 0);
        assert!(r.output.max_abs_diff(&expect) < 1e-2, "diff {}", r.output.max_abs_diff(&expect));
        assert_eq!(r.num_devices(), 2);
        assert_eq!(r.num_shards, 4, "default shards = 2 × devices");
        assert!(r.total_s > 0.0);
        assert_eq!(r.reduction_s, 0.0, "slice-aligned default reduces for free");
    }

    #[test]
    fn more_devices_cut_the_makespan() {
        let (t, f) = small();
        let run = |n: usize| {
            ClusterScalFrag::builder()
                .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), n))
                .fixed_config(LaunchConfig::new(1024, 256))
                .shards(4)
                .build()
                .mttkrp_dry(&t, &f, 0)
                .total_s
        };
        let one = run(1);
        let two = run(2);
        assert!(two < one, "2 GPUs ({two}s) must beat 1 GPU ({one}s)");
    }

    #[test]
    fn adaptive_launch_trains_once_per_rank() {
        let (t, f) = small();
        let ctx = ClusterScalFrag::builder().train_tiers(vec![3_000, 12_000]).build();
        let c1 = ctx.select_config(&t, 0, f.rank() as u32);
        let c2 = ctx.select_config(&t, 0, f.rank() as u32);
        assert_eq!(c1, c2, "cached predictor must be deterministic");
        assert!(c1.validate(&ctx.node().devices[0]).is_ok());
    }

    #[test]
    fn resilient_facade_recovers_a_dead_device_bit_exactly() {
        use scalfrag_faults::{FaultKind, FaultPlan, FaultTrigger};
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).shards(4).build();
        let clean = ctx.mttkrp(&t, &f, 0);
        let mut inj = FaultInjector::new(FaultPlan::new().fault(
            1,
            FaultTrigger::AtOp(2),
            FaultKind::DeviceFail { down_s: None },
        ));
        let r = ctx.mttkrp_resilient(&t, &f, 0, &mut inj, &FaultRecoveryPolicy::retry_reshard());
        assert!(r.all_complete(), "re-sharding must rescue the dead device's shards");
        assert_eq!(r.dead_devices, vec![1]);
        assert!(r.replaced_segments > 0);
        let same = clean
            .output
            .as_slice()
            .iter()
            .zip(r.report.output.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "recovered output must be bitwise identical to the fault-free run");
    }

    #[test]
    fn report_summary_mentions_the_node_shape() {
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(512, 256)).shards(3).build();
        let r = ctx.mttkrp_dry(&t, &f, 1);
        let s = r.summary();
        assert!(s.contains("gpus=2") && s.contains("shards=3"), "{s}");
    }
}
