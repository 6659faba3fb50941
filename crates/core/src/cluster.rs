//! The multi-GPU ScalFrag facade: the [`ScalFrag`](crate::ScalFrag)
//! builder pattern lifted onto a [`NodeSpec`] of simulated devices.

use crate::report::PhaseTiming;
use scalfrag_autotune::{TrainedPredictor, TRAIN_SEED};
use scalfrag_cluster::{
    build_cluster_plan, ClusterOptions, DeviceScheduler, ExecMode, NodeSpec, ShardPolicy,
};
use scalfrag_exec::{run_plan, ExecOutcome, Plan};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_linalg::Mat;
use scalfrag_pipeline::KernelChoice;
use scalfrag_tensor::{CooTensor, TensorFeatures};

/// Feature toggles of the cluster stack — the multi-GPU ablation surface.
/// Every shard runs as 2 pipelined segments on 2 worker streams per
/// device, as every [`build_cluster_plan`] does.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
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
    /// Fixed launch configuration. `None` = the trained predictor picks
    /// one from the tensor's features (adaptive launching, §IV-B).
    pub fixed_config: Option<LaunchConfig>,
    /// Non-zero tiers for predictor training (`None` = autotune defaults).
    pub train_tiers: Option<Vec<usize>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            tiled_kernel: true,
            shard_policy: ShardPolicy::SliceAligned,
            scheduler: DeviceScheduler::Lpt,
            shards: None,
            fixed_config: None,
            train_tiers: None,
        }
    }
}

/// Builder for [`ClusterScalFrag`].
pub struct ClusterScalFragBuilder {
    node: NodeSpec,
    config: ClusterConfig,
}

impl ClusterScalFragBuilder {
    /// Sets the node (default: 2 × RTX 3090 with shared-host contention).
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.node = node;
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

    /// Overrides the nnz tiers used to train the launch predictor.
    pub fn train_tiers(mut self, tiers: Vec<usize>) -> Self {
        self.config.train_tiers = Some(tiers);
        self
    }

    /// Pins a fixed launch configuration (turns adaptive launching off).
    pub fn fixed_config(mut self, c: LaunchConfig) -> Self {
        self.config.fixed_config = Some(c);
        self
    }

    /// Finalises the framework instance.
    pub fn build(self) -> ClusterScalFrag {
        // Train against the node's first device; the launch space is
        // shared by all devices in the node.
        let predictor = TrainedPredictor::train_once(
            &self.node.devices[0],
            TRAIN_SEED,
            self.config.train_tiers.clone(),
        );
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
        self.config.fixed_config.unwrap_or_else(|| {
            let features = TensorFeatures::extract(tensor, mode).to_vec();
            self.predictor.for_rank(rank).predict_from_features(&features)
        })
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
            config: cfg,
        }
    }

    /// The plan one multi-device MTTKRP runs: the cluster schedule under
    /// the active configuration, with the launch configuration
    /// [`ClusterScalFrag::select_config`] picks.
    pub fn plan(&self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Plan {
        let cfg = self.select_config(tensor, mode, factors.rank() as u32);
        build_cluster_plan(&self.node, tensor, factors, mode, &self.options(cfg))
    }

    /// Runs one end-to-end multi-device MTTKRP (functional).
    pub fn mttkrp(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
    ) -> ClusterMttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Functional)
    }

    /// Timing-only variant for benchmark sweeps.
    pub fn mttkrp_dry(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
    ) -> ClusterMttkrpReport {
        self.run(tensor, factors, mode, ExecMode::Dry)
    }

    fn run(
        &self,
        tensor: &CooTensor,
        factors: &FactorSet,
        mode: usize,
        exec: ExecMode,
    ) -> ClusterMttkrpReport {
        let plan = self.plan(tensor, factors, mode);
        ClusterMttkrpReport::from_run(&plan, run_plan(&plan, exec))
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
    /// Global shard indices each device executed.
    pub assignments: Vec<Vec<usize>>,
    /// Simulated seconds of the cross-shard reduction stage.
    pub reduction_s: f64,
    /// Cluster makespan: slowest device + reduction (s).
    pub total_s: f64,
    /// The MTTKRP output (zeros for dry runs).
    pub output: Mat,
}

impl ClusterMttkrpReport {
    /// The report of one run of a cluster `plan`, in any run mode: the
    /// node shape comes from the plan; the timings, the shards each
    /// device completed and the output (moved, not copied) from the run.
    pub(crate) fn from_run(plan: &Plan, run: ExecOutcome) -> Self {
        Self {
            mode: plan.mode,
            rank: plan.rank,
            config: plan.kernel.full_config(plan.config, plan.rank as u32),
            num_shards: plan.shards.len(),
            per_device: run.device_timelines.iter().map(PhaseTiming::from_timeline).collect(),
            total_s: run.makespan(),
            reduction_s: run.reduction_s,
            assignments: run.device_shards,
            output: run.output,
        }
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
        assert_eq!(r.per_device.len(), 2);
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
        use scalfrag_cluster::FaultRecoveryPolicy;
        use scalfrag_exec::run_plan_faulted;
        use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
        let (t, f) = small();
        let ctx =
            ClusterScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).shards(4).build();
        let clean = ctx.mttkrp(&t, &f, 0);
        let mut inj = FaultInjector::new(FaultPlan::new().fault(
            1,
            FaultTrigger::AtOp(2),
            FaultKind::DeviceFail { down_s: None },
        ));
        let r = run_plan_faulted(
            &ctx.plan(&t, &f, 0),
            ExecMode::Functional,
            &mut inj,
            &FaultRecoveryPolicy::retry_reshard(),
        );
        assert_eq!(r.lost_items(), 0, "re-sharding must rescue the dead device's shards");
        assert_eq!(r.dead_devices, vec![1]);
        assert!(r.replaced_items > 0);
        let same = clean
            .output
            .as_slice()
            .iter()
            .zip(r.output.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "recovered output must be bitwise identical to the fault-free run");
    }
}
