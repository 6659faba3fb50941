//! Cluster plans under fault injection: per-op retry, outage waits and
//! re-placement of a dead device's units onto survivors through the
//! plan's placement policy. Three recovery policies form the ablation
//! surface of the `fault_storm` bench:
//!
//! * **No-retry** — any fault loses the affected work; any outage
//!   abandons the device.
//! * **Retry** — ops retry in place with exponential backoff; transient
//!   outages are waited out. Work on a permanently dead device is lost.
//! * **Retry + re-shard** — additionally, a dead device's unlaunched
//!   units move onto the survivors.

use scalfrag_cluster::{
    build_cluster_plan, execute_cluster, ClusterOptions, ExecMode, FaultRecoveryPolicy, NodeSpec,
    ShardPolicy,
};
use scalfrag_exec::{run_plan_faulted, ExecOutcome, KernelChoice};
use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_linalg::Mat;
use scalfrag_tensor::CooTensor;

fn setup() -> (CooTensor, FactorSet) {
    let dims = [120u32, 90, 70];
    let t = scalfrag_tensor::gen::zipf_slices(&dims, 9_000, 0.8, 41);
    let f = FactorSet::random(&dims, 8, 42);
    (t, f)
}

fn opts() -> ClusterOptions {
    let mut o = ClusterOptions::new(LaunchConfig::new(512, 256), 4);
    o.kernel = KernelChoice::Tiled;
    o
}

fn node() -> NodeSpec {
    NodeSpec::homogeneous(DeviceSpec::rtx3090(), 3)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn faulted(
    o: &ClusterOptions,
    faults: FaultPlan,
    policy: FaultRecoveryPolicy,
) -> (ExecOutcome, FaultInjector) {
    let (t, f) = setup();
    let plan = build_cluster_plan(&node(), &t, &f, 0, o);
    let mut inj = FaultInjector::new(faults);
    let run = run_plan_faulted(&plan, ExecMode::Functional, &mut inj, &policy);
    (run, inj)
}

fn clean_output(o: &ClusterOptions) -> Mat {
    let (t, f) = setup();
    execute_cluster(&node(), &t, &f, 0, o, ExecMode::Functional).output
}

fn dead_at_op2(device: usize) -> FaultPlan {
    FaultPlan::new().fault(device, FaultTrigger::AtOp(2), FaultKind::DeviceFail { down_s: None })
}

#[test]
fn fault_free_faulted_run_is_bit_identical_to_cluster() {
    let (t, f) = setup();
    let base = execute_cluster(&node(), &t, &f, 0, &opts(), ExecMode::Functional);
    let (run, _) = faulted(&opts(), FaultPlan::new(), FaultRecoveryPolicy::retry_reshard());
    assert!(run.all_complete());
    assert_eq!(run.retries, 0);
    assert!(run.dead_devices.is_empty());
    assert_eq!(bits(&base.output), bits(&run.output), "clean run must be bit-identical");
    // Detection is not free: the checksum scans show up in the clock.
    assert!(run.makespan() >= base.makespan());
}

#[test]
fn permanent_death_is_recovered_by_resharding() {
    let (run, inj) = faulted(&opts(), dead_at_op2(1), FaultRecoveryPolicy::retry_reshard());
    assert!(run.all_complete(), "re-sharding must rescue the dead device's work");
    assert_eq!(run.dead_devices, vec![1]);
    assert!(run.replaced_items > 0, "rescued segments must be accounted");
    assert!(inj.log().recoveries() > 0);
    assert_eq!(
        bits(&clean_output(&opts())),
        bits(&run.output),
        "recovered run must be bit-identical to fault-free"
    );
}

#[test]
fn without_resharding_a_dead_device_loses_work() {
    for policy in [FaultRecoveryPolicy::retry(), FaultRecoveryPolicy::no_retry()] {
        let (run, _) = faulted(&opts(), dead_at_op2(1), policy);
        assert!(run.lost_items() > 0, "{policy:?} must demonstrably lose work");
        assert_eq!(run.replaced_items, 0);
    }
}

#[test]
fn transient_outage_is_waited_out_in_place() {
    let outage = FaultPlan::new().fault(
        1,
        FaultTrigger::AtOp(2),
        FaultKind::DeviceFail { down_s: Some(2e-3) },
    );
    let (run, _) = faulted(&opts(), outage, FaultRecoveryPolicy::retry());
    assert!(run.all_complete(), "transient downtime must be recoverable in place");
    assert!(run.dead_devices.is_empty());
    assert!(run.retries > 0);
    assert_eq!(bits(&clean_output(&opts())), bits(&run.output));
    assert!(run.device_timelines[1].makespan() >= 2e-3, "the outage must show in the clock");
}

#[test]
fn device_down_at_start_is_excluded_from_placement() {
    let down = FaultPlan::new().fault(
        0,
        FaultTrigger::AtTime(0.0),
        FaultKind::DeviceFail { down_s: None },
    );
    let (run, _) = faulted(&opts(), down, FaultRecoveryPolicy::retry());
    assert!(run.all_complete(), "survivors must absorb the full tensor");
    assert_eq!(run.dead_devices, vec![0]);
    assert!(run.device_shards[0].is_empty());
    assert_eq!(
        bits(&clean_output(&opts())),
        bits(&run.output),
        "placement is timing-only: fewer devices, same bits"
    );
}

#[test]
fn straggler_slows_the_device_but_keeps_numerics() {
    let (clean, _) = faulted(&opts(), FaultPlan::new(), FaultRecoveryPolicy::retry());
    let slow =
        FaultPlan::new().fault(0, FaultTrigger::AtTime(0.0), FaultKind::Straggler { derate: 4.0 });
    let (run, _) = faulted(&opts(), slow, FaultRecoveryPolicy::retry());
    assert!(run.all_complete());
    assert_eq!(bits(&clean.output), bits(&run.output), "slowdown must not touch numerics");
    assert!(
        run.device_timelines[0].makespan() > clean.device_timelines[0].makespan(),
        "a 4x straggler must be visibly slower"
    );
}

#[test]
fn nnz_balanced_recovery_is_bit_identical_too() {
    // Row-straddling shards exercise the FoldShards axpy path under
    // recovery: rescued units must accumulate in the fault-free order.
    let mut o = opts();
    o.policy = ShardPolicy::NnzBalanced;
    let (run, _) = faulted(&o, dead_at_op2(1), FaultRecoveryPolicy::retry_reshard());
    assert!(run.all_complete());
    assert_eq!(bits(&clean_output(&o)), bits(&run.output));
}
