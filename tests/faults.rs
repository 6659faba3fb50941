//! End-to-end fault-injection properties (DESIGN.md §9): a seeded
//! *recoverable* fault storm, executed under the full recovery stack
//! (retries + shard re-placement), must produce bit-for-bit the same
//! MTTKRP output as the fault-free run — and replaying the same plan must
//! produce the identical fault log.

use proptest::prelude::*;
use scalfrag::cluster::{build_cluster_plan, execute_cluster, ClusterOptions};
use scalfrag::faults::mat_checksum;
use scalfrag::kernels::{
    cpd_als, cpd_als_checkpointed, CheckpointConfig, CpuSequentialBackend, ScriptedFailureBackend,
};
use scalfrag::prelude::*;

const DEVICES: usize = 3;

fn node() -> NodeSpec {
    NodeSpec::homogeneous(DeviceSpec::rtx3090(), DEVICES)
}

fn opts() -> ClusterOptions {
    ClusterOptions::new(LaunchConfig::new(512, 256), 4)
}

fn workload(seed: u64) -> (CooTensor, FactorSet) {
    let dims = [96u32, 80, 64];
    let tensor = scalfrag::tensor::gen::zipf_slices(&dims, 8_000, 0.9, seed);
    let factors = FactorSet::random(&dims, 8, seed ^ 1);
    (tensor, factors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: any seeded recoverable storm, given enough
    /// retry budget, recovers to the fault-free bits; and the same seed
    /// replays to the identical fault log.
    #[test]
    fn recoverable_storms_recover_bit_exactly(
        seed in any::<u64>(),
        data_seed in any::<u64>(),
        mtbf in 3u64..10,
    ) {
        let (tensor, factors) = workload(data_seed);
        let clean = execute_cluster(&node(), &tensor, &factors, 0, &opts(), ExecMode::Functional);

        let plan = FaultPlan::seeded_storm(seed, DEVICES, mtbf, 24, /* recoverable_only */ true);
        // Every scheduled fault costs at most one attempt, so this budget
        // can never exhaust on a recoverable plan.
        let policy = FaultRecoveryPolicy::retry_reshard()
            .with_retry(RetryPolicy::with_attempts(plan.len() as u32 + 4));

        let cluster = build_cluster_plan(&node(), &tensor, &factors, 0, &opts());
        let mut inj = FaultInjector::new(plan.clone());
        let run = run_plan_faulted(&cluster, ExecMode::Functional, &mut inj, &policy);
        prop_assert!(
            run.all_complete(),
            "seed {seed} mtbf {mtbf}: {} units lost under full recovery",
            run.lost_items()
        );
        prop_assert_eq!(
            mat_checksum(&run.output),
            mat_checksum(&clean.output),
            "seed {} mtbf {}: recovered output must match the fault-free bits",
            seed,
            mtbf
        );

        // Replay: same plan, fresh injector -> identical log and bits.
        let mut replay = FaultInjector::new(plan);
        let rerun = run_plan_faulted(&cluster, ExecMode::Functional, &mut replay, &policy);
        prop_assert_eq!(inj.log().fingerprint(), replay.log().fingerprint());
        prop_assert_eq!(mat_checksum(&run.output), mat_checksum(&rerun.output));
    }

    /// Same seed, same plan — before any execution consumes it.
    #[test]
    fn seeded_plans_are_reproducible(seed in any::<u64>(), mtbf in 2u64..16) {
        let a = FaultPlan::seeded_storm(seed, DEVICES, mtbf, 32, true);
        let b = FaultPlan::seeded_storm(seed, DEVICES, mtbf, 32, true);
        prop_assert_eq!(a, b);
    }
}

/// An *unrecoverable* storm under the ablation baseline demonstrably
/// loses work — the contrast that makes the recovery property meaningful.
#[test]
fn no_retry_baseline_loses_work_under_a_storm() {
    let (tensor, factors) = workload(11);
    let plan = FaultPlan::new()
        .fault(1, FaultTrigger::AtOp(2), FaultKind::DeviceFail { down_s: None })
        .fault(0, FaultTrigger::AtOp(3), FaultKind::TransferCorruption);
    let mut inj = FaultInjector::new(plan);
    let cluster = build_cluster_plan(&node(), &tensor, &factors, 0, &opts());
    let run = run_plan_faulted(
        &cluster,
        ExecMode::Functional,
        &mut inj,
        &FaultRecoveryPolicy::no_retry(),
    );
    assert!(run.lost_items() > 0, "no-retry must lose the dead device's segments");
    assert_eq!(run.dead_devices, vec![1]);
}

/// The serving layer rides out a transient outage via requeue: every job
/// completes, some on a second attempt, and the report is reproducible.
#[test]
fn serving_requeues_through_a_transient_outage_deterministically() {
    use scalfrag::serve::{synthesize, DevicePool, ScalFragServer, WorkloadSpec};
    let jobs = synthesize(&WorkloadSpec { jobs: 24, base_nnz: 2_000, ..Default::default() });
    let server = ScalFragServer::builder()
        .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), 2))
        .train_tiers(vec![2_000, 8_000])
        .max_retries(3)
        .build();
    let plan = FaultPlan::new().fault(
        0,
        FaultTrigger::AtTime(2e-3),
        FaultKind::DeviceFail { down_s: Some(5e-3) },
    );
    let run = |jobs: Vec<MttkrpJob>| {
        let mut inj = FaultInjector::new(plan.clone());
        let report = server.run_with_faults(jobs, &mut inj);
        (report.fingerprint(), inj.log().fingerprint(), report.completed.len())
    };
    let (fp_a, log_a, done_a) = run(jobs.clone());
    let (fp_b, log_b, done_b) = run(jobs);
    assert_eq!(done_a, 24, "retries must carry every job through the outage");
    assert_eq!((fp_a, log_a), (fp_b, log_b), "faulted serving must be bit-reproducible");
    assert_eq!(done_a, done_b);
}

/// Checkpointed CPD-ALS rolls back through scripted kernel aborts and
/// still lands on the exact fault-free trajectory.
#[test]
fn checkpointed_cpd_recovers_the_fault_free_trajectory() {
    let (tensor, _) = workload(23);
    let opts = scalfrag::kernels::CpdOptions {
        rank: 6,
        max_iters: 8,
        tol: 0.0,
        seed: 5,
        ..Default::default()
    };
    let clean = cpd_als(&tensor, &opts, &mut CpuSequentialBackend);
    let mut backend = ScriptedFailureBackend::new(CpuSequentialBackend, vec![7, 16]);
    let ckpt = cpd_als_checkpointed(&tensor, &opts, &CheckpointConfig::default(), &mut backend)
        .expect("two scripted aborts fit the rollback budget");
    assert_eq!(ckpt.rollbacks, 2);
    for mode in 0..tensor.dims().len() {
        assert_eq!(
            mat_checksum(clean.factors.get(mode)),
            mat_checksum(ckpt.result.factors.get(mode)),
            "rollback must reproduce the clean bits for mode {mode}"
        );
    }
}

fn registry_tensor() -> (CooTensor, FactorSet) {
    let dims = [80u32, 56, 40];
    let tensor = scalfrag::tensor::gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    (tensor, factors)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every registered builder, raw and after the default optimizer
/// pipeline, runs through the one faulted loop: a seeded recoverable
/// storm under the full recovery stack completes every unit on the
/// fault-free bits (per-job outputs included) and replays to the same
/// fault log, and an inert injector leaves the memory accounting of the
/// fault-free run untouched.
#[test]
fn every_builder_recovers_a_storm_bit_exactly_raw_and_optimized() {
    let (tensor, factors) = registry_tensor();
    let builders = scalfrag::conformance::all_plan_builders();
    assert_eq!(builders.len(), 11);
    for builder in &builders {
        let raw = (builder.build)(&tensor, &factors, 0);
        for plan in [scalfrag::opt::optimize_default(&raw), raw] {
            let clean = run_plan(&plan, ExecMode::Functional);
            let policy = FaultRecoveryPolicy::retry_reshard();
            let mut inert = FaultInjector::inert();
            let quiet = run_plan_faulted(&plan, ExecMode::Functional, &mut inert, &policy);
            assert_eq!(quiet.mem, clean.mem, "{}: inert injector, same memory", plan.name);
            let mut injected = 0;
            for seed in 0..3u64 {
                let storm = FaultPlan::seeded_storm(seed, plan.devices.len(), 6, 32, true);
                let run = || {
                    let mut inj = FaultInjector::new(storm.clone());
                    let out = run_plan_faulted(&plan, ExecMode::Functional, &mut inj, &policy);
                    (out, inj.log().fingerprint(), inj.log().injected())
                };
                let ((out, log, fired), (_, replay_log, _)) = (run(), run());
                injected += fired;
                let name = format!("{} seed {seed} ({})", plan.name, plan.meta.optimizer);
                assert!(out.all_complete(), "{name}: {} items lost", out.lost_items());
                assert_eq!(bits(&out.output), bits(&clean.output), "{name}: output bits");
                assert_eq!(out.shard_outputs.len(), clean.shard_outputs.len(), "{name}");
                for (a, b) in out.shard_outputs.iter().zip(&clean.shard_outputs) {
                    assert_eq!(bits(a), bits(b), "{name}: per-job output bits");
                }
                assert_eq!(log, replay_log, "{name}: the storm must replay to the same log");
            }
            assert!(injected > 0, "{}: the storms must actually fire", plan.name);
        }
    }
}

/// A permanent failure of device 0 at its first op, without retries,
/// loses work on every builder — reported, not panicked.
#[test]
fn every_builder_reports_lost_work_under_no_retry() {
    let (tensor, factors) = registry_tensor();
    for builder in scalfrag::conformance::all_plan_builders() {
        let raw = (builder.build)(&tensor, &factors, 0);
        for plan in [scalfrag::opt::optimize_default(&raw), raw] {
            let dead = FaultPlan::new().fault(
                0,
                FaultTrigger::AtOp(0),
                FaultKind::DeviceFail { down_s: None },
            );
            let mut inj = FaultInjector::new(dead);
            let policy = FaultRecoveryPolicy::no_retry();
            let run = run_plan_faulted(&plan, ExecMode::Functional, &mut inj, &policy);
            assert!(!run.all_complete(), "{}: a dead device 0 must lose work", plan.name);
        }
    }
}
