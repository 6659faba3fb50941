//! Fault-storm benchmark: MTBF sweep × recovery-policy ablation for the
//! faulted multi-GPU MTTKRP plan, plus a faulted serving-layer demo.
//!
//! Three recovery policies run the same seeded fault storms on a 3-GPU
//! node:
//!
//! * **no-retry** — faults fail ops outright (the lost-work baseline);
//! * **retry** — op-level retries with exponential backoff ride out
//!   corruption, aborts and transient outages, but a dead device's shards
//!   stay lost;
//! * **retry+re-shard** — retries plus mid-execution re-placement of a
//!   dead device's shards onto the survivors.
//!
//! Because partial outputs fold in shard-index order, any run that
//! completes every unit is *bitwise* identical to the fault-free run —
//! the `ok` column checks exactly that.
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin
//! fault_storm`. CI runs `fault_storm --smoke`: a fixed script (1
//! transient device failure + 1 straggler + 2 transfer corruptions) where
//! retry+re-shard must complete everything bit-exactly, no-retry must
//! demonstrably lose work, and the fault log must be deterministic.

use scalfrag_cluster::{
    build_cluster_plan, ClusterOptions, ExecMode, FaultRecoveryPolicy, NodeSpec,
};
use scalfrag_exec::{run_plan, run_plan_faulted, ExecOutcome};
use scalfrag_faults::{mat_checksum, FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_serve::{synthesize, DevicePool, ScalFragServer, WorkloadSpec};
use scalfrag_tensor::{gen, CooTensor};

const DEVICES: usize = 3;
const RANK: usize = 16;

fn node() -> NodeSpec {
    NodeSpec::homogeneous(DeviceSpec::rtx3090(), DEVICES)
}

fn workload() -> (CooTensor, FactorSet) {
    let dims = [160u32, 120, 90];
    let tensor = gen::zipf_slices(&dims, 24_000, 0.9, 71);
    let factors = FactorSet::random(&dims, RANK, 72);
    (tensor, factors)
}

fn opts() -> ClusterOptions {
    ClusterOptions::new(LaunchConfig::new(512, 256), 6)
}

/// The fixed smoke script: one transient device failure, one straggler,
/// two transfer corruptions.
fn smoke_plan() -> FaultPlan {
    FaultPlan::new()
        .fault(1, FaultTrigger::AtOp(3), FaultKind::DeviceFail { down_s: Some(2e-3) })
        .fault(2, FaultTrigger::AtTime(0.0), FaultKind::Straggler { derate: 2.0 })
        .fault(0, FaultTrigger::AtOp(2), FaultKind::TransferCorruption)
        .fault(0, FaultTrigger::AtOp(5), FaultKind::TransferCorruption)
}

struct PolicyRow {
    name: &'static str,
    run: ExecOutcome,
    log_fingerprint: u64,
}

fn run_policies(tensor: &CooTensor, factors: &FactorSet, plan: &FaultPlan) -> Vec<PolicyRow> {
    let policies = [
        ("no-retry", FaultRecoveryPolicy::no_retry()),
        ("retry", FaultRecoveryPolicy::retry()),
        ("retry+re-shard", FaultRecoveryPolicy::retry_reshard()),
    ];
    policies
        .into_iter()
        .map(|(name, policy)| {
            let mut inj = FaultInjector::new(plan.clone());
            let cluster = build_cluster_plan(&node(), tensor, factors, 0, &opts());
            let run = run_plan_faulted(&cluster, ExecMode::Functional, &mut inj, &policy);
            PolicyRow { name, run, log_fingerprint: inj.log().fingerprint() }
        })
        .collect()
}

fn print_table(rows: &[PolicyRow], clean_sum: u64) {
    println!(
        "  {:<16} {:>6} {:>6} {:>9} {:>8} {:>6} {:>11} {:>4}",
        "policy", "done", "lost", "replaced", "retries", "dead", "makespan", "ok"
    );
    for r in rows {
        println!(
            "  {:<16} {:>6} {:>6} {:>9} {:>8} {:>6} {:>9.3}ms {:>4}",
            r.name,
            r.run.completed_items,
            r.run.lost_items(),
            r.run.replaced_items,
            r.run.retries,
            r.run.dead_devices.len(),
            r.run.makespan() * 1e3,
            if mat_checksum(&r.run.output) == clean_sum { "yes" } else { "NO" },
        );
    }
}

fn smoke(tensor: &CooTensor, factors: &FactorSet, clean_sum: u64) {
    let rows = run_policies(tensor, factors, &smoke_plan());
    print_table(&rows, clean_sum);

    let no_retry = &rows[0];
    assert!(
        no_retry.run.lost_items() > 0,
        "smoke: the no-retry baseline must demonstrably lose work"
    );
    let reshard = &rows[2];
    assert!(
        reshard.run.all_complete(),
        "smoke: retry+re-shard must complete every unit ({} lost)",
        reshard.run.lost_items()
    );
    assert_eq!(
        mat_checksum(&reshard.run.output),
        clean_sum,
        "smoke: the recovered output must match the fault-free checksum"
    );

    // Determinism: the same plan replayed gives the same fault log and the
    // same recovered bits.
    let replay = run_policies(tensor, factors, &smoke_plan());
    for (a, b) in rows.iter().zip(&replay) {
        assert_eq!(
            a.log_fingerprint, b.log_fingerprint,
            "smoke: fault log must be deterministic for policy {}",
            a.name
        );
        assert_eq!(
            mat_checksum(&a.run.output),
            mat_checksum(&b.run.output),
            "smoke: outputs must be bit-reproducible for policy {}",
            a.name
        );
    }
    println!("\nsmoke OK: re-shard recovered bit-exactly, no-retry lost work, logs deterministic");
}

fn mtbf_sweep(tensor: &CooTensor, factors: &FactorSet, clean_sum: u64) {
    // Horizon sized to the polled-op count of a clean run: per device,
    // the factor upload, then 2 shards x (2 x (H2D + kernel) + D2H).
    for &mtbf in &[3u64, 6, 12, 24] {
        let plan = FaultPlan::seeded_storm(0xfa_17 ^ mtbf, DEVICES, mtbf, 16, true);
        println!("\nMTBF {mtbf} ops, {} scheduled faults (recoverable storm):", plan.len());
        let rows = run_policies(tensor, factors, &plan);
        print_table(&rows, clean_sum);
    }
}

fn serve_demo() {
    println!("\n--- faulted serving demo: transient outage + straggler, retries on ---");
    let jobs = synthesize(&WorkloadSpec {
        jobs: 40,
        shape_classes: 4,
        variants_per_class: 2,
        base_nnz: 3_000,
        ..Default::default()
    });
    let server = ScalFragServer::builder()
        .pool(DevicePool::homogeneous(DeviceSpec::rtx3090(), 2))
        .train_tiers(vec![3_000, 12_000])
        .max_retries(2)
        .build();
    let mut inj = FaultInjector::new(
        FaultPlan::new()
            .fault(0, FaultTrigger::AtTime(5e-3), FaultKind::DeviceFail { down_s: Some(1e-2) })
            .fault(1, FaultTrigger::AtTime(0.0), FaultKind::Straggler { derate: 1.5 }),
    );
    let report = server.run_with_faults(jobs, &mut inj);
    print!("{}", report.render());
    print!("{}", inj.log().render());
}

fn main() {
    let smoke_mode = std::env::args().any(|a| a == "--smoke");
    let (tensor, factors) = workload();
    let plan = build_cluster_plan(&node(), &tensor, &factors, 0, &opts());
    let clean = run_plan(&plan, ExecMode::Functional);
    let clean_sum = mat_checksum(&clean.output);
    println!(
        "ScalFrag fault storm: {} nnz, rank {RANK}, {DEVICES}x {} | fault-free makespan {:.3}ms, checksum {clean_sum:#018x}\n",
        tensor.nnz(),
        DeviceSpec::rtx3090().name,
        clean.makespan() * 1e3,
    );

    println!("fixed smoke script (1 transient fail + 1 straggler + 2 corruptions):");
    smoke(&tensor, &factors, clean_sum);

    if smoke_mode {
        return;
    }

    mtbf_sweep(&tensor, &factors, clean_sum);
    serve_demo();
}
