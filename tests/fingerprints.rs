//! Golden bit-stability fingerprints (DESIGN.md §10).
//!
//! Each test pins a digest of a fully-seeded run. Accidental
//! nondeterminism — a HashMap iteration leaking into scheduling order, a
//! wall-clock read, a reduction reassociating — changes the digest and
//! fails with a diff-style message.
//!
//! Two digest families:
//!
//! * `mat_checksum` (FNV-1a over value bits) — stable across toolchains;
//!   a changed constant always means changed numerics.
//! * `ServeReport::fingerprint` / `FaultLog::fingerprint` (SipHash via
//!   `DefaultHasher`) — stable per toolchain. If a *rustc upgrade* (and
//!   nothing else) shifts them, re-pin by running with
//!   `PRINT_FINGERPRINTS=1` and updating the constants; any other cause
//!   is a real regression.

use std::sync::Arc;

use scalfrag::cluster::{build_cluster_plan, ClusterOptions};
use scalfrag::faults::mat_checksum;
use scalfrag::prelude::*;
use scalfrag::tensor::gen;

use scalfrag::conformance::{combined_plan_fingerprint, print_or_assert};

// Re-pinned for the batch-fused serving refactor: every dispatch now
// goes through the fused builder, and records carry group bookkeeping
// (group size, batch wait, dispatch-group counters) that the report
// digest deliberately folds.
const GOLDEN_SERVE_FINGERPRINT: u64 = 0xf111_6031_af67_9f0f;
// Re-pinned when faulted runs moved onto the plan's op program: the log
// now polls every op that moves bytes (factor uploads and D2H included),
// names retried ops by span label, and records the ops polled at their
// program position instead of per retry wave.
const GOLDEN_FAULT_LOG_FINGERPRINT: u64 = 0x52b9_83c6_7791_6e25;
const GOLDEN_CLUSTER_OUTPUT_CHECKSUM: u64 = 0xd336_3d55_543a_4baf;
const GOLDEN_PLAN_TRACE_FINGERPRINT: u64 = 0xed33_cf2f_445d_e4d6;
const GOLDEN_BALANCE_PLAN_TRACE_FINGERPRINT: u64 = 0x22fc_902a_17f3_df68;
const GOLDEN_BATCHED_PLAN_TRACE_FINGERPRINT: u64 = 0x4a79_4e71_6d71_1c32;
// Re-pinned when the batch-fused serving builder joined the registry
// (the opt digest deliberately folds every builder, so it shifts on
// registration — previously when the two balance builders joined).
const GOLDEN_OPT_PLAN_TRACE_FINGERPRINT: u64 = 0x2c80_f8f5_d801_5bc1;
const GOLDEN_STREAMING_TRACE_FINGERPRINT: u64 = 0x3d53_ffcf_3f4e_e0c3;

fn serve_workload() -> Vec<MttkrpJob> {
    let dims = [64u32, 48, 32];
    let tensors: Vec<Arc<CooTensor>> = (0..3)
        .map(|i| Arc::new(gen::zipf_slices(&dims, 4_000 + 500 * i as usize, 0.9, 40 + i)))
        .collect();
    let factors = Arc::new(FactorSet::random(&dims, 8, 77));
    (0..6)
        .map(|j| {
            MttkrpJob::new(
                j as u64 + 1,
                if j % 2 == 0 { "tenant-a" } else { "tenant-b" },
                tensors[j % 3].clone(),
                factors.clone(),
                j % 3,
            )
            .at(j as f64 * 1e-3)
        })
        .collect()
}

#[test]
fn serve_report_fingerprint_is_pinned() {
    let run = || {
        ScalFragServer::builder()
            .device(DeviceSpec::rtx3090())
            .train_tiers(vec![8])
            .build()
            .run(serve_workload())
            .fingerprint()
    };
    let a = run();
    assert_eq!(a, run(), "same seeded workload, two fingerprints in one process");
    print_or_assert("serve-report", a, GOLDEN_SERVE_FINGERPRINT);
}

#[test]
fn fault_log_fingerprint_is_pinned() {
    let dims = [96u32, 64, 48];
    let tensor = gen::zipf_slices(&dims, 8_000, 1.0, 51);
    let factors = FactorSet::random(&dims, 8, 52);
    let node = NodeSpec::homogeneous(DeviceSpec::rtx3090(), 3);
    let opts = ClusterOptions::new(LaunchConfig::new(512, 256), 6);
    let run = || {
        let plan = FaultPlan::seeded_storm(53, 3, 4, 24, true);
        let policy = FaultRecoveryPolicy::retry_reshard()
            .with_retry(RetryPolicy::with_attempts(plan.len() as u32 + 4));
        let mut inj = FaultInjector::new(plan);
        let cluster = build_cluster_plan(&node, &tensor, &factors, 0, &opts);
        let run = run_plan_faulted(&cluster, ExecMode::Functional, &mut inj, &policy);
        assert!(run.all_complete(), "recoverable storm must recover");
        inj.log().fingerprint()
    };
    let a = run();
    assert_eq!(a, run(), "same storm, two fault-log fingerprints in one process");
    print_or_assert("fault-log", a, GOLDEN_FAULT_LOG_FINGERPRINT);
}

/// Every registered plan builder, lowered over the pinned tensor and
/// interpreted in dry mode, must schedule the identical ops at the
/// identical simulated times. The digest folds each builder's name and
/// its [`PlanTrace::fingerprint`] (FNV-1a over placement, labels and
/// span bits — toolchain-independent).
#[test]
fn plan_trace_fingerprint_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    // Builders added after this digest was pinned (the streamer, the two
    // balance arms, the batch-fused serving builder) have their own
    // goldens below; folding them in here would shift the combined
    // constant for the pre-existing builders.
    let combined = || {
        combined_plan_fingerprint(
            &tensor,
            &factors,
            0,
            |name| name != "oom-stream" && !name.starts_with("balance-") && name != "serve-batched",
            |p| p,
        )
    };
    let a = combined();
    assert_eq!(a, combined(), "same plans, two trace digests in one process");
    print_or_assert("plan-trace", a, GOLDEN_PLAN_TRACE_FINGERPRINT);
}

/// The two balance-arm builders (`balance-segscan`, `balance-flycoo`),
/// lowered over the pinned tensor and interpreted dry, must schedule
/// deterministically — the plan-level determinism gate for the
/// load-balanced segmented scan and the FLYCOO mode-agnostic kernel.
#[test]
fn balance_plan_trace_fingerprint_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    let combined = || {
        combined_plan_fingerprint(&tensor, &factors, 0, |name| name.starts_with("balance-"), |p| p)
    };
    let a = combined();
    assert_eq!(a, combined(), "same balance plans, two trace digests in one process");
    print_or_assert("balance-plan-trace", a, GOLDEN_BALANCE_PLAN_TRACE_FINGERPRINT);
}

/// The batch-fused serving builder (`serve-batched`), lowered over the
/// pinned tensor as a three-job fused batch and interpreted dry, must
/// schedule deterministically — one shared factor upload, round-robin
/// per-job H2D/launch fan-out, per-job D2H on the dedicated return
/// stream. This is the pinned golden trace the batch-fused serving
/// refactor is held to: group-size-1 dispatch in `serve::scheduler` goes
/// through exactly this builder, so the pin covers the solo path too.
#[test]
fn batched_plan_trace_fingerprint_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    let combined =
        || combined_plan_fingerprint(&tensor, &factors, 0, |name| name == "serve-batched", |p| p);
    let a = combined();
    assert_eq!(a, combined(), "same batched plan, two trace digests in one process");
    print_or_assert("batched-plan-trace", a, GOLDEN_BATCHED_PLAN_TRACE_FINGERPRINT);
}

/// Every registered builder's plan, run through the *default optimizer
/// pipeline* and interpreted dry, must also schedule deterministically —
/// the optimized twin of the raw pin above, covering all eleven builders
/// (the streamer and both balance arms included: the streamer's
/// evict/prefetch loop is exactly what the memory-op passes canonicalize).
#[test]
fn optimized_plan_trace_fingerprint_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    let combined = || {
        combined_plan_fingerprint(
            &tensor,
            &factors,
            0,
            |_| true,
            |p| {
                let opt = scalfrag::opt::optimize_default(&p);
                assert!(
                    !opt.meta.optimizer.is_empty(),
                    "{}: the optimized plan must carry its pass provenance",
                    p.name
                );
                opt
            },
        )
    };
    let a = combined();
    assert_eq!(a, combined(), "same optimized plans, two trace digests in one process");
    print_or_assert("opt-plan-trace", a, GOLDEN_OPT_PLAN_TRACE_FINGERPRINT);
}

/// The out-of-core streaming builder, interpreted dry over the pinned
/// tensor under its registry budget, must schedule the identical
/// Prefetch/Launch/Evict ops at identical simulated times — the
/// acceptance gate for the streaming subsystem's determinism.
#[test]
fn streaming_plan_trace_fingerprint_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    let digest = || {
        let plan = scalfrag::oom::registry_plan(&tensor, &factors, 0);
        let outcome = scalfrag::exec::run_plan(&plan, ExecMode::Dry);
        assert!(outcome.mem[0].evictions > 0, "the registry budget must force evictions");
        assert!(
            outcome.mem[0].peak_bytes <= scalfrag::oom::registry_budget(&tensor, &factors, 0),
            "peak live bytes must stay within the budget"
        );
        outcome.trace.fingerprint()
    };
    let a = digest();
    assert_eq!(a, digest(), "same streaming plan, two trace digests in one process");
    print_or_assert("streaming-trace", a, GOLDEN_STREAMING_TRACE_FINGERPRINT);
}

#[test]
fn cluster_shard_order_reduction_checksum_is_pinned() {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    // Pinned shard count ⇒ identical fold order ⇒ one checksum across
    // device counts. FNV-1a over value bits: toolchain-independent.
    let mut sums = Vec::new();
    for devices in [1usize, 2, 3] {
        let report = ClusterScalFrag::builder()
            .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), devices))
            .fixed_config(LaunchConfig::new(512, 256))
            .shards(6)
            .build()
            .mttkrp(&tensor, &factors, 0);
        sums.push(mat_checksum(&report.output));
    }
    assert_eq!(sums[0], sums[1], "1-device vs 2-device outputs differ");
    assert_eq!(sums[0], sums[2], "1-device vs 3-device outputs differ");
    print_or_assert("cluster-output", sums[0], GOLDEN_CLUSTER_OUTPUT_CHECKSUM);

    // The same golden must hold at every host-pool size: the kernels
    // fan out across the work-stealing pool, but submission-order
    // partial folding keeps the add sequence — the checksum hashes
    // value bits, so this pins the whole determinism discipline.
    scalfrag::host::check::assert_thread_invariant("cluster-output-vs-pool", || {
        let report = ClusterScalFrag::builder()
            .node(NodeSpec::homogeneous(DeviceSpec::rtx3090(), 2))
            .fixed_config(LaunchConfig::new(512, 256))
            .shards(6)
            .build()
            .mttkrp(&tensor, &factors, 0);
        let sum = mat_checksum(&report.output);
        assert_eq!(sum, GOLDEN_CLUSTER_OUTPUT_CHECKSUM, "pool moved the pinned output bits");
        sum
    });
}
