//! Out-of-core streaming: budget edge cases, eviction accounting, the
//! dry-run leak check, and the metamorphic budget property (DESIGN.md
//! §13).

use scalfrag::conformance::{max_ulp, oracle_mttkrp, tolerance_for};
use scalfrag::exec::{run_plan, KernelChoice, PlanOp};
use scalfrag::oom::{build_streaming_plan, registry_budget, registry_plan, StreamError};
use scalfrag::prelude::*;
use scalfrag::tensor::gen;

const CFG: LaunchConfig = LaunchConfig { grid: 512, block: 256, shared_mem_per_block: 0 };

fn seed_tensor() -> (CooTensor, FactorSet) {
    let dims = [72u32, 48, 36];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.0, 91);
    let factors = FactorSet::random(&dims, 8, 92);
    (tensor, factors)
}

fn persistent_bytes(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> u64 {
    factors.byte_size() as u64 + (tensor.dims()[mode] as usize * factors.rank() * 4) as u64
}

fn entry_bytes(tensor: &CooTensor) -> u64 {
    (tensor.order() * 4 + 4) as u64
}

#[test]
fn budget_below_one_entry_per_slot_is_a_typed_error() {
    let (tensor, factors) = seed_tensor();
    let persistent = persistent_bytes(&tensor, &factors, 0);
    let eb = entry_bytes(&tensor);
    // One entry total: each of the two slots gets half an entry — the
    // builder must refuse with the minimum feasible budget, not panic.
    let budget = persistent + eb;
    let err = build_streaming_plan(
        &DeviceSpec::rtx3090(),
        &tensor,
        &factors,
        0,
        budget,
        CFG,
        KernelChoice::Tiled,
    )
    .unwrap_err();
    assert_eq!(err, StreamError::BudgetTooSmall { budget, required: persistent + 2 * eb });
    assert!(err.to_string().contains("two staging slots"));
}

#[test]
fn budget_inducing_too_many_segments_is_a_typed_error() {
    let dims = [64u32, 48, 32];
    let tensor = gen::zipf_slices(&dims, 5_000, 1.0, 93);
    let factors = FactorSet::random(&dims, 8, 94);
    // Two one-entry slots cut 5000 nnz into 5000 segments — past the cap.
    let budget = persistent_bytes(&tensor, &factors, 0) + 2 * entry_bytes(&tensor);
    let err = build_streaming_plan(
        &DeviceSpec::rtx3090(),
        &tensor,
        &factors,
        0,
        budget,
        CFG,
        KernelChoice::Tiled,
    )
    .unwrap_err();
    assert_eq!(
        err,
        StreamError::TooManySegments { needed: 5_000, max: scalfrag::oom::MAX_SEGMENTS }
    );
}

#[test]
fn budget_equal_to_working_set_streams_without_evictions() {
    let (tensor, factors) = seed_tensor();
    // The whole entry list fits the two staging slots: both segments stay
    // resident, so the schedule must not evict anything.
    let budget = persistent_bytes(&tensor, &factors, 0) + tensor.byte_size() as u64;
    let plan = build_streaming_plan(
        &DeviceSpec::rtx3090(),
        &tensor,
        &factors,
        0,
        budget,
        CFG,
        KernelChoice::Tiled,
    )
    .unwrap();
    assert_eq!(plan.total_items(), 2, "two slots, two segments");
    let outcome = run_plan(&plan, ExecMode::Dry);
    assert_eq!(outcome.mem[0].evictions, 0);
    assert_eq!(outcome.mem[0].prefetches, 2);
    assert!(outcome.mem[0].peak_bytes <= budget);
}

#[test]
fn tighter_budgets_evict_more_and_stay_within_budget() {
    let (tensor, factors) = seed_tensor();
    let persistent = persistent_bytes(&tensor, &factors, 0);
    let total = tensor.byte_size() as u64;
    let mut last_evictions = 0;
    for divisor in [1u64, 2, 4, 8] {
        let budget = persistent + total / divisor;
        let plan = build_streaming_plan(
            &DeviceSpec::rtx3090(),
            &tensor,
            &factors,
            0,
            budget,
            CFG,
            KernelChoice::Tiled,
        )
        .unwrap();
        let outcome = run_plan(&plan, ExecMode::Dry);
        let mem = outcome.mem[0];
        assert!(mem.peak_bytes <= budget, "peak {} over budget {budget}", mem.peak_bytes);
        assert!(mem.evictions >= last_evictions, "shrinking the budget must not reduce evictions");
        assert_eq!(
            mem.evictions + 2,
            mem.prefetches,
            "every staging slot is evicted except the final two occupants"
        );
        last_evictions = mem.evictions;
    }
    assert!(last_evictions > 0, "the tightest budget must actually evict");
}

/// Metamorphic budget property: shrinking the budget changes the
/// simulated timing (more, smaller transfers; less overlap headroom) but
/// every budget's functional output stays within the oracle's ULP
/// tolerance, and a fixed budget reproduces its output bit-for-bit.
#[test]
fn shrinking_budget_changes_timing_but_stays_ulp_clean() {
    let (tensor, factors) = seed_tensor();
    let persistent = persistent_bytes(&tensor, &factors, 0);
    let total = tensor.byte_size() as u64;
    let oracle = oracle_mttkrp(&tensor, &factors, 0);
    let tol = tolerance_for(&tensor, 0);
    let run = |budget: u64| {
        let plan = build_streaming_plan(
            &DeviceSpec::rtx3090(),
            &tensor,
            &factors,
            0,
            budget,
            CFG,
            KernelChoice::Tiled,
        )
        .unwrap();
        run_plan(&plan, ExecMode::Functional)
    };
    let mut makespans = Vec::new();
    for divisor in [1u64, 4, 16] {
        let budget = persistent + total / divisor;
        let outcome = run(budget);
        let again = run(budget);
        assert_eq!(
            outcome.output.as_slice(),
            again.output.as_slice(),
            "budget {budget}: a fixed budget must be bitwise deterministic"
        );
        let worst = max_ulp(oracle.as_slice(), outcome.output.as_slice());
        assert!(worst.max_ulp <= tol, "budget {budget}: {} ulp > tolerance {tol}", worst.max_ulp);
        makespans.push(outcome.timeline.makespan());
    }
    assert!(
        makespans.windows(2).any(|w| w[0] != w[1]),
        "three 4x-apart budgets with identical makespans: the budget is not \
         reaching the schedule ({makespans:?})"
    );
}

#[test]
fn registry_plan_streams_under_its_budget_with_frees_balanced() {
    let (tensor, factors) = seed_tensor();
    let plan = registry_plan(&tensor, &factors, 0);
    let outcome = run_plan(&plan, ExecMode::Dry);
    let mem = outcome.mem[0];
    assert!(mem.evictions > 0, "the registry budget must force streaming");
    assert!(mem.peak_bytes <= registry_budget(&tensor, &factors, 0));
    // Eviction + the trailing Frees release every staging slot; the dry
    // leak check inside the interpreter has already asserted no transient
    // slot survived.
    assert_eq!(mem.evictions + mem.frees, mem.prefetches);
    assert_eq!(mem.staged_bytes, tensor.byte_size() as u64 + plan.factors_bytes);
}

/// A program that allocates a transient staging slot and never frees it
/// must trip the interpreter's dry-run leak check, not silently leak.
#[test]
#[should_panic(expected = "transient slots")]
fn dry_run_leak_check_catches_unfreed_transients() {
    let (tensor, factors) = seed_tensor();
    let mut plan = registry_plan(&tensor, &factors, 0);
    let program = &mut plan.devices[0].program;
    program.retain(|op| !matches!(op, PlanOp::Free { .. }));
    run_plan(&plan, ExecMode::Dry);
}
