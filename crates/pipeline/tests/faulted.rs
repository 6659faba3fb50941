//! Pipelined and hybrid plans under fault injection: op-level retry with
//! exponential backoff, outage waits and the loss rules of
//! `run_plan_faulted`. A fully recovered run must be bit-identical to the
//! fault-free run.

use scalfrag_exec::{
    run_plan, run_plan_faulted, ExecMode, ExecOutcome, FaultRecoveryPolicy, Plan, RetryPolicy,
};
use scalfrag_faults::{FaultInjector, FaultKind, FaultPlan, FaultTrigger};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_linalg::Mat;
use scalfrag_pipeline::{
    build_hybrid_plan, build_pipelined_plan, split_by_slice_population, KernelChoice, PipelinePlan,
};
use scalfrag_tensor::CooTensor;

fn setup(nnz: usize) -> (CooTensor, FactorSet) {
    let dims = [300u32, 200, 150];
    let mut t = scalfrag_tensor::gen::zipf_slices(&dims, nnz, 0.7, 11);
    t.sort_for_mode(0);
    let f = FactorSet::random(&dims, 16, 12);
    (t, f)
}

fn pplan(t: &CooTensor) -> PipelinePlan {
    PipelinePlan::new(t, 0, LaunchConfig::new(1024, 256), 4, 2)
}

fn plan(t: &CooTensor, f: &FactorSet) -> Plan {
    build_pipelined_plan(&DeviceSpec::rtx3090(), t, f, &pplan(t), KernelChoice::Tiled)
}

fn baseline(t: &CooTensor, f: &FactorSet) -> Mat {
    run_plan(&plan(t, f), ExecMode::Functional).output
}

fn faulted(p: &Plan, faults: FaultPlan, retry: RetryPolicy) -> (ExecOutcome, FaultInjector) {
    let mut inj = FaultInjector::new(faults);
    let policy = FaultRecoveryPolicy::retry().with_retry(retry);
    let run = run_plan_faulted(p, ExecMode::Functional, &mut inj, &policy);
    (run, inj)
}

fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn total_attempts(run: &ExecOutcome) -> u32 {
    run.outcomes.iter().map(|o| o.attempts).sum()
}

#[test]
fn fault_free_faulted_run_is_bit_identical_to_pipelined() {
    let (t, f) = setup(20_000);
    let base = baseline(&t, &f);
    let (run, _) = faulted(&plan(&t, &f), FaultPlan::new(), RetryPolicy::default());
    assert!(run.all_complete());
    assert_eq!(total_attempts(&run), 4, "clean run: one attempt per segment");
    assert_eq!(
        bits(&base),
        bits(&run.output),
        "fault-free faulted execution must be bit-identical"
    );
}

#[test]
fn corruption_and_abort_recover_with_identical_output() {
    let (t, f) = setup(20_000);
    let base = baseline(&t, &f);
    let faults = FaultPlan::new()
        .fault(0, FaultTrigger::AtOp(2), FaultKind::TransferCorruption)
        .fault(0, FaultTrigger::AtOp(5), FaultKind::KernelAbort);
    let (run, inj) = faulted(&plan(&t, &f), faults, RetryPolicy::default());
    assert!(run.all_complete(), "two recoverable faults must not lose work");
    assert!(total_attempts(&run) > 4, "recovery must show in the attempt count");
    assert_eq!(inj.log().injected(), 2);
    assert!(inj.log().recoveries() > 0);
    assert_eq!(bits(&base), bits(&run.output), "recovered run must be bit-identical to fault-free");
}

#[test]
fn no_retry_loses_the_faulted_segment() {
    let (t, f) = setup(20_000);
    let faults = FaultPlan::new().fault(0, FaultTrigger::AtOp(2), FaultKind::TransferCorruption);
    let (run, _) = faulted(&plan(&t, &f), faults, RetryPolicy::no_retry());
    let failed = run.outcomes.iter().filter(|o| !o.completed).count();
    assert_eq!(failed, 1, "no-retry must lose exactly the faulted segment");
    assert!(
        run.output.max_abs_diff(&baseline(&t, &f)) > 0.0,
        "losing a segment must change the output"
    );
}

#[test]
fn transient_device_failure_is_waited_out() {
    let (t, f) = setup(20_000);
    let faults = FaultPlan::new().fault(
        0,
        FaultTrigger::AtOp(3),
        FaultKind::DeviceFail { down_s: Some(2e-3) },
    );
    let (run, _) = faulted(&plan(&t, &f), faults, RetryPolicy::default());
    assert!(run.all_complete(), "transient downtime must be recoverable");
    // The downtime pushed later work past the recovery point.
    assert!(run.timeline.makespan() >= 2e-3);
}

#[test]
fn permanent_failure_loses_remaining_segments() {
    let (t, f) = setup(20_000);
    let faults =
        FaultPlan::new().fault(0, FaultTrigger::AtOp(0), FaultKind::DeviceFail { down_s: None });
    let (run, _) = faulted(&plan(&t, &f), faults, RetryPolicy::default());
    assert_eq!(run.completed_items, 0, "a dead device completes nothing");
    assert_eq!(run.output.frob_norm(), 0.0);
}

#[test]
fn corrupted_output_readback_is_reissued_with_identical_bits() {
    let (t, f) = setup(20_000);
    let p = plan(&t, &f);
    // Polled ops: factors H2D, 4 × (segment H2D + kernel), then the
    // output D2H as op 9.
    let corrupt_d2h =
        || FaultPlan::new().fault(0, FaultTrigger::AtOp(9), FaultKind::TransferCorruption);
    let (run, inj) = faulted(&p, corrupt_d2h(), RetryPolicy::default());
    assert_eq!(inj.log().injected(), 1, "the D2H must be polled");
    assert!(run.all_complete());
    assert_eq!(bits(&baseline(&t, &f)), bits(&run.output));
    let readbacks = run.trace.events.iter().filter(|e| &*e.label == "output D2H").count();
    assert_eq!(readbacks, 2, "the corrupted readback is re-issued");
    // Without retries the output never returns intact.
    let (lost, _) = faulted(&p, corrupt_d2h(), RetryPolicy::no_retry());
    assert!(!lost.all_complete());
    assert_eq!(lost.output.frob_norm(), 0.0);
}

fn hybrid() -> (Plan, Mat) {
    let t = scalfrag_tensor::gen::zipf_slices(&[80, 56, 40], 6_000, 1.1, 61);
    let f = FactorSet::random(t.dims(), 8, 62);
    let split = split_by_slice_population(&t, 0, 60);
    assert!(split.cpu_part.nnz() > 0, "the hybrid plan must carry a host residue");
    let cfg = LaunchConfig::new(512, 256);
    let p =
        build_hybrid_plan(&DeviceSpec::rtx3090(), &split, &f, 0, cfg, 4, 4, KernelChoice::Tiled);
    let clean = run_plan(&p, ExecMode::Functional).output;
    (p, clean)
}

#[test]
fn faulted_hybrid_residue_waits_out_outages_and_is_lost_without_retries() {
    let (p, clean) = hybrid();
    // Op 0 is the host residue: a transient outage is waited out.
    let outage = FaultPlan::new().fault(
        0,
        FaultTrigger::AtOp(0),
        FaultKind::DeviceFail { down_s: Some(1e-3) },
    );
    let mut inj = FaultInjector::new(outage);
    let run = run_plan_faulted(&p, ExecMode::Functional, &mut inj, &FaultRecoveryPolicy::retry());
    assert!(run.all_complete());
    assert_eq!(bits(&clean), bits(&run.output), "the residue must be folded in after the outage");

    // An aborted residue without retries is lost — and reported lost.
    let abort = FaultPlan::new().fault(0, FaultTrigger::AtOp(0), FaultKind::KernelAbort);
    let mut inj = FaultInjector::new(abort);
    let run =
        run_plan_faulted(&p, ExecMode::Functional, &mut inj, &FaultRecoveryPolicy::no_retry());
    assert!(!run.all_complete(), "a lost residue must fail the run");
    assert_eq!(run.lost_items(), 1);
    assert!(run.output.max_abs_diff(&clean) > 0.0);
}
