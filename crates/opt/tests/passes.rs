//! Pass-level behaviour on real builder plans: what each pass actually
//! rewrites, what the orderer picks, and the provenance machinery.
//! (Contract checks over *every* registered builder live in the repo's
//! root `tests/opt.rs`, next to the conformance suite.)

use scalfrag_exec::{run_plan, ExecMode, Plan, PlanOp, StreamRef};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_opt::passes::{BatchH2d, CoalesceH2d, DeadOpElim, SlimFactors};
use scalfrag_opt::{
    applied, check_pass, choose_pipeline, default_pipeline, optimize_chosen, optimize_default, Pass,
};
use scalfrag_pipeline::{build_sync_plan, KernelChoice};
use scalfrag_tensor::{gen, CooTensor};

const CFG: LaunchConfig = LaunchConfig { grid: 512, block: 256, shared_mem_per_block: 0 };

fn fixture() -> (CooTensor, FactorSet) {
    let dims = [80u32, 56, 40];
    let tensor = gen::zipf_slices(&dims, 6_000, 1.1, 61);
    let factors = FactorSet::random(&dims, 8, 62);
    (tensor, factors)
}

fn sync_plan(tensor: &CooTensor, factors: &FactorSet) -> Plan {
    let mut sorted = tensor.clone();
    sorted.sort_for_mode(0);
    build_sync_plan(&DeviceSpec::rtx3090(), &sorted, factors, 0, CFG, KernelChoice::Tiled)
}

fn h2d_ops(plan: &Plan) -> Vec<(StreamRef, u64)> {
    plan.devices
        .iter()
        .flat_map(|d| &d.program)
        .filter_map(|op| match op {
            PlanOp::H2D { stream, bytes, .. } => Some((*stream, *bytes)),
            _ => None,
        })
        .collect()
}

#[test]
fn building_twice_gives_equal_programs() {
    let (tensor, factors) = fixture();
    let plan = sync_plan(&tensor, &factors);
    assert!(plan.devices.iter().all(|d| !d.program.is_empty()));
    let rebuilt = sync_plan(&tensor, &factors);
    assert_eq!(rebuilt.devices[0].program, plan.devices[0].program, "lowering is deterministic");
    let raw = run_plan(&plan, ExecMode::Dry);
    let again = run_plan(&rebuilt, ExecMode::Dry);
    assert_eq!(raw.trace.fingerprint(), again.trace.fingerprint());
}

#[test]
fn coalesce_merges_the_sync_plans_two_copies_into_one() {
    let (tensor, factors) = fixture();
    let plan = sync_plan(&tensor, &factors);
    let before = h2d_ops(&plan);
    assert_eq!(before.len(), 2, "sync plan ships factors and tensor separately");
    let opt = CoalesceH2d.apply(&plan);
    let after = h2d_ops(&opt);
    assert_eq!(after.len(), 1, "same-stream adjacent copies must merge");
    assert_eq!(
        after[0].1,
        before.iter().map(|(_, b)| b).sum::<u64>(),
        "merged copy carries every byte"
    );
    assert!(
        run_plan(&opt, ExecMode::Dry).makespan() < run_plan(&plan, ExecMode::Dry).makespan(),
        "one PCIe latency less must show in the makespan"
    );
}

#[test]
fn slim_factors_drops_exactly_the_output_mode_rows_and_only_once() {
    let (tensor, factors) = fixture();
    let plan = sync_plan(&tensor, &factors);
    let mode_bytes = (plan.rows * plan.rank * 4) as u64;
    let once = SlimFactors.apply(&plan);
    let factors_copy = |p: &Plan| {
        p.devices
            .iter()
            .flat_map(|d| &d.program)
            .find_map(|op| match op {
                PlanOp::H2D { bytes, label, .. } if &**label == "factors H2D" => Some(*bytes),
                _ => None,
            })
            .expect("factors copy present")
    };
    let factors_bytes = plan.factors.byte_size() as u64;
    assert_eq!(factors_copy(&once), factors_bytes - mode_bytes);
    assert!(applied(&once, "slim-factors"));
    // The provenance guard makes the second application a no-op rather
    // than shrinking the already-slimmed copy again.
    let twice = SlimFactors.apply(&once);
    assert_eq!(factors_copy(&twice), factors_bytes - mode_bytes);
}

#[test]
fn dead_op_elim_drops_zero_byte_copies_and_degenerate_barriers() {
    let (tensor, factors) = fixture();
    let mut plan = sync_plan(&tensor, &factors);
    let program = &mut plan.devices[0].program;
    program.insert(
        0,
        PlanOp::H2D { stream: StreamRef::Worker(0), bytes: 0, label: "empty seg H2D".into() },
    );
    program.insert(
        1,
        PlanOp::Barrier { record: vec![StreamRef::Worker(0)], wait: vec![StreamRef::Worker(0)] },
    );
    let opt = DeadOpElim.apply(&plan);
    let ops = opt.devices[0].program.clone();
    assert!(!ops.iter().any(|op| matches!(op, PlanOp::H2D { bytes: 0, .. })));
    assert!(!ops.iter().any(
        |op| matches!(op, PlanOp::Barrier { record, wait } if record == wait && record.len() == 1)
    ));
    assert_eq!(ops.len(), plan.devices[0].program.len() - 2);
    check_pass(&DeadOpElim, &plan).unwrap();
}

#[test]
fn batch_h2d_folds_the_first_prefetch_wave_into_the_factor_upload() {
    let (tensor, factors) = fixture();
    let plan = scalfrag_oom::registry_plan(&tensor, &factors, 0);
    let raw = run_plan(&plan, ExecMode::Dry);
    let opt_plan = BatchH2d.apply(&plan);
    let opt = run_plan(&opt_plan, ExecMode::Dry);
    assert_eq!(
        opt.mem[0].prefetches + 2,
        raw.mem[0].prefetches,
        "the double-buffer's two warm-up prefetches ride the factor upload"
    );
    assert_eq!(opt.mem[0].evictions, raw.mem[0].evictions, "steady-state loop untouched");
    assert_eq!(
        opt.mem[0].staged_bytes, raw.mem[0].staged_bytes,
        "absorbed bytes ride the anchor copy instead — none go missing"
    );
    assert!(opt.mem[0].peak_bytes <= raw.mem[0].peak_bytes, "batching must not grow the peak");
    assert!(
        opt.makespan() < raw.makespan(),
        "two PCIe latencies off the critical path: {} vs {}",
        opt.makespan(),
        raw.makespan()
    );
    check_pass(&BatchH2d, &plan).unwrap();
}

#[test]
fn the_orderer_prefers_batching_for_the_streaming_plan() {
    let (tensor, factors) = fixture();
    let plan = scalfrag_oom::registry_plan(&tensor, &factors, 0);
    let choice = choose_pipeline(&plan);
    assert_eq!(choice.pipeline.name(), "batch");
    assert!(choice.est_s < choice.raw_s, "{} !< {}", choice.est_s, choice.raw_s);
    assert!(choice.speedup() > 1.0);
    assert_eq!(choice.evaluated, 3, "three candidate pipelines");
    // Deterministic: same plan, same verdict.
    let again = choose_pipeline(&plan);
    assert_eq!(again.pipeline.name(), choice.pipeline.name());
    assert_eq!(again.est_s, choice.est_s);
}

#[test]
fn the_orderer_never_chooses_worse_than_raw() {
    let (tensor, factors) = fixture();
    for builder in scalfrag_pipeline::plan_builders() {
        let plan = (builder.build)(&tensor, &factors, 0);
        let choice = choose_pipeline(&plan);
        assert!(
            choice.est_s <= choice.raw_s,
            "{}: the raw pipeline is always a candidate",
            builder.name
        );
        let (optimized, _) = optimize_chosen(&plan);
        let replay = run_plan(&optimized, ExecMode::Dry).makespan();
        assert_eq!(replay, choice.est_s, "{}: the estimate is a real replay", builder.name);
    }
}

#[test]
fn provenance_accumulates_in_application_order() {
    let (tensor, factors) = fixture();
    let plan = sync_plan(&tensor, &factors);
    let opt = optimize_default(&plan);
    assert_eq!(
        opt.meta.optimizer,
        default_pipeline().pass_list(),
        "the rendered provenance is the pipeline's pass list"
    );
    assert!(opt.render().contains("optimizer: "), "the IR dump names its optimizer");
    assert!(plan.meta.optimizer.is_empty(), "the input plan is never mutated");
}

#[test]
fn optimization_reduces_op_count_without_losing_work() {
    let (tensor, factors) = fixture();
    let plan = sync_plan(&tensor, &factors);
    let opt = optimize_default(&plan);
    assert!(opt.total_ops() < plan.total_ops());
    assert_eq!(opt.total_items(), plan.total_items(), "no work unit disappears");
    let raw_out = run_plan(&plan, ExecMode::Functional).output;
    let opt_out = run_plan(&opt, ExecMode::Functional).output;
    assert_eq!(
        raw_out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        opt_out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "bit-identical output"
    );
}
