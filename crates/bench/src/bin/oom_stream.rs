//! Out-of-core streaming bench: the ~1B-nnz synthetic preset executed
//! under device-memory budgets far below its footprint.
//!
//! Three measurements, all written to `results/BENCH_oom_stream.json`:
//!
//! * **peak-memory vs budget curve** — the virtual 1B-nnz plan dry-run at
//!   budgets of footprint/{16, 8, 4, 2, 1} (smoke: /8 only), recording
//!   segments, evictions, peak live bytes and simulated staging GB/s
//!   (bytes staged through `Prefetch`/`H2D` over the simulated makespan);
//! * **plans/sec** — wall-clock throughput of `build_streaming_plan` over
//!   the materialised scaled preset (the serving layer's planning ceiling
//!   for streaming jobs);
//! * **oracle conformance** — the scaled preset run *functionally*
//!   through the streaming path at footprint/8, checked ULP-clean against
//!   the `f64` oracle and bitwise identical to a footprint/4 run.
//!
//! `oom_stream --smoke` (CI) additionally asserts the acceptance gate:
//! the 1B-nnz preset completes under a budget ≥8× smaller than its
//! footprint with a bit-stable trace fingerprint and evictions actually
//! occurring.

use scalfrag_conformance::{max_ulp, oracle_mttkrp, tolerance_for};
use scalfrag_exec::{run_plan, ExecMode, KernelChoice};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
use scalfrag_kernels::FactorSet;
use scalfrag_oom::{build_streaming_plan, SyntheticPreset};

struct CurvePoint {
    divisor: u64,
    budget: u64,
    segments: usize,
    evictions: u64,
    peak_bytes: u64,
    staged_bytes: u64,
    makespan_s: f64,
}

impl CurvePoint {
    fn staged_gbps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.staged_bytes as f64 / self.makespan_s / 1e9
    }
}

/// Dry-runs the virtual 1B-nnz plan at one budget, asserting trace
/// stability and the budget being physically respected.
fn sweep_point(preset: &SyntheticPreset, divisor: u64) -> CurvePoint {
    let budget = preset.footprint_bytes() / divisor;
    let plan = preset
        .virtual_plan(budget)
        .unwrap_or_else(|e| panic!("{}: budget footprint/{divisor} infeasible: {e}", preset.name));
    let a = run_plan(&plan, ExecMode::Dry);
    let b = run_plan(&plan, ExecMode::Dry);
    assert_eq!(
        a.trace.fingerprint(),
        b.trace.fingerprint(),
        "virtual streaming plan must be bit-stable across dry runs"
    );
    let mem = a.mem[0];
    assert!(
        mem.peak_bytes <= budget,
        "peak live bytes {} exceed the {budget} B budget",
        mem.peak_bytes
    );
    CurvePoint {
        divisor,
        budget,
        segments: plan.total_items(),
        evictions: mem.evictions,
        peak_bytes: mem.peak_bytes,
        staged_bytes: mem.staged_bytes,
        makespan_s: a.timeline.makespan(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let preset = SyntheticPreset::billion();
    let footprint = preset.footprint_bytes();
    println!(
        "preset {}: dims {:?}, {} nnz, rank {}, footprint {:.2} GB\n",
        preset.name,
        preset.dims,
        preset.nnz,
        preset.rank,
        footprint as f64 / 1e9
    );

    // Peak-memory vs budget curve over the virtual 1B-nnz plan.
    let divisors: &[u64] = if smoke { &[8] } else { &[16, 8, 4, 2, 1] };
    println!(
        "{:>10} {:>12} {:>9} {:>9} {:>12} {:>12} {:>9}",
        "budget", "bytes", "segments", "evicted", "peak B", "staged GB", "GB/s"
    );
    let mut curve = Vec::new();
    for &d in divisors {
        let p = sweep_point(&preset, d);
        println!(
            "{:>10} {:>12} {:>9} {:>9} {:>12} {:>12.2} {:>9.1}",
            format!("1/{d}"),
            p.budget,
            p.segments,
            p.evictions,
            p.peak_bytes,
            p.staged_bytes as f64 / 1e9,
            p.staged_gbps()
        );
        curve.push(p);
    }
    let gate = &curve[0];
    assert!(footprint / gate.budget >= 8 || !smoke, "smoke gate runs at footprint/8");
    assert!(gate.evictions > 0, "a budget 8x under footprint must evict");

    // Planning throughput over the materialised scaled preset.
    let scaled = SyntheticPreset::scaled();
    let tensor = scaled.materialize();
    let factors = FactorSet::random(&scaled.dims, scaled.rank, 72);
    let spec = DeviceSpec::rtx3090();
    let cfg = LaunchConfig::new(512, 256);
    let plan_budget = scaled.footprint_bytes() / 8;
    let iters = if smoke { 10 } else { 100 };
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        let plan = build_streaming_plan(
            &spec,
            &tensor,
            &factors,
            0,
            plan_budget,
            cfg,
            KernelChoice::Tiled,
        )
        .expect("scaled preset streams at footprint/8");
        std::hint::black_box(plan);
    }
    let plans_per_s = iters as f64 / t0.elapsed().as_secs_f64();
    println!(
        "\nplanning: {plans_per_s:.0} streaming plans/sec ({} nnz, {iters} iters)",
        tensor.nnz()
    );

    // Functional conformance: the scaled preset streamed at footprint/8
    // must be bit-identical across repeated runs (the budget gate's
    // "bit-stable results") and ULP-clean vs the f64 oracle at every
    // budget — re-cutting segments reassociates the in-row accumulation,
    // so different budgets may differ in low bits but never in ULP terms.
    let run_at = |budget: u64| {
        let plan =
            build_streaming_plan(&spec, &tensor, &factors, 0, budget, cfg, KernelChoice::Tiled)
                .expect("scaled preset streams under every checked budget");
        run_plan(&plan, ExecMode::Functional).output
    };
    let tight = run_at(plan_budget);
    assert_eq!(
        tight.as_slice(),
        run_at(plan_budget).as_slice(),
        "the same budget must reproduce the output bit-for-bit"
    );
    let oracle = oracle_mttkrp(&tensor, &factors, 0);
    let tol = tolerance_for(&tensor, 0);
    let worst = max_ulp(oracle.as_slice(), tight.as_slice());
    assert!(
        worst.max_ulp <= tol,
        "streaming output diverges from the f64 oracle: {} ulp > {tol}",
        worst.max_ulp
    );
    let loose_worst = max_ulp(oracle.as_slice(), run_at(scaled.footprint_bytes() / 4).as_slice());
    assert!(
        loose_worst.max_ulp <= tol,
        "footprint/4 streaming output diverges from the f64 oracle: {} ulp > {tol}",
        loose_worst.max_ulp
    );
    println!("oracle: max {} ulp (budget {tol}) at footprint/8 — PASS", worst.max_ulp);

    // Perf-trajectory artifact.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"preset\": \"{}\",\n", preset.name));
    json.push_str(&format!("  \"nnz\": {},\n", preset.nnz));
    json.push_str(&format!("  \"footprint_bytes\": {footprint},\n"));
    json.push_str(&format!("  \"plans_per_sec\": {plans_per_s:.1},\n"));
    json.push_str(&format!("  \"oracle_max_ulp\": {},\n", worst.max_ulp));
    json.push_str("  \"budget_curve\": [\n");
    for (i, p) in curve.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"budget_divisor\": {}, \"budget_bytes\": {}, \"segments\": {}, \
             \"evictions\": {}, \"peak_bytes\": {}, \"staged_bytes\": {}, \
             \"simulated_staged_gbps\": {:.2}}}{}\n",
            p.divisor,
            p.budget,
            p.segments,
            p.evictions,
            p.peak_bytes,
            p.staged_bytes,
            p.staged_gbps(),
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "results/BENCH_oom_stream.json";
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(path, json).expect("write bench json");
    println!("wrote {path}");

    println!(
        "\noom_stream: PASS (1B-nnz streamed at footprint/8, bit-stable, \
         {} evictions, peak {:.2} GB <= {:.2} GB budget)",
        gate.evictions,
        gate.peak_bytes as f64 / 1e9,
        gate.budget as f64 / 1e9
    );
}
