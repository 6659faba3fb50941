//! Fig. 9 — MTTKRP *kernel* performance: ScalFrag vs ParTI.
//!
//! For every Table III tensor, runs the ParTI strategy (atomic COO kernel,
//! heuristic launch) and the ScalFrag strategy (tiled kernel, adaptive
//! launch) and reports kernel-only GFLOP/s. Paper claims to check:
//! ScalFrag wins everywhere, with the largest speedups on the smaller
//! tensors (nips ≈ 2.2×, vast ≈ 1.2×).
//!
//! Pass `--ablate` to add adaptive-launch-only and tiling-only columns.
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin fig9_kernel`.

use scalfrag_bench::{factors_for, render_table, scaled_suite};
use scalfrag_core::{Parti, ScalFrag};
use scalfrag_exec::KernelChoice;

fn main() {
    let ablate = std::env::args().any(|a| a == "--ablate");
    println!("Fig. 9: MTTKRP kernel performance, ScalFrag vs ParTI (GFLOP/s)\n");

    let parti = Parti::rtx3090();
    // SS V-B compares the *kernels*, so ScalFrag runs unsegmented here
    // (one launch over the whole tensor); Fig. 10 adds the pipeline.
    let scal = ScalFrag::builder().pipelined(false).build();
    // Ablations: adaptive launch with the plain COO kernel, and the tiled
    // kernel at ParTI's fixed launch.
    let adaptive_only =
        ScalFrag::builder().pipelined(false).kernel(KernelChoice::CooAtomic).build();
    let tiled_only = ScalFrag::builder().pipelined(false).adaptive_launch(false).build();

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut cats = Vec::new();
    let mut parti_g = Vec::new();
    let mut scal_g = Vec::new();
    for (name, tensor) in scaled_suite() {
        let factors = factors_for(&tensor);
        let r_parti = parti.mttkrp_dry(&tensor, &factors, 0);
        let r_scal = scal.mttkrp_dry(&tensor, &factors, 0);
        let g_parti = r_parti.kernel_gflops();
        let g_scal = r_scal.kernel_gflops();
        cats.push(name.clone());
        parti_g.push(g_parti);
        scal_g.push(g_scal);
        let speedup = r_parti.timing.kernel_s / r_scal.timing.kernel_s;
        speedups.push((name.clone(), speedup, tensor.nnz()));

        let mut row = vec![
            name,
            tensor.nnz().to_string(),
            format!("{g_parti:.1}"),
            format!("{g_scal:.1}"),
            format!("{speedup:.2}x"),
            format!("{}", r_scal.config),
        ];
        if ablate {
            let r_a = adaptive_only.mttkrp_dry(&tensor, &factors, 0);
            let r_t = tiled_only.mttkrp_dry(&tensor, &factors, 0);
            row.push(format!("{:.2}x", r_parti.timing.kernel_s / r_a.timing.kernel_s));
            row.push(format!("{:.2}x", r_parti.timing.kernel_s / r_t.timing.kernel_s));
        }
        rows.push(row);
    }

    let mut headers =
        vec!["Tensor", "nnz", "ParTI GF/s", "ScalFrag GF/s", "Speedup", "Chosen launch"];
    if ablate {
        headers.push("AdaptOnly");
        headers.push("TiledOnly");
    }
    println!("{}", render_table(&headers, &rows));

    let chart = scalfrag_bench::svg::BarChart {
        title: "Fig. 9: MTTKRP kernel performance (GFLOP/s)".into(),
        y_label: "GFLOP/s".into(),
        categories: cats,
        series: vec![("ParTI".into(), parti_g), ("ScalFrag".into(), scal_g)],
    };
    if let Ok(path) = scalfrag_bench::write_svg("fig9_kernel", &chart.render(860, 420)) {
        println!("(SVG written to {path})");
    }

    let min = speedups.iter().map(|s| s.1).fold(f64::INFINITY, f64::min);
    let max = speedups.iter().map(|s| s.1).fold(0.0f64, f64::max);
    println!("Speedup range: {min:.2}x – {max:.2}x  (paper: ~1.2x on vast … ~2.2x on nips)");

    let mut by_size = speedups.clone();
    by_size.sort_by_key(|s| s.2);
    let small_avg: f64 = by_size[..3].iter().map(|s| s.1).sum::<f64>() / 3.0;
    let large_avg: f64 = by_size[by_size.len() - 3..].iter().map(|s| s.1).sum::<f64>() / 3.0;
    println!("Mean speedup, 3 smallest tensors: {small_avg:.2}x; 3 largest: {large_avg:.2}x");
    println!("(Paper attributes the spread to tensor size; in this reproduction the");
    println!("spread tracks slice skew — the atomic relief of the tiled kernel — which");
    println!("correlates with the same dataset split. See EXPERIMENTS.md.)");
}
