//! Fig. 4 — GFLOPs of the MTTKRP kernel under different launch settings.
//!
//! For four representative tensors, sweeps the `gridSize × blockSize`
//! space and prints a text heatmap of achieved GFLOP/s (mode-0 MTTKRP,
//! plain COO kernel, as in the motivation section). The paper's claims to
//! check: performance is poor at small settings, improves, then declines
//! past a tensor-dependent optimum; and the optimum location differs
//! between tensors.
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin fig4_heatmap`.

use scalfrag_autotune::sweep::sweep_tensor;
use scalfrag_bench::{scaled_small_suite, RANK};
use scalfrag_exec::KernelChoice;
use scalfrag_gpusim::{DeviceSpec, LaunchConfig};

fn main() {
    let device = DeviceSpec::rtx3090();
    let space = LaunchConfig::sweep_space(&device);
    let grids: Vec<u32> = {
        let mut g: Vec<u32> = space.iter().map(|c| c.grid).collect();
        g.sort_unstable();
        g.dedup();
        g
    };
    let blocks: Vec<u32> = {
        let mut b: Vec<u32> = space.iter().map(|c| c.block).collect();
        b.sort_unstable();
        b.dedup();
        b
    };

    println!("Fig. 4: GFLOPs of the MTTKRP kernel with different launch settings");
    println!("(simulated RTX 3090, rank {RANK}, mode-0, COO atomic kernel)\n");

    // The paper's four panels span a wide size range (3 M – 77 M nnz);
    // two smaller synthetic tensors restore that spread at laptop scale so
    // the tensor-dependence of the optimum is visible.
    let mut panels = scaled_small_suite();
    panels.push((
        "synthetic-20K".to_string(),
        scalfrag_tensor::gen::uniform(&[400, 300, 200], 20_000, 4),
    ));
    panels.push((
        "synthetic-skewed-80K".to_string(),
        scalfrag_tensor::gen::zipf_slices(&[200, 800, 600], 80_000, 1.1, 5),
    ));

    for (name, tensor) in panels {
        let sweep = sweep_tensor(&device, KernelChoice::CooAtomic, &tensor, 0, RANK as u32, &space);
        let lookup = |g: u32, b: u32| -> f64 {
            sweep
                .entries
                .iter()
                .find(|(c, _)| c.grid == g && c.block == b)
                .map(|&(_, t)| sweep.gflops_at(t))
                .unwrap_or(0.0)
        };
        let (best_cfg, best_t) = sweep.best();
        println!(
            "## {name}  ({} nnz, order {})  best {} at {:.1} GFLOP/s",
            tensor.nnz(),
            tensor.order(),
            best_cfg,
            sweep.gflops_at(best_t)
        );
        print!("{:>9} |", "grid\\blk");
        for &b in &blocks {
            print!("{b:>8}");
        }
        println!();
        println!("{}", "-".repeat(11 + 8 * blocks.len()));
        for &g in &grids {
            print!("{g:>9} |");
            for &b in &blocks {
                print!("{:>8.1}", lookup(g, b));
            }
            println!();
        }
        println!();

        let hm = scalfrag_bench::svg::HeatMap {
            title: format!("Fig. 4 panel: {name} (GFLOP/s, grid x block)"),
            row_labels: grids.iter().map(|g| g.to_string()).collect(),
            col_labels: blocks.iter().map(|b| b.to_string()).collect(),
            values: grids
                .iter()
                .flat_map(|&g| blocks.iter().map(move |&b| (g, b)))
                .map(|(g, b)| lookup(g, b))
                .collect(),
        };
        let _ = scalfrag_bench::write_svg(&format!("fig4_{name}"), &hm.render(680, 560));
    }
    println!("(per-panel SVG heatmaps written to results/fig4_<tensor>.svg)");

    println!("Expected shape (paper): low GFLOPs at small grid/block, a plateau,");
    println!("then decline at the largest grids for small tensors; the optimum");
    println!("cell differs per tensor.");
}
