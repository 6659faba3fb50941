//! Sparse-format / kernel-strategy comparison across the dataset suite:
//! the COO-family (plain atomic, F-COO segmented-reduction, HiCOO
//! blocked, ScalFrag tiled) versus the tree-family (CSF fiber-parallel),
//! in simulated kernel time and in storage footprint — the §II-D design
//! space that format-selection work like SpTFS (cited in §VI-A) searches.
//!
//! Regenerate with `cargo run --release -p scalfrag-bench --bin format_compare`.

use scalfrag_bench::{render_table, scaled_suite, RANK};
use scalfrag_exec::KernelChoice;
use scalfrag_gpusim::{kernel_duration, DeviceSpec, LaunchConfig};
use scalfrag_kernels::workload::csf_fiber_workload;
use scalfrag_kernels::{FCooKernel, HiCooKernel, SegmentStats};
use scalfrag_tensor::{CsfTensor, FCooTensor, HiCooTensor};

fn main() {
    let device = DeviceSpec::rtx3090();
    let cfg = LaunchConfig::new(4096, 256);
    println!("Format/kernel comparison (simulated kernel time, rank {RANK}, mode 0)\n");

    let mut time_rows = Vec::new();
    let mut mem_rows = Vec::new();
    for (name, tensor) in scaled_suite() {
        let stats = SegmentStats::compute(&tensor, 0);
        let t_coo = KernelChoice::CooAtomic.duration(&device, &stats, RANK as u32, cfg);
        let t_tiled = KernelChoice::Tiled.duration(&device, &stats, RANK as u32, cfg);

        let fcoo = FCooTensor::from_coo(&tensor, 0, 1024);
        let t_fcoo = kernel_duration(
            &device,
            &cfg,
            &FCooKernel::workload(&stats, RANK as u32, fcoo.num_partitions() as u64),
        )
        .total;

        let hicoo = HiCooTensor::from_coo(&tensor, 4);
        let t_hicoo = kernel_duration(
            &device,
            &cfg,
            &HiCooKernel::workload(&stats, RANK as u32, hicoo.avg_nnz_per_block(), 16),
        )
        .total;

        let csf = CsfTensor::from_coo(&tensor, 0);
        let t_csf = kernel_duration(
            &device,
            &cfg,
            &csf_fiber_workload(&stats, RANK as u32, csf.num_slices() as u64),
        )
        .total;

        let best =
            [t_coo, t_fcoo, t_hicoo, t_tiled, t_csf].into_iter().fold(f64::INFINITY, f64::min);
        let mark = |t: f64| {
            if (t - best).abs() < 1e-12 {
                format!("{:.1}µs *", t * 1e6)
            } else {
                format!("{:.1}µs", t * 1e6)
            }
        };
        time_rows.push(vec![
            name.clone(),
            mark(t_coo),
            mark(t_fcoo),
            mark(t_hicoo),
            mark(t_tiled),
            mark(t_csf),
        ]);

        let mb = |b: usize| format!("{:.2}MB", b as f64 / 1e6);
        mem_rows.push(vec![
            name,
            mb(tensor.byte_size()),
            mb(fcoo.byte_size()),
            mb(hicoo.byte_size()),
            mb(csf.byte_size()),
        ]);
    }

    println!("Simulated kernel time (* = fastest):");
    println!(
        "{}",
        render_table(
            &["Tensor", "COO-atomic", "F-COO", "HiCOO", "ScalFrag-tiled", "CSF-fiber"],
            &time_rows
        )
    );
    println!("Storage footprint:");
    println!("{}", render_table(&["Tensor", "COO", "F-COO", "HiCOO", "CSF"], &mem_rows));
    println!("Expected shape: the tiled kernel leads on skewed tensors (atomic");
    println!("relief); CSF/F-COO win when slices are long and balanced; HiCOO");
    println!("compresses the clustered tensors (enron) best.");
}
