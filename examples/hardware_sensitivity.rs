//! Hardware sensitivity: the same tensors on three simulated devices
//! (RTX 3060-class, the paper's RTX 3090, A100-class), showing that the
//! adaptive launching strategy adapts to the *hardware* as well as the
//! tensor — the paper's §III-A point that "the hardware environments may
//! also have significant differences … which make it impossible to simply
//! apply a fixed set of parameter configurations".
//!
//! Run with `cargo run --release --example hardware_sensitivity`.

use scalfrag::autotune::LaunchPredictor;
use scalfrag::exec::KernelChoice;
use scalfrag::gpusim::DeviceSpec;
use scalfrag::prelude::*;

fn main() {
    let devices = [DeviceSpec::rtx3060(), DeviceSpec::rtx3090(), DeviceSpec::a100()];
    let tensors = [
        ("small-uniform", scalfrag::tensor::gen::uniform(&[400, 300, 200], 25_000, 1)),
        (
            "large-skewed",
            scalfrag::tensor::gen::zipf_slices(&[3_000, 2_000, 1_200], 600_000, 1.0, 2),
        ),
    ];
    let rank = 16u32;
    let tiers = [10_000usize, 60_000, 300_000, 800_000];

    println!("Per-device adaptive launch selections (rank {rank}):\n");
    println!("{:<26} {:>14} {:>22} {:>14}", "device", "tensor", "chosen launch", "kernel time");
    for d in &devices {
        // One predictor per device — the offline phase is hardware-specific,
        // exactly as the paper's training on the deployment GPU is.
        let p = LaunchPredictor::train_with_tiers(d, rank, 7, &tiers);
        for (name, t) in &tensors {
            let cfg = p.predict(t, 0);
            let stats = scalfrag::kernels::SegmentStats::compute(t, 0);
            let dur = KernelChoice::Tiled.duration(d, &stats, rank, cfg);
            println!("{:<26} {:>14} {:>22} {:>12.1}µs", d.name, name, format!("{cfg}"), dur * 1e6);
        }
    }

    println!("\nEnd-to-end ScalFrag vs ParTI across devices (large-skewed tensor):");
    let (_, t) = &tensors[1];
    let f = FactorSet::random(t.dims(), rank as usize, 3);
    for d in &devices {
        let parti = Parti::new(d.clone());
        let rp = parti.mttkrp_dry(t, &f, 0);
        let scal = ScalFrag::builder().device(d.clone()).train_tiers(tiers.to_vec()).build();
        let rs = scal.mttkrp_dry(t, &f, 0);
        println!(
            "  {:<26} ParTI {:>9.3}ms | ScalFrag {:>9.3}ms | speedup {:.2}x",
            d.name,
            rp.timing.total_s * 1e3,
            rs.timing.total_s * 1e3,
            rp.timing.total_s / rs.timing.total_s
        );
    }
    println!("\nReading: faster memory (A100) shrinks kernel time, so the pipeline");
    println!("becomes transfer-bound and the speedup shifts; slower parts (3060)");
    println!("are kernel-bound and gain most from the tiled kernel itself.");
}
