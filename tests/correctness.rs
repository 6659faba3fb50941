//! Cross-crate correctness: every execution path of the stack must produce
//! the same MTTKRP numbers as the sequential CPU reference.

use scalfrag::exec::KernelChoice;
use scalfrag::kernels::reference::mttkrp_seq;
use scalfrag::kernels::{cpd_als, CpdOptions, CpuParallelBackend};
use scalfrag::prelude::*;

fn max_diff(a: &Mat, b: &Mat) -> f32 {
    a.max_abs_diff(b)
}

fn test_tensors() -> Vec<CooTensor> {
    vec![
        scalfrag::tensor::gen::uniform(&[120, 90, 60], 6_000, 1),
        scalfrag::tensor::gen::zipf_slices(&[200, 80, 80], 8_000, 1.1, 2),
        scalfrag::tensor::gen::blocked(&[128, 128, 128], 5_000, 16, 16, 3),
        scalfrag::tensor::gen::uniform(&[40, 30, 25, 20], 4_000, 4),
        scalfrag::tensor::gen::zipf_slices(&[60, 40, 30, 20], 5_000, 0.8, 5),
    ]
}

#[test]
fn scalfrag_full_stack_matches_reference_on_every_mode() {
    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(1024, 256)).segments(4).build();
    for (i, t) in test_tensors().iter().enumerate() {
        let f = FactorSet::random(t.dims(), 8, 100 + i as u64);
        for mode in 0..t.order() {
            let r = ctx.mttkrp(t, &f, mode);
            let expect = mttkrp_seq(t, &f, mode);
            assert!(
                max_diff(&r.output, &expect) < 1e-2,
                "tensor {i} mode {mode}: diff {}",
                max_diff(&r.output, &expect)
            );
        }
    }
}

#[test]
fn parti_baseline_matches_reference_on_every_mode() {
    let parti = Parti::rtx3090();
    for (i, t) in test_tensors().iter().enumerate() {
        let f = FactorSet::random(t.dims(), 8, 200 + i as u64);
        for mode in 0..t.order() {
            let r = parti.mttkrp(t, &f, mode);
            let expect = mttkrp_seq(t, &f, mode);
            assert!(max_diff(&r.output, &expect) < 1e-2, "tensor {i} mode {mode}");
        }
    }
}

#[test]
fn all_ablations_agree_numerically() {
    let t = scalfrag::tensor::gen::zipf_slices(&[300, 150, 100], 12_000, 0.9, 9);
    let f = FactorSet::random(t.dims(), 16, 10);
    let expect = mttkrp_seq(&t, &f, 0);

    let variants = [
        ScalFrag::builder().fixed_config(LaunchConfig::new(512, 128)).build(),
        ScalFrag::builder().fixed_config(LaunchConfig::new(512, 128)).pipelined(false).build(),
        ScalFrag::builder()
            .fixed_config(LaunchConfig::new(512, 128))
            .kernel(KernelChoice::CooAtomic)
            .build(),
        ScalFrag::builder()
            .fixed_config(LaunchConfig::new(512, 128))
            .hybrid(true)
            .hybrid_threshold(20)
            .build(),
        ScalFrag::builder()
            .fixed_config(LaunchConfig::new(512, 128))
            .segments(7)
            .streams(3)
            .build(),
    ];
    for (i, ctx) in variants.iter().enumerate() {
        let r = ctx.mttkrp(&t, &f, 0);
        assert!(
            max_diff(&r.output, &expect) < 1e-2,
            "ablation {i}: diff {}",
            max_diff(&r.output, &expect)
        );
    }
}

#[test]
fn csf_tensor_agrees_with_coo_path() {
    let t = scalfrag::tensor::gen::uniform(&[80, 60, 40], 5_000, 21);
    let f = FactorSet::random(t.dims(), 8, 22);
    for mode in 0..3 {
        let csf = CsfTensor::from_coo(&t, mode);
        let via_csf = scalfrag::kernels::reference::mttkrp_csf(&csf, &f);
        let via_coo = mttkrp_seq(&t, &f, mode);
        assert!(max_diff(&via_csf, &via_coo) < 1e-3, "mode {mode}");
    }
}

#[test]
fn gpu_backed_cpd_matches_cpu_cpd_trajectory() {
    let t = scalfrag::tensor::gen::uniform(&[60, 50, 40], 4_000, 31);
    let opts = CpdOptions { rank: 4, max_iters: 4, tol: 0.0, seed: 32, nonnegative: false };

    let cpu = cpd_als(&t, &opts, &mut CpuParallelBackend);

    let ctx = ScalFrag::builder().fixed_config(LaunchConfig::new(256, 128)).build();
    let mut backend = ctx.backend();
    let gpu = cpd_als(&t, &opts, &mut backend);

    assert_eq!(cpu.iters, gpu.iters);
    for (a, b) in cpu.fits.iter().zip(&gpu.fits) {
        assert!(
            (a - b).abs() < 1e-3,
            "fit trajectories diverged: {:?} vs {:?}",
            cpu.fits,
            gpu.fits
        );
    }

    let parti = Parti::rtx3090();
    let mut pb = parti.backend();
    let via_parti = cpd_als(&t, &opts, &mut pb);
    for (a, b) in cpu.fits.iter().zip(&via_parti.fits) {
        assert!((a - b).abs() < 1e-3);
    }
}

#[test]
fn tns_file_round_trip_preserves_mttkrp() {
    let t = scalfrag::tensor::gen::uniform(&[50, 40, 30], 2_000, 41);
    let f = FactorSet::random(t.dims(), 8, 42);
    let mut buf = Vec::new();
    scalfrag::tensor::io::write_tns(&t, &mut buf).unwrap();
    let t2 = scalfrag::tensor::io::read_tns(buf.as_slice()).unwrap();
    // Dims may shrink to the max observed index; pad factors accordingly by
    // comparing only through MTTKRP on the common rows.
    let m1 = mttkrp_seq(&t, &f, 0);
    let f2 = FactorSet::from_mats(
        (0..3)
            .map(|m| {
                let rows = t2.dims()[m] as usize;
                Mat::from_fn(rows, 8, |r, c| f.get(m)[(r, c)])
            })
            .collect(),
    );
    let m2 = mttkrp_seq(&t2, &f2, 0);
    for r in 0..m2.rows() {
        for c in 0..8 {
            assert!((m1[(r, c)] - m2[(r, c)]).abs() < 1e-3);
        }
    }
}
