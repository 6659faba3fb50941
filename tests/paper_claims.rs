//! Shape-level assertions of the paper's claims, on down-scaled stand-ins.
//! These are the automated counterparts of the figure harnesses in
//! `scalfrag-bench`: they check the *direction and rough magnitude* of each
//! result, not absolute numbers.

use scalfrag::autotune::sweep::sweep_tensor;
use scalfrag::exec::KernelChoice;
use scalfrag::gpusim::DeviceSpec;
use scalfrag::prelude::*;
use std::sync::OnceLock;

fn flickr_like() -> &'static CooTensor {
    // Heavy-tailed web tensor, paper-scale slice occupancy. Shared across
    // tests (materialisation is the expensive part).
    static T: OnceLock<CooTensor> = OnceLock::new();
    T.get_or_init(|| scalfrag::tensor::frostt::by_name("flickr-3d").unwrap().materialize(128))
}

fn trained_scalfrag() -> &'static ScalFrag {
    // One predictor training shared by every test that needs the adaptive
    // launch (the paper trains once, too).
    static S: OnceLock<ScalFrag> = OnceLock::new();
    S.get_or_init(|| {
        ScalFrag::builder().train_tiers(vec![20_000, 100_000, 400_000, 1_000_000]).build()
    })
}

fn factors(t: &CooTensor) -> FactorSet {
    FactorSet::random(t.dims(), 16, 0xFAC7)
}

/// Fig. 4: the launch space must discriminate strongly and have an
/// interior optimum whose position depends on the tensor.
#[test]
fn fig4_shape_launch_space_discriminates() {
    let d = DeviceSpec::rtx3090();
    let space = LaunchConfig::sweep_space(&d);
    let small = scalfrag::tensor::gen::uniform(&[300, 200, 150], 15_000, 1);
    let large = scalfrag::tensor::gen::uniform(&[4_000, 3_000, 1_500], 900_000, 2);

    for t in [&small, &large] {
        let sweep = sweep_tensor(&d, KernelChoice::CooAtomic, t, 0, 16, &space);
        let (_, best) = sweep.best();
        let (_, worst) = sweep.worst();
        assert!(worst / best > 3.0, "gap {} too small", worst / best);
    }
    let b_small = sweep_tensor(&d, KernelChoice::CooAtomic, &small, 0, 16, &space).best().0;
    let b_large = sweep_tensor(&d, KernelChoice::CooAtomic, &large, 0, 16, &space).best().0;
    assert_ne!(b_small, b_large, "optima must be tensor-dependent");
}

/// Fig. 5: H2D must be the dominant phase of the synchronous schedule for
/// transfer-heavy (large, hyper-sparse) tensors.
#[test]
fn fig5_shape_h2d_dominates_for_large_tensors() {
    let t = flickr_like();
    let f = factors(t);
    let r = Parti::rtx3090().mttkrp_dry(t, &f, 0);
    assert!(
        r.timing.h2d_s >= r.timing.kernel_s * 0.8,
        "H2D {} vs kernel {}",
        r.timing.h2d_s,
        r.timing.kernel_s
    );
    assert!(r.timing.h2d_s > 5.0 * r.timing.d2h_s);
    assert!(r.timing.h2d_fraction() > 0.4);
}

/// Fig. 9: the ScalFrag kernel strategy must beat ParTI's on both uniform
/// and skewed tensors, more on the skewed ones (atomic relief).
#[test]
fn fig9_shape_kernel_speedups() {
    let uniform = scalfrag::tensor::gen::uniform(&[3_000, 2_000, 1_000], 500_000, 3);
    let skewed = scalfrag::tensor::gen::zipf_slices(&[3_000, 2_000, 1_000], 500_000, 1.1, 4);
    let parti = Parti::rtx3090();
    let scal = trained_scalfrag();

    let mut speedups = Vec::new();
    for t in [&uniform, &skewed] {
        let f = factors(t);
        let rp = parti.mttkrp_dry(t, &f, 0);
        let rs = scal.mttkrp_dry(t, &f, 0);
        let s = rp.timing.kernel_s / rs.timing.kernel_s;
        assert!(s > 1.0, "ScalFrag kernel must win: {s}");
        speedups.push(s);
    }
    assert!(
        speedups[1] > speedups[0],
        "skewed speedup {} should exceed uniform {}",
        speedups[1],
        speedups[0]
    );
}

/// Fig. 10: the pipelined end-to-end path must beat the synchronous
/// baseline on a transfer-heavy tensor by a paper-like margin.
#[test]
fn fig10_shape_end_to_end_speedup() {
    let t = flickr_like();
    let f = factors(t);
    let parti = Parti::rtx3090();
    let scal = trained_scalfrag();
    let rp = parti.mttkrp_dry(t, &f, 0);
    let rs = scal.mttkrp_dry(t, &f, 0);
    let speedup = rp.timing.total_s / rs.timing.total_s;
    assert!(
        speedup > 1.15,
        "expected a paper-like e2e win, got {speedup}\n  parti {}\n  scal  {}",
        rp.summary(),
        rs.summary()
    );
    assert!(rs.overlap_ratio > 0.1, "pipelining must overlap phases");
}

/// Fig. 11: one segment is the worst setting; a moderate count recovers
/// most of the benefit; the marginal gain flattens.
#[test]
fn fig11_shape_segment_sensitivity() {
    let t = flickr_like();
    let f = factors(t);
    let time_with = |segments: usize| {
        let ctx = ScalFrag::builder()
            .fixed_config(LaunchConfig::new(4096, 256))
            .segments(segments)
            .streams(4.min(segments))
            .build();
        ctx.mttkrp_dry(t, &f, 0).timing.total_s
    };
    let t1 = time_with(1);
    let t4 = time_with(4);
    let t16 = time_with(16);
    assert!(t4 < t1, "4 segments must beat 1: {t4} vs {t1}");
    let gain_14 = t1 / t4;
    let gain_416 = t4 / t16;
    assert!(gain_416 < gain_14, "gains must flatten: 1->4 {gain_14}, 4->16 {gain_416}");
}

/// §IV-B: the adaptive launch must choose configurations close to the
/// sweep optimum for unseen tensors.
#[test]
fn adaptive_launch_selects_near_optimal_configs() {
    let d = DeviceSpec::rtx3090();
    let scal = trained_scalfrag();
    let space = LaunchConfig::sweep_space(&d);
    for (seed, nnz) in [(10u64, 40_000usize), (11, 300_000)] {
        let t = scalfrag::tensor::gen::zipf_slices(&[2_000, 1_500, 900], nnz, 0.9, seed);
        let cfg = scal.select_config(&t, 0, 16);
        let sweep = sweep_tensor(&d, KernelChoice::Tiled, &t, 0, 16, &space);
        let stats = scalfrag::kernels::SegmentStats::compute(&t, 0);
        let t_sel = KernelChoice::Tiled.duration(&d, &stats, 16, cfg);
        let (_, t_best) = sweep.best();
        assert!(
            t_sel / t_best < 1.8,
            "nnz {nnz}: selected {cfg} is {:.2}x off optimal",
            t_sel / t_best
        );
    }
}
