//! Property-based tests (proptest) on the core invariants of the stack.

use proptest::prelude::*;
use scalfrag::gpusim::{DeviceSpec, Gpu, LaunchConfig};
use scalfrag::kernels::reference::mttkrp_seq;
use scalfrag::prelude::*;
use scalfrag::tensor::segment;

/// Strategy: a small random tensor (order 3, bounded dims/nnz).
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2u32..24, 2u32..24, 2u32..24, 1usize..200, any::<u64>()).prop_map(|(i, j, k, nnz, seed)| {
        let cells = (i as usize) * (j as usize) * (k as usize);
        CooTensor::random_uniform(&[i, j, k], nnz.min(cells / 2).max(1), seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_preserves_entries_and_orders(t in arb_tensor(), mode in 0usize..3) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        let order = sorted.mode_order(mode);
        prop_assert!(sorted.is_sorted_by_order(&order));
        prop_assert_eq!(sorted.nnz(), t.nnz());
        // Same multiset of entries.
        let mut a: Vec<(Vec<u32>, f32)> = (0..t.nnz()).map(|e| (t.coord(e), t.values()[e])).collect();
        let mut b: Vec<(Vec<u32>, f32)> =
            (0..sorted.nnz()).map(|e| (sorted.coord(e), sorted.values()[e])).collect();
        a.sort_by(|x, y| x.0.cmp(&y.0));
        b.sort_by(|x, y| x.0.cmp(&y.0));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn csf_round_trip_preserves_dense_form(t in arb_tensor(), mode in 0usize..3) {
        let csf = CsfTensor::from_coo(&t, mode);
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        prop_assert_eq!(csf.to_coo().to_dense(), sorted.to_dense());
    }

    #[test]
    fn hicoo_round_trip_preserves_dense_form(t in arb_tensor(), bits in 1u32..6) {
        let h = scalfrag::tensor::HiCooTensor::from_coo(&t, bits);
        prop_assert_eq!(h.nnz(), t.nnz());
        prop_assert_eq!(h.to_coo().to_dense(), t.to_dense());
    }

    #[test]
    fn segmentation_partitions_nnz_exactly(t in arb_tensor(), segs in 1usize..10) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let parts = segment::segment_on_slice_boundaries(&sorted, 0, segs);
        let total: usize = parts.iter().map(|s| s.nnz()).sum();
        prop_assert_eq!(total, t.nnz());
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        if let (Some(first), Some(last)) = (parts.first(), parts.last()) {
            prop_assert_eq!(first.start, 0);
            prop_assert_eq!(last.end, t.nnz());
        }
    }

    #[test]
    fn mttkrp_is_additive_over_segments(t in arb_tensor(), segs in 1usize..6) {
        // MTTKRP(X) == Σ MTTKRP(segment) — the invariant the pipeline
        // relies on when it accumulates per-segment kernels.
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let f = FactorSet::random(sorted.dims(), 4, 7);
        let whole = mttkrp_seq(&sorted, &f, 0);
        let parts = segment::segment_by_nnz(sorted.nnz(), segs);
        let mut acc = Mat::zeros(whole.rows(), whole.cols());
        for s in &parts {
            let piece = sorted.slice_range(s.start, s.end);
            acc.axpy(1.0, &mttkrp_seq(&piece, &f, 0));
        }
        prop_assert!(acc.max_abs_diff(&whole) < 1e-3);
    }

    #[test]
    fn mttkrp_is_linear_in_the_tensor(t in arb_tensor(), alpha in 0.1f32..4.0) {
        let f = FactorSet::random(t.dims(), 4, 9);
        let mut scaled_t = t.clone();
        for v in scaled_t.values_mut() { *v *= alpha; }
        let mut lhs = mttkrp_seq(&t, &f, 1);
        lhs.scale(alpha);
        let rhs = mttkrp_seq(&scaled_t, &f, 1);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-2 * alpha.max(1.0));
    }

    #[test]
    fn features_are_finite_and_bounded(t in arb_tensor(), mode in 0usize..3) {
        let feats = TensorFeatures::extract(&t, mode);
        let v = feats.to_vec();
        prop_assert!(v.iter().all(|x| x.is_finite()));
        prop_assert!(feats.slice_ratio > 0.0 && feats.slice_ratio <= 1.0);
        prop_assert!(feats.fiber_ratio > 0.0 && feats.fiber_ratio <= 1.0 + 1e-9);
        prop_assert!(feats.max_nnz_per_slice as usize <= t.nnz());
        prop_assert!(feats.slice_imbalance >= 1.0 - 1e-9);
    }

    #[test]
    fn timeline_is_causal_and_engine_exclusive(
        copies in proptest::collection::vec((1u64..50_000_000, 0usize..4), 1..12)
    ) {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let streams: Vec<_> = (0..4).map(|_| gpu.create_stream()).collect();
        for (bytes, s) in &copies {
            gpu.h2d(streams[*s], *bytes, "c");
        }
        let t = gpu.synchronize();
        prop_assert!(t.validate().is_ok());
        prop_assert!(t.makespan() >= t.spans.iter().map(|s| s.duration()).fold(0.0, f64::max));
    }

    #[test]
    fn pinv_reconstructs_gram_action(rows in 3usize..12, rank in 1usize..5, seed in any::<u64>()) {
        // For V = GᵀG + I (well-conditioned), V · V† ≈ I.
        use scalfrag::linalg::{gram, matmul, pinv_spd};
        let mut rng = rand::rngs::mock::StepRng::new(seed, 0x9E3779B97F4A7C15);
        let g = Mat::random(rows, rank, &mut rng);
        let mut v = gram(&g);
        for i in 0..rank { v[(i, i)] += 1.0; }
        let prod = matmul(&v, &pinv_spd(&v));
        prop_assert!(prod.max_abs_diff(&Mat::identity(rank)) < 1e-2);
    }

    #[test]
    fn fcoo_round_trip_preserves_dense_form(t in arb_tensor(), mode in 0usize..3, seg in 1usize..128) {
        let fcoo = scalfrag::tensor::FCooTensor::from_coo(&t, mode, seg);
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        prop_assert_eq!(fcoo.to_coo().to_dense(), sorted.to_dense());
        // Partition carry flags are consistent with the start flags.
        for p in 0..fcoo.num_partitions() {
            let r = fcoo.partition_range(p);
            if fcoo.partition_continues(p) {
                prop_assert!(!fcoo.starts_row(r.start));
            }
        }
    }

    #[test]
    fn fcoo_kernel_matches_reference(t in arb_tensor(), seg in 1usize..64) {
        let f = FactorSet::random(t.dims(), 3, 5);
        let fcoo = scalfrag::tensor::FCooTensor::from_coo(&t, 0, seg);
        let out = scalfrag::kernels::AtomicF32Buffer::new(t.dims()[0] as usize * 3);
        scalfrag::kernels::FCooKernel::execute(&fcoo, &f, &out);
        let m = Mat::from_vec(t.dims()[0] as usize, 3, out.to_vec());
        let expect = mttkrp_seq(&t, &f, 0);
        prop_assert!(m.max_abs_diff(&expect) < 1e-2);
    }

    #[test]
    fn spttm_identity_is_a_permuted_copy(t in arb_tensor(), mode in 0usize..3) {
        let u = Mat::identity(t.dims()[mode] as usize);
        let semi = scalfrag::kernels::spttm::spttm_par(&t, &u, mode);
        let mut sorted = t.clone();
        let mut order: Vec<usize> = (0..3).filter(|&m| m != mode).collect();
        order.push(mode);
        sorted.sort_by_order(&order);
        prop_assert_eq!(semi.to_coo().to_dense(), sorted.to_dense());
    }

    #[test]
    fn bcsf_split_is_a_partition(t in arb_tensor(), threshold in 1u32..40) {
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let split = scalfrag::kernels::BcsfKernel::split(&sorted, 0, threshold);
        let mut covered = vec![false; sorted.nnz()];
        for r in split.heavy.iter().chain(split.light_runs.iter()) {
            for e in r.clone() {
                prop_assert!(!covered[e], "entry {e} covered twice");
                covered[e] = true;
            }
        }
        prop_assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn launch_config_sweep_members_always_validate(idx in 0usize..64) {
        let d = DeviceSpec::rtx3090();
        let space = LaunchConfig::sweep_space(&d);
        let cfg = space[idx % space.len()];
        prop_assert!(cfg.validate(&d).is_ok());
    }

    #[test]
    fn sharding_partitions_nnz_exactly(t in arb_tensor(), shards in 1usize..8, mode in 0usize..3) {
        use scalfrag::cluster::{shard_tensor, ShardPolicy};
        let mut sorted = t.clone();
        sorted.sort_for_mode(mode);
        for policy in [ShardPolicy::NnzBalanced, ShardPolicy::SliceAligned] {
            let parts = shard_tensor(&sorted, mode, policy, shards);
            let total: usize = parts.iter().map(|s| s.nnz()).sum();
            prop_assert_eq!(total, t.nnz());
            // Contiguous, gap-free cover of the entry range.
            for w in parts.windows(2) {
                prop_assert_eq!(w[0].range.end, w[1].range.start);
            }
            if let (Some(first), Some(last)) = (parts.first(), parts.last()) {
                prop_assert_eq!(first.range.start, 0);
                prop_assert_eq!(last.range.end, t.nnz());
            }
        }
    }

    #[test]
    fn slice_aligned_shards_never_share_output_rows(t in arb_tensor(), shards in 1usize..8) {
        use scalfrag::cluster::{shard_tensor, ShardPolicy};
        let mut sorted = t.clone();
        sorted.sort_for_mode(0);
        let parts = shard_tensor(&sorted, 0, ShardPolicy::SliceAligned, shards);
        let mut owner = std::collections::HashMap::new();
        for s in &parts {
            let (lo, hi) = s.rows.expect("slice-aligned shards own a row range");
            prop_assert!(lo <= hi);
            for r in lo..=hi {
                prop_assert!(
                    owner.insert(r, s.index).is_none(),
                    "row {r} owned by two shards"
                );
            }
            // Every entry of the shard writes inside its owned range.
            for &i in s.tensor.mode_indices(0) {
                prop_assert!((lo..=hi).contains(&i));
            }
        }
    }
}

/// A tensor of `nnz` independent uniform coordinates — duplicates kept —
/// with values `0, 1, 2, …` so every reordering of entries is visible.
fn random_coo(dims: &[u32], nnz: usize, seed: u64) -> CooTensor {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let inds = dims.iter().map(|&d| (0..nnz).map(|_| rng.gen_range(0..d)).collect()).collect();
    CooTensor::from_parts(dims, inds, (0..nnz).map(|v| v as f32).collect())
}

/// A seeded random ordering of the modes `0..order`.
fn random_order(order: usize, seed: u64) -> Vec<usize> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut modes: Vec<usize> = (0..order).collect();
    for i in (1..order).rev() {
        modes.swap(i, rng.gen_range(0..=i));
    }
    modes
}

/// Reference for `sort_by_order`: a stable comparison sort on the
/// coordinate tuples in `order`.
fn stable_sorted_reference(t: &CooTensor, order: &[usize]) -> CooTensor {
    let mut entries: Vec<usize> = (0..t.nnz()).collect();
    entries.sort_by_key(|&e| order.iter().map(|&m| t.mode_indices(m)[e]).collect::<Vec<u32>>());
    let inds =
        (0..t.order()).map(|m| entries.iter().map(|&e| t.mode_indices(m)[e]).collect()).collect();
    CooTensor::from_parts(t.dims(), inds, entries.iter().map(|&e| t.values()[e]).collect())
}

/// Reference for `fiber_nnz_counts`: a `BTreeMap` count keyed by the
/// coordinates of every mode but `mode`, in key order.
fn btreemap_fiber_counts(t: &CooTensor, mode: usize) -> Vec<u32> {
    let mut fibers = std::collections::BTreeMap::<Vec<u32>, u32>::new();
    for e in 0..t.nnz() {
        let key = (0..t.order()).filter(|&m| m != mode).map(|m| t.mode_indices(m)[e]).collect();
        *fibers.entry(key).or_default() += 1;
    }
    fibers.into_values().collect()
}

/// Dims for a 3- or 4-way tensor: every mode in `1..=max_dim`, and mode 1
/// widened to `wide` when that exceeds `2^16` (the digit-split path).
fn mixed_dims(order: usize, max_dim: u32, wide: u32, seed: u64) -> Vec<u32> {
    let mut dims: Vec<u32> =
        (0..order as u64).map(|m| 1 + ((seed >> (8 * m)) as u32 % max_dim)).collect();
    if wide > 1 << 16 {
        dims[1] = wide;
    }
    dims
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sort_by_order_matches_a_stable_comparison_sort(
        order in 3usize..5,
        max_dim in 1u32..12,
        wide in 0u32..4_000_000,
        nnz in 0usize..300,
        seed in any::<u64>(),
    ) {
        // Small dims make the tensor duplicate-heavy: tied entries must keep
        // their input order. Each case runs once with those dims and once
        // with mode 1 widened to `wide`, which almost always exceeds 2^16
        // and so is sorted in two passes, one per half of its bits.
        for wide in [0, wide] {
            let t = random_coo(&mixed_dims(order, max_dim, wide, seed), nnz, seed);
            let modes = random_order(order, seed);
            let mut sorted = t.clone();
            sorted.sort_by_order(&modes);
            prop_assert_eq!(sorted, stable_sorted_reference(&t, &modes));
        }
    }

    #[test]
    fn fiber_nnz_counts_match_a_btreemap_count(
        order in 3usize..5,
        max_dim in 1u32..10,
        wide in 0u32..131_072,
        nnz in 0usize..300,
        mode in 0usize..4,
        seed in any::<u64>(),
    ) {
        let t = random_coo(&mixed_dims(order, max_dim, wide, seed), nnz, seed);
        let mode = mode % order;
        let counts = t.fiber_nnz_counts(mode);
        prop_assert_eq!(t.num_fibers(mode), counts.len());
        prop_assert_eq!(counts, btreemap_fiber_counts(&t, mode));
    }
}

#[test]
fn sorts_and_fiber_counts_on_empty_single_and_full_width_tensors() {
    for dims in [vec![3u32, 4, 5], vec![2, 3, 4, 5], vec![u32::MAX, 2, 1 << 20]] {
        for nnz in [0, 1, 40] {
            let t = random_coo(&dims, nnz, nnz as u64);
            for seed in 0..4 {
                let modes = random_order(dims.len(), seed);
                let mut sorted = t.clone();
                sorted.sort_by_order(&modes);
                assert_eq!(sorted, stable_sorted_reference(&t, &modes), "dims {dims:?} nnz {nnz}");
            }
            for mode in 0..dims.len() {
                assert_eq!(t.fiber_nnz_counts(mode), btreemap_fiber_counts(&t, mode));
            }
        }
    }
}
