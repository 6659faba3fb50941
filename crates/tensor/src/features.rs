//! Tensor feature extraction for the adaptive launching strategy (§IV-B).
//!
//! The paper: *"The feature parameters we focus on mainly include tensor
//! size (dimension and number of elements) and sparsity (distribution and
//! proportion of nonzero elements). For example, the feature parameters
//! include numSlices, numFibers, sliceRatio, fiberRatio, maxNnzPerSlice,
//! …"* — this module computes exactly that set (plus the spread statistics
//! needed to characterise skew) for a given target mode, and flattens it
//! into the numeric vector consumed by the `scalfrag-autotune` models.

use crate::{CooTensor, Idx};

/// The §IV-B feature parameters of one `(tensor, mode)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorFeatures {
    /// Tensor order `N`.
    pub order: usize,
    /// Number of non-zero entries.
    pub nnz: usize,
    /// Size of the target mode (number of possible slices).
    pub mode_dim: Idx,
    /// Product of the other mode sizes (possible fiber positions), saturated
    /// into `f64`.
    pub other_dims_product: f64,
    /// Overall density `nnz / ∏ dims`.
    pub density: f64,
    /// Non-empty mode-`n` slices (`numSlices`).
    pub num_slices: usize,
    /// Distinct mode-`n` fibers (`numFibers`).
    pub num_fibers: usize,
    /// `numSlices / mode_dim` (`sliceRatio`).
    pub slice_ratio: f64,
    /// `numFibers / other_dims_product` (`fiberRatio`).
    pub fiber_ratio: f64,
    /// Largest slice population (`maxNnzPerSlice`).
    pub max_nnz_per_slice: u32,
    /// Mean non-zeros per non-empty slice.
    pub avg_nnz_per_slice: f64,
    /// Population standard deviation of non-zeros per non-empty slice.
    pub std_nnz_per_slice: f64,
    /// Mean non-zeros per fiber.
    pub avg_nnz_per_fiber: f64,
    /// `max/avg` slice population — the load-imbalance indicator.
    pub slice_imbalance: f64,
    /// Largest fiber population (`maxFiberLength`).
    pub max_nnz_per_fiber: u32,
    /// `max/avg` fiber population — the fiber-level imbalance that
    /// serializes whole blocks in slice/fiber-parallel kernels and that
    /// the load-balanced segmented-scan arm is immune to.
    pub fiber_imbalance: f64,
    /// Gini coefficient of the non-empty slice populations in `[0, 1)`:
    /// 0 for perfectly even slices, → 1 when one slice holds everything.
    pub nnz_gini: f64,
}

/// Names of the flattened feature vector entries, in [`TensorFeatures::to_vec`]
/// order — used by model introspection and reports.
pub const FEATURE_NAMES: [&str; 14] = [
    "order",
    "log_nnz",
    "log_mode_dim",
    "log_other_dims",
    "log_density",
    "slice_ratio",
    "fiber_ratio",
    "log_max_nnz_per_slice",
    "log_avg_nnz_per_slice",
    "cv_nnz_per_slice",
    "log_avg_nnz_per_fiber",
    "slice_imbalance",
    "fiber_imbalance",
    "nnz_gini",
];

impl TensorFeatures {
    /// Extracts the features of `tensor` for mode-`mode` MTTKRP.
    ///
    /// # Panics
    /// Panics if `mode >= tensor.order()`.
    pub fn extract(tensor: &CooTensor, mode: usize) -> Self {
        assert!(mode < tensor.order(), "mode out of range");
        let nnz = tensor.nnz();
        let mode_dim = tensor.dims()[mode];
        let other_dims_product: f64 = tensor
            .dims()
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &d)| d as f64)
            .product();

        let hist = tensor.slice_nnz_histogram(mode);
        let nonempty: Vec<u32> = hist.into_iter().filter(|&c| c > 0).collect();
        let num_slices = nonempty.len();
        let max_nnz_per_slice = nonempty.iter().copied().max().unwrap_or(0);
        let avg_nnz_per_slice = if num_slices == 0 { 0.0 } else { nnz as f64 / num_slices as f64 };
        let var = if num_slices == 0 {
            0.0
        } else {
            nonempty
                .iter()
                .map(|&c| {
                    let d = c as f64 - avg_nnz_per_slice;
                    d * d
                })
                .sum::<f64>()
                / num_slices as f64
        };

        let (num_fibers, max_nnz_per_fiber) = tensor.fiber_count_and_max(mode);
        let avg_nnz_per_fiber = if num_fibers == 0 { 0.0 } else { nnz as f64 / num_fibers as f64 };

        // Gini of the non-empty slice populations: sort ascending, then
        // G = 2·Σᵢ i·xᵢ / (n·Σx) − (n+1)/n with 1-based ranks — 0 for an
        // even histogram, → 1 − 1/n when one slice dominates.
        let nnz_gini = {
            let mut sorted = nonempty.clone();
            sorted.sort_unstable();
            let n = sorted.len() as f64;
            let total: f64 = sorted.iter().map(|&c| c as f64).sum();
            if sorted.is_empty() || total <= 0.0 {
                0.0
            } else {
                let weighted: f64 =
                    sorted.iter().enumerate().map(|(i, &c)| (i as f64 + 1.0) * c as f64).sum();
                (2.0 * weighted / (n * total) - (n + 1.0) / n).max(0.0)
            }
        };

        Self {
            order: tensor.order(),
            nnz,
            mode_dim,
            other_dims_product,
            density: tensor.density(),
            num_slices,
            num_fibers,
            slice_ratio: num_slices as f64 / mode_dim as f64,
            fiber_ratio: if other_dims_product > 0.0 {
                num_fibers as f64 / other_dims_product
            } else {
                0.0
            },
            max_nnz_per_slice,
            avg_nnz_per_slice,
            std_nnz_per_slice: var.sqrt(),
            avg_nnz_per_fiber,
            slice_imbalance: if avg_nnz_per_slice > 0.0 {
                max_nnz_per_slice as f64 / avg_nnz_per_slice
            } else {
                0.0
            },
            max_nnz_per_fiber,
            fiber_imbalance: if avg_nnz_per_fiber > 0.0 {
                max_nnz_per_fiber as f64 / avg_nnz_per_fiber
            } else {
                0.0
            },
            nnz_gini,
        }
    }

    /// Flattens into the numeric vector the ML models consume. Counts are
    /// `log10`-scaled (they span 6+ orders of magnitude across the FROSTT
    /// suite); ratios stay raw. Order matches [`FEATURE_NAMES`].
    pub fn to_vec(&self) -> Vec<f64> {
        let l = |x: f64| if x > 0.0 { x.log10() } else { -12.0 };
        vec![
            self.order as f64,
            l(self.nnz as f64),
            l(self.mode_dim as f64),
            l(self.other_dims_product),
            l(self.density),
            self.slice_ratio,
            self.fiber_ratio,
            l(self.max_nnz_per_slice as f64),
            l(self.avg_nnz_per_slice),
            if self.avg_nnz_per_slice > 0.0 {
                self.std_nnz_per_slice / self.avg_nnz_per_slice
            } else {
                0.0
            },
            l(self.avg_nnz_per_fiber),
            self.slice_imbalance,
            self.fiber_imbalance,
            self.nnz_gini,
        ]
    }

    /// Number of entries of [`TensorFeatures::to_vec`].
    pub const fn dim() -> usize {
        FEATURE_NAMES.len()
    }
}

/// A quantized, hashable summary of one `(tensor, mode, rank)` planning
/// problem — the key of the serving layer's plan cache.
///
/// Two tensors that land on the same key are close enough in every feature
/// the launch predictor and pipeline planner look at that their execution
/// plans are interchangeable (same launch configuration regime, same
/// segment-count regime). The buckets are deliberately coarse:
///
/// * counts (`nnz`, slices, fibers, mode size) are bucketed on a log₂
///   grid — quarter octaves for `nnz` (≈ ±9 % within a bucket), half
///   octaves for the rest;
/// * ratios (`sliceRatio`, `fiberRatio`) in eighths;
/// * the skew indicators (`max/avg` slice and fiber populations) in whole
///   octaves, and the slice-population Gini coefficient in eighths — the
///   imbalance axes that separate the load-balanced kernel arm's regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FeatureKey {
    /// Tensor order `N`.
    pub order: usize,
    /// Target MTTKRP mode.
    pub mode: usize,
    /// CPD rank (the launch space and shared-memory request depend on it).
    pub rank: u32,
    /// `round(4 · log2 nnz)` — quarter-octave non-zero count bucket.
    pub nnz_bucket: i32,
    /// `round(2 · log2 numSlices)` — half-octave bucket.
    pub slices_bucket: i32,
    /// `round(2 · log2 numFibers)` — half-octave bucket.
    pub fibers_bucket: i32,
    /// `round(2 · log2 mode_dim)` — half-octave bucket.
    pub mode_dim_bucket: i32,
    /// `round(8 · sliceRatio)` — eighth buckets in `[0, 1]`.
    pub slice_ratio_bucket: i32,
    /// `round(8 · fiberRatio)` — eighth buckets in `[0, 1]`.
    pub fiber_ratio_bucket: i32,
    /// `round(log2 slice_imbalance)` — whole-octave skew bucket.
    pub imbalance_bucket: i32,
    /// `round(log2 fiber_imbalance)` — whole-octave fiber-skew bucket;
    /// together with `gini_bucket` this is what flips the predictor to
    /// the load-balanced segmented-scan arm.
    pub fiber_imbalance_bucket: i32,
    /// `round(8 · nnz_gini)` — eighth buckets of the slice-population
    /// Gini coefficient in `[0, 1)`.
    pub gini_bucket: i32,
}

impl FeatureKey {
    /// Quantizes extracted features (of `mode`) into a cache key.
    pub fn quantize(f: &TensorFeatures, mode: usize, rank: u32) -> Self {
        let lb = |x: f64, scale: f64| {
            if x > 0.0 {
                (scale * x.log2()).round() as i32
            } else {
                i32::MIN
            }
        };
        Self {
            order: f.order,
            mode,
            rank,
            nnz_bucket: lb(f.nnz as f64, 4.0),
            slices_bucket: lb(f.num_slices as f64, 2.0),
            fibers_bucket: lb(f.num_fibers as f64, 2.0),
            mode_dim_bucket: lb(f.mode_dim as f64, 2.0),
            slice_ratio_bucket: (8.0 * f.slice_ratio).round() as i32,
            fiber_ratio_bucket: (8.0 * f.fiber_ratio).round() as i32,
            imbalance_bucket: lb(f.slice_imbalance.max(1.0), 1.0),
            fiber_imbalance_bucket: lb(f.fiber_imbalance.max(1.0), 1.0),
            gini_bucket: (8.0 * f.nnz_gini).round() as i32,
        }
    }

    /// Convenience: extract + quantize in one call.
    pub fn of(tensor: &CooTensor, mode: usize, rank: u32) -> Self {
        Self::quantize(&TensorFeatures::extract(tensor, mode), mode, rank)
    }

    /// Whether two planning problems may share one *batched* plan.
    ///
    /// The serving layer fuses jobs into a single ScheduleIR plan only when
    /// their keys are batch-compatible: the fused plan uploads one set of
    /// shared factor matrices and reuses one launch-configuration verdict
    /// for every member, so every feature the predictor and planner read
    /// must agree. That makes compatibility exactly key *equality* — and
    /// deliberately so: group formation partitions the queue, which needs
    /// an equivalence relation, and any "nearby bucket" slack would break
    /// transitivity (a ~ b and b ~ c without a ~ c) and let a group's
    /// representative plan drift away from its members.
    pub fn batch_compatible(&self, other: &FeatureKey) -> bool {
        self == other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_of_known_tensor() {
        // 3x2x2 tensor: slices 0 and 2 populated for mode 0.
        let t = CooTensor::from_entries(
            &[3, 2, 2],
            &[
                (vec![0, 0, 0], 1.0),
                (vec![0, 1, 0], 1.0),
                (vec![0, 1, 1], 1.0),
                (vec![2, 0, 1], 1.0),
            ],
        );
        let f = TensorFeatures::extract(&t, 0);
        assert_eq!(f.order, 3);
        assert_eq!(f.nnz, 4);
        assert_eq!(f.mode_dim, 3);
        assert_eq!(f.num_slices, 2);
        assert_eq!(f.max_nnz_per_slice, 3);
        assert!((f.slice_ratio - 2.0 / 3.0).abs() < 1e-12);
        assert!((f.avg_nnz_per_slice - 2.0).abs() < 1e-12);
        assert!((f.slice_imbalance - 1.5).abs() < 1e-12);
        // Mode-0 fibers fix (j,k): distinct pairs are (0,0),(1,0),(1,1),(0,1) = 4.
        assert_eq!(f.num_fibers, 4);
        assert!((f.fiber_ratio - 1.0).abs() < 1e-12);
        assert!((f.density - 4.0 / 12.0).abs() < 1e-12);
        // Each mode-0 fiber holds exactly one entry: no fiber skew.
        assert_eq!(f.max_nnz_per_fiber, 1);
        assert!((f.fiber_imbalance - 1.0).abs() < 1e-12);
        // Slice populations {3, 1}: G = 2·(1·1 + 2·3)/(2·4) − 3/2 = 0.25.
        assert!((f.nnz_gini - 0.25).abs() < 1e-12);
    }

    #[test]
    fn vector_has_stable_layout() {
        let t = CooTensor::random_uniform(&[40, 30, 20], 200, 4);
        let f = TensorFeatures::extract(&t, 1);
        let v = f.to_vec();
        assert_eq!(v.len(), TensorFeatures::dim());
        assert_eq!(v.len(), FEATURE_NAMES.len());
        assert_eq!(v[0], 3.0);
        assert!((v[1] - (200f64).log10()).abs() < 1e-12);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn skewed_tensor_has_higher_imbalance() {
        let uni = crate::gen::uniform(&[100, 50, 50], 2_000, 7);
        let skew = crate::gen::zipf_slices(&[100, 50, 50], 2_000, 1.2, 7);
        let fu = TensorFeatures::extract(&uni, 0);
        let fs = TensorFeatures::extract(&skew, 0);
        assert!(
            fs.slice_imbalance > 2.0 * fu.slice_imbalance,
            "skewed {} vs uniform {}",
            fs.slice_imbalance,
            fu.slice_imbalance
        );
        assert!(fs.std_nnz_per_slice > fu.std_nnz_per_slice);
    }

    #[test]
    fn empty_tensor_is_safe() {
        let t = CooTensor::new(&[10, 10]);
        let f = TensorFeatures::extract(&t, 0);
        assert_eq!(f.num_slices, 0);
        assert_eq!(f.max_nnz_per_slice, 0);
        assert_eq!(f.slice_imbalance, 0.0);
        assert!(f.to_vec().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn feature_key_stable_across_resampling() {
        // Same generator, same shape, different seeds: the quantized key
        // must collapse the sampling noise.
        let a = crate::gen::zipf_slices(&[200, 120, 90], 20_000, 0.9, 11);
        let b = crate::gen::zipf_slices(&[200, 120, 90], 20_000, 0.9, 12);
        assert_eq!(FeatureKey::of(&a, 0, 16), FeatureKey::of(&b, 0, 16));
    }

    #[test]
    fn feature_key_separates_sizes_modes_and_ranks() {
        let small = crate::gen::uniform(&[100, 80, 60], 4_000, 5);
        let large = crate::gen::uniform(&[1000, 800, 600], 400_000, 5);
        assert_ne!(FeatureKey::of(&small, 0, 16), FeatureKey::of(&large, 0, 16));
        assert_ne!(FeatureKey::of(&small, 0, 16), FeatureKey::of(&small, 1, 16));
        assert_ne!(FeatureKey::of(&small, 0, 16), FeatureKey::of(&small, 0, 32));
    }

    #[test]
    fn feature_key_of_empty_tensor_is_safe() {
        let t = CooTensor::new(&[10, 10]);
        let k = FeatureKey::of(&t, 0, 8);
        assert_eq!(k.nnz_bucket, i32::MIN);
        assert_eq!(k, FeatureKey::of(&t, 0, 8));
    }

    /// Metamorphic: every log-bucketed key component is monotone in the
    /// underlying feature — growing a feature can only keep or raise its
    /// bucket, never lower it. Guards the plan cache against a requantize
    /// that would alias large tensors into small-tensor plans.
    #[test]
    fn feature_key_quantization_is_monotone() {
        let base = crate::gen::uniform(&[64, 48, 32], 1_000, 17);
        let mut f = TensorFeatures::extract(&base, 0);
        let mut prev = FeatureKey::quantize(&f, 0, 8);
        for step in 1..=12 {
            f.nnz *= 2;
            f.num_slices = (f.num_slices + step).min(f.mode_dim as usize);
            f.num_fibers += 37 * step;
            f.slice_imbalance *= 1.5;
            f.fiber_imbalance *= 1.4;
            f.nnz_gini = (f.nnz_gini + 0.05).min(0.99);
            let next = FeatureKey::quantize(&f, 0, 8);
            assert!(next.nnz_bucket > prev.nnz_bucket, "nnz bucket must strictly grow on doubling");
            assert!(next.slices_bucket >= prev.slices_bucket);
            assert!(next.fibers_bucket >= prev.fibers_bucket);
            assert!(next.imbalance_bucket >= prev.imbalance_bucket);
            assert!(next.fiber_imbalance_bucket >= prev.fiber_imbalance_bucket);
            assert!(next.gini_bucket >= prev.gini_bucket);
            prev = next;
        }
    }

    /// Metamorphic: the key is a function of the slice/fiber *histograms*,
    /// so reordering the entry storage must not move any bucket.
    #[test]
    fn feature_key_stable_under_nnz_shuffle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let t = crate::gen::zipf_slices(&[96, 64, 48], 6_000, 1.1, 23);
        let n = t.nnz();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(24);
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = CooTensor::new(t.dims());
        for &e in &order {
            let coord: Vec<Idx> = (0..t.order()).map(|m| t.mode_indices(m)[e]).collect();
            shuffled.push(&coord, t.values()[e]);
        }
        for mode in 0..t.order() {
            assert_eq!(
                FeatureKey::of(&t, mode, 8),
                FeatureKey::of(&shuffled, mode, 8),
                "mode {mode}: key moved under entry reorder"
            );
        }
    }

    /// Metamorphic: two tensors in the same shape class — identical slice
    /// populations up to slice *relabeling*, arbitrary values — quantize
    /// to identical keys. A cache hit between them is exactly what the
    /// plan cache wants.
    #[test]
    fn feature_key_identical_for_same_shape_class() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let a = crate::gen::zipf_slices(&[80, 50, 40], 5_000, 1.0, 31);
        // Relabel mode-0 slices by a fixed permutation and rewrite every
        // value: structure preserved, content entirely different.
        let dim0 = a.dims()[0];
        let relabel: Vec<Idx> = {
            let mut p: Vec<Idx> = (0..dim0).collect();
            let mut rng = StdRng::seed_from_u64(32);
            for i in (1..p.len()).rev() {
                p.swap(i, rng.gen_range(0..=i));
            }
            p
        };
        let mut rng = StdRng::seed_from_u64(33);
        let mut b = CooTensor::new(a.dims());
        for e in 0..a.nnz() {
            let mut coord: Vec<Idx> = (0..a.order()).map(|m| a.mode_indices(m)[e]).collect();
            coord[0] = relabel[coord[0] as usize];
            b.push(&coord, rng.gen::<f32>());
        }
        assert_eq!(
            FeatureKey::of(&a, 0, 16),
            FeatureKey::of(&b, 0, 16),
            "slice relabeling + value rewrite must not change the key"
        );
    }

    /// Metamorphic: the imbalance features are functions of the slice and
    /// fiber *histograms*, so reordering the stored entries must leave
    /// their raw values (not just their buckets) exactly unchanged.
    #[test]
    fn imbalance_features_invariant_under_nnz_shuffle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let t = crate::gen::zipf_slices(&[72, 48, 36], 4_000, 1.2, 41);
        let n = t.nnz();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(42);
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = CooTensor::new(t.dims());
        for &e in &order {
            let coord: Vec<Idx> = (0..t.order()).map(|m| t.mode_indices(m)[e]).collect();
            shuffled.push(&coord, t.values()[e]);
        }
        for mode in 0..t.order() {
            let a = TensorFeatures::extract(&t, mode);
            let b = TensorFeatures::extract(&shuffled, mode);
            assert_eq!(a.max_nnz_per_fiber, b.max_nnz_per_fiber, "mode {mode}");
            assert_eq!(a.fiber_imbalance, b.fiber_imbalance, "mode {mode}");
            assert_eq!(a.nnz_gini, b.nnz_gini, "mode {mode}");
        }
    }

    /// Metamorphic: sharpening the slice distribution (higher Zipf
    /// exponent, same shape/nnz/seed) must monotonically raise the Gini
    /// coefficient, and concentrating >50 % of the nnz into one fiber
    /// must raise the fiber imbalance far above the uniform baseline.
    #[test]
    fn imbalance_features_monotone_in_skew() {
        let ginis: Vec<f64> = [0.0f64, 0.6, 1.3]
            .iter()
            .map(|&a| {
                let t = crate::gen::zipf_slices(&[128, 64, 48], 8_000, a, 19);
                TensorFeatures::extract(&t, 0).nnz_gini
            })
            .collect();
        assert!(
            ginis[0] < ginis[1] && ginis[1] < ginis[2],
            "gini must grow with the Zipf exponent: {ginis:?}"
        );
        assert!(ginis[2] > 0.5, "strongly skewed slices have gini > 0.5, got {}", ginis[2]);

        // One mode-0 fiber (j=3, k=5) holding 60 % of the nnz.
        let uni = crate::gen::uniform(&[64, 32, 24], 2_000, 20);
        let mut heavy = CooTensor::new(&[64, 32, 24]);
        for e in 0..uni.nnz() {
            if e % 5 < 3 {
                heavy.push(&[uni.mode_indices(0)[e], 3, 5], uni.values()[e]);
            } else {
                heavy.push(&uni.coord(e), uni.values()[e]);
            }
        }
        let fu = TensorFeatures::extract(&uni, 0);
        let fh = TensorFeatures::extract(&heavy, 0);
        assert!(
            fh.fiber_imbalance > 8.0 * fu.fiber_imbalance,
            "one dominant fiber: {} vs uniform {}",
            fh.fiber_imbalance,
            fu.fiber_imbalance
        );
        assert!(fh.max_nnz_per_fiber as usize > uni.nnz() / 2);
    }

    /// Metamorphic: quantization-bucket equality ⇒ batch compatibility.
    /// Two tensors resampled from the same shape class collapse to one key,
    /// and the compatibility relation must follow the key — reflexively,
    /// symmetrically, and across the resampling.
    #[test]
    fn batch_compatible_follows_bucket_equality() {
        let a = crate::gen::zipf_slices(&[200, 120, 90], 20_000, 0.9, 11);
        let b = crate::gen::zipf_slices(&[200, 120, 90], 20_000, 0.9, 12);
        let ka = FeatureKey::of(&a, 0, 16);
        let kb = FeatureKey::of(&b, 0, 16);
        assert_eq!(ka, kb, "same shape class must collapse to one key");
        assert!(ka.batch_compatible(&kb) && kb.batch_compatible(&ka), "equal keys ⇒ compatible");
        assert!(ka.batch_compatible(&ka), "compatibility is reflexive");

        // Any bucket disagreement breaks compatibility: a 10× larger
        // tensor, a different mode, and a different rank all must refuse
        // to fuse.
        let large = crate::gen::uniform(&[1000, 800, 600], 400_000, 5);
        assert!(!ka.batch_compatible(&FeatureKey::of(&large, 0, 16)));
        assert!(!ka.batch_compatible(&FeatureKey::of(&a, 1, 16)));
        assert!(!ka.batch_compatible(&FeatureKey::of(&a, 0, 32)));
    }

    /// Metamorphic: batch compatibility is a function of the slice/fiber
    /// histograms, so reordering the entry storage must not flip it.
    #[test]
    fn batch_compatible_invariant_under_nnz_shuffle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let t = crate::gen::zipf_slices(&[96, 64, 48], 6_000, 1.1, 23);
        let n = t.nnz();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(29);
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = CooTensor::new(t.dims());
        for &e in &order {
            let coord: Vec<Idx> = (0..t.order()).map(|m| t.mode_indices(m)[e]).collect();
            shuffled.push(&coord, t.values()[e]);
        }
        for mode in 0..t.order() {
            let k = FeatureKey::of(&t, mode, 8);
            let ks = FeatureKey::of(&shuffled, mode, 8);
            assert!(
                k.batch_compatible(&ks) && ks.batch_compatible(&k),
                "mode {mode}: shuffle flipped batch compatibility"
            );
        }
    }

    #[test]
    fn per_mode_features_differ() {
        let t = crate::gen::zipf_slices(&[200, 10, 10], 1_000, 1.0, 3);
        let f0 = TensorFeatures::extract(&t, 0);
        let f1 = TensorFeatures::extract(&t, 1);
        assert_ne!(f0.mode_dim, f1.mode_dim);
        assert_ne!(f0.num_slices, f1.num_slices);
    }
}
