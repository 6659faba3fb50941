//! Verdict arms: which *kernel arm* should ScalFrag launch?
//!
//! The launch predictor (§IV-B) answers "which `<<<grid, block>>>`?"; this
//! module answers the question one level up — which of the four kernel arms
//! (atomic COO, shared-memory tiled, load-balanced segmented scan, FLYCOO
//! mode-agnostic) the adaptive launcher should dispatch for a given
//! `(tensor, mode, rank)` problem. The decision is a threshold rule over
//! the quantized [`FeatureKey`] buckets, calibrated against the gpusim
//! cost-model argmin (see the tests, which enforce the agreement).
//!
//! ## Why thresholds, and which ones
//!
//! Plain Zipf slice skew does **not** defeat the tiled kernel: its
//! per-block shared-memory tile pre-reduces `avg_nnz_per_slice` entries
//! (capped at `block/4 = 64`) before touching global memory, and Zipf skew
//! raises the average *together with* the hotspot, so the atomic roof stays
//! below the memory roof at every exponent. The regime where tiled
//! genuinely collapses — and the segmented scan wins — is a **dominant
//! slice over a sparse tail**: one output row holding ≳35 % of the
//! non-zeros while the remaining slices hold a handful each. Then the tile
//! reduction is tiny (avg ≈ a few) but the contention degree is huge
//! (Herfindahl hotness ≳ 0.15), and the modelled tiled time grows 2–8×
//! past the balanced arm, which performs no output atomics at all beyond
//! two carry cells per chunk.
//!
//! In bucket space that regime is the conjunction of three tests:
//!
//! 1. **skew guard** — `gini_bucket ≥ 4` (Gini ≥ 0.5) or
//!    `fiber_imbalance_bucket ≥ 4` (max/avg fiber ≥ 16): some imbalance
//!    exists at all. Uniform tensors exit here.
//! 2. **dominant share** — `2·imbalance_bucket − slices_bucket ≥ −3`.
//!    `imbalance_bucket ≈ log2(max/avg)` and `slices_bucket/2 ≈
//!    log2(numSlices)`, so the left side is `2·log2(maxShare)`: the test
//!    asks for a single slice holding ≳ 2^(−1.5) ≈ 35 % of the non-zeros.
//!    Zipf tensors fail it (mass spread over many hot slices).
//! 3. **sparse tail** — `nnz_bucket − 2·slices_bucket < 24`, i.e.
//!    `avg_nnz_per_slice < 2⁶ = 64`: the average sits below the tiled
//!    kernel's block-reduction cap, so tiled cannot amortise the hotspot
//!    into its shared tile.
//!
//! When all three hold the verdict is [`KernelChoice::Balanced`]. When the
//! caller's objective is a full CPD-ALS sweep over every mode
//! ([`MttkrpObjective::AllModes`]) and the balanced arm is not forced, the
//! verdict is [`KernelChoice::ModeAgnostic`] — one FLYCOO copy serves all
//! modes without re-tiling, trading a gather per entry for `N−1` avoided
//! re-sorts. Otherwise the verdict is the tiled baseline.

use scalfrag_balance::KernelChoice;
use scalfrag_tensor::FeatureKey;

/// Skew guard: minimum `gini_bucket` (eighths of the slice-population
/// Gini) for the balanced arm to be considered — Gini ≥ 0.5.
pub const GINI_SKEW_BUCKET: i32 = 4;

/// Skew guard (fiber axis): minimum `fiber_imbalance_bucket` (whole
/// octaves of max/avg fiber population) — max fiber ≥ 16× the average.
pub const FIBER_SKEW_BUCKET: i32 = 4;

/// Dominant-share test: `2·imbalance_bucket − slices_bucket` must reach
/// this margin, i.e. the largest slice holds ≳ 2^(−1.5) ≈ 35 % of nnz.
pub const DOMINANT_SHARE_MARGIN: i32 = -3;

/// Sparse-tail test: `nnz_bucket − 2·slices_bucket` (= 4·log2 of the
/// average slice population) must stay below this, i.e. avg < 2⁶ = 64 —
/// the tiled kernel's per-block reduction cap at the default block size.
pub const AVG_BELOW_TILE_CAP: i32 = 24;

/// What the caller is optimising for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MttkrpObjective {
    /// One MTTKRP along a single mode (the tensor is already, or will be,
    /// tiled for that mode).
    SingleMode,
    /// A full CPD-ALS iteration: MTTKRP along *every* mode, where re-tiling
    /// per mode is a real cost the FLYCOO format avoids.
    AllModes,
}

/// The predictor's kernel-arm decision plus the rule that fired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArmVerdict {
    /// The chosen kernel arm.
    pub kernel: KernelChoice,
    /// Human-readable name of the decisive rule (stable; used in reports).
    pub reason: &'static str,
}

/// Decides the kernel arm for one quantized planning problem.
pub fn predict_arm(key: &FeatureKey, objective: MttkrpObjective) -> ArmVerdict {
    let skewed =
        key.gini_bucket >= GINI_SKEW_BUCKET || key.fiber_imbalance_bucket >= FIBER_SKEW_BUCKET;
    let dominant_share = 2 * key.imbalance_bucket - key.slices_bucket >= DOMINANT_SHARE_MARGIN;
    let sparse_tail = key.nnz_bucket - 2 * key.slices_bucket < AVG_BELOW_TILE_CAP;
    if skewed && dominant_share && sparse_tail {
        return ArmVerdict { kernel: KernelChoice::Balanced, reason: "dominant-slice-sparse-tail" };
    }
    if objective == MttkrpObjective::AllModes {
        return ArmVerdict { kernel: KernelChoice::ModeAgnostic, reason: "all-modes-no-retiling" };
    }
    ArmVerdict { kernel: KernelChoice::Tiled, reason: "tiled-baseline" }
}

/// Minimum modelled transfer speedup before the serving layer prefers a
/// batch-fused dispatch over solo dispatches. Below this the fused plan's
/// extra formation wait buys nothing measurable.
pub const BATCH_SPEEDUP_GATE: f64 = 1.05;

/// Modelled transfer-side speedup of dispatching `group` compatible jobs
/// as **one** batch-fused plan versus `group` solo dispatches.
///
/// Solo, every job re-uploads the shared factor set: per-job transfer is
/// `F + T` (factor bytes + mean tensor bytes). Fused, the factors cross
/// PCIe once and amortise over the group: `F/g + T`. The ratio is the
/// speedup of the H2D-bound front of the pipeline — the part batching
/// actually changes; kernels and D2H are per-job either way.
pub fn batched_transfer_speedup(
    factor_bytes: usize,
    mean_tensor_bytes: usize,
    group: usize,
) -> f64 {
    let g = group.max(1) as f64;
    let f = factor_bytes as f64;
    let t = mean_tensor_bytes as f64;
    if f + t <= 0.0 {
        return 1.0;
    }
    (f + t) / (f / g + t)
}

/// The batching arm decision: fuse when the modelled transfer speedup
/// clears [`BATCH_SPEEDUP_GATE`]. Factor-light workloads (huge tensors,
/// small rank) keep solo dispatch — there the shared upload is noise and
/// fusing only adds formation wait.
pub fn prefer_batched(factor_bytes: usize, mean_tensor_bytes: usize, group: usize) -> bool {
    group > 1
        && batched_transfer_speedup(factor_bytes, mean_tensor_bytes, group) >= BATCH_SPEEDUP_GATE
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scalfrag_gpusim::{DeviceSpec, LaunchConfig};
    use scalfrag_kernels::SegmentStats;
    use scalfrag_tensor::{gen, CooTensor};

    /// Ground truth for the threshold rule: the argmin of the gpusim cost
    /// model over the single-mode arms at one launch configuration.
    ///
    /// The mode-agnostic arm is excluded — its value is the avoided
    /// re-tiling across modes, which a single-mode duration cannot see.
    fn modelled_best_arm(
        device: &DeviceSpec,
        stats: &SegmentStats,
        rank: u32,
        base: LaunchConfig,
    ) -> (KernelChoice, f64) {
        [KernelChoice::CooAtomic, KernelChoice::Tiled, KernelChoice::Balanced]
            .into_iter()
            .map(|k| (k, k.duration(device, stats, rank, base)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
    }

    /// A dominant slice (pct % of nnz in one mode-0 row) over a uniform
    /// sparse tail — the corpus `one-fiber-heavy` / `dense-slice` regime.
    fn heavy_slice(dims: &[u32], nnz: usize, pct: usize, seed: u64) -> CooTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = CooTensor::new(dims);
        let hot = rng.gen_range(0..dims[0]);
        for i in 0..nnz {
            let v = rng.gen::<f32>() * 0.999 + 1e-3;
            let mut c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
            if i * 100 < nnz * pct {
                c[0] = hot;
            }
            t.push(&c, v);
        }
        t
    }

    fn verdict_and_truth(t: &CooTensor) -> (ArmVerdict, KernelChoice, f64, f64) {
        let d = DeviceSpec::rtx3090();
        let base = LaunchConfig::new(1024, 256);
        let stats = SegmentStats::compute(t, 0);
        let key = FeatureKey::of(t, 0, 16);
        let v = predict_arm(&key, MttkrpObjective::SingleMode);
        let (best, t_best) = modelled_best_arm(&d, &stats, 16, base);
        let t_bal = KernelChoice::Balanced.duration(&d, &stats, 16, base);
        (v, best, t_best, t_bal)
    }

    #[test]
    fn heavy_slice_flips_to_balanced_and_the_model_agrees() {
        for pct in [40, 50, 60] {
            let t = heavy_slice(&[20_000, 200, 200], 100_000, pct, 5);
            let (v, best, _, _) = verdict_and_truth(&t);
            assert_eq!(v.kernel, KernelChoice::Balanced, "pct={pct}");
            assert_eq!(v.reason, "dominant-slice-sparse-tail");
            assert_eq!(best, KernelChoice::Balanced, "cost-model argmin, pct={pct}");
        }
    }

    #[test]
    fn balanced_speedup_on_heavy_slice_exceeds_the_gate() {
        // The bench gate: ≥ 1.2× modelled speedup over the best previous
        // arm (min of COO and tiled) on the skewed preset.
        let d = DeviceSpec::rtx3090();
        let base = LaunchConfig::new(1024, 256);
        let t = heavy_slice(&[20_000, 200, 200], 100_000, 60, 5);
        let stats = SegmentStats::compute(&t, 0);
        let coo = KernelChoice::CooAtomic.duration(&d, &stats, 16, base);
        let tiled = KernelChoice::Tiled.duration(&d, &stats, 16, base);
        let bal = KernelChoice::Balanced.duration(&d, &stats, 16, base);
        assert!(
            coo.min(tiled) / bal >= 1.2,
            "modelled speedup {:.2} below the 1.2x gate",
            coo.min(tiled) / bal
        );
    }

    #[test]
    fn uniform_stays_tiled_and_the_model_agrees() {
        let t = gen::uniform(&[20_000, 200, 200], 100_000, 5);
        let (v, best, _, _) = verdict_and_truth(&t);
        assert_eq!(v.kernel, KernelChoice::Tiled);
        assert_eq!(best, KernelChoice::Tiled);
    }

    #[test]
    fn plain_zipf_stays_tiled_because_the_tile_soaks_it() {
        // Zipf raises the hotspot *and* the average slice population
        // together; the tiled kernel's block reduction absorbs the
        // contention, so the predictor must NOT flip on gini alone.
        for skew in [0.8, 1.1, 1.6, 2.0] {
            let t = gen::zipf_slices(&[20_000, 200, 200], 100_000, skew, 5);
            let (v, best, _, _) = verdict_and_truth(&t);
            assert_eq!(v.kernel, KernelChoice::Tiled, "skew={skew}");
            assert_eq!(best, KernelChoice::Tiled, "cost-model argmin, skew={skew}");
        }
    }

    #[test]
    fn moderate_concentration_stays_tiled() {
        // 30 % in one slice is below the ~35 % dominant-share threshold,
        // and the cost model indeed keeps tiled ahead there.
        let t = heavy_slice(&[2_000, 64, 64], 20_000, 30, 7);
        let (v, best, _, _) = verdict_and_truth(&t);
        assert_eq!(v.kernel, KernelChoice::Tiled);
        assert_eq!(best, KernelChoice::Tiled);
    }

    #[test]
    fn all_modes_objective_prefers_flycoo_when_not_skew_forced() {
        let uni = gen::uniform(&[200, 200, 200], 50_000, 9);
        let key = FeatureKey::of(&uni, 0, 16);
        let v = predict_arm(&key, MttkrpObjective::AllModes);
        assert_eq!(v.kernel, KernelChoice::ModeAgnostic);
        assert_eq!(v.reason, "all-modes-no-retiling");

        // …but a dominant slice still forces the balanced arm.
        let heavy = heavy_slice(&[20_000, 200, 200], 100_000, 60, 5);
        let key = FeatureKey::of(&heavy, 0, 16);
        assert_eq!(predict_arm(&key, MttkrpObjective::AllModes).kernel, KernelChoice::Balanced);
    }

    #[test]
    fn verdict_is_pure_in_the_key() {
        let t = heavy_slice(&[2_000, 64, 64], 20_000, 60, 7);
        let key = FeatureKey::of(&t, 0, 16);
        assert_eq!(
            predict_arm(&key, MttkrpObjective::SingleMode),
            predict_arm(&key, MttkrpObjective::SingleMode)
        );
    }

    #[test]
    fn batched_speedup_grows_with_group_and_saturates_at_the_solo_ratio() {
        let f = 64 * 1024; // factor set
        let t = 16 * 1024; // mean tensor payload
        let s2 = batched_transfer_speedup(f, t, 2);
        let s8 = batched_transfer_speedup(f, t, 8);
        assert!(s2 > 1.0 && s8 > s2, "amortisation must improve with group size");
        assert!(
            s8 < (f + t) as f64 / t as f64,
            "the asymptote is the solo transfer over the tensor-only transfer"
        );
        assert_eq!(batched_transfer_speedup(f, t, 1), 1.0, "a group of one amortises nothing");
    }

    #[test]
    fn prefer_batched_tracks_the_factor_share_of_the_transfer() {
        // Rank-heavy serving shapes: factors dwarf the tensor payload.
        assert!(prefer_batched(256 * 1024, 8 * 1024, 4));
        // Factor-light: a huge tensor hides the shared upload entirely.
        assert!(!prefer_batched(4 * 1024, 4 * 1024 * 1024, 8));
        // Never batch a group of one.
        assert!(!prefer_batched(256 * 1024, 8 * 1024, 1));
    }
}
