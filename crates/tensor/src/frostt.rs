//! FROSTT dataset presets (Table III of the paper).
//!
//! The paper evaluates on ten real sparse tensors from the FROSTT
//! repository. Those files are multi-gigabyte downloads, so this module
//! provides *synthetic stand-ins* that preserve what the evaluation
//! actually exercises: tensor order, the relative mode sizes, density, and
//! the slice-population skew (uniform vs Zipf-heavy-tailed vs clustered).
//! Real `.tns` files can still be loaded through [`crate::io`].
//!
//! Each preset can be materialised at a `scale` divisor: non-zeros are
//! divided by `scale` and every mode size by `scale^(1/order)`, which keeps
//! the density of Table III (up to clamping of tiny modes). The figure
//! harnesses pick a divisor per preset (`scalfrag-bench`'s
//! `effective_scale`).

use crate::{CooTensor, Idx};

/// Structural regime of a dataset's non-zero distribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GenKind {
    /// Homogeneous sparsity (coordinates ~ uniform).
    Uniform,
    /// Mode-0 slice populations follow Zipf with the given exponent.
    Zipf(f64),
    /// Non-zeros clustered in random blocks (blocks, edge).
    Blocked(usize, Idx),
}

/// A synthetic stand-in description for one FROSTT dataset of Table III.
#[derive(Clone, Debug)]
pub struct DatasetPreset {
    /// FROSTT dataset name as used in the paper's figures.
    pub name: &'static str,
    /// Original mode sizes from Table III.
    pub dims: Vec<u64>,
    /// Original non-zero count from Table III.
    pub nnz: u64,
    /// Structural regime used when synthesising.
    pub kind: GenKind,
}

impl DatasetPreset {
    /// Tensor order (number of modes).
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Density of the *original* dataset, `nnz / ∏ dims`.
    pub fn density(&self) -> f64 {
        self.nnz as f64 / self.dims.iter().map(|&d| d as f64).product::<f64>()
    }

    /// Non-zero count after applying `scale` (at least 64).
    pub fn scaled_nnz(&self, scale: u64) -> usize {
        (self.nnz / scale).max(64) as usize
    }

    /// Mode sizes after applying `scale`.
    ///
    /// Every mode is divided by the *largest uniform divisor `μ ≤ scale`*
    /// that still leaves at least `4 × scaled_nnz` cells. Dividing dims by
    /// the same factor as nnz preserves what the evaluation actually
    /// exercises — non-zeros per slice (atomic contention, tiling
    /// reduction) and the factor-matrix : tensor byte ratio (transfer
    /// composition) — while hyper-sparse datasets keep their character;
    /// dense datasets (vast, uber, nips) get a smaller `μ` so coordinates
    /// stay distinct. Density therefore drifts for the dense datasets,
    /// which Table III's harness reports explicitly.
    pub fn scaled_dims(&self, scale: u64) -> Vec<Idx> {
        // Density is allowed to drift upward by ~30x but never past 2%
        // (so coordinates stay distinct and the sparse character holds),
        // and never below 1e-6 (so the hyper-sparse web tensors keep their
        // slice-occupancy and transfer-composition ratios instead of being
        // diluted to satisfy an unreachable density).
        let density_cap = (30.0 * self.density()).clamp(1e-6, 0.02);
        let target_cells =
            (self.scaled_nnz(scale) as f64 / density_cap).max(4.0 * self.scaled_nnz(scale) as f64);
        let dims_at = |mu: f64| -> Vec<Idx> {
            self.dims
                .iter()
                .map(|&d| ((d as f64 / mu).round() as u64).clamp(2, Idx::MAX as u64) as Idx)
                .collect()
        };
        let cells = |dims: &[Idx]| dims.iter().map(|&d| d as f64).product::<f64>();
        // Scan μ downward over multiplicative steps until the density cap
        // is satisfied (μ = 1 always is, since the original tensor fits).
        let mut mu = scale as f64;
        while mu > 1.0 {
            let d = dims_at(mu);
            if cells(&d) >= target_cells {
                return d;
            }
            mu /= 1.25;
        }
        dims_at(1.0)
    }

    /// Materialises the synthetic tensor at the given scale divisor.
    /// Deterministic: the seed is derived from the dataset name.
    pub fn materialize(&self, scale: u64) -> CooTensor {
        let dims = self.scaled_dims(scale);
        let nnz = self.scaled_nnz(scale);
        let seed = self
            .name
            .bytes()
            .fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3));
        match self.kind {
            GenKind::Uniform => crate::gen::uniform(&dims, nnz, seed),
            GenKind::Zipf(s) => crate::gen::zipf_slices(&dims, nnz, s, seed),
            GenKind::Blocked(blocks, edge) => crate::gen::blocked(&dims, nnz, blocks, edge, seed),
        }
    }
}

/// All ten datasets of Table III, in the paper's order.
pub fn all_presets() -> Vec<DatasetPreset> {
    vec![
        DatasetPreset {
            // vast: 165K x 11K x 2, 26M — dense-ish event tensor, tiny mode 3.
            name: "vast",
            dims: vec![165_000, 11_000, 2],
            nnz: 26_000_000,
            kind: GenKind::Uniform,
        },
        DatasetPreset {
            // nell-2: 12K x 9K x 29K, 77M — knowledge-base triples, mild skew.
            name: "nell-2",
            dims: vec![12_000, 9_000, 29_000],
            nnz: 77_000_000,
            kind: GenKind::Zipf(0.6),
        },
        DatasetPreset {
            // flickr-3d: 320K x 28M x 2M, 113M — web tags, heavy tail.
            name: "flickr-3d",
            dims: vec![320_000, 28_000_000, 2_000_000],
            nnz: 113_000_000,
            kind: GenKind::Zipf(1.1),
        },
        DatasetPreset {
            // deli-3d: 533K x 17M x 3M, 140M — delicious bookmarks, heavy tail.
            name: "deli-3d",
            dims: vec![533_000, 17_000_000, 3_000_000],
            nnz: 140_000_000,
            kind: GenKind::Zipf(1.1),
        },
        DatasetPreset {
            // nell-1: 2.9M x 2.1M x 25M, 144M — the huge KB tensor.
            name: "nell-1",
            dims: vec![2_900_000, 2_100_000, 25_000_000],
            nnz: 144_000_000,
            kind: GenKind::Zipf(0.9),
        },
        DatasetPreset {
            // uber: 183 x 24 x 1140 x 1717, 3M — trips (date,hour,lat,lon).
            name: "uber",
            dims: vec![183, 24, 1_140, 1_717],
            nnz: 3_000_000,
            kind: GenKind::Uniform,
        },
        DatasetPreset {
            // nips: 2K x 3K x 14K x 17, 3M — papers x authors x words x years.
            name: "nips",
            dims: vec![2_000, 3_000, 14_000, 17],
            nnz: 3_000_000,
            kind: GenKind::Zipf(0.7),
        },
        DatasetPreset {
            // enron: 6K x 6K x 244K x 1K, 54M — emails, sender/receiver blocks.
            name: "enron",
            dims: vec![6_000, 6_000, 244_000, 1_000],
            nnz: 54_000_000,
            kind: GenKind::Blocked(64, 64),
        },
        DatasetPreset {
            // flickr-4d: flickr-3d plus a 731-day mode.
            name: "flickr-4d",
            dims: vec![320_000, 28_000_000, 2_000_000, 731],
            nnz: 113_000_000,
            kind: GenKind::Zipf(1.1),
        },
        DatasetPreset {
            // deli-4d: deli-3d plus a 1K-day mode.
            name: "deli-4d",
            dims: vec![533_000, 17_000_000, 3_000_000, 1_000],
            nnz: 140_000_000,
            kind: GenKind::Zipf(1.1),
        },
    ]
}

/// Looks a preset up by its paper name.
pub fn by_name(name: &str) -> Option<DatasetPreset> {
    all_presets().into_iter().find(|p| p.name == name)
}

/// The subset used in most figures: small, medium and large representatives
/// of both orders. Useful for fast test/bench loops.
pub fn small_suite() -> Vec<DatasetPreset> {
    ["vast", "nell-2", "uber", "nips"].iter().map(|n| by_name(n).expect("preset exists")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_presets_matching_table3() {
        let all = all_presets();
        assert_eq!(all.len(), 10);
        let orders: Vec<usize> = all.iter().map(|p| p.order()).collect();
        assert_eq!(orders, vec![3, 3, 3, 3, 3, 4, 4, 4, 4, 4]);
        // Densities should be within an order of magnitude of Table III.
        let vast = by_name("vast").unwrap();
        assert!((vast.density() / 6.9e-3).log10().abs() < 1.0);
        let nell1 = by_name("nell-1").unwrap();
        assert!((nell1.density() / 9.1e-13).log10().abs() < 1.0);
    }

    #[test]
    fn scaling_respects_the_density_cap() {
        for p in all_presets() {
            let dims = p.scaled_dims(512);
            let nnz = p.scaled_nnz(512) as f64;
            let cells: f64 = dims.iter().map(|&d| d as f64).product();
            assert!(cells >= 3.9 * nnz, "{}: only {cells} cells for {nnz} nnz", p.name);
        }
    }

    #[test]
    fn scaling_preserves_slice_occupancy_for_hypersparse_sets() {
        // The hyper-sparse web tensors must keep their nnz-per-slice
        // character (it drives atomic contention and tiling behaviour).
        for name in ["flickr-3d", "deli-3d", "nell-1", "deli-4d"] {
            let p = by_name(name).unwrap();
            let orig_avg = p.nnz as f64 / p.dims[0] as f64;
            let dims = p.scaled_dims(512);
            let scaled_avg = p.scaled_nnz(512) as f64 / dims[0] as f64;
            assert!(
                (scaled_avg / orig_avg).log2().abs() < 2.0,
                "{name}: avg nnz/slice drifted {orig_avg} -> {scaled_avg}"
            );
        }
    }

    #[test]
    fn scaling_preserves_factor_to_tensor_byte_ratio() {
        // Transfer composition (factor bytes vs tensor bytes) shapes the
        // Fig. 5/10 results; the scaled stand-ins must keep it roughly.
        // enron is excluded: its density (6e-9) sits between the dense and
        // hyper-sparse regimes, so the density floor necessarily dilutes
        // its mode sizes; the drift there is accepted and documented.
        for name in ["flickr-3d", "nell-1", "deli-4d"] {
            let p = by_name(name).unwrap();
            let ratio = |sum_dims: f64, nnz: f64, order: f64| {
                (sum_dims * 16.0 * 4.0) / (nnz * (order * 4.0 + 4.0))
            };
            let orig =
                ratio(p.dims.iter().map(|&d| d as f64).sum(), p.nnz as f64, p.order() as f64);
            let dims = p.scaled_dims(512);
            let scaled = ratio(
                dims.iter().map(|&d| d as f64).sum(),
                p.scaled_nnz(512) as f64,
                p.order() as f64,
            );
            assert!(
                (scaled / orig).log2().abs() < 2.0,
                "{name}: factor:tensor ratio drifted {orig} -> {scaled}"
            );
        }
    }

    #[test]
    fn materialize_small_scale_is_valid_and_deterministic() {
        // Use a large divisor to keep the test fast.
        for p in small_suite() {
            let t = p.materialize(8192);
            assert!(t.validate().is_ok(), "{} invalid", p.name);
            assert_eq!(t.order(), p.order());
            assert!(t.nnz() >= 64);
            let t2 = p.materialize(8192);
            assert_eq!(t, t2, "{} not deterministic", p.name);
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for p in all_presets() {
            assert_eq!(by_name(p.name).unwrap().name, p.name);
        }
        assert!(by_name("nonexistent").is_none());
    }

    #[test]
    fn scaled_dims_clamped() {
        let vast = by_name("vast").unwrap();
        let dims = vast.scaled_dims(512);
        assert!(dims.iter().all(|&d| d >= 2));
    }
}
