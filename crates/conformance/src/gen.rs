//! Seeded property-based tensor corpus for the differential runner.
//!
//! Every case is deterministic in the corpus seed, so a failing case name
//! is a complete reproduction recipe. The corpus deliberately spans the
//! structural regimes the kernels branch on:
//!
//! * **hyperslice-skewed** — Zipf slice populations (the ScalFrag paper's
//!   motivating imbalance; stresses BCSF's heavy/light split and the tiled
//!   kernel's open-row flushes);
//! * **fiber-skewed** — skew concentrated on a non-leading mode, so the
//!   sorted order for mode 0 interleaves hot fibers;
//! * **degenerate** — empty tensor, single non-zero, duplicate
//!   coordinates, every non-zero in one slice, rank 1, rank 80;
//! * **dense-ish** — nnz comparable to the index-space volume, exercising
//!   block formats (HiCOO) at high occupancy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scalfrag_tensor::{gen, CooTensor};

/// One named, seeded conformance case.
pub struct TensorCase {
    /// Stable human-readable identifier (includes the structural family).
    pub name: String,
    /// The tensor under test.
    pub tensor: CooTensor,
    /// CPD rank to run at.
    pub rank: usize,
}

impl TensorCase {
    fn new(name: impl Into<String>, tensor: CooTensor, rank: usize) -> Self {
        Self { name: name.into(), tensor, rank }
    }
}

fn duplicate_heavy(dims: &[u32], nnz: usize, seed: u64) -> CooTensor {
    // Roughly half the entries are duplicates of earlier coordinates —
    // exercises multi-entry accumulation into single output words.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims);
    let mut coords: Vec<Vec<u32>> = Vec::new();
    for _ in 0..nnz {
        let c: Vec<u32> = if !coords.is_empty() && rng.gen::<f32>() < 0.5 {
            coords[rng.gen_range(0..coords.len())].clone()
        } else {
            dims.iter().map(|&d| rng.gen_range(0..d)).collect()
        };
        let v = rng.gen::<f32>() * 0.999 + 1e-3;
        t.push(&c, v);
        coords.push(c);
    }
    t
}

fn one_fiber_heavy(dims: &[u32], nnz: usize, seed: u64) -> CooTensor {
    // 60 % of the entries share one (non-mode-0) coordinate tuple: a
    // single mode-0 fiber holds more than half the tensor. This is the
    // worst case for fiber-parallel kernels and the motivating shape for
    // the balanced segmented scan, whose fixed-nnz chunks ignore it.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims);
    let hot: Vec<u32> = dims[1..].iter().map(|&d| rng.gen_range(0..d)).collect();
    for i in 0..nnz {
        let v = rng.gen::<f32>() * 0.999 + 1e-3;
        if i * 5 < nnz * 3 {
            let mut c = vec![rng.gen_range(0..dims[0])];
            c.extend(&hot);
            t.push(&c, v);
        } else {
            let c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
            t.push(&c, v);
        }
    }
    t
}

fn dense_slice_among_empty(dims: &[u32], seed: u64) -> CooTensor {
    // One fully dense mode-0 slice; every other slice empty. Maximal slice
    // imbalance with zero entries anywhere else — the BCSF split and the
    // chunked layout must both handle a tensor that is one giant run.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims);
    let slice = dims[0] / 2;
    for j in 0..dims[1] {
        for k in 0..dims[2] {
            t.push(&[slice, j, k], rng.gen::<f32>() * 0.999 + 1e-3);
        }
    }
    t
}

fn one_slice(dims: &[u32], nnz: usize, seed: u64) -> CooTensor {
    // Every non-zero in slice 0 of mode 0: the most contended output row
    // possible, and the single-heavy-slice extreme of the BCSF split.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = CooTensor::new(dims);
    for _ in 0..nnz {
        let mut c: Vec<u32> = dims.iter().map(|&d| rng.gen_range(0..d)).collect();
        c[0] = 0;
        t.push(&c, rng.gen::<f32>() * 0.999 + 1e-3);
    }
    t
}

/// The fast subset used by `conformance --smoke` in CI: one case per
/// structural family, small enough to run every backend in seconds.
pub fn smoke_corpus(seed: u64) -> Vec<TensorCase> {
    vec![
        TensorCase::new("smoke/uniform", gen::uniform(&[48, 40, 32], 3_000, seed), 8),
        TensorCase::new(
            "smoke/hyperslice-skew",
            gen::zipf_slices(&[64, 32, 24], 4_000, 1.2, seed ^ 1),
            8,
        ),
        TensorCase::new("smoke/duplicates", duplicate_heavy(&[16, 16, 16], 600, seed ^ 2), 4),
        TensorCase::new("smoke/empty", CooTensor::new(&[8, 8, 8]), 4),
        TensorCase::new("smoke/one-slice", one_slice(&[24, 16, 16], 800, seed ^ 3), 4),
        TensorCase::new("smoke/rank-1", gen::uniform(&[32, 24, 16], 1_500, seed ^ 4), 1),
    ]
}

/// The full corpus (≥ 20 cases) used by the integration suite.
pub fn corpus(seed: u64) -> Vec<TensorCase> {
    let mut cases = Vec::new();

    // Hyperslice-skewed: Zipf over mode-0 slices at increasing skew.
    for (i, skew) in [0.5f64, 0.9, 1.2, 1.6].iter().enumerate() {
        cases.push(TensorCase::new(
            format!("zipf-s{skew}"),
            gen::zipf_slices(&[96, 64, 48], 6_000, *skew, seed + i as u64),
            8,
        ));
    }

    // Fiber-skewed: skew lives on a trailing mode; permute dims so the
    // hot mode is not the one the runner sorts by.
    for (i, skew) in [0.9f64, 1.4].iter().enumerate() {
        cases.push(TensorCase::new(
            format!("fiber-skew-s{skew}"),
            gen::zipf_slices(&[40, 120, 36], 5_000, *skew, seed + 10 + i as u64),
            8,
        ));
    }

    // Uniform at a few shapes/ranks, including non-power-of-two rank.
    for (i, (dims, nnz, rank)) in [
        ([64u32, 64, 64], 4_000usize, 8usize),
        ([128, 32, 16], 3_000, 16),
        ([30, 30, 30], 2_000, 7),
        ([200, 10, 10], 2_500, 4),
    ]
    .iter()
    .enumerate()
    {
        cases.push(TensorCase::new(
            format!("uniform-{}x{}x{}-r{rank}", dims[0], dims[1], dims[2]),
            gen::uniform(dims, *nnz, seed + 20 + i as u64),
            *rank,
        ));
    }

    // Dense-ish: nnz close to the full index-space volume.
    cases.push(TensorCase::new("dense-ish", gen::uniform(&[12, 12, 12], 1_400, seed + 30), 8));

    // Blocked structure for HiCOO's happy path.
    cases.push(TensorCase::new("blocked", gen::blocked(&[64, 64, 64], 4_000, 24, 8, seed + 31), 8));

    // Duplicate-coordinate accumulation at two densities.
    cases.push(TensorCase::new("dup-light", duplicate_heavy(&[32, 32, 32], 1_200, seed + 32), 8));
    cases.push(TensorCase::new("dup-heavy", duplicate_heavy(&[8, 8, 8], 800, seed + 33), 4));

    // Degenerate family.
    cases.push(TensorCase::new("empty", CooTensor::new(&[16, 16, 16]), 8));
    cases.push(TensorCase::new(
        "single-nnz",
        CooTensor::from_entries(&[16, 16, 16], &[(vec![3, 5, 7], 0.625)]),
        8,
    ));
    cases.push(TensorCase::new("one-slice", one_slice(&[48, 24, 24], 2_000, seed + 34), 8));
    cases.push(TensorCase::new(
        "one-fiber-heavy",
        one_fiber_heavy(&[40, 32, 24], 3_000, seed + 40),
        8,
    ));
    cases.push(TensorCase::new(
        "dense-slice-among-empty",
        dense_slice_among_empty(&[64, 24, 20], seed + 41),
        8,
    ));
    cases.push(TensorCase::new("rank-1", gen::uniform(&[48, 32, 24], 2_500, seed + 35), 1));
    cases.push(TensorCase::new("tiny-dims", gen::uniform(&[2, 2, 2], 6, seed + 36), 3));

    // Empty *slices*: large leading dim with few nnz leaves most slices
    // empty without the whole tensor being empty.
    cases.push(TensorCase::new("sparse-slices", gen::uniform(&[512, 8, 8], 300, seed + 37), 4));

    // A 4-way tensor: the kernels are order-generic; prove it.
    cases.push(TensorCase::new("four-way", gen::uniform(&[24, 20, 16, 12], 3_000, seed + 38), 6));

    // Past 64 rank columns: wider than any register-sized accumulator.
    cases.push(TensorCase::new(
        "high-rank-r80",
        gen::zipf_slices(&[40, 30, 24], 1_500, 0.9, seed + 42),
        80,
    ));

    assert!(cases.len() >= 20, "corpus shrank below the contract");
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalfrag_faults::tensor_checksum;

    #[test]
    fn corpus_is_seed_deterministic() {
        let a = corpus(7);
        let b = corpus(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(tensor_checksum(&x.tensor), tensor_checksum(&y.tensor));
        }
    }

    #[test]
    fn corpus_has_the_contracted_families() {
        let names: Vec<String> = corpus(1).into_iter().map(|c| c.name).collect();
        for needle in [
            "zipf",
            "dup",
            "empty",
            "one-slice",
            "one-fiber-heavy",
            "dense-slice-among-empty",
            "rank-1",
            "four-way",
            "high-rank",
        ] {
            assert!(names.iter().any(|n| n.contains(needle)), "missing family {needle}");
        }
        assert!(names.len() >= 20);
    }

    #[test]
    fn degenerate_cases_have_expected_shape() {
        let cases = corpus(3);
        let empty = cases.iter().find(|c| c.name == "empty").unwrap();
        assert_eq!(empty.tensor.nnz(), 0);
        let one = cases.iter().find(|c| c.name == "one-slice").unwrap();
        assert!(one.tensor.mode_indices(0).iter().all(|&i| i == 0));
        let r1 = cases.iter().find(|c| c.name == "rank-1").unwrap();
        assert_eq!(r1.rank, 1);
    }

    #[test]
    fn heavy_skew_cases_have_the_advertised_shape() {
        let cases = corpus(11);
        let fiber = cases.iter().find(|c| c.name == "one-fiber-heavy").unwrap();
        let counts = fiber.tensor.fiber_nnz_counts(0);
        let max = *counts.iter().max().unwrap() as usize;
        assert!(
            max * 2 > fiber.tensor.nnz(),
            "one fiber must hold >50% of nnz (max {max} of {})",
            fiber.tensor.nnz()
        );
        let dense = cases.iter().find(|c| c.name == "dense-slice-among-empty").unwrap();
        let rows = dense.tensor.mode_indices(0);
        assert!(rows.iter().all(|&i| i == rows[0]), "exactly one populated slice");
        assert_eq!(dense.tensor.nnz(), 24 * 20, "that slice is fully dense");
    }

    /// The satellite contract: the ULP budget formula (`16 + 4·max row
    /// terms`) must still cover the heavy-skew cases for every kernel
    /// backend — a dense slice concentrates thousands of terms into one
    /// output row, and the budget must scale with it, not drown in it.
    #[test]
    fn ulp_budget_covers_the_heavy_skew_cases() {
        let cases: Vec<TensorCase> = corpus(13)
            .into_iter()
            .filter(|c| c.name == "one-fiber-heavy" || c.name == "dense-slice-among-empty")
            .collect();
        assert_eq!(cases.len(), 2);
        let report =
            crate::differential::run_differential(&crate::backends::kernel_backends(), &cases, 13);
        assert!(report.all_pass(), "{}", report.table());
    }
}
