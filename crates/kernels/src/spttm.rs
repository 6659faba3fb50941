//! SpTTM — sparse tensor times (dense) matrix, the other core sparse
//! kernel of ParTI (§VI-B: "a parallel algorithm and its GPU
//! implementation for SpTTM … parallelizing the algorithm across fibers").
//!
//! Mode-`n` SpTTM contracts the tensor's mode `n` with a `Iₙ × R` matrix:
//! `Y(i₁,…,r,…,i_N) = Σ_{iₙ} X(i₁,…,iₙ,…,i_N) · U(iₙ, r)` — the output is
//! semi-sparse (dense along mode `n` with extent `R`, sparse elsewhere).

use crate::factors::FactorSet;
use crate::workload::SegmentStats;
use scalfrag_gpusim::KernelWorkload;
use scalfrag_linalg::Mat;
use scalfrag_tensor::{semisparse::SemiSparseTensor, CooTensor, Idx};

/// Sequential CPU SpTTM — the correctness oracle.
///
/// # Panics
/// Panics if `u.rows() != dims[mode]`.
pub fn spttm_seq(tensor: &CooTensor, u: &Mat, mode: usize) -> SemiSparseTensor {
    assert!(mode < tensor.order(), "mode out of range");
    assert_eq!(u.rows(), tensor.dims()[mode] as usize, "matrix rows != mode size");
    let r = u.cols();

    // Group entries by their fiber (coordinates over modes != mode).
    // Sorting with `mode` *last* groups fibers contiguously.
    let mut order: Vec<usize> = (0..tensor.order()).filter(|&m| m != mode).collect();
    order.push(mode);
    let sorted = tensor.sorted_by_order(&order);

    let mut out_dims: Vec<Idx> = tensor.dims().to_vec();
    out_dims[mode] = r as Idx;
    let mut out = SemiSparseTensor::new(&out_dims, mode);

    let nnz = sorted.nnz();
    let fiber_key = |e: usize| -> Vec<Idx> {
        order[..order.len() - 1].iter().map(|&m| sorted.mode_indices(m)[e]).collect()
    };
    let mut e = 0usize;
    let mut fiber = vec![0.0f32; r];
    while e < nnz {
        let key = fiber_key(e);
        fiber.iter_mut().for_each(|x| *x = 0.0);
        while e < nnz && fiber_key(e) == key {
            let v = sorted.values()[e];
            let urow = u.row(sorted.mode_indices(mode)[e] as usize);
            for (f, &w) in fiber.iter_mut().zip(urow) {
                *f += v * w;
            }
            e += 1;
        }
        // `key` follows `order` (ascending non-target modes) which matches
        // SemiSparseTensor's sparse-coordinate convention.
        out.push_fiber(&key, &fiber);
    }
    out
}

/// Fiber-parallel SpTTM on the host pool (the ParTI strategy:
/// "parallelizing across fibers"). Produces the same fibers as
/// [`spttm_seq`].
pub fn spttm_par(tensor: &CooTensor, u: &Mat, mode: usize) -> SemiSparseTensor {
    assert!(mode < tensor.order(), "mode out of range");
    assert_eq!(u.rows(), tensor.dims()[mode] as usize, "matrix rows != mode size");
    let r = u.cols();

    let mut order: Vec<usize> = (0..tensor.order()).filter(|&m| m != mode).collect();
    order.push(mode);
    let sorted = tensor.sorted_by_order(&order);

    // Find fiber boundaries.
    let nnz = sorted.nnz();
    let key_at = |e: usize| -> Vec<Idx> {
        order[..order.len() - 1].iter().map(|&m| sorted.mode_indices(m)[e]).collect()
    };
    let mut starts = Vec::new();
    for e in 0..nnz {
        if e == 0 || key_at(e) != key_at(e - 1) {
            starts.push(e);
        }
    }
    starts.push(nnz);

    let fibers: Vec<(Vec<Idx>, Vec<f32>)> = scalfrag_host::par_map(starts.len() - 1, |i| {
        let (s, t) = (starts[i], starts[i + 1]);
        let mut fiber = vec![0.0f32; r];
        for e in s..t {
            let v = sorted.values()[e];
            let urow = u.row(sorted.mode_indices(mode)[e] as usize);
            for (f, &x) in fiber.iter_mut().zip(urow) {
                *f += v * x;
            }
        }
        (key_at(s), fiber)
    });

    let mut out_dims: Vec<Idx> = tensor.dims().to_vec();
    out_dims[mode] = r as Idx;
    let mut out = SemiSparseTensor::new(&out_dims, mode);
    for (key, fiber) in fibers {
        out.push_fiber(&key, &fiber);
    }
    out
}

/// Cost-model workload of a fiber-parallel SpTTM kernel on the simulated
/// GPU (reads every entry + one `U` row per entry; writes `R` floats per
/// fiber; no atomics — each fiber is owned by one worker).
pub fn spttm_workload(stats: &SegmentStats, r: u32, num_fibers: u64) -> KernelWorkload {
    KernelWorkload {
        work_items: num_fibers.max(1),
        flops: stats.nnz * r as u64 * 2,
        bytes_read: stats.coo_bytes() + stats.nnz * r as u64 * 4,
        bytes_written: num_fibers * r as u64 * 4,
        atomic_ops: 0,
        atomic_hotness: 0.0,
        coalescing: 0.5,
        regs_per_thread: 40,
        shared_tile_reduction: 1.0,
        item_cycles: (stats.nnz as f64 / num_fibers.max(1) as f64) * r as f64 * 2.0,
    }
}

/// Dense validation: SpTTM computed via the dense tensor, for tiny inputs.
pub fn spttm_dense_validation(tensor: &CooTensor, u: &Mat, mode: usize) -> Vec<f32> {
    let dims = tensor.dims();
    let dense = tensor.to_dense();
    let r = u.cols();
    let mut out_dims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
    out_dims[mode] = r;
    let out_size: usize = out_dims.iter().product();
    let mut out = vec![0.0f32; out_size];

    // Strides for row-major layouts.
    let stride = |ds: &[usize]| -> Vec<usize> {
        let mut s = vec![1usize; ds.len()];
        for i in (0..ds.len() - 1).rev() {
            s[i] = s[i + 1] * ds[i + 1];
        }
        s
    };
    let in_dims: Vec<usize> = dims.iter().map(|&d| d as usize).collect();
    let s_in = stride(&in_dims);
    let s_out = stride(&out_dims);

    let mut coord = vec![0usize; dims.len()];
    for (flat, &v) in dense.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let mut rem = flat;
        for (m, &s) in s_in.iter().enumerate() {
            coord[m] = rem / s;
            rem %= s;
        }
        for j in 0..r {
            let mut out_flat = 0;
            for m in 0..dims.len() {
                let idx = if m == mode { j } else { coord[m] };
                out_flat += idx * s_out[m];
            }
            out[out_flat] += v * u[(coord[mode], j)];
        }
    }
    out
}

/// SpTTM against a factor set's mode matrix (convenience for chains).
pub fn spttm_with_factor(tensor: &CooTensor, factors: &FactorSet, mode: usize) -> SemiSparseTensor {
    spttm_par(tensor, factors.get(mode), mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_matches_dense_validation() {
        let t = CooTensor::random_uniform(&[6, 5, 4], 40, 1);
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x9E3779B97F4A7C15);
        for mode in 0..3 {
            let u = Mat::random(t.dims()[mode] as usize, 3, &mut rng);
            let semi = spttm_seq(&t, &u, mode);
            let expect = spttm_dense_validation(&t, &u, mode);
            let got = semi.to_coo().to_dense();
            for (a, b) in got.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-4, "mode {mode}");
            }
        }
    }

    #[test]
    fn par_matches_seq() {
        let t = CooTensor::random_uniform(&[30, 25, 20], 1_000, 5);
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9E3779B97F4A7C15);
        for mode in 0..3 {
            let u = Mat::random(t.dims()[mode] as usize, 8, &mut rng);
            let a = spttm_seq(&t, &u, mode);
            let b = spttm_par(&t, &u, mode);
            assert_eq!(a.num_fibers(), b.num_fibers(), "mode {mode}");
            for f in 0..a.num_fibers() {
                assert_eq!(a.fiber_coord(f), b.fiber_coord(f));
                for (x, y) in a.fiber(f).iter().zip(b.fiber(f)) {
                    assert!((x - y).abs() < 1e-4);
                }
            }
        }
    }

    #[test]
    fn output_is_semisparse_with_expected_fiber_count() {
        let t = CooTensor::random_uniform(&[20, 15, 10], 300, 9);
        let u = Mat::identity(10);
        let semi = spttm_seq(&t, &u, 2);
        assert_eq!(semi.num_fibers(), t.num_fibers(2));
        assert_eq!(semi.r(), 10);
        // Identity contraction: expanding back gives the original tensor.
        let back = semi.to_coo();
        let mut sorted = t.clone();
        sorted.sort_by_order(&[0, 1, 2]);
        assert_eq!(back.to_dense(), sorted.to_dense());
    }

    #[test]
    fn works_on_4way() {
        let t = CooTensor::random_uniform(&[8, 7, 6, 5], 150, 11);
        let mut rng = rand::rngs::mock::StepRng::new(13, 0x9E3779B97F4A7C15);
        let u = Mat::random(6, 4, &mut rng);
        let semi = spttm_par(&t, &u, 2);
        let expect = spttm_dense_validation(&t, &u, 2);
        let got = semi.to_coo().to_dense();
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn workload_is_atomic_free() {
        let t = CooTensor::random_uniform(&[50, 40, 30], 2_000, 15);
        let stats = SegmentStats::compute(&t, 0);
        let w = spttm_workload(&stats, 16, t.num_fibers(0) as u64);
        assert_eq!(w.atomic_ops, 0);
        assert!(w.flops > 0 && w.bytes_written > 0);
    }

    #[test]
    #[should_panic(expected = "matrix rows")]
    fn mismatched_matrix_panics() {
        let t = CooTensor::random_uniform(&[5, 5, 5], 10, 0);
        let u = Mat::zeros(4, 2);
        let _ = spttm_seq(&t, &u, 0);
    }
}
