//! Criterion bench: wall-clock cost of the MTTKRP kernel implementations
//! (the functional bodies, not the simulated clock) across formats.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scalfrag_kernels::{
    reference, AtomicF32Buffer, CooAtomicKernel, FCooKernel, FactorSet, HiCooKernel, TiledKernel,
};
use scalfrag_tensor::{CooTensor, CsfTensor, FCooTensor, HiCooTensor};

const RANK: usize = 16;

fn tensors() -> Vec<(&'static str, CooTensor)> {
    vec![
        ("uniform-50k", scalfrag_tensor::gen::uniform(&[800, 600, 400], 50_000, 1)),
        ("zipf-50k", scalfrag_tensor::gen::zipf_slices(&[800, 600, 400], 50_000, 1.0, 2)),
    ]
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("mttkrp_kernels");
    for (name, tensor) in tensors() {
        let mut sorted = tensor.clone();
        sorted.sort_for_mode(0);
        let factors = FactorSet::random(tensor.dims(), RANK, 3);
        let rows = tensor.dims()[0] as usize;
        let csf = CsfTensor::from_coo(&tensor, 0);

        group.bench_with_input(BenchmarkId::new("cpu-seq", name), &tensor, |b, t| {
            b.iter(|| reference::mttkrp_seq(t, &factors, 0))
        });
        group.bench_with_input(BenchmarkId::new("cpu-par", name), &tensor, |b, t| {
            b.iter(|| reference::mttkrp_par(t, &factors, 0))
        });
        group.bench_with_input(BenchmarkId::new("coo-atomic", name), &tensor, |b, t| {
            b.iter(|| {
                let out = AtomicF32Buffer::new(rows * RANK);
                CooAtomicKernel::execute(t, 0..t.nnz(), &factors, 0, &out);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("tiled", name), &sorted, |b, t| {
            b.iter(|| {
                let out = AtomicF32Buffer::new(rows * RANK);
                TiledKernel::execute(t, 0..t.nnz(), &factors, 0, 256, &out);
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("csf-fiber", name), &csf, |b, t| {
            b.iter(|| reference::mttkrp_csf(t, &factors))
        });

        let fcoo = FCooTensor::from_coo(&tensor, 0, 1024);
        group.bench_with_input(BenchmarkId::new("fcoo-segreduce", name), &fcoo, |b, t| {
            b.iter(|| {
                let out = AtomicF32Buffer::new(rows * RANK);
                FCooKernel::execute(t, &factors, &out);
                out
            })
        });

        let hicoo = HiCooTensor::from_coo(&tensor, 4);
        group.bench_with_input(BenchmarkId::new("hicoo-block", name), &hicoo, |b, t| {
            b.iter(|| {
                let out = AtomicF32Buffer::new(rows * RANK);
                HiCooKernel::execute(t, &factors, 0, &out);
                out
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
