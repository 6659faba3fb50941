//! The self-scheduling pool under adversarial load, plus the mutant net:
//! deliberately broken parallel disciplines the determinism harness must
//! catch. A test net that only ever passes proves nothing — the mutants
//! prove the invariance checks have teeth.

use scalfrag::host::{self, check};
use scalfrag::kernels::reference::{self, mttkrp_par};
use scalfrag::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seeded shuffle-heavy stress: unit costs follow a Zipf-ish decay and
/// are shuffled so heavy units land at random positions — the shape that
/// makes threads finish their units at the most uneven times. Every index
/// must execute exactly once, at every pool size, across repeated runs.
#[test]
fn stress_uneven_shuffled_workload_runs_every_index_exactly_once() {
    use rand::{Rng, SeedableRng};
    const N: usize = 4_096;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x57e5);
    // Zipf-ish: unit 0 costs ~2000 spins, the tail costs ~1; then a
    // Fisher–Yates shuffle scatters the heavy units.
    let mut costs: Vec<usize> = (0..N).map(|i| 2_000 / (i + 1) + 1).collect();
    for i in (1..N).rev() {
        let j = rng.gen_range(0..=i);
        costs.swap(i, j);
    }

    for &threads in &check::INVARIANCE_THREADS {
        for round in 0..3 {
            let hits: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
            host::with_threads(threads, || {
                host::par_map(N, |i| {
                    // Busy work proportional to the unit's cost so unit
                    // runtimes are genuinely imbalanced.
                    let mut x = i as u64;
                    for _ in 0..costs[i] {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(x);
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
            });
            let bad: Vec<usize> =
                (0..N).filter(|&i| hits[i].load(Ordering::Relaxed) != 1).collect();
            assert!(
                bad.is_empty(),
                "{threads} threads round {round}: {} indices not hit exactly once (first: {:?})",
                bad.len(),
                &bad[..bad.len().min(8)]
            );
        }
    }
}

/// par_map keeps unit order under the same adversarial load.
#[test]
fn stress_par_map_order_survives_uneven_units() {
    const N: usize = 2_048;
    for &threads in &check::INVARIANCE_THREADS {
        let got = host::with_threads(threads, || {
            host::par_map(N, |i| {
                let mut x = i as u64;
                for _ in 0..(1_500 / (i + 1) + 1) {
                    x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(i as u64);
                }
                (i, x)
            })
        });
        for (i, &(j, _)) in got.iter().enumerate() {
            assert_eq!(i, j, "{threads} threads: slot {i} holds unit {j}");
        }
    }
}

/// Mutant A — thread-derived decomposition. Splitting work by
/// `current_num_threads()` changes which f32 partial sums form at
/// different pool sizes, so the fold moves bits. The invariance harness
/// must reject it; this is exactly the bug class the stale
/// `nnz / (threads * 4)` heuristic in `reference.rs` used to be.
#[test]
fn mutant_thread_derived_chunking_is_caught() {
    // Order-sensitive payload: one huge value among many small ones —
    // grouping decides how much absorption happens.
    let values: Vec<f32> =
        (0..10_000).map(|i| if i == 0 { 1e8 } else { (i as f32 * 0.37).sin() }).collect();
    let err = check::thread_invariant("mutant-thread-chunking", || {
        let chunks = host::current_num_threads() * 4; // the mutant: thread-derived
        let len = values.len().div_ceil(chunks).max(1);
        host::par_map(values.len().div_ceil(len), |c| {
            values[c * len..((c + 1) * len).min(values.len())].iter().fold(0.0f32, |a, &b| a + b)
        })
        .into_iter()
        .fold(0.0f32, |a, b| a + b)
        .to_bits()
    })
    .expect_err("thread-derived chunking must be caught");
    assert!(err.contains("mutant-thread-chunking"), "{err}");
}

/// Mutant B — completion-order folding. Folding partials as units finish
/// (instead of in submission order) is bit-wrong the moment two threads
/// reorder completions. Unit 0 carries the absorbing 1e8 payload and
/// sleeps, so at ≥2 threads units 1 and 2 reliably finish first:
/// (5 + 5) + 1e8 = 100000008 vs the ordered (1e8 + 5) + 5 = 100000016.
#[test]
fn mutant_completion_order_fold_is_caught() {
    let err = check::thread_invariant("mutant-completion-fold", || {
        let done = Mutex::new(Vec::new());
        host::par_map(3, |u| {
            let v = if u == 0 {
                std::thread::sleep(std::time::Duration::from_millis(60));
                1e8f32
            } else {
                5.0f32
            };
            done.lock().unwrap().push(v); // the mutant: completion order
        });
        done.into_inner().unwrap().into_iter().fold(0.0f32, |a, b| a + b).to_bits()
    })
    .expect_err("completion-order folding must be caught");
    assert!(err.contains("mutant-completion-fold"), "{err}");
    assert!(err.contains("2 worker threads"), "first bad pool size is 2: {err}");
}

/// Regression for the retired heuristic (`reference.rs`): the parallel
/// reference kernel's chunk decomposition is pinned thread-independent,
/// and its output bits do not move with the pool size.
#[test]
fn reference_par_chunking_is_thread_independent() {
    for nnz in [0usize, 1, 31, 4_096, 1_000_000] {
        check::assert_thread_invariant(&format!("par_chunk_len({nnz})"), || {
            reference::par_chunk_len(nnz)
        });
    }
    let t = scalfrag::tensor::gen::zipf_slices(&[40, 30, 20], 3_000, 1.2, 61);
    let f = FactorSet::random(t.dims(), 8, 62);
    check::assert_thread_invariant("mttkrp_par", || {
        mttkrp_par(&t, &f, 0).as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    });
}
