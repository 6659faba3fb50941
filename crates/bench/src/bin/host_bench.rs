//! Host-executor bench: the first *real wall-clock* perf trajectory in
//! the repo. Everything else here measures the analytic cost model; this
//! harness times the host pool itself — the conformance corpus
//! runner, the plan interpreter and every kernel format — at pool sizes
//! 1/2/4/8 and records the speedup curve plus the bit-identity verdict.
//!
//! All measurements land in `results/BENCH_host.json`.
//!
//! `host_bench --smoke` (CI) asserts the acceptance gates:
//!
//! * **bit-identity (unconditional):** every kernel format and the
//!   corpus runner produce bit-identical results at every pool size —
//!   the determinism contract the golden fingerprint pins rest on;
//! * **speedup (cores-gated):** the parallel corpus runner at 4 threads
//!   beats 1 thread by ≥ 1.5×. Only enforced when the machine actually
//!   has ≥ 4 cores; on smaller boxes the gate is recorded as SKIP with
//!   the core count, never silently dropped.

use scalfrag_conformance::{kernel_backends, run_differential_parallel, smoke_corpus};
use scalfrag_exec::{run_plan, ExecMode};
use scalfrag_kernels::FactorSet;
use scalfrag_tensor::gen;
use std::time::Instant;

const SEED: u64 = 0x405f_be9c;
const THREADS: [usize; 4] = [1, 2, 4, 8];
const SPEEDUP_GATE: f64 = 1.5;

struct KernelRow {
    name: String,
    runs_per_s: f64,
    gflops_equiv: f64,
}

struct ThreadRow {
    threads: usize,
    corpus_s: f64,
    comparisons: usize,
    plans_per_s: f64,
    speedup_vs_1: f64,
    bit_identical: bool,
    kernels: Vec<KernelRow>,
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let cases: Vec<_> = smoke_corpus(SEED).into_iter().filter(|c| c.tensor.nnz() > 0).collect();
    let backends = kernel_backends();
    let builders = scalfrag_conformance::all_plan_builders();

    // The kernel-throughput tensor: Zipf skew so units are uneven and the
    // pool's threads finish them at uneven times.
    let t = gen::zipf_slices(&[80, 60, 40], if smoke { 8_000 } else { 40_000 }, 1.2, 77);
    let f = FactorSet::random(t.dims(), 16, 78);
    // FLOP-equivalents per MTTKRP run: one fma per (entry, other-mode,
    // rank lane) plus the accumulate.
    let flops_per_run = (t.nnz() * 16 * (t.order() - 1) * 2) as f64;
    let kernel_iters = if smoke { 3 } else { 10 };

    // Warm the pools (thread spawn + first-touch) outside the timers.
    for &n in &THREADS {
        scalfrag_host::with_threads(n, || scalfrag_host::par_map(64, |i| i).len());
    }

    let mut rows: Vec<ThreadRow> = Vec::new();
    let mut reference_report = None;
    let mut reference_kernel_bits: Vec<Vec<u32>> = Vec::new();
    for &n in &THREADS {
        scalfrag_host::with_threads(n, || {
            let (corpus_s, report) = time(|| run_differential_parallel(&backends, &cases, SEED));
            assert!(report.all_pass(), "corpus failed at {n} threads:\n{}", report.table());
            let comparisons: usize = report.verdicts.iter().map(|v| v.comparisons).sum();

            let (plans_s, _) = time(|| {
                for b in &builders {
                    let plan = (b.build)(&t, &f, 0);
                    std::hint::black_box(run_plan(&plan, ExecMode::Functional));
                }
            });

            let mut kernels = Vec::new();
            let mut kernel_bits = Vec::new();
            for b in &backends {
                let (dt, out) = time(|| {
                    let mut last = (b.run)(&t, &f, 0);
                    for _ in 1..kernel_iters {
                        last = (b.run)(&t, &f, 0);
                    }
                    last
                });
                let per_run = dt / kernel_iters as f64;
                kernels.push(KernelRow {
                    name: b.name.to_string(),
                    runs_per_s: 1.0 / per_run,
                    gflops_equiv: flops_per_run / per_run / 1e9,
                });
                kernel_bits.push(out.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>());
            }

            let bit_identical = match &reference_report {
                None => {
                    reference_report = Some(report);
                    reference_kernel_bits = kernel_bits;
                    true
                }
                Some(reference) => *reference == report && reference_kernel_bits == kernel_bits,
            };
            rows.push(ThreadRow {
                threads: n,
                corpus_s,
                comparisons,
                plans_per_s: builders.len() as f64 / plans_s,
                speedup_vs_1: rows.first().map_or(1.0, |r| r.corpus_s / corpus_s),
                bit_identical,
                kernels,
            });
        });
    }

    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>9}  bit-identical",
        "threads", "corpus-s", "cmp/s", "plans/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<8} {:>10.3} {:>12.1} {:>10.2} {:>8.2}x  {}",
            r.threads,
            r.corpus_s,
            r.comparisons as f64 / r.corpus_s,
            r.plans_per_s,
            r.speedup_vs_1,
            r.bit_identical
        );
    }

    // Gates. Bit-identity is unconditional: determinism must not depend
    // on how many cores the box has.
    let determinism_ok = rows.iter().all(|r| r.bit_identical);
    assert!(determinism_ok, "output bits moved with the pool size — determinism broken");
    let at4 = rows.iter().find(|r| r.threads == 4).expect("4-thread row");
    let speedup_gate = if cores >= 4 {
        assert!(
            !smoke || at4.speedup_vs_1 >= SPEEDUP_GATE,
            "corpus-runner speedup {:.2}x at 4 threads is below the {SPEEDUP_GATE}x gate",
            at4.speedup_vs_1
        );
        format!("PASS ({:.2}x at 4 threads on {cores} cores)", at4.speedup_vs_1)
    } else {
        format!(
            "SKIP ({cores} core(s) available; gate needs >=4 — measured {:.2}x)",
            at4.speedup_vs_1
        )
    };

    // Perf-trajectory artifact.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"cores\": {cores},\n  \"corpus_cases\": {},\n  \"speedup_gate\": \"{speedup_gate}\",\n  \
         \"determinism_gate\": \"PASS\",\n",
        cases.len()
    ));
    json.push_str("  \"threads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let kernels: Vec<String> = r
            .kernels
            .iter()
            .map(|k| {
                format!(
                    "{{\"name\": \"{}\", \"runs_per_s\": {:.3}, \"gflops_equiv\": {:.4}}}",
                    k.name, k.runs_per_s, k.gflops_equiv
                )
            })
            .collect();
        json.push_str(&format!(
            "    {{\"threads\": {}, \"corpus_s\": {:.6}, \"comparisons_per_s\": {:.2}, \
             \"plans_per_s\": {:.3}, \"speedup_vs_1\": {:.3}, \"bit_identical\": {}, \
             \"kernels\": [{}]}}{}\n",
            r.threads,
            r.corpus_s,
            r.comparisons as f64 / r.corpus_s,
            r.plans_per_s,
            r.speedup_vs_1,
            r.bit_identical,
            kernels.join(", "),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "results/BENCH_host.json";
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(path, json).expect("write bench json");
    println!("wrote {path}");

    println!("\nhost_bench: PASS (bit-identical at every pool size; speedup gate: {speedup_gate})");
}
