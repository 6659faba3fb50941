//! `als-nell2`: CPD-ALS (Algorithm 1 of the paper) as a closed loop with
//! one caller. Every MTTKRP goes through `ScalFrag::backend()` in
//! functional mode, on the nell-2 stand-in at the bench suite's
//! `effective_scale`. A few large calls: tensor preparation (features and
//! the mode sort) dominates each call today, the kernels come next.

use crate::report::{digest, metric, Checks, Outcome, Tag};
use crate::speed::{medians, timed, Sample};
use crate::stats::{mean, median, median_count, percentile, ratio};
use crate::trace::Tracer;
use crate::Args;
use scalfrag_conformance::{max_ulp, tolerance_for};
use scalfrag_core::scalfrag::ScalFragBackend;
use scalfrag_core::{PhaseTiming, ScalFrag};
use scalfrag_exec::{run_plan_on, ExecMode, KernelChoice};
use scalfrag_gpusim::Gpu;
use scalfrag_kernels::reference::mttkrp_seq;
use scalfrag_kernels::{
    cpd_als, CpdOptions, CpuSequentialBackend, FactorSet, MttkrpBackend, SegmentStats,
};
use scalfrag_linalg::{gram, hadamard_assign, matmul, pinv_spd, Mat};
use scalfrag_pipeline::{build_pipelined_plan, PipelinePlan};
use scalfrag_tensor::frostt::{all_presets, GenKind};
use scalfrag_tensor::{gen, CooTensor, TensorFeatures};
use std::time::Instant;

const RANK: usize = scalfrag_bench::RANK;
/// Sweeps per ALS solve. Untraced runs repeat whole solves until the run
/// time is used up.
const SWEEPS: usize = 2;
/// Sweeps of the one solve the traced run replays.
const TRACED_SWEEPS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Largest tolerated fit difference from the same sweeps on
/// `CpuSequentialBackend`.
const FIT_TOL: f64 = 1e-3;
/// Largest tolerated gap between the traced layer sum of a call and the
/// untraced call.
const COVERAGE_TOL: f64 = 0.10;

/// The nell-2 stand-in (3-order, Zipf 0.6 slices) at the bench suite's
/// scale, drawn from `seed`.
fn nell2(seed: u64) -> CooTensor {
    let preset = all_presets().into_iter().find(|p| p.name == "nell-2").expect("nell-2 preset");
    let GenKind::Zipf(skew) = preset.kind else { panic!("nell-2 is a Zipf preset") };
    let scale = scalfrag_bench::effective_scale(&preset);
    gen::zipf_slices(&preset.scaled_dims(scale), preset.scaled_nnz(scale), skew, seed)
}

/// Input generation, predictor training and the facade build.
fn setup(seed: u64) -> (CooTensor, ScalFrag) {
    let tensor = nell2(seed);
    let facade = ScalFrag::builder().train_tiers(crate::TRAIN_TIERS.to_vec()).build();
    // Training is lazy; pay it here rather than inside the first call.
    facade.trained_predictor().for_rank(RANK as u32);
    (tensor, facade)
}

/// Projected (non-negative) ALS: the tensor values are positive, so with
/// non-negative factors no MTTKRP sum cancels and the conformance ULP
/// budget applies to every output element.
fn options(seed: u64, sweeps: usize) -> CpdOptions {
    CpdOptions { rank: RANK, max_iters: sweeps, tol: 0.0, seed: seed ^ 0xa15, nonnegative: true }
}

pub fn run(args: &Args) -> Outcome {
    let ((tensor, facade), setups) =
        crate::set_up(if args.trace { 1 } else { SETUPS }, || setup(args.seed));
    let opts = options(args.seed, if args.trace { TRACED_SWEEPS } else { SWEEPS });
    let reference_fits = cpd_als(&tensor, &opts, &mut CpuSequentialBackend).fits;
    let tolerances: Vec<u64> = (0..tensor.order()).map(|m| tolerance_for(&tensor, m)).collect();
    if args.trace {
        traced(&tensor, &facade, &opts, &reference_fits, &tolerances)
    } else {
        untraced(args.seconds, &tensor, &facade, &opts, &reference_fits, &tolerances, &setups)
    }
}

/// One facade MTTKRP as the solver saw it.
struct Call {
    mode: usize,
    start: Instant,
    sample: Sample,
    sim_s: f64,
    /// Seconds inside the sweep but outside the call: the speed probes
    /// and copying inputs and output for the check.
    aside_s: f64,
    factors: FactorSet,
    output: Mat,
}

/// Times each call the solver makes into the facade backend.
struct Recorder<'a> {
    inner: ScalFragBackend<'a>,
    calls: Vec<Call>,
}

impl MttkrpBackend for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn mttkrp(&mut self, tensor: &CooTensor, factors: &FactorSet, mode: usize) -> Mat {
        self.inner.simulated_seconds = 0.0;
        let start = Instant::now();
        let (output, sample, probes_s) = timed(|| self.inner.mttkrp(tensor, factors, mode));
        let copy_start = Instant::now();
        let (factors, kept) = (factors.clone(), output.clone());
        let aside_s = probes_s + copy_start.elapsed().as_secs_f64();
        let sim_s = self.inner.simulated_seconds;
        self.calls.push(Call { mode, start, sample, sim_s, aside_s, factors, output: kept });
        output
    }
}

struct Solve {
    calls: Vec<Call>,
    fits: Vec<f64>,
    end: Instant,
}

impl Solve {
    /// The solve cut at the calls for which `starts_here` holds: one
    /// sample per piece, from its first call to the next piece (the last
    /// piece ends with the solve), less the probes and check copies in
    /// between, with the mean probe time of its calls.
    fn pieces(&self, starts_here: impl Fn(&Call) -> bool) -> Vec<Sample> {
        let starts: Vec<usize> =
            (0..self.calls.len()).filter(|&i| starts_here(&self.calls[i])).collect();
        starts
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let (end, j) = match starts.get(k + 1) {
                    Some(&j) => (self.calls[j].start, j),
                    None => (self.end, self.calls.len()),
                };
                let calls = &self.calls[i..j];
                let aside: f64 = calls.iter().map(|c| c.aside_s).sum();
                let probe: f64 = calls.iter().map(|c| c.sample.probe_s).sum();
                Sample {
                    secs: (end - self.calls[i].start).as_secs_f64() - aside,
                    probe_s: probe / calls.len() as f64,
                }
            })
            .collect()
    }
}

/// Fails the check unless `actual` is within `budget` ULP of the
/// `mttkrp_seq` output `expected`.
fn check_output(checks: &mut Checks, what: &str, expected: &Mat, actual: &Mat, budget: u64) {
    if expected.as_slice().len() != actual.as_slice().len() {
        checks.fail(1, format!("{what}: output shape differs from mttkrp_seq"));
        return;
    }
    let worst = max_ulp(expected.as_slice(), actual.as_slice());
    if worst.max_ulp > budget {
        checks.fail(
            1,
            format!(
                "{what}: {} ULP from mttkrp_seq at {:?} (budget {budget})",
                worst.max_ulp, worst.at
            ),
        );
    }
}

fn check_fits(checks: &mut Checks, what: &str, fits: &[f64], reference: &[f64], order: usize) {
    if fits.len() != reference.len() {
        checks.fail(
            order as u64,
            format!("{what}: {} sweeps, expected {}", fits.len(), reference.len()),
        );
    }
    for (k, (f, r)) in fits.iter().zip(reference).enumerate() {
        if (f - r).abs() > FIT_TOL {
            checks.fail(order as u64, format!("{what} sweep {k}: fit {f} vs {r} on cpu-seq"));
        }
    }
}

fn untraced(
    seconds: f64,
    tensor: &CooTensor,
    facade: &ScalFrag,
    opts: &CpdOptions,
    reference_fits: &[f64],
    tolerances: &[u64],
    setups: &[f64],
) -> Outcome {
    let order = tensor.order();
    let mut solves = Vec::new();
    let t0 = Instant::now();
    loop {
        let mut recorder = Recorder { inner: facade.backend(), calls: Vec::new() };
        let fits = cpd_als(tensor, opts, &mut recorder).fits;
        let end = Instant::now();
        solves.push(Solve { calls: recorder.calls, fits, end });
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let mut samples: Vec<Sample> =
        solves.iter().flat_map(|s| s.calls.iter().map(|c| c.sample)).collect();
    crate::speed::smooth(&mut samples);
    for (call, smoothed) in solves.iter_mut().flat_map(|s| s.calls.iter_mut()).zip(samples) {
        call.sample = smoothed;
    }

    // Output checks, after the clock stopped.
    let mut checks = Checks::default();
    let first_sims: Vec<u64> = solves[0].calls.iter().map(|c| c.sim_s.to_bits()).collect();
    for (s, solve) in solves.iter().enumerate() {
        checks.attempted += solve.calls.len() as u64;
        check_fits(&mut checks, &format!("solve {s}"), &solve.fits, reference_fits, order);
        for (i, call) in solve.calls.iter().enumerate() {
            let expected = mttkrp_seq(tensor, &call.factors, call.mode);
            let what = format!("solve {s} call {i} (mode {})", call.mode);
            check_output(&mut checks, &what, &expected, &call.output, tolerances[call.mode]);
            if first_sims.get(i) != Some(&call.sim_s.to_bits()) {
                checks.fail(1, format!("{what}: simulated time differs from solve 0"));
            }
        }
    }

    let calls: Vec<Sample> = solves.iter().flat_map(|s| s.calls.iter().map(|c| c.sample)).collect();
    let sims_ms: Vec<f64> =
        solves.iter().flat_map(|s| s.calls.iter().map(|c| c.sim_s * 1e3)).collect();
    // Throughput counts the solver's own work too: each call's piece runs
    // from its start to the next call's (Gram, pseudo-inverse, update, fit).
    let pieces: Vec<Sample> = solves.iter().flat_map(|s| s.pieces(|_| true)).collect();
    let sweeps: Vec<Sample> = solves.iter().flat_map(|s| s.pieces(|c| c.mode == 0)).collect();
    let n = calls.len();
    let (call_s, call_raw) = medians(&calls, |s| s);
    let (per_s, per_s_raw) = medians(&pieces, |s| 1.0 / s);
    let (sweep_s, sweep_raw) = medians(&sweeps, |s| s);
    let metrics = vec![
        metric("setup_s", median(setups), "s", Tag::Measured, setups.len()),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MB", Tag::Measured, 1),
        metric("mttkrp_call_s", call_s, "s", Tag::Normalized, n),
        metric("mttkrp_per_s", per_s, "1/s", Tag::Normalized, pieces.len()),
        metric("sim_mttkrp_ms", mean(&sims_ms), "ms", Tag::Modelled, n),
        metric("sim_latency_p50_ms", median(&sims_ms), "ms", Tag::Modelled, n),
        metric("sim_latency_p99_ms", percentile(&sims_ms, 0.99), "ms", Tag::Modelled, n),
    ];
    let extras = vec![
        metric("mttkrp_call_s", call_raw, "s", Tag::Measured, n),
        metric("mttkrp_per_s", per_s_raw, "1/s", Tag::Measured, pieces.len()),
        metric("als_sweep_s", sweep_s, "s", Tag::Normalized, sweeps.len()),
        metric("als_sweep_s", sweep_raw, "s", Tag::Measured, sweeps.len()),
    ];
    Outcome {
        checks,
        metrics,
        extras,
        notes: Vec::new(),
        modelled_digest: digest(&sims_ms),
        spans: None,
    }
}

/// What the replay of one facade call observed.
struct Replayed {
    output: Mat,
    timing: PhaseTiming,
    overlap_ratio: f64,
    segments: usize,
    streams: usize,
    stats: SegmentStats,
}

/// Replays `ScalFrag::mttkrp` (adaptive launch, tiled kernel, pipelined,
/// automatic segments: the facade defaults) one public call at a time,
/// each inside a span. The dry-mode interpretation of the same plan runs
/// after the call's span closes.
fn replay_call(
    tr: &mut Tracer,
    req: u64,
    facade: &ScalFrag,
    tensor: &CooTensor,
    factors: &FactorSet,
    mode: usize,
) -> Replayed {
    let call_id = tr.open("mttkrp", req, None);
    let call = Some(call_id);
    let rank = factors.rank() as u32;
    let features =
        tr.time("tensor.features", req, call, || TensorFeatures::extract(tensor, mode).to_vec());
    let config = tr.time("autotune.predict", req, call, || {
        facade.trained_predictor().for_rank(rank).predict_from_features(&features)
    });
    let stats = tr.time("kernels.segstats", req, call, || SegmentStats::compute(tensor, mode));
    let sorted = tr.time("tensor.sort", req, call, || {
        let mut sorted = tensor.clone();
        sorted.sort_for_mode(mode);
        sorted
    });
    let device = facade.device();
    let plan = tr.time("pipeline.segment", req, call, || {
        PipelinePlan::auto(&sorted, mode, config, device, factors.byte_size())
    });
    let program = tr.time("pipeline.build", req, call, || {
        build_pipelined_plan(device, &sorted, factors, &plan, KernelChoice::Tiled)
    });
    let outcome = tr.time("exec.interp", req, call, || {
        run_plan_on(&mut Gpu::new(device.clone()), &program, ExecMode::Functional)
    });
    tr.close(call_id);
    tr.time("exec.interp_dry", req, None, || {
        run_plan_on(&mut Gpu::new(device.clone()), &program, ExecMode::Dry)
    });
    Replayed {
        output: outcome.output,
        timing: PhaseTiming::from_timeline(&outcome.timeline),
        overlap_ratio: outcome.timeline.overlap_ratio(),
        segments: plan.num_segments(),
        streams: plan.num_streams,
        stats,
    }
}

/// The spans that make up one facade call.
const CALL_LAYERS: [&str; 7] = [
    "tensor.features",
    "autotune.predict",
    "kernels.segstats",
    "tensor.sort",
    "pipeline.segment",
    "pipeline.build",
    "exec.interp",
];

/// Replays one solve (the sweep body of `cpd_als`) with every layer call
/// timed, next to an untraced facade call for each factor update.
fn traced(
    tensor: &CooTensor,
    facade: &ScalFrag,
    opts: &CpdOptions,
    reference_fits: &[f64],
    tolerances: &[u64],
) -> Outcome {
    let order = tensor.order();
    let rank = opts.rank;
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut factors = FactorSet::random(tensor.dims(), rank, opts.seed);
    let norm_x_sq: f64 = tensor.values().iter().map(|&v| v as f64 * v as f64).sum();
    let mut untraced_s = Vec::new();
    let mut sims = Vec::new();
    let mut replays = Vec::new();
    let mut fits = Vec::new();
    for sweep in 0..opts.max_iters {
        let mut last_m = None;
        for (n, &tolerance) in tolerances.iter().enumerate() {
            let req = (sweep * order + n) as u64;
            let v = tr.time("linalg.gram", req, None, || {
                let mut v = Mat::from_fn(rank, rank, |_, _| 1.0);
                for m in (0..order).filter(|&m| m != n) {
                    hadamard_assign(&mut v, &gram(factors.get(m)));
                }
                v
            });
            // Alternate which of the pair runs first so neither always
            // finds the caches warm.
            let facade_call = |factors: &FactorSet| {
                let t0 = Instant::now();
                let report = facade.mttkrp(tensor, factors, n);
                (t0.elapsed().as_secs_f64(), report)
            };
            let ((wall, report), replayed) = if req.is_multiple_of(2) {
                let u = facade_call(&factors);
                (u, replay_call(&mut tr, req, facade, tensor, &factors, n))
            } else {
                let r = replay_call(&mut tr, req, facade, tensor, &factors, n);
                (facade_call(&factors), r)
            };
            let what = format!("traced sweep {sweep} mode {n}");
            checks.attempted += 1;
            if replayed.output.as_slice() != report.output.as_slice() {
                checks.fail(1, format!("{what}: replayed output differs from the facade's"));
            }
            if replayed.timing != report.timing
                || replayed.overlap_ratio.to_bits() != report.overlap_ratio.to_bits()
            {
                checks
                    .fail(1, format!("{what}: replayed simulated times differ from the facade's"));
            }
            let expected =
                tr.time("kernels.reference", req, None, || mttkrp_seq(tensor, &factors, n));
            check_output(&mut checks, &what, &expected, &replayed.output, tolerance);

            let pinv = tr.time("linalg.pinv", req, None, || pinv_spd(&v));
            let mut updated =
                tr.time("linalg.matmul", req, None, || matmul(&replayed.output, &pinv));
            for x in updated.as_mut_slice().iter_mut().filter(|x| **x < 0.0) {
                *x = 0.0;
            }
            factors.set(n, updated);
            untraced_s.push(wall);
            sims.push(report.timing.total_s);
            last_m = Some((req, replayed.output.clone()));
            replays.push(replayed);
        }
        // The fit, as `cpd_als` computes it after each sweep.
        let (req, m_out) = last_m.expect("order >= 1");
        let inner: f64 = m_out
            .as_slice()
            .iter()
            .zip(factors.get(order - 1).as_slice())
            .map(|(&m, &a)| m as f64 * a as f64)
            .sum();
        let g = tr.time("linalg.gram", req, None, || {
            let mut g = Mat::from_fn(rank, rank, |_, _| 1.0);
            for m in 0..order {
                hadamard_assign(&mut g, &gram(factors.get(m)));
            }
            g
        });
        let norm_model_sq: f64 = g.as_slice().iter().map(|&x| x as f64).sum();
        let resid_sq = (norm_x_sq + norm_model_sq - 2.0 * inner).max(0.0);
        fits.push(1.0 - resid_sq.sqrt() / norm_x_sq.sqrt().max(1e-30));
    }
    check_fits(&mut checks, "traced solve", &fits, reference_fits, order);
    layer_metrics(tr, checks, &untraced_s, &sims, &replays, opts.rank as u32)
}

fn layer_metrics(
    tr: Tracer,
    checks: Checks,
    untraced_s: &[f64],
    sims: &[f64],
    replays: &[Replayed],
    rank: u32,
) -> Outcome {
    let n = untraced_s.len();
    let per_call = |name: &str| -> Vec<f64> {
        let by_req = tr.per_request(name);
        (0..n as u64).map(|r| by_req.get(&r).copied().unwrap_or(0.0)).collect()
    };
    let med = |name: &str| median(&per_call(name));
    let layer_sum: Vec<f64> =
        (0..n).map(|i| CALL_LAYERS.iter().map(|l| per_call(l)[i]).sum()).collect();

    // Consistency: each replay ran next to an untraced call of the same
    // update, so their sums over the solve compare like with like. A miss
    // is reported, not counted as an output failure: it flags a layer the
    // replay lost (or a noisy machine), not a wrong result.
    let untraced_total: f64 = untraced_s.iter().sum();
    let coverage = layer_sum.iter().sum::<f64>() / untraced_total;
    let verdict = if (coverage - 1.0).abs() <= COVERAGE_TOL { "PASS" } else { "FAIL" };
    let notes = vec![format!(
        "trace consistency {verdict}: the traced layer sum is {coverage:.3} of the untraced calls \
         (allowed 1 ± {COVERAGE_TOL})"
    )];

    let interp = per_call("exec.interp");
    let dry = per_call("exec.interp_dry");
    let compute: Vec<f64> = interp.iter().zip(&dry).map(|(f, d)| f - d).collect();
    let compute_s = median(&compute);
    let reference_s = med("kernels.reference");
    let modelled = |f: fn(&Replayed) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let counted =
        |f: fn(&Replayed) -> u64| median_count(&replays.iter().map(f).collect::<Vec<_>>()) as f64;
    let h2d_ms = modelled(|r| r.timing.h2d_s * 1e3);
    let kernel_ms = modelled(|r| r.timing.kernel_s * 1e3);
    let d2h_ms = modelled(|r| r.timing.d2h_s * 1e3);
    let overlap = modelled(|r| r.overlap_ratio);
    let flops = median_count(&replays.iter().map(|r| r.stats.flops(rank)).collect::<Vec<_>>());
    let bytes = median_count(
        &replays
            .iter()
            .map(|r| r.stats.bytes_read(rank) + r.stats.output_bytes(rank))
            .collect::<Vec<_>>(),
    );
    let overhead = (per_call("mttkrp").iter().sum::<f64>() - untraced_total) / n as f64;

    use Tag::{Computed, Counted, Measured, Modelled};
    let metrics = vec![
        metric("tensor.features_s", med("tensor.features"), "s", Measured, n),
        metric("tensor.sort_s", med("tensor.sort"), "s", Measured, n),
        metric("autotune.predict_s", med("autotune.predict"), "s", Measured, n),
        metric("kernels.segstats_s", med("kernels.segstats"), "s", Measured, n),
        metric("pipeline.segment_s", med("pipeline.segment"), "s", Measured, n),
        metric("pipeline.build_s", med("pipeline.build"), "s", Measured, n),
        metric("pipeline.build_batched_s", 0.0, "s", Measured, 0),
        metric("opt.optimize_s", 0.0, "s", Measured, 0),
        metric("exec.interp_s", median(&interp), "s", Measured, n),
        metric("exec.interp_dry_s", median(&dry), "s", Measured, n),
        metric("kernels.compute_s", compute_s, "s", Measured, n),
        metric("kernels.reference_s", reference_s, "s", Measured, n),
        metric("kernels.roofline_ratio", ratio(reference_s, compute_s), "ratio", Measured, n),
        metric("kernels.flops", flops as f64, "count", Computed, n),
        metric("kernels.bytes_computed", bytes as f64, "B", Computed, n),
        metric("linalg.gram_s", med("linalg.gram"), "s", Measured, n),
        metric("linalg.pinv_s", med("linalg.pinv"), "s", Measured, n),
        metric("linalg.matmul_s", med("linalg.matmul"), "s", Measured, n),
        metric("serve.self_s", 0.0, "s", Measured, 0),
        metric("gpusim.sim_h2d_ms", h2d_ms, "ms", Modelled, n),
        metric("gpusim.sim_kernel_ms", kernel_ms, "ms", Modelled, n),
        metric("gpusim.sim_d2h_ms", d2h_ms, "ms", Modelled, n),
        metric("gpusim.overlap_ratio", overlap, "ratio", Modelled, n),
        metric("pipeline.segments", counted(|r| r.segments as u64), "count", Counted, n),
        metric("pipeline.streams", counted(|r| r.streams as u64), "count", Counted, n),
        metric("serve.dispatch_groups", 0.0, "count", Counted, 0),
        metric("serve.batch_occupancy", 0.0, "jobs", Counted, 0),
        metric("serve.cache_hit_rate", 0.0, "ratio", Counted, 0),
        metric("serve.peak_queue_depth", 0.0, "count", Counted, 0),
        metric("opt.ops_removed", 0.0, "count", Counted, 0),
        metric("serve.sim_queue_wait_p99_ms", 0.0, "ms", Modelled, 0),
        metric("serve.sim_batch_wait_ms", 0.0, "ms", Modelled, 0),
        metric("trace.coverage", coverage, "ratio", Measured, n),
        metric("trace.overhead_s", overhead, "s", Measured, n),
    ];
    let extras = vec![
        metric("untraced mttkrp_call_s", median(untraced_s), "s", Measured, n),
        metric("traced layer sum per call", median(&layer_sum), "s", Measured, n),
    ];
    let modelled_values: Vec<f64> = sims
        .iter()
        .copied()
        .chain(
            replays
                .iter()
                .flat_map(|r| [r.timing.h2d_s, r.timing.kernel_s, r.timing.d2h_s, r.overlap_ratio]),
        )
        .collect();
    Outcome {
        checks,
        metrics,
        extras,
        notes,
        modelled_digest: digest(&modelled_values),
        spans: Some(tr),
    }
}
