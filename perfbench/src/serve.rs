//! `serve-dry`: an open-loop, multi-tenant job stream served by
//! `ScalFragServer::run` in dry mode on a 2-device RTX 3090 pool at about
//! 80 % of capacity, in simulated time. Many small dispatches that mostly
//! hit the plan cache: batch-plan build, the optimizer, the interpreter and
//! the scheduler do the work; the kernels do none.

use crate::report::{digest, metric, Checks, Outcome, Tag};
use crate::speed::{medians, timed, Sample};
use crate::stats::{mean, median, median_count, percentile};
use crate::trace::Tracer;
use crate::Args;
use scalfrag_exec::{run_plan, ExecMode, KernelChoice};
use scalfrag_gpusim::{DeviceSpec, LaunchConfig, SpanKind};
use scalfrag_kernels::reference::mttkrp_seq;
use scalfrag_kernels::SegmentStats;
use scalfrag_pipeline::plan::MAX_SEGMENTS;
use scalfrag_pipeline::{build_batched_plan, BatchedJobSpec};
use scalfrag_serve::workload::mean_service_estimate_s;
use scalfrag_serve::{
    synthesize, AdmissionPolicy, DevicePool, JobRecord, MttkrpJob, ScalFragServer, ServeReport,
    WorkloadSpec, PLAN_HIT_S, PLAN_MISS_S,
};
use scalfrag_tensor::{segment, CooTensor, FeatureKey, TensorFeatures};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

const DEVICES: usize = 2;
/// Offered load as a share of the pool's estimated capacity.
const LOAD: f64 = 0.8;
/// Jobs per `run()`: enough that the modelled p99 has well over ten
/// samples beyond it, small enough that a run repeats many times.
const JOBS: usize = 16_000;
const SETUPS: usize = 9;
const RANK: usize = 16;
/// Untraced `run()`s in a traced run; their median wall is the whole the
/// replayed layers are a share of.
const TRACED_RUNS: usize = 3;

fn spec(seed: u64, mean_interarrival_s: f64) -> WorkloadSpec {
    WorkloadSpec {
        jobs: JOBS,
        tenants: 4,
        shape_classes: 6,
        variants_per_class: 3,
        skew: 1.0,
        mean_interarrival_s,
        burstiness: 3.0,
        rank: RANK,
        base_nnz: 3_000,
        seed,
    }
}

/// The job stream, its arrival rate calibrated (as `serve_load` does)
/// from the admission-time service estimate, and the server. The batch
/// window is half a mean interarrival gap, so groups form from jobs that
/// arrive while a device finishes; admission is loose enough that no job
/// of this stream is refused.
fn setup(seed: u64) -> (Vec<MttkrpJob>, ScalFragServer) {
    let device = DeviceSpec::rtx3090();
    let probe = synthesize(&spec(seed, 1.0));
    let gap = mean_service_estimate_s(&probe, &device) / (LOAD * DEVICES as f64);
    let stream = synthesize(&spec(seed, gap));
    let server = ScalFragServer::builder()
        .pool(DevicePool::homogeneous(device, DEVICES))
        .batch_window_s(0.5 * gap)
        .admission(AdmissionPolicy { max_queue_depth: 1 << 20, makespan_budget_s: 1e6 })
        .train_tiers(crate::TRAIN_TIERS.to_vec())
        .build();
    server.trained_predictor().for_rank(RANK as u32);
    (stream, server)
}

pub fn run(args: &Args) -> Outcome {
    let ((jobs, server), setups) =
        crate::set_up(if args.trace { 1 } else { SETUPS }, || setup(args.seed));
    if args.trace {
        traced(&jobs, &server)
    } else {
        untraced(args.seconds, &jobs, &server, &setups)
    }
}

/// Checks one report: every job served and the modelled run identical to
/// the first one.
fn check_report(
    checks: &mut Checks,
    what: &str,
    report: &ServeReport,
    jobs: &[MttkrpJob],
    first_fingerprint: u64,
) {
    let n = jobs.len() as u64;
    checks.attempted += n;
    let accounted = report.completed.len() + report.rejected.len();
    if accounted != jobs.len() {
        checks.fail(n, format!("{what}: {accounted} jobs accounted for, {n} submitted"));
    }
    if !report.rejected.is_empty() {
        checks.fail(
            report.rejected.len() as u64,
            format!("{what}: {} jobs rejected", report.rejected.len()),
        );
    }
    if report.timing_inconsistencies > 0 {
        checks.fail(
            report.timing_inconsistencies as u64,
            format!("{what}: {} inconsistent job timings", report.timing_inconsistencies),
        );
    }
    if report.fingerprint() != first_fingerprint {
        checks.fail(n, format!("{what}: ServeReport fingerprint differs from the first run"));
    }
}

/// Simulated execution time of every job on its fused plan, in ms.
fn exec_ms(report: &ServeReport) -> Vec<f64> {
    report.completed.iter().map(|r| r.timing.total_s * 1e3).collect()
}

fn untraced(seconds: f64, jobs: &[MttkrpJob], server: &ScalFragServer, setups: &[f64]) -> Outcome {
    let mut checks = Checks::default();
    // A warm-up run fills the allocator and the instruction caches; its
    // report is the one every timed run must reproduce exactly.
    let first = server.run(jobs.to_vec());
    let fingerprint = first.fingerprint();
    check_report(&mut checks, "warm-up run", &first, jobs, fingerprint);
    let exec = exec_ms(&first);
    let (p50_ms, p99_ms) = (first.p50_latency_s() * 1e3, first.p99_latency_s() * 1e3);
    drop(first);

    // One sample per run of the whole stream: wall seconds per job.
    let mut per_job = Vec::new();
    let t0 = Instant::now();
    loop {
        let input = jobs.to_vec();
        let (report, run, _) = timed(|| server.run(input));
        let completed = report.completed.len().max(1) as f64;
        per_job.push(Sample { secs: run.secs / completed, probe_s: run.probe_s });
        check_report(
            &mut checks,
            &format!("timed run {}", per_job.len()),
            &report,
            jobs,
            fingerprint,
        );
        drop(report);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    crate::speed::smooth(&mut per_job);
    let (call_s, call_raw) = medians(&per_job, |s| s);
    let (per_s, per_s_raw) = medians(&per_job, |s| 1.0 / s);
    let (runs, n) = (per_job.len(), exec.len());
    let metrics = vec![
        metric("setup_s", median(setups), "s", Tag::Measured, setups.len()),
        metric("peak_rss_mb", crate::peak_rss_mb(), "MB", Tag::Measured, 1),
        metric("mttkrp_call_s", call_s, "s", Tag::Normalized, runs),
        metric("mttkrp_per_s", per_s, "1/s", Tag::Normalized, runs),
        metric("sim_mttkrp_ms", mean(&exec), "ms", Tag::Modelled, n),
        metric("sim_latency_p50_ms", p50_ms, "ms", Tag::Modelled, n),
        metric("sim_latency_p99_ms", p99_ms, "ms", Tag::Modelled, n),
    ];
    let mut values = exec;
    values.extend([p50_ms, p99_ms]);
    let extras = vec![
        metric("mttkrp_call_s", call_raw, "s", Tag::Measured, runs),
        metric("mttkrp_per_s", per_s_raw, "1/s", Tag::Measured, runs),
    ];
    Outcome {
        checks,
        metrics,
        extras,
        notes: Vec::new(),
        modelled_digest: digest(&values),
        spans: None,
    }
}

/// Planning artifacts the scheduler memoizes per (tensor handle, mode),
/// replayed with the same memo so each is paid once, as in `run()`.
#[derive(Default)]
struct Memo {
    features: HashMap<(usize, usize), TensorFeatures>,
    sorted: HashMap<(usize, usize), Arc<CooTensor>>,
}

fn memo_key(job: &MttkrpJob) -> (usize, usize) {
    (Arc::as_ptr(&job.tensor) as usize, job.mode)
}

/// The member id in a fused-plan op label (`"job{id} …"`).
fn job_of_label(label: &str) -> Option<u64> {
    let rest = label.strip_prefix("job")?;
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What the replay of the whole stream observed.
#[derive(Default)]
struct Replay {
    groups: usize,
    hits: u64,
    misses: u64,
    overlap: Vec<f64>,
    launches: Vec<u64>,
    streams: Vec<u64>,
    ops_removed: u64,
    /// Seconds the replay spent on its own checks and op counting, which
    /// are not part of the traced work.
    unspanned_s: f64,
}

/// Serves the stream untraced, then replays every dispatch group's public
/// calls (planning, fused-plan build, optimizer, interpreter) from the
/// report's records, each inside a span.
fn traced(jobs: &[MttkrpJob], server: &ScalFragServer) -> Outcome {
    let mut checks = Checks::default();
    let first = server.run(jobs.to_vec());
    let fingerprint = first.fingerprint();
    check_report(&mut checks, "warm-up run", &first, jobs, fingerprint);
    drop(first);
    let mut walls = Vec::with_capacity(TRACED_RUNS);
    let mut last = None;
    for k in 0..TRACED_RUNS {
        let input = jobs.to_vec();
        let start = Instant::now();
        let report = server.run(input);
        walls.push(start.elapsed().as_secs_f64());
        check_report(&mut checks, &format!("untraced run {k}"), &report, jobs, fingerprint);
        last = Some(report);
    }
    let report = last.expect("TRACED_RUNS > 0");
    let run_wall = median(&walls);

    let mut tr = Tracer::new();
    let replay_start = Instant::now();
    let replay = replay_groups(&mut tr, &mut checks, &report, jobs, server);
    let replay_wall = replay_start.elapsed().as_secs_f64() - replay.unspanned_s;
    if (replay.hits, replay.misses) != (report.cache.hits, report.cache.misses) {
        checks.fail(
            jobs.len() as u64,
            format!(
                "replayed plan cache {}/{} hits/misses, the server reported {}/{}",
                replay.hits, replay.misses, report.cache.hits, report.cache.misses
            ),
        );
    }

    // The host roofline: sequential mttkrp_seq of every job's tensor and
    // mode, each distinct pair timed once and charged to every job of it.
    // The counts are computed from the same pairs.
    let rank = RANK as u32;
    let mut by_pair: HashMap<(usize, usize), (f64, SegmentStats)> = HashMap::new();
    let per_record: Vec<(f64, SegmentStats)> = report
        .completed
        .iter()
        .map(|r| {
            let job = &jobs[r.id as usize];
            *by_pair.entry(memo_key(job)).or_insert_with(|| {
                let start = Instant::now();
                std::hint::black_box(mttkrp_seq(&job.tensor, &job.factors, job.mode));
                (start.elapsed().as_secs_f64(), SegmentStats::compute(&job.tensor, job.mode))
            })
        })
        .collect();
    let completed = report.completed.len().max(1) as f64;
    let reference_s = per_record.iter().map(|(secs, _)| secs).sum::<f64>() / completed;
    let flops: Vec<u64> = per_record.iter().map(|(_, s)| s.flops(rank)).collect();
    let bytes: Vec<u64> =
        per_record.iter().map(|(_, s)| s.bytes_read(rank) + s.output_bytes(rank)).collect();

    let per_job = |name: &str| tr.total(name) / completed;
    let in_run = [
        "tensor.features",
        "tensor.sort",
        "autotune.predict",
        "pipeline.segment",
        "pipeline.build_batched",
        "opt.optimize",
        "exec.interp",
    ];
    let layers_s: f64 = in_run.iter().map(|l| tr.total(l)).sum();
    let interp_s = per_job("exec.interp");
    let records = &report.completed;
    let timing_ms =
        |f: fn(&JobRecord) -> f64| median(&records.iter().map(|r| f(r) * 1e3).collect::<Vec<_>>());
    let queue_ms: Vec<f64> = records.iter().map(|r| r.timing.queue_s * 1e3).collect();
    let batch_ms: Vec<f64> = records.iter().map(|r| r.timing.batch_wait_s * 1e3).collect();
    let n = records.len();
    let g = replay.groups;

    use Tag::{Computed, Counted, Measured, Modelled};
    let metrics = vec![
        metric("tensor.features_s", per_job("tensor.features"), "s", Measured, n),
        metric("tensor.sort_s", per_job("tensor.sort"), "s", Measured, n),
        metric("autotune.predict_s", per_job("autotune.predict"), "s", Measured, n),
        metric("kernels.segstats_s", 0.0, "s", Measured, 0),
        metric("pipeline.segment_s", per_job("pipeline.segment"), "s", Measured, n),
        metric("pipeline.build_s", 0.0, "s", Measured, 0),
        metric("pipeline.build_batched_s", per_job("pipeline.build_batched"), "s", Measured, n),
        metric("opt.optimize_s", per_job("opt.optimize"), "s", Measured, n),
        metric("exec.interp_s", interp_s, "s", Measured, n),
        // Dry mode: the interpreter is the simulator alone and the kernels
        // compute nothing.
        metric("exec.interp_dry_s", interp_s, "s", Measured, n),
        metric("kernels.compute_s", 0.0, "s", Measured, 0),
        metric("kernels.reference_s", reference_s, "s", Measured, n),
        metric("kernels.roofline_ratio", 0.0, "ratio", Measured, 0),
        metric("kernels.flops", median_count(&flops) as f64, "count", Computed, n),
        metric("kernels.bytes_computed", median_count(&bytes) as f64, "B", Computed, n),
        metric("linalg.gram_s", 0.0, "s", Measured, 0),
        metric("linalg.pinv_s", 0.0, "s", Measured, 0),
        metric("linalg.matmul_s", 0.0, "s", Measured, 0),
        metric("serve.self_s", (run_wall - layers_s) / completed, "s", Measured, n),
        metric("gpusim.sim_h2d_ms", timing_ms(|r| r.timing.h2d_s), "ms", Modelled, n),
        metric("gpusim.sim_kernel_ms", timing_ms(|r| r.timing.kernel_s), "ms", Modelled, n),
        metric("gpusim.sim_d2h_ms", timing_ms(|r| r.timing.d2h_s), "ms", Modelled, n),
        metric("gpusim.overlap_ratio", median(&replay.overlap), "ratio", Modelled, g),
        metric("pipeline.segments", median_count(&replay.launches) as f64, "count", Counted, g),
        metric("pipeline.streams", median_count(&replay.streams) as f64, "count", Counted, g),
        metric("serve.dispatch_groups", report.dispatch_groups as f64, "count", Counted, 1),
        metric("serve.batch_occupancy", report.mean_batch_occupancy(), "jobs", Counted, 1),
        metric("serve.cache_hit_rate", report.cache.hit_rate(), "ratio", Counted, 1),
        metric("serve.peak_queue_depth", report.peak_queue_depth as f64, "count", Counted, 1),
        metric("opt.ops_removed", replay.ops_removed as f64, "count", Counted, g),
        metric("serve.sim_queue_wait_p99_ms", percentile(&queue_ms, 0.99), "ms", Modelled, n),
        metric("serve.sim_batch_wait_ms", mean(&batch_ms), "ms", Modelled, n),
        metric("trace.coverage", layers_s / run_wall, "ratio", Measured, walls.len()),
        metric(
            "trace.overhead_s",
            (replay_wall - tr.top_level_total()) / completed,
            "s",
            Measured,
            1,
        ),
    ];
    let extras = vec![metric("untraced run() wall", run_wall, "s", Measured, walls.len())];
    let mut values = exec_ms(&report);
    values.extend(replay.overlap.iter().copied());
    values.extend(queue_ms);
    values.extend(batch_ms);
    Outcome {
        checks,
        metrics,
        extras,
        notes: Vec::new(),
        modelled_digest: digest(&values),
        spans: Some(tr),
    }
}

fn replay_groups(
    tr: &mut Tracer,
    checks: &mut Checks,
    report: &ServeReport,
    jobs: &[MttkrpJob],
    server: &ScalFragServer,
) -> Replay {
    let mut replay = Replay::default();
    let mut memo = Memo::default();
    let mut cache: HashMap<FeatureKey, (LaunchConfig, usize)> = HashMap::new();
    let planning_device = server.pool().planning_device().clone();
    let mut rest = &report.completed[..];
    while let Some(lead_record) = rest.first() {
        let req = replay.groups as u64;
        let size = lead_record.group_size.clamp(1, rest.len());
        let (records, tail) = rest.split_at(size);
        rest = tail;
        replay.groups += 1;
        let what = format!("dispatch group {req} (lead job {})", lead_record.id);
        let dev = lead_record.device;
        if records.iter().any(|r| r.device != dev || r.group_size != size) {
            checks.fail(size as u64, format!("{what}: records do not form one group"));
            continue;
        }
        let group_start = records.iter().map(|r| r.start_s).fold(f64::NEG_INFINITY, f64::max);
        let members: Vec<&MttkrpJob> = records.iter().map(|r| &jobs[r.id as usize]).collect();
        let lead = members[0];

        // Planning, as the scheduler does it: features at admission, then
        // a plan-cache lookup on the quantized key.
        for m in &members {
            if let Entry::Vacant(slot) = memo.features.entry(memo_key(m)) {
                slot.insert(tr.time("tensor.features", req, None, || {
                    TensorFeatures::extract(&m.tensor, m.mode)
                }));
            }
        }
        let features = &memo.features[&memo_key(lead)];
        let key = FeatureKey::quantize(features, lead.mode, lead.rank());
        let (config, streams, hit) = match cache.get(&key) {
            Some(&(config, streams)) => (config, streams, true),
            None => {
                let config = tr.time("autotune.predict", req, None, || {
                    server
                        .trained_predictor()
                        .for_rank(lead.rank())
                        .predict_from_features(&features.to_vec())
                });
                let segments = tr.time("pipeline.segment", req, None, || {
                    segment::auto_segment_count(
                        lead.tensor.byte_size(),
                        lead.factors.byte_size(),
                        planning_device.global_mem_bytes as usize,
                        MAX_SEGMENTS,
                    )
                    .clamp(4, MAX_SEGMENTS)
                });
                cache.insert(key, (config, segments.min(4)));
                (config, segments.min(4), false)
            }
        };
        if hit {
            replay.hits += 1;
        } else {
            replay.misses += 1;
        }
        let plan_s = if hit { PLAN_HIT_S } else { PLAN_MISS_S };
        let device = &server.pool().devices()[dev];
        let config = if config.validate(device).is_ok() {
            config
        } else {
            LaunchConfig::parti_default(lead.tensor.nnz())
        };

        let mut specs = Vec::with_capacity(size);
        for m in &members {
            let sorted = match memo.sorted.get(&memo_key(m)) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = tr.time("tensor.sort", req, None, || {
                        let mut sorted = (*m.tensor).clone();
                        sorted.sort_for_mode(m.mode);
                        Arc::new(sorted)
                    });
                    memo.sorted.insert(memo_key(m), Arc::clone(&s));
                    s
                }
            };
            specs.push(BatchedJobSpec { id: m.id, tensor: sorted });
        }
        let fused = tr.time("pipeline.build_batched", req, None, || {
            build_batched_plan(
                device,
                &specs,
                Arc::clone(&lead.factors),
                lead.mode,
                config,
                KernelChoice::Tiled,
                streams,
            )
        });
        let optimized =
            tr.time("opt.optimize", req, None, || scalfrag_opt::optimize_default(&fused));
        let outcome = tr.time("exec.interp", req, None, || run_plan(&optimized, ExecMode::Dry));

        // The replay must land every member exactly where the server did.
        let check_start = Instant::now();
        let mut ends = vec![0.0f64; size];
        let mut streams_used = BTreeSet::new();
        let mut launches = 0u64;
        for e in &outcome.trace.events {
            if e.kind == SpanKind::Kernel {
                launches += 1;
                streams_used.insert(e.stream);
            }
            if let Some(j) =
                job_of_label(&e.label).and_then(|id| members.iter().position(|m| m.id == id))
            {
                ends[j] = ends[j].max(e.end);
            }
        }
        for (j, r) in records.iter().enumerate() {
            let finish = group_start + plan_s + ends[j];
            if r.cache_hit != hit || finish.to_bits() != r.finish_s.to_bits() {
                checks.fail(
                    1,
                    format!(
                        "{what}: job {} replayed to finish {finish}, served at {}",
                        r.id, r.finish_s
                    ),
                );
            }
        }
        replay.overlap.push(outcome.timeline.overlap_ratio());
        replay.launches.push(launches);
        replay.streams.push(streams_used.len() as u64);
        replay.ops_removed += fused.total_ops().saturating_sub(optimized.total_ops()) as u64;
        replay.unspanned_s += check_start.elapsed().as_secs_f64();
    }
    replay
}
