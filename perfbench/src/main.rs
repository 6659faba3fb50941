//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! perfbench --workload <als-nell2|serve-dry> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it replays the workload's calls into each layer's public functions,
//! each inside a span, and reports the per-layer metrics. Outputs are
//! checked in both modes, outside the timers. The last line of standard
//! output is the result object; the spans of a traced run go to
//! `.bench_out/`. `perfbench/run.py` builds this binary and runs it.

mod als;
mod report;
mod serve;
mod speed;
mod stats;
mod trace;

use report::{result_line, table};
use std::time::Instant;

/// The fixed predictor training tiers (as in `serve_load`): a small
/// training set that keeps set-up to seconds.
pub const TRAIN_TIERS: [usize; 2] = [3_000, 12_000];

const WORKLOADS: [&str; 2] = ["als-nell2", "serve-dry"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds the workload's inputs `times` times, keeping the last build;
/// returns the wall seconds of each build.
pub fn set_up<T>(times: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut built = None;
    for _ in 0..times {
        // Free the previous build before timing the next one.
        drop(built.take());
        let t0 = Instant::now();
        let b = build();
        secs.push(t0.elapsed().as_secs_f64());
        built = Some(b);
    }
    (built.expect("at least one set-up"), secs)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (mut outcome, threads) = scalfrag_host::with_threads(cores, || {
        let outcome =
            if args.workload == "als-nell2" { als::run(&args) } else { serve::run(&args) };
        (outcome, scalfrag_host::current_num_threads())
    });
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.checks.fail(0, format!("metric {} is not finite", m.name));
        }
    }

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unavailable".into());
    let provenance = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cores\": {cores}, \
         \"host.threads\": {threads}, \"rustc\": {}, \"git_rev\": {}, \"source_digest\": {}, \
         \"modelled_digest\": \"{:016x}\"}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_GIT_REV")),
        json_str(&env("PERFBENCH_SOURCE_DIGEST")),
        outcome.modelled_digest,
    );
    if let Some(spans) = &outcome.spans {
        let path = format!(".bench_out/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, spans.chrome_json(&provenance)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => outcome.checks.fail(0, format!("writing {path}: {e}")),
        }
    }
    for msg in &outcome.checks.messages {
        println!("CHECK FAILED: {msg}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    print!("{}", table(&outcome.metrics, &outcome.extras));
    println!("provenance {provenance}");
    println!("{}", result_line(&outcome.checks, &outcome.metrics));
}
