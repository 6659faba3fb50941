//! Machine-speed normalization of wall-clock samples.
//!
//! On a shared machine, co-tenants contend for the caches and the memory
//! system, and this allocation-heavy host code slows down by up to half for
//! a minute at a time. A fixed probe that allocates, hashes and sorts small
//! vectors (std only, so no change to the program moves it) slows down
//! with it. Every timed sample is bracketed by probe runs and scaled to the
//! speed at which the probe takes [`REFERENCE_PROBE_S`]; the raw medians
//! are printed beside the scaled ones.

use crate::stats::median;
use std::collections::HashMap;
use std::time::Instant;

/// Probe time that defines the reference speed: about what the probe
/// takes on an uncontended core of the 2-core VM the bounds were set on.
pub const REFERENCE_PROBE_S: f64 = 0.025;

/// One probe run: hash-map inserts of small vectors, then a sort of the
/// vectors (the access pattern of feature extraction and mode sorting).
fn probe_s() -> f64 {
    let t0 = Instant::now();
    let mut map = HashMap::with_capacity(1024);
    for i in 0..60_000u64 {
        let k = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        map.insert(k, vec![(k >> 40) as u32, (k >> 20) as u32, k as u32]);
    }
    let mut rows: Vec<Vec<u32>> = map.into_values().collect();
    rows.sort_unstable();
    std::hint::black_box(rows.len());
    t0.elapsed().as_secs_f64()
}

/// One timed sample and the probe time around it.
#[derive(Clone, Copy)]
pub struct Sample {
    pub secs: f64,
    pub probe_s: f64,
}

impl Sample {
    /// The sample's seconds at the reference speed.
    pub fn normalized(&self) -> f64 {
        self.secs * REFERENCE_PROBE_S / self.probe_s
    }
}

/// Runs `f` between two probe runs. Returns its result, the sample, and
/// the seconds the probes took (for callers that time an enclosing span).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Sample, f64) {
    let before = probe_s();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    let after = probe_s();
    (r, Sample { secs, probe_s: 0.5 * (before + after) }, before + after)
}

/// Replaces each sample's probe time by the median over it and its two
/// neighbours on either side (samples in time order): contention phases
/// last longer than a sample, while single probe runs jitter.
pub fn smooth(samples: &mut [Sample]) {
    let probes: Vec<f64> = samples.iter().map(|s| s.probe_s).collect();
    for (i, s) in samples.iter_mut().enumerate() {
        s.probe_s = median(&probes[i.saturating_sub(2)..(i + 3).min(probes.len())]);
    }
}

/// Medians of the normalized and of the raw values `value(seconds)`.
pub fn medians(samples: &[Sample], value: impl Fn(f64) -> f64) -> (f64, f64) {
    let normalized: Vec<f64> = samples.iter().map(|s| value(s.normalized())).collect();
    let raw: Vec<f64> = samples.iter().map(|s| value(s.secs)).collect();
    (median(&normalized), median(&raw))
}
