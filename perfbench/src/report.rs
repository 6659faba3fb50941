//! Metrics, output checks and the result line.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// How a number was obtained.
#[derive(Clone, Copy)]
pub enum Tag {
    /// Wall clock or operating-system counters on this machine.
    Measured,
    /// Wall clock scaled to the reference machine speed (`speed.rs`).
    Normalized,
    /// gpusim simulated time: deterministic for a seed.
    Modelled,
    /// Derived from array sizes, not observed (bytes moved, FLOPs).
    Computed,
    /// An exact count the program reports.
    Counted,
}

impl Tag {
    fn label(self) -> &'static str {
        match self {
            Tag::Measured => "measured",
            Tag::Normalized => "normalized",
            Tag::Modelled => "modelled",
            Tag::Computed => "computed",
            Tag::Counted => "counted",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub tag: Tag,
    /// Samples the value summarises (1 for a single reading or a count).
    pub samples: usize,
}

pub fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    tag: Tag,
    samples: usize,
) -> Metric {
    Metric { name, value, unit, tag, samples }
}

/// Output checks: every failed check counts against the operations it
/// covers, and its message is printed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Records a failed check covering `ops` of the attempted operations.
    pub fn fail(&mut self, ops: u64, message: String) {
        self.failed += ops;
        self.messages.push(message);
    }

    pub fn failed(&self) -> u64 {
        self.failed.min(self.attempted)
    }

    pub fn correct(&self) -> bool {
        self.messages.is_empty()
    }
}

/// Everything one workload run hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    pub metrics: Vec<Metric>,
    /// Informational figures printed in the table only (not result keys).
    pub extras: Vec<Metric>,
    /// Verdicts printed above the table.
    pub notes: Vec<String>,
    /// Digest of the bits of every modelled number, for comparing runs.
    pub modelled_digest: u64,
    /// The traced run's spans.
    pub spans: Option<Tracer>,
}

/// FNV-1a over the bit patterns of modelled values: equal digests mean
/// the modelled numbers repeated bit for bit.
pub fn digest(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// The human-readable table printed above the result line.
pub fn table(metrics: &[Metric], extras: &[Metric]) -> String {
    let mut out =
        format!("{:<30} {:>18} {:<6} {:<10} {:>7}\n", "metric", "value", "unit", "kind", "samples");
    for (m, note) in metrics.iter().map(|m| (m, "")).chain(extras.iter().map(|m| (m, "  (info)"))) {
        let _ = writeln!(
            out,
            "{:<30} {:>18.6} {:<6} {:<10} {:>7}{note}",
            m.name,
            m.value,
            m.unit,
            m.tag.label(),
            m.samples
        );
    }
    out
}

/// The result object, printed as the last line of standard output.
pub fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.correct(),
        checks.attempted,
        checks.failed(),
        body.join(", ")
    )
}

/// Full round-trip digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
