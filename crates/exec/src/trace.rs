//! The structured plan trace: every executed op as `(device, stream,
//! kind, label, sim-time span)`, with a toolchain-stable FNV-1a
//! fingerprint. This is the unified observability layer every execution
//! path emits.

use scalfrag_gpusim::{SpanKind, Timeline};
use std::fmt::Write as _;
use std::sync::Arc;

/// One executed op.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Plan device index.
    pub device: usize,
    /// Raw stream id within the device.
    pub stream: u32,
    /// Engine-level op kind.
    pub kind: SpanKind,
    /// Op label (as scheduled by the plan), shared with the op and its
    /// span.
    pub label: Arc<str>,
    /// Simulated start (s).
    pub start: f64,
    /// Simulated end (s).
    pub end: f64,
}

/// The trace of one interpreted plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanTrace {
    /// Events in per-device timeline order.
    pub events: Vec<TraceEvent>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn kind_code(kind: SpanKind) -> u8 {
    match kind {
        SpanKind::CopyH2D => 0,
        SpanKind::CopyD2H => 1,
        SpanKind::Kernel => 2,
        SpanKind::HostTask => 3,
    }
}

impl PlanTrace {
    /// Builds a trace from per-device timelines.
    pub fn from_timelines(timelines: &[Timeline]) -> Self {
        let mut events = Vec::with_capacity(timelines.iter().map(|tl| tl.spans.len()).sum());
        for (device, tl) in timelines.iter().enumerate() {
            for span in &tl.spans {
                events.push(TraceEvent {
                    device,
                    stream: span.stream,
                    kind: span.kind,
                    label: Arc::clone(&span.label),
                    start: span.start,
                    end: span.end,
                });
            }
        }
        PlanTrace { events }
    }

    /// Whether the trace recorded no ops.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a digest over every event's placement, label and span bits.
    /// Toolchain-independent: a changed constant means a changed schedule.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut byte = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for e in &self.events {
            for b in (e.device as u64).to_le_bytes() {
                byte(b);
            }
            for b in e.stream.to_le_bytes() {
                byte(b);
            }
            byte(kind_code(e.kind));
            for &b in e.label.as_bytes() {
                byte(b);
            }
            byte(0xff);
            for b in e.start.to_bits().to_le_bytes() {
                byte(b);
            }
            for b in e.end.to_bits().to_le_bytes() {
                byte(b);
            }
        }
        h
    }

    /// Renders the trace as a fixed-width table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>3} {:>4} {:<8} {:>12} {:>12}  label",
            "dev", "strm", "kind", "start", "end"
        );
        for e in &self.events {
            let _ = writeln!(
                s,
                "{:>3} {:>4} {:<8} {:>12.3e} {:>12.3e}  {}",
                e.device,
                e.stream,
                format!("{:?}", e.kind),
                e.start,
                e.end,
                e.label,
            );
        }
        s
    }
}
