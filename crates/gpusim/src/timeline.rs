//! Execution timeline: the record of what ran where and when.
//!
//! The timeline is how the simulator reports results: the per-phase time
//! breakdown of Fig. 5 (`H2D ≫ kernel ≥ D2H`), the overlap ratios behind
//! the end-to-end speedups of Fig. 10, and the segment/stream interplay of
//! Fig. 11 all read straight off the spans collected here.

use std::sync::Arc;

/// What kind of operation a span represents. Each kind occupies its own
/// exclusive hardware engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Host→device transfer, on the H2D PCIe copy engine.
    CopyH2D,
    /// Device→host transfer, on the D2H PCIe copy engine.
    CopyD2H,
    /// Kernel execution, on the SM array.
    Kernel,
    /// Host-side task, on the host CPU (hybrid execution / pre- and
    /// post-processing).
    HostTask,
}

/// One completed operation on the simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Submission-order identifier.
    pub op: u64,
    /// The stream the op was enqueued on.
    pub stream: u32,
    /// Operation kind, which names the engine it occupied.
    pub kind: SpanKind,
    /// Human-readable label for reports, shared with the op that
    /// produced the span (cloning a span copies no text).
    pub label: Arc<str>,
    /// Simulated start time (seconds).
    pub start: f64,
    /// Simulated end time (seconds).
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A completed simulation: all spans plus derived statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// All spans, in submission order.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// End-to-end simulated time: the latest span end (0 when empty).
    pub fn makespan(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }

    /// Total busy time of one kind's engine (sum of span durations).
    pub fn engine_busy(&self, kind: SpanKind) -> f64 {
        self.spans.iter().filter(|s| s.kind == kind).map(Span::duration).sum()
    }

    /// Sum of all span durations (the serialized-execution lower bound on
    /// what a no-overlap schedule would take).
    pub fn total_busy(&self) -> f64 {
        self.spans.iter().map(Span::duration).sum()
    }

    /// Overlap ratio: how much of the work was hidden under other work —
    /// `1 - makespan / total_busy`, clamped to `[0, 1)`. Zero means fully
    /// serial; approaching 1 means near-perfect overlap.
    pub fn overlap_ratio(&self) -> f64 {
        let busy = self.total_busy();
        if busy <= 0.0 {
            0.0
        } else {
            (1.0 - self.makespan() / busy).max(0.0)
        }
    }

    /// Per-kind busy time `(h2d, kernel, d2h, host)` — the Fig. 5 bars.
    pub fn breakdown(&self) -> (f64, f64, f64, f64) {
        (
            self.engine_busy(SpanKind::CopyH2D),
            self.engine_busy(SpanKind::Kernel),
            self.engine_busy(SpanKind::CopyD2H),
            self.engine_busy(SpanKind::HostTask),
        )
    }

    /// Checks structural sanity: spans have non-negative durations, and
    /// spans sharing an engine never overlap (each engine is exclusive).
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!("span {} ends before it starts", s.op));
            }
        }
        for kind in [SpanKind::CopyH2D, SpanKind::CopyD2H, SpanKind::Kernel, SpanKind::HostTask] {
            let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.kind == kind).collect();
            spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in spans.windows(2) {
                if w[1].start < w[0].end - 1e-12 {
                    return Err(format!(
                        "engine of {:?}: op {} (start {}) overlaps op {} (end {})",
                        kind, w[1].op, w[1].start, w[0].op, w[0].end
                    ));
                }
            }
        }
        Ok(())
    }

    /// Renders a proportional ASCII Gantt chart of the timeline, one row
    /// per engine — handy in examples and reports.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let makespan = self.makespan();
        if makespan <= 0.0 || self.spans.is_empty() {
            return String::from("(empty timeline)\n");
        }
        let mut out = String::new();
        for (kind, tag) in [
            (SpanKind::CopyH2D, "H2D    "),
            (SpanKind::Kernel, "Kernel "),
            (SpanKind::CopyD2H, "D2H    "),
            (SpanKind::HostTask, "Host   "),
        ] {
            let mut row = vec![b'.'; width];
            for s in self.spans.iter().filter(|s| s.kind == kind) {
                let a = ((s.start / makespan) * width as f64) as usize;
                let b = (((s.end / makespan) * width as f64).ceil() as usize).min(width);
                for c in row.iter_mut().take(b).skip(a.min(width)) {
                    *c = b'#';
                }
            }
            out.push_str(tag);
            out.push('|');
            out.push_str(std::str::from_utf8(&row).unwrap());
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, kind: SpanKind, start: f64, end: f64) -> Span {
        Span { op, stream: 0, kind, label: format!("op{op}").into(), start, end }
    }

    #[test]
    fn makespan_and_busy() {
        let t = Timeline {
            spans: vec![
                span(0, SpanKind::CopyH2D, 0.0, 2.0),
                span(1, SpanKind::Kernel, 2.0, 3.0),
                span(2, SpanKind::CopyD2H, 3.0, 3.5),
            ],
        };
        assert_eq!(t.makespan(), 3.5);
        assert_eq!(t.total_busy(), 3.5);
        assert_eq!(t.overlap_ratio(), 0.0, "fully serial schedule has no overlap");
        let (h2d, k, d2h, host) = t.breakdown();
        assert_eq!((h2d, k, d2h, host), (2.0, 1.0, 0.5, 0.0));
    }

    #[test]
    fn overlap_ratio_detects_pipelining() {
        // Two H2D+kernel pairs where transfer of segment 2 overlaps kernel 1.
        let t = Timeline {
            spans: vec![
                span(0, SpanKind::CopyH2D, 0.0, 1.0),
                span(1, SpanKind::CopyH2D, 1.0, 2.0),
                span(2, SpanKind::Kernel, 1.0, 2.0),
                span(3, SpanKind::Kernel, 2.0, 3.0),
            ],
        };
        assert_eq!(t.makespan(), 3.0);
        assert_eq!(t.total_busy(), 4.0);
        assert!((t.overlap_ratio() - 0.25).abs() < 1e-12);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_engine_overlap() {
        let t = Timeline {
            spans: vec![span(0, SpanKind::CopyH2D, 0.0, 2.0), span(1, SpanKind::CopyH2D, 1.0, 3.0)],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let t = Timeline { spans: vec![span(0, SpanKind::Kernel, 2.0, 1.0)] };
        assert!(t.validate().is_err());
    }

    #[test]
    fn empty_timeline_is_safe() {
        let t = Timeline::default();
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.overlap_ratio(), 0.0);
        assert!(t.validate().is_ok());
        assert!(t.ascii_gantt(40).contains("empty"));
    }

    #[test]
    fn gantt_renders_rows() {
        let t = Timeline {
            spans: vec![span(0, SpanKind::CopyH2D, 0.0, 1.0), span(1, SpanKind::Kernel, 1.0, 2.0)],
        };
        let g = t.ascii_gantt(20);
        assert!(g.contains("H2D"));
        assert!(g.contains("Kernel"));
        assert!(g.contains('#'));
    }
}
