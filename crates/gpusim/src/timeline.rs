//! Execution timeline: the record of what ran where and when.
//!
//! The timeline is how the simulator reports results: the per-phase time
//! breakdown of Fig. 5 (`H2D ≫ kernel ≥ D2H`), the overlap ratios behind
//! the end-to-end speedups of Fig. 10, and the segment/stream interplay of
//! Fig. 11 all read straight off the spans collected here.

use std::sync::Arc;

/// The hardware engine a span occupied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The host→device PCIe copy engine.
    H2D,
    /// The device→host PCIe copy engine.
    D2H,
    /// The SM array (kernel execution).
    Compute,
    /// The host CPU (hybrid execution / pre- and post-processing).
    Host,
}

/// What kind of operation a span represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Host→device transfer.
    CopyH2D,
    /// Device→host transfer.
    CopyD2H,
    /// Kernel execution.
    Kernel,
    /// Host-side task.
    HostTask,
}

/// One completed operation on the simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Submission-order identifier.
    pub op: u64,
    /// The stream the op was enqueued on.
    pub stream: u32,
    /// The engine it occupied.
    pub engine: Engine,
    /// Operation kind.
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

    /// Total busy time of one engine (sum of span durations).
    pub fn engine_busy(&self, engine: Engine) -> f64 {
        self.spans.iter().filter(|s| s.engine == engine).map(Span::duration).sum()
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
            self.engine_busy(Engine::H2D),
            self.engine_busy(Engine::Compute),
            self.engine_busy(Engine::D2H),
            self.engine_busy(Engine::Host),
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
        for engine in [Engine::H2D, Engine::D2H, Engine::Compute, Engine::Host] {
            let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.engine == engine).collect();
            spans.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in spans.windows(2) {
                if w[1].start < w[0].end - 1e-12 {
                    return Err(format!(
                        "engine {:?}: op {} (start {}) overlaps op {} (end {})",
                        engine, w[1].op, w[1].start, w[0].op, w[0].end
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
        for (engine, tag) in [
            (Engine::H2D, "H2D    "),
            (Engine::Compute, "Kernel "),
            (Engine::D2H, "D2H    "),
            (Engine::Host, "Host   "),
        ] {
            let mut row = vec![b'.'; width];
            for s in self.spans.iter().filter(|s| s.engine == engine) {
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

    fn span(op: u64, engine: Engine, start: f64, end: f64) -> Span {
        Span {
            op,
            stream: 0,
            engine,
            kind: match engine {
                Engine::H2D => SpanKind::CopyH2D,
                Engine::D2H => SpanKind::CopyD2H,
                Engine::Compute => SpanKind::Kernel,
                Engine::Host => SpanKind::HostTask,
            },
            label: format!("op{op}").into(),
            start,
            end,
        }
    }

    #[test]
    fn makespan_and_busy() {
        let t = Timeline {
            spans: vec![
                span(0, Engine::H2D, 0.0, 2.0),
                span(1, Engine::Compute, 2.0, 3.0),
                span(2, Engine::D2H, 3.0, 3.5),
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
                span(0, Engine::H2D, 0.0, 1.0),
                span(1, Engine::H2D, 1.0, 2.0),
                span(2, Engine::Compute, 1.0, 2.0),
                span(3, Engine::Compute, 2.0, 3.0),
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
            spans: vec![span(0, Engine::H2D, 0.0, 2.0), span(1, Engine::H2D, 1.0, 3.0)],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let t = Timeline { spans: vec![span(0, Engine::Compute, 2.0, 1.0)] };
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
            spans: vec![span(0, Engine::H2D, 0.0, 1.0), span(1, Engine::Compute, 1.0, 2.0)],
        };
        let g = t.ascii_gantt(20);
        assert!(g.contains("H2D"));
        assert!(g.contains("Kernel"));
        assert!(g.contains('#'));
    }
}
