//! Chrome-trace (`about:tracing` / Perfetto) export of simulated
//! timelines. The JSON is hand-rolled (trace events are flat and simple),
//! so no serialisation dependency is needed.

use crate::timeline::{SpanKind, Timeline};
use std::io::Write;

/// The trace track (engine name, tid) of a span kind.
fn engine_track(kind: SpanKind) -> (&'static str, u32) {
    match kind {
        SpanKind::CopyH2D => ("H2D copy engine", 1),
        SpanKind::Kernel => ("SM array", 2),
        SpanKind::CopyD2H => ("D2H copy engine", 3),
        SpanKind::HostTask => ("Host CPU", 4),
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Writes the timeline as a Chrome trace-event JSON array. Open the file
/// at `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn write_chrome_trace(timeline: &Timeline, mut w: impl Write) -> std::io::Result<()> {
    writeln!(w, "[")?;
    let mut first = true;
    // Track-name metadata events.
    for kind in [SpanKind::CopyH2D, SpanKind::Kernel, SpanKind::CopyD2H, SpanKind::HostTask] {
        let (name, tid) = engine_track(kind);
        if !first {
            writeln!(w, ",")?;
        }
        first = false;
        write!(
            w,
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
        )?;
    }
    for span in &timeline.spans {
        let (_, tid) = engine_track(span.kind);
        writeln!(w, ",")?;
        write!(
            w,
            "  {{\"name\":\"{}\",\"cat\":\"stream{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"stream\":{}}}}}",
            escape(&span.label),
            span.stream,
            tid,
            span.start * 1e6,
            span.duration() * 1e6,
            span.op,
            span.stream,
        )?;
    }
    writeln!(w, "\n]")
}

/// Renders the trace JSON into a `String`.
pub fn chrome_trace_string(timeline: &Timeline) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(timeline, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("trace JSON is UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceSpec, Gpu};

    fn sample_timeline() -> Timeline {
        let mut gpu = Gpu::new(DeviceSpec::rtx3090());
        let s0 = gpu.create_stream();
        let s1 = gpu.create_stream();
        gpu.h2d(s0, 5_000_000, "seg0 H2D");
        gpu.h2d(s1, 5_000_000, "seg1 \"quoted\" H2D");
        gpu.d2h(s0, 1_000_000, "out D2H");
        gpu.synchronize()
    }

    #[test]
    fn trace_is_structurally_sound_json() {
        let t = sample_timeline();
        let json = chrome_trace_string(&t);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        // One X event per span + 4 metadata events.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), t.spans.len());
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 4);
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn labels_are_escaped() {
        let t = sample_timeline();
        let json = chrome_trace_string(&t);
        assert!(json.contains("seg1 \\\"quoted\\\" H2D"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let t = sample_timeline();
        let json = chrome_trace_string(&t);
        // The second H2D starts after the first (~205µs for 5MB at 24.3GB/s
        // plus latency): its ts must be > 100.
        let ts: Vec<f64> = json
            .split("\"ts\":")
            .skip(1)
            .map(|s| s.split(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(ts.iter().any(|&x| x > 100.0));
        assert!(ts.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn empty_timeline_traces_cleanly() {
        let json = chrome_trace_string(&Timeline::default());
        assert!(json.contains("thread_name"));
        assert!(!json.contains("\"ph\":\"X\""));
    }
}
