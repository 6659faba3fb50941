//! Wall-clock spans the benchmark records around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Spans stay in memory and are written once, as a Chrome/Perfetto trace,
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `request` groups the spans of one MTTKRP call or one
/// dispatch group, `parent` is the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span and returns its id for [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Ends span `id` and returns its length in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, parent);
        let r = f();
        self.close(id);
        r
    }

    /// Seconds spent in spans named `name`, summed per request.
    pub fn per_request(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.secs();
        }
        out
    }

    /// Seconds spent in spans named `name` over the whole run.
    pub fn total(&self, name: &str) -> f64 {
        self.per_request(name).values().sum()
    }

    /// Seconds covered by top-level spans (those without a parent).
    pub fn top_level_total(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::secs).sum()
    }

    /// The spans as a Chrome trace-event document (load it in Perfetto or
    /// `chrome://tracing`); `other_data` is a JSON object stored alongside.
    pub fn chrome_json(&self, other_data: &str) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \
                 \"request\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
            );
        }
        let _ = write!(out, "\n], \"otherData\": {other_data}}}\n");
        out
    }
}
