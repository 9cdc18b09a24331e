//! In-memory spans, written at exit as Chrome trace-event JSON
//! (viewable in Perfetto or `chrome://tracing`).

use std::time::Instant;

use zng_json::Value;

/// Index of an open or closed span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    rep: u32,
}

/// Every span recorded by one traced invocation.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now; returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// The trace as a Chrome trace-event document: one complete (`X`)
    /// event per span, timestamps in microseconds, with the span id,
    /// parent id and repetition in `args`.
    pub fn to_chrome_json(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::object(vec![
                    ("name", Value::from(s.name)),
                    (
                        "cat",
                        Value::from(s.name.split('.').next().unwrap_or(s.name)),
                    ),
                    ("ph", Value::from("X")),
                    ("ts", Value::from(s.start_ns as f64 / 1e3)),
                    ("dur", Value::from((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Value::from(1u64)),
                    ("tid", Value::from(1u64)),
                    (
                        "args",
                        Value::object(vec![
                            ("id", Value::from(id)),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                            ("rep", Value::from(s.rep)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::object(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
    }
}
