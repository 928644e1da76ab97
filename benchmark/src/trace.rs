//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only — nothing inside
//! `crates/*` is instrumented — kept in memory, and written once at exit as
//! Chrome trace-event JSON. With the tracer off (every end-to-end run)
//! [`Tracer::span`] is a branch and a call.

use quarc_campaign::Json;
use std::time::Instant;

/// One timed call: what ran, when, under which span, in which pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The pass id every span of one pass shares.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tag the spans that follow with `pass`.
    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span: its duration minus the part its direct children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.duration_ns();
            }
        }
        own
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(Span::duration_ns).sum();
        ns as f64 / 1e9
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, timestamps in microseconds, the pass id as thread id
    /// so passes stack as separate rows.
    pub fn chrome_json(&self, process: &str) -> Json {
        let own = self.self_times_ns();
        let mut events = vec![Json::obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("args", Json::obj(vec![("name", Json::Str(process.into()))])),
        ])];
        events.extend(self.spans.iter().zip(own).map(|(s, own_ns)| {
            Json::obj(vec![
                ("name", Json::Str(s.name.into())),
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.pass as u64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj(vec![
                        ("self_us", Json::Num(own_ns as f64 / 1e3)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                    ]),
                ),
            ])
        }));
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer whose spans are written by hand, so durations are exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans
            .iter()
            .map(|&(name, start_ns, end_ns, parent)| Span {
                name,
                start_ns,
                end_ns,
                parent,
                pass: 0,
            })
            .collect();
        t
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let t = fixed(&[
            ("pass", 0, 100, None),
            ("op", 10, 60, Some(0)),
            ("sim.build", 10, 20, Some(1)),
            ("sim.run", 20, 55, Some(1)),
            ("op", 60, 95, Some(0)),
            ("sim.run", 65, 90, Some(4)),
        ]);
        assert_eq!(t.self_times_ns(), vec![15, 5, 10, 35, 10, 25]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(t.self_times_ns().iter().sum::<u64>(), 100);
        assert_eq!(t.total_s("sim.run"), 60e-9);
    }

    #[test]
    fn spans_nest_under_the_open_span_and_carry_the_pass() {
        let mut t = Tracer::new(true);
        t.begin_pass(7);
        t.span("pass", |t| {
            t.span("op", |t| t.span("sim.run", |_| ()));
            t.span("op", |_| ());
        });
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
        assert!(t.spans().iter().all(|s| s.pass == 7 && s.end_ns >= s.start_ns));
        let doc = t.chrome_json("unit");
        assert_eq!(doc.get("traceEvents").and_then(Json::as_arr).map(<[Json]>::len), Some(5));
        Json::parse(&doc.to_compact()).unwrap();
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("pass", |t| t.span("op", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
