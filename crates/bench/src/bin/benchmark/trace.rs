//! In-memory span recorder for the traced pass.
//!
//! The benchmark drives the library from one thread, so spans nest
//! strictly: a stack of open spans gives every new span its parent. The
//! recorder is switched off for the timed rounds (every call is then one
//! branch) and on for the traced pass; the trace is written once, as a
//! Chrome trace, when the benchmark ends.

use std::time::Instant;

use crate::json::Json;

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index of the workload the span belongs to (the Chrome `tid`).
    pub workload: usize,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    pub enabled: bool,
    /// Workload id stamped on new spans.
    pub workload: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            enabled: false,
            workload: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span called `name`; a no-op wrapper while the
    /// recorder is off.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            workload: self.workload,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// How many spans are open now; see [`Recorder::close_to`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened above `depth`, as the `span` calls would
    /// have had a panic not unwound through them. Whoever catches the
    /// panic calls this, so the next span gets the right parent.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_us();
        for id in self.open.drain(depth.min(self.open.len())..) {
            self.spans[id].end_us = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of the spans called `name` recorded for `workload`
    /// from span index `from` on.
    pub fn durations_us(&self, from: usize, workload: usize, name: &str) -> Vec<f64> {
        self.spans[from..]
            .iter()
            .filter(|s| s.workload == workload && s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Chrome trace (`chrome://tracing`, Perfetto): one complete event
    /// per span, `tid` = workload id, parent index and self time in
    /// `args`.
    pub fn chrome_trace(&self, workload_names: &[&str]) -> Json {
        let self_us = self_times_us(&self.spans);
        let mut events: Vec<Json> = workload_names
            .iter()
            .enumerate()
            .map(|(tid, name)| {
                Json::obj([
                    ("name", Json::str("thread_name")),
                    ("ph", Json::str("M")),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(tid as u64)),
                    ("args", Json::obj([("name", Json::str(name))])),
                ])
            })
            .collect();
        events.extend(self.spans.iter().zip(&self_us).map(|(s, &own)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.dur_us())),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(s.workload as u64)),
                (
                    "args",
                    Json::obj([
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                        ),
                        ("self_us", Json::Num(own)),
                    ]),
                ),
            ])
        }));
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur_us();
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_us,
            end_us,
            parent,
            workload: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run[0..100] { setup[0..10], steps[10..90] { step[10..40], step[40..80] } }
        let spans = vec![
            span(0.0, 100.0, None),
            span(0.0, 10.0, Some(0)),
            span(10.0, 90.0, Some(0)),
            span(10.0, 40.0, Some(2)),
            span(40.0, 80.0, Some(2)),
        ];
        assert_eq!(self_times_us(&spans), vec![10.0, 10.0, 10.0, 30.0, 40.0]);
    }

    #[test]
    fn recorder_nests_by_call_structure_and_is_silent_when_off() {
        let mut rec = Recorder::new();
        assert_eq!(rec.span("ignored", |_| 7), 7);
        assert!(rec.spans().is_empty());

        rec.enabled = true;
        rec.workload = 3;
        rec.span("run", |rec| {
            rec.span("setup", |_| ());
            rec.span("steps", |rec| rec.span("step", |_| ()));
        });
        let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["run", "setup", "steps", "step"]);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert!(rec.spans().iter().all(|s| s.workload == 3));
        let own = self_times_us(rec.spans());
        assert!(own.iter().all(|&t| t >= 0.0), "self times {own:?}");
        assert_eq!(rec.durations_us(0, 3, "step").len(), 1);
        assert!(rec.durations_us(0, 2, "step").is_empty());
    }

    #[test]
    fn a_caught_panic_leaves_no_span_open() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut rec = Recorder::new();
        rec.enabled = true;
        rec.span("run", |rec| {
            let depth = rec.depth();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                rec.span("setup", |rec| rec.span("step", |_| panic!("library bug")))
            }));
            assert!(caught.is_err());
            assert_eq!(rec.depth(), depth + 2, "the unwound spans stay open");
            rec.close_to(depth);
            rec.span("verify", |_| ());
        });
        rec.span("next_run", |_| ());
        let parents: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("run", None),
                ("setup", Some(0)),
                ("step", Some(1)),
                ("verify", Some(0)),
                ("next_run", None),
            ]
        );
        assert_eq!(rec.depth(), 0);
        // The unwound spans end where the panic was caught, inside `run`.
        let (run, setup, step) = (&rec.spans()[0], &rec.spans()[1], &rec.spans()[2]);
        assert!(step.end_us >= step.start_us && step.end_us == setup.end_us);
        assert!(setup.end_us <= run.end_us);
        assert!(self_times_us(rec.spans()).iter().all(|&t| t >= 0.0));
    }
}
