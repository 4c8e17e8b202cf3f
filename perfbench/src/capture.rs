//! The traced run's telemetry sink: it keeps the program's own span
//! events in memory and counts every event. Nothing is written out
//! while the workload runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use telemetry::{Event, Profiler, Sink, SpanRecord};

#[derive(Default)]
struct Captured {
    events: u64,
    spans: Vec<SpanRecord>,
    /// `online.step` span duration keyed by (session id, step).
    step_spans: BTreeMap<(u64, u64), f64>,
}

#[derive(Default)]
pub struct CaptureSink {
    inner: Mutex<Captured>,
}

impl Sink for CaptureSink {
    fn record(&self, event: &Event) {
        // A sink must not panic; a poisoned lock just loses the event.
        let Ok(mut c) = self.inner.lock() else {
            return;
        };
        c.events += 1;
        if let Some(span) = SpanRecord::from_event(event) {
            if span.name == "online.step" {
                if let (Some(session), Some(step)) = (event.u64("session_id"), event.u64("step")) {
                    c.step_spans.insert((session, step), span.duration_s);
                }
            }
            c.spans.push(span);
        }
    }
}

/// What a traced region produced, folded.
pub struct Trace {
    pub events: u64,
    /// Self seconds by span name.
    pub self_s: BTreeMap<String, f64>,
    /// Σ duration of root spans: the thread time spans cover.
    pub root_s: f64,
    pub step_spans: BTreeMap<(u64, u64), f64>,
}

impl Trace {
    pub fn self_of(&self, names: &[&str]) -> f64 {
        names
            .iter()
            .filter_map(|n| self.self_s.get(*n))
            .fold(0.0, |acc, s| acc + s)
    }
}

/// Run `f` with a fresh [`CaptureSink`] installed (synchronous mode, so
/// no event is dropped), then uninstall it and fold the spans with
/// [`Profiler`].
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let sink = Arc::new(CaptureSink::default());
    telemetry::install(sink.clone());
    let out = f();
    telemetry::shutdown();
    let captured = std::mem::take(&mut *sink.inner.lock().expect("capture lock poisoned"));
    let mut profiler = Profiler::new();
    profiler.add_all(captured.spans);
    let report = profiler.report();
    let trace = Trace {
        // `shutdown` adds its own `telemetry.flush` summary event.
        events: captured.events.saturating_sub(1),
        self_s: report
            .rows
            .into_iter()
            .map(|r| (r.name, r.self_s))
            .collect(),
        root_s: report.total_wall_s,
        step_spans: captured.step_spans,
    };
    (out, trace)
}
