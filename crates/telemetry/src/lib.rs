//! Structured telemetry for the simjoin workspace.
//!
//! The paper's argument rests on *internal* execution metrics — warp
//! execution efficiency, per-phase times, estimator accuracy — which the
//! crates previously only surfaced as ad-hoc table prints. This crate gives
//! them a shared, machine-readable channel: producers record [`Event`]s
//! against a [`Telemetry`] sink, and callers choose the sink —
//! [`NullTelemetry`] (the zero-cost default) or [`JsonTelemetry`] (buffers
//! events and serializes a schema-versioned JSON document).
//!
//! Two invariants the rest of the workspace relies on:
//!
//! - **Neutrality.** Recording is host-side bookkeeping only; producers
//!   must never branch on the sink in a way that alters pair sets, cycle
//!   counts, or model seconds. `enabled()` exists solely to skip the cost
//!   of *assembling* an event, never to change simulated behaviour.
//! - **Stable schema.** Serialized documents carry [`SCHEMA_VERSION`]
//!   (`sj-telemetry/v1`); consumers (e.g. `results/` artifacts from
//!   `sj-bench`) key on it. Additive field changes keep `v1`; renames or
//!   semantic changes bump it.
//!
//! No external dependencies: serialization is hand-rolled JSON, so the
//! crate sits below `warpsim` in the dependency graph.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

pub mod json;

pub use json::JsonValue;

/// Version tag embedded in every serialized telemetry document.
pub const SCHEMA_VERSION: &str = "sj-telemetry/v1";

/// A telemetry field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

/// One structured record: a `scope` (producer subsystem, e.g.
/// `"warpsim.launch"`), a `name` (what happened, e.g. `"phase"`), and
/// ordered key/value fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub scope: &'static str,
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    pub fn new(scope: &'static str, name: &'static str) -> Self {
        Self {
            scope,
            name,
            fields: Vec::new(),
        }
    }

    pub fn u64(mut self, key: &'static str, v: u64) -> Self {
        self.fields.push((key, Value::U64(v)));
        self
    }

    pub fn i64(mut self, key: &'static str, v: i64) -> Self {
        self.fields.push((key, Value::I64(v)));
        self
    }

    pub fn f64(mut self, key: &'static str, v: f64) -> Self {
        self.fields.push((key, Value::F64(v)));
        self
    }

    pub fn bool(mut self, key: &'static str, v: bool) -> Self {
        self.fields.push((key, Value::Bool(v)));
        self
    }

    pub fn str(mut self, key: &'static str, v: impl Into<String>) -> Self {
        self.fields.push((key, Value::Str(v.into())));
        self
    }

    /// Field lookup, for tests and consumers.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A sink for telemetry events.
///
/// Producers take `&dyn Telemetry` and call [`Telemetry::record`]; the
/// `&self` receiver means sinks use interior mutability and can be shared
/// across the host worker threads of a simulated launch.
pub trait Telemetry: Send + Sync {
    /// Whether assembling events is worthwhile. Producers may use this to
    /// skip building expensive payloads (histograms, per-warp vectors) but
    /// must not let it influence simulated results.
    fn is_enabled(&self) -> bool;

    /// Records one event. Must be cheap and non-blocking for the simulated
    /// workload (buffering is fine; I/O belongs in an explicit flush).
    fn record(&self, event: Event);
}

/// The zero-cost default sink: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// Shared instance for the common `&NullTelemetry` default argument.
pub static NULL: NullTelemetry = NullTelemetry;

/// Buffers events in memory and serializes them as one schema-versioned
/// JSON document (see [`SCHEMA_VERSION`]).
#[derive(Debug, Default)]
pub struct JsonTelemetry {
    label: String,
    events: Mutex<Vec<Event>>,
}

impl JsonTelemetry {
    /// `label` identifies the run (e.g. an experiment + dataset + config).
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            events: Mutex::new(Vec::new()),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn len(&self) -> usize {
        self.events.lock().expect("telemetry poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events, in record order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("telemetry poisoned").clone()
    }

    /// Snapshot of the events matching `scope` and `name`, in record order —
    /// the common shape of consumer assertions ("all `executor` /
    /// `overflow_recovery` events of this run").
    pub fn events_named(&self, scope: &str, name: &str) -> Vec<Event> {
        self.events
            .lock()
            .expect("telemetry poisoned")
            .iter()
            .filter(|e| e.scope == scope && e.name == name)
            .cloned()
            .collect()
    }

    /// Serializes the buffered events as a `sj-telemetry/v1` document.
    pub fn to_json(&self) -> String {
        let events = self.events.lock().expect("telemetry poisoned");
        let mut out = String::with_capacity(256 + events.len() * 128);
        out.push_str("{\n  \"schema\": ");
        json::write_str(&mut out, SCHEMA_VERSION);
        out.push_str(",\n  \"label\": ");
        json::write_str(&mut out, &self.label);
        out.push_str(",\n  \"events\": [");
        for (i, event) in events.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_event(&mut out, event);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the document to `path`, creating parent directories.
    pub fn write_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

impl Telemetry for JsonTelemetry {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        self.events.lock().expect("telemetry poisoned").push(event);
    }
}

fn write_event(out: &mut String, event: &Event) {
    out.push_str("{\"scope\": ");
    json::write_str(out, event.scope);
    out.push_str(", \"name\": ");
    json::write_str(out, event.name);
    out.push_str(", \"fields\": {");
    for (i, (key, value)) in event.fields.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(out, key);
        out.push_str(": ");
        write_value(out, value);
    }
    out.push_str("}}");
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::I64(v) => {
            let _ = write!(out, "{v}");
        }
        Value::F64(v) => json::write_f64(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(s) => json::write_str(out, s),
    }
}

/// Host wall-clock stopwatch for phase timers.
///
/// Phase *durations* are host-side observations (the simulator's own cost
/// model reports model seconds separately); producers record both so
/// consumers can attribute simulation overhead vs modelled work.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        assert!(!NULL.is_enabled());
        NULL.record(Event::new("x", "y").u64("k", 1));
    }

    #[test]
    fn json_sink_buffers_in_order() {
        let sink = JsonTelemetry::new("unit");
        assert!(sink.is_empty());
        sink.record(Event::new("a", "first").u64("n", 1));
        sink.record(Event::new("a", "second").f64("x", 0.5));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "first");
        assert_eq!(events[1].field("x"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn events_named_filters_by_scope_and_name() {
        let sink = JsonTelemetry::new("unit");
        sink.record(Event::new("a", "first").u64("n", 1));
        sink.record(Event::new("b", "first").u64("n", 2));
        sink.record(Event::new("a", "first").u64("n", 3));
        sink.record(Event::new("a", "second"));
        let firsts = sink.events_named("a", "first");
        assert_eq!(firsts.len(), 2);
        assert_eq!(firsts[0].field("n"), Some(&Value::U64(1)));
        assert_eq!(firsts[1].field("n"), Some(&Value::U64(3)));
        assert!(sink.events_named("c", "first").is_empty());
    }

    #[test]
    fn document_is_schema_versioned_and_escaped() {
        let sink = JsonTelemetry::new("run \"q\"\n");
        sink.record(
            Event::new("scope", "evt")
                .u64("u", 42)
                .i64("i", -7)
                .f64("f", 1.5)
                .f64("nan", f64::NAN)
                .bool("b", true)
                .str("s", "line1\nline2\t\"x\""),
        );
        let doc = sink.to_json();
        assert!(doc.contains("\"schema\": \"sj-telemetry/v1\""));
        assert!(doc.contains("\"label\": \"run \\\"q\\\"\\n\""));
        assert!(doc.contains("\"u\": 42"));
        assert!(doc.contains("\"i\": -7"));
        assert!(doc.contains("\"f\": 1.5"));
        assert!(doc.contains("\"nan\": null"));
        assert!(doc.contains("\"b\": true"));
        assert!(doc.contains("\"s\": \"line1\\nline2\\t\\\"x\\\"\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn sinks_are_shareable_across_threads() {
        let sink = JsonTelemetry::new("threads");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..25 {
                        sink.record(Event::new("thread", "tick").u64("t", t).u64("i", i));
                    }
                });
            }
        });
        assert_eq!(sink.len(), 100);
    }

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
