//! In-memory span recorder for the traced run, written out as Chrome-trace
//! JSON when the benchmark ends.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is instrumented. Each span has a
//! name, a start and an end (microseconds since the recorder started), the
//! id of the span that caused it, and the id of the operation (job,
//! request or sweep) it belongs to. A disabled recorder only times.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer call or benchmark phase (`core.run`, `serve.runs_post`, ...).
    name: String,
    /// This span's id (unique within the run, never 0).
    id: u64,
    /// The enclosing span's id, 0 for a root span.
    parent: u64,
    /// The operation this span belongs to.
    op: u64,
    /// Start, microseconds since the recorder started.
    start_us: f64,
    /// End, microseconds since the recorder started.
    end_us: f64,
}

/// The recorder. Shared by reference between client threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; when `enabled` is false, [`Tracer::span`] only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, for a parent opened before its children finish.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f`, records it as span `name` under `parent` for operation
    /// `op` (when enabled), and returns its result and duration.
    pub fn span<R>(
        &self,
        name: &str,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let id = self.new_id();
            self.record_at(name, id, parent, op, start, end);
        }
        (out, end - start)
    }

    /// Records an already-timed interval under a pre-allocated `id`.
    pub fn record_at(
        &self,
        name: &str,
        id: u64,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let span = Span {
            name: name.to_string(),
            id,
            parent,
            op,
            start_us: us(start),
            end_us: us(end),
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking client thread")
            .push(span);
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded spans as one Chrome-trace JSON document
    /// (`chrome://tracing`, Perfetto). Each operation gets its own lane
    /// (`tid`); `args` carries the span id, parent id and end time.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = String::with_capacity(64 + spans.len() * 160);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"op\":{},\"end_us\":{:.3}}}}}",
                json_string(&s.name),
                s.op,
                s.start_us,
                (s.end_us - s.start_us).max(0.0),
                s.id,
                s.parent,
                s.op,
                s.end_us
            ));
        }
        out.push_str("],\"metadata\":");
        out.push_str(metadata);
        out.push('}');
        out
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", 0, 1, || 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.is_empty());
    }

    #[test]
    fn chrome_json_carries_parent_and_op() {
        let t = Tracer::new(true);
        let parent = t.new_id();
        let start = Instant::now();
        t.span("child \"a\"", parent, 3, || ());
        t.record_at("parent", parent, 0, 3, start, Instant::now());
        let doc = t.chrome_json("{}");
        let v = heteropipe_serve::Json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[0];
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("child \"a\"")
        );
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|p| p.as_u64()), Some(parent));
        assert_eq!(args.get("op").and_then(|p| p.as_u64()), Some(3));
    }
}
