//! The benchmark's own spans around its calls into `lwfs-core` and
//! `lwfs-checkpoint`, kept in memory per client thread and written out as
//! Chrome `trace_event` JSON when the run ends.
//!
//! Spans are recorded only in the traced phase; in an untraced phase
//! [`SpanLog::span`] is one branch around the call.

use std::time::Instant;

/// One closed interval on one client thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Client thread (the Chrome `tid`).
    pub thread: u32,
    /// The operation the span belongs to; its children share it.
    pub op: u64,
    /// Index in the same log of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-thread span buffer sharing one time origin with the other threads.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    thread: u32,
    enabled: bool,
    op: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant, thread: u32) -> SpanLog {
        SpanLog { origin, thread, enabled: false, op: 0, open: Vec::new(), spans: Vec::new() }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Start a new operation: later spans carry its id.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span; children opened before [`exit`](Self::exit) nest in it.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            thread: self.thread,
            op: self.op,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Some(idx)
    }

    pub fn exit(&mut self, handle: Option<usize>) {
        if let Some(idx) = handle {
            self.open.pop();
            let end = self.origin.elapsed().as_nanos() as u64;
            self.spans[idx].dur_ns = end.saturating_sub(self.spans[idx].start_ns);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let handle = self.enter(name);
        let out = f();
        self.exit(handle);
        out
    }

    /// Durations of every span named `name`, microseconds.
    pub fn durations_us(logs: &[&SpanLog], name: &str) -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }
}

/// Render spans as Chrome `trace_event` JSON (complete `X` events, one
/// `tid` per client thread) for chrome://tracing or Perfetto.
pub fn to_chrome_json(logs: &[&SpanLog]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for log in logs {
        for (idx, s) in log.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                idx,
                parent
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut log = SpanLog::new(Instant::now(), 0);
        log.span("off", || ());
        assert!(log.spans.is_empty());
        log.set_enabled(true);
        log.begin_op(7);
        let outer = log.enter("outer");
        let v = log.span("inner", || 3);
        log.exit(outer);
        assert_eq!(v, 3);
        assert_eq!(log.spans[0].op, 7);
        assert_eq!(log.spans[0].parent, None);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].dur_ns >= log.spans[1].dur_ns);
        let mut inner_log = SpanLog::new(Instant::now(), 1);
        inner_log.set_enabled(true);
        inner_log.span("a", || ());
        let json = to_chrome_json(&[&log, &inner_log]);
        assert!(json.contains("\"name\":\"outer\"") && json.contains("\"tid\":1"));
    }
}
