//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, start, end, parent and a per-module id. Spans are
//! kept in memory while the run measures and written out once it ends;
//! [`Tracer::self_ns`] reduces them to per-name self time (a span's
//! duration minus its child spans).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    module: u32,
}

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A handle to an open span.
#[must_use]
pub struct SpanId(u32);

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, module: usize) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
            module: module as u32,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span (and returns its duration in ns; 0 when disabled).
    pub fn close(&mut self, id: SpanId) -> u64 {
        if id.0 == NONE {
            return 0;
        }
        let end = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, module: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, module);
        let out = f();
        self.close(id);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name over the spans recorded from index `from`
    /// on: each span's duration minus its children's.
    pub fn self_ns(&self, from: usize) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans[from..] {
            *out.entry(s.name).or_default() += s.end_ns - s.start_ns;
        }
        for s in &self.spans[from..] {
            if s.parent != NONE && s.parent as usize >= from {
                let p = &self.spans[s.parent as usize];
                *out.entry(p.name).or_default() -= s.end_ns - s.start_ns;
            }
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, the module id as the thread lane.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}{sep}",
                s.name,
                s.module,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("root", 0);
        t.span("child", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.close(root);
        let selfs = t.self_ns(0);
        assert_eq!(selfs["root"] + selfs["child"], total);
        assert!(selfs["child"] >= 2_000_000);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", 0);
        assert_eq!(t.close(id), 0);
        assert_eq!(t.len(), 0);
    }
}
