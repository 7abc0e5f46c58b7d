//! In-memory span recorder for the traced pass.
//!
//! Spans are opened and closed by the benchmark's own code around calls
//! into each layer's public functions. Each span has a name, a start, an
//! end, the span that enclosed it, and the id of the run it belongs to.
//! Nothing is written until the benchmark ends; then the spans render as
//! a Chrome trace-event file (one lane per run, so nesting shows the
//! parent) through `btr_obs::TraceBuilder`.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (index into the span list).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from here on belong to run `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    pub fn exit(&mut self, id: SpanId) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name (calls, total ns, self ns), in first-seen order. Self time
    /// is a span's duration minus the time its direct children cover.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.dur_ns();
                    e.3 += self_ns;
                }
                None => out.push((s.name, 1, s.dur_ns(), self_ns)),
            }
        }
        out
    }

    /// Render every span as a Chrome trace-event file: process `label`,
    /// one lane per run id.
    pub fn chrome_trace(&self, label: &str) -> String {
        let mut b = btr_obs::TraceBuilder::new();
        b.process_name(1, label);
        for s in &self.spans {
            b.span(s.name, 1, s.run, s.start_ns / 1_000, s.dur_ns() / 1_000);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_run(3);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].run, 3);
        let sum = t.summary();
        let outer = sum.iter().find(|e| e.0 == "outer").unwrap();
        let inner = sum.iter().find(|e| e.0 == "inner").unwrap();
        assert!(inner.2 >= 2_000_000);
        assert_eq!(outer.3, outer.2 - inner.2);
        assert!(t.chrome_trace("x").contains("\"name\":\"inner\""));
    }
}
