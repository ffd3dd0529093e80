//! In-memory spans around the benchmark's calls into the program's
//! public API. Each span carries a name, start and end (nanoseconds
//! from the round's epoch), the span that caused it (the script
//! operation), and a request id (the burst or flush index). Nothing is
//! recorded when tracing is off; the spans are summarised per layer
//! and written out after the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
    /// 0 for the client thread, 1 for the event drainer.
    pub thread: u8,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u8,
    spans: Vec<Span>,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerSummary {
    pub calls: u64,
    pub busy_s: f64,
    /// Busy time minus the time covered by child spans.
    pub self_s: f64,
    pub max_s: f64,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, thread: u8) -> Self {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later calls nest under; `None` when tracing is off.
    pub fn open(&mut self, name: &'static str, request: u64) -> Option<u32> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
            thread: self.thread,
        });
        Some((self.spans.len() - 1) as u32)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            let end = self.now_ns();
            self.spans[i as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            thread: self.thread,
        });
        out
    }

    /// Appends another thread's spans (their parents shift with them).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn summary(&self) -> BTreeMap<&'static str, LayerSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let busy = (s.end_ns - s.start_ns) as f64 / 1e9;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.busy_s += busy;
            e.self_s += busy - child as f64 / 1e9;
            e.max_s = e.max_s.max(busy);
        }
        out
    }

    /// The spans as a JSON array of
    /// `[name, start_ns, end_ns, parent, request, thread]` rows.
    pub fn spans_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 48 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\",{},{},{},{},{}]",
                s.name, s.start_ns, s.end_ns, parent, s.request, s.thread
            );
        }
        out.push(']');
        out
    }
}
