//! In-memory wall-clock spans recorded around each layer call of a traced
//! repetition, written out at exit as a Chrome/Perfetto trace and a
//! per-layer table.
//!
//! A span's self time is its duration minus the part of it its child spans
//! cover. With tracing off, [`Tracer::enter`] records nothing and costs one
//! branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `None` when tracing is off.
#[must_use]
pub struct Open(Option<usize>);

/// Per-layer aggregate of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds covered by spans without a parent.
    pub fn top_level_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs();
            t.self_s += s.secs() - children;
        }
        out
    }

    /// Total seconds of the spans named `name` (0 when there are none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// The spans as a Chrome trace-event JSON document (open it in Perfetto
    /// or `chrome://tracing`).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// A plain-text table of [`Tracer::totals`], shares relative to `wall_s`.
    pub fn layer_table(&self, workload: &str, wall_s: f64) -> String {
        let mut out = format!(
            "# {workload}: per-layer wall-clock of one traced repetition ({wall_s:.6} s)\n\
             {:<32} {:>8} {:>12} {:>12} {:>8}\n",
            "layer", "calls", "total_s", "self_s", "share"
        );
        for (name, t) in self.totals() {
            let _ = writeln!(
                out,
                "{name:<32} {:>8} {:>12.6} {:>12.6} {:>7.2}%",
                t.count,
                t.total_s,
                t.self_s,
                100.0 * t.total_s / wall_s
            );
        }
        let top = self.top_level_s();
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12.6} {:>12} {:>7.2}%",
            "(unattributed)",
            "",
            wall_s - top,
            "",
            100.0 * (wall_s - top) / wall_s
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", || ());
        t.exit(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        let totals = t.totals();
        assert_eq!(totals["inner"].count, 2);
        let outer = totals["outer"];
        assert!(outer.self_s >= 0.0 && outer.self_s < outer.total_s);
        assert!((t.top_level_s() - outer.total_s).abs() < 1e-12);
        assert!(t.chrome_json("w").contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        let open = off.enter("x");
        off.exit(open);
        assert!(off.spans().is_empty());
        assert_eq!(off.total_s("x"), 0.0);
    }
}
