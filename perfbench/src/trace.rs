//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed only by the benchmark's own code, around the
//! calls it makes into a layer's public functions. Each span carries its
//! name, start and end (ns since the recorder was created), the span that
//! was open when it started, and the id of the query or session it belongs
//! to. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::report::json_str;

/// Returned by [`Trace::begin`] while recording is off.
const OFF: usize = usize::MAX;

/// One closed (or still open) span.
pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Aggregate of every span with one name.
#[derive(Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl SpanTotal {
    /// Mean duration per span in ns (0 when there were none).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_query: u64,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_query: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Pauses or resumes recording (the overhead measurement alternates).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with open spans");
        self.on = on;
    }

    /// A fresh query or session id for the spans of one query.
    pub fn query_id(&mut self) -> u64 {
        self.next_query += 1;
        self.next_query
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, query: u64) -> usize {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            query,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id` returned by [`Trace::begin`].
    pub fn end(&mut self, id: usize) {
        if id == OFF {
            return;
        }
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals with self time. Spans nest strictly (the benchmark
    /// drives every layer from one thread), so a span's children cover
    /// disjoint parts of it.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Totals of spans named `name` (zero when none were recorded).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// The whole trace as one JSON document: `header` (already JSON), the
    /// per-name totals, and every span.
    pub fn to_json(&self, header: &str) -> String {
        let mut s = String::new();
        let _ = write!(s, "{{\"header\": {header},\n\"totals\": {{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n  {}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(name),
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        s.push_str("},\n\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "\n  {{\"id\": {i}, \"name\": {}, \"query\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                json_str(sp.name),
                sp.query,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true);
        let q = t.query_id();
        let outer = t.begin("outer", q);
        let inner = t.begin("inner", q);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!(o.count, 1);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(t.spans[inner].parent, Some(outer));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Trace::new(false);
        let s = t.begin("x", 1);
        t.end(s);
        assert_eq!(t.span_count(), 0);
    }
}
