//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end, parent and trace id. They stay in memory while the
//! workload runs and are written out as JSON lines at the end. A span's
//! self time is its duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the recorder.
    pub id: u64,
    /// The span that was open when this one started.
    pub parent: Option<u64>,
    /// Shared by a root span and everything under it.
    pub trace: u64,
    /// Layer-qualified call name, e.g. `cluster.run_cluster`.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the benchmark's thread. A disabled recorder
/// runs the wrapped closures and records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    next_trace: u64,
    /// `(id, trace)` of the spans currently open, innermost last.
    stack: Vec<(u64, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            next_trace: 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`. A span opened with nothing else
    /// open starts a new trace.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        let trace = parent.map_or_else(
            || {
                self.next_trace += 1;
                self.next_trace - 1
            },
            |(_, trace)| trace,
        );
        self.stack.push((id, trace));
        let start_ns = self.now_ns();
        let result = f(self);
        let end_ns = self.now_ns();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent: parent.map(|(id, _)| id),
            trace,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every finished span, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.id, span.trace, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// Per-name totals: `(calls, total ms, self ms)`, sorted by name.
    pub fn totals(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut totals: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let entry = totals.entry(span.name.clone()).or_default();
            entry.0 += 1;
            entry.1 += span.duration_ns() as f64 / 1e6;
            entry.2 += self_ns as f64 / 1e6;
        }
        totals
    }
}

/// Self time of each span (same order as `spans`): its duration minus the
/// union of its direct children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut intervals: Vec<(u64, u64)> = children
                .get(&span.id)
                .into_iter()
                .flatten()
                .map(|&(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
                .filter(|(s, e)| s < e)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: format!("s{id}"), start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50 together.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A disjoint child covers 60..70.
            span(4, Some(1), 60, 70),
            // A grandchild does not count against the root.
            span(5, Some(2), 15, 20),
        ];
        assert_eq!(self_times(&spans), vec![50, 25, 20, 10, 5]);
    }

    #[test]
    fn child_outside_the_parent_is_clipped() {
        let spans = vec![span(1, None, 10, 20), span(2, Some(1), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_shares_trace_ids() {
        let mut tracer = Tracer::new(true);
        tracer.span("root", |t| {
            t.span("child", |t| t.span("leaf", |_| ()));
            t.span("child", |_| ());
        });
        tracer.span("other", |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        let by_name = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
        let root = by_name("root")[0];
        let leaf = by_name("leaf")[0];
        assert_eq!(root.parent, None);
        assert!(by_name("child").iter().all(|c| c.parent == Some(root.id)));
        assert_eq!(leaf.parent, Some(by_name("child")[0].id));
        assert!(spans.iter().filter(|s| s.name != "other").all(|s| s.trace == root.trace));
        assert_ne!(by_name("other")[0].trace, root.trace);
        let totals = tracer.totals();
        assert_eq!(totals["child"].0, 2);
        assert!(totals["root"].2 <= totals["root"].1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut tracer = Tracer::new(false);
        assert_eq!(tracer.span("root", |t| t.span("child", |_| 7)), 7);
        assert!(tracer.spans().is_empty());
    }
}
