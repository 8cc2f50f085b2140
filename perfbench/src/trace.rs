//! In-memory spans recorded from the benchmark's own code, around the
//! calls into each layer. Written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = no parent (a root).
    pub parent: u64,
    /// Spans of one request share this; 0 for phase-level spans.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. A disabled tracer hands out inert guards, so call sites
/// read the same in the untraced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is recorded when the guard ends or drops.
    pub fn span(&self, name: &'static str, parent: u64, op: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: None,
                id: 0,
                parent,
                op,
                name,
                start_ns: 0,
            };
        }
        SpanGuard {
            tracer: Some(self),
            // Relaxed: the id publishes no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Records a span whose duration a callee reported (recovery phase
    /// timings), laid out from `start_ns`. Returns its end.
    pub fn synthetic(&self, name: &'static str, parent: u64, start_ns: u64, dur_ns: u64) -> u64 {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let end_ns = start_ns + dur_ns;
            self.push(Span {
                id,
                parent,
                op: 0,
                name,
                start_ns,
                end_ns,
            });
        }
        start_ns + dur_ns
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no recorder panics while holding the lock")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("no recorder panics while holding the lock"),
        )
    }
}

pub struct SpanGuard<'a> {
    tracer: Option<&'a Tracer>,
    pub id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    pub start_ns: u64,
}

impl SpanGuard<'_> {
    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            t.push(Span {
                id: self.id,
                parent: self.parent,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns: t.now_ns(),
            });
        }
    }
}

/// For every span, in input order: its self time — its duration minus the
/// part of its interval that its direct children cover — and the time by
/// which those children overlap each other (parallel threads under one
/// phase), which self times therefore count more than once.
fn self_and_overlap(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return (s.end_ns - s.start_ns, 0);
            };
            kids.sort_unstable();
            let (mut covered, mut summed) = (0, 0);
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let end = end.min(s.end_ns);
                summed += end.saturating_sub(start.max(s.start_ns));
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            ((s.end_ns - s.start_ns) - covered, summed - covered)
        })
        .collect()
}

/// Per-name totals for the report.
pub struct Row {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The per-name table, and the total time sibling spans ran in parallel:
/// self times add up to the root span plus that overlap.
pub fn summarize(spans: &[Span]) -> (Vec<Row>, u64) {
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut overlap_ns = 0;
    for (s, (self_ns, overlap)) in spans.iter().zip(self_and_overlap(spans)) {
        let row = rows.entry(s.name).or_insert(Row {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
        overlap_ns += overlap;
    }
    (rows.into_values().collect(), overlap_ns)
}

pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn self_times(spans: &[Span]) -> Vec<u64> {
        self_and_overlap(spans)
            .into_iter()
            .map(|(own, _)| own)
            .collect()
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..60 once, a third 70..80;
            // a grandchild must not be subtracted from the root.
            span(2, 1, 10, 50),
            span(3, 1, 30, 60),
            span(4, 1, 70, 80),
            span(5, 2, 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10, 20]);
        // Self times add up to the root's span plus the 30..50 interval on
        // which two children ran in parallel.
        let (rows, overlap_ns) = summarize(&spans);
        assert_eq!(overlap_ns, 20);
        assert_eq!(
            rows.iter().map(|r| r.self_ns).sum::<u64>(),
            100 + overlap_ns
        );
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, 0, 10, 20), span(2, 1, 5, 15), span(3, 1, 18, 30)];
        assert_eq!(self_times(&spans)[0], 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("a", 0, 0).end();
        t.synthetic("b", 0, 0, 5);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let root = t.span("root", 0, 0);
        let id = root.id;
        t.span("child", id, 7).end();
        root.end();
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("child", id, 7)
        );
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
    }
}
