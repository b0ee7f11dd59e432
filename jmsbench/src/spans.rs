//! In-memory spans recorded by the benchmark around each call into a
//! crate, and the per-layer self time derived from them.
//!
//! A span's name is `<layer>.<operation>`, where the layer is the crate
//! the call enters (`broker.publish` is a call into `jmst-broker`) and
//! `bench` is the benchmark's own code. Spans are buffered per thread in a
//! [`Recorder`] and merged into the shared [`Tracer`] when the recorder
//! drops, so the hot path takes no lock. With tracing off, a recorder
//! neither reads the clock nor allocates ids.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The three workloads; every span carries the one it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// Open-loop load from 1M virtual clients into one queue.
    OpenLoop,
    /// Closed-loop publishing to a 64-subscriber topic.
    Fanout,
    /// Journal record, resume and batch analysis of a synthetic trace.
    Audit,
}

impl Workload {
    /// Every workload, in the order a run executes them.
    pub const ALL: [Workload; 3] = [Workload::OpenLoop, Workload::Fanout, Workload::Audit];

    /// The name used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OpenLoop => "openloop_1m",
            Workload::Fanout => "topic_fanout",
            Workload::Audit => "trace_audit",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One finished span. Times are nanoseconds from the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span's id, or 0 for a root.
    pub parent: u64,
    /// The workload the span belongs to.
    pub workload: Workload,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, ns from the epoch.
    pub start_ns: u64,
    /// End, ns from the epoch.
    pub end_ns: u64,
    /// Units of work the span covered (events, messages, evaluations).
    pub items: u64,
}

impl Span {
    /// The crate (or `bench`) the span's call entered.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The shared span store of one process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer; when `enabled` is false every recorder is a no-op.
    pub fn new(enabled: bool) -> Arc<Tracer> {
        Arc::new(Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A per-thread recorder tagging its spans with `workload`.
    pub fn recorder(self: &Arc<Self>, workload: Workload) -> Recorder {
        Recorder {
            tracer: Arc::clone(self),
            workload,
            buf: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Removes and returns every span merged so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// A span that has begun but not ended.
#[derive(Debug)]
#[must_use = "a begun span must be ended"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Open {
    /// The span's id, for use as a child's parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A thread-local span buffer; merges into its [`Tracer`] on drop.
#[derive(Debug)]
pub struct Recorder {
    tracer: Arc<Tracer>,
    workload: Workload,
    buf: Vec<Span>,
}

impl Recorder {
    /// Begins a span named `name` under `parent` (0 for a root).
    pub fn begin(&self, name: &'static str, parent: u64) -> Open {
        if !self.tracer.enabled {
            return Open {
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        Open {
            id: self.tracer.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Ends a span that covered `items` units of work.
    pub fn end(&mut self, open: Open, items: u64) {
        if let Some(start) = open.start {
            let end = Instant::now();
            self.push(open.id, open.parent, open.name, start, end, items);
        }
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        if self.tracer.enabled {
            let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(id, parent, name, start, end, items);
        }
    }

    fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        self.buf.push(Span {
            id,
            parent,
            workload: self.workload,
            name,
            start_ns: self.tracer.offset(start),
            end_ns: self.tracer.offset(end),
            items,
        });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        // A poisoned store only means another thread panicked; that
        // panic already fails the run, so the spans can be dropped.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.append(&mut self.buf);
        }
    }
}

/// Self time per (workload, layer), in seconds: each span's duration
/// minus the part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<(Workload, &'static str), f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals: BTreeMap<(Workload, &'static str), f64> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_nanos(kids, span.start_ns, span.end_ns));
        let own = span.nanos().saturating_sub(covered);
        *totals.entry((span.workload, span.layer())).or_default() += own as f64 * 1e-9;
    }
    totals
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_nanos(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes spans as tab-separated lines:
/// `id parent workload name start_ns end_ns items`.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tworkload\tname\tstart_ns\tend_ns\titems")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.workload.name(),
            s.name,
            s.start_ns,
            s.end_ns,
            s.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            workload: Workload::Audit,
            name,
            start_ns,
            end_ns,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "bench.run", 0, 100),
            // Two overlapping children cover [10, 50]; one runs past the
            // parent's end and is clipped to it.
            span(2, 1, "store.append", 10, 40),
            span(3, 1, "store.append", 30, 50),
            span(4, 1, "core.observe", 90, 120),
        ];
        let times = self_times(&spans);
        let ns = |layer| (times[&(Workload::Audit, layer)] * 1e9).round() as u64;
        assert_eq!(ns("bench"), 100 - 40 - 10);
        assert_eq!(ns("store"), 30 + 20);
        assert_eq!(ns("core"), 30);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut rec = tracer.recorder(Workload::Fanout);
            let open = rec.begin("broker.publish", 0);
            assert_eq!(open.id(), 0);
            rec.end(open, 1);
        }
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn recorders_merge_on_drop_with_parent_links() {
        let tracer = Tracer::new(true);
        {
            let mut rec = tracer.recorder(Workload::Fanout);
            let root = rec.begin("bench.run", 0);
            let child = rec.begin("broker.publish", root.id());
            let root_id = root.id();
            rec.end(child, 3);
            rec.end(root, 0);
            drop(rec);
            let spans = tracer.take();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].parent, root_id);
            assert_eq!(spans[0].items, 3);
            assert_eq!(spans[0].layer(), "broker");
        }
        assert!(tracer.take().is_empty());
    }
}
