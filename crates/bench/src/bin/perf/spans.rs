//! The traced pass's span store: the benchmark records a span around
//! every call it makes into a layer, adopts the spans the layers already
//! return (`NativeReport.trace`, `Endpoint::take_trace`) as children of
//! the unit that caused them, and writes everything as one Chrome trace.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use xtrace::Trace;

/// Row (`tid`) the benchmark's own spans are drawn on, clear of worker
/// rows (0..) and the comm rows (1000).
pub const BENCH_ROW: u32 = 2000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Rank (Chrome `pid`).
    pub rank: u32,
    /// Row within the rank (Chrome `tid`).
    pub row: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Unit of work (unit index or job id) the span belongs to.
    pub unit: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Disabled recorders (the untraced pass)
/// record nothing, so the same driver code runs both passes.
pub struct Recorder {
    origin: Instant,
    rank: u32,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, rank: usize, enabled: bool) -> Self {
        Self {
            origin,
            rank: rank as u32,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &str, parent: Option<usize>, unit: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            rank: self.rank,
            row: BENCH_ROW,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record a span around one call.
    pub fn call<T>(&mut self, name: &str, unit: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, None, unit);
        let out = f();
        self.end(id);
        out
    }

    /// Adopt a layer's own trace as children of `parent`. The layer's
    /// clock starts at `layer_epoch` (the endpoint's epoch).
    pub fn adopt(&mut self, trace: &Trace, layer_epoch: Instant, parent: Option<usize>, unit: u64) {
        if !self.enabled {
            return;
        }
        let shift = layer_epoch
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        for s in trace.spans() {
            self.spans.push(Span {
                name: trace.class_name(s.class).to_string(),
                rank: self.rank,
                row: s.who.worker,
                start_ns: s.begin + shift,
                end_ns: s.end + shift,
                parent,
                unit,
            });
        }
    }
}

/// Concatenate per-thread span lists, keeping parent links valid.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children may overlap each other, so the
/// covered part is the union of their intervals clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (b, e) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if e > b {
                children.entry(p).or_default().push((b, e));
            }
        }
    }
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for (p, mut iv) in children {
        iv.sort_unstable();
        let (mut covered, mut cur) = (0u64, iv[0]);
        for &(b, e) in &iv[1..] {
            if b <= cur.1 {
                cur.1 = cur.1.max(e);
            } else {
                covered += cur.1 - cur.0;
                cur = (b, e);
            }
        }
        covered += cur.1 - cur.0;
        out[p] = out[p].saturating_sub(covered);
    }
    out
}

/// `(name, count, total ms, self ms)` per span name, largest total first.
pub fn ledger(spans: &[Span]) -> Vec<(String, u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n.to_string(), c, t as f64 / 1e6, s as f64 / 1e6))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

/// The ledger's largest rows, formatted for the pass report.
pub fn ledger_lines(spans: &[Span]) -> Vec<String> {
    ledger(spans)
        .into_iter()
        .take(12)
        .map(|(name, count, total, own)| {
            format!("  {name:<28} x{count:<7} total {total:>10.3} ms  self {own:>10.3} ms")
        })
        .collect()
}

/// Write the spans as Chrome trace-event JSON (load in `chrome://tracing`
/// or ui.perfetto.dev): pid = rank, tid = row, `args` carry the unit id
/// and the causing span.
pub fn write_chrome(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let name: String = s
            .name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || "_-. ".contains(*c))
            .collect();
        let parent = s.parent.map_or(-1, |p| p as i64);
        write!(
            w,
            "  {{\"name\": \"{name}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \
             \"args\": {{\"id\": {i}, \"unit\": {}, \"parent\": {parent}}}}}",
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.rank,
            s.row,
            s.unit,
        )?;
        writeln!(w, "{}", if i + 1 < spans.len() { "," } else { "" })?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, b: u64, e: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            rank: 0,
            row: 0,
            start_ns: b,
            end_ns: e,
            parent,
            unit: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_children() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("task", 10, 30, Some(0)),
            span("task", 20, 50, Some(0)), // overlaps the first: union 10..50
            span("get", 70, 120, Some(0)), // clipped to the parent: 70..100
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 14, 30, 50, 6]);
        let rows = ledger(&spans);
        assert_eq!(rows[0].0, "unit");
        let task = rows.iter().find(|r| r.0 == "task").unwrap();
        assert_eq!((task.1, task.2, task.3), (2, 50.0 / 1e6, 44.0 / 1e6));
    }

    #[test]
    fn merge_rebases_parent_links() {
        let a = vec![span("a", 0, 1, None), span("b", 0, 1, Some(0))];
        let b = vec![span("c", 0, 1, None), span("d", 0, 1, Some(0))];
        let m = merge(vec![a, b]);
        assert_eq!(m[1].parent, Some(0));
        assert_eq!(m[3].parent, Some(2));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        assert_eq!(r.call("x", 0, || 7), 7);
        assert!(r.spans.is_empty());
        r.set_enabled(true);
        let id = r.begin("unit", None, 3);
        r.end(id);
        assert_eq!((r.spans.len(), r.spans[0].unit), (1, 3));
    }
}
