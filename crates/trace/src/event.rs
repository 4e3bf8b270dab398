//! Trace data model: activity classes, spans, and the [`Trace`] container.

use crate::Ns;

/// Index into a trace's class-name table.
pub type ClassId = u16;

/// A `(node, worker)` pair identifying one horizontal row of the Gantt chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId {
    /// Logical node (machine) index.
    pub node: u32,
    /// Worker (core/thread) index within the node. By convention the
    /// communication thread, when present, is the highest worker index.
    pub worker: u32,
}

impl WorkerId {
    /// Convenience constructor.
    pub fn new(node: u32, worker: u32) -> Self {
        Self { node, worker }
    }
}

/// Broad category of an activity, used by the overlap analyses to decide
/// which spans count as "computation" and which as "communication".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivityKind {
    /// CPU work (GEMM, SORT, reductions, ...).
    Compute,
    /// Data movement (GA gets/puts, runtime transfers).
    Communication,
    /// Data movement recorded by the comm progress engine. Analyses
    /// treat this as communication; the tag lets reports split useful
    /// transfers from retransmission recovery.
    Comm {
        /// `true` when the operation needed at least one retransmission
        /// before completing (recovery traffic, not useful prefetch).
        retrans: bool,
    },
    /// Cross-rank work-steal round trips (request posted to grant or dry
    /// reply received). Neither compute nor useful data movement: the
    /// overlap analyses count it as scheduling, and the spans make load-
    /// balancing activity visible on the comm row of the Gantt chart.
    Steal,
    /// Service-layer job control round trips (submit posted to id
    /// assigned, completion report posted to acknowledged). Scheduling
    /// traffic like [`ActivityKind::Steal`]: excluded from both compute
    /// and communication in the overlap analyses, but visible on the
    /// comm row so multi-tenant control-plane activity can be audited.
    Job,
    /// Runtime bookkeeping (scheduling, inspection, NXTVAL, locks).
    Runtime,
}

impl ActivityKind {
    /// True for both the generic [`ActivityKind::Communication`] and the
    /// protocol-tagged [`ActivityKind::Comm`] variants.
    pub fn is_communication(self) -> bool {
        matches!(
            self,
            ActivityKind::Communication | ActivityKind::Comm { .. }
        )
    }
}

/// One rectangle of the Gantt chart: a half-open interval `[begin, end)`
/// during which `who` was busy with an activity of class `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub who: WorkerId,
    pub class: ClassId,
    pub begin: Ns,
    pub end: Ns,
}

impl Span {
    /// Duration of the span.
    pub fn len(&self) -> Ns {
        self.end - self.begin
    }

    /// True when the span covers no time.
    pub fn is_empty(&self) -> bool {
        self.end == self.begin
    }
}

/// A complete execution trace.
///
/// Class names are interned once via [`Trace::class`]; spans reference them
/// by id. Spans may be pushed in any order; analyses sort internally.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    class_names: Vec<String>,
    class_kinds: Vec<ActivityKind>,
    spans: Vec<Span>,
}

impl Trace {
    /// New empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern an activity class, returning its id. Repeated calls with the
    /// same name return the same id (the kind of the first call wins).
    pub fn class(&mut self, name: &str, kind: ActivityKind) -> ClassId {
        if let Some(i) = self.class_names.iter().position(|n| n == name) {
            return i as ClassId;
        }
        self.class_names.push(name.to_string());
        self.class_kinds.push(kind);
        (self.class_names.len() - 1) as ClassId
    }

    /// Look up a class id by name, if it has been interned.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_names
            .iter()
            .position(|n| n == name)
            .map(|i| i as ClassId)
    }

    /// Name of a class id.
    pub fn class_name(&self, id: ClassId) -> &str {
        &self.class_names[id as usize]
    }

    /// Kind of a class id.
    pub fn class_kind(&self, id: ClassId) -> ActivityKind {
        self.class_kinds[id as usize]
    }

    /// Number of interned classes.
    pub fn num_classes(&self) -> usize {
        self.class_names.len()
    }

    /// Record one busy interval. Panics if `end < begin`.
    pub fn push(&mut self, who: WorkerId, class: ClassId, begin: Ns, end: Ns) {
        assert!(end >= begin, "span ends before it begins");
        self.spans.push(Span {
            who,
            class,
            begin,
            end,
        });
    }

    /// Make room for `n` more spans in one allocation, for a caller that
    /// knows how many it will push.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve_exact(n);
    }

    /// All recorded spans, in insertion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Merge another trace into this one, remapping its class ids.
    pub fn absorb(&mut self, other: &Trace) {
        let map: Vec<ClassId> = (0..other.num_classes())
            .map(|i| self.class(&other.class_names[i], other.class_kinds[i]))
            .collect();
        for s in &other.spans {
            self.spans.push(Span {
                class: map[s.class as usize],
                ..*s
            });
        }
    }

    /// Earliest span begin and latest span end, or `None` for empty traces.
    pub fn extent(&self) -> Option<(Ns, Ns)> {
        if self.spans.is_empty() {
            return None;
        }
        let lo = self.spans.iter().map(|s| s.begin).min().unwrap();
        let hi = self.spans.iter().map(|s| s.end).max().unwrap();
        Some((lo, hi))
    }

    /// Distinct workers appearing in the trace, sorted.
    pub fn workers(&self) -> Vec<WorkerId> {
        let mut w: Vec<WorkerId> = self.spans.iter().map(|s| s.who).collect();
        w.sort();
        w.dedup();
        w
    }

    /// Verify the fundamental Gantt invariant: no two spans on the same
    /// worker row overlap. Returns the first offending pair if any.
    pub fn find_overlap(&self) -> Option<(Span, Span)> {
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|s| (s.who, s.begin, s.end));
        for pair in sorted.windows(2) {
            if pair[0].who == pair[1].who && pair[1].begin < pair[0].end {
                return Some((pair[0], pair[1]));
            }
        }
        None
    }

    /// Write the trace in Chrome trace-event JSON (`chrome://tracing` /
    /// Perfetto "Complete" events): pid = node, tid = worker, one `X`
    /// event per span with microsecond timestamps. Written by hand — the
    /// format needs only name/category escaping, which class names and
    /// fixed fields satisfy trivially.
    pub fn write_chrome_json<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name: String = self
                .class_name(s.class)
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || "_- ".contains(*c))
                .collect();
            let cat = match self.class_kind(s.class) {
                ActivityKind::Compute => "compute",
                ActivityKind::Communication | ActivityKind::Comm { retrans: false } => "comm",
                ActivityKind::Comm { retrans: true } => "comm-retry",
                ActivityKind::Steal => "steal",
                ActivityKind::Job => "job",
                ActivityKind::Runtime => "runtime",
            };
            write!(
                w,
                "  {{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}}}",
                s.begin as f64 / 1e3,
                s.len() as f64 / 1e3,
                s.who.node,
                s.who.worker
            )?;
            writeln!(w, "{}", if i + 1 < self.spans.len() { "," } else { "" })?;
        }
        writeln!(w, "]")
    }

    /// Write the trace as CSV (`node,worker,class,begin_ns,end_ns`).
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "node,worker,class,begin_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{},{},{},{},{}",
                s.who.node,
                s.who.worker,
                self.class_name(s.class),
                s.begin,
                s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = Trace::new();
        let a = t.class("GEMM", ActivityKind::Compute);
        let b = t.class("GEMM", ActivityKind::Compute);
        let c = t.class("SORT", ActivityKind::Compute);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.class_name(a), "GEMM");
        assert_eq!(t.num_classes(), 2);
    }

    #[test]
    fn extent_and_workers() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        t.push(WorkerId::new(0, 0), g, 10, 20);
        t.push(WorkerId::new(1, 2), g, 5, 8);
        assert_eq!(t.extent(), Some((5, 20)));
        assert_eq!(t.workers(), vec![WorkerId::new(0, 0), WorkerId::new(1, 2)]);
    }

    #[test]
    fn overlap_detection() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        t.push(WorkerId::new(0, 0), g, 0, 10);
        t.push(WorkerId::new(0, 0), g, 10, 20); // touching is fine
        assert!(t.find_overlap().is_none());
        t.push(WorkerId::new(0, 0), g, 15, 25);
        assert!(t.find_overlap().is_some());
    }

    #[test]
    fn absorb_remaps_classes() {
        let mut a = Trace::new();
        let ga = a.class("GEMM", ActivityKind::Compute);
        a.push(WorkerId::new(0, 0), ga, 0, 1);

        let mut b = Trace::new();
        let sb = b.class("SORT", ActivityKind::Compute);
        let gb = b.class("GEMM", ActivityKind::Compute);
        b.push(WorkerId::new(0, 1), sb, 2, 3);
        b.push(WorkerId::new(0, 1), gb, 3, 4);

        a.absorb(&b);
        assert_eq!(a.num_classes(), 2);
        let gemm_spans = a
            .spans()
            .iter()
            .filter(|s| a.class_name(s.class) == "GEMM")
            .count();
        assert_eq!(gemm_spans, 2);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        t.push(WorkerId::new(3, 1), g, 100, 200);
        let mut out = Vec::new();
        t.write_csv(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("3,1,GEMM,100,200"));
    }

    #[test]
    fn chrome_json_is_valid_shape() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        let x = t.class("XFER", ActivityKind::Communication);
        t.push(WorkerId::new(0, 1), g, 1_000, 3_000);
        t.push(WorkerId::new(2, 0), x, 500, 900);
        let mut out = Vec::new();
        t.write_chrome_json(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        assert!(s.contains("\"name\": \"GEMM\""));
        assert!(s.contains("\"cat\": \"comm\""));
        assert!(s.contains("\"pid\": 2"));
        // One comma between the two events, none after the last.
        assert_eq!(s.matches("},").count(), 1);
    }

    #[test]
    #[should_panic]
    fn reversed_span_panics() {
        let mut t = Trace::new();
        let g = t.class("GEMM", ActivityKind::Compute);
        t.push(WorkerId::new(0, 0), g, 10, 5);
    }
}
