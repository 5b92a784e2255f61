//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.

use std::io::Write;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the run's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// The transform (or request) this span belongs to.
    pub transform: u64,
    pub rank: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn json(&self) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"transform\":{},\"rank\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.id, parent, self.name, self.transform, self.rank, self.start_ns, self.end_ns
        )
    }
}

/// Records nested spans for one thread. Ids are unique per tracer; give
/// each rank its own `id_base` so ids stay unique across ranks.
pub struct Tracer {
    origin: Instant,
    rank: usize,
    next_id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, rank: usize, id_base: u64) -> Self {
        Tracer {
            origin,
            rank,
            next_id: id_base,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn open(&mut self, name: &'static str, transform: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name,
            transform,
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("close without an open span");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, transform: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, transform);
        let out = f();
        self.close();
        out
    }

    /// Records an already-timed interval as a root span.
    pub fn record(&mut self, name: &'static str, transform: u64, start: Instant, end: Instant) {
        let id = self.next_id;
        self.next_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: None,
            name,
            transform,
            rank: self.rank,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// A span's duration minus the part of its interval covered by its
/// children (overlapping children are counted once).
pub fn self_seconds(spans: &[Span], id: u64) -> f64 {
    let span = spans
        .iter()
        .find(|s| s.id == id)
        .expect("self time of an unknown span");
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (span.end_ns - span.start_ns - covered) as f64 * 1e-9
}

/// Sum of the self times of every span named `name`.
pub fn total_self_seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_seconds(spans, s.id))
        .sum()
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            transform: 0,
            rank: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 1000),
            span(2, Some(1), 100, 300),
            span(3, Some(1), 500, 900),
            span(4, Some(2), 150, 250),
        ];
        assert!((self_seconds(&spans, 1) - 400e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 2) - 100e-9).abs() < 1e-15);
        assert!((self_seconds(&spans, 3) - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(1, None, 0, 1000),
            span(2, Some(1), 100, 600),
            span(3, Some(1), 400, 800),
            span(4, Some(1), 900, 1200),
        ];
        // Covered: [100, 800) and [900, 1000).
        assert!((self_seconds(&spans, 1) - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut t = Tracer::new(Instant::now(), 0, 0);
        let root = t.open("root", 7);
        t.span("a", 7, || std::hint::black_box((0..1000).sum::<u64>()));
        t.span("b", 7, || std::hint::black_box((0..1000).sum::<u64>()));
        t.close();
        let spans = t.into_spans();
        let root_s = spans[0].seconds();
        let sum = self_seconds(&spans, root)
            + total_self_seconds(&spans, "a")
            + total_self_seconds(&spans, "b");
        assert!((sum - root_s).abs() < 1e-12);
        assert!(spans.iter().all(|s| s.transform == 7));
        assert_eq!(spans[1].parent, Some(root));
    }

    #[test]
    fn json_lines_name_parent_and_interval() {
        let s = span(3, Some(1), 10, 20);
        assert_eq!(
            s.json(),
            "{\"id\":3,\"parent\":1,\"name\":\"x\",\"transform\":0,\"rank\":0,\"start_ns\":10,\"end_ns\":20}"
        );
        assert!(span(1, None, 0, 1).json().contains("\"parent\":null"));
    }
}
