//! In-memory spans recorded by the benchmark around its calls into each
//! layer. All spans of one request share its id; a span's self time is
//! its duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The request the span belongs to.
    pub id: u64,
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its handle.
    pub fn open(&mut self, id: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span {
            id,
            name,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(id, name, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Appends another tracer's spans (same epoch), re-indexing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in seconds.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                // Length of the union of the children, clipped to the span.
                let (mut covered, mut reach) = (0.0, s.start);
                for (start, end) in kids {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (s.end - s.start - covered).max(0.0)
            })
            .collect()
    }

    /// Self times grouped by span name, in seconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_seconds()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Writes every span as one JSON line (microseconds since epoch).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (s, self_s) in self.spans.iter().zip(self.self_seconds()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_us\":{:.3},\"dur_us\":{:.3},\"self_us\":{:.3}}}",
                s.id,
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                self_s * 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            Span {
                id: 1,
                name: "root",
                parent: None,
                start: 0.0,
                end: 10.0,
            },
            Span {
                id: 1,
                name: "a",
                parent: Some(0),
                start: 1.0,
                end: 4.0,
            },
            Span {
                id: 1,
                name: "b",
                parent: Some(0),
                start: 3.0,
                end: 5.0,
            },
            Span {
                id: 1,
                name: "c",
                parent: Some(0),
                start: 9.0,
                end: 12.0,
            },
        ];
        let s = t.self_seconds();
        // Children cover [1,5] and [9,10]: 5 of the root's 10 seconds.
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
    }
}
