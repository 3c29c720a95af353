//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library's public API; nothing inside the library is instrumented. A span
//! holds a name, start, end, its parent span, and the cell and trial it
//! belongs to (when it belongs to one). Spans stay in memory until the run
//! ends and are then written out as JSON lines.
//!
//! A disabled recorder still runs the wrapped closures but records nothing,
//! so the untraced and traced runs share one code path.

use rcb_campaign::Json;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub cell: Option<u64>,
    pub trial: Option<u64>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; the innermost open span is its
    /// parent.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        cell: Option<u64>,
        trial: Option<u64>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            cell,
            trial,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Record an already-closed span (one timed on another thread) under
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64, cell: Option<u64>) {
        if self.on {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.open.last().copied(),
                cell,
                trial: None,
            });
        }
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span with this name, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).map(Span::dur_s).sum()
    }

    /// Self time of each span in nanoseconds: its duration minus the part
    /// of its interval that its child spans cover (children that overlap,
    /// such as two worker threads, are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start).saturating_sub(covered)
            })
            .collect()
    }

    /// Write every span as one JSON line (with its self time).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
            let line = Json::obj(vec![
                ("id", id.into()),
                ("name", s.name.into()),
                ("start_ns", s.start.into()),
                ("end_ns", s.end.into()),
                ("self_ns", self_ns.into()),
                ("parent", s.parent.map_or(Json::Null, Json::from)),
                ("cell", opt(s.cell)),
                ("trial", opt(s.trial)),
            ]);
            out.push_str(&line.to_compact());
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut r = Recorder::new(true);
        let mk = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            cell: None,
            trial: None,
        };
        r.spans = vec![
            mk("root", 0, 100, None),
            mk("a", 10, 40, Some(0)),
            mk("b", 30, 60, Some(0)),  // overlaps `a`: covered once
            mk("c", 90, 120, Some(0)), // clipped to the parent's end
            mk("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(r.self_ns(), vec![100 - 50 - 10, 30 - 8, 30, 30, 8]);
    }

    #[test]
    fn disabled_recorder_runs_closures_and_records_nothing() {
        let mut r = Recorder::new(false);
        let v = r.span("x", None, None, |r| r.span("y", None, None, |_| 7));
        assert_eq!(v, 7);
        assert!(r.spans.is_empty());
    }
}
