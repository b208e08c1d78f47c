//! Spans recorded by the benchmark around its calls into the library's
//! public functions. Nothing here runs inside the library: a span covers
//! one call as the caller sees it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-result root span. Its self time is the benchmark's own
/// glue between layer calls, so it counts against trace coverage.
pub const ROOT: &str = "result";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// The result (request) this span worked for.
    pub result: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread. When disabled, [`Tracer::span`]
/// only calls its closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        result: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            result,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Joins the span lists of several tracers into one, re-indexing parents.
pub fn concat(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let offset = out.len();
        out.extend(list.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-layer totals of a traced run: summed self time and call count by
/// span name.
#[derive(Debug, Default)]
pub struct LayerTimes {
    pub by_name: BTreeMap<&'static str, (u64, usize)>,
}

impl LayerTimes {
    pub fn add(&mut self, spans: &[Span]) {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = self.by_name.entry(s.name).or_default();
            e.0 += self_ns;
            e.1 += 1;
        }
    }

    /// Summed self time of `name` in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.0 as f64 / 1e6)
    }

    /// Self time of every layer span (all but [`ROOT`]) in milliseconds.
    pub fn layer_ms(&self) -> f64 {
        self.by_name
            .iter()
            .filter(|(name, _)| **name != ROOT)
            .map(|(_, e)| e.0 as f64 / 1e6)
            .sum()
    }
}

/// Tab-separated span dump: one header line, then one line per span.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tresult\tself_ns\n");
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{self_ns}",
            s.name, s.start_ns, s.end_ns, s.result
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            result: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 60, 120, Some(0)),
        ];
        // Children cover 10..100 of the parent once, clipped at its end.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_layer_times_exclude_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        let v = t.span(ROOT, 7, |t| t.span("layer", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].result, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut lt = LayerTimes::default();
        lt.add(&spans);
        assert_eq!(lt.by_name["layer"].1, 1);
        assert_eq!(lt.layer_ms(), lt.self_ms("layer"));
        let self_sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(self_sum, spans[0].duration_ns());
    }

    #[test]
    fn concat_reindexes_parents() {
        let a = vec![span(ROOT, 0, 10, None), span("a", 1, 2, Some(0))];
        let b = vec![span(ROOT, 0, 10, None), span("b", 3, 9, Some(0))];
        let joined = concat(vec![a, b]);
        assert_eq!(joined[3].parent, Some(2));
        assert_eq!(self_times(&joined), vec![9, 1, 4, 6]);
        let mut lt = LayerTimes::default();
        lt.add(&joined);
        assert_eq!(lt.by_name[ROOT].1, 2);
        assert_eq!(lt.self_ms("b"), 6e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("layer", 0, |_| 5), 5);
        assert!(t.into_spans().is_empty());
    }
}
