//! Spans recorded by the benchmark's own code around its calls into
//! each layer: name, start, end, the span that caused it, and the job
//! they belong to. Kept in memory, written out when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the job in the workload's sequence.
    pub job: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// One recorder per thread; ids are made distinct across recorders by a
/// per-recorder base so logs merge by concatenation.
pub struct SpanLog {
    epoch: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl SpanLog {
    /// `epoch` is shared by every recorder of a run; `lane` separates
    /// their id ranges.
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Self {
            epoch,
            next_id: lane << 24,
            spans: Vec::new(),
        }
    }

    fn push(
        &mut self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Take an id for a root span whose end is not known yet: its
    /// children are recorded against the id first, then
    /// [`SpanLog::close_root`] records the root itself.
    pub fn open_root(&mut self) -> u32 {
        self.fresh_id()
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record the root span opened with [`SpanLog::open_root`].
    pub fn close_root(
        &mut self,
        id: u32,
        name: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(id, None, name, job, start, end);
    }

    /// Record a finished child span of `parent`.
    pub fn child(
        &mut self,
        name: &'static str,
        job: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) {
        let id = self.fresh_id();
        self.push(id, Some(parent), name, job, start, end);
    }

    /// Time `f` as a child span of `parent`; returns its result and its
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.child(name, job, parent, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and
/// overlapping siblings are counted once.
pub fn self_time_us(span: &Span, children: &[&Span]) -> f64 {
    let mut intervals: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in intervals {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    span.duration_us() - covered
}

/// Per span name: how many spans, their total duration and total self
/// time, in microseconds.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_us();
        e.2 += self_time_us(s, kids);
    }
    out
}

/// One JSON object per line: `id`, `parent`, `job`, `name`, `start_us`,
/// `end_us`.
///
/// # Errors
/// Propagates write failures.
pub fn write_jsonl<W: Write>(spans: &[Span], mut w: W) -> std::io::Result<()> {
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(f64::from(s.id))),
            ("parent", Json::num(s.parent.map(f64::from))),
            ("job", Json::Num(s.job as f64)),
            ("name", Json::str(s.name)),
            ("start_us", Json::Num(s.start_us)),
            ("end_us", Json::Num(s.end_us)),
        ]);
        writeln!(w, "{}", line.render())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            name: "s",
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let parent = span(1, None, 0.0, 100.0);
        let a = span(2, Some(1), 10.0, 30.0);
        let b = span(3, Some(1), 50.0, 90.0);
        assert_eq!(self_time_us(&parent, &[&a, &b]), 40.0);
        assert_eq!(self_time_us(&parent, &[]), 100.0);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let parent = span(1, None, 0.0, 100.0);
        let a = span(2, Some(1), 10.0, 60.0);
        let b = span(3, Some(1), 40.0, 80.0);
        // Union [10, 80] = 70.
        assert_eq!(self_time_us(&parent, &[&a, &b]), 30.0);
        // A child that starts before and one that lies wholly outside.
        let early = span(4, Some(1), -20.0, 10.0);
        let outside = span(5, Some(1), 150.0, 200.0);
        assert_eq!(self_time_us(&parent, &[&early, &outside]), 90.0);
    }

    #[test]
    fn nested_children_only_count_against_their_own_parent() {
        let spans = vec![
            Span {
                name: "job",
                ..span(1, None, 0.0, 100.0)
            },
            Span {
                name: "wait",
                ..span(2, Some(1), 20.0, 90.0)
            },
            Span {
                name: "poll",
                ..span(3, Some(2), 30.0, 40.0)
            },
            Span {
                name: "poll",
                ..span(4, Some(2), 50.0, 70.0)
            },
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["job"], (1, 100.0, 30.0));
        assert_eq!(t["wait"], (1, 70.0, 40.0));
        assert_eq!(t["poll"], (2, 30.0, 30.0));
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let spans = vec![span(1, None, 0.0, 5.5), span(2, Some(1), 1.0, 2.0)];
        let mut buf = Vec::new();
        write_jsonl(&spans, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            crate::json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
