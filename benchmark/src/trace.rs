//! Spans recorded by the harness around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while a workload runs and are
//! written to `trace-<workload>.jsonl` when it ends. Each measuring thread
//! owns a `Tracer`; a disabled tracer records nothing, which is how the
//! untraced run and the traced run share one code path.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer, or `NO_PARENT`.
    pub parent: u32,
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
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

    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// Time `f` as a span named `name`, child of whatever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Durations and self times of one span name, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub total_us: Vec<f64>,
    pub self_us: Vec<f64>,
}

/// Group span durations by name (one `Tracer`'s spans at a time, since
/// parent indices are local to a tracer).
pub fn by_name(spans: &[Span], into: &mut BTreeMap<&'static str, NameStats>) {
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = into.entry(s.name).or_default();
        e.total_us.push((s.end_ns - s.start_ns) as f64 / 1e3);
        e.self_us.push(own as f64 / 1e3);
    }
}

/// At most this many spans of a run reach the file; the summary metrics are
/// computed from all of them.
const MAX_WRITTEN: usize = 200_000;

/// Write the spans of every tracer of a run, one JSON object per line.
/// Parent ids are made global by offsetting each tracer's indices.
pub fn write_jsonl(path: &Path, tracers: &[Vec<Span>]) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0usize;
    let mut base = 0u64;
    'all: for spans in tracers {
        for (i, s) in spans.iter().enumerate() {
            if written == MAX_WRITTEN {
                break 'all;
            }
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => (base + u64::from(p)).to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                base + i as u64,
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.request
            )?;
            written += 1;
        }
        base += spans.len() as u64;
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, 100, NO_PARENT), // 100 long, children cover 20..50 and 60..90
            span(20, 50, 0),
            span(60, 90, 0),
            span(25, 35, 1), // grandchild: only reduces its own parent
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(0, 100, NO_PARENT),
            span(10, 60, 0),
            span(40, 80, 0),  // overlaps the first child on 40..60
            span(90, 130, 0), // runs past the parent's end: clamped
        ];
        assert_eq!(self_times(&spans)[0], 100 - (70 + 10));
    }

    #[test]
    fn tracer_nests_and_a_disabled_one_records_nothing() {
        let mut t = Tracer::new(true, Instant::now());
        let got = t.span("outer", 7, |t| t.span("inner", 7, |_| 5) + 1);
        assert_eq!(got, 6);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", NO_PARENT));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].request),
            ("inner", 0, 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::off();
        assert_eq!(off.span("x", 0, |_| 3), 3);
        assert!(off.into_spans().is_empty());
    }
}
