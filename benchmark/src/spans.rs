//! The benchmark's own span recorder: spans around calls *into* the
//! program, kept in memory and written out at exit. Spans inside the
//! program are a later issue; this only sees what a caller sees.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in the recorder.
pub type SpanId = u32;

/// One recorded interval. `request` is shared by every span of one
/// request (0 for spans that belong to no request).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Count, total and self time of every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    next_request: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_request: 0,
        }
    }

    /// Switches recording for the spans opened from here on. Traced runs
    /// alternate rounds with the recorder on and off; the difference is
    /// the tracing overhead.
    pub fn set_on(&mut self, on: bool) {
        assert!(
            self.stack.is_empty(),
            "recorder toggled inside an open span"
        );
        self.on = on;
    }

    /// The instant span times count from, for threads that time their own
    /// intervals and hand them back through [`add`](Recorder::add).
    pub fn origin(&self) -> Instant {
        self.t0
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A fresh request identifier.
    pub fn new_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Opens a span under the innermost open one. `None` when off.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = SpanId::try_from(self.spans.len()).expect("span count fits u32");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes the span [`enter`](Recorder::enter) returned.
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, 0);
        let out = f();
        self.exit(id);
        out
    }

    /// Adds an already-measured interval under `parent` — how client
    /// threads hand their request spans back once their block has closed.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        (start_ns, end_ns): (u64, u64),
        request: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request,
            });
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: a span's self time is its duration minus the part
    /// of it its children cover (children of concurrent clients overlap;
    /// overlapping cover counts once).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += total;
        e.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span("round", 0, 100, None),
            span("block", 10, 60, Some(0)),
            span("request", 20, 30, Some(1)),
            span("request", 40, 55, Some(1)),
            span("boot", 70, 90, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["round"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["block"],
            SelfTime {
                count: 1,
                total_ns: 50,
                self_ns: 25
            }
        );
        assert_eq!(
            t["request"],
            SelfTime {
                count: 2,
                total_ns: 25,
                self_ns: 25
            }
        );
        assert_eq!(
            t["boot"],
            SelfTime {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn overlapping_children_cover_their_parent_once() {
        // Two concurrent clients: 10..50 and 30..80 cover 70 of 100 ns; a
        // child reaching past its parent is clipped to it.
        let spans = [
            span("block", 0, 100, None),
            span("request", 10, 50, Some(0)),
            span("request", 30, 80, Some(0)),
            span("request", 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)["block"].self_ns, 100 - 70 - 5);
    }

    #[test]
    fn recorder_nests_by_open_order_and_is_silent_when_off() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer", 0);
        let req = rec.new_request();
        let inner = rec.enter("inner", req);
        rec.exit(inner);
        rec.exit(outer);
        rec.add("handed_back", outer, (1, 2), req);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!((spans[1].request, spans[2].request), (req, req));
        assert!(spans[0].end_ns >= spans[1].end_ns);

        rec.set_on(false);
        let id = rec.enter("ignored", 0);
        rec.exit(id);
        rec.add("ignored", None, (0, 1), 0);
        assert_eq!(rec.spans().len(), 3);
    }
}
