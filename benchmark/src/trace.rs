//! Harness-side tracing: the benchmark records a span around each call it
//! makes into a layer's public function. Nothing inside the program is
//! instrumented; the layers are seen from outside, the way the mbrdg/xp
//! `Tracker` (SNIPPETS.md) registers every hop from the driver's side.
//!
//! The pass runner is generic over [`Probe`]: untraced passes use
//! [`NoProbe`], which compiles to nothing, so end-to-end numbers never pay
//! for tracing; traced passes use [`Tracker`].

use crate::alloc::{self, AllocMark};
use std::io::{self, Write};
use std::time::Instant;

/// What the pass runner calls around each layer call.
pub trait Probe {
    /// Handle returned by [`Probe::enter`] and consumed by [`Probe::exit`].
    type Open;
    /// True when spans are recorded (lets the runner skip trace-only work).
    const ON: bool;
    /// Opens a span belonging to operation `op` of the stream.
    fn enter(&mut self, op: u32) -> Self::Open;
    /// Closes the span; the name is given here because some are only known
    /// once the call returned (`replica.try_answer.hit` vs `.miss`).
    fn exit(&mut self, open: Self::Open, name: &'static str);
}

/// The probe of untraced passes: records nothing, costs nothing.
pub struct NoProbe;

impl Probe for NoProbe {
    type Open = ();
    const ON: bool = false;
    #[inline(always)]
    fn enter(&mut self, _op: u32) {}
    #[inline(always)]
    fn exit(&mut self, _open: (), _name: &'static str) {}
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.function[.outcome]`; the layer is the crate name.
    pub name: &'static str,
    /// Nanoseconds since the tracker was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracker was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Index of the stream operation all spans of one request share.
    pub op: u32,
    /// Allocation calls made while the span was open (children included).
    pub allocs: u64,
    /// Bytes requested while the span was open (children included).
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder; written out once, after the run.
pub struct Tracker {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    marks: Vec<AllocMark>,
    reserved: usize,
}

impl Tracker {
    /// `capacity` spans are reserved up front so that recording never
    /// allocates inside a span (the `alloc.*` metrics are exact counts).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracker {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            marks: Vec::with_capacity(16),
            reserved: capacity,
        }
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// True when recording stayed inside the reserved capacity, i.e. the
    /// tracker itself allocated nothing while spans were open.
    pub fn stayed_reserved(&self) -> bool {
        self.spans.len() <= self.reserved
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for Tracker {
    type Open = u32;
    const ON: bool = true;

    fn enter(&mut self, op: u32) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(index);
        self.marks.push(alloc::mark());
        // Clock last on entry and first on exit: the span covers the call,
        // not the bookkeeping.
        self.spans[index as usize].start_ns = self.now_ns();
        index
    }

    fn exit(&mut self, open: u32, name: &'static str) {
        let end_ns = self.now_ns();
        let after = alloc::mark();
        let before = self.marks.pop().expect("exit matches an enter");
        let top = self.stack.pop().expect("exit matches an enter");
        assert_eq!(top, open, "spans close in LIFO order");
        let span = &mut self.spans[open as usize];
        span.name = name;
        span.end_ns = end_ns;
        span.allocs = after.count - before.count;
        span.alloc_bytes = after.bytes - before.bytes;
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap: one driver thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p as usize] = out[p as usize].saturating_sub(s.duration_ns());
        }
    }
    out
}

/// Writes the spans as JSON lines (one object per span).
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    let selfs = self_times(spans);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns},\"allocs\":{},\"alloc_bytes\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op, s.allocs, s.alloc_bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { leaf 15..25 }, b 50..90 }
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("leaf", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracker_nests_and_names_on_exit() {
        let mut t = Tracker::with_capacity(8);
        let outer = t.enter(7);
        let inner = t.enter(7);
        let _v: Vec<u8> = Vec::with_capacity(64);
        t.exit(inner, "inner");
        t.exit(outer, "outer");
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(t.stayed_reserved());
        let mut buf = Vec::new();
        write_jsonl(s, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"name\":\"outer\""));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
