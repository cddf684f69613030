//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Each thread owns a [`Tracer`]; a disabled tracer records nothing and
//! costs one branch per call. A layer's self time is the time its spans
//! cover minus the time their child spans cover; the layer is the span
//! name up to its first dot. Self time is summed as spans close, over
//! every span; only the first [`MAX_SPANS`] spans of a thread are kept
//! for the trace file, which is written once, at exit, as Chrome
//! `trace_event` JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use ruo_metrics::trace::json_escape;

/// Spans one thread keeps for the trace file (64 B each).
pub const MAX_SPANS: usize = 1 << 12;

/// One recorded span. Times are nanoseconds since the run's base
/// instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the base instant.
    pub start: u64,
    /// End, ns since the base instant.
    pub end: u64,
    /// Unique span id (thread in the high 32 bits).
    pub id: u64,
    /// The enclosing span's id, `0` for a root.
    pub parent: u64,
    /// Request id shared by the spans of one request, `0` if none.
    pub req: u64,
    /// Recording thread.
    pub tid: u32,
}

/// What the tracers of a run recorded.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Trace {
    /// The kept spans.
    pub spans: Vec<Span>,
    /// Spans closed, kept or not.
    pub recorded: u64,
    /// Self time per layer over every recorded span (ns).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Trace {
    /// Adds another tracer's record to this one.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
        self.recorded += other.recorded;
        for (layer, ns) in other.self_ns {
            *self.self_ns.entry(layer).or_default() += ns;
        }
    }
}

#[derive(Debug)]
struct Frame {
    id: u64,
    name: &'static str,
    start: u64,
    req: u64,
    child_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    base: Instant,
    tid: u32,
    next: u64,
    open: Vec<Frame>,
    out: Trace,
}

impl Tracer {
    /// A recorder for thread `tid`, timing from `base`; `None` records
    /// nothing.
    pub fn new(base: Option<Instant>, tid: u32) -> Self {
        Tracer {
            on: base.is_some(),
            base: base.unwrap_or_else(Instant::now),
            tid,
            next: 0,
            open: Vec::new(),
            out: Trace::default(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.tid) << 32) | self.next
    }

    fn enter_at(&mut self, name: &'static str, req: u64, start: u64) {
        let id = self.next_id();
        self.open.push(Frame {
            id,
            name,
            start,
            req,
            child_ns: 0,
        });
    }

    fn close(
        &mut self,
        name: &'static str,
        id: u64,
        (start, end): (u64, u64),
        req: u64,
        child_ns: u64,
    ) {
        let dur = end.saturating_sub(start);
        *self.out.self_ns.entry(layer(name)).or_default() += dur.saturating_sub(child_ns);
        let parent = match self.open.last_mut() {
            Some(top) => {
                top.child_ns += dur;
                top.id
            }
            None => 0,
        };
        self.out.recorded += 1;
        if self.out.spans.len() < MAX_SPANS {
            self.out.spans.push(Span {
                name,
                start,
                end,
                id,
                parent,
                req,
                tid: self.tid,
            });
        }
    }

    fn exit_at(&mut self, end: u64) {
        let f = self.open.pop().expect("exit without enter");
        self.close(f.name, f.id, (f.start, end), f.req, f.child_ns);
    }

    fn record_at(&mut self, name: &'static str, start: u64, end: u64, req: u64) {
        let id = self.next_id();
        self.close(name, id, (start, end), req, 0);
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if self.on {
            let now = self.ns(Instant::now());
            self.enter_at(name, req, now);
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let now = self.ns(Instant::now());
            self.exit_at(now);
        }
    }

    /// Records a leaf span from `start` (an instant the caller took, as
    /// it times the call anyway) to now.
    pub fn record(&mut self, name: &'static str, start: Instant, req: u64) {
        if self.on {
            let (start, end) = (self.ns(start), self.ns(Instant::now()));
            self.record_at(name, start, end, req);
        }
    }

    /// Everything recorded, leaving the recorder empty.
    pub fn take(&mut self) -> Trace {
        assert!(self.open.is_empty(), "spans still open");
        std::mem::take(&mut self.out)
    }
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// The spans as Chrome `trace_event` JSON (complete `"X"` events,
/// microsecond timestamps).
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
            json_escape(s.name),
            json_escape(layer(s.name)),
            s.start as f64 / 1e3,
            (s.end - s.start) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.req
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Some(Instant::now()), 1);
        t.enter_at("client.session", 0, 0);
        t.record_at("client.read", 100, 400, 7);
        t.enter_at("audit.run", 0, 500);
        t.record_at("server.shutdown", 550, 650, 0);
        t.exit_at(900);
        t.exit_at(1_000);
        let out = t.take();
        assert_eq!(out.recorded, 4);
        assert_eq!(out.self_ns["client"], 300 + (1_000 - 300 - 400));
        assert_eq!(out.self_ns["audit"], 400 - 100);
        assert_eq!(out.self_ns["server"], 100);
        let root = out.spans.last().unwrap();
        assert_eq!((root.name, root.parent), ("client.session", 0));
        assert_eq!(out.spans[0].parent, root.id);
        assert_eq!(out.spans[2].parent, root.id);
        assert_eq!(out.spans[1].parent, out.spans[2].id);
        assert_eq!(out.spans[0].req, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(None, 0);
        t.enter("client.session", 0);
        t.record("client.read", Instant::now(), 1);
        t.exit();
        assert_eq!(t.take(), Trace::default());
    }

    #[test]
    fn keeps_at_most_max_spans_but_counts_all() {
        let mut t = Tracer::new(Some(Instant::now()), 2);
        for i in 0..MAX_SPANS as u64 + 5 {
            t.record_at("core.farray.read", i, i + 2, 0);
        }
        let out = t.take();
        assert_eq!(out.spans.len(), MAX_SPANS);
        assert_eq!(out.recorded, MAX_SPANS as u64 + 5);
        assert_eq!(out.self_ns["core"], 2 * (MAX_SPANS as u64 + 5));
        assert!(out.spans.iter().all(|s| s.id >> 32 == 2));
    }

    #[test]
    fn chrome_export_is_one_complete_event_per_span() {
        let mut t = Tracer::new(Some(Instant::now()), 3);
        t.record_at("client.read", 1_000, 3_500, 42);
        let json = to_chrome_trace(&t.take().spans);
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"client.read\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":1.000,\"dur\":2.500,\"pid\":1,\"tid\":3,\"args\":{\"id\":12884901889,\"parent\":0,\"req\":42}}]}\n"
        );
    }
}
