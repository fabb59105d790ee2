//! The benchmark's own span recorder. Spans wrap the calls into each
//! product layer (never code inside the product), stay in memory while the
//! traced round runs, and are written out once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the same recorder's span list;
/// spans of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A handle for an open span, returned by [`Recorder::begin`]; `None`
/// while the recorder is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-thread span list. Spans nest by begin/end order: a span begun while
/// another is open becomes its child. While `enabled` is false (untraced
/// rounds) `begin` and `end` cost one branch each.
pub struct Recorder {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// All recorders of one run share `origin` so their timestamps line up.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            enabled: false,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(self.stack.pop(), Some(id), "spans must end in LIFO order");
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// A span around `f`, which must not record spans itself.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }
}

/// Per span name: how many, total duration, and self time (duration minus
/// the part covered by child spans).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children);
    }
    out
}

/// Raw spans of at most this many operations per thread go into the file;
/// the self-time table always covers every span.
const RAW_OPS_PER_THREAD: u64 = 500;

/// The trace file: a self-time table over all spans of all threads, then
/// the raw spans of each thread's first operations.
pub fn to_json(workload: &str, seed: u64, provenance: &str, threads: &[Recorder]) -> String {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for rec in threads {
        for (name, t) in self_times(rec.spans()) {
            let e = totals.entry(name).or_default();
            e.count += t.count;
            e.total_ns += t.total_ns;
            e.self_ns += t.self_ns;
        }
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \
         \"provenance\": {provenance},\n  \"self_time\": {{"
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            if i == 0 { "" } else { "," },
            t.count,
            t.total_ns,
            t.self_ns
        );
    }
    out.push_str("\n  },\n  \"spans\": [");
    let mut first = true;
    for (thread, rec) in threads.iter().enumerate() {
        let first_op = rec.spans().first().map_or(0, |s| s.op);
        for (id, s) in rec.spans().iter().enumerate() {
            if s.op >= first_op + RAW_OPS_PER_THREAD {
                break;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n    {{\"thread\": {thread}, \"id\": {id}, \"parent\": {parent}, \
                 \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                if first { "" } else { "," },
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            );
            first = false;
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<(&'static str, Option<u32>, u64, u64)>) -> Vec<Span> {
        spans
            .into_iter()
            .map(|(name, parent, start_ns, end_ns)| Span {
                name,
                op: 0,
                parent,
                start_ns,
                end_ns,
            })
            .collect()
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = fixed(vec![
            ("op", None, 0, 100),
            ("write", Some(0), 10, 30),
            ("wait", Some(0), 30, 90),
            ("op", None, 100, 150),
        ]);
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            NameTotals {
                count: 2,
                total_ns: 150,
                self_ns: 70
            }
        );
        assert_eq!(t["wait"].self_ns, 60);
    }

    #[test]
    fn recorder_nests_by_begin_end_order_and_is_off_until_enabled() {
        let mut rec = Recorder::new(Instant::now());
        let off = rec.begin("untraced", 1);
        rec.end(off);
        assert!(rec.spans().is_empty());

        rec.enabled = true;
        let outer = rec.begin("outer", 7);
        let inner = rec.begin("inner", 7);
        rec.end(inner);
        rec.end(outer);
        let s = rec.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn trace_file_parses_shape() {
        let mut rec = Recorder::new(Instant::now());
        rec.enabled = true;
        for op in 0..(RAW_OPS_PER_THREAD + 10) {
            let o = rec.begin("op", op);
            rec.end(o);
        }
        let json = to_json("w", 1, "{}", &[rec]);
        crate::sut::JsonDoc::parse(&json).expect("the trace file is JSON");
        assert!(json.contains("\"op\": {\"count\": 510,"));
        assert_eq!(json.matches("\"thread\": 0").count(), 500);
    }
}
