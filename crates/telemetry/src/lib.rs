//! Process-local metrics and span tracing for the uindex workspace.
//!
//! The registry is **thread-local**: every thread accumulates its own
//! independent set of metrics with zero synchronization on the hot path
//! (and each `cargo test` thread gets automatic isolation). Multi-threaded
//! work rolls up explicitly: each worker takes a [`snapshot()`] of its own
//! registry when it finishes, and the coordinator combines them with
//! [`Snapshot::merge`] or folds them into its own registry with
//! [`absorb`]. A thread that reports as it goes instead (a server's
//! connection thread, after every request) takes [`delta_since`] its own
//! [`Baseline`], which costs what the request touched and not the
//! registry's size. The JSON export is unchanged — a merged snapshot
//! serializes bit-identically to the same events recorded on one thread.
//!
//! Three metric kinds live in a named registry:
//!
//! - [`Counter`] — monotonic `u64`, cheap `Rc<Cell<_>>` handle. Resolve the
//!   handle once (at struct construction) and keep it in a field; `inc()` on
//!   the hot path is a single `Cell` bump.
//! - [`Gauge`] — signed instantaneous value.
//! - [`Histogram`] — 65 log₂ buckets: bucket 0 holds the value 0, bucket *b*
//!   (*b ≥ 1*) covers `[2^(b-1), 2^b - 1]`, bucket 64 tops out at `u64::MAX`.
//!
//! [`reset()`] zeroes every metric *through the shared handles*, so handles
//! cached in long-lived structs stay valid across queries.
//!
//! Span tracing is a thread-local stack of RAII guards: `Span::enter("scan")`
//! starts a timed frame, dropping the guard closes it and attaches it to its
//! parent (or to the finished-roots list when it is outermost). Finished roots
//! are capped so an uninstrumented drain (e.g. a long bench loop) cannot leak.

pub mod json;
pub mod window;

pub use window::RollingWindow;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// Monotonic counter. Clone is cheap and shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    pub fn get(&self) -> u64 {
        self.0.get()
    }

    fn zero(&self) {
        self.0.set(0);
    }
}

/// Signed instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    pub fn add(&self, d: i64) {
        self.0.set(self.0.get().wrapping_add(d));
    }

    pub fn get(&self) -> i64 {
        self.0.get()
    }

    fn zero(&self) {
        self.0.set(0);
    }
}

/// Number of log₂ buckets: one for zero plus one per bit position.
pub const HIST_BUCKETS: usize = 65;

#[derive(Clone)]
struct HistData {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl HistData {
    fn new() -> Self {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Log₂-bucket histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistData>>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Rc::new(RefCell::new(HistData::new())))
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive `[lo, hi]` range covered by bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        let lo = 1u64 << (i - 1);
        let hi = if i == 64 { u64::MAX } else { (1u64 << i) - 1 };
        (lo, hi)
    }
}

impl Histogram {
    pub fn record(&self, v: u64) {
        let mut d = self.0.borrow_mut();
        d.buckets[bucket_index(v)] += 1;
        d.count += 1;
        d.sum = d.sum.wrapping_add(v);
    }

    pub fn count(&self) -> u64 {
        self.0.borrow().count
    }

    pub fn sum(&self) -> u64 {
        self.0.borrow().sum
    }

    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        self.0.borrow().buckets
    }

    fn zero(&self) {
        *self.0.borrow_mut() = HistData::new();
    }

    /// Fold a snapshot's samples into this histogram. Snapshot buckets are
    /// keyed by their bounds, which map back to bucket indices exactly, so
    /// absorbing is lossless with respect to the log₂ resolution; the exact
    /// sum is carried over from the snapshot.
    fn absorb(&self, snap: &HistogramSnapshot) {
        let mut d = self.0.borrow_mut();
        for &(lo, _, c) in &snap.buckets {
            d.buckets[bucket_index(lo)] += c;
        }
        d.count += snap.count;
        d.sum = d.sum.wrapping_add(snap.sum);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let d = self.0.borrow();
        let buckets = d
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, c)
            })
            .collect();
        HistogramSnapshot {
            count: d.count,
            sum: d.sum,
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
}

thread_local! {
    static REGISTRY: RefCell<Registry> = RefCell::new(Registry::default());
    static SPANS: RefCell<SpanCollector> = RefCell::new(SpanCollector::default());
}

/// Intern (or fetch) the counter with this name in the thread's registry.
pub fn counter(name: &'static str) -> Counter {
    REGISTRY.with(|r| r.borrow_mut().counters.entry(name).or_default().clone())
}

/// Intern (or fetch) the gauge with this name.
pub fn gauge(name: &'static str) -> Gauge {
    REGISTRY.with(|r| r.borrow_mut().gauges.entry(name).or_default().clone())
}

/// Intern (or fetch) the histogram with this name.
pub fn histogram(name: &'static str) -> Histogram {
    REGISTRY.with(|r| r.borrow_mut().histograms.entry(name).or_default().clone())
}

/// Current value of a counter (interning it if absent, value 0).
pub fn counter_value(name: &'static str) -> u64 {
    counter(name).get()
}

/// Zero every metric in the thread's registry, preserving all handed-out
/// handles (they share the underlying cells).
pub fn reset() {
    REGISTRY.with(|r| {
        let r = r.borrow();
        for c in r.counters.values() {
            c.zero();
        }
        for g in r.gauges.values() {
            g.zero();
        }
        for h in r.histograms.values() {
            h.zero();
        }
    });
}

// ---------------------------------------------------------------------------
// Snapshots + JSON export
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram: only non-empty buckets are retained,
/// each as `(lo, hi, count)` with inclusive bounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64, u64)>,
}

/// Point-in-time copy of the whole registry, ordered by metric name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Take a snapshot of the thread's registry.
pub fn snapshot() -> Snapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        Snapshot {
            counters: r
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            gauges: r
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: r
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.snapshot()))
                .collect(),
        }
    })
}

/// A thread's registry as [`delta_since`] last saw it. Starts empty, so
/// the first delta is everything the thread has recorded. It belongs to
/// the thread it was first used on.
#[derive(Default)]
pub struct Baseline {
    // Sorted by name like the registry, and walked in step with it.
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<(&'static str, HistData)>,
}

/// The slot for `name` at position `i` of a baseline column, made on first
/// sight. Names never leave a registry, so a baseline made from an earlier
/// state of it differs from it only by insertions.
fn baseline_slot<'a, T>(
    column: &'a mut Vec<(&'static str, T)>,
    i: usize,
    name: &'static str,
    new: impl FnOnce() -> T,
) -> &'a mut T {
    if column.get(i).map(|slot| slot.0) != Some(name) {
        column.insert(i, (name, new()));
    }
    &mut column[i].1
}

/// What the thread's registry recorded since the previous call with this
/// `base`, which is moved up to now: `snapshot().delta(&earlier)` without
/// building either snapshot. Only the metrics that moved are materialised,
/// so the cost follows what one request touched, not the registry's size.
pub fn delta_since(base: &mut Baseline) -> Snapshot {
    REGISTRY.with(|r| {
        let r = r.borrow();
        let mut out = Snapshot::default();
        for (i, (&name, c)) in r.counters.iter().enumerate() {
            let was = baseline_slot(&mut base.counters, i, name, || 0);
            let d = c.get().saturating_sub(*was);
            *was = c.get();
            if d > 0 {
                out.counters.insert(name.to_string(), d);
            }
        }
        for (i, (&name, g)) in r.gauges.iter().enumerate() {
            let was = baseline_slot(&mut base.gauges, i, name, || 0);
            let d = g.get().wrapping_sub(*was);
            *was = g.get();
            if d != 0 {
                out.gauges.insert(name.to_string(), d);
            }
        }
        for (i, (&name, h)) in r.histograms.iter().enumerate() {
            let was = baseline_slot(&mut base.histograms, i, name, HistData::new);
            let now = h.0.borrow();
            if now.count == was.count {
                continue;
            }
            let buckets = (0..HIST_BUCKETS)
                .filter(|&b| now.buckets[b] > was.buckets[b])
                .map(|b| {
                    let (lo, hi) = bucket_bounds(b);
                    (lo, hi, now.buckets[b] - was.buckets[b])
                })
                .collect();
            let d = HistogramSnapshot {
                count: now.count.saturating_sub(was.count),
                sum: now.sum.wrapping_sub(was.sum),
                buckets,
            };
            *was = now.clone();
            if d.count > 0 {
                out.histograms.insert(name.to_string(), d);
            }
        }
        out
    })
}

impl HistogramSnapshot {
    /// Combine another histogram snapshot into this one: bucket counts are
    /// added by bucket (keyed on bounds), counts and sums accumulate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        // `buckets` ascend by lower bound, here and in every snapshot.
        for &(lo, hi, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&lo, |b| b.0) {
                Ok(i) => self.buckets[i].2 += c,
                Err(i) => self.buckets.insert(i, (lo, hi, c)),
            }
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The samples recorded here but not in `base`, where `base` is an
    /// earlier snapshot of the *same* histogram (bucket counts subtract;
    /// the result of subtracting an unrelated snapshot is meaningless).
    /// Saturating, so a torn base never underflows.
    pub fn delta(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        let base_by_lo: BTreeMap<u64, u64> =
            base.buckets.iter().map(|&(lo, _, c)| (lo, c)).collect();
        let buckets = self
            .buckets
            .iter()
            .filter_map(|&(lo, hi, c)| {
                let rem = c.saturating_sub(base_by_lo.get(&lo).copied().unwrap_or(0));
                (rem > 0).then_some((lo, hi, rem))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.wrapping_sub(base.sum),
            buckets,
        }
    }

    /// Quantile `q` in `[0, 1]` as the upper bound of the bucket where the
    /// cumulative count crosses `ceil(q * count)` — a ≤2× overestimate by
    /// log₂ construction. 0 when the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(_, hi, count) in &self.buckets {
            cum += count;
            if cum >= target {
                return hi;
            }
        }
        self.buckets.last().map(|&(_, hi, _)| hi).unwrap_or(0)
    }
}

/// Fold a snapshot (typically taken on a finished worker thread) into the
/// *calling thread's* registry, so worker counters roll up into the
/// coordinator's report. Counters and histograms accumulate; gauges add,
/// which treats each thread's gauge as an independent contribution.
pub fn absorb(snap: &Snapshot) {
    for (name, v) in &snap.counters {
        if *v > 0 {
            counter(intern_name(name)).add(*v);
        }
    }
    for (name, v) in &snap.gauges {
        if *v != 0 {
            gauge(intern_name(name)).add(*v);
        }
    }
    for (name, h) in &snap.histograms {
        if h.count > 0 {
            histogram(intern_name(name)).absorb(h);
        }
    }
}

/// Registry keys are `&'static str` so hot-path handles never hash strings.
/// Snapshot keys arrive as owned strings; interning leaks each *distinct*
/// name at most once per process, and metric names are a small closed set.
fn intern_name(name: &str) -> &'static str {
    thread_local! {
        static INTERNED: RefCell<BTreeMap<String, &'static str>> =
            const { RefCell::new(BTreeMap::new()) };
    }
    INTERNED.with(|m| {
        let mut m = m.borrow_mut();
        if let Some(&s) = m.get(name) {
            return s;
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        m.insert(name.to_string(), leaked);
        leaked
    })
}

impl Snapshot {
    /// Combine another registry snapshot into this one. Counters and
    /// histogram samples accumulate; gauges add (per-thread contributions).
    /// Merging is associative and commutative, so worker snapshots can be
    /// folded in any order and serialize bit-identically to the same
    /// events recorded on a single thread.
    pub fn merge(&mut self, other: &Snapshot) {
        // Looked up before inserted: a name is cloned only the first time
        // it is seen, so folding a delta into a long-lived merge allocates
        // nothing in the steady state.
        for (name, v) in &other.counters {
            match self.counters.get_mut(name) {
                Some(mine) => *mine += v,
                None => drop(self.counters.insert(name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.get_mut(name) {
                Some(mine) => *mine += v,
                None => drop(self.gauges.insert(name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => drop(self.histograms.insert(name.clone(), h.clone())),
            }
        }
    }

    /// The events recorded here but not in `base`, where `base` is an
    /// earlier snapshot of the same (or a merged-subset) registry — the
    /// sampler's per-interval delta. Counters and histogram samples
    /// subtract (saturating); gauges subtract signed, treating the delta
    /// as the gauge's movement over the interval. Metrics absent from
    /// `base` pass through whole; zero-valued deltas are dropped so an
    /// idle interval stays an empty snapshot.
    pub fn delta(&self, base: &Snapshot) -> Snapshot {
        let mut out = Snapshot::default();
        for (name, &v) in &self.counters {
            let d = v.saturating_sub(base.counters.get(name).copied().unwrap_or(0));
            if d > 0 {
                out.counters.insert(name.clone(), d);
            }
        }
        for (name, &v) in &self.gauges {
            let d = v.wrapping_sub(base.gauges.get(name).copied().unwrap_or(0));
            if d != 0 {
                out.gauges.insert(name.clone(), d);
            }
        }
        for (name, h) in &self.histograms {
            let d = match base.histograms.get(name) {
                Some(b) => h.delta(b),
                None => h.clone(),
            };
            if d.count > 0 {
                out.histograms.insert(name.clone(), d);
            }
        }
        out
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    \"{}\": {}", json::escape(k), v);
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "\n    \"{}\": {}", json::escape(k), v);
        }
        s.push_str(if first { "},\n" } else { "\n  },\n" });
        s.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json::escape(k),
                h.count,
                h.sum
            );
            for (i, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{{\"lo\": {lo}, \"hi\": {hi}, \"count\": {c}}}");
            }
            s.push_str("]}");
        }
        s.push_str(if first { "}\n" } else { "\n  }\n" });
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A finished, timed span with its nested children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: &'static str,
    pub nanos: u64,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\": \"{}\", \"nanos\": {}, \"children\": [",
            json::escape(self.name),
            self.nanos
        );
        for (i, c) in self.children.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&c.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Depth-first lookup of the first descendant (or self) with this name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

struct OpenSpan {
    name: &'static str,
    started: Instant,
    children: Vec<SpanNode>,
}

/// Finished root spans are capped so an undrained collector (e.g. inside a
/// bench loop) stays bounded; the oldest roots are shed first.
const FINISHED_ROOTS_CAP: usize = 64;

#[derive(Default)]
struct SpanCollector {
    stack: Vec<OpenSpan>,
    finished: Vec<SpanNode>,
}

/// RAII guard for a timed span. Create with [`Span::enter`]; the span closes
/// when the guard drops. Guards must drop in LIFO order (the natural scoping
/// order) — interleaved drops mis-attribute children to the wrong parent.
pub struct Span {
    // !Send: spans belong to the thread-local collector they were opened on.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Span {
    pub fn enter(name: &'static str) -> Span {
        SPANS.with(|s| {
            s.borrow_mut().stack.push(OpenSpan {
                name,
                started: Instant::now(),
                children: Vec::new(),
            });
        });
        Span {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let Some(open) = s.stack.pop() else {
                return; // take_spans() or unbalanced drop already cleared it
            };
            let node = SpanNode {
                name: open.name,
                nanos: open.started.elapsed().as_nanos() as u64,
                children: open.children,
            };
            if let Some(parent) = s.stack.last_mut() {
                parent.children.push(node);
            } else {
                s.finished.push(node);
                if s.finished.len() > FINISHED_ROOTS_CAP {
                    let excess = s.finished.len() - FINISHED_ROOTS_CAP;
                    s.finished.drain(..excess);
                }
            }
        });
    }
}

/// Drain all finished root spans collected on this thread, oldest first.
pub fn take_spans() -> Vec<SpanNode> {
    SPANS.with(|s| std::mem::take(&mut s.borrow_mut().finished))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_survives_reset() {
        let c = counter("test.counter.survives");
        c.add(5);
        assert_eq!(c.get(), 5);
        reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(counter_value("test.counter.survives"), 1);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        reset();
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_bucket_edges() {
        // Spot-check the documented bucket layout.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn histogram_records() {
        let h = histogram("test.hist");
        for v in [0u64, 1, 2, 3, 100, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1_000_106);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn spans_nest_and_drain() {
        {
            let _root = Span::enter("root");
            {
                let _a = Span::enter("a");
                let _b = Span::enter("b");
            }
            let _c = Span::enter("c");
        }
        let roots = take_spans();
        let root = roots.last().expect("root span retained");
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "a");
        assert_eq!(root.children[0].children[0].name, "b");
        assert_eq!(root.children[1].name, "c");
        assert!(root.find("b").is_some());
        assert!(take_spans().is_empty(), "drain empties the collector");
    }

    #[test]
    fn finished_roots_are_capped() {
        take_spans();
        for _ in 0..(FINISHED_ROOTS_CAP + 10) {
            let _s = Span::enter("loop");
        }
        assert_eq!(take_spans().len(), FINISHED_ROOTS_CAP);
    }

    #[test]
    fn snapshot_orders_by_name() {
        reset();
        counter("test.z").inc();
        counter("test.a").add(2);
        let snap = snapshot();
        let keys: Vec<_> = snap.counters.keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(snap.counters["test.a"], 2);
    }

    #[test]
    fn json_round_trip() {
        reset();
        counter("rt.pages").add(123);
        counter("rt.seeks").add(7);
        gauge("rt.depth").set(-4);
        let h = histogram("rt.hist");
        for v in [0u64, 1, 5, 5, 900] {
            h.record(v);
        }
        let text = snapshot().to_json();
        let parsed = json::parse(&text).expect("export must parse");

        let counters = parsed.get("counters").expect("counters object");
        assert_eq!(counters.get("rt.pages").and_then(|v| v.as_u64()), Some(123));
        assert_eq!(counters.get("rt.seeks").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("rt.depth"))
                .and_then(|v| v.as_f64()),
            Some(-4.0)
        );

        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("rt.hist"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(hist.get("sum").and_then(|v| v.as_u64()), Some(911));
        let buckets = hist
            .get("buckets")
            .and_then(|b| b.as_arr())
            .expect("buckets array");
        let total: u64 = buckets
            .iter()
            .map(|b| b.get("count").and_then(|v| v.as_u64()).unwrap())
            .sum();
        assert_eq!(total, 5, "bucket counts must add up to the sample count");
    }

    /// The canonical multi-thread roll-up: a workload split across worker
    /// threads, merged (or absorbed), must serialize bit-identically to the
    /// same events recorded on one thread.
    #[test]
    fn merge_round_trip_matches_single_threaded() {
        fn record_part_a() {
            counter("mrt.pages").add(100);
            counter("mrt.seeks").add(3);
            gauge("mrt.depth").add(2);
            let h = histogram("mrt.lat");
            for v in [0u64, 4, 17] {
                h.record(v);
            }
        }
        fn record_part_b() {
            counter("mrt.pages").add(55);
            counter("mrt.only_b").inc();
            gauge("mrt.depth").add(5);
            let h = histogram("mrt.lat");
            for v in [17u64, 900, 1] {
                h.record(v);
            }
        }

        // Ground truth: both parts on one registry.
        reset();
        record_part_a();
        record_part_b();
        let want = snapshot().to_json();

        // Worker split: part B on its own thread, snapshotted there.
        reset();
        record_part_a();
        let mut mine = snapshot();
        let theirs = std::thread::spawn(|| {
            record_part_b();
            snapshot()
        })
        .join()
        .unwrap();

        let mut merged = mine.clone();
        merged.merge(&theirs);
        assert_eq!(merged.to_json(), want, "merge must be exact");

        // Commuted order merges identically.
        let mut commuted = theirs.clone();
        commuted.merge(&mine);
        assert_eq!(commuted.to_json(), want, "merge must commute");

        // absorb() folds into the live registry with the same result.
        reset();
        absorb(&mine);
        absorb(&theirs);
        assert_eq!(snapshot().to_json(), want, "absorb must match merge");

        // Merging the empty snapshot is the identity.
        let before = mine.to_json();
        mine.merge(&Snapshot::default());
        assert_eq!(mine.to_json(), before);
    }

    /// delta is the inverse of merge: for cumulative snapshots a ⊆ b,
    /// a.merge(b.delta(a)) reproduces b exactly.
    #[test]
    fn delta_inverts_merge() {
        reset();
        counter("dl.pages").add(10);
        gauge("dl.depth").set(3);
        let h = histogram("dl.lat");
        for v in [1u64, 5, 5] {
            h.record(v);
        }
        let a = snapshot();
        counter("dl.pages").add(7);
        counter("dl.new").add(2);
        gauge("dl.depth").set(1);
        for v in [5u64, 900] {
            h.record(v);
        }
        let b = snapshot();

        let d = b.delta(&a);
        assert_eq!(d.counters.get("dl.pages"), Some(&7));
        assert_eq!(d.counters.get("dl.new"), Some(&2));
        assert_eq!(d.gauges.get("dl.depth"), Some(&-2));
        let dh = &d.histograms["dl.lat"];
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 905);

        let mut rebuilt = a.clone();
        rebuilt.merge(&d);
        assert_eq!(rebuilt.to_json(), b.to_json(), "a + (b - a) == b");

        // Self-delta is empty.
        let zero = b.delta(&b);
        assert!(zero.counters.is_empty());
        assert!(zero.gauges.is_empty());
        assert!(zero.histograms.is_empty());
    }

    /// `delta_since` is `snapshot().delta(&earlier)` step for step — through
    /// metrics first registered between two calls (before, between and
    /// after the known names), idle steps and a `reset` — and its deltas
    /// merge back to the whole registry.
    #[test]
    fn delta_since_matches_snapshot_delta() {
        fn step(state: &mut (Baseline, Snapshot, Snapshot), record: &dyn Fn()) {
            let (base, earlier, merged) = state;
            record();
            let now = snapshot();
            let got = delta_since(base);
            assert_eq!(got.to_json(), now.delta(earlier).to_json());
            merged.merge(&got);
            *earlier = now;
        }
        reset();
        // Whatever other tests left registered on this thread is zero now.
        let mut state = (Baseline::default(), snapshot(), Snapshot::default());
        delta_since(&mut state.0);
        step(&mut state, &|| {
            counter("ds.m").add(3);
            gauge("ds.g").set(4);
            histogram("ds.h").record(9);
        });
        step(&mut state, &|| {});
        step(&mut state, &|| {
            counter("ds.a").inc();
            counter("ds.m").add(2);
            counter("ds.z").add(5);
            gauge("ds.g").set(-1);
            histogram("ds.b").record(0);
            for v in [9u64, 10, 70_000] {
                histogram("ds.h").record(v);
            }
        });
        step(&mut state, &|| counter("ds.z").inc());
        let whole = snapshot();
        assert_eq!(state.2.counters["ds.m"], 5);
        assert_eq!(state.2.counters["ds.z"], whole.counters["ds.z"]);
        assert_eq!(state.2.gauges["ds.g"], -1);
        assert_eq!(state.2.histograms["ds.h"], whole.histograms["ds.h"]);
        step(&mut state, &reset);
        step(&mut state, &|| {
            counter("ds.m").add(100);
            histogram("ds.h").record(1);
        });
    }

    #[test]
    fn percentile_on_snapshots() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().percentile(0.99), 0, "empty histogram");
        // 99 fast samples and one slow one: p50 stays in the fast bucket,
        // p999 reaches the slow bucket's upper bound.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(5000);
        let s = h.snapshot();
        assert_eq!(s.percentile(0.50), bucket_bounds(bucket_index(10)).1);
        assert_eq!(s.percentile(0.999), bucket_bounds(bucket_index(5000)).1);
        // q=0 clamps to the first sample, q=1 to the last.
        assert_eq!(s.percentile(0.0), bucket_bounds(bucket_index(10)).1);
        assert_eq!(s.percentile(1.0), bucket_bounds(bucket_index(5000)).1);
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Satellite: every recorded value lands in exactly one bucket and
            // that bucket's bounds contain it.
            #[test]
            fn value_lands_in_exactly_one_bucket(v in any::<u64>()) {
                let mut containing = 0usize;
                for i in 0..HIST_BUCKETS {
                    let (lo, hi) = bucket_bounds(i);
                    if v >= lo && v <= hi {
                        containing += 1;
                        prop_assert_eq!(bucket_index(v), i);
                    }
                }
                prop_assert_eq!(containing, 1);
            }

            // Bucket totals always match the sample count, sum matches input.
            #[test]
            fn totals_match_count(values in proptest::collection::vec(any::<u64>(), 0..64)) {
                let h = Histogram::default();
                let mut expect_sum = 0u64;
                for &v in &values {
                    h.record(v);
                    expect_sum = expect_sum.wrapping_add(v);
                }
                prop_assert_eq!(h.count(), values.len() as u64);
                prop_assert_eq!(h.sum(), expect_sum);
                prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), values.len() as u64);
            }
        }
    }
}
