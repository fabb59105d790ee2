//! Process-local metrics and span tracing for the uindex workspace.
//!
//! Every thread records into its **own registry**. A registry has one
//! writer, the thread that owns it, so bumping a metric is a plain load and
//! store — no lock, no atomic read-modify-write — and each `cargo test`
//! thread is isolated for free. Any thread may **read** any registry: the
//! cells are atomics, so a reader sees each metric's latest stored value,
//! never a torn one.
//!
//! Reading across threads goes through a [`Group`]: a set of threads — a
//! server's acceptor and connection threads — whose registries
//! [`Group::snapshot`] sums on the spot, keeping what a member recorded
//! after the member has left. A thread that reports per request takes
//! [`delta_since`] its own [`Baseline`]. Nothing copies one registry's
//! counts into another: an event is counted once, where it happened.
//!
//! Three metric kinds live in a named registry:
//!
//! - [`Counter`] — monotonic `u64`. Resolve the handle once (at struct
//!   construction, or in a `thread_local!`) and keep it; `inc()` on the hot
//!   path is one load and one store of a cell no other thread writes.
//! - [`Gauge`] — signed instantaneous value.
//! - [`Histogram`] — 65 log₂ buckets: bucket 0 holds the value 0, bucket *b*
//!   (*b ≥ 1*) covers `[2^(b-1), 2^b - 1]`, bucket 64 tops out at `u64::MAX`.
//!
//! Handles are neither `Send` nor `Sync`: a handle lives on the thread
//! whose registry holds its cell, which is what keeps that thread the
//! cell's only writer. Names never leave a registry and values never go
//! down (gauges aside), so every reader sees each counter grow.
//!
//! Span tracing is a thread-local stack of RAII guards: `Span::enter("scan")`
//! starts a timed frame, dropping the guard closes it and attaches it to its
//! parent (or to the finished-roots list when it is outermost). Finished roots
//! are capped so an uninstrumented drain (e.g. a long bench loop) cannot leak.

pub mod json;
pub mod window;

pub use window::RollingWindow;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// Makes a handle `!Send + !Sync`, so only the owning thread writes a cell.
type Owner = PhantomData<*const ()>;

/// Add `n` to a cell only this thread writes: a plain load and store, which
/// other threads may read at any moment without seeing a torn value.
fn bump(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Relaxed).wrapping_add(n), Relaxed);
}

/// Monotonic counter. Clone is cheap and shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>, Owner);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        bump(&self.0, n);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Signed instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>, Owner);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.set(self.get().wrapping_add(d));
    }

    pub fn get(&self) -> i64 {
        self.0.load(Relaxed)
    }
}

/// Number of log₂ buckets: one for zero plus one per bit position.
pub const HIST_BUCKETS: usize = 65;

/// A histogram's cells. `count` is the sum of the buckets, kept so the
/// owner can tell a moved histogram with one load.
struct HistCells {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistCells {
    fn default() -> Self {
        HistCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl HistCells {
    /// The cells' values. Read from another thread while the owner records,
    /// `count` is taken as the sum of the buckets read, so the copy is
    /// consistent in itself; `sum` may include a sample whose bucket it
    /// missed, or the reverse.
    fn load(&self) -> HistData {
        let buckets = std::array::from_fn(|b| self.buckets[b].load(Relaxed));
        HistData {
            count: buckets.iter().sum(),
            buckets,
            sum: self.sum.load(Relaxed),
        }
    }
}

/// Plain values of one histogram.
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

    /// The samples recorded here but not in `base`, an earlier copy of the
    /// same histogram; only non-empty buckets are listed.
    fn since(&self, base: &HistData) -> HistogramSnapshot {
        let buckets = (0..HIST_BUCKETS)
            .filter(|&b| self.buckets[b] > base.buckets[b])
            .map(|b| {
                let (lo, hi) = bucket_bounds(b);
                (lo, hi, self.buckets[b] - base.buckets[b])
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(base.count),
            sum: self.sum.wrapping_sub(base.sum),
            buckets,
        }
    }
}

/// Log₂-bucket histogram of `u64` samples.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistCells>, Owner);

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
        let h = &self.0;
        bump(&h.buckets[bucket_index(v)], 1);
        bump(&h.count, 1);
        bump(&h.sum, v);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these locks leaves the data valid at each step.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One thread's metrics. The owner interns names and writes the cells;
/// the lock guards only the name maps, which readers walk.
#[derive(Default)]
struct Registry(Mutex<Cells>);

#[derive(Default)]
struct Cells {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    gauges: BTreeMap<&'static str, Arc<AtomicI64>>,
    histograms: BTreeMap<&'static str, Arc<HistCells>>,
}

/// The entry for `name`, made on first sight; names are cloned only then.
fn slot<'a, T: Default>(map: &'a mut BTreeMap<String, T>, name: &str) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), T::default());
    }
    map.get_mut(name).expect("inserted above")
}

impl Registry {
    /// Add every metric of this registry that is not zero into `out`:
    /// counters and histogram samples add, gauges add.
    fn add_to(&self, out: &mut Snapshot) {
        let cells = lock(&self.0);
        for (name, c) in &cells.counters {
            let v = c.load(Relaxed);
            if v > 0 {
                *slot(&mut out.counters, name) += v;
            }
        }
        for (name, g) in &cells.gauges {
            let v = g.load(Relaxed);
            if v != 0 {
                *slot(&mut out.gauges, name) += v;
            }
        }
        for (name, h) in &cells.histograms {
            let d = h.load();
            if d.count > 0 {
                slot(&mut out.histograms, name).merge(&d.since(&HistData::new()));
            }
        }
    }
}

thread_local! {
    static REGISTRY: Arc<Registry> = Arc::default();
    static SPANS: RefCell<SpanCollector> = RefCell::new(SpanCollector::default());
}

fn with_cells<R>(f: impl FnOnce(&mut Cells) -> R) -> R {
    REGISTRY.with(|r| f(&mut lock(&r.0)))
}

/// Intern (or fetch) the counter with this name in the thread's registry.
pub fn counter(name: &'static str) -> Counter {
    with_cells(|c| Counter(Arc::clone(c.counters.entry(name).or_default()), PhantomData))
}

/// Intern (or fetch) the gauge with this name.
pub fn gauge(name: &'static str) -> Gauge {
    with_cells(|c| Gauge(Arc::clone(c.gauges.entry(name).or_default()), PhantomData))
}

/// Intern (or fetch) the histogram with this name.
pub fn histogram(name: &'static str) -> Histogram {
    with_cells(|c| {
        Histogram(
            Arc::clone(c.histograms.entry(name).or_default()),
            PhantomData,
        )
    })
}

/// Current value of a counter (interning it if absent, value 0).
pub fn counter_value(name: &'static str) -> u64 {
    counter(name).get()
}

// ---------------------------------------------------------------------------
// Groups: registries read together
// ---------------------------------------------------------------------------

/// Threads whose registries are read as one — a server's threads. A thread
/// [`join`](Group::join)s for as long as it should be counted;
/// [`snapshot`](Group::snapshot) sums the members' registries as they
/// stand, plus what earlier members had recorded when they left, so the
/// sum never goes down while members come and go.
#[derive(Default)]
pub struct Group(Mutex<GroupState>);

#[derive(Default)]
struct GroupState {
    members: Vec<Arc<Registry>>,
    /// What members that left had recorded: one fold per member lifetime.
    departed: Snapshot,
}

impl Group {
    /// Count the calling thread's registry in this group until the
    /// returned guard drops. The whole registry counts, so a thread joins
    /// before it records anything the group should not report.
    pub fn join(&self) -> Membership<'_> {
        let registry = REGISTRY.with(Arc::clone);
        lock(&self.0).members.push(Arc::clone(&registry));
        Membership {
            group: self,
            registry,
            _owner: PhantomData,
        }
    }

    /// Everything the group's members, past and present, have recorded:
    /// counters and histogram samples add, gauges add. Metrics that are
    /// zero are left out. Readable from any thread at any time.
    pub fn snapshot(&self) -> Snapshot {
        let state = lock(&self.0);
        let mut out = state.departed.clone();
        for member in &state.members {
            member.add_to(&mut out);
        }
        out
    }
}

/// A thread's place in a [`Group`]; dropping it folds the registry into
/// the group's record of departed members.
pub struct Membership<'g> {
    group: &'g Group,
    registry: Arc<Registry>,
    _owner: Owner,
}

impl Drop for Membership<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.group.0);
        if let Some(i) = state
            .members
            .iter()
            .position(|r| Arc::ptr_eq(r, &self.registry))
        {
            state.members.swap_remove(i);
        }
        self.registry.add_to(&mut state.departed);
    }
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

/// Point-in-time copy of a registry (or a sum of them), ordered by metric
/// name.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Take a snapshot of the thread's registry. Metrics that are zero are
/// left out.
pub fn snapshot() -> Snapshot {
    let mut out = Snapshot::default();
    REGISTRY.with(|r| r.add_to(&mut out));
    out
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
    let mut out = Snapshot::default();
    base.walk(Some(&mut out));
    out
}

impl Baseline {
    /// Move up to the thread's registry as it stands without materialising
    /// the delta: [`delta_since`] for a caller that turned out not to need
    /// it, at the cost of one walk and no allocation.
    pub fn advance(&mut self) {
        self.walk(None);
    }

    fn walk(&mut self, mut out: Option<&mut Snapshot>) {
        with_cells(|r| {
            for (i, (&name, c)) in r.counters.iter().enumerate() {
                let was = baseline_slot(&mut self.counters, i, name, || 0);
                let now = c.load(Relaxed);
                let d = now.saturating_sub(*was);
                *was = now;
                if let Some(out) = out.as_deref_mut().filter(|_| d > 0) {
                    out.counters.insert(name.to_string(), d);
                }
            }
            for (i, (&name, g)) in r.gauges.iter().enumerate() {
                let was = baseline_slot(&mut self.gauges, i, name, || 0);
                let now = g.load(Relaxed);
                let d = now.wrapping_sub(*was);
                *was = now;
                if let Some(out) = out.as_deref_mut().filter(|_| d != 0) {
                    out.gauges.insert(name.to_string(), d);
                }
            }
            for (i, (&name, h)) in r.histograms.iter().enumerate() {
                let was = baseline_slot(&mut self.histograms, i, name, HistData::new);
                if h.count.load(Relaxed) == was.count {
                    continue;
                }
                let now = h.load();
                if let Some(out) = out.as_deref_mut() {
                    out.histograms.insert(name.to_string(), now.since(was));
                }
                *was = now;
            }
        })
    }
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

impl Snapshot {
    /// The counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Combine another registry snapshot into this one. Counters and
    /// histogram samples accumulate; gauges add (per-thread contributions).
    /// Merging is associative and commutative, so snapshots of several
    /// threads can be folded in any order and serialize bit-identically to
    /// the same events recorded on a single thread.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, v) in &other.counters {
            *slot(&mut self.counters, name) += v;
        }
        for (name, v) in &other.gauges {
            *slot(&mut self.gauges, name) += v;
        }
        for (name, h) in &other.histograms {
            slot(&mut self.histograms, name).merge(h);
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
            let d = v.saturating_sub(base.counter(name));
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

    /// `f` on a thread of its own, so it starts from an empty registry.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn counter_handles_share_a_cell() {
        let c = counter("test.counter.shared");
        c.add(5);
        assert_eq!(c.get(), 5);
        counter("test.counter.shared").inc();
        assert_eq!(counter_value("test.counter.shared"), 6);
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = gauge("test.gauge");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
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
        let buckets = h.0.load().buckets;
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
    fn snapshot_orders_by_name_and_leaves_out_zeros() {
        let snap = on_fresh_thread(|| {
            counter("test.z").inc();
            counter("test.a").add(2);
            counter("test.never");
            histogram("test.empty");
            snapshot()
        });
        let keys: Vec<_> = snap.counters.keys().cloned().collect();
        assert_eq!(keys, ["test.a", "test.z"]);
        assert_eq!(snap.counter("test.a"), 2);
        assert_eq!(snap.counter("test.never"), 0);
        assert!(snap.histograms.is_empty());
    }

    #[test]
    fn json_round_trip() {
        let text = on_fresh_thread(|| {
            counter("rt.pages").add(123);
            counter("rt.seeks").add(7);
            gauge("rt.depth").set(-4);
            let h = histogram("rt.hist");
            for v in [0u64, 1, 5, 5, 900] {
                h.record(v);
            }
            snapshot().to_json()
        });
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

    /// The canonical multi-thread roll-up: a workload split across worker
    /// threads, merged (or read as a group), must serialize bit-identically
    /// to the same events recorded on one thread.
    #[test]
    fn merge_round_trip_matches_single_threaded() {
        // Ground truth: both parts on one registry.
        let want = on_fresh_thread(|| {
            record_part_a();
            record_part_b();
            snapshot().to_json()
        });

        // Worker split: each part on its own thread, snapshotted there.
        let mut mine = on_fresh_thread(|| {
            record_part_a();
            snapshot()
        });
        let theirs = on_fresh_thread(|| {
            record_part_b();
            snapshot()
        });

        let mut merged = mine.clone();
        merged.merge(&theirs);
        assert_eq!(merged.to_json(), want, "merge must be exact");

        // Commuted order merges identically.
        let mut commuted = theirs.clone();
        commuted.merge(&mine);
        assert_eq!(commuted.to_json(), want, "merge must commute");

        // Merging the empty snapshot is the identity.
        let before = mine.to_json();
        mine.merge(&Snapshot::default());
        assert_eq!(mine.to_json(), before);
    }

    /// A group reads its members' registries from another thread while
    /// they run, and keeps what a member recorded after it leaves: the sum
    /// equals the single-threaded registry, and no reading ever shrinks.
    #[test]
    fn group_sums_live_and_departed_members() {
        let want = on_fresh_thread(|| {
            record_part_a();
            record_part_b();
            snapshot().to_json()
        });
        let group = Group::default();
        let (a_recorded, a_may_leave) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                let _member = group.join();
                record_part_a();
                a_recorded.wait();
                a_may_leave.wait();
            });
            a_recorded.wait();
            // Member A is still running: read its registry from here.
            let live = group.snapshot();
            assert_eq!(live.counter("mrt.pages"), 100);
            assert_eq!(live.histograms["mrt.lat"].count, 3);
            a_may_leave.wait();
            a.join().expect("member A");
            let departed = group.snapshot();
            assert_eq!(departed.to_json(), live.to_json(), "leaving loses nothing");
            s.spawn(|| {
                let _member = group.join();
                record_part_b();
            })
            .join()
            .expect("member B");
        });
        assert_eq!(group.snapshot().to_json(), want);
    }

    /// Readers racing a writer see every counter and histogram only grow,
    /// and each histogram copy is consistent in itself.
    #[test]
    fn group_reads_are_monotone_under_a_running_writer() {
        let group = Group::default();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _member = group.join();
                let (c, h) = (counter("race.c"), histogram("race.h"));
                for v in 0..20_000u64 {
                    c.inc();
                    h.record(v);
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            });
            let (mut last_c, mut last_n) = (0, 0);
            while !done.load(std::sync::atomic::Ordering::Acquire) {
                let snap = group.snapshot();
                let c = snap.counter("race.c");
                let h = snap.histograms.get("race.h").cloned().unwrap_or_default();
                assert!(c >= last_c && h.count >= last_n, "a reading went down");
                assert_eq!(h.buckets.iter().map(|b| b.2).sum::<u64>(), h.count);
                (last_c, last_n) = (c, h.count);
            }
        });
        let end = group.snapshot();
        assert_eq!(end.counter("race.c"), 20_000);
        assert_eq!(end.histograms["race.h"].count, 20_000);
    }

    /// delta is the inverse of merge: for cumulative snapshots a ⊆ b,
    /// a.merge(b.delta(a)) reproduces b exactly.
    #[test]
    fn delta_inverts_merge() {
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
    /// after the known names) and idle steps — and its deltas merge back to
    /// the whole registry.
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
        on_fresh_thread(|| {
            let mut state = (Baseline::default(), snapshot(), Snapshot::default());
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
            assert_eq!(state.2.to_json(), whole.to_json(), "the deltas add up");
            // `advance` moves the baseline as `delta_since` does.
            counter("ds.m").add(7);
            histogram("ds.h").record(3);
            state.0.advance();
            state.1 = snapshot();
            step(&mut state, &|| {
                counter("ds.m").add(100);
                histogram("ds.h").record(1);
            });
        });
    }

    #[test]
    fn percentile_on_snapshots() {
        let h = Histogram::default();
        let snap = |h: &Histogram| h.0.load().since(&HistData::new());
        assert_eq!(snap(&h).percentile(0.99), 0, "empty histogram");
        // 99 fast samples and one slow one: p50 stays in the fast bucket,
        // p999 reaches the slow bucket's upper bound.
        for _ in 0..99 {
            h.record(10);
        }
        h.record(5000);
        let s = snap(&h);
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
                prop_assert_eq!(h.0.load().buckets.iter().sum::<u64>(), values.len() as u64);
            }
        }
    }
}
