//! Live-stats data: the per-slot execution tallies, the rolling-window
//! sampler state, and the `StatsReply` JSON builder.
//!
//! Division of labor with `server.rs`: the server owns the threads (the
//! sampler loop, the connection threads counting into their registries)
//! and reads the server-wide telemetry sum and the occupancy; this module
//! owns the *data* — how interval deltas are derived from the cumulative
//! sum, how windows are folded, and how the reply document is laid out.
//! Everything here is clock-free and deterministic, so the window math is
//! testable with synthetic snapshots.

use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use telemetry::{json, RollingWindow, Snapshot};

use crate::slowlog::SlowQueryEntry;

/// Histogram names the window math consumes.
const QUERY_US: &str = "serve.query_us";
const ROWS: &str = "serve.rows";
const POOL_HITS: &str = "pagestore.pool.hits";
const POOL_MISSES: &str = "pagestore.pool.misses";

/// Live tallies of one execution slot (an entry of the `Stats` document's
/// `workers` array): a query runs on its connection's thread, but only
/// while holding one of the `workers` slots.
#[derive(Default)]
pub struct WorkerSlot {
    /// Queries finished while holding this slot.
    pub queries: AtomicU64,
    /// Microseconds spent executing while holding this slot.
    pub busy_us: AtomicU64,
}

/// Sampler-owned state: the rolling window of interval deltas plus the
/// cumulative sum the deltas are computed against. Guarded by one mutex
/// in `Shared`; the sampler writes once per interval, Stats handlers read.
pub struct SamplerState {
    window: RollingWindow,
    /// The server-wide telemetry sum as of the newest tick. Monotone
    /// because every counter and histogram in it only grows.
    cumulative: Snapshot,
    interval: Duration,
}

impl SamplerState {
    pub fn new(window_capacity: usize, interval: Duration) -> SamplerState {
        SamplerState {
            window: RollingWindow::new(window_capacity),
            cumulative: Snapshot::default(),
            interval,
        }
    }

    /// Fold one sampling tick: `merged` is the server-wide telemetry sum
    /// right now. The interval delta (vs the previous cumulative) goes
    /// into the window; `merged` becomes the new basis.
    pub fn advance(&mut self, merged: Snapshot) {
        let delta = merged.delta(&self.cumulative);
        self.window.push(delta);
        self.cumulative = merged;
    }

    pub fn window(&self) -> &RollingWindow {
        &self.window
    }

    pub fn cumulative(&self) -> &Snapshot {
        &self.cumulative
    }

    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Ticks sampled so far (the id of the newest interval).
    pub fn tick(&self) -> u64 {
        self.window.ticks()
    }
}

/// The instantaneous state the `Stats` document's `live` object reports
/// beside the lifetime counters, read at Stats time.
#[derive(Debug, Clone, Default)]
pub struct Occupancy {
    /// Queries admitted and not yet finished.
    pub inflight: usize,
    /// Admitted queries waiting for an execution slot.
    pub queued: usize,
    pub max_inflight: usize,
    pub workers: usize,
    /// Whether the served reader's index is quarantined — every query is
    /// answering degraded until a clean `check()`.
    pub degraded: bool,
}

fn hist_count(s: &Snapshot, name: &str) -> u64 {
    s.histograms.get(name).map_or(0, |h| h.count)
}

fn hist_sum(s: &Snapshot, name: &str) -> u64 {
    s.histograms.get(name).map_or(0, |h| h.sum)
}

fn rate(n: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        n as f64 / seconds
    } else {
        0.0
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total > 0 {
        hits as f64 / total as f64
    } else {
        0.0
    }
}

/// Assemble the `StatsReply` JSON document. Pure function of its inputs;
/// the caller (connection thread) gathers them without touching the
/// buffer pool or the admission gate. `live` is the server-wide telemetry
/// sum right now: the `live` object's lifetime counters are read from it.
pub fn build_stats_json(
    sampler: &SamplerState,
    window_s: u32,
    live: &Snapshot,
    occupancy: &Occupancy,
    workers: &[(u64, u64)],
    slow: &[Arc<SlowQueryEntry>],
) -> String {
    let interval_ms = sampler.interval().as_millis().max(1) as u64;
    // How many sampled intervals cover the requested wall-clock window
    // (at least one, so `Stats { window_s: 0 }` means "newest interval").
    let want = ((window_s as u64 * 1000).div_ceil(interval_ms)).max(1) as usize;
    let (win, covered) = sampler.window().merged(want);
    let seconds = covered as f64 * interval_ms as f64 / 1000.0;

    let qcount = hist_count(&win, QUERY_US);
    let qsum = hist_sum(&win, QUERY_US);
    let empty = telemetry::HistogramSnapshot::default();
    let qh = win.histograms.get(QUERY_US).unwrap_or(&empty);
    let mean_us = qsum.checked_div(qcount).unwrap_or(0);
    let pool_hits = win.counter(POOL_HITS);
    let pool_misses = win.counter(POOL_MISSES);

    let cum = sampler.cumulative();
    let (cache_hits, cache_misses) = (
        live.counter("serve.plan_cache.hits"),
        live.counter("serve.plan_cache.misses"),
    );

    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\n  \"tick\": {},\n  \"interval_ms\": {},\n",
        sampler.tick(),
        interval_ms
    );
    let _ = writeln!(
        out,
        "  \"window\": {{\"requested_s\": {window_s}, \"ticks\": {covered}, \"seconds\": {seconds}, \
         \"qps\": {:.3}, \"rows_per_s\": {:.3}, \
         \"query_us\": {{\"count\": {qcount}, \"mean_us\": {mean_us}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}, \
         \"pool\": {{\"hits\": {pool_hits}, \"misses\": {pool_misses}, \"hit_rate\": {:.4}}}}},",
        rate(qcount, seconds),
        rate(hist_sum(&win, ROWS), seconds),
        qh.percentile(0.50),
        qh.percentile(0.99),
        qh.percentile(0.999),
        ratio(pool_hits, pool_misses),
    );
    let _ = writeln!(
        out,
        "  \"cumulative\": {{\"queries\": {}, \"rows\": {}, \"query_us_sum\": {}, \
         \"pool_hits\": {}, \"pool_misses\": {}}},",
        hist_count(cum, QUERY_US),
        hist_sum(cum, ROWS),
        hist_sum(cum, QUERY_US),
        cum.counter(POOL_HITS),
        cum.counter(POOL_MISSES),
    );
    let _ = writeln!(
        out,
        "  \"live\": {{\"connections\": {}, \"requests\": {}, \"queries\": {}, \"shed\": {}, \
         \"proto_errors\": {}, \"rows_sent\": {}, \"disconnects\": {}, \"deadline_closed\": {}, \
         \"plan_cache_hits\": {}, \"plan_cache_misses\": {}, \"plan_cache_hit_rate\": {:.4}, \
         \"inflight\": {}, \"queued\": {}, \"max_inflight\": {}, \"workers\": {}, \
         \"degraded_answers\": {}, \"degraded\": {}}},",
        live.counter("serve.connections"),
        live.counter("serve.requests"),
        hist_count(live, QUERY_US),
        live.counter("serve.shed"),
        live.counter("serve.proto_errors"),
        hist_sum(live, ROWS),
        live.counter("serve.disconnects"),
        live.counter("serve.conn.deadline_closed"),
        cache_hits,
        cache_misses,
        ratio(cache_hits, cache_misses),
        occupancy.inflight,
        occupancy.queued,
        occupancy.max_inflight,
        occupancy.workers,
        live.counter("serve.degraded_answers"),
        occupancy.degraded,
    );
    out.push_str("  \"workers\": [");
    for (i, (queries, busy_us)) in workers.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"queries\": {queries}, \"busy_us\": {busy_us}}}");
    }
    out.push_str("],\n  \"slow\": [");
    for (i, entry) in slow.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&entry.summary_json());
    }
    out.push_str("]\n}");
    debug_assert!(json::parse(&out).is_ok(), "StatsReply JSON must parse");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::HistogramSnapshot;

    /// A cumulative snapshot with `n` queries of `us` µs each and matching
    /// pool traffic.
    fn cumulative(n: u64, us: u64, pool_hits: u64) -> Snapshot {
        let mut s = Snapshot::default();
        let bucket_hi = us.next_power_of_two().max(1);
        s.histograms.insert(
            QUERY_US.into(),
            HistogramSnapshot {
                count: n,
                sum: n * us,
                buckets: vec![(bucket_hi / 2 + 1, bucket_hi, n)],
            },
        );
        s.histograms.insert(
            ROWS.into(),
            HistogramSnapshot {
                count: n,
                sum: n * 3,
                buckets: vec![(2, 3, n)],
            },
        );
        s.counters.insert(POOL_HITS.into(), pool_hits);
        s.counters.insert(POOL_MISSES.into(), pool_hits / 4);
        s
    }

    #[test]
    fn windowed_rates_from_interval_deltas() {
        let mut st = SamplerState::new(60, Duration::from_secs(1));
        // Three 1s ticks: 10, then 30, then 60 cumulative queries.
        for (n, hits) in [(10, 40), (30, 120), (60, 240)] {
            st.advance(cumulative(n, 100, hits));
        }
        assert_eq!(st.tick(), 3);
        assert_eq!(hist_count(st.cumulative(), QUERY_US), 60);

        // Last 2 seconds saw 60 - 10 = 50 queries → 25 qps.
        let doc = build_stats_json(
            &st,
            2,
            &Snapshot::default(),
            &Occupancy::default(),
            &[],
            &[],
        );
        let v = json::parse(&doc).expect("stats JSON parses");
        let win = v.get("window").unwrap();
        assert_eq!(win.get("ticks").and_then(|t| t.as_u64()), Some(2));
        let qps = win.get("qps").and_then(|q| q.as_f64()).unwrap();
        assert!((qps - 25.0).abs() < 1e-9, "qps {qps} != 25");
        assert_eq!(
            win.get("query_us")
                .and_then(|q| q.get("count"))
                .and_then(|c| c.as_u64()),
            Some(50)
        );
        assert_eq!(
            v.get("cumulative")
                .and_then(|c| c.get("queries"))
                .and_then(|q| q.as_u64()),
            Some(60)
        );
        // Pool hit rate: window saw 200 hits, 50 misses.
        let pool = win.get("pool").unwrap();
        assert_eq!(pool.get("hits").and_then(|h| h.as_u64()), Some(200));
        let rate = pool.get("hit_rate").and_then(|r| r.as_f64()).unwrap();
        assert!((rate - 0.8).abs() < 1e-9);
    }

    #[test]
    fn zero_window_means_newest_interval() {
        let mut st = SamplerState::new(8, Duration::from_millis(100));
        st.advance(cumulative(5, 50, 0));
        st.advance(cumulative(9, 50, 0));
        let doc = build_stats_json(
            &st,
            0,
            &Snapshot::default(),
            &Occupancy::default(),
            &[],
            &[],
        );
        let v = json::parse(&doc).unwrap();
        let win = v.get("window").unwrap();
        assert_eq!(win.get("ticks").and_then(|t| t.as_u64()), Some(1));
        assert_eq!(
            win.get("query_us")
                .and_then(|q| q.get("count"))
                .and_then(|c| c.as_u64()),
            Some(4),
            "newest 100ms interval saw 9 - 5 = 4 queries"
        );
    }

    #[test]
    fn empty_sampler_yields_parseable_zeros() {
        let st = SamplerState::new(60, Duration::from_secs(1));
        let mut live = Snapshot::default();
        live.counters.insert("serve.shed".into(), 7);
        let doc = build_stats_json(&st, 60, &live, &Occupancy::default(), &[(0, 0)], &[]);
        let v = json::parse(&doc).expect("empty-window stats must still parse");
        let live = v.get("live").unwrap();
        assert_eq!(live.get("shed").and_then(|s| s.as_u64()), Some(7));
        let win = v.get("window").unwrap();
        assert_eq!(win.get("qps").and_then(|q| q.as_f64()), Some(0.0));
    }
}
