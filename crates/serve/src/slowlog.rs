//! Server-side slow-query log: a bounded ring of the N *worst* queries by
//! latency, each entry carrying everything an after-the-fact EXPLAIN
//! ANALYZE needs — the monotonically-assigned query id, the normalized
//! UQL text, the snapshot epoch it ran against, the [`ScanStats`] cost
//! counters, and the per-query telemetry registry delta.
//!
//! Eviction policy: entries are kept sorted worst-first; a new entry that
//! beats the current floor evicts the cheapest logged query. Ties on
//! latency keep the *older* entry (first observed wins), so a steady
//! stream of equal-cost queries cannot churn the log. Only queries at or
//! above the configured threshold (`ServeOptions::slow_query_us`) are
//! considered at all.

use std::fmt::Write as _;
use std::sync::Arc;

use telemetry::json;
use uindex::ScanStats;

/// One logged query, immutable once inserted (shared with concurrent
/// `Trace` readers via `Arc`).
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// Monotonic query id, assigned at execution across all connections.
    pub id: u64,
    /// The normalized UQL the plan was parsed from.
    pub uql: String,
    /// Server-side execution latency in microseconds.
    pub micros: u64,
    /// Rows the query produced.
    pub rows: u64,
    /// Whether the plan came from the prepared-plan cache.
    pub cached_plan: bool,
    /// The writer epoch of the snapshot the query executed against.
    pub snapshot_epoch: u64,
    /// Scan cost counters, exactly as returned to the client in `Done`.
    pub stats: ScanStats,
    /// What the executing thread's telemetry registry recorded for this
    /// request (frame handling, cache lookup, execution) — the counters a
    /// live `EXPLAIN ANALYZE` of this query would have reported, plus the
    /// request's own `serve.*` ones.
    pub delta: telemetry::Snapshot,
}

impl SlowQueryEntry {
    /// One-line summary for the `StatsReply` slow list.
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"id\": {}, \"micros\": {}, \"rows\": {}, \"cached_plan\": {}, \"uql\": \"{}\"}}",
            self.id,
            self.micros,
            self.rows,
            self.cached_plan,
            json::escape(&self.uql)
        )
    }

    /// Full entry for the `TraceReply` payload.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"id\": {},\n  \"uql\": \"{}\",\n  \"micros\": {},\n  \"rows\": {},\n  \
             \"cached_plan\": {},\n  \"snapshot_epoch\": {},\n",
            self.id,
            json::escape(&self.uql),
            self.micros,
            self.rows,
            self.cached_plan,
            self.snapshot_epoch
        );
        let _ = writeln!(
            out,
            "  \"scan_stats\": {{\"pages_read\": {}, \"node_visits\": {}, \
             \"entries_examined\": {}, \"matches\": {}, \"seeks\": {}, \"descents\": {}, \
             \"reseek_depth_total\": {}}},",
            s.pages_read,
            s.node_visits,
            s.entries_examined,
            s.matches,
            s.seeks,
            s.descents,
            s.reseek_depth_total
        );
        let _ = write!(out, "  \"delta\": {}\n}}", self.delta.to_json());
        out
    }
}

/// Bounded worst-N log. All mutation happens under the server's mutex;
/// the structure itself is single-threaded.
pub struct SlowLog {
    /// Sorted worst-first (descending `micros`, ascending `id` on ties).
    entries: Vec<Arc<SlowQueryEntry>>,
    capacity: usize,
}

impl SlowLog {
    /// A log retaining the `capacity` worst queries; 0 disables logging.
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            entries: Vec::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Whether a query of this latency would be retained now: the log has
    /// room, or the query is worse than its current floor.
    pub fn admits(&self, micros: u64) -> bool {
        self.capacity > 0
            && (self.entries.len() < self.capacity
                || micros > self.entries.last().map_or(0, |e| e.micros))
    }

    /// Offer a finished query. Returns whether it was retained.
    pub fn offer(&mut self, entry: SlowQueryEntry) -> bool {
        if !self.admits(entry.micros) {
            return false;
        }
        let at = self.entries.partition_point(|e| {
            (e.micros, std::cmp::Reverse(e.id)) >= (entry.micros, std::cmp::Reverse(entry.id))
        });
        self.entries.insert(at, Arc::new(entry));
        self.entries.truncate(self.capacity);
        true
    }

    /// Look up a logged entry by query id.
    pub fn get(&self, id: u64) -> Option<Arc<SlowQueryEntry>> {
        self.entries.iter().find(|e| e.id == id).map(Arc::clone)
    }

    /// All retained entries, worst-first.
    pub fn entries(&self) -> Vec<Arc<SlowQueryEntry>> {
        self.entries.clone()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64, micros: u64) -> SlowQueryEntry {
        SlowQueryEntry {
            id,
            uql: format!("q{id}"),
            micros,
            rows: id,
            cached_plan: false,
            snapshot_epoch: 1,
            stats: ScanStats::default(),
            delta: telemetry::Snapshot::default(),
        }
    }

    #[test]
    fn keeps_worst_n_sorted() {
        let mut log = SlowLog::new(3);
        for (id, us) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 40)] {
            log.offer(entry(id, us));
        }
        let ids: Vec<u64> = log.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![2, 4, 1], "worst three, worst-first");
        assert!(log.get(2).is_some());
        assert!(log.get(3).is_none(), "evicted / never retained");
    }

    #[test]
    fn ties_keep_the_older_entry() {
        let mut log = SlowLog::new(2);
        assert!(log.offer(entry(1, 100)));
        assert!(log.offer(entry(2, 100)));
        assert!(!log.offer(entry(3, 100)), "equal cost must not churn");
        let ids: Vec<u64> = log.entries().iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut log = SlowLog::new(0);
        assert!(!log.offer(entry(1, 1_000_000)));
        assert!(log.is_empty());
    }

    #[test]
    fn entry_json_parses() {
        let e = entry(7, 1234);
        let parsed = json::parse(&e.to_json()).expect("trace JSON parses");
        assert_eq!(parsed.get("id").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(parsed.get("micros").and_then(|v| v.as_u64()), Some(1234));
        assert!(parsed.get("scan_stats").is_some());
        assert!(parsed.get("delta").is_some());
        let sum = json::parse(&e.summary_json()).expect("summary JSON parses");
        assert_eq!(sum.get("uql").and_then(|v| v.as_str()), Some("q7"));
    }
}
