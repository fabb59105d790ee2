//! The metric catalogue: every name the benchmark prints, with its unit,
//! which way is better, and — for end-to-end metrics — how far the median
//! may worsen before a change counts as a regression. `BENCHMARK.json`
//! records the same table; a test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse.
    pub bound: Option<f64>,
    /// A count that two runs of the same code with the same seed must
    /// report identically.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(mut m: Metric) -> Metric {
    m.exact = true;
    m
}

use Better::{Higher, Lower};

/// What a user of the system sees. Reported by every untraced run, on
/// every workload. (The ninth, `failed_frac`, is `failed / attempted` of
/// the result line: it is 0 on a healthy run, and any increase fails.)
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    count(e2e("pages_per_op", "pages", Lower, 0.10)),
    count(e2e("space_bytes_per_object", "B", Lower, 0.05)),
];

/// Single layers, by `<crate>.<thing>`. Reported by every traced run; a
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // pagestore
    layer("pagestore.pool.hit_rate", "ratio", Higher),
    layer("pagestore.pool.physical_reads_per_op", "count", Lower),
    layer("pagestore.pool.evictions_per_op", "count", Lower),
    layer("pagestore.pool.fetch_hit_ns", "ns", Lower),
    layer("pagestore.pool.fetch_miss_ns", "ns", Lower),
    count(layer("pagestore.wal.fsyncs_per_op", "count", Lower)),
    count(layer("pagestore.wal.appends_per_op", "count", Lower)),
    count(layer("pagestore.io.write_syscalls_per_op", "count", Lower)),
    count(layer("pagestore.io.write_bytes_per_op", "B", Lower)),
    // btree
    layer("btree.node.decode_ns", "ns", Lower),
    count(layer("btree.node.entries_per_leaf", "count", Higher)),
    layer("btree.seek_ns", "ns", Lower),
    layer("btree.cursor.ns_per_entry", "ns", Lower),
    count(layer("btree.node_visits_per_op", "count", Lower)),
    count(layer("btree.descents_per_op", "count", Lower)),
    count(layer("btree.reseek_depth_per_op", "count", Lower)),
    // uindex
    layer("uindex.scan.exact_k4.ns_per_entry", "ns", Lower),
    layer("uindex.scan.exact_k4.p50_us", "us", Lower),
    layer("uindex.scan.range1_k2.ns_per_entry", "ns", Lower),
    layer("uindex.scan.range1_k2.p50_us", "us", Lower),
    layer("uindex.scan.range10_k1.ns_per_entry", "ns", Lower),
    layer("uindex.scan.range10_k1.p50_us", "us", Lower),
    layer("uindex.scan.range10_k4.ns_per_entry", "ns", Lower),
    layer("uindex.scan.range10_k4.p50_us", "us", Lower),
    count(layer("uindex.scan.entries_per_result", "ratio", Lower)),
    count(layer("uindex.scan.skips_per_op", "count", Lower)),
    layer("uindex.uql.parse_us", "us", Lower),
    layer("uindex.query.inproc_p50_us", "us", Lower),
    layer("uindex.db.set_attr_us", "us", Lower),
    layer("uindex.disk.plain_commit_p50_us", "us", Lower),
    layer("uindex.disk.checkpoint_commit_p50_us", "us", Lower),
    layer("uindex.disk.open_ms", "ms", Lower),
    // objstore
    layer("objstore.persist.to_bytes_ms", "ms", Lower),
    count(layer("objstore.persist.bytes", "B", Lower)),
    // serve
    layer("serve.ping_rtt_p50_us", "us", Lower),
    layer("serve.first_frame_p50_us", "us", Lower),
    layer("serve.drain_p50_us", "us", Lower),
    layer("serve.server.query_p50_us", "us", Lower),
    layer("serve.server.query_p99_us", "us", Lower),
    layer("serve.overhead_p50_us", "us", Lower),
    layer("serve.overhead_frac", "ratio", Lower),
    layer("serve.cache.hit_rate", "ratio", Higher),
    layer("serve.cache.lookup_ns", "ns", Lower),
    layer("serve.admission.try_admit_ns", "ns", Lower),
    layer("serve.shed_per_op", "ratio", Lower),
    layer("serve.proto.encode_ns_per_row", "ns", Lower),
    layer("serve.proto.decode_ns_per_row", "ns", Lower),
    count(layer("serve.proto.bytes_per_row", "B", Lower)),
    layer("serve.rows_per_s", "1/s", Higher),
    // telemetry
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.histogram_record_ns", "ns", Lower),
    layer("telemetry.span_ns", "ns", Lower),
    // harness
    layer("trace.overhead_frac", "ratio", Lower),
];

/// The five workloads, with the one line on why each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "scan_warm",
        "1M postings in memory, pool larger than the index: scan/matcher and B-tree cursor do all the work, no page misses, no serve layer",
    ),
    (
        "scan_cold",
        "same index and queries on the disk stack behind a pool of a tenth of it: eviction, file read, CRC verify and node decode dominate",
    ),
    (
        "serve_point",
        "2 wire clients send 1-row and 10-row statements: the scan is a few percent of a request, frame handling and thread hand-offs the rest",
    ),
    (
        "serve_rows",
        "same server, ~2000-row replies: scan, row encode, batched socket writes and client decode dominate, per-request overhead is noise",
    ),
    (
        "commit_disk",
        "one writer does set_attr + commit on the durable tier: WAL append and fsync, checkpoints, and the whole-snapshot rewrite per commit",
    ),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::JsonDoc;

    /// `BENCHMARK.json` at the repo root is what the driver reads; it must
    /// say what this catalogue says.
    #[test]
    fn benchmark_json_records_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonDoc::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.keys_at(&[]),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(doc.f64_at(&["run_seconds"]), Some(crate::DEFAULT_SECONDS));

        let workloads: Vec<(String, String)> = doc
            .items_at(&["workloads"])
            .iter()
            .map(|w| {
                assert_eq!(w.keys_at(&[]), ["name", "why"]);
                let field = |k| w.str_at(&[k]).expect("string field").to_string();
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, want);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let recorded = doc.items_at(&[key]);
            assert_eq!(recorded.len(), catalogue.len(), "{key}");
            for (r, m) in recorded.iter().zip(catalogue) {
                assert_eq!(r.str_at(&["name"]), Some(m.name));
                assert_eq!(r.str_at(&["unit"]), Some(m.unit), "{}", m.name);
                let better = match m.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(r.str_at(&["better"]), Some(better), "{}", m.name);
                assert_eq!(r.f64_at(&["bound"]), m.bound, "{}", m.name);
            }
        }
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|(n, _)| *n));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        let setup = find("setup_s").and_then(|m| m.bound).expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= Some(setup)));
    }
}
