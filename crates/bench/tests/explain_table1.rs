//! EXPLAIN ANALYZE over every Table-1 query: the reseek tiers decompose
//! the skip count, the pool's hits and misses are the query's node visits,
//! a re-run reproduces the reported `ScanStats`, and the span tree has the
//! documented phases.
//!
//! The query set is [`workload::vehicle::table1_queries`] — the same list
//! the `table1` bench binary prints — on a smaller database (the counters
//! under test are size-independent identities, not absolute values).

use workload::vehicle::{generate, table1_queries};

#[test]
fn explain_analyze_counts_hold_together_on_table1() {
    let w = generate(2028, 2_000, 10).expect("generate");
    let queries = table1_queries(&w);
    assert_eq!(queries.len(), 20, "the paper's full Table 1");

    for tq in &queries {
        let mut variants = vec![("parallel", tq.query.clone())];
        if tq.forward_compare {
            variants.push(("forward", tq.query.clone().forward_scan()));
        }
        for (vname, q) in variants {
            let ctx = format!("query {} ({vname})", tq.id);
            let report = w.db.explain_query(&q).expect("explain");
            let t = &report.trace;
            let s = &t.stats;

            // Every skip resolves through exactly one reseek tier.
            assert_eq!(
                t.reseeks_leaf + t.reseeks_lca + t.reseeks_full,
                s.seeks,
                "{ctx}: reseek tiers decompose the skip count"
            );
            assert!(
                t.partial_keys_expanded >= s.seeks,
                "{ctx}: every skip expands a partial key"
            );

            // The registry's pool split covers the per-query page accounting:
            // every node the query visited was one fetch, a hit or a miss.
            assert_eq!(
                t.pool_hits + t.pool_misses,
                s.node_visits,
                "{ctx}: pool hits + misses are the node visits"
            );

            // Re-running through the stats path reproduces the reported
            // counters exactly (the counters are logical, so pool
            // warmth cannot shift them).
            let (hits, stats) = w.db.query_with_stats(&q).expect("re-run");
            assert_eq!(hits.len(), report.hits, "{ctx}: hits");
            assert_eq!(stats, *s, "{ctx}: ScanStats reproduce");

            // The span tree is present with the documented phase hierarchy.
            let span = t.span.as_ref().unwrap_or_else(|| panic!("{ctx}: span"));
            assert_eq!(span.name, "query", "{ctx}");
            assert!(span.find("plan").is_some(), "{ctx}: plan phase");
            assert!(span.find("scan").is_some(), "{ctx}: scan phase");
        }
    }
}
