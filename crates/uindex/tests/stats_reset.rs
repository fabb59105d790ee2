//! Reset semantics: per-query counters must be per-query. Running the same
//! query twice in a row must report identical `QueryTrace` numbers —
//! nothing may accumulate from the previous scan — and the repeat run must
//! match a fresh database executing the query once (modulo buffer-pool
//! warmth, which is why `pages_read` compares run 2 vs run 3, not run 1).

use objstore::Value;
use schema::{AttrType, Schema};
use uindex::{ClassSel, Database, IndexSpec, Query, ScanAlgorithm, ValuePred};

fn build_db() -> (Database, uindex::IndexId, schema::ClassId) {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    let auto = s.add_subclass("Automobile", vehicle).unwrap();
    let truck = s.add_subclass("Truck", vehicle).unwrap();
    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    let colors = ["Red", "Blue", "Green", "White", "Black"];
    for i in 0..200u32 {
        let class = match i % 3 {
            0 => vehicle,
            1 => auto,
            _ => truck,
        };
        let o = db.create_object(class).unwrap();
        db.set_attr(
            o,
            "Color",
            Value::Str(colors[i as usize % colors.len()].into()),
        )
        .unwrap();
    }
    (db, idx, auto)
}

fn skipping_query(idx: uindex::IndexId, auto: schema::ClassId) -> Query {
    // Class-restricted so the parallel scan actually issues skips.
    Query::on(idx)
        .value(ValuePred::between(
            Value::Str("Blue".into()),
            Value::Str("Red".into()),
        ))
        .class_at(0, ClassSel::SubTree(auto))
}

#[test]
fn consecutive_queries_do_not_accumulate() {
    for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
        let (db, idx, auto) = build_db();
        let mut q = skipping_query(idx, auto);
        q.algorithm = alg;

        let (mut hits1, mut hits2) = (Vec::new(), Vec::new());
        let (trace1, degraded1) = db.query_traced_guarded(&q, &mut hits1).unwrap();
        let (trace2, degraded2) = db.query_traced_guarded(&q, &mut hits2).unwrap();
        assert!(!degraded1 && !degraded2, "{alg:?}: the index answered");

        assert_eq!(hits1, hits2, "{alg:?}: same query, same hits");
        assert_eq!(
            trace1.stats, trace2.stats,
            "{alg:?}: ScanStats must reset between queries"
        );
        assert!(
            trace1.stats.entries_examined > 0,
            "{alg:?}: premise — the query does real work"
        );

        // The rest of the trace carries per-query numbers too (deltas, not
        // totals).
        assert_eq!(
            trace1.partial_keys_expanded, trace2.partial_keys_expanded,
            "{alg:?}"
        );
        assert_eq!(
            (trace1.reseeks_leaf + trace1.reseeks_lca + trace1.reseeks_full),
            (trace2.reseeks_leaf + trace2.reseeks_lca + trace2.reseeks_full),
            "{alg:?}: reseek tier totals are per-query"
        );

        // A fresh database running the query once agrees with the repeat run
        // on every warmth-independent counter, and on pages_read once the
        // fresh pool has been warmed by its own first run.
        let (fresh, fidx, fauto) = build_db();
        let mut fq = skipping_query(fidx, fauto);
        fq.algorithm = alg;
        let (mut warmup, mut fhits) = (Vec::new(), Vec::new());
        fresh.query_traced_guarded(&fq, &mut warmup).unwrap();
        let (ftrace, fdegraded) = fresh.query_traced_guarded(&fq, &mut fhits).unwrap();
        assert!(!fdegraded, "{alg:?}: the fresh index answered");
        assert_eq!(hits2, fhits, "{alg:?}: deterministic build, same hits");
        assert_eq!(
            trace2.stats, ftrace.stats,
            "{alg:?}: repeat run equals a fresh-db warmed run"
        );
    }
}
