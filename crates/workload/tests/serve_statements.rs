//! Every statement of the serving mix answers, under both scan
//! algorithms, what the brute-force oracle answers over the serving
//! workload's database — `distinct` included, which the forward scan
//! must honour as the parallel one does.

use uindex::oracle::{distinct_filter, eval};
use uindex::{uql, Database, ScanAlgorithm};

#[test]
fn every_serving_statement_matches_the_oracle_under_both_algorithms() {
    let (schema, classes) = workload::serve::schema();
    let mut db = Database::in_memory(schema).unwrap();
    workload::serve::populate(&mut db, &classes, 42, 120).unwrap();
    let mut distinct_dropped = false;
    for stmt in workload::serve::uql_families() {
        let q = uql::parse(db.planner(), stmt).unwrap();
        let all = eval(db.planner(), db.store(), &q).unwrap();
        let want = match q.distinct_upto {
            Some(pos) => distinct_filter(&all, pos),
            None => all.clone(),
        };
        distinct_dropped |= want.len() < all.len();
        for algorithm in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            let mut aq = q.clone();
            aq.algorithm = algorithm;
            assert_eq!(db.query(&aq).unwrap(), want, "{stmt:?} under {algorithm:?}");
        }
    }
    assert!(distinct_dropped, "no distinct statement dropped a row");
}
