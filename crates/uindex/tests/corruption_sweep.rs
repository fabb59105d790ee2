//! Silent-corruption sweep over a ~5000-object database.
//!
//! Part one damages **every live index page with every silent fault kind**
//! (bit rot, torn write, misdirected write, stale read) below the checksum
//! layer and asserts the scrub detects each one with the trailer field
//! that names the root cause. Part two runs the full resilience cycle on
//! representative pages per fault kind: damage → `check` quarantines →
//! queries degrade to object-store scans *with unchanged answers* →
//! `repair` rebuilds the index from the object store → all scan
//! algorithms agree with the pre-damage answers again.

use btree::BTreeConfig;
use objstore::Value;
use pagestore::{ChecksumStore, Error, Fault, FaultStore, MemStore, PageStore, TRAILER_LEN};
use schema::{AttrType, ClassId, Schema};
use uindex::{ClassSel, Database, IndexId, IndexSpec, Query, QueryHit, ScanAlgorithm, ValuePred};

/// The in-memory stack with a fault layer below the checksums.
type FaultDb = Database<ChecksumStore<FaultStore<MemStore>>>;

/// Only a test builds the fault layer in: the in-memory product stack,
/// which `Database::in_memory` builds, is checksums over memory.
#[test]
fn the_in_memory_product_stack_has_no_fault_layer() {
    let product = std::any::type_name::<uindex::DbStore>();
    assert_eq!(product, std::any::type_name::<ChecksumStore<MemStore>>());
    assert!(!product.contains("FaultStore"), "{product}");
}

const EMPLOYEES: usize = 50;
const COMPANIES: usize = 50;
const VEHICLES: usize = 4900;

const COLORS: [&str; 7] = ["Red", "Blue", "White", "Green", "Black", "Silver", "Amber"];

struct Fixture {
    db: FaultDb,
    color: IndexId,
    age: IndexId,
    automobile: ClassId,
}

/// A 5000-object database (employees, companies, vehicles) with a
/// class-hierarchy index and a path index sharing the one B-tree.
/// Pre-image tracking is enabled before the first flush so the
/// stale-read fault has lost-write states to roll back to.
fn build() -> Fixture {
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    let automobile = s.add_subclass("Automobile", vehicle).unwrap();
    let truck = s.add_subclass("Truck", vehicle).unwrap();

    let inner = FaultStore::new(MemStore::new(1024 + TRAILER_LEN));
    let mut db = FaultDb::over_store(s, inner, 1 << 16, BTreeConfig::default()).unwrap();
    db.index()
        .tree()
        .pool()
        .store_lock()
        .inner_mut()
        .track_preimages(true);

    let color = db
        .define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    let age = db
        .define_index(IndexSpec::path(
            "v-age",
            vehicle,
            &["MadeBy", "President"],
            "Age",
        ))
        .unwrap();

    let mut employees = Vec::new();
    for i in 0..EMPLOYEES {
        let e = db.create_object(employee).unwrap();
        db.set_attr(e, "Age", Value::Int(20 + (i as i64 * 7) % 50))
            .unwrap();
        employees.push(e);
    }
    let mut companies = Vec::new();
    for i in 0..COMPANIES {
        let c = db.create_object(company).unwrap();
        db.set_attr(c, "President", Value::Ref(employees[(i * 13) % EMPLOYEES]))
            .unwrap();
        companies.push(c);
    }
    for i in 0..VEHICLES {
        let class = match i % 3 {
            0 => vehicle,
            1 => automobile,
            _ => truck,
        };
        let v = db.create_object(class).unwrap();
        db.set_attr(v, "Color", Value::Str(COLORS[i % COLORS.len()].into()))
            .unwrap();
        db.set_attr(v, "MadeBy", Value::Ref(companies[(i * 31) % COMPANIES]))
            .unwrap();
    }
    Fixture {
        db,
        color,
        age,
        automobile,
    }
}

fn query_set(f: &Fixture) -> Vec<Query> {
    vec![
        Query::on(f.color).value(ValuePred::eq(Value::Str("Red".into()))),
        Query::on(f.color)
            .value(ValuePred::between(
                Value::Str("B".into()),
                Value::Str("S".into()),
            ))
            .class_at(0, ClassSel::SubTree(f.automobile)),
        Query::on(f.age).value(ValuePred::at_least(Value::Int(40))),
        Query::on(f.age)
            .value(ValuePred::eq(Value::Int(41)))
            .distinct_through(1),
    ]
}

/// Run every query under every scan algorithm; all algorithms must agree
/// per query, and the per-query answers are returned for later equality
/// checks against degraded and post-repair runs. Forward scans do not
/// skip, so distinct queries are normalized through the oracle's
/// [`uindex::oracle::distinct_filter`] (a no-op on already-deduped hits).
fn answers(db: &mut FaultDb, queries: &[Query]) -> Vec<Vec<QueryHit>> {
    let mut out = Vec::new();
    for q in queries {
        let mut per_alg = Vec::new();
        for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            let mut q = q.clone();
            q.algorithm = alg;
            let mut hits = db.query(&q).unwrap();
            if let Some(pos) = q.distinct_upto {
                hits = uindex::oracle::distinct_filter(&hits, pos);
            }
            per_alg.push(hits);
        }
        assert_eq!(per_alg[0], per_alg[1], "Parallel vs Forward: {q:?}");
        out.push(per_alg.swap_remove(0));
    }
    out
}

/// Damage every live page with every silent fault kind in turn (restoring
/// the raw bytes between rounds): the scrub must flag exactly the damaged
/// page, with the trailer field that identifies the fault's root cause.
#[test]
fn every_page_and_every_fault_kind_is_detected() {
    let f = build();
    let pool = f.db.index().tree().pool();
    pool.flush().unwrap();
    pool.invalidate_cache().unwrap();
    let mut store = pool.store_lock();
    let ids = store.live_page_ids();
    assert!(ids.len() >= 64, "fixture too small: {} pages", ids.len());
    let full_ps = store.inner().page_size();

    let mut failures: Vec<String> = Vec::new();
    for (i, &page) in ids.iter().enumerate() {
        let victim = ids[(i + 1) % ids.len()];
        let kinds = [
            ("bit-flip", Fault::BitFlip { bit: i * 97 + 5 }, "crc"),
            ("torn-write", Fault::TornWrite { bytes: full_ps / 3 }, "crc"),
            (
                "misdirected-write",
                Fault::MisdirectedWrite { victim },
                "page-id",
            ),
            ("stale-read", Fault::StaleRead, "epoch"),
        ];
        for (name, fault, want_what) in kinds {
            let mut before = vec![0u8; full_ps];
            store
                .inner_mut()
                .inner_mut()
                .read(page, &mut before)
                .unwrap();
            store.inner_mut().damage_now(page, fault).unwrap();
            match store.scrub_page(page) {
                Err(Error::Corruption {
                    page: flagged,
                    what,
                    ..
                }) => {
                    if flagged != page || what != want_what {
                        failures.push(format!(
                            "{name} on {page:?}: flagged {flagged:?} as {what}, \
                             expected {want_what}"
                        ));
                    }
                }
                other => failures.push(format!("{name} on {page:?}: {other:?}")),
            }
            // Restore below the fault layer so the next round starts clean
            // and the fault layer's pre-images stay untouched.
            store.inner_mut().inner_mut().write(page, &before).unwrap();
            store
                .scrub_page(page)
                .unwrap_or_else(|e| panic!("restore of {page:?} left damage: {e}"));
        }
    }
    assert!(failures.is_empty(), "undetected damage:\n{failures:#?}");
    let report = store.scrub();
    assert!(report.clean(), "sweep left residual damage: {report:?}");
}

/// The full resilience cycle, once per fault kind: damage representative
/// pages, `check` quarantines, degraded queries answer from the object
/// store with unchanged results, `repair` restores indexed service and
/// every scan algorithm agrees with the pre-damage answers.
#[test]
fn quarantine_degrade_repair_cycle() {
    let mut f = build();
    let queries = query_set(&f);
    let clean = answers(&mut f.db, &queries);
    assert!(
        clean.iter().any(|hits| !hits.is_empty()),
        "query set never matches; fixture is vacuous"
    );
    let degraded_queries_before = telemetry::counter_value("uindex.degraded.queries");
    let repairs_before = telemetry::counter_value("uindex.degraded.repairs");

    // Stale-read rolls pages back to the pre-images `build` made the fault
    // layer track; `repair` keeps that store, so every round has them.
    for round in ["stale-read", "bit-flip", "torn-write", "misdirected-write"] {
        {
            let pool = f.db.index().tree().pool();
            pool.flush().unwrap();
            pool.invalidate_cache().unwrap();
            let mut store = pool.store_lock();
            let ids = store.live_page_ids();
            assert!(ids.len() >= 16, "{round}: fixture too small");
            let targets = [0, ids.len() / 2, ids.len() - 1];
            for (j, &t) in targets.iter().enumerate() {
                let fault = match round {
                    "stale-read" => Fault::StaleRead,
                    "bit-flip" => Fault::BitFlip { bit: 311 * j + 3 },
                    "torn-write" => Fault::TornWrite { bytes: 64 + 32 * j },
                    _ => Fault::MisdirectedWrite {
                        victim: ids[(t + 1) % ids.len()],
                    },
                };
                store.inner_mut().damage_now(ids[t], fault).unwrap();
            }
        }

        let report = f.db.check().unwrap();
        assert!(!report.clean(), "{round}: damage went undetected");
        assert!(
            !report.scrub.errors.is_empty(),
            "{round}: scrub missed the damaged pages: {report:?}"
        );
        assert!(report.quarantined && f.db.quarantined());

        // Quarantined: every query degrades to an object-store scan and
        // must still produce exactly the clean answers.
        for (q, want) in queries.iter().zip(&clean) {
            let (hits, _, degraded) = f.db.query_traced_guarded(q).unwrap();
            assert!(degraded, "{round}: quarantined query used the index");
            assert_eq!(&hits, want, "{round}: degraded answer diverged: {q:?}");
        }

        let entries = f.db.repair().unwrap();
        assert!(entries > 0, "{round}: repair rebuilt an empty index");
        assert!(!f.db.quarantined());
        let report = f.db.check().unwrap();
        assert!(
            report.clean(),
            "{round}: post-repair check failed: {report:?}"
        );
        assert_eq!(
            answers(&mut f.db, &queries),
            clean,
            "{round}: post-repair answers diverged"
        );
    }

    assert!(
        telemetry::counter_value("uindex.degraded.queries")
            >= degraded_queries_before + 4 * queries.len() as u64,
        "degraded queries not counted"
    );
    assert!(
        telemetry::counter_value("uindex.degraded.repairs") >= repairs_before + 4,
        "repairs not counted"
    );
}

/// Total-loss scenario: every live page damaged at once. The very first
/// indexed query trips over the corruption, auto-quarantines, and the
/// answer still comes back correct from the object store.
#[test]
fn total_index_loss_auto_quarantines_mid_query() {
    let mut f = build();
    let queries = query_set(&f);
    let clean = answers(&mut f.db, &queries);

    {
        let pool = f.db.index().tree().pool();
        pool.flush().unwrap();
        pool.invalidate_cache().unwrap();
        let mut store = pool.store_lock();
        for (i, page) in store.live_page_ids().into_iter().enumerate() {
            store
                .inner_mut()
                .damage_now(page, Fault::BitFlip { bit: i * 13 + 1 })
                .unwrap();
        }
    }

    // No check() ran: the query itself must hit the corruption (the root
    // is damaged like everything else), quarantine, and fall back.
    let (hits, _, degraded) = f.db.query_traced_guarded(&queries[0]).unwrap();
    assert!(degraded, "query on a fully damaged index did not degrade");
    assert!(
        f.db.quarantined(),
        "corruption did not quarantine the index"
    );
    assert_eq!(hits, clean[0], "degraded answer diverged from clean run");

    // Salvage never walks the wreck: repair rebuilds from the object store.
    let entries = f.db.repair().unwrap();
    assert!(entries > 0);
    assert_eq!(answers(&mut f.db, &queries), clean);
    assert!(f.db.check().unwrap().clean());
}
