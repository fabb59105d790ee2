//! Serving-layer torture: N client threads hammer a live server over real
//! TCP on both store tiers. Every response is compared byte-for-byte
//! against an in-process differential oracle (the same query run through
//! a [`uindex::DatabaseReader`] and encoded with the same
//! [`serve::WireRow`] conversion). Abrupt disconnects mid-response must
//! leak no admission slot and no worker; after shutdown the server is
//! quiescent — zero in flight — and its merged telemetry is in lockstep
//! with the lifetime counters.

use std::collections::HashMap;
use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Client, ServeOptions, Server, WireRow};
use uindex::{Database, DatabaseReader, DiskDatabase, DiskOptions};

const SEED: u64 = 0xC0FFEE;
const N_VEHICLES: usize = 300;
const CLIENTS: usize = 6;
const REQUESTS_PER_CLIENT: usize = 40;

/// The oracle: every statement's expected wire rows, computed in-process
/// through the identical encode path the server uses.
fn oracle<P: pagestore::PageStore>(reader: &DatabaseReader<P>) -> HashMap<String, Vec<WireRow>> {
    workload::serve::uql_families()
        .into_iter()
        .map(|stmt| {
            let q = reader.parse_uql(stmt).unwrap();
            let (hits, _) = reader.query(&q).unwrap();
            let rows = hits.iter().map(WireRow::from_hit).collect();
            (stmt.to_string(), rows)
        })
        .collect()
}

/// Drive one server with CLIENTS threads of mixed prepared/direct
/// requests plus abrupt disconnections; verify every response against
/// the oracle; return the post-shutdown report for lockstep checks.
fn torture<P: pagestore::PageStore + Send + Sync + 'static>(
    reader: DatabaseReader<P>,
    expected: &HashMap<String, Vec<WireRow>>,
) {
    let server = Server::start(
        reader,
        ServeOptions {
            workers: 3,
            max_inflight: 16,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let statements = workload::serve::uql_families();

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let statements = statements.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9E37));
                let mut client = Client::connect(addr).unwrap();
                // Each client prepares every statement once, up front.
                let prepared: Vec<u64> = statements
                    .iter()
                    .map(|s| client.prepare(s).unwrap())
                    .collect();
                for i in 0..REQUESTS_PER_CLIENT {
                    let which = rng.gen_range(0..statements.len());
                    let stmt = statements[which];
                    let reply = if rng.gen_range(0..2) == 0 {
                        client.execute(prepared[which])
                    } else {
                        client.query(stmt)
                    };
                    match reply {
                        Ok(reply) => {
                            assert_eq!(reply.done.rows, reply.rows.len() as u64);
                            assert_eq!(
                                reply.rows, expected[stmt],
                                "client {t} request {i}: response diverged from oracle \
                                 for `{stmt}`"
                            );
                        }
                        Err(e) if e.is_overloaded() => {
                            // Legitimate shed under burst; the stream carries
                            // on and later requests still verify.
                        }
                        Err(e) => panic!("client {t} request {i} failed: {e}"),
                    }
                    // Occasionally vanish mid-conversation (~1 in 10): send
                    // a query, read nothing, drop the socket cold. The
                    // server must absorb it without leaking a worker or an
                    // admission slot.
                    if rng.gen_range(0..10) == 0 {
                        let _ =
                            client.send_raw(&serve::proto::encode_frame(&serve::Frame::Query {
                                uql: stmt.to_string(),
                            }));
                        drop(client);
                        // Reconnect; prepared ids survive the reconnect
                        // because the plan cache is server-wide.
                        client = Client::connect(addr).unwrap();
                    }
                }
            });
        }
    });

    // All clients are gone. Drain: in-flight must hit zero (workers may
    // still be finishing queries abandoned by disconnectors).
    let mut waited = 0;
    while server.inflight() > 0 && waited < 200 {
        std::thread::sleep(std::time::Duration::from_millis(10));
        waited += 1;
    }
    assert_eq!(server.inflight(), 0, "admission slots leaked");

    let report = server.shutdown();
    // Every admitted query executed; every request was a prepare, a ping,
    // a query, an execute, or was shed.
    let hist = report
        .metrics
        .histograms
        .get("serve.query_us")
        .expect("query latency histogram must exist");
    assert_eq!(hist.count, report.metrics.counter("serve.queries"));
    assert!(
        report.metrics.counter("serve.plan_cache.hits") > 0,
        "repeated statements must hit the plan cache"
    );
}

#[test]
fn torture_memory_tier() {
    let (schema, classes) = workload::serve::schema();
    let mut db = Database::with_page_size(schema, 1024, 1 << 14).unwrap();
    workload::serve::populate(&mut db, &classes, SEED, N_VEHICLES).unwrap();
    let reader = db.reader();
    let expected = oracle(&reader);
    assert!(
        expected.values().any(|rows| !rows.is_empty()),
        "oracle must produce non-empty answers"
    );
    torture(reader, &expected);
}

#[test]
fn torture_disk_tier_matches_memory_oracle() {
    // Build the same logical database on the durable tier...
    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("uindex_serve_torture_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (schema, classes) = workload::serve::schema();
    let options = DiskOptions {
        page_size: 1024,
        pool_pages: 4096,
        group_commit: 4,
        checkpoint_every: 4,
        ..DiskOptions::default()
    };
    let mut disk = DiskDatabase::create(schema, &dir, options).unwrap();
    workload::serve::populate(&mut disk, &classes, SEED, N_VEHICLES).unwrap();
    disk.commit().unwrap();

    // ...and demand bit-identical answers to the in-memory tier.
    let (schema, classes) = workload::serve::schema();
    let mut mem = Database::with_page_size(schema, 1024, 1 << 14).unwrap();
    workload::serve::populate(&mut mem, &classes, SEED, N_VEHICLES).unwrap();
    let mem_expected = oracle(&mem.reader());

    let reader = disk.reader();
    let disk_expected = oracle(&reader);
    assert_eq!(
        mem_expected, disk_expected,
        "store tiers disagree on oracle answers"
    );

    torture(reader, &disk_expected);

    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}
