//! The oracle-checked wire driver shared by the `loadgen` binary (external
//! server, SIGKILL drill) and `tests/chaos_phases.rs`: a seeded mixed UQL
//! stream over real TCP, about half through the prepared-statement path,
//! with **every** `Ok` reply compared byte-for-byte against an in-process
//! oracle. A mismatch panics; errors are handed to the caller, who decides
//! whether they are failures (a calm server) or only unavailability (chaos).

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use btree::BTreeConfig;
use pagestore::{ChecksumStore, MemStore, PageStore, TRAILER_LEN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{QueryReply, RetryClient, RetryPolicy, ServeError, Stmt, WireRow};
use uindex::{Database, DatabaseReader, DiskDatabase, DiskOptions};

pub const SEED: u64 = 42;
/// Vehicles in the serve workload database every caller builds.
pub const VEHICLES: usize = 120;

/// Expected wire rows per statement.
pub type Expected = HashMap<String, Vec<WireRow>>;

/// The serve workload in memory — what every oracle is computed from.
pub fn build_mem() -> Database {
    build_mem_over(MemStore::new(1024 + TRAILER_LEN))
}

/// [`build_mem`] with `inner` under the checksum layer (a test puts a
/// fault layer there).
pub fn build_mem_over<S: PageStore>(inner: S) -> Database<ChecksumStore<S>> {
    let (schema, classes) = workload::serve::schema();
    let mut db =
        Database::over_store(schema, inner, 1 << 14, BTreeConfig::default()).expect("mem database");
    workload::serve::populate(&mut db, &classes, SEED, VEHICLES).expect("populate");
    db
}

/// The same workload as a database directory, for `uindex-cli serve` or
/// an in-process server over files. Committed and checkpointed: the WAL
/// overlay is empty, so reads go through the page file (and its fault
/// layer), not the recovery overlay.
pub fn build_disk(dir: &Path) -> DiskDatabase {
    let (schema, classes) = workload::serve::schema();
    let options = DiskOptions {
        page_size: 1024,
        pool_pages: 1 << 14,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(schema, dir, options).expect("disk database");
    workload::serve::populate(&mut db, &classes, SEED, VEHICLES).expect("populate disk");
    db.checkpoint().expect("checkpoint");
    db
}

/// The differential oracle. Uses the identical [`WireRow::from_hit`]
/// conversion the server uses, so any divergence is a real engine/protocol
/// bug, never an encoding artifact.
pub fn oracle<P: PageStore>(reader: &DatabaseReader<P>) -> Expected {
    let expected: Expected = workload::serve::uql_families()
        .into_iter()
        .map(|stmt| {
            let q = reader.parse_uql(stmt).expect("oracle parse");
            let (hits, _) = reader.query(&q).expect("oracle query");
            let rows = hits.iter().map(WireRow::from_hit).collect();
            (stmt.to_string(), rows)
        })
        .collect();
    assert!(
        expected.values().any(|rows| !rows.is_empty()),
        "oracle produced only empty answers"
    );
    expected
}

/// How hard to drive: `clients` threads of `requests_per_client` requests
/// each, sleeping `pace` between requests.
pub struct Load {
    pub clients: usize,
    pub requests_per_client: usize,
    pub pace: Duration,
}

/// What a drive saw. Every one of the `ok` replies matched the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
}

/// `on_reply` for a server that has no excuse: any error other than an
/// admission shed fails the run.
pub fn strict(reply: Result<&QueryReply, &ServeError>) {
    if let Err(e) = reply {
        assert!(e.is_overloaded(), "request failed on a calm server: {e}");
    }
}

/// Drive `addr` with `load`, each client retrying under `policy`
/// ([`RetryPolicy::none`] for a plain single-attempt client). Panics on
/// the first `Ok` reply that differs from `expected`; `on_reply` sees every
/// outcome after that check.
pub fn drive(
    addr: &str,
    expected: &Expected,
    load: &Load,
    policy: &RetryPolicy,
    on_reply: impl Fn(Result<&QueryReply, &ServeError>) + Sync,
) -> Tally {
    let statements = workload::serve::uql_families();
    let (statements, on_reply) = (&statements, &on_reply);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..load.clients as u64)
            .map(|t| {
                scope.spawn(move || {
                    let seed = SEED ^ t.wrapping_mul(0x9E37_79B9);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let policy = RetryPolicy {
                        jitter_seed: seed,
                        ..policy.clone()
                    };
                    let mut client = RetryClient::new(addr, policy);
                    let prepared: Vec<Stmt> =
                        statements.iter().map(|s| client.prepare(s)).collect();
                    let mut ok = 0u64;
                    for i in 0..load.requests_per_client {
                        let which = rng.gen_range(0..statements.len());
                        let stmt = statements[which];
                        let reply = if rng.gen_range(0..2) == 0 {
                            client.execute(prepared[which])
                        } else {
                            client.query(stmt)
                        };
                        if let Ok(reply) = &reply {
                            assert_eq!(
                                reply.rows, expected[stmt],
                                "client {t} request {i}: WRONG ANSWER for `{stmt}`"
                            );
                            ok += 1;
                        }
                        on_reply(reply.as_ref());
                        if !load.pace.is_zero() {
                            std::thread::sleep(load.pace);
                        }
                    }
                    ok
                })
            })
            .collect();
        Tally {
            attempted: (load.clients * load.requests_per_client) as u64,
            ok: handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .sum(),
        }
    })
}
