//! `serve_point` and `serve_rows`: closed-loop wire clients against an
//! in-process server over the in-memory vehicle database. The two differ
//! only in the statements sent — one row or ten per reply, or about two
//! thousand — and so in which part of the serve layer dominates.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::Instant;

use crate::gen::{self, Digest, Statement};
use crate::harness::{
    ns_per_call, repeat_setup, run_rounds, telemetry_layers, timed, trace_overhead_frac, Ctx,
    Outcome, Tally,
};
use crate::stats::{self, Round};
use crate::sut::{self, Reader, VehicleDb, WireClient, WireError, WireReply};
use crate::trace::Recorder;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Rows,
}

/// Frozen sizes. `*_ops` is requests per client per round.
struct Sizes {
    vehicles: usize,
    workers: usize,
    point_pool: (usize, usize),
    point_ops: usize,
    rows_pool: usize,
    rows_ops: usize,
    setups: usize,
    pings: u64,
}

const FULL: Sizes = Sizes {
    vehicles: 50_000,
    workers: 2,
    point_pool: (512, 128),
    point_ops: 4_000,
    rows_pool: 64,
    rows_ops: 250,
    setups: 3,
    pings: 5_000,
};

const SMOKE: Sizes = Sizes {
    vehicles: 2_500,
    workers: 2,
    point_pool: (64, 16),
    point_ops: 300,
    rows_pool: 16,
    rows_ops: 40,
    setups: 1,
    pings: 200,
};

/// One client connection with everything its thread touches.
struct ClientState {
    client: WireClient,
    /// Indices into the statement pool, the same every round.
    stream: Vec<u32>,
    recorder: Recorder,
    next_op: u64,
    tally: Tally,
    pages: u64,
    entries: u64,
    rows: u64,
}

struct Pool {
    uql: Vec<String>,
    expected: Vec<Digest>,
}

pub fn run(ctx: &Ctx, kind: Kind) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    let clients = ctx.prov.clients();
    let pop = gen::population(sizes.vehicles, ctx.seed);

    let ((mut db, server), setup_s) = repeat_setup(sizes.setups, || {
        timed(|| {
            let mut db = sut::build_vehicle_db(&pop);
            let server = sut::start_server(db.reader(), sizes.workers);
            (db, server)
        })
    });

    let (statements, ops): (Vec<Statement>, usize) = match kind {
        Kind::Point => (
            gen::point_pool(
                sizes.vehicles,
                sizes.point_pool.0,
                sizes.point_pool.1,
                ctx.seed,
            ),
            sizes.point_ops,
        ),
        Kind::Rows => (
            gen::rows_pool(sizes.vehicles, sizes.rows_pool, &pop, ctx.seed),
            sizes.rows_ops,
        ),
    };
    let pool = Pool {
        uql: statements.iter().map(Statement::uql).collect(),
        expected: statements
            .iter()
            .map(|s| s.expect(&pop, db.oids()))
            .collect(),
    };

    let origin = Instant::now();
    let mut states: Vec<ClientState> = (0..clients)
        .map(|c| {
            let seed = ctx.seed.wrapping_add(c as u64 + 1);
            ClientState {
                client: WireClient::connect(server.addr()),
                stream: match kind {
                    Kind::Point => {
                        gen::point_stream(sizes.point_pool.0, sizes.point_pool.1, ops, seed)
                    }
                    Kind::Rows => gen::uniform_stream(pool.uql.len(), ops, seed),
                },
                recorder: Recorder::new(origin),
                next_op: (c as u64) << 40,
                tally: Tally::default(),
                pages: 0,
                entries: 0,
                rows: 0,
            }
        })
        .collect();

    // Warm-up: parses every statement into the plan cache.
    one_round(&mut states, &pool, false);
    for s in &mut states {
        (s.tally, s.pages, s.entries, s.rows) = (Tally::default(), 0, 0, 0);
    }

    let rounds = run_rounds(ctx, |traced| one_round(&mut states, &pool, traced));
    let summary = stats::summarize(&rounds.untraced);

    let mut tally = Tally::default();
    states.iter().for_each(|s| tally.merge(s.tally));
    let pages: u64 = states.iter().map(|s| s.pages).sum();
    let entries: u64 = states.iter().map(|s| s.entries).sum();
    let rows: u64 = states.iter().map(|s| s.rows).sum();
    let wall_s: f64 = rounds
        .untraced
        .iter()
        .chain(&rounds.traced)
        .map(|r| r.wall_ns as f64 / 1e9)
        .sum();

    let mut layers = BTreeMap::new();
    if ctx.trace {
        layers.insert("trace.overhead_frac", trace_overhead_frac(&rounds));
        layers.insert("serve.rows_per_s", rows as f64 / wall_s);
        layers.insert(
            "uindex.scan.entries_per_result",
            entries as f64 / rows.max(1) as f64,
        );
        let mut first_frame = Vec::new();
        let mut drain = Vec::new();
        for s in &states {
            first_frame.extend(s.recorder.durations_ns("serve.first_frame_wait"));
            drain.extend(s.recorder.durations_ns("serve.drain"));
        }
        layers.insert("serve.first_frame_p50_us", stats::p50_us(&mut first_frame));
        layers.insert("serve.drain_p50_us", stats::p50_us(&mut drain));
        let recorders: Vec<Recorder> = states
            .iter_mut()
            .map(|s| std::mem::replace(&mut s.recorder, Recorder::new(origin)))
            .collect();
        ctx.write_trace(&recorders);
        serve_layers(
            sizes,
            &mut states[0],
            &mut db,
            &pool,
            summary.p50_us,
            &mut layers,
        );
        telemetry_layers(&mut layers, ctx.smoke);
    }

    let space_bytes_per_object = db.stored_bytes() as f64 / sizes.vehicles as f64;
    drop(states);
    let totals = server.shutdown();
    if ctx.trace {
        layers.insert(
            "serve.cache.hit_rate",
            totals.plan_cache_hits as f64
                / (totals.plan_cache_hits + totals.plan_cache_misses).max(1) as f64,
        );
        layers.insert(
            "serve.shed_per_op",
            totals.shed as f64 / totals.queries.max(1) as f64,
        );
        layers.insert(
            "pagestore.pool.hit_rate",
            totals.pool_hits as f64 / (totals.pool_hits + totals.pool_misses).max(1) as f64,
        );
        layers.insert(
            "pagestore.pool.physical_reads_per_op",
            totals.pool_misses as f64 / totals.queries.max(1) as f64,
        );
    }

    Outcome {
        tally,
        summary,
        setup_s,
        pages_per_op: pages as f64 / tally.attempted as f64,
        space_bytes_per_object,
        layers,
        sizes: format!(
            "{} vehicles in memory, {} companies, indexes color/age/serial; server workers {}, \
             other options default; {clients} closed-loop clients x {ops} requests per round \
             from {} distinct statements{}; set-up = populate + define indexes + reader + \
             server start, median of {}",
            sizes.vehicles,
            gen::COMPANIES,
            sizes.workers,
            pool.uql.len(),
            match kind {
                Kind::Point => " (4:1 unique-key probes to 10-row ranges)",
                Kind::Rows => " (serial ranges and age: statements of ~vehicles/25 rows)",
            },
            sizes.setups,
        ),
    }
}

/// Every client runs its stream once, all starting together. The round's
/// wall time runs from the common start to the last client's finish.
fn one_round(states: &mut [ClientState], pool: &Pool, traced: bool) -> Round {
    let barrier = Barrier::new(states.len() + 1);
    let (samples, wall_ns) = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let barrier = &barrier;
                scope.spawn(move || {
                    state.recorder.enabled = traced;
                    barrier.wait();
                    client_round(state, pool)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let samples: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        (samples, start.elapsed().as_nanos() as u64)
    });
    Round {
        callers: states.len() as u64,
        wall_ns,
        samples_ns: samples,
    }
}

fn client_round(state: &mut ClientState, pool: &Pool) -> Vec<u64> {
    let mut samples = Vec::with_capacity(state.stream.len());
    for i in 0..state.stream.len() {
        let stmt = state.stream[i] as usize;
        let op = state.next_op;
        state.next_op += 1;
        let rec = &mut state.recorder;
        let op_span = rec.begin("op", op);
        let start = Instant::now();
        let reply = if rec.enabled {
            traced_query(&mut state.client, rec, op, &pool.uql[stmt])
        } else {
            state.client.query(&pool.uql[stmt])
        };
        samples.push(start.elapsed().as_nanos() as u64);

        let verify_span = rec.begin("verify", op);
        state.tally.attempted += 1;
        match reply {
            Ok(reply) => {
                state.pages += reply.pages_read;
                state.entries += reply.entries_examined;
                state.rows += reply.rows();
                if reply.digest() != pool.expected[stmt] {
                    state.tally.failed += 1;
                    state.tally.wrong += 1;
                }
            }
            // Shed, timed out or errored: counted, not fatal.
            Err(e) => {
                if state.tally.failed == 0 {
                    eprintln!("request {:?} failed: {e}", pool.uql[stmt]);
                }
                state.tally.failed += 1;
            }
        }
        rec.end(verify_span);
        rec.end(op_span);
    }
    samples
}

/// What `Client::query` does, taken apart so that each step has a span.
fn traced_query(
    client: &mut WireClient,
    rec: &mut Recorder,
    op: u64,
    uql: &str,
) -> Result<WireReply, WireError> {
    let bytes = rec.span("serve.proto.encode", op, || sut::encode_query(uql));
    rec.span("serve.client.write", op, || client.write(&bytes))?;
    let mut reply = WireReply::default();
    let mut done = rec.span("serve.first_frame_wait", op, || {
        client.read_frame(&mut reply)
    })?;
    rec.span("serve.drain", op, || {
        while !done {
            done = client.read_frame(&mut reply)?;
        }
        Ok::<(), WireError>(())
    })?;
    Ok(reply)
}

/// Single-layer passes of the serve workloads, on the state the rounds ran
/// on: what a request costs without the wire, what the wire costs without
/// a query, and the serve layer's pieces one at a time.
fn serve_layers(
    sizes: &Sizes,
    state: &mut ClientState,
    db: &mut VehicleDb,
    pool: &Pool,
    client_p50_us: f64,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let client = &mut state.client;
    let mut pings = Vec::with_capacity(sizes.pings as usize);
    for _ in 0..sizes.pings {
        let start = Instant::now();
        client.ping().expect("ping an idle server");
        pings.push(start.elapsed().as_nanos() as u64);
    }
    layers.insert("serve.ping_rtt_p50_us", stats::p50_us(&mut pings));

    // The server's own view. Its sampler folds worker counters in once a
    // second, so give it one tick to see the last round.
    std::thread::sleep(std::time::Duration::from_millis(1100));
    let doc = client.stats(120).expect("Stats frame");
    for (name, key) in [
        ("serve.server.query_p50_us", "p50_us"),
        ("serve.server.query_p99_us", "p99_us"),
    ] {
        let v = doc.f64_at(&["window", "query_us", key]);
        layers.insert(name, v.expect("Stats reply has window.query_us"));
    }

    // The same statements without the wire: the floor under client latency.
    let reader: Reader = db.reader();
    let mut inproc = Vec::with_capacity(state.stream.len());
    for &stmt in &state.stream {
        let start = Instant::now();
        let hits = reader.query_uql(&pool.uql[stmt as usize]);
        inproc.push(start.elapsed().as_nanos() as u64);
        let hits = hits.expect("in-process query");
        assert_eq!(
            hits.digest(),
            pool.expected[stmt as usize],
            "in-process answer differs from the truth"
        );
    }
    let inproc_p50_us = stats::p50_us(&mut inproc);
    layers.insert("uindex.query.inproc_p50_us", inproc_p50_us);
    layers.insert("serve.overhead_p50_us", client_p50_us - inproc_p50_us);
    layers.insert(
        "serve.overhead_frac",
        (client_p50_us - inproc_p50_us) / client_p50_us,
    );
    let n = pool.uql.len() as u64;
    layers.insert(
        "uindex.uql.parse_us",
        ns_per_call(n * 50, |i| {
            reader
                .parse(&pool.uql[(i % n) as usize])
                .expect("statement parses")
        }) / 1e3,
    );

    let cache = sut::plan_cache_probe(reader, &pool.uql);
    layers.insert(
        "serve.cache.lookup_ns",
        ns_per_call(n * 200, |i| cache.lookup(&pool.uql[(i % n) as usize])),
    );
    let gate = sut::admission_probe();
    layers.insert(
        "serve.admission.try_admit_ns",
        ns_per_call(1_000_000.min(sizes.pings * 200), |_| gate.admit()),
    );

    // Row encode/decode on this workload's largest real reply.
    let largest = (0..pool.uql.len())
        .max_by_key(|&i| pool.expected[i].rows)
        .expect("non-empty pool");
    let reply = client.query(&pool.uql[largest]).expect("query for rows");
    let batches = reply.into_batches();
    let rows: usize = batches.iter().map(sut::RowBatch::rows).sum();
    let encoded: Vec<Vec<u8>> = batches.iter().map(sut::RowBatch::encode).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let reps = (200_000 / rows.max(1)).max(10) as u64;
    let b = batches.len() as u64;
    let encode_ns = ns_per_call(reps * b, |i| {
        std::hint::black_box(batches[(i % b) as usize].encode());
    });
    let decode_ns = ns_per_call(reps * b, |i| sut::decode_frame(&encoded[(i % b) as usize]));
    let rows_per_batch = rows as f64 / b as f64;
    layers.insert("serve.proto.encode_ns_per_row", encode_ns / rows_per_batch);
    layers.insert("serve.proto.decode_ns_per_row", decode_ns / rows_per_batch);
    layers.insert("serve.proto.bytes_per_row", bytes as f64 / rows as f64);
}
