//! Serving-layer load generator: drives N concurrent clients over real
//! TCP with a seeded mixed UQL stream (about half through the prepared-
//! statement path), cross-checks **every** response byte-for-byte against
//! an in-process oracle, and writes `BENCH_serve.json` (p50/p99/p999
//! latency from the telemetry log₂ histograms, plus throughput and server
//! counters) at the repo root.
//!
//! Modes:
//!
//! - default: self-hosted — build the vehicle serve workload on both
//!   store tiers, serve each from an in-process server, measure both.
//! - `--smoke`: tiny configuration, no JSON write (the CI hook).
//! - `--save-db DIR`: build the workload database, save it for
//!   `uindex-cli serve`, and exit.
//! - `--addr HOST:PORT --db DIR`: external — drive an already-running
//!   server, with the oracle rebuilt from the saved database in DIR.
//! - `--live-stats` (self-hosted only): while driving, a poller thread
//!   polls the server's `Stats` frame and asserts the sampled counters
//!   stay consistent with the client-side oracle tallies — monotone
//!   across replies, sampled ≤ live (bounded drift), and exactly equal
//!   to the verified total at quiesce. The sampled timeline is written
//!   into `BENCH_serve.json` per tier.
//! - `--chaos`: the fault-survival harness. Per tier, a calm drive
//!   baselines the stack, then the same workload runs through a
//!   deterministic TCP fault proxy ([`bench::chaos`]) with storage
//!   faults (transient I/O + silent corruption) scheduled under the
//!   live server, driven by retrying clients. The invariant is **no
//!   wrong answer, ever** — every `Ok` is byte-checked against the
//!   oracle; errors only count against availability. Writes
//!   `BENCH_chaos.json` unless `--smoke`.
//! - `--chaos-drill --cli-bin PATH`: the crash-restart drill. Serves a
//!   saved database from a real `uindex-cli serve` child process behind
//!   the proxy, SIGKILLs it mid-load, restarts it, repoints the proxy,
//!   and requires clients to reconnect, re-prepare, and keep verifying
//!   answers — proving recovery end to end over real processes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::chaos::{ChaosAction, ChaosConfig, ChaosProxy, FaultEvent};
use pagestore::{Fault, FaultHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Client, RetryClient, RetryPolicy, ServeOptions, ServeStats, Server, WireRow};
use telemetry::HistogramSnapshot;
use uindex::{Database, DatabaseReader, DiskDatabase, DiskOptions};

const SEED: u64 = 42;

#[derive(Clone, Copy)]
struct Config {
    clients: usize,
    requests_per_client: usize,
    vehicles: usize,
    workers: usize,
    max_inflight: usize,
}

impl Config {
    fn new(smoke: bool) -> Config {
        if smoke {
            Config {
                clients: 3,
                requests_per_client: 12,
                vehicles: 120,
                workers: 2,
                max_inflight: 16,
            }
        } else {
            Config {
                clients: 8,
                requests_per_client: 300,
                vehicles: 2000,
                workers: 4,
                max_inflight: 32,
            }
        }
    }
}

fn build_mem(cfg: &Config) -> Database {
    let (schema, classes) = workload::serve::schema();
    let mut db = Database::with_page_size(schema, 1024, 1 << 14).expect("mem database");
    workload::serve::populate(&mut db, &classes, SEED, cfg.vehicles).expect("populate");
    db
}

/// Expected wire rows per statement — the differential oracle. Uses the
/// identical [`WireRow::from_hit`] conversion the server uses, so any
/// divergence is a real engine/protocol bug, never an encoding artifact.
fn oracle<P: pagestore::PageStore>(reader: &DatabaseReader<P>) -> HashMap<String, Vec<WireRow>> {
    workload::serve::uql_families()
        .into_iter()
        .map(|stmt| {
            let q = reader.parse_uql(stmt).expect("oracle parse");
            let (hits, _) = reader.query(&q).expect("oracle query");
            let rows = hits
                .iter()
                .map(|h| WireRow::from_hit(h).expect("oracle row"))
                .collect();
            (stmt.to_string(), rows)
        })
        .collect()
}

struct DriveResult {
    wall_secs: f64,
    requests: u64,
    verified: u64,
    shed_seen: u64,
    latency: HistogramSnapshot,
}

/// Drive `cfg.clients` threads of mixed prepared/direct requests against
/// `addr`, verifying every successful response against the oracle.
/// Panics (non-zero exit) on the first divergence.
fn drive(addr: &str, expected: &HashMap<String, Vec<WireRow>>, cfg: &Config) -> DriveResult {
    let statements = workload::serve::uql_families();
    let started = Instant::now();
    let mut merged = telemetry::Snapshot::default();
    let mut requests = 0u64;
    let mut verified = 0u64;
    let mut shed_seen = 0u64;

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.clients {
            let statements = statements.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9E3779B9));
                let mut client = Client::connect(addr).expect("connect");
                let prepared: Vec<u64> = statements
                    .iter()
                    .map(|s| client.prepare(s).expect("prepare"))
                    .collect();
                let hist = telemetry::histogram("serve.client.latency_us");
                let (mut reqs, mut ok, mut shed) = (0u64, 0u64, 0u64);
                for i in 0..cfg.requests_per_client {
                    let which = rng.gen_range(0..statements.len());
                    let stmt = statements[which];
                    let t0 = Instant::now();
                    let reply = if rng.gen_range(0..2) == 0 {
                        client.execute(prepared[which])
                    } else {
                        client.query(stmt)
                    };
                    hist.record(t0.elapsed().as_micros() as u64);
                    reqs += 1;
                    match reply {
                        Ok(reply) => {
                            assert_eq!(
                                reply.rows, expected[stmt],
                                "client {t} request {i}: server response diverged from \
                                 oracle for `{stmt}`"
                            );
                            ok += 1;
                        }
                        Err(e) if e.is_overloaded() => shed += 1,
                        Err(e) => panic!("client {t} request {i}: {e}"),
                    }
                }
                (reqs, ok, shed, telemetry::snapshot())
            }));
        }
        for h in handles {
            let (reqs, ok, shed, snap) = h.join().expect("client thread");
            requests += reqs;
            verified += ok;
            shed_seen += shed;
            merged.merge(&snap);
        }
    });

    let latency = merged
        .histograms
        .get("serve.client.latency_us")
        .cloned()
        .unwrap_or_default();
    DriveResult {
        wall_secs: started.elapsed().as_secs_f64(),
        requests,
        verified,
        shed_seen,
        latency,
    }
}

fn latency_json(h: &HistogramSnapshot) -> String {
    let mean = h.sum.checked_div(h.count).unwrap_or(0);
    // Percentiles are bucket upper bounds — a ≤2× overestimate by
    // construction (documented in docs/bench-format.md).
    format!(
        "{{\"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}}}",
        h.count,
        mean,
        h.percentile(0.50),
        h.percentile(0.99),
        h.percentile(0.999),
    )
}

fn stats_json(s: &ServeStats) -> String {
    format!(
        "{{\"connections\": {}, \"requests\": {}, \"queries\": {}, \"shed\": {}, \
         \"rows_sent\": {}, \"plan_cache_hits\": {}, \"plan_cache_misses\": {}}}",
        s.connections,
        s.requests,
        s.queries,
        s.shed,
        s.rows_sent,
        s.plan_cache_hits,
        s.plan_cache_misses,
    )
}

fn print_tier(tier: &str, r: &DriveResult) {
    println!(
        "{tier:<5} {:>8} reqs {:>10.0} req/s  p50 {:>6}us  p99 {:>6}us  p999 {:>6}us  \
         ({} verified, {} shed)",
        r.requests,
        r.requests as f64 / r.wall_secs.max(1e-9),
        r.latency.percentile(0.50),
        r.latency.percentile(0.99),
        r.latency.percentile(0.999),
        r.verified,
        r.shed_seen,
    );
}

fn ju64(v: &telemetry::json::Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or(&telemetry::json::Json::Null);
    }
    cur.as_u64().unwrap_or(0)
}

fn jf64(v: &telemetry::json::Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur.get(key).unwrap_or(&telemetry::json::Json::Null);
    }
    cur.as_f64().unwrap_or(0.0)
}

/// One mid-run `Stats` observation.
struct Sample {
    t_ms: u64,
    tick: u64,
    cum_queries: u64,
    live_queries: u64,
    qps: f64,
    p99_us: u64,
    inflight: u64,
    shed: u64,
}

/// Mid-run timeline plus the quiesce reconciliation outcome.
struct LiveCapture {
    timeline: Vec<Sample>,
    expected: u64,
    sampled: u64,
    live: u64,
}

/// Poll `Stats` until `stop` is set, asserting every reply parses and the
/// counters are consistent: monotone across replies, and the sampled
/// cumulative tally never ahead of the live atomic (a connection thread
/// bumps the atomic *before* it folds the histogram the sampler diffs, so
/// sampled ≤ live always holds — the bounded-drift direction).
fn poll_stats(addr: &str, stop: &AtomicBool) -> Vec<Sample> {
    let mut client = Client::connect(addr).expect("stats poller connect");
    let started = Instant::now();
    let mut timeline = Vec::new();
    let mut last_cum = 0u64;
    let mut last_live = 0u64;
    while !stop.load(Ordering::Acquire) {
        let doc = client.stats(10).expect("mid-run Stats must succeed");
        let v = telemetry::json::parse(&doc).expect("StatsReply must parse");
        let cum = ju64(&v, &["cumulative", "queries"]);
        let live = ju64(&v, &["live", "queries"]);
        assert!(
            cum >= last_cum && live >= last_live,
            "stats went backwards: cum {last_cum}->{cum}, live {last_live}->{live}"
        );
        assert!(
            cum <= live,
            "sampled cumulative ({cum}) ran ahead of the live counter ({live})"
        );
        last_cum = cum;
        last_live = live;
        timeline.push(Sample {
            t_ms: started.elapsed().as_millis() as u64,
            tick: ju64(&v, &["tick"]),
            cum_queries: cum,
            live_queries: live,
            qps: jf64(&v, &["window", "qps"]),
            p99_us: ju64(&v, &["window", "query_us", "p99_us"]),
            inflight: ju64(&v, &["live", "inflight"]),
            shed: ju64(&v, &["live", "shed"]),
        });
        std::thread::sleep(Duration::from_millis(150));
    }
    timeline
}

/// After the drive quiesces, poll until the sampled cumulative tally and
/// the live counter both equal the oracle-verified total. The sampler
/// converges within a couple of its intervals; 5 s is a generous bound.
fn reconcile(addr: &str, expected: u64) -> (u64, u64) {
    let mut client = Client::connect(addr).expect("reconcile connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let doc = client.stats(0).expect("quiesce Stats must succeed");
        let v = telemetry::json::parse(&doc).expect("StatsReply must parse");
        let sampled = ju64(&v, &["cumulative", "queries"]);
        let live = ju64(&v, &["live", "queries"]);
        assert!(
            live <= expected && sampled <= expected,
            "server reports more queries ({live} live, {sampled} sampled) than the \
             oracle verified ({expected})"
        );
        if sampled == expected && live == expected {
            return (sampled, live);
        }
        assert!(
            Instant::now() < deadline,
            "stats failed to reconcile with the oracle at quiesce: \
             sampled {sampled}, live {live}, expected {expected}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Self-hosted run for one tier: start an in-process server over real
/// TCP, drive it (optionally with a live Stats poller riding along),
/// reconcile at quiesce, and shut it down cleanly.
fn run_tier<P: pagestore::PageStore + Send + Sync + 'static>(
    reader: DatabaseReader<P>,
    expected: &HashMap<String, Vec<WireRow>>,
    cfg: &Config,
    live_stats: bool,
) -> (DriveResult, ServeStats, Option<LiveCapture>) {
    let server = Server::start(
        reader,
        ServeOptions {
            workers: cfg.workers,
            max_inflight: cfg.max_inflight,
            // Fine-grained sampling so the mid-run timeline has several
            // points even in short runs, and quiesce reconciles fast.
            sample_interval: Duration::from_millis(100),
            ..ServeOptions::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    let stop_poller = Arc::new(AtomicBool::new(false));
    let poller = live_stats.then(|| {
        let addr = addr.clone();
        let stop = Arc::clone(&stop_poller);
        std::thread::spawn(move || poll_stats(&addr, &stop))
    });

    let result = drive(&addr, expected, cfg);

    stop_poller.store(true, Ordering::Release);
    let capture = poller.map(|handle| {
        let timeline = handle.join().expect("stats poller");
        let (sampled, live) = reconcile(&addr, result.verified);
        LiveCapture {
            timeline,
            expected: result.verified,
            sampled,
            live,
        }
    });

    let report = server.shutdown();
    assert_eq!(
        report.stats.shed, result.shed_seen,
        "server and clients disagree on shed count"
    );
    (result, report.stats, capture)
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

// ---------------------------------------------------------------------------
// Chaos harness: drive through the fault proxy with retrying clients while
// storage faults land under the live server. The invariant is "no wrong
// answer, ever" — surfaced errors are unavailability, never divergence.
// ---------------------------------------------------------------------------

/// Client-side retry posture under chaos: quick, bounded, seeded. The
/// read timeout matters — a corrupted length header can leave one side
/// waiting for bytes that never come, and the timeout is what turns
/// that from an eternal hang into one more retried attempt.
fn chaos_policy(thread: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        deadline: None,
        read_timeout: Some(Duration::from_millis(750)),
        jitter_seed: SEED ^ thread.wrapping_mul(0x9E37_79B9),
    }
}

/// Chaos-phase tallies. `ok` responses were all verified byte-for-byte
/// against the oracle (a mismatch panics the run); `unavailable` counts
/// requests whose retry budget was exhausted or that hit a non-retryable
/// fault — the availability cost, never a correctness one.
struct ChaosDriveResult {
    wall_secs: f64,
    attempted: u64,
    ok: u64,
    unavailable: u64,
    degraded_ok: u64,
    retries: u64,
    reconnects: u64,
    gaveup: u64,
    latency: HistogramSnapshot,
}

/// Drive the chaos phase: same seeded mixed workload as [`drive`], but
/// through [`RetryClient`]s, and tolerant of surfaced errors.
fn chaos_drive(
    addr: &str,
    expected: &HashMap<String, Vec<WireRow>>,
    cfg: &Config,
) -> ChaosDriveResult {
    let statements = workload::serve::uql_families();
    let started = Instant::now();
    let mut merged = telemetry::Snapshot::default();
    let (mut attempted, mut ok, mut unavailable, mut degraded_ok) = (0u64, 0u64, 0u64, 0u64);

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.clients {
            let statements = statements.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9E3779B9));
                let mut client = RetryClient::new(addr.to_string(), chaos_policy(t as u64));
                let prepared: Vec<serve::Stmt> =
                    statements.iter().map(|s| client.prepare(s)).collect();
                let hist = telemetry::histogram("serve.chaos.latency_us");
                let (mut att, mut okc, mut unav, mut degr) = (0u64, 0u64, 0u64, 0u64);
                for i in 0..cfg.requests_per_client {
                    let which = rng.gen_range(0..statements.len());
                    let stmt = statements[which];
                    let t0 = Instant::now();
                    let reply = if rng.gen_range(0..2) == 0 {
                        client.execute(prepared[which])
                    } else {
                        client.query(stmt)
                    };
                    hist.record(t0.elapsed().as_micros() as u64);
                    att += 1;
                    match reply {
                        Ok(reply) => {
                            assert_eq!(
                                reply.rows, expected[stmt],
                                "client {t} request {i}: WRONG ANSWER under chaos for `{stmt}`"
                            );
                            okc += 1;
                            if reply.done.degraded {
                                degr += 1;
                            }
                        }
                        // Retry budget exhausted or a non-retryable fault
                        // (e.g. the server refusing a corrupted request):
                        // an availability loss, counted and moved past.
                        Err(_) => unav += 1,
                    }
                }
                (att, okc, unav, degr, telemetry::snapshot())
            }));
        }
        for h in handles {
            let (att, okc, unav, degr, snap) = h.join().expect("chaos client thread");
            attempted += att;
            ok += okc;
            unavailable += unav;
            degraded_ok += degr;
            merged.merge(&snap);
        }
    });

    let counter = |name: &str| merged.counters.get(name).copied().unwrap_or(0);
    ChaosDriveResult {
        wall_secs: started.elapsed().as_secs_f64(),
        attempted,
        ok,
        unavailable,
        degraded_ok,
        retries: counter("serve.client.retries"),
        reconnects: counter("serve.client.reconnects"),
        gaveup: counter("serve.client.gaveup"),
        latency: merged
            .histograms
            .get("serve.chaos.latency_us")
            .cloned()
            .unwrap_or_default(),
    }
}

fn fault_tally(trace: &[FaultEvent]) -> [(&'static str, u64); 5] {
    let mut tally = [
        ("delay", 0u64),
        ("stall", 0),
        ("corrupt", 0),
        ("truncate", 0),
        ("drop", 0),
    ];
    for e in trace {
        let slot = match e.action {
            ChaosAction::Delay { .. } => 0,
            ChaosAction::Stall { .. } => 1,
            ChaosAction::CorruptBit { .. } => 2,
            ChaosAction::Truncate => 3,
            ChaosAction::Drop => 4,
        };
        tally[slot].1 += 1;
    }
    tally
}

/// One tier's chaos outcome: the calm baseline, the chaos phase, the
/// server's own ledger, and what the proxy actually injected.
struct ChaosTierReport {
    calm: DriveResult,
    chaos: ChaosDriveResult,
    stats: ServeStats,
    faults: [(&'static str, u64); 5],
    proxy_conns: u64,
}

impl ChaosTierReport {
    fn availability(&self) -> f64 {
        self.chaos.ok as f64 / self.chaos.attempted.max(1) as f64
    }
}

/// Run one tier through calm + chaos phases over a fallback-armed reader,
/// with storage faults scheduled under the live server, then verify the
/// heal path (a clean check lifts the quarantine) and the no-wrong-answer
/// ledger.
fn run_chaos_tier<P: pagestore::Scrubbable + Send + Sync + 'static>(
    tier: &str,
    db: &mut Database<P>,
    fault: FaultHandle,
    expected: &HashMap<String, Vec<WireRow>>,
    cfg: &Config,
) -> ChaosTierReport {
    let server = Server::start(
        db.reader_with_fallback(),
        ServeOptions {
            workers: cfg.workers,
            max_inflight: cfg.max_inflight,
            ..ServeOptions::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();

    // Phase 1: calm — the availability and latency baseline.
    let calm = drive(&addr, expected, cfg);

    // Phase 2: chaos. Network faults come from the proxy's seeded
    // schedule; storage faults are planted under the running server:
    // drop the page cache so the drive's reads reach the store, absorb a
    // transient burst in the pool's bounded retries, then hit silent
    // corruption mid-query — quarantining the index so the rest of the
    // phase answers (correctly) from the object-store fallback.
    let proxy = ChaosProxy::start(
        server.local_addr(),
        ChaosConfig {
            seed: SEED ^ 0x00C4_A05C,
            // Reply size tracks the vehicle count (~10 bytes/row, whole
            // families match); scale the fault gap with it so severing
            // faults land "every several requests" rather than "every
            // reply" — the phase measures survival, not pure churn.
            // Full scale (2000 vehicles) → 16 KiB; smoke → the 4 KiB floor.
            mean_gap_bytes: (cfg.vehicles as u64 * 8).max(4096),
            delay_ms: 1,
            stall_ms: 10,
            ..ChaosConfig::default()
        },
    )
    .expect("chaos proxy");
    let pool = db.index().tree().pool();
    pool.flush().expect("flush");
    pool.invalidate_cache().expect("invalidate");
    fault.inject_burst(fault.ops(), 2, Fault::IoError);
    // The read right after the one that absorbed the burst: any index of
    // two pages or more gets there (the smoke's is a handful of pages).
    fault.inject(fault.ops() + 3, Fault::BitFlip { bit: 3 });

    let chaos = chaos_drive(&proxy.local_addr().to_string(), expected, cfg);
    let proxy_conns = proxy.connections();
    let trace = proxy.shutdown();
    assert!(!trace.is_empty(), "{tier}: the chaos schedule never fired");

    // Heal: the flip was transient, so the integrity check comes back
    // clean and lifts the quarantine — the serving health-probe path.
    let report = db.check().expect("post-chaos check");
    assert!(report.clean(), "{tier}: chaos must not persist damage");
    assert!(!db.quarantined(), "{tier}: a clean check lifts quarantine");

    let sreport = server.shutdown();
    assert!(
        sreport.stats.degraded_answers >= 1,
        "{tier}: the planted corruption must degrade at least one answer"
    );
    assert_eq!(
        sreport
            .metrics
            .counters
            .get("serve.worker.panics")
            .copied()
            .unwrap_or(0),
        0,
        "{tier}: no query may panic under chaos"
    );
    assert!(chaos.ok > 0, "{tier}: nothing survived the chaos phase");
    let availability = chaos.ok as f64 / chaos.attempted.max(1) as f64;
    assert!(
        availability >= 0.5,
        "{tier}: availability collapsed under chaos: {availability:.3}"
    );

    ChaosTierReport {
        calm,
        chaos,
        stats: sreport.stats,
        faults: fault_tally(&trace),
        proxy_conns,
    }
}

fn print_chaos_tier(tier: &str, r: &ChaosTierReport) {
    println!(
        "{tier:<5} chaos: {} attempted, {} ok ({:.1}% available), {} unavailable, \
         {} degraded-ok; client {} retries / {} reconnects / {} gaveup",
        r.chaos.attempted,
        r.chaos.ok,
        r.availability() * 100.0,
        r.chaos.unavailable,
        r.chaos.degraded_ok,
        r.chaos.retries,
        r.chaos.reconnects,
        r.chaos.gaveup,
    );
    let faults: Vec<String> = r
        .faults
        .iter()
        .map(|(name, n)| format!("{name} {n}"))
        .collect();
    println!(
        "      {:.0} req/s; p99 calm {}us -> chaos {}us; server degraded answers {}; \
         proxy: {} conns, faults: {}",
        r.chaos.attempted as f64 / r.chaos.wall_secs.max(1e-9),
        r.calm.latency.percentile(0.99),
        r.chaos.latency.percentile(0.99),
        r.stats.degraded_answers,
        r.proxy_conns,
        faults.join(" "),
    );
}

fn chaos_tier_json(r: &ChaosTierReport) -> String {
    let faults: Vec<String> = r
        .faults
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!(
        "{{\n      \"availability\": {:.6},\n      \"attempted\": {}, \"ok\": {}, \
         \"unavailable\": {}, \"degraded_ok\": {},\n      \"client\": {{\"retries\": {}, \
         \"reconnects\": {}, \"gaveup\": {}}},\n      \"server\": {{\"queries\": {}, \
         \"degraded_answers\": {}, \"shed\": {}, \"connections\": {}}},\n      \
         \"latency_us\": {{\"calm_p99\": {}, \"chaos_p99\": {}}},\n      \
         \"proxy\": {{\"connections\": {}, \"faults\": {{{}}}}}\n    }}",
        r.availability(),
        r.chaos.attempted,
        r.chaos.ok,
        r.chaos.unavailable,
        r.chaos.degraded_ok,
        r.chaos.retries,
        r.chaos.reconnects,
        r.chaos.gaveup,
        r.stats.queries,
        r.stats.degraded_answers,
        r.stats.shed,
        r.stats.connections,
        r.calm.latency.percentile(0.99),
        r.chaos.latency.percentile(0.99),
        r.proxy_conns,
        faults.join(", "),
    )
}

/// Self-hosted chaos run over both tiers; writes `BENCH_chaos.json`
/// unless `smoke`.
fn run_chaos(cfg: &Config, smoke: bool) {
    println!(
        "loadgen chaos: {} clients x {} requests, {} vehicles{}",
        cfg.clients,
        cfg.requests_per_client,
        cfg.vehicles,
        if smoke { " (smoke)" } else { "" }
    );

    let mut mem = build_mem(cfg);
    let expected = oracle(&mem.reader());
    let mem_fault = mem.fault_handle();
    let mem_report = run_chaos_tier("mem", &mut mem, mem_fault, &expected, cfg);
    print_chaos_tier("mem", &mem_report);

    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("uindex_chaos_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (schema, classes) = workload::serve::schema();
    let mut disk = DiskDatabase::create(
        schema,
        &dir,
        DiskOptions {
            page_size: 1024,
            pool_pages: 1 << 14,
            ..DiskOptions::default()
        },
    )
    .expect("disk database");
    workload::serve::populate(&mut disk, &classes, SEED, cfg.vehicles).expect("populate disk");
    disk.commit().expect("commit");
    // Empty the WAL overlay so chaos-phase reads go through the page
    // file (and its fault layer), not the recovery overlay.
    disk.checkpoint().expect("checkpoint");
    let disk_fault = disk.fault_handle();
    let disk_report = run_chaos_tier("disk", &mut disk, disk_fault, &expected, cfg);
    print_chaos_tier("disk", &disk_report);
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();

    let verified = mem_report.chaos.ok + disk_report.chaos.ok;
    println!("oracle: {verified} chaos responses verified, 0 mismatches");

    if smoke {
        println!("smoke run: BENCH_chaos.json not written");
        return;
    }

    let provenance = telemetry::Provenance {
        seed: SEED,
        workload: "vehicle-serve-chaos".into(),
        objects: cfg.vehicles as u64,
        version: telemetry::tool_version(env!("CARGO_PKG_VERSION")),
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"provenance\": {},", provenance.to_json());
    let _ = writeln!(
        json,
        "  \"config\": {{\"clients\": {}, \"requests_per_client\": {}, \"vehicles\": {}, \
         \"workers\": {}, \"max_inflight\": {}}},",
        cfg.clients, cfg.requests_per_client, cfg.vehicles, cfg.workers, cfg.max_inflight,
    );
    json.push_str("  \"tiers\": {\n");
    let _ = writeln!(json, "    \"mem\": {},", chaos_tier_json(&mem_report));
    let _ = writeln!(json, "    \"disk\": {}", chaos_tier_json(&disk_report));
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"oracle\": {{\"verified_responses\": {verified}, \"mismatches\": 0}}"
    );
    json.push_str("}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_chaos.json");
    std::fs::write(&path, json).expect("write BENCH_chaos.json");
    println!("wrote {}", path.display());
}

// ---------------------------------------------------------------------------
// Crash-restart drill: SIGKILL a real `uindex-cli serve` process mid-load,
// restart it, and require clients to ride through on retries alone.
// ---------------------------------------------------------------------------

/// Spawn `uindex-cli serve DIR --port 0` and parse the listen address
/// from its stdout. The remaining output is drained in the background so
/// the child never blocks on a full pipe.
fn spawn_server(bin: &str, dir: &std::path::Path) -> (Child, SocketAddr) {
    let mut child = Command::new(bin)
        .arg("serve")
        .arg(dir)
        .arg("--port")
        .arg("0")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn uindex-cli serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before listening")
            .expect("read server stdout");
        if let Some(rest) = line.strip_prefix("listening on ") {
            break rest.trim().parse::<SocketAddr>().expect("bad listen addr");
        }
    };
    std::thread::spawn(move || for _line in lines {});
    (child, addr)
}

/// The crash-restart drill (see the module docs). `bin` is the
/// `uindex-cli` binary to serve with.
fn run_drill(bin: &str) {
    let cfg = Config {
        clients: 4,
        requests_per_client: 200,
        vehicles: 120,
        workers: 2,
        max_inflight: 16,
    };
    let mut dir = std::env::temp_dir();
    dir.push(format!("uindex_chaos_drill_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut db = build_mem(&cfg);
    let expected = oracle(&db.reader());
    db.save(&dir).expect("save drill db");

    let (mut child, addr) = spawn_server(bin, &dir);
    println!("drill: serving from {bin} at {addr}");
    // The proxy is the *stable* endpoint across the crash: clients keep
    // its address while the server's changes underneath.
    let proxy = ChaosProxy::start(
        addr,
        ChaosConfig {
            mean_gap_bytes: 0, // pure pipe; the fault here is the SIGKILL
            ..ChaosConfig::default()
        },
    )
    .expect("chaos proxy");
    let paddr = proxy.local_addr().to_string();

    // 0 = original server, 1 = restarted. Flipped by the coordinator
    // right after the proxy is repointed, so `ok_after` only counts
    // answers that must have come from the restarted process.
    let phase = AtomicU64::new(0);
    let ok_total = AtomicU64::new(0);
    let statements = workload::serve::uql_families();

    let (before, after, unavailable) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..cfg.clients {
            let statements = statements.clone();
            let (phase, ok_total, expected) = (&phase, &ok_total, &expected);
            let paddr = paddr.clone();
            handles.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(SEED ^ t as u64);
                let mut client = RetryClient::new(
                    paddr,
                    RetryPolicy {
                        max_attempts: 200,
                        base_backoff: Duration::from_millis(2),
                        max_backoff: Duration::from_millis(50),
                        deadline: Some(Duration::from_secs(30)),
                        read_timeout: Some(Duration::from_secs(2)),
                        jitter_seed: SEED ^ t as u64,
                    },
                );
                let prepared: Vec<serve::Stmt> =
                    statements.iter().map(|s| client.prepare(s)).collect();
                let (mut before, mut after, mut unav) = (0u64, 0u64, 0u64);
                for i in 0..cfg.requests_per_client {
                    let which = rng.gen_range(0..statements.len());
                    let stmt = statements[which];
                    let reply = if rng.gen_range(0..2) == 0 {
                        client.execute(prepared[which])
                    } else {
                        client.query(stmt)
                    };
                    match reply {
                        Ok(reply) => {
                            assert_eq!(
                                reply.rows, expected[stmt],
                                "client {t} request {i}: WRONG ANSWER across restart \
                                 for `{stmt}`"
                            );
                            ok_total.fetch_add(1, Ordering::Relaxed);
                            if phase.load(Ordering::Acquire) == 1 {
                                after += 1;
                            } else {
                                before += 1;
                            }
                        }
                        Err(_) => unav += 1,
                    }
                    // Pace the drive so the kill lands mid-load even on
                    // fast machines.
                    std::thread::sleep(Duration::from_micros(500));
                }
                (before, after, unav)
            }));
        }

        // Let load build, then murder the server mid-flight.
        while ok_total.load(Ordering::Relaxed) < cfg.clients as u64 * 5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        child.kill().expect("SIGKILL server");
        child.wait().expect("reap server");
        println!("drill: server SIGKILLed mid-load; restarting");
        let (child2, addr2) = spawn_server(bin, &dir);
        child = child2;
        proxy.set_upstream(addr2);
        phase.store(1, Ordering::Release);
        println!("drill: restarted at {addr2}; proxy repointed");

        let (mut before, mut after, mut unav) = (0u64, 0u64, 0u64);
        for h in handles {
            let (b, a, u) = h.join().expect("drill client");
            before += b;
            after += a;
            unav += u;
        }
        (before, after, unav)
    });

    child.kill().ok();
    child.wait().ok();
    proxy.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    assert!(before > 0, "drill: no verified answers before the kill");
    assert!(
        after > 0,
        "drill: clients failed to reconnect and verify answers after the restart"
    );
    println!(
        "drill: {before} verified before SIGKILL, {after} after restart, \
         {unavailable} unavailable during the outage, 0 mismatches"
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let live_stats = std::env::args().any(|a| a == "--live-stats");
    let cfg = Config::new(smoke);

    // --chaos-drill: SIGKILL-and-restart a real serve process mid-load.
    if std::env::args().any(|a| a == "--chaos-drill") {
        let bin = arg_value("--cli-bin").expect("--chaos-drill requires --cli-bin PATH");
        run_drill(&bin);
        return;
    }

    // --chaos: the fault-survival harness over both tiers.
    if std::env::args().any(|a| a == "--chaos") {
        run_chaos(&cfg, smoke);
        return;
    }

    // --save-db DIR: materialize the workload database and exit.
    if let Some(dir) = arg_value("--save-db") {
        let db = build_mem(&cfg);
        db.save(std::path::Path::new(&dir)).expect("save db");
        println!(
            "saved serve workload ({} vehicles, indexes color/age) to {dir}",
            cfg.vehicles
        );
        return;
    }

    // --addr: drive an external server, oracle from --db.
    if let Some(addr) = arg_value("--addr") {
        let dbdir = arg_value("--db").expect("--addr requires --db DIR for the oracle");
        let mut db = Database::open(std::path::Path::new(&dbdir)).expect("open oracle db");
        let expected = oracle(&db.reader());
        let result = drive(&addr, &expected, &cfg);
        print_tier("ext", &result);
        assert!(result.verified > 0, "no responses verified");
        println!(
            "oracle: {} responses verified against {} statements, 0 mismatches",
            result.verified,
            expected.len()
        );
        return;
    }

    // Self-hosted: both tiers, one JSON.
    println!(
        "loadgen: {} clients x {} requests, {} vehicles{}",
        cfg.clients,
        cfg.requests_per_client,
        cfg.vehicles,
        if smoke { " (smoke)" } else { "" }
    );

    let mut mem = build_mem(&cfg);
    let mem_reader = mem.reader();
    let expected = oracle(&mem_reader);
    assert!(
        expected.values().any(|rows| !rows.is_empty()),
        "oracle produced only empty answers"
    );
    let (mem_result, mem_stats, mem_capture) = run_tier(mem_reader, &expected, &cfg, live_stats);
    print_tier("mem", &mem_result);
    if let Some(c) = &mem_capture {
        println!(
            "live-stats: {} samples, reconciled exactly at quiesce ({} queries)",
            c.timeline.len(),
            c.expected
        );
    }

    let mut dir: PathBuf = std::env::temp_dir();
    dir.push(format!("uindex_loadgen_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (schema, classes) = workload::serve::schema();
    let mut disk = DiskDatabase::create(
        schema,
        &dir,
        DiskOptions {
            page_size: 1024,
            pool_pages: 1 << 14,
            ..DiskOptions::default()
        },
    )
    .expect("disk database");
    workload::serve::populate(&mut disk, &classes, SEED, cfg.vehicles).expect("populate disk");
    disk.commit().expect("commit");
    let disk_reader = disk.reader();
    let disk_expected = oracle(&disk_reader);
    assert_eq!(
        expected, disk_expected,
        "store tiers disagree on oracle answers"
    );
    let (disk_result, disk_stats, disk_capture) =
        run_tier(disk_reader, &expected, &cfg, live_stats);
    print_tier("disk", &disk_result);
    if let Some(c) = &disk_capture {
        println!(
            "live-stats: {} samples, reconciled exactly at quiesce ({} queries)",
            c.timeline.len(),
            c.expected
        );
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();

    let total_verified = mem_result.verified + disk_result.verified;
    println!(
        "oracle: {} responses verified against {} statements, 0 mismatches",
        total_verified,
        expected.len()
    );

    if smoke {
        println!("smoke run: BENCH_serve.json not written");
        return;
    }

    let provenance = telemetry::Provenance {
        seed: SEED,
        workload: "vehicle-serve".into(),
        objects: cfg.vehicles as u64,
        version: telemetry::tool_version(env!("CARGO_PKG_VERSION")),
    };
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"provenance\": {},", provenance.to_json());
    let _ = writeln!(
        json,
        "  \"config\": {{\"clients\": {}, \"requests_per_client\": {}, \"vehicles\": {}, \
         \"workers\": {}, \"max_inflight\": {}, \"statements\": {}}},",
        cfg.clients,
        cfg.requests_per_client,
        cfg.vehicles,
        cfg.workers,
        cfg.max_inflight,
        expected.len(),
    );
    json.push_str("  \"tiers\": {\n");
    for (i, (tier, result, stats, capture)) in [
        ("mem", &mem_result, &mem_stats, &mem_capture),
        ("disk", &disk_result, &disk_stats, &disk_capture),
    ]
    .into_iter()
    .enumerate()
    {
        let _ = writeln!(json, "    \"{tier}\": {{");
        let _ = writeln!(
            json,
            "      \"throughput_rps\": {:.1},",
            result.requests as f64 / result.wall_secs.max(1e-9)
        );
        let _ = writeln!(
            json,
            "      \"latency_us\": {},",
            latency_json(&result.latency)
        );
        let trailer = if capture.is_some() { "," } else { "" };
        let _ = writeln!(json, "      \"server\": {}{trailer}", stats_json(stats));
        if let Some(c) = capture {
            json.push_str("      \"timeline\": [\n");
            for (j, s) in c.timeline.iter().enumerate() {
                let _ = writeln!(
                    json,
                    "        {{\"t_ms\": {}, \"tick\": {}, \"cum_queries\": {}, \
                     \"live_queries\": {}, \"qps\": {:.3}, \"p99_us\": {}, \
                     \"inflight\": {}, \"shed\": {}}}{}",
                    s.t_ms,
                    s.tick,
                    s.cum_queries,
                    s.live_queries,
                    s.qps,
                    s.p99_us,
                    s.inflight,
                    s.shed,
                    if j + 1 == c.timeline.len() { "" } else { "," },
                );
            }
            json.push_str("      ],\n");
            let _ = writeln!(
                json,
                "      \"reconcile\": {{\"expected\": {}, \"sampled\": {}, \"live\": {}, \
                 \"exact\": {}}}",
                c.expected,
                c.sampled,
                c.live,
                c.sampled == c.expected && c.live == c.expected,
            );
        }
        json.push_str(if i == 0 { "    },\n" } else { "    }\n" });
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"oracle\": {{\"statements\": {}, \"verified_responses\": {}, \"mismatches\": 0}}",
        expected.len(),
        total_verified,
    );
    json.push_str("}\n");

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_serve.json");
    std::fs::write(&path, json).expect("write BENCH_serve.json");
    println!("wrote {}", path.display());
}
