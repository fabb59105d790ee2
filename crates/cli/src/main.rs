//! The `uindex-cli` binary. Commands:
//!
//! ```text
//! uindex-cli new     <db-dir> <schema.uschema> [data.udata]
//! uindex-cli load    <db-dir> <data.udata>
//! uindex-cli query   <db-dir> '<uql>'
//! uindex-cli explain <db-dir> '<uql>' [--json]
//! uindex-cli info    <db-dir>
//! uindex-cli check   <db-dir>
//! uindex-cli repair  <db-dir>
//! uindex-cli churn   <db-dir> <Class> <Attr> <n-commits>
//! uindex-cli serve   <db-dir> [--port N] [--workers N] [--max-inflight N]
//!                             [--shutdown-file PATH] [--slow-query-us N]
//!                             [--sample-interval-ms N] [--read-deadline-ms N]
//! uindex-cli top     <addr>   [--window N] [--once] [--json]
//! uindex-cli slow    <addr>
//! ```
//!
//! `new` creates a file-backed, WAL-protected database (see
//! [`uindex::DiskDatabase`]) and every other command that takes a db-dir
//! opens one: replay the WAL, scrub checksums, verify the tree before
//! serving (any salvage is reported on stderr). `load` commits and
//! checkpoints what it loaded.
//!
//! `explain` runs EXPLAIN ANALYZE: it executes the query and prints the
//! translated plan, the executed cost counters and the phase span tree,
//! as text or (with `--json`) as a machine-readable report.
//!
//! `check` scrubs every index page (checksum trailers), verifies the
//! B-tree structurally, and cross-checks the entries against the object
//! store; it exits non-zero when damage is found. `repair` rebuilds the
//! index from the object store (the source of truth) via the bulk loader.
//!
//! `churn` runs a commit-per-object write loop — the crash smoke's
//! target: SIGKILL it mid-commit, reopen, `check` must be green.
//!
//! `serve` opens the database read-only, starts the UQL
//! wire-protocol server (see the `serve` crate) on the given port (0 =
//! ephemeral; the chosen address is printed as `listening on ADDR`), and
//! runs until the `--shutdown-file` path appears — the orchestration
//! hook: touch the file, the server drains and prints its summary. Every
//! request runs on its connection's thread; `--workers` bounds how many
//! execute at once, `--max-inflight` how many may be admitted (executing
//! or waiting) before further ones are shed with `Overloaded`.
//!
//! `top` connects to a *running* server and polls the `Stats` frame every
//! second, rendering a one-screen live dashboard (plain ANSI). `--once`
//! polls a single time and exits; with `--json` it prints the raw
//! `StatsReply` document instead — the scripting/CI entry point. `slow`
//! dumps the server's slow-query log: each retained entry's summary line
//! followed by its full `Trace` document (the after-the-fact EXPLAIN
//! ANALYZE). Both talk to an address, not a db-dir — they observe a live
//! process and never open the database files.

use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use objstore::Value;
use schema::AttrType;
use uindex::DiskDatabase;
use uindex_cli::{build_database, load_data};

/// Set by the SIGINT/SIGTERM handler; `serve` polls it and drains — the
/// same graceful path as the shutdown file.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to the drain flag. Raw `signal(2)` via FFI —
/// no crate dependency, and an atomic store is async-signal-safe.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is libc's, declared with its C signature (an `int`
    // and a handler the width of a pointer, returning the previous one);
    // the handler is an `extern "C" fn(i32)` that lives for the whole
    // program and only stores to an atomic, which is async-signal-safe.
    unsafe {
        signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
        signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn open_disk(dir: &str) -> Result<DiskDatabase, String> {
    let (db, report) = DiskDatabase::open(Path::new(dir)).map_err(|e| e.to_string())?;
    if let Some(r) = &report.recovery {
        if r.truncated() {
            eprintln!(
                "recovery: dropped {} uncommitted record(s), {} corrupt tail byte(s)",
                r.dropped_records, r.corrupt_tail_bytes
            );
        }
    }
    if report.rebuilt {
        eprintln!("salvage: index rebuilt from the object pages");
    }
    Ok(db)
}

fn print_hits(db: &DiskDatabase, hits: &[uindex::QueryHit]) {
    for h in hits {
        let objs: Vec<String> = h
            .key
            .path
            .iter()
            .map(|e| {
                let class = db
                    .index()
                    .encoding()
                    .class_by_code(&e.code)
                    .map(|c| db.schema().class_name(c).to_string())
                    .unwrap_or_else(|| "?".into());
                format!("{}={}", class, e.oid)
            })
            .collect();
        println!("{:?}\t{}", h.key.value, objs.join("\t"));
    }
}

fn cmd_query(db: &DiskDatabase, uql: &str) -> Result<(), String> {
    let (hits, stats) = db.query_uql(uql).map_err(|e| e.to_string())?;
    print_hits(db, &hits);
    eprintln!(
        "{} hits, {} pages read, {} seeks",
        hits.len(),
        stats.pages_read,
        stats.seeks
    );
    Ok(())
}

fn cmd_explain(db: &DiskDatabase, uql: &str, json: bool) -> Result<(), String> {
    let report = db.explain_uql(uql).map_err(|e| e.to_string())?;
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    Ok(())
}

fn cmd_info(db: &DiskDatabase) -> Result<(), String> {
    println!("classes:");
    for class in db.schema().class_ids() {
        let code = db
            .index()
            .encoding()
            .code(class)
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<24} code {:<12} {} direct objects",
            db.schema().class_name(class),
            code,
            db.store().extent(class).len()
        );
    }
    println!("indexes:");
    for (i, spec) in db.index().specs().iter().enumerate() {
        let path: Vec<&str> = spec
            .positions
            .iter()
            .map(|p| db.schema().class_name(p.class))
            .collect();
        println!("  [{i}] {} over {}", spec.name, path.join("/"));
    }
    let stats = db.index().verify().map_err(|e| e.to_string())?;
    println!(
        "B-tree: {} entries, {} nodes ({} leaves), height {}",
        stats.entries,
        stats.total_nodes(),
        stats.leaf_nodes,
        stats.height
    );
    Ok(())
}

fn cmd_check(db: &mut DiskDatabase, dir: &str) -> Result<(), String> {
    let report = db.check().map_err(|e| e.to_string())?;
    println!("scrub:   {} pages examined", report.scrub.pages);
    for err in &report.scrub.errors {
        println!("  damaged: {err}");
    }
    match &report.tree_error {
        None => println!("tree:    ok"),
        Some(e) => println!("tree:    FAILED: {e}"),
    }
    println!(
        "content: {}",
        if report.content_ok {
            "matches object store"
        } else {
            "MISMATCH against object store"
        }
    );
    if report.clean() {
        println!("status:  clean");
        Ok(())
    } else {
        println!("status:  QUARANTINED (queries degrade to object-store scans)");
        Err(format!(
            "integrity check failed: {} damaged page(s); run `uindex-cli repair {dir}`",
            report.scrub.errors.len()
        ))
    }
}

/// Serve a database until the shutdown file appears or SIGINT/SIGTERM
/// arrives, then drain and print the lifetime summary. The server runs
/// over a fallback-armed reader, so storage faults degrade answers to
/// object-store scans instead of killing queries; while quarantined, a
/// once-per-second health probe re-runs the integrity check and lifts
/// the quarantine as soon as the store reads clean again.
fn cmd_serve(
    db: &mut DiskDatabase,
    options: serve::ServeOptions,
    shutdown_file: Option<&str>,
) -> Result<(), String> {
    install_signal_handlers();
    let server =
        serve::Server::start(db.reader_with_fallback(), options).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    let mut ticks: u64 = 0;
    let drain_reason = loop {
        if SIGNALLED.load(Ordering::SeqCst) {
            break "signal received".to_string();
        }
        if let Some(path) = shutdown_file {
            if Path::new(path).exists() {
                break format!("shutdown file {path} appeared");
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        ticks += 1;
        if ticks.is_multiple_of(10) && db.quarantined() {
            // Health probe: a clean check lifts the quarantine live.
            match db.check() {
                Ok(r) if r.clean() => {
                    eprintln!("health probe: integrity check clean; quarantine lifted")
                }
                Ok(r) => eprintln!(
                    "health probe: still degraded ({} damaged page(s))",
                    r.scrub.errors.len()
                ),
                Err(e) => eprintln!("health probe: check failed: {e}"),
            }
        }
    };
    eprintln!("{drain_reason}; draining");
    let m = server.shutdown().metrics;
    let c = |name| m.counter(name);
    println!(
        "served {} requests ({} queries, {} shed, {} proto errors, {} degraded, {} rows) \
         over {} connections; plan cache {} hits / {} misses",
        c("serve.requests"),
        c("serve.queries"),
        c("serve.shed"),
        c("serve.proto_errors"),
        c("serve.degraded_answers"),
        m.histograms.get("serve.rows").map_or(0, |h| h.sum),
        c("serve.connections"),
        c("serve.plan_cache.hits"),
        c("serve.plan_cache.misses")
    );
    Ok(())
}

/// JSON path lookup helpers for the StatsReply document.
fn jget<'a>(v: &'a telemetry::json::Json, path: &[&str]) -> Option<&'a telemetry::json::Json> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    Some(cur)
}

fn jf64(v: &telemetry::json::Json, path: &[&str]) -> f64 {
    jget(v, path).and_then(|x| x.as_f64()).unwrap_or(0.0)
}

fn ju64(v: &telemetry::json::Json, path: &[&str]) -> u64 {
    jget(v, path).and_then(|x| x.as_u64()).unwrap_or(0)
}

/// Render one StatsReply as the `top` dashboard screen.
fn render_top(addr: &str, v: &telemetry::json::Json) {
    println!(
        "uindex top — {addr}    tick {} (interval {} ms)",
        ju64(v, &["tick"]),
        ju64(v, &["interval_ms"])
    );
    println!(
        "window {}s ({} ticks): qps {:.1}  rows/s {:.1}  \
         query µs p50 {} / p99 {} / p999 {} (mean {})",
        ju64(v, &["window", "requested_s"]),
        ju64(v, &["window", "ticks"]),
        jf64(v, &["window", "qps"]),
        jf64(v, &["window", "rows_per_s"]),
        ju64(v, &["window", "query_us", "p50_us"]),
        ju64(v, &["window", "query_us", "p99_us"]),
        ju64(v, &["window", "query_us", "p999_us"]),
        ju64(v, &["window", "query_us", "mean_us"]),
    );
    println!(
        "pool hit rate {:.1}% ({} hits / {} misses)    plan cache {:.1}% ({} / {})",
        jf64(v, &["window", "pool", "hit_rate"]) * 100.0,
        ju64(v, &["window", "pool", "hits"]),
        ju64(v, &["window", "pool", "misses"]),
        jf64(v, &["live", "plan_cache_hit_rate"]) * 100.0,
        ju64(v, &["live", "plan_cache_hits"]),
        ju64(v, &["live", "plan_cache_misses"]),
    );
    let degraded = jget(v, &["live", "degraded"])
        .and_then(|d| d.as_bool())
        .unwrap_or(false);
    println!(
        "live: inflight {}/{}  queued {}  shed {}  queries {}  conns {}  \
         proto-errors {}  deadline-closed {}  degraded-answers {}{}",
        ju64(v, &["live", "inflight"]),
        ju64(v, &["live", "max_inflight"]),
        ju64(v, &["live", "queued"]),
        ju64(v, &["live", "shed"]),
        ju64(v, &["live", "queries"]),
        ju64(v, &["live", "connections"]),
        ju64(v, &["live", "proto_errors"]),
        ju64(v, &["live", "deadline_closed"]),
        ju64(v, &["live", "degraded_answers"]),
        if degraded { "  [DEGRADED]" } else { "" },
    );
    if let Some(workers) = v.get("workers").and_then(|w| w.as_arr()) {
        let cells: Vec<String> = workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                format!(
                    "w{i}: {}q {}ms",
                    ju64(w, &["queries"]),
                    ju64(w, &["busy_us"]) / 1000
                )
            })
            .collect();
        println!("workers: {}", cells.join("  "));
    }
    if let Some(slow) = v.get("slow").and_then(|s| s.as_arr()) {
        println!("slow queries ({}):", slow.len());
        for entry in slow.iter().take(8) {
            println!(
                "  id {:<6} {:>8} µs  {:>6} rows  {}",
                ju64(entry, &["id"]),
                ju64(entry, &["micros"]),
                ju64(entry, &["rows"]),
                jget(entry, &["uql"])
                    .and_then(|u| u.as_str())
                    .unwrap_or("?"),
            );
        }
    }
}

/// Poll a running server's Stats frame and render the live dashboard.
fn cmd_top(addr: &str, window_s: u32, once: bool, json: bool) -> Result<(), String> {
    let mut client = serve::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    loop {
        let doc = client.stats(window_s).map_err(|e| e.to_string())?;
        if json {
            println!("{doc}");
        } else {
            let v = telemetry::json::parse(&doc).map_err(|e| format!("bad StatsReply: {e}"))?;
            if !once {
                // Clear screen + home, plain ANSI.
                print!("\x1b[2J\x1b[H");
            }
            render_top(addr, &v);
        }
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs(1));
    }
}

/// Dump a running server's slow-query log: each summary line followed by
/// the full Trace document.
fn cmd_slow(addr: &str) -> Result<(), String> {
    let mut client = serve::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let doc = client.stats(0).map_err(|e| e.to_string())?;
    let v = telemetry::json::parse(&doc).map_err(|e| format!("bad StatsReply: {e}"))?;
    let slow = v.get("slow").and_then(|s| s.as_arr()).unwrap_or(&[]);
    println!("slow-query log: {} entries", slow.len());
    for entry in slow {
        let id = ju64(entry, &["id"]);
        println!(
            "-- id {id}: {} µs, {} rows, {}",
            ju64(entry, &["micros"]),
            ju64(entry, &["rows"]),
            jget(entry, &["uql"])
                .and_then(|u| u.as_str())
                .unwrap_or("?"),
        );
        match client.trace(id) {
            Ok(trace) => println!("{trace}"),
            // The entry can be evicted between Stats and Trace; keep going.
            Err(e) => println!("  (trace unavailable: {e})"),
        }
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let usage =
        "usage: uindex-cli <new|load|query|explain|info|check|repair|churn|serve|top|slow> ...";
    match args.first().map(String::as_str) {
        Some("new") => {
            let usage = "usage: uindex-cli new <db-dir> <schema.uschema> [data.udata]";
            if let Some(flag) = args[1..].iter().find(|a| a.starts_with("--")) {
                return Err(format!("unknown argument {flag:?}\n{usage}"));
            }
            let (dir, schema_path, data_path) = match args {
                [_, dir, schema] => (dir, schema, None),
                [_, dir, schema, data] => (dir, schema, Some(data)),
                _ => return Err(usage.into()),
            };
            let schema_text =
                std::fs::read_to_string(schema_path).map_err(|e| format!("{schema_path}: {e}"))?;
            let data_text = match data_path {
                Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?),
                None => None,
            };
            let db = build_database(&schema_text, data_text.as_deref(), Path::new(dir))
                .map_err(|e| e.to_string())?;
            println!(
                "created {dir}: {} classes, {} indexes, {} objects",
                db.schema().num_classes(),
                db.index().specs().len(),
                db.store().len()
            );
            db.close().map_err(|e| e.to_string())
        }
        Some("load") => {
            let [_, dir, data_path] = args else {
                return Err("usage: uindex-cli load <db-dir> <data.udata>".into());
            };
            let data =
                std::fs::read_to_string(data_path).map_err(|e| format!("{data_path}: {e}"))?;
            let mut db = open_disk(dir)?;
            let handles = load_data(&mut db, &data).map_err(|e| e.to_string())?;
            db.checkpoint().map_err(|e| e.to_string())?;
            println!("loaded {} objects into {dir}", handles.len());
            Ok(())
        }
        Some("query") => {
            let [_, dir, uql] = args else {
                return Err("usage: uindex-cli query <db-dir> '<uql>'".into());
            };
            cmd_query(&open_disk(dir)?, uql)
        }
        Some("explain") => {
            let (dir, uql, json) = match args {
                [_, dir, uql] => (dir, uql, false),
                [_, dir, uql, flag] if flag == "--json" => (dir, uql, true),
                _ => return Err("usage: uindex-cli explain <db-dir> '<uql>' [--json]".into()),
            };
            cmd_explain(&open_disk(dir)?, uql, json)
        }
        Some("info") => {
            let [_, dir] = args else {
                return Err("usage: uindex-cli info <db-dir>".into());
            };
            cmd_info(&open_disk(dir)?)
        }
        Some("check") => {
            let [_, dir] = args else {
                return Err("usage: uindex-cli check <db-dir>".into());
            };
            cmd_check(&mut open_disk(dir)?, dir)
        }
        Some("repair") => {
            let [_, dir] = args else {
                return Err("usage: uindex-cli repair <db-dir>".into());
            };
            let mut db = open_disk(dir)?;
            let entries = db.repair().map_err(|e| e.to_string())?;
            db.close().map_err(|e| e.to_string())?;
            println!("rebuilt index from object store: {entries} entries, verified");
            Ok(())
        }
        Some("serve") => {
            let usage = "usage: uindex-cli serve <db-dir> [--port N] [--workers N] \
                 [--max-inflight N] [--shutdown-file PATH] [--slow-query-us N] \
                 [--sample-interval-ms N] [--read-deadline-ms N]\n\
                 --workers: queries executing at once; \
                 --max-inflight: queries admitted (executing or waiting) before shedding";
            let Some((dir, flags)) = args[1..]
                .split_first()
                .filter(|(d, _)| !d.starts_with("--"))
            else {
                return Err(usage.into());
            };
            let (options, shutdown_file) =
                uindex_cli::parse_serve_flags(flags).map_err(|e| format!("{e}\n{usage}"))?;
            cmd_serve(&mut open_disk(dir)?, options, shutdown_file.as_deref())
        }
        Some("top") => {
            let usage = "usage: uindex-cli top <addr> [--window N] [--once] [--json]";
            let Some((addr, flags)) = args[1..]
                .split_first()
                .filter(|(a, _)| !a.starts_with("--"))
            else {
                return Err(usage.into());
            };
            let (window_s, once, json) =
                uindex_cli::parse_top_flags(flags).map_err(|e| format!("{e}\n{usage}"))?;
            cmd_top(addr, window_s, once, json)
        }
        Some("slow") => {
            let [_, addr] = args else {
                return Err("usage: uindex-cli slow <addr>".into());
            };
            cmd_slow(addr)
        }
        Some("churn") => {
            let [_, dir, class_name, attr_name, n] = args else {
                return Err("usage: uindex-cli churn <db-dir> <Class> <Attr> <n-commits>".into());
            };
            let n: u64 = n.parse().map_err(|_| format!("bad commit count {n:?}"))?;
            let mut db = open_disk(dir)?;
            let class = db
                .schema()
                .class_by_name(class_name)
                .ok_or_else(|| format!("unknown class {class_name:?}"))?;
            let (decl, attr) = db
                .schema()
                .resolve_attr(class, attr_name)
                .ok_or_else(|| format!("unknown attribute {class_name}.{attr_name}"))?;
            let ty = db.schema().attr_type(decl, attr);
            for i in 0..n {
                let oid = db.create_object(class).map_err(|e| e.to_string())?;
                let value = match ty {
                    AttrType::Int => Value::Int(i as i64),
                    AttrType::Str => Value::Str(format!("churn-{i}")),
                    _ => return Err("churn needs an int or str attribute".into()),
                };
                db.set_attr(oid, attr_name, value)
                    .map_err(|e| e.to_string())?;
                db.commit().map_err(|e| e.to_string())?;
                println!("commit {i}");
            }
            db.close().map_err(|e| e.to_string())?;
            Ok(())
        }
        _ => Err(usage.into()),
    }
}
