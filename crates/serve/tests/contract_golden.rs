//! Contract golden: the *key sets* of the `Stats` and `Trace` reply
//! documents are an interface (`uindex-cli top`/`slow`, the benchmark and
//! dashboards read them by name), so they are pinned here independently of
//! how the server is built. Values are free to change; a key appearing,
//! disappearing or moving is a contract change and must update
//! `tests/golden/*.txt` deliberately (`SERVE_BLESS_GOLDEN=1 cargo test -p
//! serve --test contract_golden`). `uindex-cli top --once --json` prints
//! the `Stats` document; `crates/cli/tests/top_golden.rs` holds the real
//! binary to the same `golden/stats_keys.txt`.

use std::path::Path;

use serve::{Client, ServeOptions, Server};
use telemetry::json;

#[path = "golden/check.rs"]
mod check;

fn check_golden(name: &str, doc: &str) {
    check::check_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"),
        name,
        doc,
        std::env::var_os("SERVE_BLESS_GOLDEN").is_some(),
    );
}

#[test]
fn stats_and_trace_key_sets_match_the_golden() {
    let (schema, classes) = workload::serve::schema();
    let mut db = uindex::Database::with_page_size(schema, 1024, 4096).unwrap();
    workload::serve::populate(&mut db, &classes, 23, 100).unwrap();
    let server = Server::start(
        db.reader(),
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        c.query("color: Color = 'Red'").unwrap();
    }
    let stats = c.stats(10).unwrap();
    check_golden("stats_keys.txt", &stats);

    let v = json::parse(&stats).unwrap();
    let id = v
        .get("slow")
        .and_then(|s| s.as_arr())
        .and_then(|s| s.first())
        .and_then(|e| e.get("id"))
        .and_then(|i| i.as_u64())
        .expect("the queries landed in the slow log");
    check_golden("trace_keys.txt", &c.trace(id).unwrap());
    drop(c);
    server.shutdown();
}
