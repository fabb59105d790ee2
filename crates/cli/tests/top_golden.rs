//! `uindex-cli top --once --json` prints the server's `Stats` document, so
//! its key set must be the one pinned in
//! `crates/serve/tests/golden/stats_keys.txt` (see `contract_golden.rs`
//! there). This drives the real binaries end to
//! end: `new` → `serve` → one query → `top --once --json` → drain.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

#[path = "../../serve/tests/golden/check.rs"]
mod check;

const CLI: &str = env!("CARGO_BIN_EXE_uindex-cli");

fn cli(args: &[&str]) -> String {
    let out = Command::new(CLI).args(args).output().expect("run cli");
    assert!(
        out.status.success(),
        "uindex-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn top_once_json_key_set_matches_the_golden() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("uindex_cli_top_golden_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    std::fs::write(
        p("s.uschema"),
        "class Vehicle { Color: str }\nclass Automobile < Vehicle {}\n\
         index color = hierarchy Vehicle Color\n",
    )
    .unwrap();
    std::fs::write(
        p("d.udata"),
        "v1 = Vehicle Color='Red'\nv2 = Automobile Color='Red'\nv3 = Automobile Color='Blue'\n",
    )
    .unwrap();
    cli(&["new", &p("db"), &p("s.uschema"), &p("d.udata")]);

    let mut server = Command::new(CLI)
        .args(["serve", &p("db"), "--port", "0", "--workers", "2"])
        .args(["--shutdown-file", &p("stop")])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let addr = lines
        .next()
        .and_then(|l| l.ok())
        .and_then(|l| l.strip_prefix("listening on ").map(str::to_string))
        .expect("serve prints its address first");

    let mut client = serve::Client::connect(addr.as_str()).unwrap();
    let reply = client.query("color: Color = 'Red'").unwrap();
    assert_eq!(reply.rows.len(), 2);
    drop(client);
    let top = cli(&["top", &addr, "--once", "--json"]);

    std::fs::write(p("stop"), "").unwrap();
    assert!(server.wait().expect("serve exits").success());
    assert!(
        lines.any(|l| l.is_ok_and(|l| l.starts_with("served "))),
        "serve prints its drain summary"
    );
    std::fs::remove_dir_all(&dir).ok();

    check::check_golden(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("../serve/tests/golden"),
        "stats_keys.txt",
        &top,
        false,
    );
}
