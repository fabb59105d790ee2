//! The two wire checks that need a real `uindex-cli serve` process on the
//! other end (everything in-process lives in `crates/serve/tests` and
//! `crates/bench/tests`). Every response is compared byte-for-byte
//! against an in-process oracle by [`bench::wire::drive`].
//!
//! - `--save-db DIR`: build the serve workload database in DIR for
//!   `uindex-cli serve`.
//! - `--addr HOST:PORT`: drive an already-running server over that
//!   database. The oracle is computed in memory from the same seeded
//!   workload — the directory belongs to the live server alone. Any error
//!   other than an admission shed fails the run.
//! - `--chaos-drill --cli-bin PATH`: serve such a directory from a real
//!   `uindex-cli serve` child behind the fault proxy, SIGKILL it mid-load,
//!   restart it, repoint the proxy, and require the clients to reconnect,
//!   re-prepare and keep verifying answers.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use bench::chaos::{ChaosConfig, ChaosProxy};
use bench::wire::{self, Load, SEED, VEHICLES};
use serve::RetryPolicy;

/// A `uindex-cli serve` child, SIGKILLed when dropped — also when a failed
/// assertion unwinds past it.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Spawn `uindex-cli serve DIR --port 0` and parse the listen address
/// from its stdout. The remaining output is drained in the background so
/// the child never blocks on a full pipe.
fn spawn_server(bin: &str, dir: &Path) -> (Served, SocketAddr) {
    let mut child = Command::new(bin)
        .arg("serve")
        .arg(dir)
        .args(["--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map(Served)
        .expect("spawn uindex-cli serve");
    let stdout = child.0.stdout.take().expect("child stdout");
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

/// The crash-restart drill (see the module docs).
fn run_drill(bin: &str) {
    let load = Load {
        clients: 4,
        requests_per_client: 200,
        // Paced so the kill lands mid-load even on fast machines.
        pace: Duration::from_micros(500),
    };
    let policy = RetryPolicy {
        max_attempts: 200,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        deadline: Some(Duration::from_secs(30)),
        read_timeout: Some(Duration::from_secs(2)),
        jitter_seed: SEED,
    };
    let dir = std::env::temp_dir().join(format!("uindex_chaos_drill_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let expected = wire::oracle(&wire::build_mem().reader());
    wire::build_disk(&dir).close().expect("close drill db");

    let (child, addr) = spawn_server(bin, &dir);
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

    // `restarted` is set right after the proxy is repointed, so `after`
    // only counts answers that must have come from the restarted process.
    let restarted = AtomicBool::new(false);
    let (before, after) = (AtomicU64::new(0), AtomicU64::new(0));
    let tally = std::thread::scope(|scope| {
        let clients = scope.spawn(|| {
            wire::drive(&paddr, &expected, &load, &policy, |reply| {
                if reply.is_ok() {
                    let phase = if restarted.load(Ordering::Acquire) {
                        &after
                    } else {
                        &before
                    };
                    phase.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        // Let load build, then murder the server mid-flight. (A client that
        // panicked on a wrong answer ends the wait; the join below reports it.)
        while before.load(Ordering::Relaxed) < load.clients as u64 * 5 && !clients.is_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(child);
        println!("drill: server SIGKILLed mid-load; restarting");
        // Serves until the clients are done, i.e. the end of this scope.
        let (_restarted_server, addr2) = spawn_server(bin, &dir);
        proxy.set_upstream(addr2);
        restarted.store(true, Ordering::Release);
        println!("drill: restarted at {addr2}; proxy repointed");
        clients.join().expect("drill clients")
    });
    proxy.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let (before, after) = (before.into_inner(), after.into_inner());
    assert!(
        after > 0,
        "drill: clients failed to reconnect and verify answers after the restart"
    );
    println!(
        "drill: {before} verified before SIGKILL, {after} after restart, \
         {} unavailable during the outage, 0 mismatches",
        tally.attempted - tally.ok
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        let at = args.iter().position(|a| a == name)?;
        args.get(at + 1).cloned()
    };
    if args.iter().any(|a| a == "--chaos-drill") {
        if let Some(bin) = flag("--cli-bin") {
            run_drill(&bin);
            return ExitCode::SUCCESS;
        }
    } else if let Some(dir) = flag("--save-db") {
        wire::build_disk(Path::new(&dir)).close().expect("close db");
        println!("saved serve workload ({VEHICLES} vehicles, indexes color/age) to {dir}");
        return ExitCode::SUCCESS;
    } else if let Some(addr) = flag("--addr") {
        let expected = wire::oracle(&wire::build_mem().reader());
        let load = Load {
            clients: 3,
            requests_per_client: 12,
            pace: Duration::ZERO,
        };
        let tally = wire::drive(&addr, &expected, &load, &RetryPolicy::none(), wire::strict);
        assert!(tally.ok > 0, "no responses verified");
        println!(
            "oracle: {} of {} responses verified against {} statements, 0 mismatches",
            tally.ok,
            tally.attempted,
            expected.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!("usage: loadgen --save-db DIR | --addr HOST:PORT | --chaos-drill --cli-bin PATH");
    ExitCode::from(2)
}
