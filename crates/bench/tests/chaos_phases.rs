//! The fault-survival ledger, phase by phase, on both store tiers:
//! calm → network-only chaos → storage faults → heal → calm. The same
//! seeded workload runs in every phase; the chaotic ones go through the
//! deterministic TCP fault proxy ([`bench::chaos`]) with retrying clients.
//! The invariant is **no wrong answer, ever** — [`bench::wire::drive`]
//! byte-checks every `Ok` against the oracle — and errors only count
//! against availability. The server's `degraded_answers` counter must tell
//! the phases apart: network faults alone never push a query off the index
//! path, planted corruption does, and a clean `check()` brings it back.

use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bench::chaos::{ChaosConfig, ChaosProxy};
use bench::wire::{self, Expected, Load, Tally, SEED};
use pagestore::{Fault, FaultHandle, FaultStore, MemStore, TRAILER_LEN};
use serve::{RetryPolicy, ServeOptions, Server};
use uindex::{CheckReport, Database, DiskDatabase};

const LOAD: Load = Load {
    clients: 3,
    requests_per_client: 24,
    pace: Duration::ZERO,
};

/// Client-side retry posture under chaos: quick and bounded. The read
/// timeout matters — a corrupted length header can leave one side waiting
/// for bytes that never come, and the timeout is what turns that from an
/// eternal hang into one more retried attempt.
fn chaos_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        deadline: None,
        read_timeout: Some(Duration::from_millis(750)),
        jitter_seed: SEED,
    }
}

/// One chaotic drive through the proxy; returns the tally and how many of
/// the verified answers the server flagged as degraded.
fn chaos_drive(tier: &str, phase: &str, proxy: &ChaosProxy, expected: &Expected) -> (Tally, u64) {
    let degraded_ok = AtomicU64::new(0);
    let addr = proxy.local_addr().to_string();
    let tally = wire::drive(&addr, expected, &LOAD, &chaos_policy(), |reply| {
        if reply.is_ok_and(|r| r.done.degraded) {
            degraded_ok.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert!(
        tally.ok * 2 >= tally.attempted,
        "{tier}: availability collapsed under {phase} chaos: {tally:?}"
    );
    (tally, degraded_ok.into_inner())
}

/// `check` is the tier's own integrity check: on the disk tier it must be
/// [`DiskDatabase::check`], not the [`Database::check`] a deref reaches.
fn run_tier<P, D>(
    tier: &str,
    mut db: D,
    check: fn(&mut D) -> uindex::Result<CheckReport>,
    fault: FaultHandle,
    expected: &Expected,
) where
    P: pagestore::PageStore + Send + Sync + 'static,
    D: DerefMut<Target = Database<P>>,
{
    let server = Server::start(
        db.reader_with_fallback(),
        ServeOptions {
            workers: 2,
            max_inflight: 16,
            ..ServeOptions::default()
        },
    )
    .expect("server start");
    let addr = server.local_addr().to_string();
    let calm = |when: &str| {
        let tally = wire::drive(&addr, expected, &LOAD, &RetryPolicy::none(), wire::strict);
        assert!(tally.ok > 0, "{tier}: nothing verified {when}");
    };

    calm("before the chaos");
    assert_eq!(server.metrics().counter("serve.degraded_answers"), 0);

    // Network faults only: the store is healthy, so every answer that
    // survives the proxy was served from the index.
    let proxy = ChaosProxy::start(
        server.local_addr(),
        ChaosConfig {
            seed: SEED ^ 0x00C4_A05C,
            // Replies run ~10 bytes/row with whole families matching: at
            // this gap severing faults land every several requests rather
            // than in every reply — the phase measures survival, not churn.
            mean_gap_bytes: 4096,
            delay_ms: 1,
            stall_ms: 10,
            ..ChaosConfig::default()
        },
    )
    .expect("chaos proxy");
    let (net, net_degraded) = chaos_drive(tier, "network", &proxy, expected);
    assert!(
        !proxy.trace().is_empty(),
        "{tier}: the chaos schedule never fired"
    );
    assert!(net.ok > 0, "{tier}: nothing survived the network chaos");
    assert_eq!(
        (
            server.metrics().counter("serve.degraded_answers"),
            net_degraded
        ),
        (0, 0),
        "{tier}: network faults alone must not degrade an answer"
    );

    // Storage faults under the same proxy: drop the page cache so the
    // drive's reads reach the store, absorb a transient burst in the pool's
    // bounded retries, then hit silent corruption mid-query — quarantining
    // the index so the rest of the phase answers (correctly) from the
    // object-store fallback.
    let pool = db.index().tree().pool();
    pool.flush().expect("flush");
    pool.invalidate_cache().expect("invalidate");
    fault.inject_burst(fault.ops(), 2, Fault::IoError);
    // The read right after the one that absorbed the burst: any index of
    // two pages or more gets there.
    fault.inject(fault.ops() + 3, Fault::BitFlip { bit: 3 });
    let (_, storage_degraded) = chaos_drive(tier, "storage", &proxy, expected);
    proxy.shutdown();
    let degraded_at_heal = server.metrics().counter("serve.degraded_answers");
    assert!(
        degraded_at_heal >= 1 && storage_degraded >= 1,
        "{tier}: the planted corruption must degrade at least one answer \
         (server {degraded_at_heal}, clients {storage_degraded})"
    );
    assert!(db.quarantined(), "{tier}: corruption must quarantine");

    // Heal: the flip was transient, so the integrity check comes back
    // clean and lifts the quarantine — the serving health-probe path.
    let report = check(&mut db).expect("post-chaos check");
    assert!(report.clean(), "{tier}: chaos must not persist damage");
    assert!(!db.quarantined(), "{tier}: a clean check lifts quarantine");
    calm("after the heal");

    let report = server.shutdown();
    assert_eq!(
        report.metrics.counter("serve.degraded_answers"),
        degraded_at_heal,
        "{tier}: answers stayed degraded after the heal"
    );
    assert_eq!(
        report
            .metrics
            .counters
            .get("serve.worker.panics")
            .copied()
            .unwrap_or(0),
        0,
        "{tier}: no query may panic under chaos"
    );
}

#[test]
fn chaos_ledger_mem_tier() {
    let mut mem = wire::build_mem_over(FaultStore::new(MemStore::new(1024 + TRAILER_LEN)));
    let expected = wire::oracle(&mem.reader());
    let fault = mem.fault_handle();
    run_tier("mem", &mut mem, |db| db.check(), fault, &expected);
}

#[test]
fn chaos_ledger_disk_tier() {
    let expected = wire::oracle(&wire::build_mem().reader());
    let dir = std::env::temp_dir().join(format!("uindex_chaos_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let disk = wire::build_disk(&dir);
    let fault = disk.fault_handle();
    run_tier("disk", disk, DiskDatabase::check, fault, &expected);
    std::fs::remove_dir_all(&dir).ok();
}
