//! Client-side fault survival: a bounded, deterministic retry/backoff
//! policy ([`RetryPolicy`]) and a reconnecting wrapper around [`Client`]
//! ([`RetryClient`]).
//!
//! The contract, shared with the chaos harness that proves it:
//!
//! * retries happen **only** where they cannot change observable state —
//!   [`ServeError::is_retryable`] gates every attempt, and every request
//!   this client issues is a read (`Query`/`Execute`/`Ping`/`Stats`);
//! * `Execute` after a reconnect is only retried **after re-`Prepare`** —
//!   prepared-statement ids are per-connection, so the client keeps the
//!   UQL text and re-earns a fresh id on the new stream;
//! * attempts are bounded ([`RetryPolicy::max_attempts`]), backoff is
//!   exponential, capped, and jittered from a seeded generator so a run
//!   is reproducible byte-for-byte;
//! * an optional per-request deadline bounds the total time burned before
//!   giving up, whatever the attempt budget says.
//!
//! Telemetry: `serve.client.retries` (sleeps taken), `serve.client.gaveup`
//! (retryable errors surrendered to the caller), and
//! `serve.client.reconnects` (successful re-establishments after a
//! connection was torn down).

use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use crate::client::{Client, QueryReply, ServeError};
use crate::proto::{ErrorCode, ProtoError};

/// Bounded exponential backoff with deterministic jitter.
///
/// Retry `n` (1-based) sleeps `min(max_backoff, base·2ⁿ⁻¹ + jitter)`
/// where `jitter ∈ [0, base·2ⁿ⁻¹/4]` comes from a SplitMix64 stream
/// seeded by `jitter_seed` — the same seed always yields the same sleep
/// sequence, and the sequence is monotone non-decreasing (the jitter is
/// strictly smaller than one doubling).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, pre-jitter.
    pub base_backoff: Duration,
    /// Hard cap on any single sleep.
    pub max_backoff: Duration,
    /// Optional wall-clock budget per request: once the next sleep would
    /// cross it, the client gives up instead.
    pub deadline: Option<Duration>,
    /// Per-read socket timeout on every connection this client opens. A
    /// reply that never arrives — dropped by the network, or stalled
    /// because a corrupted length header left the peer waiting — becomes
    /// a timed-out I/O error instead of an eternal block; the error is
    /// fatal, so the connection is torn down and the request retried on
    /// a fresh one. `None` restores unbounded blocking reads.
    pub read_timeout: Option<Duration>,
    /// Seed for the jitter stream; same seed ⇒ same sleeps.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            deadline: None,
            read_timeout: Some(Duration::from_secs(2)),
            jitter_seed: 0x5eed_1e55_u64,
        }
    }
}

/// SplitMix64 — tiny, seedable, and already the repo's idiom for
/// deterministic test randomness.
fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no sleeps).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry `retry` (1-based). Deterministic in
    /// `(jitter_seed, retry)`; monotone non-decreasing in `retry`;
    /// never exceeds `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let retry = retry.max(1);
        let raw = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry - 1).unwrap_or(u32::MAX));
        let mut state = self.jitter_seed ^ (u64::from(retry)).wrapping_mul(0xa076_1d64_78bd_642f);
        splitmix64(&mut state);
        let quarter = (raw / 4).as_nanos() as u64;
        let jitter = Duration::from_nanos(if quarter == 0 {
            0
        } else {
            mix(state) % (quarter + 1)
        });
        self.max_backoff.min(raw.saturating_add(jitter))
    }
}

/// A [`Client`] wrapper that survives connection loss, admission sheds,
/// and transient server unavailability by retrying under a
/// [`RetryPolicy`]. Connections are established lazily and re-established
/// transparently; prepared statements are tracked by UQL text so they can
/// be re-prepared on a fresh connection before any `Execute` retry.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    ever_connected: bool,
    /// Statement texts by local handle; `server_ids[i]` is the id on the
    /// *current* connection, cleared wholesale on reconnect.
    prepared: Vec<String>,
    server_ids: Vec<Option<u64>>,
}

/// A local prepared-statement handle, stable across reconnects (unlike
/// the server-side id, which is per-connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stmt(usize);

impl RetryClient {
    /// Wrap an address (not yet connected — the first request connects).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            conn: None,
            ever_connected: false,
            prepared: Vec::new(),
            server_ids: Vec::new(),
        }
    }

    fn ensure_conn(&mut self) -> Result<(), ServeError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let addr = self
            .addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or(ServeError::Unexpected("unresolvable server address"))?;
        let mut client = Client::connect(addr).map_err(|e| ServeError::Proto(ProtoError::Io(e)))?;
        client
            .set_read_timeout(self.policy.read_timeout)
            .map_err(|e| ServeError::Proto(ProtoError::Io(e)))?;
        if self.ever_connected {
            telemetry::counter("serve.client.reconnects").inc();
        }
        self.ever_connected = true;
        // Server-side statement ids died with the old stream.
        self.server_ids.iter_mut().for_each(|id| *id = None);
        self.conn = Some(client);
        Ok(())
    }

    /// The retry engine. `op` runs one attempt against a connected self;
    /// a fatal error tears the connection down so the next attempt
    /// reconnects. All requests this client issues are idempotent reads,
    /// so `is_retryable(true)` gates every retry.
    fn run<T>(
        &mut self,
        mut op: impl FnMut(&mut RetryClient) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let started = Instant::now();
        let mut retry = 0u32;
        loop {
            let attempt = match self.ensure_conn() {
                Ok(()) => op(self),
                Err(e) => Err(e),
            };
            let err = match attempt {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if err.is_fatal() {
                self.conn = None;
            }
            retry += 1;
            if !err.is_retryable(true) {
                return Err(err);
            }
            if retry >= self.policy.max_attempts {
                telemetry::counter("serve.client.gaveup").inc();
                return Err(err);
            }
            let sleep = self.policy.backoff(retry);
            if let Some(budget) = self.policy.deadline {
                if started.elapsed().saturating_add(sleep) > budget {
                    telemetry::counter("serve.client.gaveup").inc();
                    return Err(err);
                }
            }
            telemetry::counter("serve.client.retries").inc();
            std::thread::sleep(sleep);
        }
    }

    /// Liveness round-trip, retried.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.run(|c| c.conn.as_mut().expect("connected").ping())
    }

    /// Parse-and-run one UQL statement, retried.
    pub fn query(&mut self, uql: &str) -> Result<QueryReply, ServeError> {
        self.run(|c| c.conn.as_mut().expect("connected").query(uql))
    }

    /// Register a statement locally. No wire traffic happens here — the
    /// server-side prepare is lazy, per-connection, and re-done after any
    /// reconnect, which is exactly what makes `execute` retry-safe.
    pub fn prepare(&mut self, uql: &str) -> Stmt {
        self.prepared.push(uql.to_string());
        self.server_ids.push(None);
        Stmt(self.prepared.len() - 1)
    }

    /// Run a prepared statement, retried; re-prepares on the current
    /// connection whenever the server-side id is missing (fresh
    /// connection) or rejected (plan-cache eviction).
    pub fn execute(&mut self, stmt: Stmt) -> Result<QueryReply, ServeError> {
        self.run(|c| {
            let text = c.prepared[stmt.0].clone();
            let conn = c.conn.as_mut().expect("connected");
            let id = match c.server_ids[stmt.0] {
                Some(id) => id,
                None => {
                    let id = conn.prepare(&text)?;
                    c.server_ids[stmt.0] = Some(id);
                    id
                }
            };
            match conn.execute(id) {
                Err(ServeError::Server {
                    code: ErrorCode::UnknownStatement,
                    ..
                }) => {
                    // Evicted server-side: re-prepare once, same attempt.
                    let id = conn.prepare(&text)?;
                    c.server_ids[stmt.0] = Some(id);
                    conn.execute(id)
                }
                other => other,
            }
        })
    }

    /// Fetch the live stats document, retried.
    pub fn stats(&mut self, window_s: u32) -> Result<String, ServeError> {
        self.run(|c| c.conn.as_mut().expect("connected").stats(window_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let p = RetryPolicy::default();
        let q = RetryPolicy::default();
        for n in 1..=10 {
            assert_eq!(p.backoff(n), q.backoff(n));
        }
        let other = RetryPolicy {
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        // Different seeds diverge somewhere below the cap.
        assert!((1..=4).any(|n| p.backoff(n) != other.backoff(n)));
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let p = RetryPolicy::default();
        let mut prev = Duration::ZERO;
        for n in 1..=32 {
            let b = p.backoff(n);
            assert!(b >= prev, "retry {n}: {b:?} < {prev:?}");
            assert!(b <= p.max_backoff);
            prev = b;
        }
        assert_eq!(p.backoff(32), p.max_backoff);
    }

    #[test]
    fn backoff_jitter_stays_under_one_doubling() {
        let p = RetryPolicy {
            max_backoff: Duration::from_secs(3600),
            ..RetryPolicy::default()
        };
        for n in 1..=8 {
            let raw = p.base_backoff * 2u32.pow(n - 1);
            assert!(p.backoff(n) >= raw);
            assert!(p.backoff(n) <= raw + raw / 4);
        }
    }

    #[test]
    fn none_policy_has_single_attempt() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }
}
