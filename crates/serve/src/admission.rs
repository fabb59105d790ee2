//! Admission control: a fixed bound on in-flight queries. Requests that
//! would exceed the bound are shed with a typed `Overloaded` error before
//! they touch the planner, an execution slot, or the buffer pool — shedding
//! must stay cheap precisely when the server is busiest. The gate keeps no
//! tallies: the server counts what it admits and sheds (`serve.queries`,
//! `serve.shed`) in its telemetry registry.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Counting gate bounding concurrent query execution.
pub struct AdmissionGate {
    limit: usize,
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// A gate admitting at most `limit` concurrent queries. `limit == 0`
    /// sheds everything — useful for drain/maintenance modes and tests.
    pub fn new(limit: usize) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate {
            limit,
            inflight: AtomicUsize::new(0),
        })
    }

    /// Try to admit one query. `None` means the caller must shed the
    /// request; `Some(permit)` holds a slot until the permit drops.
    pub fn try_admit(self: &Arc<AdmissionGate>) -> Option<Permit> {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.limit {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(Permit {
                        gate: Arc::clone(self),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    /// The configured concurrency bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Queries currently holding a permit.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// RAII admission slot: dropping it releases the slot, whether the query
/// finished, failed, or its connection vanished mid-response.
pub struct Permit {
    gate: Arc<AdmissionGate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::Release);
    }
}
