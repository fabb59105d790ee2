//! Prepared-plan cache keyed on normalized UQL text.
//!
//! `Prepare` parses once and hands back an id; `Execute` replays the plan
//! without re-parsing. Plain `Query` requests also consult the cache, so
//! a hot query stream pays the parser once per distinct statement. The
//! cache is bounded: insertion-order eviction, and an evicted prepared id
//! answers `Execute` with `UnknownStatement` rather than a stale plan.
//! The cache keeps no tallies: [`PlanCache::lookup_or_parse`] says whether
//! it hit, and the server counts `serve.plan_cache.{hits,misses}`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use uindex::Query;

/// A parsed, planned statement shared between the cache and in-flight
/// executions (eviction never invalidates a running query).
pub struct CachedPlan {
    /// The normalized statement text this plan was parsed from.
    pub text: String,
    /// The parsed query, ready for `DatabaseReader::query_guarded_into`.
    pub query: Query,
}

struct CacheInner {
    by_text: HashMap<String, u64>,
    plans: HashMap<u64, Arc<CachedPlan>>,
    order: VecDeque<u64>,
    next_id: u64,
}

/// Bounded map from normalized UQL text to parsed plans, each addressable
/// by a stable prepared-statement id.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

/// Canonical form used as the cache key: whitespace runs outside single-
/// quoted strings collapse to one space, leading/trailing whitespace is
/// trimmed. No case folding — UQL identifiers are case-sensitive, so
/// folding would alias distinct statements.
pub fn normalize(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut in_quote = false;
    let mut pending_space = false;
    for ch in input.chars() {
        if in_quote {
            out.push(ch);
            if ch == '\'' {
                in_quote = false;
            }
        } else if ch.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(ch);
            if ch == '\'' {
                in_quote = true;
            }
        }
    }
    out
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                by_text: HashMap::new(),
                plans: HashMap::new(),
                order: VecDeque::new(),
                next_id: 1,
            }),
        }
    }

    /// Resolve `input` to a plan, parsing with `parse` on a miss. Returns
    /// the id, the plan, and whether it was a cache hit. Parse failures
    /// are returned verbatim and never cached (a later identical statement
    /// re-parses — the statement may become valid after a schema change).
    pub fn lookup_or_parse<E>(
        &self,
        input: &str,
        parse: impl FnOnce(&str) -> Result<Query, E>,
    ) -> Result<(u64, Arc<CachedPlan>, bool), E> {
        let text = normalize(input);
        {
            let inner = self.inner.lock().unwrap();
            if let Some(&id) = inner.by_text.get(&text) {
                return Ok((id, Arc::clone(&inner.plans[&id]), true));
            }
        }
        // Parse outside the lock: a slow parse must not serialize every
        // other connection's cache lookups.
        let query = parse(&text)?;
        let plan = Arc::new(CachedPlan {
            text: text.clone(),
            query,
        });
        let mut inner = self.inner.lock().unwrap();
        if let Some(&id) = inner.by_text.get(&text) {
            // Raced with another connection preparing the same statement;
            // keep the incumbent so its id stays valid.
            return Ok((id, Arc::clone(&inner.plans[&id]), true));
        }
        while inner.order.len() >= self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                if let Some(old) = inner.plans.remove(&evicted) {
                    inner.by_text.remove(&old.text);
                }
            }
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.by_text.insert(text, id);
        inner.plans.insert(id, Arc::clone(&plan));
        inner.order.push_back(id);
        Ok((id, plan, false))
    }

    /// Fetch a prepared plan by id; `None` means never issued or evicted.
    pub fn by_id(&self, id: u64) -> Option<Arc<CachedPlan>> {
        self.inner.lock().unwrap().plans.get(&id).map(Arc::clone)
    }

    /// Number of plans currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().plans.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
