//! Query translation and the two retrieval algorithms (§3.4).
//!
//! A [`Matcher`] holds, per key field, the allowed byte ranges implied by
//! the query: one list for the value field and, for every path position,
//! class-code ranges plus an OID selector. Scanning then works like this:
//!
//! * **forward scanning** — seek to the first candidate, then step entry by
//!   entry until the value field passes the last allowed range;
//! * **parallel algorithm** (Algorithm 1) — same, but on a mismatch the
//!   matcher computes the *smallest possible key* that could still match
//!   (keep the matched prefix fields, advance the offending field to its
//!   next allowed range — or, when exhausted, advance the previous field to
//!   its successor) and the scan re-descends there. Pages already touched in
//!   this query are counted once by the buffer pool, which is exactly the
//!   paper's "scan relevant B-tree nodes only and utilize them for all
//!   possible key values".
//!
//! Both run the one loop in [`execute_traced`] and differ only in whether a
//! skip target is sought or stepped towards — the `distinct_through`
//! target of [`Matcher::skip_past_match`] too, below which no entry is a
//! row under either (nor in [`match_keys`], the pass the degraded path
//! makes over keys recomputed without the tree). Both also exploit the key
//! layout's clustering: an entry that differs from the match before it in
//! nothing but its trailing OID *inherits* that match's verdict, and its hit
//! is built from its predecessor's (see [`Matcher::advise_with`]).
//!
//! The loop does not decide what a match becomes: it hands each one to a
//! [`RowSink`] as a [`Row`] — the stored key bytes and the position
//! assignment. A `Vec<QueryHit>` is the sink behind every query API; the
//! serving layer's sink copies the same bytes straight into wire frames.

use btree::ReadView;
use objstore::Oid;
use pagestore::PageStore;

use crate::error::{Error, Result};
use crate::key::{ElemOffsets, EntryKey, KeyOffsets};
use crate::query::{Assignment, OidSel, QueryHit};

/// Which retrieval algorithm a query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanAlgorithm {
    /// The paper's Algorithm 1: skip-seek over the B-tree, re-descending
    /// hierarchically from the lowest retained ancestor that covers each
    /// skip target (see `ReadView::reseek`).
    Parallel,
    /// Naive forward scanning from the first relevant entry.
    Forward,
}

impl ScanAlgorithm {
    fn skips(self) -> bool {
        !matches!(self, ScanAlgorithm::Forward)
    }
}

/// Per-query cost counters (the numbers the paper's experiments report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Distinct pages touched (experiment 2's "page reads"; also experiment
    /// 1's "visited nodes").
    pub pages_read: u64,
    /// Total node visits including revisits.
    pub node_visits: u64,
    /// Index entries the matcher examined.
    pub entries_examined: u64,
    /// Entries that matched.
    pub matches: u64,
    /// Skip-seeks performed (0 for forward scans).
    pub seeks: u64,
    /// Tree descents that fetched at least one node: the initial seek plus
    /// every skip-seek that could not be resolved inside the current leaf.
    /// With hierarchical reseek this is typically far below `seeks`.
    pub descents: u64,
    /// Total nodes fetched by those descents (a flat descent fetches the
    /// full tree height; an LCA re-descent only the levels below the LCA).
    pub reseek_depth_total: u64,
}

/// Executed-query trace: the query's [`ScanStats`] plus the breakdowns they
/// do not carry — how the skip-seeks resolved (within-leaf / LCA re-descent
/// / full descent), how the buffer pool behaved, how many partial keys the
/// matcher expanded — and the per-phase timing span tree (`query` →
/// `plan`/`descend`/`scan`) when produced via `Database::explain_*`. Pool
/// hits and misses depend on how warm the pool is, so they sit beside
/// `stats`, whose every field is the same on each run of one query.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// The per-query cost counters.
    pub stats: ScanStats,
    /// Skip targets the matcher computed ("next possible key values" in the
    /// paper's Algorithm 1), whether or not a seek was issued for them.
    pub partial_keys_expanded: u64,
    /// Skip-seeks resolved inside the current leaf (zero fetches).
    pub reseeks_leaf: u64,
    /// Skip-seeks resolved by LCA re-descent over the retained path.
    pub reseeks_lca: u64,
    /// Skip-seeks that fell back to a full root descent.
    pub reseeks_full: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// Root span of the query ("query" → "plan"/"descend"/"scan"), when
    /// collected by the caller.
    pub span: Option<telemetry::SpanNode>,
}

/// One matched entry, as the scan hands it to a [`RowSink`].
pub struct Row<'a> {
    key: &'a [u8],
    assignment: &'a [Option<usize>],
    /// The field offsets parsed out of `key`.
    offsets: &'a KeyOffsets,
    /// The entry differs from the row handed to the sink just before it
    /// only in its last OID.
    carried: bool,
}

impl<'a> Row<'a> {
    /// The entry's key bytes as the tree stores them — canonical, so equal
    /// to [`crate::EntryKey::encode`] of the decoded entry.
    pub fn key(&self) -> &'a [u8] {
        self.key
    }

    /// For each spec position, the index of the path element occupying it
    /// (`None` when the entry's branch does not include the position).
    pub fn assignment(&self) -> &'a [Option<usize>] {
        self.assignment
    }
}

/// Where a scan puts its matches, in key order. Callers are generic over
/// the sink, so each kind of sink gets its own monomorphised scan loop.
pub trait RowSink {
    /// Take one match. An error aborts the query with it.
    fn row(&mut self, row: &Row<'_>) -> Result<()>;

    /// Forget every row taken so far: the answer is about to be produced
    /// again from the start (a fault struck mid-scan and the degraded path
    /// takes over).
    fn restart(&mut self);
}

impl RowSink for Vec<QueryHit> {
    /// A cluster's first hit is built from the offsets the matcher already
    /// parsed; a carried one is its predecessor cloned in place (in the
    /// vector's spare capacity) with the last OID replaced — same value,
    /// class codes and assignment, nothing decoded again. The clone shares
    /// the predecessor's string, so a carried hit allocates nothing.
    #[inline]
    fn row(&mut self, row: &Row<'_>) -> Result<()> {
        if row.carried && !self.is_empty() {
            let oid = row.key.last_chunk().expect("a carried key ends in an OID");
            self.extend_from_within(self.len() - 1..);
            let path = &mut self.last_mut().expect("just extended").key.path;
            if let Some(last) = path.last_mut() {
                last.oid = Oid::from_bytes(*oid);
            }
        } else {
            self.push(QueryHit {
                key: EntryKey::from_parsed(row.key, row.offsets)?,
                assignment: Assignment::from_slice(row.assignment),
            });
        }
        Ok(())
    }

    fn restart(&mut self) {
        self.clear();
    }
}

/// Constraints for one path position.
#[derive(Debug, Clone)]
pub(crate) struct PosConstraint {
    /// Full code region this position covers (for attributing entry
    /// elements to positions).
    pub region: (Vec<u8>, Vec<u8>),
    /// Allowed code ranges (subset of `region`), sorted and disjoint.
    pub class_ranges: Vec<(Vec<u8>, Vec<u8>)>,
    /// OID restriction.
    pub oids: OidSel,
    /// Whether an entry must include this position to match.
    pub required: bool,
}

/// A translated query.
#[derive(Debug, Clone)]
pub(crate) struct Matcher {
    pub index_id: u16,
    /// Allowed `[lo, hi)` ranges on the raw value-field bytes, sorted and
    /// disjoint.
    pub value_ranges: Vec<(Vec<u8>, Vec<u8>)>,
    pub positions: Vec<PosConstraint>,
    /// The query's `distinct_through` position (see
    /// [`Matcher::skip_past_match`]).
    pub distinct_upto: Option<usize>,
}

/// What to do with the entry under the cursor. The verdict carries no
/// data: a match's position assignment and a skip's target key are left in
/// the [`ScanScratch`] the entry was examined with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Advice {
    /// Entry matches; `scratch.assignment[pos]` is the entry element
    /// occupying each spec position. `carried`: the verdict was inherited
    /// from the match before it, from which the entry differs only in its
    /// last OID (see [`Matcher::advise_with`]).
    Match { carried: bool },
    /// Entry cannot match but the next entry might (no useful skip target).
    Step,
    /// No entry below `scratch.target` can match; seek to it.
    SkipTo,
    /// No further entry can match.
    Done,
}

enum RangePos<'a> {
    Within,
    Below(&'a [u8]),
    Above,
}

fn range_position<'a>(field: &[u8], ranges: &'a [(Vec<u8>, Vec<u8>)]) -> RangePos<'a> {
    let idx = ranges.partition_point(|r| r.1.as_slice() <= field);
    if idx == ranges.len() {
        RangePos::Above
    } else if field >= ranges[idx].0.as_slice() {
        RangePos::Within
    } else {
        RangePos::Below(&ranges[idx].0)
    }
}

/// Reusable per-scan scratch space, so that examining an entry allocates
/// nothing: the key's field offsets, the position assignment and a skip
/// target are all written into these buffers in place (they stop growing
/// after the first few entries). What the test
/// `crates/uindex/tests/alloc_budget.rs` pins: the number of allocations a
/// scan performs does not depend on how many entries it examines.
#[derive(Default)]
pub(crate) struct ScanScratch {
    /// Field offsets of the last key examined.
    offsets: KeyOffsets,
    /// Valid after [`Advice::Match`].
    assignment: Vec<Option<usize>>,
    /// Valid after [`Advice::SkipTo`] and after [`Matcher::skip_past_match`]
    /// returned `true`.
    target: Vec<u8>,
    /// The last match's key up to the start of its last OID — a copy, made
    /// once per cluster, for the entries whose shared prefix the cursor
    /// cannot vouch for (the first of the next leaf, say).
    carried: Vec<u8>,
    /// Whether the next entry may inherit its verdict from `carried`.
    carry_armed: bool,
}

/// Leave `head ++ tail` in `target` as the key to skip to.
fn skip_to(target: &mut Vec<u8>, head: &[u8], tail: &[u8]) -> Advice {
    target.clear();
    target.extend_from_slice(head);
    target.extend_from_slice(tail);
    Advice::SkipTo
}

impl Matcher {
    /// The first key that could possibly match.
    pub(crate) fn initial_seek(&self) -> Vec<u8> {
        let mut t = self.index_id.to_be_bytes().to_vec();
        if let Some((lo, _)) = self.value_ranges.first() {
            t.extend_from_slice(lo);
        }
        t
    }

    /// Smallest key strictly greater than `key` in the field *before* the
    /// element at `elem_idx` (or before the first element, i.e. the value
    /// field, when `elem_idx == 0`).
    fn bump_before(
        key: &[u8],
        offsets: &KeyOffsets,
        elem_idx: usize,
        target: &mut Vec<u8>,
    ) -> Advice {
        if elem_idx == 0 {
            // Successor of the value field: the 0x00 separator after the
            // value becomes 0x01, stepping past every key with this value.
            return skip_to(target, &key[..offsets.val_sep], &[0x01]);
        }
        Self::bump_oid(key, &offsets.elems[elem_idx - 1], target)
    }

    /// Smallest key past every key sharing `key`'s prefix through the OID
    /// of `elem`: the next OID, or the next code when the OID is the last.
    fn bump_oid(key: &[u8], elem: &ElemOffsets, target: &mut Vec<u8>) -> Advice {
        let oid = u32::from_be_bytes(elem.oid_bytes(key));
        match oid.checked_add(1) {
            Some(next) => skip_to(target, &key[..elem.oid_start], &next.to_be_bytes()),
            None => Self::bump_code(key, elem, target),
        }
    }

    /// Smallest key whose code field at `elem` is strictly greater than the
    /// current code (covers both later siblings and descendants).
    fn bump_code(key: &[u8], elem: &ElemOffsets, target: &mut Vec<u8>) -> Advice {
        skip_to(target, &key[..elem.sep], &[0x01])
    }

    /// Evaluate `key`, parsing into `scratch` instead of allocating; the
    /// data behind a `Match` or `SkipTo` verdict is left there. `shared` is
    /// a number of leading bytes `key` is known to share with the key
    /// examined before it (0 when nothing is known).
    ///
    /// **The carry.** The verdict is a function of the key's value bytes,
    /// each class code and each OID, and the layout clusters entries that
    /// share all of those but the last OID. So a `Match` whose last element
    /// occupies a position with [`OidSel::Any`] arms the carry with
    /// `key[..last oid]`, and an entry of the same length that starts with
    /// those bytes is a `Match { carried: true }` without being parsed or
    /// compared against a range: equal bytes were judged equal, the one
    /// field that differs cannot object, and the shape `parse` validates is
    /// implied by a validated prefix plus a fixed-width tail. The offsets
    /// and assignment in `scratch` stay right because the layout is
    /// identical. While the carry is armed the key examined before starts
    /// with the carried bytes, so `shared` covering them proves the match
    /// without reading them — on a front-compressed leaf the cursor reports
    /// the entry's `prefix_len`, the very position the paper's key layout
    /// puts the first differing field at; only when it does not are the
    /// bytes compared. Any other entry — a longer key sharing the prefix, a
    /// new code or value, any verdict but `Match` — disarms the carry and is
    /// examined in full.
    pub(crate) fn advise_with(
        &self,
        key: &[u8],
        shared: usize,
        scratch: &mut ScanScratch,
    ) -> Result<Advice> {
        if scratch.carry_armed {
            let carried = &scratch.carried;
            if key.len() == carried.len() + 4
                && (shared >= carried.len() || key.starts_with(carried))
            {
                return Ok(Advice::Match { carried: true });
            }
            scratch.carry_armed = false;
        }
        let ScanScratch {
            offsets,
            assignment,
            target,
            carried,
            carry_armed,
        } = scratch;
        let myid = self.index_id.to_be_bytes();
        match key.get(..2) {
            None => return Err(Error::BadKey("key shorter than index id".into())),
            Some(kid) if kid < &myid[..] => return Ok(skip_to(target, &myid, &[])),
            Some(kid) if kid > &myid[..] => return Ok(Advice::Done),
            _ => {}
        }
        offsets.parse(key)?;
        let vfield = &key[2..offsets.val_sep];
        match range_position(vfield, &self.value_ranges) {
            RangePos::Within => {}
            RangePos::Below(lo) => return Ok(skip_to(target, &myid, lo)),
            RangePos::Above => return Ok(Advice::Done),
        }
        assignment.clear();
        assignment.resize(self.positions.len(), None);
        let mut pos_idx = 0;
        for (ei, elem) in offsets.elems.iter().enumerate() {
            let code = &key[elem.start..elem.sep];
            // Attribute this element to the next position whose region
            // contains its code.
            loop {
                if pos_idx >= self.positions.len() {
                    return Ok(Advice::Step); // element beyond all positions
                }
                let pc = &self.positions[pos_idx];
                if code < pc.region.0.as_slice() {
                    return Ok(Advice::Step); // code in a region gap
                }
                if code < pc.region.1.as_slice() {
                    break; // attributed to pos_idx
                }
                // Entry skipped past this position entirely.
                if pc.required {
                    // Keys are grouped by earlier fields; within this group
                    // every later entry jumps past the position too.
                    return Ok(Self::bump_before(key, offsets, ei, target));
                }
                pos_idx += 1;
            }
            let pc = &self.positions[pos_idx];
            match range_position(code, &pc.class_ranges) {
                RangePos::Within => {}
                RangePos::Below(lo) => return Ok(skip_to(target, &key[..elem.start], lo)),
                RangePos::Above => return Ok(Self::bump_before(key, offsets, ei, target)),
            }
            let oid_bytes = elem.oid_bytes(key);
            match &pc.oids {
                OidSel::Any => {}
                OidSel::Is(o) => {
                    let want = o.to_bytes();
                    if oid_bytes < want {
                        return Ok(skip_to(target, &key[..elem.oid_start], &want));
                    } else if oid_bytes > want {
                        return Ok(Self::bump_code(key, elem, target));
                    }
                }
                OidSel::In(set) => {
                    let cur = Oid::from_bytes(oid_bytes);
                    match set.range(cur..).next() {
                        Some(&o) if o == cur => {}
                        Some(&o) => {
                            return Ok(skip_to(target, &key[..elem.oid_start], &o.to_bytes()));
                        }
                        None => return Ok(Self::bump_code(key, elem, target)),
                    }
                }
            }
            assignment[pos_idx] = Some(ei);
            pos_idx += 1;
        }
        // Positions after the last element: a longer key sharing this whole
        // key as prefix may still include them, so only Step on a miss.
        if self.positions[pos_idx..].iter().any(|p| p.required) {
            return Ok(Advice::Step);
        }
        let Some(last) = offsets.elems.last() else {
            return Err(Error::BadKey("entry has no path elements".into()));
        };
        // The loop left `pos_idx` one past the last element's position. A
        // `distinct_through` scan follows every match with a skip past the
        // matched combination: it has no run of matches to carry along.
        if self.distinct_upto.is_none() && self.positions[pos_idx - 1].oids.is_any() {
            debug_assert_eq!(last.oid_start + 4, key.len(), "parse ends on an OID");
            carried.clear();
            carried.extend_from_slice(&key[..last.oid_start]);
            *carry_armed = true;
        }
        Ok(Advice::Match { carried: false })
    }

    /// The `distinct_through` rule, after a match on `key` (the key
    /// `scratch` last examined): leave in `scratch.target` the key past
    /// every entry that extends the match's combination through the
    /// distinct position, and return `true`. No entry below that target is
    /// a row, however the producer gets there. `false` without a distinct
    /// position, or when the entry does not include it.
    pub(crate) fn skip_past_match(&self, key: &[u8], scratch: &mut ScanScratch) -> bool {
        let elem = self
            .distinct_upto
            .and_then(|pos| scratch.assignment.get(pos).copied().flatten())
            .and_then(|ei| scratch.offsets.elems.get(ei));
        match elem {
            Some(elem) => {
                Self::bump_oid(key, elem, &mut scratch.target);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only baseline: every skip-seek pays a full root-to-leaf descent
    /// (`ReadView::seek_into`) instead of re-descending from the lowest
    /// retained ancestor, to hold hierarchical re-descent to it.
    static FLAT_SKIPS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Skip-seek the cursor to `target` (LCA re-descent over the retained
/// path).
fn skip_seek<S: PageStore>(
    view: &ReadView<'_, S>,
    cur: &mut btree::Cursor,
    target: &[u8],
) -> Result<()> {
    #[cfg(test)]
    if FLAT_SKIPS.get() {
        return Ok(view.seek_into(cur, target)?);
    }
    Ok(view.reseek(cur, target)?)
}

/// Registry handles the scan reports through, resolved once per thread
/// (as `btree::tree::metrics` does) so a query costs a few `Cell` reads and
/// bumps instead of a by-name registry lookup per counter. The `btree.*`
/// and `pagestore.*` handles are read, never bumped, here: their deltas
/// across a query are its share of events the layers below count.
struct ScanMetrics {
    seek_descents: telemetry::Counter,
    seek_nodes: telemetry::Counter,
    reseek_leaf: telemetry::Counter,
    reseek_lca: telemetry::Counter,
    reseek_full: telemetry::Counter,
    pool_hits: telemetry::Counter,
    pool_misses: telemetry::Counter,
    queries: telemetry::Counter,
    entries_examined: telemetry::Counter,
    matches: telemetry::Counter,
    carried: telemetry::Counter,
    skips: telemetry::Counter,
    partial_keys: telemetry::Counter,
    pages: telemetry::Counter,
    node_visits: telemetry::Counter,
    descents: telemetry::Counter,
    reseek_depth: telemetry::Counter,
    query_pages: telemetry::Histogram,
    query_entries: telemetry::Histogram,
}

thread_local! {
    static SCAN_METRICS: ScanMetrics = ScanMetrics {
        seek_descents: telemetry::counter("btree.seek.descents"),
        seek_nodes: telemetry::counter("btree.seek.nodes_fetched"),
        reseek_leaf: telemetry::counter("btree.reseek.leaf"),
        reseek_lca: telemetry::counter("btree.reseek.lca"),
        reseek_full: telemetry::counter("btree.reseek.full"),
        pool_hits: telemetry::counter("pagestore.pool.hits"),
        pool_misses: telemetry::counter("pagestore.pool.misses"),
        queries: telemetry::counter("uindex.query.count"),
        entries_examined: telemetry::counter("uindex.scan.entries_examined"),
        matches: telemetry::counter("uindex.scan.matches"),
        carried: telemetry::counter("uindex.scan.carried"),
        skips: telemetry::counter("uindex.scan.skips"),
        partial_keys: telemetry::counter("uindex.scan.partial_keys"),
        pages: telemetry::counter("uindex.scan.pages"),
        node_visits: telemetry::counter("uindex.scan.node_visits"),
        descents: telemetry::counter("uindex.scan.descents"),
        reseek_depth: telemetry::counter("uindex.scan.reseek_depth"),
        query_pages: telemetry::histogram("uindex.query.pages"),
        query_entries: telemetry::histogram("uindex.query.entries"),
    };
}

/// Run a translated query against the shared B-tree, handing every match
/// to `sink` in key order.
///
/// Allocation contract, pinned by `crates/uindex/tests/alloc_budget.rs`:
/// the loop reads each key through `cursor_key` — a slice borrowed from the
/// cursor's leaf walker — and the matcher works on field offsets parsed
/// into a reusable [`ScanScratch`], so **examining an entry allocates
/// nothing**: the allocations of a scan that matches nothing are a constant
/// (cursor path, scratch, spans), however many entries it examines. A
/// [`Row`] borrows the same key and scratch, so what a match allocates
/// is up to the sink. Into a `Vec<QueryHit>`, **a hit costs at most two
/// allocations**: the `String` of a string value and, when the entry has
/// more than one path element, the `path` vector (a class-hierarchy hit's
/// single element is inline, so an integer-valued one allocates nothing;
/// the vector's own doubling adds a logarithmic number on top). **A
/// skip-seek allocates nothing**: the cursor's retained path holds child
/// indices, not copies of fence keys.
///
/// The query's descents, reseek tiers and pool hits/misses are the deltas
/// of the counters the tree and the pool bump (`btree.seek.*`,
/// `btree.reseek.*`, `pagestore.pool.{hits,misses}`) across the scan, so
/// each of those events is counted once, where it happens. All cumulative
/// `uindex.*` registry counters and the per-query histograms are fed here,
/// so every query path (UQL, programmatic, benches) reports through one
/// place.
pub(crate) fn execute_traced<S: PageStore, K: RowSink>(
    view: &ReadView<'_, S>,
    matcher: &Matcher,
    algorithm: ScanAlgorithm,
    sink: &mut K,
) -> Result<QueryTrace> {
    view.pool().begin_query();
    let sample = |m: &ScanMetrics| {
        [
            m.seek_descents.get(),
            m.seek_nodes.get(),
            m.reseek_leaf.get(),
            m.reseek_lca.get(),
            m.reseek_full.get(),
            m.pool_hits.get(),
            m.pool_misses.get(),
        ]
    };
    let before = SCAN_METRICS.with(sample);
    let mut stats = ScanStats::default();
    let mut partial_keys_expanded = 0;
    let mut scratch = ScanScratch::default();
    let mut carried_matches = 0;
    let mut cur = {
        let _descend = telemetry::Span::enter("descend");
        view.seek(&matcher.initial_seek())?
    };
    let scan_span = telemetry::Span::enter("scan");
    while let Some((key, shared)) = view.cursor_key(&mut cur)? {
        stats.entries_examined += 1;
        let skip = match matcher.advise_with(key, shared, &mut scratch)? {
            Advice::Match { carried } => {
                stats.matches += 1;
                carried_matches += u64::from(carried);
                sink.row(&Row {
                    key,
                    assignment: &scratch.assignment,
                    offsets: &scratch.offsets,
                    carried,
                })?;
                let past = matcher.skip_past_match(key, &mut scratch);
                if past && !algorithm.skips() {
                    // Forward never seeks: it steps past the distinct
                    // target, examining and counting each entry below it.
                    partial_keys_expanded += 1;
                    cur.advance();
                    while let Some((key, _)) = view.cursor_key(&mut cur)? {
                        if key >= scratch.target.as_slice() {
                            break;
                        }
                        stats.entries_examined += 1;
                        cur.advance();
                    }
                    continue;
                }
                past
            }
            Advice::Step => false,
            Advice::SkipTo => true,
            Advice::Done => break,
        };
        if skip {
            partial_keys_expanded += 1;
        }
        // A skip target that does not advance would loop the scan forever.
        // None arises from a well-formed matcher, but if one slips through
        // (corrupt key bytes, a bad hand-built matcher), degrade to a plain
        // step: every key still gets examined, only the skip is lost.
        if skip && algorithm.skips() && scratch.target.as_slice() > key {
            stats.seeks += 1;
            skip_seek(view, &mut cur, &scratch.target)?;
        } else {
            cur.advance();
        }
    }
    drop(scan_span);
    let q = view.pool().query_stats();
    stats.pages_read = q.distinct_pages;
    stats.node_visits = q.node_visits;
    Ok(SCAN_METRICS.with(|m| {
        let after = sample(m);
        let [descents, nodes, leaf, lca, full, hits, misses] =
            std::array::from_fn(|i| after[i] - before[i]);
        stats.descents = descents;
        stats.reseek_depth_total = nodes;

        m.queries.inc();
        m.entries_examined.add(stats.entries_examined);
        m.matches.add(stats.matches);
        m.carried.add(carried_matches);
        m.skips.add(stats.seeks);
        m.partial_keys.add(partial_keys_expanded);
        m.pages.add(stats.pages_read);
        m.node_visits.add(stats.node_visits);
        m.descents.add(stats.descents);
        m.reseek_depth.add(stats.reseek_depth_total);
        m.query_pages.record(stats.pages_read);
        m.query_entries.record(stats.entries_examined);
        QueryTrace {
            stats,
            partial_keys_expanded,
            reseeks_leaf: leaf,
            reseeks_lca: lca,
            reseeks_full: full,
            pool_hits: hits,
            pool_misses: misses,
            span: None,
        }
    }))
}

/// The brute-force pass: judge `keys`, ascending, one by one, handing every
/// match to `sink` — how an answer computed without the tree reaches a
/// sink. Like a forward scan it never skips, except past a distinct target.
pub(crate) fn match_keys<K: RowSink>(
    matcher: &Matcher,
    keys: &[Vec<u8>],
    sink: &mut K,
) -> Result<()> {
    let mut scratch = ScanScratch::default();
    let mut keys = keys.iter().peekable();
    while let Some(key) = keys.next() {
        match matcher.advise_with(key, 0, &mut scratch)? {
            Advice::Match { carried } => {
                sink.row(&Row {
                    key,
                    assignment: &scratch.assignment,
                    offsets: &scratch.offsets,
                    carried,
                })?;
                if matcher.skip_past_match(key, &mut scratch) {
                    while keys.next_if(|k| **k < scratch.target).is_some() {}
                }
            }
            Advice::Step | Advice::SkipTo => {}
            Advice::Done => break,
        }
    }
    Ok(())
}

/// A verdict together with the data it left in the scratch, so tests can
/// assert on both at once.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
enum Advised {
    Match(Vec<Option<usize>>),
    Step,
    SkipTo(Vec<u8>),
    Done,
}

#[cfg(test)]
impl Advised {
    /// `advice` with the data it left in `scratch`.
    fn read(advice: Advice, scratch: &ScanScratch) -> Advised {
        match advice {
            Advice::Match { .. } => Advised::Match(scratch.assignment.clone()),
            Advice::Step => Advised::Step,
            Advice::SkipTo => Advised::SkipTo(scratch.target.clone()),
            Advice::Done => Advised::Done,
        }
    }
}

#[cfg(test)]
impl Matcher {
    fn advise_in(&self, key: &[u8], scratch: &mut ScanScratch) -> Result<Advised> {
        Ok(Advised::read(self.advise_with(key, 0, scratch)?, scratch))
    }

    /// [`Matcher::advise_with`] on fresh scratch.
    fn advise(&self, key: &[u8]) -> Result<Advised> {
        self.advise_in(key, &mut ScanScratch::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{KeyValue, PathElem};
    use btree::common_prefix_len;
    use objstore::Value;

    fn enc(v: i64, path: &[(&[u8], u32)]) -> Vec<u8> {
        enc_value(KeyValue::Int(v), path)
    }

    fn enc_value(value: KeyValue, path: &[(&[u8], u32)]) -> Vec<u8> {
        EntryKey {
            index_id: 1,
            value,
            path: path
                .iter()
                .map(|(c, o)| PathElem {
                    code: (*c).into(),
                    oid: Oid(*o),
                })
                .collect(),
        }
        .encode()
    }

    fn int_point(v: i64) -> (Vec<u8>, Vec<u8>) {
        let e = Value::Int(v).encode_ordered().unwrap();
        let mut hi = e.clone();
        hi.push(0x00);
        (e, hi)
    }

    /// One position over code region [B, C) with no constraints.
    fn matcher_one_pos(required: bool) -> Matcher {
        Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![int_point(5)],
            positions: vec![PosConstraint {
                region: (vec![b'B', 1], vec![b'B', 2]),
                class_ranges: vec![(vec![b'B', 1], vec![b'B', 2])],
                oids: OidSel::Any,
                required,
            }],
        }
    }

    #[test]
    fn match_and_done() {
        let m = matcher_one_pos(false);
        let k = enc(5, &[(&[b'B', 1], 7)]);
        assert_eq!(m.advise(&k).unwrap(), Advised::Match(vec![Some(0)]));
        // Value above the only allowed range: done.
        let k = enc(6, &[(&[b'B', 1], 7)]);
        assert_eq!(m.advise(&k).unwrap(), Advised::Done);
        // Other index id after ours: done.
        let mut k = enc(5, &[(&[b'B', 1], 7)]);
        k[1] = 2;
        assert_eq!(m.advise(&k).unwrap(), Advised::Done);
    }

    #[test]
    fn skip_below_value() {
        let m = matcher_one_pos(false);
        let k = enc(3, &[(&[b'B', 1], 7)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => {
                assert!(t.as_slice() > k.as_slice());
                // Target is id ++ enc(5).
                let mut want = 1u16.to_be_bytes().to_vec();
                want.extend(Value::Int(5).encode_ordered().unwrap());
                assert_eq!(t, want);
            }
            a => panic!("expected SkipTo, got {a:?}"),
        }
    }

    #[test]
    fn oid_is_constraint_skips() {
        let mut m = matcher_one_pos(true);
        m.positions[0].oids = OidSel::Is(Oid(10));
        // Below the wanted oid: skip directly to it.
        let k = enc(5, &[(&[b'B', 1], 3)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => {
                assert!(t.as_slice() > k.as_slice());
                assert!(t.ends_with(&Oid(10).to_bytes()));
            }
            a => panic!("{a:?}"),
        }
        // Exact hit.
        let k = enc(5, &[(&[b'B', 1], 10)]);
        assert!(matches!(m.advise(&k).unwrap(), Advised::Match(_)));
        // Past it: bump the code field.
        let k = enc(5, &[(&[b'B', 1], 11)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => assert!(t.as_slice() > k.as_slice()),
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn class_range_below_skips_to_range() {
        let mut m = matcher_one_pos(true);
        // Only sub-tree [B.C, B.D) allowed.
        m.positions[0].class_ranges = vec![(vec![b'B', 1, b'C', 1], vec![b'B', 1, b'C', 2])];
        let k = enc(5, &[(&[b'B', 1], 3)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => assert!(t.as_slice() > k.as_slice()),
            a => panic!("{a:?}"),
        }
        let k = enc(5, &[(&[b'B', 1, b'C', 1], 3)]);
        assert!(matches!(m.advise(&k).unwrap(), Advised::Match(_)));
        // Above the allowed range, inside region: bump value.
        let k = enc(5, &[(&[b'B', 1, b'D', 1], 3)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => assert!(t.as_slice() > k.as_slice()),
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn missing_required_position() {
        let m = Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![int_point(5)],
            positions: vec![
                PosConstraint {
                    region: (vec![b'B', 1], vec![b'B', 2]),
                    class_ranges: vec![(vec![b'B', 1], vec![b'B', 2])],
                    oids: OidSel::Any,
                    required: false,
                },
                PosConstraint {
                    region: (vec![b'C', 1], vec![b'C', 2]),
                    class_ranges: vec![(vec![b'C', 1], vec![b'C', 2])],
                    oids: OidSel::Is(Oid(5)),
                    required: true,
                },
            ],
        };
        // Entry with only position 0: required position 1 may appear in a
        // longer key sharing this prefix, so Step.
        let k = enc(5, &[(&[b'B', 1], 1)]);
        assert_eq!(m.advise(&k).unwrap(), Advised::Step);
        // Entry with both: match.
        let k = enc(5, &[(&[b'B', 1], 1), (&[b'C', 1], 5)]);
        assert_eq!(
            m.advise(&k).unwrap(),
            Advised::Match(vec![Some(0), Some(1)])
        );
        // Entry jumping past position 1 (code region D): bump previous oid.
        let m2 = Matcher {
            positions: vec![
                m.positions[0].clone(),
                m.positions[1].clone(),
                PosConstraint {
                    region: (vec![b'D', 1], vec![b'D', 2]),
                    class_ranges: vec![(vec![b'D', 1], vec![b'D', 2])],
                    oids: OidSel::Any,
                    required: false,
                },
            ],
            ..m.clone()
        };
        let k = enc(5, &[(&[b'B', 1], 1), (&[b'D', 1], 9)]);
        match m2.advise(&k).unwrap() {
            Advised::SkipTo(t) => {
                assert!(t.as_slice() > k.as_slice());
                // Skips to oid 2 at position 0.
                assert!(t.ends_with(&Oid(2).to_bytes()));
            }
            a => panic!("{a:?}"),
        }
    }

    #[test]
    fn value_any_matches_everything_in_index() {
        let m = Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![(vec![], vec![0xFF])],
            positions: vec![PosConstraint {
                region: (vec![b'B', 1], vec![b'B', 2]),
                class_ranges: vec![(vec![b'B', 1], vec![b'B', 2])],
                oids: OidSel::Any,
                required: false,
            }],
        };
        for v in [-100, 0, 9999] {
            let k = enc(v, &[(&[b'B', 1], 1)]);
            assert!(matches!(m.advise(&k).unwrap(), Advised::Match(_)));
        }
    }

    #[test]
    fn non_advancing_skip_target_degrades_to_step() {
        use btree::{BTree, BTreeConfig};
        use pagestore::{BufferPool, MemStore};

        // A malformed matcher whose class range lower bound extends the
        // stored code with a FIELD_SEP byte: for a key carrying code
        // [B, 1], advise emits SkipTo(prefix ++ [B, 1, 0x00]), which is a
        // strict prefix of the key itself — i.e. it does NOT advance.
        // The old debug_assert! aborted debug builds here and looped
        // forever in release; now the scan degrades to stepping.
        let m = Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![int_point(5)],
            positions: vec![PosConstraint {
                region: (vec![b'B', 1], vec![b'B', 2]),
                class_ranges: vec![(vec![b'B', 1, 0x00], vec![b'B', 1, 0x00, 0xFF])],
                oids: OidSel::Any,
                required: true,
            }],
        };
        let pool = BufferPool::new(MemStore::new(1024), 1 << 10);
        let mut tree = BTree::create(pool, BTreeConfig::default()).unwrap();
        for oid in [3u32, 7, 9] {
            tree.insert(&enc(5, &[(&[b'B', 1], oid)]), b"").unwrap();
        }
        // Confirm the advice really is a non-advancing skip for these keys.
        let k = enc(5, &[(&[b'B', 1], 3)]);
        match m.advise(&k).unwrap() {
            Advised::SkipTo(t) => assert!(t.as_slice() <= k.as_slice(), "premise: target stalls"),
            a => panic!("expected SkipTo, got {a:?}"),
        }
        for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            let (hits, stats) = execute(&tree, &m, alg, None);
            assert!(hits.is_empty(), "nothing can match the bogus class range");
            assert_eq!(
                stats.entries_examined, 3,
                "every key stepped over exactly once"
            );
            assert_eq!(stats.seeks, 0, "stalled skips must not seek");
        }
    }

    /// A tree of `keys` with at most ten entries per node.
    fn small_node_tree(keys: &[Vec<u8>]) -> btree::BTree<pagestore::MemStore> {
        use btree::{BTree, BTreeConfig};
        use pagestore::{BufferPool, MemStore};

        let pool = BufferPool::new(MemStore::new(1024), 1 << 10);
        let mut tree = BTree::create(pool, BTreeConfig::with_max_entries(10)).unwrap();
        for k in keys {
            tree.insert(k, b"").unwrap();
        }
        tree
    }

    /// `execute_traced` into a hit vector.
    fn execute(
        tree: &btree::BTree<pagestore::MemStore>,
        m: &Matcher,
        alg: ScanAlgorithm,
        distinct_upto: Option<usize>,
    ) -> (Vec<QueryHit>, ScanStats) {
        let m = Matcher {
            distinct_upto,
            ..m.clone()
        };
        let mut hits = Vec::new();
        let trace = execute_traced(&tree.view(), &m, alg, &mut hits).unwrap();
        (hits, trace.stats)
    }

    /// [`execute`] plus how many of its matches were carried.
    fn execute_counting_carries(
        tree: &btree::BTree<pagestore::MemStore>,
        m: &Matcher,
        alg: ScanAlgorithm,
        distinct_upto: Option<usize>,
    ) -> (Vec<QueryHit>, ScanStats, u64) {
        let before = telemetry::counter_value("uindex.scan.carried");
        let (hits, stats) = execute(tree, m, alg, distinct_upto);
        let carried = telemetry::counter_value("uindex.scan.carried") - before;
        (hits, stats, carried)
    }

    /// Two positions, both optional and unconstrained: code regions
    /// [B1, B2) and [C1, C2).
    fn matcher_two_pos() -> Matcher {
        let pos = |c: u8| PosConstraint {
            region: (vec![c, 1], vec![c, 2]),
            class_ranges: vec![(vec![c, 1], vec![c, 2])],
            oids: OidSel::Any,
            required: false,
        };
        Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![int_point(5)],
            positions: vec![pos(b'B'), pos(b'C')],
        }
    }

    #[test]
    fn a_match_differing_only_in_its_last_oid_is_carried() {
        let m = matcher_one_pos(false);
        let mut scratch = ScanScratch::default();
        let verdicts: Vec<Advice> = [7, 8, 0xFFFF_FFFF]
            .iter()
            .map(|&oid| {
                let k = enc(5, &[(&[b'B', 1], oid)]);
                let v = m.advise_with(&k, 0, &mut scratch).unwrap();
                assert_eq!(scratch.assignment, vec![Some(0)]);
                v
            })
            .collect();
        assert_eq!(
            verdicts,
            [
                Advice::Match { carried: false },
                Advice::Match { carried: true },
                Advice::Match { carried: true },
            ]
        );
    }

    #[test]
    fn a_longer_key_sharing_the_prefix_is_not_carried() {
        let m = matcher_two_pos();
        let mut scratch = ScanScratch::default();
        let short = enc(5, &[(&[b'B', 1], 7)]);
        let long = enc(5, &[(&[b'B', 1], 7), (&[b'C', 1], 5)]);
        assert!(long.starts_with(&short));
        assert_eq!(
            m.advise_with(&short, 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        // The extra element is examined in full and gets its own slot.
        assert_eq!(
            m.advise_with(&long, 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        assert_eq!(scratch.assignment, vec![Some(0), Some(1)]);
        // The longer key armed the carry on *its* last element.
        let next = enc(5, &[(&[b'B', 1], 7), (&[b'C', 1], 6)]);
        assert_eq!(
            m.advise_with(&next, 0, &mut scratch).unwrap(),
            Advice::Match { carried: true }
        );
        assert_eq!(scratch.assignment, vec![Some(0), Some(1)]);
        // Back to a one-element key: same length as nothing carried.
        let other = enc(5, &[(&[b'B', 1], 8)]);
        assert_eq!(
            m.advise_with(&other, 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        assert_eq!(scratch.assignment, vec![Some(0), None]);
    }

    #[test]
    fn an_oid_selector_at_the_last_position_never_arms_the_carry() {
        let key = |oid| enc(5, &[(&[b'B', 1], oid)]);
        let mut m = matcher_one_pos(true);
        m.positions[0].oids = OidSel::Is(Oid(10));
        let mut scratch = ScanScratch::default();
        assert_eq!(
            m.advise_in(&key(10), &mut scratch).unwrap(),
            Advised::Match(vec![Some(0)])
        );
        assert!(matches!(
            m.advise_in(&key(11), &mut scratch).unwrap(),
            Advised::SkipTo(_)
        ));

        m.positions[0].oids = OidSel::In([Oid(10), Oid(12)].into());
        let mut scratch = ScanScratch::default();
        assert_eq!(
            m.advise_with(&key(10), 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        assert_eq!(
            m.advise_in(&key(11), &mut scratch).unwrap(),
            Advised::SkipTo(key(12))
        );
        assert_eq!(
            m.advise_with(&key(12), 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );

        // An OID selector at an *earlier* position is part of the carried
        // prefix: judged once, inherited with it.
        let mut m = matcher_two_pos();
        m.positions[0].oids = OidSel::Is(Oid(7));
        let mut scratch = ScanScratch::default();
        let k = enc(5, &[(&[b'B', 1], 7), (&[b'C', 1], 1)]);
        assert_eq!(
            m.advise_with(&k, 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        let k = enc(5, &[(&[b'B', 1], 7), (&[b'C', 1], 2)]);
        assert_eq!(
            m.advise_with(&k, 0, &mut scratch).unwrap(),
            Advice::Match { carried: true }
        );
        let k = enc(5, &[(&[b'B', 1], 8), (&[b'C', 1], 2)]);
        assert!(matches!(
            m.advise_in(&k, &mut scratch).unwrap(),
            Advised::SkipTo(_)
        ));
    }

    #[test]
    fn a_value_differing_in_its_last_byte_is_not_carried() {
        let m = matcher_one_pos(false);
        let mut scratch = ScanScratch::default();
        let (five, six) = (enc(5, &[(&[b'B', 1], 7)]), enc(6, &[(&[b'B', 1], 7)]));
        assert_eq!(five.len(), six.len());
        let differing: Vec<usize> = (0..five.len()).filter(|&i| five[i] != six[i]).collect();
        scratch.offsets.parse(&five).unwrap();
        assert_eq!(differing, [scratch.offsets.val_sep - 1], "last value byte");
        assert_eq!(
            m.advise_with(&five, 0, &mut scratch).unwrap(),
            Advice::Match { carried: false }
        );
        assert_eq!(m.advise_with(&six, 0, &mut scratch).unwrap(), Advice::Done);
    }

    #[test]
    fn a_shared_prefix_vouches_only_for_all_the_carried_bytes() {
        let m = matcher_one_pos(false);
        let head = enc(5, &[(&[b'B', 1], 7)]);
        // The same length as `head`, differing in the class code's last
        // byte — just before the code's terminator, the last carried byte —
        // or only in the OID.
        let (code, oid) = (enc(5, &[(&[b'B', 2], 7)]), enc(5, &[(&[b'B', 1], 8)]));
        let mut scratch = ScanScratch::default();
        m.advise_with(&head, 0, &mut scratch).unwrap();
        let shared = common_prefix_len(&head, &code);
        assert_eq!(code.len(), head.len());
        assert_eq!(shared + 2, scratch.carried.len(), "premise");
        let verdict = m.advise_with(&code, shared, &mut scratch).unwrap();
        assert_eq!(
            Advised::read(verdict, &scratch),
            m.advise(&code).unwrap(),
            "a prefix short of the carried bytes proves nothing"
        );
        let mut scratch = ScanScratch::default();
        m.advise_with(&head, 0, &mut scratch).unwrap();
        assert_eq!(
            m.advise_with(&oid, common_prefix_len(&head, &oid), &mut scratch)
                .unwrap(),
            Advice::Match { carried: true }
        );
    }

    #[test]
    fn distinct_through_never_carries() {
        let keys: Vec<Vec<u8>> = (0..30)
            .map(|i| enc(5, &[(&[b'B', 1], i / 10), (&[b'C', 1], i)]))
            .collect();
        let tree = small_node_tree(&keys);
        let m = matcher_two_pos();
        for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            let (all, _, carried) = execute_counting_carries(&tree, &m, alg, None);
            assert_eq!(all.len(), 30);
            assert_eq!(carried, 27, "three runs of ten under {alg:?}");
            let (hits, _, carried) = execute_counting_carries(&tree, &m, alg, Some(1));
            assert_eq!(hits, all, "distinct through the last position keeps all");
            assert_eq!(carried, 0, "{alg:?}");
        }
        let (hits, stats, carried) =
            execute_counting_carries(&tree, &m, ScanAlgorithm::Parallel, Some(0));
        let firsts: Vec<Oid> = hits.iter().map(|h| h.key.path[1].oid).collect();
        assert_eq!(firsts, [Oid(0), Oid(10), Oid(20)]);
        assert_eq!((stats.seeks, carried), (3, 0));
        // Forward reaches each target by steps, counting what it passes.
        let (fwd, fstats) = execute(&tree, &m, ScanAlgorithm::Forward, Some(0));
        assert_eq!(fwd, hits);
        assert_eq!((fstats.seeks, fstats.entries_examined), (0, 30));
    }

    #[test]
    fn a_cluster_is_carried_across_leaf_boundaries() {
        let keys: Vec<Vec<u8>> = (0..35).map(|oid| enc(5, &[(&[b'B', 1], oid)])).collect();
        let tree = small_node_tree(&keys);
        let m = matcher_one_pos(false);
        for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
            let (hits, stats, carried) = execute_counting_carries(&tree, &m, alg, None);
            assert!(stats.pages_read >= 4, "35 entries, ten to a leaf");
            assert_eq!(carried, 34, "{alg:?}: one head, the rest inherited");
            let oids: Vec<Oid> = hits.iter().map(|h| h.key.path[0].oid).collect();
            assert_eq!(oids, (0..35).map(Oid).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_successor_built_hit_equals_the_decoded_entry() {
        let any_value = vec![(vec![], vec![0xFF])];
        let one = Matcher {
            value_ranges: any_value.clone(),
            ..matcher_one_pos(false)
        };
        let two = Matcher {
            value_ranges: any_value,
            ..matcher_two_pos()
        };
        let strings: Vec<Vec<u8>> = ["Blue", "Red", ""]
            .iter()
            .flat_map(|s| {
                (0..12).map(move |oid| enc_value(KeyValue::Str((*s).into()), &[(&[b'B', 1], oid)]))
            })
            .collect();
        let ints: Vec<Vec<u8>> = [-3, 0, 70_000]
            .iter()
            .flat_map(|&v| (0..12).map(move |oid| enc(v, &[(&[b'B', 1], oid)])))
            .collect();
        let paths: Vec<Vec<u8>> = (0..36)
            .map(|i| enc(i64::from(i / 18), &[(&[b'B', 1], i / 6), (&[b'C', 1], i)]))
            .collect();
        for (what, m, keys, heads, assignment) in [
            ("string", &one, strings, 3, vec![Some(0)]),
            ("integer", &one, ints, 3, vec![Some(0)]),
            ("two-element path", &two, paths, 6, vec![Some(0), Some(1)]),
        ] {
            let tree = small_node_tree(&keys);
            let mut sorted = keys;
            sorted.sort();
            let want: Vec<QueryHit> = sorted
                .iter()
                .map(|k| QueryHit {
                    key: EntryKey::decode(k).unwrap(),
                    assignment: assignment.clone().into(),
                })
                .collect();
            for alg in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
                let (hits, _, carried) = execute_counting_carries(&tree, m, alg, None);
                assert_eq!(hits, want, "{what}, {alg:?}");
                assert_eq!(carried, want.len() as u64 - heads, "{what}, {alg:?}");
            }
        }
    }

    /// Run `f` with every skip-seek paying a full root descent.
    fn with_flat_skips<T>(f: impl FnOnce() -> T) -> T {
        FLAT_SKIPS.set(true);
        let out = f();
        FLAT_SKIPS.set(false);
        out
    }

    #[test]
    fn hierarchical_re_descent_reads_the_same_pages_in_no_more_visits() {
        // 40 values x 4 classes x 6 objects, ten entries to a node: a
        // three-level tree. Two of the four classes are selected, so the
        // scan skips twice per value.
        let classes: [&[u8]; 4] = [&[b'B', 1], &[b'B', 2], &[b'B', 3], &[b'B', 4]];
        let keys: Vec<Vec<u8>> = (0..40 * 4 * 6)
            .map(|i| enc(i64::from(i / 24), &[(classes[(i / 6 % 4) as usize], i)]))
            .collect();
        let tree = small_node_tree(&keys);
        let m = Matcher {
            index_id: 1,
            distinct_upto: None,
            value_ranges: vec![(int_point(5).0, int_point(30).0)],
            positions: vec![PosConstraint {
                region: (vec![b'B', 1], vec![b'B', 5]),
                class_ranges: vec![
                    (vec![b'B', 2], vec![b'B', 3]),
                    (vec![b'B', 4], vec![b'B', 5]),
                ],
                oids: OidSel::Any,
                required: true,
            }],
        };
        let run = || execute(&tree, &m, ScanAlgorithm::Parallel, None);
        let (hits, stats) = run();
        let (flat_hits, flat) = with_flat_skips(run);
        assert_eq!(hits.len(), 25 * 2 * 6);
        assert_eq!(hits, flat_hits);
        assert!(stats.seeks >= 49, "premise: the scan skips ({stats:?})");
        assert_eq!(stats.seeks, flat.seeks);
        assert_eq!(flat.descents, flat.seeks + 1, "every flat skip descends");
        // Re-descent only avoids re-fetching pages the query already
        // touched, so the distinct page set is the flat algorithm's.
        assert_eq!(stats.pages_read, flat.pages_read);
        assert!(
            stats.node_visits < flat.node_visits && stats.descents <= flat.descents,
            "hierarchical {stats:?} vs flat {flat:?}"
        );
    }

    #[test]
    fn hierarchical_re_descent_holds_to_flat_skips_on_oracle_trials() {
        use crate::oracle::{self, Rng64};

        for tseed in 0..24u64 {
            let t = oracle::gen_trial(tseed).expect("trial generation");
            let mut rng = Rng64::new(tseed ^ 0xF1A7);
            for _ in 0..6 {
                let q = oracle::gen_query(&t, &mut rng);
                let Ok((hits, stats)) = t.db.query_with_stats(&q) else {
                    continue;
                };
                let (flat_hits, flat) =
                    with_flat_skips(|| t.db.query_with_stats(&q)).expect("same query, flat skips");
                assert_eq!(hits, flat_hits, "seed {tseed:#x}, query {q:?}");
                assert_eq!(
                    stats.pages_read, flat.pages_read,
                    "distinct pages changed under re-descent (seed {tseed:#x}, query {q:?})"
                );
                assert!(
                    stats.node_visits <= flat.node_visits,
                    "re-descent visited more nodes than flat skips ({} > {}) \
                     (seed {tseed:#x}, query {q:?})",
                    stats.node_visits,
                    flat.node_visits
                );
            }
        }
    }
}

/// Property tests pitting [`Matcher::advise`] against the semantic oracle
/// in [`crate::oracle`]: on randomly generated databases and queries,
/// every piece of advice must be *sound* — `Match` agrees with the oracle
/// including the assignment, `Step`/`SkipTo`/`Done` only reject keys the
/// oracle rejects, every `SkipTo` target strictly advances, and no skip
/// or `Done` ever jumps past a key the oracle says matches. And the carry
/// changes none of it: one [`ScanScratch`] kept across a trial's ascending
/// key list gives, key for key, the verdict, assignment and skip target
/// of a fresh one, whether the shared prefix the cursor reports vouches for
/// the carried bytes or they are compared.
#[cfg(test)]
mod advise_props {
    use super::*;
    use crate::oracle::{self, Rng64};
    use btree::common_prefix_len;
    use proptest::prelude::*;

    /// Returns how many verdicts were carried.
    fn check_seed(tseed: u64, qseed: u64) -> u64 {
        let mut carried = 0;
        let t = oracle::gen_trial(tseed).expect("trial generation");
        let keys: Vec<Vec<u8>> =
            t.db.index()
                .tree()
                .view()
                .scan_all()
                .expect("tree scan")
                .into_iter()
                .map(|(k, _)| k)
                .collect();
        let mut rng = Rng64::new(qseed);
        for _ in 0..4 {
            let q = oracle::gen_query(&t, &mut rng);
            let planner = t.db.planner();
            let matcher = match planner.matcher(&q) {
                Ok(m) => m,
                Err(_) => continue, // BadQuery path is covered by run_trials
            };
            let spec = planner.spec(q.index).expect("spec");
            let oracle_match = |k: &[u8]| -> Option<Vec<Option<usize>>> {
                let e = EntryKey::decode(k).ok()?;
                oracle::entry_matches(planner.schema, planner.encoding, spec, &q, &e)
            };
            let mut long_lived = ScanScratch::default();
            for (i, k) in keys.iter().enumerate() {
                let fresh = matcher.advise(k).expect("advise on well-formed key");
                // What a cursor stepping over a front-compressed leaf reports.
                let shared = i
                    .checked_sub(1)
                    .map_or(0, |p| common_prefix_len(&keys[p], k));
                let kept = matcher
                    .advise_with(k, shared, &mut long_lived)
                    .expect("advise");
                carried += u64::from(kept == Advice::Match { carried: true });
                assert_eq!(
                    Advised::read(kept, &long_lived),
                    fresh,
                    "a long-lived scratch changed the verdict: seeds \
                     {tseed:#x}/{qseed:#x}, query {q:?}"
                );
                match fresh {
                    Advised::Match(a) => assert_eq!(
                        oracle_match(k),
                        Some(a),
                        "advise matched a key the oracle rejects (or with a \
                         different assignment): seeds {tseed:#x}/{qseed:#x}, query {q:?}"
                    ),
                    Advised::Step => assert!(
                        oracle_match(k).is_none(),
                        "advise stepped over a matching key: seeds \
                         {tseed:#x}/{qseed:#x}, query {q:?}"
                    ),
                    Advised::SkipTo(target) => {
                        assert!(
                            target.as_slice() > k.as_slice(),
                            "SkipTo target does not advance: seeds \
                             {tseed:#x}/{qseed:#x}, query {q:?}"
                        );
                        assert!(
                            oracle_match(k).is_none(),
                            "advise skipped from a matching key: seeds \
                             {tseed:#x}/{qseed:#x}, query {q:?}"
                        );
                        for k2 in &keys[i + 1..] {
                            if k2.as_slice() >= target.as_slice() {
                                break;
                            }
                            assert!(
                                oracle_match(k2).is_none(),
                                "SkipTo jumps past a key the oracle matches: \
                                 seeds {tseed:#x}/{qseed:#x}, query {q:?}"
                            );
                        }
                    }
                    Advised::Done => {
                        for k2 in &keys[i..] {
                            assert!(
                                oracle_match(k2).is_none(),
                                "Done discards a key the oracle matches: \
                                 seeds {tseed:#x}/{qseed:#x}, query {q:?}"
                            );
                        }
                    }
                }
            }
        }
        carried
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn advise_is_sound_against_oracle(tseed in any::<u64>(), qseed in any::<u64>()) {
            check_seed(tseed, qseed);
        }
    }

    /// The property above is not vacuous: the trials do contain clusters.
    #[test]
    fn oracle_trials_exercise_the_carry() {
        let carried: u64 = (0..16).map(|seed| check_seed(seed, !seed)).sum();
        assert!(carried > 0, "no verdict was carried over 16 trials");
    }
}
