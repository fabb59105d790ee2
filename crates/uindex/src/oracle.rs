//! Differential correctness oracle for the U-index: the tests' reference,
//! which no product path calls.
//!
//! The crate's scan machinery answers queries by translating them into
//! *byte-range* constraints over encoded keys and skip-seeking through the
//! shared B-tree; the degraded path runs the same matcher over keys
//! recomputed from the object store. This module answers the same queries
//! a different way — by judging the recomputed entries with only
//! *semantic* operations (schema sub-class tests, [`Value`] comparisons,
//! OID set membership) — so the judge it checks and the judge it is share
//! no logic that could fail in the same direction. The entries it judges
//! are the product's recomputation, and the trials hold that to
//! [`reference_keys`], which derives the entry set from the objects by
//! other means.
//!
//! On top of the evaluator sits a seeded trial driver
//! ([`run_trials`]): each trial generates a random schema (1–3 class
//! hierarchies with REF chains between them), populates a [`Database`]
//! through its maintained mutation API (creates, attribute updates,
//! reference rewires, deletes), defines class-hierarchy / path / combined
//! indexes at random points, and then fires random queries, asserting for
//! every one of them that
//!
//! * the parallel (Algorithm 1) scan, the forward scan, and this oracle
//!   return **identical** hit lists (including position assignments);
//! * the parallel scan never reads more pages than the forward scan;
//! * a [`crate::DatabaseReader`] over the same database answers with the
//!   same hits, `ScanStats` and degraded flag as the writer handle;
//! * the tree passes [`crate::UIndex::verify`], and its entry set, the
//!   product's recomputation from the store and, object by object, the
//!   entries maintenance finds involving it all equal [`reference_keys`]:
//!   an enumeration of the entry set that shares no code with the
//!   product's;
//! * `distinct_through` at every position, under both algorithms, equals
//!   the oracle-side deduplication of the unrestricted hit list
//!   ([`distinct_filter`]);
//! * the degraded path — the query's matcher over the index's keys
//!   recomputed from the store — answers every query, and every
//!   `distinct_through` variant, as this oracle does, and refuses what the
//!   planner refuses.
//!
//! Every divergence panics with the trial seed, so a failure reproduces
//! with `run_trials(seed, 1)`.

use std::sync::atomic::AtomicBool;

use objstore::{ObjectStore, Oid, Value};
use schema::{AttrType, ClassId, Encoding, Schema};

use crate::db::Database;
use crate::error::Result;
use crate::exec::{run_guarded, Fallback};
use crate::index::{IndexId, Planner};
use crate::key::{EntryKey, KeyValue, PathElem};
use crate::query::{ClassSel, OidSel, PosPred, Query, QueryHit, ValuePred};
use crate::scan::ScanAlgorithm;
use crate::spec::IndexSpec;

// ----- deterministic PRNG ------------------------------------------------

/// SplitMix64: tiny, seedable, and good enough for test-case generation.
/// Kept local so the library does not grow a dependency for its oracle.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeded generator; distinct seeds give unrelated streams.
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

// ----- semantic predicate evaluation -------------------------------------

fn value_matches(pred: &ValuePred, v: &KeyValue) -> bool {
    use std::cmp::Ordering::*;
    let mut enc = Vec::new();
    v.encode_into(&mut enc);
    // As `Value::cmp_ordered`: a reference compares equal to anything.
    let cmp = |w: &Value| w.encode_ordered().map_or(Equal, |w| enc.cmp(&w));
    match pred {
        ValuePred::Any => true,
        ValuePred::Eq(w) => cmp(w) == Equal,
        ValuePred::In(ws) => ws.iter().any(|w| cmp(w) == Equal),
        ValuePred::Range {
            lo,
            hi,
            hi_inclusive,
        } => {
            let above_lo = lo.as_ref().is_none_or(|l| cmp(l) != Less);
            let below_hi = hi.as_ref().is_none_or(|h| {
                let ord = cmp(h);
                ord == Less || (*hi_inclusive && ord == Equal)
            });
            above_lo && below_hi
        }
    }
}

fn class_sel_matches(schema: &Schema, sel: &ClassSel, class: ClassId) -> bool {
    match sel {
        ClassSel::Any => true,
        ClassSel::Exact(c) => class == *c,
        ClassSel::SubTree(c) => schema.is_subclass_of(class, *c),
        ClassSel::AnyOf(sels) => sels.iter().any(|s| class_sel_matches(schema, s, class)),
    }
}

fn oid_sel_matches(sel: &OidSel, oid: Oid) -> bool {
    match sel {
        OidSel::Any => true,
        OidSel::Is(o) => oid == *o,
        OidSel::In(set) => set.contains(&oid),
    }
}

fn in_scope(schema: &Schema, spec: &IndexSpec, pos: usize, class: ClassId) -> bool {
    let pc = spec.positions[pos].class;
    if spec.include_subclasses {
        schema.is_subclass_of(class, pc)
    } else {
        class == pc
    }
}

fn pred_at(q: &Query, pos: usize) -> Option<&PosPred> {
    q.preds.iter().find(|(p, _)| *p == pos).map(|(_, p)| p)
}

fn pos_required(q: &Query, pos: usize) -> bool {
    pred_at(q, pos).is_some_and(|p| !p.class.is_any() || !p.oid.is_any())
}

/// Decide semantically whether `entry` satisfies `q`, returning the
/// per-position assignment on a match — the ground truth that
/// the scan's byte-range matcher must agree with.
pub fn entry_matches(
    schema: &Schema,
    encoding: &Encoding,
    spec: &IndexSpec,
    q: &Query,
    entry: &EntryKey,
) -> Option<Vec<Option<usize>>> {
    if entry.index_id != q.index || !value_matches(&q.value, &entry.value) {
        return None;
    }
    let mut assignment = vec![None; spec.positions.len()];
    let mut next_pos = 0;
    for (ei, elem) in entry.path.iter().enumerate() {
        let class = encoding.class_by_code(&elem.code)?;
        // Spec validation guarantees pairwise-disjoint position scopes, so
        // an element belongs to at most one position.
        let owner = (0..spec.positions.len()).find(|&p| in_scope(schema, spec, p, class));
        let Some(pos) = owner else {
            return None; // element outside every position's scope
        };
        if pos < next_pos {
            return None; // out of order / duplicate position
        }
        // The entry jumps over positions next_pos..pos entirely; a query
        // constraining any of them cannot be satisfied by this entry.
        if (next_pos..pos).any(|p| pos_required(q, p)) {
            return None;
        }
        if let Some(pred) = pred_at(q, pos) {
            if !class_sel_matches(schema, &pred.class, class)
                || !oid_sel_matches(&pred.oid, elem.oid)
            {
                return None;
            }
        }
        assignment[pos] = Some(ei);
        next_pos = pos + 1;
    }
    // Positions the entry stops short of: constrained ones fail.
    if (next_pos..spec.positions.len()).any(|p| pos_required(q, p)) {
        return None;
    }
    Some(assignment)
}

// ----- reference entry enumeration ---------------------------------------

/// The encoded keys of every entry of index `id` (defined by `spec` under
/// `encoding`), ascending and without duplicates, derived from `store`
/// without the product's entry walk: each chain of the spec's position
/// forest is instantiated one position at a time from the anchors in
/// scope that hold a value, and a position's objects are found by reading
/// every live object's via attribute forward. It never reads the store's
/// reverse references, and decides scope by this module's own rule.
pub fn reference_keys(
    encoding: &Encoding,
    spec: &IndexSpec,
    id: IndexId,
    store: &ObjectStore,
) -> Result<Vec<Vec<u8>>> {
    let schema = store.schema();
    let in_scope_at = |pos: usize, oid: Oid| {
        store
            .class_of(oid)
            .is_ok_and(|c| in_scope(schema, spec, pos, c))
    };
    let value_of = |oid: Oid| -> Result<Option<KeyValue>> {
        let value = store.get(oid)?.get(spec.attr.0, spec.attr.1);
        Ok(value.and_then(|v| KeyValue::try_from(v).ok()))
    };
    let mut keys = Vec::new();
    // A chain runs from position 0 to a position no other one names as
    // its parent.
    let n = spec.positions.len();
    for leaf in (0..n).filter(|&p| spec.positions.iter().all(|s| s.parent != Some(p))) {
        let mut chain = vec![leaf];
        while let Some(parent) = spec.positions[chain[0]].parent {
            chain.insert(0, parent);
        }
        // Every instantiation of the chain's positions so far.
        let mut rows: Vec<Vec<Oid>> = Vec::new();
        for oid in store.oids().filter(|&o| in_scope_at(0, o)) {
            if value_of(oid)?.is_some() {
                rows.push(vec![oid]);
            }
        }
        for &pos in &chain[1..] {
            let (decl, attr) = spec.positions[pos].via.expect("non-root position");
            let mut longer = Vec::new();
            for row in &rows {
                let parent = *row.last().expect("a row holds its anchor");
                for oid in store.oids().filter(|&o| in_scope_at(pos, o)) {
                    let refers = match store.get(oid)?.get(decl, attr) {
                        Some(Value::Ref(t)) => *t == parent,
                        Some(Value::RefSet(ts)) => ts.contains(&parent),
                        _ => false,
                    };
                    if refers {
                        longer.push([row.as_slice(), &[oid]].concat());
                    }
                }
            }
            rows = longer;
        }
        for row in rows {
            let mut path = Vec::with_capacity(row.len());
            for &oid in &row {
                let class = store.class_of(oid)?;
                let code = encoding.code(class).expect("a class in scope has a code");
                path.push(PathElem {
                    code: code.as_bytes().into(),
                    oid,
                });
            }
            let entry = EntryKey {
                index_id: id,
                value: value_of(row[0])?.expect("anchors hold a value"),
                path: path.into(),
            };
            keys.push(entry.encode());
        }
    }
    keys.sort_unstable();
    keys.dedup();
    Ok(keys)
}

/// Check index `id` of `db` against [`reference_keys`]: the product's
/// recomputation ([`Planner`]'s `all_keys`), the maintained tree's
/// entries, and for every live object the entries maintenance finds
/// involving it — the reference keys whose path holds the object.
fn check_entry_set(db: &Database, id: IndexId, tseed: u64) {
    let store = db.store();
    let spec = &db.index().specs()[usize::from(id)];
    let reference = reference_keys(db.index().encoding(), spec, id, store)
        .unwrap_or_else(|e| panic!("reference enumeration failed (seed {tseed:#x}): {e}"));
    let planner = db.planner();
    let walked: Vec<Vec<u8>> = planner
        .all_keys(store, id)
        .expect("entry walk")
        .iter()
        .map(<[u8]>::to_vec)
        .collect();
    assert_eq!(
        walked, reference,
        "index {id}: the entry walk diverges from the reference enumeration (seed {tseed:#x})"
    );
    let prefix = EntryKey::index_prefix(id);
    let next_prefix = EntryKey::index_prefix(id + 1);
    let stored: Vec<Vec<u8>> = db
        .index()
        .tree()
        .view()
        .scan_all()
        .expect("tree scan")
        .into_iter()
        .map(|(k, _)| k)
        .filter(|k| k.as_slice() >= prefix.as_slice() && k.as_slice() < next_prefix.as_slice())
        .collect();
    assert_eq!(
        stored, reference,
        "index {id}: maintained tree entries diverge from the reference \
         enumeration (seed {tseed:#x})"
    );
    let entries: Vec<EntryKey> = reference
        .iter()
        .map(|k| EntryKey::decode(k).expect("reference key decodes"))
        .collect();
    for oid in store.oids() {
        let want: Vec<Vec<u8>> = reference
            .iter()
            .zip(&entries)
            .filter(|(_, e)| e.path.iter().any(|elem| elem.oid == oid))
            .map(|(k, _)| k.clone())
            .collect();
        let got: Vec<Vec<u8>> = planner
            .entries_involving(store, id, oid)
            .expect("involved entries")
            .iter()
            .map(<[u8]>::to_vec)
            .collect();
        assert_eq!(
            got, want,
            "index {id}: entries involving {oid:?} diverge from the reference \
             enumeration (seed {tseed:#x})"
        );
    }
}

// ----- brute-force evaluation --------------------------------------------

/// All entries of index `id`, in key order: [`Planner`]'s recomputation
/// from the current store state — the metadata view and the objects
/// alone, never the index's B-tree — decoded.
pub fn all_entries(
    planner: Planner<'_>,
    store: &ObjectStore,
    id: IndexId,
) -> Result<Vec<EntryKey>> {
    planner
        .all_keys(store, id)?
        .iter()
        .map(EntryKey::decode)
        .collect()
}

/// Evaluate `q` by brute force against a metadata view and an object
/// store: recompute the index's entries and filter them with
/// [`entry_matches`]. Hits come back in key order, exactly as the scans
/// produce them. Tree-free, like [`all_entries`].
pub fn eval(planner: Planner<'_>, store: &ObjectStore, q: &Query) -> Result<Vec<QueryHit>> {
    let spec = planner.spec(q.index)?;
    let mut hits = Vec::new();
    // `all_entries` comes in key order.
    for entry in all_entries(planner, store, q.index)? {
        if let Some(assignment) = entry_matches(planner.schema, planner.encoding, spec, q, &entry) {
            hits.push(QueryHit {
                key: entry,
                assignment: assignment.into(),
            });
        }
    }
    Ok(hits)
}

/// Apply `distinct_through(pos)` semantics to an ordered hit list: after a
/// hit whose assignment covers `pos`, drop every following hit extending
/// the same (value, path-prefix-through-`pos`) combination.
pub fn distinct_filter(hits: &[QueryHit], pos: usize) -> Vec<QueryHit> {
    let mut out: Vec<QueryHit> = Vec::new();
    let mut bound: Option<Vec<u8>> = None;
    for h in hits {
        let enc = h.key.encode();
        if let Some(p) = &bound {
            if enc.starts_with(p) {
                continue;
            }
        }
        if let Some(ei) = h.assignment.get(pos) {
            let prefix = EntryKey {
                index_id: h.key.index_id,
                value: h.key.value.clone(),
                path: h.key.path[..=ei].to_vec().into(),
            }
            .encode();
            bound = Some(prefix);
        }
        out.push(h.clone());
    }
    out
}

// ----- random trial generation -------------------------------------------

/// A generated database plus the metadata queries are drawn from.
///
/// With three hierarchies, hierarchy 2 also references hierarchy 0
/// directly (attribute `R0`), and a multi-path index merges the paths
/// from hierarchies 1 and 2 to hierarchy 0: a position forest with two
/// chains.
pub struct TrialDb {
    /// The database under test.
    pub db: Database,
    /// Indexes defined in it.
    pub indexes: Vec<IndexId>,
    /// Classes grouped by hierarchy; hierarchy `i > 0` references `i - 1`,
    /// and hierarchy 2 references hierarchy 0 as well.
    pub hierarchies: Vec<Vec<ClassId>>,
    /// The indexed attribute's type, per hierarchy.
    pub vtypes: Vec<AttrType>,
    /// Live objects.
    pub oids: Vec<Oid>,
}

fn rand_value(rng: &mut Rng64, ty: AttrType) -> Value {
    match ty {
        AttrType::Str => {
            let pool = ["", "a", "b", "bb", "c", "d"];
            Value::Str((*rng.pick(&pool)).to_string())
        }
        AttrType::Bool => Value::Bool(rng.chance(1, 2)),
        // Small domain so values collide and queries group entries.
        _ => Value::Int(rng.below(9) as i64 - 4),
    }
}

/// Generate one random schema + database, mutated exclusively through the
/// maintained [`Database`] API so incremental index upkeep is exercised.
pub fn gen_trial(seed: u64) -> Result<TrialDb> {
    let mut rng = Rng64::new(seed);
    let mut schema = Schema::new();
    let n_hier = 1 + rng.below(3) as usize;
    let mut hierarchies: Vec<Vec<ClassId>> = Vec::new();
    let mut vtypes = Vec::new();
    let mut multi_ref = vec![false; n_hier];
    for h in 0..n_hier {
        let root = schema.add_class(&format!("H{h}"))?;
        let mut classes = vec![root];
        for s in 0..rng.below(4) as usize {
            let parent = *rng.pick(&classes);
            classes.push(schema.add_subclass(&format!("H{h}S{s}"), parent)?);
        }
        let vt = match rng.below(10) {
            0..=5 => AttrType::Int,
            6..=8 => AttrType::Str,
            _ => AttrType::Bool,
        };
        schema.add_attr(root, "V", vt)?;
        vtypes.push(vt);
        if h > 0 {
            // Reference chain towards hierarchy 0 keeps the REF graph
            // acyclic, which the code encoding requires.
            let target = hierarchies[h - 1][0];
            multi_ref[h] = rng.chance(1, 5);
            let ty = if multi_ref[h] {
                AttrType::RefSet(target)
            } else {
                AttrType::Ref(target)
            };
            schema.add_attr(root, "R", ty)?;
        }
        if h == 2 {
            schema.add_attr(root, "R0", AttrType::Ref(hierarchies[0][0]))?;
        }
        hierarchies.push(classes);
    }

    let mut db = Database::in_memory(schema)?;

    // Index definitions, registered at random points of the mutation
    // stream so both bulk build and incremental maintenance run.
    let mut builders: Vec<IndexSpec> = Vec::new();
    for (h, classes) in hierarchies.iter().enumerate() {
        let b = IndexSpec::class_hierarchy(&format!("ch{h}"), classes[0], "V");
        builders.push(b.build(db.schema())?);
    }
    if n_hier >= 2 {
        let refs: Vec<&str> = vec!["R"; n_hier - 1];
        let b = IndexSpec::path("path", hierarchies[n_hier - 1][0], &refs, "V");
        let b = if rng.chance(1, 3) {
            b.exact_classes()
        } else {
            b
        };
        builders.push(b.build(db.schema())?);
    }
    if n_hier == 3 {
        let b = IndexSpec::path("path_mid", hierarchies[1][0], &["R"], "V");
        builders.push(b.build(db.schema())?);
        let exact = rng.chance(1, 3);
        let branch = |name: &str, top: ClassId, via: &str| {
            let b = IndexSpec::path(name, top, &[via], "V");
            if exact { b.exact_classes() } else { b }.build(db.schema())
        };
        let multi = branch("multi", hierarchies[1][0], "R")?;
        builders.push(multi.merge(&branch("multi", hierarchies[2][0], "R0")?)?);
    }
    builders.reverse(); // pop() takes them in declaration order
    let mut indexes = Vec::new();

    let mut oids: Vec<Oid> = Vec::new();
    let mut oids_by_hier: Vec<Vec<Oid>> = vec![Vec::new(); n_hier];
    let hier_of = |hierarchies: &[Vec<ClassId>], c: ClassId| {
        hierarchies
            .iter()
            .position(|cl| cl.contains(&c))
            .expect("class belongs to a hierarchy")
    };

    let n_ops = 20 + rng.below(40);
    for _ in 0..n_ops {
        match rng.below(10) {
            // Create an object, usually with a value and a reference.
            0..=4 => {
                let h = rng.below(n_hier as u64) as usize;
                let class = *rng.pick(&hierarchies[h]);
                let oid = db.create_object(class)?;
                oids.push(oid);
                oids_by_hier[h].push(oid);
                if rng.chance(5, 6) {
                    let v = rand_value(&mut rng, vtypes[h]);
                    db.set_attr(oid, "V", v)?;
                }
                if h > 0 && !oids_by_hier[h - 1].is_empty() && rng.chance(4, 5) {
                    let v = if multi_ref[h] {
                        let n = 1 + rng.below(3);
                        let ts = (0..n).map(|_| *rng.pick(&oids_by_hier[h - 1])).collect();
                        Value::RefSet(ts)
                    } else {
                        Value::Ref(*rng.pick(&oids_by_hier[h - 1]))
                    };
                    db.set_attr(oid, "R", v)?;
                }
                if h == 2 && !oids_by_hier[0].is_empty() && rng.chance(1, 2) {
                    db.set_attr(oid, "R0", Value::Ref(*rng.pick(&oids_by_hier[0])))?;
                }
            }
            // Overwrite a value (index entry migration).
            5 | 6 => {
                if let Some(&oid) = (!oids.is_empty()).then(|| rng.pick(&oids)) {
                    let h = hier_of(&hierarchies, db.store().class_of(oid)?);
                    let v = rand_value(&mut rng, vtypes[h]);
                    db.set_attr(oid, "V", v)?;
                }
            }
            // Rewire a reference (mid-path update, §3.5's hard case).
            7 => {
                if let Some(&oid) = (!oids.is_empty()).then(|| rng.pick(&oids)) {
                    let h = hier_of(&hierarchies, db.store().class_of(oid)?);
                    if h > 0 && !oids_by_hier[h - 1].is_empty() {
                        let v = if multi_ref[h] {
                            Value::RefSet(vec![*rng.pick(&oids_by_hier[h - 1])])
                        } else {
                            Value::Ref(*rng.pick(&oids_by_hier[h - 1]))
                        };
                        db.set_attr(oid, "R", v)?;
                    }
                }
            }
            // Delete (forced, so dangling references stay behind).
            8 => {
                if !oids.is_empty() {
                    let i = rng.below(oids.len() as u64) as usize;
                    let oid = oids.swap_remove(i);
                    db.delete_object(oid, true)?;
                    for v in &mut oids_by_hier {
                        v.retain(|&o| o != oid);
                    }
                }
            }
            // Define the next pending index over whatever data exists.
            _ => {
                if let Some(spec) = builders.pop() {
                    indexes.push(db.define_index_spec(spec)?);
                }
            }
        }
    }
    while let Some(spec) = builders.pop() {
        indexes.push(db.define_index_spec(spec)?);
    }

    Ok(TrialDb {
        db,
        indexes,
        hierarchies,
        vtypes,
        oids,
    })
}

/// Generate a random query against one of the trial's indexes. Some
/// queries are deliberately unsatisfiable (empty ranges, selectors outside
/// the index's scope) to exercise the `BadQuery` translation path.
pub fn gen_query(t: &TrialDb, rng: &mut Rng64) -> Query {
    let id = *rng.pick(&t.indexes);
    let spec = t.db.planner().spec(id).expect("index defined");
    let anchor_hier = t
        .hierarchies
        .iter()
        .position(|cl| cl.contains(&spec.positions[0].class))
        .expect("anchor class in a hierarchy");
    let vt = t.vtypes[anchor_hier];

    let mut q = Query::on(id);
    q = q.value(match rng.below(8) {
        0 | 1 => ValuePred::Any,
        2..=4 => ValuePred::eq(rand_value(rng, vt)),
        5 => ValuePred::In((0..1 + rng.below(3)).map(|_| rand_value(rng, vt)).collect()),
        _ => {
            let a = rand_value(rng, vt);
            let b = rand_value(rng, vt);
            let (lo, hi) = if a.cmp_ordered(&b) == std::cmp::Ordering::Greater {
                (b, a)
            } else {
                (a, b)
            };
            ValuePred::Range {
                lo: (!rng.chance(1, 5)).then_some(lo),
                hi: (!rng.chance(1, 5)).then_some(hi),
                hi_inclusive: rng.chance(1, 2),
            }
        }
    });

    let all_classes: Vec<ClassId> = t.hierarchies.iter().flatten().copied().collect();
    for pos in 0..spec.positions.len() {
        let pos_hier = t
            .hierarchies
            .iter()
            .position(|cl| cl.contains(&spec.positions[pos].class))
            .expect("position class in a hierarchy");
        if rng.chance(2, 5) {
            // Mostly classes from the position's own hierarchy; sometimes a
            // foreign one, which must translate to BadQuery or no hits.
            let from = if rng.chance(5, 6) {
                &t.hierarchies[pos_hier]
            } else {
                &all_classes
            };
            let sel = match rng.below(4) {
                0 => ClassSel::Exact(*rng.pick(from)),
                1 => ClassSel::SubTree(*rng.pick(from)),
                2 => ClassSel::any_of_exact(&[*rng.pick(from), *rng.pick(from)]),
                _ => ClassSel::any_of_subtrees(&[*rng.pick(from)]),
            };
            q = q.class_at(pos, sel);
        }
        if rng.chance(1, 4) && !t.oids.is_empty() {
            let sel = if rng.chance(1, 2) {
                OidSel::Is(*rng.pick(&t.oids))
            } else {
                OidSel::In((0..1 + rng.below(3)).map(|_| *rng.pick(&t.oids)).collect())
            };
            q = q.oid_at(pos, sel);
        }
    }
    q
}

// ----- the driver --------------------------------------------------------

/// Counters from a [`run_trials`] sweep, for sanity-asserting coverage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialSummary {
    /// Databases generated.
    pub trials: u64,
    /// Queries compared across all three evaluators.
    pub queries: u64,
    /// Total hits across all queries.
    pub hits: u64,
    /// Queries rejected by translation (`BadQuery`) — the oracle must
    /// agree they select nothing.
    pub bad_queries: u64,
    /// `distinct_through` cross-checks performed.
    pub distinct_checks: u64,
    /// Trials with a multi-path index: a position forest with two chains.
    pub branching_trials: u64,
}

/// Cumulative telemetry registry values sampled around one query: what the
/// per-query histograms and the query count recorded for it.
struct RegistrySample {
    query_count: u64,
    hist_pages_count: u64,
    hist_pages_sum: u64,
    hist_entries_sum: u64,
}

impl RegistrySample {
    fn take() -> Self {
        let pages_h = telemetry::histogram("uindex.query.pages");
        let entries_h = telemetry::histogram("uindex.query.entries");
        RegistrySample {
            query_count: telemetry::counter_value("uindex.query.count"),
            hist_pages_count: pages_h.count(),
            hist_pages_sum: pages_h.sum(),
            hist_entries_sum: entries_h.sum(),
        }
    }
}

/// The invariants every successful parallel trial query's trace must obey:
/// the reseek tiers decompose the skip count, every skip expands a partial
/// key, and the registry records exactly one query, with this query's
/// totals in the per-query histograms.
fn check_trace_invariants(
    trace: &crate::scan::QueryTrace,
    reg0: &RegistrySample,
    reg1: &RegistrySample,
    tseed: u64,
    q: &Query,
) {
    let ctx = format!("(seed {tseed:#x}, query {q:?})");
    let ps = &trace.stats;
    assert_eq!(
        reg1.query_count - reg0.query_count,
        1,
        "exactly one query recorded {ctx}"
    );
    // Under the hierarchical (Parallel) algorithm every skip is resolved by
    // exactly one reseek, at exactly one tier.
    assert_eq!(
        trace.reseeks_leaf + trace.reseeks_lca + trace.reseeks_full,
        ps.seeks,
        "reseek tiers must decompose the skip count {ctx}"
    );
    assert!(
        trace.partial_keys_expanded >= ps.seeks,
        "every skip expands at least one partial key {ctx}"
    );
    assert_eq!(
        reg1.hist_pages_count - reg0.hist_pages_count,
        1,
        "pages histogram records one observation per query {ctx}"
    );
    assert_eq!(
        reg1.hist_pages_sum - reg0.hist_pages_sum,
        ps.pages_read,
        "pages histogram total diverges from ScanStats.pages_read {ctx}"
    );
    assert_eq!(
        reg1.hist_entries_sum - reg0.hist_entries_sum,
        ps.entries_examined,
        "entries histogram total diverges from ScanStats.entries_examined {ctx}"
    );
}

/// The writer handle's answer to `q` (`writer`, its hits in `want`) must be
/// the reader handle's too: the same hits, `ScanStats` and degraded flag, or
/// an error on both.
fn check_reader_agrees<P: pagestore::PageStore>(
    reader: &crate::DatabaseReader<P>,
    q: &Query,
    want: &[QueryHit],
    writer: &Result<(crate::scan::QueryTrace, bool)>,
    tseed: u64,
) {
    let mut hits = Vec::new();
    let read = reader.query_guarded_into(&reader.snapshot(), q, &mut hits);
    match (writer, read) {
        (Ok((trace, degraded)), Ok((stats, reader_degraded))) => {
            let ctx = format!("(seed {tseed:#x}, query {q:?})");
            assert_eq!(hits, want, "reader hits diverge from the writer's {ctx}");
            assert_eq!(stats, trace.stats, "reader ScanStats diverge {ctx}");
            assert_eq!(reader_degraded, *degraded, "degraded flags diverge {ctx}");
        }
        (Err(w), Err(r)) => assert_eq!(
            w.to_string(),
            r.to_string(),
            "reader and writer refuse differently (seed {tseed:#x}, query {q:?})"
        ),
        (w, r) => panic!(
            "reader and writer disagree on query validity (seed {tseed:#x}, \
             query {q:?}): writer {w:?} vs reader {r:?}"
        ),
    }
}

/// `q` on `db` answered by the degraded path: [`crate::exec::run_guarded`]
/// with a quarantine flag already set, so no tree page is read.
fn degraded_answer(db: &Database, q: &Query) -> Result<Vec<QueryHit>> {
    let planner = db.planner();
    let fallback = Fallback {
        planner,
        store: db.store(),
        quarantined: &AtomicBool::new(true),
    };
    let view = db.index().tree().view();
    let mut hits = Vec::new();
    let (_, degraded) = run_guarded(&view, planner.matcher(q), Some(fallback), q, &mut hits)?;
    assert!(degraded, "a quarantined answer is degraded");
    Ok(hits)
}

/// Run `trials` seeded random schema/database/query trials, panicking on
/// the first divergence between the parallel scan, the forward scan, and
/// the brute-force oracle. Failures print the per-trial seed.
pub fn run_trials(seed: u64, trials: usize) -> TrialSummary {
    let mut sum = TrialSummary::default();
    for tn in 0..trials {
        let tseed = seed ^ (tn as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut t = gen_trial(tseed)
            .unwrap_or_else(|e| panic!("trial generation failed (seed {tseed:#x}): {e}"));

        // Structural ground truth: the tree is well-formed, and per index
        // its entries and the product's enumerations equal the reference.
        t.db.index_mut()
            .verify()
            .unwrap_or_else(|e| panic!("tree verify failed (seed {tseed:#x}): {e}"));
        for &id in &t.indexes {
            check_entry_set(&t.db, id, tseed);
        }
        let specs = t.db.index().specs();
        let branching = specs.iter().any(|spec| {
            (0..spec.positions.len()).any(|p| {
                spec.positions
                    .iter()
                    .filter(|s| s.parent == Some(p))
                    .count()
                    > 1
            })
        });
        sum.branching_trials += u64::from(branching);

        // The reader handle, taken after the trial's last mutation, must
        // answer every query exactly as the writer handle does.
        let reader = t.db.reader_with_fallback();
        let mut rng = Rng64::new(tseed ^ 0x5851_F42D_4C95_7F2D);
        for _ in 0..4 + rng.below(5) {
            let q = gen_query(&t, &mut rng);
            let mut fq = q.clone();
            fq.algorithm = ScanAlgorithm::Forward;
            let oracle = eval(t.db.planner(), t.db.store(), &q)
                .unwrap_or_else(|e| panic!("oracle eval failed (seed {tseed:#x}): {e}"));
            // Cumulative registry state around the parallel run, for its
            // histogram observations.
            let reg0 = RegistrySample::take();
            let mut ph = Vec::new();
            let par = t.db.query_traced_guarded(&q, &mut ph);
            let reg1 = RegistrySample::take();
            check_reader_agrees(&reader, &q, &ph, &par, tseed);
            let fwd = t.db.query_with_stats(&fq);
            sum.queries += 1;
            match (par, fwd) {
                (Ok((ptrace, degraded)), Ok((fh, fs))) => {
                    assert!(
                        !degraded,
                        "a healthy trial answered degraded (seed {tseed:#x})"
                    );
                    check_trace_invariants(&ptrace, &reg0, &reg1, tseed, &q);
                    let ps = ptrace.stats;
                    assert_eq!(
                        ph, oracle,
                        "parallel scan diverges from oracle (seed {tseed:#x}, query {q:?})"
                    );
                    assert_eq!(
                        fh, oracle,
                        "forward scan diverges from oracle (seed {tseed:#x}, query {q:?})"
                    );
                    assert!(
                        ps.pages_read <= fs.pages_read,
                        "parallel scan read more pages than forward \
                         ({} > {}) (seed {tseed:#x}, query {q:?})",
                        ps.pages_read,
                        fs.pages_read
                    );
                    assert!(
                        ps.node_visits <= fs.node_visits,
                        "parallel scan visited more nodes than forward \
                         ({} > {}) (seed {tseed:#x}, query {q:?})",
                        ps.node_visits,
                        fs.node_visits
                    );
                    sum.hits += ph.len() as u64;
                    let ctx = format!("(seed {tseed:#x}, query {q:?})");
                    let degraded = degraded_answer(&t.db, &q)
                        .unwrap_or_else(|e| panic!("degraded path refused {ctx}: {e}"));
                    assert_eq!(
                        degraded, oracle,
                        "degraded answer diverges from oracle {ctx}"
                    );
                    let npos = t.db.planner().spec(q.index).expect("spec").positions.len();
                    for pos in 0..npos {
                        let want = distinct_filter(&oracle, pos);
                        let dq = q.clone().distinct_through(pos);
                        for algorithm in [ScanAlgorithm::Parallel, ScanAlgorithm::Forward] {
                            let aq = Query {
                                algorithm,
                                ..dq.clone()
                            };
                            let (dh, _) = t.db.query_with_stats(&aq).expect("distinct query");
                            assert_eq!(
                                dh, want,
                                "{algorithm:?} distinct_through({pos}) diverges from oracle dedup {ctx}"
                            );
                        }
                        let dh = degraded_answer(&t.db, &dq).expect("degraded distinct query");
                        assert_eq!(
                            dh, want,
                            "degraded distinct_through({pos}) diverges from oracle dedup {ctx}"
                        );
                        sum.distinct_checks += 1;
                    }
                }
                (Err(_), Err(_)) => {
                    assert!(
                        oracle.is_empty(),
                        "translation rejected a query the oracle satisfies \
                         (seed {tseed:#x}, query {q:?})"
                    );
                    assert!(
                        degraded_answer(&t.db, &q).is_err(),
                        "the degraded path answered a query the planner refuses \
                         (seed {tseed:#x}, query {q:?})"
                    );
                    sum.bad_queries += 1;
                }
                (p, f) => panic!(
                    "algorithms disagree on query validity (seed {tseed:#x}, \
                     query {q:?}): parallel {p:?} vs forward {f:?}"
                ),
            }
        }
        // End-of-trial structural check: the query workload (including its
        // degraded/distinct variants) must leave the tree verifiable, so a
        // scan that corrupted state cannot hide behind matching results.
        t.db.index_mut()
            .verify()
            .unwrap_or_else(|e| panic!("post-trial tree verify failed (seed {tseed:#x}): {e}"));
        sum.trials += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng64::new(1).next_u64(), Rng64::new(2).next_u64());
    }

    #[test]
    fn value_pred_semantics() {
        let p = ValuePred::between(Value::Int(2), Value::Int(5));
        assert!(!value_matches(&p, &KeyValue::Int(1)));
        assert!(value_matches(&p, &KeyValue::Int(2)));
        assert!(value_matches(&p, &KeyValue::Int(5)));
        let p = ValuePred::Range {
            lo: Some(Value::Int(2)),
            hi: Some(Value::Int(5)),
            hi_inclusive: false,
        };
        assert!(!value_matches(&p, &KeyValue::Int(5)));
        assert!(value_matches(&ValuePred::Any, &KeyValue::Bool(true)));
    }

    #[test]
    fn distinct_filter_drops_extensions() {
        // Two-position entries sharing (value, first element): only the
        // first survives a distinct through position 0.
        let mk = |o1: u32, o2: u32| QueryHit {
            key: EntryKey {
                index_id: 1,
                value: KeyValue::Int(3),
                path: vec![
                    crate::key::PathElem {
                        code: [b'B', 1].into(),
                        oid: Oid(o1),
                    },
                    crate::key::PathElem {
                        code: [b'C', 1].into(),
                        oid: Oid(o2),
                    },
                ]
                .into(),
            },
            assignment: [Some(0), Some(1)].into(),
        };
        let hits = vec![mk(1, 1), mk(1, 2), mk(2, 1)];
        let kept = distinct_filter(&hits, 0);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].key.path[0].oid, Oid(1));
        assert_eq!(kept[1].key.path[0].oid, Oid(2));
        // Distinct through the last position keeps everything.
        assert_eq!(distinct_filter(&hits, 1).len(), 3);
    }

    #[test]
    fn smoke_trials() {
        let sum = run_trials(0x0BAD_5EED, 4);
        assert_eq!(sum.trials, 4);
        assert!(sum.queries >= 16);
    }
}
