//! The query model (§3.4 "Translation of Queries").
//!
//! The paper's general query format is
//! `(attr-value, Class-code₁, Val₁, Class-code₂, Val₂, …)` where the value
//! may be a range expression, class codes may be regular expressions over
//! the encoding (exact class, whole sub-tree, or a union), and each `Valᵢ`
//! is null (unconstrained), an actual OID, a set of OIDs from a prior
//! select, or "?" (to be found). [`Query`] is that format; translation into
//! byte-range constraints per key field happens in [`crate::scan`].

use std::collections::BTreeSet;

use objstore::{Oid, Value};
use schema::ClassId;

use crate::index::IndexId;
use crate::inline::InlineVec;
use crate::key::{EntryKey, KeyValue};
use crate::scan::ScanAlgorithm;

/// Predicate on the indexed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuePred {
    /// Any value.
    Any,
    /// Exactly this value.
    Eq(Value),
    /// Any of these values (the paper enumerates range values; `In` is the
    /// enumerated form).
    In(Vec<Value>),
    /// A range. `lo` is inclusive when present; `hi_inclusive` selects
    /// whether `hi` is included.
    Range {
        /// Inclusive lower bound.
        lo: Option<Value>,
        /// Upper bound.
        hi: Option<Value>,
        /// Whether `hi` itself matches.
        hi_inclusive: bool,
    },
}

impl ValuePred {
    /// Exact-match predicate.
    pub fn eq(v: Value) -> Self {
        ValuePred::Eq(v)
    }

    /// Inclusive range `[lo, hi]`.
    pub fn between(lo: Value, hi: Value) -> Self {
        ValuePred::Range {
            lo: Some(lo),
            hi: Some(hi),
            hi_inclusive: true,
        }
    }

    /// Open-ended range `>= lo`.
    pub fn at_least(lo: Value) -> Self {
        ValuePred::Range {
            lo: Some(lo),
            hi: None,
            hi_inclusive: false,
        }
    }

    /// Open-ended range `<= hi`.
    pub fn at_most(hi: Value) -> Self {
        ValuePred::Range {
            lo: None,
            hi: Some(hi),
            hi_inclusive: true,
        }
    }
}

/// Class selector at one path position — the paper's "regular expression"
/// over class codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassSel {
    /// Any class this position covers.
    Any,
    /// Exactly this class, no sub-classes.
    Exact(ClassId),
    /// This class and its whole sub-tree (`C5A*` in paper notation).
    SubTree(ClassId),
    /// Union of selectors (`[C5A*, C5B]`).
    AnyOf(Vec<ClassSel>),
}

impl ClassSel {
    /// Union of exact classes.
    pub fn any_of_exact(classes: &[ClassId]) -> Self {
        ClassSel::AnyOf(classes.iter().map(|&c| ClassSel::Exact(c)).collect())
    }

    /// Union of sub-trees.
    pub fn any_of_subtrees(classes: &[ClassId]) -> Self {
        ClassSel::AnyOf(classes.iter().map(|&c| ClassSel::SubTree(c)).collect())
    }

    /// Whether this selector constrains anything.
    pub fn is_any(&self) -> bool {
        matches!(self, ClassSel::Any)
    }
}

/// OID restriction at one path position: the paper's `Valᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OidSel {
    /// Unconstrained (null or "?").
    Any,
    /// A single known object.
    Is(Oid),
    /// A set of objects, typically from a prior select (paper query 3:
    /// "companies with more than 50,000 employees" is selected first, then
    /// joined against the index).
    In(BTreeSet<Oid>),
}

impl OidSel {
    /// Whether this selector constrains anything.
    pub fn is_any(&self) -> bool {
        matches!(self, OidSel::Any)
    }
}

/// Combined predicate for one path position.
#[derive(Debug, Clone, PartialEq)]
pub struct PosPred {
    /// Class restriction.
    pub class: ClassSel,
    /// OID restriction.
    pub oid: OidSel,
}

impl Default for PosPred {
    fn default() -> Self {
        PosPred {
            class: ClassSel::Any,
            oid: OidSel::Any,
        }
    }
}

/// A query against one index of a [`crate::UIndex`].
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Target index.
    pub index: IndexId,
    /// Value predicate.
    pub value: ValuePred,
    /// Per-position predicates, indexed by spec position. Missing positions
    /// are unconstrained.
    pub preds: Vec<(usize, PosPred)>,
    /// Scan algorithm (the paper's Algorithm 1 by default).
    pub algorithm: ScanAlgorithm,
    /// If set, after each match skip directly past the matched combination
    /// at this position — deduplicating results projected at or below it
    /// (used by the paper's "find companies, not vehicles" queries).
    pub distinct_upto: Option<usize>,
}

impl Query {
    /// A query on `index` matching everything.
    pub fn on(index: IndexId) -> Self {
        Query {
            index,
            value: ValuePred::Any,
            preds: Vec::new(),
            algorithm: ScanAlgorithm::Parallel,
            distinct_upto: None,
        }
    }

    /// Set the value predicate.
    pub fn value(mut self, pred: ValuePred) -> Self {
        self.value = pred;
        self
    }

    fn pred_mut(&mut self, pos: usize) -> &mut PosPred {
        if let Some(i) = self.preds.iter().position(|(p, _)| *p == pos) {
            &mut self.preds[i].1
        } else {
            self.preds.push((pos, PosPred::default()));
            &mut self.preds.last_mut().expect("just pushed").1
        }
    }

    /// Constrain the class at path position `pos`.
    pub fn class_at(mut self, pos: usize, sel: ClassSel) -> Self {
        self.pred_mut(pos).class = sel;
        self
    }

    /// Constrain the OID at path position `pos`.
    pub fn oid_at(mut self, pos: usize, sel: OidSel) -> Self {
        self.pred_mut(pos).oid = sel;
        self
    }

    /// Use plain forward scanning instead of the parallel algorithm.
    pub fn forward_scan(mut self) -> Self {
        self.algorithm = ScanAlgorithm::Forward;
        self
    }

    /// Deduplicate combinations through path position `pos` (skip the rest
    /// of each matched group).
    pub fn distinct_through(mut self, pos: usize) -> Self {
        self.distinct_upto = Some(pos);
        self
    }
}

/// A hit's position assignment: for each spec position, the index into the
/// hit's `key.path` of the element occupying it, or `None` when the
/// entry's branch does not include the position.
///
/// Stored as one `u16` per position, inline up to eleven positions, so a
/// hit carries it in 32 bytes and no heap memory (a `Vec<Option<usize>>` is
/// 24 bytes plus a 16-byte-per-position allocation). Build one with
/// `.into()` from a `Vec` or array of `Option<usize>`; it compares and
/// prints like that vector.
#[derive(Clone, PartialEq, Eq)]
pub struct Assignment(InlineVec<u16, 11>);

/// Slot value for an unoccupied position. A key holds at most a few dozen
/// path elements (each takes six bytes of a key that fits a third of a
/// page), so no real element index comes near it.
const UNASSIGNED: u16 = u16::MAX;

impl Assignment {
    /// Copy an assignment out of scan scratch space.
    pub fn from_slice(slots: &[Option<usize>]) -> Self {
        Assignment(InlineVec::from_fn(slots.len(), |pos| match slots[pos] {
            Some(ei) => {
                u16::try_from(ei).expect("path element index fits the assignment's u16 slots")
            }
            None => UNASSIGNED,
        }))
    }

    /// Number of spec positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the spec has no positions (never true for a real index).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The path-element index occupying position `pos`; `None` when the
    /// position is unoccupied or out of range.
    pub fn get(&self, pos: usize) -> Option<usize> {
        self.0
            .get(pos)
            .filter(|&&slot| slot != UNASSIGNED)
            .map(|&slot| slot as usize)
    }

    /// Each position's element index, in position order.
    pub fn iter(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..self.len()).map(|pos| self.get(pos))
    }
}

impl From<Vec<Option<usize>>> for Assignment {
    fn from(slots: Vec<Option<usize>>) -> Self {
        Assignment::from_slice(&slots)
    }
}

impl<const M: usize> From<[Option<usize>; M]> for Assignment {
    fn from(slots: [Option<usize>; M]) -> Self {
        Assignment::from_slice(&slots)
    }
}

impl PartialEq<Vec<Option<usize>>> for Assignment {
    fn eq(&self, other: &Vec<Option<usize>>) -> bool {
        self.iter().eq(other.iter().copied())
    }
}

impl std::fmt::Debug for Assignment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One matched index entry.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHit {
    /// The decoded entry.
    pub key: EntryKey,
    /// For each spec position, the index into `key.path` of the element
    /// occupying it (`None` when the entry's branch does not include the
    /// position).
    pub assignment: Assignment,
}

impl QueryHit {
    /// The OID at spec position `pos`, if present in this entry.
    pub fn oid_at(&self, pos: usize) -> Option<Oid> {
        Some(self.key.path[self.assignment.get(pos)?].oid)
    }

    /// The matched attribute value.
    pub fn value(&self) -> &KeyValue {
        &self.key.value
    }
}

/// Collect the distinct OIDs occupying `pos` across hits.
pub fn distinct_oids_at(hits: &[QueryHit], pos: usize) -> BTreeSet<Oid> {
    hits.iter().filter_map(|h| h.oid_at(pos)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_reads_like_the_vector_it_packs() {
        let slots = vec![Some(0), None, Some(2)];
        let a = Assignment::from(slots.clone());
        assert_eq!(a.len(), 3);
        assert_eq!(
            (a.get(0), a.get(1), a.get(2), a.get(3)),
            (Some(0), None, Some(2), None)
        );
        assert_eq!(a.iter().collect::<Vec<_>>(), slots);
        assert_eq!(a, slots);
        assert_eq!(a, Assignment::from([Some(0), None, Some(2)]));
        assert_ne!(a, Assignment::from([Some(0), None]));
        assert_eq!(format!("{a:?}"), format!("{slots:?}"));
        // Past the inline capacity it spills to the heap and reads the same.
        let long: Vec<Option<usize>> = (0..40).map(|i| (i % 3 != 0).then_some(i)).collect();
        let b = Assignment::from(long.clone());
        assert_eq!(b.iter().collect::<Vec<_>>(), long);
        assert!(Assignment::from_slice(&[]).is_empty());
        assert!(std::mem::size_of::<QueryHit>() <= 112);
    }
}
