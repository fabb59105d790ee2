//! Content stamps: a constant-time "did this change?" for the definitions
//! a durable commit writes down.

use std::sync::atomic::{AtomicU64, Ordering};

/// A token for one content of a [`crate::Schema`] or an
/// [`crate::Encoding`]. Every `&mut` method of either that changes it draws
/// a fresh stamp from one process-wide counter, and a clone keeps its
/// original's, so two values with equal stamps have equal content — even
/// two values that were cloned from one another and then changed. (Equal
/// content does not imply equal stamps: a change undone by hand gets a new
/// one.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp(u64);

static NEXT: AtomicU64 = AtomicU64::new(0);

impl Stamp {
    /// A stamp no value has carried before.
    pub(crate) fn fresh() -> Self {
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Stamp {
    fn default() -> Self {
        Self::fresh()
    }
}

#[cfg(test)]
mod tests {
    use crate::{AttrType, Encoding, Schema};

    #[test]
    fn every_change_draws_a_fresh_stamp_and_a_clone_keeps_its_own() {
        let mut s = Schema::new();
        let mut seen = vec![s.stamp()];
        let a = s.add_class("A").unwrap();
        seen.push(s.stamp());
        let b = s.add_subclass("B", a).unwrap();
        seen.push(s.stamp());
        let c = s.add_class("C").unwrap();
        seen.push(s.stamp());
        s.add_parent(b, c).unwrap();
        seen.push(s.stamp());
        s.add_attr(a, "X", AttrType::Int).unwrap();
        seen.push(s.stamp());
        let copy = s.clone();
        assert_eq!(copy.stamp(), s.stamp());
        let mut deduped = seen.clone();
        deduped.sort_by_key(|st| st.0);
        deduped.dedup();
        assert_eq!(deduped.len(), seen.len(), "a change kept a stamp: {seen:?}");

        let mut enc = Encoding::generate(&s).unwrap();
        let generated = enc.stamp();
        let unassigned = enc.clone();
        let d = s.add_class("D").unwrap();
        enc.assign_class(&s, d).unwrap();
        assert_ne!(enc.stamp(), generated);
        assert_eq!(unassigned.stamp(), generated, "a clone keeps its stamp");
        assert_ne!(Encoding::generate(&s).unwrap().stamp(), enc.stamp());
        // Two fresh values differ from each other and from every stamp so far.
        assert_ne!(Schema::new().stamp(), Schema::new().stamp());
    }
}
