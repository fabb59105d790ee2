//! Class codes: component sequences with the prefix property.
//!
//! A code is stored as its byte encoding: each component (a [`crate::frac`]
//! string over `'A'..='Z'`) followed by the terminator byte `0x01`, which is
//! **below** the component alphabet. This gives exactly the two properties
//! the paper's scheme needs:
//!
//! * *prefix property* — a descendant's encoding starts with its ancestor's
//!   complete encoding (including the terminator), so a class hierarchy
//!   sub-tree is one contiguous byte-prefix region;
//! * *sibling disjointness* — two sibling components never produce
//!   overlapping regions even when one component string is a prefix of the
//!   other (`"B"` vs `"BN"`), because the terminator differs from every
//!   alphabet byte.

use std::fmt;

use crate::frac;

/// Byte terminating each component. Must sort below the component alphabet
/// and above the key field separator (0x00) used by the index layer.
pub(crate) const COMPONENT_TERMINATOR: u8 = 0x01;

/// An encoded class code. Ordering (derived) is the index key ordering.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassCode {
    bytes: Vec<u8>,
}

impl ClassCode {
    /// A root-level code with a single component.
    ///
    /// # Panics
    /// Panics if `comp` is not a valid [`frac`] component.
    pub fn root(comp: &[u8]) -> Self {
        assert!(frac::is_valid(comp), "invalid component {comp:?}");
        let mut bytes = comp.to_vec();
        bytes.push(COMPONENT_TERMINATOR);
        ClassCode { bytes }
    }

    /// This code extended by one child component.
    ///
    /// # Panics
    /// Panics if `comp` is not a valid [`frac`] component.
    pub fn child(&self, comp: &[u8]) -> Self {
        assert!(frac::is_valid(comp), "invalid component {comp:?}");
        let mut bytes = self.bytes.clone();
        bytes.extend_from_slice(comp);
        bytes.push(COMPONENT_TERMINATOR);
        ClassCode { bytes }
    }

    /// Reconstruct a code from its byte encoding (validating shape).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.is_empty() || *bytes.last().unwrap() != COMPONENT_TERMINATOR {
            return None;
        }
        let mut comp_start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b == COMPONENT_TERMINATOR {
                if !frac::is_valid(&bytes[comp_start..i]) {
                    return None;
                }
                comp_start = i + 1;
            } else if !(frac::MIN..=frac::MAX).contains(&b) {
                return None;
            }
        }
        Some(ClassCode {
            bytes: bytes.to_vec(),
        })
    }

    /// The byte encoding (what index keys embed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of components (1 for a hierarchy root).
    pub fn depth(&self) -> usize {
        self.bytes
            .iter()
            .filter(|&&b| b == COMPONENT_TERMINATOR)
            .count()
    }

    /// The components in order.
    pub fn components(&self) -> impl Iterator<Item = &[u8]> {
        self.bytes
            .split(|&b| b == COMPONENT_TERMINATOR)
            .filter(|c| !c.is_empty())
    }

    /// The last component.
    pub fn last_component(&self) -> &[u8] {
        self.components().last().expect("code has components")
    }

    /// The parent code (one fewer component), or `None` for a root.
    pub fn parent(&self) -> Option<ClassCode> {
        let comps: Vec<&[u8]> = self.components().collect();
        if comps.len() <= 1 {
            return None;
        }
        let mut bytes = Vec::new();
        for c in &comps[..comps.len() - 1] {
            bytes.extend_from_slice(c);
            bytes.push(COMPONENT_TERMINATOR);
        }
        Some(ClassCode { bytes })
    }

    /// Whether `ancestor`'s encoding is a prefix of this code (true when the
    /// codes are equal, matching the paper's "a class is in its own
    /// sub-tree").
    pub fn has_prefix(&self, ancestor: &ClassCode) -> bool {
        self.bytes.starts_with(&ancestor.bytes)
    }

    /// Exclusive upper bound of this code's sub-tree region: every
    /// descendant code `d` satisfies `self <= d < self.subtree_end()`, and
    /// every non-descendant falls outside.
    pub fn subtree_end(&self) -> Vec<u8> {
        let mut end = self.bytes.clone();
        let last = end.last_mut().expect("code non-empty");
        debug_assert_eq!(*last, COMPONENT_TERMINATOR);
        *last = COMPONENT_TERMINATOR + 1;
        end
    }
}

impl fmt::Debug for ClassCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ClassCode({self})")
    }
}

impl fmt::Display for ClassCode {
    /// Renders like the paper's codes: components joined by dots,
    /// e.g. `N.B.C`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for c in self.components() {
            write!(f, "{sep}{}", String::from_utf8_lossy(c))?;
            sep = ".";
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_display() {
        let root = ClassCode::root(b"N");
        let child = root.child(b"B");
        let grand = child.child(b"C");
        assert_eq!(root.to_string(), "N");
        assert_eq!(child.to_string(), "N.B");
        assert_eq!(grand.to_string(), "N.B.C");
        assert_eq!(root.depth(), 1);
        assert_eq!(grand.depth(), 3);
        assert_eq!(grand.last_component(), b"C");
    }

    #[test]
    fn prefix_property() {
        let root = ClassCode::root(b"N");
        let child = root.child(b"B");
        let grand = child.child(b"C");
        assert!(grand.has_prefix(&child));
        assert!(grand.has_prefix(&root));
        assert!(grand.has_prefix(&grand));
        assert!(!root.has_prefix(&child));
        let other = ClassCode::root(b"P");
        assert!(!child.has_prefix(&other));
    }

    #[test]
    fn parent_inverse_of_child() {
        let root = ClassCode::root(b"N");
        let child = root.child(b"B");
        assert_eq!(child.parent(), Some(root.clone()));
        assert_eq!(root.parent(), None);
    }

    #[test]
    fn ordering_is_preorder() {
        // parent < its children < next sibling.
        let a = ClassCode::root(b"N");
        let ab = a.child(b"B");
        let abc = ab.child(b"C");
        let ac = a.child(b"C");
        let b = ClassCode::root(b"P");
        let mut v = vec![b.clone(), ac.clone(), a.clone(), abc.clone(), ab.clone()];
        v.sort();
        assert_eq!(v, vec![a, ab, abc, ac, b]);
    }

    #[test]
    fn sibling_regions_disjoint_even_with_prefix_components() {
        // Sibling components "B" and "BN" (one extends the other): their
        // sub-tree regions must not overlap.
        let root = ClassCode::root(b"N");
        let s1 = root.child(b"B");
        let s2 = root.child(b"BN");
        assert!(s1 < s2);
        let s1_end = s1.subtree_end();
        assert!(
            s2.as_bytes() >= s1_end.as_slice(),
            "sibling {s2:?} inside {s1:?}'s region"
        );
        // And a deep descendant of s1 stays inside s1's region.
        let d = s1.child(b"Z").child(b"Z");
        assert!(d.as_bytes() < s1_end.as_slice());
        assert!(d.has_prefix(&s1));
        assert!(!d.has_prefix(&s2));
    }

    #[test]
    fn subtree_end_bounds() {
        let c = ClassCode::root(b"N").child(b"B");
        let end = c.subtree_end();
        assert!(c.as_bytes() < end.as_slice());
        for comp in [b"B".to_vec(), b"Z".to_vec(), b"BN".to_vec()] {
            let d = c.child(&comp);
            assert!(d.as_bytes() < end.as_slice());
            assert!(d.as_bytes() > c.as_bytes());
        }
        // The next sibling is outside.
        let sib = ClassCode::root(b"N").child(b"C");
        assert!(sib.as_bytes() >= end.as_slice());
    }

    #[test]
    fn from_bytes_validation() {
        let c = ClassCode::root(b"N").child(b"BC");
        assert_eq!(ClassCode::from_bytes(c.as_bytes()), Some(c));
        assert_eq!(ClassCode::from_bytes(b""), None);
        assert_eq!(ClassCode::from_bytes(b"N"), None); // missing terminator
        assert_eq!(ClassCode::from_bytes(&[b'N', 0x01, b'A', 0x01]), None); // 'A' ends comp
        assert_eq!(ClassCode::from_bytes(&[0x01]), None); // empty component
        assert_eq!(ClassCode::from_bytes(&[b'n', 0x01]), None); // lowercase
    }
}
