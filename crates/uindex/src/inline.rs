//! A vector that keeps small contents inline.
//!
//! A query hit carries two short sequences per entry — each path element's
//! class-code bytes and the position assignment ([`crate::Assignment`]
//! packs it into one of these) — that used to be a heap `Vec` apiece.
//! [`InlineVec`] stores up to `N` elements in the value itself and only
//! falls back to the heap beyond that, so building a hit allocates for
//! neither at the sizes real indexes produce. It reads as a slice
//! (`Deref<Target = [T]>`) and compares and prints by its contents.

use std::fmt;
use std::ops::Deref;

/// Up to `N` elements inline, more on the heap. Immutable once built.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    Inline { len: u8, buf: [T; N] },
    Heap(Vec<T>),
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// `len` elements, the `i`-th being `f(i)`; no allocation when
    /// `len <= N`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        if len <= N && N <= u8::MAX as usize {
            let mut buf = [T::default(); N];
            for (i, slot) in buf[..len].iter_mut().enumerate() {
                *slot = f(i);
            }
            InlineVec(Repr::Inline {
                len: len as u8,
                buf,
            })
        } else {
            InlineVec(Repr::Heap((0..len).map(f).collect()))
        }
    }

    /// Copy `items`; no allocation when `items.len() <= N`.
    pub fn from_slice(items: &[T]) -> Self {
        if items.len() <= N && N <= u8::MAX as usize {
            let mut buf = [T::default(); N];
            buf[..items.len()].copy_from_slice(items);
            InlineVec(Repr::Inline {
                len: items.len() as u8,
                buf,
            })
        } else {
            InlineVec(Repr::Heap(items.to_vec()))
        }
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for InlineVec<T, N> {
    fn from(items: &[T]) -> Self {
        Self::from_slice(items)
    }
}

impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineVec<T, N> {
    fn from(items: [T; M]) -> Self {
        Self::from_slice(&items)
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_heap_read_and_compare_alike() {
        type V = InlineVec<u8, 4>;
        let small = V::from_slice(&[1, 2, 3]);
        let full = V::from_slice(&[1, 2, 3, 4]);
        let big = V::from_slice(&[1, 2, 3, 4, 5]);
        assert!(matches!(small.0, Repr::Inline { .. }));
        assert!(matches!(full.0, Repr::Inline { .. }));
        assert!(matches!(big.0, Repr::Heap(_)));
        assert_eq!(&*small, &[1, 2, 3]);
        assert_eq!(&*big, &[1, 2, 3, 4, 5]);
        assert_eq!(V::from(&[1, 2, 3][..]), small);
        assert_eq!(V::from([1, 2, 3, 4, 5]), big);
        assert_ne!(small, full);
        assert_eq!(format!("{small:?}"), "[1, 2, 3]");
        assert_eq!(V::from_slice(&[]).len(), 0);
        // Equality ignores whatever the unused inline tail holds.
        let a: V = InlineVec(Repr::Inline {
            len: 1,
            buf: [7, 9, 9, 9],
        });
        assert_eq!(a, V::from_slice(&[7]));
        // A heap vector that would have fit inline still compares equal.
        assert_eq!(InlineVec(Repr::Heap(vec![7])), a);
    }
}
