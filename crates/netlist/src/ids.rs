//! Strongly-typed index newtypes.
//!
//! All netlist entities are stored in flat vectors and referenced by dense
//! `u32` indices. The newtypes below make it a compile error to index a cell
//! table with a pin id, per C-NEWTYPE.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn new(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "id index overflows u32");
                Self(index as u32)
            }

            /// Returns the dense index as `usize`, suitable for vector indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Index of a cell instance within a [`crate::Design`].
    CellId,
    "c"
);
define_id!(
    /// Index of a net within a [`crate::Design`].
    NetId,
    "n"
);
define_id!(
    /// Index of a pin instance within a [`crate::Design`].
    PinId,
    "p"
);
define_id!(
    /// Index of a cell type within a [`crate::CellLibrary`].
    CellTypeId,
    "t"
);

/// An iterator over a run of consecutive ids, used by the `Design`
/// accessors.
#[derive(Debug, Clone)]
pub struct IdRange<T> {
    range: std::ops::Range<u32>,
    _marker: std::marker::PhantomData<T>,
}

impl<T> IdRange<T> {
    pub(crate) fn new(range: std::ops::Range<u32>) -> Self {
        Self {
            range,
            _marker: std::marker::PhantomData,
        }
    }
}

macro_rules! impl_id_range {
    ($name:ident) => {
        impl Iterator for IdRange<$name> {
            type Item = $name;
            fn next(&mut self) -> Option<$name> {
                self.range.next().map($name)
            }
            fn size_hint(&self) -> (usize, Option<usize>) {
                self.range.size_hint()
            }
        }
        impl ExactSizeIterator for IdRange<$name> {}
        impl DoubleEndedIterator for IdRange<$name> {
            fn next_back(&mut self) -> Option<$name> {
                self.range.next_back().map($name)
            }
        }
    };
}

impl_id_range!(CellId);
impl_id_range!(NetId);
impl_id_range!(PinId);
impl_id_range!(CellTypeId);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_index() {
        let c = CellId::new(42);
        assert_eq!(c.index(), 42);
        assert_eq!(usize::from(c), 42);
        assert_eq!(c.to_string(), "c42");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(PinId::new(1));
        set.insert(PinId::new(1));
        set.insert(PinId::new(2));
        assert_eq!(set.len(), 2);
        assert!(PinId::new(1) < PinId::new(2));
    }

    #[test]
    fn id_range_iterates_all() {
        let ids: Vec<CellId> = IdRange::<CellId>::new(0..3).collect();
        assert_eq!(ids, vec![CellId::new(0), CellId::new(1), CellId::new(2)]);
        let rev: Vec<NetId> = IdRange::<NetId>::new(0..2).rev().collect();
        assert_eq!(rev, vec![NetId::new(1), NetId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn id_overflow_panics() {
        let _ = CellId::new(u32::MAX as usize + 1);
    }
}
