//! Cube lists as fixed-stride rows of literal masks.
//!
//! A [`CubeRows`] holds one cube per row, each row the same number of
//! 64-bit words: bit `l` of a row says literal (or variable) `l` is in the
//! cube. The FPRM flow keeps its cubes in this form from the OFDD through
//! GF(2) divisor extraction to the cube method, so a cube is a slice of a
//! shared buffer rather than a heap [`VarSet`] of its own: unions and
//! differences are word operations, and two cubes compare as integer
//! slices.

use crate::VarSet;

/// A list of cubes stored as fixed-stride rows of 64-bit literal masks.
///
/// # Examples
///
/// ```
/// use xsynth_boolean::{CubeRows, VarSet};
///
/// let sets = vec![VarSet::from_vars([0, 3]), VarSet::from_vars([70])];
/// let rows = CubeRows::from_sets(128, &sets);
/// assert_eq!((rows.len(), rows.stride()), (2, 2));
/// assert_eq!(rows.row(1), &[0, 1 << 6]);
/// assert_eq!(rows.to_sets(), sets);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CubeRows {
    stride: usize,
    words: Vec<u64>,
}

impl CubeRows {
    /// An empty list whose rows hold literals `0..width` (at least one
    /// word per row, so the row count stays `words / stride`).
    pub fn new(width: usize) -> Self {
        CubeRows::with_stride(width.div_ceil(64).max(1))
    }

    /// An empty list of `stride`-word rows.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn with_stride(stride: usize) -> Self {
        assert!(stride > 0, "a cube row takes at least one word");
        CubeRows {
            stride,
            words: Vec::new(),
        }
    }

    /// The rows of `sets`, in order, wide enough for literals `0..width`
    /// and for every literal the sets hold.
    pub fn from_sets(width: usize, sets: &[VarSet]) -> Self {
        let top = sets.iter().filter_map(VarSet::max_var).max();
        let mut rows = CubeRows::new(width.max(top.map_or(0, |v| v + 1)));
        for s in sets {
            let row = rows.push_zero();
            s.iter().for_each(|l| row[l / 64] |= 1 << (l % 64));
        }
        rows
    }

    /// Every row as a [`VarSet`], in order.
    pub fn to_sets(&self) -> Vec<VarSet> {
        self.rows().map(|r| mask_ones(r).collect()).collect()
    }

    /// Words per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Whether the list holds no cube.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Row `i`, for writing.
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Every row, in order.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.stride)
    }

    /// Appends an empty cube and returns its row for filling in.
    pub fn push_zero(&mut self) -> &mut [u64] {
        let start = self.words.len();
        self.words.resize(start + self.stride, 0);
        &mut self.words[start..]
    }

    /// Appends a copy of `row`, zero-extended to the stride.
    ///
    /// # Panics
    ///
    /// Panics if `row` has a set bit past the stride.
    pub fn push(&mut self, row: &[u64]) {
        let (head, tail) = row.split_at(row.len().min(self.stride));
        assert!(tail.iter().all(|&w| w == 0), "literal past the row width");
        self.push_zero()[..head.len()].copy_from_slice(head);
    }

    /// Appends every row of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the strides differ.
    pub fn append(&mut self, other: &CubeRows) {
        assert_eq!(self.stride, other.stride, "cube row stride mismatch");
        self.words.extend_from_slice(&other.words);
    }
}

/// The set bits of a row (or any bitset), in increasing order.
pub fn mask_ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + b
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip_and_widen_to_fit() {
        let sets = vec![
            VarSet::new(),
            VarSet::from_vars([2, 129]),
            VarSet::singleton(5),
        ];
        let rows = CubeRows::from_sets(10, &sets);
        assert_eq!(rows.stride(), 3, "literal 129 needs a third word");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(0), &[0, 0, 0]);
        assert_eq!(rows.to_sets(), sets);
        assert!(CubeRows::new(0).is_empty());
        assert_eq!(CubeRows::new(0).stride(), 1);
    }

    #[test]
    fn push_zero_extends_and_rejects_overflow() {
        let mut rows = CubeRows::new(128);
        rows.push(&[7]);
        assert_eq!(rows.row(0), &[7, 0]);
        rows.push(&[1, 2, 0]);
        assert_eq!(rows.row(1), &[1, 2]);
        let caught = std::panic::catch_unwind(|| CubeRows::new(64).push(&[0, 1]));
        assert!(caught.is_err());
    }
}
