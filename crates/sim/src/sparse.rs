//! [`SparseSim`]: the non-zero cells of a [`SimMatrix`], row by row.
//!
//! A query's matrix is mostly zeros: a pattern node scores above 0
//! against few data nodes, and only those pairs can be candidates
//! ([`candidate_floor`]). Passes that read only those cells (counting
//! candidates, routing a query to the shards that hold them, slicing the
//! matrix per shard, putting it on the wire) read this list instead of
//! the `n1 × n2` cells.

use crate::matrix::{candidate_floor, SimMatrix};
use phom_graph::NodeId;

/// Cells per chunk of the build pass: a chunk whose bit patterns OR to 0
/// is skipped without looking at its cells one by one.
const CHUNK: usize = 16;

/// The non-zero cells of a [`SimMatrix`] in CSR form: one list per
/// pattern row of `(column, score)` pairs in ascending column order.
///
/// A cell counts as non-zero when its bit pattern is non-zero, so a
/// stored `-0.0` is kept and every cell left out is exactly `+0.0`:
/// scattering the cells into a zeroed matrix rebuilds the original bit
/// for bit.
#[derive(Debug)]
pub struct SparseSim {
    /// Row `v`'s cells are `cells[row_ends[v - 1]..row_ends[v]]` (from 0
    /// for row 0).
    row_ends: Vec<usize>,
    cells: Vec<(NodeId, f64)>,
}

impl SparseSim {
    /// Collects `m`'s non-zero cells in one row-major pass that skips
    /// each all-zero run of 16 cells after one OR over their bits.
    pub fn from_dense(m: &SimMatrix) -> Self {
        let mut cells = Vec::new();
        let mut row_ends = Vec::with_capacity(m.n1());
        for v in 0..m.n1() {
            let row = m.row(v);
            let mut chunks = row.chunks_exact(CHUNK);
            for (c, chunk) in chunks.by_ref().enumerate() {
                if chunk.iter().fold(0, |bits, s| bits | s.to_bits()) != 0 {
                    push_non_zero(&mut cells, c * CHUNK, chunk);
                }
            }
            let tail = chunks.remainder();
            push_non_zero(&mut cells, row.len() - tail.len(), tail);
            row_ends.push(cells.len());
        }
        SparseSim { row_ends, cells }
    }

    /// Row `v`'s non-zero cells, `(column, score)` in ascending column
    /// order.
    pub fn row(&self, v: NodeId) -> &[(NodeId, f64)] {
        let end = self.row_ends[v.index()];
        let start = v.index().checked_sub(1).map_or(0, |p| self.row_ends[p]);
        &self.cells[start..end]
    }

    /// Every non-zero cell as `(v, u, score)`, row by row.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.row_ends.len()).flat_map(move |v| {
            let v = NodeId(v as u32);
            self.row(v).iter().map(move |&(u, s)| (v, u, s))
        })
    }

    /// Count of candidate pairs at `xi`: the same count
    /// [`SimMatrix::candidate_pair_count`] gives on the dense matrix.
    pub fn candidate_pair_count(&self, xi: f64) -> usize {
        let floor = candidate_floor(xi);
        self.cells.iter().filter(|&&(_, s)| s >= floor).count()
    }
}

/// Appends the non-zero cells of `run`, whose first cell is column
/// `first`.
fn push_non_zero(cells: &mut Vec<(NodeId, f64)>, first: usize, run: &[f64]) {
    for (i, &s) in run.iter().enumerate() {
        if s.to_bits() != 0 {
            cells.push((NodeId((first + i) as u32), s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dense(n1: usize, n2: usize, cells: &[(u32, u32, f64)]) -> SimMatrix {
        let mut m = SimMatrix::new(n1, n2);
        for &(v, u, s) in cells {
            m.set(NodeId(v), NodeId(u), s);
        }
        m
    }

    #[test]
    fn keeps_non_zero_cells_in_column_order_across_chunks() {
        // Row 0 has cells in the first chunk, a skipped chunk, and the
        // 5-cell tail; row 1 is empty; row 2 holds a stored -0.0.
        let m = dense(
            3,
            37,
            &[(0, 3, 0.5), (0, 33, 1.0), (0, 36, 0.25), (2, 17, -0.0)],
        );
        let s = SparseSim::from_dense(&m);
        assert_eq!(s.iter().count(), 4);
        assert_eq!(
            s.row(NodeId(0)),
            &[(NodeId(3), 0.5), (NodeId(33), 1.0), (NodeId(36), 0.25)]
        );
        assert!(s.row(NodeId(1)).is_empty());
        let (col, score) = s.row(NodeId(2))[0];
        assert_eq!(col, NodeId(17));
        assert!(score == 0.0 && score.is_sign_negative());
    }

    #[test]
    fn counts_candidates_like_the_dense_matrix() {
        let m = dense(2, 20, &[(0, 0, 0.6), (0, 19, 0.59), (1, 7, 1.0)]);
        let s = SparseSim::from_dense(&m);
        for xi in [f64::NAN, -1.0, 0.0, 0.3, 0.59, 0.6, 1.0, 1.5] {
            assert_eq!(
                s.candidate_pair_count(xi),
                m.candidate_pair_count(xi),
                "xi {xi}"
            );
        }
        assert_eq!(s.candidate_pair_count(0.0), 3);
    }

    #[test]
    fn empty_shapes() {
        for (n1, n2) in [(0, 0), (0, 5), (3, 0)] {
            let s = SparseSim::from_dense(&SimMatrix::new(n1, n2));
            assert_eq!(s.iter().count(), 0);
            assert_eq!(s.candidate_pair_count(0.0), n1 * n2);
        }
    }

    proptest! {
        /// Scattering the cells into a zeroed matrix rebuilds the
        /// original bit for bit, at every width around the chunk size.
        #[test]
        fn prop_scatter_rebuilds_the_dense_matrix(
            n1 in 0usize..4,
            n2 in 0usize..50,
            seed in any::<u64>(),
        ) {
            let mut rng = phom_graph::XorShift64::new(seed);
            let m = SimMatrix::from_fn(n1, n2, |_, _| match rng.below(6) {
                0 => 1.0,
                1 => -0.0,
                2 => 0.5,
                _ => 0.0,
            });
            let s = SparseSim::from_dense(&m);
            let mut rebuilt = SimMatrix::new(n1, n2);
            let mut prev = None;
            for (v, u, score) in s.iter() {
                prop_assert!(prev < Some((v, u)), "cells ascend");
                prev = Some((v, u));
                rebuilt.set(v, u, score);
            }
            for v in 0..n1 as u32 {
                for u in 0..n2 as u32 {
                    let (a, b) = (m.score(NodeId(v), NodeId(u)), rebuilt.score(NodeId(v), NodeId(u)));
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
