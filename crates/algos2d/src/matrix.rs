//! The dynamic-programming matrix `M` of Algorithm 1.
//!
//! `M[i][j]` holds the best convex chain of at most `j` skyline lines that
//! ends in the `i`-th skyline line (`lg(i)`), together with its maximum
//! rank over the swept prefix `[c0, c]`. Chains are persistent cons lists
//! ([`rrm_geom::chain`]), so the "suffix with lj" update is O(1).

use std::rc::Rc;

use rrm_geom::chain::{chain_to_vec, ChainNode};

/// One cell of `M`.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Maximum rank of the chain over the swept prefix (`M[i,j].rank`).
    pub rank: u32,
    /// The chain itself, newest line at the head.
    pub chain: Rc<ChainNode>,
}

/// The `s × r` matrix, row-major: row `i` = chains ending in skyline line
/// `g(i)`, column `j` (1-based) = chains of at most `j` lines.
pub struct DpMatrix {
    cells: Vec<Cell>,
    r: usize,
}

impl DpMatrix {
    /// Initialize per Algorithm 1 lines 7–8: every cell of row `i` starts
    /// as the singleton chain `{lg(i)}` with its initial rank.
    pub fn new(skyline_lines: &[u32], initial_ranks: &[u32], r: usize) -> Self {
        assert!(r >= 1);
        assert_eq!(skyline_lines.len(), initial_ranks.len());
        let mut cells = Vec::with_capacity(skyline_lines.len() * r);
        for (&line, &rank) in skyline_lines.iter().zip(initial_ranks) {
            let chain = ChainNode::singleton(line);
            for _ in 0..r {
                cells.push(Cell { rank, chain: Rc::clone(&chain) });
            }
        }
        Self { cells, r }
    }

    pub fn r(&self) -> usize {
        self.r
    }

    #[inline]
    pub fn cell(&self, i: usize, j: usize) -> &Cell {
        debug_assert!((1..=self.r).contains(&j));
        &self.cells[i * self.r + (j - 1)]
    }

    /// Fold a rank increase of row `i`'s ending line into every column
    /// (Algorithm 1 line 16).
    #[inline]
    pub fn fold_rank(&mut self, i: usize, new_rank: u32) {
        for cell in &mut self.cells[i * self.r..(i + 1) * self.r] {
            if cell.rank < new_rank {
                cell.rank = new_rank;
            }
        }
    }

    /// The extension step (Algorithm 1 lines 17–19) for one crossing where
    /// skyline row `i_down` goes down past skyline row `j_up`: for each
    /// `h = r..2`, if `M[j_up, h].rank > M[i_down, h-1].rank`, replace
    /// `M[j_up, h]` with `M[i_down, h-1]` suffixed by `j_up`'s line.
    ///
    /// Must be called *before* [`Self::fold_rank`] for this event so that
    /// `M[i_down, h-1]` is read pre-update, exactly as the descending-h loop
    /// of the paper does.
    #[inline]
    pub fn extend(&mut self, i_down: usize, j_up: usize, up_line: u32) {
        for h in (2..=self.r).rev() {
            let src = self.cell(i_down, h - 1);
            let (src_rank, src_chain) = (src.rank, Rc::clone(&src.chain));
            let dst = &mut self.cells[j_up * self.r + (h - 1)];
            if dst.rank > src_rank {
                dst.rank = src_rank;
                dst.chain = ChainNode::extend(&src_chain, up_line);
            }
        }
    }

    /// Best cell in column `r` (Algorithm 1 line 20): `(row, rank)`.
    pub fn best_final(&self) -> (usize, u32) {
        let rows = self.cells.len() / self.r;
        let mut best = (0usize, u32::MAX);
        for i in 0..rows {
            let rank = self.cell(i, self.r).rank;
            if rank < best.1 {
                best = (i, rank);
            }
        }
        best
    }

    /// Materialize the chain of a cell as line ids, leftmost segment first.
    pub fn chain_lines(&self, i: usize, j: usize) -> Vec<u32> {
        chain_to_vec(&self.cell(i, j).chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_accessors() {
        let m = DpMatrix::new(&[10, 20, 30], &[1, 2, 3], 2);
        assert_eq!(m.r(), 2);
        assert_eq!(m.cell(0, 1).rank, 1);
        assert_eq!(m.cell(2, 2).rank, 3);
        assert_eq!(m.chain_lines(1, 2), vec![20]);
    }

    #[test]
    fn fold_rank_is_monotone() {
        let mut m = DpMatrix::new(&[5, 6], &[2, 1], 3);
        m.fold_rank(0, 4);
        assert_eq!(m.cell(0, 1).rank, 4);
        m.fold_rank(0, 3); // lower value: no effect
        assert_eq!(m.cell(0, 2).rank, 4);
        assert_eq!(m.cell(1, 1).rank, 1); // other row untouched
    }

    #[test]
    fn extend_improves_only_when_strictly_better() {
        let mut m = DpMatrix::new(&[5, 6], &[1, 3], 2);
        // Row 0 ends line 5 with rank 1; extending row 1 (rank 3) at h=2
        // should adopt rank 1 and chain [5, 6].
        m.extend(0, 1, 6);
        assert_eq!(m.cell(1, 2).rank, 1);
        assert_eq!(m.chain_lines(1, 2), vec![5, 6]);
        // h=1 never extended (chains of one line can't have a predecessor).
        assert_eq!(m.cell(1, 1).rank, 3);
        assert_eq!(m.chain_lines(1, 1), vec![6]);
        // Re-extending with an equal rank must not churn the chain.
        m.extend(0, 1, 6);
        assert_eq!(m.chain_lines(1, 2), vec![5, 6]);
    }

    #[test]
    fn best_final() {
        let mut m = DpMatrix::new(&[5, 6, 7], &[4, 2, 9], 2);
        assert_eq!(m.best_final(), (1, 2));
        m.fold_rank(1, 11);
        assert_eq!(m.best_final(), (0, 4));
    }

    #[test]
    fn table_ii_trace() {
        // Reproduce Table II: D = {t1, t2, t3} of Table I, r = 2.
        // Lines l1, l2, l3 are all skyline; initial ranks 1, 2, 3.
        let mut m = DpMatrix::new(&[0, 1, 2], &[1, 2, 3], 2);
        // Event (l1, l2) at x = 1/9: l1 down (new rank 2), l2 up.
        m.extend(0, 1, 1); // M[2,2] = {l1, l2}, rank 1
        m.fold_rank(0, 2); // M[1,*].rank = 2
        assert_eq!(m.cell(1, 2).rank, 1);
        assert_eq!(m.chain_lines(1, 2), vec![0, 1]);
        assert_eq!(m.cell(0, 1).rank, 2);
        assert_eq!(m.cell(0, 2).rank, 2);
        // Event (l1, l3) at x ≈ 0.3049: l1 down (new rank 3), l3 up.
        m.extend(0, 2, 2); // M[3,2] = {l1, l3}, rank 2
        m.fold_rank(0, 3);
        assert_eq!(m.cell(2, 2).rank, 2);
        assert_eq!(m.chain_lines(2, 2), vec![0, 2]);
        assert_eq!(m.cell(0, 1).rank, 3);
        // Event (l2, l3) at x ≈ 0.5405: l2 down (new rank 2), l3 up.
        m.extend(1, 2, 2); // M[3,2].rank (2) > M[2,1].rank (2)? no: no update
        m.fold_rank(1, 2);
        assert_eq!(m.cell(2, 2).rank, 2);
        assert_eq!(m.chain_lines(2, 2), vec![0, 2]); // unchanged

        // Final: best of column 2 is rank 2 ({l1,l2} or {l1,l3}).
        let (_, rank) = m.best_final();
        assert_eq!(rank, 2);
    }
}
