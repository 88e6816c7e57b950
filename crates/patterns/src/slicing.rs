//! Slicing a compound pattern into coarse, fine, and special (global)
//! parts — the "slice" step of the paper's slice-and-dice method (§3.1).
//!
//! Ownership rules, applied in priority order so that every valid element
//! belongs to exactly one grain (required for softmax correctness, §3.3):
//!
//! 1. **Global rows** (rows made dense by a `Global`/`Dense` part) own
//!    their entire row and are routed to dense kernels.
//! 2. **Coarse blocks** — blocks touched by coarse-grain parts in the
//!    remaining rows — own every compound-pattern element inside them;
//!    elements of the block not in the pattern are invalidated by the
//!    block mask.
//! 3. **Fine elements** — everything left: fine-grain-pattern elements
//!    outside global rows and outside coarse blocks.

use crate::compound::{BlockedBuilder, BlockedPattern};
use crate::{CompoundPattern, Grain};
use mg_sparse::{Csr, SparseError};
use mg_tensor::Half;

/// A compound pattern decomposed into the three kernel-facing parts.
///
/// # Examples
///
/// ```
/// use mg_patterns::{AtomicPattern, CompoundPattern, SlicedPattern};
///
/// let pattern = CompoundPattern::new(64)
///     .with(AtomicPattern::Local { window: 8 })
///     .with(AtomicPattern::Random { per_row: 4, seed: 1 })
///     .with(AtomicPattern::Global { tokens: vec![0] });
/// let sliced = SlicedPattern::from_compound(&pattern, 8)?;
/// assert_eq!(sliced.global_rows(), &[0]);
/// assert!(sliced.coarse().is_some());
/// assert!(sliced.fine().is_some());
/// # Ok::<(), mg_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlicedPattern {
    seq_len: usize,
    block_size: usize,
    coarse: Option<BlockedPattern>,
    fine: Option<Csr<Half>>,
    global_rows: Vec<usize>,
}

impl SlicedPattern {
    /// Slices `pattern` with the given coarse block size.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::BlockMisaligned`] if `block_size` is zero
    /// or does not divide the sequence length.
    pub fn from_compound(
        pattern: &CompoundPattern,
        block_size: usize,
    ) -> Result<SlicedPattern, SparseError> {
        let seq_len = pattern.seq_len();
        let valid_len = pattern.valid_len();
        let mut blocked = BlockedBuilder::new(seq_len, block_size)?;
        let global_rows = pattern.global_rows();
        let mut is_global = vec![false; seq_len];
        for &r in &global_rows {
            is_global[r] = true;
        }
        let coarse_parts = pattern.parts_of_grain(Grain::Coarse);

        // Block rows are independent, so the slice streams one block row
        // at a time with a bitmap over its block columns.
        let mut coarse_block = vec![false; seq_len / block_size];
        let mut coarse_elements: Vec<(usize, usize)> = Vec::new();
        let mut row_offsets = Vec::with_capacity(seq_len + 1);
        row_offsets.push(0);
        let mut fine_cols: Vec<usize> = Vec::new();
        for br in 0..seq_len / block_size {
            let rows = br * block_size..(br + 1) * block_size;
            // 1. Coarse blocks: blocks touched by coarse-grain parts,
            //    global rows excluded.
            coarse_block.fill(false);
            for part in &coarse_parts {
                for r in rows.clone().filter(|&r| r < valid_len && !is_global[r]) {
                    for c in part.row_columns(seq_len, r) {
                        if c < valid_len {
                            coarse_block[c / block_size] = true;
                        }
                    }
                }
            }
            // 2. The coarse blocks own every compound element inside them
            //    (any grain — a fine element landing inside a stored block
            //    is owned by the block, per the overlap-invalidation
            //    rule); the leftover elements are fine. Global rows own
            //    their whole row and appear in neither part.
            coarse_elements.clear();
            for r in rows {
                if !is_global[r] {
                    for c in pattern.row_columns(r) {
                        if coarse_block[c / block_size] {
                            coarse_elements.push((r, c));
                        } else {
                            fine_cols.push(c);
                        }
                    }
                }
                row_offsets.push(fine_cols.len());
            }
            blocked.push_block_row(br, &coarse_elements);
        }

        let coarse = if blocked.is_empty() {
            None
        } else {
            Some(blocked.finish()?)
        };
        let fine = if fine_cols.is_empty() {
            None
        } else {
            let values = vec![Half::ZERO; fine_cols.len()];
            Some(
                Csr::try_new(seq_len, seq_len, row_offsets, fine_cols, values)
                    .expect("fine rows are sorted, unique, and in bounds"),
            )
        };
        Ok(SlicedPattern {
            seq_len,
            block_size,
            coarse,
            fine,
            global_rows,
        })
    }

    /// The padded sequence length.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// The coarse block size.
    #[inline]
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// The coarse (blocked) part, if any coarse blocks exist.
    #[inline]
    pub fn coarse(&self) -> Option<&BlockedPattern> {
        self.coarse.as_ref()
    }

    /// The fine (element-wise) part, if any fine elements remain.
    #[inline]
    pub fn fine(&self) -> Option<&Csr<Half>> {
        self.fine.as_ref()
    }

    /// Rows routed to dense kernels, sorted.
    #[inline]
    pub fn global_rows(&self) -> &[usize] {
        &self.global_rows
    }

    /// Summary statistics used by benches and logging.
    pub fn stats(&self) -> SliceStats {
        SliceStats {
            coarse_blocks: self.coarse.as_ref().map_or(0, |c| c.structure.nnz_blocks()),
            coarse_valid_elements: self
                .coarse
                .as_ref()
                .map_or(0, BlockedPattern::valid_elements),
            coarse_stored_elements: self
                .coarse
                .as_ref()
                .map_or(0, |c| c.structure.stored_elements()),
            fine_elements: self.fine.as_ref().map_or(0, Csr::nnz),
            global_rows: self.global_rows.len(),
        }
    }

    /// Total valid elements across all three parts (global rows count
    /// `seq_len` columns each).
    pub fn total_valid_elements(&self) -> usize {
        let s = self.stats();
        s.coarse_valid_elements + s.fine_elements + s.global_rows * self.seq_len
    }
}

/// Element and block counts of a sliced pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceStats {
    /// Stored coarse blocks.
    pub coarse_blocks: usize,
    /// Valid elements inside coarse blocks.
    pub coarse_valid_elements: usize,
    /// Stored elements in coarse blocks (valid + masked padding).
    pub coarse_stored_elements: usize,
    /// Elements in the fine CSR part.
    pub fine_elements: usize,
    /// Number of dense (global) rows.
    pub global_rows: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AtomicPattern;
    use std::collections::HashSet;

    fn compound() -> CompoundPattern {
        CompoundPattern::new(32)
            .with(AtomicPattern::Local { window: 8 })
            .with(AtomicPattern::Random {
                per_row: 3,
                seed: 5,
            })
            .with(AtomicPattern::Global { tokens: vec![1] })
    }

    #[test]
    fn partition_is_exact() {
        let pattern = compound();
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        // Every valid element is owned by exactly one grain.
        let mut owned: HashSet<(usize, usize)> = HashSet::new();
        if let Some(coarse) = sliced.coarse() {
            let b = coarse.structure.block_size();
            let sq = b * b;
            for (i, (br, bc, _)) in coarse.structure.iter_blocks().enumerate() {
                for e in 0..sq {
                    if coarse.mask[i * sq + e] == 0.0 {
                        let coord = (br * b + e / b, bc * b + e % b);
                        assert!(owned.insert(coord), "duplicate ownership {coord:?}");
                    }
                }
            }
        }
        if let Some(fine) = sliced.fine() {
            for (r, c, _) in fine.iter() {
                assert!(owned.insert((r, c)), "duplicate ownership ({r},{c})");
            }
        }
        for &r in sliced.global_rows() {
            for c in 0..pattern.valid_len() {
                assert!(owned.insert((r, c)), "duplicate ownership ({r},{c})");
            }
        }
        let expected: HashSet<(usize, usize)> = pattern.coords().into_iter().collect();
        assert_eq!(owned, expected, "partition covers exactly the pattern");
    }

    #[test]
    fn global_rows_leave_coarse_and_fine() {
        let sliced = SlicedPattern::from_compound(&compound(), 4).expect("aligned");
        assert_eq!(sliced.global_rows(), &[1]);
        if let Some(coarse) = sliced.coarse() {
            // Block row 0 exists but no valid element in row 1.
            let b = coarse.structure.block_size();
            let sq = b * b;
            for (i, (br, _, _)) in coarse.structure.iter_blocks().enumerate() {
                for e in 0..sq {
                    if coarse.mask[i * sq + e] == 0.0 {
                        assert_ne!(br * b + e / b, 1, "global row leaked into coarse part");
                    }
                }
            }
        }
        if let Some(fine) = sliced.fine() {
            assert_eq!(fine.row_nnz(1), 0, "global row leaked into fine part");
        }
    }

    #[test]
    fn fine_elements_inside_coarse_blocks_are_absorbed() {
        // A random element that lands inside the local band's blocks must
        // be owned by the coarse part, not duplicated in fine.
        let pattern = CompoundPattern::new(16)
            .with(AtomicPattern::BlockedLocal { block: 4 })
            .with(AtomicPattern::Selected { tokens: vec![1] });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        let fine = sliced
            .fine()
            .expect("selected columns outside diagonal blocks");
        for (r, c, _) in fine.iter() {
            assert_eq!(c, 1);
            assert_ne!(r / 4, 0, "rows 0..4 own column 1 via the diagonal block");
        }
    }

    #[test]
    fn coarse_only_pattern_has_no_fine_part() {
        let pattern = CompoundPattern::new(16).with(AtomicPattern::BlockedLocal { block: 4 });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert!(sliced.fine().is_none());
        assert!(sliced.coarse().is_some());
        assert!(sliced.global_rows().is_empty());
        // Diagonal blocks are fully valid: no masked elements.
        assert_eq!(sliced.coarse().expect("coarse").fill_ratio(), 1.0);
    }

    #[test]
    fn fine_only_pattern_has_no_coarse_part() {
        let pattern = CompoundPattern::new(16).with(AtomicPattern::Random {
            per_row: 2,
            seed: 9,
        });
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert!(sliced.coarse().is_none());
        assert_eq!(sliced.fine().expect("fine").nnz(), pattern.nnz());
    }

    #[test]
    fn stats_totals_match_pattern_nnz() {
        let pattern = compound();
        let sliced = SlicedPattern::from_compound(&pattern, 4).expect("aligned");
        assert_eq!(sliced.total_valid_elements(), pattern.nnz());
    }

    #[test]
    fn misaligned_block_size_is_rejected() {
        assert!(SlicedPattern::from_compound(&compound(), 5).is_err());
    }
}
