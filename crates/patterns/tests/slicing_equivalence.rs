//! Planning equivalence: the row-streamed renderings (`to_csr`,
//! `to_blocked`, `SlicedPattern::from_compound`) equal straightforward
//! references built here from `coords()` — a coordinate list, a sorted
//! block list searched per element, and ordered sets for the slice rules.

use mg_patterns::{AtomicPattern, BlockedPattern, CompoundPattern, Grain, SlicedPattern};
use mg_sparse::{Bsr, Csr, SparseError};
use mg_tensor::Half;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Compound patterns over every atomic kind, with and without padding.
fn compound_pattern() -> impl Strategy<Value = CompoundPattern> {
    let atomic = prop_oneof![
        (1usize..24).prop_map(|w| AtomicPattern::Local { window: w }),
        (2usize..24, 1usize..4).prop_map(|(w, s)| AtomicPattern::Dilated {
            window: w,
            stride: s
        }),
        proptest::collection::vec(0usize..200, 0..4)
            .prop_map(|tokens| AtomicPattern::Global { tokens }),
        proptest::collection::vec(0usize..200, 0..6)
            .prop_map(|tokens| AtomicPattern::Selected { tokens }),
        (1usize..6, any::<u64>()).prop_map(|(n, seed)| AtomicPattern::Random { per_row: n, seed }),
        (1usize..6, 1usize..20, any::<u64>()).prop_map(|(n, group, seed)| {
            AtomicPattern::VectorRandom {
                per_row: n,
                group,
                seed,
            }
        }),
        (1usize..40).prop_map(|b| AtomicPattern::BlockedLocal { block: b }),
        (1usize..40, 1usize..4, any::<u64>()).prop_map(|(block, n, seed)| {
            AtomicPattern::BlockedRandom {
                block,
                blocks_per_row: n,
                seed,
            }
        }),
        Just(AtomicPattern::Dense),
    ];
    (
        1usize..4,
        proptest::collection::vec(atomic, 1..4),
        0usize..=64,
    )
        .prop_map(|(blocks, parts, pad)| {
            let seq_len = 64 * blocks;
            let mut p = CompoundPattern::new(seq_len);
            for part in parts {
                p = p.with(part);
            }
            p.with_valid_len(seq_len - pad)
        })
}

fn block_size() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(64)]
}

fn reference_csr(seq_len: usize, coords: &[(usize, usize)]) -> Csr<Half> {
    Csr::from_coords(seq_len, seq_len, coords).expect("coords are sorted and unique")
}

/// Every touched block stored whole; block indices found by binary
/// search in the sorted block list.
fn reference_blocked(seq_len: usize, b: usize, coords: &[(usize, usize)]) -> BlockedPattern {
    let blocks: Vec<(usize, usize)> = coords
        .iter()
        .map(|&(r, c)| (r / b, c / b))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let structure =
        Bsr::<Half>::from_block_coords(seq_len, seq_len, b, &blocks).expect("aligned blocks");
    let mut mask = vec![f32::NEG_INFINITY; blocks.len() * b * b];
    for &(r, c) in coords {
        let i = blocks
            .binary_search(&(r / b, c / b))
            .expect("every coord's block is stored");
        mask[i * b * b + (r % b) * b + c % b] = 0.0;
    }
    BlockedPattern { structure, mask }
}

/// The slice rules applied to `coords()`: global rows own their row,
/// blocks touched by coarse-grain parts own every element inside them,
/// the rest is fine.
fn reference_slice(
    pattern: &CompoundPattern,
    b: usize,
) -> (Option<BlockedPattern>, Option<Csr<Half>>, Vec<usize>) {
    let (seq_len, valid_len) = (pattern.seq_len(), pattern.valid_len());
    let global: BTreeSet<usize> = pattern.global_rows().into_iter().collect();
    let mut coarse_blocks = BTreeSet::new();
    for part in pattern.parts_of_grain(Grain::Coarse) {
        for r in (0..valid_len).filter(|r| !global.contains(r)) {
            for c in part.row_columns(seq_len, r) {
                if c < valid_len {
                    coarse_blocks.insert((r / b, c / b));
                }
            }
        }
    }
    let (coarse, fine): (Vec<_>, Vec<_>) = pattern
        .coords()
        .into_iter()
        .filter(|(r, _)| !global.contains(r))
        .partition(|&(r, c)| coarse_blocks.contains(&(r / b, c / b)));
    (
        (!coarse.is_empty()).then(|| reference_blocked(seq_len, b, &coarse)),
        (!fine.is_empty()).then(|| reference_csr(seq_len, &fine)),
        global.into_iter().collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn to_csr_equals_coordinate_reference(pattern in compound_pattern()) {
        let expected = reference_csr(pattern.seq_len(), &pattern.coords());
        prop_assert_eq!(pattern.to_csr::<Half>(), expected);
    }

    #[test]
    fn to_blocked_equals_sorted_block_reference(
        pattern in compound_pattern(),
        b in block_size(),
    ) {
        let expected = reference_blocked(pattern.seq_len(), b, &pattern.coords());
        prop_assert_eq!(pattern.to_blocked(b).expect("aligned"), expected);
    }

    #[test]
    fn from_compound_equals_slice_reference(
        pattern in compound_pattern(),
        b in block_size(),
    ) {
        let sliced = SlicedPattern::from_compound(&pattern, b).expect("aligned");
        let (coarse, fine, global) = reference_slice(&pattern, b);
        prop_assert_eq!(sliced.seq_len(), pattern.seq_len());
        prop_assert_eq!(sliced.block_size(), b);
        prop_assert_eq!(sliced.coarse(), coarse.as_ref());
        prop_assert_eq!(sliced.fine(), fine.as_ref());
        prop_assert_eq!(sliced.global_rows(), global.as_slice());
    }

    #[test]
    fn misaligned_block_sizes_are_typed_errors(
        pattern in compound_pattern(),
        b in prop_oneof![Just(0usize), Just(7), Just(40)],
    ) {
        let misaligned = |e: SparseError| matches!(e, SparseError::BlockMisaligned { .. });
        prop_assert!(pattern.to_blocked(b).err().is_some_and(misaligned));
        prop_assert!(SlicedPattern::from_compound(&pattern, b)
            .err()
            .is_some_and(misaligned));
    }
}
