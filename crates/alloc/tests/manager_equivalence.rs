//! Lockstep mirror equivalence: random free-space operation sequences are
//! driven through the indexed [`FreeSpace`] and the seed BTree
//! [`ReferenceFreeSpace`] simultaneously, asserting identical answers at
//! every step. This is the ground-truth argument for the indexed manager
//! mirror: any divergence, however small, fails here before it can bias a
//! placement decision. The managers' own indexes are checked against
//! their seed structures by the `lockstep` proptests next to each of them.

use proptest::prelude::*;

use pcb_alloc::reference::ReferenceFreeSpace;
use pcb_alloc::{FitPolicy, FreeSpace};
use pcb_heap::{Addr, Size};

#[derive(Debug, Clone)]
enum Op {
    /// Take via a fit policy (0..4 maps onto `FitPolicy::ALL`).
    Take { size: u64, policy: usize },
    /// Take the next-fit way, advancing the external cursor.
    TakeNextFit { size: u64 },
    /// Take the lowest aligned gap (buddy-style).
    TakeAligned { size: u64, align_log2: u32 },
    /// Claim an explicit extent; both sides must agree on whether it was
    /// free.
    TakeExact { start: u64, size: u64 },
    /// First-fit take bounded by an arena limit; both sides must agree on
    /// `None` when nothing fits below the limit.
    TakeWithin { size: u64, limit: u64 },
    /// Release the `pick`-th previously taken extent.
    Release { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let take = || (1u64..48, 0usize..4).prop_map(|(size, policy)| Op::Take { size, policy });
    let release = || (0usize..64).prop_map(|pick| Op::Release { pick });
    prop_oneof![
        take(),
        take(),
        take(),
        (1u64..48).prop_map(|size| Op::TakeNextFit { size }),
        (1u64..32, 0u32..5).prop_map(|(size, align_log2)| Op::TakeAligned { size, align_log2 }),
        (0u64..2_000, 1u64..48).prop_map(|(start, size)| Op::TakeExact { start, size }),
        (1u64..48, 1u64..2_000).prop_map(|(size, limit)| Op::TakeWithin { size, limit }),
        release(),
        release(),
        release(),
    ]
}

/// The mirror-state comparison run after every operation: gap structure,
/// frontier, aggregates, and a handful of point probes must agree.
fn assert_mirrors_agree(
    indexed: &FreeSpace,
    reference: &ReferenceFreeSpace,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(indexed.frontier(), reference.frontier());
    prop_assert_eq!(indexed.gap_count(), reference.gap_count());
    prop_assert_eq!(indexed.gap_words(), reference.gap_words());
    prop_assert_eq!(indexed.largest_gap(), reference.largest_gap());
    let igaps: Vec<_> = indexed.gaps().collect();
    let rgaps: Vec<_> = reference.gaps().collect();
    prop_assert_eq!(igaps, rgaps);
    prop_assert!(indexed.check_invariants().is_ok(), "indexed invariants");
    prop_assert!(reference.check_invariants().is_ok(), "reference invariants");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Operation-level lockstep: every take answers with the same address,
    // every exact claim with the same verdict, and the full gap structure
    // matches after every single operation.
    #[test]
    fn free_space_impls_answer_identically(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        probes in proptest::collection::vec(0u64..2_200, 1..8),
    ) {
        let mut indexed = FreeSpace::new();
        let mut reference = ReferenceFreeSpace::new();
        let mut icursor = Addr::ZERO;
        let mut rcursor = Addr::ZERO;
        let mut taken: Vec<(Addr, Size)> = Vec::new();
        for op in ops {
            match op {
                Op::Take { size, policy } => {
                    let (size, policy) = (Size::new(size), FitPolicy::ALL[policy]);
                    let got = indexed.take(size, policy);
                    let want = reference.take(size, policy);
                    prop_assert_eq!(got, want, "take {} {:?}", size, policy);
                    taken.push((got, size));
                }
                Op::TakeNextFit { size } => {
                    let size = Size::new(size);
                    let got = indexed.take_next_fit(size, &mut icursor);
                    let want = reference.take_next_fit(size, &mut rcursor);
                    prop_assert_eq!(got, want, "take_next_fit {}", size);
                    prop_assert_eq!(icursor, rcursor, "next-fit cursors");
                    taken.push((got, size));
                }
                Op::TakeAligned { size, align_log2 } => {
                    let size = Size::new(size);
                    let align = 1u64 << align_log2;
                    let got = indexed.take_aligned(size, align);
                    let want = reference.take_aligned(size, align);
                    prop_assert_eq!(got, want, "take_aligned {} @{}", size, align);
                    taken.push((got, size));
                }
                Op::TakeExact { start, size } => {
                    let (start, size) = (Addr::new(start), Size::new(size));
                    prop_assert_eq!(
                        indexed.is_free(start, size),
                        reference.is_free(start, size)
                    );
                    let got = indexed.take_exact(start, size);
                    let want = reference.take_exact(start, size);
                    prop_assert_eq!(got, want, "take_exact [{}, {}+{})", start, start, size);
                    if got {
                        taken.push((start, size));
                    }
                }
                Op::TakeWithin { size, limit } => {
                    let size = Size::new(size);
                    let got = indexed.try_take_within(size, FitPolicy::FirstFit, limit);
                    let want = reference.try_take_within(size, FitPolicy::FirstFit, limit);
                    prop_assert_eq!(got, want, "try_take_within {} < {}", size, limit);
                    if let Some(addr) = got {
                        taken.push((addr, size));
                    }
                }
                Op::Release { pick } => {
                    if taken.is_empty() {
                        continue;
                    }
                    let (addr, size) = taken.remove(pick % taken.len());
                    indexed.release(addr, size);
                    reference.release(addr, size);
                }
            }
            assert_mirrors_agree(&indexed, &reference)?;
            for &probe in &probes {
                let addr = Addr::new(probe);
                prop_assert_eq!(
                    indexed.gap_containing(addr),
                    reference.gap_containing(addr),
                    "gap_containing {}",
                    addr
                );
                prop_assert_eq!(indexed.gap_starting_at(addr), reference.gap_starting_at(addr));
                prop_assert_eq!(indexed.gap_ending_at(addr), reference.gap_ending_at(addr));
            }
        }
    }
}
