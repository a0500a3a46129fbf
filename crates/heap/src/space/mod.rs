//! Ground-truth occupancy map of the simulated address space.
//!
//! [`SpaceMap`] records which word intervals are occupied by which object.
//! It is the referee of the simulation: managers propose placements and
//! moves, and the map rejects anything that would double-book a word. It is
//! deliberately independent of any manager-side free-list so that a buggy
//! manager cannot corrupt the ground truth it is judged against.
//!
//! The map is a word-granularity occupancy bitmap with a 64-word-stride
//! summary level and an address-indexed owner/size directory ([`bitmap`]),
//! the one place each live object's size and owner are kept. The
//! seed `BTreeMap` interval map survives as
//! [`ReferenceSpace`](crate::reference::ReferenceSpace), which
//! `tests/substrate_equivalence.rs` drives in lockstep with this one.

mod bitmap;

pub use bitmap::{SpaceMap, SubstrateCounters};
pub(crate) use bitmap::{MAX_ADDR, MAX_OWNER};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, Extent, Size};
    use crate::error::SpaceError;
    use crate::object::ObjectId;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn occupy_then_release_round_trips() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        assert_eq!(m.occupied_words(), Size::new(5));
        let (e, o) = m.release(Addr::new(10)).unwrap();
        assert_eq!(e, Extent::from_raw(10, 5));
        assert_eq!(o, id(1));
        assert!(m.is_empty());
        assert_eq!(m.occupied_words(), Size::ZERO);
    }

    #[test]
    fn overlap_is_rejected_in_all_positions() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 10)).unwrap();
        // left overlap, right overlap, containing, contained, exact
        for ext in [
            Extent::from_raw(5, 6),
            Extent::from_raw(19, 5),
            Extent::from_raw(5, 30),
            Extent::from_raw(12, 3),
            Extent::from_raw(10, 10),
        ] {
            assert!(m.occupy(id(2), ext).is_err(), "expected overlap for {ext}");
        }
        // touching neighbours are fine
        m.occupy(id(3), Extent::from_raw(0, 10)).unwrap();
        m.occupy(id(4), Extent::from_raw(20, 10)).unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn overlap_error_reports_the_holder() {
        let mut m = SpaceMap::new();
        m.occupy(id(7), Extent::from_raw(100, 30)).unwrap();
        let err = m.occupy(id(8), Extent::from_raw(120, 50)).unwrap_err();
        assert_eq!(
            err,
            SpaceError::Overlap {
                attempted: Extent::from_raw(120, 50),
                existing: Extent::from_raw(100, 30),
                holder: id(7),
            }
        );
    }

    #[test]
    fn empty_extent_is_rejected() {
        let mut m = SpaceMap::new();
        assert!(matches!(
            m.occupy(id(1), Extent::from_raw(0, 0)),
            Err(SpaceError::EmptyExtent { .. })
        ));
    }

    #[test]
    fn release_of_unknown_start_fails() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        // Address 12 is occupied but is not an interval start.
        assert!(m.release(Addr::new(12)).is_err());
        assert!(m.release(Addr::new(0)).is_err());
        // Far beyond any mapped capacity.
        assert!(m.release(Addr::new(1 << 20)).is_err());
    }

    #[test]
    fn object_at_finds_owner() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        m.occupy(id(2), Extent::from_raw(20, 1)).unwrap();
        assert_eq!(m.object_at(Addr::new(10)), Some(id(1)));
        assert_eq!(m.object_at(Addr::new(14)), Some(id(1)));
        assert_eq!(m.object_at(Addr::new(15)), None);
        assert_eq!(m.object_at(Addr::new(20)), Some(id(2)));
        assert_eq!(m.object_at(Addr::new(21)), None);
    }

    #[test]
    fn frontier_and_lowest_track_extremes() {
        let mut m = SpaceMap::new();
        assert_eq!(m.frontier(), Addr::ZERO);
        assert_eq!(m.lowest(), None);
        m.occupy(id(1), Extent::from_raw(100, 10)).unwrap();
        m.occupy(id(2), Extent::from_raw(5, 2)).unwrap();
        assert_eq!(m.frontier(), Addr::new(110));
        assert_eq!(m.lowest(), Some(Addr::new(5)));
    }

    #[test]
    fn frontier_recomputes_across_summary_blocks() {
        let mut m = SpaceMap::new();
        // Survivor far below, top object several summary blocks higher.
        m.occupy(id(1), Extent::from_raw(3, 1)).unwrap();
        m.occupy(id(2), Extent::from_raw(40_000, 16)).unwrap();
        assert_eq!(m.frontier(), Addr::new(40_016));
        m.release(Addr::new(40_000)).unwrap();
        assert_eq!(m.frontier(), Addr::new(4));
        m.release(Addr::new(3)).unwrap();
        assert_eq!(m.frontier(), Addr::ZERO);
    }

    #[test]
    fn gaps_reports_interior_holes_only() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(8, 2)).unwrap();
        m.occupy(id(3), Extent::from_raw(10, 6)).unwrap();
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(gaps, vec![Extent::from_raw(4, 4)]);
    }

    #[test]
    fn gaps_cross_word_and_block_boundaries() {
        let mut m = SpaceMap::new();
        // Hole [60, 70) straddles a word boundary; hole [100, 4200)
        // spans a full summary block.
        m.occupy(id(1), Extent::from_raw(50, 10)).unwrap();
        m.occupy(id(2), Extent::from_raw(70, 30)).unwrap();
        m.occupy(id(3), Extent::from_raw(4200, 8)).unwrap();
        let gaps: Vec<_> = m.gaps().collect();
        assert_eq!(
            gaps,
            vec![Extent::from_raw(60, 10), Extent::from_raw(100, 4100)]
        );
    }

    #[test]
    fn occupied_words_in_window() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(6, 4)).unwrap();
        // window [2, 8) sees words 2,3 of o1 and 6,7 of o2
        assert_eq!(m.occupied_words_in(Extent::from_raw(2, 6)), Size::new(4));
        assert_eq!(m.occupied_words_in(Extent::from_raw(4, 2)), Size::ZERO);
        assert_eq!(m.occupied_words_in(Extent::from_raw(0, 10)), Size::new(8));
    }

    #[test]
    fn occupied_words_in_unaligned_windows_over_large_spans() {
        let mut m = SpaceMap::new();
        // One object per summary block, windows cut mid-object.
        for i in 0..4u64 {
            m.occupy(id(i), Extent::from_raw(i * 5000, 100)).unwrap();
        }
        assert_eq!(
            m.occupied_words_in(Extent::from_raw(0, 20_000)),
            Size::new(400)
        );
        // [50, 5050): the top 50 words of the first object and the
        // bottom 50 of the second.
        assert_eq!(
            m.occupied_words_in(Extent::from_raw(50, 5000)),
            Size::new(100)
        );
        assert_eq!(m.occupied_words_in(Extent::from_raw(4999, 2)), Size::new(1));
    }

    #[test]
    fn overlapping_lists_in_address_order() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 4)).unwrap();
        m.occupy(id(2), Extent::from_raw(6, 4)).unwrap();
        m.occupy(id(3), Extent::from_raw(12, 4)).unwrap();
        let hits: Vec<_> = m.overlapping(Extent::from_raw(2, 12)).collect();
        assert_eq!(
            hits.iter().map(|&(_, o)| o).collect::<Vec<_>>(),
            vec![id(1), id(2), id(3)]
        );
    }

    #[test]
    fn overlapping_handles_containers_and_exact_starts() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 100)).unwrap();
        // Window strictly inside the single container.
        let hits: Vec<_> = m.overlapping(Extent::from_raw(40, 10)).collect();
        assert_eq!(hits, vec![(Extent::from_raw(0, 100), id(1))]);
        // Window starting exactly at an interval start is not doubled.
        let hits: Vec<_> = m.overlapping(Extent::from_raw(0, 100)).collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn iter_is_in_address_order() {
        let mut m = SpaceMap::new();
        m.occupy(id(2), Extent::from_raw(64, 64)).unwrap();
        m.occupy(id(1), Extent::from_raw(0, 32)).unwrap();
        m.occupy(id(3), Extent::from_raw(10_000, 1)).unwrap();
        let order: Vec<_> = m.iter().map(|(_, o)| o).collect();
        assert_eq!(order, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn bitmap_counters_move() {
        // Occupy 3, release 1, occupy 2: the values a slot table with a
        // free list reported.
        let mut m = SpaceMap::new();
        for i in 0..3 {
            m.occupy(id(i), Extent::from_raw(i * 70, 70)).unwrap();
        }
        m.release(Addr::new(70)).unwrap();
        m.occupy(id(3), Extent::from_raw(70, 2)).unwrap();
        m.occupy(id(4), Extent::from_raw(300, 2)).unwrap();
        let c = m.counters().unwrap();
        assert!(c.words_scanned > 0);
        assert_eq!(c.slot_high_water, 4);
        assert_eq!(c.slots_reused, 1, "the first occupy after a release");
    }

    #[test]
    fn starts_on_both_sides_of_a_directory_page() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(4095, 1)).unwrap();
        m.occupy(id(2), Extent::from_raw(4096, 1)).unwrap();
        m.occupy(id(3), Extent::from_raw(4097, 3)).unwrap();
        assert_eq!(m.size_at(Addr::new(4095)), Some(Size::new(1)));
        assert_eq!(m.size_at(Addr::new(4096)), Some(Size::new(1)));
        assert_eq!(m.size_at(Addr::new(4097)), Some(Size::new(3)));
        assert_eq!(m.object_at(Addr::new(4099)), Some(id(3)));
        let order: Vec<_> = m.iter().collect();
        assert_eq!(
            order,
            vec![
                (Extent::from_raw(4095, 1), id(1)),
                (Extent::from_raw(4096, 1), id(2)),
                (Extent::from_raw(4097, 3), id(3)),
            ]
        );
        assert_eq!(
            m.release(Addr::new(4096)).unwrap(),
            (Extent::from_raw(4096, 1), id(2))
        );
        assert_eq!(m.size_at(Addr::new(4096)), None);
        assert_eq!(m.object_at(Addr::new(4095)), Some(id(1)));
        assert_eq!(m.object_at(Addr::new(4097)), Some(id(3)));
    }

    #[test]
    fn largest_owner_id_round_trips() {
        let mut m = SpaceMap::new();
        let top = id((1 << 32) - 1);
        m.occupy(top, Extent::from_raw(7, 9)).unwrap();
        assert_eq!(m.object_at(Addr::new(15)), Some(top));
        assert_eq!(m.release(Addr::new(7)), Ok((Extent::from_raw(7, 9), top)));
    }

    #[test]
    #[should_panic(expected = "caps owner ids below 2^32")]
    fn owner_ids_above_32_bits_panic() {
        SpaceMap::new()
            .occupy(id(1 << 32), Extent::from_raw(0, 1))
            .unwrap();
    }

    #[test]
    fn size_at_needs_an_interval_start() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(10, 5)).unwrap();
        assert_eq!(m.size_at(Addr::new(10)), Some(Size::new(5)));
        assert_eq!(m.size_at(Addr::new(3)), None, "free word");
        assert_eq!(m.size_at(Addr::new(12)), None, "interior word");
        assert_eq!(m.size_at(Addr::new(15)), None, "frontier");
        assert_eq!(m.size_at(Addr::new(1 << 40)), None, "far above");
    }

    #[test]
    fn clone_is_independent() {
        let mut m = SpaceMap::new();
        m.occupy(id(1), Extent::from_raw(0, 8)).unwrap();
        let mut copy = m.clone();
        copy.release(Addr::new(0)).unwrap();
        copy.occupy(id(2), Extent::from_raw(4, 8)).unwrap();
        assert_eq!(m.object_at(Addr::new(4)), Some(id(1)));
        assert_eq!(copy.object_at(Addr::new(4)), Some(id(2)));
    }
}
