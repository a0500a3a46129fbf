//! Placement policies and per-take statistics over a
//! [`FreeSpace`](crate::FreeSpace).

/// Placement policies over a [`FreeSpace`](crate::FreeSpace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FitPolicy {
    /// Lowest-address gap that fits.
    FirstFit,
    /// Smallest gap that fits (ties: lowest address).
    BestFit,
    /// Largest gap (if it fits; ties: lowest address).
    WorstFit,
    /// Lowest-address fitting gap at or after a roving cursor, wrapping
    /// around once (the cursor is owned by the caller).
    NextFit,
}

impl FitPolicy {
    /// All policies, for exhaustive tests and benches.
    pub const ALL: [FitPolicy; 4] = [
        FitPolicy::FirstFit,
        FitPolicy::BestFit,
        FitPolicy::WorstFit,
        FitPolicy::NextFit,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FitPolicy::FirstFit => "first-fit",
            FitPolicy::BestFit => "best-fit",
            FitPolicy::WorstFit => "worst-fit",
            FitPolicy::NextFit => "next-fit",
        }
    }
}

/// Cost and shape statistics for a single traced take.
///
/// Produced by [`FreeSpace::take_traced`](crate::FreeSpace::take_traced)/
/// [`FreeSpace::take_next_fit_traced`](crate::FreeSpace::take_next_fit_traced)
/// so managers can report placement effort without altering any placement
/// decision (the traced variants choose exactly the same addresses as the
/// untraced ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TakeStats {
    /// Index probes performed while choosing the gap: size-class range
    /// probes for first/best/worst fit, gaps examined for next-fit.
    pub probes: u64,
    /// Length of the gap the placement was carved from, or `None` when
    /// the request was served from the frontier.
    pub gap_len: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceFreeSpace;
    use crate::FreeSpace;
    use pcb_heap::{Addr, Extent, Size};

    fn fs_with_holes() -> FreeSpace {
        // Layout: [0,4) used, [4,8) free, [8,20) used, [20,30) free, [30,40) used.
        let mut fs = FreeSpace::new();
        let a = fs.take(Size::new(40), FitPolicy::FirstFit);
        assert_eq!(a, Addr::new(0));
        fs.release(Addr::new(4), Size::new(4));
        fs.release(Addr::new(20), Size::new(10));
        fs.check_invariants().unwrap();
        fs
    }

    #[test]
    fn first_fit_prefers_lowest_address() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(4));
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn best_fit_prefers_tightest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::BestFit), Addr::new(4));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn worst_fit_prefers_largest_gap() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(3), FitPolicy::WorstFit), Addr::new(20));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn frontier_used_when_nothing_fits() {
        let mut fs = fs_with_holes();
        assert_eq!(fs.take(Size::new(11), FitPolicy::FirstFit), Addr::new(40));
        assert_eq!(fs.frontier(), Addr::new(51));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn release_coalesces_both_sides_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(30), FitPolicy::FirstFit);
        fs.release(Addr::new(0), Size::new(10));
        fs.release(Addr::new(20), Size::new(5));
        fs.release(Addr::new(10), Size::new(10)); // bridges both gaps
        fs.check_invariants().unwrap();
        assert_eq!(fs.gap_count(), 1);
        assert_eq!(fs.gap_words(), Size::new(25));
        fs.release(Addr::new(25), Size::new(5)); // touches frontier: retreat
        fs.check_invariants().unwrap();
        assert_eq!(fs.frontier(), Addr::new(0));
        assert_eq!(fs.gap_count(), 0);
    }

    #[test]
    fn next_fit_roves_and_wraps() {
        let mut fs = fs_with_holes();
        let mut cursor = Addr::new(10);
        // From 10: first fitting gap at/after 10 is [20,30).
        assert_eq!(fs.take_next_fit(Size::new(2), &mut cursor), Addr::new(20));
        assert_eq!(cursor, Addr::new(22));
        // [22,30) fits again.
        assert_eq!(fs.take_next_fit(Size::new(8), &mut cursor), Addr::new(22));
        // Nothing at/after 30 fits 4 words; wraps to [4,8).
        assert_eq!(fs.take_next_fit(Size::new(4), &mut cursor), Addr::new(4));
        // Nothing interior fits 4 words; frontier.
        assert_eq!(fs.take_next_fit(Size::new(4), &mut cursor), Addr::new(40));
        fs.check_invariants().unwrap();
    }

    #[test]
    fn aligned_take_from_gap_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(33), FitPolicy::FirstFit);
        fs.release(Addr::new(5), Size::new(12)); // gap [5,17)
                                                 // Aligned to 8: candidate 8, needs [8,16) ⊆ [5,17) ✓
        assert_eq!(fs.take_aligned(Size::new(8), 8), Addr::new(8));
        fs.check_invariants().unwrap();
        // Next aligned-8 request: gap remnants [5,8) and [16,17) too small;
        // frontier 33 aligns up to 40, leaving [33,40) as a gap.
        assert_eq!(fs.take_aligned(Size::new(8), 8), Addr::new(40));
        fs.check_invariants().unwrap();
        assert!(fs.is_free(Addr::new(33), Size::new(7)));
        assert_eq!(fs.frontier(), Addr::new(48));
    }

    #[test]
    fn take_exact_inside_gap_and_frontier() {
        let mut fs = FreeSpace::new();
        fs.take(Size::new(20), FitPolicy::FirstFit);
        fs.release(Addr::new(4), Size::new(8)); // gap [4,12)
        assert!(fs.take_exact(Addr::new(6), Size::new(4))); // middle of the gap
        fs.check_invariants().unwrap();
        assert!(!fs.take_exact(Addr::new(10), Size::new(4))); // [10,14) partly used
        assert!(fs.take_exact(Addr::new(30), Size::new(5))); // frontier, skips [20,30)
        fs.check_invariants().unwrap();
        assert!(fs.is_free(Addr::new(20), Size::new(10)));
        assert_eq!(fs.frontier(), Addr::new(35));
    }

    #[test]
    fn is_free_queries() {
        let fs = fs_with_holes();
        assert!(fs.is_free(Addr::new(4), Size::new(4)));
        assert!(!fs.is_free(Addr::new(4), Size::new(5)));
        assert!(!fs.is_free(Addr::new(0), Size::new(1)));
        assert!(fs.is_free(Addr::new(40), Size::new(1_000_000)));
        assert!(fs.is_free(Addr::new(25), Size::new(5)));
        assert!(!fs.is_free(Addr::new(25), Size::new(6)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut fs = fs_with_holes();
        fs.clear();
        assert_eq!(fs.frontier(), Addr::ZERO);
        assert_eq!(fs.gap_count(), 0);
        assert_eq!(fs.take(Size::new(4), FitPolicy::FirstFit), Addr::new(0));
    }

    #[test]
    fn traced_takes_match_untraced_choices() {
        for policy in FitPolicy::ALL {
            let mut plain = fs_with_holes();
            let mut traced = fs_with_holes();
            let mut plain_cursor = Addr::new(10);
            let mut traced_cursor = Addr::new(10);
            for step in 0..6u64 {
                let size = Size::new(2 + step % 5);
                let (a, b) = if policy == FitPolicy::NextFit {
                    let a = plain.take_next_fit(size, &mut plain_cursor);
                    let (b, t) = traced.take_next_fit_traced(size, &mut traced_cursor);
                    assert!(t.probes >= 1);
                    (a, b)
                } else {
                    let a = plain.take(size, policy);
                    let (b, t) = traced.take_traced(size, policy);
                    assert!(t.probes >= 1);
                    if let Some(len) = t.gap_len {
                        assert!(len >= size.get());
                    }
                    (a, b)
                };
                assert_eq!(a, b, "{policy:?} step {step}");
            }
            assert_eq!(plain_cursor, traced_cursor);
            traced.check_invariants().unwrap();
        }
    }

    #[test]
    fn traced_take_reports_gap_and_frontier() {
        let mut fs = fs_with_holes();
        let (addr, t) = fs.take_traced(Size::new(4), FitPolicy::FirstFit);
        assert_eq!(addr, Addr::new(4));
        assert_eq!(t.gap_len, Some(4));
        let (addr, t) = fs.take_traced(Size::new(11), FitPolicy::FirstFit);
        assert_eq!(addr, Addr::new(40), "frontier serve");
        assert_eq!(t.gap_len, None);
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<_> = FitPolicy::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["first-fit", "best-fit", "worst-fit", "next-fit"]);
    }

    #[test]
    fn many_interleaved_ops_keep_invariants() {
        let mut fs = FreeSpace::new();
        let mut live: Vec<(Addr, Size)> = Vec::new();
        for i in 0..500u64 {
            let size = Size::new(1 + (i * 7) % 13);
            let addr = fs.take(size, FitPolicy::ALL[(i % 4) as usize]);
            live.push((addr, size));
            if i % 3 == 0 {
                let (a, s) = live.remove((i as usize * 5) % live.len());
                fs.release(a, s);
            }
            fs.check_invariants().unwrap();
        }
    }

    #[test]
    fn implementations_stay_in_lockstep() {
        // A denser cross-check than the proptests: drive the index and
        // the seed index through an identical mixed script and compare every
        // observable after every operation.
        let mut ind = FreeSpace::new();
        let mut refr = ReferenceFreeSpace::new();
        let mut live: Vec<(Addr, Size)> = Vec::new();
        let mut cursor_i = Addr::ZERO;
        let mut cursor_r = Addr::ZERO;
        for i in 0..3000u64 {
            let roll = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let size = Size::new(1 + roll % 300); // straddles SMALL_MAX
            match roll % 7 {
                0..=3 => {
                    let policy = FitPolicy::ALL[(roll % 4) as usize];
                    let (a, ta) = ind.take_traced(size, policy);
                    let (b, tb) = refr.take_traced(size, policy);
                    assert_eq!(a, b, "step {i}");
                    assert_eq!(ta, tb, "step {i}");
                    live.push((a, size));
                }
                4 => {
                    let (a, ta) = ind.take_next_fit_traced(size, &mut cursor_i);
                    let (b, tb) = refr.take_next_fit_traced(size, &mut cursor_r);
                    assert_eq!(a, b, "step {i}");
                    assert_eq!(ta, tb, "step {i}");
                    assert_eq!(cursor_i, cursor_r);
                    live.push((a, size));
                }
                5 => {
                    let a = ind.take_aligned(size, 1 << (roll % 6));
                    let b = refr.take_aligned(size, 1 << (roll % 6));
                    assert_eq!(a, b, "step {i}");
                    live.push((a, size));
                }
                _ => {
                    if !live.is_empty() {
                        let (a, s) = live.remove((roll as usize * 31) % live.len());
                        ind.release(a, s);
                        refr.release(a, s);
                    }
                }
            }
            assert_eq!(ind.frontier(), refr.frontier(), "step {i}");
            assert_eq!(ind.gap_count(), refr.gap_count(), "step {i}");
            assert_eq!(ind.gap_words(), refr.gap_words(), "step {i}");
            assert_eq!(ind.largest_gap(), refr.largest_gap(), "step {i}");
            if i % 64 == 0 {
                let gi: Vec<Extent> = ind.gaps().collect();
                let gr: Vec<Extent> = refr.gaps().collect();
                assert_eq!(gi, gr, "step {i}");
                ind.check_invariants().unwrap();
                refr.check_invariants().unwrap();
            }
        }
    }
}
