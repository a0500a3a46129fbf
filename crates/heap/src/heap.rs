//! The simulated heap: id → address table + occupancy ground truth +
//! c-partial budget + heap-size accounting.
//!
//! The heap does not model memory contents, only placement: that is all the
//! paper's framework needs. The *heap size* `HS` is measured exactly as the
//! paper defines it — "the smallest consecutive space that the memory
//! manager may use to satisfy all allocation requests" — i.e. the peak span
//! between the lowest and highest word ever occupied during the execution.

use crate::addr::{Addr, Extent, Size};
use crate::budget::CompactionBudget;
use crate::error::HeapError;
use crate::object::{ObjectId, ObjectIdGen, ObjectRecord};
use crate::space::{SpaceMap, MAX_ADDR, MAX_OWNER};

/// Sentinel for "not live" in the `Heap::addr_of` table.
const NOT_LIVE: u64 = u64::MAX;

/// Aggregate operation counts for an execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Objects placed (allocations served).
    pub objects_placed: u64,
    /// Objects freed by the program.
    pub objects_freed: u64,
    /// Relocations performed by the manager.
    pub objects_moved: u64,
    /// Cumulative words allocated.
    pub words_placed: u64,
    /// Cumulative words freed.
    pub words_freed: u64,
    /// Cumulative words moved (compaction work).
    pub words_moved: u64,
}

/// The simulated heap.
///
/// ```
/// use pcb_heap::{Addr, Heap, Size};
/// let mut heap = Heap::new(10); // serves a 10-partial manager
/// let id = heap.fresh_id();
/// heap.place(id, Addr::new(0), Size::new(64))?;
/// assert_eq!(heap.live_words(), Size::new(64));
/// assert_eq!(heap.heap_size(), Size::new(64));
/// heap.free(id)?;
/// assert_eq!(heap.live_words(), Size::ZERO);
/// // Heap size is a *peak* measure; freeing does not shrink it.
/// assert_eq!(heap.heap_size(), Size::new(64));
/// # Ok::<(), pcb_heap::HeapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    /// id -> start address, `NOT_LIVE` while not live. Object ids are
    /// allocation sequence numbers, so the table is dense; sizes and
    /// owners live once, in the space map's directory.
    addr_of: Vec<u64>,
    space: SpaceMap,
    budget: CompactionBudget,
    id_gen: ObjectIdGen,
    max_object: Option<Size>,
    live_words: Size,
    peak_live: Size,
    /// Lowest word ever occupied (None until the first placement).
    min_used: Option<Addr>,
    /// Highest `end()` ever occupied.
    max_used_end: Addr,
    /// Live words at the moment the span last grew: the complement of
    /// the holes baked into `HS` (external fragmentation).
    live_at_peak_span: Size,
    /// Total words of objects freed immediately upon being moved (the
    /// ghost objects of the paper's `P_F` discipline).
    ghost_words: Size,
    stats: HeapStats,
}

impl Heap {
    /// Creates a heap serving a `c`-partial manager.
    ///
    /// # Panics
    ///
    /// Panics unless `c > 1` (see [`CompactionBudget::new`]).
    pub fn new(c: u64) -> Self {
        Self::with_budget(CompactionBudget::new(c))
    }

    /// Creates a heap for a non-moving manager (no compaction ever allowed).
    pub fn non_moving() -> Self {
        Self::with_budget(CompactionBudget::non_moving())
    }

    /// Creates a heap with unlimited compaction (the full-compaction
    /// baseline the paper contrasts c-partial managers with).
    pub fn unlimited_compaction() -> Self {
        Self::with_budget(CompactionBudget::unlimited())
    }

    /// Creates a heap with an explicit budget ledger.
    pub fn with_budget(budget: CompactionBudget) -> Self {
        Heap {
            addr_of: Vec::new(),
            space: SpaceMap::new(),
            budget,
            id_gen: ObjectIdGen::new(),
            max_object: None,
            live_words: Size::ZERO,
            peak_live: Size::ZERO,
            min_used: None,
            max_used_end: Addr::ZERO,
            live_at_peak_span: Size::ZERO,
            ghost_words: Size::ZERO,
            stats: HeapStats::default(),
        }
    }

    /// Restricts object sizes to at most `n` words (the paper's parameter
    /// `n`); violations are reported as [`HeapError::InvalidSize`].
    pub fn set_max_object(&mut self, n: Size) {
        self.max_object = Some(n);
    }

    /// Returns a fresh object id (allocation sequence number).
    pub fn fresh_id(&mut self) -> ObjectId {
        self.id_gen.fresh()
    }

    /// The start address of live object `id`.
    #[inline]
    fn addr_of(&self, id: ObjectId) -> Option<Addr> {
        match self.addr_of.get(id.get() as usize) {
            Some(&a) if a != NOT_LIVE => Some(Addr::new(a)),
            _ => None,
        }
    }

    /// Rejects a target extent that ends above the referee's 2^32-word
    /// address space.
    fn check_range(id: ObjectId, addr: Addr, size: Size) -> Result<(), HeapError> {
        if addr.get().saturating_add(size.get()) > MAX_ADDR {
            return Err(HeapError::AddressOutOfRange { id, addr, size });
        }
        Ok(())
    }

    /// Places object `id` of `size` words at `addr`.
    ///
    /// This both claims the space and charges the allocation to the
    /// compaction-budget ledger (allocations *recharge* the allowance).
    ///
    /// # Errors
    ///
    /// Fails, leaving the heap unchanged, if the size is invalid, `id` is
    /// 2^32 or more or already live, the extent ends above 2^32 words, or
    /// the extent is not free.
    pub fn place(&mut self, id: ObjectId, addr: Addr, size: Size) -> Result<(), HeapError> {
        if size.is_zero() || self.max_object.is_some_and(|n| size > n) {
            return Err(HeapError::InvalidSize {
                size,
                max: self.max_object,
            });
        }
        if id.get() >= MAX_OWNER {
            return Err(HeapError::IdOutOfRange(id));
        }
        if self.is_live(id) {
            return Err(HeapError::AlreadyLive(id));
        }
        Self::check_range(id, addr, size)?;
        let extent = Extent::new(addr, size);
        self.space.occupy(id, extent)?;
        let idx = id.get() as usize;
        if idx >= self.addr_of.len() {
            self.addr_of.resize(idx + 1, NOT_LIVE);
        }
        self.addr_of[idx] = addr.get();
        self.budget.on_allocated(size);
        self.live_words += size;
        self.peak_live = self.peak_live.max(self.live_words);
        self.note_used(extent);
        self.stats.objects_placed += 1;
        self.stats.words_placed += size.get();
        Ok(())
    }

    /// Frees object `id`, releasing its footprint.
    ///
    /// # Errors
    ///
    /// Fails if `id` is not live.
    pub fn free(&mut self, id: ObjectId) -> Result<(Addr, Size), HeapError> {
        let addr = self.addr_of(id).ok_or(HeapError::UnknownObject(id))?;
        self.addr_of[id.get() as usize] = NOT_LIVE;
        let (extent, owner) = self
            .space
            .release(addr)
            .expect("id table and space map agree");
        debug_assert_eq!(owner, id, "id table and space map agree");
        let size = extent.size();
        self.live_words = self.live_words - size;
        self.stats.objects_freed += 1;
        self.stats.words_freed += size.get();
        Ok((addr, size))
    }

    /// Relocates object `id` to `new_addr`, spending compaction budget equal
    /// to the object's size. The object may move to a range overlapping its
    /// old footprint (sliding compaction).
    ///
    /// # Errors
    ///
    /// Fails if `id` is not live, the destination is not free or ends above
    /// 2^32 words, or the move would exceed the c-partial allowance; the
    /// heap is unchanged on error.
    pub fn relocate(&mut self, id: ObjectId, new_addr: Addr) -> Result<Addr, HeapError> {
        let rec = self.record(id).ok_or(HeapError::UnknownObject(id))?;
        let old_addr = rec.addr();
        if new_addr == old_addr {
            // Moving zero distance moves no data: a no-op, free of budget.
            return Ok(old_addr);
        }
        if !self.budget.can_move(rec.size()) {
            return Err(HeapError::BudgetExceeded {
                id,
                size: rec.size(),
                remaining: self.budget.allowance(),
            });
        }
        Self::check_range(id, new_addr, rec.size())?;
        // Release-then-occupy so sliding moves that overlap the old
        // footprint succeed; roll back on failure.
        self.space
            .release(old_addr)
            .expect("id table and space map agree");
        let new_extent = Extent::new(new_addr, rec.size());
        match self.space.occupy(id, new_extent) {
            Ok(()) => {}
            Err(e) => {
                self.space
                    .occupy(id, rec.extent())
                    .expect("rollback to the original placement cannot collide");
                return Err(e.into());
            }
        }
        self.budget
            .on_moved(rec.size())
            .expect("can_move was checked above");
        self.addr_of[id.get() as usize] = new_addr.get();
        self.note_used(new_extent);
        self.stats.objects_moved += 1;
        self.stats.words_moved += rec.size().get();
        Ok(old_addr)
    }

    fn note_used(&mut self, extent: Extent) {
        let span_before = self.heap_size();
        self.min_used = Some(match self.min_used {
            Some(lo) => lo.min(extent.start()),
            None => extent.start(),
        });
        self.max_used_end = self.max_used_end.max(extent.end());
        // The span never shrinks, so any growth is a new peak: snapshot
        // the live words so `external_waste` can report the holes that
        // were baked into HS at the moment it was reached.
        if self.heap_size() > span_before {
            self.live_at_peak_span = self.live_words;
        }
    }

    /// Charges `words` of ghost-object churn: an object that was freed
    /// the moment the manager moved it (see
    /// [`MoveResponse::FreeImmediately`](crate::MoveResponse)). Called by
    /// the engine, not by managers.
    pub(crate) fn note_ghost(&mut self, words: Size) {
        self.ghost_words += words;
    }

    /// The record of a live object.
    #[inline]
    pub fn record(&self, id: ObjectId) -> Option<ObjectRecord> {
        let addr = self.addr_of(id)?;
        let size = self
            .space
            .size_at(addr)
            .expect("id table and space map agree");
        Some(ObjectRecord::new(id, addr, size))
    }

    /// Whether `id` is live.
    #[inline]
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.addr_of(id).is_some()
    }

    /// Iterates over live objects in address order.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjectRecord> + '_ {
        self.space
            .iter()
            .map(|(extent, owner)| ObjectRecord::new(owner, extent.start(), extent.size()))
    }

    /// Number of live objects.
    pub fn live_count(&self) -> usize {
        self.space.len()
    }

    /// Total live words.
    pub fn live_words(&self) -> Size {
        self.live_words
    }

    /// Peak of total live words over the execution.
    pub fn peak_live(&self) -> Size {
        self.peak_live
    }

    /// The heap size `HS`: peak span of used address space over the whole
    /// execution (the paper's Section 4 measure).
    pub fn heap_size(&self) -> Size {
        match self.min_used {
            Some(lo) => self.max_used_end.offset_from(lo),
            None => Size::ZERO,
        }
    }

    /// External fragmentation realized in `HS`: the hole words that were
    /// inside the used span at the moment it last grew
    /// (`heap_size() - live-words-at-that-moment`). These are the words
    /// the manager could not fill and the span had to grow past.
    pub fn external_waste(&self) -> Size {
        Size::new(
            self.heap_size()
                .get()
                .saturating_sub(self.live_at_peak_span.get()),
        )
    }

    /// Total words of moved-then-immediately-freed objects — the ghost
    /// objects with which a `P_F` program converts compaction work into
    /// pure waste (Section 5 of the paper).
    pub fn ghost_words(&self) -> Size {
        self.ghost_words
    }

    /// The compaction-budget ledger.
    pub fn budget(&self) -> &CompactionBudget {
        &self.budget
    }

    /// Tightens the compaction bound mid-run (a chaos "budget cut");
    /// see [`CompactionBudget::tighten`]. Returns whether the bound
    /// changed.
    pub fn tighten_budget(&mut self, new_c: u64) -> bool {
        self.budget.tighten(new_c)
    }

    /// The ground-truth occupancy map (read-only).
    pub fn space(&self) -> &SpaceMap {
        &self.space
    }

    /// Aggregate operation counts.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Live words divided by current (peak) heap size; 1.0 for an empty
    /// execution.
    pub fn utilization(&self) -> f64 {
        let hs = self.heap_size().get();
        if hs == 0 {
            1.0
        } else {
            self.live_words.get() as f64 / hs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_free_place_reuses_space() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(8)).unwrap();
        h.free(a).unwrap();
        let b = h.fresh_id();
        h.place(b, Addr::new(0), Size::new(8)).unwrap();
        assert_eq!(h.heap_size(), Size::new(8));
        assert_eq!(h.live_words(), Size::new(8));
        assert_eq!(h.stats().objects_placed, 2);
    }

    #[test]
    fn heap_size_is_peak_span() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(100), Size::new(4)).unwrap();
        assert_eq!(h.heap_size(), Size::new(4), "span starts at first use");
        let b = h.fresh_id();
        h.place(b, Addr::new(0), Size::new(1)).unwrap();
        assert_eq!(h.heap_size(), Size::new(104));
        h.free(a).unwrap();
        h.free(b).unwrap();
        assert_eq!(h.heap_size(), Size::new(104), "HS never shrinks");
    }

    #[test]
    fn double_free_and_unknown_ids_fail() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(2)).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(HeapError::UnknownObject(_))));
        assert!(matches!(
            h.relocate(a, Addr::new(10)),
            Err(HeapError::UnknownObject(_))
        ));
    }

    #[test]
    fn relocate_respects_budget() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(10)).unwrap();
        // allocated=10, c=2 => allowance 5 < 10
        let err = h.relocate(a, Addr::new(100)).unwrap_err();
        assert!(matches!(err, HeapError::BudgetExceeded { remaining, .. }
            if remaining == Size::new(5)));
        // A second allocation recharges enough.
        let b = h.fresh_id();
        h.place(b, Addr::new(10), Size::new(10)).unwrap();
        let old = h.relocate(a, Addr::new(100)).unwrap();
        assert_eq!(old, Addr::new(0));
        assert_eq!(h.record(a).unwrap().addr(), Addr::new(100));
    }

    #[test]
    fn sliding_relocation_over_own_footprint_works() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        h.place(b, Addr::new(4), Size::new(4)).unwrap();
        h.free(a).unwrap();
        // allocated = 8, c = 2 => allowance 4, enough to move b (size 4).
        // Slide b left by 2; new extent [2,6) overlaps old [4,8).
        h.relocate(b, Addr::new(2)).unwrap();
        assert_eq!(h.record(b).unwrap().addr(), Addr::new(2));
        assert!(h.space().is_free(Extent::from_raw(6, 100)));
        assert!(h.space().is_free(Extent::from_raw(0, 2)));
    }

    #[test]
    fn relocate_to_occupied_target_rolls_back() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(2)).unwrap();
        h.place(b, Addr::new(10), Size::new(2)).unwrap();
        // Plenty of budget after two allocations? allocated=4, c=2, allowance=2.
        let err = h.relocate(a, Addr::new(9)).unwrap_err();
        assert!(matches!(err, HeapError::Space(_)));
        // a is still where it was and still live.
        assert_eq!(h.record(a).unwrap().addr(), Addr::new(0));
        assert_eq!(h.live_words(), Size::new(4));
    }

    #[test]
    fn max_object_enforced() {
        let mut h = Heap::new(10);
        h.set_max_object(Size::new(16));
        let a = h.fresh_id();
        assert!(matches!(
            h.place(a, Addr::new(0), Size::new(17)),
            Err(HeapError::InvalidSize { .. })
        ));
        assert!(matches!(
            h.place(a, Addr::new(0), Size::ZERO),
            Err(HeapError::InvalidSize { .. })
        ));
        h.place(a, Addr::new(0), Size::new(16)).unwrap();
    }

    #[test]
    fn peak_live_tracks_high_water() {
        let mut h = Heap::new(10);
        let a = h.fresh_id();
        let b = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(6)).unwrap();
        h.place(b, Addr::new(6), Size::new(6)).unwrap();
        h.free(a).unwrap();
        assert_eq!(h.peak_live(), Size::new(12));
        assert_eq!(h.live_words(), Size::new(6));
        assert!((h.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn object_table_recycles_slots() {
        let mut h = Heap::new(10);
        let ids: Vec<_> = (0..8).map(|_| h.fresh_id()).collect();
        for (i, &id) in ids.iter().enumerate() {
            h.place(id, Addr::new(i as u64 * 4), Size::new(2)).unwrap();
        }
        for &id in &ids[..4] {
            h.free(id).unwrap();
        }
        let more: Vec<_> = (0..4).map(|_| h.fresh_id()).collect();
        for (i, &id) in more.iter().enumerate() {
            h.place(id, Addr::new(i as u64 * 4), Size::new(1)).unwrap();
        }
        assert_eq!(h.live_count(), 8);
        for &id in ids[4..].iter().chain(&more) {
            assert!(h.is_live(id));
        }
        for &id in &ids[..4] {
            assert!(!h.is_live(id));
        }
        let mut seen: Vec<_> = h.live_objects().map(|r| r.id()).collect();
        seen.sort();
        let mut want: Vec<_> = ids[4..].iter().chain(&more).copied().collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn live_objects_come_in_address_order() {
        let mut h = Heap::new(10);
        for start in [50, 0, 4200, 9, 4096] {
            let id = h.fresh_id();
            h.place(id, Addr::new(start), Size::new(3)).unwrap();
        }
        let order: Vec<_> = h
            .live_objects()
            .map(|r| (r.addr().get(), r.id().get()))
            .collect();
        assert_eq!(order, vec![(0, 1), (9, 3), (50, 0), (4096, 4), (4200, 2)]);
    }

    #[test]
    fn untrusted_placements_fail_without_touching_the_heap() {
        let mut h = Heap::unlimited_compaction();
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        assert_eq!(
            h.place(a, Addr::new(8), Size::new(4)),
            Err(HeapError::AlreadyLive(a))
        );
        let huge = ObjectId::from_raw(1 << 32);
        assert_eq!(
            h.place(huge, Addr::new(8), Size::new(4)),
            Err(HeapError::IdOutOfRange(huge))
        );
        let b = h.fresh_id();
        for addr in [(1 << 32) - 3, u64::MAX] {
            assert_eq!(
                h.place(b, Addr::new(addr), Size::new(4)),
                Err(HeapError::AddressOutOfRange {
                    id: b,
                    addr: Addr::new(addr),
                    size: Size::new(4),
                })
            );
        }
        assert!(matches!(
            h.relocate(a, Addr::new((1 << 32) - 1)),
            Err(HeapError::AddressOutOfRange { .. })
        ));
        assert_eq!(h.live_count(), 1);
        assert_eq!(h.space().len(), 1);
        assert_eq!(h.stats().objects_placed, 1);
        h.free(a).unwrap();
        assert!(h.space().is_empty(), "the first placement was not leaked");
    }

    #[test]
    fn zero_distance_relocate_is_free() {
        let mut h = Heap::new(2);
        let a = h.fresh_id();
        h.place(a, Addr::new(0), Size::new(4)).unwrap();
        h.relocate(a, Addr::new(0)).unwrap();
        assert_eq!(h.budget().moved_total(), 0);
        assert_eq!(h.stats().objects_moved, 0);
    }
}
