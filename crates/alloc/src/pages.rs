//! A Theorem-2-style c-partial manager: size-class pages with
//! density-triggered evacuation.
//!
//! Theorem 2 of the paper improves on both Robson's non-moving bound and
//! the `(c+1)·M` arena bound by spending the small compaction budget where
//! it pays most: reclaiming *sparse* regions whose residual occupancy is
//! cheap to move. This manager realizes that idea operationally (the
//! paper's own construction lives only in the unpublished full version;
//! see DESIGN.md §4):
//!
//! * the heap is carved into *pages*; a page belongs to one power-of-two
//!   size class `2^k` and holds [`SLOTS_PER_PAGE`] objects of that class;
//! * allocation bump-fills partially-used pages of the class;
//! * when a class needs a page, the manager first tries to *evacuate*
//!   sparse pages (at most one live slot out of four — the factor-4
//!   geometry mirrors the paper's Section 4 chunk analysis) whose
//!   survivors fit in other pages of their class and whose move cost fits
//!   the remaining c-partial budget — freed pages return to a global pool
//!   usable by every class;
//! * only when no page can be reclaimed does the heap grow.
//!
//! The `1/c` constraint itself is enforced by the budget ledger at every
//! move; the density threshold only decides when evacuation is
//! *worthwhile* space-wise.
//!
//! Per-class bookkeeping keeps pages in a slab addressed through a dense
//! table keyed by page number (`base >> log2(page words)`), with the
//! `open`/`sparse` candidate sets as lazily-cleaned min-heaps (entries
//! are revalidated against the page's current live count on peek). The
//! seed `BTreeMap`/`BTreeSet` index survives only in the tests, as the
//! lockstep oracle. The page pool itself is a [`FreeSpace`].

use core::fmt;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcb_heap::{
    Addr, AllocRequest, HeapOps, MemoryManager, MoveOutcome, ObjectId, PlacementError, Size,
};

use crate::indexed::AddrTable;
use crate::FreeSpace;

/// Objects per page: each class-`k` page spans `4 * 2^k` words, mirroring
/// the factor-4 chunk geometry of the paper's Section 4 analysis.
pub const SLOTS_PER_PAGE: u64 = 4;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Page {
    /// Slot -> occupant.
    slots: Vec<Option<ObjectId>>,
}

impl Page {
    fn new(slots: usize) -> Self {
        Page {
            slots: vec![None; slots],
        }
    }

    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    fn first_free_slot(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_none())
    }
}

/// Page lookup plus the `open`/`sparse` candidate sets of one class.
#[derive(Debug, Clone)]
struct PageIndex {
    /// Page number (`base >> shift`; bases are page-aligned) -> index
    /// into `slab`, plus one.
    map: AddrTable,
    /// log2 of the class's page size in words.
    shift: u32,
    slab: Vec<Option<Page>>,
    free_ids: Vec<usize>,
    /// Lazy min-heaps of candidate bases; entries are validated against
    /// the page's live count on peek, and compacted when stale entries
    /// dominate.
    open: BinaryHeap<Reverse<u64>>,
    sparse: BinaryHeap<Reverse<u64>>,
}

/// One size class: its pages and candidate indexes plus the free-slot
/// tally.
#[derive(Debug, Clone)]
struct ClassState {
    index: PageIndex,
    /// Total free slots across all pages of the class.
    spare_slots: usize,
}

impl PageIndex {
    /// An empty index for pages of `1 << shift` words.
    fn new(shift: u32) -> Self {
        PageIndex {
            map: AddrTable::default(),
            shift,
            slab: Vec::new(),
            free_ids: Vec::new(),
            open: BinaryHeap::new(),
            sparse: BinaryHeap::new(),
        }
    }

    fn page(&self, base: u64) -> Option<&Page> {
        Self::lookup(&self.map, self.shift, &self.slab, base)
    }

    fn page_mut(&mut self, base: u64) -> Option<&mut Page> {
        let idx = self.map.get(base >> self.shift)?;
        self.slab[idx as usize - 1].as_mut()
    }

    /// [`page`](Self::page) over borrowed fields, so a candidate heap can
    /// be mutated alongside.
    fn lookup<'a>(
        map: &AddrTable,
        shift: u32,
        slab: &'a [Option<Page>],
        base: u64,
    ) -> Option<&'a Page> {
        let idx = map.get(base >> shift)?;
        slab[idx as usize - 1].as_ref()
    }

    /// Installs a fresh (empty) page at `base`.
    fn insert_page(&mut self, base: u64, page: Page, slots: usize, sparse_live: usize) {
        debug_assert_eq!(base & ((1 << self.shift) - 1), 0, "page-aligned base");
        let idx = match self.free_ids.pop() {
            Some(idx) => {
                self.slab[idx] = Some(page);
                idx
            }
            None => {
                self.slab.push(Some(page));
                self.slab.len() - 1
            }
        };
        let val = u32::try_from(idx + 1).expect("fewer than 2^32 pages per class");
        self.map.insert(base >> self.shift, val);
        // An empty page is both open and sparse.
        self.open.push(Reverse(base));
        self.sparse.push(Reverse(base));
        self.maybe_rebuild(false, |p| p.live() < slots);
        self.maybe_rebuild(true, |p| p.live() <= sparse_live);
    }

    /// Removes the page at `base`; its candidate entries go stale and are
    /// dropped lazily.
    fn remove_page(&mut self, base: u64) -> Option<Page> {
        let idx = self.map.remove(base >> self.shift)? as usize - 1;
        self.free_ids.push(idx);
        self.slab[idx].take()
    }

    /// Updates candidate memberships after a slot of `base` was cleared
    /// (live count went down by one: memberships can only begin, and only
    /// at the exact threshold crossing). A filled slot needs no update:
    /// memberships it ends are discarded lazily on peek.
    fn note_clear(&mut self, base: u64, live_now: usize, slots: usize, sparse_live: usize) {
        if live_now + 1 == slots {
            self.open.push(Reverse(base));
            self.maybe_rebuild(false, |p| p.live() < slots);
        }
        if live_now == sparse_live {
            self.sparse.push(Reverse(base));
            self.maybe_rebuild(true, |p| p.live() <= sparse_live);
        }
    }

    /// Lowest base with at least one free slot, if any.
    fn first_open(&mut self, slots: usize) -> Option<u64> {
        self.first_live(false, |p| p.live() < slots)
    }

    /// Lowest evacuation-candidate base, if any.
    fn first_sparse(&mut self, sparse_live: usize) -> Option<u64> {
        self.first_live(true, |p| p.live() <= sparse_live)
    }

    /// Lowest base in the `sparse` (else `open`) heap whose page still
    /// qualifies, popping stale entries on the way.
    fn first_live(&mut self, sparse: bool, member: impl Fn(&Page) -> bool) -> Option<u64> {
        let heap = if sparse {
            &mut self.sparse
        } else {
            &mut self.open
        };
        while let Some(&Reverse(base)) = heap.peek() {
            if Self::lookup(&self.map, self.shift, &self.slab, base).is_some_and(&member) {
                return Some(base);
            }
            heap.pop();
        }
        None
    }

    /// Compacts the `sparse` (else `open`) heap once stale/duplicate
    /// entries outnumber live pages 4:1: sort, dedup, and keep the bases
    /// whose page still qualifies. Every qualifying page already holds an
    /// entry, so membership is unchanged.
    fn maybe_rebuild(&mut self, sparse: bool, member: impl Fn(&Page) -> bool) {
        let heap = if sparse {
            &mut self.sparse
        } else {
            &mut self.open
        };
        if heap.len() <= 4 * self.map.len() + 8 {
            return;
        }
        let mut bases = std::mem::take(heap).into_vec();
        bases.sort_unstable();
        bases.dedup();
        bases.retain(|&Reverse(base)| {
            Self::lookup(&self.map, self.shift, &self.slab, base).is_some_and(&member)
        });
        *heap = BinaryHeap::from(bases);
    }

    #[cfg(test)]
    fn snapshot(&self) -> Vec<(u64, Page)> {
        self.map
            .iter()
            .map(|(key, idx)| {
                let page = self.slab[idx as usize - 1].clone().expect("mapped page");
                (key << self.shift, page)
            })
            .collect()
    }

    #[cfg(test)]
    fn open_contains(&self, base: u64, slots: usize) -> bool {
        self.page(base).is_some_and(|p| p.live() < slots)
            && self.open.iter().any(|&Reverse(b)| b == base)
    }

    #[cfg(test)]
    fn sparse_contains(&self, base: u64, sparse_live: usize) -> bool {
        self.page(base).is_some_and(|p| p.live() <= sparse_live)
            && self.sparse.iter().any(|&Reverse(b)| b == base)
    }

    /// The slab and the map stay coherent.
    #[cfg(test)]
    fn check_structure(&self) {
        let live_slots = self.slab.iter().filter(|s| s.is_some()).count();
        assert_eq!(self.map.len(), live_slots, "map and slab agree");
        assert_eq!(self.slab.len(), live_slots + self.free_ids.len());
        for (_, idx) in self.map.iter() {
            assert!(self.slab[idx as usize - 1].is_some(), "mapped slot is live");
        }
    }
}

/// Invalid [`PageManager`] construction parameters (the typed form of
/// the constructor panics, for harness paths that must exit cleanly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageGeometryError {
    /// The compaction bound was below 2.
    BoundTooSmall {
        /// The offending bound.
        c: u64,
    },
    /// The maximum size-class order was 46 or more.
    OrderTooLarge {
        /// The offending order.
        max_order: u32,
    },
    /// The slots-per-page count was not a power of two at least 4.
    BadSlots {
        /// The offending slot count.
        slots: usize,
    },
}

impl fmt::Display for PageGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageGeometryError::BoundTooSmall { c } => {
                write!(f, "compaction bound must be at least 2 (got {c})")
            }
            PageGeometryError::OrderTooLarge { max_order } => {
                write!(f, "max_order {max_order} is unreasonably large")
            }
            PageGeometryError::BadSlots { slots } => {
                write!(
                    f,
                    "slots per page must be a power of two >= 4 (got {slots})"
                )
            }
        }
    }
}

impl std::error::Error for PageGeometryError {}

/// Size-class page manager with density-triggered evacuation.
///
/// ```
/// use pcb_alloc::PageManager;
/// let m = PageManager::new(100, 20);
/// assert!((m.eviction_density() - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct PageManager {
    classes: Vec<ClassState>,
    pool: FreeSpace,
    max_order: u32,
    /// Objects per page (the factor-`slots` geometry; 4 by default).
    slots: usize,
    /// Pages with at most this many live slots are evacuation candidates
    /// (`slots / 4`, i.e. density ≤ 1/4).
    sparse_live: usize,
    evictions: u64,
}

impl PageManager {
    /// Creates a manager for compaction bound `c` serving classes
    /// `2^0 ..= 2^max_order`.
    ///
    /// `c` does not parameterize the manager's structure — the c-partial
    /// constraint is enforced move-by-move through the heap's budget
    /// ledger — but it is kept in the signature so every manager in the
    /// registry builds uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2` or `max_order >= 46`; [`try_new`](Self::try_new)
    /// reports the same conditions as a typed error instead.
    pub fn new(c: u64, max_order: u32) -> Self {
        Self::with_geometry(c, max_order, SLOTS_PER_PAGE as usize)
    }

    /// Like [`new`](Self::new), but reports invalid parameters as a
    /// [`PageGeometryError`] instead of panicking — the harness-facing
    /// constructor, where a user's parameter mistake must become a clean
    /// exit message rather than a backtrace.
    ///
    /// # Errors
    ///
    /// Returns [`PageGeometryError`] if `c < 2` or `max_order >= 46`.
    pub fn try_new(c: u64, max_order: u32) -> Result<Self, PageGeometryError> {
        Self::try_with_geometry(c, max_order, SLOTS_PER_PAGE as usize)
    }

    /// Creates a manager with `slots` objects per page instead of the
    /// default [`SLOTS_PER_PAGE`] — the geometry ablation of the paper's
    /// factor-4 chunk structure. `slots` must be a power of two ≥ 4.
    ///
    /// # Panics
    ///
    /// Panics if `c < 2`, `max_order >= 46`, or `slots` is not a power of
    /// two at least 4.
    pub fn with_geometry(c: u64, max_order: u32, slots: usize) -> Self {
        match Self::try_with_geometry(c, max_order, slots) {
            Ok(manager) => manager,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`with_geometry`](Self::with_geometry), but reports invalid
    /// parameters as a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`PageGeometryError`] describing the first violated
    /// constraint.
    pub fn try_with_geometry(
        c: u64,
        max_order: u32,
        slots: usize,
    ) -> Result<Self, PageGeometryError> {
        if c < 2 {
            return Err(PageGeometryError::BoundTooSmall { c });
        }
        if max_order >= 46 {
            return Err(PageGeometryError::OrderTooLarge { max_order });
        }
        if slots < 4 || !slots.is_power_of_two() {
            return Err(PageGeometryError::BadSlots { slots });
        }
        Ok(PageManager {
            classes: (0..=max_order)
                .map(|k| ClassState {
                    index: PageIndex::new(k + slots.trailing_zeros()),
                    spare_slots: 0,
                })
                .collect(),
            pool: FreeSpace::new(),
            max_order,
            slots,
            sparse_live: slots / 4,
            evictions: 0,
        })
    }

    /// The live-slot fraction at or below which pages are evacuated
    /// (`slots/4` out of `slots`, i.e. 1/4).
    pub fn eviction_density(&self) -> f64 {
        self.sparse_live as f64 / self.slots as f64
    }

    /// How many pages have been evacuated so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }

    fn page_words(&self, k: u32) -> u64 {
        (self.slots as u64) << k
    }

    fn slot_addr(base: u64, k: u32, slot: usize) -> Addr {
        Addr::new(base + (slot as u64) * (1u64 << k))
    }

    /// Places into an open page of class `k`, if any.
    fn place_in_open(&mut self, k: u32, id: ObjectId) -> Option<Addr> {
        let slots = self.slots;
        let class = &mut self.classes[k as usize];
        let base = class.index.first_open(slots)?;
        let page = class.index.page_mut(base).expect("open page exists");
        let slot = page.first_free_slot().expect("page in open set has a slot");
        page.slots[slot] = Some(id);
        class.spare_slots -= 1;
        Some(Self::slot_addr(base, k, slot))
    }

    /// Tries to evacuate one sparse page, returning whether a page was
    /// freed into the pool.
    ///
    /// Every sparse page holds at most `sparse_live` live slot(s) (empty
    /// pages are released eagerly), so a class is viable iff it has a
    /// sparse page, enough free slots elsewhere (the survivors fit), and
    /// the budget covers the move — an O(classes) scan. Larger classes are
    /// tried first: they return the most space per eviction.
    fn evict_one(&mut self, ops: &mut HeapOps<'_, '_>) -> Result<bool, PlacementError> {
        let slots = self.slots;
        let sparse_live = self.sparse_live;
        let mut pick: Option<(u32, u64)> = None;
        for k in (0..self.classes.len()).rev() {
            let class = &mut self.classes[k];
            let Some(base) = class.index.first_sparse(sparse_live) else {
                continue;
            };
            let live = class.index.page(base).expect("sparse page exists").live();
            let spare_elsewhere = class.spare_slots - (slots - live);
            if spare_elsewhere < live {
                continue;
            }
            if !ops.can_move(Size::new(live as u64 * (1u64 << k))) {
                continue;
            }
            pick = Some((k as u32, base));
            break;
        }
        let Some((k, base)) = pick else {
            return Ok(false);
        };
        self.evacuate(k, base, ops)?;
        Ok(true)
    }

    /// Whether the pool surely has room for a `k`-class page (a gap of
    /// `2·page − 1` words always contains an aligned page; the frontier
    /// always works but growing there is what eviction tries to avoid).
    fn pool_has_room(&self, k: u32) -> bool {
        self.pool.largest_gap().get() >= 2 * self.page_words(k) - 1
    }

    /// Moves every survivor of page `(k, base)` into other pages of the
    /// class, then returns the page to the pool.
    fn evacuate(
        &mut self,
        k: u32,
        base: u64,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<(), PlacementError> {
        let class = &mut self.classes[k as usize];
        let page = class.index.remove_page(base).expect("victim page exists");
        class.spare_slots -= self.slots - page.live();
        for occupant in page.slots.iter() {
            let Some(id) = *occupant else { continue };
            if !ops.heap().is_live(id) {
                continue;
            }
            let dest = match self.place_in_open(k, id) {
                Some(dest) => dest,
                None => {
                    // Spare capacity was checked before evacuating, but
                    // races with program frees are possible; grow via pool.
                    let fresh = self.acquire_page(k);
                    self.install_page(k, fresh);
                    self.place_in_open(k, id)
                        .expect("fresh page has free slots")
                }
            };
            match ops.relocate(id, dest).map_err(PlacementError::from)? {
                MoveOutcome::Moved => {}
                MoveOutcome::Discarded => {
                    // The program freed the object at its destination (the
                    // P_F ghost discipline); note_free has not run, so
                    // clear the slot ourselves.
                    self.clear_slot(dest, Size::new(1 << k));
                }
            }
        }
        self.pool
            .release(Addr::new(base), Size::new(self.page_words(k)));
        self.evictions += 1;
        Ok(())
    }

    /// Acquires a page-aligned page for class `k` from the pool.
    fn acquire_page(&mut self, k: u32) -> u64 {
        let words = self.page_words(k);
        self.pool.take_aligned(Size::new(words), words).get()
    }

    fn install_page(&mut self, k: u32, base: u64) {
        let slots = self.slots;
        let sparse_live = self.sparse_live;
        let class = &mut self.classes[k as usize];
        class
            .index
            .insert_page(base, Page::new(slots), slots, sparse_live);
        class.spare_slots += slots;
    }

    fn clear_slot(&mut self, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        let words = self.page_words(k);
        let slots = self.slots;
        let sparse_live = self.sparse_live;
        let base = addr.align_down(words).get();
        let class = &mut self.classes[k as usize];
        let Some(page) = class.index.page_mut(base) else {
            // The slot's page was already evacuated/released.
            return;
        };
        let slot = ((addr.get() - base) >> k) as usize;
        page.slots[slot] = None;
        let live = page.live();
        class.spare_slots += 1;
        if live == 0 {
            class.index.remove_page(base);
            class.spare_slots -= slots;
            self.pool.release(Addr::new(base), Size::new(words));
        } else {
            class.index.note_clear(base, live, slots, sparse_live);
        }
    }

    /// Debug helper for tests: verifies `spare_slots` and the `open`/
    /// `sparse` indexes against the page contents.
    #[cfg(test)]
    fn check_consistency(&self) {
        for (k, class) in self.classes.iter().enumerate() {
            class.index.check_structure();
            let snapshot = class.index.snapshot();
            let free: usize = snapshot.iter().map(|(_, p)| self.slots - p.live()).sum();
            assert_eq!(class.spare_slots, free, "class {k}");
            for (base, page) in &snapshot {
                assert_eq!(
                    class.index.open_contains(*base, self.slots),
                    page.live() < self.slots,
                    "class {k} base {base} open"
                );
                assert_eq!(
                    class.index.sparse_contains(*base, self.sparse_live),
                    page.live() <= self.sparse_live,
                    "class {k} base {base} sparse"
                );
            }
        }
    }
}

impl MemoryManager for PageManager {
    fn name(&self) -> &str {
        "pages-thm2"
    }

    /// Free slots trapped inside open pages: a class-`k` slot holds
    /// `2^k` words that no other size class can use — the page
    /// geometry's internal fragmentation.
    fn internal_waste(&self) -> u64 {
        self.classes
            .iter()
            .enumerate()
            .map(|(k, class)| (class.spare_slots as u64) << k)
            .sum()
    }

    fn publish_metrics(&self) {
        self.pool.publish_metrics();
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::class_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds the largest class 2^{}",
                req.size, self.max_order
            )));
        }
        ops.stat_add("pages.placements", 1);
        ops.stat_record("alloc.size", req.size.get());
        if let Some(addr) = self.place_in_open(k, req.id) {
            ops.stat_add("pages.open_serves", 1);
            return Ok(addr);
        }
        // No open page: evacuate sparse pages until the pool can host the
        // needed page (or nothing more can be evacuated), then grow from
        // the (possibly replenished) pool.
        let before = self.evictions;
        loop {
            let slots = self.slots;
            if self.classes[k as usize].index.first_open(slots).is_some() || self.pool_has_room(k) {
                break;
            }
            if !self.evict_one(ops)? {
                break;
            }
        }
        ops.stat_add("pages.evictions", self.evictions - before);
        if let Some(addr) = self.place_in_open(k, req.id) {
            ops.stat_add("pages.open_serves", 1);
            return Ok(addr);
        }
        let base = self.acquire_page(k);
        self.install_page(k, base);
        ops.stat_add("pages.new_pages", 1);
        Ok(self
            .place_in_open(k, req.id)
            .expect("fresh page has free slots"))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        self.clear_slot(addr, size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn pages_fill_before_growing() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [8, 8, 8, 8, 8]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run().unwrap();
        // First four share one 32-word page; the fifth starts a second
        // page at 32 (HS counts used words, so the span ends at 32+8).
        assert_eq!(report.heap_size, 40);
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn slot_geometry_is_aligned() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [8, 8, 4, 4, 1]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        exec.run().unwrap();
        for rec in exec.heap().live_objects() {
            let class = rec.size().next_power_of_two().get();
            assert!(rec.addr().is_aligned_to(class));
        }
    }

    #[test]
    fn empty_pages_return_to_the_pool_for_other_classes() {
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8, 8]) // one 32-word page, full
            .round([0, 1, 2, 3], [2, 2]); // page empties; class 1 reuses it
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run().unwrap();
        assert_eq!(
            report.heap_size, 32,
            "the emptied class-3 page houses the class-1 page"
        );
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn sparse_pages_are_evacuated_when_budget_allows() {
        // Two class-4 objects first (so no alignment hole is left in the
        // pool), then two full class-0 pages; free six of the eight ones
        // to leave two sparse pages, then demand class-2 pages. With the
        // pool empty, eviction must fire.
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [16, 16, 1, 1, 1, 1, 1, 1, 1, 1])
            .round([3, 4, 5, 6, 7, 8], [4, 4, 4, 4, 4]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 10));
        let report = exec.run().unwrap();
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
        assert!(manager.evictions() >= 1, "eviction should have triggered");
        assert!(report.objects_moved >= 1);
        assert!(report.moved_fraction <= 0.1 + 1e-12);
    }

    #[test]
    fn respects_budget_under_churn() {
        let mut program = ScriptedProgram::new(Size::new(64));
        let mut base = 0usize;
        for _ in 0..30 {
            program = program
                .round([], vec![1u64; 32])
                .round((base..base + 32).filter(|i| i % 4 != 0), vec![4u64; 4]);
            let frees: Vec<usize> = (base..base + 32)
                .filter(|i| i % 4 == 0)
                .chain(base + 32..base + 36)
                .collect();
            program = program.round(frees, []);
            base += 36;
        }
        let mut exec = Execution::new(Heap::new(20), program, PageManager::new(20, 8));
        let report = exec.run().expect("budget never violated");
        assert!(report.moved_fraction <= 0.05 + 1e-12);
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
    }

    #[test]
    fn oversized_is_rejected() {
        let program = ScriptedProgram::new(Size::new(1 << 13)).round([], [1 << 12]);
        let mut exec = Execution::new(Heap::new(10), program, PageManager::new(10, 8));
        assert!(exec.run().is_err());
    }

    #[test]
    fn alternative_geometries_work_and_differ() {
        let script = || {
            ScriptedProgram::new(Size::new(1024))
                .round([], vec![1u64; 64])
                .round((0..64).filter(|i| i % 4 != 0), vec![8u64; 8])
        };
        let mut sizes = Vec::new();
        for slots in [4usize, 8, 16] {
            let mut exec = Execution::new(
                Heap::new(5),
                script(),
                PageManager::with_geometry(5, 10, slots),
            );
            let report = exec.run().unwrap_or_else(|e| panic!("slots={slots}: {e}"));
            let (_, _, manager) = exec.into_parts();
            manager.check_consistency();
            assert!((manager.eviction_density() - 0.25).abs() < 1e-12);
            sizes.push(report.heap_size);
        }
        sizes.dedup();
        assert!(sizes.len() > 1, "geometry should matter: {sizes:?}");
    }

    #[test]
    #[should_panic(expected = "power of two >= 4")]
    fn bad_geometry_is_rejected() {
        let _ = PageManager::with_geometry(10, 8, 3);
    }

    #[test]
    fn eviction_compacts_fragmented_classes() {
        // Eight pages of class 0, each reduced to one survivor, then
        // demand from class 3: evictions consolidate the survivors and
        // recycle the freed pages.
        let mut program = ScriptedProgram::new(Size::new(1024)).round([], vec![1u64; 32]);
        // Free 3 of every 4 (leaving one survivor per page).
        program = program.round((0..32).filter(|i| i % 4 != 0), vec![8u64; 4]);
        let mut exec = Execution::new(Heap::new(5), program, PageManager::new(5, 10));
        let report = exec.run().unwrap();
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
        assert!(manager.evictions() >= 1);
        assert!(report.moved_fraction <= 0.2 + 1e-12);
    }

    #[test]
    fn heavy_churn_keeps_the_index_consistent() {
        // Heavy churn across classes, with eviction pressure.
        let mut program = ScriptedProgram::new(Size::new(1 << 16));
        let mut base = 0usize;
        for r in 0..20u64 {
            let sizes: Vec<u64> = (1..=8u64).map(|s| (s * 3 * (r + 1)) % 16 + 1).collect();
            let frees: Vec<usize> = if base >= 8 {
                (base - 8..base).filter(|i| i % 4 != 3).collect()
            } else {
                Vec::new()
            };
            program = program.round(frees, sizes);
            base += 8;
        }
        let mut exec = Execution::new(Heap::new(5), program, PageManager::new(5, 8));
        exec.run().expect("pages survive churn");
        let (_, _, manager) = exec.into_parts();
        manager.check_consistency();
        assert!(manager.evictions() >= 1, "the churn evicts");
    }
}

/// The seed page index, kept as the oracle [`PageIndex`] is checked
/// against in lockstep.
#[cfg(test)]
mod lockstep {
    use std::collections::{BTreeMap, BTreeSet};

    use proptest::prelude::*;

    use super::{Page, PageIndex};

    /// Eagerly maintained `BTreeMap` pages and `BTreeSet` candidate sets.
    #[derive(Debug, Default)]
    struct ReferencePageIndex {
        /// base -> page.
        pages: BTreeMap<u64, Page>,
        /// Bases of pages with at least one free slot.
        open: BTreeSet<u64>,
        /// Bases of evacuation candidates (live ≤ `sparse_live`).
        sparse: BTreeSet<u64>,
    }

    impl ReferencePageIndex {
        fn insert_page(&mut self, base: u64, page: Page) {
            self.pages.insert(base, page);
            self.open.insert(base);
            self.sparse.insert(base);
        }

        fn remove_page(&mut self, base: u64) -> Option<Page> {
            self.open.remove(&base);
            self.sparse.remove(&base);
            self.pages.remove(&base)
        }

        /// The seed membership recomputation, run after every slot change.
        fn reindex(&mut self, base: u64, slots: usize, sparse_live: usize) {
            let Some(page) = self.pages.get(&base) else {
                self.open.remove(&base);
                self.sparse.remove(&base);
                return;
            };
            let live = page.live();
            if live < slots {
                self.open.insert(base);
            } else {
                self.open.remove(&base);
            }
            if live <= sparse_live {
                self.sparse.insert(base);
            } else {
                self.sparse.remove(&base);
            }
        }
    }

    const SLOTS: usize = 4;
    const SPARSE_LIVE: usize = SLOTS / 4;

    #[derive(Debug, Clone)]
    enum Op {
        /// Install an empty page at a fresh or recycled base.
        Insert { base: u64 },
        /// Remove the `pick`-th installed page.
        Remove { pick: usize },
        /// Fill the first free slot of the lowest open page.
        FillOpen,
        /// Fill the first free slot of the `pick`-th page, if any.
        Fill { pick: usize },
        /// Clear slot `slot` of the `pick`-th page, removing the page when
        /// it empties (the manager's protocol).
        Clear { pick: usize, slot: usize },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..48).prop_map(|b| Op::Insert { base: b * 16 }),
            (0usize..64).prop_map(|pick| Op::Remove { pick }),
            Just(Op::FillOpen),
            Just(Op::FillOpen),
            (0usize..64).prop_map(|pick| Op::Fill { pick }),
            (0usize..64, 0usize..SLOTS).prop_map(|(pick, slot)| Op::Clear { pick, slot }),
            (0usize..64, 0usize..SLOTS).prop_map(|(pick, slot)| Op::Clear { pick, slot }),
        ]
    }

    fn fill(ind: &mut PageIndex, refr: &mut ReferencePageIndex, base: u64, id: u64) {
        let id = pcb_heap::ObjectId::from_raw(id);
        let page = ind.page_mut(base).expect("installed page");
        if let Some(slot) = page.first_free_slot() {
            page.slots[slot] = Some(id);
            refr.pages.get_mut(&base).expect("installed page").slots[slot] = Some(id);
            refr.reindex(base, SLOTS, SPARSE_LIVE);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every candidate lookup and the full page table agree after every
        // operation.
        #[test]
        fn page_index_matches_the_seed_index(
            ops in proptest::collection::vec(op_strategy(), 1..200),
        ) {
            let mut ind = PageIndex::new(4); // 16-word pages, as the bases
            let mut refr = ReferencePageIndex::default();
            let mut next_id = 0u64;
            for op in ops {
                let bases: Vec<u64> = refr.pages.keys().copied().collect();
                let pick = |p: usize| (!bases.is_empty()).then(|| bases[p % bases.len()]);
                match op {
                    Op::Insert { base } => {
                        if !refr.pages.contains_key(&base) {
                            ind.insert_page(base, Page::new(SLOTS), SLOTS, SPARSE_LIVE);
                            refr.insert_page(base, Page::new(SLOTS));
                        }
                    }
                    Op::Remove { pick: p } => {
                        if let Some(base) = pick(p) {
                            prop_assert_eq!(ind.remove_page(base), refr.remove_page(base));
                        }
                    }
                    Op::FillOpen => {
                        let got = ind.first_open(SLOTS);
                        prop_assert_eq!(got, refr.open.first().copied());
                        if let Some(base) = got {
                            fill(&mut ind, &mut refr, base, next_id);
                            next_id += 1;
                        }
                    }
                    Op::Fill { pick: p } => {
                        if let Some(base) = pick(p) {
                            fill(&mut ind, &mut refr, base, next_id);
                            next_id += 1;
                        }
                    }
                    Op::Clear { pick: p, slot } => {
                        let Some(base) = pick(p) else { continue };
                        let page = ind.page_mut(base).expect("installed page");
                        if page.slots[slot].take().is_none() {
                            continue;
                        }
                        let live = page.live();
                        refr.pages.get_mut(&base).expect("installed page").slots[slot] = None;
                        if live == 0 {
                            prop_assert_eq!(ind.remove_page(base), refr.remove_page(base));
                        } else {
                            ind.note_clear(base, live, SLOTS, SPARSE_LIVE);
                            refr.reindex(base, SLOTS, SPARSE_LIVE);
                        }
                    }
                }
                prop_assert_eq!(ind.first_open(SLOTS), refr.open.first().copied());
                prop_assert_eq!(ind.first_sparse(SPARSE_LIVE), refr.sparse.first().copied());
                let want: Vec<(u64, Page)> =
                    refr.pages.iter().map(|(&b, p)| (b, p.clone())).collect();
                prop_assert_eq!(ind.snapshot(), want);
                for &base in refr.pages.keys() {
                    prop_assert_eq!(ind.open_contains(base, SLOTS), refr.open.contains(&base));
                    prop_assert_eq!(
                        ind.sparse_contains(base, SPARSE_LIVE),
                        refr.sparse.contains(&base)
                    );
                }
                ind.check_structure();
            }
        }
    }
}
