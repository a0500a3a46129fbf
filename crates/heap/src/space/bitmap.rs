//! Word-granularity occupancy bitmap behind [`SpaceMap`].
//!
//! Production compacting allocators answer occupancy queries with per-span
//! bitmaps and word-level bit scans rather than ordered maps; this module
//! brings that shape to the simulator's referee. Three parallel
//! structures carry the ground truth:
//!
//! * `occ` — one bit per heap word, set iff the word is occupied;
//! * `starts` — one bit per heap word, set iff an interval *starts* there
//!   (exactly one start bit per stored interval);
//! * `sum` — a fixed-stride summary: bit `w` of `sum[w / 64]` is set iff
//!   `occ[w] != 0`, so one summary word rules over 64 occupancy words
//!   (4096 heap words) and long-range scans skip empty blocks wholesale.
//!
//! Object metadata lives in one paged directory indexed by address and
//! written only at interval start addresses: each entry packs the
//! interval's owner and size as `owner << 32 | (size - 1)`, so releasing or
//! resolving an interval reads a single `u64`. Directory entries are never
//! cleared on release: an entry is meaningful only while the matching
//! `starts` bit is set, so stale entries are unreachable by construction.
//!
//! Correctness leans on three small invariants, each local to one word
//! update in `occupy`/`release`:
//!
//! 1. the first set `occ` bit inside a window belongs to the overlapping
//!    interval with the minimal start (intervals are disjoint);
//! 2. the nearest set `starts` bit at or below an occupied address is the
//!    start of the interval containing it (the backward scan is bounded by
//!    the largest object ever stored);
//! 3. the first set `occ` bit at or after a stored interval's end is itself
//!    an interval start — which makes in-order interval iteration a pure
//!    forward scan.

use std::cell::Cell;

use crate::addr::{Addr, Extent, Size};
use crate::error::SpaceError;
use crate::object::ObjectId;

/// Heap words per directory page.
const DIR_PAGE: usize = 1 << 12;

/// Hard cap on mapped addresses (in words). The bitmap backs the whole
/// address range below the frontier with real memory, so a manager placing
/// at astronomically sparse addresses would otherwise OOM the simulator.
pub(crate) const MAX_ADDR: u64 = 1 << 32;

/// Owner ids share a directory entry with the size, so they must stay
/// below 2^32.
pub(crate) const MAX_OWNER: u64 = 1 << 32;

/// Occupancy map: a bitmap with a 64-word-stride summary and an
/// address-indexed owner/size directory.
///
/// Invariant: stored intervals are non-empty and pairwise disjoint.
///
/// ```
/// use pcb_heap::{Addr, Extent, ObjectId, Size, SpaceMap};
/// let mut map = SpaceMap::new();
/// let id = ObjectId::from_raw(0);
/// map.occupy(id, Extent::from_raw(0, 4))?;
/// assert!(map.is_free(Extent::from_raw(4, 4)));
/// assert!(!map.is_free(Extent::from_raw(3, 2)));
/// assert_eq!(map.object_at(Addr::new(2)), Some(id));
/// # Ok::<(), pcb_heap::SpaceError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct SpaceMap {
    /// Occupancy bits: bit `a % 64` of `occ[a / 64]`.
    occ: Vec<u64>,
    /// Interval-start bits, same geometry as `occ`.
    starts: Vec<u64>,
    /// Summary level: bit `w % 64` of `sum[w / 64]` set iff `occ[w] != 0`.
    /// Invariant: `sum.len() * 64 == occ.len()`.
    sum: Vec<u64>,
    /// start -> `owner << 32 | (size - 1)`; valid only where the `starts`
    /// bit is set.
    dir: Vec<Option<Box<[u64; DIR_PAGE]>>>,
    /// Stored interval count.
    live: usize,
    /// Peak stored interval count.
    peak_live: usize,
    /// Total occupied words.
    occupied: u64,
    /// One past the highest occupied word (0 when empty); cached.
    frontier: u64,
    /// Telemetry: occupancy words examined by scans (queries take `&self`,
    /// hence the `Cell`s).
    words_scanned: Cell<u64>,
    /// Telemetry: 64-word blocks skipped via the summary level.
    summary_skips: Cell<u64>,
    /// Telemetry: occupations made while fewer intervals were live than
    /// at the peak.
    slots_reused: u64,
}

/// Telemetry counters of a [`SpaceMap`]'s scans and interval count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubstrateCounters {
    /// Occupancy words examined by bit scans (overlap checks, gap walks,
    /// windowed popcounts).
    pub words_scanned: u64,
    /// 64-word blocks skipped wholesale thanks to the summary level.
    pub summary_skips: u64,
    /// Peak number of simultaneously stored intervals.
    pub slot_high_water: u64,
    /// Occupations made while fewer intervals were stored than at the
    /// peak (a slot table's free list would have served them).
    pub slots_reused: u64,
}

impl SpaceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored intervals.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no interval is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total number of occupied words.
    #[inline]
    pub fn occupied_words(&self) -> Size {
        Size::new(self.occupied)
    }

    /// One past the highest occupied word (0 when empty). O(1): cached
    /// across [`occupy`](Self::occupy)/[`release`](Self::release).
    #[inline]
    pub fn frontier(&self) -> Addr {
        Addr::new(self.frontier)
    }

    /// The lowest occupied word, if any interval is stored.
    pub fn lowest(&self) -> Option<Addr> {
        self.first_set(0, self.frontier).map(Addr::new)
    }

    /// Telemetry counters (words scanned, summary skips, interval
    /// high-water mark and reuse).
    pub fn counters(&self) -> Option<SubstrateCounters> {
        Some(SubstrateCounters {
            words_scanned: self.words_scanned.get(),
            summary_skips: self.summary_skips.get(),
            slot_high_water: self.peak_live as u64,
            slots_reused: self.slots_reused,
        })
    }

    #[inline]
    fn note_scan(&self, words: u64, skips: u64) {
        self.words_scanned.set(self.words_scanned.get() + words);
        self.summary_skips.set(self.summary_skips.get() + skips);
    }

    /// Grows the bitmaps (and summary) to cover addresses below `end`.
    fn ensure_capacity(&mut self, end: u64) {
        assert!(
            end <= MAX_ADDR,
            "the occupancy map caps the address space at 2^32 words \
             (placement ends at {end})"
        );
        let words = (end as usize).div_ceil(64);
        if words > self.occ.len() {
            // Power-of-two growth keeps `sum.len() * 64 == occ.len()` exact.
            let new_words = words.next_power_of_two().max(64);
            self.occ.resize(new_words, 0);
            self.starts.resize(new_words, 0);
            self.sum.resize(new_words / 64, 0);
        }
    }

    /// First set occupancy bit in `[lo, hi)`, if any. `hi` is clamped to
    /// the frontier (no bits exist above it).
    fn first_set(&self, lo: u64, hi: u64) -> Option<u64> {
        let hi = hi.min(self.frontier);
        if lo >= hi {
            return None;
        }
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = first_w;
        let found = loop {
            if w > last_w {
                break None;
            }
            // Summary probe: jump to the next word with any bits set.
            let sbits = self.sum[w / 64] & (!0u64 << (w % 64));
            if sbits == 0 {
                skips += 1;
                w = (w / 64 + 1) * 64;
                continue;
            }
            let nz = (w / 64) * 64 + sbits.trailing_zeros() as usize;
            if nz > w {
                skips += 1;
                w = nz;
                if w > last_w {
                    break None;
                }
            }
            let mut word = self.occ[w];
            scanned += 1;
            if w == first_w {
                word &= !0u64 << (lo % 64);
            }
            if w == last_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word != 0 {
                break Some((w as u64) * 64 + word.trailing_zeros() as u64);
            }
            w += 1;
        };
        self.note_scan(scanned, skips);
        found
    }

    /// Highest set occupancy bit strictly below `hi`, if any.
    fn last_set_below(&self, hi: u64) -> Option<u64> {
        if hi == 0 {
            return None;
        }
        let top_w = ((hi - 1) / 64) as usize;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = top_w;
        let found = loop {
            // Downward summary probe: jump to the previous non-zero word.
            let sbits = self.sum[w / 64] & (!0u64 >> (63 - (w % 64) as u32));
            if sbits == 0 {
                let block = w / 64;
                if block == 0 {
                    break None;
                }
                skips += 1;
                w = block * 64 - 1;
                continue;
            }
            let nz = (w / 64) * 64 + (63 - sbits.leading_zeros() as usize);
            if nz < w {
                skips += 1;
            }
            w = nz;
            let mut word = self.occ[w];
            scanned += 1;
            if w == top_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            if word != 0 {
                break Some((w as u64) * 64 + 63 - word.leading_zeros() as u64);
            }
            if w == 0 {
                break None;
            }
            w -= 1;
        };
        self.note_scan(scanned, skips);
        found
    }

    /// First *clear* bit at or after `from`, strictly below the frontier.
    fn first_clear_from(&self, from: u64) -> Option<u64> {
        if from >= self.frontier {
            return None;
        }
        let last_w = ((self.frontier - 1) / 64) as usize;
        let mut w = (from / 64) as usize;
        let mut scanned = 0u64;
        let mut free = !self.occ[w] & (!0u64 << (from % 64));
        let found = loop {
            scanned += 1;
            if free != 0 {
                let bit = (w as u64) * 64 + free.trailing_zeros() as u64;
                break (bit < self.frontier).then_some(bit);
            }
            if w == last_w {
                break None;
            }
            w += 1;
            free = !self.occ[w];
        };
        self.note_scan(scanned, 0);
        found
    }

    /// The interval containing the occupied address `bit`: backward scan of
    /// the `starts` bitmap (invariant 2), then a directory lookup.
    fn resolve(&self, bit: u64) -> (Extent, ObjectId) {
        let mut w = (bit / 64) as usize;
        let mut word = self.starts[w] & (!0u64 >> (63 - (bit % 64) as u32));
        let mut scanned = 1u64;
        let start = loop {
            if word != 0 {
                break (w as u64) * 64 + 63 - word.leading_zeros() as u64;
            }
            debug_assert!(w > 0, "occupied address {bit} has no interval start");
            w -= 1;
            word = self.starts[w];
            scanned += 1;
        };
        self.note_scan(scanned, 0);
        let (size, owner) = self.entry_at(start);
        (Extent::from_raw(start, size), owner)
    }

    /// Directory lookup of `(size, owner)`; `start` must carry a set
    /// `starts` bit.
    #[inline]
    fn entry_at(&self, start: u64) -> (u64, ObjectId) {
        let page = self.dir[start as usize / DIR_PAGE]
            .as_deref()
            .expect("interval start has a directory page");
        let entry = page[start as usize % DIR_PAGE];
        ((entry & 0xffff_ffff) + 1, ObjectId::from_raw(entry >> 32))
    }

    /// Whether an interval starts exactly at `a`.
    #[inline]
    fn starts_at(&self, a: u64) -> bool {
        self.starts
            .get((a / 64) as usize)
            .is_some_and(|w| w & (1u64 << (a % 64)) != 0)
    }

    /// The size of the interval starting exactly at `start`, if one does.
    #[inline]
    pub fn size_at(&self, start: Addr) -> Option<Size> {
        let a = start.get();
        self.starts_at(a).then(|| Size::new(self.entry_at(a).0))
    }

    /// Clears `occ` bits over `[lo, hi)`, maintaining the summary invariant.
    fn clear_range(&mut self, lo: u64, hi: u64) {
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let head = !0u64 << (lo % 64);
        let top = hi - (last_w as u64) * 64;
        let tail = if top == 64 { !0 } else { (1u64 << top) - 1 };
        if first_w == last_w {
            self.occ[first_w] &= !(head & tail);
        } else {
            self.occ[first_w] &= !head;
            for w in first_w + 1..last_w {
                self.occ[w] = 0;
            }
            self.occ[last_w] &= !tail;
        }
        for w in first_w..=last_w {
            if self.occ[w] == 0 {
                self.sum[w / 64] &= !(1u64 << (w % 64));
            }
        }
    }

    /// Whether every word of `extent` is free.
    pub fn is_free(&self, extent: Extent) -> bool {
        if extent.size().is_zero() {
            return true;
        }
        self.first_set(extent.start().get(), extent.end().get())
            .is_none()
    }

    /// `Extent::overlaps` treats an empty window
    /// `[x, x)` as overlapping the interval that strictly contains `x`
    /// (`start < x < end`) — a plain bit scan over zero addresses sees
    /// nothing. Mirror the quirk: `x` overlaps iff its occupancy bit is
    /// set and it is not itself an interval start.
    fn empty_window_container(&self, x: u64) -> Option<(Extent, ObjectId)> {
        if x >= self.frontier {
            return None;
        }
        let (w, mask) = ((x / 64) as usize, 1u64 << (x % 64));
        if self.occ[w] & mask == 0 || self.starts[w] & mask != 0 {
            return None;
        }
        Some(self.resolve(x))
    }

    /// The first stored interval overlapping `extent`, if any.
    pub fn first_overlap(&self, extent: Extent) -> Option<(Extent, ObjectId)> {
        if extent.size().is_zero() {
            return self.empty_window_container(extent.start().get());
        }
        self.first_set(extent.start().get(), extent.end().get())
            .map(|bit| self.resolve(bit))
    }

    /// All stored intervals overlapping `extent`, in address order.
    ///
    /// Lazy: the analysis calls this once per chunk-density probe, so no
    /// intermediate `Vec` is built.
    pub fn overlapping(&self, extent: Extent) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        Overlapping {
            space: self,
            pending: if extent.size().is_zero() {
                self.empty_window_container(extent.start().get())
            } else {
                None
            },
            pos: extent.start().get(),
            hi: extent.end().get(),
        }
    }

    /// Iterates over stored intervals in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Extent, ObjectId)> + '_ {
        Overlapping {
            space: self,
            pending: None,
            pos: 0,
            hi: self.frontier,
        }
    }

    /// Iterates over the free gaps strictly between occupied intervals (it
    /// does not report the unbounded free space above the frontier).
    pub fn gaps(&self) -> impl Iterator<Item = Extent> + '_ {
        Gaps {
            space: self,
            pos: self.first_set(0, self.frontier).unwrap_or(u64::MAX),
        }
    }

    /// Marks `extent` as occupied by `owner`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::Overlap`] if any word of `extent` is already
    /// occupied, and [`SpaceError::EmptyExtent`] for zero-sized extents.
    ///
    /// # Panics
    ///
    /// Panics if `extent` ends above 2^32 words or `owner` is 2^32 or more.
    pub fn occupy(&mut self, owner: ObjectId, extent: Extent) -> Result<(), SpaceError> {
        if extent.size().is_zero() {
            return Err(SpaceError::EmptyExtent { owner });
        }
        assert!(
            owner.get() < MAX_OWNER,
            "the occupancy map caps owner ids below 2^32 (owner {owner})"
        );
        let lo = extent.start().get();
        let hi = extent.end().get();
        self.ensure_capacity(hi);
        // Check-then-set in one masked pass over the covered words: the
        // range is at most `n` words, so a direct scan beats `first_set`'s
        // summary probing, and reusing the masks avoids a second
        // mask-computing traversal for the set phase.
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let head = !0u64 << (lo % 64);
        let top = hi - (last_w as u64) * 64;
        let tail = if top == 64 { !0 } else { (1u64 << top) - 1 };
        let conflict = if first_w == last_w {
            let bits = self.occ[first_w] & head & tail;
            (bits != 0).then_some((first_w, bits))
        } else {
            let head_bits = self.occ[first_w] & head;
            if head_bits != 0 {
                Some((first_w, head_bits))
            } else {
                (first_w + 1..last_w)
                    .find_map(|w| (self.occ[w] != 0).then(|| (w, self.occ[w])))
                    .or_else(|| {
                        let bits = self.occ[last_w] & tail;
                        (bits != 0).then_some((last_w, bits))
                    })
            }
        };
        self.note_scan((last_w - first_w + 1) as u64, 0);
        if let Some((w, bits)) = conflict {
            let bit = (w as u64) * 64 + bits.trailing_zeros() as u64;
            let (existing, holder) = self.resolve(bit);
            return Err(SpaceError::Overlap {
                attempted: extent,
                existing,
                holder,
            });
        }
        if first_w == last_w {
            self.occ[first_w] |= head & tail;
        } else {
            self.occ[first_w] |= head;
            for w in first_w + 1..last_w {
                self.occ[w] = !0;
            }
            self.occ[last_w] |= tail;
        }
        for w in first_w..=last_w {
            self.sum[w / 64] |= 1u64 << (w % 64);
        }
        self.starts[(lo / 64) as usize] |= 1u64 << (lo % 64);
        let page = lo as usize / DIR_PAGE;
        if page >= self.dir.len() {
            self.dir.resize(page + 1, None);
        }
        self.dir[page].get_or_insert_with(|| Box::new([0; DIR_PAGE]))[lo as usize % DIR_PAGE] =
            owner.get() << 32 | (hi - lo - 1);
        if self.live < self.peak_live {
            self.slots_reused += 1;
        }
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.occupied += hi - lo;
        if hi > self.frontier {
            self.frontier = hi;
        }
        Ok(())
    }

    /// Releases the interval starting exactly at `start`.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::NotOccupied`] if no interval starts at `start`.
    pub fn release(&mut self, start: Addr) -> Result<(Extent, ObjectId), SpaceError> {
        let a = start.get();
        if !self.starts_at(a) {
            return Err(SpaceError::NotOccupied { addr: start });
        }
        let (size, owner) = self.entry_at(a);
        self.starts[(a / 64) as usize] &= !(1u64 << (a % 64));
        self.clear_range(a, a + size);
        self.live -= 1;
        self.occupied -= size;
        if a + size == self.frontier {
            self.frontier = self.last_set_below(self.frontier).map_or(0, |b| b + 1);
        }
        Ok((Extent::new(start, Size::new(size)), owner))
    }

    /// The object whose interval contains `addr`, if any.
    pub fn object_at(&self, addr: Addr) -> Option<ObjectId> {
        let a = addr.get();
        if a >= self.frontier {
            return None;
        }
        if self.occ[(a / 64) as usize] & (1u64 << (a % 64)) == 0 {
            return None;
        }
        Some(self.resolve(a).1)
    }

    /// Number of occupied words inside `window`: a masked popcount that
    /// skips empty blocks via the summary. The heatmap and the analysis's
    /// chunk-density queries hit this per cell per round.
    pub fn occupied_words_in(&self, window: Extent) -> Size {
        let lo = window.start().get();
        let hi = window.end().get().min(self.frontier);
        if lo >= hi {
            return Size::ZERO;
        }
        let first_w = (lo / 64) as usize;
        let last_w = ((hi - 1) / 64) as usize;
        let mut count = 0u64;
        let mut scanned = 0u64;
        let mut skips = 0u64;
        let mut w = first_w;
        while w <= last_w {
            let sbits = self.sum[w / 64] & (!0u64 << (w % 64));
            if sbits == 0 {
                skips += 1;
                w = (w / 64 + 1) * 64;
                continue;
            }
            let nz = (w / 64) * 64 + sbits.trailing_zeros() as usize;
            if nz > w {
                skips += 1;
                w = nz;
                if w > last_w {
                    break;
                }
            }
            let mut word = self.occ[w];
            scanned += 1;
            if w == first_w {
                word &= !0u64 << (lo % 64);
            }
            if w == last_w {
                let top = hi - (w as u64) * 64;
                if top < 64 {
                    word &= (1u64 << top) - 1;
                }
            }
            count += u64::from(word.count_ones());
            w += 1;
        }
        self.note_scan(scanned, skips);
        Size::new(count)
    }
}

/// In-order iterator over stored intervals overlapping a window.
///
/// The first element is resolved with a backward `starts` scan (the
/// container may begin before the window); every later element begins at
/// the first set bit past its predecessor's end, which invariant 3
/// guarantees is itself a start — `resolve` then terminates on its first
/// probe.
struct Overlapping<'a> {
    space: &'a SpaceMap,
    /// The empty-window containment case, yielded before any bit scan.
    pending: Option<(Extent, ObjectId)>,
    pos: u64,
    hi: u64,
}

impl Iterator for Overlapping<'_> {
    type Item = (Extent, ObjectId);

    fn next(&mut self) -> Option<(Extent, ObjectId)> {
        if let Some(item) = self.pending.take() {
            return Some(item);
        }
        let bit = self.space.first_set(self.pos, self.hi)?;
        let (extent, owner) = self.space.resolve(bit);
        self.pos = extent.end().get();
        Some((extent, owner))
    }
}

/// Iterator over interior free gaps (holes strictly between intervals).
struct Gaps<'a> {
    space: &'a SpaceMap,
    /// Next address to examine; `u64::MAX` when the map is empty.
    pos: u64,
}

impl Iterator for Gaps<'_> {
    type Item = Extent;

    fn next(&mut self) -> Option<Extent> {
        let gap_lo = self.space.first_clear_from(self.pos)?;
        // The frontier word is occupied by definition, so a set bit exists.
        let gap_hi = self.space.first_set(gap_lo, self.space.frontier)?;
        self.pos = gap_hi;
        Some(Extent::from_raw(gap_lo, gap_hi - gap_lo))
    }
}
