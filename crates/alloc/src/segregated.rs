//! Segregated-storage allocation: one free list per power-of-two size
//! class, with no splitting or coalescing across classes.
//!
//! This is the simplest size-class allocator; each class grows its own pool
//! from the shared frontier. Its per-class space can never be reused by
//! other classes, which makes it the most fragile baseline against
//! adversaries that shift the size distribution between steps — a useful
//! contrast to the buddy and free-list managers in the empirical harness.
//!
//! The per-class free sets only ever need "insert" and "pop the minimum",
//! so each class is a binary min-heap (no lazy deletion needed: slots
//! leave the set only via pop). The seed `BTreeSet<u64>` per class
//! survives only in the tests, as the lockstep oracle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pcb_heap::{Addr, AllocRequest, HeapOps, MemoryManager, ObjectId, PlacementError, Size};

/// Per-class free-slot min-heaps.
#[derive(Debug, Clone)]
struct SlotIndex(Vec<BinaryHeap<Reverse<u64>>>);

impl SlotIndex {
    fn new(classes: usize) -> Self {
        SlotIndex((0..classes).map(|_| BinaryHeap::new()).collect())
    }

    fn insert(&mut self, class: u32, addr: u64) {
        self.0[class as usize].push(Reverse(addr));
    }

    /// Removes and returns the lowest free slot of `class`, if any.
    fn pop_min(&mut self, class: u32) -> Option<u64> {
        self.0[class as usize].pop().map(|Reverse(a)| a)
    }

    fn count(&self, class: u32) -> usize {
        self.0[class as usize].len()
    }
}

/// A non-moving segregated-storage manager.
///
/// ```
/// use pcb_alloc::SegregatedManager;
/// let m = SegregatedManager::new(12);
/// assert_eq!(pcb_heap::MemoryManager::name(&m), "segregated");
/// ```
#[derive(Debug, Clone)]
pub struct SegregatedManager {
    /// `free[k]` holds start addresses of free `2^k`-word slots.
    free: SlotIndex,
    max_order: u32,
    frontier: u64,
}

impl SegregatedManager {
    /// Creates a manager with size classes `2^0 .. 2^max_order`.
    pub fn new(max_order: u32) -> Self {
        assert!(
            max_order < 48,
            "max_order {max_order} is unreasonably large"
        );
        SegregatedManager {
            free: SlotIndex::new(max_order as usize + 1),
            max_order,
            frontier: 0,
        }
    }

    /// Free slots per class (diagnostics).
    pub fn spare_slots(&self) -> Vec<usize> {
        (0..=self.max_order).map(|k| self.free.count(k)).collect()
    }

    fn class_for(size: Size) -> u32 {
        size.next_power_of_two().log2()
    }
}

impl MemoryManager for SegregatedManager {
    fn name(&self) -> &str {
        "segregated"
    }

    fn place(
        &mut self,
        req: AllocRequest,
        _ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let k = Self::class_for(req.size);
        if k > self.max_order {
            return Err(PlacementError::new(format!(
                "request {} exceeds the largest class 2^{}",
                req.size, self.max_order
            )));
        }
        if let Some(slot) = self.free.pop_min(k) {
            return Ok(Addr::new(slot));
        }
        let addr = self.frontier;
        self.frontier += 1 << k;
        Ok(Addr::new(addr))
    }

    fn note_free(&mut self, _id: ObjectId, addr: Addr, size: Size) {
        let k = Self::class_for(size);
        self.free.insert(k, addr.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcb_heap::{Execution, Heap, ScriptedProgram};

    #[test]
    fn slots_are_reused_within_a_class() {
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8])
            .round([1], [8]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        let report = exec.run().unwrap();
        assert_eq!(report.heap_size, 24, "the freed middle slot is reused");
    }

    #[test]
    fn classes_do_not_share_space() {
        // Free all the 8-word slots, then allocate 16-word objects: the
        // freed space cannot be reused (that is the policy's weakness).
        let program = ScriptedProgram::new(Size::new(1024))
            .round([], [8, 8, 8, 8])
            .round([0, 1, 2, 3], [16, 16]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        let report = exec.run().unwrap();
        assert_eq!(report.heap_size, 32 + 32);
    }

    #[test]
    fn sizes_round_up_to_class() {
        let program = ScriptedProgram::new(Size::new(1024)).round([], [5, 5]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        exec.run().unwrap();
        let mut addrs: Vec<u64> = exec.heap().live_objects().map(|r| r.addr().get()).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 8], "5-word objects occupy 8-word slots");
    }

    #[test]
    fn oversized_is_rejected() {
        let program = ScriptedProgram::new(Size::new(4096)).round([], [2049]);
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(11));
        assert!(exec.run().is_err());
    }

    #[test]
    fn churn_reuses_slots_within_each_class() {
        let mut program = ScriptedProgram::new(Size::new(1 << 20));
        let mut base = 0usize;
        for r in 0..12u64 {
            let sizes: Vec<u64> = (1..=10u64).map(|s| (s * 7 * (r + 1)) % 100 + 1).collect();
            let frees: Vec<usize> = if base >= 10 {
                (base - 10..base).step_by(2).collect()
            } else {
                Vec::new()
            };
            program = program.round(frees, sizes);
            base += 10;
        }
        let mut exec = Execution::new(Heap::non_moving(), program, SegregatedManager::new(10));
        exec.run().expect("segregated survives churn");
    }
}

/// The seed per-class `BTreeSet`, kept as the oracle [`SlotIndex`] is
/// checked against in lockstep.
#[cfg(test)]
mod lockstep {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::SlotIndex;

    const CLASSES: usize = 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Every pop answers the same slot and every class keeps the same
        // count. Slots are unique across the index, as in the manager.
        #[test]
        fn slot_index_matches_the_seed_sets(
            ops in proptest::collection::vec((any::<bool>(), 0u32..CLASSES as u32, 0u64..4096), 1..200),
        ) {
            let mut ind = SlotIndex::new(CLASSES);
            let mut refr: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); CLASSES];
            let mut used = BTreeSet::new();
            for (insert, class, addr) in ops {
                if insert {
                    if used.insert(addr) {
                        ind.insert(class, addr);
                        refr[class as usize].insert(addr);
                    }
                } else {
                    let want = refr[class as usize].pop_first();
                    prop_assert_eq!(ind.pop_min(class), want);
                    if let Some(slot) = want {
                        used.remove(&slot);
                    }
                }
                for (k, set) in refr.iter().enumerate() {
                    prop_assert_eq!(ind.count(k as u32), set.len());
                }
            }
        }
    }
}
