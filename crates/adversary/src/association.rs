//! Object↔chunk association (Section 4 of the paper) and the potential
//! function `u(t)` it induces.
//!
//! During stage II of `P_F`, the heap is partitioned into aligned chunks of
//! `2^i` words. The program associates with each chunk a set `O_D` of
//! objects (or *halves* of objects — Figure 4's refinement), maintaining
//! the invariant that a used chunk keeps density at least `2^-ρ` so that
//! evacuating it is never profitable for a c-partial manager. This module
//! owns that bookkeeping:
//!
//! * association survives compaction — a moved (and therefore immediately
//!   freed) object stays in `O_D` as a *dead* entry until the chunk is
//!   reused by a fresh allocation;
//! * the middle chunk of each freshly placed object is tracked in the set
//!   `E` (Definition 4.12);
//! * the chunk potential `u_D` (Definition 4.3) and the total `u(t) =
//!   Σ u_D − n/4` (Definition 4.4) are maintained incrementally.
//!
//! The chunk table is a dense vector indexed by chunk number (`addr >>
//! step`). A step change merges each pair `2k, 2k+1` into slot `k` in
//! place. Each live object's back-references are the *first words* of the
//! one or two chunks holding its entries, so the current chunk is always
//! `anchor >> step` and a step change never touches them: two anchors that
//! land in the same chunk mean the object is now whole there.

use pcb_heap::ObjectId;

/// One element of an `O_D` set: a whole object or one of its halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// The associated object.
    pub id: ObjectId,
    /// Words this entry contributes to the chunk (the object's size, or
    /// half of it for a half-entry).
    pub words: u64,
    /// Whether the object is still live (dead entries are left behind by
    /// compacted-then-freed objects).
    pub live: bool,
    /// Whether this is one half of an object split across two chunks.
    pub half: bool,
}

#[derive(Debug, Clone, Default)]
struct Chunk {
    entries: Vec<Entry>,
    /// Sum of `words` over entries (maintained, not recomputed).
    sum: u64,
    /// Membership in the set `E` of middle chunks (Definition 4.12).
    in_e: bool,
}

impl Chunk {
    /// Whether the chunk has a non-empty association or is in `E`.
    fn is_used(&self) -> bool {
        self.in_e || !self.entries.is_empty()
    }

    /// `u_D` (Definition 4.3): the chunk size for chunks in `E`, otherwise
    /// `2^ρ·sum` saturating at the chunk size.
    fn potential(&self, step: u32, rho: u32) -> u128 {
        let cap = 1u128 << step;
        if self.in_e {
            cap
        } else {
            cap.min((self.sum as u128) << rho)
        }
    }
}

/// Marks an object without back-references in [`Association::anchors`].
const NO_ANCHOR: [u64; 2] = [u64::MAX; 2];

/// The association state at one step, with `u(t)` maintained incrementally.
#[derive(Debug, Clone)]
pub struct Association {
    /// Current step `i`: chunks span `2^i` words.
    step: u32,
    /// Density exponent `ρ`: used chunks keep `sum ≥ 2^{step−ρ}` and the
    /// chunk potential saturates at density `2^-ρ`.
    rho: u32,
    /// Chunk `k` spans words `[k·2^step, (k+1)·2^step)`.
    chunks: Vec<Chunk>,
    /// Number of chunks with a non-empty association or in `E`.
    used: usize,
    /// Live-object back-references, indexed by object id: the first words
    /// of the chunks holding the object's entries. Both anchors fall in
    /// one chunk for a whole object and in two for a split one;
    /// [`NO_ANCHOR`] marks an object without live entries.
    anchors: Vec<[u64; 2]>,
    /// Σ u_D over all chunks, in words.
    u_sum: u128,
}

impl Association {
    /// Creates an empty association over chunks of `2^step` words.
    pub fn new(step: u32, rho: u32) -> Self {
        Association {
            step,
            rho,
            chunks: Vec::new(),
            used: 0,
            anchors: Vec::new(),
            u_sum: 0,
        }
    }

    /// Current step (chunk order).
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Chunk size in words.
    pub fn chunk_words(&self) -> u64 {
        1 << self.step
    }

    /// `Σ_D u_D` in words (add `− n/4` for the paper's `u(t)`).
    pub fn u_sum(&self) -> u128 {
        self.u_sum
    }

    /// The paper's `u(t) = Σ u_D − n/4`, in words (may be negative early).
    pub fn potential(&self, log_n: u32) -> i128 {
        self.u_sum as i128 - (1i128 << log_n) / 4
    }

    /// Number of chunks with a non-empty association or in `E`.
    pub fn used_chunks(&self) -> usize {
        self.used
    }

    /// The chunk index holding `addr` at the current step.
    pub fn chunk_of(&self, addr: u64) -> u64 {
        addr >> self.step
    }

    /// The words associated with the chunk at `index` (its `sum`; 0 for an
    /// unused chunk).
    pub fn chunk_sum(&self, index: u64) -> u64 {
        self.chunks.get(index as usize).map_or(0, |c| c.sum)
    }

    /// Applies `f` to the chunk at `index`, keeping `u_sum` and the used
    /// count consistent.
    fn update<R>(&mut self, index: u64, f: impl FnOnce(&mut Chunk) -> R) -> R {
        let i = index as usize;
        if i >= self.chunks.len() {
            self.chunks.resize_with(i + 1, Chunk::default);
        }
        let (step, rho) = (self.step, self.rho);
        let chunk = &mut self.chunks[i];
        let (u_before, used_before) = (chunk.potential(step, rho), chunk.is_used());
        let r = f(chunk);
        self.u_sum = self.u_sum - u_before + chunk.potential(step, rho);
        self.used = self.used + usize::from(chunk.is_used()) - usize::from(used_before);
        r
    }

    /// The back-references of `id`, if it has live entries.
    fn anchors_of(&self, id: ObjectId) -> Option<[u64; 2]> {
        self.anchors
            .get(id.get() as usize)
            .copied()
            .filter(|&a| a != NO_ANCHOR)
    }

    fn set_anchors(&mut self, id: ObjectId, anchors: [u64; 2]) {
        let i = id.get() as usize;
        if i >= self.anchors.len() {
            self.anchors.resize(i + 1, NO_ANCHOR);
        }
        self.anchors[i] = anchors;
    }

    /// Drops `id`'s back-reference to the chunk at `index`; an object left
    /// with none loses its anchors.
    fn drop_anchor(&mut self, id: ObjectId, index: u64) {
        let Some([a, b]) = self.anchors_of(id) else {
            return;
        };
        let anchors = match (a >> self.step == index, b >> self.step == index) {
            (true, true) => NO_ANCHOR,
            (true, false) => [b, b],
            (false, true) => [a, a],
            (false, false) => return,
        };
        self.set_anchors(id, anchors);
    }

    /// Associates a whole live object with the chunk at `index` (used by
    /// line 9 of Algorithm 1 for the f_ρ-occupying survivors of stage I).
    pub fn associate_whole(&mut self, index: u64, id: ObjectId, words: u64, live: bool) {
        self.update(index, |chunk| {
            chunk.entries.push(Entry {
                id,
                words,
                live,
                half: false,
            });
            chunk.sum += words;
        });
        if live {
            let anchor = index << self.step;
            self.set_anchors(id, [anchor, anchor]);
        }
    }

    /// Doubles the chunk size: each pair of adjacent chunks becomes one
    /// (line 12: `O_D = O_D1 ∪ O_D2`), and `E` membership lapses
    /// (Definition 4.12).
    pub fn advance_step(&mut self) {
        self.step += 1;
        let old_len = self.chunks.len();
        for k in 0..old_len.div_ceil(2) {
            let mut merged = std::mem::take(&mut self.chunks[2 * k]);
            merged.in_e = false;
            if let Some(right) = self.chunks.get_mut(2 * k + 1) {
                let right = std::mem::take(right);
                merged.sum += right.sum;
                let split = merged.entries.len();
                let both_hold_halves =
                    merged.entries.iter().any(|e| e.half) && right.entries.iter().any(|e| e.half);
                if merged.entries.is_empty() {
                    merged.entries = right.entries;
                } else {
                    merged.entries.extend(right.entries);
                }
                // An object whose two halves sat in the two merging chunks
                // is now whole in one chunk: coalesce its half-entries so
                // the shedding logic never sees a half without a distinct
                // partner.
                if both_hold_halves {
                    coalesce_halves(&mut merged.entries, split);
                }
            }
            self.chunks[k] = merged;
        }
        self.chunks.truncate(old_len.div_ceil(2));
        let (step, rho) = (self.step, self.rho);
        self.u_sum = self.chunks.iter().map(|c| c.potential(step, rho)).sum();
        self.used = self.chunks.iter().filter(|c| c.is_used()).count();
    }

    /// Marks a (compacted-then-freed) object's entries dead; the entries
    /// and their contribution to chunk sums remain until the chunks are
    /// reused (the paper's "association is not removed when an object is
    /// compacted").
    pub fn mark_dead(&mut self, id: ObjectId) {
        let Some([a, b]) = self.anchors_of(id) else {
            return;
        };
        self.set_anchors(id, NO_ANCHOR);
        // A whole object's anchors name one chunk twice; marking is
        // idempotent.
        for index in [a >> self.step, b >> self.step] {
            self.update(index, |chunk| {
                for e in chunk.entries.iter_mut().filter(|e| e.id == id) {
                    e.live = false;
                }
            });
        }
    }

    /// Whether the object currently has live entries.
    pub fn is_associated(&self, id: ObjectId) -> bool {
        self.anchors_of(id).is_some()
    }

    /// Line 13 of Algorithm 1: for every chunk, de-allocate as many
    /// associated objects as possible while keeping `sum ≥ 2^{step−ρ}`.
    /// Dropping a half re-assigns it to the partner chunk (which is then
    /// re-evaluated); dropping a whole de-allocates the object for real.
    ///
    /// Chunks are visited in descending index order; after each one, the
    /// partners that received a half are re-evaluated last-in first-out
    /// before the next index. Which objects are freed depends on this
    /// order, so it is part of the contract.
    ///
    /// Returns the objects to free, in ascending id order.
    pub fn shed_density_surplus(&mut self) -> Vec<ObjectId> {
        let threshold = 1u64 << (self.step - self.rho);
        let mut freed = Vec::new();
        let mut partners = Vec::new();
        let mut drops = Vec::new();
        for index in (0..self.chunks.len() as u64).rev() {
            let mut next = Some(index);
            while let Some(index) = next {
                self.shed_chunk(index, threshold, &mut drops, &mut freed, &mut partners);
                next = partners.pop();
            }
        }
        freed.sort_unstable();
        freed
    }

    /// Sheds one chunk down to the density threshold. Each drop takes the
    /// largest live entry by `(words, !half, id)` whose removal keeps
    /// `sum ≥ threshold`. The sum only falls while one chunk sheds, so an
    /// entry too large to drop stays too large, and one pass over the
    /// entries in descending key order makes exactly those drops.
    fn shed_chunk(
        &mut self,
        index: u64,
        threshold: u64,
        drops: &mut Vec<(u64, bool, ObjectId, usize)>,
        freed: &mut Vec<ObjectId>,
        partners: &mut Vec<u64>,
    ) {
        let chunk = &self.chunks[index as usize];
        let can_drop = |e: &Entry| e.live && chunk.sum - e.words >= threshold;
        if !chunk.entries.iter().any(can_drop) {
            return;
        }
        drops.clear();
        drops.extend(
            chunk
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.live)
                .map(|(pos, e)| (e.words, !e.half, e.id, pos)),
        );
        drops.sort_unstable_by(|a, b| b.cmp(a));
        let mut sum = chunk.sum;
        drops.retain(|&(words, ..)| {
            let droppable = sum - words >= threshold;
            if droppable {
                sum -= words;
            }
            droppable
        });
        for &(words, whole, id, _) in drops.iter() {
            if whole {
                self.set_anchors(id, NO_ANCHOR);
                freed.push(id);
                continue;
            }
            // Re-assign the dropped half to the chunk holding the other
            // half; that chunk is re-evaluated next.
            let [a, b] = self.anchors_of(id).expect("live half has anchors");
            let other = if a >> self.step == index { b } else { a };
            self.set_anchors(id, [other, other]);
            let partner = other >> self.step;
            self.update(partner, |chunk| {
                let e = chunk
                    .entries
                    .iter_mut()
                    .find(|e| e.id == id && e.live)
                    .expect("partner holds the other half");
                debug_assert!(e.half);
                e.half = false;
                e.words += words;
                chunk.sum += words;
            });
            partners.push(partner);
        }
        // Removing in descending position order means `swap_remove` only
        // ever moves a kept entry into a gap, so no recorded position goes
        // stale.
        drops.sort_unstable_by_key(|&(.., pos)| std::cmp::Reverse(pos));
        self.update(index, |chunk| {
            for &(.., pos) in drops.iter() {
                chunk.entries.swap_remove(pos);
            }
            chunk.sum = sum;
        });
    }

    /// Empties the chunks `d1..=d3` before a fresh allocation covers them,
    /// dropping the back-references of any live entry they held (only
    /// dead entries can be present on fully covered chunks, but stay
    /// defensive).
    fn reset_covered(&mut self, d1: u64) {
        for index in d1..d1 + 3 {
            let dropped: Vec<ObjectId> = self.update(index, |chunk| {
                chunk.sum = 0;
                chunk.in_e = false;
                chunk
                    .entries
                    .drain(..)
                    .filter(|e| e.live)
                    .map(|e| e.id)
                    .collect()
            });
            for id in dropped {
                self.drop_anchor(id, index);
            }
        }
    }

    /// Line 14 of Algorithm 1, after placing object `o` (of size
    /// `4·2^step`) whose first three fully covered chunks are `d1..d3`:
    /// reset their associations to `O_D1 = {o'}`, `O_D2 = ∅` (recorded in
    /// `E`), `O_D3 = {o''}`.
    pub fn claim_new_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        debug_assert_eq!(size, 4 << self.step, "stage-II objects span 4 chunks");
        self.reset_covered(d1);
        let half = size / 2;
        for index in [d1, d3] {
            self.update(index, |chunk| {
                chunk.entries.push(Entry {
                    id,
                    words: half,
                    live: true,
                    half: true,
                });
                chunk.sum += half;
            });
        }
        self.update(d2, |chunk| {
            chunk.in_e = true;
        });
        self.set_anchors(id, [d1 << self.step, d3 << self.step]);
    }

    /// The no-halves variant of [`claim_new_object`](Self::claim_new_object)
    /// (Section 3.1's third improvement switched off): the whole object is
    /// associated with the first covered chunk, the other two stay
    /// unassociated, and `E` is not used.
    pub fn claim_whole_object(&mut self, d1: u64, d2: u64, d3: u64, id: ObjectId, size: u64) {
        debug_assert!(d2 == d1 + 1 && d3 == d2 + 1, "chunks are consecutive");
        self.reset_covered(d1);
        self.associate_whole(d1, id, size, true);
    }

    /// Total words in live entries (the live space the association is
    /// holding hostage); used by tests for Proposition 4.17.
    pub fn live_associated_words(&self) -> u128 {
        self.chunks
            .iter()
            .flat_map(|c| &c.entries)
            .filter(|e| e.live)
            .map(|e| e.words as u128)
            .sum()
    }

    /// Per-chunk view for invariant checks: `(index, sum, live_count,
    /// entry_count, in_e)` for every used chunk, in index order.
    pub fn chunk_stats(&self) -> Vec<(u64, u64, usize, usize, bool)> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_used())
            .map(|(i, c)| {
                (
                    i as u64,
                    c.sum,
                    c.entries.iter().filter(|e| e.live).count(),
                    c.entries.len(),
                    c.in_e,
                )
            })
            .collect()
    }

    /// Checks Claim 4.15-style structural invariants plus internal
    /// consistency; returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Live halves per object id.
        let mut halves = vec![0u8; self.anchors.len()];
        for (index, chunk) in self.chunks.iter().enumerate() {
            let sum: u64 = chunk.entries.iter().map(|e| e.words).sum();
            if sum != chunk.sum {
                return Err(format!("chunk {index}: sum {} != {}", chunk.sum, sum));
            }
            if chunk.in_e && !chunk.entries.is_empty() {
                return Err(format!("chunk {index}: in E but has entries"));
            }
            for e in &chunk.entries {
                if e.words == 0 {
                    return Err(format!("chunk {index}: zero-word entry {}", e.id));
                }
                if e.live {
                    let [a, b] = self
                        .anchors_of(e.id)
                        .ok_or_else(|| format!("live {} missing backrefs", e.id))?;
                    if a >> self.step != index as u64 && b >> self.step != index as u64 {
                        return Err(format!("live {} lacks backref to {index}", e.id));
                    }
                    if e.half {
                        halves[e.id.get() as usize] += 1;
                    }
                }
            }
        }
        // Claim 4.15(2): a live object is whole in one chunk or split as
        // two halves over two chunks.
        for (id, &[a, b]) in self.anchors.iter().enumerate() {
            if [a, b] != NO_ANCHOR && a >> self.step != b >> self.step && halves[id] != 2 {
                let id = ObjectId::from_raw(id as u64);
                return Err(format!("{id} in two chunks but not as two halves"));
            }
        }
        // u_sum and the used count agree with a from-scratch computation.
        let fresh: u128 = self
            .chunks
            .iter()
            .map(|c| c.potential(self.step, self.rho))
            .sum();
        if fresh != self.u_sum {
            return Err(format!("u_sum {} != fresh {}", self.u_sum, fresh));
        }
        let used = self.chunks.iter().filter(|c| c.is_used()).count();
        if used != self.used {
            return Err(format!("used chunks {} != fresh {used}", self.used));
        }
        Ok(())
    }
}

/// Merges each half in `entries[..split]` with the half of the same object
/// in `entries[split..]`, if there is one, into a whole entry.
fn coalesce_halves(entries: &mut Vec<Entry>, split: usize) {
    for i in 0..split {
        if !entries[i].half {
            continue;
        }
        let id = entries[i].id;
        if let Some(j) = (split..entries.len()).find(|&j| entries[j].id == id) {
            let other = entries.swap_remove(j);
            debug_assert!(other.half);
            entries[i].words += other.words;
            entries[i].half = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }

    #[test]
    fn figure_4_scenario() {
        // The paper's Figure 4: chunks of 8 words, density 1/4 (rho = 2).
        // Half of O2 on C7 and C8, O3 on C9, O1 also on C7. O1 can be
        // freed because C7 keeps density via O2's half.
        let mut a = Association::new(3, 2); // chunks of 8, threshold 2
        a.associate_whole(7, id(1), 2, true); // O1: 2 words on C7
        a.claim_new_object_for_test(7, id(2), 4); // O2 halves on C7, C8
        a.associate_whole(9, id(3), 2, true); // O3 on C9
        a.check_invariants().unwrap();
        let freed = a.shed_density_surplus();
        // C7 has sum 4 (O1=2 + half O2=2): dropping O1 leaves 2 >= 2. The
        // half of O2 cannot leave C7 (C7 would fall to 2-2=0 < 2 after?
        // dropping the half leaves O1's 2 words = threshold, so the half
        // *may* migrate to C8 first; either way O1 is ultimately freed and
        // every chunk keeps >= 2 words).
        assert!(freed.contains(&id(1)), "O1 freed: {freed:?}");
        assert!(!freed.contains(&id(3)), "O3 pins C9");
        a.check_invariants().unwrap();
        for (_, sum, _, entries, _) in a.chunk_stats() {
            if entries > 0 {
                assert!(sum >= 2);
            }
        }
    }

    impl Association {
        /// Test helper: place a half/half object on chunks (d, d+1) without
        /// the line-14 reset semantics.
        fn claim_new_object_for_test(&mut self, d: u64, id_: ObjectId, size: u64) {
            let half = size / 2;
            for index in [d, d + 1] {
                self.update(index, |chunk| {
                    chunk.entries.push(Entry {
                        id: id_,
                        words: half,
                        live: true,
                        half: true,
                    });
                    chunk.sum += half;
                });
            }
            self.set_anchors(id_, [d << self.step, (d + 1) << self.step]);
        }
    }

    #[test]
    fn potential_saturates_at_chunk_size() {
        let mut a = Association::new(4, 2); // chunks of 16, u caps at 16
        a.associate_whole(0, id(1), 2, true);
        assert_eq!(a.u_sum(), 8, "2 words << rho=2 -> 8");
        a.associate_whole(0, id(2), 6, true);
        assert_eq!(a.u_sum(), 16, "saturated at 2^step");
        a.associate_whole(1, id(3), 1, true);
        assert_eq!(a.u_sum(), 20);
        assert_eq!(a.potential(6), 20 - 16);
        a.check_invariants().unwrap();
    }

    #[test]
    fn advance_step_merges_and_preserves_sums() {
        let mut a = Association::new(3, 1);
        a.associate_whole(4, id(1), 3, true);
        a.associate_whole(5, id(2), 5, true);
        a.associate_whole(7, id(3), 1, true);
        a.advance_step();
        a.check_invariants().unwrap();
        assert_eq!(a.step(), 4);
        let stats = a.chunk_stats();
        // Chunks 4,5 -> 2 (sum 8); chunk 7 -> 3 (sum 1).
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0], (2, 8, 2, 2, false));
        assert_eq!(stats[1], (3, 1, 1, 1, false));
        // u: min(2*8,16)=16, min(2*1,16)=2.
        assert_eq!(a.u_sum(), 18);
    }

    #[test]
    fn mark_dead_keeps_sum_and_entries() {
        let mut a = Association::new(3, 1);
        a.associate_whole(0, id(1), 4, true);
        let u_before = a.u_sum();
        a.mark_dead(id(1));
        assert_eq!(a.u_sum(), u_before, "death does not change u");
        assert!(!a.is_associated(id(1)));
        let freed = a.shed_density_surplus();
        assert!(freed.is_empty(), "dead entries are never shed");
        a.check_invariants().unwrap();
    }

    #[test]
    fn claim_new_object_resets_and_tracks_e() {
        let mut a = Association::new(3, 2);
        // Old dead residue on the chunks to be covered.
        a.associate_whole(10, id(1), 2, false);
        a.associate_whole(11, id(2), 2, false);
        let cap = 8u128;
        assert!(a.u_sum() > 0);
        a.claim_new_object(10, 11, 12, id(5), 32);
        a.check_invariants().unwrap();
        // D1 and D3 hold 16-word halves (saturated), D2 is in E.
        assert_eq!(a.u_sum(), 3 * cap);
        let stats = a.chunk_stats();
        assert_eq!(stats.len(), 3);
        assert!(stats[1].4, "middle chunk in E");
        assert_eq!(stats[1].3, 0, "middle chunk has no entries");
        // After a step change E lapses and the halves merge into chunk 5.
        a.advance_step();
        a.check_invariants().unwrap();
        let stats = a.chunk_stats();
        assert_eq!(stats.len(), 2, "{stats:?}");
        assert!(stats.iter().all(|s| !s.4), "E cleared on step change");
    }

    #[test]
    fn shed_respects_threshold_exactly() {
        let mut a = Association::new(4, 2); // threshold 4
        a.associate_whole(0, id(1), 4, true);
        a.associate_whole(0, id(2), 4, true);
        let freed = a.shed_density_surplus();
        assert_eq!(freed.len(), 1, "exactly one of the two 4-word objects");
        let stats = a.chunk_stats();
        assert_eq!(stats[0].1, 4, "threshold retained");
        // A chunk below threshold sheds nothing.
        let mut b = Association::new(4, 2);
        b.associate_whole(0, id(3), 2, true);
        assert!(b.shed_density_surplus().is_empty());
    }

    #[test]
    fn half_reassignment_cascades() {
        // Chunks of 8, rho 1 (threshold 4). Object A halves on chunks 0,1
        // (4+4); whole B=4 on chunk 0; whole C=4 on chunk 1.
        let mut a = Association::new(3, 1);
        a.associate_whole(0, id(10), 4, true);
        a.associate_whole(1, id(11), 4, true);
        a.claim_new_object_for_test(0, id(12), 8);
        a.check_invariants().unwrap();
        let freed = a.shed_density_surplus();
        a.check_invariants().unwrap();
        // Enough mass exists to free both whole objects: each chunk ends
        // holding exactly one half... or the halves migrate to one chunk.
        // Whatever the cascade order, every chunk with entries keeps >= 4
        // and at least one whole object is freed.
        assert!(!freed.is_empty());
        for (_, sum, _, entries, _) in a.chunk_stats() {
            if entries > 0 {
                assert!(sum >= 4, "density threshold violated");
            }
        }
        // Total live words retained across chunks is at least threshold
        // per non-empty chunk.
        assert!(a.live_associated_words() >= 4);
    }
}
