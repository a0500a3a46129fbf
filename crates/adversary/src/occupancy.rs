//! The `f`-occupying predicate (Definition 4.2) and Robson's offset
//! selection rule.
//!
//! At step `i` the heap is viewed as aligned chunks of `2^i` words. An
//! object is *f-occupying* if it covers a word at address `k·2^i + f` for
//! some integer `k`. Robson's bad program keeps only f-occupying objects:
//! one such survivor per chunk blocks the chunk from serving any future
//! object of size `≥ 2^i`, while costing as few live words as possible.

use pcb_heap::{Addr, Size};

/// Whether the object `[addr, addr + size)` covers an address congruent to
/// `f` modulo `2^i`.
///
/// ```
/// use pcb_adversary::is_f_occupying;
/// use pcb_heap::{Addr, Size};
/// // Chunks of 4 (i = 2), offset 1: addresses 1, 5, 9, ...
/// assert!(is_f_occupying(Addr::new(0), Size::new(2), 1, 2)); // covers 1
/// assert!(!is_f_occupying(Addr::new(2), Size::new(2), 1, 2)); // covers 2,3
/// assert!(is_f_occupying(Addr::new(2), Size::new(4), 1, 2)); // covers 5
/// ```
pub fn is_f_occupying(addr: Addr, size: Size, f: u64, i: u32) -> bool {
    debug_assert!(!size.is_zero());
    if size.get() >= 1u64 << i {
        // A chunk-sized object covers every residue.
        return true;
    }
    occupying_delta(addr, f, i) < size.get()
}

/// The distance from `addr` to the first address at or above it that is
/// congruent to `f` modulo `2^i`. Chunks are powers of two, so the
/// residues are masks rather than divisions.
fn occupying_delta(addr: Addr, f: u64, i: u32) -> u64 {
    let mask = (1u64 << i) - 1;
    f.wrapping_sub(addr.get()) & mask
}

/// The first `f`-occupying word of the object, if any.
pub fn first_occupying_word(addr: Addr, size: Size, f: u64, i: u32) -> Option<Addr> {
    let delta = occupying_delta(addr, f, i);
    (delta < size.get()).then(|| Addr::new(addr.get() + delta))
}

/// Robson's offset-selection score: `Σ (2^i − |o|)` over `f`-occupying
/// objects. Maximizing it keeps the *smallest* possible survivors pinning
/// the *most* chunks.
pub fn offset_score<I>(objects: I, f: u64, i: u32) -> i128
where
    I: IntoIterator<Item = (Addr, Size)>,
{
    let chunk = 1i128 << i;
    objects
        .into_iter()
        .filter(|&(addr, size)| is_f_occupying(addr, size, f, i))
        .map(|(_, size)| chunk - size.get() as i128)
        .sum()
}

/// Picks the step-`i` offset per Robson's rule: `f ∈ {prev, prev + 2^(i-1)}`
/// maximizing [`offset_score`] (ties favour `prev`).
pub fn choose_offset<I>(objects: I, prev_f: u64, i: u32) -> u64
where
    I: IntoIterator<Item = (Addr, Size)> + Clone,
{
    debug_assert!(i >= 1);
    let cand = prev_f + (1u64 << (i - 1));
    let keep = offset_score(objects.clone(), prev_f, i);
    let flip = offset_score(objects, cand, i);
    if flip > keep {
        cand
    } else {
        prev_f
    }
}

/// One object's contribution to [`offset_score`]: `2^i − |o|` if the
/// object is `f`-occupying, zero otherwise.
pub fn offset_contribution(addr: Addr, size: Size, f: u64, i: u32) -> i128 {
    if is_f_occupying(addr, size, f, i) {
        (1i128 << i) - size.get() as i128
    } else {
        0
    }
}

/// Incremental form of [`choose_offset`]: maintains the two candidate
/// scores for the *upcoming* step as objects enter and leave the
/// inventory, so the per-step choice costs O(1) instead of two full
/// passes over the live set.
///
/// After choosing `f_i` at step `i`, the step-`i+1` candidates are known
/// (`f_i` and `f_i + 2^i`), so their scores can be accumulated while the
/// step-`i` survivors are enumerated and as later allocations arrive.
/// Integer addition is exact and commutative, so the incrementally
/// maintained scores are bit-identical to the batch computation.
///
/// ```
/// use pcb_adversary::{choose_offset, OffsetTracker};
/// use pcb_heap::{Addr, Size};
/// let objs = vec![(Addr::new(1), Size::new(1)), (Addr::new(3), Size::new(1))];
/// let mut t = OffsetTracker::new();
/// for &(a, s) in &objs {
///     t.add(a, s);
/// }
/// assert_eq!(t.choose(), choose_offset(objs, 0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct OffsetTracker {
    /// The step whose offset will be chosen next.
    step: u32,
    /// Candidate `f = f_{i−1}` (keep) and its score.
    keep: u64,
    score_keep: i128,
    /// Candidate `f = f_{i−1} + 2^{i−1}` (flip) and its score.
    flip: u64,
    score_flip: i128,
}

impl Default for OffsetTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl OffsetTracker {
    /// A tracker ready for step 1 with `f_0 = 0` (candidates 0 and 1).
    pub fn new() -> Self {
        OffsetTracker {
            step: 1,
            keep: 0,
            score_keep: 0,
            flip: 1,
            score_flip: 0,
        }
    }

    /// The step whose offset [`choose`](Self::choose) will produce.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// Accounts for an object entering the inventory.
    pub fn add(&mut self, addr: Addr, size: Size) {
        self.score_keep += offset_contribution(addr, size, self.keep, self.step);
        self.score_flip += offset_contribution(addr, size, self.flip, self.step);
    }

    /// Accounts for an object leaving the inventory.
    pub fn remove(&mut self, addr: Addr, size: Size) {
        self.score_keep -= offset_contribution(addr, size, self.keep, self.step);
        self.score_flip -= offset_contribution(addr, size, self.flip, self.step);
    }

    /// The winning offset for the current step (ties keep the previous
    /// offset, exactly as [`choose_offset`]).
    pub fn choose(&self) -> u64 {
        if self.score_flip > self.score_keep {
            self.flip
        } else {
            self.keep
        }
    }

    /// Resets the tracker for `next_step` after `f` was chosen; the caller
    /// re-[`add`](Self::add)s the surviving inventory (typically folded
    /// into the pass that enumerates survivors anyway).
    pub fn advance(&mut self, f: u64, next_step: u32) {
        debug_assert!(next_step > self.step);
        self.step = next_step;
        self.keep = f;
        self.flip = f + (1u64 << (next_step - 1));
        self.score_keep = 0;
        self.score_flip = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_sized_objects_always_occupy() {
        for f in 0..8 {
            assert!(is_f_occupying(Addr::new(5), Size::new(8), f, 3));
            assert!(is_f_occupying(Addr::new(5), Size::new(9), f, 3));
        }
    }

    #[test]
    fn single_words_occupy_their_own_residue() {
        for a in 0..16u64 {
            for f in 0..8u64 {
                assert_eq!(
                    is_f_occupying(Addr::new(a), Size::new(1), f, 3),
                    a % 8 == f,
                    "a={a} f={f}"
                );
            }
        }
    }

    #[test]
    fn occupying_matches_brute_force() {
        for a in 0..32u64 {
            for s in 1..16u64 {
                for i in 0..5u32 {
                    for f in 0..(1u64 << i) {
                        let brute = (a..a + s).any(|w| w % (1 << i) == f);
                        assert_eq!(
                            is_f_occupying(Addr::new(a), Size::new(s), f, i),
                            brute,
                            "a={a} s={s} f={f} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn first_word_is_occupying_and_minimal() {
        for a in 0..16u64 {
            for s in 1..8u64 {
                for f in 0..4u64 {
                    let got = first_occupying_word(Addr::new(a), Size::new(s), f, 2);
                    let brute = (a..a + s).find(|w| w % 4 == f);
                    assert_eq!(got.map(Addr::get), brute, "a={a} s={s} f={f}");
                }
            }
        }
    }

    #[test]
    fn offset_choice_prefers_more_small_survivors() {
        // Chunks of 2 (i=1), prev f=0. Objects: three 1-word at odd
        // addresses, one 1-word at an even address. Offset 1 scores
        // 3*(2-1)=3 > 1, so choose 1.
        let objs = vec![
            (Addr::new(1), Size::new(1)),
            (Addr::new(3), Size::new(1)),
            (Addr::new(5), Size::new(1)),
            (Addr::new(4), Size::new(1)),
        ];
        assert_eq!(choose_offset(objs.clone(), 0, 1), 1);
        assert_eq!(offset_score(objs.clone(), 1, 1), 3);
        assert_eq!(offset_score(objs, 0, 1), 1);
    }

    #[test]
    fn ties_keep_previous_offset() {
        let objs = vec![(Addr::new(0), Size::new(1)), (Addr::new(1), Size::new(1))];
        assert_eq!(choose_offset(objs, 0, 1), 0);
    }

    #[test]
    fn tracker_matches_batch_choice_across_steps() {
        // Drive a multi-step churn script through both the batch rule and
        // the incremental tracker; the chosen offsets must agree exactly
        // (including ties) at every step.
        let mut objects: Vec<(Addr, Size)> = Vec::new();
        let mut tracker = OffsetTracker::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // Initial fill.
        for k in 0..200u64 {
            let obj = (Addr::new(k), Size::new(1));
            objects.push(obj);
            tracker.add(obj.0, obj.1);
        }
        let mut f = 0u64;
        for i in 1..=6u32 {
            assert_eq!(tracker.step(), i);
            let batch = choose_offset(objects.clone(), f, i);
            assert_eq!(tracker.choose(), batch, "step {i}");
            f = batch;
            // Free the non-occupying, re-seed the tracker from survivors.
            objects.retain(|&(a, s)| is_f_occupying(a, s, f, i));
            tracker.advance(f, i + 1);
            for &(a, s) in &objects {
                tracker.add(a, s);
            }
            // Allocate a pseudo-random batch for the next step.
            for _ in 0..40 {
                let obj = (Addr::new(next() % 512), Size::new(1 + next() % (1 << i)));
                objects.push(obj);
                tracker.add(obj.0, obj.1);
            }
            // And move a few (remove + add, as P_R's moved handler does).
            for _ in 0..5 {
                let idx = (next() as usize) % objects.len();
                let (old, size) = objects[idx];
                let moved = (Addr::new((old.get() + next() % 64) % 512), size);
                tracker.remove(old, size);
                tracker.add(moved.0, moved.1);
                objects[idx] = moved;
            }
        }
    }

    #[test]
    fn big_objects_discourage_their_offset() {
        // i=2: a 3-word object at 0 covers residues 0,1,2; a 1-word object
        // at 7 covers residue 3. Score(f=0) = 4-3 = 1; score(f=2) = 1;
        // with prev=0 the candidate is f=2: tie keeps 0. With prev=1 the
        // candidate is f=3: score(f=3) = 4-1 = 3 > score(f=1) = 1.
        let objs = vec![(Addr::new(0), Size::new(3)), (Addr::new(7), Size::new(1))];
        assert_eq!(choose_offset(objs.clone(), 0, 2), 0);
        assert_eq!(choose_offset(objs, 1, 2), 3);
    }
}
