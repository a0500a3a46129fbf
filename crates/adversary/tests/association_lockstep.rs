//! Lockstep equivalence of the dense-table `Association` against the seed
//! `BTreeMap` model (`tests/model/mod.rs`).
//!
//! Both are driven with the same random operation stream: whole
//! associations, half and whole claims of fresh objects, deaths, density
//! shedding and step changes. After every operation the freed objects,
//! `u_sum`, `chunk_stats()`, the used-chunk count, the live associated
//! words and every object's association status must agree, and both
//! must pass `check_invariants()`. The stream stays inside `P_F`'s usage:
//! ids are fresh, and a claim only covers chunks without live entries.

mod model;

use proptest::prelude::*;

use pcb_adversary::Association;
use pcb_heap::ObjectId;

/// One random operation: `(kind, a, b, live)`; the meaning of `a` and `b`
/// depends on `kind`.
type Op = (u8, u64, u64, bool);

fn ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..8, 0u64..48, 1u64..40, any::<bool>()), len)
}

fn fresh(next_id: &mut u64) -> ObjectId {
    *next_id += 1;
    ObjectId::from_raw(*next_id - 1)
}

fn in_e(model: &model::Association, index: u64) -> bool {
    model
        .chunk_stats()
        .iter()
        .any(|&(i, .., in_e)| i == index && in_e)
}

/// Runs `ops` on both implementations from `(step, rho)`; returns the
/// first disagreement.
fn lockstep(step: u32, rho: u32, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut model = model::Association::new(step, rho);
    let mut fast = Association::new(step, rho);
    let mut next_id = 0u64;
    for (n, &(kind, a, b, live)) in ops.iter().enumerate() {
        match kind {
            // Line 9: associate a whole object, live or ghost, with a
            // chunk outside `E`.
            0 | 1 => {
                if in_e(&model, a) {
                    continue;
                }
                let id = fresh(&mut next_id);
                model.associate_whole(a, id, b, live);
                fast.associate_whole(a, id, b, live);
            }
            // Line 14: claim three chunks for a fresh object, as halves
            // (with `E`) or whole. The object covers them, so no other
            // live object or middle chunk can be there.
            2 | 3 => {
                let d1 = a % 40;
                let occupied = model
                    .chunk_stats()
                    .iter()
                    .any(|&(i, _, live, _, in_e)| (d1..d1 + 3).contains(&i) && (live > 0 || in_e));
                if occupied {
                    continue;
                }
                let id = fresh(&mut next_id);
                let size = 4 << model.step();
                if kind == 2 {
                    model.claim_new_object(d1, d1 + 1, d1 + 2, id, size);
                    fast.claim_new_object(d1, d1 + 1, d1 + 2, id, size);
                } else {
                    model.claim_whole_object(d1, d1 + 1, d1 + 2, id, size);
                    fast.claim_whole_object(d1, d1 + 1, d1 + 2, id, size);
                }
            }
            // A compacted object dies; any id, associated or not.
            4 => {
                if next_id > 0 {
                    let id = ObjectId::from_raw(a % next_id);
                    model.mark_dead(id);
                    fast.mark_dead(id);
                }
            }
            // Line 13.
            5 | 6 => {
                let (m, f) = (model.shed_density_surplus(), fast.shed_density_surplus());
                prop_assert_eq!(&m, &f, "op {}: freed objects differ", n);
            }
            // Line 12.
            _ => {
                model.advance_step();
                fast.advance_step();
            }
        }
        prop_assert_eq!(model.u_sum(), fast.u_sum(), "op {}: u_sum", n);
        prop_assert_eq!(model.chunk_stats(), fast.chunk_stats(), "op {}", n);
        prop_assert_eq!(model.used_chunks(), fast.used_chunks(), "op {}", n);
        prop_assert_eq!(
            model.live_associated_words(),
            fast.live_associated_words(),
            "op {}",
            n
        );
        for id in (0..next_id).map(ObjectId::from_raw) {
            prop_assert_eq!(model.is_associated(id), fast.is_associated(id), "op {}", n);
        }
        model
            .check_invariants()
            .map_err(|e| TestCaseError::fail(format!("op {n}: model: {e}")))?;
        fast.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("op {n}: dense table: {e}")))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_table_matches_the_seed_model(
        rho in 1u32..4,
        extra in 0u32..3,
        stream in ops(1..120),
    ) {
        lockstep(rho + extra, rho, &stream)?;
    }

    #[test]
    fn crowded_tables_shed_identically(
        rho in 1u32..4,
        fill in ops(40..120),
        stream in ops(1..80),
    ) {
        // A crowded table first (many small objects per chunk, as line 9
        // leaves it), then claims, sheds and step changes interleaved so
        // half reassignment cascades across partners.
        let seeded: Vec<Op> = fill
            .iter()
            .map(|&(_, a, b, live)| (u8::from(!live), a % 16, b % 6 + 1, live))
            .chain(stream.iter().copied())
            .collect();
        lockstep(rho, rho, &seeded)?;
    }
}
