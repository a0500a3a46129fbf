//! A pinned grid of `P_F` runs: every manager × five program variants ×
//! two stage-II-heavy sizes.
//!
//! `tests/golden_trace.rs` pins one small run (M=2^12, n=2^8) event for
//! event. At that size stage II has few chunks and almost no half
//! reassignment, so a change to the chunk association could slip past it.
//! The two sizes here run many stage-II steps over thousands of chunks,
//! with long half-reassignment cascades. Each cell pins `HS`, the words
//! moved, and an FNV-1a hash of the full recorded trace, so any change to
//! a single placement, free or move fails the cell that made it.
//!
//! The pinned values were produced by the seed implementation of the
//! association. A deliberate behaviour change must update them
//! consciously and say why.

use partial_compaction::heap::{Execution, Heap, TraceEvent, TraceRecorder};
use partial_compaction::{ManagerKind, Params, PfConfig, PfProgram, PfVariant};

/// The five program variants: the full program, the baseline, and each
/// single improvement on its own.
const VARIANTS: [(&str, PfVariant); 5] = [
    ("full", PfVariant::FULL),
    ("baseline", PfVariant::BASELINE),
    (
        "robson-only",
        PfVariant {
            robson_stage1: true,
            regimented_alloc: false,
            half_assignment: false,
        },
    ),
    (
        "regimented-only",
        PfVariant {
            robson_stage1: false,
            regimented_alloc: true,
            half_assignment: false,
        },
    ),
    (
        "halves-only",
        PfVariant {
            robson_stage1: false,
            regimented_alloc: false,
            half_assignment: true,
        },
    ),
];

/// FNV-1a over a fixed byte encoding of each event.
fn trace_hash(events: &[TraceEvent]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in events {
        match *e {
            TraceEvent::RoundStart { round } => {
                eat(&[0]);
                eat(&round.to_le_bytes());
            }
            TraceEvent::RoundEnd { round } => {
                eat(&[1]);
                eat(&round.to_le_bytes());
            }
            TraceEvent::Placed { id, addr, size } => {
                eat(&[2]);
                eat(&id.to_le_bytes());
                eat(&addr.to_le_bytes());
                eat(&size.to_le_bytes());
            }
            TraceEvent::Freed { id } => {
                eat(&[3]);
                eat(&id.to_le_bytes());
            }
            TraceEvent::Moved { id, to } => {
                eat(&[4]);
                eat(&id.to_le_bytes());
                eat(&to.to_le_bytes());
            }
        }
    }
    h
}

/// Runs one cell and returns `(HS, words moved, trace hash)`.
fn cell(m: u64, log_n: u32, c: u64, kind: ManagerKind, variant: PfVariant) -> (u64, u64, u64) {
    let cfg = PfConfig::new(m, log_n, c)
        .expect("feasible")
        .with_variant(variant);
    let params = Params::new(m, log_n, c).expect("valid");
    let mut exec = Execution::new(Heap::new(c), PfProgram::new(cfg), kind.build(&params));
    let mut rec = TraceRecorder::new(c);
    let report = exec.run_observed(&mut rec).expect("runs");
    let trace = rec.into_trace();
    (
        report.heap_size,
        report.words_moved,
        trace_hash(&trace.events),
    )
}

/// Checks every cell of one size against its pinned rows, which are in
/// `ManagerKind::ALL` × `VARIANTS` order.
fn check_grid(m: u64, log_n: u32, c: u64, pinned: &[(u64, u64, u64)]) {
    let mut got = Vec::new();
    for kind in ManagerKind::ALL {
        for (_, variant) in VARIANTS {
            got.push(cell(m, log_n, c, kind, variant));
        }
    }
    let mut drift = Vec::new();
    for (i, (g, p)) in got.iter().zip(pinned).enumerate() {
        if g != p {
            let kind = ManagerKind::ALL[i / VARIANTS.len()];
            let name = VARIANTS[i % VARIANTS.len()].0;
            drift.push(format!("{kind} × {name}: got {g:?}, pinned {p:?}"));
        }
    }
    if !drift.is_empty() || got.len() != pinned.len() {
        let rows: Vec<String> = got
            .iter()
            .map(|(hs, mv, h)| format!("    ({hs}, {mv}, {h:#018x}),"))
            .collect();
        panic!(
            "M={m} log n={log_n} c={c}: {} of {} cells drifted\n{}\ncurrent rows:\n{}",
            drift.len(),
            got.len(),
            drift.join("\n"),
            rows.join("\n")
        );
    }
}

#[test]
fn pf_grid_at_m_2_16_is_pinned() {
    check_grid(
        1 << 16,
        10,
        10,
        &[
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (124928, 0, 0xed7e806fd64eb427),
            (126976, 0, 0x7fc92350e61ab88a),
            (126976, 0, 0x7fc92350e61ab88a),
            (124928, 0, 0xed7e806fd64eb427),
            (126976, 0, 0x7fc92350e61ab88a),
            (124496, 0, 0x118b1733039f645b),
            (126976, 0, 0x7fc92350e61ab88a),
            (126976, 0, 0x7fc92350e61ab88a),
            (123984, 0, 0xb570c354112fcd7a),
            (126976, 0, 0x7fc92350e61ab88a),
            (124928, 0, 0xed7e806fd64eb427),
            (126976, 0, 0x7fc92350e61ab88a),
            (126976, 0, 0x7fc92350e61ab88a),
            (124928, 0, 0xed7e806fd64eb427),
            (126976, 0, 0x7fc92350e61ab88a),
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (124493, 0, 0x82952b756479c7b0),
            (126829, 0, 0x60c5ba58a6c33867),
            (126829, 0, 0x60c5ba58a6c33867),
            (123981, 0, 0xd7f620523adfa115),
            (126829, 0, 0x60c5ba58a6c33867),
            (129024, 16, 0xd06be9adbd9f56e7),
            (126976, 0, 0x7fc92350e61ab88a),
            (126976, 0, 0x7fc92350e61ab88a),
            (129024, 16, 0xd06be9adbd9f56e7),
            (126976, 0, 0x7fc92350e61ab88a),
        ],
    );
}

#[test]
fn pf_grid_at_m_2_18_is_pinned() {
    check_grid(
        1 << 18,
        12,
        40,
        &[
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (753664, 0, 0x3e2dab2ac43d4eab),
            (786432, 0, 0xf8d0e86a425d35dc),
            (786432, 0, 0xf8d0e86a425d35dc),
            (753664, 0, 0x3e2dab2ac43d4eab),
            (786432, 0, 0xf8d0e86a425d35dc),
            (750336, 0, 0xba9a4e354b77a20e),
            (786432, 0, 0xf8d0e86a425d35dc),
            (786432, 0, 0xf8d0e86a425d35dc),
            (750336, 0, 0x92485c27a0e463ed),
            (786432, 0, 0xf8d0e86a425d35dc),
            (753664, 0, 0x3e2dab2ac43d4eab),
            (786432, 0, 0xf8d0e86a425d35dc),
            (786432, 0, 0xf8d0e86a425d35dc),
            (753664, 0, 0x3e2dab2ac43d4eab),
            (786432, 0, 0xf8d0e86a425d35dc),
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0x5c41fd5d6d65a0b6),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (750321, 0, 0xf6d771e7d5a80029),
            (786353, 0, 0x0f9a9ea1e6c3dd48),
            (671744, 18809, 0x0d96b21ab593ca61),
            (745472, 21038, 0x41abf35b7be669ec),
            (745472, 21038, 0x41abf35b7be669ec),
            (671744, 18809, 0x0d96b21ab593ca61),
            (745472, 21038, 0x41abf35b7be669ec),
        ],
    );
}
