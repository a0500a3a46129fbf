//! The bitmap occupancy map against its seed.
//!
//! For every cell of a pinned `(M, log₂ n, c, manager)` grid drawn from
//! the empirical experiment, the suite:
//!
//! 1. times the full `P_F` simulation end-to-end once;
//! 2. records the execution's event stream once and replays the
//!    occupy/release ops against a bare bitmap [`SpaceMap`] and the seed
//!    [`ReferenceSpace`], best-of-N; this isolates exactly the referee;
//! 3. times the observability window queries (the `occupied_words_in`
//!    sweep behind the heat map plus the `gaps()` walk behind
//!    fragmentation snapshots) on the final replayed state of both maps,
//!    asserting they agree.
//!
//! Each cell also carries the bitmap's scan counters after its replay.

use partial_compaction::heap::reference::ReferenceSpace;
use partial_compaction::heap::{Addr, Event, Extent, ObjectId, Recorder, Size, SpaceMap};
use partial_compaction::{note, sim, telemetry, ManagerKind, Params};
use pcb_json::ToJson;

use crate::harness::{best_of, Cell, SuiteReport};

/// One grid cell.
struct Shape {
    m: u64,
    log_n: u32,
    c: u64,
    manager: ManagerKind,
}

impl Shape {
    fn params(&self) -> Params {
        Params::new(self.m, self.log_n, self.c).expect("grid cell is a valid Params")
    }

    fn label(&self) -> String {
        format!(
            "{}/M={},log_n={},c={}",
            self.manager, self.m, self.log_n, self.c
        )
    }
}

/// The empirical experiment's parameter sets with the manager suite
/// rotated across them: 12 cells in both modes. Smoke shrinks `M`.
fn grid(smoke: bool) -> Vec<Shape> {
    let shapes: [(u64, u32); 3] = if smoke {
        [(1 << 12, 9), (1 << 13, 9), (1 << 13, 10)]
    } else {
        [(1 << 14, 10), (1 << 16, 10), (1 << 18, 12)]
    };
    let mut cells = Vec::new();
    for (m, log_n) in shapes {
        for c in [10u64, 20, 50, 100] {
            let manager = ManagerKind::ALL[cells.len() % ManagerKind::ALL.len()];
            cells.push(Shape {
                m,
                log_n,
                c,
                manager,
            });
        }
    }
    cells
}

/// A mutation against the referee, distilled from the event stream
/// (round markers dropped). A `Moved` event becomes the
/// release-then-occupy pair the heap performs internally.
#[derive(Clone, Copy)]
enum ReplayOp {
    Occupy(ObjectId, Addr, Size),
    Release(Addr),
}

fn distill(recorder: &Recorder) -> Vec<ReplayOp> {
    let mut ops = Vec::new();
    for &(_, event) in recorder.events() {
        match event {
            Event::Placed { id, addr, size } => ops.push(ReplayOp::Occupy(id, addr, size)),
            Event::Freed { addr, .. } => ops.push(ReplayOp::Release(addr)),
            Event::Moved { id, from, to, size } => {
                ops.push(ReplayOp::Release(from));
                ops.push(ReplayOp::Occupy(id, to, size));
            }
            Event::RoundStart { .. } | Event::RoundEnd { .. } => {}
        }
    }
    ops
}

/// The referee operations a replay and a window sweep drive, on either
/// map.
trait Referee: Default {
    fn occupy(&mut self, owner: ObjectId, extent: Extent);
    fn release(&mut self, start: Addr);
    fn frontier(&self) -> Addr;
    fn occupied_words_in(&self, window: Extent) -> Size;
    fn gap_words(&self) -> u64;
}

macro_rules! impl_referee {
    ($t:ty) => {
        impl Referee for $t {
            fn occupy(&mut self, owner: ObjectId, extent: Extent) {
                <$t>::occupy(self, owner, extent).expect("recorded placement replays")
            }
            fn release(&mut self, start: Addr) {
                <$t>::release(self, start).expect("recorded free replays");
            }
            fn frontier(&self) -> Addr {
                <$t>::frontier(self)
            }
            fn occupied_words_in(&self, window: Extent) -> Size {
                <$t>::occupied_words_in(self, window)
            }
            fn gap_words(&self) -> u64 {
                <$t>::gaps(self).map(|gap| gap.size().get()).sum()
            }
        }
    };
}

impl_referee!(SpaceMap);
impl_referee!(ReferenceSpace);

/// Replays the distilled op stream against a bare map and returns the
/// final map for the window-query phase.
fn replay<R: Referee>(ops: &[ReplayOp]) -> R {
    let mut space = R::default();
    for &op in ops {
        match op {
            ReplayOp::Occupy(id, addr, size) => space.occupy(id, Extent::new(addr, size)),
            ReplayOp::Release(addr) => space.release(addr),
        }
    }
    space
}

/// The heat map's `occupied_words_in` sweep (256 buckets over the used
/// span) plus the fragmentation snapshot's `gaps()` walk, repeated
/// `rounds` times as the engine does once per round.
fn window_sweep<R: Referee>(space: &R, rounds: u32) -> u64 {
    const BUCKETS: u64 = 256;
    let span = space.frontier().get();
    let bucket = (span / BUCKETS).max(1);
    let mut acc = 0u64;
    for _ in 0..rounds {
        let mut lo = 0u64;
        while lo < span {
            let hi = (lo + bucket).min(span);
            acc += space.occupied_words_in(Extent::from_raw(lo, hi - lo)).get();
            lo = hi;
        }
        acc += space.gap_words();
    }
    acc
}

fn simulate(shape: &Shape, recorder: Option<&mut Recorder>) -> String {
    let sim = sim::Sim::new(shape.params())
        .adversary(sim::Adversary::PF)
        .manager(shape.manager);
    let sim = match recorder {
        Some(recorder) => sim.observe(recorder),
        None => sim,
    };
    sim.run().expect("grid cell runs").to_json().to_string()
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 1 } else { 3 };
    let sweep_rounds: u32 = if smoke { 4 } else { 16 };
    let mut report = SuiteReport::default();
    let (mut total_ref_replay, mut total_bit_replay) = (0.0f64, 0.0f64);
    let mut total_bit_e2e = 0.0f64;
    let (mut total_ref_window, mut total_bit_window) = (0.0f64, 0.0f64);
    let mut total_ops = 0u64;
    for shape in grid(smoke) {
        // End-to-end, unobserved.
        let (bit_e2e, _) = best_of(1, || simulate(&shape, None));
        // Record the op stream once (observer overhead excluded from all
        // timed runs) and replay it against the bare referee.
        let mut recorder = Recorder::new();
        simulate(&shape, Some(&mut recorder));
        let ops = distill(&recorder);
        let (ref_replay, ref_space) = best_of(iters, || replay::<ReferenceSpace>(&ops));
        let (bit_replay, bit_space) = {
            let _span = telemetry::span!("bench.bitmap_replay");
            best_of(iters, || replay::<SpaceMap>(&ops))
        };
        let (ref_window, ref_acc) = best_of(iters, || window_sweep(&ref_space, sweep_rounds));
        let (bit_window, bit_acc) = best_of(iters, || window_sweep(&bit_space, sweep_rounds));
        assert_eq!(
            ref_acc,
            bit_acc,
            "{}: window sweeps diverged",
            shape.label()
        );

        let op_count = ops.len() as u64;
        let replay_speedup = ref_replay / bit_replay;
        let window_speedup = ref_window / bit_window;
        note!(
            "  {:36} {op_count:8} ops  replay {ref_replay:7.4}s -> {bit_replay:7.4}s \
             ({replay_speedup:5.2}x)  windows {ref_window:7.4}s -> {bit_window:7.4}s \
             ({window_speedup:5.2}x)  e2e {bit_e2e:7.4}s",
            shape.label(),
        );
        total_ref_replay += ref_replay;
        total_bit_replay += bit_replay;
        total_bit_e2e += bit_e2e;
        total_ref_window += ref_window;
        total_bit_window += bit_window;
        total_ops += op_count;
        let counters = bit_space.counters().expect("the bitmap counts its scans");
        report.cell(
            Cell::new(shape.label(), bit_replay, op_count as f64)
                .with("ops", op_count)
                .with("events", recorder.len())
                .with("reference_replay_seconds", ref_replay)
                .with("replay_speedup", replay_speedup)
                .with(
                    "reference_throughput_ops_per_sec",
                    op_count as f64 / ref_replay,
                )
                .with("reference_window_seconds", ref_window)
                .with("bitmap_window_seconds", bit_window)
                .with("window_speedup", window_speedup)
                .with("bitmap_e2e_seconds", bit_e2e)
                .with("words_scanned", counters.words_scanned)
                .with("summary_skips", counters.summary_skips)
                .with("slot_high_water", counters.slot_high_water)
                .with("slots_reused", counters.slots_reused),
        );
    }
    report.value("iters_per_cell", iters);
    report.value("sweep_rounds", sweep_rounds);
    report.value("total_ops", total_ops);
    report.value("total_reference_replay_seconds", total_ref_replay);
    report.value("total_bitmap_replay_seconds", total_bit_replay);
    report.value(
        "overall_replay_speedup",
        total_ref_replay / total_bit_replay,
    );
    report.value(
        "overall_window_speedup",
        total_ref_window / total_bit_window,
    );
    report.value("total_bitmap_e2e_seconds", total_bit_e2e);
    report
}
