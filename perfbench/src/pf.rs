//! `pf-large`: the paper's bad program `P_F` (canonical `PfConfig`) at
//! M = 2^20, n = 2^12, c = 20 against first-fit, TLSF and pages-thm2 in
//! turn, on one thread — the run `pcb simulate` makes for each manager.
//! It has no seed: every iteration is the same computation.

use std::hint::black_box;
use std::time::Instant;

use partial_compaction::heap::{
    Addr, Execution, Heap, HeapSummary, MemoryManager, ObjectId, Program, Size,
};
use partial_compaction::{metrics, ManagerKind, Params, PfConfig, PfProgram};

use crate::layers::{clock_pair_ns, Counts, Layers, Op, Split, TimedManager, TimedProgram};
use crate::spans::Spans;
use crate::{end_to_end, repeat, same_summary, setup_seconds, Outcome};

const M: u64 = 1 << 20;
const LOG_N: u32 = 12;
const C: u64 = 20;
const MANAGERS: [ManagerKind; 3] = [
    ManagerKind::FirstFit,
    ManagerKind::Tlsf,
    ManagerKind::PagesThm2,
];
/// The pinned answer of each cell: heap size `HS` and words moved.
/// As `HS/M`: 2.901, 2.901 and 2.105; pages-thm2 moves 0.0498 of the
/// words it places.
const PINNED: [(u64, u64); 3] = [(3_042_097, 0), (3_042_097, 0), (2_207_744, 160_528)];

fn params() -> Params {
    Params::new(M, LOG_N, C).expect("the canonical parameters are valid")
}

fn config() -> PfConfig {
    PfConfig::new(M, LOG_N, C).expect("P_F is feasible at the canonical parameters")
}

fn heap() -> Heap {
    Heap::new(C)
}

fn build(kind: ManagerKind) -> Box<dyn MemoryManager> {
    kind.try_build(&params())
        .expect("every benchmarked manager serves the canonical parameters")
}

fn program(cfg: PfConfig) -> Box<dyn Program> {
    Box::new(PfProgram::new(cfg))
}

/// Runs one cell untraced, as `pcb simulate` does.
fn run_cell(cfg: PfConfig, kind: ManagerKind) -> Result<HeapSummary, String> {
    Execution::new(heap(), program(cfg), build(kind))
        .run_summary()
        .map_err(|e| format!("{}: {e}", kind.name()))
}

fn pinned(cell: usize, s: &HeapSummary) -> bool {
    (s.heap_size, s.words_moved) == PINNED[cell]
}

/// The workload's inputs: `Params` and `PfConfig::new` (optimal ρ); a
/// non-zero `variant` moves `c` so that no memo entry is shared.
pub fn setup(_seed: u64, variant: u64) {
    black_box(Params::new(M, LOG_N, C + variant).expect("valid parameters"));
    black_box(PfConfig::new(M, LOG_N, C + variant).expect("feasible parameters"));
}

pub fn timed(seconds: f64) -> Result<Outcome, String> {
    let setup_s = setup_seconds("pf-large", 0)?;
    let cfg = config();
    let iterations = repeat(seconds, 3, || MANAGERS.map(|kind| run_cell(cfg, kind)));
    let mut out = Outcome::default();
    let mut work = Vec::with_capacity(iterations.len());
    for iteration in &iterations {
        let mut events = 0;
        for (i, cell) in iteration.result.iter().enumerate() {
            match cell {
                Ok(s) => {
                    out.check(
                        1,
                        pinned(i, s),
                        &format!("{} answer {s:?}", MANAGERS[i].name()),
                    );
                    events += s.objects_placed + s.objects_freed;
                }
                Err(e) => out.check(1, false, e),
            }
        }
        work.push(events);
    }
    end_to_end(&mut out, setup_s, &iterations, &work);
    Ok(out)
}

/// Replays a recorded stream against a fresh referee through the public
/// `Heap` calls.
fn replay(stream: &[Op]) -> Result<Heap, String> {
    let mut heap = heap();
    let id = |raw: u32| ObjectId::from_raw(u64::from(raw));
    for &op in stream {
        match op {
            Op::Free(raw) => heap.free(id(raw)).map(drop),
            Op::Place {
                id: raw,
                addr,
                size,
            } => heap.place(
                id(raw),
                Addr::new(u64::from(addr)),
                Size::new(u64::from(size)),
            ),
            Op::Move { id: raw, to } => heap.relocate(id(raw), Addr::new(u64::from(to))).map(drop),
        }
        .map_err(|e| format!("replay: {e}"))?;
    }
    Ok(heap)
}

pub fn traced() -> Result<Outcome, String> {
    let pair_ns = clock_pair_ns();
    let cfg = config();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let (mut split, mut counts) = (Split::default(), Counts::default());
    let (mut untraced_s, mut traced_s, mut build_s, mut replay_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut ops, mut replay_ops, mut scanned, mut bucket_scans, mut merges) =
        (0u64, 0u64, 0, 0, 0);
    let (mut moved_objects, mut moved_words, mut placed_words) = (0, 0, 0);
    let root_start = Instant::now();
    let mut cells = Vec::new();
    for (i, &kind) in MANAGERS.iter().enumerate() {
        let name = kind.name();
        // Untraced, timed over `run_summary` alone like the traced run.
        let mut exec = Execution::new(heap(), program(cfg), build(kind));
        let start = Instant::now();
        let plain = exec
            .run_summary()
            .map_err(|e| format!("{name} untraced: {e}"))?;
        untraced_s += start.elapsed().as_secs_f64();
        drop(exec);
        out.check(1, pinned(i, &plain), &format!("{name} answer {plain:?}"));

        // Traced: program and manager calls timed through the wrappers.
        let layers = Layers::new(false);
        let start = Instant::now();
        let manager = build(kind);
        build_s += start.elapsed().as_secs_f64();
        let mut exec = Execution::new(
            heap(),
            TimedProgram::new(program(cfg), layers.clone()),
            TimedManager::new(manager, layers.clone()),
        );
        let start = Instant::now();
        let traced = exec
            .run_summary()
            .map_err(|e| format!("{name} traced: {e}"))?;
        let end = Instant::now();
        let wall = end - start;
        traced_s += wall.as_secs_f64();
        drop(exec);
        out.check(
            1,
            same_summary(&traced, &plain),
            &format!("{name}: traced {traced:?} != untraced"),
        );
        let cell = Split::of(&layers, wall.as_nanos() as u64, pair_ns);
        let engine = cell.engine();
        out.check(
            1,
            engine >= 0.0,
            &format!("{name}: engine residual {engine}"),
        );
        cells.push((name, start, end, cell, layers.clone()));
        split.add(cell);
        counts.add(&layers);
        eprintln!("{}", cell.summary(name));

        // Recorded, with the metrics plane on: the referee stream and
        // the manager's scan counters.
        metrics::reset();
        metrics::enable();
        let recorder = Layers::new(true);
        let mut exec = Execution::new(
            heap(),
            TimedProgram::new(program(cfg), recorder.clone()),
            TimedManager::new(build(kind), recorder.clone()),
        );
        let recorded = exec
            .run_summary()
            .map_err(|e| format!("{name} recorded: {e}"));
        metrics::disable();
        let recorded = recorded?;
        let snapshot = metrics::snapshot();
        bucket_scans += snapshot.counter("manager.bucket_scan_len");
        merges += snapshot.counter("manager.coalesce_merges");
        scanned += exec
            .heap()
            .space()
            .counters()
            .map_or(0, |c| c.words_scanned);
        drop(exec);
        out.check(
            1,
            same_summary(&recorded, &plain),
            &format!("{name}: recorded {recorded:?} != untraced"),
        );
        ops += plain.objects_placed + plain.objects_freed + plain.objects_moved;
        moved_objects += plain.objects_moved;
        moved_words += plain.words_moved;
        placed_words += plain.words_placed;

        // Replay the stream against a fresh referee, apart from any manager.
        let stream = recorder.stream.as_ref().expect("recording").take();
        let start = Instant::now();
        let replayed = replay(&stream)?;
        replay_s += start.elapsed().as_secs_f64();
        replay_ops += stream.len() as u64;
        let agrees = (replayed.heap_size().get(), replayed.stats().words_moved)
            == (plain.heap_size, plain.words_moved);
        out.check(1, agrees, &format!("{name}: replayed heap differs"));
    }
    let root = spans.push(0, "pf-large", root_start, Instant::now(), Vec::new());
    for (name, start, end, cell, layers) in &cells {
        let parent = spans.push(
            root,
            *name,
            *start,
            *end,
            vec![
                ("program_s", cell.program()),
                ("manager_s", cell.manager()),
                ("engine_s", cell.engine()),
            ],
        );
        // Per-round spans carry raw (uncalibrated) layer times.
        let (mut from, mut program_ns, mut manager_ns) = (*start, 0.0, 0.0);
        for (round, mark) in layers.rounds.borrow().iter().enumerate() {
            let dur = mark.at.saturating_duration_since(from).as_secs_f64();
            let program = (mark.program_ns - program_ns) / 1e9;
            let manager = (mark.manager_ns - manager_ns) / 1e9;
            spans.push(
                parent,
                format!("round {round}"),
                from,
                mark.at,
                vec![
                    ("program_s", program),
                    ("manager_s", manager),
                    ("engine_s", dur - program - manager),
                ],
            );
            (from, program_ns, manager_ns) = (mark.at, mark.program_ns, mark.manager_ns);
        }
    }
    let path = spans
        .write("pf-large")
        .map_err(|e| format!("trace file: {e}"))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());

    out.check(
        1,
        replay_ops == ops,
        &format!("stream {replay_ops} ops, stats {ops}"),
    );
    split.report(&counts, &mut out);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.metric("manager.build_s", build_s, "s");
    out.metric(
        "manager.bucket_scan_per_place",
        ratio(bucket_scans as f64, counts.place_calls as f64),
        "ratio",
    );
    out.metric("manager.coalesce_merges", merges as f64, "count");
    out.metric("referee.ops", replay_ops as f64, "count");
    out.metric("referee.replay_s", replay_s, "s");
    out.metric(
        "referee.ops_per_s",
        ratio(replay_ops as f64, replay_s),
        "1/s",
    );
    out.metric(
        "referee.words_scanned_per_op",
        ratio(scanned as f64, ops as f64),
        "ratio",
    );
    out.metric("ledger.objects_moved", moved_objects as f64, "count");
    out.metric("ledger.words_moved", moved_words as f64, "count");
    out.metric(
        "ledger.budget_used",
        ratio(moved_words as f64, placed_words as f64 / C as f64),
        "ratio",
    );
    out.metric("trace.timer_ns", pair_ns, "ns");
    out.metric("trace.overhead_ratio", traced_s / untraced_s - 1.0, "ratio");
    out.metric("trace.wall_s", split.wall, "s");
    out.metric("trace.spans", spans.len() as f64, "count");
    Ok(out)
}
