//! `search-bestfit`: the exhaustive worst-case search
//! (`exhaustive::try_worst_case_observed`) at M = 10 words, n = 4,
//! against best-fit on two threads — `pcb worst-case 10 2 best-fit`. It
//! runs no code from the heap, manager or program layers, and memory
//! (the seen-set) is what limits it. It has no seed.

use std::hint::black_box;
use std::time::Instant;

use partial_compaction::exhaustive::{try_worst_case_observed, SearchPolicy, SearchReport};
use partial_compaction::{Params, RunConfig};

use crate::layers::clock_pair_ns;
use crate::spans::Spans;
use crate::{end_to_end, median, repeat, setup_seconds, Outcome};

const M: u64 = 10;
const LOG_N: u32 = 2;
/// The compaction bound the CLI passes; the non-moving search ignores it.
const C: u64 = 10;
const POLICY: SearchPolicy = SearchPolicy::BestFit;
const MAX_STATES: usize = 50_000_000;
const THREADS: usize = 2;
/// The pinned answer: worst-case heap size in words, reachable states,
/// BFS levels and the widest frontier.
const PINNED: (u64, usize, usize, usize) = (20, 635_759, 89, 21_774);
/// Set-ups per set-up sample: one is far below the clock's resolution.
pub const SETUP_REPS: u32 = 10_000;

fn params() -> Params {
    Params::new(M, LOG_N, C).expect("the search parameters are valid")
}

fn search(threads: usize, on_level: impl FnMut()) -> Result<SearchReport, String> {
    let mut on_level = on_level;
    let run = RunConfig::default().with_threads(threads);
    try_worst_case_observed(params(), POLICY, MAX_STATES, &run, |_| on_level())
        .map_err(|e| e.to_string())
}

fn pinned(r: &SearchReport) -> bool {
    (
        r.worst.heap_size,
        r.worst.states,
        r.stats.levels,
        r.stats.peak_frontier,
    ) == PINNED
}

/// The workload's inputs, the search `Params`; a non-zero `variant`
/// moves `c`, which the search ignores.
pub fn setup(_seed: u64, variant: u64) {
    black_box(Params::new(M, LOG_N, C + variant).expect("valid parameters"));
}

pub fn timed(seconds: f64) -> Result<Outcome, String> {
    let setup_s = setup_seconds("search-bestfit", 0)?;
    let iterations = repeat(seconds, 3, || search(THREADS, || {}));
    let mut out = Outcome::default();
    let mut work = Vec::with_capacity(iterations.len());
    for iteration in &iterations {
        let report = iteration.result.as_ref().map_err(String::clone)?;
        out.check(1, pinned(report), &format!("answer {report:?}"));
        work.push(report.worst.states as u64);
    }
    end_to_end(&mut out, setup_s, &iterations, &work);
    Ok(out)
}

pub fn traced() -> Result<Outcome, String> {
    let pair_ns = clock_pair_ns();
    let mut out = Outcome::default();
    let mut spans = Spans::new();

    let start = Instant::now();
    let plain = search(THREADS, || {})?;
    let two_threads_s = start.elapsed().as_secs_f64();
    out.check(1, pinned(&plain), &format!("answer {plain:?}"));

    // Traced: one span per BFS level.
    let mut marks = Vec::new();
    let start = Instant::now();
    let traced = search(THREADS, || marks.push(Instant::now()))?;
    let end = Instant::now();
    let traced_s = (end - start).as_secs_f64();
    out.check(
        1,
        traced == plain,
        &format!("traced {traced:?} != untraced"),
    );
    let root = spans.push(0, "search-bestfit", start, end, Vec::new());
    let mut levels = Vec::with_capacity(marks.len());
    let mut from = start;
    for (level, &at) in marks.iter().enumerate() {
        let secs = (at - from).as_secs_f64();
        spans.push(
            root,
            format!("level {level}"),
            from,
            at,
            vec![("search_s", secs)],
        );
        levels.push(secs);
        from = at;
    }
    let path = spans
        .write("search-bestfit")
        .map_err(|e| format!("trace file: {e}"))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());

    let start = Instant::now();
    let one = search(1, || {})?;
    let one_thread_s = start.elapsed().as_secs_f64();
    // Only the seen-set's resident bytes depend on the shard count.
    let agree = (one.worst == plain.worst)
        && (
            one.stats.levels,
            one.stats.peak_frontier,
            one.stats.payload_words,
        ) == (
            plain.stats.levels,
            plain.stats.peak_frontier,
            plain.stats.payload_words,
        );
    out.check(1, agree, &format!("1-thread {one:?} != 2-thread"));

    let level_max = levels.iter().copied().fold(0.0, f64::max);
    out.metric("search.levels", plain.stats.levels as f64, "count");
    out.metric(
        "search.peak_frontier",
        plain.stats.peak_frontier as f64,
        "count",
    );
    out.metric(
        "search.bytes_per_state",
        plain.stats.resident_bytes as f64 / plain.worst.states as f64,
        "bytes",
    );
    out.metric("search.level_s_p50", median(&mut levels), "s");
    out.metric("search.level_s_max", level_max, "s");
    out.metric("parallel.speedup_2t", one_thread_s / two_threads_s, "ratio");
    out.metric("trace.timer_ns", pair_ns, "ns");
    out.metric(
        "trace.overhead_ratio",
        traced_s / two_threads_s - 1.0,
        "ratio",
    );
    out.metric("trace.wall_s", traced_s, "s");
    out.metric("trace.spans", spans.len() as f64, "count");
    Ok(out)
}
