//! The packed exhaustive search against its seed implementation.
//!
//! Every cell of a pinned `(M, log₂ n, policy)` grid runs twice: through
//! the retained seed implementation (`exhaustive::reference`: `Vec`
//! states, `HashSet` dedup, clone per successor) and through the
//! packed/interned pipeline behind `exhaustive::try_worst_case`. Both
//! must certify the same `WorstCase` (asserted); the cell reports
//! states/second and seen-set bytes/state for each side.

use partial_compaction::exhaustive::{reference, try_worst_case, SearchPolicy};
use partial_compaction::{note, telemetry, Params};

use crate::harness::{best_of, Cell, SuiteReport};

/// The largest state count either implementation may visit.
const MAX_STATES: usize = 50_000_000;

/// The pinned grid. Smoke cells are tiny (hundreds to thousands of
/// states); full cells are the largest the deliberately slow reference
/// implementation still traverses in a best-of-three loop.
fn grid(smoke: bool) -> [(u64, u32, SearchPolicy); 4] {
    let (m, big_m, log_n) = if smoke { (6, 8, 1) } else { (8, 10, 2) };
    [
        (m, log_n, SearchPolicy::FirstFit),
        (m, log_n, SearchPolicy::BestFit),
        (m, log_n, SearchPolicy::NextFit),
        (big_m, log_n, SearchPolicy::FirstFit),
    ]
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 1 } else { 3 };
    let mut report = SuiteReport::default();
    let (mut total_seed, mut total_packed) = (0.0f64, 0.0f64);
    let mut min_bytes_ratio = f64::INFINITY;
    for (m, log_n, policy) in grid(smoke) {
        let label = format!("{}/M={m},log_n={log_n}", policy.name());
        let params = Params::new(m, log_n, 10).expect("grid cell is a valid Params");
        let (seed_seconds, seed) = best_of(iters, || {
            reference::worst_case(params, policy, MAX_STATES).expect("grid cell is toy-scale")
        });
        let (packed_seconds, packed) = {
            let _span = telemetry::span!("bench.packed_search");
            best_of(iters, || {
                try_worst_case(params, policy, MAX_STATES).expect("grid cell is toy-scale")
            })
        };
        assert_eq!(
            packed.worst, seed.worst,
            "{label}: packed search diverged from the seed implementation"
        );
        let states = packed.worst.states as f64;
        let seed_bytes_per_state = seed.resident_bytes as f64 / states;
        let packed_bytes_per_state = packed.stats.resident_bytes as f64 / states;
        let bytes_ratio = seed_bytes_per_state / packed_bytes_per_state;
        min_bytes_ratio = min_bytes_ratio.min(bytes_ratio);
        let speedup = seed_seconds / packed_seconds;
        note!(
            "  {label:24} {:9} states  seed {seed_seconds:7.3}s  packed {packed_seconds:7.3}s  \
             speedup {speedup:4.2}x  {seed_bytes_per_state:5.1} -> \
             {packed_bytes_per_state:4.1} bytes/state ({bytes_ratio:.2}x)",
            packed.worst.states,
        );
        total_seed += seed_seconds;
        total_packed += packed_seconds;
        report.cell(
            Cell::new(label, packed_seconds, states)
                .with("heap_size", packed.worst.heap_size)
                .with("states", packed.worst.states)
                .with("levels", packed.stats.levels)
                .with("peak_frontier", packed.stats.peak_frontier)
                .with("seed_seconds", seed_seconds)
                .with("speedup", speedup)
                .with("seed_throughput_states_per_sec", states / seed_seconds)
                .with("seed_bytes_per_state", seed_bytes_per_state)
                .with("packed_bytes_per_state", packed_bytes_per_state)
                .with("bytes_ratio", bytes_ratio)
                .with("identical", true),
        );
    }
    report.value("iters_per_cell", iters);
    report.value("max_states", MAX_STATES);
    report.value("total_seed_seconds", total_seed);
    report.value("total_packed_seconds", total_packed);
    report.value("overall_speedup", total_seed / total_packed);
    report.value("min_bytes_ratio", min_bytes_ratio);
    report
}
