//! The chaos harness: the cost of being able to break things, and how
//! fast breakage is noticed (DESIGN.md §2.12).
//!
//! * **Fault-free overhead.** An armed [`FaultPlan`] adds one splitmix64
//!   roll per decision point; an unarmed one a single array load. The
//!   suite times the same fleet unarmed and armed with a rate so low it
//!   never fires, round-robin to cancel machine drift. Budget: the
//!   overhead stays within ±25%, enforced.
//! * **Detection latency.** With a mirror corruption injected at a
//!   chaos-chosen round and paranoia sweeping every `k` rounds, the
//!   divergence must surface within `k` rounds. One cell per cadence
//!   pins the injected and detected rounds from a deterministic seed
//!   scan.

use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig};
use partial_compaction::heap::{Execution, ExecutionError, Heap};
use partial_compaction::workload::{ChurnConfig, ChurnWorkload, MixerConfig, SizeDist};
use partial_compaction::{note, FaultPlan, FaultSite, ManagerKind, Params, RunConfig};

use crate::harness::{best_of, Budget, Cell, SuiteReport};

/// One detection-latency cell: the first plan seed (scanned
/// deterministically from 0) whose injected mirror corruption is caught
/// by the paranoia sweep rather than by a referee collision, so the
/// latency is the sweep's and the cell is byte-stable.
fn detection_cell(cadence: u32) -> Cell {
    const M: u64 = 1 << 12;
    const LOG_N: u32 = 6;
    let params = Params::new(M, LOG_N, 2).expect("valid params");
    let start = Instant::now();
    for plan_seed in 0u64..64 {
        let mut cfg = ChurnConfig::typical(M, LOG_N);
        cfg.rounds = 64;
        cfg.allocs_per_round = 16;
        cfg.target_live = 0.5;
        // Fixed 4-word objects: the injected corruption is a lone free
        // word inside an occupied extent, so no request ever lands on it
        // and the paranoia sweep, not a referee collision, catches it.
        cfg.dist = SizeDist::Fixed(4);
        let manager = ManagerKind::FirstFit.try_build(&params).expect("builds");
        let plan = FaultPlan::new(plan_seed).with_rate(FaultSite::MirrorFlip, 1_000_000);
        let mut exec = Execution::new(Heap::non_moving(), ChurnWorkload::new(cfg), manager)
            .with_chaos(plan)
            .with_paranoia(cadence);
        if let Err(ExecutionError::MirrorDivergence {
            round,
            injected_round: Some(injected),
            ..
        }) = exec.run_summary()
        {
            let latency = round - injected;
            note!(
                "  paranoia {cadence}: injected @ {injected}, detected @ {round} \
                 (latency {latency} rounds, seed {plan_seed})"
            );
            let seeds = (plan_seed + 1) as f64;
            return Cell::new(
                format!("paranoia/{cadence}"),
                start.elapsed().as_secs_f64(),
                seeds,
            )
            .with("paranoia", cadence)
            .with("plan_seed", plan_seed)
            .with("injected_round", injected)
            .with("detected_round", round)
            .with("latency_rounds", latency)
            .with("within_cadence", latency < cadence);
        }
    }
    panic!("no seed in 0..64 yields a paranoia-detected divergence at cadence {cadence}");
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let tenants: u64 = if smoke { 1_000 } else { 10_000 };
    let iterations: u32 = if smoke { 10 } else { 5 };
    let total = Instant::now();
    let cfg = FleetConfig {
        tenants,
        shards: 64,
        manager: ManagerKind::FirstFit,
        mixer: MixerConfig::default(),
    };
    let unarmed = RunConfig::default();
    // One part per million on the tenant-panic stream: the plan is armed
    // (every decision point pays the roll) but over `tenants` decisions
    // it is overwhelmingly unlikely to fire, and if it ever does the
    // panic is quarantined, not timed differently.
    let armed =
        RunConfig::default().with_chaos(FaultPlan::new(1).with_rate(FaultSite::TenantPanic, 1));
    let timed = |run: &RunConfig| best_of(1, || fleet::run(&cfg, run).expect("fleet runs")).0;
    let (mut unarmed_seconds, mut armed_seconds) = (0.0f64, 0.0f64);
    for _ in 0..iterations {
        unarmed_seconds += timed(&unarmed);
        armed_seconds += timed(&armed);
    }
    let overhead_pct = (armed_seconds - unarmed_seconds) / unarmed_seconds * 100.0;
    note!(
        "  fault-free overhead: unarmed {unarmed_seconds:.2}s, armed {armed_seconds:.2}s \
         ({overhead_pct:+.1}%) over {iterations} iterations"
    );

    let mut report = SuiteReport::default();
    let runs = (tenants * u64::from(iterations)) as f64;
    report.cell(Cell::new("unarmed", unarmed_seconds, runs));
    report.cell(Cell::new("armed", armed_seconds, runs));
    for cadence in [1u32, 2, 4, 8] {
        report.cell(detection_cell(cadence));
    }
    report.value("timed_threads", 1u64);
    report.value("tenants", tenants);
    report.value("iterations", iterations);
    report.value("chaos_overhead_pct", overhead_pct);
    report.value("total_seconds", total.elapsed().as_secs_f64());
    report.budget(Budget::magnitude_at_most(
        "chaos_overhead_pct",
        overhead_pct,
        25.0,
    ));
    report
}
