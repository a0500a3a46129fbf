//! The parallel experiment engine against its sequential path.
//!
//! Runs a fixed sweep / exhaustive-search / empirical workload twice,
//! once with `PCB_THREADS=1` (the exact sequential code path) and once
//! with the caller's parallelism, and asserts both compute identical
//! results. Smoke shrinks every workload and runs one iteration; full
//! mode takes the best of three.
//!
//! The `speedup_meaningful` value is false when the run has more worker
//! threads than the host has cores: such a "speedup" measures
//! time-slicing, not parallelism.

use partial_compaction::exhaustive::{worst_case, SearchPolicy};
use partial_compaction::sweep::{over_c, Bound};
use partial_compaction::{note, parallel, sim, telemetry, ManagerKind, Params};
use pcb_json::ToJson;

use crate::harness::{best_of, host_cores, Cell, SuiteReport};

/// One workload: a named closure whose return value is a deterministic
/// fingerprint of everything it computed.
struct Workload {
    name: &'static str,
    items: usize,
    run: Box<dyn Fn() -> String>,
}

fn empirical_workload(smoke: bool) -> Workload {
    let shifts: &[(u32, u32)] = if smoke {
        &[(14, 10)]
    } else {
        &[(14, 10), (16, 10)]
    };
    let cs: &[u64] = if smoke { &[20] } else { &[10, 20, 50, 100] };
    let mut cells: Vec<(Params, ManagerKind)> = Vec::new();
    for &(m_shift, log_n) in shifts {
        for &c in cs {
            let params = Params::new(1 << m_shift, log_n, c).expect("valid grid point");
            for kind in ManagerKind::ALL {
                cells.push((params, kind));
            }
        }
    }
    Workload {
        name: "empirical",
        items: cells.len(),
        run: Box::new(move || {
            let reports = parallel::par_map(&cells, |&(params, kind)| {
                sim::Sim::new(params)
                    .manager(kind)
                    .run()
                    .expect("grid cell runs")
            });
            reports
                .iter()
                .map(|r| r.to_json().to_string())
                .collect::<Vec<_>>()
                .join("\n")
        }),
    }
}

fn search_workload(smoke: bool) -> Workload {
    let cases: Vec<(u64, u32, SearchPolicy)> = if smoke {
        vec![(6, 1, SearchPolicy::FirstFit)]
    } else {
        vec![
            (8, 2, SearchPolicy::FirstFit),
            (8, 2, SearchPolicy::BestFit),
        ]
    };
    Workload {
        name: "search",
        items: cases.len(),
        run: Box::new(move || {
            cases
                .iter()
                .map(|&(m, log_n, policy)| {
                    let params = Params::new(m, log_n, 10).expect("toy params");
                    let wc = worst_case(params, policy, 10_000_000);
                    format!(
                        "{}/{}: HS={} states={}",
                        policy.name(),
                        params,
                        wc.heap_size,
                        wc.states
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        }),
    }
}

fn sweep_workload(smoke: bool) -> Workload {
    let hi: u64 = if smoke { 100 } else { 3000 };
    Workload {
        name: "sweep",
        items: 2 * (hi - 10 + 1) as usize,
        run: Box::new(move || {
            let lower = over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=hi);
            let upper = over_c(Bound::Thm2Upper, 1 << 28, 20, 10..=hi);
            format!("{}\n{}", lower.to_json(), upper.to_json())
        }),
    }
}

/// Runs `run` with `PCB_THREADS` pinned to 1, then restores the
/// caller's value. No worker threads are alive on either side of the
/// switch, so mutating the variable is race-free.
fn sequential<T>(run: impl FnOnce() -> T) -> T {
    let caller = std::env::var("PCB_THREADS").ok();
    std::env::set_var("PCB_THREADS", "1");
    assert_eq!(parallel::thread_count(), 1);
    let out = run();
    match caller {
        Some(v) => std::env::set_var("PCB_THREADS", v),
        None => std::env::remove_var("PCB_THREADS"),
    }
    out
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 1 } else { 3 };
    let threads = parallel::thread_count();
    let mut report = SuiteReport::default();
    let (mut total_seq, mut total_par) = (0.0f64, 0.0f64);
    for workload in [
        sweep_workload(smoke),
        search_workload(smoke),
        empirical_workload(smoke),
    ] {
        let (seq_seconds, seq_fingerprint) = sequential(|| {
            let _span = telemetry::span!("bench.sequential");
            best_of(iters, &workload.run)
        });
        let (par_seconds, par_fingerprint) = {
            let _span = telemetry::span!("bench.parallel");
            best_of(iters, &workload.run)
        };
        assert_eq!(
            seq_fingerprint, par_fingerprint,
            "{}: parallel run diverged from sequential",
            workload.name
        );
        let speedup = seq_seconds / par_seconds;
        note!(
            "  {:10} {:4} items  seq {:8.3}s  par {:8.3}s  speedup {:.2}x",
            workload.name,
            workload.items,
            seq_seconds,
            par_seconds,
            speedup
        );
        total_seq += seq_seconds;
        total_par += par_seconds;
        report.cell(
            Cell::new(workload.name, par_seconds, workload.items as f64)
                .with("items", workload.items)
                .with("seq_seconds", seq_seconds)
                .with("speedup", speedup)
                .with("identical", true),
        );
    }
    let speedup_meaningful = host_cores() >= threads;
    if !speedup_meaningful {
        note!(
            "  {threads} threads on a {}-core host: the speedups measure \
             oversubscription, not parallelism",
            host_cores()
        );
    }
    report.value("speedup_meaningful", speedup_meaningful);
    report.value("iters_per_config", iters);
    report.value("total_seq_seconds", total_seq);
    report.value("total_par_seconds", total_par);
    report.value("overall_speedup", total_seq / total_par);
    report
}
