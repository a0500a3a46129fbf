//! Wall-clock cost of the observability layer.
//!
//! Runs the empirical adversary grid three ways and times each:
//!
//! 1. `raw`: the engine driven directly (`Execution::run`);
//! 2. `detached`: the `sim::Sim` builder with nothing attached, which
//!    must produce byte-identical reports to `raw` (asserted) at the same
//!    speed, since the engine still takes its unobserved path;
//! 3. `attached`: the full pipeline, an event stream to a JSONL trace
//!    writer, a per-round time series and manager placement stats at
//!    once; reports must stay identical (asserted).
//!
//! The three modes run round-robin within each iteration, so slow drift
//! (thermal, cache, scheduler) lands on all of them, and each reports
//! its median. The attached pipeline's budget (at most 25% over
//! detached) is reported, not enforced: the engine got several times
//! faster since the budget was set, and the per-event cost of the
//! attached observers did not.

use partial_compaction::{
    note, sim, Execution, Heap, ManagerKind, Params, PfConfig, PfProgram, TraceWriter,
};

use crate::harness::{best_of, median, Budget, Cell, SuiteReport};

fn grid(smoke: bool) -> Vec<(Params, ManagerKind)> {
    let shifts: &[(u32, u32)] = if smoke {
        &[(14, 10)]
    } else {
        &[(14, 10), (16, 10)]
    };
    let cs: &[u64] = if smoke { &[20] } else { &[10, 20, 50, 100] };
    let mut cells = Vec::new();
    for &(m_shift, log_n) in shifts {
        for &c in cs {
            let params = Params::new(1 << m_shift, log_n, c).expect("valid grid point");
            for kind in ManagerKind::ALL {
                cells.push((params, kind));
            }
        }
    }
    cells
}

/// The engine driven directly, without the `Sim` builder.
fn run_raw(cells: &[(Params, ManagerKind)]) -> String {
    let mut out = Vec::new();
    for &(params, kind) in cells {
        let cfg = PfConfig::new(params.m(), params.log_n(), params.c()).expect("feasible");
        let heap = if kind.is_unbounded() {
            Heap::unlimited_compaction()
        } else {
            Heap::new(params.c())
        };
        let mut exec = Execution::new(heap, PfProgram::new(cfg), kind.build(&params));
        let report = exec.run().expect("cell runs");
        out.push(format!("{report:?}"));
    }
    out.join("\n")
}

fn run_detached(cells: &[(Params, ManagerKind)]) -> String {
    let mut out = Vec::new();
    for &(params, kind) in cells {
        let report = sim::Sim::new(params)
            .manager(kind)
            .run()
            .expect("cell runs");
        out.push(format!("{:?}", report.execution));
    }
    out.join("\n")
}

/// Everything on at once: streamed trace + per-round series + stats.
fn run_attached(cells: &[(Params, ManagerKind)]) -> (String, u64) {
    let mut out = Vec::new();
    let mut events = 0u64;
    for &(params, kind) in cells {
        let mut writer = TraceWriter::new(std::io::sink()).begin(params.c());
        let report = sim::Sim::new(params)
            .manager(kind)
            .observe(&mut writer)
            .series(1)
            .stats(true)
            .run()
            .expect("cell runs");
        events += writer.events_seen();
        writer.finish().expect("sink never fails");
        assert!(report.series.is_some() && report.stats.is_some());
        out.push(format!("{:?}", report.execution));
    }
    (out.join("\n"), events)
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 1 } else { 5 };
    let cells = grid(smoke);
    let (mut raw, mut detached, mut attached) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0u64;
    for _ in 0..iters {
        let (raw_s, raw_fp) = best_of(1, || run_raw(&cells));
        let (detached_s, detached_fp) = best_of(1, || run_detached(&cells));
        assert_eq!(
            raw_fp, detached_fp,
            "the detached builder must reproduce the raw engine exactly"
        );
        let (attached_s, (attached_fp, iter_events)) = best_of(1, || run_attached(&cells));
        assert_eq!(
            raw_fp, attached_fp,
            "observation must not change any report field"
        );
        raw.push(raw_s);
        detached.push(detached_s);
        attached.push(attached_s);
        events = iter_events;
    }
    let (raw_s, detached_s) = (median(&raw), median(&detached));
    let attached_s = median(&attached);
    let detached_pct = (detached_s / raw_s - 1.0) * 100.0;
    let attached_pct = (attached_s / detached_s - 1.0) * 100.0;
    note!(
        "  {} cells, median of {iters}: raw {raw_s:.3}s, detached {detached_s:.3}s \
         ({detached_pct:+.1}%), attached {attached_s:.3}s ({attached_pct:+.1}% over \
         detached, {events} events streamed)",
        cells.len()
    );

    let n = cells.len() as f64;
    let mut report = SuiteReport::default();
    report.cell(Cell::new("raw", raw_s, n));
    report.cell(Cell::new("detached", detached_s, n));
    report.cell(Cell::new("attached", attached_s, n).with("events_streamed", events));
    report.value("iters_per_config", iters);
    report.value("cells", cells.len());
    report.value("detached_overhead_pct", detached_pct);
    report.value("attached_overhead_pct", attached_pct);
    report.value("reports_identical", true);
    report.budget(Budget::at_most("attached_overhead_pct", attached_pct, 25.0).reported_only());
    report
}
