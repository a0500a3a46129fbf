//! Three small suites: the paper's figure series (E1–E3), the
//! adversary-vs-manager runs of the empirical experiments (E5–E7), and
//! the manager substrate under fragmentation-heavy churn. Each cell is
//! the best of a few runs; the assertions pin each figure's row count
//! and each adversary's bound.

use std::hint::black_box;

use partial_compaction::figures::{figure1, figure2, figure3};
use partial_compaction::heap::{Execution, Heap, ScriptedProgram, Size};
use partial_compaction::{bounds, sim, ManagerKind, Params, PfVariant};

use crate::harness::{best_of, Cell, SuiteReport};

/// Times `run` over `calls` back-to-back calls, best of three batches.
fn cell<T>(name: &str, calls: u32, mut run: impl FnMut() -> T) -> Cell {
    let (seconds, _) = best_of(3, || {
        for _ in 0..calls {
            black_box(run());
        }
    });
    Cell::new(name, seconds, f64::from(calls)).with("calls", calls)
}

/// The series of every figure, and one bound evaluation each.
pub(super) fn figures(smoke: bool) -> SuiteReport {
    let (series, points) = if smoke { (2, 1_000) } else { (20, 10_000) };
    let p = Params::paper_example(50);
    let mut report = SuiteReport::default();
    report.cell(cell("fig1/series", series, || {
        let rows = figure1();
        assert_eq!(rows.len(), 91);
        rows
    }));
    report.cell(cell("fig1/thm1_point", points, || {
        bounds::thm1::factor(black_box(p))
    }));
    report.cell(cell("fig2/series", series, || {
        let rows = figure2();
        assert_eq!(rows.len(), 21);
        rows
    }));
    report.cell(cell("fig3/series", series, || {
        let rows = figure3();
        assert_eq!(rows.len(), 91);
        rows
    }));
    report.cell(cell("fig3/thm2_point", points, || {
        bounds::thm2::factor(black_box(p))
    }));
    report
}

/// `P_F` against every manager, Robson's `P_R` against two, and the
/// full and baseline `P_F` variants.
pub(super) fn adversary(smoke: bool) -> SuiteReport {
    let runs = if smoke { 1 } else { 5 };
    let pf = Params::new(1 << 14, 10, 20).expect("valid");
    let robson = Params::new(1 << 12, 6, 10).expect("valid");
    let mut report = SuiteReport::default();
    for kind in ManagerKind::ALL {
        report.cell(cell(&format!("pf/{}", kind.name()), runs, || {
            let report = sim::Sim::new(pf).manager(kind).run().expect("P_F runs");
            assert!(report.waste_over_bound >= 0.9);
            report
        }));
    }
    for kind in [ManagerKind::FirstFit, ManagerKind::Robson] {
        report.cell(cell(&format!("robson/{}", kind.name()), runs, || {
            let report = sim::Sim::new(robson)
                .adversary(sim::Adversary::Robson)
                .manager(kind)
                .run()
                .expect("P_R runs");
            assert!(report.waste_over_bound >= 1.0);
            report
        }));
    }
    for (name, variant) in [("full", PfVariant::FULL), ("baseline", PfVariant::BASELINE)] {
        report.cell(cell(&format!("ablation/{name}"), runs, || {
            sim::Sim::new(pf)
                .adversary(sim::Adversary::Pf(variant))
                .manager(ManagerKind::FirstFit)
                .run()
                .expect("runs")
        }));
    }
    report
}

/// A deterministic churn: interleaved sizes with periodic frees.
fn churn_script(rounds: usize) -> ScriptedProgram {
    let mut program = ScriptedProgram::new(Size::new(1 << 14));
    let mut base = 0usize;
    for r in 0..rounds {
        let sizes: Vec<u64> = (0..64).map(|i| 1 + ((i + r) % 16) as u64).collect();
        let frees: Vec<usize> = if r == 0 {
            Vec::new()
        } else {
            (base - 64..base).step_by(2).collect()
        };
        program = program.round(frees, sizes);
        base += 64;
    }
    program
}

/// Every manager under a fixed allocation/free churn: the baseline cost
/// model of all empirical experiments.
pub(super) fn allocators(smoke: bool) -> SuiteReport {
    let runs = if smoke { 2 } else { 10 };
    let params = Params::new(1 << 14, 6, 10).expect("valid");
    let mut report = SuiteReport::default();
    for kind in ManagerKind::ALL {
        report.cell(cell(&format!("churn/{}", kind.name()), runs, || {
            let heap = if kind.is_compacting() {
                Heap::new(10)
            } else {
                Heap::non_moving()
            };
            let mut exec = Execution::new(heap, churn_script(24), kind.build(&params));
            exec.run().expect("churn runs")
        }));
    }
    report
}
