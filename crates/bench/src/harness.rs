//! One bench harness: every suite runs in one process and lands in one
//! artifact under one schema.
//!
//! ```text
//! {"smoke": bool, "threads": n, "host_cores": n,
//!  "suites": {"<suite>": {
//!     "values":  {...suite-level numbers...},
//!     "cells":   [{"name", "seconds", "throughput", ...identity values}],
//!     "budgets": [{"name", "value", "limit", "pass", "enforced"}]}}}
//! ```
//!
//! `pcb bench diff` reads the keys the way it always has: `seconds`,
//! `throughput` and any `*seconds*`/`*speedup*`/`*_pct` key are timing
//! and compare within a tolerance; everything else is identity. A
//! budget's `value` is a percentage and its `pass` is timing-derived.
//!
//! Smoke and full mode run the same cells (only the work per cell
//! shrinks), so a smoke artifact structure-checks against the full
//! baseline `BENCH_suites.json`. [`run`] reports whether every enforced
//! budget held; `pcb bench run` exits non-zero when one did not, after
//! the artifact is written.

use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use partial_compaction::{metrics, note, parallel, telemetry};
use pcb_json::Json;

/// One benchmark suite: a name and a function from the smoke flag to its
/// report.
#[derive(Debug)]
pub struct Suite {
    /// The name `pcb bench run <suite>` selects it by.
    pub name: &'static str,
    /// Whether `--trace-out` records the suite's engine spans. Suites that
    /// enforce an overhead budget run untraced, so the budget measures
    /// the shipping configuration.
    pub traced: bool,
    /// Runs the suite.
    pub run: fn(smoke: bool) -> SuiteReport,
}

/// A named, timed unit of work.
#[derive(Debug, Clone)]
pub struct Cell {
    name: String,
    seconds: f64,
    throughput: f64,
    values: Vec<(&'static str, Json)>,
}

impl Cell {
    /// A cell that did `items` units of work in `seconds`.
    pub fn new(name: impl Into<String>, seconds: f64, items: f64) -> Cell {
        Cell {
            name: name.into(),
            seconds,
            throughput: items / seconds,
            values: Vec::new(),
        }
    }

    /// Adds a value: identity unless its key names a timing quantity.
    pub fn with(mut self, key: &'static str, value: impl Into<Json>) -> Cell {
        self.values.push((key, value.into()));
        self
    }

    fn to_json(&self) -> Json {
        let fixed = [
            ("name", Json::from(self.name.as_str())),
            ("seconds", Json::from(self.seconds)),
            ("throughput", Json::from(self.throughput)),
        ];
        Json::object(fixed.into_iter().chain(self.values.iter().cloned()))
    }
}

/// A measured percentage against its limit.
#[derive(Debug, Clone)]
pub struct Budget {
    name: &'static str,
    value: f64,
    limit: f64,
    pass: bool,
    enforced: bool,
}

impl Budget {
    /// An enforced budget: `value <= limit`.
    pub fn at_most(name: &'static str, value: f64, limit: f64) -> Budget {
        let (pass, enforced) = (value <= limit, true);
        Budget {
            name,
            value,
            limit,
            pass,
            enforced,
        }
    }

    /// An enforced budget on the magnitude: `|value| <= limit`.
    pub fn magnitude_at_most(name: &'static str, value: f64, limit: f64) -> Budget {
        let pass = value.abs() <= limit;
        Budget {
            pass,
            ..Budget::at_most(name, value, limit)
        }
    }

    /// The same budget, reported in the artifact but never failing the
    /// run.
    pub fn reported_only(self) -> Budget {
        Budget {
            enforced: false,
            ..self
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::from(self.name)),
            ("value", Json::from(self.value)),
            ("limit", Json::from(self.limit)),
            ("pass", Json::from(self.pass)),
            ("enforced", Json::from(self.enforced)),
        ])
    }
}

/// What one suite measured.
#[derive(Debug, Clone, Default)]
pub struct SuiteReport {
    values: Vec<(&'static str, Json)>,
    cells: Vec<Cell>,
    budgets: Vec<Budget>,
}

impl SuiteReport {
    /// Adds a suite-level value.
    pub fn value(&mut self, key: &'static str, value: impl Into<Json>) {
        self.values.push((key, value.into()));
    }

    /// Adds a cell.
    pub fn cell(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Adds a budget.
    pub fn budget(&mut self, budget: Budget) {
        self.budgets.push(budget);
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("values", Json::object(self.values.iter().cloned())),
            ("cells", Json::array(self.cells.iter().map(Cell::to_json))),
            (
                "budgets",
                Json::array(self.budgets.iter().map(Budget::to_json)),
            ),
        ])
    }
}

/// The process-wide state a suite must leave as it found it.
#[derive(Debug, PartialEq)]
struct Globals {
    pcb_threads: Option<String>,
    metrics_enabled: bool,
    metrics: String,
    telemetry_enabled: bool,
}

impl Globals {
    fn capture() -> Globals {
        Globals {
            pcb_threads: std::env::var("PCB_THREADS").ok(),
            metrics_enabled: metrics::enabled(),
            metrics: pcb_json::ToJson::to_json(&metrics::snapshot()).to_string(),
            telemetry_enabled: telemetry::enabled(),
        }
    }
}

/// The machine's available parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Best-of-`iters` wall clock around `run`, returning the last value.
pub fn best_of<T>(iters: u32, mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        out = Some(black_box(run()));
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, out.expect("at least one iteration"))
}

/// Median of the samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Runs `suites` in order and writes the artifact to `out` as one JSON
/// line. With `trace_out`, the traced suites' engine spans go to that
/// path as a Chrome trace. Returns whether every enforced budget held.
///
/// # Panics
///
/// When a suite's own checks fail, or when a suite leaves `PCB_THREADS`,
/// the metrics registry or the telemetry registry changed.
///
/// # Errors
///
/// A failed write of the artifact or the trace.
pub fn run(
    suites: &[&Suite],
    smoke: bool,
    trace_out: Option<&Path>,
    out: &mut dyn Write,
) -> io::Result<bool> {
    let mut reports = Vec::new();
    let mut failed = Vec::new();
    for suite in suites {
        let before = Globals::capture();
        let traced = trace_out.is_some() && suite.traced;
        if traced {
            telemetry::enable();
        }
        let start = Instant::now();
        let report = (suite.run)(smoke);
        if traced {
            telemetry::disable();
        }
        assert_eq!(
            Globals::capture(),
            before,
            "suite {} changed process-wide state",
            suite.name
        );
        note!("{}: {:.2}s", suite.name, start.elapsed().as_secs_f64());
        for budget in &report.budgets {
            if budget.enforced && !budget.pass {
                failed.push(format!(
                    "{}.{} = {:.3} (limit {})",
                    suite.name, budget.name, budget.value, budget.limit
                ));
            }
        }
        reports.push((suite.name, report.to_json()));
    }
    let artifact = Json::object([
        ("smoke", Json::from(smoke)),
        ("threads", Json::from(parallel::thread_count())),
        ("host_cores", Json::from(host_cores())),
        ("suites", Json::object(reports)),
    ]);
    writeln!(out, "{artifact}")?;
    if let Some(path) = trace_out {
        let trace = telemetry::take_trace();
        std::fs::write(path, format!("{}\n", trace.to_chrome_trace()))?;
        let (spans, tracks) = (trace.len(), trace.tracks.len());
        note!(
            "trace: {spans} spans on {tracks} tracks -> {}",
            path.display()
        );
    }
    for failure in &failed {
        note!("budget failed: {failure}");
    }
    Ok(failed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The harness checks process-wide state, so its tests run one at a
    /// time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn failing(_smoke: bool) -> SuiteReport {
        let mut report = SuiteReport::default();
        report.cell(Cell::new("unit", 2.0, 4.0).with("items", 4u64));
        report.budget(Budget::at_most("within", 1.0, 5.0));
        report.budget(Budget::at_most("noted", 9.0, 5.0).reported_only());
        report.budget(Budget::magnitude_at_most("over", -7.0, 5.0));
        report
    }

    #[test]
    fn a_failed_enforced_budget_fails_the_run_after_the_artifact_is_written() {
        let suite = Suite {
            name: "failing",
            traced: false,
            run: failing,
        };
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        let pass = run(&[&suite], true, None, &mut out).expect("writes to memory");
        assert!(!pass, "|-7| > 5 is an enforced failure");
        let artifact = Json::parse(std::str::from_utf8(&out).unwrap()).expect("one JSON line");
        let suite = artifact.get("suites").and_then(|s| s.get("failing"));
        let cells = suite.and_then(|s| s.get("cells")).and_then(Json::as_array);
        let cell = &cells.expect("cells")[0];
        assert_eq!(cell.get("throughput").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cell.get("items").and_then(Json::as_u64), Some(4));
        let budgets = suite
            .and_then(|s| s.get("budgets"))
            .and_then(Json::as_array);
        let pass: Vec<_> = budgets
            .expect("budgets")
            .iter()
            .map(|b| b.get("pass"))
            .collect();
        let [Some(Json::Bool(true)), Some(Json::Bool(false)), Some(Json::Bool(false))] = pass[..]
        else {
            panic!("{pass:?}");
        };
    }

    #[test]
    fn reported_only_budgets_never_fail_the_run() {
        fn noted(_smoke: bool) -> SuiteReport {
            let mut report = SuiteReport::default();
            report.budget(Budget::at_most("noted", 9.0, 5.0).reported_only());
            report
        }
        let suite = Suite {
            name: "noted",
            traced: false,
            run: noted,
        };
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        assert!(run(&[&suite], true, None, &mut Vec::new()).unwrap());
    }

    #[test]
    fn a_suite_that_leaves_the_registry_enabled_is_caught() {
        fn leaky(_smoke: bool) -> SuiteReport {
            telemetry::enable();
            SuiteReport::default()
        }
        let suite = Suite {
            name: "leaky",
            traced: false,
            run: leaky,
        };
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let caught = std::panic::catch_unwind(|| run(&[&suite], true, None, &mut Vec::new()));
        telemetry::disable();
        let panic = caught.expect_err("the leak must be caught");
        let msg = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            msg.contains("suite leaky changed process-wide state"),
            "{msg}"
        );
    }
}
