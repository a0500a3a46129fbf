//! The benchmark suites `pcb bench run` runs, in run order.
//!
//! Eight suites gate the fast structures against their in-process
//! oracles and the observability, chaos and metric planes against their
//! overhead budgets; three time the paper's figures, adversaries and
//! allocator churn. Every suite asserts that what it timed computed the
//! right answer before it reports a number.

mod alloc;
mod chaos;
mod fleet;
mod heap;
mod metrics;
mod micro;
mod obs;
mod parallel;
mod search;

use crate::harness::{Suite, SuiteReport};

const fn suite(name: &'static str, traced: bool, run: fn(bool) -> SuiteReport) -> Suite {
    Suite { name, traced, run }
}

/// Every suite, in run order.
pub static ALL: [Suite; 11] = [
    suite("parallel", true, parallel::run),
    suite("obs", false, obs::run),
    suite("search", true, search::run),
    suite("heap", true, heap::run),
    suite("alloc", false, alloc::run),
    suite("fleet", false, fleet::run),
    suite("chaos", false, chaos::run),
    suite("metrics", false, metrics::run),
    suite("figures", false, micro::figures),
    suite("adversary", false, micro::adversary),
    suite("allocators", false, micro::allocators),
];

/// The suite named `name`.
///
/// # Errors
///
/// A message listing the suite names when none is called `name`.
pub fn find(name: &str) -> Result<&'static Suite, String> {
    ALL.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|s| s.name).collect();
        format!("unknown suite {name} (one of: {})", names.join(" "))
    })
}
