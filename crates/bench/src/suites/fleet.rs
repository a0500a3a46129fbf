//! Fleet-scale throughput: tenants/second, the aggregation footprint,
//! and the fleet-wide waste distribution against the paper's bounds.
//!
//! Every cell (workload mix × manager) runs at explicit thread counts 1
//! and 2 first; the aggregate reports must be byte-identical (asserted)
//! before the single-threaded run is timed. `resident_bytes` is the
//! "O(shards), not O(tenants)" claim as a number; the waste distribution
//! sits next to Theorem 1's `h` for the largest tenant class. Smoke
//! shrinks the tenant count per cell.

use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig};
use partial_compaction::workload::{MixWeights, MixerConfig};
use partial_compaction::{bounds, note, ManagerKind, Params, RunConfig};
use pcb_json::ToJson;

use crate::harness::{Cell, SuiteReport};

const ADVERSARY_ONLY: MixWeights = MixWeights {
    churn: 0,
    ramp: 0,
    replay: 0,
    adversary: 1,
};

pub(super) fn run(smoke: bool) -> SuiteReport {
    let tenants: u64 = if smoke { 1_000 } else { 20_000 };
    let mut report = SuiteReport::default();
    let mut total_seconds = 0.0f64;
    for (name, manager, weights) in [
        (
            "mixed/first-fit",
            ManagerKind::FirstFit,
            MixWeights::default(),
        ),
        ("adversary/first-fit", ManagerKind::FirstFit, ADVERSARY_ONLY),
        (
            "mixed/compacting",
            ManagerKind::PagesThm2,
            MixWeights::default(),
        ),
    ] {
        let cfg = FleetConfig {
            tenants,
            shards: 64,
            manager,
            mixer: MixerConfig {
                weights,
                ..MixerConfig::default()
            },
        };
        let single = RunConfig::default();
        let report_at = |run: &RunConfig| fleet::run(&cfg, run).expect("fleet cell runs");
        assert_eq!(
            report_at(&single).to_json().to_string(),
            report_at(&single.with_threads(2)).to_json().to_string(),
            "{name}: aggregate report differs across thread counts"
        );

        let start = Instant::now();
        let fleet = report_at(&single);
        let seconds = start.elapsed().as_secs_f64();
        total_seconds += seconds;
        // Theorem 1's bound for the largest tenant class, as the
        // reference line the measured distribution sits under.
        let h = Params::new(cfg.mixer.m_max, cfg.mixer.log_n, cfg.mixer.c)
            .map(bounds::thm1::factor)
            .unwrap_or(1.0);
        note!(
            "  {name:22} {tenants:7} tenants  {seconds:6.2}s  {:8.0}/s  p50 {:.3}  p99 {:.3}  \
             max {:.3}  (thm1 h {h:.3})",
            tenants as f64 / seconds,
            fleet.p50_waste,
            fleet.p99_waste,
            fleet.max_waste,
        );
        report.cell(
            Cell::new(name, seconds, tenants as f64)
                .with("tenants", tenants)
                .with("shards", cfg.shards)
                .with("resident_bytes", fleet.resident_bytes)
                .with("p50_waste", fleet.p50_waste)
                .with("p99_waste", fleet.p99_waste)
                .with("max_waste", fleet.max_waste)
                .with("mean_waste", fleet.mean_waste)
                .with("thm1_h", h)
                .with("objects_placed", fleet.accumulator.objects_placed)
                .with("words_moved", fleet.accumulator.words_moved)
                .with("identical_across_threads", true),
        );
    }
    report.value("timed_threads", 1u64);
    report.value("tenants_per_cell", tenants);
    report.value("total_seconds", total_seconds);
    report
}
