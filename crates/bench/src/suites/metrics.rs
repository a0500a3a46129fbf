//! Wall-clock cost of the metric plane, against the two budgets the
//! design commits to: a **disabled** registry costs at most 1% of a real
//! run, and a fully **attached** fleet (per-tenant attribution counters,
//! histograms and shard-order snapshot merges) at most 5%. Both are
//! enforced.
//!
//! 1. `raw`: `fleet::run` with metrics off and the registry disabled,
//!    the shipping default. Every instrument site still executes its
//!    relaxed-load gate.
//! 2. `attached`: the same fleet with `RunConfig::with_metrics(true)`.
//!    Collection must not perturb the fleet (asserted).
//! 3. `gate`: the disabled budget cannot be measured as a run-vs-run
//!    delta (the gates cannot be compiled out at run time), so it is
//!    bounded from above: a micro-loop times one disabled instrument
//!    site, and `disabled_overhead_pct` is `sites × gate cost / raw run
//!    time`, a deliberate over-estimate (it charges the loop to the
//!    gate).
//! 4. `merge`: snapshot-merge throughput on fleet-shaped snapshots, since
//!    the merge runs once per shard on the aggregation path.
//!
//! Raw and attached run round-robin for several iterations (smoke too:
//! one iteration of a 256-tenant fleet is too short to hold a 5% budget)
//! and each reports its median.

use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig, FleetReport};
use partial_compaction::metrics::{self as pcb_metrics, Counter, MetricsSnapshot};
use partial_compaction::workload::MixerConfig;
use partial_compaction::{note, ManagerKind, RunConfig};
use pcb_json::ToJson;

use crate::harness::{best_of, median, Budget, Cell, SuiteReport};

/// Instrument sites a tenant run passes, generously: every engine
/// publish counter and gauge plus slack.
const SITES_PER_TENANT: u64 = 64;

fn fleet_cfg(smoke: bool) -> FleetConfig {
    FleetConfig {
        tenants: if smoke { 256 } else { 2000 },
        shards: 16,
        manager: ManagerKind::FirstFit,
        mixer: MixerConfig {
            m_min: 128,
            m_max: 1024,
            ..MixerConfig::default()
        },
    }
}

fn run_fleet(cfg: &FleetConfig, metrics: bool) -> FleetReport {
    let run = RunConfig::default().with_metrics(metrics);
    fleet::run(cfg, &run).expect("fleet runs")
}

/// Times `iters` disabled counter adds behind the relaxed-load gate.
fn gate_loop(iters: u64) -> f64 {
    static GATE_PROBE: Counter = Counter::new("bench.gate_probe");
    assert!(!pcb_metrics::enabled(), "probe must time the disabled path");
    best_of(1, || {
        for i in 0..iters {
            GATE_PROBE.add(std::hint::black_box(i) & 1);
        }
    })
    .0
}

/// A fleet-shaped snapshot: the families/attribution/histogram keys one
/// shard of a real run produces.
fn shard_snapshot(salt: u64) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    for family in ["churn", "ramp", "replay", "adversary"] {
        snap.add_counter(format!("fleet.tenants.{family}"), 31 + salt);
    }
    for name in [
        "fleet.objects_placed",
        "fleet.words_placed",
        "fleet.words_moved",
        "waste.external_words",
        "waste.ghost_words",
        "waste.internal_words",
    ] {
        snap.add_counter(name, 1_000_003 * (salt + 1));
    }
    snap.record_gauge_max("fleet.max_waste_milli", 1700 + salt);
    for i in 0..125u64 {
        snap.observe("fleet.waste_milli", (i * 37 + salt) % 4096);
        snap.observe("fleet.heap_size_words", (i * 113 + salt) % (1 << 20));
    }
    snap
}

/// Times `folds` shard-order folds of sixteen fleet-shaped shards;
/// returns the seconds and the merges done.
fn merge_loop(folds: u64) -> (f64, u64) {
    let shards: Vec<MetricsSnapshot> = (0..16).map(shard_snapshot).collect();
    let fold = || {
        let mut acc = MetricsSnapshot::new();
        shards.iter().for_each(|s| acc.merge(s));
        acc.to_json().to_string()
    };
    let expected = fold();
    let start = Instant::now();
    for _ in 0..folds {
        assert_eq!(
            fold(),
            expected,
            "merge must stay deterministic under repetition"
        );
    }
    (start.elapsed().as_secs_f64(), folds * shards.len() as u64)
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 101 } else { 5 };
    let cfg = fleet_cfg(smoke);

    let (mut raw, mut attached) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        let (raw_s, raw_report) = best_of(1, || run_fleet(&cfg, false));
        let (attached_s, attached_report) = best_of(1, || run_fleet(&cfg, true));
        // Every tenant-derived number matches; only the snapshot is new.
        let (r, a) = (&raw_report, &attached_report);
        assert!(
            r.accumulator.words_placed == a.accumulator.words_placed
                && r.accumulator.objects_placed == a.accumulator.objects_placed
                && r.mean_waste == a.mean_waste
                && r.max_waste == a.max_waste
                && a.metrics().is_some()
                && r.metrics().is_none(),
            "metric collection changed the fleet"
        );
        raw.push(raw_s);
        attached.push(attached_s);
    }
    let (raw_s, attached_s) = (median(&raw), median(&attached));
    let attached_pct = (attached_s / raw_s - 1.0) * 100.0;

    let gate_iters: u64 = if smoke { 2_000_000 } else { 20_000_000 };
    let gate_s = gate_loop(gate_iters);
    let gate_per_site = gate_s / gate_iters as f64;
    let raw_per_tenant = raw_s / cfg.tenants as f64;
    let disabled_pct = 100.0 * (SITES_PER_TENANT as f64 * gate_per_site) / raw_per_tenant;

    let (merge_s, merges) = merge_loop(if smoke { 200 } else { 2000 });

    note!(
        "  {} tenants, median of {iters}: raw {raw_s:.3}s, attached {attached_s:.3}s \
         ({attached_pct:+.2}%); disabled gate {:.2}ns/site -> {disabled_pct:.5}% bound; \
         merge {:.0}/s",
        cfg.tenants,
        gate_per_site * 1e9,
        merges as f64 / merge_s,
    );

    let tenants = cfg.tenants as f64;
    let mut report = SuiteReport::default();
    report.cell(Cell::new("raw", raw_s, tenants));
    report.cell(Cell::new("attached", attached_s, tenants));
    report.cell(
        Cell::new("gate", gate_s, gate_iters as f64).with("gate_seconds_per_site", gate_per_site),
    );
    report.cell(Cell::new("merge", merge_s, merges as f64));
    report.value("iters_per_config", iters);
    report.value("tenants", cfg.tenants);
    report.value("shards", cfg.shards);
    report.value("sites_per_tenant", SITES_PER_TENANT);
    report.value("attached_overhead_pct", attached_pct);
    report.value("disabled_overhead_pct", disabled_pct);
    report.value("reports_identical", true);
    report.budget(Budget::at_most("disabled_overhead_pct", disabled_pct, 1.0));
    report.budget(Budget::at_most("attached_overhead_pct", attached_pct, 5.0));
    report
}
