//! `fleet-mixed`: `fleet::run` with the default `MixerConfig` (60% churn,
//! M 256–8192 words, 12 rounds × 8 allocations) under the mixer seed
//! given by `--seed`, 20 000 tenants in 64 shards against first-fit on
//! two threads. The same manager and referee layers as `pf-large`, but
//! serving many tiny short-lived heaps, with per-tenant construction,
//! sharding and aggregation on top.

use std::hint::black_box;
use std::time::Instant;

use partial_compaction::fleet::{self, FleetConfig, FleetReport};
use partial_compaction::heap::{Execution, Heap, HeapSummary};
use partial_compaction::workload::{MixerConfig, WorkloadMixer};
use partial_compaction::{metrics, ManagerKind, Params, RunConfig};
use pcb_json::ToJson;

use crate::layers::{clock_pair_ns, Counts, Layers, Split, TimedManager, TimedProgram};
use crate::spans::Spans;
use crate::{end_to_end, repeat, same_summary, setup_seconds, Outcome};

const TENANTS: u64 = 20_000;
const SHARDS: usize = 64;
const MANAGER: ManagerKind = ManagerKind::FirstFit;
const THREADS: usize = 2;

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        tenants: TENANTS,
        shards: SHARDS,
        manager: MANAGER,
        mixer: MixerConfig {
            seed,
            ..MixerConfig::default()
        },
    }
}

/// Each size bucket's `(M, log n, c)`, derived as `fleet::run` does.
fn bucket_params(mixer: &WorkloadMixer) -> Vec<Result<Params, String>> {
    let cfg = mixer.config();
    (0..mixer.size_buckets())
        .map(|rank| {
            let m = mixer.bucket_m(rank);
            let log_n = cfg.log_n.min(m.trailing_zeros().saturating_sub(1)).max(1);
            Params::new(m, log_n, cfg.c).map_err(|e| e.to_string())
        })
        .collect()
}

fn mixer(seed: u64) -> WorkloadMixer {
    WorkloadMixer::new(config(seed).mixer).expect("the default mix is valid")
}

/// One `fleet::run` and its report's JSON bytes.
fn run(seed: u64, threads: usize) -> Result<(String, FleetReport), String> {
    let report = fleet::run(&config(seed), &RunConfig::default().with_threads(threads))
        .map_err(|e| e.to_string())?;
    Ok((report.to_json().to_string(), report))
}

/// The workload's inputs: the fleet configuration, `WorkloadMixer::new`
/// and the bucket parameters; a non-zero `variant` changes the seed.
pub fn setup(seed: u64, variant: u64) {
    black_box(config(seed ^ variant));
    black_box(bucket_params(&mixer(seed ^ variant)));
}

pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let setup_s = setup_seconds("fleet-mixed", seed)?;
    let iterations = repeat(seconds, 3, || run(seed, THREADS));
    let mut out = Outcome::default();
    let mut work = Vec::with_capacity(iterations.len());
    let mut first: Option<String> = None;
    for iteration in &iterations {
        let (bytes, report) = iteration.result.as_ref().map_err(String::clone)?;
        let failed = report.accumulator.failed_tenants;
        let repeats = first.get_or_insert_with(|| bytes.clone()) == bytes;
        out.check(TENANTS - failed, repeats, "a repeated fleet report differs");
        if failed > 0 {
            out.check(failed, false, &format!("{failed} tenants quarantined"));
        }
        work.push(TENANTS - failed);
    }
    end_to_end(&mut out, setup_s, &iterations, &work);
    // Thread-count identity, outside the timed iterations.
    let (one_thread, _) = run(seed, 1)?;
    let agree = first.as_deref() == Some(one_thread.as_str());
    out.check(TENANTS, agree, "1-thread and 2-thread fleet reports differ");
    Ok(out)
}

/// Totals the rebuilt tenant loop must share with `fleet::run`.
#[derive(Debug, Default, PartialEq, Eq)]
struct LoopTotals {
    objects_placed: u64,
    words_placed: u64,
    words_moved: u64,
    failed: u64,
}

impl LoopTotals {
    fn add(&mut self, outcome: &Result<HeapSummary, String>) {
        match outcome {
            Ok(s) => {
                self.objects_placed += s.objects_placed;
                self.words_placed += s.words_placed;
                self.words_moved += s.words_moved;
            }
            Err(_) => self.failed += 1,
        }
    }
}

pub fn traced(seed: u64) -> Result<Outcome, String> {
    let pair_ns = clock_pair_ns();
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let root_start = Instant::now();

    let start = Instant::now();
    let (two, report) = run(seed, THREADS)?;
    let two_threads_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let (one, _) = run(seed, 1)?;
    let one_thread_s = start.elapsed().as_secs_f64();
    out.check(
        TENANTS,
        one == two,
        "1-thread and 2-thread fleet reports differ",
    );
    let acc = &report.accumulator;
    if acc.failed_tenants > 0 {
        let what = format!("{} tenants quarantined", acc.failed_tenants);
        out.check(acc.failed_tenants, false, &what);
    }

    // The tenant loop rebuilt from the public path, on one thread:
    // WorkloadMixer -> TenantProgram::instantiate -> try_build ->
    // Execution::run_summary.
    let mixer = mixer(seed);
    let buckets = bucket_params(&mixer);
    let build = |index: u64| {
        let spec = mixer.tenant(index);
        let params = buckets[spec.size_rank].clone()?;
        let start = Instant::now();
        let manager = MANAGER.try_build(&params).map_err(|e| e.to_string())?;
        let manager_s = start.elapsed().as_secs_f64();
        let heap = if mixer.family(&spec).needs_budget() || MANAGER.is_compacting() {
            Heap::new(params.c())
        } else {
            Heap::non_moving()
        };
        Ok::<_, String>((heap, mixer.instantiate(&spec), manager, manager_s))
    };
    let (mut build_s, mut manager_build_s, mut run_s) = (0.0, 0.0, 0.0);
    let mut plain = Vec::with_capacity(TENANTS as usize);
    let mut totals = LoopTotals::default();
    let loop_start = Instant::now();
    for index in 0..TENANTS {
        let start = Instant::now();
        let (heap, program, manager, manager_s) = build(index)?;
        let built = Instant::now();
        manager_build_s += manager_s;
        let mut exec = Execution::new(heap, program, manager);
        let summary = exec.run_summary().map_err(|e| e.to_string());
        build_s += (built - start).as_secs_f64();
        run_s += built.elapsed().as_secs_f64();
        // Dropped outside the timed run, as in the traced loop below.
        drop(exec);
        totals.add(&summary);
        plain.push(summary);
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let expected = LoopTotals {
        objects_placed: acc.objects_placed,
        words_placed: acc.words_placed,
        words_moved: acc.words_moved,
        failed: acc.failed_tenants,
    };
    out.check(
        TENANTS,
        totals == expected,
        &format!("rebuilt loop {totals:?} != fleet::run {expected:?}"),
    );
    // The same loop through the timing wrappers, with the metrics plane
    // on for the manager's scan counters.
    let (mut split, mut counts) = (Split::default(), Counts::default());
    let (mut traced_run_s, mut scanned, mut referee_ops) = (0.0, 0u64, 0u64);
    let mut tenant_spans = Vec::with_capacity(TENANTS as usize);
    metrics::reset();
    metrics::enable();
    for index in 0..TENANTS {
        let start = Instant::now();
        let (heap, program, manager, _) = build(index)?;
        let layers = Layers::new(false);
        let mut exec = Execution::new(
            heap,
            TimedProgram::new(program, layers.clone()),
            TimedManager::new(manager, layers.clone()),
        );
        let built = Instant::now();
        let summary = exec.run_summary().map_err(|e| e.to_string());
        let end = Instant::now();
        traced_run_s += (end - built).as_secs_f64();
        let tenant = Split::of(&layers, (end - built).as_nanos() as u64, pair_ns);
        split.add(tenant);
        counts.add(&layers);
        scanned += exec
            .heap()
            .space()
            .counters()
            .map_or(0, |c| c.words_scanned);
        let stats = exec.heap().stats();
        referee_ops += stats.objects_placed + stats.objects_freed + stats.objects_moved;
        let equal = match (&summary, &plain[index as usize]) {
            (Ok(a), Ok(b)) => same_summary(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        out.check(1, equal, &format!("tenant {index}: traced run differs"));
        let layer_times = vec![
            ("build_s", (built - start).as_secs_f64()),
            ("program_s", tenant.program()),
            ("manager_s", tenant.manager()),
            ("engine_s", tenant.engine()),
        ];
        tenant_spans.push((index, start, end, layer_times));
    }
    metrics::disable();
    let snapshot = metrics::snapshot();
    let engine = split.engine();
    out.check(1, engine >= 0.0, &format!("engine residual {engine}"));

    let root = spans.push(0, "fleet-mixed", root_start, Instant::now(), Vec::new());
    for (index, start, end, layer_times) in tenant_spans {
        spans.push(root, format!("tenant {index}"), start, end, layer_times);
    }
    let path = spans
        .write("fleet-mixed")
        .map_err(|e| format!("trace file: {e}"))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    eprintln!("{}", split.summary("fleet-mixed"));

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    split.report(&counts, &mut out);
    out.metric("manager.build_s", manager_build_s, "s");
    out.metric(
        "manager.bucket_scan_per_place",
        ratio(
            snapshot.counter("manager.bucket_scan_len") as f64,
            counts.place_calls as f64,
        ),
        "ratio",
    );
    out.metric(
        "manager.coalesce_merges",
        snapshot.counter("manager.coalesce_merges") as f64,
        "count",
    );
    out.metric("referee.ops", referee_ops as f64, "count");
    out.metric(
        "referee.words_scanned_per_op",
        ratio(scanned as f64, referee_ops as f64),
        "ratio",
    );
    let c = config(seed).mixer.c as f64;
    out.metric("ledger.objects_moved", totals_moved(&plain) as f64, "count");
    out.metric("ledger.words_moved", acc.words_moved as f64, "count");
    out.metric(
        "ledger.budget_used",
        ratio(acc.words_moved as f64, acc.words_placed as f64 / c),
        "ratio",
    );
    out.metric("fleet.tenant_build_s", build_s, "s");
    out.metric("fleet.tenant_run_s", run_s, "s");
    out.metric("fleet.aggregate_s", one_thread_s - loop_s, "s");
    out.metric(
        "fleet.resident_bytes",
        report.resident_bytes as f64,
        "bytes",
    );
    out.metric("parallel.speedup_2t", one_thread_s / two_threads_s, "ratio");
    out.metric("trace.timer_ns", pair_ns, "ns");
    out.metric("trace.overhead_ratio", traced_run_s / run_s - 1.0, "ratio");
    out.metric("trace.wall_s", split.wall, "s");
    out.metric("trace.spans", spans.len() as f64, "count");
    Ok(out)
}

fn totals_moved(summaries: &[Result<HeapSummary, String>]) -> u64 {
    summaries.iter().flatten().map(|s| s.objects_moved).sum()
}
