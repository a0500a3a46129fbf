//! `pcb` — the command-line front end to the partial-compaction
//! reproduction. `pcb --help` prints the usage, rendered from the flag
//! tables in `src/cli.rs`.
//!
//! Reports go to stdout through one locked handle; a closed stdout (say,
//! `pcb figure 1 | head -2`) ends the run cleanly with exit status 0.

mod cli;

use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use cli::{parse_value as value, Args, Mix};
use partial_compaction::heap::{heat_map_rows, Execution, Heap, Program, Trace, TraceRecorder};
use partial_compaction::progress::{Heartbeat, ProgressMode};
use partial_compaction::workload::{tenant_by_kind, TenantShape};
use partial_compaction::{benchdiff, bounds, figures, fleet, metrics, note, reproduce, telemetry};
use partial_compaction::{ManagerKind, Params, PfConfig, PfProgram, PfVariant, RobsonProgram};
use partial_compaction::{Observers, TimeSeries, TraceWriter};
use pcb_json::{Json, ToJson};

type Result<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

const BENCH_USAGE: &str = "bench supports: diff <new.json> --against <baseline.json> \
                           [--tolerance <pct>], run [--smoke] [--trace-out <file.json>] \
                           [<suite>...]";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let help = argv.iter().any(|a| a == "-h" || a == "--help");
    let result = match cli::command(&argv) {
        _ if help => write!(out, "{}", cli::usage())
            .map(|()| ExitCode::SUCCESS)
            .map_err(Into::into),
        Some((cmd, rest)) => cli::parse(cmd, rest)
            .map_err(Into::into)
            .and_then(|args| run(cmd.name, &args, &mut out)),
        None if argv.first().is_some_and(|a| a == "bench") => Err(BENCH_USAGE.into()),
        None => {
            note!("{}", cli::usage().trim_end());
            return ExitCode::from(2);
        }
    };
    match result.and_then(|code| Ok(out.flush().map(|()| code)?)) {
        Ok(code) => code,
        Err(e)
            if e.downcast_ref()
                .is_some_and(|e: &std::io::Error| e.kind() == ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            note!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(name: &str, args: &Args, out: &mut dyn Write) -> Result<ExitCode> {
    let ops = &args.operands;
    match name {
        "bounds" => cmd_bounds(ops, out)?,
        "figure" => cmd_figure(args, out)?,
        "simulate" => cmd_simulate(args, None, out)?,
        "record" => cmd_simulate(args, Some(&ops[0]), out)?,
        "replay" => cmd_replay(&ops[0], out)?,
        "fleet" => cmd_fleet(args, out)?,
        "bench diff" => return cmd_bench_diff(args, out),
        "bench run" => return cmd_bench_run(args, out),
        "experiment" => pcb_bench::experiment(&ops[0], out)?,
        "sweep" => cmd_sweep(ops, out)?,
        "worst-case" => cmd_worst_case(args, out)?,
        _ => {
            let checks = reproduce::all_checks();
            write!(out, "{}", reproduce::render_table(&checks))?;
            if !checks.iter().all(|c| c.pass) {
                return Err("some reproduction checks failed".into());
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Writes a metrics snapshot to `path`: pcb-json when the path ends in
/// `.json`, Prometheus text exposition (0.0.4) otherwise. The summary
/// line goes to stderr so stdout stays report-only.
fn write_metrics(path: &str, snap: &metrics::MetricsSnapshot) -> Result {
    let out = if path.ends_with(".json") {
        format!("{}\n", snap.to_json())
    } else {
        snap.to_prometheus()
    };
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
    let (counters, gauges) = (snap.counters().count(), snap.gauges().count());
    let histograms = snap.histograms().count();
    note!("metrics: {counters} counters / {gauges} gauges / {histograms} histograms -> {path}");
    Ok(())
}

fn progress_stream(e: std::io::Error) -> String {
    format!("progress stream: {e}")
}

fn cmd_bounds(ops: &[String], out: &mut dyn Write) -> Result {
    let (m, log_n) = (value("M", &ops[0])?, value("log_n", &ops[1])?);
    let params = Params::new(m, log_n, value("c", &ops[2])?)?;
    writeln!(out, "{params}")?;
    match bounds::thm1::optimal(params) {
        Some((rho, h)) => writeln!(out, "thm1 lower bound    {h:.4} x M  (rho = {rho})")?,
        None => writeln!(out, "thm1 lower bound    infeasible")?,
    }
    match bounds::thm2::factor(params) {
        Some(f) => writeln!(out, "thm2 upper bound    {f:.4} x M")?,
        None => writeln!(out, "thm2 upper bound    n/a (needs c > log2(n)/2)")?,
    }
    let p2 = bounds::robson::factor_p2(params);
    writeln!(out, "robson (P2)         {p2:.4} x M")?;
    let doubled = bounds::robson::factor_arbitrary(params);
    writeln!(out, "robson doubled      {doubled:.4} x M")?;
    let upper = bounds::bp11::upper_factor(params);
    writeln!(out, "bp11 upper          {upper:.4} x M")?;
    let lower = bounds::bp11::lower_factor(params);
    writeln!(out, "bp11 lower          {lower:.4} x M")?;
    Ok(())
}

fn cmd_figure(args: &Args, out: &mut dyn Write) -> Result {
    use partial_compaction::sweep::{over_c, over_n, Bound};
    let plot = |series: Vec<_>| partial_compaction::plot::render(&series, 72, 20);
    let text = match (args.operands[0].as_str(), args.has("--plot")) {
        ("1", false) => figures::to_csv(&figures::figure1()),
        ("2", false) => figures::to_csv(&figures::figure2()),
        ("3", false) => figures::to_csv(&figures::figure3()),
        ("1", true) => plot(vec![
            over_c(Bound::Thm1Lower, 1 << 28, 20, 10..=100),
            over_c(Bound::Bp11Lower, 1 << 28, 20, 10..=100),
        ]),
        ("2", true) => plot(vec![over_n(Bound::Thm1Lower, 256, 100, 10..=30)]),
        ("3", true) => plot(vec![
            over_c(Bound::Thm2Upper, 1 << 28, 20, 10..=100),
            over_c(Bound::Bp11Upper, 1 << 28, 20, 10..=100),
            over_c(Bound::RobsonDoubled, 1 << 28, 20, 10..=100),
        ]),
        _ => return Err("figure needs 1, 2, or 3".into()),
    };
    write!(out, "{text}")?;
    Ok(())
}

/// Per-round heartbeat adapter: rides the observer bus and ticks the
/// [`Heartbeat`] at round boundaries. Pure side channel — it reads the
/// heap, never touches it.
struct ProgressObserver {
    heartbeat: Heartbeat,
}

impl partial_compaction::heap::Observer for ProgressObserver {
    fn on_event(
        &mut self,
        _tick: partial_compaction::heap::Tick,
        _event: &partial_compaction::heap::Event,
    ) {
    }

    fn on_round_end(&mut self, round: u32, heap: &Heap) {
        self.heartbeat.tick(
            u64::from(round) + 1,
            0,
            &[
                ("heap_size_words", Json::from(heap.heap_size().get())),
                ("peak_live_words", Json::from(heap.peak_live().get())),
            ],
        );
    }
}

fn cmd_simulate(args: &Args, record_to: Option<&str>, out: &mut dyn Write) -> Result {
    let program_name: String = args.or("--program", "pf".into())?;
    let manager: ManagerKind = args.or("--manager", ManagerKind::FirstFit)?;
    let m = args.or("--m", 1 << 16)?;
    let log_n = args.or("--log-n", 10)?;
    let c = args.or("--c", 20)?;
    let (rounds, allocs) = (args.get("--rounds")?, args.get("--allocs")?);
    let (series_path, every) = (args.get::<String>("--series")?, args.or("--every", 1)?);
    let (trace_out, profile) = (args.get::<String>("--trace-out")?, args.has("--profile"));
    let metrics_out = args.get::<String>("--metrics-out")?;
    // Off (not Auto) for single runs: a simulate is usually over in well
    // under one heartbeat cadence; `--progress` opts in.
    let progress = args.progress(ProgressMode::Off)?;
    let params = Params::new(m, log_n, c)?;
    // The run configuration is resolved once, here at the boundary: the
    // environment (`PCB_THREADS`) is the fallback, flags override it, and
    // everything downstream receives plain data.
    let run = args
        .run_config()?
        .with_telemetry(trace_out.is_some() || profile);
    run.apply();

    let budget_c = if manager.is_unbounded() {
        0
    } else if manager.is_compacting() || program_name.starts_with("pf") {
        c
    } else {
        u64::MAX
    };
    let heap = match budget_c {
        0 => Heap::unlimited_compaction(),
        u64::MAX => Heap::non_moving(),
        c => Heap::new(c),
    };
    // try_build: a parameter combination the manager cannot serve is a
    // clean CLI error, not a panic.
    let manager = manager.try_build(&params)?;

    let program: Box<dyn Program> = match program_name.as_str() {
        "pf" | "pf-baseline" => {
            let mut cfg = PfConfig::new(m, log_n, c)?;
            if program_name == "pf-baseline" {
                cfg = cfg.with_variant(PfVariant::BASELINE);
            }
            if args.has("--validate") {
                cfg = cfg.with_validation();
            }
            Box::new(PfProgram::new(cfg))
        }
        "robson" => Box::new(RobsonProgram::new(m, log_n)),
        // The workload families share the fleet's dispatch path: one
        // object-safe factory per family, instantiated for this shape.
        name @ ("churn" | "ramp" | "replay") => {
            let family = tenant_by_kind(name).expect("built-in family");
            // Family defaults match the historical single-heap profiles
            // (churn's `typical` 200x64; ramp's 12 benign phases).
            let (default_rounds, default_allocs) = match name {
                "churn" => (200, 64),
                "ramp" => (12, 64),
                _ => (24, 32),
            };
            family.instantiate(&TenantShape {
                m,
                log_n,
                c,
                seed: 0x5EED,
                rounds: rounds.unwrap_or(default_rounds),
                allocs_per_round: allocs.unwrap_or(default_allocs),
            })
        }
        other => return Err(format!("unknown program {other}").into()),
    };

    let mut exec = Execution::new(heap, program, manager)
        .with_chaos(run.chaos)
        .with_paranoia(run.paranoia);
    if args.has("--stats") {
        exec = exec.with_stats();
    }

    let mut series = series_path.as_ref().map(|_| TimeSeries::new().every(every));
    let (mut recorder, mut writer) = (None, None);
    match record_to {
        // Streaming mode: events go straight to disk, one JSON object per
        // line, so arbitrarily long runs record in constant memory.
        Some(path) if path.ends_with(".jsonl") => {
            let file = std::io::BufWriter::new(std::fs::File::create(path)?);
            writer = Some(TraceWriter::new(file).chaos(run.chaos).begin(budget_c));
        }
        Some(_) => recorder = Some(TraceRecorder::new(budget_c)),
        None => {}
    }
    let mut progress_observer = match progress.cadence() {
        Some(_) => Some(ProgressObserver {
            heartbeat: Heartbeat::new("simulate", &progress).map_err(progress_stream)?,
        }),
        None => None,
    };

    let mut bus = Observers::new();
    if let Some(s) = series.as_mut() {
        bus.attach(s);
    }
    if let Some(r) = recorder.as_mut() {
        bus.attach(r);
    }
    if let Some(w) = writer.as_mut() {
        bus.attach(w);
    }
    if let Some(p) = progress_observer.as_mut() {
        bus.attach(p);
    }
    let report = if bus.is_empty() {
        exec.run()?
    } else {
        exec.run_observed(&mut bus)?
    };
    if let Some(observer) = progress_observer {
        observer.heartbeat.finish().map_err(progress_stream)?;
    }

    if let (Some(recorder), Some(path)) = (recorder, record_to) {
        let trace = recorder.into_trace();
        std::fs::write(path, trace.to_json())?;
        writeln!(out, "trace: {} events -> {path}", trace.len())?;
    }
    if let (Some(writer), Some(path)) = (writer, record_to) {
        let events = writer.events_seen();
        writer.finish()?;
        writeln!(out, "trace: {events} events streamed -> {path}")?;
    }
    if let (Some(path), Some(series)) = (&series_path, series) {
        let text = if path.ends_with(".json") {
            series.to_json().to_string()
        } else {
            series.to_csv()
        };
        std::fs::write(path, text)?;
        writeln!(out, "series: {} samples -> {path}", series.len())?;
    }

    writeln!(
        out,
        "{} vs {}: HS = {} words, HS/M = {:.3}, moved = {:.4}",
        report.program,
        report.manager,
        report.heap_size,
        report.waste_factor,
        report.moved_fraction
    )?;
    if program_name == "pf" {
        let h = bounds::thm1::factor(params);
        let ratio = report.waste_factor / h;
        writeln!(
            out,
            "theorem 1 bound h = {h:.3}; measured/bound = {ratio:.3}"
        )?;
    }
    if let Some(stats) = exec.take_stats() {
        writeln!(out, "stats: {}", stats.to_json())?;
    }
    if let Some(path) = &metrics_out {
        write_metrics(path, &metrics::snapshot())?;
    }
    if args.has("--map") {
        writeln!(out, "{}", heat_map_rows(exec.heap(), 72, 4))?;
    }
    if trace_out.is_some() || profile {
        telemetry::disable();
        let trace = telemetry::take_trace();
        if let Some(path) = &trace_out {
            std::fs::write(path, format!("{}\n", trace.to_chrome_trace()))?;
            let (spans, tracks) = (trace.len(), trace.tracks.len());
            let perfetto = "load it at https://ui.perfetto.dev";
            writeln!(
                out,
                "trace: {spans} spans on {tracks} tracks -> {path} ({perfetto})"
            )?;
        }
        if profile {
            let profile = telemetry::Profile::from_trace(&trace);
            write!(out, "{}", profile.render_table())?;
        }
    }
    Ok(())
}

fn cmd_fleet(args: &Args, out: &mut dyn Write) -> Result {
    let mut cfg = fleet::FleetConfig::default();
    cfg.tenants = args.or("--tenants", cfg.tenants)?;
    cfg.shards = args.or("--shards", cfg.shards)?;
    cfg.manager = args.or("--manager", cfg.manager)?;
    let mixer = &mut cfg.mixer;
    mixer.seed = args.or("--seed", mixer.seed)?;
    mixer.m_min = args.or("--m-min", mixer.m_min)?;
    mixer.m_max = args.or("--m-max", mixer.m_max)?;
    mixer.zipf_theta = args.or("--theta", mixer.zipf_theta)?;
    mixer.rounds = args.or("--rounds", mixer.rounds)?;
    mixer.allocs_per_round = args.or("--allocs", mixer.allocs_per_round)?;
    mixer.c = args.or("--c", mixer.c)?;
    mixer.weights = args.or("--mix", Mix(mixer.weights))?.0;
    let (run, checkpoint) = (args.run_config()?, args.checkpoint(16)?);
    // Default `Auto`: heartbeat on when stderr is a terminal (a human is
    // watching the run), off when piped — either way the report bytes
    // are identical.
    let progress = args.progress(ProgressMode::Auto)?;
    let metrics_out = args.get::<String>("--metrics-out")?;
    run.apply();
    let start = std::time::Instant::now();
    let report = match &checkpoint {
        Some(opts) => match fleet::run_checkpointed_with_progress(&cfg, &run, opts, &progress)? {
            fleet::FleetOutcome::Complete(report) => report,
            fleet::FleetOutcome::Paused {
                shards_done,
                shards_total,
            } => {
                let path = opts.path.display();
                note!(
                    "paused after {shards_done}/{shards_total} shards; \
                     checkpoint -> {path} (continue with --resume)"
                );
                return Ok(());
            }
        },
        None => fleet::run_with_progress(&cfg, &run, &progress)?,
    };
    let elapsed = start.elapsed().as_secs_f64();
    if args.has("--json") {
        writeln!(out, "{}", report.to_json())?;
    } else {
        write!(out, "{report}")?;
    }
    if let Some(path) = &metrics_out {
        write_metrics(path, &report.accumulator.metrics)?;
    }
    // Wall-clock goes to stderr only: the report itself (stdout and JSON)
    // is byte-deterministic across thread counts and machines.
    let (tenants, rate) = (report.tenants, report.tenants as f64 / elapsed.max(1e-9));
    note!("ran {tenants} tenants in {elapsed:.2}s ({rate:.0} tenants/sec, {run})");
    Ok(())
}

fn cmd_bench_diff(args: &Args, out: &mut dyn Write) -> Result<ExitCode> {
    let tolerance: f64 = args.or("--tolerance", 10.0)?;
    let new_path = args
        .operands
        .first()
        .ok_or("bench diff needs the new artifact path")?;
    let baseline: Option<String> = args.get("--against")?;
    let baseline = baseline.ok_or("bench diff needs --against <baseline.json>")?;
    let report = benchdiff::compare_files(new_path, &baseline, tolerance)?;
    writeln!(
        out,
        "comparing {new_path} against {baseline} (tolerance {tolerance}%)"
    )?;
    write!(out, "{}", report.render())?;
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_bench_run(args: &Args, out: &mut dyn Write) -> Result<ExitCode> {
    let suites = match args.operands.as_slice() {
        [] => pcb_bench::suites::ALL.iter().collect(),
        names => names
            .iter()
            .map(|name| pcb_bench::suites::find(name))
            .collect::<std::result::Result<Vec<_>, _>>()?,
    };
    let trace_out = args.get::<String>("--trace-out")?;
    let smoke = args.has("--smoke");
    let held = pcb_bench::harness::run(&suites, smoke, trace_out.as_deref().map(Path::new), out)?;
    Ok(if held {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_sweep(ops: &[String], out: &mut dyn Write) -> Result {
    use partial_compaction::sweep::{self, Bound};
    let bound = |s: &str| {
        let found = Bound::ALL.into_iter().find(|b| b.label() == s);
        found.ok_or_else(|| format!("unknown bound {s}"))
    };
    let series = match ops {
        [b, axis, m, log_n, from, to] if axis == "c" => {
            let cs = value::<u64>("from", from)?..=value("to", to)?;
            sweep::over_c(bound(b)?, value("M", m)?, value("log_n", log_n)?, cs)
        }
        [b, axis, ratio, c, from, to] if axis == "n" => {
            let log_ns = value::<u32>("from", from)?..=value("to", to)?;
            sweep::over_n(bound(b)?, value("M/n", ratio)?, value("c", c)?, log_ns)
        }
        [rho, m, log_n, c] if rho == "rho" => {
            let params = Params::new(value("M", m)?, value("log_n", log_n)?, value("c", c)?)?;
            sweep::over_rho(params, 1..=16)
        }
        _ => return Err("see usage for sweep forms".into()),
    };
    writeln!(out, "# {}", series.label)?;
    writeln!(out, "x,factor")?;
    for (x, y) in &series.points {
        writeln!(out, "{x},{y}")?;
    }
    Ok(())
}

fn cmd_worst_case(args: &Args, out: &mut dyn Write) -> Result {
    use partial_compaction::exhaustive::{
        try_worst_case_observed, try_worst_case_resumable, SearchOutcome, SearchPolicy,
    };
    let max_states = args.or("--max-states", 50_000_000usize)?;
    let (run, checkpoint) = (args.run_config()?, args.checkpoint(1)?);
    let progress = args.progress(ProgressMode::Auto)?;
    let metrics_out = args.get::<String>("--metrics-out")?;
    let ops = &args.operands;
    let policy = match ops.get(2) {
        None => SearchPolicy::FirstFit,
        Some(p) => SearchPolicy::ALL
            .into_iter()
            .find(|policy| policy.name() == p)
            .ok_or_else(|| format!("unknown policy {p} (first-fit|best-fit|next-fit)"))?,
    };
    let params = Params::new(value("M", &ops[0])?, value("log_n", &ops[1])?, 10)?;
    if params.m() > 16 || params.log_n() > 3 {
        let msg = "exhaustive search is toy-scale only (M <= 16, log n <= 3)";
        return Err(format!("{msg}; got {params}").into());
    }
    run.apply();
    let report = match &checkpoint {
        Some(opts) => match try_worst_case_resumable(params, policy, max_states, &run, opts)? {
            SearchOutcome::Complete(report) => report,
            SearchOutcome::Paused { levels_done } => {
                let path = opts.path.display();
                note!(
                    "paused after {levels_done} BFS levels; \
                     checkpoint -> {path} (continue with --resume)"
                );
                return Ok(());
            }
        },
        None => {
            let mut heartbeat = Heartbeat::new("worst-case", &progress).map_err(progress_stream)?;
            // Total is unknown ahead of time (that is what the search
            // computes), so `done` counts interned states with no ETA.
            let report = try_worst_case_observed(params, policy, max_states, &run, |pulse| {
                heartbeat.tick(
                    pulse.seen_states as u64,
                    0,
                    &[
                        ("levels", Json::from(pulse.levels as u64)),
                        ("frontier_states", Json::from(pulse.frontier_states as u64)),
                        ("resident_bytes", Json::from(pulse.resident_bytes)),
                    ],
                );
            })
            .map_err(|e| format!("parameters not toy enough: {e}"))?;
            heartbeat.finish().map_err(progress_stream)?;
            report
        }
    };
    if let Some(path) = &metrics_out {
        write_metrics(path, &metrics::snapshot())?;
    }
    writeln!(
        out,
        "true worst case for {} at M={}, n={}: HS = {} words ({} reachable states)\n\
         search: {} levels, peak frontier {} states, seen-set {} KiB resident\n\
         Robson's formula (optimal allocator): {:.0} words",
        policy.name(),
        params.m(),
        params.n(),
        report.worst.heap_size,
        report.worst.states,
        report.stats.levels,
        report.stats.peak_frontier,
        report.stats.resident_bytes / 1024,
        bounds::robson::bound_p2(params),
    )?;
    Ok(())
}

fn cmd_replay(path: &str, out: &mut dyn Write) -> Result {
    let text = std::fs::read_to_string(path)?;
    let trace = if path.ends_with(".jsonl") {
        Trace::from_jsonl(&text)?
    } else {
        Trace::from_json(&text)?
    };
    let heap = trace
        .replay()
        .map_err(|(idx, e)| format!("trace invalid at event {idx}: {e}"))?;
    let (events, hs, live) = (trace.len(), heap.heap_size().get(), heap.live_count());
    writeln!(
        out,
        "trace valid: {events} events, final HS = {hs} words, {live} live objects"
    )?;
    Ok(())
}
