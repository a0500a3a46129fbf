//! Absolute host-time benchmark of the partial-compaction reproduction.
//!
//! ```text
//! perfbench --workload <pf-large|fleet-mixed|search-bestfit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats whole iterations of one workload for
//! `--seconds` seconds and reports the end-to-end metrics (set-up time,
//! median iteration time, throughput, peak resident memory). With
//! `--trace 1` it runs the workload through timing wrappers around the
//! public `Program` and `MemoryManager` traits and reports the per-layer
//! split; a traced run does a fixed amount of work whatever `--seconds`
//! says. Either way every iteration's answer is checked, and the last
//! line on stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! A traced run also writes its spans as a Chrome trace to
//! `perfbench/out/<workload>.trace.json`.

mod fleet;
mod layers;
mod pf;
mod search;
mod spans;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use partial_compaction::heap::HeapSummary;
use pcb_json::Json;

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run did: operations attempted, operations whose check failed,
/// and the metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts `ops` operations, all failed unless `ok`; a failed check is
    /// explained on stderr.
    pub fn check(&mut self, ops: u64, ok: bool, what: &str) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            eprintln!("check failed: {what}");
        }
    }

    fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let value =
                Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
            (m.name, value)
        });
        Json::object([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::object(metrics)),
        ])
    }
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    PfLarge,
    FleetMixed,
    SearchBestFit,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: print one set-up sample (see [`setup_seconds`]).
    setup_sample: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_sample = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == SETUP_SAMPLE_FLAG {
            setup_sample = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "pf-large" => Workload::PfLarge,
                    "fleet-mixed" => Workload::FleetMixed,
                    "search-bestfit" => Workload::SearchBestFit,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_sample,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pf-large|fleet-mixed|search-bestfit> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_sample {
        let (reps, setup): (u32, fn(u64, u64)) = match args.workload {
            Workload::PfLarge => (1, pf::setup),
            Workload::FleetMixed => (1, fleet::setup),
            Workload::SearchBestFit => (search::SETUP_REPS, search::setup),
        };
        println!(
            "{}",
            setup_sample(reps, || setup(args.seed, 0), || setup(args.seed, 1))
        );
        return ExitCode::SUCCESS;
    }
    let outcome = match (args.workload, args.trace) {
        (Workload::PfLarge, false) => pf::timed(args.seconds),
        (Workload::PfLarge, true) => pf::traced(),
        (Workload::FleetMixed, false) => fleet::timed(args.seed, args.seconds),
        (Workload::FleetMixed, true) => fleet::traced(args.seed),
        (Workload::SearchBestFit, false) => search::timed(args.seconds),
        (Workload::SearchBestFit, true) => search::traced(),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        layers::fill_absent(&mut outcome.metrics);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// Set-up samples per run, each in a fresh process: the `P_F` optimal-ρ
/// memo is per thread, and a process's address layout and core shift
/// a microsecond figure by a third either way, so one process's samples
/// would all share its bias.
const SETUP_SAMPLES: usize = 101;

/// The flag that makes the program print one set-up sample and exit.
const SETUP_SAMPLE_FLAG: &str = "--setup-sample";

/// Median set-up time in seconds of `workload`, over [`SETUP_SAMPLES`]
/// child processes of this program, each waited for.
pub fn setup_seconds(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = seed.to_string();
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let child = Command::new(&exe)
            .args([SETUP_SAMPLE_FLAG, "--workload", workload, "--seed", &seed])
            .output()
            .map_err(|e| format!("set-up sample: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        match text.trim().parse::<f64>() {
            Ok(sample) if child.status.success() => samples.push(sample),
            _ => return Err(format!("set-up sample failed: {}", child.status)),
        }
    }
    Ok(median(&mut samples))
}

/// One set-up sample: `warm` (the set-up for inputs that share no memo
/// entry with the real ones) warms caches, allocator and hash keys, then
/// `reps` runs of `setup` are timed and their mean returned. The first
/// run is uncached.
fn setup_sample(reps: u32, setup: impl Fn(), warm: impl Fn()) -> f64 {
    warm();
    let start = Instant::now();
    for _ in 0..reps {
        setup();
    }
    start.elapsed().as_secs_f64() / f64::from(reps)
}

/// One timed iteration: its wall time, its peak resident set in MiB, and
/// its result.
pub struct Iteration<T> {
    pub wall: Duration,
    pub peak_mb: f64,
    pub result: T,
}

/// Runs `iteration` until `seconds` have passed (at least `min_iters`
/// times). The peak resident set is reset before each iteration, so each
/// reports its own peak rather than the process's.
pub fn repeat<T>(
    seconds: f64,
    min_iters: usize,
    mut iteration: impl FnMut() -> T,
) -> Vec<Iteration<T>> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_iters || start.elapsed() < budget {
        // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let t = Instant::now();
        let result = iteration();
        let wall = t.elapsed();
        out.push(Iteration {
            wall,
            peak_mb: peak_rss_mb(),
            result,
        });
    }
    out
}

/// Byte-level identity of two run summaries.
pub fn same_summary(a: &HeapSummary, b: &HeapSummary) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`) since start or the
/// last reset, 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics shared by every workload, from each
/// iteration's work units done.
pub fn end_to_end<T>(out: &mut Outcome, setup_s: f64, iterations: &[Iteration<T>], work: &[u64]) {
    let mut walls: Vec<f64> = iterations.iter().map(|i| i.wall.as_secs_f64()).collect();
    let mut rates: Vec<f64> = iterations
        .iter()
        .zip(work)
        .map(|(i, &w)| w as f64 / i.wall.as_secs_f64())
        .collect();
    let mut peaks: Vec<f64> = iterations.iter().map(|i| i.peak_mb).collect();
    let run_s = median(&mut walls);
    eprintln!(
        "{} timed iterations: {:.3} / {run_s:.3} / {:.3} s (min / median / max)",
        walls.len(),
        walls[0],
        walls[walls.len() - 1]
    );
    out.metric("setup_s", setup_s, "s");
    out.metric("run_s", run_s, "s");
    out.metric("work_per_s", median(&mut rates), "1/s");
    out.metric("peak_rss_mb", median(&mut peaks), "MiB");
}
