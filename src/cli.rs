//! The `pcb` flag tables and the one loop that parses argv against them.
//!
//! Every subcommand is a [`Command`]: its operands plus a list of flag
//! [`Group`]s. Three groups are shared and each is applied in one place:
//! the run flags ([`Args::run_config`]: chaos, threads, metrics), the
//! progress flags ([`Args::progress`]) and the checkpoint flags
//! ([`Args::checkpoint`]). [`usage`] renders the help text from the same
//! tables, so the two cannot drift apart.

use std::fmt::{self, Write as _};
use std::str::FromStr;
use std::time::Duration;

use partial_compaction::fleet::CheckpointOptions;
use partial_compaction::progress::{ProgressMode, ProgressOptions};
use partial_compaction::workload::MixWeights;
use partial_compaction::RunConfig;

/// How a flag takes its value.
#[derive(Debug, Clone, Copy)]
pub enum Arity {
    /// A bare switch: `--map`.
    Switch,
    /// The next token is the value: `--m 4096`.
    Value(&'static str),
    /// An optional inline value: `--progress` or `--progress=0.5`.
    Inline(&'static str),
}

/// One row of a flag table.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    pub arity: Arity,
    pub help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    let arity = Arity::Switch;
    Flag { name, arity, help }
}

const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    let arity = Arity::Value(metavar);
    Flag { name, arity, help }
}

/// A named set of flags; the shared groups appear in several tables.
#[derive(Debug)]
pub struct Group {
    pub name: &'static str,
    pub flags: &'static [Flag],
}

/// One subcommand: its name (one or two words), operand synopsis (one
/// line per accepted form), operand count range and flag groups.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    pub operands: &'static str,
    pub arity: (usize, usize),
    pub about: &'static str,
    pub groups: &'static [&'static Group],
}

impl Command {
    /// Every flag of the table, in usage order.
    pub fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.groups.iter().flat_map(|g| g.flags)
    }
}

#[rustfmt::skip]
const SIMULATE: Group = Group { name: "simulate", flags: &[
    value("--program", "<name>", "pf|pf-baseline|robson|churn|ramp|replay (default pf)"),
    value("--manager", "<name>", "memory manager (default first-fit)"),
    value("--m", "<words>", "live-space bound M (default 65536)"),
    value("--log-n", "<k>", "largest object 2^k words (default 10)"),
    value("--c", "<c>", "compaction bound (default 20)"),
    value("--rounds", "<k>", "rounds of a churn/ramp/replay workload"),
    value("--allocs", "<k>", "allocations per workload round"),
    switch("--map", "print a heap heat map"),
    switch("--validate", "run the Claim 4.16 checks"),
    value("--series", "<file>", "per-round metrics: CSV, or JSON for .json"),
    value("--every", "<k>", "series sample cadence (default 1)"),
    switch("--stats", "print manager counters"),
    value("--trace-out", "<file.json>", "engine span trace (Perfetto)"),
    switch("--profile", "print the span profile table"),
]};

#[rustfmt::skip]
const FLEET: Group = Group { name: "fleet", flags: &[
    value("--tenants", "<n>", "tenant heaps (default 100000)"),
    value("--shards", "<n>", "aggregation shards (default 256)"),
    value("--manager", "<name>", "memory manager (default first-fit)"),
    value("--seed", "<s>", "fleet seed"),
    value("--m-min", "<words>", "smallest tenant M (default 256)"),
    value("--m-max", "<words>", "largest tenant M (default 8192)"),
    value("--theta", "<zipf>", "Zipf skew over tenant sizes (default 1.1)"),
    value("--rounds", "<k>", "rounds per tenant (default 12)"),
    value("--allocs", "<k>", "allocations per tenant round (default 8)"),
    value("--mix", "<w,w,w,w>", "churn,ramp,replay,adversary weights"),
    value("--c", "<c>", "compaction bound (default 10)"),
    switch("--json", "print the report as JSON"),
]};

#[rustfmt::skip]
const WORST_CASE: Group = Group { name: "worst-case", flags: &[
    value("--max-states", "<n>", "state cap (default 50000000)"),
]};

#[rustfmt::skip]
const FIGURE: Group = Group { name: "figure", flags: &[
    switch("--plot", "plot the series instead of printing CSV"),
]};

#[rustfmt::skip]
const BENCH_DIFF: Group = Group { name: "bench diff", flags: &[
    value("--against", "<baseline.json>", "the baseline artifact (required)"),
    value("--tolerance", "<pct>", "timing tolerance in percent (default 10)"),
]};

#[rustfmt::skip]
const BENCH_RUN: Group = Group { name: "bench run", flags: &[
    switch("--smoke", "shrink every suite to CI scale"),
    value("--trace-out", "<file.json>", "engine span trace of the traced suites (Perfetto)"),
]};

/// Run group: the fault schedule.
#[rustfmt::skip]
const CHAOS: Group = Group { name: "chaos", flags: &[
    value("--chaos", "<spec>", "seed=<s>,<site>=<rate_ppm>,... with sites alloc-refusal\n\
                                budget-cut mirror-flip trace-io tenant-panic"),
    value("--paranoia", "<k>", "cross-check manager mirrors every k rounds"),
]};

/// Run group: worker threads.
#[rustfmt::skip]
const THREADS: Group = Group { name: "threads", flags: &[
    value("--threads", "<n>", "worker threads (default PCB_THREADS)"),
]};

/// Run group: the metric plane.
#[rustfmt::skip]
const METRICS: Group = Group { name: "metrics", flags: &[
    switch("--metrics", "collect the metric plane"),
    value("--metrics-out", "<file>", "write it (implies --metrics): Prometheus text,\n\
                                      or pcb-json for .json"),
]};

#[rustfmt::skip]
const PROGRESS: Group = Group { name: "progress", flags: &[
    Flag { name: "--progress", arity: Arity::Inline("secs"), help: "heartbeat on stderr (default every 2 s)" },
    switch("--no-progress", "no heartbeat (fleet and worst-case default to one\n\
                             when stderr is a terminal)"),
    value("--progress-out", "<file.jsonl>", "stream one JSON object per pulse"),
]};

#[rustfmt::skip]
const CHECKPOINT: Group = Group { name: "checkpoint", flags: &[
    value("--checkpoint", "<file>", "save progress to this file"),
    value("--checkpoint-every", "<k>", "save every k shards (16) or BFS levels (1)"),
    switch("--resume", "continue from --checkpoint"),
    value("--stop-after", "<k>", "pause after k shards or BFS levels"),
]};

const SIMULATE_GROUPS: &[&Group] = &[&SIMULATE, &CHAOS, &METRICS, &PROGRESS];

/// Every subcommand, in usage order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "bounds", operands: "<M_words> <log2_n> <c>", arity: (3, 3), groups: &[],
              about: "evaluate every bound at one point" },
    Command { name: "figure", operands: "<1|2|3>", arity: (1, 1), groups: &[&FIGURE],
              about: "print a figure's CSV series" },
    Command { name: "simulate", operands: "", arity: (0, 0), groups: SIMULATE_GROUPS,
              about: "run an adversary or workload against a manager" },
    Command { name: "record", operands: "<file.json|file.jsonl>", arity: (1, 1),
              groups: SIMULATE_GROUPS, about: "simulate and record the run as a trace" },
    Command { name: "replay", operands: "<file.json|file.jsonl>", arity: (1, 1), groups: &[],
              about: "re-validate a recorded trace" },
    Command { name: "fleet", operands: "", arity: (0, 0),
              groups: &[&FLEET, &THREADS, &CHAOS, &METRICS, &CHECKPOINT, &PROGRESS],
              about: "simulate a fleet of tenant heaps" },
    Command { name: "bench diff", operands: "<new.json>", arity: (0, 1), groups: &[&BENCH_DIFF],
              about: "compare a benchmark artifact against a baseline" },
    Command { name: "bench run", operands: "[<suite>...]", arity: (0, usize::MAX),
              groups: &[&BENCH_RUN],
              about: "run the benchmark suites (default all); the artifact goes to\n\
                      stdout, and a failed enforced budget fails the run" },
    Command { name: "experiment", operands: "<e5|e6|e7|e9>", arity: (1, 1), groups: &[],
              about: "print an experiment's table as CSV" },
    Command { name: "sweep", arity: (4, 6), groups: &[],
              operands: "<bound> c <M_words> <log2_n> <c_from> <c_to>\n\
                         <bound> n <M_over_n> <c> <logn_from> <logn_to>\n\
                         rho <M_words> <log2_n> <c>",
              about: "CSV series of one bound: thm1-lower thm2-upper robson-p2\n\
                      robson-doubled bp11-upper bp11-lower" },
    Command { name: "worst-case", operands: "<M_words> <log2_n> [first-fit|best-fit|next-fit]",
              arity: (2, 3), groups: &[&WORST_CASE, &THREADS, &METRICS, &CHECKPOINT, &PROGRESS],
              about: "exhaustive worst-case search (toy scale)" },
    Command { name: "reproduce", operands: "", arity: (0, 0), groups: &[],
              about: "run the paper's reproduction checklist" },
];

/// Finds the subcommand named by the head of `argv`; returns it with the
/// remaining arguments.
pub fn command(argv: &[String]) -> Option<(&'static Command, &[String])> {
    COMMANDS.iter().find_map(|cmd| {
        let words = cmd.name.split(' ').count();
        let head = argv.get(..words)?;
        (head.join(" ") == cmd.name).then(|| (cmd, &argv[words..]))
    })
}

/// The usage text, rendered from [`COMMANDS`]. A shared group is listed
/// in full under the first command that takes it.
pub fn usage() -> String {
    let mut out = String::from("usage:  (-h/--help on any command prints this text)\n");
    let mut shown: Vec<&str> = Vec::new();
    for cmd in COMMANDS {
        for form in cmd.operands.split('\n') {
            let line = format!("pcb {} {}", cmd.name, form.trim());
            let _ = writeln!(out, "  {}", line.trim_end());
        }
        for line in cmd.about.lines() {
            let _ = writeln!(out, "      {}", line.trim());
        }
        for group in cmd.groups {
            if shown.contains(&group.name) {
                let _ = writeln!(out, "      [{} flags, as above]", group.name);
                continue;
            }
            shown.push(group.name);
            for flag in group.flags {
                let spec = match flag.arity {
                    Arity::Switch => flag.name.to_string(),
                    Arity::Value(metavar) => format!("{} {metavar}", flag.name),
                    Arity::Inline(metavar) => format!("{}[={metavar}]", flag.name),
                };
                for (i, help) in flag.help.lines().enumerate() {
                    let spec = if i == 0 { spec.as_str() } else { "" };
                    let _ = writeln!(out, "      {spec:<30} {}", help.trim());
                }
            }
        }
    }
    out
}

/// Why argv does not fit a subcommand's table.
#[derive(Debug, Clone)]
pub enum CliError {
    /// A `--flag` the table does not list.
    UnknownFlag(String),
    /// A value-taking flag ended argv.
    MissingValue(&'static str),
    /// A flag value or operand that does not parse: what, and why.
    BadValue(&'static str, String),
    /// Fewer operands than the subcommand needs.
    MissingOperands(&'static Command),
    /// More operands than the subcommand takes.
    ExtraOperand(String),
    /// A flag that only works together with another one.
    Requires(&'static str, &'static str),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue(what, reason) => write!(f, "{what}: {reason}"),
            CliError::MissingOperands(cmd) => {
                let forms = cmd.operands.replace('\n', " or ");
                write!(f, "{} needs {forms}", cmd.name)
            }
            CliError::ExtraOperand(arg) => write!(f, "unexpected argument {arg}"),
            CliError::Requires(flag, needs) => write!(f, "{flag} needs {needs}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The typed value parser every flag value and operand goes through.
pub fn parse_value<T: FromStr>(what: &'static str, raw: &str) -> Result<T, CliError>
where
    T::Err: fmt::Display,
{
    raw.parse()
        .map_err(|e: T::Err| CliError::BadValue(what, e.to_string()))
}

/// A heartbeat cadence: finite, non-negative seconds that fit a
/// [`Duration`].
#[derive(Debug, Clone, Copy)]
pub struct Secs(pub f64);

impl FromStr for Secs {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let secs: f64 = s.parse().map_err(|e| format!("{e}"))?;
        let bad = |_| format!("{s} is not a finite, non-negative number of seconds");
        Duration::try_from_secs_f64(secs).map_err(bad)?;
        Ok(Secs(secs))
    }
}

/// `--mix` weights: `churn,ramp,replay,adversary`.
#[derive(Debug, Clone, Copy)]
pub struct Mix(pub MixWeights);

impl FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let weights: Vec<u32> = s
            .split(',')
            .map(|w| w.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{e}"))?;
        let [churn, ramp, replay, adversary] = weights[..] else {
            return Err("needs four weights: churn,ramp,replay,adversary".into());
        };
        Ok(Mix(MixWeights {
            churn,
            ramp,
            replay,
            adversary,
        }))
    }
}

/// Argv parsed against one subcommand's table.
#[derive(Debug, Default)]
pub struct Args {
    /// The flags in argv order, with their raw values.
    flags: Vec<(&'static str, Option<String>)>,
    /// The operands in argv order.
    pub operands: Vec<String>,
}

/// Parses `argv` (the tokens after the subcommand name) against `cmd`'s
/// table. Tokens starting with `--` are flags; everything else is an
/// operand.
pub fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, CliError> {
    let mut args = Args::default();
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            args.operands.push(token.clone());
            continue;
        }
        let (name, inline) = match token.split_once('=') {
            Some((name, inline)) => (name, Some(inline.to_owned())),
            None => (token.as_str(), None),
        };
        let unknown = || CliError::UnknownFlag(token.clone());
        let flag = cmd.flags().find(|f| f.name == name).ok_or_else(unknown)?;
        let missing = CliError::MissingValue(flag.name);
        let value = match (flag.arity, inline) {
            (Arity::Switch, None) => None,
            (Arity::Value(_), None) => Some(tokens.next().ok_or(missing)?.clone()),
            (Arity::Inline(_), inline) => inline,
            _ => return Err(unknown()),
        };
        args.flags.push((flag.name, value));
    }
    if let Some(extra) = args.operands.get(cmd.arity.1) {
        return Err(CliError::ExtraOperand(extra.clone()));
    }
    if args.operands.len() < cmd.arity.0 {
        return Err(CliError::MissingOperands(cmd));
    }
    Ok(args)
}

impl Args {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The value of the last `name`, parsed; `None` when absent.
    pub fn get<T: FromStr>(&self, name: &'static str) -> Result<Option<T>, CliError>
    where
        T::Err: fmt::Display,
    {
        let last = self.flags.iter().rev().find(|(n, _)| *n == name);
        last.and_then(|(_, v)| v.as_deref())
            .map(|raw| parse_value(name, raw))
            .transpose()
    }

    /// The value of `name`, or `default` when absent.
    pub fn or<T: FromStr>(&self, name: &'static str, default: T) -> Result<T, CliError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// The run group over the environment's [`RunConfig`].
    pub fn run_config(&self) -> Result<RunConfig, CliError> {
        let mut run = RunConfig::from_env().with_paranoia(self.or("--paranoia", 0)?);
        if let Some(threads) = self.get("--threads")? {
            run = run.with_threads(threads);
        }
        if let Some(plan) = self.get("--chaos")? {
            run = run.with_chaos(plan);
        }
        // Asking for the artifact implies collecting it.
        let metrics = run.metrics || self.has("--metrics") || self.has("--metrics-out");
        Ok(run.with_metrics(metrics))
    }

    /// The progress group, applied in argv order over `default`.
    pub fn progress(&self, default: ProgressMode) -> Result<ProgressOptions, CliError> {
        let mut opts = ProgressOptions {
            mode: default,
            stream: None,
        };
        for (name, value) in &self.flags {
            match (*name, value) {
                ("--progress", None) => opts.mode = ProgressMode::Every(2.0),
                ("--progress", Some(secs)) => {
                    opts.mode = ProgressMode::Every(parse_value::<Secs>(name, secs)?.0)
                }
                ("--no-progress", _) => opts.mode = ProgressMode::Off,
                ("--progress-out", Some(path)) => opts.stream = Some(path.into()),
                _ => {}
            }
        }
        Ok(opts)
    }

    /// The checkpoint group; `None` without `--checkpoint`. `every` is
    /// the subcommand's default cadence.
    pub fn checkpoint(&self, every: usize) -> Result<Option<CheckpointOptions>, CliError> {
        let every = self.or("--checkpoint-every", every)?;
        let stop_after = self.get("--stop-after")?;
        let resume = self.has("--resume");
        match self.get::<String>("--checkpoint")? {
            Some(path) => Ok(Some(CheckpointOptions {
                path: path.into(),
                every,
                resume,
                stop_after,
            })),
            None if resume => Err(CliError::Requires("--resume", "--checkpoint <file>")),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use partial_compaction::{FaultPlan, ManagerKind};
    use proptest::collection;
    use proptest::prelude::*;

    fn table(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn strings(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|t| t.to_string()).collect()
    }

    /// Each subcommand takes exactly the flags the hand-written parser
    /// it replaced took.
    #[test]
    fn flag_sets_are_pinned() {
        let simulate = "--program --manager --m --log-n --c --map --validate --series --every \
                        --stats --trace-out --profile --rounds --allocs --chaos --paranoia \
                        --metrics --metrics-out --progress --no-progress --progress-out";
        let expected = [
            ("bounds", ""),
            ("figure", "--plot"),
            ("simulate", simulate),
            ("record", simulate),
            ("replay", ""),
            (
                "fleet",
                "--tenants --shards --manager --seed --m-min --m-max --theta --rounds --allocs \
                 --c --mix --threads --chaos --paranoia --checkpoint --checkpoint-every --resume \
                 --stop-after --json --metrics --metrics-out --progress --no-progress \
                 --progress-out",
            ),
            ("bench diff", "--against --tolerance"),
            ("bench run", "--smoke --trace-out"),
            ("experiment", ""),
            ("sweep", ""),
            (
                "worst-case",
                "--max-states --threads --checkpoint --checkpoint-every --resume --stop-after \
                 --metrics --metrics-out --progress --no-progress --progress-out",
            ),
            ("reproduce", ""),
        ];
        assert_eq!(COMMANDS.len(), expected.len());
        for (name, flags) in expected {
            let mut want: Vec<&str> = flags.split_whitespace().collect();
            let mut got: Vec<&str> = table(name).flags().map(|f| f.name).collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn defaults_match_the_subcommands() {
        let none = parse(table("simulate"), &[]).unwrap();
        assert_eq!(
            none.progress(ProgressMode::Off).unwrap().mode,
            ProgressMode::Off
        );
        let args = parse(table("fleet"), &strings(&["--progress", "--no-progress"])).unwrap();
        assert_eq!(
            args.progress(ProgressMode::Auto).unwrap().mode,
            ProgressMode::Off
        );
        let args = parse(
            table("fleet"),
            &strings(&["--no-progress", "--progress=0.5"]),
        )
        .unwrap();
        assert_eq!(
            args.progress(ProgressMode::Auto).unwrap().mode,
            ProgressMode::Every(0.5)
        );
        let args = parse(
            table("worst-case"),
            &strings(&["6", "1", "--checkpoint", "f"]),
        )
        .unwrap();
        let opts = args.checkpoint(1).unwrap().unwrap();
        assert_eq!((opts.every, opts.resume, opts.stop_after), (1, false, None));
        let args = parse(table("fleet"), &strings(&["--resume"])).unwrap();
        assert_eq!(
            args.checkpoint(16).unwrap_err().to_string(),
            "--resume needs --checkpoint <file>"
        );
    }

    #[test]
    fn errors_name_the_flag_and_the_reason() {
        let sim = table("simulate");
        let err = |argv: &[&str]| parse(sim, &strings(argv)).unwrap_err().to_string();
        assert_eq!(err(&["--bogus"]), "unknown flag --bogus");
        assert_eq!(err(&["--m=5"]), "unknown flag --m=5");
        assert_eq!(err(&["--map=1"]), "unknown flag --map=1");
        assert_eq!(err(&["--m"]), "--m needs a value");
        assert_eq!(err(&["extra"]), "unexpected argument extra");
        let args = parse(sim, &strings(&["--m", "x"])).unwrap();
        let bad = args.get::<u64>("--m").unwrap_err();
        assert_eq!(bad.to_string(), "--m: invalid digit found in string");
        for secs in ["inf", "-inf", "1e300", "NaN", "-1", ""] {
            let args = parse(sim, &strings(&[&format!("--progress={secs}")])).unwrap();
            let e = args.progress(ProgressMode::Off).unwrap_err();
            assert!(e.to_string().starts_with("--progress: "), "{e}");
        }
        let missing = parse(table("bounds"), &strings(&["1"])).unwrap_err();
        assert_eq!(missing.to_string(), "bounds needs <M_words> <log2_n> <c>");
    }

    /// Tokens for arbitrary argv: every table flag, extreme and
    /// non-finite numbers, and junk.
    fn token_pool() -> Vec<String> {
        let mut pool: Vec<String> = COMMANDS
            .iter()
            .flat_map(Command::flags)
            .map(|f| f.name.to_string())
            .collect();
        let numbers = [
            "0",
            "1",
            "-1",
            "-0",
            "8",
            "0.5",
            "inf",
            "-inf",
            "NaN",
            "1e300",
            "1e-300",
            "4294967296",
            "18446744073709551615",
            "18446744073709551616",
            "1,2,3,4",
            "1,2",
        ];
        for n in numbers {
            pool.push(n.to_string());
            pool.push(format!("--progress={n}"));
        }
        let junk = [
            "",
            "-",
            "--",
            "=",
            "--=",
            "-h",
            "x",
            "é",
            "--m=5",
            "--map=",
            "c",
            "n",
            "rho",
            "thm1-lower",
            "first-fit",
            "magic",
            "seed=1,trace-io=5",
            "seed=zap",
            "out.json",
        ];
        pool.extend(junk.iter().map(|j| j.to_string()));
        pool
    }

    /// Runs every typed accessor a subcommand might call.
    fn exercise(args: &Args, cmd: &Command) -> Result<(), CliError> {
        args.run_config()?;
        args.progress(ProgressMode::Auto)?;
        args.checkpoint(1)?;
        for flag in cmd.flags() {
            args.get::<u64>(flag.name).ok();
            args.get::<f64>(flag.name).ok();
            args.get::<Mix>(flag.name).ok();
            args.get::<ManagerKind>(flag.name).ok();
            args.get::<FaultPlan>(flag.name).ok();
        }
        for operand in &args.operands {
            parse_value::<u64>("operand", operand).ok();
        }
        Ok(())
    }

    /// A value the subcommands accept for `name`.
    fn sample(name: &str) -> &'static str {
        match name {
            "--program" => "robson",
            "--manager" => "buddy",
            "--chaos" => "seed=3,budget-cut=10",
            "--mix" => "1,2,3,4",
            "--theta" | "--tolerance" => "1.5",
            "--series" | "--trace-out" | "--metrics-out" | "--checkpoint" | "--against"
            | "--progress-out" => "out.json",
            _ => "8",
        }
    }

    /// Parses `name`'s value with the type its subcommand uses.
    fn typed(args: &Args, name: &'static str) -> Result<(), CliError> {
        match name {
            "--manager" => args.get::<ManagerKind>(name).map(drop),
            "--chaos" => args.get::<FaultPlan>(name).map(drop),
            "--mix" => args.get::<Mix>(name).map(drop),
            "--theta" | "--tolerance" => args.get::<f64>(name).map(drop),
            _ if sample(name) == "8" => args.get::<u64>(name).map(drop),
            _ => args.get::<String>(name).map(drop),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_argv_ends_in_ok_or_a_cli_error(
            which in 0usize..COMMANDS.len(),
            picks in collection::vec(0usize..1024, 0..10),
        ) {
            let pool = token_pool();
            let cmd = &COMMANDS[which];
            let argv: Vec<String> = picks.iter().map(|&i| pool[i % pool.len()].clone()).collect();
            if let Err(e) = parse(cmd, &argv).and_then(|args| exercise(&args, cmd)) {
                prop_assert!(!e.to_string().is_empty());
            }
        }

        #[test]
        fn every_table_flag_is_documented_and_accepted(
            which in 0usize..COMMANDS.len(),
            picks in collection::vec(0usize..1024, 1..8),
        ) {
            let cmd = &COMMANDS[which];
            let flags: Vec<&Flag> = cmd.flags().collect();
            if flags.is_empty() {
                return Ok(());
            }
            let help = usage();
            let mut argv = vec!["8".to_string(); cmd.arity.0];
            let mut picked: Vec<&Flag> = picks.iter().map(|&i| flags[i % flags.len()]).collect();
            if picked.iter().any(|f| f.name == "--resume") {
                picked.extend(flags.iter().find(|f| f.name == "--checkpoint"));
            }
            for flag in &picked {
                prop_assert!(help.contains(flag.name), "{} missing from --help", flag.name);
                match flag.arity {
                    Arity::Switch => argv.push(flag.name.into()),
                    Arity::Value(_) => argv.extend([flag.name.into(), sample(flag.name).into()]),
                    Arity::Inline(_) => argv.push(format!("{}=0.5", flag.name)),
                }
            }
            let args = parse(cmd, &argv).map_err(TestCaseError::fail)?;
            args.run_config().map_err(TestCaseError::fail)?;
            args.progress(ProgressMode::Auto).map_err(TestCaseError::fail)?;
            args.checkpoint(1).map_err(TestCaseError::fail)?;
            for flag in picked {
                prop_assert!(args.has(flag.name));
                if let Arity::Value(_) = flag.arity {
                    typed(&args, flag.name).map_err(TestCaseError::fail)?;
                }
            }
        }
    }
}
