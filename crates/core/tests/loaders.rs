//! The checkpoint and trace loaders against hostile input: arbitrary
//! bytes and any single field of a valid document changed.
//!
//! * Both checkpoint loaders (fleet and exhaustive search) must end every
//!   case in their typed checkpoint error, never in a panic or in a
//!   resumed run; the hand-edited checkpoints that used to resume into a
//!   wrong report are pinned too.
//! * `Trace::from_json`, `Trace::from_jsonl` and `Trace::replay` must end
//!   every case in a typed error or a replay that checks out, never in a
//!   panic. A trace carries no digest on purpose: an edited trace that
//!   still obeys every heap rule is a valid trace, and `pcb replay`
//!   says so.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use partial_compaction::exhaustive::{
    try_worst_case_resumable, ResumeError, SearchOutcome, SearchPolicy,
};
use partial_compaction::fleet::{self, CheckpointOptions, FleetConfig, FleetError, FleetOutcome};
use partial_compaction::heap::Trace;
use partial_compaction::{Execution, Heap, ManagerKind, Params, PfConfig, PfProgram};
use partial_compaction::{RunConfig, TraceWriter};
use pcb_json::Json;
use proptest::collection;
use proptest::prelude::*;

/// A fresh file name per call: the tests run in parallel.
fn temp_path(name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pcb-loader-{}-{name}-{n}.json", std::process::id()))
}

fn small_fleet() -> FleetConfig {
    FleetConfig {
        tenants: 64,
        shards: 8,
        ..FleetConfig::default()
    }
}

/// Pauses a small fleet after two shards and returns its checkpoint.
fn fleet_checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let path = temp_path("fleet-source");
        let opts = CheckpointOptions::new(&path).every(1).stop_after(2);
        let outcome = fleet::run_checkpointed(&small_fleet(), &RunConfig::default(), &opts);
        assert!(matches!(outcome, Ok(FleetOutcome::Paused { .. })));
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        std::fs::remove_file(&path).ok();
        text
    })
}

/// Resumes the small fleet from `text`; the error text when refused.
fn resume_fleet(name: &str, text: &str) -> Result<(), String> {
    let path = temp_path(name);
    std::fs::write(&path, text).unwrap();
    let opts = CheckpointOptions::new(&path).resume(true);
    let outcome = fleet::run_checkpointed(&small_fleet(), &RunConfig::default(), &opts);
    std::fs::remove_file(&path).ok();
    match outcome {
        Err(FleetError::Checkpoint(msg)) => Err(msg),
        Err(other) => panic!("expected a checkpoint error, got {other:?}"),
        Ok(_) => Ok(()),
    }
}

fn search_params() -> Params {
    Params::new(8, 2, 10).expect("toy params")
}

/// Pauses the `M = 8, log n = 2` first-fit search after `levels` levels
/// and returns its checkpoint.
fn search_checkpoint(levels: usize) -> String {
    let path = temp_path(&format!("search-source-{levels}"));
    let opts = CheckpointOptions::new(&path).stop_after(levels);
    let outcome = try_worst_case_resumable(
        search_params(),
        SearchPolicy::FirstFit,
        3_000_000,
        &RunConfig::default(),
        &opts,
    );
    assert!(matches!(outcome, Ok(SearchOutcome::Paused { .. })));
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    std::fs::remove_file(&path).ok();
    text
}

/// Resumes the search from `text`: the certified heap size, or the error
/// text when refused.
fn resume_search(name: &str, text: &str) -> Result<u64, String> {
    let path = temp_path(name);
    std::fs::write(&path, text).unwrap();
    let opts = CheckpointOptions::new(&path).resume(true);
    let outcome = try_worst_case_resumable(
        search_params(),
        SearchPolicy::FirstFit,
        3_000_000,
        &RunConfig::default(),
        &opts,
    );
    std::fs::remove_file(&path).ok();
    match outcome {
        Ok(SearchOutcome::Complete(report)) => Ok(report.worst.heap_size),
        Ok(SearchOutcome::Paused { .. }) => panic!("a resume without stop_after completes"),
        Err(ResumeError::Checkpoint(msg)) => Err(msg),
        Err(other) => panic!("expected a checkpoint error, got {other}"),
    }
}

/// One step into a JSON document.
#[derive(Debug, Clone)]
enum Seg {
    Key(String),
    Index(usize),
}

/// Every leaf of `doc` (and every empty container), as a path.
fn leaves(doc: &Json, path: &mut Vec<Seg>, out: &mut Vec<Vec<Seg>>) {
    match doc {
        Json::Object(fields) if !fields.is_empty() => {
            for (key, value) in fields {
                path.push(Seg::Key(key.clone()));
                leaves(value, path, out);
                path.pop();
            }
        }
        Json::Array(items) if !items.is_empty() => {
            for (i, value) in items.iter().enumerate() {
                path.push(Seg::Index(i));
                leaves(value, path, out);
                path.pop();
            }
        }
        _ => out.push(path.clone()),
    }
}

fn at<'a>(doc: &'a mut Json, path: &[Seg]) -> &'a mut Json {
    path.iter().fold(doc, |node, seg| match (node, seg) {
        (Json::Object(fields), Seg::Key(key)) => fields.get_mut(key).expect("leaf path"),
        (Json::Array(items), Seg::Index(i)) => &mut items[*i],
        _ => unreachable!("paths come from the same document"),
    })
}

/// Replacement values: other numbers near and far, other types.
fn replacement(original: &Json, pick: usize) -> Json {
    let near = match original {
        Json::Int(v) => Json::Int(v + 1),
        _ => Json::Int(1),
    };
    let pool = [
        near,
        Json::Int(0),
        Json::Int(-1),
        Json::Int(1 << 33),
        Json::Int(i128::from(u64::MAX)),
        Json::Float(0.5),
        Json::Null,
        Json::Bool(true),
        Json::Str("x".into()),
        Json::Array(Vec::new()),
        Json::Object(Default::default()),
    ];
    let pick = pick % pool.len();
    let value = pool[pick].clone();
    if &value == original {
        pool[(pick + 1) % pool.len()].clone()
    } else {
        value
    }
}

/// Replaces the `which`-th leaf of `doc`.
fn mutate(doc: &mut Json, which: usize, pick: usize) {
    let mut paths = Vec::new();
    leaves(doc, &mut Vec::new(), &mut paths);
    let leaf = at(doc, &paths[which % paths.len()]);
    *leaf = replacement(leaf, pick);
}

/// `text` with the `which`-th leaf replaced.
fn mutated(text: &str, which: usize, pick: usize) -> String {
    let mut doc = Json::parse(text).expect("valid checkpoint");
    mutate(&mut doc, which, pick);
    format!("{doc}\n")
}

/// Bytes drawn mostly from JSON's alphabet, as the loaders read them.
fn junk(bytes: &[u8]) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,-.0123456789eEtruefalsn \n\\";
    let chars: Vec<u8> = bytes
        .iter()
        .map(|&b| match ALPHABET.get(usize::from(b)) {
            Some(&c) => c,
            None => b,
        })
        .collect();
    String::from_utf8_lossy(&chars).into_owned()
}

#[test]
fn untouched_checkpoints_still_resume() {
    assert_eq!(resume_fleet("fleet-clean", fleet_checkpoint()), Ok(()));
    assert_eq!(resume_search("search-clean", &search_checkpoint(3)), Ok(16));
}

/// The edits that resumed silently before checkpoints carried a digest:
/// a search frontier swapped for `[1,7]` or `[0]` certified HS = 10
/// words for `M = 8, log n = 2` (the truth is 16, and 10 is below
/// Robson's 13); a fleet checkpoint with `tenants` lowered by 7 resumed
/// to a report claiming 7 tenants fewer than the run had.
#[test]
fn hand_edited_checkpoints_are_refused() {
    let search = search_checkpoint(3);
    let mut doc = Json::parse(&search).unwrap();
    for frontier in ["[1,7]", "[0]"] {
        *at(&mut doc, &[Seg::Key("frontier".into())]) = Json::parse(frontier).unwrap();
        let err = resume_search("search-edited", &format!("{doc}\n")).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    let fleet = fleet_checkpoint();
    let mut doc = Json::parse(fleet).unwrap();
    let tenants = at(
        &mut doc,
        &[Seg::Key("accumulator".into()), Seg::Key("tenants".into())],
    );
    let Json::Int(n) = *tenants else {
        panic!("tenants is an integer")
    };
    *tenants = Json::Int(n - 7);
    let err = resume_fleet("fleet-edited", &format!("{doc}\n")).unwrap_err();
    assert!(err.contains("digest mismatch"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_are_a_typed_error(bytes in collection::vec(0u8..=255, 0..160)) {
        let text = junk(&bytes);
        prop_assert!(resume_fleet("fleet-junk", &text).is_err());
        prop_assert!(resume_search("search-junk", &text).is_err());
    }

    #[test]
    fn any_changed_field_is_a_typed_error(which in 0usize..100_000, pick in 0usize..64) {
        let fleet = mutated(fleet_checkpoint(), which, pick);
        prop_assert!(resume_fleet("fleet-mutated", &fleet).is_err(), "{fleet}");
        let search = mutated(&search_checkpoint(2), which, pick);
        prop_assert!(resume_search("search-mutated", &search).is_err(), "{search}");
    }
}

/// A `P_F` run against the compacting pages manager, as the lines of
/// its streamed JSON Lines trace: the `{"c": N}` header, then one event
/// object per line.
fn trace_lines() -> &'static [Json] {
    static LINES: OnceLock<Vec<Json>> = OnceLock::new();
    LINES.get_or_init(|| {
        let (m, log_n, c) = (512, 6, 20);
        let params = Params::new(m, log_n, c).expect("valid");
        let program = PfProgram::new(PfConfig::new(m, log_n, c).expect("feasible"));
        let mut writer = TraceWriter::new(Vec::new()).begin(c);
        let mut exec = Execution::new(Heap::new(c), program, ManagerKind::PagesThm2.build(&params));
        exec.run_observed(&mut writer).expect("P_F runs");
        let jsonl = String::from_utf8(writer.finish().expect("memory sink")).unwrap();
        assert!(jsonl.contains("moved"), "the trace exercises moves");
        jsonl
            .lines()
            .map(|line| Json::parse(line).unwrap())
            .collect()
    })
}

/// The trace's JSON and JSON Lines texts.
fn trace_texts(lines: &[Json]) -> (String, String) {
    let events: Vec<String> = lines[1..].iter().map(Json::to_string).collect();
    let c = lines[0].get("c").map_or("null".into(), Json::to_string);
    let json = format!("{{\"c\":{c},\"events\":[{}]}}", events.join(","));
    let jsonl: Vec<String> = lines.iter().map(Json::to_string).collect();
    (json, jsonl.join("\n"))
}

/// Loads `text` with `load` and replays what loads. Every outcome is
/// fine except a panic, which fails the test.
fn load_and_replay(load: fn(&str) -> Result<Trace, String>, text: &str) {
    if let Ok(trace) = load(text) {
        let _ = trace.replay();
    }
}

#[test]
fn untouched_traces_replay() {
    let (json, jsonl) = trace_texts(trace_lines());
    let from_json = Trace::from_json(&json).expect("loads");
    let from_jsonl = Trace::from_jsonl(&jsonl).expect("loads");
    assert_eq!(from_json, from_jsonl);
    from_json.replay().expect("replays");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic_the_trace_loaders(
        bytes in collection::vec(0u8..=255, 0..160),
    ) {
        let text = junk(&bytes);
        load_and_replay(Trace::from_json, &text);
        load_and_replay(Trace::from_jsonl, &text);
    }

    #[test]
    fn a_changed_trace_field_is_a_typed_error_or_a_valid_trace(
        which in 0usize..1_000_000,
        pick in 0usize..64,
    ) {
        let mut lines = trace_lines().to_vec();
        let (line, leaf) = (which % lines.len(), which / lines.len());
        mutate(&mut lines[line], leaf, pick);
        let (json, jsonl) = trace_texts(&lines);
        load_and_replay(Trace::from_json, &json);
        load_and_replay(Trace::from_jsonl, &jsonl);
    }
}
