//! Integration tests for the span registry. The registry is process
//! global, so every test serializes on one mutex and drains the sink
//! before asserting.

use std::sync::Mutex;

use pcb_json::{Json, ToJson};
use pcb_telemetry as telemetry;

static REGISTRY: Mutex<()> = Mutex::new(());

/// Runs `body` with exclusive ownership of the (clean) global registry.
fn exclusive<T>(body: impl FnOnce() -> T) -> T {
    let _guard = REGISTRY.lock().expect("no test panics while holding");
    telemetry::reset();
    let value = body();
    telemetry::reset();
    value
}

#[test]
fn disabled_spans_record_nothing() {
    exclusive(|| {
        {
            let _span = telemetry::span!("invisible");
        }
        assert!(telemetry::take_trace().is_empty());
    });
}

#[test]
fn guards_entered_while_disabled_stay_inert() {
    exclusive(|| {
        let early = telemetry::span!("before-enable");
        telemetry::enable();
        drop(early);
        assert!(telemetry::take_trace().is_empty());
    });
}

#[test]
fn nested_spans_attribute_self_time_to_the_parent() {
    exclusive(|| {
        telemetry::enable();
        {
            let _outer = telemetry::span!("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = telemetry::span!("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        telemetry::disable();
        let trace = telemetry::take_trace();
        assert_eq!(trace.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.track, inner.track, "same thread, same track");
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(
            outer.child_ns >= inner.dur_ns,
            "the inner span's time is charged to the parent"
        );
        assert!(outer.self_ns() <= outer.dur_ns - inner.dur_ns);
    });
}

#[test]
fn threads_get_distinct_named_tracks() {
    exclusive(|| {
        telemetry::enable();
        let main_track = {
            let _span = telemetry::span!("on-main");
            0 // placeholder; the real id comes from the trace below
        };
        let _ = main_track;
        std::thread::Builder::new()
            .name("worker-a".into())
            .spawn(|| {
                let _span = telemetry::span!("on-worker");
            })
            .unwrap()
            .join()
            .unwrap();
        telemetry::disable();
        let trace = telemetry::take_trace();
        assert_eq!(trace.len(), 2);
        let main_span = trace.spans.iter().find(|s| s.name == "on-main").unwrap();
        let worker_span = trace.spans.iter().find(|s| s.name == "on-worker").unwrap();
        assert_ne!(main_span.track, worker_span.track);
        let worker_track = trace
            .tracks
            .iter()
            .find(|t| t.id == worker_span.track)
            .expect("worker registered a track");
        assert_eq!(worker_track.name, "worker-a");
    });
}

#[test]
fn chrome_export_round_trips_through_pcb_json() {
    exclusive(|| {
        telemetry::enable();
        {
            let _a = telemetry::span!("phase-a");
            let _b = telemetry::span!("phase-b");
        }
        telemetry::disable();
        let trace = telemetry::take_trace();
        let document = trace.to_json().to_string();

        // The emitted document must be valid Chrome trace-event JSON:
        // parseable, a traceEvents array, and every "X" event carrying
        // name/ts/dur/pid/tid with numeric timestamps.
        let parsed = Json::parse(&document).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents present");
        let mut complete = 0;
        for event in events {
            let ph = event
                .get("ph")
                .and_then(Json::as_str)
                .expect("ph on every event");
            match ph {
                "X" => {
                    complete += 1;
                    assert!(event.get("name").and_then(Json::as_str).is_some());
                    assert!(event.get("ts").and_then(Json::as_f64).is_some());
                    assert!(event.get("dur").and_then(Json::as_f64).is_some());
                    assert!(event.get("pid").and_then(Json::as_u64).is_some());
                    assert!(event.get("tid").and_then(Json::as_u64).is_some());
                }
                "M" => {
                    assert!(event.get("args").is_some());
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, 2, "both spans exported as complete events");
    });
}

#[test]
fn take_trace_drains_the_sink() {
    exclusive(|| {
        telemetry::enable();
        {
            let _span = telemetry::span!("once");
        }
        telemetry::disable();
        assert_eq!(telemetry::take_trace().len(), 1);
        assert!(telemetry::take_trace().is_empty(), "second take is empty");
    });
}

#[test]
fn profile_rows_match_span_volume() {
    exclusive(|| {
        telemetry::enable();
        for _ in 0..10 {
            let _span = telemetry::span!("repeated");
        }
        telemetry::disable();
        let trace = telemetry::take_trace();
        let profile = telemetry::Profile::from_trace(&trace);
        assert_eq!(profile.rows.len(), 1);
        assert_eq!(profile.rows[0].name, "repeated");
        assert_eq!(profile.rows[0].count, 10);
        assert!(profile.render_table().contains("repeated"));
    });
}
