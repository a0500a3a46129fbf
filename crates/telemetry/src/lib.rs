//! # pcb-telemetry
//!
//! Engine telemetry for the partial-compaction workspace: where does the
//! wall clock go *inside the engine* — `Execution::run` phases, `par_map`
//! shard lifetimes, exhaustive-search BFS levels — as opposed to the
//! simulated-heap observability the `Observer` bus provides.
//!
//! Three pieces:
//!
//! * **Spans** — [`span!`] opens an RAII [`SpanGuard`] that records a
//!   named, timed interval on the current thread's track when dropped.
//!   Collection is off by default and the disabled guard is one relaxed
//!   atomic load: instrumentation ships in release binaries at no cost,
//!   the same discipline as the engine's detached observer path.
//! * **Traces** — [`take_trace`] drains everything recorded into a
//!   [`Trace`], whose [`ToJson`](pcb_json::ToJson) form is a Chrome
//!   trace-event document loadable in Perfetto or `chrome://tracing`.
//! * **Profiles** — [`Profile::from_trace`] aggregates spans by name into
//!   count / total / mean / max / self-time rows with a text table.
//!
//! Counters and gauges (resident bytes, peak BFS frontier width, bitmap
//! scan counts) live in the `pcb-metrics` registry, the one counter
//! store; telemetry keeps only spans.
//!
//! ```
//! use pcb_telemetry as telemetry;
//!
//! telemetry::enable();
//! {
//!     let _outer = telemetry::span!("outer");
//!     let _inner = telemetry::span!("inner");
//! } // guards drop here, recording both spans
//! let trace = telemetry::take_trace();
//! assert_eq!(trace.len(), 2);
//!
//! // Chrome trace-event JSON, ready for Perfetto:
//! let doc = pcb_json::ToJson::to_json(&trace).to_string();
//! assert!(doc.contains("traceEvents"));
//!
//! // Aggregate view:
//! let profile = telemetry::Profile::from_trace(&trace);
//! assert_eq!(profile.rows[0].count, 1);
//! # telemetry::reset();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod profile;
mod registry;

pub use profile::{Profile, ProfileRow};
pub use registry::{
    disable, enable, enabled, reset, take_trace, SpanGuard, SpanRecord, Trace, TrackInfo,
};

/// Opens a span covering the rest of the enclosing scope; bind the result
/// or it closes immediately.
///
/// ```
/// let _span = pcb_telemetry::span!("phase");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}
