//! The seed search, kept as a reference oracle.
//!
//! This is the pre-packing implementation: states are `Vec<(u64, u64)>`
//! interval lists (plus a rover word for stateful policies), cloned for
//! every successor and deduplicated through a SipHash `HashSet`. It is
//! deliberately unoptimized and sequential — its job is to be obviously
//! faithful to the original algorithm so that
//! [`try_worst_case`](super::try_worst_case) can be checked byte-for-byte
//! against it (see `tests/search_equivalence.rs`) and so the `search`
//! bench suite can measure the packed pipeline's space and throughput win
//! against the honest "before".

use std::collections::HashSet;

use super::{SearchError, SearchPolicy, WorstCase};
use crate::params::Params;

/// Interval list plus rover: the rover stays 0 for stateless policies so
/// their state space is identical to the seed's.
type RefState = (Vec<(u64, u64)>, u64);

/// The reference result: the worst case plus a resident-memory estimate
/// of the seen-set, for the bench's bytes-per-state comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceReport {
    /// The search result (identical to the packed pipeline's).
    pub worst: WorstCase,
    /// Estimated resident bytes of the seen-set: per-entry heap payload
    /// (`16·k` bytes per `k`-interval state) plus the hash-table capacity
    /// times the slot footprint (the 32-byte `(Vec, u64)` key plus one
    /// control byte).
    pub resident_bytes: u64,
}

/// The seed algorithm, verbatim modulo the typed error return and the
/// rover generalization: sequential BFS over `Vec`-encoded states.
pub fn worst_case(
    params: Params,
    policy: SearchPolicy,
    max_states: usize,
) -> Result<ReferenceReport, SearchError> {
    let _span = pcb_telemetry::span!("exhaustive.reference");
    let m = params.m();
    let limit = 4 * m * (params.log_n() as u64 + 2);
    let sizes: Vec<u64> = (0..=params.log_n()).map(|k| 1u64 << k).collect();
    let has_rover = policy.has_rover();

    let mut seen: HashSet<RefState> = HashSet::new();
    let root: RefState = (Vec::new(), 0);
    seen.insert(root.clone());
    let mut frontier: Vec<RefState> = vec![root];
    let mut worst = 0u64;

    while !frontier.is_empty() {
        let mut next_frontier = Vec::new();
        for (state, rover) in &frontier {
            let live: u64 = state.iter().map(|&(_, l)| l).sum();
            let span = state.last().map(|&(s, l)| s + l).unwrap_or(0);
            if span >= limit {
                return Err(SearchError::AddressCapReached { limit });
            }
            worst = worst.max(span);
            for &size in &sizes {
                if live + size > m {
                    continue;
                }
                let addr = policy.place(state, *rover, size);
                let mut next = state.clone();
                let pos = next.partition_point(|&(s, _)| s < addr);
                next.insert(pos, (addr, size));
                let next_rover = if has_rover { addr + size } else { 0 };
                let next = (next, next_rover);
                if !seen.contains(&next) {
                    seen.insert(next.clone());
                    next_frontier.push(next);
                }
            }
            for i in 0..state.len() {
                let mut next = state.clone();
                next.remove(i);
                let next_span = next.last().map(|&(s, l)| s + l).unwrap_or(0);
                let next_rover = if has_rover {
                    (*rover).min(next_span)
                } else {
                    0
                };
                let next = (next, next_rover);
                if !seen.contains(&next) {
                    seen.insert(next.clone());
                    next_frontier.push(next);
                }
            }
        }
        frontier = next_frontier;
        if seen.len() > max_states {
            return Err(SearchError::StateSpaceExceeded {
                states: seen.len(),
                max_states,
            });
        }
    }

    let payload: u64 = seen.iter().map(|(s, _)| 16 * s.len() as u64).sum();
    let slot = std::mem::size_of::<RefState>() as u64 + 1;
    let resident_bytes = payload + seen.capacity() as u64 * slot;
    Ok(ReferenceReport {
        worst: WorstCase {
            heap_size: worst,
            states: seen.len(),
        },
        resident_bytes,
    })
}
