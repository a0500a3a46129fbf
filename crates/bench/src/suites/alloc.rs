//! The manager free-space mirror against its seed.
//!
//! Two families of cells:
//!
//! 1. **Churn cells** drive a bare [`FreeSpace`] and the seed
//!    [`ReferenceFreeSpace`] with a deterministic synthetic churn stream:
//!    takes under each fit discipline plus the aligned (buddy-style)
//!    path, interleaved with releases of random live extents. A checksum
//!    of every returned address asserts the two answer identically op
//!    for op, and their final gap structures must match.
//! 2. **E2e cells** time the full `P_F` simulation against every manager
//!    in the suite.

use partial_compaction::alloc::reference::ReferenceFreeSpace;
use partial_compaction::alloc::{FitPolicy, FreeSpace};
use partial_compaction::heap::{Addr, Recorder, Size};
use partial_compaction::{note, sim, ManagerKind, Params};

use crate::harness::{best_of, Cell, SuiteReport};

/// How a churn cell turns a size into a take against the mirror.
#[derive(Clone, Copy)]
enum TakeMode {
    /// `take(size, policy)` under a fixed fit discipline.
    Policy(FitPolicy),
    /// `take_next_fit(size, &mut cursor)` with a rolling cursor.
    NextFit,
    /// `take_aligned(size, size)` on power-of-two sizes: the buddy path,
    /// under the buddy invariant (a non-aligned churn stream would
    /// degenerate both indexes into address scans no aligned-path
    /// manager ever produces).
    Aligned,
}

const CHURN_CELLS: [(&str, TakeMode); 5] = [
    ("churn/first-fit", TakeMode::Policy(FitPolicy::FirstFit)),
    ("churn/best-fit", TakeMode::Policy(FitPolicy::BestFit)),
    ("churn/worst-fit", TakeMode::Policy(FitPolicy::WorstFit)),
    ("churn/next-fit", TakeMode::NextFit),
    ("churn/aligned", TakeMode::Aligned),
];

/// One operation of the synthetic churn stream.
#[derive(Clone, Copy)]
enum MirrorOp {
    /// Take `size` words (the cell's [`TakeMode`] decides how).
    Take(u64),
    /// Release the `pick % live`-th live extent.
    Release(usize),
}

/// A churn stream: a pure-take warmup builds a fragmented live set, then
/// takes and releases alternate evenly so the live population (and the
/// gap structure the mirror must index) stays at its high-water level.
/// Sizes skew small with an occasional large outlier, like the paper's
/// powers-of-two size classes. xorshift64 keeps it deterministic.
fn churn_stream(total: usize, seed: u64) -> Vec<MirrorOp> {
    let mut state = seed;
    let warmup = total / 8;
    let mut ops = Vec::with_capacity(total);
    for i in 0..total {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let r = state;
        if i < warmup || r.is_multiple_of(2) {
            let size = if r.is_multiple_of(29) {
                1 + (r >> 8) % 1024
            } else {
                1 + (r >> 8) % 64
            };
            ops.push(MirrorOp::Take(size));
        } else {
            ops.push(MirrorOp::Release((r >> 8) as usize));
        }
    }
    ops
}

/// The free-space operations a replay drives, on either index.
trait Mirror: Default {
    fn take(&mut self, size: Size, policy: FitPolicy) -> Addr;
    fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> Addr;
    fn take_aligned(&mut self, size: Size, align: u64) -> Addr;
    fn release(&mut self, start: Addr, size: Size);
}

macro_rules! impl_mirror {
    ($t:ty) => {
        impl Mirror for $t {
            fn take(&mut self, size: Size, policy: FitPolicy) -> Addr {
                <$t>::take(self, size, policy)
            }
            fn take_next_fit(&mut self, size: Size, cursor: &mut Addr) -> Addr {
                <$t>::take_next_fit(self, size, cursor)
            }
            fn take_aligned(&mut self, size: Size, align: u64) -> Addr {
                <$t>::take_aligned(self, size, align)
            }
            fn release(&mut self, start: Addr, size: Size) {
                <$t>::release(self, start, size)
            }
        }
    };
}

impl_mirror!(FreeSpace);
impl_mirror!(ReferenceFreeSpace);

/// Replays the stream against a fresh mirror, folding every answer into
/// a checksum: two indexes that ever place or free differently cannot
/// end with the same digest.
fn replay<M: Mirror>(mode: TakeMode, ops: &[MirrorOp]) -> (M, u64) {
    let mut space = M::default();
    let mut cursor = Addr::ZERO;
    let mut taken: Vec<(Addr, Size)> = Vec::new();
    let mut digest = 0u64;
    for &op in ops {
        match op {
            MirrorOp::Take(words) => {
                let (size, addr) = match mode {
                    TakeMode::Policy(policy) => {
                        let size = Size::new(words);
                        (size, space.take(size, policy))
                    }
                    TakeMode::NextFit => {
                        let size = Size::new(words);
                        (size, space.take_next_fit(size, &mut cursor))
                    }
                    TakeMode::Aligned => {
                        let pow2 = words.next_power_of_two();
                        let size = Size::new(pow2);
                        (size, space.take_aligned(size, pow2))
                    }
                };
                digest = digest.wrapping_mul(31).wrapping_add(addr.get());
                taken.push((addr, size));
            }
            MirrorOp::Release(pick) => {
                if taken.is_empty() {
                    continue;
                }
                let (addr, size) = taken.swap_remove(pick % taken.len());
                space.release(addr, size);
                digest = digest.wrapping_mul(31).wrapping_add(size.get());
            }
        }
    }
    (space, digest)
}

/// Asserts two replayed mirrors describe the same free-space state.
fn assert_states_agree(name: &str, indexed: &FreeSpace, reference: &ReferenceFreeSpace) {
    assert_eq!(indexed.frontier(), reference.frontier(), "{name}");
    assert_eq!(indexed.gap_count(), reference.gap_count(), "{name}");
    assert_eq!(indexed.gap_words(), reference.gap_words(), "{name}");
    assert_eq!(indexed.largest_gap(), reference.largest_gap(), "{name}");
    let igaps: Vec<_> = indexed.gaps().collect();
    let rgaps: Vec<_> = reference.gaps().collect();
    assert_eq!(igaps, rgaps, "{name}: gap structure diverged");
}

pub(super) fn run(smoke: bool) -> SuiteReport {
    let iters: u32 = if smoke { 1 } else { 3 };
    let op_count: usize = if smoke { 40_000 } else { 400_000 };
    let (e2e_m, e2e_log_n) = if smoke { (1 << 12, 9) } else { (1 << 14, 10) };
    let mut report = SuiteReport::default();

    let (mut total_ref_op, mut total_idx_op) = (0.0f64, 0.0f64);
    for (name, mode) in CHURN_CELLS {
        let ops = churn_stream(op_count, 0x5eed_0001);
        let (ref_secs, (ref_space, ref_digest)) =
            best_of(iters, || replay::<ReferenceFreeSpace>(mode, &ops));
        let (idx_secs, (idx_space, idx_digest)) =
            best_of(iters, || replay::<FreeSpace>(mode, &ops));
        assert_eq!(idx_digest, ref_digest, "{name}: mirror answers diverged");
        assert_states_agree(name, &idx_space, &ref_space);
        let speedup = ref_secs / idx_secs;
        note!(
            "  {name:18} {op_count:8} ops  {ref_secs:7.4}s -> {idx_secs:7.4}s ({speedup:5.2}x)  \
             {:9.0} ops/s",
            op_count as f64 / idx_secs,
        );
        total_ref_op += ref_secs;
        total_idx_op += idx_secs;
        report.cell(
            Cell::new(name, idx_secs, op_count as f64)
                .with("ops", op_count)
                .with("reference_seconds", ref_secs)
                .with("speedup", speedup)
                .with(
                    "reference_throughput_ops_per_sec",
                    op_count as f64 / ref_secs,
                )
                .with("states_identical", true),
        );
    }

    let mut total_idx_e2e = 0.0f64;
    let params = Params::new(e2e_m, e2e_log_n, 20).expect("e2e cell is a valid Params");
    for kind in ManagerKind::ALL {
        let sim = || {
            sim::Sim::new(params)
                .adversary(sim::Adversary::PF)
                .manager(kind)
        };
        let (idx_secs, _) = best_of(1, || sim().run().expect("e2e cell runs"));
        // Count the event stream once (observer overhead excluded from
        // the timed run).
        let mut recorder = Recorder::new();
        sim()
            .observe(&mut recorder)
            .run()
            .expect("observed run matches");
        let events = recorder.len();
        note!(
            "  e2e/{:16} {events:8} events  {idx_secs:7.4}s",
            kind.to_string()
        );
        total_idx_e2e += idx_secs;
        report
            .cell(Cell::new(format!("e2e/{kind}"), idx_secs, events as f64).with("events", events));
    }

    report.value("iters_per_cell", iters);
    report.value("ops_per_cell", op_count);
    report.value("total_reference_op_seconds", total_ref_op);
    report.value("total_indexed_op_seconds", total_idx_op);
    report.value("overall_op_speedup", total_ref_op / total_idx_op);
    report.value("total_indexed_e2e_seconds", total_idx_e2e);
    report
}
