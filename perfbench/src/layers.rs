//! Timing wrappers around the two public layer traits, their calibration,
//! and the per-layer metric catalogue.
//!
//! [`TimedProgram`] and [`TimedManager`] forward every call to the real
//! program and manager and add its wall time to a cumulative [`Tally`]
//! in a [`Layers`] record both wrappers share. No span is kept per call:
//! at tens of millions of referee operations per second that would swamp
//! the run. A clock-read pair costs about as much as a `placed` or
//! `note_place` call, so the frequent methods are timed on a sample of
//! their calls and scaled up, and the clock cost each timed interval
//! holds is measured in place and taken out. The engine, referee and
//! ledger (`pcb-heap`) are what remains of the wall once the program and
//! manager self times are taken out.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use partial_compaction::heap::{
    Addr, AllocRequest, Extent, HeapOps, MemoryManager, MirrorCheck, MoveResponse, ObjectId,
    PlacementError, Program, Size, SpaceMap,
};

use crate::Metric;

/// Calls made to one trait method, the calls among them that were
/// timed, and the wall time of those.
#[derive(Debug, Default)]
pub struct Tally {
    pub calls: Cell<u64>,
    pub timed: Cell<u64>,
    pub ns: Cell<u64>,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl Tally {
    /// Estimated wall time of all calls: the timed ones scaled up.
    pub fn est_ns(&self) -> f64 {
        match self.timed.get() {
            0 => 0.0,
            timed => self.ns.get() as f64 * self.calls.get() as f64 / timed as f64,
        }
    }
}

/// One call in `SAMPLE` of the frequent methods is timed, chosen by a
/// seeded xorshift so that no periodic call pattern aliases with it.
const SAMPLE: u64 = 8;

/// One step of the free/place/move stream the referee saw, as the
/// wrappers observed it (ids, addresses and sizes fit `u32` at every
/// benchmarked scale; recording asserts so).
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Free(u32),
    Place { id: u32, addr: u32, size: u32 },
    Move { id: u32, to: u32 },
}

fn narrow(v: u64) -> u32 {
    u32::try_from(v).expect("recorded stream values fit u32")
}

/// A completed round of the program, stamped with the cumulative layer
/// times at its end (the per-round spans of `pf-large`).
#[derive(Debug, Clone, Copy)]
pub struct RoundMark {
    pub at: Instant,
    pub program_ns: f64,
    pub manager_ns: f64,
}

/// Cumulative per-method tallies shared by one program/manager pair.
#[derive(Debug, Default)]
pub struct Layers {
    pub frees: Tally,
    pub allocs: Tally,
    pub placed: Tally,
    pub moved: Tally,
    pub place: Tally,
    pub note_free: Tally,
    pub note_place: Tally,
    /// Empty intervals read right after each timed call: the clock cost
    /// each timed interval holds, measured where the calls run.
    pub probe: Tally,
    rng: Cell<u64>,
    /// `moved` calls answered with `FreeImmediately` (ghost objects).
    pub ghosts: Cell<u64>,
    pub rounds: RefCell<Vec<RoundMark>>,
    /// The recorded referee stream, when recording.
    pub stream: Option<RefCell<Vec<Op>>>,
}

impl Layers {
    /// Shared tallies; `record` also keeps the referee stream.
    pub fn new(record: bool) -> Rc<Self> {
        Rc::new(Layers {
            stream: record.then(|| RefCell::new(Vec::new())),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
            ..Layers::default()
        })
    }

    /// Runs `call` as one call of `tally`'s method, timing it when the
    /// method is rare (`always`) or the call is sampled.
    fn time<T>(&self, tally: &Tally, always: bool, call: impl FnOnce() -> T) -> T {
        bump(&tally.calls, 1);
        if !always {
            let mut x = self.rng.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng.set(x);
            if !x.is_multiple_of(SAMPLE) {
                return call();
            }
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        let probe = Instant::now();
        bump(&tally.timed, 1);
        bump(&tally.ns, (end - start).as_nanos() as u64);
        bump(&self.probe.timed, 1);
        bump(&self.probe.ns, (probe - end).as_nanos() as u64);
        out
    }

    fn log(&self, op: Op) {
        if let Some(stream) = &self.stream {
            stream.borrow_mut().push(op);
        }
    }

    pub fn program_calls(&self) -> u64 {
        [&self.frees, &self.allocs, &self.placed, &self.moved]
            .iter()
            .map(|t| t.calls.get())
            .sum()
    }

    /// Estimated program self time, clock cost included.
    pub fn program_raw_ns(&self) -> f64 {
        [&self.frees, &self.allocs, &self.placed, &self.moved]
            .iter()
            .map(|t| t.est_ns())
            .sum()
    }

    /// Estimated manager self time, clock cost included: `place` minus
    /// the `moved` calls nested in it (every move happens inside a
    /// `place`), plus the notifications.
    pub fn manager_raw_ns(&self) -> f64 {
        self.place.est_ns() + self.note_free.est_ns() + self.note_place.est_ns()
            - self.moved.est_ns()
    }

    /// Calls that were timed, each of which added three clock reads.
    pub fn timed_calls(&self) -> u64 {
        self.probe.timed.get()
    }
}

/// A [`Program`] that times each call into the real one.
pub struct TimedProgram<P> {
    inner: P,
    layers: Rc<Layers>,
}

impl<P: Program> TimedProgram<P> {
    pub fn new(inner: P, layers: Rc<Layers>) -> Self {
        TimedProgram { inner, layers }
    }
}

impl<P: Program> Program for TimedProgram<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn live_bound(&self) -> Size {
        self.inner.live_bound()
    }

    fn frees(&mut self) -> Vec<ObjectId> {
        let layers = &self.layers;
        layers.time(&layers.frees, true, || self.inner.frees())
    }

    fn allocs(&mut self) -> Vec<Size> {
        let layers = &self.layers;
        layers.time(&layers.allocs, true, || self.inner.allocs())
    }

    fn placed(&mut self, id: ObjectId, addr: Addr, size: Size) {
        let layers = &self.layers;
        layers.time(&layers.placed, false, || self.inner.placed(id, addr, size))
    }

    fn moved(&mut self, id: ObjectId, from: Addr, to: Addr, size: Size) -> MoveResponse {
        let layers = &self.layers;
        let response = layers.time(&layers.moved, false, || {
            self.inner.moved(id, from, to, size)
        });
        // The engine relocated the object just before this call and frees
        // it right after a `FreeImmediately`, before anything else runs.
        self.layers.log(Op::Move {
            id: narrow(id.get()),
            to: narrow(to.get()),
        });
        if response == MoveResponse::FreeImmediately {
            self.layers.ghosts.set(self.layers.ghosts.get() + 1);
            self.layers.log(Op::Free(narrow(id.get())));
        }
        response
    }

    fn round_done(&mut self) {
        self.inner.round_done();
        let layers = &self.layers;
        layers.rounds.borrow_mut().push(RoundMark {
            at: Instant::now(),
            program_ns: layers.program_raw_ns(),
            manager_ns: layers.manager_raw_ns(),
        });
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

/// A [`MemoryManager`] that times each call into the real one.
pub struct TimedManager<M> {
    inner: M,
    layers: Rc<Layers>,
}

impl<M: MemoryManager> TimedManager<M> {
    pub fn new(inner: M, layers: Rc<Layers>) -> Self {
        TimedManager { inner, layers }
    }
}

impl<M: MemoryManager> MemoryManager for TimedManager<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(
        &mut self,
        req: AllocRequest,
        ops: &mut HeapOps<'_, '_>,
    ) -> Result<Addr, PlacementError> {
        let layers = &self.layers;
        layers.time(&layers.place, false, || self.inner.place(req, ops))
    }

    fn note_free(&mut self, id: ObjectId, addr: Addr, size: Size) {
        // The engine freed the object in the heap just before this call.
        self.layers.log(Op::Free(narrow(id.get())));
        let layers = &self.layers;
        layers.time(&layers.note_free, false, || {
            self.inner.note_free(id, addr, size)
        })
    }

    fn note_place(&mut self, id: ObjectId, addr: Addr, size: Size) {
        // The engine placed the object in the heap just before this call.
        self.layers.log(Op::Place {
            id: narrow(id.get()),
            addr: narrow(addr.get()),
            size: narrow(size.get()),
        });
        let layers = &self.layers;
        layers.time(&layers.note_place, false, || {
            self.inner.note_place(id, addr, size)
        })
    }

    fn arena(&self) -> Option<Extent> {
        self.inner.arena()
    }

    fn mirror_check(&self, space: &SpaceMap) -> MirrorCheck {
        self.inner.mirror_check(space)
    }

    fn inject_mirror_fault(&mut self, roll: u64, space: &SpaceMap) -> bool {
        self.inner.inject_mirror_fault(roll, space)
    }

    fn internal_waste(&self) -> u64 {
        self.inner.internal_waste()
    }

    fn publish_metrics(&self) {
        self.inner.publish_metrics()
    }
}

/// Mean wall cost of one `Instant::now()` pair in this process, in ns.
pub fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        let a = Instant::now();
        std::hint::black_box(Instant::now() - a);
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// Per-method self times of a traced stretch, in seconds, with the
/// wrappers' own clock reads taken out.
#[derive(Debug, Default, Clone, Copy)]
pub struct Split {
    pub wall: f64,
    pub frees: f64,
    pub allocs: f64,
    pub placed: f64,
    pub moved: f64,
    /// `place`, including the `moved` calls nested in it.
    pub place: f64,
    pub note_free: f64,
    pub note_place: f64,
}

impl Split {
    /// Splits `wall_ns` of traced run. Every timed interval holds the
    /// in-place probe cost once, so each method's estimate (which scales
    /// the timed calls up to all calls) holds it once per call; a
    /// `place` also holds the three reads of each timed `moved` nested in
    /// it, and the wall holds three reads (1.5 pairs) per timed call.
    pub fn of(layers: &Layers, wall_ns: u64, pair_ns: f64) -> Self {
        let probe_ns = layers.probe.ns.get() as f64 / layers.probe.timed.get().max(1) as f64;
        let net = |t: &Tally| (t.est_ns() - t.calls.get() as f64 * probe_ns) / 1e9;
        let reads_ns = |timed: u64| timed as f64 * 1.5 * pair_ns;
        Split {
            wall: (wall_ns as f64 - reads_ns(layers.timed_calls())) / 1e9,
            frees: net(&layers.frees),
            allocs: net(&layers.allocs),
            placed: net(&layers.placed),
            moved: net(&layers.moved),
            place: net(&layers.place) - reads_ns(layers.moved.timed.get()) / 1e9,
            note_free: net(&layers.note_free),
            note_place: net(&layers.note_place),
        }
    }

    pub fn program(&self) -> f64 {
        self.frees + self.allocs + self.placed + self.moved
    }

    /// `place` minus the nested `moved` calls, plus the notifications.
    pub fn manager(&self) -> f64 {
        self.place - self.moved + self.note_free + self.note_place
    }

    /// The execution loop, referee and ledger: the rest of the wall.
    pub fn engine(&self) -> f64 {
        self.wall - self.program() - self.manager()
    }

    pub fn add(&mut self, o: Split) {
        self.wall += o.wall;
        self.frees += o.frees;
        self.allocs += o.allocs;
        self.placed += o.placed;
        self.moved += o.moved;
        self.place += o.place;
        self.note_free += o.note_free;
        self.note_place += o.note_place;
    }

    pub fn share(&self, part: f64) -> f64 {
        if self.wall > 0.0 {
            part / self.wall
        } else {
            0.0
        }
    }

    /// One line of shares for stderr.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "{name:>10}: wall {:.3} s  program {:.1}%  manager {:.1}%  engine {:.1}%",
            self.wall,
            100.0 * self.share(self.program()),
            100.0 * self.share(self.manager()),
            100.0 * self.share(self.engine())
        )
    }

    /// The program, manager and engine per-layer metrics.
    pub fn report(&self, counts: &Counts, out: &mut crate::Outcome) {
        let (program, manager, engine) = (self.program(), self.manager(), self.engine());
        out.metric("program.self_s", program, "s");
        out.metric("program.share", self.share(program), "ratio");
        out.metric("program.calls", counts.program_calls as f64, "count");
        out.metric("program.frees_s", self.frees, "s");
        out.metric("program.allocs_s", self.allocs, "s");
        out.metric("program.placed_s", self.placed, "s");
        out.metric("program.moved_s", self.moved, "s");
        let ghost_ratio = if counts.moved_calls == 0 {
            0.0
        } else {
            counts.ghosts as f64 / counts.moved_calls as f64
        };
        out.metric("program.ghost_ratio", ghost_ratio, "ratio");
        out.metric("manager.self_s", manager, "s");
        out.metric("manager.share", self.share(manager), "ratio");
        out.metric("manager.place_calls", counts.place_calls as f64, "count");
        out.metric("manager.place_s", self.place, "s");
        out.metric("manager.note_free_s", self.note_free, "s");
        out.metric("manager.note_place_s", self.note_place, "s");
        out.metric("engine.self_s", engine, "s");
        out.metric("engine.share", self.share(engine), "ratio");
    }
}

/// Call counts summed over several program/manager pairs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub program_calls: u64,
    pub moved_calls: u64,
    pub ghosts: u64,
    pub place_calls: u64,
}

impl Counts {
    pub fn add(&mut self, l: &Layers) {
        self.program_calls += l.program_calls();
        self.moved_calls += l.moved.calls.get();
        self.ghosts += l.ghosts.get();
        self.place_calls += l.place.calls.get();
    }
}

/// Every per-layer metric with its unit, in report order. A workload
/// reports the ones whose layer it runs; the rest read 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("program.self_s", "s"),
    ("program.share", "ratio"),
    ("program.calls", "count"),
    ("program.frees_s", "s"),
    ("program.allocs_s", "s"),
    ("program.placed_s", "s"),
    ("program.moved_s", "s"),
    ("program.ghost_ratio", "ratio"),
    ("manager.self_s", "s"),
    ("manager.share", "ratio"),
    ("manager.place_calls", "count"),
    ("manager.place_s", "s"),
    ("manager.note_free_s", "s"),
    ("manager.note_place_s", "s"),
    ("manager.build_s", "s"),
    ("manager.bucket_scan_per_place", "ratio"),
    ("manager.coalesce_merges", "count"),
    ("engine.self_s", "s"),
    ("engine.share", "ratio"),
    ("referee.ops", "count"),
    ("referee.replay_s", "s"),
    ("referee.ops_per_s", "1/s"),
    ("referee.words_scanned_per_op", "ratio"),
    ("ledger.objects_moved", "count"),
    ("ledger.words_moved", "count"),
    ("ledger.budget_used", "ratio"),
    ("fleet.tenant_build_s", "s"),
    ("fleet.tenant_run_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.resident_bytes", "bytes"),
    ("parallel.speedup_2t", "ratio"),
    ("search.levels", "count"),
    ("search.peak_frontier", "count"),
    ("search.bytes_per_state", "bytes"),
    ("search.level_s_p50", "s"),
    ("search.level_s_max", "s"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
];

/// Completes a traced run's metrics to the full [`PER_LAYER`] set, in
/// catalogue order: a layer the workload does not run reads 0.
pub fn fill_absent(metrics: &mut Vec<Metric>) {
    for m in metrics.iter() {
        assert!(
            PER_LAYER
                .iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "{} ({}) is not in the per-layer catalogue",
            m.name,
            m.unit
        );
    }
    let measured = std::mem::take(metrics);
    for (name, unit) in PER_LAYER {
        let value = measured
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        metrics.push(Metric { name, value, unit });
    }
}
