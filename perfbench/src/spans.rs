//! In-memory span recording and self-time arithmetic.
//!
//! A span is one timed call across a layer boundary: its name, start and
//! end (host nanoseconds since the recorder's epoch) and the span that
//! was open around it. Spans stay in memory while the traced run lasts
//! and are reduced to per-name totals when it ends.
//!
//! Several recorders can cover one run: a fleet run has one for the
//! coordinator and one per engine, because engines step on worker
//! threads. A span recorded with nothing open in its own recorder gets
//! [`Parent::Root`]: its parent is the first span of recorder 0, the
//! span around the whole run.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer boundaries the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum Name {
    /// The whole traced run (driver loop or cluster run).
    Run,
    /// `EventQueue::push`.
    QueuePush,
    /// `EventQueue::pop`.
    QueuePop,
    /// `Engine::handle` on an `Arrival`.
    EngineArrival,
    /// `Engine::handle` on a `StepDone`.
    EngineStepDone,
    /// `Engine::handle` on a `LoadDone`.
    EngineLoadDone,
    /// `Engine::handle` on a `Refresh`.
    EngineRefresh,
    /// `Engine::handle` on a `MemSample`.
    EngineMemSample,
    /// `Engine::handle` on a `Poke`.
    EnginePoke,
    /// `Scheduler::enqueue`.
    SchedEnqueue,
    /// `Scheduler::requeue_front`.
    SchedRequeueFront,
    /// `Scheduler::form_batch_into` (and `form_batch`).
    SchedFormBatch,
    /// `Scheduler::on_refresh`.
    SchedRefresh,
    /// `Scheduler::queued_adapters_into` (and `queued_adapters`).
    SchedQueuedAdapters,
    /// `Scheduler::on_finish`.
    SchedOnFinish,
    /// Any `ResourceProbe` method the scheduler calls.
    Probe,
    /// `OutputLenPredictor::predict`.
    Predict,
    /// `Router::route`.
    Route,
    /// Report building: `into_report`, the isolated-latency oracle and
    /// `RunReport::new`.
    Report,
}

impl Name {
    /// The metric prefix the name reports under.
    pub fn label(self) -> &'static str {
        match self {
            Name::Run => "run",
            Name::QueuePush => "simcore.queue.push",
            Name::QueuePop => "simcore.queue.pop",
            Name::EngineArrival => "engine.arrival",
            Name::EngineStepDone => "engine.step_done",
            Name::EngineLoadDone => "engine.load_done",
            Name::EngineRefresh => "engine.refresh",
            Name::EngineMemSample => "engine.mem_sample",
            Name::EnginePoke => "engine.poke",
            Name::SchedEnqueue => "sched.enqueue",
            Name::SchedRequeueFront => "sched.requeue_front",
            Name::SchedFormBatch => "sched.form_batch",
            Name::SchedRefresh => "sched.refresh",
            Name::SchedQueuedAdapters => "sched.queued_adapters",
            Name::SchedOnFinish => "sched.on_finish",
            Name::Probe => "probe",
            Name::Predict => "predictor.predict",
            Name::Route => "router.route",
            Name::Report => "core.report",
        }
    }
}

/// Where a span's parent lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// A top-level span (only the run span itself).
    None,
    /// The run span: the first span of recorder 0.
    Root,
    /// A span of the same recorder, by index.
    Local(u32),
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub name: Name,
    /// Host nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Host nanoseconds since the recorder's epoch; `>= start`.
    pub end: u64,
    /// The span open around this one.
    pub parent: Parent,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Counters recorded at the same boundaries as the spans, so that ratios
/// are measured where the work happens.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Requests admitted by `form_batch` calls.
    pub admitted: u64,
    /// `form_batch` calls that admitted at least one request.
    pub useful_form_batch: u64,
    /// Sum over `form_batch` calls of the scheduler's queue length on
    /// entry.
    pub queue_depth_sum: u64,
}

impl Counters {
    fn merge(&mut self, other: &Counters) {
        self.admitted += other.admitted;
        self.useful_form_batch += other.useful_form_batch;
        self.queue_depth_sum += other.queue_depth_sum;
    }
}

/// Records spans for one thread of control at a time.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Recorder 0 of a run: its first span is the run span.
    root_lane: bool,
    /// Counters kept next to the spans.
    pub counters: Counters,
}

impl Recorder {
    /// Recorder 0 of a run, whose clock starts at `epoch`: its first span
    /// is the run span. Recorders of one run share an epoch so their
    /// spans compare.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            root_lane: true,
            counters: Counters::default(),
        }
    }

    /// Another recorder of the run started at `epoch`: every span it
    /// records with nothing open is a child of the run span.
    pub fn lane(epoch: Instant) -> Self {
        Recorder {
            root_lane: false,
            ..Recorder::new(epoch)
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle for [`exit`](Self::exit).
    pub fn enter(&mut self, name: Name) -> u32 {
        let parent = match self.open.last() {
            Some(&i) => Parent::Local(i),
            None if self.root_lane && self.spans.is_empty() => Parent::None,
            None => Parent::Root,
        };
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` opened by [`enter`](Self::enter).
    pub fn exit(&mut self, idx: u32) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx as usize].end = end;
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans and counters, leaving the recorder empty.
    pub fn take(&mut self) -> (Vec<Span>, Counters) {
        self.open.clear();
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.counters),
        )
    }
}

/// A recorder shared between a driver and the decorators it installs.
/// Only one thread uses a given recorder at a time, so the lock is never
/// contended; it exists because schedulers must be `Send`.
pub type Shared = Arc<Mutex<Recorder>>;

/// Shares `rec`.
pub fn shared(rec: Recorder) -> Shared {
    Arc::new(Mutex::new(rec))
}

/// Runs `f` inside a span named `name` on `rec`.
pub fn timed<R>(rec: &Shared, name: Name, f: impl FnOnce() -> R) -> R {
    let idx = lock(rec).enter(name);
    let out = f();
    lock(rec).exit(idx);
    out
}

/// Locks a recorder.
pub fn lock(rec: &Shared) -> std::sync::MutexGuard<'_, Recorder> {
    rec.lock()
        .expect("a span recorder is never held across a panic")
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Sum of their durations, ns.
    pub ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// The reduced profile of one traced run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Totals keyed by span name.
    pub totals: BTreeMap<Name, Totals>,
    /// Counters merged over every recorder.
    pub counters: Counters,
    /// Duration of the run span, ns.
    pub run_ns: u64,
    /// Time of the run span covered by its direct children, ns.
    pub run_covered_ns: u64,
}

impl Profile {
    /// Totals for `name` (zero when no span had it).
    pub fn get(&self, name: Name) -> Totals {
        self.totals.get(&name).copied().unwrap_or_default()
    }
}

/// Reduces the spans of several recorders (recorder 0 holds the run span
/// as its first span) to per-name calls, total time and self time.
///
/// Self time is a span's duration minus the part of it its children
/// cover. Children may overlap when they come from recorders on other
/// threads, so coverage is the length of the union of the children's
/// intervals, clipped to the parent.
pub fn reduce(lanes: &[(Vec<Span>, Counters)]) -> Profile {
    // Global index of each lane's first span.
    let mut offsets = Vec::with_capacity(lanes.len());
    let mut total = 0usize;
    for (spans, _) in lanes {
        offsets.push(total);
        total += spans.len();
    }
    let mut flat: Vec<Span> = Vec::with_capacity(total);
    // (parent, start, end) of every span that has a parent.
    let mut edges: Vec<(usize, u64, u64)> = Vec::with_capacity(total);
    let mut counters = Counters::default();
    for (lane, (spans, c)) in lanes.iter().enumerate() {
        counters.merge(c);
        for s in spans {
            let parent = match s.parent {
                Parent::None => None,
                Parent::Root => Some(0),
                Parent::Local(i) => Some(offsets[lane] + i as usize),
            };
            if let Some(p) = parent {
                edges.push((p, s.start, s.end));
            }
            flat.push(*s);
        }
    }
    edges.sort_unstable();
    let mut covered = vec![0u64; flat.len()];
    let mut i = 0;
    while i < edges.len() {
        let p = edges[i].0;
        let (lo, hi) = (flat[p].start, flat[p].end);
        let mut sum = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        while i < edges.len() && edges[i].0 == p {
            let (s, e) = (edges[i].1.max(lo), edges[i].2.min(hi));
            i += 1;
            if s >= e {
                continue;
            }
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    sum += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            sum += ce - cs;
        }
        covered[p] = sum;
    }
    let mut totals: BTreeMap<Name, Totals> = BTreeMap::new();
    for (s, &cov) in flat.iter().zip(&covered) {
        let t = totals.entry(s.name).or_default();
        t.calls += 1;
        t.ns += s.duration();
        t.self_ns += s.duration().saturating_sub(cov);
    }
    let (run_ns, run_covered_ns) = flat.first().map_or((0, 0), |s| (s.duration(), covered[0]));
    Profile {
        totals,
        counters,
        run_ns,
        run_covered_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: Parent) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0,100): handler [10,60) holding form_batch [20,50) holding
        // two probes [25,30) and [40,45); a queue pop [70,80).
        let lane = vec![
            span(Name::Run, 0, 100, Parent::None),
            span(Name::EngineStepDone, 10, 60, Parent::Local(0)),
            span(Name::SchedFormBatch, 20, 50, Parent::Local(1)),
            span(Name::Probe, 25, 30, Parent::Local(2)),
            span(Name::Probe, 40, 45, Parent::Local(2)),
            span(Name::QueuePop, 70, 80, Parent::Local(0)),
        ];
        let p = reduce(&[(lane, Counters::default())]);
        assert_eq!(p.run_ns, 100);
        assert_eq!(p.run_covered_ns, 60);
        assert_eq!(
            p.get(Name::Run),
            Totals {
                calls: 1,
                ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(p.get(Name::EngineStepDone).self_ns, 20);
        assert_eq!(p.get(Name::SchedFormBatch).self_ns, 20);
        assert_eq!(
            p.get(Name::Probe),
            Totals {
                calls: 2,
                ns: 10,
                self_ns: 10
            }
        );
        assert_eq!(p.get(Name::QueuePop).self_ns, 10);
        assert_eq!(p.get(Name::Route), Totals::default());
    }

    #[test]
    fn overlapping_children_from_other_lanes_count_once() {
        // Two engine lanes step in parallel under the run span: their
        // form_batch spans overlap on [30,40), which is covered once.
        let coordinator = vec![
            span(Name::Run, 0, 100, Parent::None),
            span(Name::Route, 5, 10, Parent::Local(0)),
        ];
        let engine_a = vec![span(Name::SchedFormBatch, 20, 40, Parent::Root)];
        let engine_b = vec![
            span(Name::SchedFormBatch, 30, 60, Parent::Root),
            // A child sticking out of its parent is clipped to it.
            span(Name::Probe, 55, 70, Parent::Local(0)),
        ];
        let p = reduce(&[
            (coordinator, Counters::default()),
            (engine_a, Counters::default()),
            (engine_b, Counters::default()),
        ]);
        // Children of run cover [5,10) and [20,60): 45 ns.
        assert_eq!(p.run_covered_ns, 45);
        assert_eq!(p.get(Name::Run).self_ns, 55);
        assert_eq!(p.get(Name::SchedFormBatch).calls, 2);
        assert_eq!(p.get(Name::SchedFormBatch).ns, 50);
        // engine_b's form_batch [30,60) loses [55,60) to the probe.
        assert_eq!(p.get(Name::SchedFormBatch).self_ns, 45);
    }

    #[test]
    fn recorder_links_parents_and_roots() {
        let mut rec = Recorder::new(Instant::now());
        let run = rec.enter(Name::Run);
        let pop = rec.enter(Name::QueuePop);
        rec.exit(pop);
        rec.exit(run);
        // Nothing open any more: later spans hang off the run span.
        let late = rec.enter(Name::Route);
        rec.exit(late);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, Parent::None);
        assert_eq!(spans[1].parent, Parent::Local(0));
        assert_eq!(spans[2].parent, Parent::Root);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let (taken, _) = rec.take();
        assert_eq!(taken.len(), 3);
        assert!(rec.spans().is_empty());
        // An engine lane has no run span of its own.
        let mut lane = Recorder::lane(Instant::now());
        let s = lane.enter(Name::SchedEnqueue);
        lane.exit(s);
        assert_eq!(lane.spans()[0].parent, Parent::Root);
    }

    #[test]
    fn counters_merge_across_lanes() {
        let c = |a| Counters {
            admitted: a,
            useful_form_batch: 1,
            queue_depth_sum: 2,
        };
        let p = reduce(&[
            (vec![span(Name::Run, 0, 1, Parent::None)], c(3)),
            (Vec::new(), c(4)),
        ]);
        assert_eq!(p.counters.admitted, 7);
        assert_eq!(p.counters.useful_form_batch, 2);
        assert_eq!(p.counters.queue_depth_sum, 4);
    }
}
