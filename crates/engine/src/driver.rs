//! The engine event loop, `EngineSlot::step_to`, shared by the cluster
//! (one slot per engine, stepped epoch by epoch) and by single-engine
//! runs (one slot, one unbounded epoch, the trace as one arrival batch).

use crate::engine::{Engine, EngineEvent};
use chameleon_models::AdapterId;
use chameleon_router::EngineId;
use chameleon_simcore::{EventQueue, SimDuration, SimTime};
use chameleon_workload::{Request, Trace};
use std::collections::VecDeque;

/// Drives `engine` through `trace` until every request completes and the
/// system drains, with [`EngineEvent::MemSample`] and
/// [`EngineEvent::Refresh`] ticking at the configured intervals while
/// work remains. Returns the engine, the instant of the last processed
/// event and the number of events processed.
pub fn run_engine(engine: Engine, trace: &Trace) -> (Engine, SimTime, u64) {
    let mem_int = engine.config().mem_sample_interval;
    let refresh_int = engine.config().refresh_interval;
    let mut slot = EngineSlot::new(EngineId(0), false, engine);
    slot.begin_run(mem_int, refresh_int);
    slot.arrivals
        .extend(trace.iter().map(|r| (r.arrival(), *r)));
    // Event for event the same as pushing every arrival onto one heap
    // up front and popping it dry (the tests' `reference_run`):
    // - Ties: preloaded arrivals hold the lowest sequence numbers and win
    //   every equal-instant tie, as `ta <= tl` does here; `Trace::new`
    //   sorts stably, so same-instant arrivals keep trace order in both.
    // - Tick keep-alive: a tick at `t` runs after every arrival at or
    //   before `t`, so "arrivals remain" is `t < last arrival`, which is
    //   `batch_until`.
    // - Both queue the engine's output before the tick's reschedule,
    //   count every pop or delivery, and record `last` alike; an empty
    //   trace runs the two initial ticks.
    slot.step_to(&EpochCmd {
        boundary: None,
        arrivals_remaining: false,
        batch_until: trace.requests().last().map(|r| r.arrival()),
        mem_int,
        refresh_int,
    });
    (slot.engine, slot.last, slot.processed)
}

/// The per-epoch command handed to every engine stepper.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochCmd {
    /// Step local events with time strictly below this; `None` drains
    /// everything (no cross-engine event is pending). Simultaneous
    /// events at the boundary instant belong to the *next* epoch: the
    /// cross event (arrival or autoscaler tick) wins equal-time ties.
    pub(crate) boundary: Option<SimTime>,
    /// Whether undispatched arrivals remain anywhere in the trace —
    /// constant within an epoch, and the condition keeping periodic
    /// ticks alive on idle engines.
    pub(crate) arrivals_remaining: bool,
    /// The last arrival instant of the batch delivered this epoch.
    /// Periodic ticks at `t < batch_until` stay alive even when
    /// `arrivals_remaining` is false — exactly the ticks per-arrival
    /// dispatch would have kept because it had not consumed those
    /// arrivals yet.
    pub(crate) batch_until: Option<SimTime>,
    pub(crate) mem_int: SimDuration,
    pub(crate) refresh_int: SimDuration,
}

/// One engine plus its cluster-lifecycle state and its shard of the
/// event horizon (the engine-local future-event queue).
pub(crate) struct EngineSlot {
    pub(crate) id: EngineId,
    /// Draining engines accept no new dispatches; they finish their
    /// queued and running work and are then retired.
    pub(crate) draining: bool,
    /// Set by the epoch stepper the moment a draining engine runs out of
    /// work: the coordinator retires the slot at the next barrier.
    pub(crate) retire_ready: bool,
    pub(crate) engine: Engine,
    /// Engine-local future events. Only this slot's stepper (during an
    /// epoch) and the coordinator (at barriers) touch it.
    pub(crate) queue: EventQueue<EngineEvent>,
    /// Reused `Engine::handle` output buffer, thread-confined with its
    /// slot.
    out: Vec<(SimTime, EngineEvent)>,
    /// Events this slot processed during the current run.
    pub(crate) processed: u64,
    /// Instant of this slot's last processed event this run.
    pub(crate) last: SimTime,
    /// Arrivals batched here (by a batch barrier, or a single-engine
    /// run's whole trace), in arrival order, delivered by `step_to`
    /// interleaved with local events (arrival wins an equal-time tie —
    /// the same order per-arrival dispatch produces, where the arrival
    /// is handled at its barrier and same-instant local events wait for
    /// the next epoch). Kept separate from the event queue because the
    /// queue breaks same-instant ties by insertion order, which would
    /// put pre-existing same-time events *before* the arrival.
    pub(crate) arrivals: VecDeque<(SimTime, Request)>,
    /// Adapter-resident-at-delivery count for batched arrivals. The
    /// residency state at delivery (all local events strictly before the
    /// arrival instant applied) is exactly what the per-arrival path
    /// measures at its dispatch barrier, so harvesting this into
    /// `RoutingStats::affinity_hits` keeps batched dispatch
    /// byte-identical to per-arrival for state-independent routers.
    pub(crate) arrival_hits: u64,
}

impl EngineSlot {
    pub(crate) fn new(id: EngineId, draining: bool, engine: Engine) -> Self {
        EngineSlot {
            id,
            draining,
            retire_ready: false,
            engine,
            queue: EventQueue::with_capacity(32),
            out: Vec::new(),
            processed: 0,
            last: SimTime::ZERO,
            arrivals: VecDeque::new(),
            arrival_hits: 0,
        }
    }

    /// Resets the per-run state and schedules the first periodic ticks
    /// (the queue is always empty between runs: a run returns only after
    /// every local queue drained or was cleared by retirement).
    pub(crate) fn begin_run(&mut self, mem_int: SimDuration, refresh_int: SimDuration) {
        debug_assert!(self.queue.is_empty());
        debug_assert!(self.arrivals.is_empty());
        debug_assert_eq!(self.arrival_hits, 0, "hits harvested at run end");
        self.processed = 0;
        self.last = SimTime::ZERO;
        self.retire_ready = false;
        self.schedule_ticks(SimTime::ZERO, mem_int, refresh_int);
    }

    /// Joins the shared periodic-tick schedule from instant `from`.
    pub(crate) fn schedule_ticks(
        &mut self,
        from: SimTime,
        mem_int: SimDuration,
        refresh_int: SimDuration,
    ) {
        self.queue.push(from + mem_int, EngineEvent::MemSample);
        self.queue.push(from + refresh_int, EngineEvent::Refresh);
    }

    /// Hands `ev` to the engine at `t` and queues the local events it
    /// schedules.
    pub(crate) fn handle(&mut self, t: SimTime, ev: EngineEvent) {
        self.engine.handle(t, ev, &mut self.out);
        for (at, e) in self.out.drain(..) {
            self.queue.push(at, e);
        }
    }

    /// Starts a warm transfer of `adapter` into this engine at `now` and
    /// queues its completion; the transferred bytes, or `None` when the
    /// engine skipped the warm (already resident, or no room).
    pub(crate) fn warm(&mut self, adapter: AdapterId, now: SimTime) -> Option<u64> {
        let bytes = self.engine.warm_load(adapter, now, &mut self.out)?;
        for (at, e) in self.out.drain(..) {
            self.queue.push(at, e);
        }
        Some(bytes)
    }

    /// True when this slot has a local event due before `boundary` or an
    /// undelivered batched arrival (the coordinator guarantees every
    /// routed arrival lands at or before the boundary).
    pub(crate) fn has_pending(&self, boundary: Option<SimTime>) -> bool {
        !self.arrivals.is_empty()
            || match self.queue.peek_time() {
                Some(t) => boundary.is_none_or(|b| t < b),
                None => false,
            }
    }

    /// Steps this engine's local events up to the epoch boundary. This is
    /// the per-shard body of both execution modes; it touches nothing
    /// outside the slot, which is what makes parallel stepping sound and
    /// bit-identical to serial.
    pub(crate) fn step_to(&mut self, cmd: &EpochCmd) {
        loop {
            // Deliver batched arrivals interleaved with local events,
            // arrival first on an equal-time tie — the exact order the
            // per-arrival path produces (arrival handled at its barrier,
            // same-instant local events in the next epoch). Every pending
            // arrival is at or before the epoch boundary by construction,
            // so none survives the epoch.
            let next_arrival = self.arrivals.front().map(|&(ta, _)| ta);
            let next_local = self.queue.peek_time();
            let deliver = match (next_arrival, next_local) {
                (Some(ta), Some(tl)) => ta <= tl,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if deliver {
                let (ta, req) = self.arrivals.pop_front().expect("peeked arrival");
                if self.engine.is_adapter_resident(req.adapter()) {
                    self.arrival_hits += 1;
                }
                self.handle(ta, EngineEvent::Arrival(req));
                self.processed += 1;
                self.last = ta;
                continue;
            }
            let Some(t) = next_local else { break };
            if let Some(b) = cmd.boundary {
                if t >= b {
                    break;
                }
            }
            let (t, ev) = self.queue.pop().expect("peeked event");
            let reschedule = match &ev {
                EngineEvent::MemSample => Some((t + cmd.mem_int, EngineEvent::MemSample)),
                EngineEvent::Refresh => Some((t + cmd.refresh_int, EngineEvent::Refresh)),
                _ => None,
            };
            self.handle(t, ev);
            if let Some((at, e)) = reschedule {
                // Keep periodic ticks alive while dispatches remain —
                // including batch members not yet delivered (`t <
                // batch_until`), which per-arrival dispatch would still
                // count as remaining arrivals at this instant.
                if cmd.arrivals_remaining
                    || cmd.batch_until.is_some_and(|u| t < u)
                    || self.engine.has_work()
                {
                    self.queue.push(at, e);
                }
            }
            self.processed += 1;
            self.last = t;
            if self.draining && !self.engine.has_work() {
                // A drained engine retires the moment it goes idle; its
                // remaining events (stale periodic ticks) are exactly the
                // ones the single-heap loop would pop and drop later.
                self.retire_ready = true;
                self.queue.clear();
                break;
            }
        }
        debug_assert!(
            self.arrivals.is_empty(),
            "batched arrivals must drain within their epoch"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use chameleon_cache::{AdapterCache, EvictionPolicy};
    use chameleon_models::{AdapterPool, GpuSpec, LlmSpec, PoolConfig};
    use chameleon_predictor::OraclePredictor;
    use chameleon_sched::{FifoScheduler, WrsConfig};
    use chameleon_simcore::SimRng;
    use chameleon_workload::{ArrivalModel, LengthModel, RequestId, TraceGenerator};

    /// The single-engine loop `run_engine` replaced, kept verbatim as the
    /// reference for its tie order: every arrival is pushed onto one heap
    /// up front, then the heap is popped to exhaustion.
    fn reference_run(engine: &mut Engine, trace: &Trace) -> (SimTime, u64) {
        let mut q: EventQueue<EngineEvent> = EventQueue::with_capacity(trace.len() + 16);
        let mut arrivals_left = trace.len();
        for r in trace {
            q.push(r.arrival(), EngineEvent::Arrival(*r));
        }
        let mem_int = engine.config().mem_sample_interval;
        let refresh_int = engine.config().refresh_interval;
        q.push(SimTime::ZERO + mem_int, EngineEvent::MemSample);
        q.push(SimTime::ZERO + refresh_int, EngineEvent::Refresh);

        let mut out = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, ev)) = q.pop() {
            last = t;
            let periodic = matches!(ev, EngineEvent::MemSample | EngineEvent::Refresh);
            if matches!(ev, EngineEvent::Arrival(_)) {
                arrivals_left -= 1;
            }
            let reschedule = match &ev {
                EngineEvent::MemSample => Some((t + mem_int, EngineEvent::MemSample)),
                EngineEvent::Refresh => Some((t + refresh_int, EngineEvent::Refresh)),
                _ => None,
            };
            engine.handle(t, ev, &mut out);
            for (at, e) in out.drain(..) {
                q.push(at, e);
            }
            if periodic && (arrivals_left > 0 || engine.has_work()) {
                let (at, e) = reschedule.expect("periodic events always reschedule");
                q.push(at, e);
            }
        }
        (last, q.processed())
    }

    fn small_trace(n: usize, rps: f64) -> (AdapterPool, Trace) {
        let llm = LlmSpec::llama_7b();
        let pool = AdapterPool::generate(&llm, &PoolConfig::paper_default(20));
        let gen = TraceGenerator::new(
            LengthModel::Custom {
                input: chameleon_workload::generator::TokenLengthModel {
                    median: 64.0,
                    sigma: 0.5,
                    min: 8,
                    max: 256,
                },
                output: chameleon_workload::generator::TokenLengthModel {
                    median: 16.0,
                    sigma: 0.5,
                    min: 2,
                    max: 64,
                },
            },
            ArrivalModel::poisson(rps),
        );
        let mut rng = SimRng::seed(42);
        let trace = gen.generate_n(&pool, n, &mut rng);
        (pool, trace)
    }

    fn engine(pool: AdapterPool) -> Engine {
        let cfg = EngineConfig::new(LlmSpec::llama_7b(), GpuSpec::a40());
        Engine::new(
            cfg,
            pool,
            Box::new(FifoScheduler::new()),
            Box::new(OraclePredictor::new()),
            AdapterCache::new(EvictionPolicy::chameleon()),
            WrsConfig::paper(2048.0, 1024.0, (256 << 20) as f64),
        )
    }

    type Outcome = (
        SimTime,
        u64,
        Vec<(RequestId, Option<SimTime>, Option<SimTime>)>,
    );

    fn outcome(e: Engine, last: SimTime, events: u64) -> Outcome {
        let records = e
            .into_report()
            .records
            .iter()
            .map(|r| (r.id, r.first_token, r.finished))
            .collect();
        (last, events, records)
    }

    /// Runs `trace` through `run_engine` and through the reference loop
    /// and asserts the two agree event for event.
    fn assert_matches_reference(pool: &AdapterPool, trace: &Trace) {
        let (e, last, events) = run_engine(engine(pool.clone()), trace);
        let mut reference = engine(pool.clone());
        let (ref_last, ref_events) = reference_run(&mut reference, trace);
        assert_eq!(
            outcome(e, last, events),
            outcome(reference, ref_last, ref_events)
        );
    }

    /// The first `arrivals.len()` requests of a small trace, re-timed to
    /// `arrivals` (seconds, trace order kept on ties).
    fn crafted(arrivals: &[f64]) -> (AdapterPool, Trace) {
        let (pool, trace) = small_trace(arrivals.len(), 5.0);
        let reqs = trace
            .iter()
            .zip(arrivals)
            .map(|(r, &at)| r.with_arrival(SimTime::from_secs_f64(at)))
            .collect();
        (pool, Trace::new(reqs))
    }

    #[test]
    fn drains_full_trace() {
        let (pool, trace) = small_trace(50, 5.0);
        let (e, last, events) = run_engine(engine(pool), &trace);
        assert_eq!(e.completed(), 50);
        assert!(!e.has_work());
        assert!(last >= trace.requests().last().unwrap().arrival());
        assert!(events > 50, "every arrival plus engine events");
        let report = e.into_report();
        assert!(report.records.iter().all(|r| r.is_complete()));
        assert!(!report.mem_series.is_empty(), "memory was sampled");
    }

    #[test]
    fn deterministic_across_runs() {
        let (pool, trace) = small_trace(40, 8.0);
        let run = || {
            let (e, last, events) = run_engine(engine(pool.clone()), &trace);
            outcome(e, last, events)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_trace_is_fine() {
        let (pool, _) = small_trace(1, 1.0);
        let (e, last, events) = run_engine(engine(pool), &Trace::new(vec![]));
        assert_eq!(e.completed(), 0);
        assert_eq!(events, 2, "only the two initial ticks");
        assert_eq!(
            last,
            SimTime::ZERO + SimDuration::from_secs(300),
            "the first refresh"
        );
    }

    #[test]
    fn poisson_traces_match_the_reference_loop() {
        for (n, rps) in [(1, 1.0), (40, 8.0), (120, 30.0)] {
            let (pool, trace) = small_trace(n, rps);
            assert_matches_reference(&pool, &trace);
        }
        let (pool, _) = small_trace(1, 1.0);
        assert_matches_reference(&pool, &Trace::new(vec![]));
    }

    /// Arrivals exactly on the first `MemSample` (1 s) and the first
    /// `Refresh` (300 s), two arrivals at one instant, and a last arrival
    /// exactly on a tick: the ties random traces almost never produce.
    /// A tick at the last arrival's instant runs after that arrival, so
    /// engine work keeps it alive under either loop's keep-alive test.
    #[test]
    fn tick_ties_match_the_reference_loop() {
        let cases: [&[f64]; 5] = [
            &[1.0],
            &[0.5, 1.0, 1.0, 1.5],
            &[1.0, 2.0, 150.25, 300.0],
            &[299.5, 300.0, 300.0, 302.0],
            &[1.0, 1.0, 1.0, 3.0, 3.0, 7.0],
        ];
        for arrivals in cases {
            let (pool, trace) = crafted(arrivals);
            assert_matches_reference(&pool, &trace);
        }
    }
}
