//! Runs a configured system over a trace from the benchmark's side.
//!
//! `Simulation::run` builds its engines privately, so the traced run
//! mirrors that construction here (`Simulation::build_engine`,
//! `build_scheduler`, `build_predictor`, `wrs_config`) and drives it with
//! a copy of `chameleon_engine::driver`'s loop, or through
//! `Cluster::with_router` for fleets. The untraced `Simulation::run` of
//! the same trace is the oracle: a mirrored run must produce the same
//! `canonical_text`, which the benchmark checks on every run.

use crate::spans::{lock, reduce, shared, timed, Name, Profile, Recorder, Shared};
use crate::timed::{TimedPredictor, TimedRouter, TimedScheduler};
use chameleon_cache::AdapterCache;
use chameleon_core::isolated;
use chameleon_core::{CachePolicy, EngineSpec, RunReport, SchedPolicy, Simulation, SystemConfig};
use chameleon_engine::{Autoscaler, Cluster, Engine, EngineConfig, EngineEvent, EngineReport};
use chameleon_predictor::{NoisyBucketPredictor, OraclePredictor, OutputLenPredictor};
use chameleon_router::{EngineId, Router};
use chameleon_sched::{
    ChameleonConfig, ChameleonScheduler, FifoScheduler, Scheduler, SjfScheduler,
    StaticMlqScheduler, WrsConfig,
};
use chameleon_simcore::{EventQueue, SimDuration, SimRng, SimTime};
use chameleon_workload::{Request, Trace};
use std::time::Instant;

/// A finished benchmark-driven run.
pub struct Driven {
    /// The report, assembled as `Simulation::run` assembles it.
    pub report: RunReport,
    /// `Engine::kv_accounting` at the end of a single-engine run:
    /// `(allocator bytes, pool KV-region bytes)`.
    pub kv_accounting: Option<(u64, u64)>,
    /// The reduced spans, when the run was traced.
    pub profile: Option<Profile>,
}

/// Everything an engine of one run is built from.
struct Parts<'a> {
    cfg: &'a SystemConfig,
    sim: &'a Simulation,
    seed: u64,
    slo: SimDuration,
    wrs: WrsConfig,
    max_output: u32,
}

impl Parts<'_> {
    fn new<'a>(sim: &'a Simulation, seed: u64, trace: &Trace) -> Parts<'a> {
        let cfg = sim.config();
        Parts {
            cfg,
            sim,
            seed,
            slo: sim.slo_for(trace),
            wrs: wrs_config(cfg, sim, trace),
            max_output: trace.summary().max_output,
        }
    }

    fn scheduler(&self) -> Box<dyn Scheduler> {
        let (slo, wrs) = (self.slo, self.wrs);
        match &self.cfg.sched {
            SchedPolicy::Fifo => Box::new(FifoScheduler::new()),
            SchedPolicy::Sjf {
                aging_tokens_per_sec,
            } => Box::new(SjfScheduler::with_aging(*aging_tokens_per_sec)),
            SchedPolicy::ChameleonMlq {
                dynamic, bypass, ..
            } => Box::new(ChameleonScheduler::new(
                ChameleonConfig {
                    dynamic: *dynamic,
                    enable_bypass: *bypass,
                    ..ChameleonConfig::paper(slo)
                },
                wrs,
            )),
            SchedPolicy::ChameleonLinearWrs => {
                Box::new(ChameleonScheduler::new(ChameleonConfig::paper(slo), wrs))
            }
            SchedPolicy::StaticMlq => Box::new(StaticMlqScheduler::new(slo, wrs, 0.0, 1.0)),
        }
    }

    fn predictor(&self, idx: usize) -> Box<dyn OutputLenPredictor> {
        if self.cfg.worst_case_predictor {
            return Box::new(chameleon_predictor::WorstCasePredictor::new(
                self.max_output.max(1),
            ));
        }
        if self.cfg.predictor_accuracy >= 1.0 {
            Box::new(OraclePredictor::new())
        } else {
            let mut rng = SimRng::seed(self.seed ^ 0x9e37_79b9_7f4a_7c15);
            let rng = rng.fork(&format!("predictor-{idx}"));
            Box::new(NoisyBucketPredictor::new(self.cfg.predictor_accuracy, rng))
        }
    }

    /// Engine `idx` of shape `spec`; its scheduler and predictor are
    /// timed on `rec` when one is given.
    fn engine(&self, idx: usize, spec: &EngineSpec, rec: Option<&Shared>) -> Engine {
        let cfg = self.cfg;
        let gpu = spec.gpu.clone().unwrap_or_else(|| cfg.gpu.clone());
        let mut ecfg = EngineConfig::new(cfg.llm.clone(), gpu).with_tp(spec.tp_degree);
        ecfg.max_batch_requests = cfg.max_batch_requests;
        ecfg.chunked_prefill = cfg.chunked_prefill;
        ecfg.prefetch_queued = cfg.prefetch_queued;
        ecfg.predictive_prefetch = cfg.predictive_prefetch;
        ecfg.kv = cfg.kv;
        ecfg.block_on_load = matches!(cfg.cache, CachePolicy::Discard);
        let cache = match cfg.cache.to_eviction() {
            Some(policy) => AdapterCache::new(policy),
            None => AdapterCache::discard_mode(),
        };
        let (mut sched, mut predictor) = (self.scheduler(), self.predictor(idx));
        if let Some(rec) = rec {
            sched = Box::new(TimedScheduler::new(sched, rec.clone()));
            predictor = Box::new(TimedPredictor::new(predictor, rec.clone()));
        }
        Engine::new(
            ecfg,
            self.sim.pool().clone(),
            sched,
            predictor,
            cache,
            self.wrs,
        )
    }

    /// `into_report`'s output plus the isolated-latency oracle, assembled
    /// into a `RunReport`.
    fn report(
        &self,
        engine_report: EngineReport,
        horizon: SimTime,
        events: u64,
        trace: &Trace,
    ) -> RunReport {
        let cost = self.sim.cost_model();
        let isolated_e2e = engine_report
            .records
            .iter()
            .map(|r| {
                let req = Request::new(
                    r.id,
                    r.arrival,
                    r.input_tokens,
                    r.output_tokens,
                    r.adapter,
                    r.rank,
                );
                (r.id, isolated::isolated(cost, &req, true).e2e)
            })
            .collect();
        RunReport::new(
            self.cfg.label.clone(),
            self.cfg.llm.clone(),
            engine_report,
            self.slo,
            horizon,
            isolated_e2e,
            self.wrs,
            trace.summary().mean_rps,
            events,
        )
    }
}

/// `Simulation::wrs_config`: the WRS normalisation for `trace`.
fn wrs_config(cfg: &SystemConfig, sim: &Simulation, trace: &Trace) -> WrsConfig {
    let s = trace.summary();
    let max_in = f64::from(s.max_input.max(1));
    let max_out = f64::from(s.max_output.max(1));
    let wrs = WrsConfig::paper(
        max_in,
        max_out,
        sim.pool().max_adapter_bytes().max(1) as f64,
    );
    match cfg.sched {
        SchedPolicy::ChameleonMlq {
            output_only: true, ..
        } => wrs.output_only(),
        SchedPolicy::ChameleonLinearWrs => wrs.linear(),
        _ => wrs,
    }
}

fn engine_span(ev: &EngineEvent) -> Name {
    match ev {
        EngineEvent::Arrival(_) => Name::EngineArrival,
        EngineEvent::StepDone(_) => Name::EngineStepDone,
        EngineEvent::LoadDone(_) => Name::EngineLoadDone,
        EngineEvent::Refresh => Name::EngineRefresh,
        EngineEvent::MemSample => Name::EngineMemSample,
        EngineEvent::Poke => Name::EnginePoke,
    }
}

/// Pushes onto the event queue, inside a span when traced.
fn push(q: &mut EventQueue<EngineEvent>, rec: Option<&Shared>, at: SimTime, ev: EngineEvent) {
    match rec {
        Some(rec) => timed(rec, Name::QueuePush, || q.push(at, ev)),
        None => q.push(at, ev),
    }
}

/// Runs a single-engine system over `trace`: the engine `Simulation`
/// would build, driven by a copy of `driver::run_engine_counted`. When
/// `traced`, spans cover the queue, every `Engine::handle`, the calls
/// the engine makes into its scheduler, probe and predictor, and report
/// building, all under one run span.
fn run_engine(sim: &Simulation, seed: u64, trace: &Trace, traced: bool) -> Driven {
    let parts = Parts::new(sim, seed, trace);
    let rec = traced.then(|| shared(Recorder::new(Instant::now())));
    let rec = rec.as_ref();
    let mut engine = parts.engine(0, &sim.config().engine_spec(0), rec);
    let run_span = rec.map(|r| lock(r).enter(Name::Run));

    let mut q: EventQueue<EngineEvent> = EventQueue::with_capacity(trace.len() + 16);
    let mut arrivals_left = trace.len();
    for r in trace {
        push(&mut q, rec, r.arrival(), EngineEvent::Arrival(*r));
    }
    let mem_int = engine.config().mem_sample_interval;
    let refresh_int = engine.config().refresh_interval;
    push(&mut q, rec, SimTime::ZERO + mem_int, EngineEvent::MemSample);
    push(
        &mut q,
        rec,
        SimTime::ZERO + refresh_int,
        EngineEvent::Refresh,
    );

    let mut out = Vec::new();
    let mut last = SimTime::ZERO;
    loop {
        let next = match rec {
            Some(rec) => timed(rec, Name::QueuePop, || q.pop()),
            None => q.pop(),
        };
        let Some((t, ev)) = next else { break };
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
        match rec {
            Some(rec) => timed(rec, engine_span(&ev), || engine.handle(t, ev, &mut out)),
            None => engine.handle(t, ev, &mut out),
        }
        for (at, e) in out.drain(..) {
            push(&mut q, rec, at, e);
        }
        if periodic && (arrivals_left > 0 || engine.has_work()) {
            let (at, e) = reschedule.expect("periodic events always reschedule");
            push(&mut q, rec, at, e);
        }
    }
    let events = q.processed();
    let kv_accounting = Some(engine.kv_accounting());
    let build = || parts.report(engine.into_report(), last, events, trace);
    let report = match rec {
        Some(rec) => timed(rec, Name::Report, build),
        None => build(),
    };
    let profile = rec.map(|rec| {
        let mut r = lock(rec);
        r.exit(run_span.expect("opened with the recorder"));
        reduce(&[r.take()])
    });
    Driven {
        report,
        kv_accounting,
        profile,
    }
}

/// Runs a fleet system over `trace` through `Cluster::with_router`, set
/// up as `Simulation::run` sets it up. When `traced`, the router and
/// every engine's scheduler, probe and predictor are timed (one recorder
/// per engine, since engines may step on worker threads), the barrier
/// profiler is on, and one run span covers the run and report building.
fn run_cluster(sim: &Simulation, seed: u64, trace: &Trace, traced: bool) -> Driven {
    let parts = Parts::new(sim, seed, trace);
    let cfg = sim.config();
    let epoch = Instant::now();
    let coord = traced.then(|| shared(Recorder::new(epoch)));
    let mut lanes: Vec<Shared> = Vec::new();
    let lane = |lanes: &mut Vec<Shared>| -> Option<Shared> {
        traced.then(|| {
            let r = shared(Recorder::lane(epoch));
            lanes.push(r.clone());
            r
        })
    };
    let initial = cfg.engine_count();
    let mut router: Box<dyn Router> = cfg.router.build(seed);
    if let Some(rec) = &coord {
        router = Box::new(TimedRouter::new(router, rec.clone()));
    }
    let mut cluster = Cluster::with_router(
        initial,
        |i| {
            let rec = lane(&mut lanes);
            parts.engine(i, &cfg.engine_spec(i), rec.as_ref())
        },
        router,
    );
    if let Some(topo) = cfg.topology() {
        cluster.set_topology(
            &topo.domains.iter().map(|d| d.rack).collect::<Vec<_>>(),
            topo.anti_affinity,
        );
    }
    if let Some(spec) = &cfg.predictive {
        cluster.set_predictive(*spec);
    }
    if let Some(spec) = &cfg.fault {
        cluster.set_fault(spec.clone(), Some(parts.slo));
    }
    if let Some(spec) = &cfg.dispatch {
        cluster.set_dispatch(*spec);
    }
    if traced {
        cluster.enable_barrier_profiling();
    }
    let run_span = coord.as_ref().map(|r| lock(r).enter(Name::Run));
    let last = match &cfg.autoscale {
        Some(auto) => {
            let mut controller = auto.controller.clone();
            if cfg.predictive.is_some_and(|p| p.slo_autoscale) && controller.ttft_slo.is_none() {
                controller.ttft_slo = Some(parts.slo);
            }
            let mut scaler = Autoscaler::new(controller);
            let mut grow = |id: EngineId| {
                let spec = cfg.growth_spec((id.0 as usize).saturating_sub(initial));
                let rec = lane(&mut lanes);
                parts.engine(id.0 as usize, &spec, rec.as_ref())
            };
            cluster.run_elastic_with(trace, &mut scaler, &mut grow, cfg.cluster_exec)
        }
        None => cluster.run_with(trace, cfg.cluster_exec),
    };
    let events = cluster.events_processed();
    let build = || {
        let (engine_report, _, profile) = cluster.into_report_with_trace();
        let mut report = parts.report(engine_report, last, events, trace);
        report.barrier_profile = profile;
        report
    };
    let report = match &coord {
        Some(rec) => timed(rec, Name::Report, build),
        None => build(),
    };
    let profile = coord.map(|rec| {
        let mut all = Vec::with_capacity(lanes.len() + 1);
        {
            let mut r = lock(&rec);
            r.exit(run_span.expect("opened with the recorder"));
            all.push(r.take());
        }
        all.extend(lanes.iter().map(|l| lock(l).take()));
        reduce(&all)
    });
    Driven {
        report,
        kv_accounting: None,
        profile,
    }
}

/// Runs `trace` the benchmark's way: single engines through the copied
/// driver loop, fleets through the cluster.
pub fn run(sim: &Simulation, seed: u64, trace: &Trace, traced: bool) -> Driven {
    if sim.config().is_cluster() {
        run_cluster(sim, seed, trace, traced)
    } else {
        run_engine(sim, seed, trace, traced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::{preset, workloads};

    /// A decorated, benchmark-driven run must be the run `Simulation`
    /// makes, byte for byte.
    fn assert_inert(cfg: SystemConfig, rps: f64, secs: f64, seed: u64) {
        let mut sim = Simulation::new(cfg, seed);
        let trace = workloads::splitwise(rps, secs, seed, sim.pool());
        let oracle = sim.run(&trace).canonical_text();
        for traced in [false, true] {
            let driven = run(&sim, seed, &trace, traced);
            assert_eq!(
                driven.report.canonical_text(),
                oracle,
                "{} traced={traced}",
                sim.config().label
            );
            assert_eq!(driven.profile.is_some(), traced);
        }
    }

    #[test]
    fn single_engine_decorators_are_inert() {
        let mut cfg = preset::chameleon();
        cfg.num_adapters = 600;
        assert_inert(cfg, 11.0, 40.0, 3);
    }

    #[test]
    fn kv_guarded_decorators_are_inert_and_balance() {
        let cfg = preset::chameleon_kv_guarded()
            .with_gpu(chameleon_models::GpuSpec::a40().with_memory_bytes(18 * (1 << 30)))
            .with_kv(chameleon_core::KvSpec::new().with_pressure_threshold(0.5));
        let mut sim = Simulation::new(cfg, 4);
        let trace = workloads::splitwise(5.0, 300.0, 4, sim.pool());
        let oracle = sim.run(&trace).canonical_text();
        let driven = run(&sim, 4, &trace, true);
        assert_eq!(driven.report.canonical_text(), oracle);
        let (alloc, pool) = driven.kv_accounting.expect("single engine");
        assert_eq!(alloc, pool);
        assert!(
            driven.report.kv.refused > 0,
            "the trace must hit KV pressure"
        );
    }

    #[test]
    fn fleet_decorators_are_inert() {
        let cfg = crate::workloads::Workload::Fleet16Par2.config();
        assert_inert(cfg, 200.0, 6.0, 5);
    }

    #[test]
    fn bounded_staleness_router_decorator_is_inert() {
        // Batched dispatch sizes its batches from the router's declared
        // staleness budget, so a decorator that lost `staleness` would
        // change the run.
        assert_inert(preset::chameleon_cluster_bounded_staleness(4), 60.0, 8.0, 6);
        assert_inert(preset::chameleon_cluster_batched(4), 60.0, 8.0, 6);
    }

    #[test]
    fn traced_single_engine_spans_cover_the_run() {
        let mut sim = Simulation::new(preset::chameleon(), 8);
        let trace = workloads::splitwise(6.0, 30.0, 8, sim.pool());
        let p = run(&sim, 8, &trace, true).profile.expect("traced");
        let events = sim.run(&trace).events_processed;
        let handled: u64 = [
            Name::EngineArrival,
            Name::EngineStepDone,
            Name::EngineLoadDone,
            Name::EngineRefresh,
            Name::EngineMemSample,
            Name::EnginePoke,
        ]
        .iter()
        .map(|&n| p.get(n).calls)
        .sum();
        assert_eq!(handled, events);
        assert_eq!(p.get(Name::QueuePop).calls, events + 1, "last pop is empty");
        assert_eq!(p.get(Name::EngineArrival).calls, trace.len() as u64);
        assert_eq!(p.get(Name::Predict).calls, trace.len() as u64);
        assert!(p.get(Name::SchedFormBatch).calls > 0);
        assert!(p.get(Name::Probe).calls > 0);
        assert_eq!(p.get(Name::Report).calls, 1);
        assert!(p.run_covered_ns <= p.run_ns);
    }
}
