//! Timing decorators around the layer traits.
//!
//! Each decorator forwards every trait method to the value it wraps,
//! defaulted methods included: a forgotten default would silently swap
//! the wrapped policy's answer for the trait's. The timed methods open a
//! span on the decorator's recorder around the forwarded call.

use crate::spans::{lock, timed, Name, Shared};
use chameleon_models::AdapterId;
use chameleon_predictor::OutputLenPredictor;
use chameleon_router::{EngineSnapshot, RouteDecision, Router, StalenessClass};
use chameleon_sched::{AdmissionOutcome, QueuedRequest, ResourceProbe, Scheduler};
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_workload::Request;

/// Times every call into a scheduler, and every probe call it makes.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    rec: Shared,
}

impl TimedScheduler {
    /// Wraps `inner`, recording on `rec`.
    pub fn new(inner: Box<dyn Scheduler>, rec: Shared) -> Self {
        TimedScheduler { inner, rec }
    }

    fn form(
        &mut self,
        probe: &dyn ResourceProbe,
        out: &mut Vec<AdmissionOutcome>,
        call: impl FnOnce(&mut dyn Scheduler, &dyn ResourceProbe, &mut Vec<AdmissionOutcome>),
    ) {
        let depth = self.inner.len() as u64;
        let before = out.len();
        let span = lock(&self.rec).enter(Name::SchedFormBatch);
        let probe = TimedProbe {
            inner: probe,
            rec: &self.rec,
        };
        call(self.inner.as_mut(), &probe, out);
        let mut rec = lock(&self.rec);
        rec.exit(span);
        let admitted = (out.len() - before) as u64;
        rec.counters.admitted += admitted;
        rec.counters.useful_form_batch += u64::from(admitted > 0);
        rec.counters.queue_depth_sum += depth;
    }
}

impl Scheduler for TimedScheduler {
    fn enqueue(&mut self, req: QueuedRequest) {
        timed(&self.rec, Name::SchedEnqueue, || self.inner.enqueue(req));
    }

    fn requeue_front(&mut self, req: QueuedRequest) {
        timed(&self.rec, Name::SchedRequeueFront, || {
            self.inner.requeue_front(req)
        });
    }

    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>) {
        self.form(probe, out, |s, p, o| s.form_batch_into(p, o));
    }

    fn form_batch(&mut self, probe: &dyn ResourceProbe) -> Vec<AdmissionOutcome> {
        let mut out = Vec::new();
        self.form(probe, &mut out, |s, p, o| *o = s.form_batch(p));
        out
    }

    fn on_finish(&mut self, queue_index: usize, charged_tokens: u64) {
        timed(&self.rec, Name::SchedOnFinish, || {
            self.inner.on_finish(queue_index, charged_tokens)
        });
    }

    fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>) {
        timed(&self.rec, Name::SchedQueuedAdapters, || {
            self.inner.queued_adapters_into(out)
        });
    }

    fn queued_adapters(&mut self) -> Vec<AdapterId> {
        timed(&self.rec, Name::SchedQueuedAdapters, || {
            self.inner.queued_adapters()
        })
    }

    fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>) {
        self.inner.drain_queued_into(out);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn on_refresh(&mut self, probe: &dyn ResourceProbe) {
        let rec = self.rec.clone();
        timed(&rec, Name::SchedRefresh, || {
            let probe = TimedProbe {
                inner: probe,
                rec: &rec,
            };
            self.inner.on_refresh(&probe)
        });
    }

    fn queue_index_for(&self, wrs: f64) -> usize {
        self.inner.queue_index_for(wrs)
    }

    fn num_queues(&self) -> usize {
        self.inner.num_queues()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn debug_state(&self) -> String {
        self.inner.debug_state()
    }
}

/// Times every call a scheduler makes into the engine's probe: the cost
/// model's estimates and the cache's residency answers.
pub struct TimedProbe<'a> {
    inner: &'a dyn ResourceProbe,
    rec: &'a Shared,
}

impl TimedProbe<'_> {
    fn call<R>(&self, f: impl FnOnce(&dyn ResourceProbe) -> R) -> R {
        timed(self.rec, Name::Probe, || f(self.inner))
    }
}

impl ResourceProbe for TimedProbe<'_> {
    fn now(&self) -> SimTime {
        self.call(|p| p.now())
    }
    fn available_tokens(&self) -> u64 {
        self.call(|p| p.available_tokens())
    }
    fn batch_slots(&self) -> usize {
        self.call(|p| p.batch_slots())
    }
    fn adapter_resident(&self, id: AdapterId) -> bool {
        self.call(|p| p.adapter_resident(id))
    }
    fn estimate_exec(&self, tokens: u64) -> SimDuration {
        self.call(|p| p.estimate_exec(tokens))
    }
    fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
        self.call(|p| p.estimate_service(input_tokens, output_tokens))
    }
    fn estimate_mem_wait(&self, bytes: u64) -> SimDuration {
        self.call(|p| p.estimate_mem_wait(bytes))
    }
    fn total_token_capacity(&self) -> u64 {
        self.call(|p| p.total_token_capacity())
    }
    fn free_kv_bytes(&self) -> u64 {
        self.call(|p| p.free_kv_bytes())
    }
    fn kv_bytes_for(&self, tokens: u64) -> u64 {
        self.call(|p| p.kv_bytes_for(tokens))
    }
}

/// Times output-length predictions.
pub struct TimedPredictor {
    inner: Box<dyn OutputLenPredictor>,
    rec: Shared,
}

impl TimedPredictor {
    /// Wraps `inner`, recording on `rec`.
    pub fn new(inner: Box<dyn OutputLenPredictor>, rec: Shared) -> Self {
        TimedPredictor { inner, rec }
    }
}

impl OutputLenPredictor for TimedPredictor {
    fn predict(&mut self, request: &Request) -> u32 {
        timed(&self.rec, Name::Predict, || self.inner.predict(request))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Times routing decisions.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    rec: Shared,
}

impl TimedRouter {
    /// Wraps `inner`, recording on `rec`.
    pub fn new(inner: Box<dyn Router>, rec: Shared) -> Self {
        TimedRouter { inner, rec }
    }
}

impl Router for TimedRouter {
    fn route(&mut self, req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
        timed(&self.rec, Name::Route, || self.inner.route(req, engines))
    }
    fn needs_residency(&self) -> bool {
        self.inner.needs_residency()
    }
    fn uses_affinity(&self) -> bool {
        self.inner.uses_affinity()
    }
    fn staleness(&self) -> StalenessClass {
        self.inner.staleness()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{shared, Recorder};
    use chameleon_router::{EngineId, RouterPolicy};
    use chameleon_sched::{StaticProbe, WrsConfig};
    use std::time::Instant;

    fn rec() -> Shared {
        shared(Recorder::new(Instant::now()))
    }

    /// A router whose every defaulted answer differs from the trait's.
    struct Unusual;
    impl Router for Unusual {
        fn route(&mut self, _req: &Request, engines: &[EngineSnapshot]) -> RouteDecision {
            RouteDecision::to(engines.len() - 1)
        }
        fn needs_residency(&self) -> bool {
            true
        }
        fn uses_affinity(&self) -> bool {
            true
        }
        fn staleness(&self) -> StalenessClass {
            StalenessClass::BoundedStaleness {
                max_batch: 3,
                max_age: SimDuration::from_millis(7),
            }
        }
        fn name(&self) -> &'static str {
            "unusual"
        }
    }

    #[test]
    fn router_decorator_forwards_every_default() {
        let mut routers: Vec<Box<dyn Router>> =
            RouterPolicy::ALL.iter().map(|p| p.build(5)).collect();
        routers.push(Box::new(Unusual));
        for inner in routers {
            let expect = (
                inner.needs_residency(),
                inner.uses_affinity(),
                inner.staleness(),
                inner.name(),
            );
            let r = rec();
            let mut t = TimedRouter::new(inner, r.clone());
            let got = (
                t.needs_residency(),
                t.uses_affinity(),
                t.staleness(),
                t.name(),
            );
            assert_eq!(got, expect);
            let snaps: Vec<EngineSnapshot> =
                (0..3).map(|i| EngineSnapshot::idle(EngineId(i))).collect();
            let req = Request::new(
                chameleon_workload::RequestId(1),
                SimTime::ZERO,
                8,
                4,
                AdapterId(2),
                chameleon_models::AdapterRank::new(8),
            );
            t.route(&req, &snaps);
            assert_eq!(lock(&r).spans().len(), 1);
        }
    }

    #[test]
    fn scheduler_decorator_forwards_queue_shape() {
        use chameleon_sched::{ChameleonConfig, ChameleonScheduler};
        let wrs = WrsConfig::paper(512.0, 256.0, (64u64 << 20) as f64);
        let make = || -> Box<dyn Scheduler> {
            Box::new(ChameleonScheduler::new(
                ChameleonConfig::paper(SimDuration::from_secs(5)),
                wrs,
            ))
        };
        let plain = make();
        let r = rec();
        let mut t = TimedScheduler::new(make(), r.clone());
        assert_eq!(t.num_queues(), plain.num_queues());
        for w in [0.0, 0.3, 0.9, 5.0] {
            assert_eq!(t.queue_index_for(w), plain.queue_index_for(w));
        }
        assert_eq!(t.name(), plain.name());
        assert_eq!(t.debug_state(), plain.debug_state());
        assert!(t.is_empty());
        let probe = StaticProbe::default();
        assert!(t.form_batch(&probe).is_empty());
        t.on_refresh(&probe);
        let counters = lock(&r).counters;
        assert_eq!(counters.admitted, 0);
        assert_eq!(counters.useful_form_batch, 0);
    }

    #[test]
    fn probe_decorator_forwards_kv_metering() {
        // StaticProbe keeps the trait defaults for the KV methods; a
        // probe that overrides them must be seen through the decorator.
        struct Metered(StaticProbe);
        impl ResourceProbe for Metered {
            fn now(&self) -> SimTime {
                self.0.now()
            }
            fn available_tokens(&self) -> u64 {
                self.0.available_tokens()
            }
            fn batch_slots(&self) -> usize {
                self.0.batch_slots()
            }
            fn adapter_resident(&self, id: AdapterId) -> bool {
                self.0.adapter_resident(id)
            }
            fn estimate_exec(&self, tokens: u64) -> SimDuration {
                self.0.estimate_exec(tokens)
            }
            fn estimate_mem_wait(&self, bytes: u64) -> SimDuration {
                self.0.estimate_mem_wait(bytes)
            }
            fn total_token_capacity(&self) -> u64 {
                self.0.total_token_capacity()
            }
            fn free_kv_bytes(&self) -> u64 {
                17
            }
            fn kv_bytes_for(&self, tokens: u64) -> u64 {
                tokens * 3
            }
        }
        let inner = Metered(StaticProbe::default());
        let r = rec();
        let p = TimedProbe {
            inner: &inner,
            rec: &r,
        };
        assert_eq!(p.free_kv_bytes(), 17);
        assert_eq!(p.kv_bytes_for(5), 15);
        assert_eq!(
            p.estimate_service(1000, 10),
            inner.estimate_service(1000, 10)
        );
        assert_eq!(lock(&r).spans().len(), 3);
    }
}
