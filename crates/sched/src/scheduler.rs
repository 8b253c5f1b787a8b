//! The scheduler abstraction the engine drives.
//!
//! On every iteration boundary the engine asks the active [`Scheduler`] to
//! [`form_batch`](Scheduler::form_batch) — pick which queued requests join
//! the running batch — against a [`ResourceProbe`] describing what the GPU
//! can currently hold. The probe abstracts the engine so schedulers are
//! unit-testable in isolation.

use crate::queued::QueuedRequest;
use chameleon_models::AdapterId;
use chameleon_simcore::{SimDuration, SimTime};

/// Engine-provided view of resource availability during batch formation.
///
/// A probe is valid only during the call that received it
/// ([`Scheduler::form_batch_into`] or [`Scheduler::on_refresh`]): the
/// engine may answer from its live state, which changes once the call
/// returns. A scheduler keeps no probe past the call, and an answer
/// describes the engine only as it stood during it.
pub trait ResourceProbe {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Resource tokens (KV tokens + adapter token-equivalents) that can
    /// still be committed, counting memory reclaimable by evicting idle
    /// cached adapters.
    fn available_tokens(&self) -> u64;

    /// Free request slots in the running batch.
    fn batch_slots(&self) -> usize;

    /// Whether the adapter's weights are already on the GPU.
    fn adapter_resident(&self, id: AdapterId) -> bool;

    /// Estimated execution time of a request needing `tokens` resource
    /// tokens (used by the bypass heuristic, §4.3.3).
    fn estimate_exec(&self, tokens: u64) -> SimDuration;

    /// Estimated wall-clock service time of a request with `input_tokens`
    /// of prompt and `output_tokens` of decode: prefill is cheap per token,
    /// decode pays a full iteration per token (§4.3.5's `D`).
    fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
        self.estimate_exec(input_tokens + output_tokens)
    }

    /// Estimated wait until `bytes` of adapter memory frees up (§4.3.3:
    /// "predicts how soon will the memory needed by R1 become available").
    fn estimate_mem_wait(&self, bytes: u64) -> SimDuration;

    /// Total token capacity of the engine when idle (for quota assignment,
    /// §4.3.5's `Tok_total`).
    fn total_token_capacity(&self) -> u64;

    /// Bytes the KV allocator could claim right now: genuinely free pool
    /// memory plus memory reclaimable by evicting idle cached adapters.
    /// The KV-aware admission contract — an admission whose
    /// [`kv_bytes_for`](Self::kv_bytes_for) footprint exceeds this cannot
    /// complete and will be refused rather than unwound. Default
    /// `u64::MAX` (KV never constrains) keeps probes that predate the KV
    /// plane working unchanged.
    fn free_kv_bytes(&self) -> u64 {
        u64::MAX
    }

    /// Block-rounded bytes `tokens` of KV state occupy — what the
    /// allocator actually reserves, not the naive per-token product.
    /// Default: token count taken as bytes, for probes without a block
    /// model.
    fn kv_bytes_for(&self, tokens: u64) -> u64 {
        tokens
    }
}

/// The effective token charge of a request given current residency: a
/// request whose adapter is already on the GPU does not pay the adapter
/// token-equivalent again.
pub fn effective_need(req: &QueuedRequest, probe: &dyn ResourceProbe) -> u64 {
    if probe.adapter_resident(req.adapter()) {
        req.kv_token_need()
    } else {
        req.token_need()
    }
}

/// One admission decision out of [`Scheduler::form_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionOutcome {
    /// The admitted request.
    pub request: QueuedRequest,
    /// Index of the queue it came from (0 for single-queue policies).
    pub queue_index: usize,
    /// Number of queues at decision time (for size-class reporting).
    pub num_queues: usize,
    /// Resource tokens charged (returned via [`Scheduler::on_finish`]).
    pub charged_tokens: u64,
    /// True when the request bypassed a blocked older request (§4.3.3).
    pub bypassed: bool,
}

/// An iteration-level admission policy.
///
/// `Send` is a supertrait because a cluster's engines (each owning its
/// scheduler) are stepped on worker threads under parallel cluster
/// execution; every scheduler here is plain owned data, so the bound
/// costs nothing.
pub trait Scheduler: Send {
    /// Adds a newly arrived (and annotated) request.
    fn enqueue(&mut self, req: QueuedRequest);

    /// Returns a squashed request to the front of its queue for
    /// re-execution (§4.3.3).
    fn requeue_front(&mut self, req: QueuedRequest);

    /// Selects requests to admit into the batch right now, appending them
    /// to `out` (which the engine clears and reuses across iterations so
    /// the dispatch hot path allocates nothing).
    fn form_batch_into(&mut self, probe: &dyn ResourceProbe, out: &mut Vec<AdmissionOutcome>);

    /// Allocating convenience wrapper around
    /// [`form_batch_into`](Self::form_batch_into) (tests, examples).
    fn form_batch(&mut self, probe: &dyn ResourceProbe) -> Vec<AdmissionOutcome> {
        let mut out = Vec::new();
        self.form_batch_into(probe, &mut out);
        out
    }

    /// Returns quota charged at admission when the request leaves the
    /// system (completion or squash). Single-queue policies ignore this.
    fn on_finish(&mut self, queue_index: usize, charged_tokens: u64);

    /// Appends the adapters needed by queued requests, next-to-run first
    /// and deduplicated, to `out` (drives prefetch and eviction
    /// protection, §4.2). Takes `&mut self` so implementations can reuse
    /// internal dedup scratch instead of allocating per call.
    fn queued_adapters_into(&mut self, out: &mut Vec<AdapterId>);

    /// Allocating convenience wrapper around
    /// [`queued_adapters_into`](Self::queued_adapters_into).
    fn queued_adapters(&mut self) -> Vec<AdapterId> {
        let mut out = Vec::new();
        self.queued_adapters_into(&mut out);
        out
    }

    /// Removes *every* waiting request, appending them to `out` in queue
    /// order (small queue first for multi-queue policies, FIFO within a
    /// queue). Used by crash recovery to extract a dead engine's backlog
    /// for re-dispatch; the scheduler is discarded afterwards, so
    /// implementations need not unwind quota bookkeeping.
    fn drain_queued_into(&mut self, out: &mut Vec<QueuedRequest>);

    /// Number of waiting requests.
    fn len(&self) -> usize;

    /// True when no requests wait.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Periodic reconfiguration hook (`T_refresh`, §4.3.4–5). Default: none.
    fn on_refresh(&mut self, _probe: &dyn ResourceProbe) {}

    /// Queue index a request with this WRS would join right now (for
    /// size-class reporting); single-queue policies return 0.
    fn queue_index_for(&self, _wrs: f64) -> usize {
        0
    }

    /// Number of queues currently configured.
    fn num_queues(&self) -> usize {
        1
    }

    /// Policy label for reports.
    fn name(&self) -> &'static str;

    /// Human-readable internal state dump for diagnostics.
    fn debug_state(&self) -> String {
        String::new()
    }
}

/// A fixed probe for scheduler unit tests (also reused by downstream
/// crates' tests).
#[derive(Debug, Clone)]
pub struct StaticProbe {
    /// Value returned by [`ResourceProbe::now`].
    pub now: SimTime,
    /// Value returned by [`ResourceProbe::available_tokens`].
    pub available_tokens: u64,
    /// Value returned by [`ResourceProbe::batch_slots`].
    pub batch_slots: usize,
    /// Adapters reported resident.
    pub resident: Vec<AdapterId>,
    /// Seconds of execution per 1000 tokens for [`ResourceProbe::estimate_exec`].
    pub exec_secs_per_kilotoken: f64,
    /// Wall seconds per decode token for [`ResourceProbe::estimate_service`].
    pub decode_secs_per_token: f64,
    /// Seconds per prefill token for [`ResourceProbe::estimate_service`].
    pub prefill_secs_per_token: f64,
    /// Fixed value for [`ResourceProbe::estimate_mem_wait`].
    pub mem_wait: SimDuration,
    /// Value returned by [`ResourceProbe::total_token_capacity`].
    pub total_capacity: u64,
}

impl Default for StaticProbe {
    fn default() -> Self {
        StaticProbe {
            now: SimTime::ZERO,
            available_tokens: u64::MAX,
            batch_slots: usize::MAX,
            resident: Vec::new(),
            exec_secs_per_kilotoken: 1.0,
            decode_secs_per_token: 0.03,
            prefill_secs_per_token: 0.0002,
            mem_wait: SimDuration::from_secs(10),
            total_capacity: 1_000_000,
        }
    }
}

impl ResourceProbe for StaticProbe {
    fn now(&self) -> SimTime {
        self.now
    }
    fn available_tokens(&self) -> u64 {
        self.available_tokens
    }
    fn batch_slots(&self) -> usize {
        self.batch_slots
    }
    fn adapter_resident(&self, id: AdapterId) -> bool {
        self.resident.contains(&id)
    }
    fn estimate_exec(&self, tokens: u64) -> SimDuration {
        SimDuration::from_secs_f64(tokens as f64 / 1000.0 * self.exec_secs_per_kilotoken)
    }
    fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            input_tokens as f64 * self.prefill_secs_per_token
                + output_tokens as f64 * self.decode_secs_per_token,
        )
    }
    fn estimate_mem_wait(&self, _bytes: u64) -> SimDuration {
        self.mem_wait
    }
    fn total_token_capacity(&self) -> u64 {
        self.total_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_models::AdapterRank;
    use chameleon_workload::{Request, RequestId};

    fn queued(adapter: u32, input: u32, predicted: u32) -> QueuedRequest {
        let r = Request::new(
            RequestId(u64::from(adapter)),
            SimTime::ZERO,
            input,
            predicted.max(1),
            AdapterId(adapter),
            AdapterRank::new(8),
        );
        QueuedRequest::new(r, predicted, 16 << 20, 32, 0.1, SimTime::ZERO)
    }

    #[test]
    fn effective_need_discounts_resident_adapters() {
        let probe = StaticProbe {
            resident: vec![AdapterId(1)],
            ..StaticProbe::default()
        };
        let hit = queued(1, 100, 50);
        let miss = queued(2, 100, 50);
        assert_eq!(effective_need(&hit, &probe), 150);
        assert_eq!(effective_need(&miss, &probe), 182);
    }

    #[test]
    fn static_probe_estimates() {
        let probe = StaticProbe::default();
        assert_eq!(probe.estimate_exec(2000), SimDuration::from_secs(2));
        assert_eq!(probe.estimate_mem_wait(1 << 20), SimDuration::from_secs(10));
        assert!(!probe.adapter_resident(AdapterId(0)));
    }

    #[test]
    fn kv_metering_defaults_never_constrain() {
        let probe = StaticProbe::default();
        assert_eq!(probe.free_kv_bytes(), u64::MAX);
        assert_eq!(probe.kv_bytes_for(42), 42);
    }
}
