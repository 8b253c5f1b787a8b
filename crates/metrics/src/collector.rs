//! The engine-facing metrics sink.

use crate::record::{RequestRecord, SizeClass};
use chameleon_models::{AdapterId, AdapterRank};
use chameleon_simcore::{FastMap, SimDuration, SimTime};
use chameleon_workload::RequestId;

/// Collects per-request records as the engine reports lifecycle events.
///
/// The collector is deliberately forgiving about event order within one
/// request (e.g. class assignment before or after admission) but panics on
/// events for unknown requests — those are engine bugs worth catching early.
#[derive(Debug, Default)]
pub struct Collector {
    records: FastMap<RequestId, Tracked>,
}

/// A request's record plus the per-token state that derives its TBT gaps,
/// so a token costs one map lookup.
#[derive(Debug)]
struct Tracked {
    record: RequestRecord,
    /// When the request's previous token was produced in its current
    /// execution; `None` before the first token and after a squash.
    last_token_at: Option<SimTime>,
}

impl Collector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// Registers an arriving request.
    ///
    /// # Panics
    ///
    /// Panics if the id was already registered.
    #[allow(clippy::too_many_arguments)]
    pub fn on_arrival(
        &mut self,
        id: RequestId,
        at: SimTime,
        input_tokens: u32,
        output_tokens: u32,
        adapter: AdapterId,
        rank: AdapterRank,
    ) {
        let prev = self.records.insert(
            id,
            Tracked {
                record: RequestRecord::arrive(id, at, input_tokens, output_tokens, adapter, rank),
                last_token_at: None,
            },
        );
        assert!(prev.is_none(), "{id} arrived twice");
    }

    /// Records the scheduler's size-class decision.
    pub fn on_classified(&mut self, id: RequestId, class: SizeClass) {
        self.rec(id).record.class = Some(class);
    }

    /// Records first admission into a batch, with the adapter-load time
    /// left on the critical path at that moment (zero on a cache hit).
    pub fn on_admitted(&mut self, id: RequestId, at: SimTime, load_on_path: SimDuration) {
        let r = &mut self.rec(id).record;
        if r.admitted.is_none() {
            r.admitted = Some(at);
            r.load_on_critical_path = load_on_path;
        }
    }

    /// Records a produced output token; the first one sets TTFT.
    pub fn on_token(&mut self, id: RequestId, at: SimTime) {
        let t = self.rec(id);
        if t.record.first_token.is_none() {
            t.record.first_token = Some(at);
        } else if let Some(prev) = t.last_token_at {
            t.record.tbt_gaps.push(at.saturating_since(prev));
        }
        t.last_token_at = Some(at);
    }

    /// Records completion.
    pub fn on_finish(&mut self, id: RequestId, at: SimTime) {
        let r = &mut self.rec(id).record;
        assert!(r.finished.is_none(), "{id} finished twice");
        r.finished = Some(at);
    }

    /// Records a squash (§4.3.3): generated state is discarded and the
    /// request re-queued; its admission/token state resets.
    pub fn on_squash(&mut self, id: RequestId) {
        let t = self.rec(id);
        t.record.squashes += 1;
        t.record.admitted = None;
        t.record.first_token = None;
        t.record.tbt_gaps.clear();
        t.last_token_at = None;
    }

    /// Records an opportunistic bypass by this request (§4.3.3).
    pub fn on_bypass(&mut self, id: RequestId) {
        self.rec(id).record.bypasses += 1;
    }

    /// Number of registered requests.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has arrived yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Read access to one record.
    pub fn get(&self, id: RequestId) -> Option<&RequestRecord> {
        self.records.get(&id).map(|t| &t.record)
    }

    /// Removes a request from the collector entirely, returning its
    /// partial record (crash recovery: the request re-arrives on another
    /// engine, whose collector registers it fresh — without this the
    /// re-dispatch would trip the arrived-twice guard or leave a duplicate
    /// record behind on the dead engine).
    pub fn remove(&mut self, id: RequestId) -> Option<RequestRecord> {
        self.records.remove(&id).map(|t| t.record)
    }

    /// Finalises the collector into records sorted by arrival time.
    pub fn into_records(self) -> Vec<RequestRecord> {
        let mut v: Vec<RequestRecord> = self.records.into_values().map(|t| t.record).collect();
        v.sort_by_key(|r| (r.arrival, r.id));
        v
    }

    fn rec(&mut self, id: RequestId) -> &mut Tracked {
        self.records
            .get_mut(&id)
            .unwrap_or_else(|| panic!("event for unknown {id}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn arrive(c: &mut Collector, id: u64, at: f64) {
        c.on_arrival(
            RequestId(id),
            t(at),
            100,
            4,
            AdapterId(0),
            AdapterRank::new(8),
        );
    }

    #[test]
    fn full_lifecycle() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_classified(RequestId(1), SizeClass::Small);
        c.on_admitted(RequestId(1), t(0.5), SimDuration::from_millis(6));
        c.on_token(RequestId(1), t(1.0));
        c.on_token(RequestId(1), t(1.1));
        c.on_token(RequestId(1), t(1.25));
        c.on_finish(RequestId(1), t(1.25));
        let recs = c.into_records();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.ttft(), Some(SimDuration::from_secs(1)));
        assert_eq!(r.e2e(), Some(SimDuration::from_millis(1250)));
        assert_eq!(r.queue_delay(), Some(SimDuration::from_millis(500)));
        assert_eq!(r.tbt_gaps.len(), 2);
        assert_eq!(r.tbt_gaps[0], SimDuration::from_millis(100));
        assert_eq!(r.tbt_gaps[1], SimDuration::from_millis(150));
        assert_eq!(r.load_on_critical_path, SimDuration::from_millis(6));
        assert_eq!(r.class, Some(SizeClass::Small));
    }

    #[test]
    fn squash_resets_progress() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_admitted(RequestId(1), t(0.1), SimDuration::ZERO);
        c.on_token(RequestId(1), t(0.2));
        c.on_token(RequestId(1), t(0.3));
        c.on_squash(RequestId(1));
        // Re-execution.
        c.on_admitted(RequestId(1), t(1.0), SimDuration::ZERO);
        c.on_token(RequestId(1), t(1.2));
        c.on_finish(RequestId(1), t(1.2));
        let r = &c.into_records()[0];
        assert_eq!(r.squashes, 1);
        assert_eq!(r.queue_delay(), Some(SimDuration::from_secs(1)));
        assert_eq!(r.ttft(), Some(SimDuration::from_millis(1200)));
        assert!(r.tbt_gaps.is_empty());
    }

    #[test]
    fn only_first_admission_counts() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_admitted(RequestId(1), t(0.5), SimDuration::from_millis(3));
        c.on_admitted(RequestId(1), t(0.9), SimDuration::ZERO);
        assert_eq!(
            c.get(RequestId(1)).unwrap().queue_delay(),
            Some(SimDuration::from_millis(500))
        );
        assert_eq!(
            c.get(RequestId(1)).unwrap().load_on_critical_path,
            SimDuration::from_millis(3)
        );
    }

    #[test]
    fn squash_starts_a_fresh_tbt_series() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_token(RequestId(1), t(0.2));
        c.on_token(RequestId(1), t(0.3));
        c.on_squash(RequestId(1));
        // Re-execution: the first token after the squash opens a new
        // series, so no gap spans the squash.
        c.on_token(RequestId(1), t(2.0));
        c.on_token(RequestId(1), t(2.25));
        let r = c.get(RequestId(1)).unwrap();
        assert_eq!(r.ttft(), Some(SimDuration::from_secs(2)));
        assert_eq!(r.tbt_gaps, vec![SimDuration::from_millis(250)]);
    }

    #[test]
    fn removed_request_rearrives_with_a_fresh_tbt_series() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_token(RequestId(1), t(0.2));
        c.on_token(RequestId(1), t(0.3));
        let partial = c.remove(RequestId(1)).expect("registered");
        assert_eq!(partial.tbt_gaps, vec![SimDuration::from_millis(100)]);
        assert!(c.get(RequestId(1)).is_none());
        // Crash re-dispatch: the request arrives again and restarts.
        arrive(&mut c, 1, 0.0);
        c.on_token(RequestId(1), t(5.0));
        c.on_token(RequestId(1), t(5.5));
        c.on_token(RequestId(1), t(5.75));
        let r = c.get(RequestId(1)).unwrap();
        assert_eq!(r.ttft(), Some(SimDuration::from_secs(5)));
        assert_eq!(
            r.tbt_gaps,
            vec![SimDuration::from_millis(500), SimDuration::from_millis(250)]
        );
    }

    #[test]
    fn records_sorted_by_arrival() {
        let mut c = Collector::new();
        arrive(&mut c, 2, 5.0);
        arrive(&mut c, 1, 1.0);
        arrive(&mut c, 3, 3.0);
        let ids: Vec<u64> = c.into_records().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 3, 2]);
    }

    #[test]
    fn export_is_insertion_order_independent() {
        // Map iteration order is arbitrary; the export path must sort so
        // derived outputs are reproducible regardless of the order the
        // engine (or a future parallel producer) fed events in.
        let build = |order: &[u64]| {
            let mut c = Collector::new();
            for &id in order {
                arrive(&mut c, id, id as f64 * 0.5);
            }
            for &id in order.iter().rev() {
                c.on_token(RequestId(id), t(100.0 + id as f64));
                c.on_finish(RequestId(id), t(200.0 + id as f64));
            }
            c.into_records()
                .iter()
                .map(|r| (r.id, r.arrival, r.first_token, r.finished))
                .collect::<Vec<_>>()
        };
        let a = build(&[1, 2, 3, 4, 5, 6, 7]);
        let b = build(&[7, 3, 1, 6, 2, 5, 4]);
        let c = build(&[4, 5, 6, 7, 1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a, c);
        let ids: Vec<u64> = a.iter().map(|&(id, ..)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5, 6, 7], "sorted by (arrival, id)");
    }

    #[test]
    #[should_panic(expected = "unknown")]
    fn unknown_request_panics() {
        let mut c = Collector::new();
        c.on_token(RequestId(9), t(0.0));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        arrive(&mut c, 1, 1.0);
    }

    #[test]
    fn bypass_counter() {
        let mut c = Collector::new();
        arrive(&mut c, 1, 0.0);
        c.on_bypass(RequestId(1));
        c.on_bypass(RequestId(1));
        assert_eq!(c.get(RequestId(1)).unwrap().bypasses, 2);
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }
}
