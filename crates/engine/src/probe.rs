//! The engine's [`ResourceProbe`] snapshot handed to schedulers.

use chameleon_models::AdapterId;
use chameleon_sched::ResourceProbe;
use chameleon_simcore::{FastSet, SimDuration, SimTime};

/// Engine resource state at one iteration boundary. Schedulers read it
/// through [`ResourceProbe`]; the engine refills one instance in place at
/// every probe (see [`Default`]).
#[derive(Debug, Clone)]
pub struct EngineProbe {
    pub(crate) now: SimTime,
    pub(crate) available_tokens: u64,
    pub(crate) batch_slots: usize,
    /// Adapters a batch can use without a new load: idle cached, in use by
    /// running requests, or in flight.
    pub(crate) resident: FastSet<AdapterId>,
    /// Seconds of engine time per resource token (blended prefill/decode,
    /// used for generic token costs).
    pub(crate) secs_per_token: f64,
    /// Wall seconds per decode token at the current batch size.
    pub(crate) decode_secs_per_token: f64,
    /// Seconds per prefill token.
    pub(crate) prefill_secs_per_token: f64,
    /// Predicted (finish_time, cumulative_freed_bytes) of running requests,
    /// sorted by finish time — answers "when do `bytes` free up?".
    pub(crate) mem_release_schedule: Vec<(SimTime, u64)>,
    pub(crate) total_token_capacity: u64,
    /// Free pool memory plus reclaimable idle adapter cache — the ceiling
    /// of what a new admission's KV footprint can claim.
    pub(crate) free_kv_bytes: u64,
    /// KV bytes per token and per block, for block-rounded footprints.
    pub(crate) kv_bytes_per_token: u64,
    pub(crate) kv_block_bytes: u64,
}

impl Default for EngineProbe {
    /// An empty probe shell — the engine keeps one as reusable scratch
    /// (take, refill in place, put back) so probing allocates nothing
    /// after warm-up.
    fn default() -> Self {
        EngineProbe {
            now: SimTime::ZERO,
            available_tokens: 0,
            batch_slots: 0,
            resident: FastSet::default(),
            secs_per_token: 0.0,
            decode_secs_per_token: 0.0,
            prefill_secs_per_token: 0.0,
            mem_release_schedule: Vec::new(),
            total_token_capacity: 0,
            free_kv_bytes: 0,
            kv_bytes_per_token: 0,
            kv_block_bytes: 0,
        }
    }
}

impl ResourceProbe for EngineProbe {
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
        SimDuration::from_secs_f64(tokens as f64 * self.secs_per_token)
    }

    fn estimate_service(&self, input_tokens: u64, output_tokens: u64) -> SimDuration {
        SimDuration::from_secs_f64(
            input_tokens as f64 * self.prefill_secs_per_token
                + output_tokens as f64 * self.decode_secs_per_token,
        )
    }

    fn estimate_mem_wait(&self, bytes: u64) -> SimDuration {
        for &(finish, freed) in &self.mem_release_schedule {
            if freed >= bytes {
                return finish.saturating_since(self.now);
            }
        }
        // Nothing running frees enough: effectively unbounded.
        SimDuration::MAX
    }

    fn total_token_capacity(&self) -> u64 {
        self.total_token_capacity
    }

    fn free_kv_bytes(&self) -> u64 {
        self.free_kv_bytes
    }

    fn kv_bytes_for(&self, tokens: u64) -> u64 {
        let raw = tokens * self.kv_bytes_per_token;
        if self.kv_block_bytes == 0 {
            return raw;
        }
        raw.div_ceil(self.kv_block_bytes) * self.kv_block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> EngineProbe {
        EngineProbe {
            now: SimTime::from_secs_f64(10.0),
            available_tokens: 500,
            batch_slots: 8,
            resident: FastSet::from_iter([AdapterId(1)]),
            secs_per_token: 0.001,
            decode_secs_per_token: 0.002,
            prefill_secs_per_token: 0.0001,
            mem_release_schedule: vec![
                (SimTime::from_secs_f64(12.0), 100),
                (SimTime::from_secs_f64(15.0), 300),
            ],
            total_token_capacity: 10_000,
            free_kv_bytes: 4096,
            kv_bytes_per_token: 64,
            kv_block_bytes: 1024,
        }
    }

    #[test]
    fn basic_accessors() {
        let p = probe();
        assert_eq!(p.available_tokens(), 500);
        assert_eq!(p.batch_slots(), 8);
        assert!(p.adapter_resident(AdapterId(1)));
        assert!(!p.adapter_resident(AdapterId(2)));
        assert_eq!(p.total_token_capacity(), 10_000);
    }

    #[test]
    fn exec_estimate_linear() {
        let p = probe();
        assert_eq!(p.estimate_exec(2000), SimDuration::from_secs(2));
    }

    #[test]
    fn service_estimate_weighs_decode_more() {
        let p = probe();
        use chameleon_sched::ResourceProbe as _;
        let in_heavy = p.estimate_service(1000, 10);
        let out_heavy = p.estimate_service(10, 1000);
        assert!(out_heavy > in_heavy * 5);
    }

    #[test]
    fn kv_footprints_are_block_rounded() {
        let p = probe();
        assert_eq!(p.free_kv_bytes(), 4096);
        // 17 tokens × 64 B = 1088 B → 2 × 1024 B blocks.
        assert_eq!(p.kv_bytes_for(17), 2048);
        assert_eq!(p.kv_bytes_for(16), 1024);
        assert_eq!(p.kv_bytes_for(0), 0);
    }

    #[test]
    fn mem_wait_walks_release_schedule() {
        let p = probe();
        assert_eq!(p.estimate_mem_wait(50), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(100), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(250), SimDuration::from_secs(5));
        assert_eq!(p.estimate_mem_wait(1000), SimDuration::MAX);
    }
}
