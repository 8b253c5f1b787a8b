//! The engine's [`ResourceProbe`]: schedulers read live engine state
//! through it.

use crate::engine::{Loading, Running};
use chameleon_cache::AdapterCache;
use chameleon_gpu::KvAllocator;
use chameleon_models::{AdapterId, AdapterPool};
use chameleon_sched::ResourceProbe;
use chameleon_simcore::{FastMap, FastSet, SimDuration, SimTime};
use std::cell::{Cell, OnceCell};

/// Predicted `(finish_time, cumulative_freed_bytes)` of the running
/// requests, sorted by finish time — answers "when do `bytes` free up?".
pub(crate) type ReleaseSchedule = Vec<(SimTime, u64)>;

/// Engine resource state at one iteration boundary, for the duration of
/// one scheduler call (`form_batch_into` or `on_refresh`).
///
/// The engine builds a probe per call from borrows of its own state. The
/// scheduler cannot mutate the engine while it holds the probe, so every
/// answer equals what a snapshot taken at the start of the call would
/// hold. The O(1) scalars are computed up front. The resident-adapter set
/// and the memory release schedule are each built on first use, at most
/// once per probe, in buffers the engine lends: most calls ask neither
/// question, while a scheduler scanning a deep queue asks residency once
/// per queued request, so each answer after the first is one set lookup.
pub struct EngineProbe<'a> {
    pub(crate) now: SimTime,
    pub(crate) available_tokens: u64,
    pub(crate) batch_slots: usize,
    /// Wall time of one decode iteration at the current batch size: what
    /// a decode token costs, and the unit of predicted finish times.
    pub(crate) decode_step: SimDuration,
    /// `decode_step` in seconds.
    pub(crate) decode_secs_per_token: f64,
    /// Seconds of engine time per resource token (the decode iteration
    /// shared across the batch, used for generic token costs).
    pub(crate) secs_per_token: f64,
    /// Seconds per prefill token.
    pub(crate) prefill_secs_per_token: f64,
    pub(crate) total_token_capacity: u64,
    /// Free pool memory plus reclaimable idle adapter cache — the ceiling
    /// of what a new admission's KV footprint can claim.
    pub(crate) free_kv_bytes: u64,
    pub(crate) kv: &'a KvAllocator,
    pub(crate) pool: &'a AdapterPool,
    pub(crate) cache: &'a AdapterCache,
    pub(crate) loading: &'a FastMap<AdapterId, Loading>,
    pub(crate) running: &'a [Running],
    /// Adapters a batch can use without a new load: idle cached, in use
    /// by running requests, or in flight.
    pub(crate) resident: Lent<FastSet<AdapterId>>,
    pub(crate) release: Lent<ReleaseSchedule>,
}

impl EngineProbe<'_> {
    /// The release schedule, built unless this probe already has.
    pub(crate) fn release_schedule(&self) -> &ReleaseSchedule {
        self.release.get(|s| {
            build_release_schedule(
                s,
                self.now,
                self.decode_step,
                self.running,
                self.kv,
                self.pool,
            )
        })
    }
}

impl ResourceProbe for EngineProbe<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn available_tokens(&self) -> u64 {
        self.available_tokens
    }

    fn batch_slots(&self) -> usize {
        self.batch_slots
    }

    /// Idle in the cache, in use by a running request, or in flight. An
    /// adapter referenced only by a restoring request is not resident:
    /// that request does not run until its transfer lands.
    fn adapter_resident(&self, id: AdapterId) -> bool {
        self.resident
            .get(|set| {
                set.clear();
                set.extend(
                    self.cache
                        .idle_adapters()
                        .chain(self.running.iter().map(|r| r.req.adapter()))
                        .chain(self.loading.keys().copied()),
                );
            })
            .contains(&id)
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
        release_wait(self.release_schedule(), self.now, bytes)
    }

    fn total_token_capacity(&self) -> u64 {
        self.total_token_capacity
    }

    fn free_kv_bytes(&self) -> u64 {
        self.free_kv_bytes
    }

    fn kv_bytes_for(&self, tokens: u64) -> u64 {
        let block = self.kv.block_bytes();
        (tokens * self.kv.bytes_per_token()).div_ceil(block) * block
    }
}

/// A buffer the engine lends a probe, filled on first use so a probe
/// allocates nothing after warm-up. Once filled it is read-only, and each
/// later use costs one branch.
pub(crate) struct Lent<T> {
    filled: OnceCell<T>,
    spare: Cell<T>,
}

impl<T: Default> Lent<T> {
    /// Lends `buf`; its contents are stale until the first `get`.
    pub(crate) fn new(buf: T) -> Self {
        Lent {
            filled: OnceCell::new(),
            spare: Cell::new(buf),
        }
    }

    /// The buffer, filled by `fill` on the first call. `fill` must
    /// replace whatever the buffer held.
    pub(crate) fn get(&self, fill: impl FnOnce(&mut T)) -> &T {
        self.filled.get_or_init(|| {
            let mut buf = self.spare.take();
            fill(&mut buf);
            buf
        })
    }

    /// Returns the buffer, and whether this probe filled it.
    pub(crate) fn into_inner(self) -> (T, bool) {
        match self.filled.into_inner() {
            Some(buf) => (buf, true),
            None => (self.spare.into_inner(), false),
        }
    }
}

/// Refills `schedule`: when each running request is expected to finish,
/// one `decode_step` per remaining token, and how many bytes it frees.
fn build_release_schedule(
    schedule: &mut ReleaseSchedule,
    now: SimTime,
    decode_step: SimDuration,
    running: &[Running],
    kv: &KvAllocator,
    pool: &AdapterPool,
) {
    schedule.clear();
    schedule.extend(running.iter().map(|r| {
        let remaining = u64::from(
            r.predicted_output
                .max(r.produced)
                .saturating_sub(r.produced),
        ) + u64::from(r.prefill_remaining) / 64;
        let finish = now + decode_step.mul_f64(remaining as f64);
        // Block-rounded, matching what `KvAllocator::free` actually
        // releases at retirement.
        let adapter = pool
            .get(r.req.adapter())
            .expect("running adapter is in the pool");
        (finish, kv.bytes_for(r.kv_reserved) + adapter.bytes())
    }));
    // In-place unstable sort (no temp buffer); tied finish times all
    // resolve to the same wait, so the tie order is immaterial.
    schedule.sort_unstable_by_key(|&(t, _)| t);
    let mut acc = 0u64;
    for item in schedule.iter_mut() {
        acc += item.1;
        item.1 = acc;
    }
}

/// Wait from `now` until `schedule` has freed `bytes`;
/// [`SimDuration::MAX`] when nothing running frees enough.
pub(crate) fn release_wait(schedule: &ReleaseSchedule, now: SimTime, bytes: u64) -> SimDuration {
    schedule
        .iter()
        .find(|&&(_, freed)| freed >= bytes)
        .map_or(SimDuration::MAX, |&(finish, _)| {
            finish.saturating_since(now)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_gpu::memory::MemoryPool;
    use chameleon_models::{LlmSpec, PoolConfig};

    /// Owned engine state a test probe borrows: adapter 1 idle in the
    /// cache and 64 B of KV per token in 1 KiB blocks.
    struct Fixture {
        kv: KvAllocator,
        pool: AdapterPool,
        cache: AdapterCache,
        loading: FastMap<AdapterId, Loading>,
    }

    impl Fixture {
        fn new() -> Self {
            let pool = AdapterPool::generate(&LlmSpec::llama_7b(), &PoolConfig::paper_default(4));
            let mut cache = AdapterCache::new(chameleon_cache::EvictionPolicy::chameleon());
            let mut mem = MemoryPool::new(1 << 40);
            cache
                .insert_loaded(&mut mem, pool.get(AdapterId(1)).unwrap(), SimTime::ZERO, 0)
                .unwrap();
            Fixture {
                kv: KvAllocator::new(64, 16),
                pool,
                cache,
                loading: FastMap::default(),
            }
        }

        /// A probe whose two-entry release schedule is already built.
        fn probe(&self) -> EngineProbe<'_> {
            EngineProbe {
                now: SimTime::from_secs_f64(10.0),
                available_tokens: 500,
                batch_slots: 8,
                decode_step: SimDuration::from_secs_f64(0.002),
                decode_secs_per_token: 0.002,
                secs_per_token: 0.001,
                prefill_secs_per_token: 0.0001,
                total_token_capacity: 10_000,
                free_kv_bytes: 4096,
                kv: &self.kv,
                pool: &self.pool,
                cache: &self.cache,
                loading: &self.loading,
                running: &[],
                resident: Lent::new(FastSet::default()),
                release: Lent {
                    filled: OnceCell::from(vec![
                        (SimTime::from_secs_f64(12.0), 100),
                        (SimTime::from_secs_f64(15.0), 300),
                    ]),
                    spare: Cell::default(),
                },
            }
        }
    }

    #[test]
    fn basic_accessors() {
        let f = Fixture::new();
        let p = f.probe();
        assert_eq!(p.available_tokens(), 500);
        assert_eq!(p.batch_slots(), 8);
        assert!(p.adapter_resident(AdapterId(1)));
        assert!(!p.adapter_resident(AdapterId(2)));
        assert_eq!(p.total_token_capacity(), 10_000);
    }

    #[test]
    fn exec_estimate_linear() {
        let f = Fixture::new();
        assert_eq!(f.probe().estimate_exec(2000), SimDuration::from_secs(2));
    }

    #[test]
    fn service_estimate_weighs_decode_more() {
        let f = Fixture::new();
        let p = f.probe();
        let in_heavy = p.estimate_service(1000, 10);
        let out_heavy = p.estimate_service(10, 1000);
        assert!(out_heavy > in_heavy * 5);
    }

    #[test]
    fn kv_footprints_are_block_rounded() {
        let f = Fixture::new();
        let p = f.probe();
        assert_eq!(p.free_kv_bytes(), 4096);
        // 17 tokens × 64 B = 1088 B → 2 × 1024 B blocks.
        assert_eq!(p.kv_bytes_for(17), 2048);
        assert_eq!(p.kv_bytes_for(16), 1024);
        assert_eq!(p.kv_bytes_for(0), 0);
    }

    #[test]
    fn mem_wait_walks_release_schedule() {
        let f = Fixture::new();
        let p = f.probe();
        assert_eq!(p.estimate_mem_wait(50), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(100), SimDuration::from_secs(2));
        assert_eq!(p.estimate_mem_wait(250), SimDuration::from_secs(5));
        assert_eq!(p.estimate_mem_wait(1000), SimDuration::MAX);
    }
}
