//! The benchmark's workloads.
//!
//! Each workload is an open loop: a Poisson arrival schedule generated
//! from the seed ahead of the run and replayed in simulated time, so a
//! slow simulator never thins the offered load. A run simulates a fixed
//! *panel* of sub-traces whose seeds derive from the run's seed; the
//! simulated metrics pool every request of the panel, which keeps them
//! steady across seeds.

use chameleon_core::{preset, workloads, ClusterExecution, KvSpec, SystemConfig};
use chameleon_models::{AdapterPool, GpuSpec, PopularityDist};
use chameleon_workload::Trace;

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Kept out of every tuning run; a claim about simulated metrics must
/// also hold on this seed.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Chameleon engine, 600 Zipf adapters, near the load knee.
    Zipf600Knee,
    /// A 16-engine elastic fleet behind adapter-affinity routing, stepped
    /// on two worker threads. Its serial twin runs as a check only: a
    /// separately timed serial fleet did not fit the time budget.
    Fleet16Par2,
    /// One KV-guarded Chameleon engine on an A40 cut to 27 GiB, where KV
    /// admission refusals and hybrid demote/restore fire.
    KvPressure,
}

/// GPU memory of the `kv_pressure` engine. Less memory is more starved,
/// but the engine wedges when a request's *predicted* footprint exceeds
/// its whole KV capacity (see `starved_engine_livelock`). At 27 GiB that
/// takes a 49,152-token prediction, which the noisy predictor's error
/// tail makes vanishingly rare; at 18–26 GiB a 24,576-token one does,
/// which happened once in 432 sub-traces at 18 GiB.
pub const KV_GPU_GIB: u64 = 27;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Zipf600Knee,
        Workload::Fleet16Par2,
        Workload::KvPressure,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Zipf600Knee => "zipf600_knee",
            Workload::Fleet16Par2 => "fleet16_par2",
            Workload::KvPressure => "kv_pressure",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system under test.
    pub fn config(self) -> SystemConfig {
        match self {
            Workload::Zipf600Knee => {
                let mut cfg = preset::chameleon();
                cfg.num_adapters = 600;
                cfg.with_label("Chameleon-600")
            }
            Workload::Fleet16Par2 => {
                let mut cfg = preset::chameleon_cluster16();
                cfg.rank_popularity = PopularityDist::power_law();
                cfg.with_cluster_exec(ClusterExecution::Parallel { workers: 2 })
            }
            Workload::KvPressure => preset::chameleon_kv_guarded()
                .with_gpu(GpuSpec::a40().with_memory_bytes(KV_GPU_GIB << 30))
                .with_kv(KvSpec::new().with_pressure_threshold(0.5)),
        }
    }

    /// Offered load, requests per simulated second.
    pub fn rps(self) -> f64 {
        match self {
            Workload::Zipf600Knee => 10.5,
            Workload::Fleet16Par2 => 300.0,
            Workload::KvPressure => 8.0,
        }
    }

    /// Simulated seconds of each sub-trace.
    pub fn trace_secs(self) -> f64 {
        match self {
            Workload::Zipf600Knee => 1800.0,
            Workload::Fleet16Par2 => 360.0,
            Workload::KvPressure => 3600.0,
        }
    }

    /// Sub-traces in the panel.
    pub fn panel(self) -> usize {
        match self {
            Workload::Zipf600Knee => 8,
            Workload::Fleet16Par2 => 2,
            Workload::KvPressure => 4,
        }
    }

    /// The seed of sub-trace `i` of the panel for run seed `seed`.
    pub fn sub_seed(seed: u64, i: usize) -> u64 {
        // splitmix64 of the pair, so neighbouring run seeds share no
        // sub-trace.
        let mut z = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((i as u64 + 1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The scaled Splitwise trace of one sub-trace.
    pub fn trace(self, sub_seed: u64, pool: &AdapterPool) -> Trace {
        workloads::splitwise(self.rps(), self.trace_secs(), sub_seed, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0, 1, 2, DEFAULT_SEED] {
            for i in 0..32 {
                assert!(seen.insert(Workload::sub_seed(seed, i)));
            }
        }
        assert_eq!(Workload::sub_seed(7, 3), Workload::sub_seed(7, 3));
    }

    /// Why `kv_pressure` has 27 GiB and not the 15 GiB of a truly starved
    /// engine: a Chameleon engine on an A40 cut to 15 GiB never finishes
    /// this 700 s trace. One request of 294 input tokens is predicted to
    /// produce 3,072, so its footprint exceeds the engine's whole KV space;
    /// it is never admitted, and the liveness poke and the periodic ticks
    /// keep the run going forever. The same trace cut at 650 s finishes in
    /// well under a second. The KV-economy presets wedge the same way, on
    /// other traces up to 18 GiB. Ignored until the engine is fixed; run it
    /// with `--ignored` to reproduce.
    #[test]
    #[ignore = "reproduces a known engine livelock on memory-starved GPUs"]
    fn starved_engine_livelock() {
        let cfg = preset::chameleon()
            .with_gpu(chameleon_models::GpuSpec::a40().with_memory_bytes(15 * (1 << 30)));
        let seed = 12_041_547_952_062_583_241;
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose: a wedged run never returns, and the test
        // process ends with the test.
        std::thread::spawn(move || {
            let mut sim = chameleon_core::Simulation::new(cfg, seed);
            let trace = workloads::splitwise(2.5, 700.0, seed, sim.pool());
            let n = trace.len();
            let done = sim.run(&trace).completed();
            let _ = tx.send((n, done));
        });
        let outcome = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert!(
            matches!(outcome, Ok((n, done)) if n == done),
            "the starved engine did not finish the trace within 60 s: {outcome:?}"
        );
    }

    /// `kv_pressure` wedges only on a request whose prediction reaches
    /// the 49,152-token bucket: any smaller prediction, with the longest
    /// prompt and the largest adapter, fits the empty engine. On one GiB
    /// less it would not.
    #[test]
    fn kv_pressure_fits_every_prediction_below_49152_tokens() {
        // Scaled Splitwise clips prompts at 4096 × 0.25 tokens.
        const MAX_INPUT: u64 = 1024;
        let cfg = Workload::KvPressure.config();
        let sim = chameleon_core::Simulation::new(cfg.clone(), DEFAULT_SEED);
        let trace = Workload::KvPressure.trace(DEFAULT_SEED, sim.pool());
        assert!(u64::from(trace.summary().max_input) <= MAX_INPUT);
        let kv_token = cfg.llm.kv_bytes_per_token();
        // One KV block of rounding slack.
        let need = (MAX_INPUT + 24_576 + 16) * kv_token + sim.pool().max_adapter_bytes();
        let usable = |gib: u64| {
            let e = chameleon_engine::EngineConfig::new(
                cfg.llm.clone(),
                GpuSpec::a40().with_memory_bytes(gib << 30),
            );
            let total = e.total_memory_bytes();
            total - cfg.llm.weight_bytes() - (total as f64 * e.activation_headroom) as u64
        };
        assert!(
            need <= usable(KV_GPU_GIB),
            "{need} > {}",
            usable(KV_GPU_GIB)
        );
        assert!(need > usable(KV_GPU_GIB - 1));
    }

    #[test]
    fn parallel_fleet_is_the_cluster16_preset() {
        let par = Workload::Fleet16Par2.config();
        assert_eq!(par.cluster_exec, ClusterExecution::Parallel { workers: 2 });
        let mut serial = preset::chameleon_cluster16();
        serial.rank_popularity = PopularityDist::power_law();
        assert_eq!(
            format!("{serial:?}"),
            format!("{:?}", par.with_cluster_exec(ClusterExecution::Serial))
        );
    }
}
