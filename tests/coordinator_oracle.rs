//! Frozen oracle for the cluster coordinator's barrier paths.
//!
//! The coordinator (`Cluster::run_loop` and its barrier handlers) routes
//! arrivals one at a time or in batches, sheds under overload, re-homes
//! a dead or draining engine's adapter shard, re-dispatches crash
//! victims and joins delayed provisions. Serial == parallel equality
//! alone cannot catch a refactor that changes those paths in both
//! modes at once, so this suite freezes their output: for each scenario
//! and seed, the `canonical_text` length + FNV-1a digest of an untraced
//! run and the FNV-1a digest of a traced twin's JSONL decision stream,
//! each reproduced under serial and 2-worker parallel execution.
//!
//! Every scenario also asserts that the counter of the path it pins is
//! non-zero, so no pin can pass vacuously. If a digest moves, the
//! coordinator changed behaviour: a refactor must leave these bytes
//! exactly where they are.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, ClusterExecution, FaultSpec, KvSpec, RunReport,
    SystemConfig, TraceSpec,
};
use chameleon_repro::models::GpuSpec;
use chameleon_repro::simcore::{SimDuration, SimTime};
use chameleon_repro::workload::Trace;

/// FNV-1a 64-bit, as in the predictive oracle suite.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One frozen run: seed, canonical text length and digest, and the
/// digest of the traced twin's JSONL stream.
type Pin = (u64, usize, u64, u64);

const EXECS: [ClusterExecution; 2] = [
    ClusterExecution::Serial,
    ClusterExecution::Parallel { workers: 2 },
];

fn run(
    cfg: &SystemConfig,
    exec: ClusterExecution,
    seed: u64,
    workload: fn(&Simulation, u64) -> Trace,
) -> RunReport {
    let mut sim = Simulation::new(cfg.clone().with_cluster_exec(exec), seed);
    let trace = workload(&sim, seed);
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    report
}

/// Runs `cfg` at every pinned seed in both execution modes, untraced and
/// traced, and checks each output against its pin. Returns the serial
/// untraced reports for the scenario's non-vacuity checks.
fn assert_frozen(
    scenario: &str,
    cfg: SystemConfig,
    workload: fn(&Simulation, u64) -> Trace,
    pins: [Pin; 2],
) -> Vec<RunReport> {
    let traced = cfg.clone().with_trace(TraceSpec::new());
    let mut serial = Vec::new();
    for (seed, len, fnv, trace_fnv) in pins {
        for exec in EXECS {
            let report = run(&cfg, exec, seed, workload);
            let text = report.canonical_text();
            assert_eq!(
                (text.len(), fnv1a(text.as_bytes())),
                (len, fnv),
                "{scenario} (seed {seed}, {exec:?}): canonical text diverged from the oracle"
            );
            let jsonl = run(&traced, exec, seed, workload)
                .trace
                .expect("traced run carries a log")
                .to_jsonl();
            assert_eq!(
                fnv1a(jsonl.as_bytes()),
                trace_fnv,
                "{scenario} (seed {seed}, {exec:?}): trace stream diverged from the oracle"
            );
            if exec == ClusterExecution::Serial {
                serial.push(report);
            }
        }
    }
    serial
}

fn steady(sim: &Simulation, seed: u64) -> Trace {
    workloads::splitwise(24.0, 12.0, seed, sim.pool())
}

fn steady_light(sim: &Simulation, seed: u64) -> Trace {
    workloads::splitwise(12.0, 25.0, seed, sim.pool())
}

/// [`steady`] with arrivals floored onto a 150 ms grid: a crash on a
/// grid point has its first retries (100 ms detection + 50 ms backoff)
/// due on the next one, where an arrival batch has just opened a
/// snapshot generation for them to reuse.
fn gridded(sim: &Simulation, seed: u64) -> Trace {
    const GRID: u64 = 150_000_000;
    let reqs = steady(sim, seed)
        .iter()
        .map(|r| r.with_arrival(SimTime::from_nanos(r.arrival().as_nanos() / GRID * GRID)))
        .collect();
    Trace::new(reqs)
}

fn partition_load(sim: &Simulation, seed: u64) -> Trace {
    workloads::splitwise(16.0, 15.0, seed, sim.pool())
}

fn bursty(sim: &Simulation, seed: u64) -> Trace {
    workloads::splitwise_bursty(4.0, 60.0, 10.0, 10.0, 20.0, seed, sim.pool())
}

/// Per-arrival routing under a crash: timeout-detected retries and the
/// SLO shedding gate.
#[test]
fn faulted_fleet_is_frozen() {
    let reports = assert_frozen(
        "faulted-4",
        preset::chameleon_cluster_faulted(4),
        steady,
        [
            (3, 36602, 0x481b_e88b_e495_efc2, 0x401a_f576_b82e_84f6),
            (11, 35846, 0xbd74_d62e_2c3c_6a8c, 0xcc53_b935_d7d1_08ae),
        ],
    );
    for r in &reports {
        let f = &r.routing.fault;
        assert!(f.requests_shed > 0, "no request was shed");
        assert!(f.retries > 0, "no crash victim was re-dispatched");
    }
}

/// Predictive placement on two racks with a whole-rack crash: crash-time
/// shard recovery and pre-replication hits.
#[test]
fn domain_crash_is_frozen() {
    let cfg = preset::chameleon_cluster_domains(4).with_fault(
        FaultSpec::new()
            .with_domain_crash(1, SimTime::from_secs_f64(10.0))
            .with_shedding(8.0),
    );
    let reports = assert_frozen(
        "domains-4",
        cfg,
        steady_light,
        [
            (3, 34089, 0x0cd0_d7a3_12fe_70e5, 0xefa2_4449_1305_db47),
            (11, 35691, 0xd229_2027_3273_aebf, 0xcf2b_1f80_fd6f_4d69),
        ],
    );
    for r in &reports {
        assert!(
            r.routing.fault.shard_adapters_recovered > 0,
            "no shard recovered"
        );
        assert!(
            r.routing.predictive.prewarm_hits > 0,
            "no pre-replication hit"
        );
        assert!(
            r.routing.fault.retries > 0,
            "no crash victim was re-dispatched"
        );
    }
}

/// Bounded-staleness batched routing under a crash: retries share the
/// arrival batch's snapshot generation.
#[test]
fn bounded_staleness_crash_is_frozen() {
    let cfg = preset::chameleon_cluster_bounded_staleness(4)
        .with_fault(FaultSpec::new().with_crash(1, SimTime::from_secs_f64(6.0)));
    let reports = assert_frozen(
        "bounded-staleness-4",
        cfg,
        gridded,
        [
            (3, 46882, 0x6160_90e5_4043_380a, 0xc4d3_632e_d8f0_c3fe),
            (11, 46041, 0x6250_9d95_f32c_20e4, 0x217b_8cd9_a467_ee55),
        ],
    );
    for r in &reports {
        let d = &r.routing.dispatch;
        assert!(d.batches > 0 && d.max_batch > 1, "arrivals never batched");
        assert!(
            r.routing.fault.retries > 0,
            "no crash victim was re-dispatched"
        );
        assert!(
            d.retry_generation_reuses > 0,
            "retries never shared a generation"
        );
    }
}

/// State-independent batched routing.
#[test]
fn batched_rendezvous_is_frozen() {
    let reports = assert_frozen(
        "batched-4",
        preset::chameleon_cluster_batched(4),
        steady,
        [
            (3, 46617, 0x61ed_eb69_2d0f_004c, 0x8439_99ea_de7c_c890),
            (11, 45639, 0xba22_e2ad_30ee_881a, 0xb4f6_5cb9_1a79_1e0d),
        ],
    );
    for r in &reports {
        let d = &r.routing.dispatch;
        assert!(d.batches > 0 && d.max_batch > 1, "arrivals never batched");
    }
}

/// The predictive elastic fleet with delayed provisioning: scale-ups
/// join at fault barriers, scale-downs hand their shard off.
#[test]
fn elastic_provisioning_is_frozen() {
    let mut cfg = preset::chameleon_cluster_elastic_predictive();
    let auto = cfg.autoscale.as_mut().expect("elastic preset");
    auto.controller.interval = SimDuration::from_secs(1);
    auto.controller.cooldown = SimDuration::from_secs(3);
    auto.controller.scale_up_mean_queue = 4.0;
    // The forecast signal adds predicted arrivals per engine to the
    // mean queue, so the drain threshold sits higher than the reactive
    // suites' 0.5 for the fleet to shrink again after the burst.
    auto.controller.scale_down_mean_queue = 2.0;
    let cfg = cfg.with_fault(FaultSpec::new().with_provisioning(SimDuration::from_secs(2), 0.3));
    let reports = assert_frozen(
        "elastic-4",
        cfg,
        bursty,
        [
            (3, 155_296, 0x9623_8048_f757_9a57, 0x4ffe_7849_0e2b_1a81),
            (11, 163_173, 0xe1b7_c7ff_0e07_a20a, 0x943e_8f19_ffc2_dbe6),
        ],
    );
    for r in &reports {
        let (f, p) = (&r.routing.fault, &r.routing.predictive);
        assert!(f.provision_delays > 0, "no provision was delayed");
        assert!(r.routing.engines_added > 0, "the fleet never grew");
        assert!(p.handoff_adapters > 0, "no drain handed its shard off");
    }
}

/// A coordinator↔rack partition on KV-guarded engines cut to 16 GiB:
/// the dark rack's engines evacuate their running, demoted and
/// restoring work, which re-dispatches around the partition.
#[test]
fn partition_is_frozen() {
    let cfg = preset::chameleon_cluster_domains(4)
        .with_fault(FaultSpec::new().with_partition(
            1,
            SimTime::from_secs_f64(5.0),
            SimTime::from_secs_f64(9.0),
        ))
        .with_kv(KvSpec::new().with_pressure_threshold(0.5))
        .with_gpu(GpuSpec::a40().with_memory_bytes(16 << 30));
    let reports = assert_frozen(
        "partition-4",
        cfg,
        partition_load,
        [
            (3, 40077, 0x0722_c5d5_9ef3_ebbc, 0xd44d_a65e_c672_15ad),
            (11, 38478, 0x1c2e_35de_28f0_f69d, 0x02ae_ca8c_f857_c0eb),
        ],
    );
    for r in &reports {
        let f = &r.routing.fault;
        assert_eq!(f.partitions, 1, "the partition never opened");
        assert!(f.requests_recovered > 0, "the partition caught no work");
        assert!(r.kv.demotions > 0, "no running request was demoted");
    }
}
