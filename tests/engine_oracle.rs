//! Frozen oracle for single-engine runs.
//!
//! A lone engine is driven through its trace by the engine event loop:
//! arrivals win equal-instant ties against engine-local events, and the
//! periodic memory-sample and refresh ticks stay alive while arrivals
//! remain or the engine has work. A refactor of that loop can move every
//! paper figure at once, so this suite freezes its output: for each
//! scenario and seed, the `canonical_text` length + FNV-1a digest of an
//! untraced run and the FNV-1a digest of a traced twin's JSONL decision
//! stream.
//!
//! Every scenario asserts request conservation, and the cache and KV
//! scenarios assert that the counters they pin are non-zero, so no pin
//! passes by doing nothing. If a digest moves, single-engine behaviour
//! changed: a refactor must leave these bytes exactly where they are.

use chameleon_repro::core::{
    preset, sim::Simulation, workloads, KvSpec, RunReport, SystemConfig, TraceSpec,
};
use chameleon_repro::models::GpuSpec;
use chameleon_repro::workload::Trace;

/// FNV-1a 64-bit, as in the coordinator oracle suite.
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

fn run(cfg: &SystemConfig, seed: u64, workload: &dyn Fn(&Simulation, u64) -> Trace) -> RunReport {
    let mut sim = Simulation::new(cfg.clone(), seed);
    let trace = workload(&sim, seed);
    let report = sim.run(&trace);
    report.assert_request_conservation(trace.len());
    report
}

/// Runs `cfg` at every pinned seed, untraced and traced, and checks each
/// output against its pin. Returns the untraced reports for the
/// scenario's non-vacuity checks.
fn assert_frozen(
    scenario: &str,
    cfg: SystemConfig,
    workload: &dyn Fn(&Simulation, u64) -> Trace,
    pins: [Pin; 2],
) -> Vec<RunReport> {
    let traced = cfg.clone().with_trace(TraceSpec::new());
    let mut reports = Vec::new();
    for (seed, len, fnv, trace_fnv) in pins {
        let report = run(&cfg, seed, workload);
        let text = report.canonical_text();
        let jsonl = run(&traced, seed, workload)
            .trace
            .expect("traced run carries a log")
            .to_jsonl();
        let got = (text.len(), fnv1a(text.as_bytes()), fnv1a(jsonl.as_bytes()));
        assert_eq!(
            got,
            (len, fnv, trace_fnv),
            "{scenario} (seed {seed}): output diverged from the oracle"
        );
        reports.push(report);
    }
    reports
}

fn splitwise(rps: f64, secs: f64) -> impl Fn(&Simulation, u64) -> Trace {
    move |sim, seed| workloads::splitwise(rps, secs, seed, sim.pool())
}

/// S-LoRA: FIFO, discard cache (loads block prefill), worst-case
/// output-length predictor.
#[test]
fn slora_is_frozen() {
    assert_frozen(
        "slora",
        preset::slora(),
        &splitwise(6.0, 60.0),
        [
            (3, 57761, 0x2d21_1565_12de_aced, 0x17a8_7c54_31fa_52c1),
            (11, 58752, 0x874f_0e51_bc89_6fd0, 0xd2c2_5664_fc67_a205),
        ],
    );
}

/// S-LoRA with chunked prefill.
#[test]
fn slora_chunked_is_frozen() {
    assert_frozen(
        "slora-chunked",
        preset::slora_chunked(),
        &splitwise(6.0, 60.0),
        [
            (3, 57625, 0x5e59_4995_c3b3_7ece, 0xc99a_9677_4306_ad88),
            (11, 58702, 0x3472_c85b_6c91_e117, 0x6ff4_820a_ac4e_f3ec),
        ],
    );
}

/// A reduced `zipf600_knee`: 600 adapters near the load knee, long
/// enough that a `Refresh` tick fires mid-trace.
#[test]
fn chameleon_600_is_frozen() {
    let mut cfg = preset::chameleon();
    cfg.num_adapters = 600;
    let reports = assert_frozen(
        "chameleon-600",
        cfg,
        &splitwise(10.5, 330.0),
        [
            (3, 580_974, 0xb319_0e51_d3c1_6eec, 0x06e9_885c_a6b5_0611),
            (11, 591_960, 0xd89b_ddea_d0eb_e12b, 0x505c_1491_4203_02eb),
        ],
    );
    for r in &reports {
        assert!(r.cache_stats.evictions > 0, "the cache never evicted");
        assert!(r.horizon.as_secs_f64() > 300.0, "no mid-trace refresh");
    }
}

/// Chameleon with histogram-based predictive prefetching.
#[test]
fn chameleon_prefetch_is_frozen() {
    assert_frozen(
        "chameleon-prefetch",
        preset::chameleon_prefetch(),
        &splitwise(6.0, 60.0),
        [
            (3, 57167, 0x9cf0_1041_074f_4e91, 0xc330_07a0_b345_478f),
            (11, 58188, 0xbe5c_d6db_3166_66f9, 0x3a5a_f494_7d68_9074),
        ],
    );
}

/// The KV-guarded engine under memory pressure: admission refusals and
/// hybrid demotions.
#[test]
fn kv_guarded_is_frozen() {
    let cfg = preset::chameleon_kv_guarded()
        .with_gpu(GpuSpec::a40().with_memory_bytes(27 << 30))
        .with_kv(KvSpec::new().with_pressure_threshold(0.5));
    let reports = assert_frozen(
        "kv-guarded",
        cfg,
        &splitwise(8.0, 900.0),
        [
            (3, 1_215_191, 0xb3ab_9e09_2867_d7f2, 0xb8f2_b1f2_3c37_7d52),
            (11, 1_225_764, 0xfca6_e91d_720d_8a70, 0x0bff_0c52_e866_f5e3),
        ],
    );
    for r in &reports {
        assert!(r.kv.refused > 0, "no admission was refused");
        assert!(r.kv.demotions > 0, "no running request was demoted");
    }
}

/// 600 adapters on an A40 cut to 20 GiB with a noisy output-length
/// predictor: opportunistic bypasses and the §4.3.3 squash rule.
#[test]
fn squash_pressure_is_frozen() {
    let mut cfg = preset::chameleon()
        .with_gpu(GpuSpec::a40().with_memory_bytes(20 << 30))
        .with_predictor_accuracy(0.3);
    cfg.num_adapters = 600;
    let reports = assert_frozen(
        "squash-pressure",
        cfg,
        &splitwise(8.0, 300.0),
        [
            (3, 399_209, 0xd2e1_a90d_c0c2_4ada, 0x09e4_d935_1e52_f195),
            (11, 422_932, 0x4ef6_fa51_fd18_f1ef, 0x1f14_1bea_4ef8_b791),
        ],
    );
    for r in &reports {
        assert!(r.squashes > 0, "no bypasser was squashed");
        let bypasses: u64 = r.records.iter().map(|x| u64::from(x.bypasses)).sum();
        assert!(bypasses > 0, "no request bypassed a blocked head");
    }
}

/// The KV-guarded engine with chunked prefill: refusals and hybrid
/// demotions while prompt chunks fold into decode steps.
#[test]
fn kv_chunked_is_frozen() {
    let mut cfg = preset::chameleon_kv_guarded()
        .with_gpu(GpuSpec::a40().with_memory_bytes(22 << 30))
        .with_kv(KvSpec::new().with_pressure_threshold(0.5))
        .with_predictor_accuracy(0.3);
    cfg.chunked_prefill = true;
    let reports = assert_frozen(
        "kv-chunked",
        cfg,
        &splitwise(8.0, 300.0),
        [
            (3, 392_209, 0x83b7_d615_95fa_5059, 0xda1f_3bea_3982_c8d3),
            (11, 415_358, 0xacd3_6638_d6e2_2f30, 0xa761_7682_ed20_8f84),
        ],
    );
    for r in &reports {
        assert!(r.kv.refused > 0, "no admission was refused");
        assert!(r.kv.demotions > 0, "no running request was demoted");
    }
}

/// An empty trace: only the two initial periodic ticks run.
#[test]
fn empty_trace_is_frozen() {
    let reports = assert_frozen(
        "empty",
        preset::chameleon(),
        &|_, _| Trace::new(vec![]),
        [
            (3, 322, 0xc2d9_7095_fb8b_0326, 0x1d24_e2f0_ab8b_7756),
            (11, 322, 0xc2d9_7095_fb8b_0326, 0x1d24_e2f0_ab8b_7756),
        ],
    );
    for r in &reports {
        assert_eq!(r.events_processed, 2, "the two initial ticks");
    }
}
