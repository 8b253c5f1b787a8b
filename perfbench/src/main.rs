//! The repository benchmark of the Chameleon simulator.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times `Simulation::run` with all tracing off and prints the
//! end-to-end metrics; `--trace 1` times the same trace driven from the
//! benchmark's side with spans around every layer boundary and prints
//! the per-layer metrics. Every run checks its outputs (request
//! conservation, KV accounting, traced == untraced, parallel == serial,
//! determinism across repeats). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod spans;
mod stats;
mod timed;
mod workloads;

use chameleon_core::{BarrierProfile, ClusterExecution, RunReport, Simulation, SystemConfig};
use chameleon_workload::Trace;
use spans::{Name, Profile};
use stats::{fnv64, median, nearest_rank, TailPool};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::{Workload, DEFAULT_SEED, HELD_OUT_SEED};

/// Panel builds before each pass of the untraced run; `setup_s` is the
/// slowest build of the run.
const SETUP_PER_PASS: usize = 3;

/// Panel builds of the traced run; `workload.generate_s` is their median.
const SETUP_REPS: usize = 25;

/// Seconds a workload run may overrun `--seconds` before the watchdog
/// fails it.
const WATCHDOG_GRACE_S: u64 = 110;

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// The outcome of one workload run.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    record: String,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Failed operations: the requests not completed, or every request
    /// when a check failed.
    fn failed_ops(&self) -> u64 {
        if self.failures.is_empty() {
            self.failed
        } else {
            self.attempted
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One sub-trace of the panel, set up.
struct Member {
    seed: u64,
    sim: Simulation,
    trace: Trace,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 40,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let chosen: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::from_name(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!("perfbench: unknown workload {}", args.workload);
                std::process::exit(2);
            }
        }
    };
    arm_watchdog(Duration::from_secs(
        (args.seconds + WATCHDOG_GRACE_S) * chosen.len() as u64,
    ));
    let mut outcomes = Vec::new();
    for &w in &chosen {
        print_manifest(w, &args);
        stats::reset_peak_rss();
        let run = std::panic::catch_unwind(|| {
            if args.trace {
                traced_run(w, args.seed, args.seconds)
            } else {
                untraced_run(w, args.seed, args.seconds)
            }
        });
        let outcome = run.unwrap_or_else(|_| Outcome {
            attempted: 1,
            failed: 1,
            failures: vec!["the run panicked".to_string()],
            ..Outcome::default()
        });
        println!("{}", outcome.record);
        compare_behaviour(w, args.seed, &outcome.record);
        for f in &outcome.failures {
            println!("CHECK FAILED [{}]: {f}", w.name());
        }
        outcomes.push((w, outcome));
    }
    print_table(&outcomes, args.trace);

    let correct = outcomes.iter().all(|(_, o)| o.failures.is_empty());
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed_ops()).sum();
    let mut metrics = String::new();
    for (w, o) in &outcomes {
        for m in &o.metrics {
            let key = if outcomes.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", w.name(), m.name)
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            );
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Fails the whole invocation if it overruns `limit`: a simulation that
/// wedges never returns, and the benchmark must still end.
fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        println!(
            "CHECK FAILED: the run did not finish within {} s",
            limit.as_secs()
        );
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(1);
    });
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; infinities (a request never served) become the largest float.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

fn print_manifest(w: Workload, args: &Args) {
    let cfg = w.config();
    let held_out = if args.seed == HELD_OUT_SEED {
        " (the held-out seed)"
    } else {
        ""
    };
    println!(
        "manifest workload={} nproc={} workers={} rustc=\"{}\" commit={} seed={}{held_out} \
         panel={}x{}s rps={} trace={}",
        w.name(),
        stats::nproc(),
        cfg.cluster_exec.worker_count(),
        env!("PERFBENCH_RUSTC_VERSION"),
        stats::git_commit(),
        args.seed,
        w.panel(),
        w.trace_secs(),
        w.rps(),
        u8::from(args.trace),
    );
}

/// Builds the panel: pools, cost models, traces and SLOs. Returns it with
/// its set-up and trace-generation times in seconds.
fn build_panel(w: Workload, seed: u64) -> (Vec<Member>, f64, f64) {
    let cfg = w.config();
    let t0 = Instant::now();
    let mut gen = Duration::ZERO;
    let mut panel = Vec::with_capacity(w.panel());
    for i in 0..w.panel() {
        let sub = Workload::sub_seed(seed, i);
        let sim = Simulation::new(cfg.clone(), sub);
        let tg = Instant::now();
        let trace = w.trace(sub, sim.pool());
        gen += tg.elapsed();
        std::hint::black_box(sim.slo_for(&trace));
        panel.push(Member {
            seed: sub,
            sim,
            trace,
        });
    }
    (panel, t0.elapsed().as_secs_f64(), gen.as_secs_f64())
}

/// The slowest of `xs`.
fn slowest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Runs `m` through `Simulation::run`, returning the report and its wall
/// time in seconds.
fn timed_sim(m: &mut Member) -> (RunReport, f64) {
    let t = Instant::now();
    let report = std::hint::black_box(m.sim.run(std::hint::black_box(&m.trace)));
    (report, t.elapsed().as_secs_f64())
}

/// The serial twin of a parallel fleet, for the parallel == serial check.
fn serial_twin(cfg: &SystemConfig) -> Option<SystemConfig> {
    matches!(cfg.cluster_exec, ClusterExecution::Parallel { .. })
        .then(|| cfg.clone().with_cluster_exec(ClusterExecution::Serial))
}

/// Checks that hold for every report of a member.
fn check_report(o: &mut Outcome, m: &Member, report: &RunReport) {
    let offered = m.trace.len();
    if let Err(e) = report.verify_request_conservation(offered) {
        o.failures.push(format!("sub-trace seed {}: {e}", m.seed));
    }
}

/// The untraced run: end-to-end metrics of `Simulation::run`.
fn untraced_run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let (mut panel, first_setup, _) = build_panel(w, seed);
    let mut setups = vec![first_setup];
    let mut o = Outcome::default();

    // Warm-up, untimed: the benchmark-driven run of the first sub-trace,
    // which also checks the mirror against `Simulation::run` below.
    let driven = drive::run(&panel[0].sim, panel[0].seed, &panel[0].trace, false);
    if let Some((alloc, pool)) = driven.kv_accounting {
        o.check(alloc == pool, || {
            format!("KV allocator holds {alloc} B but the pool's KV region {pool} B")
        });
    }
    let mirrored = driven.report.canonical_text();
    drop(driven);
    let twin = serial_twin(panel[0].sim.config()).map(|cfg| {
        let mut sim = Simulation::new(cfg, panel[0].seed);
        sim.run(&panel[0].trace).canonical_text()
    });

    let k = panel.len();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut digests = vec![0u64; k];
    let mut ttft: Vec<f64> = Vec::new();
    let mut tbt = TailPool::new((0.02 * k as f64).min(1.0));
    let (mut met_slo, mut offered, mut completed, mut events) = (0u64, 0u64, 0u64, 0u64);
    let mut passes = 0usize;
    'passes: loop {
        // Interleaved with the simulations, so set-up time samples the
        // same host speeds as wall time.
        for _ in 0..SETUP_PER_PASS {
            let (spare, setup, _) = build_panel(w, seed);
            setups.push(setup);
            drop(spare);
        }
        for (i, m) in panel.iter_mut().enumerate() {
            if passes > 0 && Instant::now() >= deadline {
                break 'passes;
            }
            let (report, wall) = timed_sim(m);
            walls[i].push(wall);
            check_report(&mut o, m, &report);
            let text = report.canonical_text();
            let digest = fnv64(text.as_bytes());
            if passes > 0 {
                o.check(digest == digests[i], || {
                    format!(
                        "sub-trace seed {} is not deterministic across repeats",
                        m.seed
                    )
                });
                continue;
            }
            digests[i] = digest;
            if i == 0 {
                o.check(text == mirrored, || {
                    "the benchmark-driven run differs from Simulation::run".to_string()
                });
                if let Some(twin) = &twin {
                    o.check(&text == twin, || {
                        "the parallel run differs from the serial run".to_string()
                    });
                }
            }
            let n = m.trace.len();
            offered += n as u64;
            completed += report.completed() as u64;
            events += report.events_processed;
            let slo = report.slo.as_secs_f64();
            let served: Vec<f64> = report.ttft_seconds();
            met_slo += served.iter().filter(|&&t| t <= slo).count() as u64;
            ttft.extend(&served);
            ttft.extend(std::iter::repeat_n(f64::INFINITY, n - served.len()));
            tbt.push(
                report
                    .records
                    .iter()
                    .flat_map(|r| r.tbt_gaps.iter().map(|d| d.as_nanos()))
                    .collect(),
            );
        }
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    ttft.sort_by(f64::total_cmp);
    let per_sub: Vec<f64> = walls.iter().map(|w| slowest(w)).collect();
    let wall_s = per_sub.iter().sum::<f64>() / k as f64;
    let tbt_p99 = match tbt.percentile(99.0) {
        Some(ns) => ns as f64 / 1e9,
        None => {
            o.failures
                .push("kept too few token gaps for an exact P99".to_string());
            0.0
        }
    };
    o.attempted = offered;
    o.failed = offered - completed;
    let e2e = EndToEnd {
        wall_s,
        setup_s: slowest(&setups),
        peak_rss_mib: stats::peak_rss_mib(),
        ttft_p50_s: nearest_rank(&ttft, 50.0),
        ttft_p99_s: nearest_rank(&ttft, 99.0),
        tbt_p99_s: tbt_p99,
        slo_attainment: met_slo as f64 / offered as f64,
    };
    end_to_end_metrics(&mut o, &e2e);
    let mut all = Vec::with_capacity(k * 8);
    for d in &digests {
        all.extend_from_slice(&d.to_le_bytes());
    }
    o.record = format!(
        "record workload={} seed={} digest={:016x} offered={offered} completed={completed} \
         failed={} events={events} ttft_samples={} tbt_samples={} passes={passes} \
         wall_s={wall_s:.6} events_per_s={:.0} sub_walls={}",
        w.name(),
        seed,
        fnv64(&all),
        offered - completed,
        ttft.len(),
        tbt.samples(),
        events as f64 / (wall_s * k as f64),
        walls
            .iter()
            .map(|w| w
                .iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join("/"))
            .collect::<Vec<_>>()
            .join(","),
    );
    o
}

/// The end-to-end metrics of one untraced run.
#[derive(Debug, Default)]
struct EndToEnd {
    /// Host seconds per sub-trace: the mean over the panel of each
    /// sub-trace's slowest repeat.
    wall_s: f64,
    /// Host seconds to build the panel: pools, cost models, traces, SLOs;
    /// the slowest build of the run.
    setup_s: f64,
    /// Peak resident memory of the process.
    peak_rss_mib: f64,
    /// Simulated TTFT over every offered request of the panel.
    ttft_p50_s: f64,
    /// As `ttft_p50_s`; unserved requests count as infinite.
    ttft_p99_s: f64,
    /// Simulated gap between output tokens, pooled over the panel.
    tbt_p99_s: f64,
    /// Share of offered requests whose TTFT met their sub-trace's SLO.
    slo_attainment: f64,
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end_metrics(o: &mut Outcome, e: &EndToEnd) {
    o.metric("wall_s", "s", e.wall_s);
    o.metric("setup_s", "s", e.setup_s);
    o.metric("peak_rss_mib", "MiB", e.peak_rss_mib);
    o.metric("sim_ttft_p50_s", "s", e.ttft_p50_s);
    o.metric("sim_ttft_p99_s", "s", e.ttft_p99_s);
    o.metric("sim_tbt_p99_s", "s", e.tbt_p99_s);
    o.metric("sim_slo_attainment", "ratio", e.slo_attainment);
}

/// The traced run: per-layer metrics of the first sub-trace, driven from
/// the benchmark's side, alternated with untraced runs of the same trace
/// for the tracing overhead.
fn traced_run(w: Workload, seed: u64, seconds: u64) -> Outcome {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut generate = Vec::with_capacity(SETUP_REPS);
    let mut panel = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut panel));
        let (built, _, gen) = build_panel(w, seed);
        panel = built;
        generate.push(gen);
    }
    let generate_s = median(&generate);
    panel.truncate(1);
    let m = &mut panel[0];
    let mut o = Outcome::default();

    let (oracle, _) = timed_sim(m);
    check_report(&mut o, m, &oracle);
    let oracle_text = oracle.canonical_text();
    if let Some(cfg) = serial_twin(m.sim.config()) {
        let twin = Simulation::new(cfg, m.seed).run(&m.trace).canonical_text();
        o.check(twin == oracle_text, || {
            "the parallel run differs from the serial run".to_string()
        });
    }

    let mut untraced = Vec::new();
    let mut traced: Vec<(f64, Profile, Option<BarrierProfile>)> = Vec::new();
    while traced.is_empty() || Instant::now() < deadline {
        let (report, wall) = timed_sim(m);
        o.check(report.canonical_text() == oracle_text, || {
            "an untraced repeat is not deterministic".to_string()
        });
        untraced.push(wall);

        let t = Instant::now();
        let driven = drive::run(&m.sim, m.seed, &m.trace, true);
        let wall = t.elapsed().as_secs_f64();
        check_report(&mut o, m, &driven.report);
        o.check(driven.report.canonical_text() == oracle_text, || {
            "the traced run differs from the untraced run".to_string()
        });
        if let Some((alloc, pool)) = driven.kv_accounting {
            o.check(alloc == pool, || {
                format!("KV allocator holds {alloc} B but the pool's KV region {pool} B")
            });
        }
        let profile = driven.profile.expect("traced runs carry a profile");
        traced.push((wall, profile, driven.report.barrier_profile));
    }
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_wall, profile, barriers) = &traced[traced.len() / 2];
    let overhead = traced_wall / median(&untraced);

    o.attempted = m.trace.len() as u64;
    o.failed = o.attempted - oracle.completed() as u64;
    let layers = Layers {
        report: &oracle,
        profile,
        barriers: barriers.unwrap_or_default(),
        generate_s,
        overhead,
    };
    layer_metrics(&mut o, &layers);
    let coverage = o
        .metrics
        .iter()
        .find(|x| x.name == "trace.top_level_coverage")
        .map_or(0.0, |x| x.value);
    o.record = format!(
        "record workload={} seed={seed} sub_seed={} digest={:016x} offered={} completed={} \
         events={} traced_runs={} untraced_wall_s={:.6} traced_wall_s={traced_wall:.6} \
         overhead_ratio={overhead:.4} top_level_coverage={coverage:.4}",
        w.name(),
        m.seed,
        fnv64(oracle_text.as_bytes()),
        m.trace.len(),
        oracle.completed(),
        oracle.events_processed,
        traced.len(),
        median(&untraced),
    );
    o
}

/// What the per-layer metrics are read from.
struct Layers<'a> {
    /// The untraced report (identical to the traced one).
    report: &'a RunReport,
    /// Spans of the traced run with the median wall time.
    profile: &'a Profile,
    /// That run's barrier profile (empty for single engines).
    barriers: BarrierProfile,
    /// Median trace-generation time of the panel.
    generate_s: f64,
    /// Traced wall / untraced wall.
    overhead: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(o: &mut Outcome, l: &Layers) {
    let (report, p, generate_s, overhead) = (l.report, l.profile, l.generate_s, l.overhead);
    let ns = |n: Name| p.get(n).ns as f64;
    let calls = |n: Name| p.get(n).calls as f64;
    o.metric("workload.generate_s", "s", generate_s);
    o.metric(
        "simcore.queue.ops",
        "count",
        calls(Name::QueuePush) + calls(Name::QueuePop),
    );
    o.metric(
        "simcore.queue_ns",
        "ns",
        ns(Name::QueuePush) + ns(Name::QueuePop),
    );
    for n in [
        Name::EngineArrival,
        Name::EngineStepDone,
        Name::EngineLoadDone,
        Name::EngineRefresh,
        Name::EngineMemSample,
        Name::EnginePoke,
    ] {
        o.metric(format!("{}.calls", n.label()), "count", calls(n));
        o.metric(
            format!("{}.self_ns", n.label()),
            "ns",
            p.get(n).self_ns as f64,
        );
    }
    o.metric("engine.events", "count", report.events_processed as f64);
    for n in [
        Name::SchedEnqueue,
        Name::SchedRequeueFront,
        Name::SchedFormBatch,
        Name::SchedRefresh,
        Name::SchedQueuedAdapters,
        Name::SchedOnFinish,
    ] {
        o.metric(format!("{}.calls", n.label()), "count", calls(n));
        o.metric(format!("{}.ns", n.label()), "ns", ns(n));
        o.metric(
            format!("{}.self_ns", n.label()),
            "ns",
            p.get(n).self_ns as f64,
        );
    }
    let forms = calls(Name::SchedFormBatch).max(1.0);
    o.metric(
        "sched.form_batch.admitted",
        "count",
        p.counters.admitted as f64,
    );
    o.metric(
        "sched.form_batch.useful_ratio",
        "ratio",
        p.counters.useful_form_batch as f64 / forms,
    );
    o.metric(
        "sched.queue_depth_mean",
        "count",
        p.counters.queue_depth_sum as f64 / forms,
    );
    let mut waits: Vec<f64> = report
        .records
        .iter()
        .filter_map(|r| r.queue_delay())
        .map(|d| d.as_secs_f64())
        .collect();
    waits.sort_by(f64::total_cmp);
    o.metric(
        "sched.queue_wait_p99_s",
        "s",
        if waits.is_empty() {
            0.0
        } else {
            nearest_rank(&waits, 99.0)
        },
    );
    o.metric("probe.calls", "count", calls(Name::Probe));
    o.metric("probe.ns", "ns", ns(Name::Probe));
    o.metric("predictor.predict.calls", "count", calls(Name::Predict));
    o.metric("predictor.predict.ns", "ns", ns(Name::Predict));
    let c = &report.cache_stats;
    o.metric("cache.hits", "count", c.hits as f64);
    o.metric("cache.misses", "count", c.misses as f64);
    o.metric("cache.evictions", "count", c.evictions as f64);
    o.metric("cache.hit_rate", "ratio", report.hit_rate());
    let mut loads = report.load_on_path_seconds();
    loads.sort_by(f64::total_cmp);
    o.metric(
        "cache.load_on_path_p99_s",
        "s",
        if loads.is_empty() {
            0.0
        } else {
            nearest_rank(&loads, 99.0)
        },
    );
    o.metric("gpu.pcie_bytes", "bytes", report.pcie_total_bytes as f64);
    let kv = &report.kv;
    o.metric("kv.refused", "count", kv.refused as f64);
    o.metric("kv.demotions", "count", kv.demotions as f64);
    o.metric("kv.restores", "count", kv.restores as f64);
    o.metric("kv.storms", "count", kv.storms as f64);
    o.metric("kv.pressure_peak", "ratio", kv.pressure_peak);
    o.metric("engine.squashes", "count", report.squashes as f64);
    o.metric("router.route.calls", "count", calls(Name::Route));
    o.metric("router.route.ns", "ns", ns(Name::Route));
    o.metric(
        "router.affinity_hit_rate",
        "ratio",
        report.affinity_hit_rate(),
    );
    o.metric("router.spill_rate", "ratio", report.spill_rate());
    o.metric("router.load_imbalance", "ratio", report.load_imbalance());
    let b = l.barriers;
    o.metric("cluster.epochs", "count", b.epochs as f64);
    o.metric("cluster.pool_epochs", "count", b.pool_epochs as f64);
    o.metric("cluster.mean_epoch_us", "us", b.mean_epoch_ns() / 1e3);
    o.metric(
        "cluster.barrier_wait_share",
        "ratio",
        b.barrier_wait_share(),
    );
    o.metric("cluster.dispatch_share", "ratio", b.dispatch_share());
    let r = &report.routing;
    o.metric("autoscale.engines_added", "count", r.engines_added as f64);
    o.metric(
        "autoscale.engines_drained",
        "count",
        r.engines_drained as f64,
    );
    o.metric(
        "autoscale.adapters_rehomed",
        "count",
        r.adapters_rehomed as f64,
    );
    o.metric("core.report_ns", "ns", ns(Name::Report));
    o.metric("trace.overhead_ratio", "ratio", overhead);
    o.metric(
        "trace.top_level_coverage",
        "ratio",
        p.run_covered_ns as f64 / p.run_ns.max(1) as f64,
    );
}

/// Reports whether behaviour changed against the pinned default-seed
/// records shipped with the benchmark, apart from whether speed changed.
fn compare_behaviour(w: Workload, seed: u64, record: &str) {
    let fields = |line: &str| -> Vec<(String, String)> {
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let get = |f: &[(String, String)], key: &str| {
        f.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    };
    let ours = fields(record);
    let mode = if record.contains(" traced_runs=") {
        "traced"
    } else {
        "untraced"
    };
    let theirs = include_str!("../baseline.txt")
        .lines()
        .filter(|l| l.starts_with("record "))
        .map(fields)
        .find(|f| {
            get(f, "workload").as_deref() == Some(w.name())
                && get(f, "seed") == Some(seed.to_string())
                && get(f, "traced_runs").is_some() == (mode == "traced")
        });
    let Some(theirs) = theirs else { return };
    let counters = ["digest", "offered", "completed", "events"];
    let changed: Vec<String> = counters
        .iter()
        .filter(|k| get(&ours, k) != get(&theirs, k))
        .map(|k| {
            format!(
                "{k} {} -> {}",
                get(&theirs, k).unwrap_or_default(),
                get(&ours, k).unwrap_or_default()
            )
        })
        .collect();
    if changed.is_empty() {
        println!("behaviour vs pinned: unchanged");
    } else {
        println!("behaviour vs pinned: CHANGED ({})", changed.join(", "));
    }
    let wall_key = if mode == "traced" {
        "traced_wall_s"
    } else {
        "wall_s"
    };
    if let (Some(a), Some(b)) = (get(&theirs, wall_key), get(&ours, wall_key)) {
        if let (Ok(a), Ok(b)) = (a.parse::<f64>(), b.parse::<f64>()) {
            println!(
                "speed vs pinned: {wall_key} {a:.4} -> {b:.4} s ({:+.1}%)",
                (b / a - 1.0) * 100.0
            );
        }
    }
}

fn print_table(outcomes: &[(Workload, Outcome)], traced: bool) {
    if traced {
        for (w, o) in outcomes {
            println!("layers [{}]", w.name());
            for m in &o.metrics {
                println!(
                    "  {:<34} {:>18} {}",
                    m.name,
                    format!("{:.6}", m.value),
                    m.unit
                );
            }
        }
        return;
    }
    let Some((_, first)) = outcomes.first() else {
        return;
    };
    let mut header = format!(
        "{:<16} {:>8} {:>9} {:>6}",
        "workload", "offered", "completed", "failed"
    );
    for m in &first.metrics {
        let _ = write!(header, " {:>22}", format!("{}[{}]", m.name, m.unit));
    }
    println!("{header}");
    for (w, o) in outcomes {
        let failed = o.failed_ops();
        let completed = o.attempted - o.failed;
        let mut row = format!(
            "{:<16} {:>8} {:>9} {:>6}",
            w.name(),
            o.attempted,
            completed,
            failed
        );
        for m in &o.metrics {
            let _ = write!(row, " {:>22.6}", m.value);
        }
        println!("{row}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chameleon_core::{preset, workloads as sim_workloads};

    /// `(name, unit)` of every entry of the array under `key` in
    /// `BENCHMARK.json`.
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let open = start + json[start..].find('[').expect("an array");
        let close = open + json[open..].find(']').expect("a closed array");
        let field = |entry: &str, f: &str| -> String {
            let at = entry
                .find(&format!("\"{f}\""))
                .map(|i| i + f.len() + 2)
                .unwrap_or_else(|| panic!("entry without {f}: {entry}"));
            let rest = &entry[at..];
            let q = rest.find('"').expect("a string value") + 1;
            rest[q..q + rest[q..].find('"').expect("closing quote")].to_string()
        };
        json[open + 1..close]
            .split('}')
            .filter(|e| e.contains('{'))
            .map(|e| {
                let unit = if e.contains("\"unit\"") {
                    field(e, "unit")
                } else {
                    String::new()
                };
                (field(e, "name"), unit)
            })
            .collect()
    }

    fn printed(o: &Outcome) -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    const JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_the_workloads() {
        let listed: Vec<String> = section(JSON, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn benchmark_json_matches_the_end_to_end_metrics() {
        let mut o = Outcome::default();
        end_to_end_metrics(&mut o, &EndToEnd::default());
        assert_eq!(printed(&o), section(JSON, "end_to_end"));
    }

    #[test]
    fn benchmark_json_matches_the_per_layer_metrics() {
        let mut sim = Simulation::new(preset::chameleon(), 1);
        let trace = sim_workloads::splitwise(2.0, 10.0, 1, sim.pool());
        let report = sim.run(&trace);
        let profile = drive::run(&sim, 1, &trace, true).profile.expect("traced");
        let mut o = Outcome::default();
        let layers = Layers {
            report: &report,
            profile: &profile,
            barriers: BarrierProfile::default(),
            generate_s: 0.0,
            overhead: 1.0,
        };
        layer_metrics(&mut o, &layers);
        assert_eq!(printed(&o), section(JSON, "per_layer"));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(0.1234567890123), "0.1234567890123");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
    }
}
