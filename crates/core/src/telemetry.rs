//! Windowed time-series export: the run's observable state over time,
//! flattened into one tidy `(series, engine, t_ns, value)` table and
//! serialised as JSONL (hand-rolled; the workspace's `serde` is an
//! offline no-op stub).
//!
//! Two sources feed the table:
//!
//! * the per-request records and memory samples every run carries —
//!   sliding-window TTFT percentiles ([`WindowedSeries`]) and aggregate
//!   KV/adapter-cache occupancy;
//! * the deterministic trace stream, when the system opted into tracing —
//!   per-engine queue depth, running batch size, KV/cache bytes, and a
//!   binned utilisation estimate derived from the queue samples.
//!
//! Rows are emitted in a fixed series order with time ascending inside
//! each series, so the export is deterministic whenever the run is.

use crate::report::RunReport;
use chameleon_metrics::series::BinnedSeries;
use chameleon_metrics::WindowedSeries;
use chameleon_simcore::{SimDuration, SimTime};
use chameleon_trace::{Lane, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One exported sample: `engine` is `None` for fleet-aggregate series.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRow {
    /// Series name (`ttft_p99_window`, `queue_depth`, …).
    pub series: &'static str,
    /// Source engine, `None` for aggregates.
    pub engine: Option<u32>,
    /// Sample instant.
    pub at: SimTime,
    /// Sample value (bytes, counts, or seconds, per series).
    pub value: f64,
}

/// The flattened time-series table of one run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryExport {
    rows: Vec<TelemetryRow>,
}

/// Default sliding window for the TTFT percentile series.
pub fn default_window() -> SimDuration {
    SimDuration::from_secs(5)
}

/// Collects the run's time series with the [`default_window`].
pub fn collect(report: &RunReport) -> TelemetryExport {
    collect_windowed(report, default_window())
}

/// Collects the run's time series; `window` sizes both the sliding TTFT
/// percentile window (stride `window / 4`) and the utilisation bins.
pub fn collect_windowed(report: &RunReport, window: SimDuration) -> TelemetryExport {
    let mut rows = Vec::new();
    ttft_percentile_rows(report, window, &mut rows);
    availability_rows(report, window, &mut rows);
    memory_rows(report, &mut rows);
    queue_sample_rows(report, window, &mut rows);
    TelemetryExport { rows }
}

/// Per-window offered availability: the fraction of requests offered in
/// each window that the fleet admitted rather than refused (aggregate).
/// Admissions come from the request records (every record was admitted;
/// shed requests never produce one); refusals come from the fault
/// ledger's shed instants (`FaultStats::shed_times`), recorded whenever
/// the fault plane is armed — trace on or off — so fault-armed
/// brownouts dent the series at the window where shedding bit. Traced
/// runs carry the same instants as `RequestShed` events; the ledger is
/// preferred so both flavours emit identically (and neither
/// double-counts).
fn availability_rows(report: &RunReport, window: SimDuration, rows: &mut Vec<TelemetryRow>) {
    let mut offered = BinnedSeries::new();
    for rec in &report.records {
        offered.push(rec.arrival, 1.0);
    }
    for &at in &report.routing.fault.shed_times {
        offered.push(at, 0.0);
    }
    for (at, avail) in offered.mean_bins(window) {
        rows.push(TelemetryRow {
            series: "availability_window",
            engine: None,
            at,
            value: avail,
        });
    }
}

/// Sliding-window P99 TTFT over first-token instants (aggregate).
fn ttft_percentile_rows(report: &RunReport, window: SimDuration, rows: &mut Vec<TelemetryRow>) {
    let mut samples: Vec<(SimTime, f64)> = report
        .records
        .iter()
        .filter_map(|r| Some((r.first_token?, r.ttft()?.as_secs_f64())))
        .collect();
    samples.sort_by_key(|&(at, _)| at);
    let mut series = WindowedSeries::new(window);
    for (at, ttft) in samples {
        series.push(at, ttft).expect("sorted samples are monotonic");
    }
    let stride = SimDuration::from_nanos((window.as_nanos() / 4).max(1));
    for (at, p99) in series.percentile_series(stride, 99.0) {
        rows.push(TelemetryRow {
            series: "ttft_p99_window",
            engine: None,
            at,
            value: p99,
        });
    }
}

/// Aggregate KV and adapter-cache occupancy from the memory samples.
fn memory_rows(report: &RunReport, rows: &mut Vec<TelemetryRow>) {
    for sample in &report.mem_series {
        rows.push(TelemetryRow {
            series: "kv_occupancy",
            engine: None,
            at: sample.at,
            value: sample.kv as f64,
        });
    }
    for sample in &report.mem_series {
        rows.push(TelemetryRow {
            series: "cache_occupancy",
            engine: None,
            at: sample.at,
            value: sample.adapter_cache as f64,
        });
    }
}

/// Per-engine series from the trace stream's queue samples: depth,
/// running batch, KV/cache bytes, and binned utilisation (fraction of
/// samples with a non-empty running batch).
fn queue_sample_rows(report: &RunReport, window: SimDuration, rows: &mut Vec<TelemetryRow>) {
    /// One engine's queue sample: `(at, queued, running, kv, cache)`.
    type QueueSampleRow = (SimTime, u32, u32, u64, u64);
    let Some(log) = &report.trace else {
        return;
    };
    // Group samples per engine; BTreeMap pins engine order.
    let mut per_engine: BTreeMap<u32, Vec<QueueSampleRow>> = BTreeMap::new();
    for ev in log.events() {
        if let TraceEvent::QueueSample {
            queued,
            running,
            kv_bytes,
            cache_bytes,
        } = ev.event
        {
            let Lane::Engine(engine) = ev.lane else {
                continue;
            };
            per_engine.entry(engine).or_default().push((
                ev.at,
                queued,
                running,
                kv_bytes,
                cache_bytes,
            ));
        }
    }
    for (series, pick) in [
        ("queue_depth", 0usize),
        ("running", 1),
        ("kv_bytes", 2),
        ("cache_bytes", 3),
    ] {
        for (&engine, samples) in &per_engine {
            for &(at, queued, running, kv, cache) in samples {
                let value = match pick {
                    0 => f64::from(queued),
                    1 => f64::from(running),
                    2 => kv as f64,
                    _ => cache as f64,
                };
                rows.push(TelemetryRow {
                    series,
                    engine: Some(engine),
                    at,
                    value,
                });
            }
        }
    }
    for (&engine, samples) in &per_engine {
        let mut busy = BinnedSeries::new();
        for &(at, _, running, _, _) in samples {
            busy.push(at, if running > 0 { 1.0 } else { 0.0 });
        }
        for (at, util) in busy.mean_bins(window) {
            rows.push(TelemetryRow {
                series: "utilisation",
                engine: Some(engine),
                at,
                value: util,
            });
        }
    }
}

impl TelemetryExport {
    /// The flattened rows, fixed series order, time-ascending within.
    pub fn rows(&self) -> &[TelemetryRow] {
        &self.rows
    }

    /// Number of exported samples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// JSONL: one object per row; `engine` is `null` for aggregates.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 72);
        for row in &self.rows {
            let _ = write!(out, "{{\"series\":\"{}\",\"engine\":", row.series);
            match row.engine {
                Some(e) => {
                    let _ = write!(out, "{e}");
                }
                None => out.push_str("null"),
            }
            let _ = writeln!(
                out,
                ",\"t_ns\":{},\"value\":{}}}",
                row.at.as_nanos(),
                row.value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset;
    use crate::sim::Simulation;
    use crate::workloads;
    use chameleon_trace::TraceSpec;

    fn traced_report() -> RunReport {
        let cfg = preset::chameleon().with_trace(TraceSpec::new());
        let mut sim = Simulation::new(cfg, 3);
        let trace = workloads::splitwise(5.0, 15.0, 3, sim.pool());
        sim.run(&trace)
    }

    #[test]
    fn collects_all_series_kinds_from_a_traced_run() {
        let export = collect(&traced_report());
        assert!(!export.is_empty());
        let names: std::collections::BTreeSet<&str> =
            export.rows().iter().map(|r| r.series).collect();
        for expected in [
            "ttft_p99_window",
            "availability_window",
            "kv_occupancy",
            "cache_occupancy",
            "queue_depth",
            "running",
            "kv_bytes",
            "cache_bytes",
            "utilisation",
        ] {
            assert!(names.contains(expected), "missing series {expected}");
        }
    }

    #[test]
    fn untraced_runs_still_export_aggregates() {
        let mut sim = Simulation::new(preset::chameleon(), 3);
        let trace = workloads::splitwise(5.0, 15.0, 3, sim.pool());
        let export = collect(&sim.run(&trace));
        assert!(export.rows().iter().any(|r| r.series == "ttft_p99_window"));
        assert!(export.rows().iter().any(|r| r.series == "kv_occupancy"));
        assert!(
            export.rows().iter().all(|r| r.engine.is_none()),
            "per-engine series need the trace stream"
        );
    }

    #[test]
    fn jsonl_shape() {
        let export = collect(&traced_report());
        let jsonl = export.to_jsonl();
        assert_eq!(jsonl.lines().count(), export.len());
        assert!(jsonl.lines().all(|l| l.starts_with("{\"series\":\"")));
        assert!(jsonl.contains("\"engine\":null"));
        assert!(jsonl.contains("\"engine\":0"));
    }

    #[test]
    fn availability_windows_expose_fault_brownouts() {
        use crate::FaultSpec;
        let cfg = preset::chameleon_cluster(2)
            .with_fault(FaultSpec::new().with_shedding(0.25))
            .with_trace(TraceSpec::new());
        let mut sim = Simulation::new(cfg, 3);
        let trace = workloads::splitwise(60.0, 10.0, 3, sim.pool());
        let report = sim.run(&trace);
        assert!(
            report.routing.fault.requests_shed > 0,
            "load too light to trigger shedding — the brownout check needs sheds"
        );
        let avail: Vec<f64> = collect(&report)
            .rows()
            .iter()
            .filter(|r| r.series == "availability_window")
            .map(|r| r.value)
            .collect();
        assert!(!avail.is_empty());
        assert!(
            avail.iter().any(|v| *v < 1.0),
            "shed requests never dented an availability window"
        );
        assert!(avail.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn untraced_shedding_runs_emit_the_availability_series_from_the_ledger() {
        use crate::FaultSpec;
        let run = |traced: bool| {
            let mut cfg =
                preset::chameleon_cluster(2).with_fault(FaultSpec::new().with_shedding(0.25));
            if traced {
                cfg = cfg.with_trace(TraceSpec::new());
            }
            let mut sim = Simulation::new(cfg, 3);
            let trace = workloads::splitwise(60.0, 10.0, 3, sim.pool());
            sim.run(&trace)
        };
        let report = run(false);
        assert!(report.routing.fault.requests_shed > 0);
        assert_eq!(
            report.routing.fault.shed_times.len(),
            report.routing.fault.requests_shed as usize,
            "one ledger instant per shed, trace on or off"
        );
        let series = |r: &RunReport| -> Vec<(SimTime, f64)> {
            collect(r)
                .rows()
                .iter()
                .filter(|row| row.series == "availability_window")
                .map(|row| (row.at, row.value))
                .collect()
        };
        let untraced = series(&report);
        assert!(
            untraced.iter().any(|&(_, v)| v < 1.0),
            "sheds must dent the untraced series: the ledger carries the \
             refusal instants even without a trace stream"
        );
        // The ledger and the trace stream describe the same instants, so
        // both flavours emit the identical series.
        assert_eq!(untraced, series(&run(true)));
    }

    #[test]
    fn export_is_deterministic() {
        let a = collect(&traced_report()).to_jsonl();
        let b = collect(&traced_report()).to_jsonl();
        assert_eq!(a, b);
    }
}
