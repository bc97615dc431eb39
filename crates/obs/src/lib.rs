//! The observability *harness*: everything that turns the simulation's
//! deterministic capture layer ([`btgs_piconet::EngineTrace`],
//! [`btgs_piconet::TelemetryReport`]) into artifacts a human can load —
//! and the only place besides `btgs-bench` where wall-clock reads are
//! allowed.
//!
//! Three exports:
//!
//! * [`perfetto_trace_json`] — renders a merged engine trace as Chrome /
//!   Perfetto trace-event JSON (`{"traceEvents": [...]}`): track 0 is
//!   the coordinator (phase slices, relay injections, widening and
//!   idle-skip instants), track *p + 1* is piconet *p* (island-claim
//!   slices, relay stagings and, with
//!   [`ObsConfig::fine_events`](btgs_piconet::ObsConfig), per-event
//!   instants). Timestamps are *sim-time* microseconds, so the exported
//!   bytes are as deterministic as the trace itself.
//!
//! * [`WallMeter`] — a [`btgs_piconet::EventMeter`] that attributes
//!   wall-clock nanoseconds to event kinds (one `Instant` pair around
//!   every island event), merged across islands into a
//!   [`KindBreakdown`].
//!
//! * [`profile_breakdown`] — the per-event cost profiler: runs a fixed
//!   scenario table with one meter per island and
//!   renders the committed `BENCH_profile_breakdown.json`, replacing
//!   the retired `island_profile` dev bin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use btgs_core::{PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs_des::SimTime;
use btgs_piconet::{
    EngineTrace, EventMeter, ObsConfig, TraceRecord, TraceRecordKind, EVENT_KIND_NAMES,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Upper bound on distinct event-kind tags a [`WallMeter`] can
/// attribute (the piconet event enum has five; headroom costs nothing).
pub const MAX_EVENT_KINDS: usize = 8;

/// Renders a merged [`EngineTrace`] as Chrome/Perfetto trace-event JSON.
///
/// `piconets` names the island tracks up front (`tid` metadata), so a
/// trace with quiet islands still shows every track. Timestamps (`ts`)
/// and durations (`dur`) are sim-time microseconds — integer division
/// of the record's nanoseconds, with spans clamped to at least 1 µs so
/// sub-microsecond slices stay visible.
pub fn perfetto_trace_json(trace: &EngineTrace, piconets: usize) -> String {
    let mut out = String::with_capacity(128 + 160 * trace.records.len());
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(s);
    };

    let mut meta = |tid: usize, name: &str, out: &mut String| {
        emit(
            &format!(
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
            out,
        );
    };
    meta(0, "coordinator", &mut out);
    for p in 0..piconets {
        meta(p + 1, &format!("island {p}"), &mut out);
    }

    for r in &trace.records {
        emit(&render_record(r), &mut out);
    }
    out.push_str("\n]}\n");
    out
}

fn render_record(r: &TraceRecord) -> String {
    let ts = r.start_ns / 1_000;
    let mut s = String::with_capacity(160);
    match r.kind {
        TraceRecordKind::Phase | TraceRecordKind::IslandRun => {
            let dur = ((r.end_ns - r.start_ns) / 1_000).max(1);
            let _ = write!(
                s,
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{ts},\"dur\":{dur},\
                 \"name\":\"{}\",\"args\":{{{}}}}}",
                r.track,
                r.kind.name(),
                record_args(r),
            );
        }
        _ => {
            let name = if r.kind == TraceRecordKind::Event {
                EVENT_KIND_NAMES
                    .get(r.arg0 as usize)
                    .copied()
                    .unwrap_or("event")
            } else {
                r.kind.name()
            };
            let _ = write!(
                s,
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{ts},\"s\":\"t\",\
                 \"name\":\"{name}\",\"args\":{{{}}}}}",
                r.track,
                record_args(r),
            );
        }
    }
    s
}

/// The `args` object body for one record, with kind-specific key names
/// (see the [`TraceRecordKind`] per-variant docs).
fn record_args(r: &TraceRecord) -> String {
    match r.kind {
        TraceRecordKind::Phase => {
            format!("\"islands_run\":{},\"relay_pool\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::IslandRun => {
            format!("\"events\":{},\"wheel_live\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::RelayStage | TraceRecordKind::RelayInject => {
            format!("\"target\":{},\"seq\":{}", r.arg0, r.arg1)
        }
        TraceRecordKind::WideningStretch => String::new(),
        TraceRecordKind::IdleSkip => format!("\"skipped\":{}", r.arg0),
        TraceRecordKind::Event => format!("\"kind\":{},\"arg\":{}", r.arg0, r.arg1),
    }
}

/// A wall-clock per-event cost meter: one [`Instant`] pair around every
/// island event, attributed to the event's kind tag. Fixed-size, so
/// metering never allocates (the zero-allocation gate brackets it).
#[derive(Debug, Default)]
pub struct WallMeter {
    begun: Option<Instant>,
    /// Events metered, by kind tag.
    pub counts: [u64; MAX_EVENT_KINDS],
    /// Wall nanoseconds attributed, by kind tag.
    pub nanos: [u64; MAX_EVENT_KINDS],
}

impl WallMeter {
    /// A fresh meter (all buckets zero).
    pub fn new() -> WallMeter {
        WallMeter::default()
    }

    /// Folds another meter's buckets into this one.
    pub fn merge(&mut self, other: &WallMeter) {
        for k in 0..MAX_EVENT_KINDS {
            self.counts[k] += other.counts[k];
            self.nanos[k] += other.nanos[k];
        }
    }

    /// Total events metered.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total nanoseconds attributed.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

impl EventMeter for WallMeter {
    fn begin(&mut self) {
        self.begun = Some(Instant::now());
    }

    fn end(&mut self, tag: u8) {
        if let Some(t0) = self.begun.take() {
            let k = (tag as usize).min(MAX_EVENT_KINDS - 1);
            self.counts[k] += 1;
            self.nanos[k] += t0.elapsed().as_nanos() as u64;
        }
    }

    fn as_any(&self) -> &dyn core::any::Any {
        self
    }
}

/// The merged per-kind attribution of one profiled scenario.
#[derive(Debug)]
pub struct KindBreakdown {
    /// The scenario's table label.
    pub label: &'static str,
    /// Events the report counted (the ns/event denominator).
    pub events: u64,
    /// Process CPU seconds consumed by the run (utime + stime).
    pub cpu_secs: f64,
    /// The merged meter (per-kind counts and wall nanoseconds).
    pub meter: WallMeter,
}

/// The profiler's scenario table: the trajectory's headline chained
/// cases (the sub-150 ns/event lever) plus one mesh.
fn profile_table() -> Vec<(&'static str, ScatternetScenarioParams)> {
    vec![
        ("chained2-20ms", ScatternetScenarioParams::chained(2)),
        ("chained16-20ms", ScatternetScenarioParams::chained(16)),
        ("mesh16", ScatternetScenarioParams::mesh(16, 2, 7)),
    ]
}

/// Runs the profiler table and collects per-kind breakdowns.
///
/// Each scenario runs once to `seconds` of sim-time with a
/// [`WallMeter`] per island; the meters are merged after the run.
///
/// # Panics
///
/// Panics if a table scenario fails to build or run — the table is
/// fixed and a failure is a bug, not an input error.
pub fn profile_breakdown(seconds: u64) -> Vec<KindBreakdown> {
    profile_table()
        .into_iter()
        .map(|(label, params)| {
            let piconets = params.piconets as usize;
            let sim = ScatternetScenario::build(params)
                .simulator(PollerKind::PfpGs)
                .expect("profiler table scenario builds");
            let meters: Vec<Box<dyn EventMeter>> = (0..piconets)
                .map(|_| Box::new(WallMeter::new()) as Box<dyn EventMeter>)
                .collect();
            let horizon = SimTime::from_secs(seconds);
            let cpu0 = btgs_bench::host::cpu_secs();
            let run = sim
                .run_observed_probed(
                    horizon,
                    horizon,
                    &mut || {},
                    ObsConfig {
                        ring_capacity: 1 << 10,
                        fine_events: false,
                    },
                    meters,
                )
                .expect("profiler table scenario runs");
            let cpu_secs = btgs_bench::host::cpu_secs() - cpu0;
            let mut merged = WallMeter::new();
            for m in &run.meters {
                let wall = m
                    .as_any()
                    .downcast_ref::<WallMeter>()
                    .expect("profiler meters are WallMeters");
                merged.merge(wall);
            }
            KindBreakdown {
                label,
                events: run.report.events_processed,
                cpu_secs,
                meter: merged,
            }
        })
        .collect()
}

/// Renders profiler results as the committed
/// `BENCH_profile_breakdown.json`: one entry per scenario with the
/// overall CPU ns/event (the trajectory lever) and the wall-clock
/// attribution per event kind. `host` tags the numbers with the machine
/// they came from ([`btgs_bench::host::host_fingerprint`]).
pub fn profile_breakdown_json(host: &str, seconds: u64, runs: &[KindBreakdown]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"btgs-profile-breakdown-v1\",\n");
    let _ = writeln!(out, "  \"host\": \"{}\",", host.replace('"', "'"));
    let _ = writeln!(out, "  \"sim_seconds\": {seconds},");
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let cpu_ns_per_event = if r.events == 0 {
            0.0
        } else {
            r.cpu_secs * 1e9 / r.events as f64
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", r.label);
        let _ = writeln!(out, "      \"events\": {},", r.events);
        let _ = writeln!(out, "      \"cpu_ms\": {:.2},", r.cpu_secs * 1e3);
        let _ = writeln!(out, "      \"cpu_ns_per_event\": {cpu_ns_per_event:.1},");
        out.push_str("      \"kinds\": [\n");
        let mut first = true;
        for (k, name) in EVENT_KIND_NAMES.iter().enumerate() {
            if r.meter.counts[k] == 0 {
                continue;
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let per = r.meter.nanos[k] as f64 / r.meter.counts[k] as f64;
            let _ = write!(
                out,
                "        {{\"name\": \"{name}\", \"events\": {}, \
                 \"wall_ns\": {}, \"wall_ns_per_event\": {per:.1}}}",
                r.meter.counts[k], r.meter.nanos[k],
            );
        }
        out.push_str("\n      ]\n");
        let _ = writeln!(out, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_piconet::EngineTrace;

    fn record(
        start_ns: u64,
        end_ns: u64,
        seq: u64,
        track: u16,
        kind: TraceRecordKind,
        arg0: u64,
        arg1: u64,
    ) -> TraceRecord {
        TraceRecord {
            start_ns,
            end_ns,
            seq,
            track,
            kind,
            arg0,
            arg1,
        }
    }

    #[test]
    fn perfetto_export_names_every_track_and_clamps_spans() {
        let trace = EngineTrace {
            records: vec![
                record(0, 500, 0, 0, TraceRecordKind::Phase, 2, 0),
                record(0, 20_000, 0, 1, TraceRecordKind::IslandRun, 7, 3),
                record(1_000, 1_000, 1, 1, TraceRecordKind::RelayStage, 1, 42),
                record(20_000, 20_000, 1, 0, TraceRecordKind::RelayInject, 1, 42),
                record(3_000, 3_000, 2, 2, TraceRecordKind::Event, 0, 5),
            ],
            dropped: 0,
        };
        let json = perfetto_trace_json(&trace, 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"name\":\"island 0\""));
        assert!(json.contains("\"name\":\"island 1\""));
        // The 500 ns phase span clamps to a 1 µs slice.
        assert!(json.contains("\"ts\":0,\"dur\":1,\"name\":\"phase\""));
        assert!(json.contains("\"ts\":0,\"dur\":20,\"name\":\"island_run\""));
        // Fine-grained events are named by their kind tag.
        assert!(json.contains("\"name\":\"arrival\""));
        assert!(json.contains("\"target\":1,\"seq\":42"));
    }

    #[test]
    fn wall_meter_attributes_to_tags_and_merges() {
        let mut a = WallMeter::new();
        a.begin();
        a.end(0);
        a.begin();
        a.end(4);
        // A stray end without a begin is ignored.
        a.end(2);
        assert_eq!(a.counts[0], 1);
        assert_eq!(a.counts[4], 1);
        assert_eq!(a.counts[2], 0);
        assert_eq!(a.total_events(), 2);

        let mut b = WallMeter::new();
        b.begin();
        b.end(0);
        b.merge(&a);
        assert_eq!(b.counts[0], 2);
        assert_eq!(b.total_events(), 3);
        assert_eq!(b.total_nanos(), b.nanos.iter().sum::<u64>());
    }

    #[test]
    fn breakdown_json_is_shaped() {
        let mut meter = WallMeter::new();
        meter.counts[0] = 10;
        meter.nanos[0] = 1_000;
        let runs = [KindBreakdown {
            label: "chained2-20ms",
            events: 100,
            cpu_secs: 0.01,
            meter,
        }];
        let json = profile_breakdown_json("host/cpu", 5, &runs);
        assert!(json.contains("\"schema\": \"btgs-profile-breakdown-v1\""));
        assert!(json.contains("\"host\": \"host/cpu\""));
        assert!(json.contains("\"name\": \"chained2-20ms\""));
        assert!(json.contains("\"cpu_ns_per_event\": 100000.0"));
        assert!(json.contains("\"name\": \"arrival\", \"events\": 10"));
    }
}
