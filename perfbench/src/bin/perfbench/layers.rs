//! Per-layer metrics of the traced run, and the spans file it writes.

use crate::oracle::CellCheck;
use crate::run::{Delivery, Replay, Round};
use crate::stats::{mean, median};
use crate::trace::{CellTiming, Span, SPAN_NAMES};
use crate::workload::Runner;
use btgs_core::{GridCell, GridReport};
use btgs_piconet::RunReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::thread::ThreadId;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Per-lane `(delivery time, cell)` pairs in time order: in-process lanes
/// are the runner's worker threads; sharded lanes are shards (`shard_of`
/// maps cell → shard).
fn lanes(deliveries: &[Delivery], shard_of: Option<&[usize]>) -> Vec<Vec<(u64, usize)>> {
    let mut threads: Vec<ThreadId> = Vec::new();
    let mut lanes: Vec<Vec<(u64, usize)>> = Vec::new();
    for d in deliveries {
        let lane = match shard_of {
            Some(map) => map.get(d.cell).copied().unwrap_or(0),
            None => match threads.iter().position(|t| *t == d.thread) {
                Some(i) => i,
                None => {
                    threads.push(d.thread);
                    threads.len() - 1
                }
            },
        };
        if lanes.len() <= lane {
            lanes.resize(lane + 1, Vec::new());
        }
        lanes[lane].push((d.at_ns, d.cell));
    }
    for lane in &mut lanes {
        lane.sort_unstable();
    }
    lanes
}

/// Per-cell latencies in ms as `(cell, ms)`: the gap between a cell's
/// delivery and the previous delivery on the same lane (each lane's first
/// cell has no previous delivery and is excluded).
pub fn cell_latencies_ms(round: &Round, shard_of: &[usize]) -> Vec<(usize, f64)> {
    let by_shard = (round.runner == Runner::Sharded).then_some(shard_of);
    lanes(&round.deliveries, by_shard)
        .iter()
        .flat_map(|lane| {
            lane.windows(2)
                .map(|w| (w[1].1, (w[1].0 - w[0].0) as f64 / 1e6))
        })
        .collect()
}

/// Mean over the runner's worker threads of the time between the thread's
/// last delivery and the end of the round, in ms.
fn tail_idle_ms(round: &Round) -> f64 {
    let idle: Vec<f64> = lanes(&round.deliveries, None)
        .iter()
        .filter_map(|lane| lane.last())
        .map(|&(last, _)| round.end_ns.saturating_sub(last) as f64 / 1e6)
        .collect();
    mean(&idle)
}

/// Every `RunReport` of a grid report (scatternet cells contribute one
/// per piconet).
fn run_reports(report: &GridReport) -> impl Iterator<Item = &RunReport> {
    report.cells.iter().flat_map(|c| match &c.scatternet {
        None => std::slice::from_ref(&c.report).iter(),
        Some(s) => s.report.piconets.iter(),
    })
}

/// Everything the traced run measured, by round kind.
pub struct TracedRun<'a> {
    /// The workload's own runner, untraced.
    pub plain: Vec<&'a Round>,
    /// The workload's own runner, decorated (successful rounds only).
    pub traced: Vec<&'a Round>,
    /// The other runner on the same grid, untraced.
    pub other: Vec<&'a Round>,
    /// The report of the first successful untraced round.
    pub report: Option<&'a GridReport>,
    /// That round's per-cell guarantee checks.
    pub checks: &'a [CellCheck],
    /// Seconds inside `GridReport::digest`, per untraced round.
    pub digest_s: Vec<f64>,
    /// `validate` seconds, per set-up block.
    pub validate_s: &'a [f64],
    /// The spill replay of the first sharded round.
    pub replay: Option<&'a Replay>,
    /// Closed-loop workers.
    pub workers: usize,
    /// The grid's cells.
    pub cells: &'a [GridCell],
    /// Attempted and failed cells of the workload's own runner.
    pub attempted: usize,
    /// See `attempted`.
    pub failed: usize,
}

fn cells_per_s(rounds: &[&Round], cells: usize) -> f64 {
    median(
        &rounds
            .iter()
            .map(|r| cells as f64 / r.wall_s())
            .collect::<Vec<_>>(),
    )
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Engine counters summed over the cells of one report.
#[derive(Default)]
struct Engine {
    cells_single: u64,
    cells_scat: u64,
    events_single: u64,
    events_scat: u64,
    phases: u64,
    claims: u64,
    relays: u64,
    widening: u64,
    idle: u64,
    polls_ok: u64,
    polls: u64,
}

impl Engine {
    fn of(report: &GridReport) -> Engine {
        let mut e = Engine::default();
        for c in &report.cells {
            match &c.scatternet {
                None => {
                    e.cells_single += 1;
                    e.events_single += c.report.events_processed;
                }
                Some(s) => {
                    e.cells_scat += 1;
                    e.events_scat += s.report.events_processed;
                    e.phases += s.report.phases_run;
                    e.claims += s.report.islands_claimed;
                    e.relays += s.report.relays_staged;
                    e.widening += s.report.widening_stretches;
                    e.idle += s.report.islands_skipped_idle;
                }
            }
        }
        for r in run_reports(report) {
            e.polls_ok += r.gs_polls.successful + r.be_polls.successful;
            e.polls += r.gs_polls.total() + r.be_polls.total();
        }
        e
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(t: &TracedRun<'_>) -> Vec<Metric> {
    let own_runner = t.plain.first().map_or(Runner::InProcess, |r| r.runner);
    // Decorated timings, each cell tagged scatternet or single-piconet.
    let timings: Vec<(bool, &CellTiming)> = t
        .traced
        .iter()
        .flat_map(|r| t.cells.iter().map(|c| c.piconets >= 2).zip(&r.timings))
        .collect();
    let n = timings.len().max(1) as f64;
    let sum =
        |f: &dyn Fn(&CellTiming) -> u64| timings.iter().map(|(_, x)| f(x)).sum::<u64>() as f64;
    let replay_mean = |f: &dyn Fn(&CellTiming) -> u64| {
        t.replay.map_or(0.0, |r| {
            mean(&r.timings.iter().map(|x| f(x) as f64).collect::<Vec<_>>())
        })
    };
    let e = t.report.map(Engine::of).unwrap_or_default();
    let per_cell = |v: u64, cells: u64| ratio(v as f64, cells as f64);
    // Engine self time: the run span minus the decorated poller and
    // source calls inside it, per event. Events per decorated cell equal
    // events per untraced cell: the decorated simulation is the same
    // program.
    let engine = |scatternet: bool, events: u64, cells: u64| {
        let mine: Vec<&CellTiming> = timings
            .iter()
            .filter(|(s, _)| *s == scatternet)
            .map(|(_, x)| *x)
            .collect();
        let run_ms = mean(
            &mine
                .iter()
                .map(|x| x.run_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let self_ns: f64 = mine
            .iter()
            .map(|x| x.run_ns as f64 - (x.calls.poller_ns() + x.calls.next_packet_ns) as f64)
            .sum();
        (
            run_ms,
            ratio(self_ns, mine.len() as f64 * per_cell(events, cells)),
        )
    };
    let (piconet_run_ms, piconet_self) = engine(false, e.events_single, e.cells_single);
    let (scatternet_run_ms, scatternet_self) = engine(true, e.events_scat, e.cells_scat);
    let slack_min = t.checks.iter().filter_map(|c| c.e2e_slack_min_ns).min();
    let hop_exceed: u64 = t.checks.iter().map(|c| c.hop_bound_exceed).sum();
    let efficiency: Vec<f64> = t
        .traced
        .iter()
        .map(|r| {
            let busy: u64 = r.timings.iter().map(|x| x.cell_ns).sum();
            ratio(busy as f64, t.workers as f64 * r.wall_s() * 1e9)
        })
        .collect();
    let (sharded, in_process): (Vec<&Round>, Vec<&Round>) = t
        .plain
        .iter()
        .chain(&t.other)
        .copied()
        .partition(|r| r.runner == Runner::Sharded);
    let wall = |rs: &[&Round]| median(&rs.iter().map(|r| r.wall_s()).collect::<Vec<_>>());
    let sink_us: Vec<f64> = t
        .traced
        .iter()
        .flat_map(|r| r.deliveries.iter().map(|d| d.sink_ns as f64 / 1e3))
        .collect();
    let reassemble_us = match own_runner {
        Runner::InProcess => sum(&|x| x.reassemble_ns) / n / 1e3,
        Runner::Sharded => replay_mean(&|x| x.reassemble_ns) / 1e3,
    };

    vec![
        metric("runner.parallel_efficiency", median(&efficiency), "ratio"),
        metric(
            "runner.tail_idle_ms",
            median(&t.plain.iter().map(|r| tail_idle_ms(r)).collect::<Vec<_>>()),
            "ms",
        ),
        metric("core.validate_ms", median(t.validate_s) * 1e3, "ms"),
        metric(
            "core.scenario_build_us",
            sum(&|x| x.build_ns) / n / 1e3,
            "us",
        ),
        metric("core.reassemble_us", reassemble_us, "us"),
        metric("core.simulate_ms", sum(&|x| x.simulate_ns) / n / 1e6, "ms"),
        metric(
            "pollers.decide_calls",
            sum(&|x| x.calls.decide_calls) / n,
            "calls/cell",
        ),
        metric(
            "pollers.decide_ns",
            ratio(sum(&|x| x.calls.decide_ns), sum(&|x| x.calls.decide_calls)),
            "ns/call",
        ),
        metric(
            "pollers.on_exchange_ns",
            ratio(
                sum(&|x| x.calls.exchange_ns),
                sum(&|x| x.calls.exchange_calls),
            ),
            "ns/call",
        ),
        metric(
            "pollers.poll_success_ratio",
            ratio(e.polls_ok as f64, e.polls as f64),
            "ratio",
        ),
        metric(
            "traffic.next_packet_calls",
            sum(&|x| x.calls.next_packet_calls) / n,
            "calls/cell",
        ),
        metric(
            "traffic.next_packet_ns",
            ratio(
                sum(&|x| x.calls.next_packet_ns),
                sum(&|x| x.calls.next_packet_calls),
            ),
            "ns/call",
        ),
        metric(
            "des.events_per_cell",
            per_cell(
                e.events_single + e.events_scat,
                e.cells_single + e.cells_scat,
            ),
            "events/cell",
        ),
        metric("piconet.run_ms", piconet_run_ms, "ms"),
        metric("piconet.self_ns_per_event", piconet_self, "ns/event"),
        metric("scatternet.run_ms", scatternet_run_ms, "ms"),
        metric("scatternet.self_ns_per_event", scatternet_self, "ns/event"),
        metric(
            "scatternet.phases_per_cell",
            per_cell(e.phases, e.cells_scat),
            "phases/cell",
        ),
        metric(
            "scatternet.events_per_claim",
            ratio(e.events_scat as f64, e.claims as f64),
            "events/claim",
        ),
        metric(
            "scatternet.relays_staged_per_cell",
            per_cell(e.relays, e.cells_scat),
            "relays/cell",
        ),
        metric(
            "scatternet.widening_stretches",
            per_cell(e.widening, e.cells_scat),
            "count/cell",
        ),
        metric(
            "scatternet.islands_skipped_idle",
            per_cell(e.idle, e.cells_scat),
            "count/cell",
        ),
        metric(
            "gs.e2e_slack_min_ms",
            slack_min.map_or(0.0, |ns| ns as f64 / 1e6),
            "ms",
        ),
        metric("gs.hop_bound_exceed", hop_exceed as f64, "count"),
        metric("grid.frame_bytes", replay_mean(&|x| x.frame_bytes), "bytes"),
        metric(
            "grid.frame_encode_us",
            replay_mean(&|x| x.encode_ns) / 1e3,
            "us",
        ),
        metric(
            "grid.frame_decode_us",
            replay_mean(&|x| x.decode_ns) / 1e3,
            "us",
        ),
        metric("grid.sink_accept_us", mean(&sink_us), "us"),
        metric(
            "grid.spill_bytes_per_cell",
            t.replay
                .map_or(0.0, |r| ratio(r.spill_bytes as f64, t.cells.len() as f64)),
            "bytes/cell",
        ),
        metric(
            "grid.workers_spawned",
            median(
                &sharded
                    .iter()
                    .map(|r| r.workers_spawned as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric(
            "grid.sharded_overhead_ratio",
            ratio(wall(&sharded), wall(&in_process)),
            "ratio",
        ),
        metric(
            "grid.aggregator_panics",
            median(
                &sharded
                    .iter()
                    .map(|r| r.sink_panics.len() as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("metrics.digest_ms", median(&t.digest_s) * 1e3, "ms"),
        metric(
            "trace.overhead_ratio",
            ratio(
                cells_per_s(&t.plain, t.cells.len()),
                cells_per_s(&t.traced, t.cells.len()),
            ),
            "ratio",
        ),
        metric(
            "cell_fail_ratio",
            ratio(t.failed as f64, t.attempted as f64),
            "ratio",
        ),
    ]
}

/// Self time per span name over span groups (a decorated round or a
/// replay, each with its per-cell timings): a span's duration minus the
/// part its child spans cover; the engine run spans also lose the
/// decorated calls inside them. Returns `(name, spans, total ns, self
/// ns)` for every name seen.
pub fn self_times(groups: &[(&[Span], &[CellTiming])]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64, u64)> =
        SPAN_NAMES.iter().map(|&n| (n, 0, 0, 0)).collect();
    for (spans, timings) in groups {
        // Child time per (process, cell, parent id).
        let mut child_ns: BTreeMap<(u32, usize, u32), u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry((s.pid, s.cell, s.parent)).or_default() += s.ns();
        }
        for s in *spans {
            let mut self_ns = s
                .ns()
                .saturating_sub(child_ns.get(&(s.pid, s.cell, s.id)).copied().unwrap_or(0));
            if SPAN_NAMES[s.name].ends_with(".run") {
                let calls = timings
                    .get(s.cell)
                    .map_or(0, |t| t.calls.poller_ns() + t.calls.next_packet_ns);
                self_ns = self_ns.saturating_sub(calls);
            }
            let row = &mut out[s.name];
            row.1 += 1;
            row.2 += s.ns();
            row.3 += self_ns;
        }
    }
    out.retain(|r| r.1 > 0);
    out
}

/// The spans file: a header record, then one JSON object per span.
pub fn spans_jsonl(header: &str, groups: &[(&[Span], &[CellTiming])]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{header}");
    for (round, (spans, _)) in groups.iter().enumerate() {
        for s in *spans {
            let _ = writeln!(
                out,
                "{{\"round\":{round},\"name\":\"{}\",\"cell\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"pid\":{}}}",
                SPAN_NAMES[s.name], s.cell, s.id, s.parent, s.start_ns, s.end_ns, s.pid
            );
        }
    }
    out
}
