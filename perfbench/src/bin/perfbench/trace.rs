//! The traced run's instruments: decorators around the public `Poller`
//! and `Source` traits, in-memory spans around calls into each layer, and
//! a traced twin of `GridCell::simulate` built from the same public
//! constructors.
//!
//! Spans are recorded from outside the program, around the calls the
//! benchmark makes. The fine-grained trait calls (millions per grid) are
//! not stored one by one: each decorator counts its calls and sums their
//! durations per cell, and those sums are the child time subtracted from
//! the enclosing `piconet.run` / `scatternet.run` span to get the engine's
//! self time.

use btgs_baseband::{ChannelModel, IdealChannel};
use btgs_core::{CellOutcome, GridCell, PaperScenario, ScatternetScenario};
use btgs_des::SimTime;
use btgs_piconet::{
    ExchangeReport, MasterView, ObsConfig, PiconetSim, PollDecision, Poller, ScatternetSim,
};
use btgs_traffic::{AppPacket, FlowId, Source};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Call counts and summed durations of the decorated trait methods.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CallTimes {
    /// `Poller::decide` calls.
    pub decide_calls: u64,
    /// Nanoseconds inside `Poller::decide`.
    pub decide_ns: u64,
    /// `Poller::on_exchange` calls.
    pub exchange_calls: u64,
    /// Nanoseconds inside `Poller::on_exchange`.
    pub exchange_ns: u64,
    /// `Poller::on_downlink_arrival` calls.
    pub arrival_calls: u64,
    /// Nanoseconds inside `Poller::on_downlink_arrival`.
    pub arrival_ns: u64,
    /// `Source::next_packet` calls.
    pub next_packet_calls: u64,
    /// Nanoseconds inside `Source::next_packet`.
    pub next_packet_ns: u64,
}

impl CallTimes {
    fn fields(&self) -> [u64; 8] {
        [
            self.decide_calls,
            self.decide_ns,
            self.exchange_calls,
            self.exchange_ns,
            self.arrival_calls,
            self.arrival_ns,
            self.next_packet_calls,
            self.next_packet_ns,
        ]
    }

    fn from_fields(f: [u64; 8]) -> CallTimes {
        CallTimes {
            decide_calls: f[0],
            decide_ns: f[1],
            exchange_calls: f[2],
            exchange_ns: f[3],
            arrival_calls: f[4],
            arrival_ns: f[5],
            next_packet_calls: f[6],
            next_packet_ns: f[7],
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &CallTimes) {
        let mut f = self.fields();
        for (a, b) in f.iter_mut().zip(other.fields()) {
            *a += b;
        }
        *self = CallTimes::from_fields(f);
    }

    /// Nanoseconds inside any poller method.
    pub fn poller_ns(&self) -> u64 {
        self.decide_ns + self.exchange_ns + self.arrival_ns
    }
}

/// Times every call into a poller; folds its totals into the cell's
/// shared [`CallTimes`] when the simulator drops it.
struct TracedPoller {
    inner: Box<dyn Poller>,
    own: CallTimes,
    shared: Arc<Mutex<CallTimes>>,
}

impl Poller for TracedPoller {
    fn decide(&mut self, now: SimTime, view: &MasterView<'_>) -> PollDecision {
        let t = Instant::now();
        let d = self.inner.decide(now, view);
        self.own.decide_ns += ns_since(t);
        self.own.decide_calls += 1;
        d
    }

    fn on_exchange(&mut self, report: &ExchangeReport) {
        let t = Instant::now();
        self.inner.on_exchange(report);
        self.own.exchange_ns += ns_since(t);
        self.own.exchange_calls += 1;
    }

    fn on_downlink_arrival(&mut self, flow: FlowId, now: SimTime) {
        let t = Instant::now();
        self.inner.on_downlink_arrival(flow, now);
        self.own.arrival_ns += ns_since(t);
        self.own.arrival_calls += 1;
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedPoller {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.own);
        }
    }
}

/// Times every packet drawn from a traffic source.
struct TracedSource {
    inner: Box<dyn Source>,
    own: CallTimes,
    shared: Arc<Mutex<CallTimes>>,
}

impl Source for TracedSource {
    fn next_packet(&mut self) -> Option<AppPacket> {
        let t = Instant::now();
        let p = self.inner.next_packet();
        self.own.next_packet_ns += ns_since(t);
        self.own.next_packet_calls += 1;
        p
    }

    fn flow(&self) -> FlowId {
        self.inner.flow()
    }
}

impl Drop for TracedSource {
    fn drop(&mut self) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.add(&self.own);
        }
    }
}

/// The span names, in the order the trace files index them.
pub const SPAN_NAMES: [&str; 10] = [
    "cell",
    "core.simulate",
    "core.scenario_build",
    "piconet.run",
    "scatternet.run",
    "core.reassemble",
    "grid.sink_accept",
    "grid.frame_encode",
    "grid.frame_decode",
    "worker.cell",
];

/// One recorded span. Spans of one cell share `cell` (the request id);
/// `id` and `parent` are local to that cell (parent 0 = root).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: usize,
    /// The grid cell the span worked on.
    pub cell: usize,
    /// Id within the cell, from 1.
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// Start, ns since the recording process's epoch.
    pub start_ns: u64,
    /// End, ns since the recording process's epoch.
    pub end_ns: u64,
    /// The process that recorded it (0 = the benchmark itself, otherwise
    /// a sharded worker's pid).
    pub pid: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-cell timings gathered by the traced run (all durations in ns).
#[derive(Clone, Copy, Debug, Default)]
pub struct CellTiming {
    /// Decorated trait calls.
    pub calls: CallTimes,
    /// `core.simulate` span.
    pub simulate_ns: u64,
    /// `core.scenario_build` span.
    pub build_ns: u64,
    /// `piconet.run` or `scatternet.run` span.
    pub run_ns: u64,
    /// `core.reassemble` span.
    pub reassemble_ns: u64,
    /// `grid.sink_accept` span.
    pub sink_ns: u64,
    /// `grid.frame_encode` span.
    pub encode_ns: u64,
    /// `grid.frame_decode` span.
    pub decode_ns: u64,
    /// Wire frame payload bytes.
    pub frame_bytes: u64,
    /// The whole cell: `cell` in-process, `worker.cell` sharded.
    pub cell_ns: u64,
}

impl CellTiming {
    fn fields(&self) -> [u64; 9] {
        [
            self.simulate_ns,
            self.build_ns,
            self.run_ns,
            self.reassemble_ns,
            self.sink_ns,
            self.encode_ns,
            self.decode_ns,
            self.frame_bytes,
            self.cell_ns,
        ]
    }

    fn from_fields(f: [u64; 9], calls: CallTimes) -> CellTiming {
        CellTiming {
            calls,
            simulate_ns: f[0],
            build_ns: f[1],
            run_ns: f[2],
            reassemble_ns: f[3],
            sink_ns: f[4],
            encode_ns: f[5],
            decode_ns: f[6],
            frame_bytes: f[7],
            cell_ns: f[8],
        }
    }

    /// Adds `other` into `self` (timings of one cell taken in different
    /// processes combine this way).
    pub fn add(&mut self, other: &CellTiming) {
        let mut f = self.fields();
        for (a, b) in f.iter_mut().zip(other.fields()) {
            *a += b;
        }
        let mut calls = self.calls;
        calls.add(&other.calls);
        *self = CellTiming::from_fields(f, calls);
    }
}

/// Records the spans and timings of one cell.
pub struct CellRecorder {
    epoch: Instant,
    cell: usize,
    pid: u32,
    /// The spans recorded so far.
    pub spans: Vec<Span>,
    /// The cell's timings.
    pub timing: CellTiming,
}

impl CellRecorder {
    /// A recorder for `cell`, timing against `epoch`.
    pub fn new(epoch: Instant, cell: usize, pid: u32) -> CellRecorder {
        CellRecorder {
            epoch,
            cell,
            pid,
            spans: Vec::new(),
            timing: CellTiming::default(),
        }
    }

    /// Opens a span named `SPAN_NAMES[name]` under `parent`; returns its id.
    pub fn open(&mut self, name: usize, parent: u32) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = ns_since(self.epoch);
        self.spans.push(Span {
            name,
            cell: self.cell,
            id,
            parent,
            start_ns: now,
            end_ns: now,
            pid: self.pid,
        });
        id
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = ns_since(self.epoch);
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.ns()
    }
}

/// Span indices into [`SPAN_NAMES`].
pub mod name {
    pub const CELL: usize = 0;
    pub const SIMULATE: usize = 1;
    pub const BUILD: usize = 2;
    pub const PICONET_RUN: usize = 3;
    pub const SCATTERNET_RUN: usize = 4;
    pub const REASSEMBLE: usize = 5;
    pub const SINK_ACCEPT: usize = 6;
    pub const FRAME_ENCODE: usize = 7;
    pub const FRAME_DECODE: usize = 8;
    pub const WORKER_CELL: usize = 9;
}

/// `GridCell::simulate` with every poller and source decorated: the same
/// public constructors in the same order (`PaperScenario::run` /
/// `ScatternetScenario::simulator`), so the outcome is byte-identical to
/// the untraced call. Records `core.simulate` with its
/// `core.scenario_build` and `piconet.run`/`scatternet.run` children.
pub fn simulate(cell: &GridCell, rec: &mut CellRecorder, parent: u32) -> CellOutcome {
    let shared = Arc::new(Mutex::new(CallTimes::default()));
    let poller = |inner: Box<dyn Poller>| -> Box<dyn Poller> {
        Box::new(TracedPoller {
            inner,
            own: CallTimes::default(),
            shared: Arc::clone(&shared),
        })
    };
    let source = |inner: Box<dyn Source>| -> Box<dyn Source> {
        Box::new(TracedSource {
            inner,
            own: CallTimes::default(),
            shared: Arc::clone(&shared),
        })
    };
    let sim_span = rec.open(name::SIMULATE, parent);
    let outcome = if cell.piconets <= 1 {
        let build = rec.open(name::BUILD, sim_span);
        let scenario = PaperScenario::build(cell.params());
        rec.timing.build_ns += rec.close(build);
        let run = rec.open(name::PICONET_RUN, sim_span);
        let mut sim = PiconetSim::new(
            scenario.config.clone(),
            poller(Box::new(scenario.poller(cell.poller))),
            Box::new(IdealChannel),
        )
        .expect("paper scenario must simulate");
        for src in scenario.sources() {
            sim.add_source(source(src))
                .expect("paper scenario must simulate");
        }
        let report = sim.run(cell.horizon).expect("paper scenario must simulate");
        rec.timing.run_ns += rec.close(run);
        CellOutcome::Piconet(report)
    } else {
        let build = rec.open(name::BUILD, sim_span);
        let scenario = ScatternetScenario::build(cell.scatternet_params());
        rec.timing.build_ns += rec.close(build);
        let run = rec.open(name::SCATTERNET_RUN, sim_span);
        let channels: Vec<Box<dyn ChannelModel>> = scenario
            .config
            .piconets
            .iter()
            .map(|_| Box::new(IdealChannel) as Box<dyn ChannelModel>)
            .collect();
        let pollers = scenario
            .pollers(cell.poller)
            .into_iter()
            .map(poller)
            .collect();
        let mut sim = ScatternetSim::new(scenario.config.clone(), pollers, channels)
            .expect("scatternet scenario must simulate");
        for src in scenario.sources() {
            sim.add_source(source(src))
                .expect("scatternet scenario must simulate");
        }
        let outcome = if cell.telemetry {
            let run = sim
                .run_observed(cell.horizon, ObsConfig::default())
                .expect("scatternet scenario must simulate");
            CellOutcome::Scatternet(run.report, Some(Box::new(run.telemetry)))
        } else {
            let report = sim
                .run(cell.horizon)
                .expect("scatternet scenario must simulate");
            CellOutcome::Scatternet(report, None)
        };
        rec.timing.run_ns += rec.close(run);
        outcome
    };
    rec.timing.simulate_ns += rec.close(sim_span);
    // The simulator has dropped every decorator by now, so their totals
    // are all in.
    rec.timing
        .calls
        .add(&shared.lock().expect("decorators never panic"));
    outcome
}

/// Serialises a worker's spans and per-cell timings (one record per line).
pub fn encode_worker_trace(spans: &[Span], cells: &[(usize, CellTiming)]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "span {} {} {} {} {} {} {}",
            s.name, s.cell, s.id, s.parent, s.start_ns, s.end_ns, s.pid
        );
    }
    for (cell, t) in cells {
        let _ = write!(out, "cell {cell}");
        for v in t.fields().iter().chain(t.calls.fields().iter()) {
            let _ = write!(out, " {v}");
        }
        out.push('\n');
    }
    out
}

/// A worker's spans and per-cell timings.
pub type WorkerTrace = (Vec<Span>, Vec<(usize, CellTiming)>);

/// Parses [`encode_worker_trace`] output.
pub fn decode_worker_trace(src: &str) -> Result<WorkerTrace, String> {
    let mut spans = Vec::new();
    let mut cells = Vec::new();
    for line in src.lines() {
        let mut parts = line.split(' ');
        let kind = parts.next().unwrap_or("");
        let nums: Vec<u64> = parts
            .map(|p| {
                p.parse::<u64>()
                    .map_err(|e| format!("bad trace line `{line}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        match (kind, nums.as_slice()) {
            ("span", &[name, cell, id, parent, start_ns, end_ns, pid])
                if (name as usize) < SPAN_NAMES.len() =>
            {
                spans.push(Span {
                    name: name as usize,
                    cell: cell as usize,
                    id: id as u32,
                    parent: parent as u32,
                    start_ns,
                    end_ns,
                    pid: pid as u32,
                });
            }
            ("cell", [cell, rest @ ..]) if rest.len() == 17 => {
                let mut timing = [0u64; 9];
                timing.copy_from_slice(&rest[..9]);
                let mut calls = [0u64; 8];
                calls.copy_from_slice(&rest[9..]);
                cells.push((
                    *cell as usize,
                    CellTiming::from_fields(timing, CallTimes::from_fields(calls)),
                ));
            }
            _ => return Err(format!("bad trace line `{line}`")),
        }
    }
    Ok((spans, cells))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_trace_round_trips() {
        let spans = vec![Span {
            name: name::FRAME_ENCODE,
            cell: 7,
            id: 3,
            parent: 1,
            start_ns: 10,
            end_ns: 25,
            pid: 42,
        }];
        let mut t = CellTiming {
            simulate_ns: 1,
            build_ns: 2,
            run_ns: 3,
            encode_ns: 6,
            frame_bytes: 8,
            cell_ns: 9,
            ..CellTiming::default()
        };
        t.calls.decide_calls = 11;
        t.calls.next_packet_ns = 18;
        let text = encode_worker_trace(&spans, &[(7, t)]);
        let (s, c) = decode_worker_trace(&text).expect("parses");
        assert_eq!(s.len(), 1);
        assert_eq!(
            (s[0].name, s[0].cell, s[0].ns(), s[0].pid),
            (name::FRAME_ENCODE, 7, 15, 42)
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, 7);
        assert_eq!(c[0].1.calls, t.calls);
        assert_eq!(c[0].1.fields(), t.fields());
        assert!(decode_worker_trace("span 1 2").is_err());
    }
}
