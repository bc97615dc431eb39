//! One round = one whole grid run through a public entry point
//! (`ExperimentRunner::run_grid_streaming` or
//! `ShardedGridRunner::run_observed`), untraced or traced, plus the
//! set-up that precedes it.

use crate::trace::{self, name, CellRecorder, CellTiming, Span};
use crate::workload::Runner;
use btgs_core::{
    CellResult, CellSink, CollectSink, ExperimentRunner, GridCell, GridReport, MultiSink,
    ScenarioGrid,
};
use btgs_grid::wire::{frame_from_json, frame_to_json, grid_digest};
use btgs_grid::{GridPartitioner, JsonlSpillSink, OnlineAggregator, ShardedGridRunner};
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Environment variable naming the directory a traced sharded worker
/// writes its spans to; absent for untraced workers.
pub const WORKER_TRACE_VAR: &str = "PERFBENCH_WORKER_TRACE";

/// Cells per shard of the sharded runs (the `grid_smoke` shape).
const CELLS_PER_SHARD: usize = 4;

/// The partitioner of every sharded run.
pub fn partitioner() -> GridPartitioner {
    GridPartitioner::with_target_cells_per_shard(CELLS_PER_SHARD)
}

thread_local! {
    /// Set while a guarded call runs, so the panic hook stays quiet about
    /// panics the benchmark catches and counts.
    static GUARDED: Cell<bool> = const { Cell::new(false) };
}

/// Installs a panic hook that prints only panics no guard catches.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !GUARDED.with(Cell::get) {
            default(info);
        }
    }));
}

/// Runs `f`, turning a panic into `Err(message)` without printing it.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    let was = GUARDED.with(|g| g.replace(true));
    let out = catch_unwind(AssertUnwindSafe(f)).map_err(|p| panic_message(p.as_ref()));
    GUARDED.with(|g| g.set(was));
    out
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// What every round needs to know about its process.
pub struct Ctx {
    /// Logical CPUs of the host.
    pub nproc: usize,
    /// This executable, re-run in worker mode by the sharded runner.
    pub exe: PathBuf,
    /// Scratch directory for checkpoints, spills and worker traces.
    pub out: PathBuf,
    /// Time zero of every timestamp this process records.
    pub epoch: Instant,
}

impl Ctx {
    /// Closed-loop workers of `runner`: one thread per CPU in-process; one
    /// worker process per CPU but one when sharded, because the parent
    /// decodes, reassembles, checkpoints and sinks every frame meanwhile.
    /// More runnable work than CPUs would time the scheduler's queueing.
    pub fn workers(&self, runner: Runner) -> usize {
        match runner {
            Runner::InProcess => self.nproc,
            Runner::Sharded => self.nproc.saturating_sub(1).max(1),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        trace::ns_since(self.epoch)
    }

    fn checkpoint_dir(&self) -> PathBuf {
        self.out.join("checkpoints")
    }

    fn spill_path(&self) -> PathBuf {
        self.out.join("cells.jsonl")
    }

    fn worker_trace_dir(&self) -> PathBuf {
        self.out.join("worker-trace")
    }
}

/// A grid ready to run: everything done before its first cell.
pub struct Prepared {
    /// The grid.
    pub grid: ScenarioGrid,
    /// Its cells, in grid order.
    pub cells: Vec<GridCell>,
    /// Shard index of every cell (sharded runs only; empty otherwise).
    pub shard_of: Vec<usize>,
    /// Seconds of the whole set-up.
    pub setup_s: f64,
    /// Seconds inside `ScenarioGrid::validate`.
    pub validate_s: f64,
}

/// Set-up: grid construction, `validate` (admission `try_build` of every
/// admitted cell), `cells()`, and for sharded runs partitioning. Sharded
/// runs then get a fresh checkpoint directory, outside the timed set-up:
/// that is the benchmark's own hygiene, and file-system latency would only
/// add noise.
pub fn prepare(
    ctx: &Ctx,
    runner: Runner,
    make_grid: impl FnOnce() -> ScenarioGrid,
) -> Result<Prepared, String> {
    let t = Instant::now();
    let grid = make_grid();
    let v = Instant::now();
    grid.validate()?;
    let validate_s = v.elapsed().as_secs_f64();
    let cells = grid.cells();
    let mut shard_of = Vec::new();
    if runner == Runner::Sharded {
        shard_of = vec![0; cells.len()];
        for shard in partitioner().partition(&grid) {
            for &c in &shard.cells {
                shard_of[c] = shard.index;
            }
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    if runner == Runner::Sharded {
        let dir = ctx.checkpoint_dir();
        match std::fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("clearing {}: {e}", dir.display()))
            }
            _ => {}
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    Ok(Prepared {
        grid,
        cells,
        shard_of,
        setup_s,
        validate_s,
    })
}

/// One result reaching the workload's sink.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    /// Grid index of the cell.
    pub cell: usize,
    /// The thread that delivered it (a runner worker thread).
    pub thread: ThreadId,
    /// When it arrived, ns since the epoch.
    pub at_ns: u64,
    /// Nanoseconds inside the wrapped sink's `accept`.
    pub sink_ns: u64,
}

/// The `CellSink` decorator: timestamps every delivery and catches a
/// panic of the inner sink, counting that cell as failed instead of
/// letting it poison the runner's merge lock.
pub struct Observed<S> {
    inner: S,
    epoch: Instant,
    /// Every delivery, in arrival order.
    pub deliveries: Vec<Delivery>,
    /// Cells the inner sink panicked on, with the panic message.
    pub panics: Vec<(usize, String)>,
}

impl<S: CellSink> Observed<S> {
    /// Wraps `inner`, timing against `epoch`.
    pub fn new(inner: S, epoch: Instant) -> Observed<S> {
        Observed {
            inner,
            epoch,
            deliveries: Vec::new(),
            panics: Vec::new(),
        }
    }

    fn deliver(&mut self, index: usize, f: impl FnOnce(&mut S)) {
        let at = Instant::now();
        let inner = &mut self.inner;
        if let Err(msg) = guarded(|| f(inner)) {
            self.panics.push((index, msg));
        }
        self.deliveries.push(Delivery {
            cell: index,
            thread: std::thread::current().id(),
            at_ns: u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX),
            sink_ns: trace::ns_since(at),
        });
    }
}

impl<S: CellSink> CellSink for Observed<S> {
    fn accept(&mut self, index: usize, result: &CellResult) {
        self.deliver(index, |s| s.accept(index, result));
    }

    fn accept_owned(&mut self, index: usize, result: CellResult) {
        self.deliver(index, move |s| s.accept_owned(index, result));
    }
}

/// The outcome of one round.
pub struct Round {
    /// Which entry point ran it.
    pub runner: Runner,
    /// Start and end of the entry-point call, ns since the epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// CPU seconds (self + reaped children) spent inside the call.
    pub cpu_s: f64,
    /// CPU seconds the hypervisor stole from the host's CPUs during the
    /// call.
    pub stolen_s: f64,
    /// Peak resident set size of this process during the call, in MiB
    /// (since process start where the peak cannot be reset).
    pub peak_rss_mb: f64,
    /// The merged report; `None` when the run failed as a whole.
    pub report: Option<GridReport>,
    /// Why the run failed as a whole.
    pub error: Option<String>,
    /// Every delivery to the workload's sink.
    pub deliveries: Vec<Delivery>,
    /// Cells the workload's sink panicked on.
    pub sink_panics: Vec<(usize, String)>,
    /// Worker processes spawned (sharded rounds).
    pub workers_spawned: usize,
    /// Per-cell timings (traced rounds).
    pub timings: Vec<CellTiming>,
    /// Recorded spans (traced rounds).
    pub spans: Vec<Span>,
}

impl Round {
    /// Wall seconds of the entry-point call.
    pub fn wall_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// Runs one round of `prep` through `runner`.
pub fn run_round(ctx: &Ctx, prep: &Prepared, runner: Runner, traced: bool) -> Round {
    crate::host::reset_peak_rss();
    let mut round = match runner {
        Runner::InProcess => run_in_process(ctx, prep, traced),
        Runner::Sharded => run_sharded(ctx, prep, traced),
    };
    round.peak_rss_mb = crate::host::peak_rss_mib();
    round
}

fn run_in_process(ctx: &Ctx, prep: &Prepared, traced: bool) -> Round {
    let mut sink = Observed::new(CollectSink::new(), ctx.epoch);
    let mut recorders: Vec<CellRecorder> = Vec::new();
    let cpu = crate::host::cpu_secs_with_children();
    let stolen = crate::host::stolen_cpu_secs();
    let start_ns = ctx.now_ns();
    let result = if traced {
        // The traced twin of `run_grid_streaming`: validate, cells, then
        // each worker simulates, reassembles and delivers under one lock.
        let shared = Mutex::new(&mut sink);
        catch_unwind(AssertUnwindSafe(|| {
            prep.grid.validate()?;
            let cells = prep.grid.cells();
            let indices: Vec<usize> = (0..cells.len()).collect();
            recorders = ExperimentRunner::with_threads(ctx.workers(Runner::InProcess)).run(
                &indices,
                |&i| {
                    let mut rec = CellRecorder::new(ctx.epoch, i, 0);
                    let root = rec.open(name::CELL, 0);
                    let outcome = trace::simulate(&cells[i], &mut rec, root);
                    let re = rec.open(name::REASSEMBLE, root);
                    let result = CellResult::reassemble(cells[i], outcome);
                    rec.timing.reassemble_ns += rec.close(re);
                    let mut sink = shared.lock().expect("the sink never panics past its guard");
                    let accept = rec.open(name::SINK_ACCEPT, root);
                    sink.accept_owned(i, result);
                    rec.timing.sink_ns += rec.close(accept);
                    drop(sink);
                    rec.timing.cell_ns += rec.close(root);
                    rec
                },
            );
            Ok::<usize, String>(cells.len())
        }))
    } else {
        catch_unwind(AssertUnwindSafe(|| {
            ExperimentRunner::with_threads(ctx.workers(Runner::InProcess))
                .run_grid_streaming(&prep.grid, &mut sink)
        }))
    };
    let end_ns = ctx.now_ns();
    let cpu_s = crate::host::cpu_secs_with_children() - cpu;
    let stolen_s = crate::host::stolen_cpu_secs() - stolen;
    let Observed {
        inner,
        deliveries,
        panics,
        ..
    } = sink;
    let (report, error) = match result {
        Ok(Ok(_)) => match guarded(|| inner.into_report()) {
            Ok(r) => (Some(r), None),
            Err(e) => (None, Some(e)),
        },
        Ok(Err(e)) => (None, Some(e)),
        Err(p) => (None, Some(panic_message(p.as_ref()))),
    };
    // `ExperimentRunner::run` returns the recorders in cell order.
    let timings = recorders.iter().map(|r| r.timing).collect();
    let spans = recorders.into_iter().flat_map(|r| r.spans).collect();
    Round {
        runner: Runner::InProcess,
        start_ns,
        end_ns,
        cpu_s,
        stolen_s,
        peak_rss_mb: 0.0,
        report,
        error,
        deliveries,
        sink_panics: panics,
        workers_spawned: 0,
        timings,
        spans,
    }
}

fn run_sharded(ctx: &Ctx, prep: &Prepared, traced: bool) -> Round {
    let trace_dir = ctx.worker_trace_dir();
    let _ = std::fs::remove_dir_all(&trace_dir);
    if traced {
        if let Err(e) = std::fs::create_dir_all(&trace_dir) {
            return failed_round(ctx, Runner::Sharded, format!("{e}"));
        }
        // No other thread runs between rounds, so flipping the variable
        // the workers inherit is race-free.
        std::env::set_var(WORKER_TRACE_VAR, &trace_dir);
    } else {
        std::env::remove_var(WORKER_TRACE_VAR);
    }
    let mut aggregator = OnlineAggregator::for_grid(&prep.grid);
    let mut spill = match JsonlSpillSink::create(&ctx.spill_path(), &prep.grid) {
        Ok(s) => s,
        Err(e) => return failed_round(ctx, Runner::Sharded, format!("spill: {e}")),
    };
    let cpu = crate::host::cpu_secs_with_children();
    let stolen = crate::host::stolen_cpu_secs();
    let start_ns = ctx.now_ns();
    // The spill comes first: when the aggregator panics on a cell, the
    // cell is already archived and the guard counts it as failed.
    let mut sink = Observed::new(MultiSink::new(vec![&mut spill, &mut aggregator]), ctx.epoch);
    let outcome = ShardedGridRunner::new(
        &ctx.exe,
        &ctx.checkpoint_dir(),
        ctx.workers(Runner::Sharded),
    )
    .with_partitioner(partitioner())
    .run_observed(&prep.grid, &mut sink);
    let end_ns = ctx.now_ns();
    let cpu_s = crate::host::cpu_secs_with_children() - cpu;
    let stolen_s = crate::host::stolen_cpu_secs() - stolen;
    std::env::remove_var(WORKER_TRACE_VAR);
    let Observed {
        deliveries, panics, ..
    } = sink;
    let spill_done = spill.finish();
    let (report, mut error, workers_spawned) = match outcome {
        Ok(o) if o.replayed_cells != 0 => (
            None,
            Some(format!(
                "{} cells replayed from a checkpoint directory that should be fresh",
                o.replayed_cells
            )),
            o.workers_spawned,
        ),
        Ok(o) => (Some(o.report), None, o.workers_spawned),
        Err(e) => (None, Some(e.to_string()), 0),
    };
    if let Err(e) = spill_done {
        error.get_or_insert(format!("spill: {e}"));
    }
    let mut timings = vec![CellTiming::default(); prep.cells.len()];
    let mut spans = Vec::new();
    if traced && error.is_none() {
        if let Err(e) = collect_worker_traces(&trace_dir, &mut timings, &mut spans) {
            error = Some(e);
        }
    }
    Round {
        runner: Runner::Sharded,
        start_ns,
        end_ns,
        cpu_s,
        stolen_s,
        peak_rss_mb: 0.0,
        report,
        error,
        deliveries,
        sink_panics: panics,
        workers_spawned,
        timings,
        spans,
    }
}

fn failed_round(ctx: &Ctx, runner: Runner, error: String) -> Round {
    let now = ctx.now_ns();
    Round {
        runner,
        start_ns: now,
        end_ns: now,
        cpu_s: 0.0,
        stolen_s: 0.0,
        peak_rss_mb: 0.0,
        report: None,
        error: Some(error),
        deliveries: Vec::new(),
        sink_panics: Vec::new(),
        workers_spawned: 0,
        timings: Vec::new(),
        spans: Vec::new(),
    }
}

fn collect_worker_traces(
    dir: &Path,
    timings: &mut [CellTiming],
    spans: &mut Vec<Span>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let (s, cells) = trace::decode_worker_trace(&text)?;
        spans.extend(s);
        for (cell, t) in cells {
            timings
                .get_mut(cell)
                .ok_or_else(|| format!("worker trace names cell {cell} outside the grid"))?
                .add(&t);
        }
    }
    Ok(())
}

/// Re-reads the spill of the last sharded round and times, per frame,
/// the calls the sharded parent makes on it (`frame_from_json`,
/// `CellResult::reassemble`) and the worker's `frame_to_json`, on the
/// same bytes.
pub fn replay_spill(ctx: &Ctx, prep: &Prepared) -> Result<Replay, String> {
    let path = ctx.spill_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let digest = grid_digest(&prep.grid);
    let mut replay = Replay {
        spans: Vec::new(),
        timings: vec![CellTiming::default(); prep.cells.len()],
        spill_bytes: text.len() as u64,
    };
    for line in text.lines() {
        let start_ns = ctx.now_ns();
        let frame = frame_from_json(line).map_err(|e| e.to_string())?;
        let end_ns = ctx.now_ns();
        let mut rec = CellRecorder::new(ctx.epoch, frame.index, 0);
        rec.spans.push(Span {
            name: name::FRAME_DECODE,
            cell: frame.index,
            id: 1,
            parent: 0,
            start_ns,
            end_ns,
            pid: 0,
        });
        let encode = rec.open(name::FRAME_ENCODE, 0);
        let again = frame_to_json(digest, frame.index, &frame.cell, &frame.outcome);
        let encode_ns = rec.close(encode);
        if again != line {
            return Err(format!(
                "cell {}: frame does not re-encode to its bytes",
                frame.index
            ));
        }
        let re = rec.open(name::REASSEMBLE, 0);
        drop(CellResult::reassemble(frame.cell, frame.outcome));
        let reassemble_ns = rec.close(re);
        let slot = replay
            .timings
            .get_mut(frame.index)
            .ok_or_else(|| format!("spilled cell {} outside the grid", frame.index))?;
        slot.decode_ns += end_ns - start_ns;
        slot.encode_ns += encode_ns;
        slot.reassemble_ns += reassemble_ns;
        slot.frame_bytes += line.len() as u64;
        replay.spans.extend(rec.spans);
    }
    Ok(replay)
}

/// What [`replay_spill`] measured.
pub struct Replay {
    /// `grid.frame_decode`, `grid.frame_encode` and `core.reassemble`
    /// spans, one of each per frame.
    pub spans: Vec<Span>,
    /// Per-cell decode/encode/reassemble times and frame bytes.
    pub timings: Vec<CellTiming>,
    /// Size of the spill file.
    pub spill_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_core::{BeSourceMix, PollerKind, Topology};
    use btgs_des::{SimDuration, SimTime};

    struct PanickingSink;

    impl CellSink for PanickingSink {
        fn accept(&mut self, _: usize, _: &CellResult) {
            panic!("sink refuses this cell");
        }
    }

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid {
            pollers: vec![PollerKind::PfpGs],
            piconets: vec![1],
            seeds: vec![1, 2, 3],
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon: SimTime::from_secs(1),
            warmup: SimDuration::from_millis(100),
            include_be: false,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        }
    }

    #[test]
    fn a_panicking_sink_counts_failures_instead_of_crashing() {
        install_panic_hook();
        let mut sink = Observed::new(PanickingSink, Instant::now());
        let n = ExperimentRunner::with_threads(2)
            .run_grid_streaming(&tiny_grid(), &mut sink)
            .expect("valid grid");
        assert_eq!(n, 3);
        assert_eq!(sink.deliveries.len(), 3);
        let mut failed: Vec<usize> = sink.panics.iter().map(|(i, _)| *i).collect();
        failed.sort();
        assert_eq!(failed, vec![0, 1, 2]);
        assert!(sink
            .panics
            .iter()
            .all(|(_, m)| m == "sink refuses this cell"));
    }

    #[test]
    fn traced_simulation_matches_the_untraced_one() {
        for cell in tiny_grid().cells() {
            let mut rec = CellRecorder::new(Instant::now(), 0, 0);
            let traced = CellResult::reassemble(cell, trace::simulate(&cell, &mut rec, 0));
            let plain = GridReport {
                cells: vec![cell.run()],
            };
            assert_eq!(
                GridReport {
                    cells: vec![traced]
                }
                .digest(),
                plain.digest()
            );
            assert!(rec.timing.calls.decide_calls > 0);
            assert!(rec.timing.calls.next_packet_calls > 0);
        }
    }
}
