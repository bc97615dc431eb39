//! The repository's benchmark: three grid workloads measured end to end
//! through the public grid entry points, and per layer from outside.
//!
//! ```text
//! perfbench --workload <fig5_sweep|mesh_scatternet|admitted_chains_sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference
//! ```
//!
//! A run first times the set-up of its grid several times, then runs the
//! reference grid (seed 1) once and checks every cell's digest line
//! against `perfbench/reference/`, then measures rounds of the grid made
//! from `--seed` for `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it interleaves untraced rounds,
//! decorated rounds and rounds through the other runner, and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md`.
//!
//! The sharded workload re-runs this executable as its worker processes:
//! with no arguments and `PERFBENCH_ROLE=worker` it serves one shard on
//! stdin/stdout, like the `grid_worker` binary.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use layers::{metric, Metric};
use oracle::Verdict;
use run::{Ctx, Prepared, Round};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Runner, Workload, REFERENCE_SEED};

/// Marks the processes the sharded runner spawns from this executable.
const ROLE_VAR: &str = "PERFBENCH_ROLE";

/// Set-up is timed in at least this many blocks...
const SETUP_BLOCKS: usize = 21;
/// ...of back-to-back repetitions lasting about this long (at most
/// `MAX_BLOCK_REPS` repetitions), this many after every cycle of rounds.
/// The host's speed changes within a second, so many short blocks spread
/// over the run see it as the rounds do.
const SETUP_BLOCK_S: f64 = 0.002;
const SETUP_BLOCKS_PER_CYCLE: usize = 5;
/// Seconds of one pass of `host::speed_probe_s` at the reference host
/// speed (about its time on a 2-vCPU 2.1 GHz Intel Xeon VM). End-to-end
/// timings are scaled to that speed.
const PROBE_REFERENCE_S: f64 = 1.0e-3;
const MAX_BLOCK_REPS: usize = 100_000;
/// Measured rounds per run, at least (the run length decides the rest).
const MIN_ROUNDS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <fig5_sweep|mesh_scatternet|\
admitted_chains_sharded> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --write-reference";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Bench(Opts),
    WriteReference,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--write-reference"] {
        return Ok(Mode::WriteReference);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0 => {
            Ok(Mode::Bench(Opts {
                workload,
                seed,
                seconds: seconds as f64,
                trace,
            }))
        }
        _ => Err("--workload, --seed, --seconds (> 0) and --trace are all required".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() && std::env::var(ROLE_VAR).is_ok_and(|v| v == "worker") {
        return worker_main();
    }
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    run::install_panic_hook();
    // Inherited by the worker processes of the sharded runner. Set while
    // this process is still single-threaded.
    std::env::set_var(ROLE_VAR, "worker");
    let result = match mode {
        Mode::Bench(opts) => bench(&opts),
        Mode::WriteReference => write_reference(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker mode: one shard spec on stdin, one frame per cell on stdout.
/// Untraced it is exactly the `grid_worker` binary (`run_worker`); with
/// [`run::WORKER_TRACE_VAR`] set it runs the decorated simulation and
/// writes its spans to that directory.
fn worker_main() -> ExitCode {
    use std::io::Read as _;
    let mut spec = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut spec) {
        eprintln!("perfbench worker: cannot read shard spec: {e}");
        return ExitCode::FAILURE;
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let result = match std::env::var_os(run::WORKER_TRACE_VAR) {
        None => btgs_grid::run_worker(&spec, &mut out, &btgs_grid::fault_injection_from_env())
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Some(dir) => traced_worker(&spec, &mut out, &PathBuf::from(dir)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `run_worker` with the decorated simulation and a `frame_to_json` span.
fn traced_worker(
    spec_json: &str,
    out: &mut dyn std::io::Write,
    dir: &std::path::Path,
) -> Result<(), String> {
    use btgs_grid::wire::{frame_to_json, grid_digest, shard_spec_from_json, write_frame};
    use trace::{name, CellRecorder};
    let spec = shard_spec_from_json(spec_json).map_err(|e| e.to_string())?;
    spec.grid.validate()?;
    let digest = grid_digest(&spec.grid);
    let cells = spec.grid.cells();
    let epoch = Instant::now();
    let pid = std::process::id();
    let mut spans = Vec::new();
    let mut timings = Vec::new();
    for &index in &spec.cells {
        let cell = cells
            .get(index)
            .ok_or_else(|| format!("shard names cell {index} outside the grid"))?;
        let mut rec = CellRecorder::new(epoch, index, pid);
        let root = rec.open(name::WORKER_CELL, 0);
        let outcome = trace::simulate(cell, &mut rec, root);
        let encode = rec.open(name::FRAME_ENCODE, root);
        let payload = frame_to_json(digest, index, cell, &outcome);
        rec.timing.encode_ns += rec.close(encode);
        write_frame(out, &payload)
            .and_then(|()| out.flush())
            .map_err(|e| e.to_string())?;
        rec.timing.cell_ns += rec.close(root);
        spans.extend(rec.spans);
        timings.push((index, rec.timing));
    }
    let path = dir.join(format!("{}.trace", spec.shard_id));
    std::fs::write(&path, trace::encode_worker_trace(&spans, &timings))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The scratch directory of this run, inside the build directory that
/// holds this executable (`<target>/perfbench-run/<workload>-<pid>`).
fn scratch_dir(workload: Workload) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("executable has no build directory")?;
    Ok(target
        .join("perfbench-run")
        .join(format!("{}-{}", workload.name(), std::process::id())))
}

fn new_ctx(workload: Workload) -> Result<Ctx, String> {
    let out = scratch_dir(workload)?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(Ctx {
        nproc: host::nproc(),
        exe: std::env::current_exe().map_err(|e| format!("own path: {e}"))?,
        out,
        epoch: Instant::now(),
    })
}

/// Runs the reference grid of every workload and rewrites
/// `perfbench/reference/` (run from the repository root).
fn write_reference() -> Result<(), String> {
    for w in Workload::ALL {
        let ctx = new_ctx(w)?;
        let result = run::prepare(&ctx, w.runner(), || w.grid(REFERENCE_SEED)).and_then(|prep| {
            let round = run::run_round(&ctx, &prep, w.runner(), false);
            match &round.error {
                Some(e) => Err(format!("{}: {e}", w.name())),
                None => Ok((prep.cells.len(), oracle::evaluate(&round, prep.cells.len()))),
            }
        });
        let _ = std::fs::remove_dir_all(&ctx.out);
        let (cells, verdict) = result?;
        let path = PathBuf::from("perfbench/reference").join(format!("{}.txt", w.name()));
        std::fs::write(&path, oracle::render_reference(&verdict.line_hashes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: {} cells, digest fnv1a64 {:016x}, {} failed -> {}",
            w.name(),
            cells,
            verdict.grid_hash,
            verdict.failures(),
            path.display()
        );
    }
    Ok(())
}

/// Which rounds a run measures, cycled until `--seconds` is used up.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The workload's runner, untraced.
    Plain,
    /// The workload's runner, decorated.
    Traced,
    /// The other runner on the same grid, untraced.
    Other,
}

struct Measured {
    kind: Kind,
    round: Round,
    verdict: Verdict,
}

fn bench(o: &Opts) -> Result<(), String> {
    let w = o.workload;
    let ctx = new_ctx(w)?;
    let result = bench_in(&ctx, o);
    let _ = std::fs::remove_dir_all(&ctx.out);
    let (correct, attempted, failed, metrics) = result?;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        json.push_str(&format!(
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        ));
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

type Outcome = (bool, usize, usize, Vec<Metric>);

fn bench_in(ctx: &Ctx, o: &Opts) -> Result<Outcome, String> {
    let w = o.workload;
    let runner = w.runner();
    let other = match runner {
        Runner::InProcess => Runner::Sharded,
        Runner::Sharded => Runner::InProcess,
    };
    let host = btgs_bench::host::host_fingerprint();
    println!(
        "perfbench {} seed {} seconds {} trace {} | host {host} | nproc {} | workers {}",
        w.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        host::nproc(),
        ctx.workers(runner)
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0usize, 0usize);

    // Set-up, timed in blocks of back-to-back repetitions that each last
    // about SETUP_BLOCK_S, spread over the run (SETUP_BLOCKS_PER_CYCLE
    // after every cycle of rounds) so it sees the same host as the
    // rounds; `setup_s` is the median block mean.
    let first = run::prepare(ctx, runner, || w.grid(o.seed))?;
    let reps = ((SETUP_BLOCK_S / first.setup_s.max(1e-9)).ceil() as usize).min(MAX_BLOCK_REPS);
    drop(first);
    let mut setup_s = Vec::new();
    let mut validate_s = Vec::new();
    // One pass of the host speed probe per set-up block, so the probe
    // sees the host whenever set-up does.
    let mut probe_s = Vec::new();
    let mut setup_block =
        |setup_s: &mut Vec<f64>, validate_s: &mut Vec<f64>| -> Result<(), String> {
            probe_s.push(host::speed_probe_s());
            let (mut total, mut validate) = (0.0, 0.0);
            for _ in 0..reps {
                let p = run::prepare(ctx, runner, || w.grid(o.seed))?;
                total += p.setup_s;
                validate += p.validate_s;
            }
            setup_s.push(total / reps as f64);
            validate_s.push(validate / reps as f64);
            Ok(())
        };

    // The reference grid, checked line by line against the commit's.
    let reference = oracle::parse_reference(w.reference())?;
    let ref_prep = run::prepare(ctx, runner, || w.grid(REFERENCE_SEED))?;
    let ref_round = run::run_round(ctx, &ref_prep, runner, false);
    let mut ref_verdict = oracle::evaluate(&ref_round, ref_prep.cells.len());
    if let Some(e) = &ref_round.error {
        eprintln!("reference grid failed: {e}");
    }
    let differ = if ref_verdict.ok {
        ref_verdict.compare(&reference)
    } else {
        0
    };
    if reference.len() != ref_prep.cells.len() || differ > 0 {
        correct = false;
        eprintln!(
            "reference grid (seed {REFERENCE_SEED}): {differ} of {} digest lines differ from \
             perfbench/reference/{}.txt",
            reference.len(),
            w.name()
        );
    }
    attempted += ref_prep.cells.len();
    failed += ref_verdict.failures();
    println!(
        "reference grid seed {REFERENCE_SEED}: {} cells, digest fnv1a64 {:016x}, {} lines differ, {} failed",
        ref_prep.cells.len(),
        ref_verdict.grid_hash,
        differ,
        ref_verdict.failures()
    );
    // The simulator's error against the paper, on the fixed reference
    // grid: the same on every seed, so any change in it is a behaviour
    // change.
    let paper_gs_err_kbps = ref_verdict
        .checks
        .iter()
        .map(|c| c.gs_err_kbps)
        .fold(0.0, f64::max);
    println!("paper_gs_err_kbps on the reference grid: {paper_gs_err_kbps}");
    drop(ref_round);

    // Measured rounds.
    let schedule: &[Kind] = if o.trace {
        &[Kind::Plain, Kind::Traced, Kind::Other]
    } else {
        &[Kind::Plain]
    };
    let mut baseline: Option<Vec<u64>> = (o.seed == REFERENCE_SEED).then(|| reference.clone());
    let mut measured: Vec<Measured> = Vec::new();
    // Only the first successful untraced report is kept (for the engine
    // counters); the others are dropped once checked.
    let mut kept_report: Option<btgs_core::GridReport> = None;
    let mut replay: Option<run::Replay> = None;
    let mut last_prep: Option<Prepared> = None;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < o.seconds
        || measured.iter().filter(|m| m.kind == Kind::Plain).count() < MIN_ROUNDS
    {
        for &kind in schedule {
            let which = if kind == Kind::Other { other } else { runner };
            let prep = run::prepare(ctx, which, || w.grid(o.seed))?;
            let mut round = run::run_round(ctx, &prep, which, kind == Kind::Traced);
            if let Some(e) = &round.error {
                eprintln!("round failed: {e}");
            }
            let mut verdict = oracle::evaluate(&round, prep.cells.len());
            if verdict.ok {
                match &baseline {
                    None if kind == Kind::Plain => baseline = Some(verdict.line_hashes.clone()),
                    None => {}
                    Some(expected) => {
                        let differ = verdict.compare(expected);
                        if differ > 0 {
                            correct = false;
                            eprintln!(
                                "{differ} digest lines differ from the first round{}",
                                if o.seed == REFERENCE_SEED {
                                    " / the reference"
                                } else {
                                    ""
                                }
                            );
                        }
                    }
                }
            }
            if kind != Kind::Other {
                attempted += prep.cells.len();
                failed += verdict.failures();
            }
            if o.trace && which == Runner::Sharded && verdict.ok && replay.is_none() {
                replay = Some(run::replay_spill(ctx, &prep)?);
            }
            if kind == Kind::Plain && verdict.ok && kept_report.is_none() {
                kept_report = round.report.take();
            }
            round.report = None;
            measured.push(Measured {
                kind,
                round,
                verdict,
            });
            last_prep = Some(prep);
        }
        for _ in 0..SETUP_BLOCKS_PER_CYCLE {
            setup_block(&mut setup_s, &mut validate_s)?;
        }
    }
    while setup_s.len() < SETUP_BLOCKS {
        setup_block(&mut setup_s, &mut validate_s)?;
    }
    let prep = last_prep.ok_or("no round ran")?;
    let probe = stats::median(&probe_s);
    println!(
        "host speed probe: median {:.4} ms over {} passes (reference {:.4} ms)",
        probe * 1e3,
        probe_s.len(),
        PROBE_REFERENCE_S * 1e3
    );
    let cells = prep.cells.len();
    let of = |k: Kind| measured.iter().filter(move |m| m.kind == k);
    let first_ok = of(Kind::Plain).find(|m| m.verdict.ok);
    println!(
        "grid seed {}: {cells} cells, digest fnv1a64 {}",
        o.seed,
        first_ok.map_or("-".to_owned(), |m| format!("{:016x}", m.verdict.grid_hash))
    );
    if let Some(m) = of(Kind::Plain).next() {
        if let Some((cell, msg)) = m.round.sink_panics.first() {
            println!(
                "sink panicked on {} of {cells} cells (first: cell {cell}: {msg})",
                m.round.sink_panics.len()
            );
        }
    }

    let metrics = if o.trace {
        let plain_digest = first_ok.map(|m| m.verdict.grid_hash);
        for m in of(Kind::Traced).chain(of(Kind::Other)) {
            if m.verdict.ok && Some(m.verdict.grid_hash) != plain_digest {
                correct = false;
                eprintln!("a traced or other-runner round's digest differs from the untraced one");
            }
        }
        let traced: Vec<&Round> = of(Kind::Traced)
            .filter(|m| m.verdict.ok)
            .map(|m| &m.round)
            .collect();
        let run = layers::TracedRun {
            plain: of(Kind::Plain).map(|m| &m.round).collect(),
            traced: traced.clone(),
            other: of(Kind::Other).map(|m| &m.round).collect(),
            report: kept_report.as_ref(),
            checks: first_ok.map_or(&[][..], |m| m.verdict.checks.as_slice()),
            digest_s: of(Kind::Plain).map(|m| m.verdict.digest_s).collect(),
            validate_s: &validate_s,
            replay: replay.as_ref(),
            workers: ctx.workers(runner),
            cells: &prep.cells,
            attempted,
            failed,
        };
        let metrics = layers::per_layer(&run);
        // Span groups: every decorated round, then the spill replay.
        let groups: Vec<(&[trace::Span], &[trace::CellTiming])> = traced
            .iter()
            .map(|r| (r.spans.as_slice(), r.timings.as_slice()))
            .chain(
                replay
                    .iter()
                    .map(|r| (r.spans.as_slice(), r.timings.as_slice())),
            )
            .collect();
        report_trace(ctx, o, &host, &groups, &metrics)?;
        metrics
    } else {
        end_to_end(
            ctx,
            &prep,
            &measured,
            &setup_s,
            PROBE_REFERENCE_S / probe,
            paper_gs_err_kbps,
            (attempted, failed),
        )
    };
    for m in &metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "record {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": \"{}\", \"nproc\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}}}",
        w.name(),
        o.seed,
        u8::from(o.trace),
        host.replace('"', "'"),
        host::nproc()
    );
    Ok((correct, attempted, failed, metrics))
}

/// The end-to-end metrics. Every round runs the same grid, and the host's
/// other tenants slow some rounds and not others, so timings are pooled
/// over the run. `cells_per_s` is all cells over all round wall time less
/// the CPU time the hypervisor stole, shared over the workers (each
/// worker's lane stalls while its CPU is stolen; with one worker process
/// a stall of the parent's CPU stalls it too). Each cell's latency is its
/// fastest over the rounds, and p50 and p90 are taken over the cells: the
/// simulation of a cell is deterministic, so every slower repeat is time
/// the host took, and the fastest of some 30 to 50 repeats is the cell's
/// own time (its mean moved with how many repeats a busy host slowed).
///
/// The host's speed also drifts by a quarter within minutes, for all code
/// alike, so every timing is scaled by `speed`: the reference time of the
/// host speed probe over its median time in this run. The raw values are
/// printed first.
fn end_to_end(
    ctx: &Ctx,
    prep: &Prepared,
    measured: &[Measured],
    setup_s: &[f64],
    speed: f64,
    paper_gs_err_kbps: f64,
    (attempted, failed): (usize, usize),
) -> Vec<Metric> {
    let plain: Vec<&Round> = measured
        .iter()
        .filter(|m| m.kind == Kind::Plain)
        .map(|m| &m.round)
        .collect();
    let cells = prep.cells.len() as f64;
    let rounds = plain.len() as f64;
    let mut per_cell: Vec<Vec<f64>> = vec![Vec::new(); prep.cells.len()];
    for r in &plain {
        for (cell, ms) in layers::cell_latencies_ms(r, &prep.shard_of) {
            per_cell[cell].push(ms);
        }
    }
    let latencies: Vec<f64> = per_cell
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let samples = latencies.len();
    let workers = plain.first().map_or(1, |r| ctx.workers(r.runner));
    let wall_s: f64 = plain.iter().map(|r| r.wall_s()).sum();
    let stolen_s: f64 = plain.iter().map(|r| r.stolen_s).sum();
    let run_s = wall_s - stolen_s / workers as f64;
    println!(
        "round wall {wall_s:.3} s, {stolen_s:.2} CPU-s stolen by the hypervisor, {run_s:.3} s counted"
    );
    println!(
        "{} rounds of {cells} cells on {} workers; {samples} cells with latency samples, {} beyond p90",
        plain.len(),
        workers,
        samples / 10
    );
    println!(
        "cell_fail_ratio {:.6} ({failed} of {attempted} cells failed)",
        failed as f64 / attempted.max(1) as f64
    );
    let setup = stats::median(setup_s);
    let cells_per_s = cells * rounds / run_s.max(f64::MIN_POSITIVE);
    let (p50, p90) = (
        stats::quantile(&latencies, 0.5),
        stats::quantile(&latencies, 0.9),
    );
    // Summed over the run: `/proc` counts 10 ms ticks, too coarse for one
    // round.
    let cpu_s_per_cell = plain.iter().map(|r| r.cpu_s).sum::<f64>() / (cells * rounds);
    println!(
        "raw timings: setup_s {setup:.9} s, cells_per_s {cells_per_s:.4}, cell_ms_p50 {p50:.4} ms, \
         cell_ms_p90 {p90:.4} ms, cpu_s_per_cell {cpu_s_per_cell:.6} s; scaled by host speed {speed:.4}"
    );
    vec![
        metric("setup_s", setup * speed, "s"),
        metric("cells_per_s", cells_per_s / speed, "cells/s"),
        metric("cell_ms_p50", p50 * speed, "ms"),
        metric("cell_ms_p90", p90 * speed, "ms"),
        metric("cpu_s_per_cell", cpu_s_per_cell * speed, "s"),
        metric(
            "peak_rss_mb",
            stats::median(&plain.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
            "MiB",
        ),
        metric(
            "cell_ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("paper_gs_err_kbps", paper_gs_err_kbps, "kbit/s"),
    ]
}

/// Prints the traced run's self times and writes its spans file.
fn report_trace(
    ctx: &Ctx,
    o: &Opts,
    host: &str,
    groups: &[(&[trace::Span], &[trace::CellTiming])],
    metrics: &[Metric],
) -> Result<(), String> {
    println!(
        "self time per span over {} traced rounds and spill replays:",
        groups.len()
    );
    for (name, calls, total, own) in layers::self_times(groups) {
        println!(
            "  {name:<22} {calls:>8} spans  total {:>10.3} ms  self {:>10.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    if let Some(m) = metrics.iter().find(|m| m.name == "trace.overhead_ratio") {
        println!(
            "tracing overhead: untraced cells/s = {:.4} x traced cells/s",
            m.value
        );
    }
    let dir = ctx.out.parent().ok_or("scratch dir has no parent")?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", o.workload.name(), o.seed));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": \"{}\", \"nproc\": {}, \"rounds\": {}}}",
        o.workload.name(),
        o.seed,
        host.replace('"', "'"),
        host::nproc(),
        groups.len()
    );
    std::fs::write(&path, layers::spans_jsonl(&header, groups))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}
