//! Streaming sinks: bounded-memory online aggregation and JSONL spill.
//!
//! Both implement [`CellSink`] and are completion-order invariant, so
//! they sit equally behind the in-process
//! [`ExperimentRunner`](btgs_core::ExperimentRunner) and the
//! multi-process [`ShardedGridRunner`](crate::ShardedGridRunner).

use crate::wire::{frame_to_json, grid_digest};
use btgs_core::{CellResult, CellSink, PollerKind, ScenarioGrid};
use btgs_metrics::{fmt_f64, DelaySummary, Histogram, Table};
use btgs_piconet::TelemetryReport;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Upper edge of the aggregator's GS delay histogram, in milliseconds.
const DELAY_HIST_MS: f64 = 100.0;
/// Bin count of the aggregator's GS delay histogram.
const DELAY_HIST_BINS: usize = 50;

/// Per-poller accumulators. Everything is an exact integer (or a
/// fixed-size histogram), so accumulation is associative + commutative:
/// any completion order, and any shard-wise [`OnlineAggregator::merge`]
/// tree, produces identical state.
#[derive(Clone, Debug)]
struct SeriesAccum {
    cells: u64,
    gs_bytes: u128,
    be_bytes: u128,
    window_ns: u128,
    gs_delay: DelaySummary,
    violations: u64,
    delay_hist: Histogram,
}

impl SeriesAccum {
    fn new() -> SeriesAccum {
        SeriesAccum {
            cells: 0,
            gs_bytes: 0,
            be_bytes: 0,
            window_ns: 0,
            gs_delay: DelaySummary::new(),
            violations: 0,
            delay_hist: Histogram::new(0.0, DELAY_HIST_MS, DELAY_HIST_BINS)
                .expect("constant histogram shape is valid"),
        }
    }
}

/// An online, bounded-memory grid aggregator.
///
/// Accumulates one summary series per poller — counts, exact byte and
/// delay-sum integers, a [`DelaySummary`] and a fixed-bin delay
/// [`Histogram`] — and **nothing per cell**: after each poller has been
/// seen once, [`CellSink::accept`] allocates zero bytes, so peak memory
/// is `O(pollers)` whether the grid has 16 cells or 16 million (enforced
/// by the `alloc_counter` test in `btgs-bench`).
#[derive(Clone, Debug, Default)]
pub struct OnlineAggregator {
    series: Vec<(PollerKind, SeriesAccum)>,
    cells: u64,
    telemetry: TelemetryReport,
}

impl OnlineAggregator {
    /// Creates an empty aggregator.
    pub fn new() -> OnlineAggregator {
        OnlineAggregator::default()
    }

    /// Pre-registers the pollers of a grid so that not even the
    /// first-sight series insertions allocate during streaming.
    pub fn for_grid(grid: &ScenarioGrid) -> OnlineAggregator {
        let mut agg = OnlineAggregator::new();
        for &kind in &grid.pollers {
            agg.series_mut(kind);
        }
        agg
    }

    /// Total cells aggregated.
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// The engine telemetry pooled over every observed cell (all zeros
    /// when the grid ran without [`ScenarioGrid::telemetry`]). Like the
    /// per-cell reports it is **excluded** from [`OnlineAggregator::digest`]
    /// and the summary table: it describes the engine, not the simulated
    /// system.
    pub fn telemetry(&self) -> &TelemetryReport {
        &self.telemetry
    }

    fn series_mut(&mut self, kind: PollerKind) -> &mut SeriesAccum {
        if let Some(pos) = self.series.iter().position(|(k, _)| *k == kind) {
            return &mut self.series[pos].1;
        }
        self.series.push((kind, SeriesAccum::new()));
        &mut self.series.last_mut().expect("just pushed").1
    }

    /// Merges another aggregator (e.g. a per-shard partial) into this
    /// one. Exact and commutative.
    pub fn merge(&mut self, other: &OnlineAggregator) {
        for (kind, accum) in &other.series {
            let mine = self.series_mut(*kind);
            mine.cells += accum.cells;
            mine.gs_bytes += accum.gs_bytes;
            mine.be_bytes += accum.be_bytes;
            mine.window_ns += accum.window_ns;
            mine.gs_delay.merge(&accum.gs_delay);
            mine.violations += accum.violations;
            mine.delay_hist
                .merge(&accum.delay_hist)
                .expect("aggregator histograms share one shape");
        }
        self.cells += other.cells;
        self.telemetry.merge(&other.telemetry);
    }

    /// A per-poller summary table (rows sorted by poller label, so the
    /// rendering is independent of first-sighting order).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(vec![
            "poller",
            "cells",
            "GS [kbps]",
            "BE [kbps]",
            "GS delay mean",
            "GS delay max",
            "bound violations",
        ]);
        for (kind, a) in self.sorted_series() {
            // Mean per-cell throughput from the exact byte and window-ns
            // totals: kbps = bytes·8 / total_window_s / 1000, and the
            // per-cell mean folds the cell count away because the window
            // total already sums one window per cell.
            let kbps = |bytes: u128| {
                if a.window_ns == 0 {
                    0.0
                } else {
                    bytes as f64 * 8e6 / a.window_ns as f64
                }
            };
            t.row(vec![
                kind.label(),
                a.cells.to_string(),
                fmt_f64(kbps(a.gs_bytes), 1),
                fmt_f64(kbps(a.be_bytes), 1),
                a.gs_delay
                    .mean()
                    .map_or_else(|| "-".into(), |d| d.to_string()),
                a.gs_delay
                    .max()
                    .map_or_else(|| "-".into(), |d| d.to_string()),
                a.violations.to_string(),
            ]);
        }
        t
    }

    /// The pooled GS delay histogram of one poller (milliseconds,
    /// 0–100 ms, 50 bins), if that poller was seen.
    pub fn delay_histogram(&self, kind: PollerKind) -> Option<&Histogram> {
        self.series
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, a)| &a.delay_hist)
    }

    /// A stable, completion-order-invariant digest of the aggregate
    /// state: integers only, series sorted by label. Two aggregations of
    /// the same cells — whatever the delivery order or merge tree — must
    /// render identically.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for (kind, a) in self.sorted_series() {
            let _ = write!(
                out,
                "{}|cells={}|gsB={}|beB={}|winNs={}|delay={},{},{},{}|viol={}|hist=",
                kind.label(),
                a.cells,
                a.gs_bytes,
                a.be_bytes,
                a.window_ns,
                a.gs_delay.count(),
                a.gs_delay.sum_nanos(),
                a.gs_delay.min().map_or(0, |d| d.as_nanos()),
                a.gs_delay.max().map_or(0, |d| d.as_nanos()),
                a.violations,
            );
            let _ = write!(out, "u{}", a.delay_hist.underflow());
            for &bin in a.delay_hist.bin_counts() {
                let _ = write!(out, ",{bin}");
            }
            let _ = writeln!(out, ",o{}", a.delay_hist.overflow());
        }
        out
    }

    fn sorted_series(&self) -> Vec<&(PollerKind, SeriesAccum)> {
        let mut refs: Vec<_> = self.series.iter().collect();
        refs.sort_by_key(|(k, _)| k.label());
        refs
    }
}

impl CellSink for OnlineAggregator {
    fn accept(&mut self, _index: usize, result: &CellResult) {
        // `gs_violations` runs before borrowing the series so its lazy
        // sample sort (in place, allocation-free) cannot alias.
        let violations = result.gs_violations() as u64;
        let window_ns = u128::from(result.report.window().as_nanos());
        let accum = self.series_mut(result.cell.poller);
        accum.cells += 1;
        accum.window_ns += window_ns;
        accum.violations += violations;
        for f in &result.report.flows {
            let r = result.report.flow(f.id);
            if f.channel.is_gs() {
                accum.gs_bytes += u128::from(r.delivered_bytes);
                accum.gs_delay.observe(&r.delay);
                let hist = &mut accum.delay_hist;
                r.delay.for_each_nanos(|ns| hist.record(ns as f64 / 1e6));
            } else {
                accum.be_bytes += u128::from(r.delivered_bytes);
            }
        }
        if let Some(t) = result
            .scatternet
            .as_ref()
            .and_then(|s| s.telemetry.as_ref())
        {
            // `TelemetryReport` is `Copy` and fixed-size: folding a
            // shard's telemetry allocates nothing per cell.
            self.telemetry.merge(t);
        }
        self.cells += 1;
    }
}

/// A full-fidelity JSONL archive sink: one wire-format frame per cell,
/// one line per frame, in completion order (consumers key on the frame's
/// `index` field, not the line order).
///
/// I/O errors inside the `CellSink` callback are deferred and surfaced by
/// [`JsonlSpillSink::finish`].
pub struct JsonlSpillSink {
    out: BufWriter<File>,
    path: PathBuf,
    grid_digest: u64,
    lines: u64,
    deferred_error: Option<io::Error>,
}

impl JsonlSpillSink {
    /// Creates the spill file (truncating an existing one).
    ///
    /// # Errors
    ///
    /// Propagates file creation errors.
    pub fn create(path: &Path, grid: &ScenarioGrid) -> io::Result<JsonlSpillSink> {
        Ok(JsonlSpillSink {
            out: BufWriter::new(File::create(path)?),
            path: path.to_owned(),
            grid_digest: grid_digest(grid),
            lines: 0,
            deferred_error: None,
        })
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and closes the archive, surfacing any I/O error deferred
    /// from the streaming callbacks; returns the path and line count.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, or the flush error.
    pub fn finish(mut self) -> io::Result<(PathBuf, u64)> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok((self.path, self.lines))
    }
}

impl CellSink for JsonlSpillSink {
    fn accept(&mut self, index: usize, result: &CellResult) {
        if self.deferred_error.is_some() {
            return;
        }
        let line = frame_to_json(self.grid_digest, index, &result.cell, &result.outcome());
        if let Err(e) = writeln!(self.out, "{line}") {
            self.deferred_error = Some(e);
        } else {
            self.lines += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::frame_from_json;
    use btgs_core::{BeSourceMix, GridCell, PollerKind, ScenarioGrid};
    use btgs_des::{DetRng, SimDuration, SimTime};

    fn grid() -> ScenarioGrid {
        ScenarioGrid {
            pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
            piconets: vec![1],
            seeds: vec![1, 2],
            topologies: vec![btgs_core::Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon: SimTime::from_secs(1),
            warmup: SimDuration::from_millis(200),
            include_be: true,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        }
    }

    #[test]
    fn aggregator_is_completion_order_invariant() {
        let g = grid();
        let cells = g.cells();
        let results: Vec<_> = cells.iter().map(GridCell::run).collect();

        let mut in_order = OnlineAggregator::new();
        for (i, r) in results.iter().enumerate() {
            in_order.accept(i, r);
        }
        // Several shuffled delivery orders, driven by DetRng.
        let mut rng = DetRng::seed_from_u64(0xA66);
        for _ in 0..5 {
            let mut order: Vec<usize> = (0..results.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let mut shuffled = OnlineAggregator::new();
            for &i in &order {
                shuffled.accept(i, &results[i]);
            }
            assert_eq!(shuffled.digest(), in_order.digest(), "order {order:?}");
            assert_eq!(
                shuffled.summary_table().render(),
                in_order.summary_table().render()
            );
        }
        assert_eq!(in_order.cells(), 4);
    }

    #[test]
    fn shard_wise_merge_equals_single_aggregation() {
        let g = grid();
        let results: Vec<_> = g.cells().iter().map(GridCell::run).collect();
        let mut whole = OnlineAggregator::new();
        let mut left = OnlineAggregator::for_grid(&g);
        let mut right = OnlineAggregator::new();
        for (i, r) in results.iter().enumerate() {
            whole.accept(i, r);
            if i % 2 == 0 {
                left.accept(i, r);
            } else {
                right.accept(i, r);
            }
        }
        // Merge in both directions: identical digests.
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr.digest(), whole.digest());
        assert_eq!(rl.digest(), whole.digest());
        assert_eq!(lr.cells(), whole.cells());
    }

    #[test]
    fn aggregator_tracks_the_grid_report_summary() {
        // The aggregator's pooled delay mean/max and violation counts
        // must equal the in-memory GridReport's (same integer
        // arithmetic); the float throughput columns agree to rendering
        // precision (the aggregator sums exact bytes, the report sums
        // per-flow floats — groupings differ, rows are label-sorted).
        let g = grid();
        let report = btgs_core::ExperimentRunner::with_threads(2).run_grid(&g);
        let mut agg = OnlineAggregator::new();
        for (i, r) in report.cells.iter().enumerate() {
            agg.accept(i, r);
        }
        let rows = |rendered: String| -> Vec<Vec<String>> {
            let mut rows: Vec<Vec<String>> = rendered
                .lines()
                .skip(2) // header + rule
                .map(|l| l.split_whitespace().map(str::to_owned).collect())
                .collect();
            rows.sort();
            rows
        };
        let reference = rows(report.summary_table().render());
        let streamed = rows(agg.summary_table().render());
        assert_eq!(reference.len(), streamed.len());
        for (a, b) in reference.iter().zip(&streamed) {
            assert_eq!(a.len(), b.len(), "{a:?} vs {b:?}");
            for (col, (x, y)) in a.iter().zip(b).enumerate() {
                if let (Ok(fx), Ok(fy)) = (x.parse::<f64>(), y.parse::<f64>()) {
                    assert!((fx - fy).abs() <= 0.1, "col {col}: {x} vs {y}");
                } else {
                    assert_eq!(x, y, "col {col} of {a:?}");
                }
            }
        }
        let hist = agg.delay_histogram(PollerKind::PfpGs).unwrap();
        assert!(hist.count() > 0);
        assert_eq!(hist.overflow(), 0, "all delays fall inside 100 ms");
    }

    #[test]
    fn aggregator_pools_telemetry_without_moving_digests() {
        let mut g = grid();
        g.pollers = vec![PollerKind::PfpGs];
        g.piconets = vec![2];
        g.seeds = vec![1, 2];
        let plain: Vec<_> = g.cells().iter().map(GridCell::run).collect();
        g.telemetry = true;
        let observed: Vec<_> = g.cells().iter().map(GridCell::run).collect();

        let mut agg_plain = OnlineAggregator::new();
        let mut agg_obs = OnlineAggregator::new();
        for (i, (p, o)) in plain.iter().zip(&observed).enumerate() {
            agg_plain.accept(i, p);
            agg_obs.accept(i, o);
        }
        // Telemetry pools across the observed cells and stays out of the
        // digest and summary — the aggregate is byte-identical to the
        // unobserved grid's.
        assert!(agg_obs.telemetry().events_processed > 0);
        assert!(agg_obs.telemetry().phases_run > 0);
        assert_eq!(agg_plain.telemetry().events_processed, 0);
        assert_eq!(agg_plain.digest(), agg_obs.digest());
        assert_eq!(
            agg_plain.summary_table().render(),
            agg_obs.summary_table().render()
        );

        // Shard-wise merge pools telemetry like every other accumulator.
        let mut left = OnlineAggregator::new();
        let mut right = OnlineAggregator::new();
        left.accept(0, &observed[0]);
        right.accept(1, &observed[1]);
        left.merge(&right);
        assert_eq!(
            left.telemetry().events_processed,
            agg_obs.telemetry().events_processed
        );
    }

    #[test]
    fn aggregator_accepts_scatternet_cells_missing_paper_flows() {
        // Piconet 0 of an admitted bidirectional chain and of a mesh does
        // not carry every one of the paper's flows 1–4; the reference
        // schedule's plans for the missing ones are skipped, not a panic.
        let mut chain = grid();
        chain.pollers = vec![PollerKind::PfpGs];
        chain.piconets = vec![2];
        chain.seeds = vec![1];
        chain.bidirectional = true;
        chain.bridge_cycle = SimDuration::from_millis(10);
        chain.delay_requirements = vec![SimDuration::from_millis(46)];
        chain.chain_deadlines = vec![Some(SimDuration::from_millis(400))];
        chain.telemetry = true;
        let mut mesh = grid();
        mesh.pollers = vec![PollerKind::FixedGs];
        mesh.piconets = vec![16];
        mesh.seeds = vec![1];
        mesh.include_be = false;
        mesh.topologies = vec![btgs_core::Topology::Mesh {
            degree: 3,
            seed: 11,
        }];

        let mut cells = Vec::new();
        for g in [&chain, &mesh] {
            g.validate().unwrap();
            let cell = g.cells()[0];
            // Through the wire, as the sharded parent sees it.
            let frame = frame_to_json(grid_digest(g), 0, &cell, &cell.simulate());
            let outcome = frame_from_json(&frame).unwrap().outcome;
            cells.push(CellResult::reassemble(cell, outcome));
        }
        for c in &cells {
            let missing = c
                .scenario
                .gs_plans
                .iter()
                .filter(|p| c.report.try_flow(p.request.id).is_none())
                .count();
            assert!(missing > 0, "{:?} carries all paper flows", c.cell.topology);
        }

        let mut agg = OnlineAggregator::new();
        for (i, c) in cells.iter().enumerate() {
            agg.accept(i, c);
        }
        assert_eq!(agg.cells(), 2);
        assert!(
            agg.telemetry().events_processed > 0,
            "the chain ran observed"
        );
        let report = btgs_core::GridReport { cells };
        assert_eq!(
            report.summary_table().render().lines().count(),
            4,
            "header, rule and one row per poller"
        );
    }

    #[test]
    fn spill_sink_writes_parseable_frames() {
        let g = grid();
        let dir = std::env::temp_dir().join(format!("btgs-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.jsonl");
        let mut spill = JsonlSpillSink::create(&path, &g).unwrap();
        let cells = g.cells();
        let results: Vec<_> = cells.iter().map(GridCell::run).collect();
        for (i, r) in results.iter().enumerate().rev() {
            spill.accept(i, r);
        }
        let (written, lines) = spill.finish().unwrap();
        assert_eq!(lines, 4);
        let content = std::fs::read_to_string(&written).unwrap();
        let digest = grid_digest(&g);
        let mut seen = [false; 4];
        for line in content.lines() {
            let frame = frame_from_json(line).unwrap();
            assert_eq!(frame.grid_digest, digest);
            assert_eq!(frame.cell, cells[frame.index]);
            seen[frame.index] = true;
        }
        assert!(seen.iter().all(|&s| s));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
