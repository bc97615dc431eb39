//! Parallel experiment execution: fan a deterministic scenario grid across
//! worker threads.
//!
//! The paper's evaluation — and every ablation around it — is a sweep:
//! poller × seed × delay requirement, each cell an independent,
//! deterministic simulation. [`ExperimentRunner`] executes such grids on a
//! pool of `std::thread` workers. Because every cell derives all of its
//! randomness from its own seed (see [`PaperScenario::sources`]), the
//! result of a grid is **bit-identical** whatever the thread count — the
//! runner only changes wall-clock time, never output.
//!
//! ```
//! use btgs_core::{BeSourceMix, ExperimentRunner, PollerKind, ScenarioGrid};
//! use btgs_des::{SimDuration, SimTime};
//!
//! let grid = ScenarioGrid {
//!     pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
//!     piconets: vec![1],
//!     seeds: vec![1, 2],
//!     topologies: vec![btgs_core::Topology::Chain],
//!     delay_requirements: vec![SimDuration::from_millis(40)],
//!     chain_deadlines: vec![None],
//!     bidirectional: false,
//!     bridge_cycle: SimDuration::from_millis(20),
//!     horizon: SimTime::from_secs(3),
//!     warmup: SimDuration::from_millis(500),
//!     include_be: false,
//!     be_load_scale: vec![1.0],
//!     be_source_mix: BeSourceMix::Cbr,
//!     telemetry: false,
//! };
//! let report = ExperimentRunner::new().run_grid(&grid);
//! assert_eq!(report.cells.len(), 4);
//! ```

use crate::plan::Improvements;
use crate::scatternet_scenario::{ScatternetScenario, ScatternetScenarioParams, Topology};
use crate::scenario::{BeSourceMix, GsFlowPlan, PaperScenario, PaperScenarioParams, PollerKind};
use crate::sink::{CellSink, CollectSink};
use btgs_des::{SimDuration, SimTime};
use btgs_metrics::{fmt_f64, DelayStats, Table};
use btgs_piconet::{FlowReport, RunReport, ScatternetReport, TelemetryReport};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

impl PollerKind {
    /// A short stable label for tables and logs.
    pub fn label(&self) -> String {
        match self {
            PollerKind::PfpGs => "pfp-gs".into(),
            PollerKind::FixedGs => "gs-fixed".into(),
            PollerKind::Custom(imp) => {
                let mut s = String::from("gs-custom(");
                if imp.packet_aware {
                    s.push('a');
                }
                if imp.replan_from_actual {
                    s.push('b');
                }
                if imp.skip_empty_downlink {
                    s.push('c');
                }
                s.push(')');
                s
            }
        }
    }

    /// The inverse of [`PollerKind::label`] — the wire format ships
    /// pollers as their labels, so the mapping must stay bijective.
    pub fn from_label(label: &str) -> Option<PollerKind> {
        match label {
            "pfp-gs" => Some(PollerKind::PfpGs),
            "gs-fixed" => Some(PollerKind::FixedGs),
            _ => {
                let subset = label.strip_prefix("gs-custom(")?.strip_suffix(')')?;
                let mut imp = Improvements::NONE;
                for c in subset.chars() {
                    match c {
                        'a' if !imp.packet_aware => imp.packet_aware = true,
                        'b' if !imp.replan_from_actual => imp.replan_from_actual = true,
                        'c' if !imp.skip_empty_downlink => imp.skip_empty_downlink = true,
                        _ => return None,
                    }
                }
                Some(PollerKind::Custom(imp))
            }
        }
    }
}

/// A poller × piconet-count × seed × delay-requirement grid over the
/// paper's Fig. 4 scenario and its scatternet extension.
#[derive(Clone, Debug)]
pub struct ScenarioGrid {
    /// The pollers to compare.
    pub pollers: Vec<PollerKind>,
    /// The piconet counts to sweep: `1` runs the single-piconet Fig. 4
    /// scenario (bit-identical to the pre-scatternet runner), `≥ 2` runs
    /// the chained [`ScatternetScenario`] with one bridged GS flow.
    pub piconets: Vec<u16>,
    /// Seeds for the per-cell deterministic RNG streams.
    pub seeds: Vec<u64>,
    /// The scatternet wirings to sweep for cells with `piconets ≥ 2`
    /// (single-piconet cells ignore it). Ring and tree topologies are
    /// measurement-only: [`ScenarioGrid::validate`] rejects them combined
    /// with `chain_deadlines` other than `None`; `bidirectional` requires
    /// the chain topology; trees and meshes reject `include_be`.
    pub topologies: Vec<Topology>,
    /// The delay requirements to sweep.
    pub delay_requirements: Vec<SimDuration>,
    /// End-to-end chain deadlines to sweep in scatternet cells: `None`
    /// runs the measured-only chain, `Some` runs multi-hop admission and
    /// records the composed bound. Only applicable with `piconets ≥ 2`
    /// ([`ScenarioGrid::validate`] rejects the combination otherwise).
    pub chain_deadlines: Vec<Option<SimDuration>>,
    /// Run a reverse chain over the same bridges in scatternet cells
    /// (shared-bridge contention). Only applicable with `piconets ≥ 2`.
    pub bidirectional: bool,
    /// Bridge rendezvous cycle of scatternet cells (each bridge spends
    /// half in each piconet). Admission-controlled cells need a cycle
    /// short enough that `cycle/2 + U` leaves an admissible
    /// presence-compensated interval — 10 ms with the paper's packet set.
    pub bridge_cycle: SimDuration,
    /// Simulated horizon of every cell.
    pub horizon: SimTime,
    /// Warm-up excluded from measurements.
    pub warmup: SimDuration,
    /// Include the BE flows (all eight of Fig. 4 in a single piconet; the
    /// reduced S4/S5 load per scatternet piconet).
    pub include_be: bool,
    /// Best-effort load multipliers to sweep (1.0 = the Fig. 4 rates) —
    /// the ROADMAP's saturation-study axis. Requires `include_be` unless
    /// it is exactly `[1.0]`.
    pub be_load_scale: Vec<f64>,
    /// How the BE flows generate traffic (a grid-wide variant, not an
    /// axis).
    pub be_source_mix: BeSourceMix,
    /// Run scatternet cells (`piconets ≥ 2`) with the engine's telemetry
    /// histograms on (`ScatternetSim::run_with_telemetry`) and attach
    /// each cell's engine [`TelemetryReport`] to its outcome
    /// (merged by the grid aggregator, carried as an optional wire
    /// frame field, and **excluded** from every byte-identity digest).
    /// Single-piconet cells ignore it; the simulated reports are
    /// byte-identical either way.
    pub telemetry: bool,
}

impl ScenarioGrid {
    /// The paper's default evaluation surface for the given pollers and
    /// seeds: `Dreq = 40 ms`, one piconet, BE load included.
    pub fn paper(pollers: Vec<PollerKind>, seeds: Vec<u64>, horizon: SimTime) -> ScenarioGrid {
        ScenarioGrid {
            pollers,
            piconets: vec![1],
            seeds,
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon,
            warmup: SimDuration::from_secs(2),
            include_be: true,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        }
    }

    /// Checks that the grid is well-formed **before** any cell runs: every
    /// axis non-empty, the warm-up inside the horizon, piconet counts the
    /// scenarios support, scatternet-only axes (`chain_deadlines` other
    /// than `None`, `bidirectional`) not combined with single-piconet
    /// cells, and every admission-controlled scatternet cell's chain
    /// actually admissible — so an infeasible deadline is a
    /// grid-construction error, not a panic mid-run inside
    /// [`ExperimentRunner`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        for (name, empty) in [
            ("pollers", self.pollers.is_empty()),
            ("piconets", self.piconets.is_empty()),
            ("seeds", self.seeds.is_empty()),
            ("topologies", self.topologies.is_empty()),
            ("delay_requirements", self.delay_requirements.is_empty()),
            ("chain_deadlines", self.chain_deadlines.is_empty()),
            ("be_load_scale", self.be_load_scale.is_empty()),
        ] {
            if empty {
                return Err(format!("grid axis `{name}` is empty"));
            }
        }
        for &scale in &self.be_load_scale {
            // The cap keeps the shortest scaled CBR interval far above the
            // slot grid — beyond it a cell's event count explodes and the
            // load is unschedulable anyway.
            if !(scale.is_finite() && scale > 0.0 && scale <= 100.0) {
                return Err(format!(
                    "be_load_scale {scale} is outside the supported (0, 100] range"
                ));
            }
            if scale != 1.0 && !self.include_be {
                return Err(format!(
                    "be_load_scale {scale} sweeps best-effort load, but include_be is false"
                ));
            }
        }
        if self.warmup >= self.horizon - SimTime::ZERO {
            return Err(format!(
                "warm-up {} must end before the horizon {}",
                self.warmup, self.horizon
            ));
        }
        let scatternet_axes = self.bidirectional
            || self.chain_deadlines.iter().any(Option::is_some)
            || self.topologies.iter().any(|&t| t != Topology::Chain);
        for &p in &self.piconets {
            if p == 0 {
                return Err("piconet count 0 names no scenario (use 1 for Fig. 4)".into());
            }
            if p == 1 && scatternet_axes {
                return Err(
                    "chain_deadlines/bidirectional/non-chain topologies are scatternet \
                     axes; they are undefined for single-piconet cells (piconets = 1)"
                        .into(),
                );
            }
        }
        for &topology in &self.topologies {
            if topology == Topology::Chain {
                continue;
            }
            let is_mesh = matches!(topology, Topology::Mesh { .. });
            let label = topology.label();
            if self.chain_deadlines.iter().any(Option::is_some) && !is_mesh {
                return Err(format!(
                    "chain_deadlines are derived for the chain topology only, not `{label}`"
                ));
            }
            if self.bidirectional {
                return Err(format!(
                    "bidirectional requires the chain topology, not `{label}`"
                ));
            }
            if topology == Topology::Tree && self.include_be {
                return Err("tree topology cells cannot include_be (S5 is a bridge)".into());
            }
            if is_mesh && self.include_be {
                return Err(
                    "mesh topology cells cannot include_be (bridge roles use S4–S7)".into(),
                );
            }
        }
        // Scatternet cells split the rendezvous cycle evenly, and both
        // halves must be valid presence windows (positive, slot-pair
        // aligned) — otherwise BridgeSpec::windows fails inside a worker
        // thread mid-run.
        if self.piconets.iter().any(|&p| p >= 2) {
            let dwell = self.bridge_cycle / 2;
            btgs_baseband::PresenceWindow::new(self.bridge_cycle, SimDuration::ZERO, dwell)
                .and_then(|_| {
                    btgs_baseband::PresenceWindow::new(
                        self.bridge_cycle,
                        dwell,
                        self.bridge_cycle - dwell,
                    )
                })
                .map_err(|e| format!("bridge_cycle {}: {e}", self.bridge_cycle))?;
        }
        // Admission feasibility is deterministic per (piconets,
        // requirement, deadline) — seeds only affect traffic. Reject
        // inadmissible cells here, where the caller can still react.
        for &p in &self.piconets {
            if p < 2 {
                continue;
            }
            for &dreq in &self.delay_requirements {
                for deadline in self.chain_deadlines.iter().flatten() {
                    // Ring/tree + deadline combinations were rejected
                    // above; deadlines only reach here with chain or mesh
                    // topologies in play.
                    for &topology in &self.topologies {
                        if !matches!(topology, Topology::Chain | Topology::Mesh { .. }) {
                            continue;
                        }
                        let mut params = ScatternetScenarioParams::chained(p);
                        params.topology = topology;
                        params.delay_requirement = dreq;
                        params.warmup = self.warmup;
                        params.include_be = self.include_be;
                        params.chain_deadline = Some(*deadline);
                        params.bidirectional = self.bidirectional;
                        params.bridge_cycle = self.bridge_cycle;
                        ScatternetScenario::try_build(params).map_err(|e| {
                            format!(
                                "cell (piconets = {p}, topology = {}, Dreq = {dreq}, chain \
                                 deadline = {deadline}) is not admissible: {e}",
                                topology.label()
                            )
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Materialises the cells in deterministic (poller-major, then piconet
    /// count, then topology, then chain deadline, then requirement, then
    /// BE load scale, then seed) order.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(
            self.pollers.len()
                * self.piconets.len()
                * self.topologies.len()
                * self.chain_deadlines.len()
                * self.seeds.len()
                * self.delay_requirements.len()
                * self.be_load_scale.len(),
        );
        for &poller in &self.pollers {
            for &piconets in &self.piconets {
                for &topology in &self.topologies {
                    for &chain_deadline in &self.chain_deadlines {
                        for &delay_requirement in &self.delay_requirements {
                            for &be_load_scale in &self.be_load_scale {
                                for &seed in &self.seeds {
                                    out.push(GridCell {
                                        poller,
                                        piconets,
                                        seed,
                                        topology,
                                        delay_requirement,
                                        chain_deadline,
                                        bidirectional: self.bidirectional,
                                        bridge_cycle: self.bridge_cycle,
                                        horizon: self.horizon,
                                        warmup: self.warmup,
                                        include_be: self.include_be,
                                        be_load_scale,
                                        be_source_mix: self.be_source_mix,
                                        telemetry: self.telemetry,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One point of a [`ScenarioGrid`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridCell {
    /// The poller driving this cell.
    pub poller: PollerKind,
    /// Piconet count: 1 = the Fig. 4 piconet, ≥ 2 = a scatternet.
    pub piconets: u16,
    /// The root seed of the cell's RNG streams.
    pub seed: u64,
    /// Scatternet wiring (scatternet cells only; ignored at piconets = 1).
    pub topology: Topology,
    /// The delay requirement of the cell's GS flows.
    pub delay_requirement: SimDuration,
    /// End-to-end deadline of the bridged chain(s); `Some` runs multi-hop
    /// admission (scatternet cells only).
    pub chain_deadline: Option<SimDuration>,
    /// Run the reverse chain too (scatternet cells only).
    pub bidirectional: bool,
    /// Bridge rendezvous cycle (scatternet cells only).
    pub bridge_cycle: SimDuration,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Warm-up excluded from measurements.
    pub warmup: SimDuration,
    /// Include the BE flows.
    pub include_be: bool,
    /// Multiplier on the BE flows' Fig. 4 rates.
    pub be_load_scale: f64,
    /// How the BE flows generate traffic.
    pub be_source_mix: BeSourceMix,
    /// Attach engine telemetry to the outcome (scatternet cells only;
    /// see [`ScenarioGrid::telemetry`]).
    pub telemetry: bool,
}

impl GridCell {
    /// The single-piconet scenario parameters of this cell (also the
    /// reference schedule of piconet 0 in a scatternet cell).
    pub fn params(&self) -> PaperScenarioParams {
        PaperScenarioParams {
            delay_requirement: self.delay_requirement,
            seed: self.seed,
            warmup: self.warmup,
            include_be: self.include_be,
            be_load_scale: self.be_load_scale,
            be_source_mix: self.be_source_mix,
            arrival_batch: 1,
        }
    }

    /// The scatternet scenario parameters of this cell (piconets ≥ 2).
    pub fn scatternet_params(&self) -> ScatternetScenarioParams {
        ScatternetScenarioParams {
            piconets: self.piconets,
            topology: self.topology,
            delay_requirement: self.delay_requirement,
            seed: self.seed,
            warmup: self.warmup,
            include_be: self.include_be,
            bridge_cycle: self.bridge_cycle,
            chain_deadline: self.chain_deadline,
            bidirectional: self.bidirectional,
            be_load_scale: self.be_load_scale,
            be_source_mix: self.be_source_mix,
        }
    }

    /// Runs the cell's **simulation only**, returning the measured
    /// reports without the derived scenario objects.
    ///
    /// This is the expensive half of [`GridCell::run`] and the payload a
    /// sharded worker ships back over the wire — the parent process
    /// re-derives the (deterministic, cheap) scenario via
    /// [`CellResult::reassemble`], so both paths construct the result
    /// through identical code.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails to simulate — a bug, not an input
    /// condition, for the paper's parameter ranges.
    pub fn simulate(&self) -> CellOutcome {
        if self.piconets <= 1 {
            let scenario = PaperScenario::build(self.params());
            CellOutcome::Piconet(
                scenario
                    .run(self.poller, self.horizon)
                    .expect("paper scenario must simulate"),
            )
        } else {
            let scenario = ScatternetScenario::build(self.scatternet_params());
            if self.telemetry {
                // The plain engine with its histograms switched on: the
                // report is byte-identical to the plain run and the
                // telemetry to the traced run's
                // (tests/parallel_equivalence.rs checks both).
                let (report, telemetry) = scenario
                    .simulator(self.poller)
                    .and_then(|sim| sim.run_with_telemetry(self.horizon))
                    .expect("scatternet scenario must simulate");
                CellOutcome::Scatternet(report, Some(Box::new(telemetry)))
            } else {
                CellOutcome::Scatternet(
                    scenario
                        .run(self.poller, self.horizon)
                        .expect("scatternet scenario must simulate"),
                    None,
                )
            }
        }
    }

    /// Builds and runs the cell's simulation.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails to simulate — a bug, not an input
    /// condition, for the paper's parameter ranges.
    pub fn run(&self) -> CellResult {
        CellResult::reassemble(*self, self.simulate())
    }
}

/// The measured outcome of one cell's simulation — what a sharded worker
/// transmits; everything else in a [`CellResult`] is deterministically
/// re-derivable from the [`GridCell`].
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// A single-piconet (Fig. 4) cell's report.
    Piconet(RunReport),
    /// A scatternet cell's full report, plus the engine telemetry when
    /// the cell asked for it ([`GridCell::telemetry`]).
    Scatternet(ScatternetReport, Option<Box<TelemetryReport>>),
}

/// The scatternet-specific outcome of a multi-piconet grid cell.
#[derive(Clone, Debug)]
pub struct ScatternetCellResult {
    /// The derived chained-piconets scenario.
    pub scenario: ScatternetScenario,
    /// The full scatternet report (per-piconet runs + chain statistics).
    pub report: ScatternetReport,
    /// The engine telemetry, when the cell asked for it
    /// ([`GridCell::telemetry`]). Excluded from every digest.
    pub telemetry: Option<Box<TelemetryReport>>,
}

/// The outcome of one grid cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell that produced this result.
    pub cell: GridCell,
    /// The derived single-piconet scenario (schedule, plans, bounds). For
    /// scatternet cells this is the reference schedule of piconet 0.
    pub scenario: PaperScenario,
    /// The simulation report. For scatternet cells this is a *copy* of
    /// piconet 0's report (also reachable via
    /// `scatternet.report.piconets[0]`): the duplication buys every grid
    /// consumer (summary tables, digests, sweeps) one uniform field at the
    /// cost of one extra per-cell report clone — acceptable because
    /// multi-piconet grids are orders of magnitude smaller than the
    /// single-piconet sweeps.
    pub report: RunReport,
    /// Present for cells with `piconets ≥ 2`: the full scatternet outcome.
    pub scatternet: Option<ScatternetCellResult>,
}

impl CellResult {
    /// Reconstructs the full cell result from the cell coordinates and
    /// the measured outcome.
    ///
    /// The scenario derivation (admission, schedules, bounds) is a pure
    /// function of the cell, so a result reassembled in a *different
    /// process* from a worker's shipped [`CellOutcome`] is byte-identical
    /// to one produced in-process by [`GridCell::run`] — the property the
    /// sharded grid runner's bit-for-bit merge guarantee rests on.
    ///
    /// # Panics
    ///
    /// Panics if the outcome variant does not match the cell's piconet
    /// count.
    pub fn reassemble(cell: GridCell, outcome: CellOutcome) -> CellResult {
        // The single-piconet reference schedule: for scatternet cells its
        // bounds are what piconet 0's paper flows would be guaranteed
        // without the bridge load, so `gs_violations` measures the
        // scatternet's interference.
        let scenario = PaperScenario::build(cell.params());
        match outcome {
            CellOutcome::Piconet(report) => {
                assert!(
                    cell.piconets <= 1,
                    "scatternet cell carries a single-piconet outcome"
                );
                CellResult {
                    cell,
                    scenario,
                    report,
                    scatternet: None,
                }
            }
            CellOutcome::Scatternet(report, telemetry) => {
                assert!(
                    cell.piconets >= 2,
                    "single-piconet cell carries a scatternet outcome"
                );
                CellResult {
                    cell,
                    scenario,
                    report: report.piconets[0].clone(),
                    scatternet: Some(ScatternetCellResult {
                        scenario: ScatternetScenario::build(cell.scatternet_params()),
                        report,
                        telemetry,
                    }),
                }
            }
        }
    }

    /// The measured outcome alone — the inverse of
    /// [`CellResult::reassemble`] (the wire format ships this).
    pub fn outcome(&self) -> CellOutcome {
        match &self.scatternet {
            None => CellOutcome::Piconet(self.report.clone()),
            Some(s) => CellOutcome::Scatternet(s.report.clone(), s.telemetry.clone()),
        }
    }

    /// The reference schedule's GS plans whose flow this cell's report
    /// carries, each with its flow report. A scatternet cell's piconet 0
    /// need not carry all of the paper's flows; their plans are skipped.
    fn carried_gs_plans(&self) -> impl Iterator<Item = (&GsFlowPlan, &FlowReport)> {
        self.scenario
            .gs_plans
            .iter()
            .filter_map(|p| Some((p, self.report.try_flow(p.request.id)?)))
    }

    /// The worst packet delay over all of this cell's GS flows (the
    /// reference schedule's plans the report carries).
    ///
    /// # Panics
    ///
    /// Panics if a GS flow saw no traffic, or the report carries none of
    /// the plans' flows (a broken run, not an input condition).
    pub fn gs_max_delay(&self) -> SimDuration {
        self.carried_gs_plans()
            .map(|(_, r)| r.delay.max().expect("GS flows see traffic"))
            .max()
            .expect("at least one GS flow")
    }

    /// Packets of this cell's GS flows that exceeded their achievable
    /// bound (over the reference schedule's plans the report carries).
    pub fn gs_violations(&self) -> usize {
        self.carried_gs_plans()
            .map(|(p, r)| r.delay.violations_of(p.achievable_bound))
            .sum()
    }
}

/// The merged outcome of a whole grid, in [`ScenarioGrid::cells`] order.
#[derive(Clone, Debug)]
pub struct GridReport {
    /// Per-cell results, in deterministic grid order.
    pub cells: Vec<CellResult>,
}

impl GridReport {
    /// The results of one poller, in grid order.
    pub fn of_poller(&self, kind: PollerKind) -> impl Iterator<Item = &CellResult> {
        self.cells.iter().filter(move |c| c.cell.poller == kind)
    }

    /// Merged per-poller summary: throughput and delay statistics pooled
    /// over every seed and requirement of that poller.
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
        let mut seen: Vec<PollerKind> = Vec::new();
        for c in &self.cells {
            if !seen.contains(&c.cell.poller) {
                seen.push(c.cell.poller);
            }
        }
        for kind in seen {
            let mut n = 0usize;
            let mut gs_kbps = 0.0;
            let mut be_kbps = 0.0;
            let mut delays = DelayStats::new();
            let mut violations = 0usize;
            for c in self.of_poller(kind) {
                n += 1;
                for f in &c.report.flows {
                    let kbps = c.report.throughput_kbps(f.id);
                    if f.channel.is_gs() {
                        gs_kbps += kbps;
                        delays.merge(&c.report.flow(f.id).delay);
                    } else {
                        be_kbps += kbps;
                    }
                }
                violations += c.gs_violations();
            }
            let cells = n.max(1) as f64;
            t.row(vec![
                kind.label(),
                n.to_string(),
                fmt_f64(gs_kbps / cells, 1),
                fmt_f64(be_kbps / cells, 1),
                delays.mean().map_or_else(|| "-".into(), |d| d.to_string()),
                delays.max().map_or_else(|| "-".into(), |d| d.to_string()),
                violations.to_string(),
            ]);
        }
        t
    }

    /// A stable textual digest of every cell (poller, seed, requirement,
    /// per-flow delivery counts and delay extrema). Two runs of the same
    /// grid — sequential or parallel — must render identically; the
    /// determinism tests hinge on this.
    pub fn digest(&self) -> String {
        use std::fmt::Write as _;
        fn flow_digest(out: &mut String, report: &RunReport) {
            for f in &report.flows {
                let r = report.flow(f.id);
                let _ = write!(
                    out,
                    "|{}:{}:{}:{}",
                    f.id,
                    r.delivered_packets,
                    r.delivered_bytes,
                    r.delay.max().map_or_else(|| "-".into(), |d| d.to_string()),
                );
            }
        }
        let mut out = String::new();
        for c in &self.cells {
            let _ = write!(
                out,
                "{}|pics={}|seed={}|dreq={}|cd={}|bi={}|bl={:?}|mix={}",
                c.cell.poller.label(),
                c.cell.piconets,
                c.cell.seed,
                c.cell.delay_requirement,
                c.cell
                    .chain_deadline
                    .map_or_else(|| "-".into(), |d| d.to_string()),
                c.cell.bidirectional,
                c.cell.be_load_scale,
                c.cell.be_source_mix.label(),
            );
            match &c.scatternet {
                None => flow_digest(&mut out, &c.report),
                Some(s) => {
                    // Every piconet's flows, then the chain statistics.
                    for r in &s.report.piconets {
                        flow_digest(&mut out, r);
                    }
                    for chain in &s.report.chains {
                        let _ = write!(
                            out,
                            "|chain:{}:{}:{}:{}",
                            chain.delivered_packets,
                            chain.relayed_packets,
                            chain
                                .e2e
                                .max()
                                .map_or_else(|| "-".into(), |d| d.to_string()),
                            chain
                                .residence
                                .max()
                                .map_or_else(|| "-".into(), |d| d.to_string()),
                        );
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A deterministic parallel map over experiment cells.
///
/// Workers claim cells from an atomic cursor and run them independently;
/// results are reassembled in input order, so the output is invariant
/// under the thread count and the OS schedule.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentRunner {
    threads: usize,
}

impl Default for ExperimentRunner {
    fn default() -> Self {
        ExperimentRunner::new()
    }
}

impl ExperimentRunner {
    /// A runner using all available CPU parallelism.
    pub fn new() -> ExperimentRunner {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExperimentRunner { threads }
    }

    /// A runner with an explicit worker count (1 = sequential, in the
    /// calling thread).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> ExperimentRunner {
        assert!(threads > 0, "at least one worker thread is required");
        ExperimentRunner { threads }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `cells` on the worker pool and returns the results in
    /// input order.
    ///
    /// `f` must be a pure function of its cell (up to interior determinism
    /// — e.g. a simulation seeded from the cell); under that condition the
    /// output is identical for every thread count.
    pub fn run<C, R, F>(&self, cells: &[C], f: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(&C) -> R + Sync,
    {
        if cells.is_empty() {
            return Vec::new();
        }
        let workers = self.threads.min(cells.len());
        if workers == 1 {
            return cells.iter().map(f).collect();
        }
        let cursor = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(cells.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    // Claim-and-run until the grid is exhausted. Each worker
                    // batches its results locally and merges once, keeping
                    // lock traffic negligible next to simulation time.
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        // ord: Relaxed — RMW atomicity alone partitions
                        // cell indices across workers; results are
                        // ordered by the scope join and the result lock.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= cells.len() {
                            break;
                        }
                        local.push((i, f(&cells[i])));
                    }
                    collected
                        .lock()
                        .expect("worker panicked while holding the result lock")
                        .append(&mut local);
                });
            }
        });
        let mut pairs = collected.into_inner().expect("workers joined");
        pairs.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(pairs.len(), cells.len());
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Runs a whole [`ScenarioGrid`] and merges the results.
    ///
    /// # Panics
    ///
    /// Panics — with the validation message, before any cell has run — if
    /// [`ScenarioGrid::validate`] rejects the grid. Use
    /// [`ExperimentRunner::try_run_grid`] to handle rejection.
    pub fn run_grid(&self, grid: &ScenarioGrid) -> GridReport {
        self.try_run_grid(grid)
            .unwrap_or_else(|e| panic!("invalid scenario grid: {e}"))
    }

    /// Validates the grid, then runs it; an ill-formed grid (including an
    /// inadmissible chain deadline) is reported as an error before any
    /// cell executes.
    ///
    /// The in-memory report is itself built through the streaming path: a
    /// [`CollectSink`] is just one [`CellSink`] among the spill and
    /// aggregation sinks of `btgs-grid`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioGrid::validate`]'s description of the violated
    /// rule.
    pub fn try_run_grid(&self, grid: &ScenarioGrid) -> Result<GridReport, String> {
        let mut collect = CollectSink::new();
        self.run_grid_streaming(grid, &mut collect)?;
        Ok(collect.into_report())
    }

    /// Runs every cell of the grid, streaming each [`CellResult`] into
    /// `sink` **as it completes** — in an arbitrary, thread-schedule-
    /// dependent order. Sinks must therefore be completion-order
    /// invariant (all the provided ones are); nothing is retained here,
    /// so peak memory is the sink's, not O(cells).
    ///
    /// Returns the number of cells executed.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioGrid::validate`]'s description of the violated
    /// rule, before any cell runs.
    pub fn run_grid_streaming(
        &self,
        grid: &ScenarioGrid,
        sink: &mut dyn CellSink,
    ) -> Result<usize, String> {
        grid.validate()?;
        let cells = grid.cells();
        let n = cells.len();
        let workers = self.threads.min(n.max(1));
        if workers <= 1 {
            for (i, cell) in cells.iter().enumerate() {
                sink.accept_owned(i, cell.run());
            }
            return Ok(n);
        }
        let cursor = AtomicUsize::new(0);
        let shared = Mutex::new(sink);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // ord: Relaxed — claim-only counter (see above); the
                    // sink mutex orders the deliveries.
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Simulate outside the lock; only delivery serialises.
                    let result = cells[i].run();
                    shared
                        .lock()
                        .expect("a worker panicked while holding the sink")
                        .accept_owned(i, result);
                });
            }
        });
        Ok(n)
    }
}

/// The four-poller comparison set used by the ablation benches: fixed
/// (§3.1), variable without (c), full §3.2, and the PFP configuration.
pub fn comparison_pollers() -> Vec<PollerKind> {
    vec![
        PollerKind::FixedGs,
        PollerKind::Custom(Improvements {
            packet_aware: true,
            replan_from_actual: true,
            skip_empty_downlink: false,
        }),
        PollerKind::Custom(Improvements::ALL),
        PollerKind::PfpGs,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cell_order_is_deterministic() {
        let grid = ScenarioGrid {
            pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
            piconets: vec![1],
            seeds: vec![1, 2, 3],
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40), SimDuration::from_millis(30)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(20),
            horizon: SimTime::from_secs(1),
            warmup: SimDuration::ZERO,
            include_be: false,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].poller, PollerKind::PfpGs);
        assert_eq!(cells[0].seed, 1);
        assert_eq!(cells[1].seed, 2);
        assert_eq!(cells[3].delay_requirement, SimDuration::from_millis(30));
        assert_eq!(cells[6].poller, PollerKind::FixedGs);
        assert_eq!(cells, grid.cells());
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let runner = ExperimentRunner::with_threads(8);
        let cells: Vec<u64> = (0..100).collect();
        let out = runner.run(&cells, |&c| c * 2);
        assert_eq!(out, (0..100).map(|c| c * 2).collect::<Vec<_>>());
        // Degenerate cases.
        assert!(runner.run(&[] as &[u64], |&c| c).is_empty());
        assert_eq!(
            ExperimentRunner::with_threads(1).run(&cells, |&c| c + 1)[99],
            100
        );
    }

    fn base_grid() -> ScenarioGrid {
        ScenarioGrid {
            pollers: vec![PollerKind::PfpGs],
            piconets: vec![1],
            seeds: vec![1],
            topologies: vec![Topology::Chain],
            delay_requirements: vec![SimDuration::from_millis(40)],
            chain_deadlines: vec![None],
            bidirectional: false,
            bridge_cycle: SimDuration::from_millis(10),
            horizon: SimTime::from_secs(2),
            warmup: SimDuration::from_millis(500),
            include_be: false,
            be_load_scale: vec![1.0],
            be_source_mix: BeSourceMix::Cbr,
            telemetry: false,
        }
    }

    #[test]
    fn validation_rejects_malformed_grids_at_construction_time() {
        assert!(base_grid().validate().is_ok());

        let mut g = base_grid();
        g.seeds.clear();
        assert!(g.validate().unwrap_err().contains("seeds"));

        let mut g = base_grid();
        g.piconets = vec![0];
        assert!(g.validate().unwrap_err().contains("piconet count 0"));

        // Piconet counts past the historic nine-piconet id block now
        // widen the block instead of failing (see `chain_id_base`).
        let mut g = base_grid();
        g.piconets = vec![10];
        assert!(g.validate().is_ok());

        // Non-chain topologies are scatternet axes and reject the
        // chain-only knobs.
        let mut g = base_grid();
        g.topologies = vec![Topology::Ring];
        assert!(g.validate().unwrap_err().contains("scatternet axes"));
        let mut g = base_grid();
        g.piconets = vec![3];
        g.topologies = vec![Topology::Chain, Topology::Ring];
        assert!(g.validate().is_ok());
        g.bidirectional = true;
        assert!(g.validate().unwrap_err().contains("chain topology"));
        let mut g = base_grid();
        g.piconets = vec![3];
        g.topologies = vec![Topology::Tree];
        g.include_be = true;
        assert!(g.validate().unwrap_err().contains("include_be"));

        let mut g = base_grid();
        g.warmup = SimDuration::from_secs(3);
        assert!(g.validate().unwrap_err().contains("warm-up"));

        // Scatternet-only axes combined with single-piconet cells.
        let mut g = base_grid();
        g.chain_deadlines = vec![Some(SimDuration::from_millis(150))];
        assert!(g.validate().unwrap_err().contains("scatternet axes"));
        let mut g = base_grid();
        g.bidirectional = true;
        assert!(g.validate().unwrap_err().contains("scatternet axes"));

        // Ill-formed bridge cycles (off the slot-pair grid, or zero) are
        // grid errors too — they used to fail inside a worker thread.
        let mut g = base_grid();
        g.piconets = vec![2];
        g.bridge_cycle = SimDuration::from_millis(3);
        assert!(g.validate().unwrap_err().contains("bridge_cycle"));
        g.bridge_cycle = SimDuration::ZERO;
        assert!(g.validate().unwrap_err().contains("bridge_cycle"));
        // Single-piconet grids never build bridges; the cycle is unused.
        let mut g = base_grid();
        g.bridge_cycle = SimDuration::from_millis(3);
        assert!(g.validate().is_ok());

        // An inadmissible chain deadline is a grid-construction error,
        // not a mid-run panic: at Dreq = 40 ms no chain can be admitted.
        let mut g = base_grid();
        g.piconets = vec![2];
        g.chain_deadlines = vec![Some(SimDuration::from_millis(150))];
        let err = g.validate().unwrap_err();
        assert!(err.contains("not admissible"), "{err}");
        assert!(ExperimentRunner::with_threads(1).try_run_grid(&g).is_err());

        // The same deadline with capacity left (Dreq = 46 ms) validates
        // and runs.
        g.delay_requirements = vec![SimDuration::from_millis(46)];
        assert!(g.validate().is_ok(), "{:?}", g.validate());
    }

    #[test]
    fn validation_covers_the_be_load_axis() {
        let mut g = base_grid();
        g.be_load_scale.clear();
        assert!(g.validate().unwrap_err().contains("be_load_scale"));

        // Out-of-range multipliers are grid errors, not mid-run panics
        // (a non-finite or zero scale would produce an invalid CBR
        // interval inside a worker).
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 101.0] {
            let mut g = base_grid();
            g.include_be = true;
            g.be_load_scale = vec![1.0, bad];
            let err = g.validate().unwrap_err();
            assert!(err.contains("be_load_scale"), "{bad}: {err}");
        }

        // Sweeping BE load without BE flows is contradictory…
        let mut g = base_grid();
        g.be_load_scale = vec![0.5, 1.0, 2.0];
        assert!(g.validate().unwrap_err().contains("include_be"));
        // …but fine once the flows exist, and the axis multiplies the
        // cell count.
        g.include_be = true;
        assert!(g.validate().is_ok(), "{:?}", g.validate());
        assert_eq!(g.cells().len(), 3);
        assert_eq!(g.cells()[0].be_load_scale, 0.5);
        assert_eq!(g.cells()[2].be_load_scale, 2.0);
    }

    #[test]
    fn poller_labels_round_trip() {
        let mut kinds = vec![PollerKind::PfpGs, PollerKind::FixedGs];
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    kinds.push(PollerKind::Custom(Improvements {
                        packet_aware: a,
                        replan_from_actual: b,
                        skip_empty_downlink: c,
                    }));
                }
            }
        }
        for kind in kinds {
            assert_eq!(
                PollerKind::from_label(&kind.label()),
                Some(kind),
                "{} must round-trip",
                kind.label()
            );
        }
        for bad in ["", "pfp", "gs-custom(", "gs-custom(d)", "gs-custom(aa)"] {
            assert_eq!(PollerKind::from_label(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn source_mix_labels_round_trip() {
        for mix in [BeSourceMix::Cbr, BeSourceMix::Poisson, BeSourceMix::OnOff] {
            assert_eq!(BeSourceMix::from_label(mix.label()), Some(mix));
        }
        assert_eq!(BeSourceMix::from_label("bursty"), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PollerKind::PfpGs.label(), "pfp-gs");
        assert_eq!(PollerKind::FixedGs.label(), "gs-fixed");
        assert_eq!(
            PollerKind::Custom(Improvements::ALL).label(),
            "gs-custom(abc)"
        );
        assert_eq!(
            PollerKind::Custom(Improvements::NONE).label(),
            "gs-custom()"
        );
        assert_eq!(comparison_pollers().len(), 4);
    }
}
