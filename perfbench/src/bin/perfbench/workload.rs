//! The three benchmark workloads: which grid each one runs, through which
//! public entry point, and the reference digests it is checked against.

use btgs_core::{
    comparison_pollers, fig5_requirements, BeSourceMix, PollerKind, ScenarioGrid, Topology,
};
use btgs_des::{SimDuration, SimTime};

/// The seed whose per-cell digest lines are committed under
/// `perfbench/reference/`. Every run checks this grid once before it
/// measures the grid of its own `--seed`.
pub const REFERENCE_SEED: u64 = 1;

/// The public grid entry point a workload runs through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// `ExperimentRunner::run_grid_streaming` on worker threads.
    InProcess,
    /// `ShardedGridRunner::run_observed` on worker processes.
    Sharded,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 5 sweep on the single Fig. 4 piconet.
    Fig5Sweep,
    /// Mesh scatternets of 16, 32 and 64 piconets on the island engine.
    MeshScatternet,
    /// Short admitted 2- to 4-piconet chains through the sharded runner.
    AdmittedChainsSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Sweep,
        Workload::MeshScatternet,
        Workload::AdmittedChainsSharded,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Sweep => "fig5_sweep",
            Workload::MeshScatternet => "mesh_scatternet",
            Workload::AdmittedChainsSharded => "admitted_chains_sharded",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The entry point the workload is measured through.
    pub fn runner(self) -> Runner {
        match self {
            Workload::AdmittedChainsSharded => Runner::Sharded,
            _ => Runner::InProcess,
        }
    }

    /// The grid the workload runs for `seed`. The seed only picks the
    /// cells' traffic seeds; the grid's shape is fixed per workload.
    pub fn grid(self, seed: u64) -> ScenarioGrid {
        match self {
            // comparison_pollers() x fig5_requirements(2) x 3 seeds = 120
            // cells of 100 simulated seconds on the Fig. 4 piconet with BE
            // load.
            Workload::Fig5Sweep => ScenarioGrid {
                pollers: comparison_pollers(),
                piconets: vec![1],
                seeds: cell_seeds(seed, 3),
                topologies: vec![Topology::Chain],
                delay_requirements: fig5_requirements(2),
                chain_deadlines: vec![None],
                bidirectional: false,
                bridge_cycle: SimDuration::from_millis(20),
                horizon: SimTime::from_secs(100),
                warmup: SimDuration::from_secs(2),
                include_be: true,
                be_load_scale: vec![1.0],
                be_source_mix: BeSourceMix::Cbr,
                telemetry: false,
            },
            // 2 pollers x {16, 32, 64} piconets x 20 seeds = 120 cells of
            // 5 simulated seconds on a degree-3 mesh, no BE. Three sizes
            // put the median cell inside the 32-piconet cells, where both
            // pollers take about as long; with two sizes it fell on the
            // jump between them.
            Workload::MeshScatternet => ScenarioGrid {
                pollers: vec![PollerKind::PfpGs, PollerKind::FixedGs],
                piconets: vec![16, 32, 64],
                seeds: cell_seeds(seed, 20),
                topologies: vec![Topology::Mesh {
                    degree: 3,
                    seed: 11,
                }],
                delay_requirements: vec![SimDuration::from_millis(40)],
                chain_deadlines: vec![None],
                bidirectional: false,
                bridge_cycle: SimDuration::from_millis(20),
                horizon: SimTime::from_secs(5),
                warmup: SimDuration::from_millis(500),
                include_be: false,
                be_load_scale: vec![1.0],
                be_source_mix: BeSourceMix::Cbr,
                telemetry: false,
            },
            // comparison_pollers() x {2, 3, 4} piconets x {no deadline,
            // 400 ms} x 10 seeds = 240 bidirectional chain cells of 2
            // simulated seconds with BE load and engine telemetry. Dreq =
            // 46 ms is the `delay_bound_validation` grid's; 400 ms is
            // admitted on four piconets (260 ms is not). Three sizes put
            // the median cell inside the 3-piconet cells; with two sizes
            // it fell on the jump between them.
            Workload::AdmittedChainsSharded => ScenarioGrid {
                pollers: comparison_pollers(),
                piconets: vec![2, 3, 4],
                seeds: cell_seeds(seed, 10),
                topologies: vec![Topology::Chain],
                delay_requirements: vec![SimDuration::from_millis(46)],
                chain_deadlines: vec![None, Some(SimDuration::from_millis(400))],
                bidirectional: true,
                bridge_cycle: SimDuration::from_millis(10),
                horizon: SimTime::from_secs(2),
                warmup: SimDuration::from_millis(500),
                include_be: true,
                be_load_scale: vec![1.0],
                be_source_mix: BeSourceMix::Cbr,
                telemetry: true,
            },
        }
    }

    /// The committed `index hash` lines of the reference grid (one per
    /// cell: the FNV-1a 64 hash of its `GridReport::digest` line).
    pub fn reference(self) -> &'static str {
        match self {
            Workload::Fig5Sweep => include_str!("../../../reference/fig5_sweep.txt"),
            Workload::MeshScatternet => include_str!("../../../reference/mesh_scatternet.txt"),
            Workload::AdmittedChainsSharded => {
                include_str!("../../../reference/admitted_chains_sharded.txt")
            }
        }
    }
}

/// `count` distinct cell seeds derived from the workload seed.
fn cell_seeds(seed: u64, count: u64) -> Vec<u64> {
    (0..count)
        .map(|k| seed.wrapping_mul(1000).wrapping_add(k))
        .collect()
}
