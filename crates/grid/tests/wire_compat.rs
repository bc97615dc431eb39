//! Wire compatibility with frames written before the `barrier_rounds`
//! engine counter was removed.
//!
//! The two fixtures are cell frames of a 2-piconet chain cell (seed 1,
//! 300 ms) as the previous encoder wrote them: one plain scatternet
//! frame, and one carrying engine telemetry. Both still carry
//! `"barrier_rounds":0`. The decoder ignores unknown keys, so each must
//! decode — directly and replayed from a checkpoint file — to the same
//! `CellResult` digest as a fresh run of the same cell. The fresh frame
//! must also equal the old one byte for byte once the removed key is
//! dropped: the serial island engine simulates exactly what it did before.

use btgs_core::{
    BeSourceMix, CellOutcome, CellResult, GridCell, GridReport, PollerKind, ScenarioGrid, Topology,
};
use btgs_des::{SimDuration, SimTime};
use btgs_grid::wire::{frame_from_json, frame_to_json, grid_digest, write_frame};
use btgs_grid::{GridPartitioner, ShardedGridRunner};

/// Old frames: `(payload, grid telemetry flag)`.
const OLD_FRAMES: [(&str, bool); 2] = [
    (
        include_str!("fixtures/scatternet_frame_barrier_rounds.json"),
        false,
    ),
    (
        include_str!("fixtures/telemetry_frame_barrier_rounds.json"),
        true,
    ),
];

/// The one-cell grid the fixtures were encoded from.
fn grid(telemetry: bool) -> ScenarioGrid {
    ScenarioGrid {
        pollers: vec![PollerKind::PfpGs],
        piconets: vec![2],
        seeds: vec![1],
        topologies: vec![Topology::Chain],
        delay_requirements: vec![SimDuration::from_millis(40)],
        chain_deadlines: vec![None],
        bidirectional: false,
        bridge_cycle: SimDuration::from_millis(20),
        horizon: SimTime::from_millis(300),
        warmup: SimDuration::from_millis(100),
        include_be: false,
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry,
    }
}

fn digest(cell: GridCell, outcome: CellOutcome) -> String {
    GridReport {
        cells: vec![CellResult::reassemble(cell, outcome)],
    }
    .digest()
}

#[test]
fn old_frames_decode_like_current_frames() {
    for (old, telemetry) in OLD_FRAMES {
        let old = old.trim_end();
        assert!(old.contains("\"barrier_rounds\":0"), "fixture lost its key");
        let grid = grid(telemetry);
        let cell = grid.cells()[0];
        let current = frame_to_json(grid_digest(&grid), 0, &cell, &cell.simulate());
        assert!(!current.contains("barrier_rounds"));
        assert_eq!(
            old.replace("\"barrier_rounds\":0,", ""),
            current,
            "the frame changed beyond the removed key (telemetry {telemetry})"
        );

        let old_frame = frame_from_json(old).expect("an old frame decodes");
        let new_frame = frame_from_json(&current).expect("a current frame decodes");
        assert_eq!(old_frame.grid_digest, grid_digest(&grid));
        assert_eq!((old_frame.index, old_frame.cell), (0, cell));
        if let (
            CellOutcome::Scatternet(_, old_telemetry),
            CellOutcome::Scatternet(_, new_telemetry),
        ) = (&old_frame.outcome, &new_frame.outcome)
        {
            assert_eq!(old_telemetry.is_some(), telemetry);
            assert_eq!(old_telemetry, new_telemetry);
        } else {
            panic!("a scatternet cell decodes to a scatternet outcome");
        }
        assert_eq!(
            digest(cell, old_frame.outcome),
            digest(cell, new_frame.outcome)
        );
    }
}

#[test]
fn old_checkpoints_replay() {
    for (old, telemetry) in OLD_FRAMES {
        let grid = grid(telemetry);
        let dir = std::env::temp_dir().join(format!(
            "btgs-wire-compat-{}-{telemetry}",
            std::process::id()
        ));
        // No worker binary: a checkpoint that failed to replay would need
        // one, so the run would fail instead of passing.
        let runner = ShardedGridRunner::new(&dir.join("no-such-worker"), &dir, 1).with_retries(0);
        let shards = GridPartitioner::new().partition(&grid);
        assert_eq!(shards.len(), 1);
        let mut checkpoint = Vec::new();
        write_frame(&mut checkpoint, old.trim_end()).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(runner.checkpoint_path(&shards[0]), checkpoint).unwrap();

        let outcome = runner.run(&grid).expect("the old checkpoint replays");
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(outcome.replayed_cells, 1);
        assert_eq!(outcome.executed_cells, 0);
        let fresh = GridReport {
            cells: grid.cells().iter().map(GridCell::run).collect(),
        };
        assert_eq!(outcome.report.digest(), fresh.digest());
    }
}
