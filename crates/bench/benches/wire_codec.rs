//! Layer benchmark: the grid wire format's frame encode and decode.
//!
//! One cell-result frame of each shape the sharded runner ships — a Fig. 5
//! piconet cell (100 simulated seconds), a 32-piconet mesh cell (5 s) and
//! an admitted 3-piconet bidirectional chain cell with telemetry (2 s) —
//! is encoded with `frame_to_json` and decoded with `frame_from_json`, the
//! calls a worker and the sharded parent make per cell.
//!
//! `median_ns` is ns per frame. Throughput is declared in frame bytes, so
//! `elements_per_sec` is bytes/s; each record is annotated with the exact
//! `frame_bytes` (a deterministic proxy that may gate CI) and the median
//! `ps_per_byte`. Decoding is linear in the frame size, so `ps_per_byte`
//! should stay roughly flat across the three shapes.

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{BeSourceMix, CellOutcome, GridCell, PollerKind, ScenarioGrid, Topology};
use btgs_des::{SimDuration, SimTime};
use btgs_grid::wire::{frame_from_json, frame_to_json, grid_digest};
use std::hint::black_box;

fn grid(
    piconets: u16,
    topology: Topology,
    horizon_s: u64,
    chain_deadline: Option<SimDuration>,
) -> ScenarioGrid {
    let chain = chain_deadline.is_some();
    ScenarioGrid {
        pollers: vec![PollerKind::PfpGs],
        piconets: vec![piconets],
        seeds: vec![1],
        topologies: vec![topology],
        delay_requirements: vec![SimDuration::from_millis(if chain { 46 } else { 40 })],
        chain_deadlines: vec![chain_deadline],
        bidirectional: chain,
        bridge_cycle: SimDuration::from_millis(if chain { 10 } else { 20 }),
        horizon: SimTime::from_secs(horizon_s),
        warmup: SimDuration::from_millis(if piconets == 1 { 2000 } else { 500 }),
        // Mesh cells allocate bridge roles into the best-effort slave
        // range, so they run without the Fig. 4 BE pairs.
        include_be: !matches!(topology, Topology::Mesh { .. }),
        be_load_scale: vec![1.0],
        be_source_mix: BeSourceMix::Cbr,
        telemetry: chain,
    }
}

/// The three frame shapes: (name, grid).
fn shapes() -> [(&'static str, ScenarioGrid); 3] {
    [
        ("piconet_fig5", grid(1, Topology::Chain, 100, None)),
        (
            "mesh32",
            grid(
                32,
                Topology::Mesh {
                    degree: 3,
                    seed: 11,
                },
                5,
                None,
            ),
        ),
        (
            "chain3_telemetry",
            grid(3, Topology::Chain, 2, Some(SimDuration::from_millis(400))),
        ),
    ]
}

fn wire_codec(c: &mut Criterion) {
    for (name, g) in shapes() {
        g.validate().expect("bench grids are admissible");
        let digest = grid_digest(&g);
        let cell: GridCell = g.cells()[0];
        let outcome: CellOutcome = cell.simulate();
        let frame = frame_to_json(digest, 0, &cell, &outcome);
        frame_from_json(&frame).expect("the frame decodes");
        let bytes = frame.len() as u64;

        for op in ["encode", "decode"] {
            let case = format!("wire_codec/{name}_{op}");
            let mut group = c.benchmark_group("wire_codec");
            group.throughput(Throughput::Elements(bytes));
            group.bench_function(&format!("{name}_{op}"), |b| {
                if op == "encode" {
                    b.iter(|| frame_to_json(digest, 0, &cell, &outcome).len())
                } else {
                    b.iter(|| frame_from_json(black_box(&frame)).is_ok())
                }
            });
            let ns = c.median_ns(&case).expect("just measured");
            let ps_per_byte = (ns * 1e3 / bytes as f64).round() as u64;
            println!("    {bytes} frame bytes, {:.2} ns/byte", ns / bytes as f64);
            c.annotate(
                &case,
                &[("frame_bytes", bytes), ("ps_per_byte", ps_per_byte)],
            );
        }
    }
}

criterion_group!(benches, wire_codec);
criterion_main!(benches);
