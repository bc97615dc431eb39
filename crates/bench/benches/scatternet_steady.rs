//! Macro-benchmark: simulated seconds per wall second for the chained
//! scatternet scenario (2, 3, 8 and 16 Fig. 4 piconets plus an 8-piconet
//! ring, one bridged GS flow per chain) and random-geometric meshes of 64
//! and 256 piconets (degree-3, every spanning edge covered by a relay
//! chain).
//!
//! Throughput is declared in engine events (measured from a probe run),
//! so the JSON output records events/sec alongside ns/op — the same
//! convention as `sim_steady`. The single-piconet `sim_steady` numbers
//! are the baseline: a scatternet run costs roughly the sum of its
//! piconets plus the (small) relay fabric.
//!
//! Each probe run also prints the engine's observability counters
//! (`phases_run`, `islands_claimed`, `relays_staged`)
//! and annotates them into the JSON trajectory record, so the effect of
//! phase batching and adaptive widening on the round structure is
//! tracked across PRs alongside the wall clock.
//!
//! The `sanitized` twin runs one small scenario through
//! [`ScatternetSim::run_sanitized`] — the engine instantiated with the
//! causality sanitizer as its observer. Its cost rides *only* on that
//! twin: every other case runs the engine instantiated with `()`, whose
//! hooks compile to nothing, so the trajectories above double as the
//! regression gate that attaching the sanitizer costs the production
//! engine nothing.
//!
//! The `telemetry` twin runs the same scenario through
//! [`ScatternetSim::run_with_telemetry`]: the uninstrumented engine with
//! its per-phase and per-claim histograms on — what a grid cell with
//! `telemetry: true` pays. Next to `chained3_5s_simulated` it shows what
//! the histograms cost.
//!
//! [`ScatternetSim::run_sanitized`]: btgs_piconet::ScatternetSim::run_sanitized
//! [`ScatternetSim::run_with_telemetry`]: btgs_piconet::ScatternetSim::run_with_telemetry

use btgs_bench::microbench::{Criterion, Throughput};
use btgs_bench::{criterion_group, criterion_main};
use btgs_core::{BeSourceMix, PollerKind, ScatternetScenario, ScatternetScenarioParams, Topology};
use btgs_des::{SimDuration, SimTime};
use std::hint::black_box;

fn params(piconets: u16, topology: Topology) -> ScatternetScenarioParams {
    // Mesh cells allocate bridge roles down from S7 into the best-effort
    // slave range, so they run without the Fig. 4 BE pairs.
    let include_be = !matches!(topology, Topology::Mesh { .. });
    ScatternetScenarioParams {
        piconets,
        delay_requirement: SimDuration::from_millis(40),
        seed: 1,
        warmup: SimDuration::from_millis(500),
        include_be,
        bridge_cycle: SimDuration::from_millis(20),
        chain_deadline: None,
        bidirectional: false,
        be_load_scale: 1.0,
        be_source_mix: BeSourceMix::Cbr,
        topology,
    }
}

fn run(piconets: u16, topology: Topology) -> btgs_piconet::ScatternetReport {
    let scenario = ScatternetScenario::build(params(piconets, topology));
    scenario
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .run(SimTime::from_secs(5))
        .expect("scenario runs")
}

fn scatternet_throughput(c: &mut Criterion) {
    let mesh = Topology::Mesh {
        degree: 3,
        seed: 11,
    };
    let cases: &[(&str, u16, Topology)] = &[
        ("chained2", 2, Topology::Chain),
        ("chained3", 3, Topology::Chain),
        ("chained8", 8, Topology::Chain),
        ("chained16", 16, Topology::Chain),
        ("ring8", 8, Topology::Ring),
        ("mesh64", 64, mesh),
        ("mesh256", 256, mesh),
    ];
    let mut group = c.benchmark_group("scatternet_steady");
    group.sample_size(10);
    for &(name, n, topology) in cases {
        // One probe run per scenario supplies the event count for the
        // events/sec figure (runs are deterministic, so it is exact) and
        // the engine counters for the trajectory record.
        let probe = run(n, topology);
        let events = probe.events_processed;
        println!(
            "{name:<44} {} phases, {} islands claimed, {} relays staged",
            probe.phases_run, probe.islands_claimed, probe.relays_staged,
        );
        group.throughput(Throughput::Elements(events));
        group.bench_function(&format!("{name}_5s_simulated"), |b| {
            b.iter(|| black_box(run(n, topology).total_throughput_kbps()))
        });
        group.annotate(
            &format!("{name}_5s_simulated"),
            &[
                ("phases_run", probe.phases_run),
                ("islands_claimed", probe.islands_claimed),
                ("relays_staged", probe.relays_staged),
            ],
        );
    }
    // The sanitized and telemetry twins: the chained-3 scenario under
    // the causality sanitizer, and on the plain engine with its telemetry
    // histograms on. Tracks each one's own overhead; the default cases
    // above stay on the compiled-out path.
    let twin_probe = run(3, Topology::Chain);
    group.throughput(Throughput::Elements(twin_probe.events_processed));
    group.bench_function("chained3_5s_sanitized", |b| {
        b.iter(|| {
            let sanitized = ScatternetScenario::build(params(3, Topology::Chain))
                .simulator(PollerKind::PfpGs)
                .expect("scenario builds")
                .run_sanitized(SimTime::from_secs(5))
                .expect("scenario runs");
            assert!(sanitized.sanitizer.clean(), "clean engine tripped");
            black_box(sanitized.sanitizer.events_checked)
        })
    });
    group.bench_function("chained3_5s_telemetry", |b| {
        b.iter(|| {
            let (report, telemetry) = ScatternetScenario::build(params(3, Topology::Chain))
                .simulator(PollerKind::PfpGs)
                .expect("scenario builds")
                .run_with_telemetry(SimTime::from_secs(5))
                .expect("scenario runs");
            black_box((
                report.total_throughput_kbps(),
                telemetry.events_per_claim.count,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, scatternet_throughput);
criterion_main!(benches);
