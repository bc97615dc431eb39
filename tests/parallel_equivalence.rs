//! Differential end-to-end test for the island engine's serial order
//! and engine toggles.
//!
//! The scatternet simulator advances each piconet island in turn to
//! conservative phase boundaries derived from the bridge rendezvous
//! schedule. The island visit order ([`ScatternetSim::with_island_shuffle`])
//! never changes the order in which staged relay handoffs are injected,
//! and the adaptive-widening / phase-batching toggles only change *how
//! many* rounds the engine steps through, never what each island
//! observes. The contract: the full [`ScatternetReport`] — every delay
//! sample, ledger cell, counter and the event count — is byte-identical
//! across topologies (mesh included), pollers, seeds, deterministically
//! shuffled island visit orders, all four widening × batching
//! combinations, and with the tracing layer switched on. Only the
//! engine-observability counters (`phases_run`, `islands_claimed`,
//! `relays_staged`, `relays_injected`, `widening_stretches`,
//! `islands_skipped_idle`) are excluded: they describe the execution,
//! not the simulation.
//!
//! [`ScatternetReport`]: btgs::piconet::ScatternetReport
//! [`ScatternetSim::with_island_shuffle`]: btgs::piconet::ScatternetSim::with_island_shuffle

use btgs::core::{PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs::des::{SimDuration, SimTime};

/// The engine-observability counter fields excluded from byte-identity
/// (`events_processed` stays in: the same events fire in every
/// configuration).
const ENGINE_COUNTERS: [&str; 6] = [
    "phases_run",
    "islands_claimed",
    "relays_staged",
    "widening_stretches",
    "islands_skipped_idle",
    "relays_injected",
];

#[derive(Clone, Copy)]
struct EngineKnobs {
    shuffle: Option<u64>,
    widening: bool,
    batching: bool,
}

impl EngineKnobs {
    const DEFAULT: EngineKnobs = EngineKnobs {
        shuffle: None,
        widening: true,
        batching: true,
    };
}

fn digest(
    params: ScatternetScenarioParams,
    kind: PollerKind,
    knobs: EngineKnobs,
    horizon: SimTime,
) -> String {
    let scenario = ScatternetScenario::build(params);
    let mut sim = scenario
        .simulator(kind)
        .expect("scenario builds")
        .with_phase_widening(knobs.widening)
        .with_phase_batching(knobs.batching);
    if let Some(seed) = knobs.shuffle {
        sim = sim.with_island_shuffle(seed);
    }
    let report = sim.run(horizon).expect("scenario runs");
    format!("{report:#?}")
        .lines()
        .filter(|l| !ENGINE_COUNTERS.iter().any(|c| l.contains(c)))
        .collect::<Vec<_>>()
        .join("\n")
}

fn params_for(topology: &str, seed: u64) -> ScatternetScenarioParams {
    let mut params = match topology {
        "chain" => ScatternetScenarioParams::chained(4),
        "ring" => ScatternetScenarioParams::ring(4),
        "tree" => ScatternetScenarioParams::tree(5),
        "mesh" => ScatternetScenarioParams::mesh(12, 3, 5),
        other => panic!("unknown topology {other}"),
    };
    params.seed = seed;
    params.warmup = SimDuration::from_millis(500);
    params
}

#[test]
fn widening_and_batching_toggles_are_free_of_observable_effects() {
    // The adaptive engine's whole correctness claim: widened phases and
    // skipped islands change the round structure only. Every widening ×
    // batching combination must reproduce the default report byte for
    // byte — on the mesh too, where skipping and widening actually
    // trigger.
    let horizon = SimTime::from_secs(2);
    for topology in ["chain", "mesh"] {
        let base = digest(
            params_for(topology, 1),
            PollerKind::PfpGs,
            EngineKnobs::DEFAULT,
            horizon,
        );
        for widening in [true, false] {
            for batching in [true, false] {
                let knobs = EngineKnobs {
                    shuffle: None,
                    widening,
                    batching,
                };
                let other = digest(params_for(topology, 1), PollerKind::PfpGs, knobs, horizon);
                assert_eq!(
                    base, other,
                    "report diverged ({topology}, widening {widening}, batching {batching})"
                );
            }
        }
    }
}

#[test]
fn island_claim_order_is_free_of_observable_effects() {
    // The staged-relay injection order is sorted, so the island visit
    // order must not move the report by a single byte — for both pollers
    // across every topology at seed 1, plus two more chain seeds.
    let horizon = SimTime::from_secs(2);
    let mut cases: Vec<(PollerKind, &str, u64)> = Vec::new();
    for kind in [PollerKind::PfpGs, PollerKind::FixedGs] {
        for topology in ["chain", "ring", "tree", "mesh"] {
            cases.push((kind, topology, 1));
        }
    }
    cases.push((PollerKind::PfpGs, "chain", 7));
    cases.push((PollerKind::PfpGs, "chain", 23));
    for (kind, topology, seed) in cases {
        let base = digest(
            params_for(topology, seed),
            kind,
            EngineKnobs::DEFAULT,
            horizon,
        );
        for shuffle in [3u64, 99] {
            let knobs = EngineKnobs {
                shuffle: Some(shuffle),
                ..EngineKnobs::DEFAULT
            };
            let shuffled = digest(params_for(topology, seed), kind, knobs, horizon);
            assert_eq!(
                base, shuffled,
                "island shuffle {shuffle} changed the report ({kind:?}, {topology}, seed {seed})"
            );
        }
    }
}

#[test]
fn tracing_on_reports_and_traces_are_byte_identical() {
    // The observability twin of the byte-identity contract. With the
    // trace ring and telemetry switched ON: (a) the simulated report must
    // not move by a byte relative to the plain engine, (b) the exported
    // Perfetto trace itself must be byte-identical across shuffled
    // island visit orders — the merged record order `(start_ns, track,
    // seq)` is a total order derived from simulated time, never from the
    // order the islands ran in — and (c) the uninstrumented telemetry
    // path must agree with both.
    use btgs::piconet::ObsConfig;
    use btgs_obs::perfetto_trace_json;

    let horizon = SimTime::from_secs(2);
    let observed = |knobs: EngineKnobs| -> (String, String) {
        let params = params_for("chain", 7);
        let piconets = params.piconets as usize;
        let mut sim = ScatternetScenario::build(params)
            .simulator(PollerKind::PfpGs)
            .expect("scenario builds")
            .with_phase_widening(knobs.widening)
            .with_phase_batching(knobs.batching);
        if let Some(seed) = knobs.shuffle {
            sim = sim.with_island_shuffle(seed);
        }
        let run = sim
            .run_observed(horizon, ObsConfig::default())
            .expect("scenario runs");
        let filtered = format!("{:#?}", run.report)
            .lines()
            .filter(|l| !ENGINE_COUNTERS.iter().any(|c| l.contains(c)))
            .collect::<Vec<_>>()
            .join("\n");
        (filtered, perfetto_trace_json(&run.trace, piconets))
    };

    let plain = digest(
        params_for("chain", 7),
        PollerKind::PfpGs,
        EngineKnobs::DEFAULT,
        horizon,
    );
    let (base_report, base_trace) = observed(EngineKnobs::DEFAULT);
    assert_eq!(
        plain, base_report,
        "switching instrumentation on moved the simulated report"
    );
    assert!(
        base_trace.contains("\"traceEvents\""),
        "exporter produced a trace envelope"
    );
    for shuffle in [3u64, 99] {
        let knobs = EngineKnobs {
            shuffle: Some(shuffle),
            ..EngineKnobs::DEFAULT
        };
        let (report, trace) = observed(knobs);
        assert_eq!(
            plain, report,
            "observed report diverged (shuffle {shuffle})"
        );
        assert_eq!(
            base_trace, trace,
            "exported trace diverged (shuffle {shuffle})"
        );
    }

    // Telemetry without the tracer: the plain engine with its histograms
    // on must report exactly what the plain run reports (engine counters
    // included — same configuration) and produce the traced run's
    // telemetry field for field.
    let sim = |topology: &str, kind: PollerKind, knobs: EngineKnobs| {
        let mut sim = ScatternetScenario::build(params_for(topology, 7))
            .simulator(kind)
            .expect("scenario builds")
            .with_phase_widening(knobs.widening)
            .with_phase_batching(knobs.batching);
        if let Some(seed) = knobs.shuffle {
            sim = sim.with_island_shuffle(seed);
        }
        sim
    };
    for topology in ["chain", "ring", "mesh"] {
        for kind in [PollerKind::PfpGs, PollerKind::FixedGs] {
            for shuffle in [None, Some(3u64), Some(99)] {
                for (widening, batching) in
                    [(true, true), (true, false), (false, true), (false, false)]
                {
                    let knobs = EngineKnobs {
                        shuffle,
                        widening,
                        batching,
                    };
                    let case = format!(
                        "{topology}, {kind:?}, shuffle {shuffle:?}, \
                         widening {widening}, batching {batching}"
                    );
                    let (report, telemetry) = sim(topology, kind, knobs)
                        .run_with_telemetry(horizon)
                        .expect("scenario runs");
                    let traced = sim(topology, kind, knobs)
                        .run_observed(horizon, ObsConfig::default())
                        .expect("scenario runs");
                    let plain = sim(topology, kind, knobs)
                        .run(horizon)
                        .expect("scenario runs");
                    assert_eq!(
                        telemetry, traced.telemetry,
                        "telemetry diverged from the traced run's ({case})"
                    );
                    assert!(
                        telemetry.events_per_claim.count > 0,
                        "histograms recorded ({case})"
                    );
                    assert_eq!(
                        format!("{report:#?}"),
                        format!("{plain:#?}"),
                        "telemetry run moved the report ({case})"
                    );
                }
            }
        }
    }
}

#[test]
fn longest_chain_still_composes_admitted_bounds() {
    // The admission path (guaranteed hop entities, composed bounds) rides
    // through the same engine: an admitted chain's measured worst case
    // must stay inside its composed bound.
    let mut params = ScatternetScenarioParams::chained(3);
    params.delay_requirement = SimDuration::from_millis(46);
    params.bridge_cycle = SimDuration::from_millis(10);
    params.warmup = SimDuration::from_millis(500);
    params.chain_deadline = Some(SimDuration::from_millis(260));
    let scenario = ScatternetScenario::build(params);
    let report = scenario
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .run(SimTime::from_secs(3))
        .expect("scenario runs");
    let grant = &scenario.chain_grants[0];
    let chain = &report.chains[0];
    assert!(chain.delivered_packets > 50);
    assert!(chain.e2e.max().expect("chain delivered") <= grant.composed_bound);
}

#[test]
fn mesh_admitted_chains_compose_bounds_at_scale() {
    // The 64-piconet mesh admission check: every spanning-path chain is
    // admitted atomically against a generous end-to-end deadline, and
    // each one's measured worst case honours its composed bound under the
    // adaptive engine.
    // Degree 2: under the paper's conservative segment accounting
    // (`s = U = 3.75 ms`) a third guaranteed bridge entity would need
    // `x >= 3U = 11.25 ms`, above the presence-compensated poll-interval
    // ceiling at any workable rendezvous cycle — so guarantee-mode meshes
    // cap at two bridge entities per piconet. Denser meshes are exercised
    // in measured-only mode by the byte-identity tests above.
    let mut params = ScatternetScenarioParams::mesh(64, 2, 11);
    params.delay_requirement = SimDuration::from_millis(46);
    params.bridge_cycle = SimDuration::from_millis(10);
    params.warmup = SimDuration::from_millis(500);
    params.chain_deadline = Some(SimDuration::from_millis(600));
    let scenario = ScatternetScenario::build(params);
    assert_eq!(scenario.chain_grants.len(), scenario.config.chains.len());
    let report = scenario
        .simulator(PollerKind::PfpGs)
        .expect("scenario builds")
        .run(SimTime::from_secs(2))
        .expect("scenario runs");
    let mut delivered_total = 0;
    for (ci, chain) in report.chains.iter().enumerate() {
        let grant = &scenario.chain_grants[ci];
        delivered_total += chain.delivered_packets;
        if let Some(measured) = chain.e2e.max() {
            assert!(
                measured <= grant.composed_bound,
                "mesh chain {ci}: measured e2e max {measured} exceeds the \
                 composed bound {}",
                grant.composed_bound
            );
        }
    }
    assert!(
        delivered_total > 200,
        "mesh chains delivered only {delivered_total} packets"
    );
}
