//! Golden digests of the island engine's instrumentation outputs.
//!
//! The byte-identity tests elsewhere compare two runs of the *same*
//! build. This file pins what the instrumentation emits across commits:
//! FNV-1a 64 digests of
//!
//! * the Perfetto trace JSON plus the telemetry wire JSON of an observed
//!   run (fine events on) of every sanitizer-corpus scenario;
//! * the sanitizer report (findings in order, plus its counters) of the
//!   clean engine and of every seeded [`EngineMutation`] on every corpus
//!   scenario;
//! * the bisector's first divergence `(island, index, at_a, at_b)` and
//!   its aligned context windows for every mutation against the clean
//!   engine on every corpus scenario.
//!
//! A refactor of the instrumentation seam must leave every digest
//! unchanged. When an intended change moves one, the failure message
//! prints the new values to paste in.

use btgs::core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs::des::SimTime;
use btgs::grid::wire::{fnv1a64, telemetry_to_json};
use btgs::piconet::{bisect_runs, EngineMutation, ObsConfig, ScatternetSim, TraceEvent};
use btgs_obs::perfetto_trace_json;
use std::fmt::Write as _;

const HORIZON: SimTime = SimTime::from_secs(1);

/// `(corpus scenario, digest of the Perfetto trace + telemetry JSON)`.
const TRACE_DIGESTS: [(&str, u64); 3] = [
    ("chain", 0xe3fe0c734309e572),
    ("ring", 0x794d0882bd7f0064),
    ("mesh", 0x105210106d640704),
];

/// `(corpus scenario, digest of the clean sanitizer report)`.
const CLEAN_DIGESTS: [(&str, u64); 3] = [
    ("chain", 0xc9873adfe07cf072),
    ("ring", 0x1b38b47387fb6f53),
    ("mesh", 0x7c9fd0f9ec3cc1b8),
];

/// `(mutation, corpus scenario, sanitizer-report digest, bisection
/// digest)`, in [`EngineMutation::ALL`] × corpus order.
const MUTATION_DIGESTS: &[(&str, &str, u64, u64)] = &[
    (
        "boundary-off-by-one",
        "chain",
        0x8a10e5f2819c836f,
        0xbb3a3730ad535112,
    ),
    (
        "boundary-off-by-one",
        "ring",
        0x79b8a05df6becd67,
        0x746235dbf739027a,
    ),
    (
        "boundary-off-by-one",
        "mesh",
        0x10e300fa5308fe06,
        0x889648558ce5bb4f,
    ),
    (
        "relay-behind-clock",
        "chain",
        0x1ff2bfa90bd35d65,
        0x1cbf55fbae3b9c32,
    ),
    (
        "relay-behind-clock",
        "ring",
        0x17c1cdd243e84f4b,
        0x7e9749971138185b,
    ),
    (
        "relay-behind-clock",
        "mesh",
        0xf2ec6028c334f1bf,
        0x2b4a69f32f2897da,
    ),
    (
        "unsorted-staging-drain",
        "chain",
        0xe11ff50b28a41463,
        0x3a5819abcbdd047c,
    ),
    (
        "unsorted-staging-drain",
        "ring",
        0xc4659956664404cb,
        0x6c7132a9046789c1,
    ),
    (
        "unsorted-staging-drain",
        "mesh",
        0x8e58e5833fb5eccd,
        0x5d8bbf7992af2898,
    ),
    (
        "widening-past-hot-boundary",
        "chain",
        0xe0b02cfa1b018bf5,
        0x6a0c592b6da74788,
    ),
    (
        "widening-past-hot-boundary",
        "ring",
        0xb7e16b221bf1cbbb,
        0xee6799ba1a6e6525,
    ),
    (
        "widening-past-hot-boundary",
        "mesh",
        0xe42dd8f63b0fd2ec,
        0x7fe51ebfe2fe7e9c,
    ),
    (
        "dropped-relay",
        "chain",
        0x0a54134a94f02d9a,
        0xe5a41ca0ef4da7d1,
    ),
    (
        "dropped-relay",
        "ring",
        0xd07b8f811cafcf82,
        0xa6cd459c088ff8e6,
    ),
    (
        "dropped-relay",
        "mesh",
        0x03a0cf735e07c85a,
        0xb9c52607012b53b3,
    ),
    (
        "duplicated-relay",
        "chain",
        0xea295d670037f9e1,
        0xdd5eec9a4f997363,
    ),
    (
        "duplicated-relay",
        "ring",
        0x8da8ff5f4ec0e2cd,
        0xfb91d29c66eca791,
    ),
    (
        "duplicated-relay",
        "mesh",
        0xce6c86595ccd082c,
        0x31bd2360e4793da2,
    ),
];

fn build_sim(params: ScatternetScenarioParams) -> ScatternetSim {
    ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .expect("corpus scenario builds")
}

fn hex(v: u64) -> String {
    format!("0x{v:016x}")
}

/// The sanitizer side of one sanitized run, as pinned bytes: the full
/// report `Debug` (findings in order, then the counters) and whether the
/// run kept its scatternet report.
fn sanitizer_digest(sim: ScatternetSim) -> u64 {
    let run = sim.run_sanitized(HORIZON).expect("sanitized run completes");
    let text = format!("{:?} report={}", run.sanitizer, run.report.is_some());
    fnv1a64(text.as_bytes())
}

fn window_text(out: &mut String, window: &[TraceEvent]) {
    for e in window {
        let _ = writeln!(
            out,
            "{} {:?} {} {} {} {:016x}",
            e.index, e.at, e.kind as u64, e.a, e.b, e.hash
        );
    }
}

#[test]
fn observed_trace_and_telemetry_bytes_are_pinned() {
    let mut got = Vec::new();
    for (label, params) in sanitizer_corpus() {
        let piconets = params.piconets as usize;
        let cfg = ObsConfig {
            fine_events: true,
            ..ObsConfig::default()
        };
        let run = build_sim(params)
            .run_observed(HORIZON, cfg)
            .expect("observed run completes");
        let mut bytes = perfetto_trace_json(&run.trace, piconets);
        bytes.push_str(&telemetry_to_json(&run.telemetry));
        got.push((label, fnv1a64(bytes.as_bytes())));
    }
    let want: Vec<(&str, u64)> = TRACE_DIGESTS.to_vec();
    assert_eq!(
        got.iter().map(|&(l, d)| (l, hex(d))).collect::<Vec<_>>(),
        want.iter().map(|&(l, d)| (l, hex(d))).collect::<Vec<_>>(),
        "observed trace/telemetry bytes moved"
    );
}

#[test]
fn clean_sanitizer_reports_are_pinned() {
    let got: Vec<(&str, String)> = sanitizer_corpus()
        .into_iter()
        .map(|(label, params)| (label, hex(sanitizer_digest(build_sim(params)))))
        .collect();
    let want: Vec<(&str, String)> = CLEAN_DIGESTS.iter().map(|&(l, d)| (l, hex(d))).collect();
    assert_eq!(got, want, "clean sanitizer reports moved");
}

#[test]
fn mutation_findings_and_divergences_are_pinned() {
    let mut got = Vec::new();
    for mutation in EngineMutation::ALL {
        for (label, params) in sanitizer_corpus() {
            let findings = sanitizer_digest(build_sim(params).with_mutation(mutation));
            let bisect = bisect_runs(
                &|| build_sim(params),
                &|| build_sim(params).with_mutation(mutation),
                HORIZON,
                8,
            )
            .expect("bisection runs");
            let mut text = format!(
                "events_a={} events_b={}\n",
                bisect.events_a, bisect.events_b
            );
            if let Some(d) = &bisect.divergence {
                let _ = writeln!(
                    text,
                    "island={} index={} at_a={:?} at_b={:?}",
                    d.island, d.index, d.at_a, d.at_b
                );
                window_text(&mut text, &d.window_a);
                text.push_str("--\n");
                window_text(&mut text, &d.window_b);
            }
            got.push((
                mutation.name(),
                label,
                hex(findings),
                hex(fnv1a64(text.as_bytes())),
            ));
        }
    }
    let want: Vec<(&str, &str, String, String)> = MUTATION_DIGESTS
        .iter()
        .map(|&(m, l, f, d)| (m, l, hex(f), hex(d)))
        .collect();
    assert_eq!(got, want, "mutation findings or divergences moved");
}
