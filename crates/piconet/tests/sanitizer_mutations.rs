//! The seeded-mutation corpus: proof that the causality sanitizer and the
//! divergence bisector have teeth.
//!
//! Every [`EngineMutation`] — a deliberately broken engine variant behind
//! a test-only hook — must be (a) *caught* by the sanitizer with the
//! expected check on at least one corpus scenario, and (b) *localized* by
//! the bisector to a first diverging event against the clean engine on
//! that same scenario. The clean engine must produce zero findings across
//! every corpus topology (chain, ring, mesh), and attaching the sanitizer
//! must not move a single report byte — the
//! instrumentation observes the simulation, never steers it.
//!
//! The corpus scenarios come from [`btgs_core::sanitizer_corpus`], the
//! same trio the `btgs-analyze -- --bisect` CLI and CI's sanitized smoke
//! run use.

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs_des::SimTime;
use btgs_piconet::{bisect_runs, EngineMutation, SanitizerCheck, ScatternetSim};

/// The engine-observability counters excluded from byte-identity, exactly
/// as in `tests/parallel_equivalence.rs`.
const ENGINE_COUNTERS: [&str; 6] = [
    "phases_run",
    "islands_claimed",
    "relays_staged",
    "widening_stretches",
    "islands_skipped_idle",
    "relays_injected",
];

const HORIZON: SimTime = SimTime::from_millis(1500);

fn build_sim(params: ScatternetScenarioParams) -> ScatternetSim {
    ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .expect("corpus scenario builds")
}

fn digest(report: &btgs_piconet::ScatternetReport) -> String {
    format!("{report:#?}")
        .lines()
        .filter(|l| !ENGINE_COUNTERS.iter().any(|c| l.contains(c)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The sanitizer check each mutation must trip.
fn expected_check(m: EngineMutation) -> SanitizerCheck {
    match m {
        EngineMutation::BoundaryOffByOne => SanitizerCheck::WideningBoundary,
        EngineMutation::RelayBehindClock => SanitizerCheck::LookaheadSafety,
        EngineMutation::UnsortedStagingDrain => SanitizerCheck::InjectionOrder,
        EngineMutation::WideningPastHotBoundary => SanitizerCheck::WideningBoundary,
        EngineMutation::DroppedRelay => SanitizerCheck::Conservation,
        EngineMutation::DuplicatedRelay => SanitizerCheck::Conservation,
    }
}

#[test]
fn clean_engine_has_zero_findings_across_corpus() {
    for (label, params) in sanitizer_corpus() {
        let run = build_sim(params)
            .run_sanitized(HORIZON)
            .expect("clean corpus run succeeds");
        assert!(
            run.sanitizer.clean(),
            "{label}: clean engine produced findings:\n{:#?}",
            run.sanitizer.findings
        );
        assert!(
            run.report.is_some(),
            "{label}: clean sanitized run must keep its report"
        );
        assert!(
            run.sanitizer.events_checked > 0,
            "{label}: sanitizer observed no events — the observer seam is dead"
        );
        assert!(
            run.sanitizer.relays_tracked > 0,
            "{label}: sanitizer tracked no relays — corpus traffic never bridges"
        );
        // Conservation, now confirmable from the report alone: every
        // staged relay was injected or is still pooled at the horizon.
        let report = run.report.as_ref().expect("checked above");
        assert!(
            report.relays_injected <= report.relays_staged,
            "{label}: more relays injected than staged"
        );
        assert_eq!(
            report.relays_staged,
            report.relays_injected + run.sanitizer.relays_leftover,
            "{label}: staged relays neither injected nor pooled at the horizon"
        );
    }
}

#[test]
fn sanitizer_leaves_report_bytes_unchanged() {
    for (label, params) in sanitizer_corpus() {
        let plain = build_sim(params).run(HORIZON).expect("plain run");
        let sanitized = build_sim(params)
            .run_sanitized(HORIZON)
            .expect("sanitized run");
        assert_eq!(
            digest(&plain),
            digest(sanitized.report.as_ref().expect("clean run keeps report")),
            "{label}: enabling the sanitizer moved report bytes"
        );
    }
}

#[test]
fn every_mutation_is_caught_and_bisector_localized() {
    for mutation in EngineMutation::ALL {
        let want = expected_check(mutation);
        let mut caught_on: Option<&'static str> = None;
        for (label, params) in sanitizer_corpus() {
            let run = build_sim(params)
                .with_mutation(mutation)
                .run_sanitized(HORIZON)
                .expect("mutated corpus run completes");
            if run.sanitizer.clean() {
                continue;
            }
            assert!(
                run.sanitizer.findings.iter().any(|f| f.check == want),
                "{label}: mutation {} caught, but not by the {want} check:\n{:#?}",
                mutation.name(),
                run.sanitizer.findings
            );
            assert!(
                run.report.is_none(),
                "{label}: a tripped sanitized run must withhold its report"
            );

            // The bisector must localize the same break without any
            // sanitizer attached: clean vs mutated traces diverge at a
            // concrete first event.
            let bisect = bisect_runs(
                &|| build_sim(params),
                &|| build_sim(params).with_mutation(mutation),
                HORIZON,
                8,
            )
            .expect("bisection runs");
            let div = bisect.divergence.as_ref().unwrap_or_else(|| {
                panic!(
                    "{label}: mutation {} tripped the sanitizer but left \
                     byte-identical traces",
                    mutation.name()
                )
            });
            let rendered = bisect.render();
            assert!(
                rendered.contains("first divergence"),
                "render must name the divergence:\n{rendered}"
            );
            assert!(
                !div.window_a.is_empty() || !div.window_b.is_empty(),
                "{label}: divergence window is empty:\n{rendered}"
            );
            caught_on = Some(label);
            break;
        }
        assert!(
            caught_on.is_some(),
            "mutation {} was not caught on any corpus scenario",
            mutation.name()
        );
    }
}
