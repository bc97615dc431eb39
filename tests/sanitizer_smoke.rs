//! The standing engine gate at a short horizon: the causality sanitizer
//! over the sanitizer corpus (chain, ring, mesh).
//!
//! Each corpus scenario runs for one simulated second twice, plainly and
//! under [`ScatternetSim::run_sanitized`]. The sanitized run must report
//! zero findings and return a report byte-identical to the plain one —
//! engine counters included, since both runs step through the same
//! rounds. One seeded engine mutation (a relay dropped from the pool)
//! must trip the conservation check, so a sanitizer that silently stopped
//! checking would fail here too. The full mutation corpus and the
//! bisector live in `crates/piconet/tests/sanitizer_mutations.rs`.
//!
//! [`ScatternetSim::run_sanitized`]: btgs::piconet::ScatternetSim::run_sanitized

use btgs::core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs::des::SimTime;
use btgs::piconet::{EngineMutation, SanitizerCheck, ScatternetSim};

const HORIZON: SimTime = SimTime::from_secs(1);

fn build_sim(params: ScatternetScenarioParams) -> ScatternetSim {
    ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .expect("corpus scenario builds")
}

#[test]
fn corpus_sanitizes_clean_with_unchanged_reports() {
    for (label, params) in sanitizer_corpus() {
        let plain = build_sim(params).run(HORIZON).expect("plain run");
        let run = build_sim(params)
            .run_sanitized(HORIZON)
            .expect("sanitized run");
        assert!(
            run.sanitizer.clean(),
            "{label}: clean engine produced findings:\n{:#?}",
            run.sanitizer.findings
        );
        assert!(
            run.sanitizer.events_checked > 0 && run.sanitizer.relays_tracked > 0,
            "{label}: the sanitizer saw no events or no relays"
        );
        let sanitized = run.report.expect("a clean sanitized run keeps its report");
        assert!(
            plain.relays_staged > 0,
            "{label}: no relay crossed a bridge"
        );
        assert_eq!(
            format!("{plain:#?}"),
            format!("{sanitized:#?}"),
            "{label}: enabling the sanitizer moved report bytes"
        );
    }
}

#[test]
fn a_dropped_relay_is_caught() {
    let (label, params) = sanitizer_corpus()[0];
    let run = build_sim(params)
        .with_mutation(EngineMutation::DroppedRelay)
        .run_sanitized(HORIZON)
        .expect("mutated run completes");
    assert!(
        run.sanitizer
            .findings
            .iter()
            .any(|f| f.check == SanitizerCheck::Conservation),
        "{label}: dropped relay not caught by the conservation check:\n{:#?}",
        run.sanitizer.findings
    );
    assert!(
        run.report.is_none(),
        "{label}: a tripped sanitized run must withhold its report"
    );
}
