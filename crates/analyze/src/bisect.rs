//! The divergence bisector CLI surface.
//!
//! When two engine configurations that must be byte-identical (widening
//! on/off, batching on/off, a shuffled claim order) ever disagree, a
//! failing report-digest assertion says *that* they diverged, not
//! *where*. This module wraps [`btgs_piconet::bisect_runs`] — full-trace
//! rolling hashes per island, binary search to the first diverging event,
//! a re-run capturing the aligned context window — behind the
//! `btgs-analyze -- --bisect` flag, running both configurations over a
//! scenario from the shared [`sanitizer_corpus`] (the same trio the
//! mutation-corpus tests and CI's sanitized smoke prove the engine on).
//!
//! The baseline is always the default engine; `--vs` specifies the
//! configuration under suspicion, e.g. `shuffle=7|widening=off`.

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario, ScatternetScenarioParams};
use btgs_des::SimTime;
use btgs_piconet::{bisect_runs, BisectReport, ScatternetSim};

/// One engine configuration of a bisection, parsed from a `--vs` spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BisectSpec {
    /// Adaptive phase widening (`widening=on|off`).
    pub widening: bool,
    /// Phase batching / idle skipping (`batching=on|off`).
    pub batching: bool,
    /// Deterministic island claim-order shuffle (`shuffle=SEED`).
    pub shuffle: Option<u64>,
}

impl BisectSpec {
    /// The reference configuration every bisection compares against: the
    /// default engine.
    pub fn baseline() -> BisectSpec {
        BisectSpec {
            widening: true,
            batching: true,
            shuffle: None,
        }
    }

    /// Parses a `|`-separated spec: `widening=off`, `batching=off`,
    /// `shuffle=7`, in any combination. Unset knobs keep
    /// the baseline defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(spec: &str) -> Result<BisectSpec, String> {
        let mut out = BisectSpec::baseline();
        for clause in spec.split('|').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad --vs clause `{clause}`: expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let on_off = |v: &str| match v {
                "on" => Ok(true),
                "off" => Ok(false),
                other => Err(format!("bad value `{other}` for {key}: expected on|off")),
            };
            match key {
                "widening" => out.widening = on_off(value)?,
                "batching" => out.batching = on_off(value)?,
                "shuffle" => {
                    out.shuffle = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?);
                }
                other => {
                    return Err(format!(
                        "unknown --vs knob `{other}`; known: widening batching shuffle"
                    ))
                }
            }
        }
        Ok(out)
    }

    fn build(self, params: ScatternetScenarioParams) -> ScatternetSim {
        let mut sim = ScatternetScenario::build(params)
            .simulator(PollerKind::PfpGs)
            .expect("corpus scenario builds")
            .with_phase_widening(self.widening)
            .with_phase_batching(self.batching);
        if let Some(seed) = self.shuffle {
            sim = sim.with_island_shuffle(seed);
        }
        sim
    }
}

/// Events of context captured on each side of a divergence.
const CONTEXT_EVENTS: u64 = 8;

/// Runs the bisection: baseline engine vs `vs` over the corpus scenario
/// named `topology` (`chain`, `ring` or `mesh`), both to `horizon`.
///
/// # Errors
///
/// Returns a description for an unknown topology label, and propagates
/// engine run errors.
pub fn run_bisect(
    topology: &str,
    vs: &BisectSpec,
    horizon: SimTime,
) -> Result<BisectReport, String> {
    let corpus = sanitizer_corpus();
    let (_, params) = corpus
        .iter()
        .find(|(label, _)| *label == topology)
        .ok_or_else(|| {
            let known: Vec<&str> = corpus.iter().map(|(l, _)| *l).collect();
            format!(
                "unknown topology `{topology}`; corpus has: {}",
                known.join(" ")
            )
        })?;
    let params = *params;
    bisect_runs(
        &|| BisectSpec::baseline().build(params),
        &|| vs.build(params),
        horizon,
        CONTEXT_EVENTS,
    )
    .map_err(|e| format!("bisection run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let spec = BisectSpec::parse("widening=off|shuffle=7").unwrap();
        assert_eq!(
            spec,
            BisectSpec {
                widening: false,
                batching: true,
                shuffle: Some(7),
            }
        );
        assert_eq!(BisectSpec::parse("").unwrap(), BisectSpec::baseline());
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(BisectSpec::parse("shuffle")
            .unwrap_err()
            .contains("key=value"));
        assert!(BisectSpec::parse("widening=maybe")
            .unwrap_err()
            .contains("on|off"));
        assert!(BisectSpec::parse("turbo=on")
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn unknown_topology_is_an_error() {
        let err = run_bisect(
            "torus",
            &BisectSpec::parse("shuffle=2").unwrap(),
            SimTime::from_millis(100),
        )
        .unwrap_err();
        assert!(err.contains("chain"), "{err}");
    }

    #[test]
    fn clean_engine_configurations_do_not_diverge() {
        let report = run_bisect(
            "chain",
            &BisectSpec::parse("batching=off|shuffle=3").unwrap(),
            SimTime::from_millis(900),
        )
        .unwrap();
        assert!(
            report.divergence.is_none(),
            "clean configurations diverged:\n{}",
            report.render()
        );
        assert_eq!(report.events_a, report.events_b);
        assert!(report.events_a > 0, "traces must carry events");
    }
}
