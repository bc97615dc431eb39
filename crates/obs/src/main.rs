//! `btgs-obs` — export observability artifacts from the scatternet engine.
//!
//! ```text
//! cargo run --release -p btgs-obs -- --trace chain --out trace.json \
//!     [--telemetry telemetry.json] [--seconds N] [--fine]
//! cargo run --release -p btgs-obs -- --profile [--out BENCH_profile_breakdown.json] [--seconds N]
//! ```
//!
//! `--trace` runs one sanitizer-corpus scenario (`chain`, `ring` or
//! `mesh`) with the deterministic trace layer on and writes a
//! Chrome/Perfetto-loadable trace JSON (`chrome://tracing` or
//! <https://ui.perfetto.dev>); `--telemetry` additionally writes the
//! engine [`TelemetryReport`](btgs_piconet::TelemetryReport) as JSON
//! (the grid wire encoding). `--profile` runs the per-event cost
//! profiler table and writes `BENCH_profile_breakdown.json`.
//! `--seconds` defaults to 2 simulated seconds for `--trace` and 5 for
//! `--profile`.

#![forbid(unsafe_code)]

use btgs_core::{sanitizer_corpus, PollerKind, ScatternetScenario};
use btgs_des::SimTime;
use btgs_obs::{perfetto_trace_json, profile_breakdown, profile_breakdown_json};
use btgs_piconet::ObsConfig;
use std::process::ExitCode;

const USAGE: &str = "usage: btgs-obs --trace {chain|ring|mesh} --out PATH \
                     [--telemetry PATH] [--seconds N] [--fine]\n\
                     \x20      btgs-obs --profile [--out PATH] [--seconds N]";

/// Simulated seconds when `--seconds` is not given.
const TRACE_SECONDS: u64 = 2;
const PROFILE_SECONDS: u64 = 5;

#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    trace: Option<String>,
    profile: bool,
    out: Option<String>,
    telemetry: Option<String>,
    /// `None` picks the mode's default ([`TRACE_SECONDS`] or
    /// [`PROFILE_SECONDS`]).
    seconds: Option<u64>,
    fine: bool,
}

/// Parses the flags (program name already skipped).
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--trace" => args.trace = Some(value("--trace")?),
            "--profile" => args.profile = true,
            "--out" => args.out = Some(value("--out")?),
            "--telemetry" => args.telemetry = Some(value("--telemetry")?),
            "--seconds" => {
                args.seconds = Some(
                    value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--fine" => args.fine = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.profile == args.trace.is_some() {
        return Err(format!("pick exactly one of --trace / --profile\n{USAGE}"));
    }
    Ok(args)
}

fn run_trace(args: &Args) -> Result<(), String> {
    let label = args.trace.as_deref().expect("checked by parse_args");
    let out = args
        .out
        .as_deref()
        .ok_or_else(|| format!("--trace needs --out PATH\n{USAGE}"))?;
    let (_, params) = sanitizer_corpus()
        .into_iter()
        .find(|(l, _)| *l == label)
        .ok_or_else(|| format!("unknown corpus scenario {label} (chain|ring|mesh)"))?;
    let piconets = params.piconets as usize;
    let sim = ScatternetScenario::build(params)
        .simulator(PollerKind::PfpGs)
        .map_err(|e| format!("building {label}: {e}"))?;
    let cfg = ObsConfig {
        fine_events: args.fine,
        ..ObsConfig::default()
    };
    let run = sim
        .run_observed(
            SimTime::from_secs(args.seconds.unwrap_or(TRACE_SECONDS)),
            cfg,
        )
        .map_err(|e| format!("running {label}: {e}"))?;

    let json = perfetto_trace_json(&run.trace, piconets);
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "{label}: {} trace records ({} dropped), {} events -> {out}",
        run.trace.records.len(),
        run.trace.dropped,
        run.report.events_processed,
    );
    if let Some(path) = args.telemetry.as_deref() {
        let json = btgs_grid::wire::telemetry_to_json(&run.telemetry);
        std::fs::write(path, &json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("{label}: telemetry -> {path}");
    }
    Ok(())
}

fn run_profile(args: &Args) -> Result<(), String> {
    let out = args
        .out
        .as_deref()
        .unwrap_or("BENCH_profile_breakdown.json");
    let seconds = args.seconds.unwrap_or(PROFILE_SECONDS);
    let runs = profile_breakdown(seconds);
    let json = profile_breakdown_json(&btgs_bench::host::host_fingerprint(), seconds, &runs);
    std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
    for r in &runs {
        eprintln!(
            "{:<16} {:>9} ev  {:>7.2} ms cpu  {:>6.1} ns/ev",
            r.label,
            r.events,
            r.cpu_secs * 1e3,
            r.cpu_secs * 1e9 / r.events.max(1) as f64,
        );
    }
    eprintln!("profile -> {out}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = if args.profile {
        run_profile(&args)
    } else {
        run_trace(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn explicit_seconds_are_kept_in_every_mode() {
        // `--seconds 2` used to read as "unset" and ran a 5 s profile.
        let args = parse(&["--profile", "--seconds", "2"]).unwrap();
        assert!(args.profile);
        assert_eq!(args.seconds, Some(2));
        let args = parse(&["--trace", "ring", "--out", "t.json", "--seconds", "5"]).unwrap();
        assert_eq!(args.seconds, Some(5));
    }

    #[test]
    fn flags_parse_into_args() {
        let args = parse(&[
            "--trace",
            "chain",
            "--fine",
            "--out",
            "t.json",
            "--telemetry",
            "m.json",
        ])
        .unwrap();
        assert_eq!(
            args,
            Args {
                trace: Some("chain".into()),
                out: Some("t.json".into()),
                telemetry: Some("m.json".into()),
                fine: true,
                ..Args::default()
            }
        );
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--profile", "--trace", "chain"]).is_err());
        assert!(parse(&["--profile", "--seconds"]).is_err());
        assert!(parse(&["--profile", "--seconds", "x"]).is_err());
        assert!(parse(&["--profile", "--bogus"]).is_err());
    }
}
