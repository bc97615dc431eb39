//! The correctness oracle: per-cell digest lines, admitted-guarantee
//! checks, and the paper's Fig. 5 reference throughput.

use crate::run::{guarded, Round};
use btgs_core::CellResult;
use btgs_grid::wire::fnv1a64;
use btgs_piconet::RunReport;
use std::time::Instant;

/// The paper's GS flow rate (Fig. 4/5): 160-byte mean packets every 20 ms.
pub const PAPER_GS_KBPS: f64 = 64.0;

/// What the oracle found in one cell.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellCheck {
    /// An admitted guarantee was broken: a single-piconet GS packet over
    /// its achievable bound, or an admitted chain over its composed bound.
    pub broken: bool,
    /// Packets over their hop's `HopGrant::bound` (reported, not failed).
    pub hop_bound_exceed: u64,
    /// Smallest `composed_bound − max e2e delay` over the cell's admitted
    /// chains, in ns (`None` without admitted chains).
    pub e2e_slack_min_ns: Option<i128>,
    /// Largest |GS flow throughput − 64 kbit/s| over the cell's GS flows.
    pub gs_err_kbps: f64,
}

fn gs_err_kbps(report: &RunReport) -> f64 {
    report
        .flows
        .iter()
        .filter(|f| f.channel.is_gs() && report.per_flow.contains_key(&f.id))
        .map(|f| (report.throughput_kbps(f.id) - PAPER_GS_KBPS).abs())
        .fold(0.0, f64::max)
}

/// Checks one cell's admitted guarantees.
///
/// Single-piconet cells use `CellResult::gs_violations`. Scatternet cells
/// never call it: it panics on them (piconet 0 lacks the paper's flows
/// 1–4), a known defect counted where the workload's own sink trips on
/// it.
pub fn check_cell(r: &CellResult) -> CellCheck {
    let mut check = CellCheck::default();
    match &r.scatternet {
        None => {
            check.broken = !matches!(guarded(|| r.gs_violations()), Ok(0));
            check.gs_err_kbps = gs_err_kbps(&r.report);
        }
        Some(s) => {
            for grant in &s.scenario.chain_grants {
                let chain = s.report.chains.iter().find(|c| {
                    c.hops.len() == grant.hops.len()
                        && c.hops.iter().zip(&grant.hops).all(|(f, h)| *f == h.flow)
                });
                let Some(chain) = chain else {
                    check.broken = true; // an admitted chain went unreported
                    continue;
                };
                if let Some(max) = chain.e2e.max() {
                    check.broken |= max > grant.composed_bound;
                    let slack =
                        i128::from(grant.composed_bound.as_nanos()) - i128::from(max.as_nanos());
                    check.e2e_slack_min_ns =
                        Some(check.e2e_slack_min_ns.map_or(slack, |m| m.min(slack)));
                }
                for hop in &grant.hops {
                    let flow = s
                        .report
                        .piconets
                        .get(usize::from(hop.piconet.0))
                        .and_then(|p| p.per_flow.get(&hop.flow));
                    if let Some(flow) = flow {
                        check.hop_bound_exceed += flow.delay.violations_of(hop.bound) as u64;
                    }
                }
            }
            check.gs_err_kbps = s
                .report
                .piconets
                .iter()
                .map(gs_err_kbps)
                .fold(0.0, f64::max);
        }
    }
    check
}

/// A round as the oracle sees it.
pub struct Verdict {
    /// The round produced a report (it did not fail as a whole).
    pub ok: bool,
    /// FNV-1a 64 hash of every cell's `GridReport::digest` line (empty
    /// when the round failed as a whole).
    pub line_hashes: Vec<u64>,
    /// FNV-1a 64 hash of the whole digest (`btgs_grid::wire::fnv1a64`).
    pub grid_hash: u64,
    /// Per cell: failed (crash, sink panic or broken guarantee).
    pub failed: Vec<bool>,
    /// Seconds inside `GridReport::digest`.
    pub digest_s: f64,
    /// Per-cell guarantee checks (empty when the round failed).
    pub checks: Vec<CellCheck>,
}

impl Verdict {
    /// Failed cells.
    pub fn failures(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Marks every cell whose line differs from `expected` as failed;
    /// returns how many lines differ or are missing.
    pub fn compare(&mut self, expected: &[u64]) -> usize {
        let mut differ = 0;
        for (i, failed) in self.failed.iter_mut().enumerate() {
            if self.line_hashes.get(i) != expected.get(i) {
                *failed = true;
                differ += 1;
            }
        }
        differ + expected.len().saturating_sub(self.failed.len())
    }
}

/// Evaluates a round of a grid with `cells` cells.
pub fn evaluate(round: &Round, cells: usize) -> Verdict {
    let Some(report) = &round.report else {
        return Verdict {
            ok: false,
            line_hashes: Vec::new(),
            grid_hash: 0,
            failed: vec![true; cells],
            digest_s: 0.0,
            checks: Vec::new(),
        };
    };
    let t = Instant::now();
    let digest = report.digest();
    let digest_s = t.elapsed().as_secs_f64();
    let line_hashes: Vec<u64> = digest.lines().map(|l| fnv1a64(l.as_bytes())).collect();
    let checks: Vec<CellCheck> = report.cells.iter().map(check_cell).collect();
    let mut failed: Vec<bool> = checks.iter().map(|c| c.broken).collect();
    failed.resize(cells, true);
    for (i, _) in &round.sink_panics {
        if let Some(f) = failed.get_mut(*i) {
            *f = true;
        }
    }
    Verdict {
        ok: true,
        line_hashes,
        grid_hash: fnv1a64(digest.as_bytes()),
        failed,
        digest_s,
        checks,
    }
}

/// Parses committed reference lines (`<index> <hash in hex>`).
pub fn parse_reference(text: &str) -> Result<Vec<u64>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            let (idx, hash) = line
                .split_once(' ')
                .ok_or_else(|| format!("reference line {i}: `{line}`"))?;
            if idx.parse::<usize>() != Ok(i) {
                return Err(format!("reference line {i} is numbered `{idx}`"));
            }
            u64::from_str_radix(hash, 16).map_err(|e| format!("reference line {i}: {e}"))
        })
        .collect()
}

/// Renders reference lines for [`parse_reference`].
pub fn render_reference(hashes: &[u64]) -> String {
    hashes
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{i} {h:016x}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_round_trip() {
        let hashes = vec![0x0123_4567_89ab_cdef, 7];
        assert_eq!(parse_reference(&render_reference(&hashes)), Ok(hashes));
        assert!(parse_reference("1 00").is_err());
        assert!(parse_reference("0 zz").is_err());
    }
}
