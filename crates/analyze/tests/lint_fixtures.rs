//! Fixture corpus for the determinism lint: one positive (must fire) and
//! one negative (must stay silent) case per rule, with exact expected
//! findings. Fixtures are inline strings — the lexer blanks string
//! literals, so scanning this test file itself never trips the lint.

use btgs_analyze::lint::{scan_source, Rule};

/// Asserts `src` (treated as the given path) produces exactly the
/// expected `(rule, line)` findings, in order.
fn expect(path: &str, src: &str, expected: &[(Rule, usize)]) {
    let (findings, _) = scan_source(path, src);
    let got: Vec<(Rule, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got, expected,
        "findings mismatch for {path}:\n{:#?}",
        findings
    );
}

const SIM: &str = "crates/core/src/fixture.rs";
const HARNESS: &str = "crates/bench/src/fixture.rs";

#[test]
fn hash_iter_fires_on_sim_paths() {
    let src = "\
use std::collections::HashMap;
fn build() {
    let m: HashMap<u32, u32> = HashMap::new();
    for (k, v) in &m {}
}
";
    // The `use` is exempt; the declaration line fires once (declaration
    // granularity — the binding's later iteration is implied by it).
    expect(SIM, src, &[(Rule::HashIter, 3)]);
}

#[test]
fn hash_iter_silent_on_btreemap_and_waivers() {
    let clean = "\
use std::collections::BTreeMap;
fn build() {
    let m: BTreeMap<u32, u32> = BTreeMap::new();
}
";
    expect(SIM, clean, &[]);

    let waived = "\
// analyze: allow(hash-iter): lookup-only fixture map.
let m: HashMap<u32, u32> = HashMap::new();
";
    let (findings, waivers) = scan_source(SIM, waived);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::HashIter);
    assert_eq!(waivers[0].reason, "lookup-only fixture map.");
}

#[test]
fn hash_iter_silent_in_harness_and_strings() {
    expect(HARNESS, "let m = HashMap::new();\n", &[]);
    expect(SIM, "let s = \"HashMap::new()\";\n", &[]);
}

#[test]
fn ambient_time_fires_in_sim_only() {
    let src = "fn now() { let t = Instant::now(); }\n";
    expect(SIM, src, &[(Rule::AmbientTime, 1)]);
    expect(HARNESS, src, &[]);
    expect("crates/core/tests/fixture.rs", src, &[]);
    expect(
        SIM,
        "fn s() { let t = SystemTime::now(); }\n",
        &[(Rule::AmbientTime, 1)],
    );
}

#[test]
fn ambient_time_silent_in_cfg_test() {
    let src = "\
fn sim() {}
#[cfg(test)]
mod tests {
    fn t() { let t = Instant::now(); }
}
";
    expect(SIM, src, &[]);
}

#[test]
fn ambient_rng_and_env_fire_in_sim() {
    expect(
        SIM,
        "fn r() { let x = thread_rng(); }\n",
        &[(Rule::AmbientRng, 1)],
    );
    expect(
        SIM,
        "fn e() { let v = std::env::var(\"X\"); }\n",
        &[(Rule::AmbientEnv, 1)],
    );
    expect(HARNESS, "fn e() { let v = std::env::var(\"X\"); }\n", &[]);
}

#[test]
fn ambient_env_waivable() {
    let src = "\
// analyze: allow(ambient-env): fault injection, never on a report path.
let v = std::env::var(\"CRASH\");
";
    let (findings, waivers) = scan_source(SIM, src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::AmbientEnv);
}

#[test]
fn ord_comment_fires_without_justification() {
    let src = "fn f(x: &AtomicU64) { x.store(1, Ordering::Release); }\n";
    expect(SIM, src, &[(Rule::OrdComment, 1)]);
    // Harness crates are NOT exempt: orderings need justification
    // everywhere.
    expect(HARNESS, src, &[(Rule::OrdComment, 1)]);
}

#[test]
fn ord_comment_satisfied_same_line_or_block_above() {
    expect(
        SIM,
        "fn f(x: &AtomicU64) { x.store(1, Ordering::Release); } // ord: publishes y\n",
        &[],
    );
    let above = "\
fn f(x: &AtomicU64) {
    // ord: Release — pairs with the reader's Acquire load of x,
    // publishing the preceding writes.
    x.store(1, Ordering::Release);
}
";
    expect(SIM, above, &[]);
}

#[test]
fn ord_comment_window_is_bounded() {
    // An ord: comment more than six lines above does not count.
    let src = "\
fn f(x: &AtomicU64) {
    // ord: stale justification, too far away.
    let a = 1;
    let b = 2;
    let c = 3;
    let d = 4;
    let e = 5;
    let g = 6;
    x.store(1, Ordering::Release);
}
";
    expect(SIM, src, &[(Rule::OrdComment, 9)]);
}

#[test]
fn ord_comment_flags_variant_imports() {
    expect(
        SIM,
        "use std::sync::atomic::Ordering::Relaxed;\n",
        &[(Rule::OrdComment, 1)],
    );
    expect(
        SIM,
        "use std::sync::atomic::Ordering::{Acquire, Release};\n",
        &[(Rule::OrdComment, 1)],
    );
    // Importing the enum itself is the sanctioned form.
    expect(SIM, "use std::sync::atomic::Ordering;\n", &[]);
}

#[test]
fn ord_comment_ignores_cmp_ordering() {
    expect(
        SIM,
        "fn c(a: u32, b: u32) -> Ordering { Ordering::Less }\n",
        &[],
    );
    expect(SIM, "use std::cmp::Ordering;\n", &[]);
}

#[test]
fn newtype_cast_fires_on_truncations() {
    expect(
        SIM,
        "fn f(t: SimTime) -> u32 { t.0 as u32 }\n",
        &[(Rule::NewtypeCast, 1)],
    );
    expect(
        SIM,
        "fn f(d: Duration) -> u16 { d.as_nanos() as u16 }\n",
        &[(Rule::NewtypeCast, 1)],
    );
    // Widening is fine.
    expect(SIM, "fn f(t: SimTime) -> u64 { t.0 as u64 }\n", &[]);
    expect(
        SIM,
        "fn f(d: Duration) -> u64 { d.as_nanos() as u64 }\n",
        &[],
    );
}

#[test]
fn unstable_sort_fires_on_sim_paths() {
    expect(
        SIM,
        "fn f(v: &mut Vec<u32>) { v.sort_unstable(); }\n",
        &[(Rule::UnstableSort, 1)],
    );
    expect(
        SIM,
        "fn f(v: &mut Vec<(u64, u32)>) { v.sort_unstable_by_key(|e| e.0); }\n",
        &[(Rule::UnstableSort, 1)],
    );
    expect(
        SIM,
        "fn f(v: &mut Vec<u64>) { v.select_nth_unstable(3); }\n",
        &[(Rule::UnstableSort, 1)],
    );
    // Float-keyed comparator at a call site.
    expect(
        SIM,
        "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n",
        &[(Rule::UnstableSort, 1)],
    );
    // Harness crates and #[cfg(test)] scaffolding are exempt.
    expect(
        HARNESS,
        "fn f(v: &mut Vec<u32>) { v.sort_unstable(); }\n",
        &[],
    );
    let in_test = "\
fn sim() {}
#[cfg(test)]
mod tests {
    fn t(v: &mut Vec<u32>) { v.sort_unstable(); }
}
";
    expect(SIM, in_test, &[]);
}

#[test]
fn unstable_sort_silent_on_stable_sorts_and_total_cmp() {
    expect(SIM, "fn f(v: &mut Vec<u32>) { v.sort(); }\n", &[]);
    expect(
        SIM,
        "fn f(v: &mut Vec<u64>) { v.sort_by_key(|e| *e); }\n",
        &[],
    );
    // `total_cmp` is the sanctioned float comparator.
    expect(
        SIM,
        "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n",
        &[],
    );
    // A `PartialOrd` impl *defines* partial_cmp; only call sites fire.
    expect(
        SIM,
        "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }\n",
        &[],
    );
}

#[test]
fn unstable_sort_waivable_with_unique_key_reason() {
    let src = "\
// analyze: allow(unstable-sort): key (time, seq) is unique per entry.
fn f(v: &mut Vec<(u64, u64)>) { v.sort_unstable(); }
";
    let (findings, waivers) = scan_source(SIM, src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(waivers.len(), 1);
    assert_eq!(waivers[0].rule, Rule::UnstableSort);
    assert!(waivers[0].reason.contains("unique"));
}

#[test]
fn unsafe_allow_only_at_audited_site() {
    let src = "#[allow(unsafe_code)]\nfn f() {}\n";
    expect(SIM, src, &[(Rule::UnsafePolicy, 1)]);
    let (findings, _) = scan_source("crates/bench/src/alloc_counter.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_waivers_are_findings() {
    let (findings, waivers) = scan_source(SIM, "// analyze: allow(no-such-rule): x\nlet y = 1;\n");
    assert!(waivers.is_empty());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, Rule::Waiver);
    assert!(findings[0].message.contains("no-such-rule"));

    let (findings, _) = scan_source(
        SIM,
        "// analyze: allow(hash-iter):\nlet m = HashMap::new();\n",
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == Rule::Waiver && f.message.contains("no reason")),
        "{findings:?}"
    );
}

#[test]
fn unused_waiver_is_a_finding() {
    let (findings, waivers) =
        scan_source(SIM, "// analyze: allow(hash-iter): stale.\nlet y = 1;\n");
    assert!(waivers.is_empty());
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("unused waiver"));
}

#[test]
fn waiver_reason_folds_continuation_lines() {
    let src = "\
// analyze: allow(hash-iter): lookup-only index,
// filled by keyed inserts,
// never iterated.
let m: HashMap<u32, u32> = HashMap::new();
";
    let (findings, waivers) = scan_source(SIM, src);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(
        waivers[0].reason,
        "lookup-only index, filled by keyed inserts, never iterated."
    );
}
