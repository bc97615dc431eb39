//! # btgs-analyze — static analysis & divergence bisection
//!
//! Every PR in this workspace stakes its correctness on one invariant:
//! **reports are byte-identical** across pollers, seeds, island visit
//! orders, queue backends and engine toggles. Nothing about the type
//! system prevents the next contributor from introducing a `HashMap`
//! iteration, an ambient clock, or an unstable sort that silently breaks
//! it. This crate closes that gap with two engines:
//!
//! * **The determinism lint** ([`lint`]): a token-level Rust source
//!   scanner over the whole workspace enforcing repo law — no
//!   `HashMap`/`HashSet` containers on simulation/report paths without a
//!   justified waiver, no ambient time/randomness/environment reads
//!   outside the bench/CLI crates, `#![forbid(unsafe_code)]` in every sim
//!   crate (with btgs-bench's single audited exception), a machine-checked
//!   `// ord:` justification on every atomic `Ordering::*` use (the
//!   experiment runner's cell cursor, the grid runner and the bench
//!   allocator), no truncating `as` casts on time/id newtype payloads,
//!   and no unstable sorts on sim paths.
//!   Waivers (`// analyze: allow(<rule>): <reason>`) are collected into a
//!   committed audit report ([`audit`]) the lint keeps fresh. CI and the
//!   tier-1 `workspace_is_clean` test run it.
//!
//! * **The divergence bisector** ([`bisect`]): when two engine
//!   configurations that must be byte-identical ever disagree, `--bisect`
//!   runs both with full event traces over a shared corpus scenario and
//!   binary-searches the per-island rolling hashes to the *first
//!   diverging event*, printing a minimal aligned trace (island, time,
//!   event kind, hash prefix) instead of a useless whole-report diff.
//!
//! Run the lint with `cargo run -p btgs-analyze -- --workspace`, the
//! bisector with `cargo run -p btgs-analyze -- --bisect chain --vs
//! "shuffle=7|widening=off"`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bisect;
pub mod lexer;
pub mod lint;
