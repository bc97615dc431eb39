//! The runtime causality sanitizer and divergence bisector of the island
//! engine.
//!
//! The conservative PDES engine in [`scatternet`](crate::ScatternetSim)
//! rests on a lookahead argument: staged cross-island relays are injected
//! exactly when the global round clock reaches their handoff instant, at
//! which point the target island has provably processed every own event at
//! that instant. Until this module, that argument was only validated
//! end-to-end — a diverging report said *something* broke, with no way to
//! localize the first bad event. This module adds:
//!
//! * a **sanitizer** ([`ScatternetSim::run_sanitized`]): per-phase runtime
//!   checks of the causality invariants —
//!   - *lookahead safety*: every injected relay's timestamp is at or after
//!     the target island's local clock;
//!   - *widening boundary*: adaptive widening never stretches a phase
//!     across a boundary that a staged relay lands on (every relay
//!     collected at boundary `b` has handoff `>= b`);
//!   - *injection order*: the staged-relay `(handoff, source, sequence)`
//!     keys are strictly increasing across the whole run;
//!   - *wheel FIFO*: relays scheduled into an island's wheel fire in
//!     scheduling order within each timestamp, and the island's event
//!     times are monotone;
//!   - *conservation*: every relay staged is injected exactly once (per
//!     target flow: staged = injected + still-pooled at the horizon).
//!
//!   The sanitizer is one engine observer (`Sanitizer`, per-island state
//!   in a `Vec` indexed by piconet); plain
//!   [`run`](crate::ScatternetSim::run) instantiates the engine with `()`
//!   instead, so the zero-allocation gate and the steady-state benches
//!   see no sanitizer code. A sanitized run halts at its first finding
//!   (the partial report is withheld) so a broken engine cannot cascade
//!   into wheel panics before the violation is reported; a clean
//!   sanitized run returns a report byte-identical to the unsanitized
//!   one.
//!
//! * a **divergence bisector** ([`bisect_runs`]): given two engine
//!   configurations that must be byte-identical (widening on/off, batching
//!   on/off, shuffled claim order — or a seeded [`EngineMutation`]), run
//!   both with per-island rolling event hashes, binary-search each island's
//!   hash sequence to its first diverging event, pick the earliest across
//!   islands, then re-run with a bounded capture window around that index
//!   and print a minimal aligned trace (island, time, event kind, hash
//!   prefix). "Reports differ" becomes an actionable counterexample. The
//!   traced runs record through a second observer, `BisectTrace`; event
//!   kinds are the engine's own tags, named by [`EVENT_KIND_NAMES`].
//!
//! * a **seeded-mutation corpus** ([`EngineMutation`]): deliberately broken
//!   engine variants (off-by-one boundary walk, relay injected behind the
//!   clock, unsorted staging drain, widening past a hot boundary, dropped
//!   relay, duplicated relay) used by `crates/piconet/tests/
//!   sanitizer_mutations.rs` to prove every mutation is caught by the
//!   sanitizer *and* localized by the bisector, while the clean engine
//!   reports zero findings.

use crate::config::PiconetError;
use crate::scatternet::{
    event_descriptor, nanos_of, EngineObserver, IslandSim, PooledRelay, StagedRelay,
};
use crate::sim::Ev;
use crate::{ScatternetSim, EVENT_KIND_NAMES};
use btgs_des::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Which causality invariant a [`SanitizerFinding`] violated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SanitizerCheck {
    /// An injected relay's timestamp was behind the target island's clock.
    LookaheadSafety,
    /// A phase stretched across a boundary that a staged relay lands on.
    WideningBoundary,
    /// The staged-relay total order was violated at injection.
    InjectionOrder,
    /// Relays fired out of scheduling order within a timestamp, or an
    /// island's event times went backwards.
    WheelFifo,
    /// A staged relay was dropped, duplicated, or otherwise unaccounted
    /// for across islands.
    Conservation,
}

impl fmt::Display for SanitizerCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SanitizerCheck::LookaheadSafety => "lookahead-safety",
            SanitizerCheck::WideningBoundary => "widening-boundary",
            SanitizerCheck::InjectionOrder => "injection-order",
            SanitizerCheck::WheelFifo => "wheel-fifo",
            SanitizerCheck::Conservation => "conservation",
        })
    }
}

/// One causality violation found by the sanitizer.
#[derive(Clone, Debug)]
pub struct SanitizerFinding {
    /// The violated invariant.
    pub check: SanitizerCheck,
    /// The island the violation surfaced on (the target island for
    /// injection checks, `u16::MAX` for run-global findings).
    pub island: u16,
    /// Simulated instant of the violation ([`SimTime::MAX`] for end-of-run
    /// reconciliation findings).
    pub at: SimTime,
    /// Human-readable description with the violating values.
    pub message: String,
}

impl fmt::Display for SanitizerFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.island == u16::MAX {
            write!(f, "[{}] {}", self.check, self.message)
        } else {
            write!(
                f,
                "[{}] island {} at {}: {}",
                self.check, self.island, self.at, self.message
            )
        }
    }
}

/// The outcome of the sanitizer side of one sanitized run.
#[derive(Clone, Debug, Default)]
pub struct SanitizerReport {
    /// Every violation found, coordinator findings first, then per-island
    /// findings in piconet order. Empty for a clean engine.
    pub findings: Vec<SanitizerFinding>,
    /// Island events that went through the instrumented handler.
    pub events_checked: u64,
    /// Cross-island relays tracked through stage → pool → injection.
    pub relays_tracked: u64,
    /// Relays still pooled at run end — handoffs past the horizon, which
    /// can never fire. A clean run conserves staged relays exactly:
    /// `relays_staged == relays_injected + relays_leftover`.
    pub relays_leftover: u64,
}

impl SanitizerReport {
    /// `true` when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// A sanitized run: the report (withheld when the sanitizer halted the
/// engine at a finding) plus the sanitizer's verdict.
#[derive(Debug)]
pub struct SanitizedRun {
    /// The scatternet report — `None` when the run halted at a finding.
    /// A clean sanitized run's report is byte-identical to the
    /// unsanitized run of the same configuration.
    pub report: Option<crate::ScatternetReport>,
    /// The sanitizer's findings and counters.
    pub sanitizer: SanitizerReport,
}

/// Deliberately broken engine variants for the sanitizer's self-test
/// corpus. Test-only: not part of the supported API surface.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMutation {
    /// The boundary walk skips every needed calendar start and takes the
    /// next one instead (pending-injection caps still honored).
    BoundaryOffByOne,
    /// The first due relay is withheld a round and injected one boundary
    /// late — behind the target island's clock.
    RelayBehindClock,
    /// The staging-drain sort breaks its sequence tie-break, so
    /// same-instant same-source relays inject in reverse staging order.
    UnsortedStagingDrain,
    /// Adaptive widening treats every island as cold, stretching phases
    /// across boundaries that hot islands' relays land on.
    WideningPastHotBoundary,
    /// One collected relay is silently dropped from the coordinator pool.
    DroppedRelay,
    /// One collected relay is duplicated in the coordinator pool.
    DuplicatedRelay,
}

impl EngineMutation {
    /// Every corpus mutation, in a fixed order.
    #[doc(hidden)]
    pub const ALL: [EngineMutation; 6] = [
        EngineMutation::BoundaryOffByOne,
        EngineMutation::RelayBehindClock,
        EngineMutation::UnsortedStagingDrain,
        EngineMutation::WideningPastHotBoundary,
        EngineMutation::DroppedRelay,
        EngineMutation::DuplicatedRelay,
    ];

    /// Stable corpus name (used by test output and the analyze CLI).
    #[doc(hidden)]
    pub fn name(&self) -> &'static str {
        match self {
            EngineMutation::BoundaryOffByOne => "boundary-off-by-one",
            EngineMutation::RelayBehindClock => "relay-behind-clock",
            EngineMutation::UnsortedStagingDrain => "unsorted-staging-drain",
            EngineMutation::WideningPastHotBoundary => "widening-past-hot-boundary",
            EngineMutation::DroppedRelay => "dropped-relay",
            EngineMutation::DuplicatedRelay => "duplicated-relay",
        }
    }

    /// Parses a corpus name back into the mutation.
    #[doc(hidden)]
    pub fn from_name(name: &str) -> Option<EngineMutation> {
        EngineMutation::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// One traced island event, captured inside a bisection window.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// 0-based ordinal of the event within its island's run.
    pub index: u64,
    /// The event's simulated instant.
    pub at: SimTime,
    /// The event-kind tag (an index into [`EVENT_KIND_NAMES`]).
    pub kind: u8,
    /// Kind-specific identity (source index, SCO index, or flow index).
    pub a: u64,
    /// Kind-specific payload (packet sequence number, or instant nanos).
    pub b: u64,
    /// The island's rolling event hash *after* this event.
    pub hash: u64,
}

/// What a traced run records.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Record the full per-island rolling-hash and event-time sequences
    /// (the bisector's first pass).
    pub hashes: bool,
    /// Capture full event descriptors inside one island's index window
    /// (the bisector's second pass — the bounded "ring buffer" around a
    /// suspected divergence).
    pub window: Option<TraceWindow>,
}

impl TraceConfig {
    /// Hash-only capture across every island.
    pub fn hashes() -> TraceConfig {
        TraceConfig {
            hashes: true,
            window: None,
        }
    }

    /// Descriptor capture for `len` events of `island` starting at event
    /// ordinal `start`.
    pub fn window(island: u16, start: u64, len: u64) -> TraceConfig {
        TraceConfig {
            hashes: false,
            window: Some(TraceWindow { island, start, len }),
        }
    }
}

/// A bounded descriptor-capture window (see [`TraceConfig::window`]).
#[derive(Clone, Copy, Debug)]
pub struct TraceWindow {
    /// The island to capture.
    pub island: u16,
    /// First captured event ordinal.
    pub start: u64,
    /// Number of events to capture.
    pub len: u64,
}

/// The trace of one island across one run.
#[derive(Clone, Debug, Default)]
pub struct IslandTrace {
    /// Rolling event hash after each event (empty unless
    /// [`TraceConfig::hashes`]).
    pub hashes: Vec<u64>,
    /// Event time (nanos) of each event (parallel to `hashes`).
    pub times: Vec<u64>,
    /// Captured descriptors (empty unless a [`TraceWindow`] selected this
    /// island).
    pub window: Vec<TraceEvent>,
    /// Total events the island processed (valid in every mode).
    pub events: u64,
}

/// The traces of every island across one run, in piconet order.
#[derive(Clone, Debug, Default)]
pub struct RunTrace {
    /// Per-island traces.
    pub islands: Vec<IslandTrace>,
}

/// FNV-1a-style fold of one word into a rolling hash.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// The rolling hash after an event `(t, tag, a, b)` on top of `h`.
#[inline]
fn event_hash(h: u64, t_nanos: u64, tag: u8, a: u64, b: u64) -> u64 {
    mix(mix(mix(mix(h, t_nanos), u64::from(tag)), a), b)
}

/// The bisector's recorder: per-island rolling event hashes and times,
/// and the descriptors inside one island's capture window.
pub(crate) struct BisectTrace {
    config: TraceConfig,
    /// Rolling hash of each island, indexed by piconet.
    hash: Vec<u64>,
    islands: Vec<IslandTrace>,
}

impl BisectTrace {
    pub(crate) fn new(islands: usize, config: TraceConfig) -> BisectTrace {
        let mut traces = vec![IslandTrace::default(); islands];
        if let Some(w) = config.window {
            if let Some(t) = traces.get_mut(w.island as usize) {
                t.window.reserve(w.len as usize);
            }
        }
        BisectTrace {
            config,
            hash: vec![0; islands],
            islands: traces,
        }
    }

    pub(crate) fn into_trace(self) -> RunTrace {
        RunTrace {
            islands: self.islands,
        }
    }
}

impl EngineObserver for BisectTrace {
    fn on_event(&mut self, pic: u16, t: SimTime, ev: &Ev) {
        let trace = &mut self.islands[pic as usize];
        let index = trace.events;
        trace.events += 1;
        let window = self.config.window.filter(|w| w.island == pic);
        if !self.config.hashes && window.is_none() {
            return;
        }
        let (kind, a, b) = event_descriptor(ev);
        let t_nanos = nanos_of(t);
        let hash = &mut self.hash[pic as usize];
        *hash = event_hash(*hash, t_nanos, kind, a, b);
        if self.config.hashes {
            trace.hashes.push(*hash);
            trace.times.push(t_nanos);
        }
        if let Some(w) = window {
            if index >= w.start && index < w.start + w.len {
                trace.window.push(TraceEvent {
                    index,
                    at: t,
                    kind,
                    a,
                    b,
                    hash: *hash,
                });
            }
        }
    }
}

/// The per-island state of the sanitizer's wheel-FIFO checks.
#[derive(Default)]
struct IslandChecks {
    /// Findings on this island, reported after the coordinator's.
    findings: Vec<SanitizerFinding>,
    /// Monotone-clock watermark: the last handled event's instant.
    last_event: Option<SimTime>,
    /// Wheel-FIFO expectations: event-time nanos → FIFO of
    /// `(flow_idx, packet seq)` in scheduling order.
    expect: BTreeMap<u64, VecDeque<(u32, u64)>>,
}

/// The causality sanitizer as an engine observer: the per-island
/// wheel-FIFO checks, the coordinator's checks of the staged-relay pool
/// and the injections, and the end-of-run conservation reconciliation.
/// Any finding halts the engine at the end of the current round.
pub(crate) struct Sanitizer {
    halted: bool,
    /// Coordinator findings (pool, injections, conservation).
    findings: Vec<SanitizerFinding>,
    islands: Vec<IslandChecks>,
    events: u64,
    /// Cross-island relays staged by the islands, total and per target
    /// flow (`(target piconet, flow_idx)`), counted at staging time.
    staged_total: u64,
    staged_by_flow: BTreeMap<(u16, u32), u64>,
    /// Relays the coordinator pool received.
    received_total: u64,
    /// The last injected `(handoff, source, seq)` key — the global total
    /// order.
    last_key: Option<(SimTime, u16, u64)>,
    /// `(source, seq)` of every injection, for duplicate detection.
    injected_keys: BTreeSet<(u16, u64)>,
    injected_by_flow: BTreeMap<(u16, u32), u64>,
    leftover_by_flow: BTreeMap<(u16, u32), u64>,
}

impl Sanitizer {
    pub(crate) fn new(islands: usize) -> Sanitizer {
        Sanitizer {
            halted: false,
            findings: Vec::new(),
            islands: (0..islands).map(|_| IslandChecks::default()).collect(),
            events: 0,
            staged_total: 0,
            staged_by_flow: BTreeMap::new(),
            received_total: 0,
            last_key: None,
            injected_keys: BTreeSet::new(),
            injected_by_flow: BTreeMap::new(),
            leftover_by_flow: BTreeMap::new(),
        }
    }

    /// Records a finding: on island `island`'s list, or the coordinator's
    /// when `island` is `None` (`on` names the island the finding surfaced
    /// on there, `u16::MAX` for run-global findings).
    fn report(
        &mut self,
        island: Option<u16>,
        check: SanitizerCheck,
        on: u16,
        at: SimTime,
        message: String,
    ) {
        let finding = SanitizerFinding {
            check,
            island: on,
            at,
            message,
        };
        match island {
            Some(pic) => self.islands[pic as usize].findings.push(finding),
            None => self.findings.push(finding),
        }
        self.halted = true;
    }

    /// End-of-run conservation reconciliation, then the final report:
    /// coordinator findings first, then per-island findings in piconet
    /// order.
    pub(crate) fn into_report(mut self) -> SanitizerReport {
        if self.staged_total != self.received_total {
            let message = format!(
                "islands staged {} relays but the coordinator pool received {}",
                self.staged_total, self.received_total
            );
            self.report(
                None,
                SanitizerCheck::Conservation,
                u16::MAX,
                SimTime::MAX,
                message,
            );
        }
        let flows: BTreeSet<(u16, u32)> = self
            .staged_by_flow
            .keys()
            .chain(self.injected_by_flow.keys())
            .chain(self.leftover_by_flow.keys())
            .copied()
            .collect();
        for flow in flows {
            let count = |m: &BTreeMap<(u16, u32), u64>| m.get(&flow).copied().unwrap_or(0);
            let staged = count(&self.staged_by_flow);
            let injected = count(&self.injected_by_flow);
            let leftover = count(&self.leftover_by_flow);
            if staged != injected + leftover {
                self.report(
                    None,
                    SanitizerCheck::Conservation,
                    flow.0,
                    SimTime::MAX,
                    format!(
                        "hop flow {} of piconet {}: {staged} relays staged but \
                         {injected} injected + {leftover} still pooled",
                        flow.1, flow.0
                    ),
                );
            }
        }
        let mut findings = self.findings;
        for island in &mut self.islands {
            findings.append(&mut island.findings);
        }
        SanitizerReport {
            findings,
            events_checked: self.events,
            relays_tracked: self.received_total,
            relays_leftover: self.leftover_by_flow.values().sum(),
        }
    }
}

impl EngineObserver for Sanitizer {
    fn on_event(&mut self, pic: u16, t: SimTime, ev: &Ev) {
        self.events += 1;
        let checks = &mut self.islands[pic as usize];
        let last = checks.last_event.replace(t);
        if let Some(last) = last.filter(|&last| t < last) {
            let message = format!("event time went backwards: {t} after {last}");
            self.report(Some(pic), SanitizerCheck::WheelFifo, pic, t, message);
        }
        let Ev::Relay { .. } = ev else {
            return;
        };
        let (_, a, b) = event_descriptor(ev);
        let t_nanos = nanos_of(t);
        let checks = &mut self.islands[pic as usize];
        let expected = checks
            .expect
            .get_mut(&t_nanos)
            .and_then(VecDeque::pop_front);
        if checks.expect.get(&t_nanos).is_some_and(VecDeque::is_empty) {
            checks.expect.remove(&t_nanos);
        }
        let message = match expected {
            Some((flow_idx, seq)) if u64::from(flow_idx) == a && seq == b => return,
            Some((flow_idx, seq)) => format!(
                "relay fired out of scheduling order within its timestamp: \
                 got flow {a} seq {b}, expected flow {flow_idx} seq {seq}"
            ),
            None => format!("relay for flow {a} seq {b} fired with no matching schedule"),
        };
        self.report(Some(pic), SanitizerCheck::WheelFifo, pic, t, message);
    }

    fn on_scheduled_relay(&mut self, pic: u16, at: SimTime, flow_idx: u32, seq: u64) {
        self.islands[pic as usize]
            .expect
            .entry(nanos_of(at))
            .or_default()
            .push_back((flow_idx, seq));
    }

    fn on_staged(&mut self, _pic: u16, relay: &StagedRelay) {
        self.staged_total += 1;
        *self
            .staged_by_flow
            .entry((relay.pic, relay.flow_idx))
            .or_default() += 1;
    }

    /// A handoff before the boundary `b` it was collected at means the
    /// phase stretched across a boundary this relay lands on.
    fn on_collected(&mut self, b: SimTime, source: u16, at: SimTime) {
        self.received_total += 1;
        if at < b {
            let message = format!(
                "phase ran to {b} across a boundary a staged relay lands on \
                 (handoff {at} < phase end)"
            );
            self.report(None, SanitizerCheck::WideningBoundary, source, at, message);
        }
    }

    /// Checks the total injection order, duplication and lookahead safety
    /// against the target island's clock.
    fn check_injection(&mut self, relay: &PooledRelay, target: &IslandSim) -> bool {
        let key = (relay.at, relay.source, relay.seq);
        let (at, source, seq) = key;
        let flow = (relay.relay.pic, relay.relay.flow_idx);
        if let Some(last) = self.last_key.filter(|&last| key <= last) {
            let message = format!(
                "injection key (at {at}, source {source}, seq {seq}) is not \
                 strictly after (at {}, source {}, seq {})",
                last.0, last.1, last.2
            );
            self.report(None, SanitizerCheck::InjectionOrder, flow.0, at, message);
        }
        self.last_key = Some(key);
        if !self.injected_keys.insert((source, seq)) {
            let message = format!("relay (source {source}, seq {seq}) injected twice");
            self.report(None, SanitizerCheck::Conservation, flow.0, at, message);
        }
        *self.injected_by_flow.entry(flow).or_default() += 1;
        let now = target.now();
        if at < now {
            let message = format!("relay handoff {at} is behind the target island's clock {now}");
            self.report(None, SanitizerCheck::LookaheadSafety, flow.0, at, message);
            return false;
        }
        true
    }

    fn on_leftover(&mut self, relay: &PooledRelay) {
        *self
            .leftover_by_flow
            .entry((relay.relay.pic, relay.relay.flow_idx))
            .or_default() += 1;
    }

    fn halted(&self) -> bool {
        self.halted
    }
}

/// The first diverging event between two runs, with its aligned context
/// windows.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The island the earliest divergence occurred on.
    pub island: u16,
    /// 0-based event ordinal of the first diverging event on that island.
    pub index: u64,
    /// That event's instant in run A (`None` when A ended before it).
    pub at_a: Option<SimTime>,
    /// That event's instant in run B (`None` when B ended before it).
    pub at_b: Option<SimTime>,
    /// Captured events around the divergence in run A.
    pub window_a: Vec<TraceEvent>,
    /// Captured events around the divergence in run B.
    pub window_b: Vec<TraceEvent>,
}

/// The outcome of one bisection ([`bisect_runs`]).
#[derive(Clone, Debug)]
pub struct BisectReport {
    /// The first diverging event, or `None` when the traces are
    /// identical.
    pub divergence: Option<Divergence>,
    /// Total events traced in run A.
    pub events_a: u64,
    /// Total events traced in run B.
    pub events_b: u64,
}

impl BisectReport {
    /// Renders the minimal aligned trace around the divergence (or the
    /// no-divergence verdict) for terminals and test output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(d) = &self.divergence else {
            let _ = writeln!(
                out,
                "no divergence: {} events traced in both runs, all hashes equal",
                self.events_a
            );
            return out;
        };
        let _ = writeln!(
            out,
            "first divergence: island {} event #{} (A: {} events, B: {} events)",
            d.island, d.index, self.events_a, self.events_b
        );
        let row = |ev: Option<&TraceEvent>| -> String {
            match ev {
                Some(e) => format!(
                    "{} {:>13} a={} b={} {:08x}",
                    e.at,
                    EVENT_KIND_NAMES[usize::from(e.kind)],
                    e.a,
                    e.b,
                    e.hash >> 32
                ),
                None => "<run ended>".into(),
            }
        };
        let lo = d
            .window_a
            .first()
            .map(|e| e.index)
            .min(d.window_b.first().map(|e| e.index))
            .unwrap_or(d.index);
        let hi = d
            .window_a
            .last()
            .map(|e| e.index)
            .max(d.window_b.last().map(|e| e.index))
            .unwrap_or(d.index);
        for idx in lo..=hi {
            let a = d.window_a.iter().find(|e| e.index == idx);
            let b = d.window_b.iter().find(|e| e.index == idx);
            let marker = if idx == d.index { ">>" } else { "  " };
            let same = match (a, b) {
                (Some(x), Some(y)) => x.hash == y.hash,
                _ => false,
            };
            let sep = if same { " == " } else { " != " };
            let _ = writeln!(out, "{marker} #{idx:<8} A: {}{sep}B: {}", row(a), row(b));
        }
        out
    }
}

/// Bisects two engine configurations that should be byte-identical down
/// to their first diverging event.
///
/// `make_a`/`make_b` build fresh, fully configured simulations (they are
/// called twice each: a hash pass over the whole run, then a bounded
/// descriptor-capture pass of `context` events around the divergence).
/// Determinism makes re-running equivalent to rewinding.
///
/// # Errors
///
/// Propagates run errors (missing sources, bad horizons) from either
/// configuration.
pub fn bisect_runs(
    make_a: &dyn Fn() -> ScatternetSim,
    make_b: &dyn Fn() -> ScatternetSim,
    horizon: SimTime,
    context: u64,
) -> Result<BisectReport, PiconetError> {
    let (_, ta) = make_a().run_traced(horizon, TraceConfig::hashes())?;
    let (_, tb) = make_b().run_traced(horizon, TraceConfig::hashes())?;
    let events_a: u64 = ta.islands.iter().map(|i| i.events).sum();
    let events_b: u64 = tb.islands.iter().map(|i| i.events).sum();

    // Per island: binary-search the rolling-hash sequences to the first
    // diverging event. A rolling hash diverges permanently once the
    // underlying events diverge, so "prefixes equal up to k" is monotone
    // in k and the search is sound.
    let mut best: Option<(u64, u16, u64)> = None; // (time nanos, island, index)
    for (pic, (ia, ib)) in ta.islands.iter().zip(&tb.islands).enumerate() {
        let common = ia.hashes.len().min(ib.hashes.len());
        let (mut lo, mut hi) = (0usize, common);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if ia.hashes[mid] == ib.hashes[mid] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let index = if lo < common {
            lo
        } else if ia.hashes.len() != ib.hashes.len() {
            common // one run has events the other never produced
        } else {
            continue;
        };
        let t = match (ia.times.get(index), ib.times.get(index)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => continue,
        };
        let key = (t, pic as u16, index as u64);
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }

    let Some((_, island, index)) = best else {
        return Ok(BisectReport {
            divergence: None,
            events_a,
            events_b,
        });
    };

    // Second pass: bounded descriptor capture around the divergence.
    let start = index.saturating_sub(context / 2);
    let cfg = TraceConfig::window(island, start, context.max(1));
    let (_, wa) = make_a().run_traced(horizon, cfg)?;
    let (_, wb) = make_b().run_traced(horizon, cfg)?;
    let win = |t: &RunTrace| t.islands[island as usize].window.clone();
    let (window_a, window_b) = (win(&wa), win(&wb));
    let at_of = |w: &[TraceEvent]| w.iter().find(|e| e.index == index).map(|e| e.at);
    Ok(BisectReport {
        divergence: Some(Divergence {
            island,
            index,
            at_a: at_of(&window_a),
            at_b: at_of(&window_b),
            window_a,
            window_b,
        }),
        events_a,
        events_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_hash_separates_fields() {
        let h = event_hash(0, 100, 4, 1, 2);
        assert_ne!(h, event_hash(0, 100, 4, 2, 1));
        assert_ne!(h, event_hash(0, 101, 4, 1, 2));
        assert_ne!(h, event_hash(0, 100, 0, 1, 2));
        assert_ne!(h, event_hash(1, 100, 4, 1, 2));
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in EngineMutation::ALL {
            assert_eq!(EngineMutation::from_name(m.name()), Some(m));
        }
        assert_eq!(EngineMutation::from_name("no-such"), None);
    }
}
