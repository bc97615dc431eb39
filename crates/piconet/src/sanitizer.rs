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
//!   The instrumentation rides on a const-generic seam in the engine: the
//!   default build monomorphises the uninstrumented handler, so plain
//!   [`run`](crate::ScatternetSim::run) compiles the sanitizer out — the
//!   zero-allocation gate and the steady-state benches see the exact
//!   pre-sanitizer code. A sanitized run halts at its first finding (the
//!   partial report is withheld) so a broken engine cannot cascade into
//!   wheel panics before the violation is reported; a clean sanitized run
//!   returns a report byte-identical to the unsanitized one.
//!
//! * a **divergence bisector** ([`bisect_runs`]): given two engine
//!   configurations that must be byte-identical (widening on/off, batching
//!   on/off, shuffled claim order — or a seeded [`EngineMutation`]), run
//!   both with per-island rolling event hashes, binary-search each island's
//!   hash sequence to its first diverging event, pick the earliest across
//!   islands, then re-run with a bounded capture window around that index
//!   and print a minimal aligned trace (island, time, event kind, hash
//!   prefix). "Reports differ" becomes an actionable counterexample.
//!
//! * a **seeded-mutation corpus** ([`EngineMutation`]): deliberately broken
//!   engine variants (off-by-one boundary walk, relay injected behind the
//!   clock, unsorted staging drain, widening past a hot boundary, dropped
//!   relay, duplicated relay) used by `crates/piconet/tests/
//!   sanitizer_mutations.rs` to prove every mutation is caught by the
//!   sanitizer *and* localized by the bisector, while the clean engine
//!   reports zero findings.

use crate::config::PiconetError;
use crate::telemetry::IslandObs;
use crate::ScatternetSim;
use btgs_des::SimTime;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::rc::Rc;

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

/// Event kinds as they appear in traces (mirrors the island event enum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A source packet arrival.
    Arrival,
    /// A master wake/re-evaluation.
    Wake,
    /// An ACL exchange completion.
    ExchangeDone,
    /// An SCO reservation completion.
    ScoDone,
    /// A relayed packet landing in a flow queue.
    Relay,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TraceKind::Arrival => "arrival",
            TraceKind::Wake => "wake",
            TraceKind::ExchangeDone => "exchange",
            TraceKind::ScoDone => "sco",
            TraceKind::Relay => "relay",
        })
    }
}

/// One traced island event, captured inside a bisection window.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// 0-based ordinal of the event within its island's run.
    pub index: u64,
    /// The event's simulated instant.
    pub at: SimTime,
    /// The event kind.
    pub kind: TraceKind,
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

/// The rolling hash after an event `(t, kind, a, b)` on top of `h`.
#[inline]
pub(crate) fn event_hash(h: u64, t_nanos: u64, kind: TraceKind, a: u64, b: u64) -> u64 {
    mix(mix(mix(mix(h, t_nanos), kind as u64), a), b)
}

/// Per-island instrumentation state, boxed behind
/// `IslandState::probe` — `None` (one machine word, no allocation) in
/// default runs; the instrumented handler is a separate monomorphisation,
/// so the default engine never even tests the option.
pub(crate) struct IslandProbe {
    pic: u16,
    sanitize: bool,
    tripped: Rc<Cell<bool>>,
    findings: Vec<SanitizerFinding>,
    /// Monotone-clock watermark: the last handled event's instant.
    last_event: Option<SimTime>,
    /// Wheel-FIFO expectations: event-time nanos → FIFO of
    /// `(flow_idx, packet seq)` in scheduling order.
    expect: BTreeMap<u64, VecDeque<(u32, u64)>>,
    /// Cross-island relays this island staged, total and per target flow
    /// (`(target piconet, flow_idx)`), counted at staging time.
    staged_total: u64,
    staged_by_flow: BTreeMap<(u16, u32), u64>,
    events: u64,
    trace_hashes: bool,
    trace_window: Option<(u64, u64)>,
    hash: u64,
    hashes: Vec<u64>,
    times: Vec<u64>,
    window: Vec<TraceEvent>,
    /// Telemetry/trace capture for this island — `None` unless the run
    /// was started through `run_observed`.
    obs: Option<IslandObs>,
}

impl IslandProbe {
    pub(crate) fn new(
        pic: u16,
        tripped: Rc<Cell<bool>>,
        sanitize: bool,
        trace: Option<&TraceConfig>,
        obs: Option<IslandObs>,
    ) -> IslandProbe {
        let trace_window = trace
            .and_then(|c| c.window)
            .filter(|w| w.island == pic)
            .map(|w| (w.start, w.len));
        IslandProbe {
            pic,
            sanitize,
            tripped,
            findings: Vec::new(),
            last_event: None,
            expect: BTreeMap::new(),
            staged_total: 0,
            staged_by_flow: BTreeMap::new(),
            events: 0,
            trace_hashes: trace.is_some_and(|c| c.hashes),
            trace_window,
            hash: 0,
            hashes: Vec::new(),
            times: Vec::new(),
            window: Vec::with_capacity(trace_window.map_or(0, |(_, len)| len as usize)),
            obs,
        }
    }

    fn report(&mut self, check: SanitizerCheck, at: SimTime, message: String) {
        self.findings.push(SanitizerFinding {
            check,
            island: self.pic,
            at,
            message,
        });
        // The halt flag the round loop polls between rounds.
        self.tripped.set(true);
    }

    /// Called by the instrumented handler for every island event, with
    /// the scheduler clock already set to the event's instant.
    pub(crate) fn on_event(&mut self, t: SimTime, kind: TraceKind, a: u64, b: u64) {
        self.events += 1;
        let t_nanos = crate::scatternet::nanos_of(t);
        if let Some(obs) = self.obs.as_mut() {
            // analyze: allow(obs-seam): delegated from island_handle, itself
            // behind the `I` const-generic seam.
            obs.on_event(t, kind, a, b);
        }
        if self.sanitize {
            if let Some(last) = self.last_event {
                if t < last {
                    self.report(
                        SanitizerCheck::WheelFifo,
                        t,
                        format!("event time went backwards: {t} after {last}"),
                    );
                }
            }
            self.last_event = Some(t);
            if kind == TraceKind::Relay {
                let expected = self.expect.get_mut(&t_nanos).and_then(|q| q.pop_front());
                match expected {
                    Some((flow_idx, seq)) if u64::from(flow_idx) == a && seq == b => {}
                    Some((flow_idx, seq)) => self.report(
                        SanitizerCheck::WheelFifo,
                        t,
                        format!(
                            "relay fired out of scheduling order within its timestamp: \
                             got flow {a} seq {b}, expected flow {flow_idx} seq {seq}"
                        ),
                    ),
                    None => self.report(
                        SanitizerCheck::WheelFifo,
                        t,
                        format!("relay for flow {a} seq {b} fired with no matching schedule"),
                    ),
                }
                if self.expect.get(&t_nanos).is_some_and(VecDeque::is_empty) {
                    self.expect.remove(&t_nanos);
                }
            }
        }
        if self.trace_hashes || self.trace_window.is_some() {
            self.hash = event_hash(self.hash, t_nanos, kind, a, b);
            if self.trace_hashes {
                self.hashes.push(self.hash);
                self.times.push(t_nanos);
            }
            if let Some((start, len)) = self.trace_window {
                let index = self.events - 1;
                if index >= start && index < start + len {
                    self.window.push(TraceEvent {
                        index,
                        at: t,
                        kind,
                        a,
                        b,
                        hash: self.hash,
                    });
                }
            }
        }
    }

    /// Records a relay scheduled into this island's own wheel (master
    /// relays and coordinator injections): the wheel-FIFO expectation.
    pub(crate) fn on_scheduled_relay(&mut self, at: SimTime, flow_idx: u32, seq: u64) {
        if self.sanitize {
            self.expect
                .entry(crate::scatternet::nanos_of(at))
                .or_default()
                .push_back((flow_idx, seq));
        }
    }

    /// Called by the instrumented handler after each event's handler
    /// returns — closes the per-event cost meter, if one is attached.
    pub(crate) fn after_event(&mut self) {
        if let Some(obs) = self.obs.as_mut() {
            // analyze: allow(obs-seam): delegated from island_handle, itself
            // behind the `I` const-generic seam.
            obs.after_event();
        }
    }

    /// Records a cross-island relay this island staged for the
    /// coordinator.
    pub(crate) fn on_staged(&mut self, target_pic: u16, flow_idx: u32, at: SimTime, seq: u64) {
        if self.sanitize {
            self.staged_total += 1;
            *self
                .staged_by_flow
                .entry((target_pic, flow_idx))
                .or_default() += 1;
        }
        if let Some(obs) = self.obs.as_mut() {
            // analyze: allow(obs-seam): delegated from route_captures, itself
            // behind the `I` const-generic seam.
            obs.on_staged(target_pic, flow_idx, at, seq);
        }
    }

    /// Called once per coordinator claim after this island ran to the
    /// phase boundary `b`, with the island wheel's live/near occupancy.
    pub(crate) fn on_island_ran(&mut self, b: SimTime, live: u64, near: u64) {
        if let Some(obs) = self.obs.as_mut() {
            // analyze: allow(obs-seam): delegated from island_status_after_run,
            // itself behind the `I` const-generic seam.
            obs.on_island_ran(b, live, near);
        }
    }

    pub(crate) fn take_obs(&mut self) -> Option<IslandObs> {
        self.obs.take()
    }

    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    pub(crate) fn staged_total(&self) -> u64 {
        self.staged_total
    }

    pub(crate) fn staged_by_flow(&self) -> &BTreeMap<(u16, u32), u64> {
        &self.staged_by_flow
    }

    pub(crate) fn take_findings(&mut self) -> Vec<SanitizerFinding> {
        std::mem::take(&mut self.findings)
    }

    pub(crate) fn take_trace(&mut self) -> IslandTrace {
        IslandTrace {
            hashes: std::mem::take(&mut self.hashes),
            times: std::mem::take(&mut self.times),
            window: std::mem::take(&mut self.window),
            events: self.events,
        }
    }
}

/// Coordinator-side sanitizer state: the checks that see the staged-relay
/// pool and the injections (the per-island checks live in
/// [`IslandProbe`]).
pub(crate) struct EngineSanitizer {
    tripped: Rc<Cell<bool>>,
    findings: Vec<SanitizerFinding>,
    /// The last injected `(handoff, source, seq)` key — the global total
    /// order.
    last_key: Option<(SimTime, u16, u64)>,
    /// `(source, seq)` of every injection, for duplicate detection.
    injected_keys: BTreeSet<(u16, u64)>,
    received_total: u64,
    injected_total: u64,
    injected_by_flow: BTreeMap<(u16, u32), u64>,
    leftover_by_flow: BTreeMap<(u16, u32), u64>,
}

impl EngineSanitizer {
    pub(crate) fn new(tripped: Rc<Cell<bool>>) -> EngineSanitizer {
        EngineSanitizer {
            tripped,
            findings: Vec::new(),
            last_key: None,
            injected_keys: BTreeSet::new(),
            received_total: 0,
            injected_total: 0,
            injected_by_flow: BTreeMap::new(),
            leftover_by_flow: BTreeMap::new(),
        }
    }

    pub(crate) fn tripped(&self) -> bool {
        self.tripped.get()
    }

    fn report(&mut self, check: SanitizerCheck, island: u16, at: SimTime, message: String) {
        self.findings.push(SanitizerFinding {
            check,
            island,
            at,
            message,
        });
        self.tripped.set(true);
    }

    /// Checks one staged relay drained from island `source` at phase
    /// boundary `b`: a handoff before `b` means the phase stretched across
    /// a boundary this relay lands on.
    pub(crate) fn on_collected(&mut self, b: SimTime, source: u16, at: SimTime) {
        self.received_total += 1;
        if at < b {
            self.report(
                SanitizerCheck::WideningBoundary,
                source,
                at,
                format!(
                    "phase ran to {b} across a boundary a staged relay lands on \
                     (handoff {at} < phase end)"
                ),
            );
        }
    }

    /// Checks one pooled relay about to be injected. Returns `false` when
    /// the injection would violate lookahead safety (the caller withholds
    /// the schedule; the run is halting at this finding anyway).
    pub(crate) fn check_injection(
        &mut self,
        key: (SimTime, u16, u64),
        target: (u16, u32),
        target_now: SimTime,
    ) -> bool {
        let (at, source, seq) = key;
        if let Some(last) = self.last_key {
            if key <= last {
                self.report(
                    SanitizerCheck::InjectionOrder,
                    target.0,
                    at,
                    format!(
                        "injection key (at {at}, source {source}, seq {seq}) is not \
                         strictly after (at {}, source {}, seq {})",
                        last.0, last.1, last.2
                    ),
                );
            }
        }
        self.last_key = Some(key);
        if !self.injected_keys.insert((source, seq)) {
            self.report(
                SanitizerCheck::Conservation,
                target.0,
                at,
                format!("relay (source {source}, seq {seq}) injected twice"),
            );
        }
        self.injected_total += 1;
        *self.injected_by_flow.entry(target).or_default() += 1;
        if at < target_now {
            self.report(
                SanitizerCheck::LookaheadSafety,
                target.0,
                at,
                format!("relay handoff {at} is behind the target island's clock {target_now}"),
            );
            return false;
        }
        true
    }

    /// Records a relay still pooled (or withheld by a mutation) when the
    /// run ended — legitimate for handoffs past the horizon.
    pub(crate) fn on_leftover(&mut self, target: (u16, u32)) {
        *self.leftover_by_flow.entry(target).or_default() += 1;
    }

    /// End-of-run conservation reconciliation against every island's
    /// staging counts.
    pub(crate) fn finish(&mut self, probes: &[IslandProbe]) {
        let staged_total: u64 = probes.iter().map(IslandProbe::staged_total).sum();
        let mut staged_by_flow: BTreeMap<(u16, u32), u64> = BTreeMap::new();
        for p in probes {
            for (&flow, &n) in p.staged_by_flow() {
                *staged_by_flow.entry(flow).or_default() += n;
            }
        }
        if staged_total != self.received_total {
            self.report(
                SanitizerCheck::Conservation,
                u16::MAX,
                SimTime::MAX,
                format!(
                    "islands staged {staged_total} relays but the coordinator pool \
                     received {}",
                    self.received_total
                ),
            );
        }
        let flows: BTreeSet<(u16, u32)> = staged_by_flow
            .keys()
            .chain(self.injected_by_flow.keys())
            .chain(self.leftover_by_flow.keys())
            .copied()
            .collect();
        for flow in flows {
            let staged = staged_by_flow.get(&flow).copied().unwrap_or(0);
            let injected = self.injected_by_flow.get(&flow).copied().unwrap_or(0);
            let leftover = self.leftover_by_flow.get(&flow).copied().unwrap_or(0);
            if staged != injected + leftover {
                self.report(
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
    }

    /// Assembles the final report, folding in every island probe's
    /// findings (piconet order) after the coordinator's own.
    pub(crate) fn into_report(mut self, probes: &mut [IslandProbe]) -> SanitizerReport {
        let mut findings = std::mem::take(&mut self.findings);
        for p in probes.iter_mut() {
            findings.append(&mut p.take_findings());
        }
        SanitizerReport {
            findings,
            events_checked: probes.iter().map(IslandProbe::events).sum(),
            relays_tracked: self.received_total,
            relays_leftover: self.leftover_by_flow.values().sum(),
        }
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
                    "{} {:>9} a={} b={} {:08x}",
                    e.at,
                    e.kind.to_string(),
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
        let h = event_hash(0, 100, TraceKind::Relay, 1, 2);
        assert_ne!(h, event_hash(0, 100, TraceKind::Relay, 2, 1));
        assert_ne!(h, event_hash(0, 101, TraceKind::Relay, 1, 2));
        assert_ne!(h, event_hash(0, 100, TraceKind::Arrival, 1, 2));
        assert_ne!(h, event_hash(1, 100, TraceKind::Relay, 1, 2));
    }

    #[test]
    fn mutation_names_round_trip() {
        for m in EngineMutation::ALL {
            assert_eq!(EngineMutation::from_name(m.name()), Some(m));
        }
        assert_eq!(EngineMutation::from_name("no-such"), None);
    }
}
