//! The deterministic observability layer of the island engine.
//!
//! Three pillars:
//!
//! * **engine telemetry** — a fixed block of counters and log₂
//!   histograms ([`Histo32`]): phase width, widening stretches,
//!   idle-skip counts, relay-pool and wheel-bucket occupancy, per-claim
//!   event batches and the per-poller decision mix, surfaced as a
//!   [`TelemetryReport`]. The report records its own histograms as an
//!   engine observer, once per phase and once per island claim, and
//!   takes the counters from the run's report — [`run_with_telemetry`]
//!   costs about what a plain [`run`] costs and has no per-event hook. Like
//!   `events_processed`, the report is *excluded* from
//!   cross-configuration byte-identity digests (it is about the engine,
//!   not the simulated system).
//!
//! * **structured tracing** — fixed-capacity ring buffers
//!   ([`TraceSink`]) of typed [`TraceRecord`]s: phase spans, island
//!   claims, relay stage/inject, widening and idle-skip decisions, and
//!   (optionally) every island event. Records are keyed by *sim-time*
//!   and a per-sink deterministic sequence — never wall time — so a
//!   merged [`EngineTrace`] is byte-identical across island visit
//!   orders and engine toggles. Export to Chrome/Perfetto JSON
//!   lives in the `btgs-obs` harness crate.
//!
//! * **per-event cost metering** — an [`EventMeter`] callback pair
//!   (`begin`/`end(tag)`) around every island event. The trait object
//!   is supplied by the harness (`btgs-obs`), which is where the
//!   wall-clock reads live; this crate never touches an ambient clock.
//!
//! Tracing and metering are one more engine observer, `Tracer`, which
//! also contains the telemetry observer, so an observed run's telemetry
//! equals [`run_with_telemetry`]'s by construction. Plain runs
//! instantiate the engine with `()`, so they compile every capture site
//! out; only [`run_observed`] enables them. Everything is pre-sized at
//! run start: ring buffers at their configured capacity (overflow is
//! *dropped and counted*, never grown), histograms as fixed arrays. The
//! zero-allocation gate brackets an observed steady state to prove it.
//!
//! [`run`]: crate::ScatternetSim::run
//! [`run_with_telemetry`]: crate::ScatternetSim::run_with_telemetry
//! [`run_observed`]: crate::ScatternetSim::run_observed

use crate::scatternet::{
    event_descriptor, nanos_of, EngineObserver, IslandScheduler, PooledRelay, StagedRelay,
};
use crate::sim::Ev;
use crate::ScatternetReport;
use btgs_des::SimTime;

/// Event-kind names, indexed by the tag byte handed to
/// [`EventMeter::end`], carried in fine-grained [`TraceRecord`]s
/// (`arg0` of [`TraceRecordKind::Event`]) and in the bisector's
/// [`TraceEvent::kind`](crate::TraceEvent::kind).
pub const EVENT_KIND_NAMES: &[&str] = <crate::sim::Ev as btgs_des::Tagged>::TAG_NAMES;

/// A fixed 32-bucket log₂ histogram: bucket `i` counts samples whose
/// value has bit length `i` (bucket 0 is exactly zero, the last bucket
/// absorbs everything ≥ 2³⁰). No allocation, `Copy`, mergeable — the
/// registry shape that survives the zero-allocation gate and the grid
/// wire format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histo32 {
    /// Per-bucket sample counts (log₂ buckets, see the type docs).
    pub counts: [u64; 32],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values, saturating at `u64::MAX` (feeds
    /// [`Histo32::mean`] only — the buckets are the exact record).
    pub sum: u64,
}

impl Histo32 {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = (64 - u64::leading_zeros(v)).min(31) as usize;
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histo32) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The typed kind of one [`TraceRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceRecordKind {
    /// A coordinator phase `[t, b)`: `arg0` = islands run, `arg1` =
    /// staged-relay pool size at the boundary. Track 0.
    Phase = 0,
    /// One island claim `[previous boundary, b)`: `arg0` = events
    /// processed in the claim, `arg1` = wheel live count after it.
    /// Track = piconet + 1.
    IslandRun = 1,
    /// A cross-island relay staged by this island (instant at its
    /// handoff): `arg0` = target piconet, `arg1` = packet sequence.
    RelayStage = 2,
    /// A staged relay injected by the coordinator (instant): `arg0` =
    /// target piconet, `arg1` = staging sequence. Track 0.
    RelayInject = 3,
    /// An adaptive-widening stretch: the phase that just closed ran
    /// past at least one calendar start (instant at the boundary).
    WideningStretch = 4,
    /// Idle islands skipped this phase (instant at the phase open):
    /// `arg0` = how many. Track 0.
    IdleSkip = 5,
    /// One island event (only with [`ObsConfig::fine_events`]):
    /// `arg0` = event-kind tag (see [`EVENT_KIND_NAMES`]), `arg1` =
    /// the kind's first descriptor argument.
    Event = 6,
}

impl TraceRecordKind {
    /// A stable lowercase name for exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceRecordKind::Phase => "phase",
            TraceRecordKind::IslandRun => "island_run",
            TraceRecordKind::RelayStage => "relay_stage",
            TraceRecordKind::RelayInject => "relay_inject",
            TraceRecordKind::WideningStretch => "widening_stretch",
            TraceRecordKind::IdleSkip => "idle_skip",
            TraceRecordKind::Event => "event",
        }
    }
}

/// One trace record: a span (`start_ns < end_ns`) or an instant
/// (`start_ns == end_ns`) on a track, in sim-time nanoseconds. `Copy`
/// and fixed-size, so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Span start (or instant) in sim-time nanoseconds.
    pub start_ns: u64,
    /// Span end in sim-time nanoseconds (equal to `start_ns` for
    /// instants).
    pub end_ns: u64,
    /// The originating sink's monotone per-record sequence — with
    /// `track` it makes the merged sort key unique.
    pub seq: u64,
    /// Track: 0 is the coordinator, island tracks are piconet + 1.
    pub track: u16,
    /// What the record describes.
    pub kind: TraceRecordKind,
    /// Kind-specific argument (see [`TraceRecordKind`]).
    pub arg0: u64,
    /// Kind-specific argument (see [`TraceRecordKind`]).
    pub arg1: u64,
}

/// A fixed-capacity trace ring: pre-allocated at run start, drops (and
/// counts) records past capacity rather than growing — recording on the
/// hot path never allocates.
struct TraceSink {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
    seq: u64,
}

impl TraceSink {
    fn new(capacity: usize) -> TraceSink {
        TraceSink {
            records: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
            seq: 0,
        }
    }

    fn push(
        &mut self,
        start_ns: u64,
        end_ns: u64,
        track: u16,
        kind: TraceRecordKind,
        arg0: u64,
        arg1: u64,
    ) {
        if self.records.len() == self.capacity {
            self.dropped += 1;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.records.push(TraceRecord {
            start_ns,
            end_ns,
            seq,
            track,
            kind,
            arg0,
            arg1,
        });
    }
}

/// Configuration of an observed run
/// ([`run_observed`](crate::ScatternetSim::run_observed)).
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Capacity of each trace ring (one per island plus the
    /// coordinator's). Overflow is dropped and counted, never grown.
    pub ring_capacity: usize,
    /// Record a [`TraceRecordKind::Event`] instant for every island
    /// event (fine-grained; the dominant trace volume when on).
    pub fine_events: bool,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            ring_capacity: 1 << 16,
            fine_events: false,
        }
    }
}

/// A per-event cost meter: `begin` is called before each island event's
/// handler, `end` after it with the event-kind tag (index into
/// [`EVENT_KIND_NAMES`]). Implementations live in the harness crates —
/// that is where wall-clock reads are allowed.
pub trait EventMeter {
    /// Called immediately before an event handler runs.
    fn begin(&mut self);
    /// Called after the handler returned, with the event's kind tag.
    fn end(&mut self, tag: u8);
    /// Reflective escape hatch: recovers the concrete meter type from
    /// the boxed meters an [`ObservedRun`] hands back.
    fn as_any(&self) -> &dyn core::any::Any;
}

/// The merged structured trace of an observed run: records sorted by
/// `(start_ns, track, seq)` — a total order independent of the island
/// visit order — plus the global overflow count.
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// All records, in the deterministic merged order.
    pub records: Vec<TraceRecord>,
    /// Records dropped across all rings (capacity overflow).
    pub dropped: u64,
}

/// The engine telemetry of one run
/// ([`run_with_telemetry`](crate::ScatternetSim::run_with_telemetry) or
/// [`run_observed`](crate::ScatternetSim::run_observed); both assemble it
/// from the same engine counters). Excluded from cross-configuration
/// byte-identity digests (the `events_processed` precedent): it
/// describes the *engine*, not the simulated system, and may
/// legitimately vary with toggles. Fixed size and `Copy`, so carrying it
/// through the grid aggregator allocates nothing per cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryReport {
    /// Total events processed across all islands.
    pub events_processed: u64,
    /// Coordinator phases run.
    pub phases_run: u64,
    /// Island claims executed.
    pub islands_claimed: u64,
    /// Cross-island relays staged.
    pub relays_staged: u64,
    /// Cross-island relays injected.
    pub relays_injected: u64,
    /// Phases stretched past a calendar start by adaptive widening.
    pub widening_stretches: u64,
    /// Idle islands skipped across all phases.
    pub islands_skipped_idle: u64,
    /// GS (guaranteed-service) polls that moved data.
    pub gs_polls_successful: u64,
    /// GS polls that moved none.
    pub gs_polls_unsuccessful: u64,
    /// Best-effort polls that moved data.
    pub be_polls_successful: u64,
    /// Best-effort polls that moved none.
    pub be_polls_unsuccessful: u64,
    /// Phase widths in nanoseconds.
    pub phase_width_ns: Histo32,
    /// Staged-relay pool size at each phase boundary.
    pub relay_pool: Histo32,
    /// Island wheel live-event count after each claim.
    pub wheel_pending: Histo32,
    /// Island wheel near-horizon (level-0 + batch) occupancy after each
    /// claim.
    pub wheel_near: Histo32,
    /// Events processed per island claim.
    pub events_per_claim: Histo32,
    /// Trace records dropped (ring-capacity overflow; always zero
    /// without a trace).
    pub trace_dropped: u64,
}

impl TelemetryReport {
    /// Fills in what the histograms cannot see: the engine counters, the
    /// event count and the poll mix of the run's report. `trace_dropped`
    /// stays as it is; an observed run fills it in from its rings.
    pub(crate) fn fill_from(&mut self, report: &ScatternetReport) {
        self.events_processed = report.events_processed;
        self.phases_run = report.phases_run;
        self.islands_claimed = report.islands_claimed;
        self.relays_staged = report.relays_staged;
        self.relays_injected = report.relays_injected;
        self.widening_stretches = report.widening_stretches;
        self.islands_skipped_idle = report.islands_skipped_idle;
        for p in &report.piconets {
            self.gs_polls_successful += p.gs_polls.successful;
            self.gs_polls_unsuccessful += p.gs_polls.unsuccessful;
            self.be_polls_successful += p.be_polls.successful;
            self.be_polls_unsuccessful += p.be_polls.unsuccessful;
        }
    }

    /// Folds another shard's telemetry into this one (grid
    /// aggregation).
    pub fn merge(&mut self, other: &TelemetryReport) {
        self.events_processed += other.events_processed;
        self.phases_run += other.phases_run;
        self.islands_claimed += other.islands_claimed;
        self.relays_staged += other.relays_staged;
        self.relays_injected += other.relays_injected;
        self.widening_stretches += other.widening_stretches;
        self.islands_skipped_idle += other.islands_skipped_idle;
        self.gs_polls_successful += other.gs_polls_successful;
        self.gs_polls_unsuccessful += other.gs_polls_unsuccessful;
        self.be_polls_successful += other.be_polls_successful;
        self.be_polls_unsuccessful += other.be_polls_unsuccessful;
        self.phase_width_ns.merge(&other.phase_width_ns);
        self.relay_pool.merge(&other.relay_pool);
        self.wheel_pending.merge(&other.wheel_pending);
        self.wheel_near.merge(&other.wheel_near);
        self.events_per_claim.merge(&other.events_per_claim);
        self.trace_dropped += other.trace_dropped;
    }
}

/// Everything an observed run returns
/// ([`run_observed`](crate::ScatternetSim::run_observed)): the ordinary
/// report (byte-identical to an unobserved run), the telemetry (equal to
/// [`run_with_telemetry`](crate::ScatternetSim::run_with_telemetry)'s
/// but for `trace_dropped`), the merged trace and the per-event meters
/// handed back to the harness.
pub struct ObservedRun {
    /// The ordinary run report — byte-identical to the unobserved run
    /// of the same configuration.
    pub report: ScatternetReport,
    /// The engine telemetry, with the rings' overflow count.
    pub telemetry: TelemetryReport,
    /// The merged structured trace.
    pub trace: EngineTrace,
    /// The per-event meters passed in, in piconet order (empty when
    /// none were supplied).
    pub meters: Vec<Box<dyn EventMeter>>,
}

/// The telemetry histograms record themselves: once per island claim
/// and once per phase, never per event.
impl EngineObserver for TelemetryReport {
    fn on_claim(&mut self, _pic: u16, _b: SimTime, events: u64, sched: &IslandScheduler) {
        let occ = sched.queue_occupancy();
        self.wheel_pending.record(occ.live as u64);
        self.wheel_near.record(occ.near as u64);
        self.events_per_claim.record(events);
    }

    fn on_phase(
        &mut self,
        t: SimTime,
        b: SimTime,
        _active: u64,
        _skipped: u64,
        pool_len: usize,
        _stretched: bool,
    ) {
        self.phase_width_ns.record(nanos_of(b) - nanos_of(t));
        self.relay_pool.record(pool_len as u64);
    }
}

/// The observer of an observed run: one trace ring per island plus the
/// coordinator's, the optional per-event meters, and the telemetry
/// histograms — recorded by the same observer as
/// [`run_with_telemetry`](crate::ScatternetSim::run_with_telemetry)'s, so
/// the two telemetries agree by construction. Each island writes its own
/// ring, so the visit order cannot interleave records; the coordinator
/// ring is only written between rounds.
pub(crate) struct Tracer {
    telemetry: TelemetryReport,
    coord: TraceSink,
    /// Island rings, indexed by piconet (track = piconet + 1).
    islands: Vec<TraceSink>,
    /// End of each island's previous claim, in nanoseconds.
    prev_b_ns: Vec<u64>,
    fine: bool,
    /// Per-island meters, indexed by piconet (empty for none).
    meters: Vec<Box<dyn EventMeter>>,
    /// Kind tag of the event being handled (events never nest).
    tag: u8,
}

impl Tracer {
    pub(crate) fn new(islands: usize, cfg: &ObsConfig, meters: Vec<Box<dyn EventMeter>>) -> Tracer {
        Tracer {
            telemetry: TelemetryReport::default(),
            coord: TraceSink::new(cfg.ring_capacity),
            islands: (0..islands)
                .map(|_| TraceSink::new(cfg.ring_capacity))
                .collect(),
            prev_b_ns: vec![0; islands],
            fine: cfg.fine_events,
            meters,
            tag: 0,
        }
    }

    /// Merges every ring into the final [`EngineTrace`] and hands the
    /// meters back with the run's report and telemetry.
    pub(crate) fn finish(self, report: ScatternetReport) -> ObservedRun {
        let mut dropped = self.coord.dropped;
        let mut records = self.coord.records;
        for island in self.islands {
            dropped += island.dropped;
            records.extend_from_slice(&island.records);
        }
        // analyze: allow(unstable-sort): the key `(start_ns, track, seq)` is
        // provably unique — `track` identifies the originating sink and `seq`
        // is that sink's monotone per-record counter, so no two records
        // compare equal.
        records.sort_unstable_by_key(|r| (r.start_ns, r.track, r.seq));
        let mut telemetry = self.telemetry;
        telemetry.fill_from(&report);
        telemetry.trace_dropped = dropped;
        ObservedRun {
            report,
            telemetry,
            trace: EngineTrace { records, dropped },
            meters: self.meters,
        }
    }
}

impl EngineObserver for Tracer {
    fn on_event(&mut self, pic: u16, t: SimTime, ev: &Ev) {
        let (tag, a, _) = event_descriptor(ev);
        self.tag = tag;
        if self.fine {
            let t_ns = nanos_of(t);
            self.islands[pic as usize].push(
                t_ns,
                t_ns,
                pic + 1,
                TraceRecordKind::Event,
                u64::from(tag),
                a,
            );
        }
        if let Some(m) = self.meters.get_mut(pic as usize) {
            m.begin();
        }
    }

    fn after_event(&mut self, pic: u16) {
        if let Some(m) = self.meters.get_mut(pic as usize) {
            m.end(self.tag);
        }
    }

    fn on_staged(&mut self, pic: u16, relay: &StagedRelay) {
        let at_ns = nanos_of(relay.at);
        self.islands[pic as usize].push(
            at_ns,
            at_ns,
            pic + 1,
            TraceRecordKind::RelayStage,
            u64::from(relay.pic),
            relay.pkt.seq,
        );
    }

    fn on_claim(&mut self, pic: u16, b: SimTime, events: u64, sched: &IslandScheduler) {
        self.telemetry.on_claim(pic, b, events, sched);
        let p = pic as usize;
        let b_ns = nanos_of(b);
        let live = sched.queue_occupancy().live as u64;
        self.islands[p].push(
            self.prev_b_ns[p],
            b_ns,
            pic + 1,
            TraceRecordKind::IslandRun,
            events,
            live,
        );
        self.prev_b_ns[p] = b_ns;
    }

    fn on_phase(
        &mut self,
        t: SimTime,
        b: SimTime,
        active: u64,
        skipped: u64,
        pool_len: usize,
        stretched: bool,
    ) {
        self.telemetry
            .on_phase(t, b, active, skipped, pool_len, stretched);
        let t_ns = nanos_of(t);
        let b_ns = nanos_of(b);
        self.coord.push(
            t_ns,
            b_ns,
            0,
            TraceRecordKind::Phase,
            active,
            pool_len as u64,
        );
        if stretched {
            self.coord
                .push(b_ns, b_ns, 0, TraceRecordKind::WideningStretch, 0, 0);
        }
        if skipped > 0 {
            self.coord
                .push(t_ns, t_ns, 0, TraceRecordKind::IdleSkip, skipped, 0);
        }
    }

    fn on_injected(&mut self, t: SimTime, relay: &PooledRelay) {
        let t_ns = nanos_of(t);
        self.coord.push(
            t_ns,
            t_ns,
            0,
            TraceRecordKind::RelayInject,
            u64::from(relay.relay.pic),
            relay.seq,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histo_buckets_are_log2() {
        let mut h = Histo32::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1 << 20);
        h.record(u64::MAX);
        assert_eq!(h.counts[0], 1); // zero
        assert_eq!(h.counts[1], 1); // 1
        assert_eq!(h.counts[2], 2); // 2, 3
        assert_eq!(h.counts[21], 1); // 2^20
        assert_eq!(h.counts[31], 1); // clamp
        assert_eq!(h.count, 6);
    }

    #[test]
    fn histo_merge_adds() {
        let mut a = Histo32::default();
        let mut b = Histo32::default();
        a.record(5);
        b.record(5);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 19);
    }

    #[test]
    fn sink_drops_past_capacity_and_counts() {
        let mut s = TraceSink::new(2);
        for i in 0..5 {
            s.push(i, i, 0, TraceRecordKind::Phase, 0, 0);
        }
        assert_eq!(s.records.len(), 2);
        assert_eq!(s.dropped, 3);
        assert_eq!(s.records[1].seq, 1);
    }
}
