//! The scatternet layer: N piconets, bridge slaves on deterministic
//! rendezvous schedules, and cross-piconet flows relayed hop by hop.
//!
//! The paper's future-work section points at inter-piconet operation; this
//! module opens that workload without touching the single-piconet
//! semantics:
//!
//! * a [`ShardedFlowArena`] routes every global [`FlowId`] to its
//!   `(PiconetId, FlowIdx)` shard — per-piconet [`FlowTable`]s stay dense
//!   and the global id space stays O(1) to resolve;
//! * [`BridgeSpec`]s describe slaves that time-share between two piconets
//!   on a periodic rendezvous cycle; their [`PresenceWindow`]s are injected
//!   into each piconet's presence mask, so pollers skip absent bridges;
//! * [`ChainSpec`]s compose per-piconet flows into cross-piconet paths.
//!   Packets completing a hop are re-enqueued on the next hop — at the
//!   exchange end for master relays (same device), or when the bridge next
//!   appears in the target piconet (the *residence time*);
//! * [`ScatternetSim`] runs each piconet as an **island**: a full
//!   single-piconet simulator (own timing wheel, own clock) reusing the
//!   single-piconet event handlers verbatim — a piconet inside a
//!   scatternet and a [`PiconetSim`](crate::PiconetSim) run the same
//!   code. Islands only interact through bridge relays, and a relay is
//!   never live before the bridge's next presence window opens in the
//!   target piconet, so the window starts are *conservative sync points*
//!   (classic conservative DES, with the rendezvous schedule as the
//!   lookahead). One thread advances the islands in turn, each to the
//!   next sync point:
//!
//!   ```text
//!    island 0  ──phase──▶|        ──▶|          ──▶|
//!    island 1  ──────────▶|  ─────▶|  ──────────▶|     (each island runs
//!    island 2  ────▶|       ──────▶|    ────────▶|      independently)
//!              ─────┼──────────────┼─────────────┼────▶ simulated time
//!                   B₁             B₂            B₃
//!             window starts = phase boundaries; staged relays
//!             pool at the coordinator, injected when t == handoff
//!   ```
//!
//!   The window starts form a precomputed **boundary calendar**: coincident
//!   `(phase, cycle)` windows from different bridges merge into one
//!   [`SyncPoint`] group that also remembers which islands feed it.
//!   Phases are **adaptive**: a group's starts only become boundaries
//!   while some source island could actually hold chain traffic (a
//!   conservative per-island hotness instant derived from its in-flight
//!   chain count and pending entry arrivals) — otherwise the phase widens
//!   straight across them. Idle islands (next event past the boundary)
//!   are never run or drained, and staged relays park in a
//!   coordinator-side pool until the round clock reaches their handoff
//!   instant, at which point the target island has provably processed
//!   every own event at that instant. The injection order — handoff
//!   instant, then source piconet, then staging sequence — is a total
//!   order, so reports are **byte-identical** across island visit
//!   orders and the widening/batching toggles
//!   ([`ScatternetSim::with_phase_widening`],
//!   [`ScatternetSim::with_phase_batching`]);
//! * [`ScatternetReport`] carries each piconet's [`RunReport`] (per-hop
//!   delay statistics included) plus per-chain end-to-end and residence
//!   [`DelayStats`]: with immediate master relays, end-to-end delay is
//!   exactly the sum of per-hop queueing delays plus bridge residence.
//!
//! The steady state is allocation-free like the single-piconet loop: relay
//! outboxes, staging buffers, origin FIFOs and report buffers are
//! pre-reserved at build time.

use crate::config::{PiconetConfig, PiconetError};
use crate::flow::FlowSpec;
use crate::flow_table::{FlowIdHasher, FlowIdx, FlowTable};
use crate::poller::Poller;
use crate::report::RunReport;
use crate::sanitizer::{
    BisectTrace, EngineMutation, RunTrace, SanitizedRun, Sanitizer, TraceConfig,
};
use crate::sim::{handle, seed_world, Ev, Target, World};
use crate::telemetry::{EventMeter, ObsConfig, ObservedRun, TelemetryReport, Tracer};
use btgs_baseband::{ChannelModel, PiconetId, PresenceWindow, ScopedSlave};
use btgs_des::{DetRng, EventQueue, Scheduler, SimDuration, SimTime, Simulator};
use btgs_metrics::DelayStats;
use btgs_traffic::{AppPacket, FlowId, Source};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

/// How one global flow id resolves to its shard. Mirrors the dense/spread
/// split of the per-piconet id index.
#[derive(Clone, Debug)]
enum RouteIndex {
    /// Direct map for small id spaces: one masked array read.
    Dense(Vec<Option<(PiconetId, FlowIdx)>>),
    /// Fast-hash map for sparse id spaces.
    // analyze: allow(hash-iter): lookup-only — `route` does keyed `get`s and
    // nothing ever iterates the map, so hash order cannot reach a report.
    Spread(HashMap<FlowId, (PiconetId, FlowIdx), BuildHasherDefault<FlowIdHasher>>),
}

/// Largest id the direct map will spend memory on, relative to flow count.
const DENSE_ID_HEADROOM: usize = 64;

/// The sharded flow arena of a scatternet: one dense [`FlowTable`] per
/// piconet, plus a global index from [`FlowId`] to `(PiconetId, FlowIdx)`.
///
/// Flow ids are globally unique across shards (validated at construction),
/// so a global id resolves to exactly one shard — no cross-shard aliasing.
///
/// # Examples
///
/// ```
/// use btgs_piconet::{FlowSpec, FlowTable, ShardedFlowArena};
/// use btgs_baseband::{AmAddr, Direction, LogicalChannel, PiconetId};
/// use btgs_traffic::FlowId;
///
/// let s = |n| AmAddr::new(n).unwrap();
/// let shard0 = FlowTable::new(vec![FlowSpec::new(
///     FlowId(1), s(1), Direction::SlaveToMaster, LogicalChannel::GuaranteedService,
/// )]).unwrap();
/// let shard1 = FlowTable::new(vec![FlowSpec::new(
///     FlowId(101), s(1), Direction::SlaveToMaster, LogicalChannel::GuaranteedService,
/// )]).unwrap();
/// let arena = ShardedFlowArena::new(vec![shard0, shard1]).unwrap();
/// let (pic, idx) = arena.route(FlowId(101)).unwrap();
/// assert_eq!(pic, PiconetId(1));
/// assert_eq!(arena.shard(pic).id(idx), FlowId(101));
/// assert!(arena.route(FlowId(2)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct ShardedFlowArena {
    shards: Vec<FlowTable>,
    route: RouteIndex,
    len: usize,
}

impl ShardedFlowArena {
    /// Builds the arena from per-piconet flow tables.
    ///
    /// # Errors
    ///
    /// Returns an error if a flow id appears in more than one shard, or if
    /// there are more than 65535 shards (piconet ids are 16-bit).
    pub fn new(shards: Vec<FlowTable>) -> Result<ShardedFlowArena, String> {
        if shards.len() > u16::MAX as usize {
            return Err(format!(
                "{} piconets exceed the 65535 the 16-bit PiconetId can name",
                shards.len()
            ));
        }
        let len: usize = shards.iter().map(|t| t.len()).sum();
        let max_id = shards
            .iter()
            .flat_map(|t| t.specs())
            .map(|f| f.id.0 as usize)
            .max()
            .unwrap_or(0);
        let entries = shards.iter().enumerate().flat_map(|(p, t)| {
            t.iter()
                .map(move |(idx, f)| (f.id, (PiconetId(p as u16), idx)))
        });
        let route = if max_id <= len * 8 + DENSE_ID_HEADROOM {
            let mut dense = vec![None; max_id + 1];
            for (id, target) in entries {
                let slot = &mut dense[id.0 as usize];
                if slot.is_some() {
                    return Err(format!("flow id {id} appears in more than one piconet"));
                }
                *slot = Some(target);
            }
            RouteIndex::Dense(dense)
        } else {
            // analyze: allow(hash-iter): construction of the lookup-only
            // route index; filled by keyed inserts from the deterministic
            // shard iteration, never iterated itself.
            let mut map: HashMap<_, _, BuildHasherDefault<FlowIdHasher>> =
                // analyze: allow(hash-iter): see above — same site.
                HashMap::with_capacity_and_hasher(len, BuildHasherDefault::default());
            for (id, target) in entries {
                if map.insert(id, target).is_some() {
                    return Err(format!("flow id {id} appears in more than one piconet"));
                }
            }
            RouteIndex::Spread(map)
        };
        Ok(ShardedFlowArena { shards, route, len })
    }

    /// Number of piconet shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of flows across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no shard holds any flow.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense flow table of one piconet.
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn shard(&self, pic: PiconetId) -> &FlowTable {
        &self.shards[pic.index()]
    }

    /// All shards, in piconet order.
    pub fn shards(&self) -> &[FlowTable] {
        &self.shards
    }

    /// Resolves a global flow id to its `(piconet, dense index)` pair,
    /// O(1).
    #[inline]
    pub fn route(&self, id: FlowId) -> Option<(PiconetId, FlowIdx)> {
        match &self.route {
            RouteIndex::Dense(dense) => *dense.get(id.0 as usize)?,
            RouteIndex::Spread(map) => map.get(&id).copied(),
        }
    }

    /// The spec of a global flow id, O(1).
    pub fn spec_of(&self, id: FlowId) -> Option<&FlowSpec> {
        let (pic, idx) = self.route(id)?;
        Some(self.shards[pic.index()].spec(idx))
    }
}

/// A bridge slave: one radio that is `upstream.slave` in piconet
/// `upstream.piconet` and `downstream.slave` in piconet
/// `downstream.piconet`, alternating between the two on a fixed cycle.
///
/// Within every `cycle`, the bridge spends `[0, dwell_upstream)` in the
/// upstream piconet and `[dwell_upstream, cycle)` in the downstream one.
/// Packets cross the bridge in the upstream→downstream direction: a
/// downlink hop delivers to the bridge while it sits upstream, and the
/// relayed packet becomes transmittable downstream when the bridge next
/// appears there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BridgeSpec {
    /// The bridge's identity in the piconet packets arrive from.
    pub upstream: ScopedSlave,
    /// The bridge's identity in the piconet packets continue into.
    pub downstream: ScopedSlave,
    /// Rendezvous cycle length (slot-pair aligned).
    pub cycle: SimDuration,
    /// Time per cycle spent in the upstream piconet; the remainder is spent
    /// downstream.
    pub dwell_upstream: SimDuration,
}

impl BridgeSpec {
    /// The presence windows of the bridge: `(upstream, downstream)`.
    ///
    /// # Errors
    ///
    /// Returns the window validation error (zero dwell, misaligned or
    /// overlong durations).
    pub fn windows(&self) -> Result<(PresenceWindow, PresenceWindow), PiconetError> {
        let up = PresenceWindow::new(self.cycle, SimDuration::ZERO, self.dwell_upstream)
            .map_err(|e| PiconetError(format!("bridge {}: {e}", self.upstream)))?;
        let down = PresenceWindow::new(
            self.cycle,
            self.dwell_upstream,
            self.cycle - self.dwell_upstream,
        )
        .map_err(|e| PiconetError(format!("bridge {}: {e}", self.downstream)))?;
        Ok((up, down))
    }
}

/// A cross-piconet flow: an ordered list of per-piconet hop flows.
///
/// Consecutive hops must share a device: an uplink hop followed by a
/// downlink hop in the same piconet (the master relays internally), or a
/// downlink hop to a bridge slave followed by an uplink hop from that
/// bridge's identity in the next piconet. A bridge may be crossed in
/// either direction — upstream→downstream or back — so bidirectional
/// chains share one rendezvous schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainSpec {
    /// The hop flows, in path order. The first hop is fed by a registered
    /// source; every later hop is fed by relaying.
    pub hops: Vec<FlowId>,
    /// The per-hop polling intervals granted by multi-hop admission, in
    /// path order — recorded for reporting/auditing; the simulator itself
    /// polls whatever its per-piconet pollers decide. Empty when the chain
    /// was not admission-controlled; otherwise must match `hops` in
    /// length.
    pub hop_intervals: Vec<SimDuration>,
}

impl ChainSpec {
    /// A chain over `hops` without recorded admission grants.
    pub fn new(hops: Vec<FlowId>) -> ChainSpec {
        ChainSpec {
            hops,
            hop_intervals: Vec::new(),
        }
    }

    /// Attaches the admission-granted per-hop polling intervals (builder
    /// style).
    #[must_use]
    pub fn with_intervals(mut self, hop_intervals: Vec<SimDuration>) -> ChainSpec {
        self.hop_intervals = hop_intervals;
        self
    }
}

/// Static description of a scatternet scenario.
#[derive(Clone, Debug)]
pub struct ScatternetConfig {
    /// The piconets, indexed by [`PiconetId`].
    pub piconets: Vec<PiconetConfig>,
    /// The bridge slaves connecting them.
    pub bridges: Vec<BridgeSpec>,
    /// Cross-piconet flows relayed across the bridges.
    pub chains: Vec<ChainSpec>,
}

/// What happens to a packet that completes delivery on a captured hop.
#[derive(Clone, Copy, Debug)]
enum HopNext {
    /// Last hop of its chain: record end-to-end delay.
    Terminal { chain: u32 },
    /// Relay onto the next hop.
    Forward {
        chain: u32,
        /// Position of the completed hop within the chain (0 = first hop,
        /// whose packet arrival is the chain's origin timestamp).
        hop: u16,
        /// Target piconet.
        pic: u16,
        /// Dense index of the target hop flow in its piconet.
        flow_idx: u32,
        /// Global id of the target hop flow — resolved at build time so
        /// routing a capture needs no cross-island table access.
        flow: FlowId,
        /// Bridge crossings wait for the target-piconet presence window;
        /// `None` is a master-internal relay (immediate).
        window: Option<PresenceWindow>,
    },
}

/// A relay crossing an island boundary, staged until the end of the
/// current phase and injected into the target island by the coordinator.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StagedRelay {
    /// Handoff instant (the bridge's next appearance in the target
    /// piconet). Conservative phase boundaries guarantee `at >= B`.
    pub(crate) at: SimTime,
    /// Target piconet.
    pub(crate) pic: u16,
    /// Dense index of the target hop flow in its piconet.
    pub(crate) flow_idx: u32,
    /// The packet, restamped with the target flow id and handoff arrival.
    pub(crate) pkt: AppPacket,
    /// First-hop arrival of the packet's chain (for end-to-end delay).
    origin: SimTime,
}

/// Per-island share of one chain's statistics; summed across islands at
/// report time.
///
/// Every counter and statistic covers the same packet population: packets
/// whose *origin* (first-hop arrival) falls inside the measurement window.
/// The origin rides along with the packet (in the per-flow origin FIFOs
/// and in [`StagedRelay::origin`]), so the counted check is a direct
/// `origin >= warmup` comparison at every hop.
struct ChainLocal {
    relayed: u64,
    delivered: u64,
    e2e: DelayStats,
    residence: DelayStats,
}

/// One piconet's island: its [`World`] plus the relay fabric it can see
/// without touching any other island.
pub(crate) struct IslandState {
    world: World,
    /// This island's piconet id.
    pic: u16,
    /// `routes[flow_idx]`: relay action for captured flows of this island.
    routes: Vec<Option<HopNext>>,
    /// `origins[flow_idx]`: origin timestamps of in-flight packets on a
    /// relay-fed flow, FIFO — per-flow order is preserved across hops, so
    /// the consuming hop pops its packet's own origin.
    origins: Vec<VecDeque<SimTime>>,
    /// Cross-island relays captured this phase, drained by the
    /// coordinator at the phase boundary.
    staged: Vec<StagedRelay>,
    /// Monotone count of relays ever staged by this island — the staging
    /// sequence assigned at collect time, the last key of the
    /// deterministic pool injection order. Never reset, so the key is
    /// unique across the whole run.
    staged_seq: u64,
    /// Source indexes (into the world's source list) feeding chain-entry
    /// flows; their next-arrival instants bound this island's chain
    /// hotness when nothing is in flight. Filled at run start.
    entry_sources: Vec<usize>,
    /// Chain statistics are recorded for packets originating at or after
    /// this instant (the maximum piconet warm-up).
    warmup: SimTime,
    /// This island's share of each chain's statistics.
    chain_stats: Vec<ChainLocal>,
}

/// The scheduler of one island.
pub(crate) type IslandScheduler = Scheduler<Ev, EventQueue<Ev>>;

/// One island: a full single-piconet simulator (own timing wheel, own
/// clock) over an [`IslandState`].
pub(crate) type IslandSim = Simulator<IslandState, Ev, EventQueue<Ev>>;

/// What the sanitizer, the bisector's trace, the telemetry histograms
/// and the tracer see of one run. Every hook does nothing by default,
/// and plain runs instantiate the engine with `()`, so their hooks
/// compile to nothing. Island hooks name the island by piconet id;
/// observers keep per-island state in a `Vec` indexed by it. Hooks only
/// read the engine, with one exception: [`check_injection`] may withhold
/// an injection behind the target island's clock, which only the
/// deliberately broken corpus engines ever attempt.
///
/// [`check_injection`]: EngineObserver::check_injection
pub(crate) trait EngineObserver {
    /// Island `pic` is about to handle `ev`, due at `t`.
    #[inline]
    fn on_event(&mut self, _pic: u16, _t: SimTime, _ev: &Ev) {}

    /// Island `pic`'s handler and capture routing returned.
    #[inline]
    fn after_event(&mut self, _pic: u16) {}

    /// A relay (master relay or injection) was scheduled into island
    /// `pic`'s own wheel.
    #[inline]
    fn on_scheduled_relay(&mut self, _pic: u16, _at: SimTime, _flow_idx: u32, _seq: u64) {}

    /// Island `pic` staged a cross-island relay for the coordinator.
    #[inline]
    fn on_staged(&mut self, _pic: u16, _relay: &StagedRelay) {}

    /// Island `pic` ran to boundary `b`, processing `events` in this
    /// claim; `sched` is its scheduler after the run.
    #[inline]
    fn on_claim(&mut self, _pic: u16, _b: SimTime, _events: u64, _sched: &IslandScheduler) {}

    /// A relay staged by `source` with handoff `at` was collected into
    /// the pool at boundary `b`.
    #[inline]
    fn on_collected(&mut self, _b: SimTime, _source: u16, _at: SimTime) {}

    /// Phase `[t, b]` closed: `active` islands claimed, `skipped` idle,
    /// `pool_len` relays pooled after the collect, and whether adaptive
    /// widening stretched it past a calendar start. Every argument is
    /// derived from visit-order-invariant engine state.
    #[inline]
    fn on_phase(
        &mut self,
        _t: SimTime,
        _b: SimTime,
        _active: u64,
        _skipped: u64,
        _pool_len: usize,
        _stretched: bool,
    ) {
    }

    /// `relay` is due for injection into `target`; `false` withholds the
    /// schedule (an injection behind the target's clock).
    #[inline]
    fn check_injection(&mut self, _relay: &PooledRelay, _target: &IslandSim) -> bool {
        true
    }

    /// `relay` was injected at round clock `t`.
    #[inline]
    fn on_injected(&mut self, _t: SimTime, _relay: &PooledRelay) {}

    /// `relay` was still pooled when the run ended.
    #[inline]
    fn on_leftover(&mut self, _relay: &PooledRelay) {}

    /// `true` stops the engine at the end of the current round.
    #[inline]
    fn halted(&self) -> bool {
        false
    }
}

/// Plain runs: no instrumentation.
impl EngineObserver for () {}

/// The per-event handler of one island: the single-piconet handler
/// verbatim, plus capture routing against island-local state only.
fn island_handle<O: EngineObserver>(
    sched: &mut IslandScheduler,
    st: &mut IslandState,
    ev: Ev,
    obs: &mut O,
) {
    obs.on_event(st.pic, sched.now(), &ev);
    handle(sched, &mut st.world, ev);
    if !st.world.outbox.is_empty() {
        route_captures(sched, st, obs);
    }
    obs.after_event(st.pic);
}

/// The `(tag, a, b)` descriptor of an island event, as folded into the
/// rolling trace hash — enough to identify the event in an aligned
/// bisection window without storing packets. The tag indexes
/// [`EVENT_KIND_NAMES`](crate::EVENT_KIND_NAMES).
pub(crate) fn event_descriptor(ev: &Ev) -> (u8, u64, u64) {
    let (a, b) = match ev {
        Ev::Arrival { source_idx, pkt } => (*source_idx as u64, pkt.seq),
        Ev::Wake | Ev::ExchangeDone => (0, 0),
        Ev::ScoDone { sco_idx, start } => (*sco_idx as u64, nanos_of(*start)),
        Ev::Relay { flow_idx, pkt } => (*flow_idx as u64, pkt.seq),
    };
    (btgs_des::Tagged::tag(ev), a, b)
}

/// Routes every packet the handler completed on a captured hop. In-island
/// relays (master relays and self-loops) are scheduled directly; bridge
/// crossings are staged for the coordinator. The outbox cannot grow while
/// draining (routing only schedules or stages), so the indexed loop is
/// exact; `Captured` is `Copy`, so each read ends its borrow before the
/// routing mutates the island.
fn route_captures<O: EngineObserver>(
    sched: &mut IslandScheduler,
    st: &mut IslandState,
    obs: &mut O,
) {
    let captured = st.world.outbox.len();
    for i in 0..captured {
        let cap = st.world.outbox[i];
        let Some(next) = st.routes[cap.flow_idx] else {
            debug_assert!(false, "captured flow without a route");
            continue;
        };
        match next {
            HopNext::Terminal { chain } => {
                // The terminal hop is always relay-fed, so its origin FIFO
                // holds this packet's origin at the front.
                let origin = st.origins[cap.flow_idx].pop_front().expect(
                    "per-flow FIFO holds across hops: every terminal delivery has an origin",
                );
                debug_assert!(st.world.chain_inflight > 0);
                st.world.chain_inflight = st.world.chain_inflight.saturating_sub(1);
                if origin >= st.warmup {
                    let c = &mut st.chain_stats[chain as usize];
                    c.delivered += 1;
                    c.e2e.record(cap.at - origin);
                }
            }
            HopNext::Forward {
                chain,
                hop,
                pic,
                flow_idx,
                flow,
                window,
            } => {
                let origin = if hop == 0 {
                    // First hop: the packet's own arrival starts the clock.
                    cap.pkt.arrival
                } else {
                    st.origins[cap.flow_idx].pop_front().expect(
                        "per-flow FIFO holds across hops: every relayed packet has an origin",
                    )
                };
                let now = sched.now();
                // The handoff instant: immediately for a master-internal
                // relay; when the bridge next appears in the target piconet
                // for a bridge crossing. The `max(now)` only guards against
                // hand-built non-complementary schedules — derived bridge
                // windows always put the next appearance at or after the
                // exchange end.
                let handoff = match &window {
                    Some(w) => w.next_present(cap.at).max(now),
                    None => now,
                };
                if origin >= st.warmup {
                    let c = &mut st.chain_stats[chain as usize];
                    c.relayed += 1;
                    if window.is_some() {
                        c.residence.record(handoff - cap.at);
                    }
                }
                let pkt = AppPacket::new(cap.pkt.seq, flow, cap.pkt.size, handoff);
                if pic == st.pic {
                    // Master relay: same island, immediate re-enqueue.
                    st.origins[flow_idx as usize].push_back(origin);
                    sched.schedule_at(
                        handoff,
                        Ev::Relay {
                            flow_idx: flow_idx as usize,
                            pkt,
                        },
                    );
                    obs.on_scheduled_relay(st.pic, handoff, flow_idx, pkt.seq);
                } else {
                    // The packet leaves this island: it stops counting
                    // against the local chain backlog and is re-counted in
                    // the target island when the coordinator injects it.
                    debug_assert!(st.world.chain_inflight > 0);
                    st.world.chain_inflight = st.world.chain_inflight.saturating_sub(1);
                    let relay = StagedRelay {
                        at: handoff,
                        pic,
                        flow_idx,
                        pkt,
                        origin,
                    };
                    st.staged.push(relay);
                    obs.on_staged(st.pic, &relay);
                }
            }
        }
    }
    st.world.outbox.clear();
}

/// The first start of a presence window strictly after `t`, for the
/// window with `phase` offset into its `cycle`.
fn next_start_after(t: SimTime, phase: SimDuration, cycle: SimDuration) -> SimTime {
    let anchor = SimTime::ZERO + phase;
    if t < anchor {
        return anchor;
    }
    anchor + ((t - anchor).div_duration(cycle) + 1) * cycle
}

/// One calendar group: every bridge presence window sharing `(phase,
/// cycle)` — their starts coincide, so they contribute the same sync
/// instants — plus the source islands whose staged relays land at those
/// starts.
#[derive(Clone, Debug, PartialEq, Eq)]
struct SyncPoint {
    /// Offset of the window start into its cycle.
    phase: SimDuration,
    /// The rendezvous cycle.
    cycle: SimDuration,
    /// Source piconets of every bridge-crossing route whose handoffs land
    /// at this group's window starts (deduplicated). Adaptive widening
    /// drops the group's starts from the boundary set while every source
    /// is provably unable to stage such a relay.
    sources: Vec<u16>,
}

/// Registers one bridge-crossing route in the calendar: coincident
/// `(phase, cycle)` windows from different bridges share a group, and
/// `source` joins the group's hot-source set.
fn push_sync_point(
    points: &mut Vec<SyncPoint>,
    phase: SimDuration,
    cycle: SimDuration,
    source: u16,
) {
    match points
        .iter_mut()
        .find(|g| g.phase == phase && g.cycle == cycle)
    {
        Some(g) => {
            if !g.sources.contains(&source) {
                g.sources.push(source);
            }
        }
        None => points.push(SyncPoint {
            phase,
            cycle,
            sources: vec![source],
        }),
    }
}

/// The next phase boundary after `t`.
///
/// A calendar group's window start `s` must be a boundary only if some
/// source island of the group could stage a relay landing at `s`. Island
/// `i`'s conservative hotness `hot_from(i)` is the earliest instant chain
/// traffic could be inside it (`ZERO` while packets are in flight,
/// otherwise the earliest chain-entry arrival, `MAX` if it feeds no chain
/// and holds nothing): a packet entering at `hot_from` is delivered
/// strictly later and handed off at a window start strictly later still,
/// so island `i` only produces handoffs at starts strictly after
/// `hot_from(i)`. The boundary is the earliest needed start across
/// groups, capped by the earliest pooled relay handoff (every pending
/// injection instant is a mandatory boundary), the probe checkpoint, and
/// the horizon. With `widening` off every group counts as hot from time
/// zero, so every calendar start is a boundary — the fixed cadence the
/// equivalence tests compare against.
#[allow(clippy::too_many_arguments)]
fn next_boundary(
    t: SimTime,
    checkpoint: SimTime,
    probed: bool,
    horizon: SimTime,
    pool_min: Option<SimTime>,
    groups: &[SyncPoint],
    widening: bool,
    hot_from: impl Fn(usize) -> SimTime,
) -> SimTime {
    let mut b = horizon;
    if !probed && checkpoint > t && checkpoint < b {
        b = checkpoint;
    }
    if let Some(p) = pool_min {
        debug_assert!(
            p > t,
            "relays due at or before t are injected before rounds"
        );
        if p < b {
            b = p;
        }
    }
    for g in groups {
        let hot = if widening {
            g.sources
                .iter()
                .map(|&p| hot_from(p as usize))
                .min()
                .unwrap_or(SimTime::MAX)
        } else {
            SimTime::ZERO
        };
        if hot >= b {
            continue; // earliest landable start > hot >= b: cannot lower b
        }
        let s = next_start_after(t.max(hot), g.phase, g.cycle);
        if s < b {
            b = s;
        }
    }
    b
}

/// The earliest calendar window start strictly after `t`, hotness
/// ignored — what the boundary at `t` would have been with widening off.
/// A widened phase is one whose chosen boundary lies strictly past this
/// instant; the engine counts those as `widening_stretches`.
fn earliest_calendar_start(t: SimTime, groups: &[SyncPoint]) -> SimTime {
    groups
        .iter()
        .map(|g| next_start_after(t, g.phase, g.cycle))
        .min()
        .unwrap_or(SimTime::MAX)
}

/// `SimTime` as nanoseconds since the origin — the time key of trace
/// hashes and trace records (`SimTime::MAX` maps to `u64::MAX`).
#[inline]
pub(crate) fn nanos_of(t: SimTime) -> u64 {
    (t - SimTime::ZERO).as_nanos()
}

/// Post-run island bookkeeping: `(next pending event time, chain
/// hotness, staged-anything)`. The hotness is the earliest instant chain
/// traffic could be inside the island: time zero while its conservative
/// in-flight count is non-zero, else the earliest pending chain-entry
/// arrival. It stays valid until the island next runs or receives an
/// injection — both recompute it.
fn island_status(island: &mut IslandSim) -> (SimTime, SimTime, bool) {
    let (sched, st) = island.split_mut();
    let next_event = sched.next_event_time().unwrap_or(SimTime::MAX);
    let hot_from = if st.world.chain_inflight > 0 {
        SimTime::ZERO
    } else {
        st.entry_sources
            .iter()
            .map(|&s| st.world.next_arrival[s])
            .min()
            .unwrap_or(SimTime::MAX)
    };
    (next_event, hot_from, !st.staged.is_empty())
}

/// A staged relay parked in the coordinator's pool until the global round
/// clock reaches its handoff instant.
#[derive(Clone)]
pub(crate) struct PooledRelay {
    /// Injection key: handoff instant, then source piconet, then staging
    /// sequence — the deterministic total order of same-instant
    /// injections.
    pub(crate) at: SimTime,
    pub(crate) source: u16,
    pub(crate) seq: u64,
    pub(crate) relay: StagedRelay,
}

/// Pool head-room: enough for every relay in flight across one rendezvous
/// cycle at mesh scale, so the steady state never grows the buffer.
fn pool_capacity(islands: usize) -> usize {
    (islands * 8).max(1024)
}

/// Restores the pool's descending key order (minimum last, so due entries
/// pop off the back). `unsorted` is the [`EngineMutation::UnsortedStagingDrain`]
/// corpus mutation: the sort keeps `(at, source)` descending but flips the
/// staging-sequence tie-break, so same-instant same-source relays pop in
/// reverse staging order.
fn sort_pool(pool: &mut [PooledRelay], unsorted: bool) {
    if unsorted {
        // analyze: allow(unstable-sort): deliberate corpus mutation — the
        // broken tie-break is the point; the sanitizer must flag it.
        pool.sort_unstable_by(|x, y| {
            (y.at, y.source)
                .cmp(&(x.at, x.source))
                .then(x.seq.cmp(&y.seq))
        });
    } else {
        // analyze: allow(unstable-sort): the key (at, source, seq) is
        // unique per entry (seq is a per-source monotone counter), so
        // unstable ties cannot occur and the order is deterministic.
        pool.sort_unstable_by_key(|p| std::cmp::Reverse((p.at, p.source, p.seq)));
    }
}

/// Drains one island's staged relays into the pool at boundary `b`,
/// tagging each with the island's monotone staging sequence. Returns how
/// many were staged.
fn collect_island<O: EngineObserver>(
    st: &mut IslandState,
    pool: &mut Vec<PooledRelay>,
    b: SimTime,
    obs: &mut O,
) -> u64 {
    let pic = st.pic;
    let staged = st.staged.len() as u64;
    for (k, s) in st.staged.drain(..).enumerate() {
        obs.on_collected(b, pic, s.at);
        pool.push(PooledRelay {
            at: s.at,
            source: pic,
            seq: st.staged_seq + k as u64,
            relay: s,
        });
    }
    st.staged_seq += staged;
    staged
}

/// Injects one pooled relay into its target island. The engine only calls
/// this when the global round clock equals `relay.at`: the target island
/// has already processed every own event at that instant (it ran
/// inclusively to it, or had nothing due), so injected relays land behind
/// all same-instant local events in wheel FIFO order — an ordering that
/// holds identically across island visit orders and the
/// widening/batching toggles, which is what makes the reports
/// byte-identical across all of them.
fn inject_relay<O: EngineObserver>(island: &mut IslandSim, relay: &StagedRelay, obs: &mut O) {
    let (sched, st) = island.split_mut();
    st.origins[relay.flow_idx as usize].push_back(relay.origin);
    // The packet is inside the target island again: it counts against the
    // island's chain backlog from the moment it is scheduled.
    st.world.chain_inflight += 1;
    // In the clean engine the clamp is the identity: the round clock only
    // reaches `relay.at` while the target island's clock is at or before
    // it. It exists so the deliberately broken corpus engines (injections
    // behind the clock) keep running for the sanitizer to report the
    // violation instead of tripping the wheel's no-past-scheduling assert.
    let at = relay.at.max(sched.now());
    let pkt = AppPacket::new(relay.pkt.seq, relay.pkt.flow, relay.pkt.size, at);
    sched.schedule_at(
        at,
        Ev::Relay {
            flow_idx: relay.flow_idx as usize,
            pkt,
        },
    );
    obs.on_scheduled_relay(st.pic, at, relay.flow_idx, relay.pkt.seq);
}

/// The engine's one counter set, surfaced on [`ScatternetReport`] and
/// excluded from cross-configuration byte-identity digests the way
/// `events_processed` is.
#[derive(Clone, Copy, Debug, Default)]
struct EngineCounters {
    phases_run: u64,
    islands_claimed: u64,
    relays_staged: u64,
    widening_stretches: u64,
    islands_skipped_idle: u64,
    relays_injected: u64,
}

/// The engine toggles (see [`ScatternetSim::with_phase_widening`] and
/// [`ScatternetSim::with_phase_batching`]). Reports are byte-identical
/// across all four widening × batching combinations.
#[derive(Clone, Copy)]
struct EngineMode {
    widening: bool,
    batching: bool,
}

/// Test-only engine corruption state, driving one [`EngineMutation`]
/// through the round loop (the seeded-mutation corpus the sanitizer and
/// bisector are proven against). `which` is `None` for every supported
/// configuration, and every hook is then a no-op. Mutations steer the
/// engine, so they are not [`EngineObserver`]s.
struct MutationState {
    which: Option<EngineMutation>,
    /// [`EngineMutation::RelayBehindClock`]: the withheld relay, released
    /// one boundary late.
    held: Option<PooledRelay>,
    /// One-shot latch for the hold/drop/duplicate corruptions.
    fired: bool,
}

impl MutationState {
    fn new(which: Option<EngineMutation>) -> MutationState {
        MutationState {
            which,
            held: None,
            fired: false,
        }
    }

    /// [`EngineMutation::WideningPastHotBoundary`]: every island reads as
    /// never-hot, so the widened walk runs straight past boundaries that
    /// hot islands' staged relays land on.
    fn hot_blind(&self) -> bool {
        self.which == Some(EngineMutation::WideningPastHotBoundary)
    }

    /// [`EngineMutation::UnsortedStagingDrain`]: break the pool sort's
    /// staging-sequence tie-break.
    fn unsorted(&self) -> bool {
        self.which == Some(EngineMutation::UnsortedStagingDrain)
    }

    /// [`EngineMutation::BoundaryOffByOne`]: `true` when boundary `b` is a
    /// skippable calendar start — never a pending-injection, checkpoint or
    /// horizon cap, so the mutated walk skips sync points without
    /// deadlocking the round loop or scheduling injections it already owes.
    fn skip_boundary(
        &self,
        b: SimTime,
        checkpoint: SimTime,
        probed: bool,
        horizon: SimTime,
        pool_min: Option<SimTime>,
    ) -> bool {
        self.which == Some(EngineMutation::BoundaryOffByOne)
            && b < horizon
            && pool_min != Some(b)
            && (probed || b != checkpoint)
    }

    /// [`EngineMutation::DroppedRelay`] / [`EngineMutation::DuplicatedRelay`]:
    /// corrupt the freshly sorted pool, once — after the sanitizer counted
    /// the collected relays, so conservation is checked against the true
    /// staging counts.
    fn corrupt_pool(&mut self, pool: &mut Vec<PooledRelay>) {
        if self.fired || pool.is_empty() {
            return;
        }
        match self.which {
            Some(EngineMutation::DroppedRelay) => {
                self.fired = true;
                pool.pop();
            }
            Some(EngineMutation::DuplicatedRelay) => {
                self.fired = true;
                let dup = pool.last().expect("pool checked non-empty").clone();
                pool.push(dup);
            }
            _ => {}
        }
    }

    /// [`EngineMutation::RelayBehindClock`]: withholds the first due relay
    /// from injection (returns `None`; the relay is parked in the
    /// mutation state).
    fn intercept(&mut self, p: PooledRelay) -> Option<PooledRelay> {
        if self.which == Some(EngineMutation::RelayBehindClock) && !self.fired {
            self.fired = true;
            self.held = Some(p);
            return None;
        }
        Some(p)
    }

    /// [`EngineMutation::RelayBehindClock`]: hands the withheld relay back
    /// at the first boundary past its handoff — an injection behind the
    /// target island's clock.
    fn release_due(&mut self, t: SimTime) -> Option<PooledRelay> {
        if self.held.as_ref().is_some_and(|h| h.at < t) {
            self.held.take()
        } else {
            None
        }
    }
}

/// The island engine: rounds of "pick the next boundary, run the islands
/// with an event due by it (all of them with batching off) in visit
/// order, collect the staged relays into the pool, inject the relays due
/// at the boundary" until the horizon (or until `obs` halts it).
#[allow(clippy::too_many_arguments)]
fn run_phases<O: EngineObserver>(
    islands: &mut [IslandSim],
    order: &[usize],
    groups: &[SyncPoint],
    checkpoint: SimTime,
    horizon: SimTime,
    probe: &mut dyn FnMut(),
    mode: EngineMode,
    muts: &mut MutationState,
    obs: &mut O,
) -> EngineCounters {
    let n = islands.len();
    let mut counters = EngineCounters::default();
    let mut pool: Vec<PooledRelay> = Vec::with_capacity(pool_capacity(n));
    let mut next_event: Vec<SimTime> = Vec::with_capacity(n);
    let mut hot: Vec<SimTime> = Vec::with_capacity(n);
    let mut staged: Vec<bool> = vec![false; n];
    for island in islands.iter_mut() {
        let (ne, hf, _) = island_status(island);
        next_event.push(ne);
        hot.push(hf);
    }

    let mut t = SimTime::ZERO;
    let mut probed = false;
    loop {
        let pool_min = pool.last().map(|p| p.at);
        let blind = muts.hot_blind();
        let hot_of = |i: usize| if blind { SimTime::MAX } else { hot[i] };
        let mut b = next_boundary(
            t,
            checkpoint,
            probed,
            horizon,
            pool_min,
            groups,
            mode.widening,
            hot_of,
        );
        if muts.skip_boundary(b, checkpoint, probed, horizon, pool_min) {
            b = next_boundary(
                b,
                checkpoint,
                probed,
                horizon,
                pool_min,
                groups,
                mode.widening,
                hot_of,
            );
        }
        counters.phases_run += 1;
        let stretched = mode.widening && earliest_calendar_start(t, groups) < b;
        counters.widening_stretches += u64::from(stretched);
        // The claim rule (`next_event <= b`) reads the same values the
        // loop below skips on, so `active` equals the number of islands
        // actually run.
        let active = if mode.batching {
            order.iter().filter(|&&idx| next_event[idx] <= b).count()
        } else {
            order.len()
        };
        counters.islands_claimed += active as u64;
        counters.islands_skipped_idle += (order.len() - active) as u64;
        for &idx in order {
            if mode.batching && next_event[idx] > b {
                continue;
            }
            let island = &mut islands[idx];
            let events = island.run_until(b, |s, st, ev| island_handle(s, st, ev, obs));
            let pic = island.state().pic;
            obs.on_claim(pic, b, events, island.scheduler_mut());
            let (ne, hf, did_stage) = island_status(island);
            next_event[idx] = ne;
            hot[idx] = hf;
            staged[idx] |= did_stage;
        }
        for (idx, flag) in staged.iter_mut().enumerate() {
            if mode.batching && !*flag {
                continue;
            }
            *flag = false;
            counters.relays_staged += collect_island(islands[idx].state_mut(), &mut pool, b, obs);
        }
        sort_pool(&mut pool, muts.unsorted());
        muts.corrupt_pool(&mut pool);
        obs.on_phase(
            t,
            b,
            active as u64,
            (order.len() - active) as u64,
            pool.len(),
            stretched,
        );
        if !probed && b >= checkpoint {
            probe();
            probed = true;
        }
        t = b;
        if let Some(h) = muts.release_due(t) {
            pool.push(h);
            sort_pool(&mut pool, muts.unsorted());
        }
        // Inject every relay due now; it becomes live in the next round.
        // In the clean engine a due relay's handoff is exactly `t` (the
        // pending-injection cap makes every handoff a boundary); `<=`
        // keeps corpus-mutated engines draining late relays instead of
        // carrying them into next_boundary's `p > t` invariant. At the
        // horizon this is the drain: targets re-run to the horizon so
        // relays landing exactly on it still fire, and later handoffs
        // (which can never fire) are left in the pool.
        let mut due = false;
        while pool.last().is_some_and(|p| p.at <= t) {
            let p = pool.pop().expect("just peeked");
            let Some(p) = muts.intercept(p) else {
                continue;
            };
            let idx = p.relay.pic as usize;
            let island = &mut islands[idx];
            if obs.check_injection(&p, island) {
                inject_relay(island, &p.relay, obs);
                counters.relays_injected += 1;
                obs.on_injected(t, &p);
            }
            next_event[idx] = next_event[idx].min(t);
            hot[idx] = SimTime::ZERO;
            due = true;
        }
        if (t >= horizon && !due) || obs.halted() {
            break;
        }
    }
    probe();
    // A relay still *held* by the behind-clock mutation is deliberately
    // not reported: a never-released hold must trip the sanitizer's
    // conservation check.
    for p in &pool {
        obs.on_leftover(p);
    }
    counters
}

/// Measurements of one cross-piconet chain.
#[derive(Clone, Debug)]
pub struct ChainReport {
    /// The hop flows, in path order.
    pub hops: Vec<FlowId>,
    /// Packets relayed onto a further hop within the measurement window
    /// (counted once per hop crossed).
    pub relayed_packets: u64,
    /// Packets that completed the final hop and originated within the
    /// measurement window (always equal to `e2e.count()`).
    pub delivered_packets: u64,
    /// End-to-end delay: first-hop arrival to final-hop delivery. Equals
    /// the sum of per-hop queueing delays plus the bridge residence times
    /// (master relays are immediate).
    pub e2e: DelayStats,
    /// Bridge residence: delivery at the bridge to the bridge's next
    /// appearance in the target piconet, per bridge crossing.
    pub residence: DelayStats,
}

/// The complete result of one scatternet run.
#[derive(Clone, Debug)]
pub struct ScatternetReport {
    /// Per-piconet run reports (per-hop delay statistics live here, under
    /// the hop flows' ids). Each report's `events_processed` counts the
    /// events of that piconet's own island engine.
    pub piconets: Vec<RunReport>,
    /// Per-chain end-to-end measurements.
    pub chains: Vec<ChainReport>,
    /// Total events processed across all island engines. Identical across
    /// island visit orders and engine toggles — the same events fire
    /// either way.
    pub events_processed: u64,
    /// Boundary rounds the phased loop stepped through. Engine
    /// observability, excluded from cross-configuration byte-identity
    /// digests the way `events_processed` is (so are the three counters
    /// below).
    pub phases_run: u64,
    /// Islands actually claimed and run, summed over all rounds —
    /// idle-island skipping makes this far less than
    /// `phases_run × piconets`.
    pub islands_claimed: u64,
    /// Cross-island relays staged through the coordinator pool.
    pub relays_staged: u64,
    /// Phases whose boundary was widened past at least one calendar
    /// window start because no source island could hold chain traffic.
    pub widening_stretches: u64,
    /// Idle islands skipped without a claim (nothing due by the
    /// boundary), summed over all rounds. Zero with batching off.
    pub islands_skipped_idle: u64,
    /// Pooled relays actually injected into their target islands. Clean
    /// runs conserve relays: `relays_staged` equals `relays_injected`
    /// plus the relays still pooled at run end (handoffs past the
    /// horizon, reported by the sanitizer as `relays_leftover`).
    pub relays_injected: u64,
}

impl ScatternetReport {
    /// The run report of one piconet.
    ///
    /// # Panics
    ///
    /// Panics if `pic` is out of range.
    pub fn piconet(&self, pic: PiconetId) -> &RunReport {
        &self.piconets[pic.index()]
    }

    /// Aggregate delivered throughput over all piconets, in kbit/s.
    pub fn total_throughput_kbps(&self) -> f64 {
        self.piconets
            .iter()
            .map(RunReport::total_throughput_kbps)
            .sum()
    }
}

/// A configured scatternet simulation, ready to run.
///
/// Owns one island simulator per piconet; see the [module docs](self) for
/// the phased conservative execution and the relay semantics.
pub struct ScatternetSim {
    islands: Vec<IslandSim>,
    arena: ShardedFlowArena,
    /// `relay_fed[pic][flow_idx]`: fed by relaying, exempt from the
    /// one-source-per-flow rule.
    relay_fed: Vec<Vec<bool>>,
    /// The chains' hop lists, for report assembly.
    chain_hops: Vec<Vec<FlowId>>,
    /// The boundary calendar: every presence window that is the target of
    /// a bridge-crossing route, grouped by coincident `(phase, cycle)`
    /// with the source islands that can feed it.
    sync_points: Vec<SyncPoint>,
    shuffle_seed: Option<u64>,
    widening: bool,
    batching: bool,
    /// Test-only seeded engine corruption (see [`EngineMutation`]); `None`
    /// for every supported configuration.
    mutation: Option<EngineMutation>,
}

impl ScatternetSim {
    /// Builds a scatternet simulation.
    ///
    /// `pollers` and `channels` are per piconet, in [`PiconetId`] order.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule: per-piconet configuration errors,
    /// bridge windows that do not fit their cycle, bridges naming unknown
    /// piconets or doubling up on a slave, chains whose hops are unknown,
    /// shared, or not connected device-to-device.
    pub fn new(
        config: ScatternetConfig,
        pollers: Vec<Box<dyn Poller>>,
        channels: Vec<Box<dyn ChannelModel>>,
    ) -> Result<ScatternetSim, PiconetError> {
        let n = config.piconets.len();
        if n == 0 {
            return Err(PiconetError(
                "a scatternet needs at least one piconet".into(),
            ));
        }
        if n > u16::MAX as usize {
            return Err(PiconetError(format!(
                "{n} piconets exceed the 65535 the 16-bit PiconetId can name"
            )));
        }
        if pollers.len() != n || channels.len() != n {
            return Err(PiconetError(format!(
                "{n} piconets need exactly {n} pollers and {n} channel models"
            )));
        }

        // Inject the bridge presence windows into each piconet's mask.
        let mut piconets = config.piconets.clone();
        let mut bridge_windows: Vec<(PresenceWindow, PresenceWindow)> =
            Vec::with_capacity(config.bridges.len());
        for b in &config.bridges {
            if b.upstream.piconet.index() >= n || b.downstream.piconet.index() >= n {
                return Err(PiconetError(format!(
                    "bridge {} -> {} names an unknown piconet",
                    b.upstream, b.downstream
                )));
            }
            if b.upstream.piconet == b.downstream.piconet {
                return Err(PiconetError(format!(
                    "bridge {} -> {} must connect two distinct piconets",
                    b.upstream, b.downstream
                )));
            }
            let (up, down) = b.windows()?;
            piconets[b.upstream.piconet.index()]
                .presence
                .set(b.upstream.slave, up)?;
            piconets[b.downstream.piconet.index()]
                .presence
                .set(b.downstream.slave, down)?;
            bridge_windows.push((up, down));
        }

        // Build the per-piconet worlds and the sharded arena over their
        // dense flow tables.
        let mut worlds = Vec::with_capacity(n);
        let mut chans = channels;
        let mut polls = pollers;
        for cfg in piconets.iter().rev() {
            // Pop from the back so ownership moves without index juggling.
            let poller = polls.pop().expect("length checked");
            let channel = chans.pop().expect("length checked");
            worlds.push(World::build(cfg, poller, channel)?);
        }
        worlds.reverse();
        let arena = ShardedFlowArena::new(worlds.iter().map(|w| w.table.clone()).collect())
            .map_err(PiconetError)?;

        // Resolve the chains into relay routes, and record every
        // route-target presence window as a sync point.
        let mut routes: Vec<Vec<Option<HopNext>>> =
            worlds.iter().map(|w| vec![None; w.table.len()]).collect();
        let mut relay_fed: Vec<Vec<bool>> =
            worlds.iter().map(|w| vec![false; w.table.len()]).collect();
        let mut sync_points: Vec<SyncPoint> = Vec::new();
        let mut chain_hops = Vec::with_capacity(config.chains.len());
        for (ci, chain) in config.chains.iter().enumerate() {
            if chain.hops.len() < 2 {
                return Err(PiconetError(format!(
                    "chain {ci} needs at least two hops (a single-hop chain is just a flow)"
                )));
            }
            if !chain.hop_intervals.is_empty() && chain.hop_intervals.len() != chain.hops.len() {
                return Err(PiconetError(format!(
                    "chain {ci} records {} granted intervals for {} hops",
                    chain.hop_intervals.len(),
                    chain.hops.len()
                )));
            }
            let resolved: Vec<(PiconetId, FlowIdx)> = chain
                .hops
                .iter()
                .map(|id| {
                    arena
                        .route(*id)
                        .ok_or_else(|| PiconetError(format!("chain {ci}: unknown hop flow {id}")))
                })
                .collect::<Result<_, _>>()?;
            // The first hop is the chain's entry: packets ingressing it
            // join the entry island's conservative chain backlog.
            let (fpic, fidx) = resolved[0];
            worlds[fpic.index()].chain_entry[fidx.get()] = true;
            for (k, window) in resolved.windows(2).enumerate() {
                let (apic, aidx) = window[0];
                let (bpic, bidx) = window[1];
                let a = arena.shard(apic).spec(aidx);
                let b = arena.shard(bpic).spec(bidx);
                let bridge_window = if apic == bpic {
                    // Master relay: hop k terminates at the master, hop k+1
                    // originates there.
                    if !a.direction.is_uplink() || !b.direction.is_downlink() {
                        return Err(PiconetError(format!(
                            "chain {ci}: hops {} -> {} stay in {apic} but do not relay \
                             through the master (uplink then downlink required)",
                            a.id, b.id
                        )));
                    }
                    None
                } else {
                    // Bridge relay: hop k delivers to the bridge slave, hop
                    // k+1 transmits from its identity in the next piconet.
                    if !a.direction.is_downlink() || !b.direction.is_uplink() {
                        return Err(PiconetError(format!(
                            "chain {ci}: hops {} -> {} cross piconets but do not relay \
                             through a bridge slave (downlink then uplink required)",
                            a.id, b.id
                        )));
                    }
                    // A bridge serves crossings in both directions: the
                    // handoff waits for the bridge's window in whichever
                    // piconet the packet continues into.
                    let from = ScopedSlave::new(apic, a.slave);
                    let into = ScopedSlave::new(bpic, b.slave);
                    let (window, phase, cycle) = config
                        .bridges
                        .iter()
                        .zip(&bridge_windows)
                        .find_map(|(br, (up, down))| {
                            if br.upstream == from && br.downstream == into {
                                Some((*down, br.dwell_upstream, br.cycle))
                            } else if br.upstream == into && br.downstream == from {
                                Some((*up, SimDuration::ZERO, br.cycle))
                            } else {
                                None
                            }
                        })
                        .ok_or_else(|| {
                            PiconetError(format!(
                                "chain {ci}: no bridge connects {apic}/{} to {bpic}/{}",
                                a.slave, b.slave
                            ))
                        })?;
                    push_sync_point(&mut sync_points, phase, cycle, apic.0);
                    Some(window)
                };
                let slot = &mut routes[apic.index()][aidx.get()];
                if slot.is_some() {
                    return Err(PiconetError(format!(
                        "hop flow {} is shared by two chain positions",
                        a.id
                    )));
                }
                *slot = Some(HopNext::Forward {
                    chain: ci as u32,
                    hop: k as u16,
                    pic: bpic.0,
                    flow_idx: bidx.0,
                    flow: b.id,
                    window: bridge_window,
                });
                relay_fed[bpic.index()][bidx.get()] = true;
            }
            let (lpic, lidx) = *resolved.last().expect("at least two hops");
            let slot = &mut routes[lpic.index()][lidx.get()];
            if slot.is_some() {
                return Err(PiconetError(format!(
                    "hop flow {} is shared by two chain positions",
                    arena.shard(lpic).id(lidx)
                )));
            }
            *slot = Some(HopNext::Terminal { chain: ci as u32 });

            chain_hops.push(chain.hops.clone());
        }

        // Arm the capture flags and pre-size the relay machinery.
        for (pic, picroutes) in routes.iter().enumerate() {
            for (idx, r) in picroutes.iter().enumerate() {
                if r.is_some() {
                    worlds[pic].capture[idx] = true;
                    worlds[pic].reserve_relay(idx, 64);
                }
            }
            for (idx, fed) in relay_fed[pic].iter().enumerate() {
                if *fed {
                    worlds[pic].reserve_relay(idx, 64);
                }
            }
        }

        let warmup = piconets
            .iter()
            .map(|c| SimTime::ZERO + c.warmup)
            .max()
            .expect("at least one piconet");

        // Assemble the islands: per-piconet stat shares sized so the
        // steady state stays allocation-free.
        let num_chains = chain_hops.len();
        let islands = worlds
            .into_iter()
            .zip(routes)
            .enumerate()
            .map(|(pic, (world, routes))| {
                let origins = relay_fed[pic]
                    .iter()
                    .map(|fed| {
                        if *fed {
                            VecDeque::with_capacity(1024)
                        } else {
                            VecDeque::new()
                        }
                    })
                    .collect();
                let mut chain_stats: Vec<ChainLocal> = (0..num_chains)
                    .map(|_| ChainLocal {
                        relayed: 0,
                        delivered: 0,
                        e2e: DelayStats::new(),
                        residence: DelayStats::new(),
                    })
                    .collect();
                for r in routes.iter().flatten() {
                    match r {
                        HopNext::Terminal { chain } => {
                            chain_stats[*chain as usize].e2e.reserve(4096);
                        }
                        HopNext::Forward { chain, window, .. } if window.is_some() => {
                            chain_stats[*chain as usize].residence.reserve(4096);
                        }
                        HopNext::Forward { .. } => {}
                    }
                }
                let state = IslandState {
                    world,
                    pic: pic as u16,
                    routes,
                    origins,
                    staged: Vec::with_capacity(128),
                    staged_seq: 0,
                    entry_sources: Vec::new(),
                    warmup,
                    chain_stats,
                };
                Simulator::with_queue(state, EventQueue::new())
            })
            .collect();

        Ok(ScatternetSim {
            islands,
            arena,
            relay_fed,
            chain_hops,
            sync_points,
            shuffle_seed: None,
            widening: true,
            batching: true,
            mutation: None,
        })
    }

    /// Permutes the island visit order with a deterministic
    /// [`DetRng`]-driven shuffle (builder style). The reports do not
    /// depend on the visit order; this exists so equivalence tests can
    /// prove it.
    #[must_use]
    pub fn with_island_shuffle(mut self, seed: u64) -> ScatternetSim {
        self.shuffle_seed = Some(seed);
        self
    }

    /// Enables or disables adaptive phase widening (builder style; default
    /// on). When on, a calendar group's window starts are skipped as
    /// boundaries while no source island can hold chain traffic; when off,
    /// every calendar start is a boundary. Reports are byte-identical
    /// either way — only the round count changes.
    #[must_use]
    pub fn with_phase_widening(mut self, widening: bool) -> ScatternetSim {
        self.widening = widening;
        self
    }

    /// Enables or disables phase batching and idle-island skipping
    /// (builder style; default on). When on, an island with no event due
    /// by the boundary is neither run nor drained; when off, every island
    /// runs every round. Reports are byte-identical either way.
    #[must_use]
    pub fn with_phase_batching(mut self, batching: bool) -> ScatternetSim {
        self.batching = batching;
        self
    }

    /// The sharded flow arena (global id routing) of this scatternet.
    pub fn arena(&self) -> &ShardedFlowArena {
        &self.arena
    }

    /// Registers the traffic source of one flow, resolved through the
    /// global id space.
    ///
    /// # Errors
    ///
    /// Returns an error if the id is unknown, already has a source, or
    /// names a relay-fed hop (those are fed by the previous hop).
    pub fn add_source(&mut self, source: Box<dyn Source>) -> Result<(), PiconetError> {
        let id = source.flow();
        if let Some((pic, idx)) = self.arena.route(id) {
            if self.relay_fed[pic.index()][idx.get()] {
                return Err(PiconetError(format!(
                    "flow {id} is relay-fed; it cannot also have a source"
                )));
            }
            return self.islands[pic.index()]
                .state_mut()
                .world
                .add_source(source);
        }
        // SCO voice flows are not in the arena: route to the world whose
        // SCO binding claims the id.
        match self
            .islands
            .iter_mut()
            .position(|i| i.state_mut().world.has_sco_voice(id))
        {
            Some(pic) => self.islands[pic].state_mut().world.add_source(source),
            None => Err(PiconetError(format!("no flow {id} configured"))),
        }
    }

    /// Runs the scatternet until `horizon` and returns the report.
    /// (Consuming `self` makes a second run unrepresentable.)
    ///
    /// # Errors
    ///
    /// Returns an error if a non-relay-fed flow lacks a source or a
    /// warm-up reaches past the horizon.
    pub fn run(self, horizon: SimTime) -> Result<ScatternetReport, PiconetError> {
        self.run_probed(horizon, horizon, &mut || {})
    }

    /// Runs to `horizon`, invoking `probe` when the clock reaches
    /// `checkpoint` and once more when the run loop finishes (before report
    /// assembly) — the same bracketing hook as
    /// [`PiconetSim::run_probed`](crate::PiconetSim::run_probed), used by
    /// the zero-allocation gate. The probe always fires at a phase
    /// boundary, with every island at the same instant.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_probed(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
    ) -> Result<ScatternetReport, PiconetError> {
        self.run_with(checkpoint, horizon, probe, &mut ())
    }

    /// Runs to `horizon` on the plain engine and also returns the engine
    /// telemetry ([`TelemetryReport`]): the engine's counters plus its
    /// phase-width, relay-pool, wheel-occupancy and per-claim histograms,
    /// recorded once per phase and once per island claim — no per-event
    /// hook, no trace ring. The report is byte-identical to
    /// [`run`](ScatternetSim::run)'s, and the telemetry equals
    /// [`run_observed`](ScatternetSim::run_observed)'s.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_with_telemetry(
        self,
        horizon: SimTime,
    ) -> Result<(ScatternetReport, TelemetryReport), PiconetError> {
        let mut telemetry = TelemetryReport::default();
        let report = self.run_with(horizon, horizon, &mut || {}, &mut telemetry)?;
        telemetry.fill_from(&report);
        Ok((report, telemetry))
    }

    /// Runs to `horizon` with tracing enabled: a deterministic structured
    /// trace (fixed-capacity per-track ring buffers, sim-time keyed —
    /// byte-identical across island visit orders), plus the same engine
    /// telemetry as [`run_with_telemetry`](ScatternetSim::run_with_telemetry)
    /// with the rings' overflow count. Only the trace rings, fine events
    /// and [`EventMeter`]s need per-event hooks; every other run compiles
    /// them out.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_observed(
        self,
        horizon: SimTime,
        cfg: ObsConfig,
    ) -> Result<ObservedRun, PiconetError> {
        self.run_observed_probed(horizon, horizon, &mut || {}, cfg, Vec::new())
    }

    /// [`run_observed`](ScatternetSim::run_observed) with the
    /// zero-allocation probe bracket of
    /// [`run_probed`](ScatternetSim::run_probed), plus optional per-event
    /// cost meters — one per island, in [`PiconetId`] order (or an empty
    /// vector for none). Meters receive a `begin`/`end(tag)` pair around
    /// every island event and are handed back on the
    /// [`ObservedRun`]; wall-clock meters live in the harness crates
    /// (`btgs-obs`), keeping ambient time out of the simulation.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`]; additionally rejects a meter vector
    /// whose length does not match the piconet count.
    pub fn run_observed_probed(
        self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
        cfg: ObsConfig,
        meters: Vec<Box<dyn EventMeter>>,
    ) -> Result<ObservedRun, PiconetError> {
        if !meters.is_empty() && meters.len() != self.islands.len() {
            return Err(PiconetError(format!(
                "{} event meters for {} piconets (provide one per island, or none)",
                meters.len(),
                self.islands.len()
            )));
        }
        let mut tracer = Tracer::new(self.islands.len(), &cfg, meters);
        let report = self.run_with(checkpoint, horizon, probe, &mut tracer)?;
        Ok(tracer.finish(report))
    }

    /// Runs to `horizon` with the causality sanitizer enabled: per-phase
    /// checks of lookahead safety, widening boundaries, staged-relay total
    /// order, wheel FIFO and cross-island packet conservation (see the
    /// [`sanitizer`](crate::SanitizerCheck) docs). The engine halts at the
    /// end of the round that records the first finding, and a halted run's
    /// report is withheld; a clean sanitized run returns a report
    /// **byte-identical** to the unsanitized run of the same
    /// configuration. Plain [`run`](ScatternetSim::run) compiles all of
    /// this out.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_sanitized(self, horizon: SimTime) -> Result<SanitizedRun, PiconetError> {
        let mut sanitizer = Sanitizer::new(self.islands.len());
        let report = self.run_with(horizon, horizon, &mut || {}, &mut sanitizer)?;
        let sanitizer = sanitizer.into_report();
        Ok(SanitizedRun {
            report: sanitizer.clean().then_some(report),
            sanitizer,
        })
    }

    /// Runs to `horizon` recording an event trace ([`TraceConfig`]):
    /// per-island rolling hashes for divergence search, or a bounded
    /// descriptor window for an aligned counterexample. The divergence
    /// bisector ([`crate::bisect_runs`]) drives two traced runs to the
    /// first diverging event.
    ///
    /// # Errors
    ///
    /// See [`ScatternetSim::run`].
    pub fn run_traced(
        self,
        horizon: SimTime,
        trace: TraceConfig,
    ) -> Result<(ScatternetReport, RunTrace), PiconetError> {
        let mut recorder = BisectTrace::new(self.islands.len(), trace);
        let report = self.run_with(horizon, horizon, &mut || {}, &mut recorder)?;
        Ok((report, recorder.into_trace()))
    }

    /// Seeds one deliberately broken engine variant (builder style).
    /// Test-only: the sanitizer-corpus tests prove each mutation is caught
    /// and localized; never part of a supported configuration.
    #[doc(hidden)]
    #[must_use]
    pub fn with_mutation(mut self, mutation: EngineMutation) -> ScatternetSim {
        self.mutation = Some(mutation);
        self
    }

    /// The run loop behind every public `run_*`: seeds the islands, runs
    /// the phase loop under observer `obs` and assembles the report.
    fn run_with<O: EngineObserver>(
        mut self,
        checkpoint: SimTime,
        horizon: SimTime,
        probe: &mut dyn FnMut(),
        obs: &mut O,
    ) -> Result<ScatternetReport, PiconetError> {
        // `self` is consumed, so a sim cannot run twice by construction.
        for (pic, island) in self.islands.iter_mut().enumerate() {
            let fed = &self.relay_fed[pic];
            let (sched, st) = island.split_mut();
            st.world.check_sources(&|idx| fed[idx])?;
            st.world.check_horizon(horizon)?;
            st.world.horizon = horizon;
            seed_world(sched, &mut st.world);
            // Record which sources feed chain-entry flows: their pending
            // arrival instants bound the island's chain hotness.
            st.entry_sources = st
                .world
                .sources
                .iter()
                .enumerate()
                .filter_map(|(i, s)| match s.target {
                    Target::Flow(idx) if st.world.chain_entry[idx] => Some(i),
                    _ => None,
                })
                .collect();
        }

        // The island visit order: identity, or a deterministic shuffle to
        // prove order independence.
        let mut order: Vec<usize> = (0..self.islands.len()).collect();
        if let Some(seed) = self.shuffle_seed {
            let mut rng = DetRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let mode = EngineMode {
            widening: self.widening,
            batching: self.batching,
        };
        let mut islands = self.islands;
        let counters = run_phases(
            &mut islands,
            &order,
            &self.sync_points,
            checkpoint,
            horizon,
            probe,
            mode,
            &mut MutationState::new(self.mutation),
            obs,
        );

        let mut chains: Vec<ChainReport> = self
            .chain_hops
            .into_iter()
            .map(|hops| ChainReport {
                hops,
                relayed_packets: 0,
                delivered_packets: 0,
                e2e: DelayStats::new(),
                residence: DelayStats::new(),
            })
            .collect();
        let mut piconets = Vec::with_capacity(islands.len());
        let mut events_processed = 0;
        for island in islands {
            let events = island.events_processed();
            events_processed += events;
            let st = island.into_state();
            for (ci, local) in st.chain_stats.into_iter().enumerate() {
                let report = &mut chains[ci];
                report.relayed_packets += local.relayed;
                report.delivered_packets += local.delivered;
                report.e2e.merge(&local.e2e);
                report.residence.merge(&local.residence);
            }
            piconets.push(st.world.into_report(horizon, events));
        }
        Ok(ScatternetReport {
            piconets,
            chains,
            events_processed,
            phases_run: counters.phases_run,
            islands_claimed: counters.islands_claimed,
            relays_staged: counters.relays_staged,
            widening_stretches: counters.widening_stretches,
            islands_skipped_idle: counters.islands_skipped_idle,
            relays_injected: counters.relays_injected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: u64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn next_start_after_is_strictly_after_t() {
        let phase = ms(3);
        let cycle = ms(10);
        // Before the anchor: the anchor itself is the first start.
        assert_eq!(next_start_after(SimTime::ZERO, phase, cycle), at_ms(3));
        // Exactly at the anchor: strictly after means one full cycle on.
        assert_eq!(next_start_after(at_ms(3), phase, cycle), at_ms(13));
        // Exactly on a later boundary: again strictly after.
        assert_eq!(next_start_after(at_ms(23), phase, cycle), at_ms(33));
        // Mid-cycle: the enclosing cycle's next start.
        assert_eq!(next_start_after(at_ms(17), phase, cycle), at_ms(23));
        // Zero phase anchors at the origin.
        assert_eq!(next_start_after(SimTime::ZERO, ms(0), cycle), at_ms(10));
    }

    #[test]
    fn next_start_after_is_on_grid_and_minimal() {
        // Property sweep: the result is strictly after t, lands on the
        // window grid, and no earlier grid point is strictly after t.
        for (phase_ms, cycle_ms) in [(0u64, 7u64), (3, 10), (9, 10), (5, 12), (11, 13)] {
            let phase = ms(phase_ms);
            let cycle = ms(cycle_ms);
            let anchor = SimTime::ZERO + phase;
            for t_ms in 0..200u64 {
                let t = at_ms(t_ms);
                let s = next_start_after(t, phase, cycle);
                assert!(s > t, "start {s} not after {t}");
                assert!(s >= anchor);
                let off = s - anchor;
                assert_eq!(
                    off.div_duration(cycle) * cycle,
                    off,
                    "start {s} off the ({phase_ms},{cycle_ms}) grid"
                );
                // Minimality: one cycle earlier is at or before t (the
                // anchor itself has no earlier grid point).
                if s != anchor {
                    assert!(s - cycle <= t);
                }
            }
        }
    }

    #[test]
    fn coincident_sync_points_merge_and_dedupe_sources() {
        let mut points = Vec::new();
        push_sync_point(&mut points, ms(3), ms(10), 0);
        push_sync_point(&mut points, ms(3), ms(10), 4);
        push_sync_point(&mut points, ms(3), ms(10), 0); // duplicate source
        push_sync_point(&mut points, ms(5), ms(10), 1); // other phase
        push_sync_point(&mut points, ms(3), ms(20), 2); // other cycle
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].sources, vec![0, 4]);
        assert_eq!(points[1].sources, vec![1]);
        assert_eq!(points[2].sources, vec![2]);
    }

    /// Reference semantics of [`next_boundary`]: the minimum over every
    /// cap and every group's next landable start, with no pruning.
    #[allow(clippy::too_many_arguments)]
    fn naive_boundary(
        t: SimTime,
        checkpoint: SimTime,
        probed: bool,
        horizon: SimTime,
        pool_min: Option<SimTime>,
        groups: &[SyncPoint],
        widening: bool,
        hot: &[SimTime],
    ) -> SimTime {
        let mut candidates = vec![horizon];
        if !probed && checkpoint > t {
            candidates.push(checkpoint);
        }
        if let Some(p) = pool_min {
            candidates.push(p);
        }
        for g in groups {
            let from = if widening {
                g.sources
                    .iter()
                    .map(|&p| hot[p as usize])
                    .min()
                    .unwrap_or(SimTime::MAX)
            } else {
                SimTime::ZERO
            };
            if from == SimTime::MAX {
                continue;
            }
            candidates.push(next_start_after(t.max(from), g.phase, g.cycle));
        }
        candidates
            .into_iter()
            .min()
            .expect("horizon is always there")
    }

    #[test]
    fn calendar_boundary_matches_naive_scan() {
        // A 3-group calendar over 4 islands with every hotness shape:
        // always hot, drained (MAX), and mid-run instants on and off the
        // grids. The calendar walk must agree with the unpruned reference
        // at every probe time, both widened and fixed.
        let mut groups = Vec::new();
        push_sync_point(&mut groups, ms(3), ms(10), 0);
        push_sync_point(&mut groups, ms(3), ms(10), 1);
        push_sync_point(&mut groups, ms(5), ms(12), 2);
        push_sync_point(&mut groups, ms(0), ms(7), 3);
        let hots: [[u64; 4]; 4] = [
            [0, 0, 0, 0],
            [0, 50, u64::MAX, 33],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX],
            [13, 13, 24, 91],
        ];
        let checkpoint = at_ms(100);
        let horizon = at_ms(180);
        for hot_ms in hots {
            let hot: Vec<SimTime> = hot_ms
                .iter()
                .map(|&v| {
                    if v == u64::MAX {
                        SimTime::MAX
                    } else {
                        at_ms(v)
                    }
                })
                .collect();
            for widening in [false, true] {
                for probed in [false, true] {
                    for t_ms in 0..170u64 {
                        let t = at_ms(t_ms);
                        let pool_min = (t_ms % 3 == 0).then(|| t + ms(1 + t_ms % 17));
                        let got = next_boundary(
                            t,
                            checkpoint,
                            probed,
                            horizon,
                            pool_min,
                            &groups,
                            widening,
                            |i| hot[i],
                        );
                        let want = naive_boundary(
                            t, checkpoint, probed, horizon, pool_min, &groups, widening, &hot,
                        );
                        assert_eq!(
                            got, want,
                            "boundary diverged at t={t_ms}ms \
                             (widening {widening}, probed {probed}, hot {hot_ms:?})"
                        );
                        assert!(got > t || got == horizon);
                    }
                }
            }
        }
    }

    #[test]
    fn widened_boundaries_skip_cold_groups() {
        // One group whose only source goes hot at 50 ms: before that the
        // horizon is the boundary; afterwards the first start after the
        // hot instant is.
        let mut groups = Vec::new();
        push_sync_point(&mut groups, ms(3), ms(10), 0);
        let horizon = at_ms(200);
        let b = |hot_at: SimTime| {
            next_boundary(
                SimTime::ZERO,
                horizon,
                true,
                horizon,
                None,
                &groups,
                true,
                |_| hot_at,
            )
        };
        assert_eq!(b(SimTime::MAX), horizon);
        assert_eq!(b(at_ms(50)), at_ms(53));
        assert_eq!(b(SimTime::ZERO), at_ms(3));
        // Widening off: the calendar start counts regardless of hotness.
        let fixed = next_boundary(
            SimTime::ZERO,
            horizon,
            true,
            horizon,
            None,
            &groups,
            false,
            |_| SimTime::MAX,
        );
        assert_eq!(fixed, at_ms(3));
    }
}
