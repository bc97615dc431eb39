//! Run reports: everything a simulation measured.

use crate::flow::FlowSpec;
use crate::ledger::{PollCounters, SlotLedger};
use btgs_baseband::{AmAddr, LogicalChannel};
use btgs_des::{SimDuration, SimTime};
use btgs_metrics::{DelayStats, Table};
use btgs_traffic::FlowId;
use std::collections::BTreeMap;

/// Measurements for one flow over the measurement window.
#[derive(Clone, Debug, Default)]
pub struct FlowReport {
    /// Higher-layer packets offered (arrived) during the window.
    pub offered_packets: u64,
    /// Bytes offered during the window.
    pub offered_bytes: u64,
    /// Higher-layer packets fully delivered during the window.
    pub delivered_packets: u64,
    /// Bytes delivered during the window.
    pub delivered_bytes: u64,
    /// Bytes lost without retransmission (SCO only; ACL uses ARQ).
    pub lost_bytes: u64,
    /// Per-packet delays (arrival to delivery of the last segment).
    pub delay: DelayStats,
}

impl FlowReport {
    /// Mean delivered throughput in kbit/s over a window of `window`.
    pub fn throughput_kbps(&self, window: SimDuration) -> f64 {
        assert!(!window.is_zero(), "measurement window must be non-empty");
        self.delivered_bytes as f64 * 8.0 / window.as_secs_f64() / 1000.0
    }
}

/// The complete result of one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Start of the measurement window (end of warm-up).
    pub window_start: SimTime,
    /// End of the measurement window (the run horizon).
    pub window_end: SimTime,
    /// The flows that were configured, in configuration order.
    pub flows: Vec<FlowSpec>,
    /// SCO voice flows `(id, slave)`, if any were simulated.
    pub sco_flows: Vec<(FlowId, AmAddr)>,
    /// Per-flow measurements (ACL flows and SCO voice flows).
    pub per_flow: BTreeMap<FlowId, FlowReport>,
    /// Slot usage classification.
    pub ledger: SlotLedger,
    /// GS poll counters.
    pub gs_polls: PollCounters,
    /// BE poll counters.
    pub be_polls: PollCounters,
    /// Total discrete events the engine processed over the whole run
    /// (including warm-up) — the numerator of events-per-second engine
    /// throughput in the benches.
    pub events_processed: u64,
    /// Name of the poller that produced the run.
    pub poller: String,
}

impl RunReport {
    /// The measurement window length.
    pub fn window(&self) -> SimDuration {
        self.window_end - self.window_start
    }

    /// The report of one flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist in the report.
    pub fn flow(&self, id: FlowId) -> &FlowReport {
        self.try_flow(id)
            .unwrap_or_else(|| panic!("no report for {id}"))
    }

    /// The report of one flow, or `None` if the run did not carry it.
    pub fn try_flow(&self, id: FlowId) -> Option<&FlowReport> {
        self.per_flow.get(&id)
    }

    /// Delivered throughput of one flow in kbit/s.
    pub fn throughput_kbps(&self, id: FlowId) -> f64 {
        self.flow(id).throughput_kbps(self.window())
    }

    /// Aggregate delivered throughput of all flows at `slave` (including
    /// SCO voice), in kbit/s — the per-slave quantity plotted in the
    /// paper's Fig. 5.
    pub fn slave_throughput_kbps(&self, slave: AmAddr) -> f64 {
        let acl: f64 = self
            .flows
            .iter()
            .filter(|f| f.slave == slave)
            .map(|f| self.throughput_kbps(f.id))
            .sum();
        let sco: f64 = self
            .sco_flows
            .iter()
            .filter(|(_, s)| *s == slave)
            .map(|(id, _)| self.throughput_kbps(*id))
            .sum();
        acl + sco
    }

    /// Aggregate delivered throughput over all flows, in kbit/s.
    pub fn total_throughput_kbps(&self) -> f64 {
        let acl: f64 = self.flows.iter().map(|f| self.throughput_kbps(f.id)).sum();
        let sco: f64 = self
            .sco_flows
            .iter()
            .map(|(id, _)| self.throughput_kbps(*id))
            .sum();
        acl + sco
    }

    /// Ids of flows on the given logical channel, in configuration order.
    pub fn flows_on(&self, channel: LogicalChannel) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.channel == channel)
            .map(|f| f.id)
            .collect()
    }

    /// Renders a per-flow summary table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "flow",
            "slave",
            "chan",
            "dir",
            "offered",
            "delivered",
            "kbps",
            "delay mean",
            "delay max",
        ]);
        for f in &self.flows {
            let r = self.flow(f.id);
            t.row(vec![
                f.id.to_string(),
                f.slave.to_string(),
                f.channel.to_string(),
                f.direction.to_string(),
                r.offered_packets.to_string(),
                r.delivered_packets.to_string(),
                format!("{:.2}", r.throughput_kbps(self.window())),
                r.delay.mean().map_or_else(|| "-".into(), |d| d.to_string()),
                r.delay.max().map_or_else(|| "-".into(), |d| d.to_string()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btgs_baseband::Direction;

    fn report() -> RunReport {
        let s1 = AmAddr::new(1).unwrap();
        let flows = vec![
            FlowSpec::new(
                FlowId(1),
                s1,
                Direction::SlaveToMaster,
                LogicalChannel::GuaranteedService,
            ),
            FlowSpec::new(
                FlowId(2),
                s1,
                Direction::MasterToSlave,
                LogicalChannel::BestEffort,
            ),
        ];
        let mut per_flow = BTreeMap::new();
        per_flow.insert(
            FlowId(1),
            FlowReport {
                offered_packets: 100,
                offered_bytes: 16_000,
                delivered_packets: 100,
                delivered_bytes: 16_000,
                lost_bytes: 0,
                delay: DelayStats::new(),
            },
        );
        per_flow.insert(
            FlowId(2),
            FlowReport {
                delivered_bytes: 8_000,
                ..Default::default()
            },
        );
        RunReport {
            window_start: SimTime::from_secs(1),
            window_end: SimTime::from_secs(3),
            flows,
            sco_flows: Vec::new(),
            per_flow,
            ledger: SlotLedger::default(),
            gs_polls: PollCounters::default(),
            be_polls: PollCounters::default(),
            events_processed: 0,
            poller: "test".into(),
        }
    }

    #[test]
    fn window_and_throughput() {
        let r = report();
        assert_eq!(r.window(), SimDuration::from_secs(2));
        // 16000 B over 2 s = 64 kbps.
        assert_eq!(r.throughput_kbps(FlowId(1)), 64.0);
        assert_eq!(r.throughput_kbps(FlowId(2)), 32.0);
        assert_eq!(r.slave_throughput_kbps(AmAddr::new(1).unwrap()), 96.0);
        assert_eq!(r.slave_throughput_kbps(AmAddr::new(7).unwrap()), 0.0);
        assert_eq!(r.total_throughput_kbps(), 96.0);
    }

    #[test]
    fn channel_filter() {
        let r = report();
        assert_eq!(
            r.flows_on(LogicalChannel::GuaranteedService),
            vec![FlowId(1)]
        );
        assert_eq!(r.flows_on(LogicalChannel::BestEffort), vec![FlowId(2)]);
    }

    #[test]
    #[should_panic(expected = "no report for")]
    fn missing_flow_panics() {
        let r = report();
        let _ = r.flow(FlowId(9));
    }

    #[test]
    fn table_has_one_row_per_flow() {
        let r = report();
        let rendered = r.to_table().render();
        assert_eq!(rendered.lines().count(), 2 + 2);
        assert!(rendered.contains("flow1"));
        assert!(rendered.contains("64.00"));
    }
}
