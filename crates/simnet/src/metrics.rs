//! Lightweight metrics: counters, gauges, and latency histograms.
//!
//! The primitive types ([`Counter`], [`Gauge`], [`Histogram`]) started
//! life in this module and now live in the workspace-wide `cb-telemetry`
//! crate; they are re-exported here so existing `cb_simnet::metrics` users
//! keep compiling unchanged. This module keeps the simulator-specific
//! parts: per-node traffic metrics, their aggregate, the
//! [`HistogramExt::record_duration`] convenience for [`SimDuration`]
//! samples, and the bridge into a telemetry [`Registry`] under the
//! standard `net.*` keys.

use crate::time::SimDuration;
use cb_telemetry::{keys, Registry};
pub use cb_telemetry::{Counter, Gauge, Histogram};

/// Simulator-side extension for recording [`SimDuration`] samples.
///
/// (`Histogram` lives in `cb-telemetry`, below this crate, so it cannot
/// know about sim time; the extension trait restores the old inherent
/// method.)
pub trait HistogramExt {
    /// Records a duration in microseconds.
    fn record_duration(&mut self, d: SimDuration);
}

impl HistogramExt for Histogram {
    fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros());
    }
}

/// Per-node traffic metrics maintained by the simulator.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Messages handed to the transport.
    pub msgs_sent: Counter,
    /// Messages delivered to the actor.
    pub msgs_delivered: Counter,
    /// Messages dropped (loss after retries, broken connection, partition,
    /// or dead endpoint).
    pub msgs_dropped: Counter,
    /// Payload bytes handed to the transport.
    pub bytes_sent: Counter,
    /// Connections that completed the handshake and became established.
    pub conns_established: Counter,
    /// Established connections torn down by faults or endpoint death.
    pub conns_broken: Counter,
    /// One-way delivery latency of received messages, microseconds.
    pub delivery_latency: Histogram,
}

/// Aggregate of all nodes' metrics.
#[derive(Clone, Debug, Default)]
pub struct MetricsSummary {
    /// Total messages sent across all nodes.
    pub msgs_sent: u64,
    /// Total messages delivered across all nodes.
    pub msgs_delivered: u64,
    /// Total messages dropped across all nodes.
    pub msgs_dropped: u64,
    /// Total payload bytes sent.
    pub bytes_sent: u64,
    /// Total connections established across all nodes (both endpoints count).
    pub conns_established: u64,
    /// Total established connections broken (both endpoints count).
    pub conns_broken: u64,
    /// Merged delivery-latency histogram, microseconds.
    pub delivery_latency: Histogram,
}

impl MetricsSummary {
    /// Builds a summary over per-node metrics.
    pub fn aggregate<'a>(nodes: impl Iterator<Item = &'a NodeMetrics>) -> Self {
        let mut s = MetricsSummary::default();
        for m in nodes {
            s.msgs_sent += m.msgs_sent.get();
            s.msgs_delivered += m.msgs_delivered.get();
            s.msgs_dropped += m.msgs_dropped.get();
            s.bytes_sent += m.bytes_sent.get();
            s.conns_established += m.conns_established.get();
            s.conns_broken += m.conns_broken.get();
            s.delivery_latency.merge(&m.delivery_latency);
        }
        s
    }

    /// Exports the summary into a telemetry registry under the standard
    /// `net.*` keys. Idempotent (absolute sets / whole-histogram merge into
    /// a pre-registered empty slot), so exporters can run defensively.
    pub fn record_into(&self, reg: &mut Registry) {
        reg.set_counter(keys::NET_MSGS_SENT, self.msgs_sent);
        reg.set_counter(keys::NET_MSGS_DELIVERED, self.msgs_delivered);
        reg.set_counter(keys::NET_MSGS_DROPPED, self.msgs_dropped);
        reg.set_counter(keys::NET_BYTES_SENT, self.bytes_sent);
        reg.set_counter(keys::NET_CONNS_ESTABLISHED, self.conns_established);
        reg.set_counter(keys::NET_CONNS_BROKEN, self.conns_broken);
        reg.set_hist(keys::NET_DELIVERY_LATENCY_US, &self.delivery_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_recording_uses_micros() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(3));
        assert_eq!(h.max(), 3000);
    }

    #[test]
    fn summary_aggregates_nodes() {
        let mut m1 = NodeMetrics::default();
        let mut m2 = NodeMetrics::default();
        m1.msgs_sent.add(3);
        m2.msgs_sent.add(4);
        m1.conns_established.inc();
        m2.conns_broken.inc();
        m1.delivery_latency.record(10);
        m2.delivery_latency.record(20);
        let s = MetricsSummary::aggregate([&m1, &m2].into_iter());
        assert_eq!(s.msgs_sent, 7);
        assert_eq!(s.conns_established, 1);
        assert_eq!(s.conns_broken, 1);
        assert_eq!(s.delivery_latency.count(), 2);
    }

    #[test]
    fn summary_exports_standard_net_keys() {
        let mut m = NodeMetrics::default();
        m.msgs_sent.add(5);
        m.msgs_delivered.add(4);
        m.msgs_dropped.add(1);
        m.bytes_sent.add(640);
        m.delivery_latency.record(250);
        let s = MetricsSummary::aggregate([&m].into_iter());
        let mut reg = Registry::new();
        s.record_into(&mut reg);
        assert_eq!(reg.counter(keys::NET_MSGS_SENT), 5);
        assert_eq!(reg.counter(keys::NET_MSGS_DELIVERED), 4);
        assert_eq!(reg.counter(keys::NET_MSGS_DROPPED), 1);
        assert_eq!(reg.counter(keys::NET_BYTES_SENT), 640);
        assert_eq!(reg.hist(keys::NET_DELIVERY_LATENCY_US).unwrap().count(), 1);
        // Running the exporter again must not double-count.
        s.record_into(&mut reg);
        assert_eq!(reg.counter(keys::NET_MSGS_SENT), 5);
        assert_eq!(reg.hist(keys::NET_DELIVERY_LATENCY_US).unwrap().count(), 1);
    }
}
