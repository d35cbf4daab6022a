//! The network model: per-peer performance estimates with aging confidence.
//!
//! Paper §3.3: the runtime, not each application, should own the network
//! model — latency, bandwidth, and loss per peer — built from passive
//! observation (the runtime timestamps every message) and explicit probes.
//! Because "the model can become out-of-date", each estimate carries a
//! confidence that decays exponentially with the age of its last sample
//! (§3.3.2: "incorporate confidence in the information as a function of its
//! age").

use cb_simnet::hash::SmallKeyMap;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use std::collections::hash_map::Entry;

/// Smoothing factor for the exponentially weighted moving averages.
const EWMA_ALPHA: f64 = 0.25;

/// One peer's link estimate.
#[derive(Clone, Debug)]
pub struct LinkEstimate {
    /// Smoothed one-way latency.
    pub latency: SimDuration,
    /// Smoothed deviation of the latency samples (RFC 6298-style).
    pub latency_dev: SimDuration,
    /// Smoothed available bandwidth, bits per second (0 until observed).
    pub bandwidth_bps: f64,
    /// Smoothed loss indicator in `[0, 1]` (0 until observed).
    pub loss: f64,
    /// When the last sample of any kind arrived.
    pub last_sample: SimTime,
    /// Total samples folded in.
    pub samples: u64,
    /// Multiplicative confidence penalty in `(0, 1]`. Collapses to
    /// [`CONN_BREAK_PENALTY`] when the connection to the peer is observed
    /// broken (partition, crash, reset) — age decay alone is far too slow
    /// to reflect a *known* disruption — and restores to `1.0` on the next
    /// fresh sample of any kind.
    pub confidence_penalty: f64,
}

/// The confidence multiplier applied when a peer's connection is observed
/// broken: the estimate survives (it is still the best guess we have) but
/// is barely trusted until a fresh sample proves the peer reachable again.
pub const CONN_BREAK_PENALTY: f64 = 0.05;

impl LinkEstimate {
    fn new(first_latency: SimDuration, now: SimTime) -> Self {
        LinkEstimate {
            latency: first_latency,
            latency_dev: first_latency / 2,
            bandwidth_bps: 0.0,
            loss: 0.0,
            last_sample: now,
            samples: 1,
            confidence_penalty: 1.0,
        }
    }
}

/// The runtime-owned model of this node's network neighborhood.
///
/// # Examples
///
/// ```
/// use cb_core::model::net::NetworkModel;
/// use cb_simnet::time::{SimDuration, SimTime};
/// use cb_simnet::topology::NodeId;
///
/// let mut net = NetworkModel::new(SimDuration::from_secs(10));
/// net.observe_latency(NodeId(1), SimDuration::from_millis(30), SimTime::from_secs(1));
/// let (lat, conf) = net.predicted_latency(NodeId(1), SimTime::from_secs(1)).unwrap();
/// assert_eq!(lat, SimDuration::from_millis(30));
/// assert!(conf > 0.99);
/// // Ten half-lives later the estimate is still there but barely trusted.
/// let (_, conf_old) = net.predicted_latency(NodeId(1), SimTime::from_secs(101)).unwrap();
/// assert!(conf_old < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// Hashed, not ordered: a gossip node hears from a new random partner
    /// on nearly every delivery, and a tree would allocate a node for each.
    /// [`NetworkModel::known_peers`], the one ordered view, sorts.
    links: SmallKeyMap<NodeId, LinkEstimate>,
    /// Confidence halves every this much time without a sample.
    half_life: SimDuration,
    /// Total observations, for accounting.
    observations: u64,
}

impl NetworkModel {
    /// Creates an empty model whose confidence halves every `half_life`.
    ///
    /// # Panics
    ///
    /// Panics if `half_life` is zero.
    pub fn new(half_life: SimDuration) -> Self {
        assert!(!half_life.is_zero(), "half-life must be positive");
        NetworkModel {
            links: SmallKeyMap::default(),
            half_life,
            observations: 0,
        }
    }

    /// Folds in a one-way latency sample (the runtime generates these
    /// passively from message timestamps).
    pub fn observe_latency(&mut self, peer: NodeId, sample: SimDuration, now: SimTime) {
        self.observations += 1;
        match self.links.entry(peer) {
            Entry::Vacant(slot) => {
                slot.insert(LinkEstimate::new(sample, now));
            }
            Entry::Occupied(slot) => {
                let est = slot.into_mut();
                let old = est.latency.as_nanos() as f64;
                let s = sample.as_nanos() as f64;
                let dev = (s - old).abs();
                est.latency =
                    SimDuration::from_nanos((old + EWMA_ALPHA * (s - old)).max(0.0) as u64);
                let old_dev = est.latency_dev.as_nanos() as f64;
                est.latency_dev = SimDuration::from_nanos(
                    (old_dev + EWMA_ALPHA * (dev - old_dev)).max(0.0) as u64,
                );
                est.last_sample = now;
                est.samples += 1;
                est.confidence_penalty = 1.0;
            }
        }
    }

    /// Folds in an achieved-bandwidth sample in bits per second (e.g. from
    /// a timed block transfer).
    pub fn observe_bandwidth(&mut self, peer: NodeId, bps: f64, now: SimTime) {
        self.observations += 1;
        let est = self
            .links
            .entry(peer)
            .or_insert_with(|| LinkEstimate::new(SimDuration::from_millis(50), now));
        est.bandwidth_bps = if est.bandwidth_bps == 0.0 {
            bps
        } else {
            est.bandwidth_bps + EWMA_ALPHA * (bps - est.bandwidth_bps)
        };
        est.last_sample = now;
        est.samples += 1;
        est.confidence_penalty = 1.0;
    }

    /// Folds in a loss indicator: `lost = true` for a missed delivery,
    /// `false` for a successful one.
    pub fn observe_loss(&mut self, peer: NodeId, lost: bool, now: SimTime) {
        self.observations += 1;
        let est = self
            .links
            .entry(peer)
            .or_insert_with(|| LinkEstimate::new(SimDuration::from_millis(50), now));
        let x = if lost { 1.0 } else { 0.0 };
        est.loss += EWMA_ALPHA * (x - est.loss);
        est.last_sample = now;
        est.samples += 1;
        est.confidence_penalty = 1.0;
    }

    /// Records that the connection to `peer` was observed broken (partition
    /// notification, reset, crash report). The estimate itself is kept — it
    /// is still the best structural guess available — but its confidence
    /// collapses by [`CONN_BREAK_PENALTY`] until the next fresh sample of
    /// any kind proves the peer reachable again (§3.3.2: confidence must
    /// react to *known* disruptions faster than age decay alone would).
    ///
    /// Unknown peers are ignored: there is no estimate to distrust.
    pub fn observe_conn_broken(&mut self, peer: NodeId, now: SimTime) {
        if let Some(est) = self.links.get_mut(&peer) {
            self.observations += 1;
            est.confidence_penalty = CONN_BREAK_PENALTY;
            // Deliberately does NOT touch `last_sample`: the break is not a
            // sample, and aging should keep running from the last real one.
            let _ = now;
        }
    }

    /// The raw estimate for a peer, if any sample has ever arrived.
    pub fn estimate(&self, peer: NodeId) -> Option<&LinkEstimate> {
        self.links.get(&peer)
    }

    /// Confidence in the peer's estimate at `now`: 1.0 right after a
    /// sample, halving every `half_life`, multiplied by the link's
    /// [`confidence_penalty`](LinkEstimate::confidence_penalty) (collapsed
    /// after an observed connection break). 0.0 for unknown peers.
    pub fn confidence(&self, peer: NodeId, now: SimTime) -> f64 {
        match self.links.get(&peer) {
            None => 0.0,
            Some(est) => {
                let age = now.saturating_since(est.last_sample);
                est.confidence_penalty
                    * 0.5f64.powf(age.as_secs_f64() / self.half_life.as_secs_f64())
            }
        }
    }

    /// Predicted one-way latency with its confidence, or `None` for unknown
    /// peers.
    pub fn predicted_latency(&self, peer: NodeId, now: SimTime) -> Option<(SimDuration, f64)> {
        self.links
            .get(&peer)
            .map(|est| (est.latency, self.confidence(peer, now)))
    }

    /// Predicted bandwidth (bits per second) with confidence; `None` when
    /// the peer is unknown or no bandwidth sample exists.
    pub fn predicted_bandwidth(&self, peer: NodeId, now: SimTime) -> Option<(f64, f64)> {
        self.links.get(&peer).and_then(|est| {
            if est.bandwidth_bps > 0.0 {
                Some((est.bandwidth_bps, self.confidence(peer, now)))
            } else {
                None
            }
        })
    }

    /// A conservative latency bound: estimate plus `k` deviations, scaled
    /// up when confidence is low. Useful for timeout selection.
    pub fn latency_bound(&self, peer: NodeId, k: f64, now: SimTime) -> Option<SimDuration> {
        let est = self.links.get(&peer)?;
        let conf = self.confidence(peer, now).max(0.1);
        let base = est.latency.as_secs_f64() + k * est.latency_dev.as_secs_f64();
        Some(SimDuration::from_secs_f64(base / conf))
    }

    /// Peers with any estimate, in id order.
    pub fn known_peers(&self) -> impl Iterator<Item = NodeId> {
        let mut peers: Vec<NodeId> = self.links.keys().copied().collect();
        peers.sort_unstable();
        peers.into_iter()
    }

    /// Total samples ever folded in.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Drops estimates older than `max_age` (model hygiene under churn).
    pub fn evict_stale(&mut self, now: SimTime, max_age: SimDuration) {
        self.links
            .retain(|_, est| now.saturating_since(est.last_sample) <= max_age);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn first_sample_is_taken_verbatim() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        net.observe_latency(NodeId(1), ms(40), SimTime::from_secs(1));
        assert_eq!(net.estimate(NodeId(1)).unwrap().latency, ms(40));
        assert_eq!(net.observations(), 1);
    }

    #[test]
    fn ewma_converges_toward_new_level() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        let mut t = SimTime::from_secs(1);
        net.observe_latency(NodeId(1), ms(100), t);
        for _ in 0..40 {
            t += ms(100);
            net.observe_latency(NodeId(1), ms(20), t);
        }
        let lat = net.estimate(NodeId(1)).unwrap().latency;
        assert!(lat < ms(25), "EWMA stuck at {lat}");
        assert!(lat >= ms(20), "EWMA overshot to {lat}");
    }

    #[test]
    fn confidence_decays_with_half_life() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        net.observe_latency(NodeId(2), ms(10), SimTime::from_secs(0));
        let c0 = net.confidence(NodeId(2), SimTime::from_secs(0));
        let c1 = net.confidence(NodeId(2), SimTime::from_secs(10));
        let c2 = net.confidence(NodeId(2), SimTime::from_secs(20));
        assert!((c0 - 1.0).abs() < 1e-9);
        assert!((c1 - 0.5).abs() < 1e-9, "one half-life: {c1}");
        assert!((c2 - 0.25).abs() < 1e-9, "two half-lives: {c2}");
        assert_eq!(net.confidence(NodeId(99), SimTime::from_secs(0)), 0.0);
    }

    #[test]
    fn fresh_sample_restores_confidence() {
        let mut net = NetworkModel::new(SimDuration::from_secs(5));
        net.observe_latency(NodeId(1), ms(10), SimTime::from_secs(0));
        assert!(net.confidence(NodeId(1), SimTime::from_secs(50)) < 0.01);
        net.observe_latency(NodeId(1), ms(12), SimTime::from_secs(50));
        assert!(net.confidence(NodeId(1), SimTime::from_secs(50)) > 0.99);
    }

    #[test]
    fn conn_break_collapses_confidence_until_fresh_sample() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        let t = SimTime::from_secs(1);
        net.observe_latency(NodeId(1), ms(30), t);
        let before = net.confidence(NodeId(1), t);
        assert!(before > 0.99, "pre-break confidence {before}");

        net.observe_conn_broken(NodeId(1), t);
        let after = net.confidence(NodeId(1), t);
        assert!(
            after < before,
            "post-break confidence {after} not below pre-break {before}"
        );
        assert!(
            after <= CONN_BREAK_PENALTY + 1e-12,
            "penalty not applied: {after}"
        );
        // Estimate survives: still the best structural guess.
        assert_eq!(net.estimate(NodeId(1)).unwrap().latency, ms(30));

        // A fresh sample of any kind restores full trust.
        net.observe_loss(NodeId(1), false, t);
        assert!(net.confidence(NodeId(1), t) > 0.99);

        // Breaking an unknown peer is a no-op.
        let obs = net.observations();
        net.observe_conn_broken(NodeId(42), t);
        assert_eq!(net.observations(), obs);
        assert!(net.estimate(NodeId(42)).is_none());
    }

    #[test]
    fn bandwidth_and_loss_tracking() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        let t = SimTime::from_secs(1);
        net.observe_bandwidth(NodeId(3), 1e6, t);
        assert_eq!(net.predicted_bandwidth(NodeId(3), t).unwrap().0, 1e6);
        net.observe_bandwidth(NodeId(3), 2e6, t);
        let (bw, _) = net.predicted_bandwidth(NodeId(3), t).unwrap();
        assert!(bw > 1e6 && bw < 2e6, "bw {bw}");
        // Loss EWMA moves toward 1 with loss events.
        for _ in 0..10 {
            net.observe_loss(NodeId(3), true, t);
        }
        assert!(net.estimate(NodeId(3)).unwrap().loss > 0.8);
        for _ in 0..10 {
            net.observe_loss(NodeId(3), false, t);
        }
        assert!(net.estimate(NodeId(3)).unwrap().loss < 0.2);
    }

    #[test]
    fn latency_bound_grows_when_stale() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        net.observe_latency(NodeId(1), ms(20), SimTime::from_secs(0));
        let fresh = net
            .latency_bound(NodeId(1), 2.0, SimTime::from_secs(0))
            .unwrap();
        let stale = net
            .latency_bound(NodeId(1), 2.0, SimTime::from_secs(40))
            .unwrap();
        assert!(stale > fresh, "stale bound {stale} <= fresh {fresh}");
        assert!(net
            .latency_bound(NodeId(9), 2.0, SimTime::from_secs(0))
            .is_none());
    }

    #[test]
    fn unknown_bandwidth_is_none_even_with_latency() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        net.observe_latency(NodeId(1), ms(20), SimTime::from_secs(0));
        assert!(net
            .predicted_bandwidth(NodeId(1), SimTime::from_secs(0))
            .is_none());
    }

    #[test]
    fn eviction_removes_only_stale() {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        net.observe_latency(NodeId(1), ms(20), SimTime::from_secs(0));
        net.observe_latency(NodeId(2), ms(20), SimTime::from_secs(100));
        net.evict_stale(SimTime::from_secs(101), SimDuration::from_secs(50));
        let peers: Vec<NodeId> = net.known_peers().collect();
        assert_eq!(peers, vec![NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "half-life must be positive")]
    fn zero_half_life_rejected() {
        let _ = NetworkModel::new(SimDuration::ZERO);
    }
}
