//! The degradation governor: a per-node health state machine with
//! hysteresis.
//!
//! The predictive runtime is only as good as its models (paper §3.4: "the
//! model can become out-of-date"). When the `StateModel` snapshots it
//! predicts over grow stale, the `NetworkModel` loses confidence in the
//! peers the options refer to, steering filters fire in bursts, or the
//! per-decision prediction deadline is blown, *continuing to trust full
//! lookahead is worse than not predicting at all* — the predictions would
//! be confidently wrong. The governor classifies those signals into a
//! coarse [`Health`] level and drives the
//! [`LadderResolver`](crate::resolve::ladder::LadderResolver) down to
//! cheaper, safer resolution rungs, with hysteresis so the node does not
//! flap between strategies on a noisy boundary signal.
//!
//! ## Hysteresis
//!
//! Transitions move **one level at a time** and only after the raw
//! classification has pointed the same direction for a configurable number
//! of consecutive observations (`down_patience` to worsen, the larger
//! `up_patience` to recover). An oscillating signal therefore never builds
//! a streak long enough to move the state at all, and recovery is
//! deliberately slower than degradation: stepping down late costs wasted
//! prediction, stepping up early costs wrong predictions.

use cb_simnet::time::{SimDuration, SimTime};
use cb_telemetry::{keys, Histogram, Registry};

/// Coarse model-health level. Ordered: `Healthy < Degraded < Survival`
/// (greater = worse), so `max` composes "worst of several signals".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Health {
    /// Models fresh and confident: full predictive resolution is trusted.
    Healthy,
    /// Models aging or under pressure: prefer cached/cheap resolution.
    Degraded,
    /// Models effectively blind: take only the static safe default.
    Survival,
}

impl Health {
    /// The ladder rung this health level maps to (0 = full lookahead,
    /// 2 = heuristic; the ladder may bump further for deadline events).
    pub fn rung(self) -> usize {
        match self {
            Health::Healthy => 0,
            Health::Degraded => 1,
            Health::Survival => 2,
        }
    }

    /// One level worse, saturating at [`Health::Survival`].
    pub fn worse(self) -> Health {
        match self {
            Health::Healthy => Health::Degraded,
            Health::Degraded | Health::Survival => Health::Survival,
        }
    }

    /// One level better, saturating at [`Health::Healthy`].
    pub fn better(self) -> Health {
        match self {
            Health::Survival => Health::Degraded,
            Health::Degraded | Health::Healthy => Health::Healthy,
        }
    }

    /// Short label for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Survival => "survival",
        }
    }
}

/// Which pressure input dominated a governor classification — i.e. the
/// signal that demanded the worst health level. Recorded on every
/// observation and, crucially, on every step-down, so `core.governor.*`
/// telemetry and DecisionSpans can say *why* the node degraded, not just
/// that it did.
///
/// When several signals demand the same (worst) level the tie is broken by
/// a fixed priority — staleness, then confidence, then load, then
/// steering, then deadline — matching the order
/// [`DegradationGovernor::classify`] folds them in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PressureCause {
    /// No signal demanded worse than `Healthy`.
    None,
    /// Snapshot staleness crossed a threshold.
    Staleness,
    /// Network-model peer confidence collapsed.
    Confidence,
    /// Service-load backlog crossed a threshold.
    Load,
    /// Steering-filter pressure crossed the threshold.
    Steering,
    /// The previous decision's prediction deadline fired.
    Deadline,
}

impl PressureCause {
    /// Short label for telemetry attrs and reports.
    pub fn label(self) -> &'static str {
        match self {
            PressureCause::None => "none",
            PressureCause::Staleness => "staleness",
            PressureCause::Confidence => "confidence",
            PressureCause::Load => "load",
            PressureCause::Steering => "steering",
            PressureCause::Deadline => "deadline",
        }
    }
}

/// The model-health signals the runtime gathers immediately before each
/// decision and feeds to [`Resolver::observe_health`]
/// (crate::choice::Resolver::observe_health).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthSignals {
    /// Age of the *oldest* neighbor snapshot the state model holds, or
    /// `None` when no neighbor snapshots are expected (single node) —
    /// treated as fresh.
    pub snapshot_staleness: Option<SimDuration>,
    /// Minimum network-model confidence across the decision's declared
    /// peer options ([`crate::choice::OptionDesc::peer`]); 1.0 when it
    /// declares none the model knows.
    pub min_peer_confidence: f64,
    /// Steering filters currently installed on this node (a burst of
    /// filters means the controller is predicting trouble).
    pub steering_pressure: u64,
    /// Whether the previous decision's prediction hit its deadline
    /// ([`EvalVerdict::Partial`](crate::choice::EvalVerdict::Partial)).
    pub deadline_fired: bool,
    /// Normalized service-load backlog the node reported before this
    /// decision (units of one drain interval's capacity: 1 means "one
    /// interval behind"). 0 when the service reports no load.
    pub load: u64,
    /// Sim time of the observation; drives the time-in-state accounting.
    /// `SimTime::ZERO` (the default) contributes no dwell time.
    pub now: SimTime,
}

impl Default for HealthSignals {
    fn default() -> Self {
        HealthSignals {
            snapshot_staleness: None,
            min_peer_confidence: 1.0,
            steering_pressure: 0,
            deadline_fired: false,
            load: 0,
            now: SimTime::ZERO,
        }
    }
}

/// Thresholds and hysteresis patience for the governor.
#[derive(Clone, Copy, Debug)]
pub struct GovernorConfig {
    /// Snapshot age at which the node counts as `Degraded`.
    pub stale_degraded: SimDuration,
    /// Snapshot age at which the node counts as `Survival`.
    pub stale_survival: SimDuration,
    /// Peer confidence below which the node counts as `Degraded`.
    pub conf_degraded: f64,
    /// Peer confidence below which the node counts as `Survival`.
    pub conf_survival: f64,
    /// Installed steering filters at/above which the node counts as
    /// `Degraded` (steering pressure alone never forces `Survival`).
    pub pressure_degraded: u64,
    /// Normalized backlog at/above which the node counts as `Degraded`.
    pub load_degraded: u64,
    /// Normalized backlog at/above which the node counts as `Survival`.
    pub load_survival: u64,
    /// Consecutive worse-pointing observations before stepping down one
    /// level.
    pub down_patience: u32,
    /// Consecutive better-pointing observations before stepping up one
    /// level. Should exceed `down_patience`: recovery must be earned.
    pub up_patience: u32,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            stale_degraded: SimDuration::from_secs(10),
            stale_survival: SimDuration::from_secs(30),
            conf_degraded: 0.5,
            conf_survival: 0.1,
            pressure_degraded: 4,
            load_degraded: 4,
            load_survival: 16,
            down_patience: 2,
            up_patience: 8,
        }
    }
}

/// The per-node health state machine. Feed it one [`HealthSignals`] per
/// decision via [`observe`](DegradationGovernor::observe); read the current
/// level with [`health`](DegradationGovernor::health).
#[derive(Clone, Debug)]
pub struct DegradationGovernor {
    cfg: GovernorConfig,
    state: Health,
    /// Consecutive observations whose raw classification was worse than
    /// the current state.
    down_streak: u32,
    /// Consecutive observations whose raw classification was better than
    /// the current state.
    up_streak: u32,
    // ---- counters for telemetry (absolute; exported as snapshots) ----
    transitions: u64,
    step_downs: u64,
    recoveries: u64,
    decisions_healthy: u64,
    decisions_degraded: u64,
    decisions_survival: u64,
    /// Dominant cause of the most recent observation.
    last_cause: PressureCause,
    /// Dominant cause that tripped the most recent step-down.
    last_step_down_cause: PressureCause,
    step_downs_staleness: u64,
    step_downs_confidence: u64,
    step_downs_load: u64,
    step_downs_steering: u64,
    step_downs_deadline: u64,
    /// Sim time of the most recent observation (time-in-state clock).
    last_observed: SimTime,
    /// Sim-ns spent in each state, indexed by `Health::rung()`. The span
    /// between two observations is charged to the state in force when it
    /// started, so a node that never observes accrues nothing.
    ns_in_state: [u64; 3],
}

impl DegradationGovernor {
    /// A governor starting `Healthy` with the given thresholds.
    pub fn new(cfg: GovernorConfig) -> Self {
        DegradationGovernor {
            cfg,
            state: Health::Healthy,
            down_streak: 0,
            up_streak: 0,
            transitions: 0,
            step_downs: 0,
            recoveries: 0,
            decisions_healthy: 0,
            decisions_degraded: 0,
            decisions_survival: 0,
            last_cause: PressureCause::None,
            last_step_down_cause: PressureCause::None,
            step_downs_staleness: 0,
            step_downs_confidence: 0,
            step_downs_load: 0,
            step_downs_steering: 0,
            step_downs_deadline: 0,
            last_observed: SimTime::ZERO,
            ns_in_state: [0; 3],
        }
    }

    /// The current health level.
    pub fn health(&self) -> Health {
        self.state
    }

    /// The raw, hysteresis-free classification of one signal set: the
    /// worst level any individual signal demands.
    pub fn classify(&self, s: &HealthSignals) -> Health {
        self.classify_with_cause(s).0
    }

    /// Like [`classify`](DegradationGovernor::classify), but also reports
    /// the dominant [`PressureCause`]: the first signal (in staleness →
    /// confidence → steering → deadline priority order) that demanded the
    /// returned level.
    pub fn classify_with_cause(&self, s: &HealthSignals) -> (Health, PressureCause) {
        let mut h = Health::Healthy;
        let mut cause = PressureCause::None;
        let fold = |level: Health, c: PressureCause, h: &mut Health, cause: &mut PressureCause| {
            if level > *h {
                *h = level;
                *cause = c;
            }
        };
        if let Some(age) = s.snapshot_staleness {
            if age >= self.cfg.stale_survival {
                fold(
                    Health::Survival,
                    PressureCause::Staleness,
                    &mut h,
                    &mut cause,
                );
            } else if age >= self.cfg.stale_degraded {
                fold(
                    Health::Degraded,
                    PressureCause::Staleness,
                    &mut h,
                    &mut cause,
                );
            }
        }
        if s.min_peer_confidence < self.cfg.conf_survival {
            fold(
                Health::Survival,
                PressureCause::Confidence,
                &mut h,
                &mut cause,
            );
        } else if s.min_peer_confidence < self.cfg.conf_degraded {
            fold(
                Health::Degraded,
                PressureCause::Confidence,
                &mut h,
                &mut cause,
            );
        }
        if s.load >= self.cfg.load_survival {
            fold(Health::Survival, PressureCause::Load, &mut h, &mut cause);
        } else if s.load >= self.cfg.load_degraded {
            fold(Health::Degraded, PressureCause::Load, &mut h, &mut cause);
        }
        if s.steering_pressure >= self.cfg.pressure_degraded {
            fold(
                Health::Degraded,
                PressureCause::Steering,
                &mut h,
                &mut cause,
            );
        }
        if s.deadline_fired {
            fold(
                Health::Degraded,
                PressureCause::Deadline,
                &mut h,
                &mut cause,
            );
        }
        (h, cause)
    }

    /// Folds in one observation (one per decision) and returns the health
    /// level in force *for that decision*. Transitions happen one level at
    /// a time, only after the classification has pointed the same way for
    /// `down_patience` / `up_patience` consecutive observations.
    pub fn observe(&mut self, signals: &HealthSignals) -> Health {
        // Charge the span since the previous observation to the state that
        // was in force across it, *before* any transition below.
        let dwell = signals.now.saturating_since(self.last_observed);
        self.ns_in_state[self.state.rung()] += dwell.as_nanos();
        self.last_observed = self.last_observed.max(signals.now);
        let (target, cause) = self.classify_with_cause(signals);
        self.last_cause = cause;
        match target.cmp(&self.state) {
            std::cmp::Ordering::Greater => {
                self.down_streak += 1;
                self.up_streak = 0;
                if self.down_streak >= self.cfg.down_patience {
                    self.state = self.state.worse();
                    self.down_streak = 0;
                    self.transitions += 1;
                    self.step_downs += 1;
                    self.last_step_down_cause = cause;
                    match cause {
                        PressureCause::Staleness => self.step_downs_staleness += 1,
                        PressureCause::Confidence => self.step_downs_confidence += 1,
                        PressureCause::Load => self.step_downs_load += 1,
                        PressureCause::Steering => self.step_downs_steering += 1,
                        PressureCause::Deadline => self.step_downs_deadline += 1,
                        PressureCause::None => {}
                    }
                }
            }
            std::cmp::Ordering::Less => {
                self.up_streak += 1;
                self.down_streak = 0;
                if self.up_streak >= self.cfg.up_patience {
                    self.state = self.state.better();
                    self.up_streak = 0;
                    self.transitions += 1;
                    self.recoveries += 1;
                }
            }
            std::cmp::Ordering::Equal => {
                self.down_streak = 0;
                self.up_streak = 0;
            }
        }
        match self.state {
            Health::Healthy => self.decisions_healthy += 1,
            Health::Degraded => self.decisions_degraded += 1,
            Health::Survival => self.decisions_survival += 1,
        }
        self.state
    }

    /// Total state transitions (either direction).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Transitions toward worse health.
    pub fn step_downs(&self) -> u64 {
        self.step_downs
    }

    /// Transitions toward better health.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Dominant pressure cause of the most recent observation
    /// ([`PressureCause::None`] when the signals were healthy).
    pub fn last_cause(&self) -> PressureCause {
        self.last_cause
    }

    /// Dominant pressure cause that tripped the most recent step-down
    /// ([`PressureCause::None`] if none fired yet).
    pub fn last_step_down_cause(&self) -> PressureCause {
        self.last_step_down_cause
    }

    /// Sim-ns this node has spent in each health state, indexed by
    /// [`Health::rung`]: `[healthy, degraded, survival]`. Only spans
    /// between observations are charged; the tail after the last
    /// observation is not.
    pub fn sim_ns_in_state(&self) -> [u64; 3] {
        self.ns_in_state
    }

    /// Exports the governor counters under the `core.governor.*` keys
    /// (snapshot semantics: absolute sets, idempotent).
    pub fn export_metrics(&self, reg: &mut Registry) {
        reg.set_counter(keys::CORE_GOVERNOR_TRANSITIONS, self.transitions);
        reg.set_counter(keys::CORE_GOVERNOR_STEP_DOWNS, self.step_downs);
        reg.set_counter(keys::CORE_GOVERNOR_RECOVERIES, self.recoveries);
        reg.set_counter(
            keys::CORE_GOVERNOR_DECISIONS_HEALTHY,
            self.decisions_healthy,
        );
        reg.set_counter(
            keys::CORE_GOVERNOR_DECISIONS_DEGRADED,
            self.decisions_degraded,
        );
        reg.set_counter(
            keys::CORE_GOVERNOR_DECISIONS_SURVIVAL,
            self.decisions_survival,
        );
        reg.set_counter(
            keys::CORE_GOVERNOR_CAUSE_STALENESS,
            self.step_downs_staleness,
        );
        reg.set_counter(
            keys::CORE_GOVERNOR_CAUSE_CONFIDENCE,
            self.step_downs_confidence,
        );
        reg.set_counter(keys::CORE_GOVERNOR_CAUSE_LOAD, self.step_downs_load);
        reg.set_counter(keys::CORE_GOVERNOR_CAUSE_STEERING, self.step_downs_steering);
        reg.set_counter(keys::CORE_GOVERNOR_CAUSE_DEADLINE, self.step_downs_deadline);
        // Current rung as a gauge: fleet merges keep the max, so a merged
        // registry reports the worst node's health — what the
        // metastability oracle reads.
        reg.gauge_set(keys::CORE_GOVERNOR_RUNG, self.state.rung() as i64);
        // Time-in-state: one single-sample histogram per state, replaced
        // (not merged) on every export so repeated exports stay idempotent;
        // fleet merges across nodes then yield the per-node distribution.
        for (key, ns) in [
            (keys::CORE_GOVERNOR_HEALTHY_NS, self.ns_in_state[0]),
            (keys::CORE_GOVERNOR_DEGRADED_NS, self.ns_in_state[1]),
            (keys::CORE_GOVERNOR_SURVIVAL_NS, self.ns_in_state[2]),
        ] {
            let mut h = Histogram::new();
            h.record(ns);
            reg.set_hist(key, &h);
        }
    }
}

impl Default for DegradationGovernor {
    fn default() -> Self {
        DegradationGovernor::new(GovernorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stale(secs: u64) -> HealthSignals {
        HealthSignals {
            snapshot_staleness: Some(SimDuration::from_secs(secs)),
            ..HealthSignals::default()
        }
    }

    #[test]
    fn starts_healthy_and_stays_on_good_signals() {
        let mut g = DegradationGovernor::default();
        for _ in 0..100 {
            assert_eq!(g.observe(&HealthSignals::default()), Health::Healthy);
        }
        assert_eq!(g.transitions(), 0);
    }

    #[test]
    fn steps_down_after_patience_and_one_level_at_a_time() {
        let mut g = DegradationGovernor::default();
        // Survival-grade staleness, but the first step is only to Degraded.
        assert_eq!(g.observe(&stale(100)), Health::Healthy); // streak 1
        assert_eq!(g.observe(&stale(100)), Health::Degraded); // streak 2 -> step
        assert_eq!(g.observe(&stale(100)), Health::Degraded); // streak 1
        assert_eq!(g.observe(&stale(100)), Health::Survival); // streak 2 -> step
        assert_eq!(g.step_downs(), 2);
        assert_eq!(g.recoveries(), 0);
    }

    #[test]
    fn recovery_needs_longer_streak() {
        let cfg = GovernorConfig::default();
        let mut g = DegradationGovernor::new(cfg);
        for _ in 0..4 {
            g.observe(&stale(100));
        }
        assert_eq!(g.health(), Health::Survival);
        // up_patience - 1 good observations: no recovery yet.
        for _ in 0..(cfg.up_patience - 1) {
            g.observe(&HealthSignals::default());
        }
        assert_eq!(g.health(), Health::Survival);
        g.observe(&HealthSignals::default());
        assert_eq!(g.health(), Health::Degraded);
        assert_eq!(g.recoveries(), 1);
    }

    #[test]
    fn oscillating_signal_never_moves_the_state() {
        let mut g = DegradationGovernor::default();
        for i in 0..1000 {
            let s = if i % 2 == 0 {
                stale(15) // Degraded-grade
            } else {
                HealthSignals::default() // Healthy-grade
            };
            g.observe(&s);
        }
        assert_eq!(g.health(), Health::Healthy);
        assert_eq!(g.transitions(), 0, "hysteresis failed to damp flapping");
    }

    #[test]
    fn classification_takes_worst_signal() {
        let g = DegradationGovernor::default();
        assert_eq!(g.classify(&HealthSignals::default()), Health::Healthy);
        assert_eq!(g.classify(&stale(15)), Health::Degraded);
        assert_eq!(g.classify(&stale(45)), Health::Survival);
        let low_conf = HealthSignals {
            min_peer_confidence: 0.05,
            ..HealthSignals::default()
        };
        assert_eq!(g.classify(&low_conf), Health::Survival);
        let pressure = HealthSignals {
            steering_pressure: 10,
            ..HealthSignals::default()
        };
        assert_eq!(g.classify(&pressure), Health::Degraded);
        let deadline = HealthSignals {
            deadline_fired: true,
            ..HealthSignals::default()
        };
        assert_eq!(g.classify(&deadline), Health::Degraded);
        // Worst-of composition: Survival staleness + Degraded pressure.
        let both = HealthSignals {
            snapshot_staleness: Some(SimDuration::from_secs(45)),
            steering_pressure: 10,
            ..HealthSignals::default()
        };
        assert_eq!(g.classify(&both), Health::Survival);
    }

    #[test]
    fn health_order_and_rungs() {
        assert!(Health::Healthy < Health::Degraded);
        assert!(Health::Degraded < Health::Survival);
        assert_eq!(Health::Healthy.rung(), 0);
        assert_eq!(Health::Degraded.rung(), 1);
        assert_eq!(Health::Survival.rung(), 2);
        assert_eq!(Health::Survival.worse(), Health::Survival);
        assert_eq!(Health::Healthy.better(), Health::Healthy);
        assert_eq!(Health::Degraded.label(), "degraded");
    }

    #[test]
    fn dominant_cause_is_tracked_and_exported() {
        let mut g = DegradationGovernor::default();
        assert_eq!(g.last_cause(), PressureCause::None);
        assert_eq!(g.last_step_down_cause(), PressureCause::None);
        // Staleness-driven step-down.
        g.observe(&stale(15));
        g.observe(&stale(15));
        assert_eq!(g.health(), Health::Degraded);
        assert_eq!(g.last_cause(), PressureCause::Staleness);
        assert_eq!(g.last_step_down_cause(), PressureCause::Staleness);
        // Confidence-driven step-down to Survival.
        let low_conf = HealthSignals {
            min_peer_confidence: 0.05,
            ..HealthSignals::default()
        };
        g.observe(&low_conf);
        g.observe(&low_conf);
        assert_eq!(g.health(), Health::Survival);
        assert_eq!(g.last_step_down_cause(), PressureCause::Confidence);
        let mut reg = Registry::new();
        g.export_metrics(&mut reg);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_CAUSE_STALENESS), 1);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_CAUSE_CONFIDENCE), 1);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_CAUSE_STEERING), 0);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_CAUSE_DEADLINE), 0);
    }

    #[test]
    fn cause_tie_break_follows_priority_order() {
        let g = DegradationGovernor::default();
        // Both staleness and confidence demand Survival: staleness wins.
        let both = HealthSignals {
            snapshot_staleness: Some(SimDuration::from_secs(45)),
            min_peer_confidence: 0.05,
            ..HealthSignals::default()
        };
        assert_eq!(
            g.classify_with_cause(&both),
            (Health::Survival, PressureCause::Staleness)
        );
        // Confidence demands Survival, staleness only Degraded: the worse
        // signal dominates regardless of priority order.
        let conf_worse = HealthSignals {
            snapshot_staleness: Some(SimDuration::from_secs(15)),
            min_peer_confidence: 0.05,
            ..HealthSignals::default()
        };
        assert_eq!(
            g.classify_with_cause(&conf_worse),
            (Health::Survival, PressureCause::Confidence)
        );
        // Steering and deadline both demand Degraded: steering wins.
        let sd = HealthSignals {
            steering_pressure: 10,
            deadline_fired: true,
            ..HealthSignals::default()
        };
        assert_eq!(
            g.classify_with_cause(&sd),
            (Health::Degraded, PressureCause::Steering)
        );
        assert_eq!(PressureCause::Deadline.label(), "deadline");
    }

    #[test]
    fn load_signal_classifies_and_trips_step_downs() {
        let mut g = DegradationGovernor::default();
        let backlog = |load: u64| HealthSignals {
            load,
            ..HealthSignals::default()
        };
        assert_eq!(g.classify(&backlog(3)), Health::Healthy);
        assert_eq!(g.classify(&backlog(4)), Health::Degraded);
        assert_eq!(g.classify(&backlog(16)), Health::Survival);
        assert_eq!(
            g.classify_with_cause(&backlog(20)),
            (Health::Survival, PressureCause::Load)
        );
        // Confidence outranks load in the tie-break at equal severity.
        let both = HealthSignals {
            min_peer_confidence: 0.05,
            load: 20,
            ..HealthSignals::default()
        };
        assert_eq!(
            g.classify_with_cause(&both),
            (Health::Survival, PressureCause::Confidence)
        );
        g.observe(&backlog(8));
        g.observe(&backlog(8));
        assert_eq!(g.health(), Health::Degraded);
        assert_eq!(g.last_step_down_cause(), PressureCause::Load);
        let mut reg = Registry::new();
        g.export_metrics(&mut reg);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_CAUSE_LOAD), 1);
        assert_eq!(PressureCause::Load.label(), "load");
    }

    #[test]
    fn time_in_state_charges_dwell_to_the_state_in_force() {
        let mut g = DegradationGovernor::default();
        let at = |secs: u64, load: u64| HealthSignals {
            load,
            now: SimTime::from_secs(secs),
            ..HealthSignals::default()
        };
        g.observe(&at(10, 0)); // 0..10 healthy
        g.observe(&at(20, 99)); // 10..20 healthy; down streak 1
        g.observe(&at(30, 99)); // 20..30 healthy; step to Degraded
        g.observe(&at(45, 99)); // 30..45 degraded; down streak 1
        g.observe(&at(50, 99)); // 45..50 degraded; step to Survival
        g.observe(&at(60, 99)); // 50..60 survival
        let ns = g.sim_ns_in_state();
        assert_eq!(ns[0], SimDuration::from_secs(30).as_nanos());
        assert_eq!(ns[1], SimDuration::from_secs(20).as_nanos());
        assert_eq!(ns[2], SimDuration::from_secs(10).as_nanos());
        let mut reg = Registry::new();
        g.export_metrics(&mut reg);
        g.export_metrics(&mut reg); // set_hist keeps this idempotent
        let h = reg.hist(keys::CORE_GOVERNOR_DEGRADED_NS).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(reg.gauge(keys::CORE_GOVERNOR_RUNG), 2);
    }

    #[test]
    fn metrics_export_is_idempotent_snapshot() {
        let mut g = DegradationGovernor::default();
        for _ in 0..4 {
            g.observe(&stale(100));
        }
        let mut reg = Registry::new();
        g.export_metrics(&mut reg);
        g.export_metrics(&mut reg);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_STEP_DOWNS), 2);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_TRANSITIONS), 2);
        assert_eq!(reg.counter(keys::CORE_GOVERNOR_DECISIONS_SURVIVAL), 1);
    }
}
