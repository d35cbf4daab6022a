//! Open-loop aggregate client load (ROADMAP item 2).
//!
//! The engine models *populations*, not individual clients: each fixed
//! window it computes how many user requests arrive, shaped by a diurnal
//! curve, a flash crowd, a heavy-tailed (bounded-Pareto) per-window burst,
//! and correlated client churn, then splits the total across regions by a
//! Zipf skew. One million simulated users therefore cost a handful of sim
//! events per window — the *counts* travel in aggregate messages — instead
//! of millions of per-request events. Every stream is a pure function of
//! `(profile, seed, window index)`: seed-deterministic and trivially
//! worker-count-invariant, like all prior machinery.
//!
//! The profile also carries the robustness knobs the kv service layer
//! reads (admission control, bounded retries, service rate, deadline) and
//! the gates the harness oracles check (goodput floor, recovery window),
//! so a campaign arm is fully described by one profile name.

use cb_simnet::rng::SimRng;
use cb_simnet::time::{SimDuration, SimTime};

/// A named open-loop traffic profile plus the overload-survival knobs and
/// oracle gates that go with it.
#[derive(Clone, Debug)]
pub struct WorkloadProfile {
    /// Profile name (`campaign --workload <name>`).
    pub name: &'static str,
    /// Simulated user population.
    pub users: u64,
    /// Mean request rate per user, Hz.
    pub per_user_hz: f64,
    /// Aggregation window: one batch per region per window.
    pub window: SimDuration,
    /// Number of client regions (Zipf-skewed shares).
    pub regions: u32,
    /// Zipf exponent for the regional split (0 = uniform).
    pub zipf_s: f64,
    /// Diurnal period (sinusoidal day/night curve).
    pub diurnal_period: SimDuration,
    /// Diurnal trough depth in `[0, 1)`: load dips to `1 - depth`.
    pub diurnal_depth: f64,
    /// Flash crowd window start (ignored when `flash_mult <= 1`).
    pub flash_start: SimTime,
    /// Flash crowd window end.
    pub flash_end: SimTime,
    /// Flash crowd arrival multiplier (1.0 = no flash).
    pub flash_mult: f64,
    /// Bounded-Pareto burst shape (heavier tail as it approaches 1).
    pub pareto_alpha: f64,
    /// Burst cap, in multiples of the mean.
    pub pareto_cap: f64,
    /// Correlated-churn depth in `[0, 1)`: the online fraction wanders in
    /// `[1 - depth, 1]` via an AR(1) walk.
    pub churn_depth: f64,
    /// Admission control + load shedding on (the surviving arm) or off
    /// (the metastable arm).
    pub admission: bool,
    /// Max send attempts per bucket, *including* the first (None =
    /// unbounded — the retry-storm arm).
    pub retry_budget: Option<u32>,
    /// Retry backoff base (doubles per attempt, jittered).
    pub retry_base: SimDuration,
    /// Per-replica service capacity, ops per drain interval.
    pub service_rate: u64,
    /// Work-queue drain interval.
    pub drain_every: SimDuration,
    /// Max queue wait: a bucket served later than this counts as expired
    /// (wasted capacity) and is reported back for retry.
    pub deadline: SimDuration,
    /// Admission limit in drain-interval units of backlog (queue depth /
    /// `service_rate`); admitted work is trimmed or shed above this.
    pub admit_limit: u64,
    /// Goodput-floor oracle gate: served must be >= floor * offered.
    pub goodput_floor: f64,
    /// Metastability oracle gate: the fleet must be back to Healthy once
    /// this much time has passed after `flash_end`.
    pub recovery_window: SimDuration,
}

impl WorkloadProfile {
    /// The steady profile: 2k users at 0.5 Hz (1k ops/s fleet-wide)
    /// against ~1.5k ops/s of service capacity. Admission on, retries
    /// bounded; the governor should never leave Healthy for long.
    pub fn steady() -> Self {
        WorkloadProfile {
            name: "steady",
            users: 2_000,
            per_user_hz: 0.5,
            window: SimDuration::from_secs(1),
            regions: 4,
            zipf_s: 1.0,
            diurnal_period: SimDuration::from_secs(60),
            diurnal_depth: 0.3,
            flash_start: SimTime::ZERO,
            flash_end: SimTime::ZERO,
            flash_mult: 1.0,
            pareto_alpha: 1.5,
            pareto_cap: 8.0,
            churn_depth: 0.1,
            admission: true,
            retry_budget: Some(3),
            retry_base: SimDuration::from_millis(500),
            service_rate: 75,
            drain_every: SimDuration::from_millis(250),
            deadline: SimDuration::from_millis(2_500),
            admit_limit: 8,
            goodput_floor: 0.5,
            recovery_window: SimDuration::from_secs(20),
        }
    }

    /// The flash-crowd profile: steady load with a 6x arrival spike in
    /// `[40 s, 70 s)`. Admission sheds the excess, the governor steps
    /// down on the load signal and recovers after the spike.
    pub fn flash() -> Self {
        WorkloadProfile {
            name: "flash",
            flash_start: SimTime::from_secs(40),
            flash_end: SimTime::from_secs(70),
            flash_mult: 6.0,
            goodput_floor: 0.33,
            recovery_window: SimDuration::from_secs(30),
            ..Self::steady()
        }
    }

    /// The deliberately unprotected arm: the same flash crowd with
    /// admission control *off* and retries *unbounded*. Expired work is
    /// retried forever, so the retry flux outlives the flash — the
    /// metastable failure the oracle exists to detect.
    pub fn flash_off() -> Self {
        WorkloadProfile {
            name: "flash-off",
            admission: false,
            retry_budget: None,
            ..Self::flash()
        }
    }

    /// One million simulated users at 0.02 Hz (20k ops/s fleet-wide)
    /// against ~25k ops/s of capacity: proof that population scale costs
    /// windows, not events.
    pub fn million() -> Self {
        WorkloadProfile {
            name: "million",
            users: 1_000_000,
            per_user_hz: 0.02,
            service_rate: 1_250,
            ..Self::steady()
        }
    }

    /// Looks a profile up by its campaign-facing name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "steady" => Some(Self::steady()),
            "flash" => Some(Self::flash()),
            "flash-off" => Some(Self::flash_off()),
            "million" => Some(Self::million()),
            _ => None,
        }
    }

    /// Every profile name, for usage strings.
    pub fn names() -> &'static [&'static str] {
        &["steady", "flash", "flash-off", "million"]
    }

    /// Mean offered ops per window before modulation.
    pub fn base_per_window(&self) -> f64 {
        self.users as f64 * self.per_user_hz * self.window.as_secs_f64()
    }

    /// Windows of offered load in a run of `horizon`: load ends at
    /// two-thirds of the horizon, leaving a tail in which a healthy fleet
    /// must drain and recover (what the metastability oracle judges).
    pub fn windows(&self, horizon: SimTime) -> u64 {
        (horizon.as_nanos() * 2 / 3) / self.window.as_nanos().max(1)
    }

    /// Whether sim time `t` falls inside the flash crowd.
    pub fn in_flash(&self, t: SimTime) -> bool {
        self.flash_mult > 1.0 && t >= self.flash_start && t < self.flash_end
    }

    /// A small op-count multiplier for scenarios driven through their
    /// existing entry points (gossip / dissemination / randtree / paxos):
    /// heavier profiles push more protocol-level work.
    pub fn scale_hint(&self) -> u32 {
        let m = if self.flash_mult > 1.0 { 2 } else { 1 };
        if self.users >= 100_000 {
            m * 3
        } else {
            m
        }
    }
}

/// One window's worth of aggregate arrivals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowLoad {
    /// Window index (window `k` covers `[k*window, (k+1)*window)`).
    pub index: u64,
    /// Total arrivals this window.
    pub total: u64,
    /// Zipf-skewed per-region split; sums exactly to `total`.
    pub per_region: Vec<u64>,
    /// Whether this window falls inside the flash crowd.
    pub flash: bool,
}

/// The deterministic arrival stream: call [`ArrivalEngine::window`] with
/// consecutive indices. State (the churn walk, the burst draws) advances
/// with each call, so the stream is a pure function of `(profile, seed)`.
pub struct ArrivalEngine {
    profile: WorkloadProfile,
    rng: SimRng,
    /// AR(1) churn walk in [-1, 1].
    churn_walk: f64,
    /// Normalized Zipf region weights.
    weights: Vec<f64>,
}

impl ArrivalEngine {
    /// Builds the stream for `profile` from a campaign seed.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        let mut weights: Vec<f64> = (0..profile.regions.max(1))
            .map(|r| 1.0 / ((r + 1) as f64).powf(profile.zipf_s))
            .collect();
        let norm: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= norm;
        }
        ArrivalEngine {
            profile,
            rng: SimRng::seed_from(seed ^ 0x0007_70ad_10ad),
            churn_walk: 0.0,
            weights,
        }
    }

    /// The profile this engine drives.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Computes window `index`'s aggregate arrivals and advances the
    /// stream state.
    pub fn window(&mut self, index: u64) -> WindowLoad {
        let p = &self.profile;
        let window_s = p.window.as_secs_f64();
        // Mid-window time drives the slow curves.
        let t_s = (index as f64 + 0.5) * window_s;
        let t = SimTime::from_nanos((t_s * 1e9) as u64);
        // Diurnal curve: dips to (1 - depth) at the trough.
        let phase = 2.0 * std::f64::consts::PI * t_s / p.diurnal_period.as_secs_f64().max(1e-9);
        let diurnal = 1.0 - p.diurnal_depth * (0.5 - 0.5 * phase.sin());
        // Flash crowd: a step multiplier over [flash_start, flash_end).
        let flash = p.in_flash(t);
        let flash_mult = if flash { p.flash_mult } else { 1.0 };
        // Correlated churn: AR(1) walk on the online fraction.
        self.churn_walk =
            (0.85 * self.churn_walk + 0.15 * self.rng.gen_normal(0.0, 1.0)).clamp(-1.0, 1.0);
        let online = 1.0 - p.churn_depth * (0.5 + 0.5 * self.churn_walk);
        // Heavy-tailed burst: bounded Pareto, normalized by the unbounded
        // mean alpha/(alpha-1) so the long-run average stays ~1.
        let u = self.rng.gen_f64().min(1.0 - 1e-12);
        let raw = (1.0 - u).powf(-1.0 / p.pareto_alpha);
        let mean = p.pareto_alpha / (p.pareto_alpha - 1.0);
        let burst = raw.min(p.pareto_cap * mean) / mean;
        let total = (p.base_per_window() * diurnal * flash_mult * online * burst).round() as u64;
        // Largest-share-takes-remainder split: region totals sum exactly.
        let mut per_region: Vec<u64> = self
            .weights
            .iter()
            .map(|w| (w * total as f64).floor() as u64)
            .collect();
        let assigned: u64 = per_region.iter().sum();
        per_region[0] += total - assigned;
        WindowLoad {
            index,
            total,
            per_region,
            flash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_resolve_by_name_and_list_them_all() {
        for name in WorkloadProfile::names() {
            let p = WorkloadProfile::by_name(name).expect("listed profile resolves");
            assert_eq!(p.name, *name);
        }
        assert!(WorkloadProfile::by_name("nope").is_none());
    }

    #[test]
    fn stream_is_seed_deterministic_and_seeds_differ() {
        let mut a = ArrivalEngine::new(WorkloadProfile::flash(), 42);
        let mut b = ArrivalEngine::new(WorkloadProfile::flash(), 42);
        let mut c = ArrivalEngine::new(WorkloadProfile::flash(), 43);
        let wa: Vec<WindowLoad> = (0..200).map(|i| a.window(i)).collect();
        let wb: Vec<WindowLoad> = (0..200).map(|i| b.window(i)).collect();
        let wc: Vec<WindowLoad> = (0..200).map(|i| c.window(i)).collect();
        assert_eq!(wa, wb, "same seed, same stream");
        assert_ne!(wa, wc, "different seed, different bursts");
    }

    #[test]
    fn regional_split_conserves_the_total_and_skews_zipf() {
        let mut e = ArrivalEngine::new(WorkloadProfile::steady(), 7);
        for i in 0..100 {
            let w = e.window(i);
            assert_eq!(w.per_region.iter().sum::<u64>(), w.total);
            // Zipf: region 0 carries the largest share.
            assert!(w.per_region[0] >= w.per_region[w.per_region.len() - 1]);
        }
    }

    #[test]
    fn flash_windows_carry_the_multiplier() {
        let p = WorkloadProfile::flash();
        let mut e = ArrivalEngine::new(p.clone(), 11);
        let mut pre = 0u64;
        let mut during = 0u64;
        let (mut n_pre, mut n_during) = (0u64, 0u64);
        for i in 0..120 {
            let w = e.window(i);
            let t = SimTime::from_nanos(((i as f64 + 0.5) * 1e9) as u64);
            if p.in_flash(t) {
                assert!(w.flash);
                during += w.total;
                n_during += 1;
            } else {
                assert!(!w.flash);
                pre += w.total;
                n_pre += 1;
            }
        }
        assert!(n_during >= 25, "flash covers [40s,70s)");
        // 6x multiplier must dominate diurnal/churn/burst noise on average.
        let mean_pre = pre as f64 / n_pre as f64;
        let mean_during = during as f64 / n_during as f64;
        assert!(
            mean_during > 3.0 * mean_pre,
            "flash {mean_during:.0} vs steady {mean_pre:.0}"
        );
    }

    #[test]
    fn million_users_cost_windows_not_events() {
        // 180 windows of the million-user profile offer multi-million ops:
        // the aggregate representation is what keeps the event count in
        // the thousands regime downstream.
        let mut e = ArrivalEngine::new(WorkloadProfile::million(), 3);
        let offered: u64 = (0..180).map(|i| e.window(i).total).sum();
        assert!(offered >= 1_000_000, "offered {offered}");
        // The whole stream was computed in 180 engine steps; each step
        // becomes O(regions) sim messages, not O(users).
        assert!(e.profile().regions <= 8);
    }
}
