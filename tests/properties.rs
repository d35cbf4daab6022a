//! Property-based tests over the core data structures and invariants.

use cb_core::choice::{ChoiceRequest, NullEvaluator, OptionDesc, Prediction, Resolver};
use cb_core::model::net::NetworkModel;
use cb_core::resolve::{BanditPolicy, LearnedResolver, RandomResolver};
use cb_mck::hash::fingerprint;
use cb_paxos::{Ballot, Command, MAX_REPLICAS};
use cb_simnet::metrics::Histogram;
use cb_simnet::rng::SimRng;
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::{NodeId, Topology};
use proptest::prelude::*;

/// `Histogram` as it was before its buckets went flat — a count per bucket
/// index in an ordered map — kept as the model the flat form is compared
/// with.
#[derive(Clone, Default, PartialEq)]
struct MapHistogram {
    buckets: std::collections::BTreeMap<u32, u64>,
    count: u64,
    min: Option<u64>,
    max: u64,
}

impl MapHistogram {
    /// Base-2 buckets with 8 linear sub-buckets, as `cb_telemetry` maps
    /// values; `Histogram::bucket_lower_bound` is the public inverse.
    fn bucket_of(v: u64) -> u32 {
        if v < 8 {
            return v as u32;
        }
        let exp = 63 - v.leading_zeros();
        8 + (exp - 3) * 8 + ((v >> (exp - 3)) as u32 & 0x7)
    }

    fn record(&mut self, v: u64) {
        *self.buckets.entry(Self::bucket_of(v)).or_insert(0) += 1;
        self.count += 1;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = self.max.max(v);
    }

    fn merge(&mut self, other: &MapHistogram) {
        for (&b, &c) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += c;
        }
        self.count += other.count;
        self.min = [self.min, other.min].into_iter().flatten().min();
        self.max = self.max.max(other.max);
    }

    fn min(&self) -> u64 {
        self.min.unwrap_or(0)
    }

    fn buckets(&self) -> Vec<(u32, u64)> {
        self.buckets.iter().map(|(&b, &c)| (b, c)).collect()
    }

    fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0;
        for (&b, &c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Histogram::bucket_lower_bound(b).clamp(self.min(), self.max);
            }
        }
        self.max
    }
}

proptest! {
    // ---- simnet: time ----

    #[test]
    fn time_addition_is_monotone(base in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let t2 = t + SimDuration::from_nanos(d);
        prop_assert!(t2 >= t);
        prop_assert_eq!(t2 - t, SimDuration::from_nanos(d));
    }

    #[test]
    fn duration_display_parses_back_magnitudes(ns in 0u64..u64::MAX / 2) {
        // Display never panics and always ends with a unit suffix.
        let text = format!("{}", SimDuration::from_nanos(ns));
        prop_assert!(text.ends_with('s') || text.ends_with("ns") || text.ends_with("us"));
    }

    // ---- simnet: rng ----

    #[test]
    fn gen_below_always_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..16 {
            prop_assert!(rng.gen_below(bound) < bound);
        }
    }

    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(any::<u16>(), 0..64)) {
        let mut rng = SimRng::seed_from(seed);
        let mut original = v.clone();
        rng.shuffle(&mut v);
        original.sort_unstable();
        v.sort_unstable();
        prop_assert_eq!(original, v);
    }

    #[test]
    fn sample_indices_distinct(seed in any::<u64>(), n in 1usize..50, frac in 0usize..=100) {
        let k = n * frac / 100;
        let mut rng = SimRng::seed_from(seed);
        let mut picks = rng.sample_indices(n, k);
        prop_assert_eq!(picks.len(), k);
        picks.sort_unstable();
        picks.dedup();
        prop_assert_eq!(picks.len(), k);
    }

    // ---- simnet: metrics ----

    #[test]
    fn histogram_quantiles_bounded_by_min_max(values in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let lo = *values.iter().min().expect("nonempty");
        let hi = *values.iter().max().expect("nonempty");
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            prop_assert!(est >= lo && est <= hi, "q{q}: {est} outside [{lo}, {hi}]");
        }
        prop_assert_eq!(h.min(), lo);
        prop_assert_eq!(h.max(), hi);
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    #[test]
    fn histogram_merge_equals_bulk(a in prop::collection::vec(0u64..100_000, 0..100),
                                   b in prop::collection::vec(0u64..100_000, 0..100)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        prop_assert_eq!(ha.min(), hall.min());
        prop_assert_eq!(ha.max(), hall.max());
        prop_assert_eq!(ha.quantile(0.5), hall.quantile(0.5));
    }

    /// The flat-bucket histogram against the ordered-map form it replaced:
    /// same buckets, quantiles and equality after any mix of `record` and
    /// `merge`, whichever side reaches the higher bucket.
    #[test]
    fn histogram_matches_the_ordered_map_model(
        a in prop::collection::vec(any::<u64>(), 0..80),
        b in prop::collection::vec(any::<u64>(), 0..80),
    ) {
        // Spread magnitudes over all 64 bit widths.
        let spread = |v: &[u64]| -> Vec<u64> { v.iter().map(|&x| x >> (x % 64)).collect() };
        let (a, b) = (spread(&a), spread(&b));
        let record_all = |vs: &[u64]| {
            let (mut h, mut m) = (Histogram::new(), MapHistogram::default());
            for &v in vs {
                h.record(v);
                m.record(v);
            }
            (h, m)
        };
        let (ha, ma) = record_all(&a);
        let (hb, mb) = record_all(&b);
        prop_assert_eq!(ha == hb, ma == mb);
        // Shorter into longer and the reverse: one of the two directions
        // grows the receiver.
        let (mut hab, mut mab) = (ha.clone(), ma.clone());
        hab.merge(&hb);
        mab.merge(&mb);
        let (mut hba, mut mba) = (hb.clone(), mb.clone());
        hba.merge(&ha);
        mba.merge(&ma);
        let (hall, mall) = record_all(&[a.as_slice(), b.as_slice()].concat());
        for (h, m) in [(&ha, &ma), (&hb, &mb), (&hab, &mab), (&hba, &mba), (&hall, &mall)] {
            prop_assert_eq!(h.buckets().collect::<Vec<_>>(), m.buckets());
            prop_assert_eq!((h.count(), h.min(), h.max()), (m.count, m.min(), m.max));
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(h.quantile(q), m.quantile(q), "q{}", q);
            }
        }
        // Merged either way round, or recorded in bulk: one value.
        prop_assert_eq!(&hab, &hall);
        prop_assert_eq!(&hba, &hall);
    }

    // ---- simnet: topology ----

    #[test]
    fn star_paths_symmetric(n in 2usize..20, latency_ms in 1u64..100) {
        let topo = Topology::star(n, SimDuration::from_millis(latency_ms), 1_000_000);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let ab = topo.path(NodeId(a), NodeId(b));
                let ba = topo.path(NodeId(b), NodeId(a));
                prop_assert_eq!(ab.latency, ba.latency);
                prop_assert_eq!(ab.bandwidth_bps, ba.bandwidth_bps);
            }
        }
    }

    #[test]
    fn transit_stub_paths_positive_and_symmetric(seed in any::<u64>()) {
        let cfg = cb_simnet::topology::TransitStubConfig::default();
        let mut rng = SimRng::seed_from(seed);
        let topo = Topology::transit_stub(&cfg, &mut rng);
        for a in topo.hosts() {
            for b in topo.hosts() {
                if a == b { continue; }
                let p = topo.path(a, b);
                prop_assert!(p.latency > SimDuration::ZERO);
                prop_assert!(p.bandwidth_bps > 0);
                prop_assert!((0.0..1.0).contains(&p.loss));
                prop_assert_eq!(p.latency, topo.path(b, a).latency);
            }
        }
    }

    // ---- mck: hashing ----

    #[test]
    fn fingerprint_is_a_function(v in prop::collection::vec(any::<u32>(), 0..64)) {
        prop_assert_eq!(fingerprint(&v), fingerprint(&v));
    }

    #[test]
    fn fingerprint_detects_single_bit_flips(mut v in prop::collection::vec(any::<u32>(), 1..64), idx in any::<prop::sample::Index>()) {
        let before = fingerprint(&v);
        let i = idx.index(v.len());
        v[i] ^= 1;
        prop_assert_ne!(before, fingerprint(&v));
    }

    // ---- core: network model ----

    #[test]
    fn confidence_is_monotone_in_age(half_life_s in 1u64..1000, age1 in 0u64..10_000, age2 in 0u64..10_000) {
        let mut net = NetworkModel::new(SimDuration::from_secs(half_life_s));
        net.observe_latency(NodeId(1), SimDuration::from_millis(10), SimTime::ZERO);
        let (a, b) = (age1.min(age2), age1.max(age2));
        let ca = net.confidence(NodeId(1), SimTime::from_secs(a));
        let cb = net.confidence(NodeId(1), SimTime::from_secs(b));
        prop_assert!(ca >= cb, "confidence rose with age: {ca} < {cb}");
        prop_assert!((0.0..=1.0).contains(&ca));
    }

    #[test]
    fn ewma_stays_within_sample_range(samples in prop::collection::vec(1u64..10_000, 1..50)) {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        let lo = *samples.iter().min().expect("nonempty");
        let hi = *samples.iter().max().expect("nonempty");
        for (i, &s) in samples.iter().enumerate() {
            net.observe_latency(NodeId(1), SimDuration::from_millis(s), SimTime::from_secs(i as u64));
        }
        let est = net.estimate(NodeId(1)).expect("estimate").latency;
        prop_assert!(est >= SimDuration::from_millis(lo), "{est} below {lo}ms");
        prop_assert!(est <= SimDuration::from_millis(hi), "{est} above {hi}ms");
    }

    #[test]
    fn known_peers_ascend_whatever_the_insertion_order(
        peers in prop::collection::vec(0u32..5000, 0..200),
        evict_below in 0u32..5000,
    ) {
        let mut net = NetworkModel::new(SimDuration::from_secs(10));
        for (i, &p) in peers.iter().enumerate() {
            // Peers below the cut-off are last heard from at t = 0.
            let now = SimTime::from_secs(if p < evict_below { 0 } else { 100 });
            match i % 3 {
                0 => net.observe_latency(NodeId(p), SimDuration::from_millis(10), now),
                1 => net.observe_loss(NodeId(p), false, now),
                _ => net.observe_bandwidth(NodeId(p), 1e6, now),
            }
        }
        let sorted = |keep: &dyn Fn(u32) -> bool| {
            let mut v: Vec<NodeId> = peers.iter().filter(|&&p| keep(p)).map(|&p| NodeId(p)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        prop_assert_eq!(net.known_peers().collect::<Vec<_>>(), sorted(&|_| true));
        net.evict_stale(SimTime::from_secs(100), SimDuration::from_secs(50));
        prop_assert_eq!(net.known_peers().collect::<Vec<_>>(), sorted(&|p| p >= evict_below));
    }

    // ---- core: resolvers ----

    #[test]
    fn resolvers_return_valid_indices(seed in any::<u64>(), n in 1usize..32) {
        let options: Vec<OptionDesc> = (0..n as u64).map(OptionDesc::key).collect();
        let req = ChoiceRequest::new("prop", &options);
        let mut random = RandomResolver::new(seed);
        let mut learned = LearnedResolver::new(BanditPolicy::Ucb1 { c: 1.0 }, seed);
        for _ in 0..8 {
            prop_assert!(random.resolve(&req, &mut NullEvaluator) < n);
            prop_assert!(learned.resolve(&req, &mut NullEvaluator) < n);
        }
    }

    #[test]
    fn prediction_ordering_is_antisymmetric(o1 in -1e6f64..1e6, o2 in -1e6f64..1e6, v1 in 0u64..5, v2 in 0u64..5) {
        let a = Prediction { objective: o1, violations: v1, states_explored: 0 };
        let b = Prediction { objective: o2, violations: v2, states_explored: 0 };
        prop_assert!(!(a.better_than(&b) && b.better_than(&a)));
    }

    // ---- paxos: ballots and commands ----

    #[test]
    fn ballot_round_trips(round in 0u64..1_000_000, proposer in 0u64..MAX_REPLICAS) {
        let b = Ballot::new(round, proposer);
        prop_assert_eq!(b.round(), round);
        prop_assert_eq!(b.proposer(), proposer);
        let higher = b.bump_for((proposer + 1) % MAX_REPLICAS);
        prop_assert!(higher > b);
    }

    #[test]
    fn ballots_totally_ordered_without_collisions(r1 in 0u64..100_000, p1 in 0u64..MAX_REPLICAS,
                                                  r2 in 0u64..100_000, p2 in 0u64..MAX_REPLICAS) {
        let a = Ballot::new(r1, p1);
        let b = Ballot::new(r2, p2);
        prop_assert_eq!(a == b, r1 == r2 && p1 == p2);
    }

    #[test]
    fn command_round_trips(client in any::<u32>(), seq in any::<u32>()) {
        let c = Command::new(NodeId(client), seq);
        prop_assert_eq!(c.client(), NodeId(client));
        prop_assert_eq!(c.seq(), seq);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // ---- heavier: whole-simulation invariants (fewer cases) ----

    #[test]
    fn randtree_join_always_valid(seed in 1u64..1000) {
        use cb_randtree::{run_join, ScenarioConfig, Setup};
        let cfg = ScenarioConfig { nodes: 9, seed, ..Default::default() };
        let out = run_join(&cfg, Setup::ChoiceRandom);
        prop_assert!(out.after_join.well_formed);
        prop_assert_eq!(out.after_join.reachable, 9);
        prop_assert!(out.after_join.max_degree <= cb_randtree::MAX_CHILDREN);
    }

    // ---- harness: fault-plan shrinking ----

    #[test]
    fn shrunk_plan_still_violates_and_is_a_subset(seed in 1u64..200,
                                                  noise_crash in 0u32..8,
                                                  noise_loss in 1u32..30,
                                                  with_healed_partition in any::<bool>()) {
        use cb_harness::prelude::*;
        use cb_harness::toy::RingScenario;

        let scenario = RingScenario::default();
        // The culprit: an unhealed partition isolating node 3 — guaranteed
        // to starve its successor's heartbeats and violate the oracle.
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let mut plan = FaultPlan::none()
            .partition(&[3], &others, 0, None)
            // Noise the shrinker should strip: a healed crash and a short
            // loss window don't affect the verdict by themselves.
            .crash(noise_crash % 8, 200)
            .restart(noise_crash % 8, 500)
            .loss(noise_loss as f64 / 100.0, 100, 600);
        if with_healed_partition {
            let others2: Vec<u32> = (0..8u32).filter(|&i| i != 6).collect();
            plan = plan.partition(&[6], &others2, 300, Some(900));
        }

        let report = scenario.run(seed, &plan);
        prop_assert!(report.violated(), "culprit plan must violate: {:?}", report.verdicts);

        let (shrunk, shrunk_report) = shrink_plan(&scenario, seed, &plan, &report);
        prop_assert!(shrunk_report.violated(), "shrunk plan no longer violates");
        prop_assert_eq!(shrunk_report.failing_oracles(), report.failing_oracles());
        prop_assert!(shrunk.is_subset_of(&plan), "shrunk {} not a subset of {}", shrunk, plan);
        prop_assert!(shrunk.len() <= plan.len());
        prop_assert!(!shrunk.is_empty(), "an empty plan cannot violate");

        // 1-minimal: no single remaining fault can be dropped.
        let still_fails = |candidate: &FaultPlan| {
            let again = scenario.run(seed, candidate);
            report.failing_oracles().iter().all(|o| again.failing_oracles().contains(o))
        };
        for i in 0..shrunk.len() {
            prop_assert!(!still_fails(&shrunk.without(i..i + 1)), "{} could lose fault {}", shrunk, i);
        }

        // The reference: the one-fault-at-a-time greedy loop `shrink_plan`
        // used before it dropped chunks. Both are 1-minimal; on this
        // generator (one culprit, independent noise) they agree exactly.
        let mut greedy = plan.clone();
        loop {
            let before = greedy.len();
            let mut i = 0;
            while i < greedy.len() {
                let candidate = greedy.without(i..i + 1);
                if still_fails(&candidate) {
                    greedy = candidate;
                } else {
                    i += 1;
                }
            }
            if greedy.len() == before {
                break;
            }
        }
        prop_assert_eq!(shrunk, greedy);
    }

    #[test]
    fn plan_spec_round_trips(n_crash in 0usize..3, n_loss in 0usize..3, seed in any::<u64>()) {
        use cb_harness::prelude::*;
        let mut plan = FaultPlan::none();
        let mut s = seed;
        for _ in 0..n_crash {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let node = (s >> 33) as u32 % 16;
            let at = (s >> 17) % 10_000;
            plan = plan.crash(node, at).restart(node, at + 1 + (s % 5_000));
        }
        for _ in 0..n_loss {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let from = (s >> 20) % 8_000;
            plan = plan.loss(((s >> 7) % 90 + 1) as f64 / 100.0, from, from + 1 + (s % 4_000));
        }
        let spec = plan.to_spec();
        let back = FaultPlan::from_spec(&spec).expect("parse back");
        prop_assert_eq!(back.to_spec(), spec);
        prop_assert!(back.is_subset_of(&plan) && plan.is_subset_of(&back));
    }

    #[test]
    fn reliable_transport_preserves_per_flow_order(seed in any::<u64>(), count in 1u32..30) {
        use cb_simnet::prelude::*;
        #[derive(Default)]
        struct Collect { got: Vec<u32> }
        impl Actor for Collect {
            type Msg = u32;
            fn on_message(&mut self, _c: &mut Ctx<'_, u32>, _f: NodeId, m: u32) {
                self.got.push(m);
            }
        }
        let topo = Topology::star(2, SimDuration::from_millis(2), 2_000_000);
        let mut sim = Sim::new(topo, seed, |_| Collect::default());
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        sim.invoke(NodeId(0), |_, ctx| {
            for i in 0..count {
                // Mixed sizes try to tempt the transport into reordering.
                let bytes = if i % 3 == 0 { 30_000 } else { 100 };
                ctx.send_sized(NodeId(1), i, bytes);
            }
        });
        sim.run_until_quiescent(SimTime::from_secs(120));
        let got = &sim.actor(NodeId(1)).got;
        prop_assert_eq!(got.clone(), (0..count).collect::<Vec<_>>());
    }
}
