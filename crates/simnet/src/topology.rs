//! Network topologies and path properties.
//!
//! The simulator emulates an Internet-like substrate the way ModelNet does:
//! end hosts attach through access links to a routed core, and what a packet
//! experiences end to end is the sum of propagation latencies, the bottleneck
//! bandwidth, and the composed loss probability along its route.
//!
//! # One path store
//!
//! Every topology, at every size, stores paths the same way: each host keeps
//! its `(attachment router, access latency)`, the core keeps one route per
//! pair of *distinct attachment routers* (one Dijkstra by latency from each,
//! or a closed form for the fat-tree), and [`Topology::path`] composes the
//! two ends and the core route in O(1). Generated shapes hang many hosts off
//! each router, so the core matrix is tiny — 1000 hosts on
//! [`TransitStubConfig::balanced_for`] is 15 × 15 routes plus 16 bytes per
//! host, 23 KB that stay in cache — where a host × host matrix is 32 MB at
//! 1000 hosts and 4 GB at 10k. Shapes with a router per host (star, Waxman) pay
//! routers² for the core and are no smaller than the matrix would be.
//!
//! Whole-network faults ([`Topology::add_loss_all`],
//! [`Topology::add_latency_all`]) are one global delta and per-pair faults
//! one entry in a small override map, both applied when a path is read; a
//! fault never sweeps the store.
//!
//! **Clamp caveat.** Loss is clamped to `[0, 0.95]` once, at read, over the
//! sum of the deltas. A store that clamped after every mutation (the
//! host × host matrix this replaced, kept under `cfg(test)` as the
//! reference the agreement tests compare against) differs only when
//! overlapping loss faults push a path past the clamp and one of them then
//! heals: after `+0.5, +0.9, −0.9` a path reads 0.5 here — the regime
//! still in force — and 0.05 in the per-mutation form. No shipped fault
//! plan overlaps loss regimes that deep;
//! `implicit_mutations_match_dense_semantics` documents the boundary.
//!
//! Generators cover the shapes the experiments need: [`Topology::star`] for
//! unit tests, [`Topology::dumbbell`] for bandwidth contention,
//! [`Topology::random_waxman`] for unstructured overlays,
//! [`Topology::transit_stub`] for the "Internet-like network" of the paper's
//! ModelNet case study, and [`Topology::fat_tree`] for the data-center Clos.

use crate::hash::SmallKeyMap;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifies an end host (a simulation participant).
///
/// Hosts are numbered densely from zero in creation order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The host's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Properties of one directed link in the router core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkParams {
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkParams {
    /// A convenient loss-free link.
    pub fn new(latency: SimDuration, bandwidth_bps: u64) -> Self {
        LinkParams {
            latency,
            bandwidth_bps,
            loss: 0.0,
        }
    }

    /// Same link with the given loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss {loss} outside [0,1]");
        self.loss = loss;
        self
    }
}

/// End-to-end properties of the route between two hosts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathProps {
    /// Sum of propagation delays along the route.
    pub latency: SimDuration,
    /// Bottleneck (minimum) bandwidth along the route, bits per second.
    pub bandwidth_bps: u64,
    /// Composed loss probability: `1 - prod(1 - loss_i)`.
    pub loss: f64,
    /// Number of core links traversed.
    pub hops: u32,
}

impl PathProps {
    /// Path properties for a host talking to itself: loopback.
    pub fn loopback() -> Self {
        PathProps {
            latency: SimDuration::from_micros(20),
            bandwidth_bps: 10_000_000_000,
            loss: 0.0,
            hops: 0,
        }
    }
}

/// Access-link capacities of one host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessLink {
    /// Upstream (host to core) capacity, bits per second.
    pub up_bps: u64,
    /// Downstream (core to host) capacity, bits per second.
    pub down_bps: u64,
}

impl AccessLink {
    /// Symmetric access link.
    pub fn symmetric(bps: u64) -> Self {
        AccessLink {
            up_bps: bps,
            down_bps: bps,
        }
    }
}

/// Default access link: 100 Mbit/s symmetric, a LAN-class host.
impl Default for AccessLink {
    fn default() -> Self {
        AccessLink::symmetric(100_000_000)
    }
}

/// Per-router Dijkstra result: (latency, bottleneck bw, log-survival, hops).
type RouteInfo = (SimDuration, u64, f64, u32);

#[derive(Clone, Debug)]
struct RouterEdge {
    to: usize,
    params: LinkParams,
}

/// A built network topology: hosts, access links, and the composed
/// [`PathProps`] store of the router core.
///
/// # Examples
///
/// ```
/// use cb_simnet::time::SimDuration;
/// use cb_simnet::topology::Topology;
///
/// let topo = Topology::star(4, SimDuration::from_millis(10), 100_000_000);
/// let p = topo.path(cb_simnet::topology::NodeId(0), cb_simnet::topology::NodeId(3));
/// assert_eq!(p.latency, SimDuration::from_millis(20)); // two spokes
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    host_count: usize,
    access: Vec<AccessLink>,
    paths: PathStore,
    /// Optional label per host (e.g. which ISP/stub it belongs to).
    domain: Vec<u32>,
}

/// End-to-end path properties: a router-level core model plus per-host
/// attachment info, composed into [`PathProps`] at read time (see the
/// module docs).
#[derive(Clone, Debug)]
struct PathStore {
    core: CoreModel,
    /// For each host: (compact core-router index, access latency).
    attach: Vec<(u32, SimDuration)>,
    /// Global latency delta from `add_latency_all`/`sub_latency_all`.
    extra_latency: SimDuration,
    /// Global loss delta from `add_loss_all` (clamped at read).
    extra_loss: f64,
    /// Per-pair deltas from `add_path_latency`/`add_path_loss`, keyed
    /// by `(min, max)` host id. Looked up, never iterated, so the map
    /// cannot leak iteration-order nondeterminism.
    overrides: SmallKeyMap<(u32, u32), PairDelta>,
}

impl PathStore {
    fn new(core: CoreModel, attach: Vec<(u32, SimDuration)>) -> Self {
        PathStore {
            core,
            attach,
            extra_latency: SimDuration::ZERO,
            extra_loss: 0.0,
            overrides: SmallKeyMap::default(),
        }
    }
}

/// Accumulated per-pair mutation deltas.
#[derive(Clone, Copy, Debug, Default)]
struct PairDelta {
    latency: SimDuration,
    loss: f64,
}

fn pair_key(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

/// Router-level route source of the path store.
#[derive(Clone, Debug)]
enum CoreModel {
    /// All-pairs matrix over the distinct attachment routers:
    /// `(latency, bottleneck bw, composed loss, hops)`, row-major.
    Matrix {
        routers: usize,
        data: Vec<(SimDuration, u64, f64, u32)>,
    },
    /// Closed-form k-ary fat-tree over edge-switch indices: two hosts on
    /// the same edge switch share it directly; same pod crosses two
    /// edge↔aggregation links; different pods additionally cross two
    /// aggregation↔core links.
    FatTree {
        edges_per_pod: usize,
        agg_latency: SimDuration,
        core_latency: SimDuration,
        edge_bps: u64,
        core_bps: u64,
    },
}

impl CoreModel {
    /// Core contribution of the route between two attachment routers:
    /// `(latency, bottleneck bw, composed loss, core hops)`.
    fn route(&self, ra: u32, rb: u32) -> (SimDuration, u64, f64, u32) {
        if ra == rb {
            return (SimDuration::ZERO, u64::MAX, 0.0, 0);
        }
        match self {
            CoreModel::Matrix { routers, data } => data[ra as usize * routers + rb as usize],
            CoreModel::FatTree {
                edges_per_pod,
                agg_latency,
                core_latency,
                edge_bps,
                core_bps,
            } => {
                let (pa, pb) = (ra as usize / edges_per_pod, rb as usize / edges_per_pod);
                if pa == pb {
                    (*agg_latency * 2, *edge_bps, 0.0, 2)
                } else {
                    (
                        *agg_latency * 2 + *core_latency * 2,
                        (*edge_bps).min(*core_bps),
                        0.0,
                        4,
                    )
                }
            }
        }
    }
}

/// Parameters for the transit-stub ("Internet-like") generator.
#[derive(Clone, Debug)]
pub struct TransitStubConfig {
    /// Number of transit (backbone) routers, ring-plus-chords connected.
    pub transit_routers: usize,
    /// Stub domains attached to each transit router.
    pub stubs_per_transit: usize,
    /// End hosts attached to each stub router.
    pub hosts_per_stub: usize,
    /// Latency range between transit routers (WAN scale).
    pub transit_latency: (SimDuration, SimDuration),
    /// Latency range from stub to its transit router (regional scale).
    pub stub_latency: (SimDuration, SimDuration),
    /// Latency range from host to its stub router (access scale).
    pub access_latency: (SimDuration, SimDuration),
    /// Backbone capacity, bits per second.
    pub transit_bps: u64,
    /// Stub uplink capacity, bits per second.
    pub stub_bps: u64,
    /// Host access link.
    pub access: AccessLink,
    /// Per-packet loss on transit links.
    pub transit_loss: f64,
}

impl Default for TransitStubConfig {
    fn default() -> Self {
        TransitStubConfig {
            transit_routers: 4,
            stubs_per_transit: 2,
            hosts_per_stub: 4,
            transit_latency: (SimDuration::from_millis(20), SimDuration::from_millis(60)),
            stub_latency: (SimDuration::from_millis(2), SimDuration::from_millis(10)),
            access_latency: (SimDuration::from_micros(200), SimDuration::from_millis(2)),
            transit_bps: 1_000_000_000,
            stub_bps: 200_000_000,
            access: AccessLink::symmetric(100_000_000),
            transit_loss: 0.0,
        }
    }
}

impl TransitStubConfig {
    /// Total number of hosts the configuration produces.
    pub fn host_count(&self) -> usize {
        self.transit_routers * self.stubs_per_transit * self.hosts_per_stub
    }

    /// Scales the host count by adjusting `hosts_per_stub` upward until at
    /// least `n` hosts exist (the extras are spread by the generator).
    pub fn with_at_least_hosts(mut self, n: usize) -> Self {
        while self.host_count() < n {
            self.hosts_per_stub += 1;
        }
        self
    }

    /// A backbone proportioned for `n` hosts: the transit ring and stub
    /// fan-out grow with the fleet so 10k hosts spread over ~100 stub
    /// domains instead of piling thousands onto the default 8 stubs.
    /// Combine with [`Topology::transit_stub_exact`] for an exact host
    /// count.
    pub fn balanced_for(n: usize) -> Self {
        let transit = (n / 64).clamp(2, 16);
        let stubs = (n / (transit * 128)).clamp(1, 8);
        let hosts = n.div_ceil(transit * stubs).max(1);
        TransitStubConfig {
            transit_routers: transit,
            stubs_per_transit: stubs,
            hosts_per_stub: hosts,
            ..Default::default()
        }
    }
}

/// Parameters for the k-ary fat-tree generator, the standard data-center
/// Clos shape: `k` pods of `k/2` edge and `k/2` aggregation switches with
/// a `(k/2)²` core layer, for a capacity of `k³/4` hosts.
#[derive(Clone, Debug)]
pub struct FatTreeConfig {
    /// Switch arity; must be even and ≥ 2. Capacity is `k³/4` hosts.
    pub k: usize,
    /// Exact number of hosts to place (≤ capacity), filled edge switch by
    /// edge switch in pod order.
    pub hosts: usize,
    /// Edge↔aggregation link latency.
    pub agg_latency: SimDuration,
    /// Aggregation↔core link latency.
    pub core_latency: SimDuration,
    /// Host access-latency range (drawn per host).
    pub access_latency: (SimDuration, SimDuration),
    /// Edge↔aggregation capacity, bits per second.
    pub edge_bps: u64,
    /// Aggregation↔core capacity, bits per second.
    pub core_bps: u64,
    /// Host access link.
    pub access: AccessLink,
}

impl Default for FatTreeConfig {
    fn default() -> Self {
        FatTreeConfig {
            k: 4,
            hosts: 16,
            agg_latency: SimDuration::from_micros(50),
            core_latency: SimDuration::from_micros(100),
            access_latency: (SimDuration::from_micros(5), SimDuration::from_micros(30)),
            edge_bps: 10_000_000_000,
            core_bps: 40_000_000_000,
            access: AccessLink::symmetric(1_000_000_000),
        }
    }
}

impl FatTreeConfig {
    /// Maximum hosts the arity supports: `k³/4`.
    pub fn capacity(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// The smallest even-`k` fat-tree that fits exactly `n` hosts.
    pub fn for_hosts(n: usize) -> Self {
        let mut k = 2;
        while k * k * k / 4 < n {
            k += 2;
        }
        FatTreeConfig {
            k,
            hosts: n,
            ..Default::default()
        }
    }
}

/// Builder state: a router graph plus host attachment points.
struct CoreGraph {
    adj: Vec<Vec<RouterEdge>>,
    /// For each host: (attachment router, access latency).
    attach: Vec<(usize, SimDuration)>,
    access: Vec<AccessLink>,
    domain: Vec<u32>,
}

impl CoreGraph {
    fn new() -> Self {
        CoreGraph {
            adj: Vec::new(),
            attach: Vec::new(),
            access: Vec::new(),
            domain: Vec::new(),
        }
    }

    fn add_router(&mut self) -> usize {
        self.adj.push(Vec::new());
        self.adj.len() - 1
    }

    fn link(&mut self, a: usize, b: usize, params: LinkParams) {
        self.adj[a].push(RouterEdge { to: b, params });
        self.adj[b].push(RouterEdge { to: a, params });
    }

    fn add_host(
        &mut self,
        router: usize,
        access_latency: SimDuration,
        access: AccessLink,
        domain: u32,
    ) -> NodeId {
        self.attach.push((router, access_latency));
        self.access.push(access);
        self.domain.push(domain);
        NodeId((self.attach.len() - 1) as u32)
    }

    /// Dijkstra from `src` router by latency; returns per-router
    /// (latency, bottleneck bw, log-survival, hops).
    fn shortest_from(&self, src: usize) -> Vec<Option<RouteInfo>> {
        #[derive(PartialEq)]
        struct Entry(SimDuration, usize);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                // Reverse: BinaryHeap is a max-heap, we want min latency first.
                other.0.cmp(&self.0).then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = self.adj.len();
        let mut best: Vec<Option<RouteInfo>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        best[src] = Some((SimDuration::ZERO, u64::MAX, 0.0, 0));
        heap.push(Entry(SimDuration::ZERO, src));
        while let Some(Entry(dist, u)) = heap.pop() {
            match best[u] {
                Some((d, ..)) if d < dist => continue,
                _ => {}
            }
            let (_, bw_u, ls_u, hops_u) = best[u].expect("popped router has entry");
            for e in &self.adj[u] {
                let nd = dist + e.params.latency;
                let improved = match best[e.to] {
                    None => true,
                    Some((d, ..)) => nd < d,
                };
                if improved {
                    best[e.to] = Some((
                        nd,
                        bw_u.min(e.params.bandwidth_bps),
                        ls_u + (1.0 - e.params.loss).ln(),
                        hops_u + 1,
                    ));
                    heap.push(Entry(nd, e.to));
                }
            }
        }
        best
    }

    /// One Dijkstra per *distinct* attachment router and a router-level
    /// matrix: generated shapes attach many hosts per router, so this is
    /// orders of magnitude smaller than a host-level matrix (10k hosts over
    /// ~100 stub routers: 100×100 entries instead of 10⁸).
    fn build(self) -> Topology {
        // Compact distinct attachment routers in first-appearance order.
        const UNSEEN: u32 = u32::MAX;
        let mut compact = vec![UNSEEN; self.adj.len()];
        let mut routers: Vec<usize> = Vec::new();
        let mut attach: Vec<(u32, SimDuration)> = Vec::with_capacity(self.attach.len());
        for &(router, access_lat) in &self.attach {
            if compact[router] == UNSEEN {
                compact[router] = routers.len() as u32;
                routers.push(router);
            }
            attach.push((compact[router], access_lat));
        }
        let r = routers.len();
        let mut data = vec![(SimDuration::ZERO, u64::MAX, 0.0, 0u32); r * r];
        for (i, &ra) in routers.iter().enumerate() {
            let from_ra = self.shortest_from(ra);
            for (j, &rb) in routers.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (lat, bw, ls, hops) = from_ra[rb]
                    .unwrap_or_else(|| panic!("router core is disconnected: no path {ra} -> {rb}"));
                data[i * r + j] = (lat, bw, 1.0 - ls.exp(), hops);
            }
        }
        Topology {
            host_count: attach.len(),
            access: self.access,
            paths: PathStore::new(CoreModel::Matrix { routers: r, data }, attach),
            domain: self.domain,
        }
    }
}

/// The router graph of each generated shape; the public constructors on
/// [`Topology`] build these.
impl CoreGraph {
    fn star(hosts: usize, spoke_latency: SimDuration, spoke_bps: u64) -> CoreGraph {
        let mut g = CoreGraph::new();
        let hub = g.add_router();
        for _ in 0..hosts {
            let r = g.add_router();
            g.link(hub, r, LinkParams::new(spoke_latency / 2, spoke_bps));
            g.add_host(r, spoke_latency / 2, AccessLink::symmetric(spoke_bps), 0);
        }
        g
    }

    fn dumbbell(
        left: usize,
        right: usize,
        access_latency: SimDuration,
        access_bps: u64,
        bottleneck_latency: SimDuration,
        bottleneck_bps: u64,
    ) -> CoreGraph {
        let mut g = CoreGraph::new();
        let rl = g.add_router();
        let rr = g.add_router();
        g.link(rl, rr, LinkParams::new(bottleneck_latency, bottleneck_bps));
        for _ in 0..left {
            g.add_host(rl, access_latency, AccessLink::symmetric(access_bps), 0);
        }
        for _ in 0..right {
            g.add_host(rr, access_latency, AccessLink::symmetric(access_bps), 1);
        }
        g
    }

    fn random_waxman(
        routers: usize,
        alpha: f64,
        beta: f64,
        unit_latency: SimDuration,
        core_bps: u64,
        access: AccessLink,
        rng: &mut SimRng,
    ) -> CoreGraph {
        assert!(routers >= 1, "need at least one router");
        let mut g = CoreGraph::new();
        let pos: Vec<(f64, f64)> = (0..routers)
            .map(|_| (rng.gen_f64(), rng.gen_f64()))
            .collect();
        for _ in 0..routers {
            g.add_router();
        }
        let dist = |i: usize, j: usize| {
            let (dx, dy) = (pos[i].0 - pos[j].0, pos[i].1 - pos[j].1);
            (dx * dx + dy * dy).sqrt()
        };
        // Spanning chain for guaranteed connectivity.
        for i in 1..routers {
            let d = dist(i - 1, i).max(0.01);
            g.link(i - 1, i, LinkParams::new(unit_latency.mul_f64(d), core_bps));
        }
        let scale = beta * std::f64::consts::SQRT_2;
        for i in 0..routers {
            for j in (i + 2)..routers {
                let d = dist(i, j);
                if rng.gen_bool(alpha * (-d / scale).exp()) {
                    g.link(
                        i,
                        j,
                        LinkParams::new(unit_latency.mul_f64(d.max(0.01)), core_bps),
                    );
                }
            }
        }
        for r in 0..routers {
            g.add_host(r, SimDuration::from_micros(500), access, r as u32);
        }
        g
    }

    /// The backbone both transit-stub builders share: `cfg.transit_routers`
    /// routers on a ring, plus a chord between each non-adjacent pair with
    /// probability 0.3. Returns the transit routers.
    fn transit_backbone(&mut self, cfg: &TransitStubConfig, rng: &mut SimRng) -> Vec<usize> {
        assert!(cfg.transit_routers >= 1, "need at least one transit router");
        let transit: Vec<usize> = (0..cfg.transit_routers)
            .map(|_| self.add_router())
            .collect();
        let transit_link = |g: &mut CoreGraph, rng: &mut SimRng, i: usize, j: usize| {
            g.link(
                transit[i],
                transit[j],
                LinkParams::new(lat_in(rng, cfg.transit_latency), cfg.transit_bps)
                    .with_loss(cfg.transit_loss),
            );
        };
        let n = transit.len();
        // Backbone ring…
        for i in 0..n {
            let j = (i + 1) % n;
            if n > 1 && (i < j || n > 2) {
                transit_link(self, rng, i, j);
            }
        }
        // …plus chords for path diversity on larger backbones.
        for i in 0..n {
            for j in (i + 2)..n {
                if (i, j) != (0, n - 1) && rng.gen_bool(0.3) {
                    transit_link(self, rng, i, j);
                }
            }
        }
        transit
    }

    fn transit_stub(cfg: &TransitStubConfig, rng: &mut SimRng) -> CoreGraph {
        let mut g = CoreGraph::new();
        let transit = g.transit_backbone(cfg, rng);
        let mut stub_id = 0u32;
        for &t in &transit {
            for _ in 0..cfg.stubs_per_transit {
                let s = g.add_router();
                g.link(
                    t,
                    s,
                    LinkParams::new(lat_in(rng, cfg.stub_latency), cfg.stub_bps),
                );
                for _ in 0..cfg.hosts_per_stub {
                    g.add_host(s, lat_in(rng, cfg.access_latency), cfg.access, stub_id);
                }
                stub_id += 1;
            }
        }
        g
    }

    fn transit_stub_exact(cfg: &TransitStubConfig, hosts: usize, rng: &mut SimRng) -> CoreGraph {
        assert!(hosts > 0, "need at least one host");
        let mut g = CoreGraph::new();
        let transit = g.transit_backbone(cfg, rng);
        let mut stubs: Vec<usize> = Vec::new();
        for &t in &transit {
            for _ in 0..cfg.stubs_per_transit {
                let s = g.add_router();
                g.link(
                    t,
                    s,
                    LinkParams::new(lat_in(rng, cfg.stub_latency), cfg.stub_bps),
                );
                stubs.push(s);
            }
        }
        // Deal hosts across stubs: sizes differ by at most one, and host
        // ids stay grouped by stub (host order is stub 0's share, then
        // stub 1's, …) so domain labels remain contiguous.
        let base = hosts / stubs.len();
        let extra = hosts % stubs.len();
        for (stub_id, &s) in stubs.iter().enumerate() {
            let share = base + usize::from(stub_id < extra);
            for _ in 0..share {
                g.add_host(
                    s,
                    lat_in(rng, cfg.access_latency),
                    cfg.access,
                    stub_id as u32,
                );
            }
        }
        g
    }
}

/// A latency drawn uniformly from `[lo, hi)`; `lo` when the range is empty.
fn lat_in(rng: &mut SimRng, (lo, hi): (SimDuration, SimDuration)) -> SimDuration {
    if hi <= lo {
        lo
    } else {
        SimDuration::from_nanos(rng.gen_range(lo.as_nanos(), hi.as_nanos()))
    }
}

impl Topology {
    /// Number of end hosts.
    pub fn host_count(&self) -> usize {
        self.host_count
    }

    /// All host ids in index order.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.host_count as u32).map(NodeId)
    }

    /// End-to-end properties of the route from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn path(&self, a: NodeId, b: NodeId) -> PathProps {
        assert!(
            a.index() < self.host_count && b.index() < self.host_count,
            "host out of range"
        );
        let store = &self.paths;
        let mut p = if a == b {
            PathProps::loopback()
        } else {
            let (ra, la) = store.attach[a.index()];
            let (rb, lb) = store.attach[b.index()];
            let (core_lat, core_bw, core_loss, core_hops) = store.core.route(ra, rb);
            PathProps {
                latency: la + core_lat + lb,
                bandwidth_bps: core_bw,
                loss: core_loss,
                hops: core_hops + 2,
            }
        };
        p.latency += store.extra_latency;
        let mut loss_delta = store.extra_loss;
        if !store.overrides.is_empty() {
            if let Some(d) = store.overrides.get(&pair_key(a, b)) {
                p.latency += d.latency;
                loss_delta += d.loss;
            }
        }
        if loss_delta != 0.0 {
            p.loss = (p.loss + loss_delta).clamp(0.0, 0.95);
        }
        p
    }

    /// The host's access link capacities.
    pub fn access(&self, n: NodeId) -> AccessLink {
        self.access[n.index()]
    }

    /// Overrides a host's access link (e.g. to model a slow uplink cohort).
    pub fn set_access(&mut self, n: NodeId, access: AccessLink) {
        self.access[n.index()] = access;
    }

    /// The domain (ISP / stub) label assigned by the generator, 0 if none.
    pub fn domain(&self, n: NodeId) -> u32 {
        self.domain[n.index()]
    }

    /// Adds extra one-way latency between two hosts (both directions), e.g.
    /// to degrade a specific pair mid-experiment.
    pub fn add_path_latency(&mut self, a: NodeId, b: NodeId, extra: SimDuration) {
        let delta = self.paths.overrides.entry(pair_key(a, b)).or_default();
        delta.latency += extra;
    }

    /// Adds `delta` to the loss probability of the path between two hosts
    /// (both directions); the sum of a path's deltas is clamped to
    /// `[0, 0.95]` when read. Negative deltas heal. Fault schedules use
    /// this for message-loss regimes.
    pub fn add_path_loss(&mut self, a: NodeId, b: NodeId, delta: f64) {
        self.paths.overrides.entry(pair_key(a, b)).or_default().loss += delta;
    }

    /// Adds `delta` loss probability to every host-to-host path (clamped to
    /// `[0, 0.95]` when read); negative deltas heal. A whole-network loss
    /// regime.
    pub fn add_loss_all(&mut self, delta: f64) {
        self.paths.extra_loss += delta;
    }

    /// Adds `extra` one-way latency to every host-to-host path. A
    /// whole-network latency storm; [`Topology::sub_latency_all`] with the
    /// same `extra` restores the original delays exactly.
    pub fn add_latency_all(&mut self, extra: SimDuration) {
        self.paths.extra_latency += extra;
    }

    /// Removes `extra` one-way latency from every host-to-host path,
    /// saturating at zero. The exact inverse of
    /// [`Topology::add_latency_all`].
    pub fn sub_latency_all(&mut self, extra: SimDuration) {
        self.paths.extra_latency = self.paths.extra_latency.saturating_sub(extra);
    }

    /// A star: every host hangs off one router by an identical spoke.
    ///
    /// Useful as the simplest non-trivial topology in tests.
    pub fn star(hosts: usize, spoke_latency: SimDuration, spoke_bps: u64) -> Topology {
        CoreGraph::star(hosts, spoke_latency, spoke_bps).build()
    }

    /// A dumbbell: two clusters joined by one bottleneck link.
    ///
    /// Hosts `0..left` are in domain 0, the rest in domain 1. All cross-
    /// cluster traffic shares `bottleneck_bps`.
    pub fn dumbbell(
        left: usize,
        right: usize,
        access_latency: SimDuration,
        access_bps: u64,
        bottleneck_latency: SimDuration,
        bottleneck_bps: u64,
    ) -> Topology {
        CoreGraph::dumbbell(
            left,
            right,
            access_latency,
            access_bps,
            bottleneck_latency,
            bottleneck_bps,
        )
        .build()
    }

    /// A random geometric (Waxman-style) topology.
    ///
    /// Routers are placed uniformly on the unit square; each pair is linked
    /// with probability `alpha * exp(-d / (beta * sqrt(2)))`, and latency
    /// proportional to distance (`unit_latency` per unit length). A spanning
    /// chain is added first so the graph is always connected. One host
    /// attaches per router.
    pub fn random_waxman(
        routers: usize,
        alpha: f64,
        beta: f64,
        unit_latency: SimDuration,
        core_bps: u64,
        access: AccessLink,
        rng: &mut SimRng,
    ) -> Topology {
        CoreGraph::random_waxman(routers, alpha, beta, unit_latency, core_bps, access, rng).build()
    }

    /// A transit-stub topology, the standard "Internet-like" shape
    /// (GT-ITM style): a backbone ring of transit routers with chords, stub
    /// routers hanging off each transit router, hosts hanging off each stub.
    ///
    /// Hosts carry their stub index as [`Topology::domain`].
    pub fn transit_stub(cfg: &TransitStubConfig, rng: &mut SimRng) -> Topology {
        CoreGraph::transit_stub(cfg, rng).build()
    }

    /// A transit-stub topology with exactly `hosts` end hosts: the router
    /// fabric comes from `cfg` (its `hosts_per_stub` is ignored) and hosts
    /// are dealt round-robin across the stub routers, so stub populations
    /// differ by at most one. This is the campaign entry point for sized
    /// fleets — `cfg.host_count()` rounding never inflates the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn transit_stub_exact(cfg: &TransitStubConfig, hosts: usize, rng: &mut SimRng) -> Topology {
        CoreGraph::transit_stub_exact(cfg, hosts, rng).build()
    }

    /// A k-ary fat-tree with closed-form core routes. Hosts fill edge
    /// switches in pod order; each host's [`Topology::domain`] is its pod
    /// index. Latency tiers are uniform by
    /// construction, which is what lets paths be computed in O(1) without
    /// a router matrix; per-host access latency still varies by seed.
    ///
    /// # Panics
    ///
    /// Panics if `k` is odd or zero, `hosts` is zero, or `hosts` exceeds
    /// the `k³/4` capacity.
    pub fn fat_tree(cfg: &FatTreeConfig, rng: &mut SimRng) -> Topology {
        assert!(
            cfg.k >= 2 && cfg.k.is_multiple_of(2),
            "fat-tree arity must be even"
        );
        assert!(cfg.hosts > 0, "need at least one host");
        assert!(
            cfg.hosts <= cfg.capacity(),
            "{} hosts exceed k={} capacity {}",
            cfg.hosts,
            cfg.k,
            cfg.capacity()
        );
        let edges_per_pod = cfg.k / 2;
        let hosts_per_edge = cfg.k / 2;
        let lat_in = |rng: &mut SimRng, (lo, hi): (SimDuration, SimDuration)| {
            if hi <= lo {
                lo
            } else {
                SimDuration::from_nanos(rng.gen_range(lo.as_nanos(), hi.as_nanos()))
            }
        };
        let mut attach = Vec::with_capacity(cfg.hosts);
        let mut access = Vec::with_capacity(cfg.hosts);
        let mut domain = Vec::with_capacity(cfg.hosts);
        for h in 0..cfg.hosts {
            let edge = (h / hosts_per_edge) as u32;
            let pod = edge / edges_per_pod as u32;
            attach.push((edge, lat_in(rng, cfg.access_latency)));
            access.push(cfg.access);
            domain.push(pod);
        }
        Topology {
            host_count: cfg.hosts,
            access,
            paths: PathStore::new(
                CoreModel::FatTree {
                    edges_per_pod,
                    agg_latency: cfg.agg_latency,
                    core_latency: cfg.core_latency,
                    edge_bps: cfg.edge_bps,
                    core_bps: cfg.core_bps,
                },
                attach,
            ),
            domain,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_paths_are_symmetric_spokes() {
        let topo = Topology::star(5, SimDuration::from_millis(10), 1_000_000);
        assert_eq!(topo.host_count(), 5);
        for a in topo.hosts() {
            for b in topo.hosts() {
                if a == b {
                    continue;
                }
                let p = topo.path(a, b);
                assert_eq!(p.latency, SimDuration::from_millis(20));
                assert_eq!(p.bandwidth_bps, 1_000_000);
                assert_eq!(topo.path(b, a).latency, p.latency);
            }
        }
    }

    #[test]
    fn loopback_is_fast() {
        let topo = Topology::star(2, SimDuration::from_millis(50), 1_000_000);
        let p = topo.path(NodeId(0), NodeId(0));
        assert!(p.latency < SimDuration::from_millis(1));
        assert_eq!(p.hops, 0);
    }

    #[test]
    fn dumbbell_bottleneck_limits_cross_traffic_only() {
        let topo = Topology::dumbbell(
            3,
            3,
            SimDuration::from_millis(1),
            100_000_000,
            SimDuration::from_millis(40),
            5_000_000,
        );
        let cross = topo.path(NodeId(0), NodeId(3));
        assert_eq!(cross.bandwidth_bps, 5_000_000);
        assert_eq!(cross.latency, SimDuration::from_millis(42));
        let local = topo.path(NodeId(0), NodeId(1));
        assert_eq!(local.bandwidth_bps, u64::MAX);
        assert_eq!(local.latency, SimDuration::from_millis(2));
        assert_eq!(topo.domain(NodeId(0)), 0);
        assert_eq!(topo.domain(NodeId(4)), 1);
    }

    #[test]
    fn transit_stub_is_connected_and_wan_scale() {
        let mut rng = SimRng::seed_from(1);
        let cfg = TransitStubConfig::default();
        let topo = Topology::transit_stub(&cfg, &mut rng);
        assert_eq!(topo.host_count(), cfg.host_count());
        let mut max_lat = SimDuration::ZERO;
        for a in topo.hosts() {
            for b in topo.hosts() {
                if a == b {
                    continue;
                }
                let p = topo.path(a, b);
                assert!(p.latency > SimDuration::ZERO);
                assert!(p.bandwidth_bps > 0);
                max_lat = max_lat.max(p.latency);
            }
        }
        // Cross-backbone paths should look like WAN paths.
        assert!(
            max_lat >= SimDuration::from_millis(20),
            "max latency {max_lat} too small"
        );
        assert!(
            max_lat <= SimDuration::from_millis(500),
            "max latency {max_lat} too large"
        );
    }

    #[test]
    fn transit_stub_same_stub_is_cheaper_than_cross_backbone() {
        let mut rng = SimRng::seed_from(7);
        let cfg = TransitStubConfig::default();
        let topo = Topology::transit_stub(&cfg, &mut rng);
        // Hosts 0 and 1 share stub 0; host with a different transit domain is far.
        let near = topo.path(NodeId(0), NodeId(1)).latency;
        let far_host = topo
            .hosts()
            .find(|&h| topo.domain(h) >= cfg.stubs_per_transit as u32 * 2)
            .expect("host in a far stub");
        let far = topo.path(NodeId(0), far_host).latency;
        assert!(near < far, "near {near} should undercut far {far}");
    }

    #[test]
    fn transit_stub_generation_is_deterministic() {
        let cfg = TransitStubConfig::default();
        let t1 = Topology::transit_stub(&cfg, &mut SimRng::seed_from(5));
        let t2 = Topology::transit_stub(&cfg, &mut SimRng::seed_from(5));
        for a in t1.hosts() {
            for b in t1.hosts() {
                assert_eq!(t1.path(a, b), t2.path(a, b));
            }
        }
    }

    #[test]
    fn waxman_is_connected() {
        let mut rng = SimRng::seed_from(3);
        let topo = Topology::random_waxman(
            12,
            0.6,
            0.4,
            SimDuration::from_millis(30),
            1_000_000_000,
            AccessLink::default(),
            &mut rng,
        );
        for a in topo.hosts() {
            for b in topo.hosts() {
                if a != b {
                    assert!(topo.path(a, b).latency > SimDuration::ZERO);
                }
            }
        }
    }

    #[test]
    fn with_at_least_hosts_grows_config() {
        let cfg = TransitStubConfig::default().with_at_least_hosts(31);
        assert!(cfg.host_count() >= 31);
    }

    #[test]
    fn access_override_applies() {
        let mut topo = Topology::star(3, SimDuration::from_millis(5), 1_000_000);
        topo.set_access(
            NodeId(1),
            AccessLink {
                up_bps: 64_000,
                down_bps: 1_000_000,
            },
        );
        assert_eq!(topo.access(NodeId(1)).up_bps, 64_000);
        assert_eq!(topo.access(NodeId(0)).up_bps, 1_000_000);
    }

    #[test]
    fn add_path_latency_is_bidirectional() {
        let mut topo = Topology::star(3, SimDuration::from_millis(5), 1_000_000);
        let before = topo.path(NodeId(0), NodeId(1)).latency;
        topo.add_path_latency(NodeId(0), NodeId(1), SimDuration::from_millis(100));
        assert_eq!(
            topo.path(NodeId(0), NodeId(1)).latency,
            before + SimDuration::from_millis(100)
        );
        assert_eq!(
            topo.path(NodeId(1), NodeId(0)).latency,
            before + SimDuration::from_millis(100)
        );
        assert_eq!(topo.path(NodeId(0), NodeId(2)).latency, before);
    }

    #[test]
    fn latency_storm_applies_and_restores_exactly() {
        let mut topo = Topology::star(4, SimDuration::from_millis(5), 1_000_000);
        let before: Vec<SimDuration> = topo
            .hosts()
            .flat_map(|a| topo.hosts().map(move |b| (a, b)))
            .map(|(a, b)| topo.path(a, b).latency)
            .collect();
        let spike = SimDuration::from_millis(250);
        topo.add_latency_all(spike);
        assert_eq!(
            topo.path(NodeId(0), NodeId(1)).latency,
            before[1] + spike,
            "spike not applied"
        );
        topo.sub_latency_all(spike);
        let after: Vec<SimDuration> = topo
            .hosts()
            .flat_map(|a| topo.hosts().map(move |b| (a, b)))
            .map(|(a, b)| topo.path(a, b).latency)
            .collect();
        assert_eq!(before, after, "latency storm did not restore exactly");
    }

    #[test]
    fn transit_stub_exact_hits_the_requested_size() {
        for n in [1usize, 7, 100, 1000, 2500] {
            let cfg = TransitStubConfig::balanced_for(n);
            let topo = Topology::transit_stub_exact(&cfg, n, &mut SimRng::seed_from(3));
            assert_eq!(topo.host_count(), n, "asked for {n}");
        }
    }

    /// The host × host matrix the composed store replaced, kept as the
    /// reference the agreement tests compare against: one Dijkstra result
    /// per ordered host pair, every mutation applied — and clamped — entry
    /// by entry.
    struct DenseRef {
        n: usize,
        m: Vec<PathProps>,
    }

    impl DenseRef {
        fn of(g: &CoreGraph) -> DenseRef {
            let n = g.attach.len();
            let mut m = vec![PathProps::loopback(); n * n];
            let mut from_router: Vec<Option<Vec<Option<RouteInfo>>>> = vec![None; g.adj.len()];
            for a in 0..n {
                let (ra, la) = g.attach[a];
                let from_ra = from_router[ra].get_or_insert_with(|| g.shortest_from(ra));
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (rb, lb) = g.attach[b];
                    let (core_lat, core_bw, core_ls, core_hops) = if ra == rb {
                        (SimDuration::ZERO, u64::MAX, 0.0, 0)
                    } else {
                        from_ra[rb].expect("connected core")
                    };
                    m[a * n + b] = PathProps {
                        latency: la + core_lat + lb,
                        bandwidth_bps: core_bw,
                        loss: 1.0 - core_ls.exp(),
                        hops: core_hops + 2,
                    };
                }
            }
            DenseRef { n, m }
        }

        fn path(&self, a: NodeId, b: NodeId) -> PathProps {
            self.m[a.index() * self.n + b.index()]
        }

        fn both_ways(&mut self, a: NodeId, b: NodeId) -> [&mut PathProps; 2] {
            let (ab, ba) = (
                a.index() * self.n + b.index(),
                b.index() * self.n + a.index(),
            );
            self.m
                .get_disjoint_mut([ab, ba])
                .expect("two distinct hosts")
        }

        fn add_path_latency(&mut self, a: NodeId, b: NodeId, extra: SimDuration) {
            for p in self.both_ways(a, b) {
                p.latency += extra;
            }
        }

        fn add_path_loss(&mut self, a: NodeId, b: NodeId, delta: f64) {
            for p in self.both_ways(a, b) {
                p.loss = (p.loss + delta).clamp(0.0, 0.95);
            }
        }

        fn add_loss_all(&mut self, delta: f64) {
            for p in &mut self.m {
                p.loss = (p.loss + delta).clamp(0.0, 0.95);
            }
        }

        fn add_latency_all(&mut self, extra: SimDuration) {
            for p in &mut self.m {
                p.latency += extra;
            }
        }

        fn sub_latency_all(&mut self, extra: SimDuration) {
            for p in &mut self.m {
                p.latency = p.latency.saturating_sub(extra);
            }
        }
    }

    /// Every ordered pair, diagonal included. Loss sums the same deltas in
    /// a different order in the two stores, so it is compared to 1e-12.
    #[track_caller]
    fn assert_agree(topo: &Topology, dense: &DenseRef, what: &str) {
        assert_eq!(topo.host_count(), dense.n);
        for a in topo.hosts() {
            for b in topo.hosts() {
                let (got, want) = (topo.path(a, b), dense.path(a, b));
                assert!(
                    got.latency == want.latency
                        && got.bandwidth_bps == want.bandwidth_bps
                        && got.hops == want.hops
                        && (got.loss - want.loss).abs() < 1e-12,
                    "{what}: {a}->{b} composed {got:?}, reference {want:?}"
                );
            }
        }
    }

    /// Builds `g` both ways and checks agreement before any fault, under
    /// every kind of fault at once, and after they heal.
    #[track_caller]
    fn assert_graph_agrees(g: CoreGraph, what: &str) {
        let mut dense = DenseRef::of(&g);
        let mut topo = g.build();
        assert_agree(&topo, &dense, what);
        let n = topo.host_count() as u32;
        let (a, b) = (NodeId(n / 3), NodeId(n - 1));
        let (spike, pair_extra) = (SimDuration::from_millis(30), SimDuration::from_millis(5));
        topo.add_loss_all(0.1);
        dense.add_loss_all(0.1);
        topo.add_latency_all(spike);
        dense.add_latency_all(spike);
        topo.add_path_latency(a, b, pair_extra);
        dense.add_path_latency(a, b, pair_extra);
        topo.add_path_loss(a, b, 0.2);
        dense.add_path_loss(a, b, 0.2);
        assert_agree(&topo, &dense, &format!("{what}, faulted"));
        topo.add_path_loss(a, b, -0.2);
        dense.add_path_loss(a, b, -0.2);
        topo.add_loss_all(-0.1);
        dense.add_loss_all(-0.1);
        topo.sub_latency_all(spike);
        dense.sub_latency_all(spike);
        assert_agree(&topo, &dense, &format!("{what}, healed"));
    }

    #[test]
    fn implicit_store_agrees_with_dense_on_the_same_graph() {
        let ms = SimDuration::from_millis;
        assert_graph_agrees(CoreGraph::star(16, ms(10), 1_000_000), "star");
        assert_graph_agrees(
            CoreGraph::dumbbell(8, 8, ms(1), 100_000_000, ms(40), 5_000_000),
            "dumbbell",
        );
        assert_graph_agrees(
            CoreGraph::random_waxman(
                16,
                0.6,
                0.4,
                ms(30),
                1_000_000_000,
                AccessLink::default(),
                &mut SimRng::seed_from(3),
            ),
            "waxman",
        );
        // Lossy transit links: the core's composed loss is not zero.
        let lossy = TransitStubConfig {
            transit_loss: 0.01,
            ..TransitStubConfig::default()
        };
        assert_graph_agrees(
            CoreGraph::transit_stub(&lossy, &mut SimRng::seed_from(1)),
            "transit-stub, 32 hosts",
        );
        for n in [16, 1500] {
            assert_graph_agrees(
                CoreGraph::transit_stub_exact(
                    &TransitStubConfig::balanced_for(n),
                    n,
                    &mut SimRng::seed_from(13),
                ),
                &format!("transit-stub, {n} hosts"),
            );
        }
    }

    /// The closed-form fat-tree routes equal Dijkstra over the explicit
    /// switch fabric: `k` pods of `k/2` edge and `k/2` aggregation switches
    /// fully meshed inside the pod, aggregation switch `i` of every pod
    /// wired to the `i`-th group of `k/2` core switches.
    #[test]
    fn fat_tree_closed_form_agrees_with_the_explicit_fabric() {
        for hosts in [16, 100] {
            let cfg = FatTreeConfig::for_hosts(hosts);
            let mut topo = Topology::fat_tree(&cfg, &mut SimRng::seed_from(2));
            let half = cfg.k / 2;
            let mut g = CoreGraph::new();
            let core: Vec<usize> = (0..half * half).map(|_| g.add_router()).collect();
            let mut edges = Vec::new();
            for _pod in 0..cfg.k {
                let pod_edges: Vec<usize> = (0..half).map(|_| g.add_router()).collect();
                for i in 0..half {
                    let agg = g.add_router();
                    for &e in &pod_edges {
                        g.link(e, agg, LinkParams::new(cfg.agg_latency, cfg.edge_bps));
                    }
                    for &c in &core[i * half..(i + 1) * half] {
                        g.link(agg, c, LinkParams::new(cfg.core_latency, cfg.core_bps));
                    }
                }
                edges.extend(pod_edges);
            }
            for (h, &(edge, access_latency)) in topo.paths.attach.iter().enumerate() {
                assert_eq!(edge as usize, h / half, "hosts fill edge switches in order");
                g.add_host(edges[edge as usize], access_latency, cfg.access, 0);
            }
            let mut dense = DenseRef::of(&g);
            assert_agree(&topo, &dense, "fat-tree");
            topo.add_loss_all(0.05);
            dense.add_loss_all(0.05);
            topo.add_path_latency(NodeId(0), NodeId(9), SimDuration::from_millis(1));
            dense.add_path_latency(NodeId(0), NodeId(9), SimDuration::from_millis(1));
            assert_agree(&topo, &dense, "fat-tree, faulted");
        }
    }

    #[test]
    fn large_build_stays_router_sized_and_connected() {
        let n = 2000;
        let cfg = TransitStubConfig::balanced_for(n);
        let topo = Topology::transit_stub_exact(&cfg, n, &mut SimRng::seed_from(11));
        // One route per pair of stub routers, not per pair of hosts.
        let stubs = cfg.transit_routers * cfg.stubs_per_transit;
        match &topo.paths.core {
            CoreModel::Matrix { routers, data } => {
                assert_eq!((*routers, data.len()), (stubs, stubs * stubs));
            }
            CoreModel::FatTree { .. } => panic!("transit-stub builds a route matrix"),
        }
        assert_eq!(topo.paths.attach.len(), n);
        // Spot-check connectivity and sanity across the id range.
        for (a, b) in [(0u32, 1999u32), (0, 1), (777, 1234), (1999, 0)] {
            let p = topo.path(NodeId(a), NodeId(b));
            assert!(p.latency > SimDuration::ZERO, "{a}->{b}");
            assert!(p.bandwidth_bps > 0);
            assert!(p.hops >= 2);
        }
    }

    #[test]
    fn implicit_mutations_match_dense_semantics() {
        let n = 1500;
        let cfg = TransitStubConfig::balanced_for(n);
        let g = CoreGraph::transit_stub_exact(&cfg, n, &mut SimRng::seed_from(5));
        let mut dense = DenseRef::of(&g);
        let mut topo = g.build();
        let (a, b, c) = (NodeId(3), NodeId(1200), NodeId(77));
        let before = topo.path(a, b);
        let before_c = topo.path(a, c);

        // Pair latency: bidirectional, others untouched.
        topo.add_path_latency(a, b, SimDuration::from_millis(100));
        dense.add_path_latency(a, b, SimDuration::from_millis(100));
        assert_eq!(
            topo.path(a, b).latency,
            before.latency + SimDuration::from_millis(100)
        );
        assert_eq!(topo.path(b, a), dense.path(b, a), "override is symmetric");
        assert_eq!(topo.path(a, c), dense.path(a, c));

        // Global latency storm applies and restores exactly.
        topo.add_latency_all(SimDuration::from_millis(250));
        dense.add_latency_all(SimDuration::from_millis(250));
        assert_eq!(topo.path(a, c), dense.path(a, c));
        topo.sub_latency_all(SimDuration::from_millis(250));
        dense.sub_latency_all(SimDuration::from_millis(250));
        assert_eq!(topo.path(a, c), before_c);
        assert_eq!(topo.path(a, c), dense.path(a, c));

        // Pair loss override.
        topo.add_path_loss(a, b, 0.3);
        dense.add_path_loss(a, b, 0.3);
        assert_eq!(topo.path(b, a), dense.path(b, a));
        assert_eq!(topo.path(a, c), before_c);
        topo.add_path_loss(a, b, -0.3);
        dense.add_path_loss(a, b, -0.3);

        // Loss regimes: equal up to the clamp...
        topo.add_loss_all(0.5);
        dense.add_loss_all(0.5);
        assert_eq!(topo.path(a, c), dense.path(a, c));
        topo.add_loss_all(0.9);
        dense.add_loss_all(0.9);
        assert_eq!(topo.path(a, c).loss, 0.95, "clamped");
        assert_eq!(topo.path(a, c), dense.path(a, c));
        // ...and the one place the stores part: past it, the composed store
        // still knows the sum of the regimes in force, the per-mutation
        // clamp has forgotten it. No shipped fault plan overlaps loss this
        // deep (see the module docs).
        topo.add_loss_all(-0.9);
        dense.add_loss_all(-0.9);
        assert!((topo.path(a, c).loss - 0.5).abs() < 1e-12);
        assert!((dense.path(a, c).loss - 0.05).abs() < 1e-12);
        topo.add_loss_all(-0.5);
        assert_eq!(topo.path(a, c), before_c, "healed exactly");
    }

    #[test]
    fn fat_tree_tiers_order_correctly() {
        // k=4: 2 hosts per edge switch, 2 edge switches per pod, 16 hosts.
        let cfg = FatTreeConfig::default();
        let topo = Topology::fat_tree(&cfg, &mut SimRng::seed_from(2));
        assert_eq!(topo.host_count(), 16);
        // Hosts 0,1 share an edge switch; 0,2 share a pod; 0,8 cross pods.
        let same_edge = topo.path(NodeId(0), NodeId(1));
        let same_pod = topo.path(NodeId(0), NodeId(2));
        let cross_pod = topo.path(NodeId(0), NodeId(8));
        assert!(same_edge.latency < same_pod.latency);
        assert!(same_pod.latency < cross_pod.latency);
        assert_eq!(same_edge.hops, 2);
        assert_eq!(same_pod.hops, 4);
        assert_eq!(cross_pod.hops, 6);
        assert_eq!(topo.domain(NodeId(0)), 0);
        assert_eq!(topo.domain(NodeId(8)), 2);
        // Symmetry.
        assert_eq!(topo.path(NodeId(8), NodeId(0)), cross_pod);
    }

    #[test]
    fn fat_tree_for_hosts_is_size_exact_and_deterministic() {
        for n in [1usize, 16, 100, 1000] {
            let cfg = FatTreeConfig::for_hosts(n);
            assert!(cfg.capacity() >= n);
            let t1 = Topology::fat_tree(&cfg, &mut SimRng::seed_from(9));
            let t2 = Topology::fat_tree(&cfg, &mut SimRng::seed_from(9));
            assert_eq!(t1.host_count(), n);
            let probe = [(0u32, (n - 1) as u32), (0, (n / 2) as u32)];
            for (a, b) in probe {
                assert_eq!(t1.path(NodeId(a), NodeId(b)), t2.path(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn loss_composes_along_path() {
        let mut g = CoreGraph::new();
        let a = g.add_router();
        let b = g.add_router();
        let c = g.add_router();
        g.link(
            a,
            b,
            LinkParams::new(SimDuration::from_millis(1), 1_000_000).with_loss(0.1),
        );
        g.link(
            b,
            c,
            LinkParams::new(SimDuration::from_millis(1), 1_000_000).with_loss(0.1),
        );
        g.add_host(a, SimDuration::ZERO, AccessLink::default(), 0);
        g.add_host(c, SimDuration::ZERO, AccessLink::default(), 0);
        let topo = g.build();
        let p = topo.path(NodeId(0), NodeId(1));
        assert!((p.loss - 0.19).abs() < 1e-9, "composed loss {}", p.loss);
    }
}
