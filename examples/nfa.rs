//! Multiple applicable handlers: the NFA presentation of choices (§3.1).
//!
//! An edge cache answers `Get` requests. Two handlers apply to every cached
//! key: `serve-cached` (instant, possibly stale) and `fetch-origin` (a WAN
//! round trip, always fresh). Instead of hard-coding a TTL policy, both
//! handlers are registered in a [`HandlerSet`] and the runtime resolves the
//! non-determinism; with a learned resolver and staleness feedback, the
//! deployment discovers its own freshness/latency trade-off.
//!
//! Run with: `cargo run --release --example nfa`

use cb_core::prelude::*;
use std::collections::HashMap;

#[derive(Clone, Debug, Hash)]
enum Msg {
    /// Client asks the edge for a key.
    Get { key: u32, client: NodeId },
    /// Edge asks the origin.
    Fetch { key: u32, client: NodeId },
    /// Origin answers the edge.
    Fresh {
        key: u32,
        version: u32,
        client: NodeId,
    },
    /// The edge answers the client with some version of the key.
    Answer { version: u32 },
}

/// The edge cache's mutable state, dispatched over by the handler set.
struct EdgeState {
    /// key -> cached version.
    cache: HashMap<u32, u32>,
    served_cached: u32,
    fetched: u32,
}

struct Edge {
    state: EdgeState,
    handlers: HandlerSet<EdgeState, Msg, u8>,
}

struct Origin {
    /// key -> current version, bumped periodically (data changes!).
    versions: HashMap<u32, u32>,
}

struct Client {
    /// (answers, stale answers) observed.
    answers: u32,
    stale: u32,
    /// Versions the client knows to be current (it watches the origin's
    /// bump schedule in this toy).
    sent: u32,
}

enum Node {
    Edge(Edge),
    Origin(Origin),
    Client(Client),
}

const ORIGIN: NodeId = NodeId(0);
const EDGE: NodeId = NodeId(1);
const TICK: u64 = 1;

fn edge_handlers() -> HandlerSet<EdgeState, Msg, u8> {
    HandlerSet::new("nfa.edge-get")
        .handler(
            "serve-cached",
            |s: &EdgeState, _, m| matches!(m, Msg::Get { key, .. } if s.cache.contains_key(key)),
            |s, ctx, _from, m| {
                if let Msg::Get { key, client } = m {
                    s.served_cached += 1;
                    let version = s.cache[&key];
                    ctx.send(client, Msg::Answer { version });
                }
            },
        )
        .handler(
            "fetch-origin",
            |_, _, m| matches!(m, Msg::Get { .. }),
            |s, ctx, _from, m| {
                if let Msg::Get { key, client } = m {
                    s.fetched += 1;
                    ctx.send(ORIGIN, Msg::Fetch { key, client });
                }
            },
        )
}

impl Service for Node {
    type Msg = Msg;
    type Checkpoint = u8;

    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u8>) {
        match self {
            Node::Client(_) => {
                ctx.set_timer(SimDuration::from_millis(80), TICK);
            }
            Node::Origin(_) => {
                ctx.set_timer(SimDuration::from_secs(2), TICK);
            }
            Node::Edge(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u8>, tag: u64) {
        if tag != TICK {
            return;
        }
        match self {
            Node::Client(c) if c.sent < 400 => {
                c.sent += 1;
                let me = ctx.id();
                let key = ctx.rng().gen_below(4) as u32;
                ctx.send(EDGE, Msg::Get { key, client: me });
                ctx.set_timer(SimDuration::from_millis(80), TICK);
            }
            Node::Origin(o) => {
                // Data churns: all versions bump every 2 s.
                for v in o.versions.values_mut() {
                    *v += 1;
                }
                ctx.set_timer(SimDuration::from_secs(2), TICK);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u8>, from: NodeId, msg: Msg) {
        match self {
            Node::Edge(e) => match msg {
                Msg::Fresh {
                    key,
                    version,
                    client,
                } => {
                    e.state.cache.insert(key, version);
                    ctx.send(client, Msg::Answer { version });
                }
                m @ Msg::Get { .. } => {
                    e.handlers.dispatch(&mut e.state, ctx, from, m);
                }
                _ => {}
            },
            Node::Origin(o) => {
                if let Msg::Fetch { key, client } = msg {
                    let version = *o.versions.entry(key).or_insert(1);
                    ctx.send(
                        from,
                        Msg::Fresh {
                            key,
                            version,
                            client,
                        },
                    );
                }
            }
            Node::Client(c) => {
                if let Msg::Answer { version } = msg {
                    c.answers += 1;
                    // Freshness check (think content hashes): at most one
                    // version behind the origin's bump schedule counts as
                    // fresh.
                    let expected = 1 + (ctx.now().as_millis() / 2000) as u32;
                    if version + 1 < expected {
                        c.stale += 1;
                    }
                }
            }
        }
    }

    fn checkpoint(&self, _m: &StateModel<u8>) -> u8 {
        0
    }

    fn neighbors(&self) -> Vec<NodeId> {
        Vec::new()
    }
}

fn run(make_resolver: impl Fn() -> Box<dyn Resolver> + 'static, label: &str) {
    // Edge near the clients (5 ms); origin behind a 90 ms WAN hop.
    let mut topo = Topology::star(4, SimDuration::from_millis(5), 20_000_000);
    topo.add_path_latency(ORIGIN, EDGE, SimDuration::from_millis(90));
    let mut sim = Sim::new(topo, 5, move |id| {
        let svc = match id {
            ORIGIN => Node::Origin(Origin {
                versions: HashMap::new(),
            }),
            EDGE => Node::Edge(Edge {
                state: EdgeState {
                    cache: HashMap::new(),
                    served_cached: 0,
                    fetched: 0,
                },
                handlers: edge_handlers(),
            }),
            _ => Node::Client(Client {
                answers: 0,
                stale: 0,
                sent: 0,
            }),
        };
        let r: Box<dyn Resolver> = if id == EDGE {
            make_resolver()
        } else {
            Box::new(RandomResolver::new(1))
        };
        RuntimeNode::new(svc, RuntimeConfig::new(r))
    });
    sim.start_all();
    sim.run_until_quiescent(SimTime::from_secs(120));

    let edge = sim.actor(EDGE);
    let Node::Edge(e) = edge.service() else {
        unreachable!()
    };
    let (answers, stale): (u32, u32) = sim
        .topology()
        .hosts()
        .filter_map(|n| match sim.actor(n).service() {
            Node::Client(c) => Some((c.answers, c.stale)),
            _ => None,
        })
        .fold((0, 0), |(a, s), (a2, s2)| (a + a2, s + s2));
    println!(
        "{label:<22} served-cached: {:>4}  fetched: {:>4}  answers: {answers}  stale: {stale} ({:.0}%)",
        e.state.served_cached,
        e.state.fetched,
        100.0 * stale as f64 / answers.max(1) as f64,
    );
}

fn main() {
    println!("edge cache with two applicable handlers for every cached Get:\n");
    run(|| Box::new(RandomResolver::new(7)), "coin-flip resolver");
    run(
        || {
            Box::new(HeuristicResolver::new("always-cache", |o: &OptionDesc| {
                -(o.key as f64)
            }))
        },
        "always serve cached",
    );
    run(
        || {
            Box::new(HeuristicResolver::new("always-fetch", |o: &OptionDesc| {
                o.key as f64
            }))
        },
        "always fetch origin",
    );
    println!(
        "\nthe same service code produces three different systems; which handler\n\
         wins is a deployment decision the runtime owns, not the service"
    );
}
