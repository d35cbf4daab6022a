//! Non-deterministic handler sets (paper §3.1).
//!
//! > "Another way of presenting the choices is to implement a distributed
//! > system as a non-deterministic finite state automaton (NFA) with
//! > multiple applicable handlers. Instead of hard coding the logic for
//! > making several choices into one message handler, the programmer can
//! > write several, simpler handlers for the same type of message. […] It
//! > is then the runtime's task to resolve the non-determinism."
//!
//! A [`HandlerSet`] holds named handlers, each with a *guard* (is this
//! handler applicable to this message in this state?) and a *body*. On
//! dispatch, the applicable subset is computed; when more than one handler
//! applies, the selection is exposed to the runtime as an ordinary choice
//! (`"nfa.<set name>"`, options keyed by handler index and carrying the
//! handler's feature hint), so the same resolver machinery — random,
//! learned, predictive — decides which transition the automaton takes.

use crate::choice::{ContextKey, OptionDesc};
use crate::runtime::ServiceCtx;
use cb_simnet::topology::NodeId;
use std::fmt;
use std::hash::Hash;

/// A guard: is this handler applicable?
type Guard<S, M> = Box<dyn Fn(&S, NodeId, &M) -> bool>;

/// A handler body: consume the message, mutate service state, use the ctx.
type Body<S, M, C> = Box<dyn FnMut(&mut S, &mut ServiceCtx<'_, '_, M, C>, NodeId, M)>;

/// A feature hint evaluated on applicable handlers, shown to the resolver.
type FeatureFn<S, M> = Box<dyn Fn(&S, NodeId, &M) -> Vec<f64>>;

struct Handler<S, M, C> {
    name: &'static str,
    guard: Guard<S, M>,
    body: Body<S, M, C>,
    features: Option<FeatureFn<S, M>>,
}

/// What a dispatch did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// No guard matched; the message was dropped.
    NoneApplicable,
    /// Exactly one handler applied — no choice was needed.
    Deterministic(&'static str),
    /// Multiple handlers applied; the runtime chose this one.
    Resolved(&'static str),
}

impl Dispatch {
    /// The executed handler's name, if any ran.
    pub fn handler(&self) -> Option<&'static str> {
        match self {
            Dispatch::NoneApplicable => None,
            Dispatch::Deterministic(n) | Dispatch::Resolved(n) => Some(n),
        }
    }
}

/// A named set of alternative handlers for one message type.
///
/// # Examples
///
/// See `examples/nfa.rs` for a complete service; the shape is:
///
/// ```ignore
/// let handlers = HandlerSet::new("cache.get")
///     .handler("serve-local", |s, _, m| s.has(m), |s, ctx, from, m| { ... })
///     .handler("forward-origin", |_, _, _| true, |s, ctx, from, m| { ... });
/// // In Service::on_message:
/// handlers.dispatch(&mut self.state, ctx, from, msg);
/// ```
pub struct HandlerSet<S, M, C> {
    name: &'static str,
    handlers: Vec<Handler<S, M, C>>,
    /// Dispatches that needed runtime resolution.
    pub resolved: u64,
    /// Dispatches with a single applicable handler.
    pub deterministic: u64,
    /// Dispatches with no applicable handler.
    pub dropped: u64,
}

impl<S, M, C> fmt::Debug for HandlerSet<S, M, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HandlerSet")
            .field("name", &self.name)
            .field(
                "handlers",
                &self.handlers.iter().map(|h| h.name).collect::<Vec<_>>(),
            )
            .field("resolved", &self.resolved)
            .finish()
    }
}

impl<S, M, C> HandlerSet<S, M, C>
where
    M: Clone + fmt::Debug + Hash + 'static,
    C: Clone + fmt::Debug + Hash + 'static,
{
    /// Creates an empty set; `name` becomes the choice-point id
    /// (`"nfa.<name>"` appears in decision logs).
    pub fn new(name: &'static str) -> Self {
        HandlerSet {
            name,
            handlers: Vec::new(),
            resolved: 0,
            deterministic: 0,
            dropped: 0,
        }
    }

    /// Adds a handler with a guard and a body.
    pub fn handler(
        mut self,
        name: &'static str,
        guard: impl Fn(&S, NodeId, &M) -> bool + 'static,
        body: impl FnMut(&mut S, &mut ServiceCtx<'_, '_, M, C>, NodeId, M) + 'static,
    ) -> Self {
        self.handlers.push(Handler {
            name,
            guard: Box::new(guard),
            body: Box::new(body),
            features: None,
        });
        self
    }

    /// Adds a feature hint to the most recently added handler; the resolver
    /// sees these as the option's features.
    ///
    /// # Panics
    ///
    /// Panics when no handler has been added yet.
    pub fn with_features(
        mut self,
        features: impl Fn(&S, NodeId, &M) -> Vec<f64> + 'static,
    ) -> Self {
        let last = self
            .handlers
            .last_mut()
            .expect("with_features needs a handler first");
        last.features = Some(Box::new(features));
        self
    }

    /// Handler names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.handlers.iter().map(|h| h.name).collect()
    }

    /// Dispatches a message: evaluates guards, exposes the ambiguity as a
    /// runtime choice when several handlers apply, and runs the selected
    /// body.
    pub fn dispatch(
        &mut self,
        state: &mut S,
        ctx: &mut ServiceCtx<'_, '_, M, C>,
        from: NodeId,
        msg: M,
    ) -> Dispatch {
        let applicable: Vec<usize> = self
            .handlers
            .iter()
            .enumerate()
            .filter(|(_, h)| (h.guard)(state, from, &msg))
            .map(|(i, _)| i)
            .collect();
        match applicable.len() {
            0 => {
                self.dropped += 1;
                Dispatch::NoneApplicable
            }
            1 => {
                self.deterministic += 1;
                let i = applicable[0];
                let name = self.handlers[i].name;
                (self.handlers[i].body)(state, ctx, from, msg);
                Dispatch::Deterministic(name)
            }
            _ => {
                let options: Vec<OptionDesc> = applicable
                    .iter()
                    .map(|&i| {
                        let features = self.handlers[i]
                            .features
                            .as_ref()
                            .map_or(Vec::new(), |f| f(state, from, &msg));
                        OptionDesc::with_features(i as u64, features)
                    })
                    .collect();
                let pick = ctx.choose(self.name, ContextKey::default(), &options);
                let i = applicable[pick];
                self.resolved += 1;
                let name = self.handlers[i].name;
                (self.handlers[i].body)(state, ctx, from, msg);
                Dispatch::Resolved(name)
            }
        }
    }

    /// Reports the realized reward of the handler chosen for a past
    /// dispatch (by handler index key) so learned resolvers improve.
    pub fn feedback(
        &self,
        ctx: &mut ServiceCtx<'_, '_, M, C>,
        handler_name: &'static str,
        reward: f64,
    ) {
        if let Some(i) = self.handlers.iter().position(|h| h.name == handler_name) {
            ctx.feedback(self.name, ContextKey::default(), i as u64, reward);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::state::StateModel;
    use crate::resolve::random::RandomResolver;
    use crate::runtime::{RuntimeConfig, RuntimeNode, Service};
    use cb_simnet::sim::Sim;
    use cb_simnet::time::{SimDuration, SimTime};
    use cb_simnet::topology::Topology;
    use cb_trace::{Span, SpanKind};

    /// Node 1's retained `Decision` spans.
    fn decision_spans<S: Service>(sim: &Sim<RuntimeNode<S>>) -> Vec<Span> {
        sim.flight_recorder(NodeId(1))
            .spans()
            .filter(|s| s.kind() == SpanKind::Decision)
            .map(|s| s.render(&[]))
            .collect()
    }

    /// A toy cache: Get(k) is answered locally when cached, forwarded to
    /// the origin (node 0) otherwise — and for cached keys *both* handlers
    /// apply, so the runtime decides freshness-vs-latency.
    struct CacheState {
        cached: Vec<u32>,
        served_local: u32,
        forwarded: u32,
    }

    #[derive(Clone, Debug, Hash)]
    enum Msg {
        Get(u32),
        Answer(#[allow(dead_code)] u32),
    }

    struct CacheSvc {
        state: CacheState,
        handlers: HandlerSet<CacheState, Msg, u8>,
    }

    fn make_handlers() -> HandlerSet<CacheState, Msg, u8> {
        HandlerSet::new("nfa.cache-get")
            .handler(
                "serve-local",
                |s: &CacheState, _, m| matches!(m, Msg::Get(k) if s.cached.contains(k)),
                |s, ctx, from, m| {
                    if let Msg::Get(k) = m {
                        s.served_local += 1;
                        ctx.send(from, Msg::Answer(k));
                    }
                },
            )
            .with_features(|_, _, _| vec![1.0])
            .handler(
                "forward-origin",
                |_, _, m| matches!(m, Msg::Get(_)),
                |s, ctx, _from, m| {
                    if let Msg::Get(k) = m {
                        s.forwarded += 1;
                        ctx.send(NodeId(0), Msg::Get(k));
                    }
                },
            )
            .with_features(|_, _, _| vec![0.0])
    }

    impl Service for CacheSvc {
        type Msg = Msg;
        type Checkpoint = u8;

        fn on_message(&mut self, ctx: &mut ServiceCtx<'_, '_, Msg, u8>, from: NodeId, msg: Msg) {
            if let Msg::Answer(_) = msg {
                return;
            }
            if ctx.id() == NodeId(0) {
                // The origin always answers directly.
                if let Msg::Get(k) = msg {
                    ctx.send(from, Msg::Answer(k));
                }
                return;
            }
            self.handlers.dispatch(&mut self.state, ctx, from, msg);
        }

        fn checkpoint(&self, _m: &StateModel<u8>) -> u8 {
            0
        }

        fn neighbors(&self) -> Vec<NodeId> {
            Vec::new()
        }
    }

    fn run_cache(keys: &'static [u32]) -> Sim<RuntimeNode<CacheSvc>> {
        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        let mut sim = Sim::new(topo, 17, |_| {
            RuntimeNode::new(
                CacheSvc {
                    state: CacheState {
                        cached: vec![1, 2],
                        served_local: 0,
                        forwarded: 0,
                    },
                    handlers: make_handlers(),
                },
                RuntimeConfig::new(Box::new(RandomResolver::new(3))),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        for &k in keys {
            sim.invoke(NodeId(2), |_, ctx| {
                let now = ctx.now();
                ctx.send(
                    NodeId(1),
                    crate::runtime::Envelope::App {
                        msg: Msg::Get(k),
                        sent_at: now,
                    },
                );
            });
        }
        sim.run_until_quiescent(SimTime::from_secs(10));
        sim
    }

    #[test]
    fn single_applicable_handler_is_deterministic() {
        // Key 9 is not cached: only forward-origin applies.
        let sim = run_cache(&[9]);
        let svc = sim.actor(NodeId(1)).service();
        assert_eq!(svc.state.forwarded, 1);
        assert_eq!(svc.state.served_local, 0);
        assert_eq!(svc.handlers.deterministic, 1);
        assert_eq!(svc.handlers.resolved, 0);
        assert!(
            decision_spans(&sim).is_empty(),
            "no choice should be recorded"
        );
    }

    #[test]
    fn ambiguous_dispatch_is_exposed_as_a_choice() {
        // Key 1 is cached: both handlers apply; the runtime resolves.
        let sim = run_cache(&[1]);
        let svc = sim.actor(NodeId(1)).service();
        assert_eq!(svc.handlers.resolved, 1);
        let decisions = decision_spans(&sim);
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].attr("choice"), Some("nfa.cache-get"));
        let keys = ["options", "opt0.key", "opt1.key"].map(|k| decisions[0].attr(k));
        assert_eq!(keys, [Some("2"), Some("0"), Some("1")]);
    }

    #[test]
    fn unmatched_messages_are_counted_dropped() {
        // Dispatch requires a live ctx; drive through a minimal sim.
        struct Null {
            handlers: HandlerSet<u8, u8, u8>,
            outcome: Option<Dispatch>,
        }
        impl Service for Null {
            type Msg = u8;
            type Checkpoint = u8;
            fn on_message(&mut self, ctx: &mut ServiceCtx<'_, '_, u8, u8>, from: NodeId, msg: u8) {
                let mut state = 0;
                self.outcome = Some(self.handlers.dispatch(&mut state, ctx, from, msg));
            }
            fn checkpoint(&self, _m: &StateModel<u8>) -> u8 {
                0
            }
            fn neighbors(&self) -> Vec<NodeId> {
                Vec::new()
            }
        }
        let topo = Topology::star(2, SimDuration::from_millis(1), 1_000_000);
        let mut sim = Sim::new(topo, 1, move |_| {
            RuntimeNode::new(
                Null {
                    handlers: HandlerSet::new("nfa.never").handler(
                        "never",
                        |_, _, _| false,
                        |_, _, _, _| {},
                    ),
                    outcome: None,
                },
                RuntimeConfig::new(Box::new(RandomResolver::new(1))),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        sim.invoke(NodeId(0), |_, ctx| {
            let now = ctx.now();
            ctx.send(
                NodeId(1),
                crate::runtime::Envelope::App {
                    msg: 7,
                    sent_at: now,
                },
            );
        });
        sim.run_until_quiescent(SimTime::from_secs(5));
        let svc = sim.actor(NodeId(1)).service();
        assert_eq!(svc.outcome, Some(Dispatch::NoneApplicable));
        assert_eq!(svc.handlers.dropped, 1);
    }

    #[test]
    fn feedback_teaches_a_learned_resolver_which_handler_wins() {
        use crate::resolve::learned::{BanditPolicy, LearnedResolver};

        // Same cache service, but rewards: serving locally pays 1.0,
        // forwarding pays 0.1. The learned resolver should converge on
        // serve-local for cached keys.
        struct Learny {
            state: CacheState,
            handlers: HandlerSet<CacheState, Msg, u8>,
        }
        impl Service for Learny {
            type Msg = Msg;
            type Checkpoint = u8;
            fn on_message(
                &mut self,
                ctx: &mut ServiceCtx<'_, '_, Msg, u8>,
                from: NodeId,
                msg: Msg,
            ) {
                if ctx.id() != NodeId(1) {
                    return;
                }
                let outcome = self.handlers.dispatch(&mut self.state, ctx, from, msg);
                if let Some(name) = outcome.handler() {
                    let reward = if name == "serve-local" { 1.0 } else { 0.1 };
                    self.handlers.feedback(ctx, name, reward);
                }
            }
            fn checkpoint(&self, _m: &StateModel<u8>) -> u8 {
                0
            }
            fn neighbors(&self) -> Vec<NodeId> {
                Vec::new()
            }
        }
        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        let mut sim = Sim::new(topo, 91, |_| {
            RuntimeNode::new(
                Learny {
                    state: CacheState {
                        cached: vec![1],
                        served_local: 0,
                        forwarded: 0,
                    },
                    handlers: make_handlers(),
                },
                RuntimeConfig::new(Box::new(LearnedResolver::new(
                    BanditPolicy::EpsilonGreedy { epsilon: 0.05 },
                    7,
                ))),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        for _ in 0..40 {
            sim.invoke(NodeId(2), |_, ctx| {
                let now = ctx.now();
                ctx.send(
                    NodeId(1),
                    crate::runtime::Envelope::App {
                        msg: Msg::Get(1),
                        sent_at: now,
                    },
                );
            });
        }
        sim.run_until_quiescent(SimTime::from_secs(30));
        let svc = sim.actor(NodeId(1)).service();
        assert!(
            svc.state.served_local > svc.state.forwarded * 2,
            "learning failed: local {} vs forwarded {}",
            svc.state.served_local,
            svc.state.forwarded
        );
    }

    #[test]
    fn names_and_debug() {
        let h = make_handlers();
        assert_eq!(h.names(), vec!["serve-local", "forward-origin"]);
        let text = format!("{h:?}");
        assert!(text.contains("nfa.cache-get"), "{text}");
    }

    #[test]
    #[should_panic(expected = "with_features needs a handler first")]
    fn features_before_handler_panics() {
        let _: HandlerSet<u8, u8, u8> = HandlerSet::new("x").with_features(|_, _, _| vec![]);
    }
}
