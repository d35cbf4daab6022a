//! The CrystalBall-enabled runtime (Figure 1 of the paper).
//!
//! A [`RuntimeNode`] interposes between the network and the service state
//! machine, exactly as the paper draws it:
//!
//! * **inbound** messages pass through the [`Steering`] filters (predicted-
//!   violation avoidance) and feed passive latency samples into the
//!   [`NetworkModel`] before reaching the service handler;
//! * **outbound** messages are timestamped so the peer can measure;
//! * a **controller** timer periodically ships the service's checkpoint to
//!   its neighbors (building every peer's [`StateModel`]) and consults the
//!   optional steering advisor, which runs consequence prediction over the
//!   latest consistent snapshot and proposes event filters;
//! * **exposed choices** made inside handlers are resolved by the
//!   configured [`Resolver`] and recorded once, as a
//!   [`SpanKind::Decision`] span on the node's flight recorder: the option
//!   table, every tapped prediction, the verdict and the resolver's own
//!   attributes. `trace`, blame walks and the corpus all read that span.
//!
//! The service code underneath stays a plain state machine: it sends,
//! receives, sets timers — and *chooses*, through [`ServiceCtx::choose`].

use crate::choice::{
    ChoiceId, ChoiceRequest, ContextKey, EvalVerdict, NullEvaluator, OptionDesc, OptionEvaluator,
    Prediction, Resolver,
};
use crate::governor::HealthSignals;
use crate::model::net::NetworkModel;
use crate::model::state::StateModel;
use crate::steering::{EventFilter, FilterAction, Steering};
use cb_simnet::rng::SimRng;
use cb_simnet::sim::{Actor, Ctx as SimCtx, Sim, TimerId};
use cb_simnet::time::{SimDuration, SimTime};
use cb_simnet::topology::NodeId;
use cb_telemetry::{keys, Registry, Stopwatch};
use cb_trace::{Span, SpanId, SpanKind};
use std::fmt::Debug;
use std::hash::Hash;

/// Timer tag reserved for the runtime's controller cycle. Service tags must
/// stay below this value.
pub const CONTROLLER_TAG: u64 = u64::MAX;

/// What travels on the wire: application messages wrapped with runtime
/// metadata, plus runtime-to-runtime checkpoint and probe traffic.
#[derive(Clone, Debug, Hash)]
pub enum Envelope<M, C> {
    /// An application message, timestamped for passive latency measurement.
    App {
        /// The service-level payload.
        msg: M,
        /// Sender's clock at send time.
        sent_at: SimTime,
    },
    /// A checkpoint of the sender's service state.
    Checkpoint {
        /// The checkpointed state.
        data: C,
        /// When the checkpoint was taken at the sender.
        taken_at: SimTime,
    },
    /// An active network probe (paper §3.3.1: "explicitly probing various
    /// network conditions"). Answered by the peer's runtime; the service
    /// never sees it.
    Probe {
        /// Sender's clock at probe time.
        sent_at: SimTime,
    },
    /// The probe answer, echoing the probe's timestamp so the prober can
    /// fold the measured round trip into its network model.
    ProbeReply {
        /// The original probe's send time (the prober's clock).
        probe_sent_at: SimTime,
    },
}

/// A distributed service written against the explicit-choice model.
///
/// Compared to a raw [`Actor`], a `Service` additionally exposes
/// checkpointing (for the state model) and its neighbor set (who receives
/// those checkpoints); in exchange its handlers get a [`ServiceCtx`] that
/// can resolve exposed choices.
pub trait Service: 'static + Sized {
    /// The service's message type.
    type Msg: Clone + Debug + Hash + 'static;
    /// The checkpoint the runtime ships to neighbors.
    type Checkpoint: Clone + Debug + Hash + Eq + 'static;

    /// Called when the node starts (or restarts after a crash).
    fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>) {
        let _ = ctx;
    }

    /// Called for each delivered application message.
    fn on_message(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>,
        from: NodeId,
        msg: Self::Msg,
    );

    /// Called when a service timer fires.
    fn on_timer(&mut self, ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// Called when the reliable connection to `peer` breaks.
    fn on_conn_broken(
        &mut self,
        ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>,
        peer: NodeId,
    ) {
        let _ = (ctx, peer);
    }

    /// Takes a checkpoint of the current service state.
    ///
    /// The runtime passes its [`StateModel`] so services can fold their
    /// neighbors' latest reports into aggregated state (the paper's
    /// "export state whose goal is to keep track of information in other
    /// nodes", §3.3.2).
    fn checkpoint(&self, model: &StateModel<Self::Checkpoint>) -> Self::Checkpoint;

    /// The peers whose state model should include this node (checkpoint
    /// recipients). Typically O(log n) in scalable systems.
    fn neighbors(&self) -> Vec<NodeId>;
}

/// Advice produced by a steering advisor: install a filter against `from`.
#[derive(Clone, Debug)]
pub struct SteeringAdvice {
    /// Why (normally the predicted violated property).
    pub reason: String,
    /// Sender whose next message(s) should be filtered.
    pub from: NodeId,
    /// The corrective action.
    pub action: FilterAction,
}

/// Everything a steering advisor may inspect when predicting violations.
pub struct SteeringInput<'a, C> {
    /// The node running the prediction.
    pub me: NodeId,
    /// Current local time.
    pub now: SimTime,
    /// The node's own fresh checkpoint.
    pub my_state: C,
    /// Neighbor checkpoints.
    pub model: &'a StateModel<C>,
    /// The network model.
    pub net: &'a NetworkModel,
}

/// The advisor callback: runs prediction over the models and proposes
/// filters. Runs on the controller cycle, off the message path.
pub type SteeringAdvisor<C> = Box<dyn FnMut(&SteeringInput<'_, C>) -> Vec<SteeringAdvice>>;

/// Staleness bound for checkpoints entering snapshots.
const MAX_CHECKPOINT_STALENESS: SimDuration = SimDuration::from_secs(30);
/// Half-life of network-model confidence.
const NET_HALF_LIFE: SimDuration = SimDuration::from_secs(20);

/// Runtime configuration for one node.
pub struct RuntimeConfig<C> {
    /// The choice resolver.
    pub resolver: Box<dyn Resolver>,
    /// Controller (checkpoint + prediction) period. Zero disables the
    /// controller entirely.
    pub controller_interval: SimDuration,
    /// Optional predicted-violation steering.
    pub advisor: Option<SteeringAdvisor<C>>,
    /// Reporting-only prediction deadline, in explored states per decision
    /// (0 disables). When a decision's evaluator spends more than this, the
    /// runtime counts a `core.predict.deadline_overruns` — without cutting
    /// the evaluation short. This is the *control-arm* knob of the
    /// degradation experiments: the ladder arm instead enforces the same
    /// budget inside the evaluator
    /// ([`crate::predict::PredictConfig::deadline_states`]) and therefore
    /// never overruns by construction.
    pub report_deadline_states: u64,
}

impl<C> RuntimeConfig<C> {
    /// A configuration with the given resolver and sensible defaults:
    /// 1 s controller cycle, no steering advisor.
    pub fn new(resolver: Box<dyn Resolver>) -> Self {
        RuntimeConfig {
            resolver,
            controller_interval: SimDuration::from_secs(1),
            advisor: None,
            report_deadline_states: 0,
        }
    }

    /// Sets the controller period.
    pub fn controller_every(mut self, interval: SimDuration) -> Self {
        self.controller_interval = interval;
        self
    }

    /// Installs a steering advisor.
    pub fn with_advisor(mut self, advisor: SteeringAdvisor<C>) -> Self {
        self.advisor = Some(advisor);
        self
    }

    /// Enables reporting-only deadline accounting: decisions whose
    /// evaluator explored more than `states` count an overrun in
    /// `core.predict.deadline_overruns` (the evaluation itself is not cut
    /// short). 0 disables.
    pub fn report_deadline(mut self, states: u64) -> Self {
        self.report_deadline_states = states;
        self
    }
}

/// The runtime state that is not the service itself.
struct RuntimeCore<M, C> {
    resolver: Box<dyn Resolver>,
    controller_interval: SimDuration,
    advisor: Option<SteeringAdvisor<C>>,
    report_deadline_states: u64,
    net_model: NetworkModel,
    state_model: StateModel<C>,
    steering: Steering<M>,
    controller_cycles: u64,
    checkpoints_sent: u64,
    checkpoints_received: u64,
    /// Latest service-reported load (normalized backlog, in units of
    /// work-per-drain-interval). Folded into every decision's
    /// [`HealthSignals`] so overload can step the governor down even when
    /// models stay fresh.
    reported_load: u64,
    /// Attrs queued by the service ([`ServiceCtx::decision_attr`]) for the
    /// *next* decision span — lets handlers label the decision they are
    /// about to expose (e.g. `workload=flash`).
    pending_attrs: Vec<(String, String)>,
    /// Hot-path telemetry, service-owned counters ([`ServiceCtx::count`])
    /// included. Only the resolver-arm counter below is registered up
    /// front: a key is allocated the first time this node touches it, so a
    /// node that never decides holds none of the schema.
    /// The merged per-run registry ([`fleet_telemetry`]) pre-registers the
    /// standard key set once, which is what keeps every export's key set
    /// the same.
    telemetry: Registry,
    /// Pre-formatted `core.resolver_arm.<name>` counter key.
    arm_key: String,
}

/// A node of the distributed system: the service plus the CrystalBall-style
/// runtime wrapped around it. Implements [`Actor`] so it runs directly on
/// the simulator.
pub struct RuntimeNode<S: Service> {
    service: S,
    core: RuntimeCore<S::Msg, S::Checkpoint>,
}

impl<S: Service> RuntimeNode<S> {
    /// Wraps `service` with a runtime configured by `config`.
    pub fn new(service: S, config: RuntimeConfig<S::Checkpoint>) -> Self {
        let mut telemetry = Registry::new();
        let arm_key = format!(
            "{}{}",
            keys::CORE_RESOLVER_ARM_PREFIX,
            config.resolver.name()
        );
        telemetry.register_counter(&arm_key);
        RuntimeNode {
            service,
            core: RuntimeCore {
                resolver: config.resolver,
                controller_interval: config.controller_interval,
                advisor: config.advisor,
                report_deadline_states: config.report_deadline_states,
                net_model: NetworkModel::new(NET_HALF_LIFE),
                state_model: StateModel::new(MAX_CHECKPOINT_STALENESS),
                steering: Steering::new(),
                controller_cycles: 0,
                checkpoints_sent: 0,
                checkpoints_received: 0,
                reported_load: 0,
                pending_attrs: Vec::new(),
                telemetry,
                arm_key,
            },
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The network model.
    pub fn net_model(&self) -> &NetworkModel {
        &self.core.net_model
    }

    /// The state model.
    pub fn state_model(&self) -> &StateModel<S::Checkpoint> {
        &self.core.state_model
    }

    /// Steering statistics: (messages dropped, connections broken).
    pub fn steering_stats(&self) -> (u64, u64) {
        (self.core.steering.dropped, self.core.steering.breaks)
    }

    /// Controller cycles completed.
    pub fn controller_cycles(&self) -> u64 {
        self.core.controller_cycles
    }

    /// Snapshot of this node's telemetry under the standard `core.*` keys:
    /// the hot-path registry (decision counts, dual-clock latency and the
    /// service's own counters) plus controller/checkpoint/steering counters
    /// and whatever the resolver exports (cache hit/miss/refresh, lookahead
    /// evaluations).
    /// Idempotent; aggregate nodes with [`Registry::merge`] or use
    /// [`fleet_telemetry`].
    pub fn telemetry(&self) -> Registry {
        let mut reg = self.core.telemetry.clone();
        reg.set_counter(keys::CORE_CONTROLLER_CYCLES, self.core.controller_cycles);
        reg.set_counter(keys::CORE_CHECKPOINTS_SENT, self.core.checkpoints_sent);
        reg.set_counter(
            keys::CORE_CHECKPOINTS_RECEIVED,
            self.core.checkpoints_received,
        );
        reg.set_counter(keys::CORE_STEERING_DROPPED, self.core.steering.dropped);
        reg.set_counter(keys::CORE_STEERING_BREAKS, self.core.steering.breaks);
        reg.set_counter(keys::CORE_STEERING_INSTALLED, self.core.steering.installed);
        reg.set_counter(keys::CORE_STEERING_FIRED, self.core.steering.fired);
        reg.set_counter(keys::CORE_STEERING_EXPIRED, self.core.steering.expired);
        reg.set_counter(keys::CORE_STEERING_REMOVED, self.core.steering.removed);
        self.core.resolver.export_metrics(&mut reg);
        reg
    }

    fn run_controller(&mut self, ctx: &mut SimCtx<'_, Envelope<S::Msg, S::Checkpoint>>) {
        self.core.controller_cycles += 1;
        let now = ctx.now();
        // Keep the resolver's degradation governor observing between
        // decisions: a node that stops choosing while overloaded (or
        // after load vanishes) must still step down — and, crucially,
        // climb back to Healthy — on the controller cadence.
        let signals = self.core.health(now, &[]);
        self.core.resolver.observe_health(&signals);
        // 1. Ship a fresh checkpoint to the neighborhood, rendered once.
        let cp = self.service.checkpoint(&self.core.state_model);
        let me = ctx.id();
        let mut peers = self.service.neighbors();
        peers.retain(|&p| p != me);
        self.core.checkpoints_sent += peers.len() as u64;
        ctx.multicast(
            peers,
            Envelope::Checkpoint {
                data: cp.clone(),
                taken_at: now,
            },
        );
        // 2. Consult the advisor (prediction over the current models).
        if let Some(advisor) = self.core.advisor.as_mut() {
            let input = SteeringInput {
                me: ctx.id(),
                now,
                my_state: cp,
                model: &self.core.state_model,
                net: &self.core.net_model,
            };
            for advice in advisor(&input) {
                ctx.note(format!(
                    "steering: filter {} ({})",
                    advice.from, advice.reason
                ));
                // Provenance: the install descends from the controller
                // timer that ran the prediction; the filter remembers the
                // install span so a later fire can link back to it.
                let at_ns = ctx.now_ns();
                let parents: Vec<SpanId> = ctx.cause().into_iter().collect();
                let recorder = ctx.recorder_mut();
                let span_id = recorder.next_id(at_ns);
                recorder.push(
                    Span::new(
                        span_id,
                        SpanKind::SteeringInstall,
                        format!("steer-install:{}", advice.from),
                        parents,
                    )
                    .with_attr("reason", advice.reason.clone())
                    .with_attr("from", advice.from.index().to_string()),
                );
                self.core.steering.install(
                    EventFilter::from_sender(advice.reason, advice.from, advice.action, now)
                        .with_span(span_id),
                );
            }
        }
    }
}

impl<S: Service> Actor for RuntimeNode<S> {
    type Msg = Envelope<S::Msg, S::Checkpoint>;

    fn on_start(&mut self, ctx: &mut SimCtx<'_, Self::Msg>) {
        if !self.core.controller_interval.is_zero() {
            // Stagger the first cycle to avoid fleet-wide synchronization.
            let jitter = SimDuration::from_nanos(
                ctx.rng()
                    .gen_below(self.core.controller_interval.as_nanos().max(1)),
            );
            ctx.set_timer(self.core.controller_interval + jitter, CONTROLLER_TAG);
        }
        let mut sctx = ServiceCtx {
            net: ctx,
            core: &mut self.core,
        };
        self.service.on_start(&mut sctx);
    }

    fn on_message(&mut self, ctx: &mut SimCtx<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        match msg {
            Envelope::App { msg, sent_at } => {
                // Passive network measurement (paper §3.3.1).
                let sample = ctx.now().saturating_since(sent_at);
                self.core.net_model.observe_latency(from, sample, ctx.now());
                // Execution steering: predicted-violation filters.
                if let Some((action, (reason, install_span))) =
                    self.core.steering.check_traced(from, &msg)
                {
                    ctx.note(format!("steered: dropped message from {from}"));
                    // Provenance: the fire descends from both the delivery
                    // it intercepted and the install that armed the filter,
                    // tying the prediction to its enforcement.
                    let at_ns = ctx.now_ns();
                    let mut parents: Vec<SpanId> = ctx.cause().into_iter().collect();
                    if let Some(install) = install_span {
                        parents.push(install);
                    }
                    let recorder = ctx.recorder_mut();
                    let span_id = recorder.next_id(at_ns);
                    recorder.push(
                        Span::new(
                            span_id,
                            SpanKind::SteeringFire,
                            format!("steer-fire:{from}"),
                            parents,
                        )
                        .with_attr("reason", reason)
                        .with_attr(
                            "action",
                            match action {
                                FilterAction::Drop => "drop",
                                FilterAction::DropAndBreak => "drop_and_break",
                            },
                        ),
                    );
                    // The conn break (if any) is a consequence of the fire.
                    ctx.set_cause(span_id);
                    if action == FilterAction::DropAndBreak {
                        ctx.break_connection(from);
                    }
                    return;
                }
                let mut sctx = ServiceCtx {
                    net: ctx,
                    core: &mut self.core,
                };
                self.service.on_message(&mut sctx, from, msg);
            }
            Envelope::Checkpoint { data, taken_at } => {
                let sample = ctx.now().saturating_since(taken_at);
                self.core.net_model.observe_latency(from, sample, ctx.now());
                self.core.checkpoints_received += 1;
                self.core
                    .state_model
                    .update(from, data, taken_at, ctx.now());
            }
            Envelope::Probe { sent_at } => {
                ctx.send(
                    from,
                    Envelope::ProbeReply {
                        probe_sent_at: sent_at,
                    },
                );
            }
            Envelope::ProbeReply { probe_sent_at } => {
                // One-way estimate = half the measured round trip.
                let rtt = ctx.now().saturating_since(probe_sent_at);
                self.core
                    .net_model
                    .observe_latency(from, rtt / 2, ctx.now());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut SimCtx<'_, Self::Msg>, _timer: TimerId, tag: u64) {
        if tag == CONTROLLER_TAG {
            self.run_controller(ctx);
            let interval = self.core.controller_interval;
            if !interval.is_zero() {
                ctx.set_timer(interval, CONTROLLER_TAG);
            }
            return;
        }
        let mut sctx = ServiceCtx {
            net: ctx,
            core: &mut self.core,
        };
        self.service.on_timer(&mut sctx, tag);
    }

    fn on_conn_broken(&mut self, ctx: &mut SimCtx<'_, Self::Msg>, peer: NodeId) {
        // The break is hard evidence the peer's link estimate is wrong:
        // collapse its confidence before the service (which may expose a
        // choice in its failure handler) sees the event.
        self.core.net_model.observe_conn_broken(peer, ctx.now());
        let mut sctx = ServiceCtx {
            net: ctx,
            core: &mut self.core,
        };
        self.service.on_conn_broken(&mut sctx, peer);
    }
}

impl<M, C: Clone> RuntimeCore<M, C> {
    /// The model-health snapshot a health-aware resolver (the ladder) feeds
    /// its degradation governor: snapshot staleness, the worst network
    /// confidence among the declared peer options (1.0 when they name none
    /// the model knows), steering pressure and the reported load.
    fn health(&self, now: SimTime, options: &[OptionDesc]) -> HealthSignals {
        let mut min_conf = 1.0f64;
        for o in options.iter().filter(|o| o.peer) {
            let peer = NodeId(o.key as u32);
            if self.net_model.estimate(peer).is_some() {
                min_conf = min_conf.min(self.net_model.confidence(peer, now));
            }
        }
        HealthSignals {
            snapshot_staleness: self.state_model.oldest_age(now),
            min_peer_confidence: min_conf,
            steering_pressure: self.steering.active() as u64,
            deadline_fired: false,
            load: self.reported_load,
            now,
        }
    }
}

/// Aggregates telemetry across a whole simulated fleet of runtime nodes:
/// the simulator's own registry ([`Sim::telemetry`]) with every node's
/// [`RuntimeNode::telemetry`] snapshot merged in (counters add, peak gauges
/// keep the max, histograms merge). This is the per-run registry campaign
/// harnesses embed in their artifacts.
pub fn fleet_telemetry<S: Service>(sim: &Sim<RuntimeNode<S>>) -> Registry {
    let mut reg = sim.telemetry();
    for n in sim.topology().hosts() {
        reg.merge(&sim.actor(n).telemetry());
    }
    reg
}

/// Wraps the caller's evaluator so the runtime can tap every per-option
/// prediction for the decision's provenance span without changing what the
/// resolver sees. Pure pass-through for verdict / budget / telemetry.
struct TapEval<'e> {
    inner: &'e mut dyn OptionEvaluator,
    /// `(option index, prediction)` in evaluation order. Empty when the
    /// resolver never consulted the evaluator (random/heuristic/static
    /// rungs, cache hits).
    taps: Vec<(usize, Prediction)>,
}

impl OptionEvaluator for TapEval<'_> {
    fn evaluate(&mut self, index: usize) -> Prediction {
        let p = self.inner.evaluate(index);
        self.taps.push((index, p));
        p
    }

    fn verdict(&self) -> EvalVerdict {
        self.inner.verdict()
    }

    fn states_spent(&self) -> u64 {
        self.inner.states_spent()
    }

    fn export_metrics(&self, reg: &mut Registry) {
        self.inner.export_metrics(reg);
    }
}

/// What a service handler sees: the network context plus the runtime's
/// choice, model, and steering facilities.
pub struct ServiceCtx<'a, 'b, M, C> {
    net: &'a mut SimCtx<'b, Envelope<M, C>>,
    core: &'a mut RuntimeCore<M, C>,
}

impl<'a, 'b, M: Clone + Debug + Hash + 'static, C: Clone + Debug + Hash + 'static>
    ServiceCtx<'a, 'b, M, C>
{
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.net.id()
    }

    /// Number of hosts in the deployment.
    pub fn host_count(&self) -> usize {
        self.net.host_count()
    }

    /// All host ids.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.net.nodes()
    }

    /// Sends an application message (reliable, in order).
    pub fn send(&mut self, to: NodeId, msg: M) {
        let now = self.net.now();
        self.net.send(to, Envelope::App { msg, sent_at: now });
    }

    /// Sends an application message with an explicit payload size.
    pub fn send_sized(&mut self, to: NodeId, msg: M, bytes: u32) {
        let now = self.net.now();
        self.net
            .send_sized(to, Envelope::App { msg, sent_at: now }, bytes);
    }

    /// Sends one application message to each node of `to`, in order, as a
    /// loop of [`ServiceCtx::send`] would, with the payload wrapped once
    /// and rendered once (see [`SimCtx::multicast_sized`]).
    pub fn multicast(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M) {
        let now = self.net.now();
        self.net.multicast(to, Envelope::App { msg, sent_at: now });
    }

    /// [`ServiceCtx::multicast`] with an explicit payload size.
    pub fn multicast_sized(&mut self, to: impl IntoIterator<Item = NodeId>, msg: M, bytes: u32) {
        let now = self.net.now();
        self.net
            .multicast_sized(to, Envelope::App { msg, sent_at: now }, bytes);
    }

    /// Sends an unreliable datagram.
    pub fn send_unreliable(&mut self, to: NodeId, msg: M) {
        let now = self.net.now();
        self.net
            .send_unreliable(to, Envelope::App { msg, sent_at: now });
    }

    /// Arms a service timer.
    ///
    /// # Panics
    ///
    /// Panics if `tag` collides with the runtime's [`CONTROLLER_TAG`].
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        assert!(
            tag != CONTROLLER_TAG,
            "timer tag {tag} is reserved for the runtime"
        );
        self.net.set_timer(delay, tag)
    }

    /// Cancels a pending timer.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.net.cancel_timer(id);
    }

    /// The node's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.net.rng()
    }

    /// Tears down the connection with `peer`.
    pub fn break_connection(&mut self, peer: NodeId) {
        self.net.break_connection(peer);
    }

    /// Puts an annotation under the run fingerprint.
    pub fn note(&mut self, text: impl AsRef<str>) {
        self.net.note(text);
    }

    /// The domain (ISP / stub) label of a host (see
    /// [`cb_simnet::topology::Topology::domain`]).
    pub fn domain(&self, n: NodeId) -> u32 {
        self.net.domain(n)
    }

    /// The runtime's network model (read side).
    pub fn net_model(&self) -> &NetworkModel {
        &self.core.net_model
    }

    /// Actively probes each of `peers`, in order, with one multicast: each
    /// peer's runtime echoes, and the reply folds a fresh latency sample
    /// into the network model. Use when a passive sample is not coming
    /// (e.g. before a first contact).
    pub fn probe(&mut self, peers: impl IntoIterator<Item = NodeId>) {
        let now = self.net.now();
        self.net.multicast(peers, Envelope::Probe { sent_at: now });
    }

    /// The runtime's state model (read side).
    pub fn state_model(&self) -> &StateModel<C> {
        &self.core.state_model
    }

    /// Resolves an exposed choice with no predictive evaluation (random,
    /// heuristic, and learned resolvers never need one).
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    pub fn choose(&mut self, id: ChoiceId, context: ContextKey, options: &[OptionDesc]) -> usize {
        self.choose_with(id, context, options, &mut NullEvaluator)
    }

    /// Resolves an exposed choice among `peers`, in order, and returns the
    /// chosen one. Each option is [`OptionDesc::peer`] with one feature,
    /// the predicted latency in ms: 0 for this node, 40 when the network
    /// model has no estimate.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty.
    pub fn choose_peer(&mut self, id: ChoiceId, peers: &[NodeId]) -> NodeId {
        let (me, now) = (self.id(), self.now());
        let options: Vec<OptionDesc> = peers
            .iter()
            .map(|&p| {
                let latency_ms = if p == me {
                    0.0
                } else {
                    self.core
                        .net_model
                        .predicted_latency(p, now)
                        .map_or(40.0, |(l, _)| l.as_millis_f64())
                };
                OptionDesc::peer(p, vec![latency_ms])
            })
            .collect();
        peers[self.choose(id, ContextKey::default(), &options)]
    }

    /// Resolves an exposed choice, letting predictive resolvers evaluate
    /// options through `eval` (usually a
    /// [`crate::predict::ModelEvaluator`] built over the snapshot models).
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty or the resolver returns an out-of-range
    /// index.
    pub fn choose_with(
        &mut self,
        id: ChoiceId,
        context: ContextKey,
        options: &[OptionDesc],
        eval: &mut dyn OptionEvaluator,
    ) -> usize {
        assert!(!options.is_empty(), "choice '{id}' has no options");
        let request = ChoiceRequest {
            id,
            options,
            context,
            state_fp: 0,
        };
        // Model health for this decision; resolvers without a governor
        // ignore it.
        let signals = self.core.health(self.net.now(), options);
        self.core.resolver.observe_health(&signals);
        // Tap per-option predictions for the decision's provenance span.
        let mut tap = TapEval {
            inner: eval,
            taps: Vec::new(),
        };
        let stopwatch = Stopwatch::start();
        let chosen = self.core.resolver.resolve(&request, &mut tap);
        let wall_ns = stopwatch.elapsed_ns();
        assert!(
            chosen < options.len(),
            "resolver returned out-of-range option {chosen}"
        );
        // Dual-clock decision accounting. Sim time does not advance inside
        // a handler, so the deterministic clock records a *modeled* cost:
        // 1 µs per state the prediction explored (0 for non-predictive
        // resolvers). The wall clock records the real hardware cost and is
        // fingerprint-exempt.
        let states = self
            .core
            .resolver
            .last_prediction()
            .map_or(0, |p| p.states_explored);
        self.core.telemetry.inc(keys::CORE_DECISIONS_TOTAL);
        self.core.telemetry.add(keys::CORE_STATES_EXPLORED, states);
        self.core
            .telemetry
            .record(keys::CORE_DECISION_LATENCY_SIM_US, states);
        self.core
            .telemetry
            .record(keys::CORE_DECISION_LATENCY_WALL_NS, wall_ns);
        self.core.telemetry.inc(&self.core.arm_key);
        // Reporting-only deadline accounting: the control arm's unenforced
        // budget. Charged against the evaluator's total per-decision spend,
        // not just the chosen option's prediction.
        if self.core.report_deadline_states > 0
            && tap.states_spent() > self.core.report_deadline_states
        {
            self.core
                .telemetry
                .inc(keys::CORE_PREDICT_DEADLINE_OVERRUNS);
        }
        // Evaluator-internal accounting (fused-pass savings, partial
        // evaluations). Delta semantics: once per decision.
        tap.export_metrics(&mut self.core.telemetry);
        let verdict = tap.verdict();
        // Open the DecisionSpan: parents = whatever event dispatched this
        // handler (deliver / timer / conn-break / start), carrying the full
        // option set, every tapped per-option prediction, the verdict, and
        // the resolver's own attrs (ladder rung, governor level + dominant
        // pressure cause).
        let mut attrs: Vec<(String, String)> = Vec::with_capacity(10 + tap.taps.len() * 3);
        attrs.push(("choice".into(), id.to_string()));
        attrs.push(("context".into(), context.0.to_string()));
        attrs.push(("resolver".into(), self.core.resolver.name().to_string()));
        attrs.push(("options".into(), options.len().to_string()));
        attrs.push(("chosen".into(), chosen.to_string()));
        for (i, o) in options.iter().enumerate() {
            attrs.push((format!("opt{i}.key"), o.key.to_string()));
        }
        for (i, p) in &tap.taps {
            attrs.push((format!("opt{i}.objective"), format!("{}", p.objective)));
            attrs.push((format!("opt{i}.violations"), p.violations.to_string()));
            attrs.push((format!("opt{i}.states"), p.states_explored.to_string()));
        }
        attrs.push((
            "verdict".into(),
            match verdict {
                EvalVerdict::Complete => "complete",
                EvalVerdict::Partial => "partial",
            }
            .into(),
        ));
        attrs.append(&mut self.core.pending_attrs);
        self.core.resolver.decision_attrs(&mut attrs);
        let at_ns = self.net.now_ns();
        let cause: Vec<SpanId> = self.net.cause().into_iter().collect();
        let recorder = self.net.recorder_mut();
        let span_id = recorder.next_id(at_ns);
        let mut span = Span::new(span_id, SpanKind::Decision, format!("decide:{id}"), cause);
        span.sim_cost_us = states;
        span.wall_ns = wall_ns;
        span.attrs = attrs;
        recorder.push(span);
        // Effects the handler emits after this point (sends, timers, conn
        // breaks) are consequences of the decision, not merely of the
        // triggering event: re-parent them to the decision span.
        self.net.set_cause(span_id);
        chosen
    }

    /// Reports the service's current load to the runtime as a normalized
    /// backlog (units of work-per-drain-interval; 0 = idle). The value is
    /// folded into every subsequent decision's
    /// [`HealthSignals`], so sustained overload steps a
    /// health-aware resolver's governor down even while the models stay
    /// fresh — and its removal lets the governor climb back up.
    pub fn report_load(&mut self, normalized_backlog: u64) {
        self.core.reported_load = normalized_backlog;
    }

    /// Adds `delta` to a service-owned counter in the node's telemetry
    /// registry, so totals sum across the fleet under [`Registry::merge`].
    /// `key` should be a pre-registered standard key (e.g. the `workload.*`
    /// family) so masked-telemetry digests keep a stable key set.
    pub fn count(&mut self, key: &'static str, delta: u64) {
        self.core.telemetry.add(key, delta);
    }

    /// Queues an attribute for the *next* decision span this handler
    /// opens via [`Self::choose`] / [`Self::choose_with`] — e.g.
    /// `workload=flash` on an admission decision, so blame walks can
    /// filter decisions by the traffic regime that forced them.
    pub fn decision_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.core.pending_attrs.push((key.into(), value.into()));
    }

    /// Reports the realized reward of a past decision (learned resolvers
    /// use this; others ignore it).
    pub fn feedback(&mut self, id: ChoiceId, context: ContextKey, option_key: u64, reward: f64) {
        self.core.resolver.feedback(id, context, option_key, reward);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::random::RandomResolver;
    use cb_simnet::sim::Sim;
    use cb_simnet::topology::Topology;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Node `n`'s retained `Decision` spans, oldest first.
    fn decision_spans<S: Service>(sim: &Sim<RuntimeNode<S>>, n: NodeId) -> Vec<Span> {
        sim.flight_recorder(n)
            .spans()
            .filter(|s| s.kind() == SpanKind::Decision)
            .map(|s| s.render(&[]))
            .collect()
    }

    /// A counter service: node 0 spams increments to everyone; everyone
    /// tracks the max seen and exposes a trivial choice on each message.
    #[derive(Debug)]
    struct CounterSvc {
        max_seen: u64,
        choices_made: u64,
    }

    impl CounterSvc {
        fn new() -> Self {
            CounterSvc {
                max_seen: 0,
                choices_made: 0,
            }
        }
    }

    impl Service for CounterSvc {
        type Msg = u64;
        type Checkpoint = u64;

        fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>) {
            if ctx.id() == NodeId(0) {
                ctx.set_timer(SimDuration::from_millis(100), 1);
            }
        }

        fn on_timer(
            &mut self,
            ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>,
            tag: u64,
        ) {
            if tag == 1 {
                self.max_seen += 1;
                let me = ctx.id();
                let others = ctx.nodes().into_iter().filter(|&n| n != me);
                ctx.multicast(others, self.max_seen);
                if self.max_seen < 10 {
                    ctx.set_timer(SimDuration::from_millis(100), 1);
                }
            }
        }

        fn on_message(
            &mut self,
            ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>,
            _from: NodeId,
            msg: u64,
        ) {
            self.max_seen = self.max_seen.max(msg);
            let opts = [OptionDesc::key(0), OptionDesc::key(1)];
            let _ = ctx.choose("counter.ack", ContextKey::default(), &opts);
            self.choices_made += 1;
        }

        fn checkpoint(&self, _model: &StateModel<u64>) -> u64 {
            self.max_seen
        }

        fn neighbors(&self) -> Vec<NodeId> {
            vec![NodeId(0), NodeId(1), NodeId(2)]
        }
    }

    fn build() -> Sim<RuntimeNode<CounterSvc>> {
        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        Sim::new(topo, 77, |_| {
            RuntimeNode::new(
                CounterSvc::new(),
                RuntimeConfig::new(Box::new(RandomResolver::new(5)))
                    .controller_every(SimDuration::from_millis(500)),
            )
        })
    }

    #[test]
    fn end_to_end_messages_choices_and_checkpoints() {
        let mut sim = build();
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(30));
        // All nodes converged on the max counter.
        for n in [0u32, 1, 2] {
            assert_eq!(sim.actor(NodeId(n)).service().max_seen, 10, "node {n}");
        }
        // Choices were made and recorded.
        let node1 = sim.actor(NodeId(1));
        assert_eq!(node1.service().choices_made, 10);
        let decisions = decision_spans(&sim, NodeId(1));
        assert_eq!(decisions.len(), 10);
        assert_eq!(decisions[0].attr("choice"), Some("counter.ack"));
        // Controller ran and checkpoints flowed.
        assert!(node1.controller_cycles() > 3);
        let reg = node1.telemetry();
        let sent = reg.counter(keys::CORE_CHECKPOINTS_SENT);
        let received = reg.counter(keys::CORE_CHECKPOINTS_RECEIVED);
        assert!(sent > 0 && received > 0, "sent={sent} received={received}");
        // The state model holds peers' checkpoints.
        assert!(!node1.state_model().is_empty());
    }

    #[test]
    fn passive_latency_measurement_populates_net_model() {
        let mut sim = build();
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(30));
        let node1 = sim.actor(NodeId(1));
        let (lat, conf) = node1
            .net_model()
            .predicted_latency(NodeId(0), sim.now())
            .expect("node 0 was measured");
        // Star with 5 ms spokes: one-way ≈ 10 ms.
        assert!(lat >= SimDuration::from_millis(9), "latency {lat}");
        assert!(lat <= SimDuration::from_millis(20), "latency {lat}");
        assert!(conf > 0.0);
    }

    #[test]
    fn checkpoint_fan_out_counts_are_pinned() {
        // The controller ships each checkpoint through one multicast to its
        // neighbours minus itself; per node, the counts equal those of the
        // per-peer send loop it replaced, and the run's fingerprint too
        // (re-recorded alone when a send's content word became the
        // payload's hash).
        let mut sim = build();
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(30));
        let counts: Vec<(u64, u64, u64)> = (0..3)
            .map(|n| {
                let node = sim.actor(NodeId(n));
                let reg = node.telemetry();
                (
                    node.controller_cycles(),
                    reg.counter(keys::CORE_CHECKPOINTS_SENT),
                    reg.counter(keys::CORE_CHECKPOINTS_RECEIVED),
                )
            })
            .collect();
        assert_eq!(
            (counts, sim.trace().fingerprint()),
            (vec![(59, 118, 118); 3], 5072386732935604999),
            "observed (cycles, sent, received) per node and fingerprint"
        );
    }

    /// A service that does nothing on its own; tests drive its node's
    /// choices through [`in_handler`].
    struct Idle;

    impl Service for Idle {
        type Msg = u8;
        type Checkpoint = u8;
        fn on_message(&mut self, _: &mut ServiceCtx<'_, '_, u8, u8>, _: NodeId, _: u8) {}
        fn checkpoint(&self, _model: &StateModel<u8>) -> u8 {
            0
        }
        fn neighbors(&self) -> Vec<NodeId> {
            Vec::new()
        }
    }

    /// Each decision's options and the peer confidence the runtime
    /// reported just before resolving it.
    type Seen = Rc<RefCell<Vec<(Vec<OptionDesc>, f64)>>>;

    /// Picks the last option and records what it was offered.
    struct Recording {
        seen: Seen,
        confidence: f64,
    }

    impl Resolver for Recording {
        fn observe_health(&mut self, signals: &HealthSignals) {
            self.confidence = signals.min_peer_confidence;
        }

        fn resolve(&mut self, request: &ChoiceRequest<'_>, _: &mut dyn OptionEvaluator) -> usize {
            self.seen
                .borrow_mut()
                .push((request.options.to_vec(), self.confidence));
            request.len() - 1
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    /// Three idle nodes on a star, controller off, resolving through
    /// [`Recording`] into `seen`.
    fn recorded_fleet(seen: &Seen) -> Sim<RuntimeNode<Idle>> {
        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        let seen = seen.clone();
        let mut sim = Sim::new(topo, 5, move |_| {
            let resolver = Recording {
                seen: seen.clone(),
                confidence: f64::NAN,
            };
            RuntimeNode::new(
                Idle,
                RuntimeConfig::new(Box::new(resolver)).controller_every(SimDuration::ZERO),
            )
        });
        sim.start_all();
        sim
    }

    /// Runs `f` on node `n` as if inside one of its handlers.
    fn in_handler<R>(
        sim: &mut Sim<RuntimeNode<Idle>>,
        n: NodeId,
        f: impl FnOnce(&mut ServiceCtx<'_, '_, u8, u8>) -> R,
    ) -> R {
        sim.invoke(n, |node, net| {
            f(&mut ServiceCtx {
                net,
                core: &mut node.core,
            })
        })
    }

    #[test]
    fn only_declared_peer_options_carry_link_confidence() {
        let seen = Seen::default();
        let mut sim = recorded_fleet(&seen);
        // One sample of node 1 at t = 0, then five half-lives of silence.
        in_handler(&mut sim, NodeId(0), |ctx| {
            ctx.core.net_model.observe_latency(
                NodeId(1),
                SimDuration::from_millis(10),
                SimTime::ZERO,
            )
        });
        sim.run_until(SimTime::from_secs(100));
        let stale = sim
            .actor(NodeId(0))
            .net_model()
            .confidence(NodeId(1), sim.now());
        assert!(stale < 0.1, "confidence {stale}");
        in_handler(&mut sim, NodeId(0), |ctx| {
            let keys = [OptionDesc::key(0), OptionDesc::key(1)];
            ctx.choose("test.keys", ContextKey::default(), &keys);
            let peers = [
                OptionDesc::peer(NodeId(0), Vec::new()),
                OptionDesc::peer(NodeId(1), Vec::new()),
            ];
            ctx.choose("test.peers", ContextKey::default(), &peers);
        });
        let confidences: Vec<f64> = seen.borrow().iter().map(|(_, c)| *c).collect();
        assert_eq!(confidences, vec![1.0, stale]);
    }

    #[test]
    fn choose_peer_offers_each_peer_with_its_predicted_latency() {
        let seen = Seen::default();
        let mut sim = recorded_fleet(&seen);
        // Node 0 has measured node 1 and never heard from node 2.
        let chosen = in_handler(&mut sim, NodeId(0), |ctx| {
            let now = ctx.now();
            ctx.core
                .net_model
                .observe_latency(NodeId(1), SimDuration::from_millis(10), now);
            ctx.choose_peer("test.peer", &[NodeId(2), NodeId(0), NodeId(1)])
        });
        let offered = seen.borrow()[0].0.clone();
        assert_eq!(
            offered,
            vec![
                OptionDesc::peer(NodeId(2), vec![40.0]),
                OptionDesc::peer(NodeId(0), vec![0.0]),
                OptionDesc::peer(NodeId(1), vec![10.0]),
            ]
        );
        assert!(offered.iter().all(|o| o.peer));
        assert_eq!(chosen, NodeId(1), "the recorder picks the last option");
    }

    #[test]
    fn steering_advisor_filters_messages() {
        let topo = Topology::star(3, SimDuration::from_millis(5), 10_000_000);
        let mut sim = Sim::new(topo, 78, |_| {
            let advisor: SteeringAdvisor<u64> = Box::new(|input| {
                // Predict doom from node 0 forever (test stub).
                if input.me == NodeId(1) {
                    vec![SteeringAdvice {
                        reason: "test-predicted-violation".into(),
                        from: NodeId(0),
                        action: FilterAction::DropAndBreak,
                    }]
                } else {
                    Vec::new()
                }
            });
            RuntimeNode::new(
                CounterSvc::new(),
                RuntimeConfig::new(Box::new(RandomResolver::new(5)))
                    .controller_every(SimDuration::from_millis(200))
                    .with_advisor(advisor),
            )
        });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(30));
        let node1 = sim.actor(NodeId(1));
        let (dropped, breaks) = node1.steering_stats();
        assert!(dropped > 0, "steering never fired");
        assert!(breaks > 0);
        // Node 2 runs no filter and keeps converging.
        assert_eq!(sim.actor(NodeId(2)).service().max_seen, 10);
        // Node 1 missed at least one increment delivery attempt; its view
        // may still converge via retries of later sends, but dropped > 0
        // proves interposition.
    }

    #[test]
    #[should_panic(expected = "reserved for the runtime")]
    fn controller_tag_is_reserved() {
        let topo = Topology::star(2, SimDuration::from_millis(5), 10_000_000);
        struct Bad;
        impl Service for Bad {
            type Msg = u8;
            type Checkpoint = u8;
            fn on_start(&mut self, ctx: &mut ServiceCtx<'_, '_, Self::Msg, Self::Checkpoint>) {
                ctx.set_timer(SimDuration::from_millis(1), CONTROLLER_TAG);
            }
            fn on_message(&mut self, _: &mut ServiceCtx<'_, '_, u8, u8>, _: NodeId, _: u8) {}
            fn checkpoint(&self, _model: &StateModel<u8>) -> u8 {
                0
            }
            fn neighbors(&self) -> Vec<NodeId> {
                Vec::new()
            }
        }
        let mut sim = Sim::new(topo, 1, |_| {
            RuntimeNode::new(Bad, RuntimeConfig::new(Box::new(RandomResolver::new(1))))
        });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(1));
    }

    #[test]
    fn manual_probe_measures_latency_without_app_traffic() {
        let topo = Topology::star(2, SimDuration::from_millis(15), 10_000_000);
        let mut sim = Sim::new(topo, 81, |_| {
            RuntimeNode::new(
                CounterSvc::new(),
                // Controller disabled: only the probe can produce samples.
                RuntimeConfig::new(Box::new(RandomResolver::new(5)))
                    .controller_every(SimDuration::ZERO),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        assert!(sim
            .actor(NodeId(0))
            .net_model()
            .estimate(NodeId(1))
            .is_none());
        sim.invoke(NodeId(0), |_node, ctx| {
            let now = ctx.now();
            ctx.send(NodeId(1), Envelope::Probe { sent_at: now });
        });
        sim.run_until_quiescent(SimTime::from_secs(5));
        let (lat, conf) = sim
            .actor(NodeId(0))
            .net_model()
            .predicted_latency(NodeId(1), sim.now())
            .expect("probe reply measured");
        // Star with 15 ms spokes: RTT/2 = one-way = 30 ms (plus handshake
        // on the first message, folded into the probe RTT).
        assert!(lat >= SimDuration::from_millis(29), "latency {lat}");
        assert!(conf > 0.5);
    }

    #[test]
    fn conn_break_collapses_model_confidence_through_the_runtime() {
        let topo = Topology::star(2, SimDuration::from_millis(5), 10_000_000);
        let mut sim = Sim::new(topo, 91, |_| {
            RuntimeNode::new(
                CounterSvc::new(),
                // Controller disabled: no checkpoint traffic can refresh
                // node 0's estimate of node 1 behind our back.
                RuntimeConfig::new(Box::new(RandomResolver::new(5)))
                    .controller_every(SimDuration::ZERO),
            )
        });
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        sim.invoke(NodeId(0), |_n, ctx| {
            let now = ctx.now();
            ctx.send(NodeId(1), Envelope::Probe { sent_at: now });
        });
        sim.run_until_quiescent(SimTime::from_secs(2));
        let before = sim
            .actor(NodeId(0))
            .net_model()
            .confidence(NodeId(1), sim.now());
        assert!(before > 0.9, "probe sample missing: {before}");
        sim.invoke(NodeId(0), |_n, ctx| ctx.break_connection(NodeId(1)));
        sim.run_until_quiescent(SimTime::from_secs(4));
        let after = sim
            .actor(NodeId(0))
            .net_model()
            .confidence(NodeId(1), sim.now());
        assert!(
            after < before * 0.1,
            "break did not collapse confidence: {before} -> {after}"
        );
        // The estimate itself survives as the best structural guess.
        assert!(sim
            .actor(NodeId(0))
            .net_model()
            .estimate(NodeId(1))
            .is_some());
    }

    #[test]
    fn telemetry_tracks_decisions_and_fleet_merge() {
        let mut sim = build();
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(30));
        let node1 = sim.actor(NodeId(1));
        let reg = node1.telemetry();
        // Per-node: one decision per received message, all resolved by the
        // random arm with zero modeled (sim-clock) latency.
        assert_eq!(reg.counter(keys::CORE_DECISIONS_TOTAL), 10);
        assert_eq!(reg.counter("core.resolver_arm.random"), 10);
        let sim_lat = reg.hist(keys::CORE_DECISION_LATENCY_SIM_US).unwrap();
        assert_eq!(sim_lat.count(), 10);
        assert_eq!(sim_lat.max(), 0, "random resolver explores no states");
        assert_eq!(
            reg.hist(keys::CORE_DECISION_LATENCY_WALL_NS)
                .unwrap()
                .count(),
            10
        );
        assert_eq!(
            reg.counter(keys::CORE_CONTROLLER_CYCLES),
            node1.controller_cycles()
        );
        // Snapshot is idempotent.
        assert_eq!(reg, node1.telemetry());
        // Fleet aggregate: decisions add across nodes, net.* filled in.
        let fleet = fleet_telemetry(&sim);
        assert_eq!(fleet.counter(keys::CORE_DECISIONS_TOTAL), 20);
        assert!(fleet.counter(keys::NET_MSGS_DELIVERED) > 0);
        assert!(fleet.hist(keys::NET_DELIVERY_LATENCY_US).unwrap().count() > 0);
        // Deterministic halves match across a re-run after masking.
        let mut sim2 = build();
        sim2.start_all();
        sim2.run_until_quiescent(SimTime::from_secs(30));
        assert_eq!(fleet.masked(), fleet_telemetry(&sim2).masked());
    }

    #[test]
    fn decision_log_records_option_keys() {
        let mut sim = build();
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(5));
        let spans = decision_spans(&sim, NodeId(1));
        assert!(!spans.is_empty());
        for s in &spans {
            assert_eq!(s.attr("options"), Some("2"));
            assert_eq!(
                (s.attr("opt0.key"), s.attr("opt1.key")),
                (Some("0"), Some("1"))
            );
            let chosen: usize = s.attr("chosen").unwrap().parse().unwrap();
            assert!(chosen < 2);
            assert_eq!(
                s.attr("chosen_key"),
                None,
                "the chosen key is opt{{chosen}}.key"
            );
        }
    }
}
