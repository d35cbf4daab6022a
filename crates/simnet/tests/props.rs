//! Property-based tests of the simulation engine's conservation laws.

use cb_simnet::prelude::*;
use proptest::prelude::*;

/// An actor that relays each message a bounded number of times to random
/// targets — enough churn to exercise the transport from many angles.
struct Relay {
    hops_left: u32,
}

impl Actor for Relay {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        if ctx.id() == NodeId(0) {
            let n = ctx.host_count() as u64;
            let to = NodeId(ctx.rng().gen_below(n) as u32);
            if to != ctx.id() {
                ctx.send(to, 0);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
        if self.hops_left == 0 {
            return;
        }
        self.hops_left -= 1;
        let n = ctx.host_count() as u64;
        let to = NodeId(ctx.rng().gen_below(n) as u32);
        if to != ctx.id() {
            if msg.is_multiple_of(2) {
                ctx.send(to, msg + 1);
            } else {
                ctx.send_unreliable(to, msg + 1);
            }
        }
    }
}

/// An actor that generates no traffic of its own — a clean slate for
/// measurement-oriented properties.
struct Quiet;

impl Actor for Quiet {
    type Msg = u32;
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u32>, _from: NodeId, _msg: u32) {}
}

/// The allocating rendering span names had before labels were fixed-width;
/// kept here only as the reference [`cb_trace::Label::text`] must match.
fn span_name(what: &str) -> String {
    if what.len() <= 48 {
        return what.to_string();
    }
    let mut cut = 48;
    while !what.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}…", &what[..cut])
}

proptest! {
    /// A label's text is byte-for-byte the old span name: whole when short,
    /// cut at 48 bytes — backing up to a char boundary — and suffixed with
    /// `…` when long. The ASCII prefix walks the first multi-byte char
    /// across byte 48.
    #[test]
    fn label_text_renders_the_old_span_name(
        prefix in 0usize..56,
        picks in prop::collection::vec(any::<u8>(), 0..24),
    ) {
        const ALPHABET: [char; 6] = ['x', ' ', 'é', '…', '→', '𝄞'];
        let mut s = "a".repeat(prefix);
        s.extend(picks.iter().map(|p| ALPHABET[*p as usize % ALPHABET.len()]));
        let label = cb_trace::Label::text(&s);
        prop_assert_eq!(label.render(), span_name(&s));
    }
}

/// A payload whose `Debug` writes its text in the pieces it was built
/// from, so the label writer sees every split a formatter could make.
#[derive(Clone, Hash)]
struct Pieces(Vec<String>);

impl std::fmt::Debug for Pieces {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.iter().try_for_each(|piece| f.write_str(piece))
    }
}

impl Actor for Pieces {
    type Msg = Pieces;
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Pieces>, _from: NodeId, _msg: Pieces) {}
}

/// The name of the span node 0's one send of `payload` leaves behind.
fn send_label(payload: Pieces) -> String {
    let topo = Topology::star(2, SimDuration::from_millis(5), 5_000_000);
    let mut sim = Sim::new(topo, 1, |_| Pieces(Vec::new()));
    sim.start_all();
    sim.run_until(SimTime::ZERO);
    sim.invoke(NodeId(0), |_, ctx| ctx.send(NodeId(1), payload));
    let fleet = sim.flight_recorders();
    let send = fleet[0]
        .spans()
        .find(|s| s.kind() == cb_trace::SpanKind::Send)
        .expect("the send keeps a span");
    send.render(fleet).name
}

/// [`send_label`] against the label of the whole text.
fn assert_send_label(pieces: &[&str]) {
    let payload = Pieces(pieces.iter().map(|p| p.to_string()).collect());
    let whole = cb_trace::Label::text(&format!("{payload:?}")).render();
    assert_eq!(send_label(payload), whole, "{pieces:?}");
}

#[test]
fn send_label_cuts_inside_at_and_across_pieces() {
    let a = |n: usize| "a".repeat(n);
    // Inside a piece, and inside the first of several.
    assert_send_label(&[&a(40), &a(20)]);
    assert_send_label(&[&a(60), "b", "c"]);
    // At a piece boundary: exactly full, then one more byte.
    assert_send_label(&[&a(48)]);
    assert_send_label(&[&a(48), ""]);
    assert_send_label(&[&a(48), "b"]);
    assert_send_label(&[&a(24), &a(24), "b"]);
    // A multi-byte char across byte 48, whole or as its own piece.
    assert_send_label(&[&a(47), "é"]);
    assert_send_label(&[&a(46), "xé"]);
    assert_send_label(&[&a(45), "𝄞b"]);
    assert_send_label(&[&a(46), "é", "b"]);
}

proptest! {
    /// A send's label is the label of the payload's whole `Debug` text,
    /// however the formatter splits that text into writes.
    #[test]
    fn send_label_is_the_label_of_the_whole_debug_text(
        prefix in 0usize..56,
        picks in prop::collection::vec(any::<u8>(), 0..24),
        splits in prop::collection::vec(0usize..80, 0..6),
    ) {
        const ALPHABET: [char; 6] = ['x', ' ', 'é', '…', '→', '𝄞'];
        let mut chars: Vec<char> = "a".repeat(prefix).chars().collect();
        chars.extend(picks.iter().map(|p| ALPHABET[*p as usize % ALPHABET.len()]));
        let mut cuts: Vec<usize> = splits.iter().map(|c| c % (chars.len() + 1)).collect();
        cuts.push(chars.len());
        cuts.sort_unstable();
        let mut from = 0;
        let pieces: Vec<String> = cuts
            .into_iter()
            .map(|to| {
                let piece = chars[from..to].iter().collect();
                from = to;
                piece
            })
            .collect();
        let whole = cb_trace::Label::text(&pieces.concat()).render();
        prop_assert_eq!(send_label(Pieces(pieces)), whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Delivered + dropped never exceeds sent, whatever the topology and
    /// traffic pattern do.
    #[test]
    fn message_conservation(seed in any::<u64>(), n in 2usize..10, hops in 0u32..20) {
        let topo = Topology::star(n, SimDuration::from_millis(5), 5_000_000);
        let mut sim = Sim::new(topo, seed, move |_| Relay { hops_left: hops });
        sim.start_all();
        sim.run_until_quiescent(SimTime::from_secs(60));
        let s = sim.summary();
        prop_assert!(s.msgs_delivered + s.msgs_dropped <= s.msgs_sent,
            "delivered {} + dropped {} > sent {}", s.msgs_delivered, s.msgs_dropped, s.msgs_sent);
    }

    /// One-way delivery latency is never below the path propagation delay.
    #[test]
    fn latency_floor_is_propagation(seed in any::<u64>(), spoke_ms in 1u64..50) {
        let topo = Topology::star(3, SimDuration::from_millis(spoke_ms), 50_000_000);
        let mut sim = Sim::new(topo, seed, |_| Quiet);
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        sim.invoke(NodeId(0), |_, ctx| ctx.send_unreliable(NodeId(1), 9));
        sim.run_until_quiescent(SimTime::from_secs(10));
        let lat = &sim.metrics(NodeId(1)).delivery_latency;
        prop_assert_eq!(lat.count(), 1);
        prop_assert!(lat.min() >= spoke_ms * 2 * 1000, // micros
            "latency {}us under propagation {}ms", lat.min(), spoke_ms * 2);
    }

    /// Blocked pairs never deliver; healing restores delivery.
    #[test]
    fn partitions_are_absolute(seed in any::<u64>()) {
        let topo = Topology::star(4, SimDuration::from_millis(5), 5_000_000);
        let mut sim = Sim::new(topo, seed, |_| Quiet);
        sim.start_all();
        sim.run_until(SimTime::ZERO);
        sim.partition(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        for _ in 0..5 {
            sim.invoke(NodeId(0), |_, ctx| ctx.send_unreliable(NodeId(2), 1));
        }
        sim.run_until_quiescent(SimTime::from_secs(10));
        prop_assert_eq!(sim.metrics(NodeId(2)).msgs_delivered.get(), 0);
        sim.heal_all();
        sim.invoke(NodeId(0), |_, ctx| ctx.send_unreliable(NodeId(2), 1));
        sim.run_until_quiescent(SimTime::from_secs(20));
        prop_assert_eq!(sim.metrics(NodeId(2)).msgs_delivered.get(), 1);
    }

    /// A crashed node neither receives nor retains state after restart.
    #[test]
    fn crash_restart_resets(seed in any::<u64>(), crash_ms in 1u64..1000) {
        let topo = Topology::star(2, SimDuration::from_millis(5), 5_000_000);
        let mut sim = Sim::new(topo, seed, |_| Relay { hops_left: 3 });
        sim.start_all();
        sim.schedule_crash(NodeId(1), SimTime::from_millis(crash_ms));
        sim.schedule_restart(NodeId(1), SimTime::from_millis(crash_ms) + SimDuration::from_secs(1));
        sim.run_until_quiescent(SimTime::from_secs(30));
        prop_assert!(sim.is_up(NodeId(1)));
        // Fresh actor state from the factory.
        prop_assert_eq!(sim.actor(NodeId(1)).hops_left, 3);
    }

    /// Event processing is monotone in simulated time.
    #[test]
    fn clock_never_goes_backward(seed in any::<u64>(), n in 2usize..8) {
        let topo = Topology::star(n, SimDuration::from_millis(3), 2_000_000);
        let mut sim = Sim::new(topo, seed, |_| Relay { hops_left: 10 });
        sim.start_all();
        let mut last = SimTime::ZERO;
        while let Some(at) = sim.step() {
            prop_assert!(at >= last, "time went backward: {at:?} < {last:?}");
            last = at;
            if sim.events_processed() > 2000 {
                break;
            }
        }
    }
}

/// Logs every delivery as `(sender, message id, arrival time)`.
#[derive(Default)]
struct Logger {
    got: Vec<(NodeId, u32, SimTime)>,
}

impl Actor for Logger {
    type Msg = u32;
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
        self.got.push((from, msg, ctx.now()));
    }
}

/// What the script driver remembers of one reliable send.
struct Sent {
    from: NodeId,
    to: NodeId,
    at: SimTime,
    /// Position in the script, which orders same-instant sends and breaks.
    step: usize,
    /// The transport gave up inside the send (retries exhausted).
    rejected: bool,
    /// Sent loss-free as the first message of its flow since the pair's
    /// last break (or ever).
    fresh: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The link table against a scripted schedule on a 3-node star: sends
    /// in both directions of every pair, explicit connection breaks, waits
    /// and a loss regime switched on and off (retransmission delay is what
    /// pushes a flow's in-order floor past the priced arrival).
    #[test]
    fn link_table_breaks_reset_floors_and_drop_stale_segments(
        seed in any::<u64>(),
        script in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        let spoke = SimDuration::from_millis(20);
        let mut sim = Sim::new(Topology::star(3, spoke, 10_000_000), seed, |_| Logger::default());
        sim.start_all();
        let pair = |a: NodeId, b: NodeId| (a.min(b), a.max(b));
        let broken_total = |sim: &Sim<Logger>| sim.summary().conns_broken;
        let mut sent: Vec<Sent> = Vec::new();
        // (pair, time, script step) of every break, explicit or not.
        let mut breaks: Vec<((NodeId, NodeId), SimTime, usize)> = Vec::new();
        let mut used = [[false; 3]; 3];
        let mut lossy = false;
        for (step, &op) in script.iter().enumerate() {
            let a = NodeId((op >> 3) % 3);
            let b = NodeId((a.0 + 1 + (op >> 5) % 2) % 3);
            match op % 8 {
                0..=3 => {
                    let before = broken_total(&sim);
                    let id = sent.len() as u32;
                    sim.invoke(a, |_, ctx| ctx.send(b, id));
                    let rejected = broken_total(&sim) != before;
                    if rejected {
                        breaks.push((pair(a, b), sim.now(), step));
                        used[a.index()][b.index()] = false;
                        used[b.index()][a.index()] = false;
                    }
                    let fresh = !lossy && !rejected && !used[a.index()][b.index()];
                    used[a.index()][b.index()] |= !rejected;
                    sent.push(Sent { from: a, to: b, at: sim.now(), step, rejected, fresh });
                }
                4 => {
                    sim.invoke(a, |_, ctx| ctx.break_connection(b));
                    breaks.push((pair(a, b), sim.now(), step));
                    used[a.index()][b.index()] = false;
                    used[b.index()][a.index()] = false;
                }
                5 => {
                    sim.run_for(SimDuration::from_millis((op >> 3) as u64 % 80));
                }
                6 if !lossy => {
                    sim.topology_mut().add_loss_all(0.5);
                    lossy = true;
                }
                7 if lossy => {
                    sim.topology_mut().add_loss_all(-0.5);
                    lossy = false;
                }
                _ => {}
            }
        }
        sim.run_until_quiescent(SimTime::from_secs(600));

        let mut arrival: Vec<Option<SimTime>> = vec![None; sent.len()];
        for node in sim.topology().hosts() {
            // In order per flow, across break → reconnect: ids on one flow
            // only ever rise at the receiver.
            let mut last = [None; 3];
            for &(from, id, at) in &sim.actor(node).got {
                prop_assert!(last[from.index()] < Some(id), "{from}->{node} reordered at id {id}");
                last[from.index()] = Some(id);
                prop_assert!(arrival[id as usize].replace(at).is_none(), "id {id} delivered twice");
            }
        }
        let mut stale = 0;
        for (m, arrived) in sent.iter().zip(&arrival) {
            let broken_after_send = |until: SimTime| {
                breaks.iter().any(|&(p, at, step)| {
                    p == pair(m.from, m.to) && step > m.step && at < until
                })
            };
            match *arrived {
                Some(at) => {
                    prop_assert!(!m.rejected, "a rejected send was delivered");
                    // A segment of a broken connection never arrives.
                    prop_assert!(!broken_after_send(at), "{}->{} sent {} survived a break", m.from, m.to, m.at);
                    if m.fresh {
                        // Handshake + propagation + every access queue it
                        // could wait in; any floor a lossy predecessor left
                        // behind is at least two more path latencies out.
                        let bound = m.at + spoke * 2 * 3 + SimDuration::from_millis(sent.len() as u64);
                        prop_assert!(at <= bound, "{}->{} sent {} arrived {at}: held behind a pre-break floor", m.from, m.to, m.at);
                    }
                }
                None if m.rejected => {}
                None => {
                    prop_assert!(broken_after_send(SimTime::MAX), "{}->{} sent {} vanished without a break", m.from, m.to, m.at);
                    stale += 1;
                }
            }
        }
        // Each of them was dropped at its receiver, with the reason.
        let fleet = sim.flight_recorders();
        let dropped = fleet
            .iter()
            .flat_map(|r| r.spans())
            .filter(|s| s.kind() == SpanKind::Drop && s.name(fleet) == "conn-broken")
            .count();
        prop_assert_eq!(dropped, stale);
    }
}
