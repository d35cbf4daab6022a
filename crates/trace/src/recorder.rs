//! The per-node flight recorder: a bounded ring of fixed-width span slots.
//!
//! Recording is the hot path — the simulator records a span per send,
//! delivery, timer and drop — so the ring holds fixed-width slots: an id, a
//! kind, at most one parent and a [`Label`], all inline, nothing on the heap.
//! Text is produced on the **read** side: [`SpanRef::render`] turns a slot
//! into the public [`Span`] when an artifact tail, `trace explain` or a test
//! asks.
//! Rich spans (decisions, steering, violations: attrs, cost, several
//! parents — a few per seed) ride the same ring boxed, so ordering, the
//! decision pin side-ring and eviction counting treat both alike.

use crate::span::{Span, SpanId, SpanKind};
use std::collections::VecDeque;
use std::fmt::{self, Write};

/// Default ring capacity, in spans. Bounded so long runs cannot grow memory
/// without limit; eviction is **counted** (never silent) so consumers can
/// tell when a blame chain may have lost its tail.
pub const DEFAULT_CAPACITY: usize = 4096;

/// How many [`SpanKind::Decision`] spans survive main-ring eviction. When a
/// decision would fall off the ring it is *rescued* into a pinned side-ring
/// of this capacity instead of being dropped — protocols that decide early
/// and then settle into periodic timer churn would otherwise evict every
/// decision long before an oracle fires, leaving `blame` nothing to reach.
pub const DECISION_PIN_CAPACITY: usize = 64;

/// Payload text longer than this many bytes is cut (on a char boundary) and
/// suffixed with `…`, so a [`Label::Text`] never exceeds [`TEXT_BYTES`].
pub const TEXT_CUT: usize = 48;

/// Inline byte budget of a [`Label::Text`]: [`TEXT_CUT`] plus the ellipsis.
pub const TEXT_BYTES: usize = TEXT_CUT + ELLIPSIS.len();

const ELLIPSIS: &str = "…";

/// What a [`Label::Inherit`] span is named when the span it inherits from
/// is no longer retained (the send fell off the sender's ring before the
/// delivery was exported). Fixed text, so exports stay deterministic.
pub const INHERIT_EVICTED: &str = "<send evicted>";

/// The fixed-width name of a slot; [`Label::render`] produces the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// A fixed name (`"start"`, `"crash"`, drop reasons).
    Static(&'static str),
    /// A timer firing with this application tag; renders `timer:{tag}`.
    Timer(u64),
    /// A connection break with this peer; renders `conn:{peer}`.
    Conn(u32),
    /// Inline text, already cut to [`TEXT_BYTES`] by [`Label::text`].
    Text {
        /// Bytes of `bytes` in use.
        len: u8,
        /// UTF-8, valid over `..len`.
        bytes: [u8; TEXT_BYTES],
    },
    /// Named after the span's parent (a delivery names whatever its send
    /// rendered). Resolved against the parent's recorder on read.
    Inherit,
}

impl Label {
    /// Inline copy of `s`, cut at [`TEXT_CUT`] bytes on a char boundary and
    /// suffixed with `…` when longer.
    pub fn text(s: &str) -> Label {
        let mut cut = Cut::new();
        let _ = cut.write_str(s);
        cut.label()
    }

    /// [`Label::text`] of `value`'s `Debug` text, formatted only as far as
    /// the label keeps it: once the text runs past [`TEXT_CUT`] bytes the
    /// writer refuses, and a `derive(Debug)` formatter skips what is left.
    pub fn debug(value: &dyn fmt::Debug) -> Label {
        let mut cut = Cut::new();
        let _ = write!(cut, "{value:?}");
        cut.label()
    }

    /// The label's text. [`Label::Inherit`] has none of its own and renders
    /// [`INHERIT_EVICTED`]; [`SpanRef::render`] resolves it first.
    pub fn render(&self) -> String {
        match self {
            Label::Static(s) => (*s).to_string(),
            Label::Timer(tag) => format!("timer:{tag}"),
            Label::Conn(peer) => format!("conn:{peer}"),
            Label::Text { len, bytes } => std::str::from_utf8(&bytes[..*len as usize])
                .expect("Label::text copies whole chars")
                .to_string(),
            Label::Inherit => INHERIT_EVICTED.to_string(),
        }
    }
}

/// The writer behind [`Label::text`] and [`Label::debug`]: keeps the first
/// [`TEXT_CUT`] bytes written to it and, once more arrive, cuts back to a
/// char boundary, appends `…` and fails every write from then on.
struct Cut {
    len: usize,
    bytes: [u8; TEXT_BYTES],
    full: bool,
}

impl Cut {
    fn new() -> Cut {
        Cut {
            len: 0,
            bytes: [0; TEXT_BYTES],
            full: false,
        }
    }

    fn label(&self) -> Label {
        Label::Text {
            len: self.len as u8,
            bytes: self.bytes,
        }
    }
}

impl fmt::Write for Cut {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.full {
            return Err(fmt::Error);
        }
        let room = TEXT_CUT - self.len;
        if s.len() <= room {
            self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
            self.len += s.len();
            return Ok(());
        }
        // Every earlier piece ended on a char boundary, so the last one at
        // or before the cut lies inside this piece.
        let mut keep = room;
        while !s.is_char_boundary(keep) {
            keep -= 1;
        }
        let end = self.len + keep;
        self.bytes[self.len..end].copy_from_slice(&s.as_bytes()[..keep]);
        self.bytes[end..end + ELLIPSIS.len()].copy_from_slice(ELLIPSIS.as_bytes());
        self.len = end + ELLIPSIS.len();
        self.full = true;
        Err(fmt::Error)
    }
}

/// The fixed-width record of one plain event.
#[derive(Debug, Clone)]
struct Slot {
    id: SpanId,
    kind: SpanKind,
    parent: Option<SpanId>,
    label: Label,
}

#[derive(Debug, Clone)]
enum Entry {
    Slot(Slot),
    Rich(Box<Span>),
}

/// A borrowed view of one retained span; cheap to copy, renders on demand.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef<'a>(&'a Entry);

impl<'a> SpanRef<'a> {
    /// Deterministic identity.
    pub fn id(&self) -> SpanId {
        match self.0 {
            Entry::Slot(s) => s.id,
            Entry::Rich(s) => s.id,
        }
    }

    /// Event kind.
    pub fn kind(&self) -> SpanKind {
        match self.0 {
            Entry::Slot(s) => s.kind,
            Entry::Rich(s) => s.kind,
        }
    }

    /// Causal parents. Empty = causal root.
    pub fn parents(&self) -> &'a [SpanId] {
        match self.0 {
            Entry::Slot(s) => s.parent.as_slice(),
            Entry::Rich(s) => &s.parents,
        }
    }

    /// The span's name. `fleet` is every node's recorder, indexed by node
    /// id; an inherited name is looked up there (pass `&[]` when there is
    /// nothing to inherit from).
    pub fn name(&self, fleet: &[FlightRecorder]) -> String {
        let own = |entry: &Entry| match entry {
            Entry::Rich(s) => s.name.clone(),
            Entry::Slot(s) => s.label.render(),
        };
        let named_by = match self.0 {
            Entry::Slot(Slot {
                label: Label::Inherit,
                parent: Some(parent),
                ..
            }) => find_in(fleet, *parent),
            _ => None,
        };
        own(named_by.unwrap_or(*self).0)
    }

    /// The public [`Span`] this entry stands for (see [`SpanRef::name`] for
    /// `fleet`).
    pub fn render(&self, fleet: &[FlightRecorder]) -> Span {
        match self.0 {
            Entry::Rich(s) => (**s).clone(),
            Entry::Slot(slot) => Span::new(
                slot.id,
                slot.kind,
                self.name(fleet),
                slot.parent.into_iter().collect(),
            ),
        }
    }
}

/// Resolves `id` in a fleet of recorders indexed by node id.
pub fn find_in(fleet: &[FlightRecorder], id: SpanId) -> Option<SpanRef<'_>> {
    fleet.get(id.node as usize)?.find(id)
}

/// A bounded per-node span ring with a pinned decision side-ring.
///
/// Sequence numbers are monotonic for the life of the recorder (they survive
/// crash/restart of the node they describe, because the recorder lives in the
/// simulated world, not in the node), which makes `(node, seq)` a unique key
/// per run. Spans must be pushed in the order their ids were allocated:
/// retained entries then sit in `seq` order and [`FlightRecorder::find`] can
/// search instead of scan. Nothing is allocated until the first push.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    node: u32,
    capacity: usize,
    ring: VecDeque<Entry>,
    /// Decision spans rescued from main-ring eviction, oldest first. Every
    /// span here is older (in push order) than everything in `ring`.
    pinned: VecDeque<Entry>,
    seq: u32,
    pushed: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// New recorder for `node` with [`DEFAULT_CAPACITY`].
    pub fn new(node: u32) -> Self {
        Self::with_capacity(node, DEFAULT_CAPACITY)
    }

    /// New recorder with an explicit ring capacity (min 1).
    pub fn with_capacity(node: u32, capacity: usize) -> Self {
        FlightRecorder {
            node,
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            pinned: VecDeque::new(),
            seq: 0,
            pushed: 0,
            evicted: 0,
        }
    }

    /// The node this recorder belongs to.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Allocate the next deterministic span id at simulated time `at_ns`.
    pub fn next_id(&mut self, at_ns: u64) -> SpanId {
        self.seq += 1;
        SpanId {
            at_ns,
            node: self.node,
            seq: self.seq,
        }
    }

    /// Evicts (and counts) the oldest entry if full, then appends.
    #[inline]
    fn push_entry(&mut self, entry: Entry) {
        debug_assert!(
            self.ring
                .back()
                .is_none_or(|last| SpanRef(last).id().seq < SpanRef(&entry).id().seq),
            "spans must be pushed in id-allocation order"
        );
        if self.ring.len() == self.capacity {
            self.evict_oldest();
        }
        self.ring.push_back(entry);
        self.pushed += 1;
    }

    /// Drops the main ring's oldest entry — unless it is a
    /// [`SpanKind::Decision`], which is rescued into the pinned side-ring
    /// (bounded by [`DECISION_PIN_CAPACITY`]). `evicted()` only counts spans
    /// that actually left the recorder.
    fn evict_oldest(&mut self) {
        let oldest = self.ring.front().expect("ring is full");
        if SpanRef(oldest).kind() != SpanKind::Decision {
            self.ring.pop_front();
            self.evicted += 1;
            return;
        }
        if self.pinned.len() == DECISION_PIN_CAPACITY {
            self.pinned.pop_front();
            self.evicted += 1;
        }
        let decision = self.ring.pop_front().expect("ring is full");
        self.pinned.push_back(decision);
    }

    /// Push a fully-built span (attrs, cost, any number of parents).
    pub fn push(&mut self, span: Span) {
        self.push_entry(Entry::Rich(Box::new(span)));
    }

    /// Allocate an id and record a fixed-width span in one step: no text is
    /// rendered and nothing is allocated. Returns the new span's id for use
    /// as a causal parent downstream.
    #[inline]
    pub fn record_slot(
        &mut self,
        at_ns: u64,
        kind: SpanKind,
        label: Label,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = self.next_id(at_ns);
        self.push_entry(Entry::Slot(Slot {
            id,
            kind,
            parent,
            label,
        }));
        id
    }

    /// Convenience: allocate an id and record a costless named span in one
    /// step. Takes the fixed-width path whenever the span fits a slot (at
    /// most one parent, a name of at most [`TEXT_CUT`] bytes).
    pub fn record(
        &mut self,
        at_ns: u64,
        kind: SpanKind,
        name: impl AsRef<str>,
        parents: Vec<SpanId>,
    ) -> SpanId {
        let name = name.as_ref();
        if parents.len() <= 1 && name.len() <= TEXT_CUT {
            return self.record_slot(at_ns, kind, Label::text(name), parents.first().copied());
        }
        let id = self.next_id(at_ns);
        self.push(Span::new(id, kind, name, parents));
        id
    }

    /// The retained window — pinned decisions first (they are older in push
    /// order than everything in the main ring), then the ring, oldest first.
    pub fn spans(&self) -> impl DoubleEndedIterator<Item = SpanRef<'_>> + Clone {
        self.pinned.iter().chain(self.ring.iter()).map(SpanRef)
    }

    /// The `index`-th retained span, in [`FlightRecorder::spans`] order.
    pub fn get(&self, index: usize) -> Option<SpanRef<'_>> {
        match index.checked_sub(self.pinned.len()) {
            None => self.pinned.get(index),
            Some(i) => self.ring.get(i),
        }
        .map(SpanRef)
    }

    /// Where `id` sits in [`FlightRecorder::spans`] order, if retained.
    /// Retained entries are in `seq` order, so this is an offset guess into
    /// the main ring (exact while no id was allocated without a push)
    /// backed by a binary search — never a scan.
    pub fn index_of(&self, id: SpanId) -> Option<usize> {
        if id.node != self.node {
            return None;
        }
        let seq_at = |i: usize| self.get(i).map(|s| s.id().seq);
        let pinned = self.pinned.len();
        // Older than the main ring: search the pins. Otherwise the span sits
        // at the guess or, if ids were skipped, somewhere before it.
        let (mut lo, mut hi) = match seq_at(pinned) {
            Some(first) if first <= id.seq => {
                let guess = pinned + (id.seq - first) as usize;
                if seq_at(guess) == Some(id.seq) {
                    (guess, guess)
                } else {
                    (pinned, guess.min(self.len()))
                }
            }
            _ => (0, pinned),
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if seq_at(mid)? < id.seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // `(node, seq)` is the key; a stale id from another run fails here.
        (self.get(lo)?.id() == id).then_some(lo)
    }

    /// Resolves `id` to its retained span.
    pub fn find(&self, id: SpanId) -> Option<SpanRef<'_>> {
        self.get(self.index_of(id)?)
    }

    /// Number of spans currently retained (main ring + pinned decisions).
    pub fn len(&self) -> usize {
        self.pinned.len() + self.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty() && self.ring.is_empty()
    }

    /// Entries the rings have heap room for. Zero until the first push.
    pub fn allocated(&self) -> usize {
        self.pinned.capacity() + self.ring.capacity()
    }

    /// Total spans ever pushed (including evicted ones).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Spans evicted from the ring to respect the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_is_counted_and_bounded() {
        let mut rec = FlightRecorder::with_capacity(3, 4);
        for i in 0..10u64 {
            rec.record(i, SpanKind::Send, format!("m{i}"), vec![]);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.pushed(), 10);
        assert_eq!(rec.evicted(), 6);
        // Oldest retained is the 7th push (seq 7).
        assert_eq!(rec.spans().next().unwrap().id().seq, 7);
    }

    #[test]
    fn seq_is_monotonic_and_one_based() {
        let mut rec = FlightRecorder::new(1);
        let a = rec.next_id(10);
        let b = rec.next_id(10);
        assert_eq!(a.seq, 1);
        assert_eq!(b.seq, 2);
        assert_ne!(a.compact(), 0);
    }

    #[test]
    fn evicted_decisions_are_pinned_not_dropped() {
        let mut rec = FlightRecorder::with_capacity(5, 4);
        rec.record(0, SpanKind::Decision, "d1", vec![]);
        for i in 1..10u64 {
            rec.record(i, SpanKind::Timer, "t", vec![]);
        }
        // The decision fell off the 4-slot ring but survives, pinned.
        assert_eq!(rec.len(), 5);
        let kinds: Vec<SpanKind> = rec.spans().map(|s| s.kind()).collect();
        assert_eq!(kinds[0], SpanKind::Decision);
        assert!(kinds[1..].iter().all(|k| *k == SpanKind::Timer));
        // Only the 5 dropped timers count as evicted.
        assert_eq!(rec.evicted(), 5);
        assert_eq!(rec.pushed(), 10);

        // The pinned ring itself is bounded: overflow there counts.
        let mut rec = FlightRecorder::with_capacity(6, 1);
        for i in 0..(DECISION_PIN_CAPACITY as u64 + 3) {
            rec.record(i, SpanKind::Decision, "d", vec![]);
        }
        assert_eq!(rec.len(), DECISION_PIN_CAPACITY + 1);
        assert_eq!(rec.evicted(), 2);
    }

    #[test]
    fn nothing_is_allocated_before_the_first_push() {
        let mut rec = FlightRecorder::new(0);
        rec.next_id(1);
        assert_eq!(rec.allocated(), 0);
        rec.record(2, SpanKind::Timer, "t", vec![]);
        assert!(rec.allocated() > 0);
    }

    #[test]
    fn slots_and_rich_spans_render_to_the_same_public_span() {
        let mut rec = FlightRecorder::new(0);
        let root = rec.record_slot(5, SpanKind::Start, Label::Static("start"), None);
        let timer = rec.record_slot(9, SpanKind::Timer, Label::Timer(7), Some(root));
        let conn = rec.record_slot(9, SpanKind::ConnBreak, Label::Conn(3), Some(timer));
        let long = "x".repeat(TEXT_CUT + 1);
        let rich = rec.record(11, SpanKind::Send, &long, vec![root, timer]);
        let fleet = [rec];
        let spans: Vec<Span> = fleet[0].spans().map(|s| s.render(&fleet)).collect();
        assert_eq!(
            spans,
            vec![
                Span::new(root, SpanKind::Start, "start", vec![]),
                Span::new(timer, SpanKind::Timer, "timer:7", vec![root]),
                Span::new(conn, SpanKind::ConnBreak, "conn:3", vec![timer]),
                // Too long / too many parents for a slot: kept whole.
                Span::new(rich, SpanKind::Send, long, vec![root, timer]),
            ]
        );
    }

    #[test]
    fn inherit_names_the_parent_across_recorders_or_the_placeholder() {
        let mut sender = FlightRecorder::with_capacity(0, 2);
        let mut receiver = FlightRecorder::new(1);
        let send = sender.record_slot(1, SpanKind::Send, Label::text("Ping(7)"), None);
        let deliver = receiver.record_slot(4, SpanKind::Deliver, Label::Inherit, Some(send));
        let mut fleet = [sender, receiver];
        let got = find_in(&fleet, deliver).unwrap().render(&fleet);
        assert_eq!(
            got,
            Span::new(deliver, SpanKind::Deliver, "Ping(7)", vec![send])
        );
        // Two more sends push the first off the sender's 2-slot ring.
        for at in 2..4 {
            fleet[0].record_slot(at, SpanKind::Send, Label::text("Ping(8)"), None);
        }
        assert!(find_in(&fleet, send).is_none());
        let got = find_in(&fleet, deliver).unwrap().render(&fleet);
        assert_eq!(got.name, INHERIT_EVICTED);
        assert_eq!(got.parents, vec![send]);
    }

    /// `find` must agree with a linear scan whatever mix of eviction,
    /// pinned decisions and allocated-but-never-pushed ids the recorder saw.
    #[test]
    fn find_agrees_with_a_linear_scan() {
        // A small deterministic generator keeps this crate dependency-free.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for capacity in [1usize, 2, 7, 64] {
            let mut rec = FlightRecorder::with_capacity(9, capacity);
            let mut issued: Vec<SpanId> = Vec::new();
            for at in 0..600u64 {
                match next() % 8 {
                    // A gap: an id nobody pushes a span for.
                    0 => issued.push(rec.next_id(at)),
                    1 | 2 => issued.push(rec.record(at, SpanKind::Decision, "d", vec![])),
                    3 => {
                        let id = rec.next_id(at);
                        rec.push(Span::new(id, SpanKind::Decision, "rich", vec![]));
                        issued.push(id);
                    }
                    _ => issued.push(rec.record(at, SpanKind::Timer, "t", vec![])),
                }
            }
            assert!(rec.evicted() > 0 && rec.len() > capacity.min(DECISION_PIN_CAPACITY));
            for id in &issued {
                let scan = rec.spans().position(|s| s.id() == *id);
                assert_eq!(rec.index_of(*id), scan, "capacity {capacity}, {id}");
                assert_eq!(rec.find(*id).map(|s| s.id()), scan.map(|_| *id));
            }
            // Right (node, seq), wrong time or node: not this run's span.
            let held = rec.spans().next().unwrap().id();
            assert!(rec
                .find(SpanId {
                    at_ns: held.at_ns + 1,
                    ..held
                })
                .is_none());
            assert!(rec.find(SpanId { node: 8, ..held }).is_none());
            assert!(rec.find(SpanId { seq: 0, ..held }).is_none());
        }
    }
}
