//! The per-node flight recorder: a bounded ring of fixed-width span slots.
//!
//! Recording is the hot path — the simulator records a span per send,
//! delivery, timer and drop — so the ring holds 48-byte slots: an id, a
//! kind, at most one parent and a name, nothing on the heap. A name that is
//! text (a [`Label::Static`] or [`Label::Text`]) sits beside the ring in a
//! text ring, one cell per text-bearing slot in slot order, evicted with its
//! slot; timers, connection breaks and inherited names need no cell.
//! Text is produced on the **read** side: [`SpanRef::render`] turns a slot
//! into the public [`Span`] when an artifact tail, `trace explain` or a test
//! asks.
//! Rich spans (decisions, steering, violations: attrs, cost, several
//! parents — a few per seed) ride the same ring boxed, so ordering, the
//! decision pin side-ring and eviction counting treat both alike.
//!
//! A run's rings are hundreds of kilobytes per node, and a sweep runs
//! thousands of fleets. A dropped recorder therefore hands its cleared
//! storage to a per-thread free list of at most [`FREE_RINGS`] entries, and
//! the thread's next recorder takes it at its first push, instead of
//! faulting in fresh pages. Nothing a recorder records or renders depends
//! on where its storage came from.

use crate::span::{Span, SpanId, SpanKind};
use std::cell::RefCell;
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

/// How many dropped recorders' rings a thread keeps for its next ones: one
/// small fleet's worth. A pooled ring keeps the capacity it grew to, so the
/// bound is also what recycling may hold resident per thread.
pub const FREE_RINGS: usize = 16;

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

/// The name a caller gives a slot; [`Label::render`] produces the text. A
/// slot stores only what its label needs: a number, or a text cell.
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

/// The fixed-width record of one plain event: 48 bytes (pinned by a test).
#[derive(Debug, Clone)]
struct Slot {
    id: SpanId,
    /// The causal parent; `seq == 0` (never a real id) means none.
    parent: SpanId,
    /// The timer tag, the peer, or the text cell's number, by `name`.
    word: u64,
    kind: SpanKind,
    name: Name,
}

/// How a [`Slot`] is named: the fixed-width [`Label`] with its payload moved
/// to [`Slot::word`] or, for text, to the recorder's text ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Name {
    /// [`Label::Timer`] of `word`.
    Timer,
    /// [`Label::Conn`] of `word`.
    Conn,
    /// [`Label::Inherit`].
    Inherit,
    /// A [`Label::Static`] or [`Label::Text`] in the text ring; `word` is
    /// its cell number, counting every cell the recorder ever pushed.
    Text,
}

/// No parent: `seq` 0 is never allocated.
const NO_PARENT: SpanId = SpanId {
    at_ns: 0,
    node: 0,
    seq: 0,
};

#[derive(Debug, Clone)]
enum Entry {
    Slot(Slot),
    Rich(Box<Span>),
}

impl Entry {
    fn id(&self) -> SpanId {
        match self {
            Entry::Slot(s) => s.id,
            Entry::Rich(s) => s.id,
        }
    }

    fn kind(&self) -> SpanKind {
        match self {
            Entry::Slot(s) => s.kind,
            Entry::Rich(s) => s.kind,
        }
    }
}

/// A decision rescued from main-ring eviction, with its text cell if it
/// had one.
#[derive(Debug, Clone)]
struct Pinned {
    entry: Entry,
    text: Option<Label>,
}

impl Pinned {
    fn view(&self) -> SpanRef<'_> {
        SpanRef {
            entry: &self.entry,
            text: self.text.as_ref(),
        }
    }
}

/// A borrowed view of one retained span; cheap to copy, renders on demand.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef<'a> {
    entry: &'a Entry,
    /// The slot's text cell, when its name is [`Name::Text`].
    text: Option<&'a Label>,
}

impl<'a> SpanRef<'a> {
    /// Deterministic identity.
    pub fn id(&self) -> SpanId {
        self.entry.id()
    }

    /// Event kind.
    pub fn kind(&self) -> SpanKind {
        self.entry.kind()
    }

    /// Causal parents. Empty = causal root.
    pub fn parents(&self) -> &'a [SpanId] {
        match self.entry {
            Entry::Slot(s) if s.parent.seq == 0 => &[],
            Entry::Slot(s) => std::slice::from_ref(&s.parent),
            Entry::Rich(s) => &s.parents,
        }
    }

    /// The span's name. `fleet` is every node's recorder, indexed by node
    /// id; an inherited name is looked up there (pass `&[]` when there is
    /// nothing to inherit from).
    pub fn name(&self, fleet: &[FlightRecorder]) -> String {
        let named_by = match self.entry {
            Entry::Slot(Slot {
                name: Name::Inherit,
                parent,
                ..
            }) if parent.seq != 0 => find_in(fleet, *parent),
            _ => None,
        };
        named_by.unwrap_or(*self).own_name()
    }

    /// The name as recorded, with an inherited one unresolved.
    fn own_name(&self) -> String {
        let slot = match self.entry {
            Entry::Rich(span) => return span.name.clone(),
            Entry::Slot(slot) => slot,
        };
        match slot.name {
            Name::Timer => Label::Timer(slot.word),
            Name::Conn => Label::Conn(slot.word as u32),
            Name::Inherit => Label::Inherit,
            Name::Text => *self.text.expect("a text slot keeps its cell"),
        }
        .render()
    }

    /// The public [`Span`] this entry stands for (see [`SpanRef::name`] for
    /// `fleet`).
    pub fn render(&self, fleet: &[FlightRecorder]) -> Span {
        match self.entry {
            Entry::Rich(s) => (**s).clone(),
            Entry::Slot(slot) => Span::new(
                slot.id,
                slot.kind,
                self.name(fleet),
                self.parents().to_vec(),
            ),
        }
    }
}

/// Resolves `id` in a fleet of recorders indexed by node id.
pub fn find_in(fleet: &[FlightRecorder], id: SpanId) -> Option<SpanRef<'_>> {
    fleet.get(id.node as usize)?.find(id)
}

/// A recorder's heap storage: what the free list recycles.
#[derive(Debug, Clone, Default)]
struct Rings {
    ring: VecDeque<Entry>,
    /// The labels of `ring`'s [`Name::Text`] slots, in slot order.
    texts: VecDeque<Label>,
    /// Decision spans rescued from main-ring eviction, oldest first. Every
    /// span here is older (in push order) than everything in `ring`.
    pinned: VecDeque<Pinned>,
}

/// Entries (and text cells) new rings start with: growing from empty would
/// reallocate each of the two rings four more times on the way.
const FIRST_ROOM: usize = 64;

thread_local! {
    /// Cleared rings of this thread's dropped recorders, at most
    /// [`FREE_RINGS`].
    static FREE: RefCell<Vec<Rings>> = const { RefCell::new(Vec::new()) };
}

impl Rings {
    /// Storage for the first push of a recorder of `capacity`: the rings a
    /// dropped recorder left on this thread or, when it has none, new ones
    /// with room for [`FIRST_ROOM`] entries and cells.
    fn take(capacity: usize) -> Rings {
        FREE.try_with(|free| free.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_else(|| {
                let room = capacity.min(FIRST_ROOM);
                Rings {
                    ring: VecDeque::with_capacity(room),
                    texts: VecDeque::with_capacity(room),
                    pinned: VecDeque::new(),
                }
            })
    }

    /// Clears the rings and keeps them for this thread's next recorder,
    /// unless they never allocated or the free list is full.
    fn give_back(mut self) {
        if self.ring.capacity() == 0 {
            return;
        }
        self.ring.clear();
        self.texts.clear();
        self.pinned.clear();
        // `try_with`: a recorder can outlive its thread's free list.
        let _ = FREE.try_with(|free| {
            let mut free = free.borrow_mut();
            if free.len() < FREE_RINGS {
                free.push(self);
            }
        });
    }
}

/// A bounded per-node span ring with a pinned decision side-ring.
///
/// Sequence numbers are monotonic for the life of the recorder (they survive
/// crash/restart of the node they describe, because the recorder lives in the
/// simulated world, not in the node), which makes `(node, seq)` a unique key
/// per run. Spans must be pushed in the order their ids were allocated:
/// retained entries then sit in `seq` order and [`FlightRecorder::find`] can
/// search instead of scan. Nothing is allocated until the first push, which
/// takes recycled storage when the thread has some.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    node: u32,
    capacity: usize,
    rings: Rings,
    /// Text cells that left the text ring: a [`Name::Text`] slot's cell sits
    /// at `word - texts_dropped`.
    texts_dropped: u64,
    seq: u32,
    pushed: u64,
    evicted: u64,
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        std::mem::take(&mut self.rings).give_back();
    }
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
            rings: Rings::default(),
            texts_dropped: 0,
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

    /// Evicts (and counts) the oldest entry if full, then appends `entry`
    /// and, for a [`Name::Text`] slot, its label to the text ring.
    #[inline]
    fn push_entry(&mut self, entry: Entry, text: Option<Label>) {
        debug_assert!(
            self.rings
                .ring
                .back()
                .is_none_or(|last| last.id().seq < entry.id().seq),
            "spans must be pushed in id-allocation order"
        );
        if self.rings.ring.capacity() == 0 {
            self.rings = Rings::take(self.capacity);
        }
        if self.rings.ring.len() == self.capacity {
            self.evict_oldest();
        }
        self.rings.ring.push_back(entry);
        if let Some(label) = text {
            self.rings.texts.push_back(label);
        }
        self.pushed += 1;
    }

    /// Drops the main ring's oldest entry, and its text cell — unless it is
    /// a [`SpanKind::Decision`], which is rescued with its cell into the
    /// pinned side-ring (bounded by [`DECISION_PIN_CAPACITY`]). `evicted()`
    /// only counts spans that actually left the recorder.
    fn evict_oldest(&mut self) {
        let Rings {
            ring,
            texts,
            pinned,
        } = &mut self.rings;
        let entry = ring.pop_front().expect("ring is full");
        let text = match &entry {
            Entry::Slot(slot) if slot.name == Name::Text => {
                debug_assert_eq!(slot.word, self.texts_dropped, "text cells in slot order");
                self.texts_dropped += 1;
                texts.pop_front()
            }
            _ => None,
        };
        if entry.kind() != SpanKind::Decision {
            self.evicted += 1;
            return;
        }
        if pinned.len() == DECISION_PIN_CAPACITY {
            pinned.pop_front();
            self.evicted += 1;
        }
        pinned.push_back(Pinned { entry, text });
    }

    /// Push a fully-built span (attrs, cost, any number of parents).
    pub fn push(&mut self, span: Span) {
        self.push_entry(Entry::Rich(Box::new(span)), None);
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
        let (name, word, text) = match label {
            Label::Timer(tag) => (Name::Timer, tag, None),
            Label::Conn(peer) => (Name::Conn, peer.into(), None),
            Label::Inherit => (Name::Inherit, 0, None),
            Label::Static(_) | Label::Text { .. } => {
                // Evicting a cell moves both terms by one: the sum is the
                // number of cells ever pushed.
                let cell = self.texts_dropped + self.rings.texts.len() as u64;
                (Name::Text, cell, Some(label))
            }
        };
        let slot = Slot {
            id,
            parent: parent.unwrap_or(NO_PARENT),
            word,
            kind,
            name,
        };
        self.push_entry(Entry::Slot(slot), text);
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

    /// A main-ring entry with its text cell.
    fn view<'a>(&'a self, entry: &'a Entry) -> SpanRef<'a> {
        let text = match entry {
            Entry::Slot(slot) if slot.name == Name::Text => self
                .rings
                .texts
                .get((slot.word - self.texts_dropped) as usize),
            _ => None,
        };
        SpanRef { entry, text }
    }

    /// The retained window — pinned decisions first (they are older in push
    /// order than everything in the main ring), then the ring, oldest first.
    pub fn spans(&self) -> impl DoubleEndedIterator<Item = SpanRef<'_>> + Clone {
        let pinned = self.rings.pinned.iter().map(Pinned::view);
        pinned.chain(self.rings.ring.iter().map(|e| self.view(e)))
    }

    /// The `index`-th retained span, in [`FlightRecorder::spans`] order.
    pub fn get(&self, index: usize) -> Option<SpanRef<'_>> {
        match index.checked_sub(self.rings.pinned.len()) {
            None => self.rings.pinned.get(index).map(Pinned::view),
            Some(i) => self.rings.ring.get(i).map(|e| self.view(e)),
        }
    }

    /// [`FlightRecorder::get`] without looking up the text cell.
    fn entry(&self, index: usize) -> Option<&Entry> {
        match index.checked_sub(self.rings.pinned.len()) {
            None => self.rings.pinned.get(index).map(|p| &p.entry),
            Some(i) => self.rings.ring.get(i),
        }
    }

    /// Where `id` sits in [`FlightRecorder::spans`] order, if retained.
    /// Retained entries are in `seq` order, so this is an offset guess into
    /// the main ring (exact while no id was allocated without a push)
    /// backed by a binary search — never a scan.
    pub fn index_of(&self, id: SpanId) -> Option<usize> {
        if id.node != self.node {
            return None;
        }
        let seq_at = |i: usize| self.entry(i).map(|e| e.id().seq);
        let pinned = self.rings.pinned.len();
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
        (self.entry(lo)?.id() == id).then_some(lo)
    }

    /// Resolves `id` to its retained span.
    pub fn find(&self, id: SpanId) -> Option<SpanRef<'_>> {
        self.get(self.index_of(id)?)
    }

    /// Number of spans currently retained (main ring + pinned decisions).
    pub fn len(&self) -> usize {
        self.rings.pinned.len() + self.rings.ring.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.rings.pinned.is_empty() && self.rings.ring.is_empty()
    }

    /// Entries and text cells the rings have heap room for. Zero until the
    /// first push.
    pub fn allocated(&self) -> usize {
        self.rings.pinned.capacity() + self.rings.ring.capacity() + self.rings.texts.capacity()
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

    /// Rings on this thread's free list.
    fn free_rings() -> usize {
        FREE.with(|free| free.borrow().len())
    }

    #[test]
    fn a_plain_entry_fits_in_48_bytes() {
        assert!(std::mem::size_of::<Entry>() <= 48);
        assert!(std::mem::size_of::<Slot>() <= 48);
    }

    #[test]
    fn nothing_is_allocated_before_the_first_push() {
        // Warm this thread's free list first: a recorder that never pushes
        // must not take from it either.
        let mut warm = FlightRecorder::new(0);
        warm.record(1, SpanKind::Timer, "t", vec![]);
        drop(warm);
        let free = free_rings();
        assert!(free > 0);
        let mut rec = FlightRecorder::new(0);
        rec.next_id(1);
        assert_eq!(rec.allocated(), 0);
        drop(rec);
        assert_eq!(free_rings(), free, "an empty recorder gives nothing back");
        let mut rec = FlightRecorder::new(0);
        rec.next_id(1);
        assert_eq!(rec.allocated(), 0);
        rec.record(2, SpanKind::Timer, "t", vec![]);
        assert!(rec.allocated() > 0);
        assert_eq!(
            free_rings(),
            free - 1,
            "the first push takes recycled rings"
        );
    }

    #[test]
    fn the_free_list_is_bounded() {
        let fleet: Vec<FlightRecorder> = (0..FREE_RINGS as u32 + 3)
            .map(|node| {
                let mut rec = FlightRecorder::new(node);
                rec.record_slot(1, SpanKind::Start, Label::Static("start"), None);
                rec
            })
            .collect();
        drop(fleet);
        assert_eq!(free_rings(), FREE_RINGS);
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

    /// What [`scan_runs`] saw of one recorder: its counts, where `index_of`
    /// and `find` put every issued id, and every retained span rendered.
    #[derive(Debug, PartialEq)]
    struct Seen {
        len: usize,
        pushed: u64,
        evicted: u64,
        index_of: Vec<Option<usize>>,
        found: Vec<Option<SpanId>>,
        pinned_decisions: usize,
        rendered: Vec<Span>,
    }

    /// Drives recorders of capacity 1, 2, 7 and 64 with one deterministic
    /// mix of eviction, pinned decisions, every label shape and
    /// allocated-but-never-pushed ids, checks `find` against a linear scan,
    /// and returns what each recorder held. The recorders live until the
    /// end, so none of them takes another's storage within one call.
    fn scan_runs() -> Vec<Seen> {
        // A small deterministic generator keeps this crate dependency-free.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Node 9 of a fleet whose other recorders stay empty, so inherited
        // names resolve against it.
        let mut fleets = Vec::new();
        let mut seen = Vec::new();
        for capacity in [1usize, 2, 7, 64] {
            let mut rec = FlightRecorder::with_capacity(9, capacity);
            let mut issued: Vec<SpanId> = Vec::new();
            for at in 0..600u64 {
                let parent = issued.last().copied();
                let id = match next() % 8 {
                    // A gap: an id nobody pushes a span for.
                    0 => rec.next_id(at),
                    1 | 2 => rec.record(at, SpanKind::Decision, format!("d{at}"), vec![]),
                    3 => {
                        let id = rec.next_id(at);
                        rec.push(Span::new(id, SpanKind::Decision, "rich", vec![]));
                        id
                    }
                    4 => rec.record_slot(at, SpanKind::Timer, Label::Timer(at), parent),
                    5 => rec.record_slot(at, SpanKind::Deliver, Label::Inherit, parent),
                    6 => rec.record_slot(at, SpanKind::Drop, Label::Static("loss"), parent),
                    _ => rec.record(at, SpanKind::Send, format!("t{at}"), vec![]),
                };
                issued.push(id);
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

            let mut fleet: Vec<FlightRecorder> = (0..9).map(FlightRecorder::new).collect();
            fleet.push(rec);
            let rec = &fleet[9];
            for span in rec.spans().map(|s| s.render(&fleet)) {
                let at = span.id.at_ns;
                let own = match span.kind {
                    SpanKind::Decision if span.name == "rich" => continue,
                    SpanKind::Decision => format!("d{at}"),
                    SpanKind::Timer => format!("timer:{at}"),
                    SpanKind::Drop => "loss".to_string(),
                    SpanKind::Send => format!("t{at}"),
                    _ => continue,
                };
                assert_eq!(span.name, own, "capacity {capacity}");
            }
            seen.push(Seen {
                len: rec.len(),
                pushed: rec.pushed(),
                evicted: rec.evicted(),
                index_of: issued.iter().map(|id| rec.index_of(*id)).collect(),
                found: issued
                    .iter()
                    .map(|id| rec.find(*id).map(|s| s.id()))
                    .collect(),
                pinned_decisions: rec.rings.pinned.len(),
                rendered: rec.spans().map(|s| s.render(&fleet)).collect(),
            });
            fleets.push(fleet);
        }
        seen
    }

    /// `find` must agree with a linear scan whatever mix of eviction,
    /// pinned decisions and allocated-but-never-pushed ids the recorder saw.
    #[test]
    fn find_agrees_with_a_linear_scan() {
        let seen = scan_runs();
        assert!(seen.iter().all(|s| s.pinned_decisions > 0));
    }

    /// Recorders on recycled rings record, find and render exactly what
    /// recorders on fresh ones do.
    #[test]
    fn recycled_rings_record_what_fresh_ones_do() {
        // A new thread starts with an empty free list.
        let fresh = std::thread::spawn(scan_runs).join().unwrap();
        let first = scan_runs();
        assert!(free_rings() >= 4, "the first pass gave its rings back");
        let second = scan_runs();
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        // The largest ring went back last, and is taken first.
        let mut rec = FlightRecorder::with_capacity(0, 1);
        rec.record(0, SpanKind::Timer, "t", vec![]);
        assert!(rec.allocated() >= 64, "{} entries", rec.allocated());
    }
}
