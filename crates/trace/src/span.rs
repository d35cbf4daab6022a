//! Span identity and payload types.

use std::fmt;
use std::str::FromStr;

/// Deterministic identity of a span.
///
/// `at_ns` is *simulated* time (nanoseconds since sim start), `node` the
/// recording node's id (`u32::MAX` is reserved for harness-synthesised spans
/// such as oracle violations), and `seq` a per-node monotonic counter
/// starting at 1. Because the simulator's event order is a pure function of
/// `(scenario, seed, plan)`, so is every `SpanId` — two replays of the same
/// seed assign identical ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId {
    /// Simulated time the span was opened, in nanoseconds.
    pub at_ns: u64,
    /// Recording node id. `u32::MAX` = synthesised by the harness.
    pub node: u32,
    /// Per-node monotonic sequence number (1-based; 0 never occurs).
    pub seq: u32,
}

impl SpanId {
    /// Pack `(node, seq)` into a single `u64` for embedding in foreign event
    /// types (the simnet run fingerprint hashes this). `0` means "no cause":
    /// `seq` is 1-based so a real id never packs to zero.
    pub fn compact(&self) -> u64 {
        ((self.node as u64) << 32) | self.seq as u64
    }

    /// Whether `compact` refers to this id (time is not part of the packed
    /// form; `(node, seq)` is unique per run).
    pub fn matches_compact(&self, compact: u64) -> bool {
        self.compact() == compact
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.n{}.s{}", self.at_ns, self.node, self.seq)
    }
}

impl FromStr for SpanId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || format!("invalid span id `{s}` (expected tNNN.nNNN.sNNN)");
        let rest = s.strip_prefix('t').ok_or_else(err)?;
        let (at, rest) = rest.split_once(".n").ok_or_else(err)?;
        let (node, seq) = rest.split_once(".s").ok_or_else(err)?;
        Ok(SpanId {
            at_ns: at.parse().map_err(|_| err())?,
            node: node.parse().map_err(|_| err())?,
            seq: seq.parse().map_err(|_| err())?,
        })
    }
}

/// What kind of event a span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A runtime choice resolution (the paper's exposed-choice mechanism).
    Decision,
    /// A message handed to the transport.
    Send,
    /// A message delivered to its destination actor.
    Deliver,
    /// A message dropped (partition, loss, dead destination, broken conn).
    Drop,
    /// A timer firing.
    Timer,
    /// Node start.
    Start,
    /// Node crash.
    Crash,
    /// Node restart.
    Restart,
    /// A connection break observed by an endpoint.
    ConnBreak,
    /// An execution-steering filter being installed.
    SteeringInstall,
    /// An execution-steering filter matching and acting on a message.
    SteeringFire,
    /// An oracle violation (synthesised by the harness at end of run).
    Violation,
}

impl SpanKind {
    /// Stable lowercase label used in exports and the CLI.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Decision => "decision",
            SpanKind::Send => "send",
            SpanKind::Deliver => "deliver",
            SpanKind::Drop => "drop",
            SpanKind::Timer => "timer",
            SpanKind::Start => "start",
            SpanKind::Crash => "crash",
            SpanKind::Restart => "restart",
            SpanKind::ConnBreak => "conn_break",
            SpanKind::SteeringInstall => "steering_install",
            SpanKind::SteeringFire => "steering_fire",
            SpanKind::Violation => "violation",
        }
    }

    /// Inverse of [`SpanKind::label`].
    pub fn parse(label: &str) -> Option<SpanKind> {
        Some(match label {
            "decision" => SpanKind::Decision,
            "send" => SpanKind::Send,
            "deliver" => SpanKind::Deliver,
            "drop" => SpanKind::Drop,
            "timer" => SpanKind::Timer,
            "start" => SpanKind::Start,
            "crash" => SpanKind::Crash,
            "restart" => SpanKind::Restart,
            "conn_break" => SpanKind::ConnBreak,
            "steering_install" => SpanKind::SteeringInstall,
            "steering_fire" => SpanKind::SteeringFire,
            "violation" => SpanKind::Violation,
            _ => return None,
        })
    }
}

/// One causally-linked provenance record.
///
/// Every field except `wall_ns` is deterministic for a given
/// `(scenario, seed, plan)`. `wall_ns` follows the dual-clock discipline:
/// it is fingerprint-exempt and zeroed by [`Span::masked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic identity.
    pub id: SpanId,
    /// Event kind.
    pub kind: SpanKind,
    /// Short human-readable name (choice id, truncated message debug, ...).
    pub name: String,
    /// Causal parents. Empty = causal root (external stimulus).
    pub parents: Vec<SpanId>,
    /// Deterministic cost in simulated microseconds (states explored for
    /// decisions, 0 for plain events).
    pub sim_cost_us: u64,
    /// Wall-clock cost in nanoseconds. **Nondeterministic**; masked exports
    /// zero this field.
    pub wall_ns: u64,
    /// Open key/value detail (option tables, governor level, cache stats...).
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Build a span with no cost and no attrs.
    pub fn new(id: SpanId, kind: SpanKind, name: impl Into<String>, parents: Vec<SpanId>) -> Self {
        Span {
            id,
            kind,
            name: name.into(),
            parents,
            sim_cost_us: 0,
            wall_ns: 0,
            attrs: Vec::new(),
        }
    }

    /// Append an attribute (builder-style).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A copy with the nondeterministic wall-clock field blanked. Masked
    /// copies of the same seed's spans are byte-identical across reruns.
    pub fn masked(&self) -> Span {
        let mut s = self.clone();
        s.wall_ns = 0;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_id_display_parse_round_trip() {
        let id = SpanId {
            at_ns: 123_456_789,
            node: 7,
            seq: 42,
        };
        let text = id.to_string();
        assert_eq!(text, "t123456789.n7.s42");
        let back: SpanId = text.parse().unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn span_id_parse_rejects_garbage() {
        assert!("".parse::<SpanId>().is_err());
        assert!("t1.n2".parse::<SpanId>().is_err());
        assert!("x1.n2.s3".parse::<SpanId>().is_err());
        assert!("t1.nx.s3".parse::<SpanId>().is_err());
    }

    #[test]
    fn compact_never_zero_for_real_ids() {
        let id = SpanId {
            at_ns: 0,
            node: 0,
            seq: 1,
        };
        assert_ne!(id.compact(), 0);
        assert!(id.matches_compact(id.compact()));
    }

    #[test]
    fn kind_label_round_trip() {
        let kinds = [
            SpanKind::Decision,
            SpanKind::Send,
            SpanKind::Deliver,
            SpanKind::Drop,
            SpanKind::Timer,
            SpanKind::Start,
            SpanKind::Crash,
            SpanKind::Restart,
            SpanKind::ConnBreak,
            SpanKind::SteeringInstall,
            SpanKind::SteeringFire,
            SpanKind::Violation,
        ];
        for k in kinds {
            assert_eq!(SpanKind::parse(k.label()), Some(k));
        }
        assert_eq!(SpanKind::parse("nope"), None);
    }

    #[test]
    fn masked_blanks_only_wall() {
        let mut s = Span::new(
            SpanId {
                at_ns: 5,
                node: 1,
                seq: 1,
            },
            SpanKind::Decision,
            "pick",
            vec![],
        );
        s.sim_cost_us = 17;
        s.wall_ns = 999;
        let m = s.masked();
        assert_eq!(m.wall_ns, 0);
        assert_eq!(m.sim_cost_us, 17);
        assert_eq!(m.id, s.id);
    }
}
