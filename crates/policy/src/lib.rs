//! The cross-run policy store: content-addressed memoization of choice
//! resolution.
//!
//! Paper §3.4 asks for "using choices based on previous similar scenarios as
//! a fast alternative" to running consequence prediction on the critical
//! path. The resolver ladder's rung-1 cache amortizes lookahead *within* a
//! run; this crate amortizes it *across runs*: a campaign sweep records what lookahead concluded at every
//! `(scenario, choice, context, state fingerprint)` and later runs replay
//! those conclusions as a hash lookup, falling back to live prediction only
//! on a miss.
//!
//! Design constraints, in order:
//!
//! 1. **Content-addressed determinism.** Entries live in sorted maps keyed
//!    by stable fingerprints; [`PolicyStore::content_id`] is a pure function
//!    of the sorted contents, so two stores with the same entries are
//!    byte-identical on disk no matter who wrote them, in what order, on
//!    how many campaign workers (the tribles-rust pile idiom).
//! 2. **Order-independent merge.** [`PolicyStore::insert`] resolves key
//!    conflicts with a total order on entries ([`PolicyEntry::wins_over`]),
//!    making merge commutative, associative, and idempotent — parallel
//!    per-seed recording and determinism re-runs cannot perturb the result.
//! 3. **Versioned, validated format.** [`PolicyStore::to_bytes`] emits a
//!    magic + version header, sorted fixed-width little-endian entries, and
//!    a trailing content id; [`PolicyStore::from_bytes`] rejects bad magic,
//!    unknown versions, unsorted or duplicate keys, and checksum mismatches
//!    rather than silently serving a corrupt table.
//!
//! This crate is dependency-free (std only) so every layer — runtime,
//! harness, bench, external tooling — can speak the format.

use std::collections::btree_map::Entry as BTreeEntry;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

/// On-disk format version. Bumped on any layout change; readers reject
/// versions they do not understand.
pub const FORMAT_VERSION: u32 = 1;

/// Magic prefix of a serialized [`PolicyStore`].
pub const STORE_MAGIC: [u8; 4] = *b"CBPS";

/// Magic prefix of a serialized [`PolicyPile`].
pub const PILE_MAGIC: [u8; 4] = *b"CBPI";

/// Byte-wise 64-bit FNV-1a — the workspace's one content hash. It names
/// policy stores and piles, choice ids, corpus records and the corpus
/// index checksum, and trace flow arrows, so its output is part of those
/// on-disk formats. Feed it bytes or little-endian `u64` words;
/// [`Fnv1a::finish`] is the bare FNV state (policy ids add [`mix64`]).
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds in a byte string.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds in a word as its eight little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a of one byte string, no finish.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Stable FNV-1a over a byte string, with an avalanche finish. Used to
/// content-address choice ids (`&'static str` at runtime, but only the hash
/// survives on disk).
pub fn hash_str(s: &str) -> u64 {
    mix64(fnv1a(s.as_bytes()))
}

/// SplitMix64-style avalanche: spreads low-entropy inputs (small integers,
/// FNV tails) over the full 64 bits so XOR-combined fingerprints don't
/// cancel structurally.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The content address of one memoized decision: which choice point, in
/// which discretized context, over which fingerprinted decision state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyKey {
    /// [`hash_str`] of the choice id (e.g. `"kv.read_replica"`).
    pub choice: u64,
    /// The raw context key.
    pub context: u64,
    /// Fingerprint of the decision-relevant state: the option set the
    /// resolver saw, XOR-combined with any service-supplied state
    /// fingerprint. Order-independent over options, so rotations of the
    /// same option set address the same entry.
    pub state_fp: u64,
}

impl PolicyKey {
    /// Builds a key from an already-hashed choice id.
    pub fn new(choice: u64, context: u64, state_fp: u64) -> Self {
        PolicyKey {
            choice,
            context,
            state_fp,
        }
    }

    /// Builds a key hashing the choice id in place.
    pub fn for_choice(choice_id: &str, context: u64, state_fp: u64) -> Self {
        PolicyKey::new(hash_str(choice_id), context, state_fp)
    }
}

/// What a training run concluded at a [`PolicyKey`]: the option it chose
/// and the prediction that justified it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyEntry {
    /// The chosen option's application-level key (not its index — indices
    /// are not rotation-stable).
    pub chosen_key: u64,
    /// Predicted objective for the chosen option, stored as IEEE-754 bits
    /// so the format stays fixed-width and bit-exact.
    pub objective_bits: u64,
    /// Property violations the training prediction saw in the chosen
    /// option's explored future (the memoized verdict: 0 = clean).
    pub violations: u64,
    /// States the training prediction explored — the lookahead cost this
    /// entry amortizes on every warm hit.
    pub states_explored: u64,
}

impl PolicyEntry {
    /// Builds an entry from an objective in its natural `f64` form.
    pub fn new(chosen_key: u64, objective: f64, violations: u64, states_explored: u64) -> Self {
        PolicyEntry {
            chosen_key,
            objective_bits: objective.to_bits(),
            violations,
            states_explored,
        }
    }

    /// The stored objective score.
    pub fn objective(&self) -> f64 {
        f64::from_bits(self.objective_bits)
    }

    /// Conflict rule for two recordings at the same key: fewer predicted
    /// violations wins (safety dominates), then higher objective, then the
    /// better-explored prediction, then the smaller chosen key. A strict
    /// total order over distinct entries, which is what makes
    /// [`PolicyStore::merge`] commutative, associative, and idempotent.
    pub fn wins_over(&self, other: &PolicyEntry) -> bool {
        if self.violations != other.violations {
            return self.violations < other.violations;
        }
        match self.objective().total_cmp(&other.objective()) {
            std::cmp::Ordering::Greater => return true,
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
        if self.states_explored != other.states_explored {
            return self.states_explored > other.states_explored;
        }
        self.chosen_key < other.chosen_key
    }
}

/// Errors loading a serialized store or pile.
#[derive(Debug)]
pub enum PolicyFormatError {
    /// The byte stream ended before the declared contents.
    Truncated,
    /// The magic prefix was not [`STORE_MAGIC`] / [`PILE_MAGIC`].
    BadMagic,
    /// A format version this reader does not understand.
    BadVersion(u32),
    /// Structurally invalid contents (unsorted keys, checksum mismatch, …).
    Corrupt(String),
    /// An underlying filesystem error.
    Io(std::io::Error),
}

impl fmt::Display for PolicyFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyFormatError::Truncated => write!(f, "policy file truncated"),
            PolicyFormatError::BadMagic => write!(f, "not a policy file (bad magic)"),
            PolicyFormatError::BadVersion(v) => write!(f, "unsupported policy format version {v}"),
            PolicyFormatError::Corrupt(why) => write!(f, "corrupt policy file: {why}"),
            PolicyFormatError::Io(e) => write!(f, "policy io error: {e}"),
        }
    }
}

impl std::error::Error for PolicyFormatError {}

impl From<std::io::Error> for PolicyFormatError {
    fn from(e: std::io::Error) -> Self {
        PolicyFormatError::Io(e)
    }
}

/// One scenario's memoized decisions, sorted by content address.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PolicyStore {
    scenario: String,
    entries: BTreeMap<PolicyKey, PolicyEntry>,
}

impl PolicyStore {
    /// An empty store for `scenario`.
    pub fn new(scenario: &str) -> Self {
        PolicyStore {
            scenario: scenario.to_string(),
            entries: BTreeMap::new(),
        }
    }

    /// The scenario this store was trained on.
    pub fn scenario(&self) -> &str {
        &self.scenario
    }

    /// Number of memoized decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry at `key`, if one was recorded.
    pub fn get(&self, key: &PolicyKey) -> Option<&PolicyEntry> {
        self.entries.get(key)
    }

    /// Records a decision. On a key conflict the [`PolicyEntry::wins_over`]
    /// winner is kept, so insertion order never matters. Returns `true` when
    /// `entry` is now the stored value (new key, or it won the conflict).
    pub fn insert(&mut self, key: PolicyKey, entry: PolicyEntry) -> bool {
        match self.entries.entry(key) {
            BTreeEntry::Vacant(v) => {
                v.insert(entry);
                true
            }
            BTreeEntry::Occupied(mut o) => {
                if entry.wins_over(o.get()) {
                    o.insert(entry);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Merges another store's entries under the same conflict rule.
    /// Commutative, associative, and idempotent, so per-seed stores can be
    /// folded in any order (any worker count) with an identical result.
    pub fn merge(&mut self, other: &PolicyStore) {
        for (k, e) in &other.entries {
            self.insert(*k, *e);
        }
    }

    /// Sorted iteration over the contents (BTreeMap order — the only
    /// iteration order this crate ever exposes).
    pub fn iter(&self) -> impl Iterator<Item = (&PolicyKey, &PolicyEntry)> {
        self.entries.iter()
    }

    /// The store's content address: a pure function of the format version,
    /// scenario name, and sorted entries. Equal stores — however produced —
    /// have equal ids; the id doubles as the on-disk checksum.
    pub fn content_id(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(FORMAT_VERSION as u64);
        h.write_u64(hash_str(&self.scenario));
        h.write_u64(self.entries.len() as u64);
        for (k, e) in &self.entries {
            for word in [
                k.choice,
                k.context,
                k.state_fp,
                e.chosen_key,
                e.objective_bits,
                e.violations,
                e.states_explored,
            ] {
                h.write_u64(word);
            }
        }
        mix64(h.finish())
    }

    /// Serializes to the versioned binary format. Deterministic: equal
    /// stores produce identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 4 + self.scenario.len() + 8 + self.len() * 56 + 8);
        out.extend_from_slice(&STORE_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.scenario.len() as u32).to_le_bytes());
        out.extend_from_slice(self.scenario.as_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (k, e) in &self.entries {
            for word in [
                k.choice,
                k.context,
                k.state_fp,
                e.chosen_key,
                e.objective_bits,
                e.violations,
                e.states_explored,
            ] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.content_id().to_le_bytes());
        out
    }

    /// Parses and validates the binary format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PolicyFormatError> {
        let mut r = Reader { bytes, at: 0 };
        let store = Self::read_from(&mut r)?;
        if r.at != bytes.len() {
            return Err(PolicyFormatError::Corrupt(format!(
                "{} trailing bytes",
                bytes.len() - r.at
            )));
        }
        Ok(store)
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, PolicyFormatError> {
        if r.take(4)? != STORE_MAGIC {
            return Err(PolicyFormatError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(PolicyFormatError::BadVersion(version));
        }
        let name_len = r.u32()? as usize;
        let scenario = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| PolicyFormatError::Corrupt("scenario name not utf-8".into()))?;
        let count = r.u64()? as usize;
        let mut entries = BTreeMap::new();
        let mut prev: Option<PolicyKey> = None;
        for _ in 0..count {
            let key = PolicyKey::new(r.u64()?, r.u64()?, r.u64()?);
            if let Some(p) = prev {
                if p >= key {
                    return Err(PolicyFormatError::Corrupt(
                        "entries not strictly sorted".into(),
                    ));
                }
            }
            prev = Some(key);
            let entry = PolicyEntry {
                chosen_key: r.u64()?,
                objective_bits: r.u64()?,
                violations: r.u64()?,
                states_explored: r.u64()?,
            };
            entries.insert(key, entry);
        }
        let store = PolicyStore { scenario, entries };
        let checksum = r.u64()?;
        let want = store.content_id();
        if checksum != want {
            return Err(PolicyFormatError::Corrupt(format!(
                "content id mismatch: file says {checksum:#018x}, contents hash to {want:#018x}"
            )));
        }
        Ok(store)
    }
}

/// A multi-scenario pile of policy stores — the unit `campaign
/// --record-policy` writes and `--policy` loads. Stores are keyed (and
/// serialized) by scenario name in sorted order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct PolicyPile {
    stores: BTreeMap<String, PolicyStore>,
}

impl PolicyPile {
    /// An empty pile.
    pub fn new() -> Self {
        PolicyPile::default()
    }

    /// Number of stores.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// True when no store is present.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Total entries across all stores.
    pub fn total_entries(&self) -> usize {
        self.stores.values().map(PolicyStore::len).sum()
    }

    /// The store for a scenario, if present.
    pub fn get(&self, scenario: &str) -> Option<&PolicyStore> {
        self.stores.get(scenario)
    }

    /// Inserts a store, merging with any existing store for the same
    /// scenario.
    pub fn insert_store(&mut self, store: PolicyStore) {
        match self.stores.entry(store.scenario().to_string()) {
            BTreeEntry::Vacant(v) => {
                v.insert(store);
            }
            BTreeEntry::Occupied(mut o) => o.get_mut().merge(&store),
        }
    }

    /// Merges another pile store-by-store.
    pub fn merge(&mut self, other: &PolicyPile) {
        for store in other.stores.values() {
            self.insert_store(store.clone());
        }
    }

    /// Sorted iteration over the stores.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &PolicyStore)> {
        self.stores.iter()
    }

    /// Content address of the whole pile: hash of the sorted store ids.
    pub fn content_id(&self) -> u64 {
        let mut h = Fnv1a::new();
        for store in self.stores.values() {
            h.write_u64(store.content_id());
        }
        mix64(h.finish())
    }

    /// Serializes the pile (deterministic, like the stores).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&PILE_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.stores.len() as u32).to_le_bytes());
        for store in self.stores.values() {
            let bytes = store.to_bytes();
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
        }
        out.extend_from_slice(&self.content_id().to_le_bytes());
        out
    }

    /// Parses and validates a serialized pile.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PolicyFormatError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(4)? != PILE_MAGIC {
            return Err(PolicyFormatError::BadMagic);
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(PolicyFormatError::BadVersion(version));
        }
        let count = r.u32()? as usize;
        let mut stores = BTreeMap::new();
        let mut prev: Option<String> = None;
        for _ in 0..count {
            let len = r.u64()? as usize;
            let store = PolicyStore::from_bytes(r.take(len)?)?;
            if let Some(p) = &prev {
                if p.as_str() >= store.scenario() {
                    return Err(PolicyFormatError::Corrupt(
                        "pile stores not sorted by scenario".into(),
                    ));
                }
            }
            prev = Some(store.scenario().to_string());
            stores.insert(store.scenario().to_string(), store);
        }
        let pile = PolicyPile { stores };
        let checksum = r.u64()?;
        if checksum != pile.content_id() {
            return Err(PolicyFormatError::Corrupt(
                "pile content id mismatch".into(),
            ));
        }
        if r.at != bytes.len() {
            return Err(PolicyFormatError::Corrupt("trailing bytes".into()));
        }
        Ok(pile)
    }

    /// Writes the pile to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PolicyFormatError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a pile from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PolicyFormatError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        PolicyPile::from_bytes(&bytes)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PolicyFormatError> {
        // `n` is an untrusted length: `at + n` may not fit a `usize`.
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(PolicyFormatError::Truncated)?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PolicyFormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PolicyFormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_store() -> PolicyStore {
        let mut s = PolicyStore::new("kv");
        for i in 0..10u64 {
            s.insert(
                PolicyKey::for_choice("kv.read_replica", i % 3, mix64(i)),
                PolicyEntry::new(i % 5, i as f64 * 0.25, i % 2, 100 + i),
            );
        }
        s
    }

    #[test]
    fn insert_keeps_the_conflict_winner() {
        let mut s = PolicyStore::new("t");
        let k = PolicyKey::for_choice("c", 0, 1);
        assert!(s.insert(k, PolicyEntry::new(1, 1.0, 1, 10)));
        // Fewer violations wins regardless of objective.
        assert!(s.insert(k, PolicyEntry::new(2, 0.1, 0, 5)));
        assert_eq!(s.get(&k).unwrap().chosen_key, 2);
        // More violations loses.
        assert!(!s.insert(k, PolicyEntry::new(3, 9.0, 1, 500)));
        assert_eq!(s.get(&k).unwrap().chosen_key, 2);
        // Same violations, higher objective wins.
        assert!(s.insert(k, PolicyEntry::new(4, 0.2, 0, 5)));
        assert_eq!(s.get(&k).unwrap().chosen_key, 4);
        // Identical entry is a no-op.
        assert!(!s.insert(k, PolicyEntry::new(4, 0.2, 0, 5)));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let s = sample_store();
        let bytes = s.to_bytes();
        let loaded = PolicyStore::from_bytes(&bytes).expect("load");
        assert_eq!(loaded, s);
        assert_eq!(loaded.to_bytes(), bytes, "save → load → save must agree");
        assert_eq!(loaded.content_id(), s.content_id());
    }

    #[test]
    fn corrupt_bytes_are_rejected() {
        let s = sample_store();
        let mut bytes = s.to_bytes();
        // Flip one entry byte: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            PolicyStore::from_bytes(&bytes),
            Err(PolicyFormatError::Corrupt(_))
        ));
        // Wrong magic.
        let mut bad = s.to_bytes();
        bad[0] = b'X';
        assert!(matches!(
            PolicyStore::from_bytes(&bad),
            Err(PolicyFormatError::BadMagic)
        ));
        // Future version.
        let mut newer = s.to_bytes();
        newer[4] = 99;
        assert!(matches!(
            PolicyStore::from_bytes(&newer),
            Err(PolicyFormatError::BadVersion(99))
        ));
        // Truncation.
        let cut = &s.to_bytes()[..20];
        assert!(matches!(
            PolicyStore::from_bytes(cut),
            Err(PolicyFormatError::Truncated)
        ));
    }

    #[test]
    fn pile_round_trip_and_lookup() {
        let mut pile = PolicyPile::new();
        pile.insert_store(sample_store());
        let mut g = PolicyStore::new("gossip");
        g.insert(
            PolicyKey::for_choice("gossip.fanout", 0, 7),
            PolicyEntry::new(3, 1.5, 0, 64),
        );
        pile.insert_store(g);
        let bytes = pile.to_bytes();
        let loaded = PolicyPile::from_bytes(&bytes).expect("load");
        assert_eq!(loaded, pile);
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(loaded.get("kv").unwrap().len(), 10);
        assert!(loaded.get("ring").is_none());
        assert_eq!(loaded.total_entries(), 11);
    }

    /// On-disk ids: choice hashes and content ids are checksums inside
    /// every saved store and pile, so their exact values are part of the
    /// format.
    #[test]
    fn content_ids_are_golden() {
        assert_eq!(hash_str(""), 0xc381_7c01_6ba4_ff30);
        assert_eq!(hash_str("kv.read_replica"), 0xeb13_2962_6b09_d73f);
        assert_eq!(PolicyStore::new("kv").content_id(), 0xefeb_8f8d_0508_7bba);
        assert_eq!(sample_store().content_id(), 0x9467_648c_4abf_07fa);
        let mut pile = PolicyPile::new();
        assert_eq!(pile.content_id(), 0xc381_7c01_6ba4_ff30);
        pile.insert_store(sample_store());
        pile.insert_store(PolicyStore::new("gossip"));
        assert_eq!(pile.content_id(), 0xd2a3_54a3_5fbb_1ceb);
    }

    #[test]
    fn merge_is_order_independent_and_idempotent() {
        let a = sample_store();
        let mut b = PolicyStore::new("kv");
        for i in 5..15u64 {
            b.insert(
                PolicyKey::for_choice("kv.read_replica", i % 3, mix64(i)),
                PolicyEntry::new(i % 7, i as f64 * 0.5, 0, 50 + i),
            );
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.content_id(), ba.content_id());
        let id = ab.content_id();
        ab.merge(&b); // idempotent
        ab.merge(&a);
        assert_eq!(ab.content_id(), id);
    }

    proptest! {
        #[test]
        fn prop_store_round_trips(seed in 0u64..10_000, n in 0usize..60) {
            let mut s = PolicyStore::new("prop");
            let mut x = seed;
            for _ in 0..n {
                x = mix64(x);
                let key = PolicyKey::new(mix64(x ^ 1), x % 5, mix64(x ^ 2));
                let entry = PolicyEntry::new(x % 9, (x % 1000) as f64 / 7.0, x % 3, x % 2048);
                s.insert(key, entry);
            }
            let bytes = s.to_bytes();
            let loaded = PolicyStore::from_bytes(&bytes).expect("round trip");
            prop_assert_eq!(&loaded, &s);
            prop_assert_eq!(loaded.to_bytes(), bytes);
        }

        #[test]
        fn prop_insert_order_never_matters(seed in 0u64..10_000, n in 1usize..40) {
            // Generate n (key, entry) pairs, insert them forwards and
            // backwards (with duplicates): identical stores either way.
            let mut pairs = Vec::new();
            let mut x = seed;
            for _ in 0..n {
                x = mix64(x);
                // Small key space on purpose: force conflicts.
                let key = PolicyKey::new(x % 4, x % 3, x % 4);
                let entry = PolicyEntry::new(x % 6, (x % 100) as f64, x % 2, x % 512);
                pairs.push((key, entry));
            }
            let mut fwd = PolicyStore::new("prop");
            for (k, e) in &pairs {
                fwd.insert(*k, *e);
            }
            let mut rev = PolicyStore::new("prop");
            for (k, e) in pairs.iter().rev() {
                rev.insert(*k, *e);
            }
            prop_assert_eq!(&fwd, &rev);
            prop_assert_eq!(fwd.content_id(), rev.content_id());
        }
    }
}
