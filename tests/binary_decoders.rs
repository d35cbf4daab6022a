//! The decoders besides the artifact JSON that read user-supplied files —
//! `Corpus::from_index_bytes` (`index.cbc`), `PolicyStore::from_bytes` and
//! `PolicyPile::from_bytes` (`.cbp`), and `FaultPlan::from_spec`
//! (`--plan`) — under damage: truncated at a random byte, one bit flipped,
//! two halves spliced, or a random field overwritten with a huge count or
//! length. The checksum or content id is recomputed after the damage, so
//! the decoder gets past it and parses the damaged body. Every case must
//! come back as `Ok` or `Err`: no panic, no abort on a multi-gigabyte
//! allocation. The two smallest inputs that did abort or panic are fixed
//! cases.

use cb_corpus::{fnv1a, Corpus, INDEX_MAGIC};
use cb_harness::prelude::*;
use cb_harness::toy::RingScenario;
use cb_policy::{
    mix64, PolicyEntry, PolicyKey, PolicyPile, PolicyStore, FORMAT_VERSION, PILE_MAGIC,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// `whole` damaged one of four ways, chosen by `kind`.
fn damage(whole: &[u8], kind: u32, a: u64, b: u64) -> Vec<u8> {
    let at = |x: u64| (x % (whole.len() as u64 + 1)) as usize;
    match kind {
        0 => whole[..at(a)].to_vec(),
        1 => {
            let mut bytes = whole.to_vec();
            if let Some(byte) = bytes.get_mut(at(a)) {
                *byte ^= 1 << (b % 8);
            }
            bytes
        }
        2 => [&whole[..at(a)], &whole[at(b)..]].concat(),
        _ => {
            // A count or length field read as huge: anywhere, or (every
            // other case) at a 4-byte boundary of the first 32 bytes, where
            // headers keep them.
            let mut bytes = whole.to_vec();
            let huge: &[u8] = match b % 3 {
                0 => &[0xff; 4],
                1 => &[0xff; 8],
                _ => &[0x00, 0x00, 0x00, 0x80],
            };
            let start = if (b / 3).is_multiple_of(2) {
                at(a)
            } else {
                (at(a) % 32) & !3
            };
            let start = start.min(bytes.len().saturating_sub(huge.len()));
            let end = (start + huge.len()).min(bytes.len());
            bytes[start..end].copy_from_slice(&huge[..end - start]);
            bytes
        }
    }
}

/// Rewrites the last eight bytes as the FNV-1a of everything before them:
/// the `index.cbc` trailer.
fn reseal_index(bytes: &mut [u8]) {
    if let Some(body_len) = bytes.len().checked_sub(8) {
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn u32_at(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn u64_at(bytes: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?))
}

/// Rewrites a serialized store's trailing content id to match the entries
/// it holds, where the damaged layout still says what those are.
fn reseal_store(bytes: &mut [u8]) {
    let content_id = || -> Option<u64> {
        let body = bytes.len().checked_sub(8)?;
        let name_len = u32_at(bytes, 8)? as usize;
        let name = std::str::from_utf8(bytes.get(12..12usize.checked_add(name_len)?)?).ok()?;
        let count = u64_at(bytes, 12 + name_len)?;
        let entries = 20 + name_len;
        if body.checked_sub(entries)? as u64 != count.checked_mul(56)? {
            return None;
        }
        let mut store = PolicyStore::new(name);
        for entry in bytes[entries..body].chunks(56) {
            let word = |i: usize| u64_at(entry, 8 * i).expect("56-byte entry");
            store.insert(
                PolicyKey::new(word(0), word(1), word(2)),
                PolicyEntry {
                    chosen_key: word(3),
                    objective_bits: word(4),
                    violations: word(5),
                    states_explored: word(6),
                },
            );
        }
        Some(store.content_id())
    };
    if let Some(id) = content_id() {
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&id.to_le_bytes());
    }
}

/// Reseals every store a damaged pile still frames, then the pile itself
/// when all of them decode.
fn reseal_pile(bytes: &mut [u8]) {
    let Some(count) = u32_at(bytes, 8) else {
        return;
    };
    let mut at = 12usize;
    let mut ids = Vec::new();
    for _ in 0..count {
        let Some(len) = u64_at(bytes, at).and_then(|len| usize::try_from(len).ok()) else {
            return;
        };
        let Some(end) = (at + 8).checked_add(len).filter(|&end| end <= bytes.len()) else {
            return;
        };
        let store = &mut bytes[at + 8..end];
        reseal_store(store);
        match PolicyStore::from_bytes(store) {
            Ok(store) => ids.push(store),
            Err(_) => return,
        }
        at = end;
    }
    let mut pile = PolicyPile::new();
    ids.into_iter().for_each(|store| pile.insert_store(store));
    if let Some(trailer) = bytes.get_mut(at..at + 8) {
        trailer.copy_from_slice(&pile.content_id().to_le_bytes());
    }
}

fn sample_store(scenario: &str, n: u64) -> PolicyStore {
    let mut store = PolicyStore::new(scenario);
    for i in 0..n {
        store.insert(
            PolicyKey::for_choice("kv.read_replica", i % 3, mix64(i)),
            PolicyEntry::new(i % 5, i as f64 * 0.25, i % 2, 100 + i),
        );
    }
    store
}

/// An index over passing and failing ring runs.
fn sample_index() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ring = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let cut = FaultPlan::none().partition(&[3], &others, 0, None);
        let mut corpus = Corpus::new();
        corpus.ingest_report(&ring.run(1, &FaultPlan::none()));
        corpus.ingest_report(&ring.run(2, &cut));
        corpus.index_bytes()
    })
}

#[test]
fn the_inputs_that_aborted_are_refused() {
    // 24 bytes, checksum valid: 2^32 - 1 interned strings to come.
    let mut index = INDEX_MAGIC.to_vec();
    index.extend(1u32.to_le_bytes());
    index.extend(u32::MAX.to_le_bytes());
    index.extend([0; 8]);
    reseal_index(&mut index);
    assert_eq!(index.len(), 24);
    assert!(Corpus::from_index_bytes(&index).is_err());

    // One record whose only histogram claims 2^32 - 1 bucket pairs.
    let mut index = INDEX_MAGIC.to_vec();
    for word in [1u32, 1, 1] {
        index.extend(word.to_le_bytes()); // version, one string, its length
    }
    index.push(b'x');
    index.extend(1u32.to_le_bytes()); // one record
    index.extend(0u32.to_le_bytes()); // scenario "x"
    index.extend([0; 32]); // seed, content id, fingerprint, events
    index.extend(0u32.to_le_bytes()); // plan "x"
    index.push(0); // failed
    for count in [0u32, 0, 0, 1, 0, u32::MAX] {
        // no oracles, counters or gauges; one histogram "x" of 2^32 - 1 pairs
        index.extend(count.to_le_bytes());
    }
    index.extend([0; 8]);
    reseal_index(&mut index);
    assert!(Corpus::from_index_bytes(&index).is_err());

    // 28 bytes: a pile whose one store is u64::MAX bytes long.
    let mut pile = PILE_MAGIC.to_vec();
    pile.extend(FORMAT_VERSION.to_le_bytes());
    pile.extend(1u32.to_le_bytes());
    pile.extend(u64::MAX.to_le_bytes());
    pile.extend([0; 8]);
    assert_eq!(pile.len(), 28);
    assert!(PolicyPile::from_bytes(&pile).is_err());

    // Milliseconds past the nanosecond clock.
    assert!(FaultPlan::from_spec("crash:0@18446744073709551615").is_err());
    assert!(FaultPlan::from_spec("delayspike:18446744073710@0-1").is_err());
}

#[test]
fn the_reseal_helpers_keep_undamaged_files_valid() {
    let mut index = sample_index().to_vec();
    reseal_index(&mut index);
    assert_eq!(index, sample_index());
    let mut store = sample_store("kv", 10).to_bytes();
    reseal_store(&mut store);
    assert_eq!(store, sample_store("kv", 10).to_bytes());
    let mut pile = PolicyPile::new();
    pile.insert_store(sample_store("kv", 10));
    pile.insert_store(sample_store("gossip", 3));
    let mut bytes = pile.to_bytes();
    reseal_pile(&mut bytes);
    assert_eq!(bytes, pile.to_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damaged_indexes_are_refused_not_fatal(kind in 0u32..4, a in any::<u64>(), b in any::<u64>()) {
        let mut bytes = damage(sample_index(), kind, a, b);
        reseal_index(&mut bytes);
        // Either answer is fine; coming back is the property.
        let _ = Corpus::from_index_bytes(&bytes);
    }

    #[test]
    fn damaged_policy_files_are_refused_not_fatal(kind in 0u32..4, a in any::<u64>(), b in any::<u64>()) {
        let store = sample_store("kv", 10);
        let mut bytes = damage(&store.to_bytes(), kind, a, b);
        reseal_store(&mut bytes);
        if let Ok(read) = PolicyStore::from_bytes(&bytes) {
            // Whatever it accepts is canonical: it writes back the same.
            prop_assert_eq!(read.to_bytes(), bytes);
        }
        let mut pile = PolicyPile::new();
        pile.insert_store(store);
        pile.insert_store(sample_store("gossip", 3));
        let mut bytes = damage(&pile.to_bytes(), kind, a, b);
        reseal_pile(&mut bytes);
        if let Ok(read) = PolicyPile::from_bytes(&bytes) {
            prop_assert_eq!(read.to_bytes(), bytes);
        }
    }

    #[test]
    fn damaged_plan_specs_are_refused_not_fatal(kind in 0u32..4, a in any::<u64>(), b in any::<u64>()) {
        let whole = FaultPlan::none()
            .crash(5, 400)
            .restart(5, 800)
            .partition(&[3], &[0, 1, 2], 0, Some(900))
            .loss(0.25, 100, 300)
            .stall(2, 10, 20)
            .delayspike(150, 8, 25)
            .churn(&[4, 6], 0, 5_000, 700, 300)
            .to_spec();
        let spec = match kind {
            // A number as long as a u64 or longer, in place of a digit.
            3 => {
                let digits: Vec<usize> = whole.match_indices(|c: char| c.is_ascii_digit()).map(|(i, _)| i).collect();
                let i = digits[(a % digits.len() as u64) as usize];
                let huge = ["18446744073709551615", "18446744073710", "99999999999999999999999"];
                format!("{}{}{}", &whole[..i], huge[(b % 3) as usize], &whole[i + 1..])
            }
            _ => String::from_utf8_lossy(&damage(whole.as_bytes(), kind, a, b)).into_owned(),
        };
        if let Ok(plan) = FaultPlan::from_spec(&spec) {
            // An accepted plan prints and reads back.
            prop_assert!(FaultPlan::from_spec(&plan.to_spec()).is_ok(), "{}", spec);
        }
    }
}
