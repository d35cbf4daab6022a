//! The run fingerprint.
//!
//! Every simulator-level occurrence — send, delivery, drop, timer, crash,
//! restart, connection break, note — advances one rolling word hash. Two
//! runs with the same seed must produce the same [`Trace::fingerprint`]
//! (the integration tests check exactly that). Nothing is retained here:
//! the record of *what* happened lives in the per-node flight recorders
//! (`cb-trace`), which render text only when someone reads them.
//!
//! One round absorbs every word: the event words of [`Trace::push_words`],
//! the bytes of [`digest`] (drop reasons, notes) and, through the crate's
//! `Digest` hasher, a payload's `derive(Hash)` — the content word of a
//! full-trace send.

use std::hash::Hasher;

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

/// One absorption round: a whole word per multiply. The rotate carries the
/// high bits a multiply only ever pushes upward back into the low ones.
#[inline]
fn round(h: u64, word: u64) -> u64 {
    (h.rotate_left(23) ^ word).wrapping_mul(PRIME)
}

/// A 64-bit content digest of `bytes`, eight bytes per round; the tail
/// rides one length-tagged word, so `"ab"` and `"ab\0"` differ. Equal to
/// one `Digest::write` followed by `Digest::finish`.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.write(bytes);
    d.finish()
}

/// The fingerprint's round as a [`Hasher`]: what puts a payload's content
/// under the fingerprint, through its `derive(Hash)`. Every write absorbs
/// whole words (an integer is one round); [`Hasher::finish`] closes with
/// the count of bytes absorbed.
pub(crate) struct Digest {
    state: u64,
    len: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            state: SEED,
            len: 0,
        }
    }
}

impl Digest {
    #[inline]
    fn word(&mut self, word: u64, bytes: u64) {
        self.state = round(self.state, word);
        self.len += bytes;
    }
}

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        round(self.state, self.len)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.state = round(
                self.state,
                u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
            );
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail), bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(v as u64, 1);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.word(v as u64, 2);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(v as u64, 4);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v, 8);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64, 8);
    }
}

/// The rolling fingerprint of a run and the count of events behind it.
///
/// The hash is advanced at the moment an event happens, so it covers the
/// whole run however little of it the bounded span rings still hold.
#[derive(Clone, Debug)]
pub struct Trace {
    state: u64,
    pushed: u64,
}

impl Trace {
    /// Advances the fingerprint over one event's word encoding (tag, time,
    /// endpoints, ...). Order-sensitive; allocation-free.
    pub fn push_words(&mut self, words: &[u64]) {
        self.pushed += 1;
        self.state = words.iter().fold(self.state, |h, w| round(h, *w));
    }

    /// Total events ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Rolling hash over every event ever pushed. Equal seeds must yield
    /// equal fingerprints; the determinism tests rely on this.
    pub fn fingerprint(&self) -> u64 {
        self.state ^ self.pushed
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            state: SEED,
            pushed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_words_is_deterministic_and_order_sensitive() {
        let mut a = Trace::default();
        let mut b = Trace::default();
        a.push_words(&[1, 2, 3]);
        a.push_words(&[4, 5]);
        b.push_words(&[1, 2, 3]);
        b.push_words(&[4, 5]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.total_pushed(), 2);
        let mut c = Trace::default();
        c.push_words(&[4, 5]);
        c.push_words(&[1, 2, 3]);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_counts_events_not_only_words() {
        // The same word stream split into different events must differ.
        let mut a = Trace::default();
        a.push_words(&[1, 2]);
        let mut b = Trace::default();
        b.push_words(&[1]);
        b.push_words(&[2]);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_bit_of_every_word_reaches_the_fingerprint() {
        let base = [7u64, 0, u64::MAX, 0x1234_5678_9ABC_DEF0];
        let of = |words: &[u64]| {
            let mut t = Trace::default();
            t.push_words(words);
            t.push_words(&[1]);
            t.fingerprint()
        };
        for i in 0..base.len() {
            for bit in 0..64 {
                let mut flipped = base;
                flipped[i] ^= 1 << bit;
                assert_ne!(of(&base), of(&flipped), "word {i} bit {bit}");
            }
        }
    }

    #[test]
    fn digest_covers_content_length_and_position() {
        assert_eq!(digest(b"Push { rumor: 9 }"), digest(b"Push { rumor: 9 }"));
        assert_ne!(digest(b"Push { rumor: 9 }"), digest(b"Push { rumor: 8 }"));
        assert_ne!(digest(b"ab"), digest(b"ab\0"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_ne!(digest(b"abcdefgh12345678"), digest(b"12345678abcdefgh"));
    }

    #[test]
    fn digest_is_pinned() {
        let got = [
            digest(b""),
            digest(b"partitioned"),
            digest("Checkpoint { data: TreeCheckpoint { parent: Some…".as_bytes()),
        ];
        assert_eq!(
            got,
            [
                0x7550_e78b_c965_3c45,
                0x68c9_17cb_5ad9_9fff,
                0xe4b5_ac1a_6de3_eebd
            ],
            "{got:#018x?}"
        );
    }
}
