//! Per-key linearizability checking over client-observed operation logs.
//!
//! A replicated KV scenario records, on each client, every operation it
//! issued: the invocation time, the response time (or "still pending at the
//! horizon"), and — for reads — the value it observed. After the run the
//! campaign harness concatenates those per-client logs into one history and
//! asks: *is there a linearization?* I.e. a total order of the operations
//! that (a) extends the real-time precedence order (if op `p` responded
//! before op `o` was invoked, `p` comes first) and (b) makes every read
//! return the most recently written value (registers start at
//! [`INIT_VALUE`]).
//!
//! Keys are independent registers, so the history is split per key and each
//! key is checked on its own — that keeps the state space proportional to
//! per-key concurrency rather than fleet-wide load.
//!
//! Two checkers live here:
//!
//! * [`wgl_check`] — a Wing–Gong / WGL-style memoized search. States are
//!   `(set of linearized ops, current register value)` pairs; an op is a
//!   candidate at a state iff every operation that *must* precede it (in
//!   real time) is already linearized. Memoizing visited states keeps the
//!   cost proportional to reachable configurations — bounded by per-key
//!   *concurrency*, not history length — instead of `n!`.
//! * [`brute_force_check`] — explicit enumeration of every permutation of
//!   every admissible subset. Factorial, only usable on tiny histories, and
//!   deliberately written with none of the WGL machinery: it is the
//!   differential ground truth the property tests compare against.
//!
//! Pending operations (no response by the horizon) follow the standard
//! completion rules: a pending *write* may or may not have taken effect, so
//! the checkers are free to include it anywhere after its invocation or to
//! drop it entirely; a pending *read* observed nothing and is dropped up
//! front.

use crate::oracle::OracleVerdict;
use std::collections::{BTreeMap, HashSet};

/// The value every register holds before its first write.
pub const INIT_VALUE: u64 = 0;

/// What an operation did, and what the client observed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A write of the given value.
    Write(u64),
    /// A read; the payload is the value the client observed. Ignored (and
    /// irrelevant) when the read is still pending at the horizon.
    Read(u64),
}

/// One client-observed operation against one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Op {
    /// Issuing client. Bookkeeping for artifacts; the checker itself is
    /// client-agnostic (real-time order is all that matters).
    pub client: u64,
    /// The key operated on. Histories are checked per key.
    pub key: u64,
    /// Operation kind plus observed value.
    pub kind: OpKind,
    /// Invocation time in nanoseconds on the sim clock.
    pub invoke_ns: u64,
    /// Response time; `None` means still pending when the run ended.
    pub respond_ns: Option<u64>,
}

impl Op {
    /// A completed write.
    pub fn write(client: u64, key: u64, value: u64, invoke_ns: u64, respond_ns: u64) -> Self {
        Op {
            client,
            key,
            kind: OpKind::Write(value),
            invoke_ns,
            respond_ns: Some(respond_ns),
        }
    }

    /// A completed read that observed `value`.
    pub fn read(client: u64, key: u64, value: u64, invoke_ns: u64, respond_ns: u64) -> Self {
        Op {
            client,
            key,
            kind: OpKind::Read(value),
            invoke_ns,
            respond_ns: Some(respond_ns),
        }
    }

    /// A write that never got a response (may or may not have taken effect).
    pub fn pending_write(client: u64, key: u64, value: u64, invoke_ns: u64) -> Self {
        Op {
            client,
            key,
            kind: OpKind::Write(value),
            invoke_ns,
            respond_ns: None,
        }
    }

    /// A read that never got a response (observed nothing; always dropped).
    pub fn pending_read(client: u64, key: u64, invoke_ns: u64) -> Self {
        Op {
            client,
            key,
            kind: OpKind::Read(0),
            invoke_ns,
            respond_ns: None,
        }
    }

    fn is_pending_read(&self) -> bool {
        self.respond_ns.is_none() && matches!(self.kind, OpKind::Read(_))
    }
}

// ---------------------------------------------------------------------------
// Multi-word bitmask helpers (histories can exceed 64 ops per key).
// ---------------------------------------------------------------------------

fn mask_words(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

fn set_bit(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

fn get_bit(mask: &[u64], i: usize) -> bool {
    mask[i / 64] & (1 << (i % 64)) != 0
}

/// `a ⊆ b`?
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// The WGL-style memoized linearizability check, treating the whole input as
/// operations on **one** register (callers split per key first; see
/// [`check_history`]). Returns `true` iff a linearization exists.
pub fn wgl_check(history: &[Op]) -> bool {
    let ops: Vec<&Op> = history.iter().filter(|o| !o.is_pending_read()).collect();
    let n = ops.len();
    if n == 0 {
        return true;
    }
    let words = mask_words(n);

    // preceders[i] = ops that responded before op i was invoked; all of them
    // must be linearized before i may be.
    let mut preceders = vec![vec![0u64; words]; n];
    let mut complete = vec![0u64; words];
    for (i, op) in ops.iter().enumerate() {
        if op.respond_ns.is_some() {
            set_bit(&mut complete, i);
        }
        for (j, other) in ops.iter().enumerate() {
            if i != j && other.respond_ns.is_some_and(|r| r < op.invoke_ns) {
                set_bit(&mut preceders[i], j);
            }
        }
    }

    // DFS over (linearized-set, register value) configurations. Accept once
    // every *complete* op is linearized — leftover pending writes are the
    // "never took effect" completion.
    let mut seen: HashSet<(Vec<u64>, u64)> = HashSet::new();
    let mut stack: Vec<(Vec<u64>, u64)> = vec![(vec![0u64; words], INIT_VALUE)];
    while let Some((mask, value)) = stack.pop() {
        if subset(&complete, &mask) {
            return true;
        }
        if !seen.insert((mask.clone(), value)) {
            continue;
        }
        for (i, op) in ops.iter().enumerate() {
            if get_bit(&mask, i) || !subset(&preceders[i], &mask) {
                continue;
            }
            match op.kind {
                OpKind::Read(v) => {
                    if v == value {
                        let mut next = mask.clone();
                        set_bit(&mut next, i);
                        stack.push((next, value));
                    }
                }
                OpKind::Write(v) => {
                    let mut next = mask.clone();
                    set_bit(&mut next, i);
                    stack.push((next, v));
                }
            }
        }
    }
    false
}

/// Exhaustive single-register linearizability check: every permutation of
/// every admissible subset (all complete ops, any subset of pending writes).
/// Factorial — panics on more than 8 effective ops. Ground truth for the
/// differential property tests; never use it on real campaign histories.
pub fn brute_force_check(history: &[Op]) -> bool {
    let ops: Vec<&Op> = history.iter().filter(|o| !o.is_pending_read()).collect();
    let n = ops.len();
    assert!(n <= 8, "brute-force checker is factorial; got {n} ops");
    if n == 0 {
        return true;
    }
    let pending: Vec<usize> = (0..n).filter(|&i| ops[i].respond_ns.is_none()).collect();
    let required: Vec<usize> = (0..n).filter(|&i| ops[i].respond_ns.is_some()).collect();

    for choice in 0u32..(1 << pending.len()) {
        let mut chosen = required.clone();
        for (bit, &idx) in pending.iter().enumerate() {
            if choice & (1 << bit) != 0 {
                chosen.push(idx);
            }
        }
        if any_valid_permutation(&ops, &mut chosen, 0) {
            return true;
        }
    }
    false
}

/// Heap's-style in-place permutation search over `chosen[at..]`, validating
/// the full order once built.
fn any_valid_permutation(ops: &[&Op], chosen: &mut [usize], at: usize) -> bool {
    if at == chosen.len() {
        return permutation_is_linearization(ops, chosen);
    }
    for i in at..chosen.len() {
        chosen.swap(at, i);
        if any_valid_permutation(ops, chosen, at + 1) {
            chosen.swap(at, i);
            return true;
        }
        chosen.swap(at, i);
    }
    false
}

fn permutation_is_linearization(ops: &[&Op], order: &[usize]) -> bool {
    // Real-time precedence: nothing placed later may have responded before
    // an earlier-placed op was invoked.
    for (pos, &i) in order.iter().enumerate() {
        for &j in &order[pos + 1..] {
            if ops[j].respond_ns.is_some_and(|r| r < ops[i].invoke_ns) {
                return false;
            }
        }
    }
    // Register semantics from INIT_VALUE.
    let mut value = INIT_VALUE;
    for &i in order {
        match ops[i].kind {
            OpKind::Read(v) => {
                if v != value {
                    return false;
                }
            }
            OpKind::Write(v) => value = v,
        }
    }
    true
}

/// Splits a history per key and WGL-checks each key independently. Returns
/// the first violating key (with its op count) or `Ok(())`.
pub fn check_history(history: &[Op]) -> Result<(), LinViolation> {
    let mut by_key: BTreeMap<u64, Vec<Op>> = BTreeMap::new();
    for op in history {
        by_key.entry(op.key).or_default().push(*op);
    }
    for (key, mut ops) in by_key {
        ops.sort_by_key(|o| (o.invoke_ns, o.client));
        if !wgl_check(&ops) {
            return Err(LinViolation { key, ops });
        }
    }
    Ok(())
}

/// A per-key linearizability violation: no valid linearization of this
/// key's operations exists.
#[derive(Clone, Debug)]
pub struct LinViolation {
    /// The violating key.
    pub key: u64,
    /// Every operation against that key, sorted by invocation time.
    pub ops: Vec<Op>,
}

impl LinViolation {
    /// A human-readable digest for failure artifacts: the key, op counts,
    /// and the tail of the history (where the contradiction usually lives).
    pub fn detail(&self) -> String {
        let reads = self
            .ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Read(_)))
            .count();
        let writes = self.ops.len() - reads;
        let tail: Vec<String> = self
            .ops
            .iter()
            .rev()
            .take(4)
            .rev()
            .map(|o| {
                let span = match o.respond_ns {
                    Some(r) => format!("[{}..{}]", o.invoke_ns, r),
                    None => format!("[{}..pending]", o.invoke_ns),
                };
                match o.kind {
                    OpKind::Write(v) => format!("c{} W({v}){span}", o.client),
                    OpKind::Read(v) => format!("c{} R={v}{span}", o.client),
                }
            })
            .collect();
        format!(
            "key {}: no linearization of {} ops ({reads} reads, {writes} writes); tail: {}",
            self.key,
            self.ops.len(),
            tail.join(" ")
        )
    }
}

/// Runs the per-key check and wraps the outcome as an [`OracleVerdict`]
/// under the given oracle name (`kv.linearizable`,
/// `mencius.linearizable`).
pub fn linearizability_verdict(name: &str, history: &[Op]) -> OracleVerdict {
    match check_history(history) {
        Ok(()) => OracleVerdict::pass(name, format!("{} ops linearizable", history.len())),
        Err(v) => OracleVerdict::fail(name, v.detail()),
    }
}

/// Generates a linearizable-by-construction history of `n_ops` operations:
/// each op is assigned a strictly increasing linearization point and an
/// invocation/response window jittered around it, so neighbouring ops
/// overlap (real concurrency) while reads observe the register value at
/// their linearization point. Used by the `benchmark/` package's
/// `harness.lincheck_ms_per_kop` probe and by scale tests; tamper with a read's value to get a violating history of
/// the same shape.
pub fn synthetic_history(n_ops: usize, n_clients: u64, n_keys: u64, seed: u64) -> Vec<Op> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64 — self-contained so the generator has no deps.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut current: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        // Linearization points 10ns apart with <10ns jitter stay strictly
        // increasing; ±40ns windows give ~8-way concurrency.
        let lin = (i as u64) * 10 + next() % 10;
        let invoke_ns = lin.saturating_sub(next() % 40);
        let pending = next() % 50 == 0;
        let respond_ns = if pending {
            None
        } else {
            Some(lin + 1 + next() % 40)
        };
        let key = next() % n_keys.max(1);
        let client = next() % n_clients.max(1);
        let kind = if next() % 2 == 0 {
            let value = i as u64 + 1;
            current.insert(key, value);
            OpKind::Write(value)
        } else {
            // A pending read is dropped by the checkers, so its observed
            // value does not matter; record the register value anyway.
            OpKind::Read(*current.get(&key).unwrap_or(&INIT_VALUE))
        };
        out.push(Op {
            client,
            key,
            kind,
            invoke_ns,
            respond_ns,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_is_linearizable() {
        assert!(wgl_check(&[]));
        assert!(brute_force_check(&[]));
        assert!(check_history(&[]).is_ok());
    }

    #[test]
    fn sequential_write_read_passes() {
        let h = [Op::write(0, 1, 7, 0, 10), Op::read(1, 1, 7, 20, 30)];
        assert!(wgl_check(&h));
        assert!(brute_force_check(&h));
    }

    #[test]
    fn read_of_never_written_value_fails() {
        let h = [Op::write(0, 1, 7, 0, 10), Op::read(1, 1, 9, 20, 30)];
        assert!(!wgl_check(&h));
        assert!(!brute_force_check(&h));
    }

    #[test]
    fn stale_read_after_completed_write_fails() {
        // W(1) finished at 10ns; a read invoked at 20ns must not see the
        // initial value any more.
        let h = [
            Op::write(0, 1, 1, 0, 10),
            Op::read(1, 1, INIT_VALUE, 20, 30),
        ];
        assert!(!wgl_check(&h));
        assert!(!brute_force_check(&h));
    }

    #[test]
    fn concurrent_read_may_see_either_side_of_a_write() {
        for observed in [INIT_VALUE, 5] {
            let h = [Op::write(0, 1, 5, 10, 30), Op::read(1, 1, observed, 15, 25)];
            assert!(wgl_check(&h), "observed={observed}");
            assert!(brute_force_check(&h), "observed={observed}");
        }
    }

    #[test]
    fn write_order_fixed_by_real_time_fails_stale_read() {
        // W(1) then W(2) strictly after; a later read must see 2 (or a
        // newer write), never 1 again.
        let h = [
            Op::write(0, 1, 1, 0, 5),
            Op::write(0, 1, 2, 10, 15),
            Op::read(1, 1, 1, 20, 25),
        ];
        assert!(!wgl_check(&h));
        assert!(!brute_force_check(&h));
    }

    #[test]
    fn pending_write_may_take_effect_or_not() {
        // The pending W(7) can linearize before the read...
        let seen = [Op::pending_write(0, 1, 7, 10), Op::read(1, 1, 7, 20, 30)];
        assert!(wgl_check(&seen));
        assert!(brute_force_check(&seen));
        // ...or never happen at all.
        let unseen = [
            Op::pending_write(0, 1, 7, 10),
            Op::read(1, 1, INIT_VALUE, 20, 30),
        ];
        assert!(wgl_check(&unseen));
        assert!(brute_force_check(&unseen));
    }

    #[test]
    fn observed_pending_write_cannot_unhappen() {
        // Once a read observes the pending write, a later read cannot flip
        // back to the initial value.
        let h = [
            Op::pending_write(0, 1, 7, 10),
            Op::read(1, 1, 7, 20, 30),
            Op::read(1, 1, INIT_VALUE, 40, 50),
        ];
        assert!(!wgl_check(&h));
        assert!(!brute_force_check(&h));
    }

    #[test]
    fn pending_reads_are_ignored() {
        let h = [Op::write(0, 1, 3, 0, 10), Op::pending_read(1, 1, 20)];
        assert!(wgl_check(&h));
        assert!(brute_force_check(&h));
    }

    #[test]
    fn keys_are_independent_registers() {
        // Interleaved per-key-sequential traffic on two keys; each key is
        // fine on its own.
        let h = [
            Op::write(0, 1, 1, 0, 10),
            Op::write(0, 2, 9, 5, 15),
            Op::read(1, 1, 1, 20, 30),
            Op::read(1, 2, 9, 25, 35),
        ];
        assert!(check_history(&h).is_ok());
        assert!(linearizability_verdict("kv.linearizable", &h).passed);
    }

    #[test]
    fn violation_names_the_bad_key() {
        let h = [
            Op::write(0, 1, 1, 0, 10),
            Op::read(1, 1, 1, 20, 30),
            Op::write(0, 2, 5, 0, 10),
            Op::read(1, 2, INIT_VALUE, 20, 30),
        ];
        let err = check_history(&h).unwrap_err();
        assert_eq!(err.key, 2);
        let verdict = linearizability_verdict("kv.linearizable", &h);
        assert!(!verdict.passed);
        assert!(verdict.detail.contains("key 2"), "{}", verdict.detail);
    }

    #[test]
    fn synthetic_history_is_linearizable_and_tampering_breaks_it() {
        let mut h = synthetic_history(400, 8, 1, 42);
        assert!(check_history(&h).is_ok());
        // Flip one completed read to a value never written anywhere.
        let victim = h
            .iter()
            .position(|o| o.respond_ns.is_some() && matches!(o.kind, OpKind::Read(_)))
            .expect("history has a completed read");
        h[victim].kind = OpKind::Read(u64::MAX);
        assert!(check_history(&h).is_err());
    }

    #[test]
    fn multiword_masks_work_past_64_ops() {
        // >64 sequential ops on one key force the two-word mask path.
        let mut h = Vec::new();
        for i in 0..80u64 {
            h.push(Op::write(0, 1, i + 1, i * 20, i * 20 + 5));
            h.push(Op::read(1, 1, i + 1, i * 20 + 10, i * 20 + 15));
        }
        assert!(wgl_check(&h));
        let last = h.len() - 1;
        h[last].kind = OpKind::Read(1); // stale by 79 writes
        assert!(!wgl_check(&h));
    }
}
