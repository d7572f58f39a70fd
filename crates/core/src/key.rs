//! The MACEDON key: the paper's 32-bit hash address space.
//!
//! "our implementation of Chord only uses a 32-bit hash address space"
//! (§4.2.2) — node identifiers, group ids and route destinations are all
//! [`MacedonKey`]s. With IP addressing the key is the node id itself;
//! with hash addressing it is `sha1(address)` truncated to 32 bits.

use crate::sha1::sha1_u32;
use macedon_net::NodeId;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A point on the 2^32 identifier ring.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacedonKey(pub u32);

/// Ring size as u64 (2^32).
pub const RING: u64 = 1u64 << 32;

/// Key-derivation mode, per the `addressing` header of a mac file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Addressing {
    /// Keys are SHA-1 hashes of addresses.
    Hash,
    /// Keys are the (zero-extended) IP/node ids themselves.
    Ip,
}

impl MacedonKey {
    /// Key of a node under the given addressing mode.
    pub fn of_node(node: NodeId, mode: Addressing) -> MacedonKey {
        match mode {
            Addressing::Hash => MacedonKey(sha1_u32(&node.0.to_be_bytes())),
            Addressing::Ip => MacedonKey(node.0),
        }
    }

    /// Key of an arbitrary name (group names, object ids).
    pub fn of_name(name: &str) -> MacedonKey {
        MacedonKey(sha1_u32(name.as_bytes()))
    }

    /// Clockwise distance from `self` to `other` on the ring.
    pub fn distance_to(self, other: MacedonKey) -> u64 {
        (other.0 as u64 + RING - self.0 as u64) % RING
    }

    /// `self + 2^i (mod 2^32)` — Chord finger targets.
    pub fn plus_pow2(self, i: u32) -> MacedonKey {
        debug_assert!(i < 32);
        MacedonKey(((self.0 as u64 + (1u64 << i)) % RING) as u32)
    }

    /// True if `self` lies in the open interval `(a, b)` going clockwise.
    pub fn in_open(self, a: MacedonKey, b: MacedonKey) -> bool {
        if a == b {
            // Whole ring except the endpoint.
            return self != a;
        }
        a.distance_to(self) > 0 && a.distance_to(self) < a.distance_to(b)
    }

    /// True if `self` lies in the half-open interval `(a, b]` clockwise.
    pub fn in_open_closed(self, a: MacedonKey, b: MacedonKey) -> bool {
        if a == b {
            return true; // full ring
        }
        a.distance_to(self) > 0 && a.distance_to(self) <= a.distance_to(b)
    }

    /// Digit `i` (0 = most significant) of the key in base `2^bits`.
    /// Pastry prefix routing uses `bits = 4` → 8 hex digits.
    pub fn digit(self, i: u32, bits: u32) -> u32 {
        debug_assert!(bits > 0 && 32 % bits == 0 && i < 32 / bits);
        let shift = 32 - bits * (i + 1);
        (self.0 >> shift) & ((1 << bits) - 1)
    }

    /// Length of the shared prefix with `other`, in digits of `2^bits`.
    pub fn shared_prefix_len(self, other: MacedonKey, bits: u32) -> u32 {
        let digits = 32 / bits;
        for i in 0..digits {
            if self.digit(i, bits) != other.digit(i, bits) {
                return i;
            }
        }
        digits
    }

    /// Absolute ring distance (min of clockwise and counter-clockwise) —
    /// Pastry's leaf-set proximity.
    pub fn ring_distance(self, other: MacedonKey) -> u64 {
        let cw = self.distance_to(other);
        cw.min(RING - cw)
    }
}

/// A world's node-key table: each node's [`MacedonKey`] derived at most
/// once and looked up after that.
///
/// Agents compare peer keys on every routing decision, and under hash
/// addressing each derivation is a full SHA-1. The table keeps one slot
/// per topology node, filled lazily on first lookup, so set-up hashes
/// nothing and a node nobody asks about is never hashed. The key is a
/// pure function of the node id and the mode, so two shard threads that
/// race on an empty slot store the same value: relaxed ordering is
/// enough, and lookups can never change a result. Ids beyond the table
/// (from wire bytes, or a standalone stack with no world) are derived
/// on the spot.
pub struct NodeKeys {
    mode: Addressing,
    /// `EMPTY` or the key, zero-extended. Empty under `Ip` addressing,
    /// where the key is the id itself.
    slots: Box<[AtomicU64]>,
}

/// Slot sentinel: above every zero-extended 32-bit key.
const EMPTY: u64 = u64::MAX;

impl NodeKeys {
    /// A table for node ids `0..nodes` under `mode`, all slots empty.
    pub fn new(mode: Addressing, nodes: usize) -> NodeKeys {
        let nodes = match mode {
            Addressing::Hash => nodes,
            Addressing::Ip => 0,
        };
        NodeKeys {
            mode,
            slots: (0..nodes).map(|_| AtomicU64::new(EMPTY)).collect(),
        }
    }

    /// Key of `node`: equal to `MacedonKey::of_node(node, mode)`.
    pub fn key_of(&self, node: NodeId) -> MacedonKey {
        let Some(slot) = self.slots.get(node.index()) else {
            return MacedonKey::of_node(node, self.mode);
        };
        match slot.load(Ordering::Relaxed) {
            EMPTY => {
                let key = MacedonKey::of_node(node, self.mode);
                slot.store(key.0 as u64, Ordering::Relaxed);
                key
            }
            v => MacedonKey(v as u32),
        }
    }
}

impl fmt::Debug for NodeKeys {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeKeys")
            .field("mode", &self.mode)
            .field("slots", &self.slots.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// DSL builtin semantics — shared by the IR interpreter and the generated
// Rust back end so `ring_dist(...)` and friends evaluate bit-for-bit
// identically under both translators. All are total: a null operand
// yields the documented sentinel instead of a runtime error, so specs
// may call them before their neighbor state is populated.
// ---------------------------------------------------------------------------

/// `ring_dist(a, b)`: symmetric ring distance between two keys. A null
/// operand yields `RING` (2^32) — larger than any real distance, so a
/// null candidate loses every "closest" comparison.
pub fn dsl_ring_dist(a: Option<MacedonKey>, b: Option<MacedonKey>) -> i64 {
    match (a, b) {
        (Some(a), Some(b)) => a.ring_distance(b) as i64,
        _ => RING as i64,
    }
}

/// `ring_between(x, lo, hi)`: true iff `x` lies in the half-open
/// clockwise interval `(lo, hi]`. Any null operand yields false.
pub fn dsl_ring_between(
    x: Option<MacedonKey>,
    lo: Option<MacedonKey>,
    hi: Option<MacedonKey>,
) -> bool {
    match (x, lo, hi) {
        (Some(x), Some(lo), Some(hi)) => x.in_open_closed(lo, hi),
        _ => false,
    }
}

/// `digit(key, i, base)`: digit `i` (0 = most significant) of the key
/// written in `base`, which must be a power-of-two radix whose bit width
/// divides 32 (2, 4, 16, 256, 65536). A null key, an unusable base or an
/// out-of-range index yields 0.
pub fn dsl_digit(key: Option<MacedonKey>, i: i64, base: i64) -> i64 {
    let Some(k) = key else { return 0 };
    if !(2..=65536).contains(&base) {
        return 0;
    }
    let base = base as u32;
    if !base.is_power_of_two() {
        return 0;
    }
    let bits = base.trailing_zeros();
    if 32 % bits != 0 || i < 0 || i as u32 >= 32 / bits {
        return 0;
    }
    k.digit(i as u32, bits) as i64
}

/// `prefix_len(a, b)`: length of the shared hex-digit prefix (bits = 4,
/// the Pastry default radix). A null operand yields 0.
pub fn dsl_prefix_len(a: Option<MacedonKey>, b: Option<MacedonKey>) -> i64 {
    match (a, b) {
        (Some(a), Some(b)) => a.shared_prefix_len(b, 4) as i64,
        _ => 0,
    }
}

/// `key + signed offset`, wrapping on the 2^32 ring — the DSL's
/// `my_key + pow2` finger targets. i64 wrapping is mod 2^64 and 2^32
/// divides 2^64, so the final `rem_euclid` still yields the true sum
/// mod 2^32.
pub fn dsl_key_add(k: MacedonKey, off: i64) -> MacedonKey {
    MacedonKey((k.0 as i64).wrapping_add(off).rem_euclid(RING as i64) as u32)
}

/// `owner_of(key, list)`: the list member that owns `key` — the node
/// whose key is clockwise-nearest at-or-after `key`, ties broken by node
/// id so the choice is deterministic. Member keys come from the world's
/// `keys` table. A null key or an empty list yields null.
pub fn dsl_owner_of(key: Option<MacedonKey>, list: &[NodeId], keys: &NodeKeys) -> Option<NodeId> {
    let key = key?;
    list.iter()
        .copied()
        .min_by_key(|&n| (key.distance_to(keys.key_of(n)), n.0))
}

impl fmt::Debug for MacedonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:08x}", self.0)
    }
}

impl fmt::Display for MacedonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addressing_modes() {
        let n = NodeId(42);
        assert_eq!(MacedonKey::of_node(n, Addressing::Ip), MacedonKey(42));
        let h = MacedonKey::of_node(n, Addressing::Hash);
        assert_ne!(h, MacedonKey(42));
        // Deterministic.
        assert_eq!(h, MacedonKey::of_node(n, Addressing::Hash));
    }

    #[test]
    fn node_keys_fill_lazily_and_match_of_node() {
        let keys = NodeKeys::new(Addressing::Hash, 4);
        assert!(keys
            .slots
            .iter()
            .all(|s| s.load(Ordering::Relaxed) == EMPTY));
        let k = keys.key_of(NodeId(2));
        assert_eq!(k, MacedonKey::of_node(NodeId(2), Addressing::Hash));
        assert_eq!(keys.slots[2].load(Ordering::Relaxed), k.0 as u64);
        assert_eq!(keys.slots[1].load(Ordering::Relaxed), EMPTY);
        // Beyond the table: derived on the spot, nothing stored.
        let far = NodeId(1_000);
        assert_eq!(keys.key_of(far), MacedonKey::of_node(far, Addressing::Hash));
        // Ip addressing needs no slots at all.
        let ip = NodeKeys::new(Addressing::Ip, 4);
        assert!(ip.slots.is_empty());
        assert_eq!(ip.key_of(NodeId(3)), MacedonKey(3));
    }

    #[test]
    fn distance_wraps() {
        let a = MacedonKey(u32::MAX - 10);
        let b = MacedonKey(10);
        assert_eq!(a.distance_to(b), 21);
        assert_eq!(b.distance_to(a), RING - 21);
        assert_eq!(a.distance_to(a), 0);
    }

    #[test]
    fn in_open_interval() {
        let a = MacedonKey(100);
        let b = MacedonKey(200);
        assert!(MacedonKey(150).in_open(a, b));
        assert!(!MacedonKey(100).in_open(a, b));
        assert!(!MacedonKey(200).in_open(a, b));
        assert!(!MacedonKey(250).in_open(a, b));
        // Wrapping interval.
        let w1 = MacedonKey(u32::MAX - 5);
        let w2 = MacedonKey(5);
        assert!(MacedonKey(0).in_open(w1, w2));
        assert!(MacedonKey(u32::MAX).in_open(w1, w2));
        assert!(!MacedonKey(100).in_open(w1, w2));
    }

    #[test]
    fn in_open_closed_interval() {
        let a = MacedonKey(100);
        let b = MacedonKey(200);
        assert!(MacedonKey(200).in_open_closed(a, b));
        assert!(!MacedonKey(100).in_open_closed(a, b));
        // Degenerate interval = full ring.
        assert!(MacedonKey(7).in_open_closed(a, a));
    }

    #[test]
    fn open_degenerate_excludes_endpoint() {
        let a = MacedonKey(9);
        assert!(!a.in_open(a, a));
        assert!(MacedonKey(10).in_open(a, a));
    }

    #[test]
    fn plus_pow2_wraps() {
        let k = MacedonKey(u32::MAX);
        assert_eq!(k.plus_pow2(0), MacedonKey(0));
        assert_eq!(MacedonKey(0).plus_pow2(31), MacedonKey(1 << 31));
    }

    #[test]
    fn digits() {
        let k = MacedonKey(0x1234_ABCD);
        assert_eq!(k.digit(0, 4), 0x1);
        assert_eq!(k.digit(1, 4), 0x2);
        assert_eq!(k.digit(7, 4), 0xD);
        assert_eq!(k.digit(0, 8), 0x12);
        assert_eq!(k.digit(3, 8), 0xCD);
    }

    #[test]
    fn shared_prefix() {
        let a = MacedonKey(0x1234_0000);
        let b = MacedonKey(0x1235_0000);
        assert_eq!(a.shared_prefix_len(b, 4), 3);
        assert_eq!(a.shared_prefix_len(a, 4), 8);
        let c = MacedonKey(0x9234_0000);
        assert_eq!(a.shared_prefix_len(c, 4), 0);
    }

    #[test]
    fn ring_distance_symmetric() {
        let a = MacedonKey(10);
        let b = MacedonKey(u32::MAX - 9);
        assert_eq!(a.ring_distance(b), 20);
        assert_eq!(b.ring_distance(a), 20);
        assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn name_keys_spread() {
        let k1 = MacedonKey::of_name("group-1");
        let k2 = MacedonKey::of_name("group-2");
        assert_ne!(k1, k2);
    }

    #[test]
    fn dsl_helpers_null_sentinels() {
        let k = Some(MacedonKey(7));
        assert_eq!(dsl_ring_dist(None, k), RING as i64);
        assert_eq!(dsl_ring_dist(k, None), RING as i64);
        assert!(!dsl_ring_between(None, k, k));
        assert!(!dsl_ring_between(k, None, k));
        assert!(!dsl_ring_between(k, k, None));
        assert_eq!(dsl_digit(None, 0, 16), 0);
        assert_eq!(dsl_prefix_len(None, k), 0);
        let ip = NodeKeys::new(Addressing::Ip, 0);
        assert_eq!(dsl_owner_of(None, &[NodeId(1)], &ip), None);
        assert_eq!(dsl_owner_of(k, &[], &ip), None);
    }

    #[test]
    fn dsl_digit_rejects_bad_radix() {
        let k = Some(MacedonKey(0x1234_ABCD));
        assert_eq!(dsl_digit(k, 0, 0), 0);
        assert_eq!(dsl_digit(k, 0, 1), 0);
        assert_eq!(dsl_digit(k, 0, 3), 0);
        assert_eq!(dsl_digit(k, 0, 8), 0); // 3 bits does not divide 32
        assert_eq!(dsl_digit(k, -1, 16), 0);
        assert_eq!(dsl_digit(k, 8, 16), 0);
        assert_eq!(dsl_digit(k, 0, 16), 0x1);
        assert_eq!(dsl_digit(k, 7, 16), 0xD);
        assert_eq!(dsl_digit(k, 1, 256), 0x34);
    }

    #[test]
    fn dsl_owner_of_clockwise_at_or_after() {
        // Ip addressing: node id is the key. Owner of 10 among
        // {5, 10, 20} is 10 itself (distance 0); owner of 11 is 20.
        let list = [NodeId(5), NodeId(10), NodeId(20)];
        let ip = NodeKeys::new(Addressing::Ip, 0);
        let own = |k: u32| dsl_owner_of(Some(MacedonKey(k)), &list, &ip);
        assert_eq!(own(10), Some(NodeId(10)));
        assert_eq!(own(11), Some(NodeId(20)));
        // Wraps past the top of the ring back to the smallest id.
        assert_eq!(own(21), Some(NodeId(5)));
        assert_eq!(own(u32::MAX), Some(NodeId(5)));
    }
}
