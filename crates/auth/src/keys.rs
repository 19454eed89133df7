//! Pairwise symmetric keys — the "authenticated channels" of §4.
//!
//! The model requires that a process cannot impersonate another towards the
//! reference monitor (§2.1); the paper suggests IPSec/SSL. We simulate that
//! with pairwise HMAC keys derived deterministically from a deployment
//! secret: node `a` and node `b` share `KDF(master, min(a,b), max(a,b))`.
//! Byzantine nodes know only their own keys, so MACs from other identities
//! are unforgeable (under HMAC's assumptions).

use crate::hmac::{hmac_sha256, verify_mac, HmacKey};
use crate::sha256::Digest;
use std::sync::{Arc, OnceLock};

/// Logical identity on the wire (clients and replicas share a namespace;
/// see `peats-replication` for the id-assignment convention).
pub type NodeId = u64;

/// Derives the pairwise key for `(a, b)` from a deployment master secret.
/// Symmetric in its arguments.
pub fn pair_key(master: &[u8], a: NodeId, b: NodeId) -> Digest {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut material = Vec::with_capacity(16);
    material.extend_from_slice(&lo.to_be_bytes());
    material.extend_from_slice(&hi.to_be_bytes());
    hmac_sha256(master, &material)
}

/// Peers whose keyed state a [`KeyTable`] keeps; a node talking to more
/// derives the rest per message, exactly as for a first message.
const CACHE_SLOTS: usize = 256;

/// One node's key table: its identity plus the deployment master from which
/// it derives the keys it shares with peers.
///
/// A real deployment would provision each node only with its own pairwise
/// keys; deriving from the master here is a simulation convenience. The
/// Byzantine-node simulations never hand the adversary other nodes' key
/// tables, preserving the unforgeability assumption.
///
/// Each pair key is derived once and kept as an [`HmacKey`] (both pads
/// already hashed), so a MAC costs only the message's own compressions plus
/// one. The cache is insert-only and written under one rule: **a peer gets
/// an entry when this node signs for it, or after a MAC claimed to be from
/// it verified** — never on a failed verification, so a Byzantine sender
/// spraying forged `from` ids cannot grow it. Reads take no lock; clones
/// share the cache.
#[derive(Clone, Debug)]
pub struct KeyTable {
    me: NodeId,
    master: Vec<u8>,
    /// Open-addressed by `peer % CACHE_SLOTS` with linear probing. Slots
    /// are only ever filled, so the first empty slot ends a probe.
    cache: Arc<[OnceLock<(NodeId, HmacKey)>]>,
}

impl KeyTable {
    /// Key table for node `me` under deployment secret `master`.
    pub fn new(me: NodeId, master: impl Into<Vec<u8>>) -> Self {
        KeyTable {
            me,
            master: master.into(),
            cache: (0..CACHE_SLOTS).map(|_| OnceLock::new()).collect(),
        }
    }

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// MAC for a message from this node to `peer`.
    pub fn sign_for(&self, peer: NodeId, message: &[u8]) -> Digest {
        if let Some(key) = self.cached(peer) {
            return key.mac(message);
        }
        let key = self.derive(peer);
        self.remember(peer, &key);
        key.mac(message)
    }

    /// Verifies a MAC on a message claimed to come from `peer`.
    pub fn verify_from(&self, peer: NodeId, message: &[u8], mac: &Digest) -> bool {
        if let Some(key) = self.cached(peer) {
            return verify_mac(&key.mac(message), mac);
        }
        let key = self.derive(peer);
        let ok = verify_mac(&key.mac(message), mac);
        if ok {
            self.remember(peer, &key);
        }
        ok
    }

    /// Number of peers whose keyed state is cached.
    pub fn cached_peers(&self) -> usize {
        self.cache
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    fn derive(&self, peer: NodeId) -> HmacKey {
        HmacKey::new(&pair_key(&self.master, self.me, peer))
    }

    /// The slots `peer` may occupy, in probe order.
    fn probe(&self, peer: NodeId) -> impl Iterator<Item = &OnceLock<(NodeId, HmacKey)>> {
        let (wrapped, from_home) = self.cache.split_at((peer % CACHE_SLOTS as u64) as usize);
        from_home.iter().chain(wrapped)
    }

    fn cached(&self, peer: NodeId) -> Option<&HmacKey> {
        for slot in self.probe(peer) {
            match slot.get()? {
                (id, key) if *id == peer => return Some(key),
                _ => continue,
            }
        }
        None
    }

    /// Caches `key` for `peer` unless the table is full.
    fn remember(&self, peer: NodeId, key: &HmacKey) {
        for slot in self.probe(peer) {
            // Either fills an empty slot, or finds it taken: by a racing
            // insert of the same peer (done) or by another peer (move on).
            if slot.get_or_init(|| (peer, key.clone())).0 == peer {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_is_symmetric() {
        assert_eq!(pair_key(b"m", 1, 2), pair_key(b"m", 2, 1));
        assert_ne!(pair_key(b"m", 1, 2), pair_key(b"m", 1, 3));
        assert_ne!(pair_key(b"m1", 1, 2), pair_key(b"m2", 1, 2));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let alice = KeyTable::new(1, b"deployment".to_vec());
        let bob = KeyTable::new(2, b"deployment".to_vec());
        let mac = alice.sign_for(2, b"hello");
        assert!(bob.verify_from(1, b"hello", &mac));
        assert!(!bob.verify_from(1, b"hullo", &mac));
        assert!(!bob.verify_from(3, b"hello", &mac));
    }

    #[test]
    fn impersonation_fails() {
        // Mallory (id 3) tries to forge a MAC from Alice (id 1) to Bob.
        let mallory = KeyTable::new(3, b"deployment".to_vec());
        let bob = KeyTable::new(2, b"deployment".to_vec());
        // Mallory only holds keys involving id 3: her best effort is to sign
        // with her own key and claim it is Alice's.
        let forged = mallory.sign_for(2, b"transfer all funds");
        assert!(!bob.verify_from(1, b"transfer all funds", &forged));
    }

    #[test]
    fn warm_sign_is_three_compressions_and_cold_pays_derivation_once() {
        use crate::sha256::tests::compressions_in;
        let keys = KeyTable::new(1, b"deployment".to_vec());
        let body = [0x42u8; 100];
        // Cold: pair_key is an HMAC over 16 bytes (4), hashing its pads is
        // 2, and the MAC itself ⌈(100 + 9) / 64⌉ + 1 = 3.
        assert_eq!(
            compressions_in(|| {
                keys.sign_for(2, &body);
            }),
            9
        );
        assert_eq!(keys.cached_peers(), 1);
        for _ in 0..3 {
            assert_eq!(
                compressions_in(|| {
                    keys.sign_for(2, &body);
                }),
                3
            );
        }
        // A verified MAC warms the receiving side the same way.
        let bob = KeyTable::new(2, b"deployment".to_vec());
        let mac = keys.sign_for(2, &body);
        assert!(bob.verify_from(1, &body, &mac));
        assert_eq!(
            compressions_in(|| {
                bob.verify_from(1, &body, &mac);
            }),
            3
        );
    }

    #[test]
    fn forged_senders_cannot_grow_the_cache() {
        let bob = KeyTable::new(2, b"deployment".to_vec());
        let alice = KeyTable::new(1, b"deployment".to_vec());
        assert!(bob.verify_from(1, b"hi", &alice.sign_for(2, b"hi")));
        assert_eq!(bob.cached_peers(), 1);
        for forged in 1_000..11_000u64 {
            assert!(!bob.verify_from(forged, b"hi", &[0x5a; 32]));
        }
        // Nor does a bad MAC under a real peer's id evict or add anything.
        assert!(!bob.verify_from(1, b"hi", &[0x5a; 32]));
        assert_eq!(bob.cached_peers(), 1);
    }

    #[test]
    fn colliding_and_overflowing_peers_still_get_the_right_key() {
        let slots = CACHE_SLOTS as u64;
        let hub = KeyTable::new(0, b"deployment".to_vec());
        // 1, 1 + slots, 1 + 2·slots … share a home slot; going past the
        // table's capacity leaves the overflow uncached but correct.
        let peers: Vec<u64> = (0..slots + 8).map(|i| 1 + i * slots).collect();
        for _ in 0..2 {
            for &peer in &peers {
                let mac = hub.sign_for(peer, b"m");
                assert_eq!(mac, hmac_sha256(&pair_key(b"deployment", 0, peer), b"m"));
                assert!(KeyTable::new(peer, b"deployment".to_vec()).verify_from(0, b"m", &mac));
            }
        }
        assert_eq!(hub.cached_peers(), CACHE_SLOTS);
    }

    #[test]
    fn clones_share_the_cache_across_threads() {
        fn assert_send_sync<T: Clone + Send + Sync>() {}
        assert_send_sync::<KeyTable>();
        let keys = KeyTable::new(1, b"deployment".to_vec());
        let expected = hmac_sha256(&pair_key(b"deployment", 1, 2), b"m");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let keys = keys.clone();
                s.spawn(move || assert_eq!(keys.sign_for(2, b"m"), expected));
            }
        });
        assert_eq!(keys.cached_peers(), 1);
    }
}
