//! The per-peer keyed states of [`KeyTable`] must be invisible on the wire:
//! every MAC equals the textbook one-shot HMAC under the derived pair key.

use peats_auth::{hmac_sha256, pair_key, KeyTable};
use proptest::prelude::*;

proptest! {
    /// Random masters (shorter and longer than a SHA-256 block) and ids,
    /// every message length 0..=300 — across the 55/56, 63/64 and 119/120
    /// padding boundaries — cold on the first length and warm after.
    #[test]
    fn cached_state_mac_equals_oneshot_hmac(
        master in proptest::collection::vec(any::<u8>(), 0..100),
        a in any::<u64>(),
        b in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 300..301),
    ) {
        let sender = KeyTable::new(a, master.clone());
        let receiver = KeyTable::new(b, master.clone());
        let key = pair_key(&master, a, b);
        for len in 0..=data.len() {
            let mac = sender.sign_for(b, &data[..len]);
            prop_assert_eq!(mac, hmac_sha256(&key, &data[..len]), "len {}", len);
            prop_assert!(receiver.verify_from(a, &data[..len], &mac), "len {}", len);
        }
    }
}
