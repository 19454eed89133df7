//! Adversarial decode hardening for the replication wire protocol.
//!
//! A Byzantine peer controls every byte a replica reads off the network,
//! so `Message`, `Sealed`, and `ReplicaSnapshot` decoding must treat the
//! buffer as hostile: random garbage, truncations of valid encodings, and
//! single-byte corruptions may all produce `DecodeError` (or a failed MAC
//! check) but must never panic, hang, or allocate absurdly.

use peats_auth::KeyTable;
use peats_codec::{Decode, DecodeError, Encode};
use peats_policy::OpCall;
use peats_replication::{
    Message, OpResult, ReplicaSnapshot, Request, RequestOp, Sealed, WaitKind, WalRecord,
};
use peats_tuplespace::{template, tuple, BucketDigest, BucketKey, Value};
use proptest::prelude::*;

fn sample_request(client: u64, req_id: u64) -> Request {
    Request {
        client,
        req_id,
        op: RequestOp::Call(OpCall::out(tuple!["JOB", 7, "payload"]).into_owned()),
    }
}

/// A spread of valid messages covering every wire tag that has a
/// convenient constructor, so truncation/corruption fuzzing starts from
/// realistic buffers rather than only random ones.
fn sample_messages() -> Vec<Message> {
    let req = sample_request(100, 1);
    let digest = peats_auth::sha256(b"digest");
    vec![
        Message::Request(req.clone()),
        Message::PrePrepare {
            view: 0,
            seq: 1,
            requests: vec![req.clone(), sample_request(101, 9)],
        },
        Message::Prepare {
            view: 0,
            seq: 1,
            digest,
            replica: 2,
        },
        Message::Commit {
            view: 1,
            seq: 3,
            digest,
            replica: 3,
        },
        Message::Reply {
            view: 0,
            seq: 4,
            req_id: 1,
            replica: 1,
            result: OpResult::Tuple(Some(tuple!["JOB", 7, "payload"])),
        },
        Message::Reply {
            view: 0,
            seq: 5,
            req_id: 2,
            replica: 0,
            result: OpResult::Denied("no".to_owned()),
        },
        Message::ViewChange {
            new_view: 2,
            last_exec: 5,
            stable_seq: 4,
            stable_digest: digest,
            prepared: vec![(5, vec![req.clone()])],
            replica: 1,
        },
        Message::NewView {
            view: 2,
            assignments: vec![(6, vec![req])],
        },
        Message::Checkpoint {
            seq: 8,
            digest,
            replica: 0,
        },
        Message::Request(Request {
            client: 7,
            req_id: 3,
            op: RequestOp::Call(OpCall::take(template!["JOB", ?x, _]).into_owned()),
        }),
        Message::Request(Request {
            client: 8,
            req_id: 6,
            op: RequestOp::Register {
                template: template!["JOB", ?x, _],
                kind: WaitKind::Take,
                persistent: false,
            },
        }),
        Message::Request(Request {
            client: 8,
            req_id: 7,
            op: RequestOp::Register {
                template: template!["EVT", ?x],
                kind: WaitKind::Rd,
                persistent: false,
            },
        }),
        Message::Request(Request {
            client: 8,
            req_id: 8,
            op: RequestOp::Cancel { target: 6 },
        }),
        Message::Reply {
            view: 0,
            seq: 6,
            req_id: 6,
            replica: 2,
            result: OpResult::Registered,
        },
        Message::Wake {
            req_id: 6,
            seq: 9,
            result: OpResult::Tuple(Some(tuple!["JOB", 7, "payload"])),
            replica: 1,
        },
        Message::ReadRequest {
            client: 100,
            req_id: 4,
            op: OpCall::rdp(template!["JOB", ?x, _]).into_owned(),
            watermark: 12,
        },
        Message::ReadRequest {
            client: 101,
            req_id: 5,
            op: OpCall::count(template!["JOB", ?x, _]).into_owned(),
            watermark: 0,
        },
        Message::ReadReply {
            req_id: 4,
            seq: 12,
            digest: OpResult::Tuple(Some(tuple!["JOB", 7, "payload"])).digest(),
            result: OpResult::Tuple(Some(tuple!["JOB", 7, "payload"])),
            replica: 2,
        },
        Message::ReadReply {
            req_id: 5,
            seq: 13,
            digest: OpResult::Count(3).digest(),
            result: OpResult::Count(3),
            replica: 3,
        },
    ]
}

/// WAL records as the durable store writes them: executed batches and
/// checkpoint markers. A crashed disk hands these back corrupted, so the
/// decoder is as adversarial a surface as the network.
fn sample_wal_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Batch {
            seq: 1,
            batch: vec![sample_request(100, 1), sample_request(101, 2)],
        },
        WalRecord::Batch {
            seq: u64::MAX,
            batch: Vec::new(),
        },
        WalRecord::Checkpoint {
            seq: 8,
            digest: peats_auth::sha256(b"checkpoint"),
        },
    ]
}

/// Hash-tree nodes as shipped during divergence localization: per-bucket
/// digests over every key shape (channel-less, and each channel type).
fn sample_bucket_digests() -> Vec<BucketDigest> {
    let mk = |arity: u64, channel: Option<Value>, seed: &[u8], entries: u64| BucketDigest {
        key: BucketKey { arity, channel },
        digest: peats_auth::sha256(seed),
        entries,
    };
    vec![
        mk(0, None, b"empty", 0),
        mk(3, Some(Value::from("JOB")), b"jobs", 41),
        mk(2, Some(Value::Int(-7)), b"ints", 1),
        mk(5, Some(Value::Bytes(vec![0, 255, 128])), b"bytes", 9),
        mk(1, Some(Value::Null), b"null", u64::MAX),
    ]
}

/// Opens `frame` both ways — [`Sealed::open_bytes`] in place, and the owned
/// `from_bytes` + `open` it stands in for — and insists they agree.
fn open_both_ways(receiver: &KeyTable, frame: &[u8]) -> Option<(u64, Message)> {
    let in_place = Sealed::open_bytes(receiver, frame);
    let owned = Sealed::from_bytes(frame)
        .ok()
        .and_then(|sealed| sealed.open(receiver));
    assert_eq!(in_place, owned, "the two open paths disagree on {frame:?}");
    in_place
}

proptest! {
    /// Arbitrary buffers never panic any of the decoders — network wire
    /// shapes and durable on-disk shapes alike.
    #[test]
    fn random_buffers_decode_without_panicking(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::from_bytes(&bytes);
        let _ = Sealed::from_bytes(&bytes);
        let _ = open_both_ways(&KeyTable::new(2, b"fuzz-master".to_vec()), &bytes);
        let _ = ReplicaSnapshot::from_bytes(&bytes);
        let _ = WalRecord::from_bytes(&bytes);
        let _ = BucketDigest::from_bytes(&bytes);
    }

    /// Every proper prefix of a valid WAL record is rejected cleanly; the
    /// full buffer round-trips; single-byte corruption never panics.
    #[test]
    fn truncated_or_corrupt_wal_records_error_cleanly(which in 0usize..3, pos in 0usize..10_000, xor in 0u8..=255) {
        let rec = &sample_wal_records()[which];
        let bytes = rec.to_bytes();
        let cut = pos % bytes.len().max(1);
        prop_assert!(
            WalRecord::from_bytes(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
        prop_assert_eq!(&WalRecord::from_bytes(&bytes).expect("full buffer"), rec);
        if xor != 0 {
            let mut corrupt = bytes.clone();
            let pos = pos % corrupt.len();
            corrupt[pos] ^= xor;
            let _ = WalRecord::from_bytes(&corrupt);
        }
    }

    /// Hash-tree nodes: every proper prefix rejected, full buffer
    /// round-trips, corruption never panics.
    #[test]
    fn truncated_or_corrupt_bucket_digests_error_cleanly(which in 0usize..5, pos in 0usize..10_000, xor in 0u8..=255) {
        let node = &sample_bucket_digests()[which];
        let bytes = node.to_bytes();
        let cut = pos % bytes.len().max(1);
        prop_assert!(
            BucketDigest::from_bytes(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
        prop_assert_eq!(&BucketDigest::from_bytes(&bytes).expect("full buffer"), node);
        if xor != 0 {
            let mut corrupt = bytes.clone();
            let pos = pos % corrupt.len();
            corrupt[pos] ^= xor;
            let _ = BucketDigest::from_bytes(&corrupt);
        }
    }

    /// Every proper prefix of a valid message is rejected cleanly; the
    /// full buffer round-trips.
    #[test]
    fn truncated_messages_error_cleanly(which in 0usize..19, cut in 0usize..10_000) {
        let msg = &sample_messages()[which];
        let bytes = msg.to_bytes();
        let cut = cut % bytes.len().max(1);
        prop_assert!(
            Message::from_bytes(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
        prop_assert_eq!(&Message::from_bytes(&bytes).expect("full buffer"), msg);
    }

    /// Single-byte corruption never panics the message decoder.
    #[test]
    fn corrupted_messages_never_panic(which in 0usize..19, pos in 0usize..10_000, xor in 1u8..=255) {
        let bytes = sample_messages()[which].to_bytes();
        let mut bytes = bytes;
        let pos = pos % bytes.len();
        bytes[pos] ^= xor;
        let _ = Message::from_bytes(&bytes);
    }

    /// Sealed envelopes: truncations and corruptions of a real sealed
    /// message either fail to decode or fail the MAC check — tampering is
    /// never silently accepted, and nothing panics.
    #[test]
    fn tampered_sealed_envelopes_are_rejected(pos in 0usize..10_000, xor in 1u8..=255) {
        let keys = KeyTable::new(1, b"fuzz-master".to_vec());
        let sealed = Sealed::seal(&keys, 2, &Message::Checkpoint {
            seq: 8,
            digest: peats_auth::sha256(b"d"),
            replica: 1,
        });
        let bytes = sealed.to_bytes();
        let receiver = KeyTable::new(2, b"fuzz-master".to_vec());

        // Truncation.
        let cut = pos % bytes.len();
        prop_assert!(Sealed::from_bytes(&bytes[..cut]).is_err());
        prop_assert!(open_both_ways(&receiver, &bytes[..cut]).is_none());

        // Corruption: decoding may succeed, opening must not.
        let mut corrupt = bytes.clone();
        let pos = pos % corrupt.len();
        corrupt[pos] ^= xor;
        if let Ok(s) = Sealed::from_bytes(&corrupt) {
            prop_assert!(
                s.open(&receiver).is_none(),
                "tampered byte {pos} survived the MAC check"
            );
        }
        prop_assert!(open_both_ways(&receiver, &corrupt).is_none());

        // A byte too many is a different frame, not a frame and a byte.
        let mut longer = bytes.clone();
        longer.push(xor);
        prop_assert!(open_both_ways(&receiver, &longer).is_none());

        // The untampered envelope still opens.
        let reopened = Sealed::from_bytes(&bytes).expect("valid envelope");
        prop_assert!(reopened.open(&receiver).is_some());
        prop_assert!(open_both_ways(&receiver, &bytes).is_some());
    }

    /// Length-prefixed collections inside a snapshot cannot trigger huge
    /// allocations: a tiny buffer claiming millions of elements errors
    /// out before any reservation.
    #[test]
    fn absurd_length_prefixes_are_rejected(claim in 1_000_000u32..u32::MAX) {
        let mut bytes = Vec::new();
        claim.encode(&mut bytes); // element count far beyond the buffer
        bytes.extend_from_slice(&[0u8; 16]);
        prop_assert!(ReplicaSnapshot::from_bytes(&bytes).is_err());
        prop_assert!(Message::from_bytes(&bytes).is_err());
    }
}

/// An envelope header claiming a 4 GiB body over a few real bytes is
/// refused on the length check itself — before the body is read or any
/// buffer is sized from the claim.
#[test]
fn truncated_envelope_claiming_4gib_is_rejected_before_allocation() {
    let keys = KeyTable::new(1, b"fuzz-master".to_vec());
    let mut bytes = Sealed::seal(&keys, 2, &sample_messages()[0]).to_bytes();
    bytes.truncate(8 + 32 + 4 + 3); // from, mac, length prefix, 3 body bytes
    bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(Sealed::from_bytes(&bytes), Err(DecodeError::LengthOverflow));
    let receiver = KeyTable::new(2, b"fuzz-master".to_vec());
    assert_eq!(open_both_ways(&receiver, &bytes), None);
}

/// A `Register` with its `persistent` flag set encodes, but no decoder
/// takes it: registrations are one-shot, and a flag a peer sets is refused
/// rather than ignored.
#[test]
fn a_register_with_the_persistent_flag_set_is_refused() {
    let register = Message::Request(Request {
        client: 8,
        req_id: 7,
        op: RequestOp::Register {
            template: template!["EVT", ?x],
            kind: WaitKind::Rd,
            persistent: true,
        },
    });
    assert!(matches!(
        Message::from_bytes(&register.to_bytes()),
        Err(DecodeError::BadTag { tag: 1, .. })
    ));
    let keys = KeyTable::new(1, b"fuzz-master".to_vec());
    let frame = Sealed::seal(&keys, 2, &register).to_bytes();
    let receiver = KeyTable::new(2, b"fuzz-master".to_vec());
    assert_eq!(open_both_ways(&receiver, &frame), None);
}
