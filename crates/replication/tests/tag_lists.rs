//! The tag list every `wire!` enum carries (`Tagged::TAGS`) is the whole
//! set of leading bytes its decoder accepts: any other byte is a `BadTag`,
//! and no bytes at all after a listed tag make a decoder panic.

use peats_codec::{Decode, DecodeError, Tagged};
use peats_policy::OpCall;
use peats_replication::{Message, OpResult, RequestOp, WaitKind, WalRecord};
use peats_tuplespace::{Field, TypeTag, Value};
use proptest::prelude::*;
use std::fmt::Debug;

/// Tags are listed once each, in ascending order, and every byte outside
/// the list is refused as a bad tag of `T` — alone, and with a tail that
/// would decode as the fields of a variant.
fn unlisted_bytes_are_bad_tags<T: Decode + Tagged + Debug>() {
    assert!(!T::TAGS.is_empty());
    assert!(T::TAGS.windows(2).all(|w| w[0] < w[1]), "{:?}", T::TAGS);
    for tag in (0..=u8::MAX).filter(|b| !T::TAGS.contains(b)) {
        for input in [vec![tag], [tag].into_iter().chain([0; 64]).collect()] {
            match T::from_bytes(&input) {
                Err(DecodeError::BadTag { tag: bad, .. }) => assert_eq!(bad, tag),
                other => panic!("tag {tag} of {:?} decoded to {other:?}", T::TAGS),
            }
        }
    }
}

/// Decodes `tail` behind `T`'s `pick`-th listed tag; any result but a panic
/// will do.
fn decode_behind_tag<T: Decode + Tagged>(pick: usize, tail: &[u8]) {
    let mut input = vec![T::TAGS[pick % T::TAGS.len()]];
    input.extend_from_slice(tail);
    let _ = T::from_bytes(&input);
}

#[test]
fn every_byte_outside_a_tag_list_is_a_bad_tag() {
    unlisted_bytes_are_bad_tags::<Message>();
    unlisted_bytes_are_bad_tags::<OpResult>();
    unlisted_bytes_are_bad_tags::<RequestOp>();
    unlisted_bytes_are_bad_tags::<WaitKind>();
    unlisted_bytes_are_bad_tags::<WalRecord>();
    unlisted_bytes_are_bad_tags::<Value>();
    unlisted_bytes_are_bad_tags::<TypeTag>();
    unlisted_bytes_are_bad_tags::<Field>();
    unlisted_bytes_are_bad_tags::<OpCall<'static>>();
}

proptest! {
    #[test]
    fn random_tails_behind_a_listed_tag_never_panic(
        pick in any::<usize>(),
        tail in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        decode_behind_tag::<Message>(pick, &tail);
        decode_behind_tag::<OpResult>(pick, &tail);
        decode_behind_tag::<RequestOp>(pick, &tail);
        decode_behind_tag::<WaitKind>(pick, &tail);
        decode_behind_tag::<WalRecord>(pick, &tail);
        decode_behind_tag::<Value>(pick, &tail);
        decode_behind_tag::<TypeTag>(pick, &tail);
        decode_behind_tag::<Field>(pick, &tail);
        decode_behind_tag::<OpCall<'static>>(pick, &tail);
    }
}
