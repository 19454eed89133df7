//! The wire and disk encodings, pinned byte for byte.
//!
//! Round-trip tests pass for an encoder and a decoder that are wrong in the
//! same way; these samples pass only for the exact bytes replicas, clients
//! and data directories already exchange. One sample per variant of every
//! tagged type (each `Message` tag, every `OpResult`, `RequestOp`,
//! `WaitKind`, `WalRecord`, `Value`, `Field` and `OpCall` variant) plus a
//! non-empty `ReplicaSnapshot` and a `BucketDigest`. Each sample must also
//! decode back to itself. A change to any of these strings is a change of
//! the protocol: it bumps `PROTOCOL_VERSION` (or, for the files of a data
//! directory, their format version).

use peats_codec::{Decode, Encode};
use peats_policy::OpCall;
use peats_replication::{
    Message, OpResult, Registration, ReplicaSnapshot, Request, RequestOp, WaitKind, WalRecord,
};
use peats_tuplespace::{
    template, tuple, BucketDigest, BucketKey, Field, SpaceSnapshot, Template, TypeTag, Value,
};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Encodes `v`, checks that the bytes decode back to `v`, and returns them
/// as hex under `name`.
fn pin<T: Encode + Decode + PartialEq + Debug>(name: &str, v: T) -> (String, String) {
    let bytes = v.to_bytes();
    assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(&v), "{name} round trip");
    (name.to_owned(), hex(&bytes))
}

fn call() -> Request {
    Request::call(9, 3, OpCall::cas(template!["D", ?x], tuple!["D", 1]))
}

fn snapshot() -> ReplicaSnapshot {
    ReplicaSnapshot {
        space: SpaceSnapshot {
            entries: vec![(0, tuple!["A", 1]), (4, tuple!["B"])],
            next_seq: 5,
            rng_state: 6,
        },
        client_registry: vec![(4, 100), (5, 101)],
        replies: vec![(
            100,
            vec![(1, 1, OpResult::Done), (2, 3, OpResult::Count(7))],
        )],
        registrations: vec![(
            2,
            Registration {
                client: 101,
                req_id: 2,
                template: template!["E", _],
                kind: WaitKind::Take,
            },
        )],
        next_reg: 3,
    }
}

fn samples() -> Vec<(String, String)> {
    let d = [0xD1; 32];
    let tuple_result = OpResult::Tuple(Some(tuple!["D", 1]));
    vec![
        // Message, one sample per tag.
        pin("Message::Request", Message::Request(call())),
        pin(
            "Message::PrePrepare",
            Message::PrePrepare {
                view: 1,
                seq: 7,
                requests: vec![call(), Request::call(9, 4, OpCall::out(tuple!["E"]))],
            },
        ),
        pin(
            "Message::Prepare",
            Message::Prepare {
                view: 1,
                seq: 7,
                digest: d,
                replica: 2,
            },
        ),
        pin(
            "Message::Commit",
            Message::Commit {
                view: 1,
                seq: 7,
                digest: d,
                replica: 3,
            },
        ),
        pin(
            "Message::Reply",
            Message::Reply {
                view: 1,
                seq: 7,
                req_id: 3,
                replica: 0,
                result: OpResult::Count(2),
            },
        ),
        pin(
            "Message::ViewChange",
            Message::ViewChange {
                new_view: 2,
                last_exec: 5,
                stable_seq: 4,
                stable_digest: d,
                prepared: vec![(6, vec![call()]), (7, vec![])],
                replica: 1,
            },
        ),
        pin(
            "Message::NewView",
            Message::NewView {
                view: 2,
                assignments: vec![(6, vec![call()])],
            },
        ),
        pin(
            "Message::Checkpoint",
            Message::Checkpoint {
                seq: 8,
                digest: d,
                replica: 2,
            },
        ),
        pin(
            "Message::FetchState",
            Message::FetchState {
                last_exec: 3,
                replica: 1,
            },
        ),
        pin(
            "Message::StateSnapshot",
            Message::StateSnapshot {
                seq: 8,
                digest: d,
                snapshot: ReplicaSnapshot {
                    space: SpaceSnapshot::default(),
                    client_registry: vec![(4, 100)],
                    replies: Vec::new(),
                    registrations: Vec::new(),
                    next_reg: 0,
                },
                replica: 3,
            },
        ),
        pin(
            "Message::ReadRequest",
            Message::ReadRequest {
                client: 9,
                req_id: 11,
                op: OpCall::rdp(template!["D", ?x]),
                watermark: 6,
            },
        ),
        pin(
            "Message::ReadReply",
            Message::ReadReply {
                req_id: 11,
                seq: 7,
                digest: d,
                result: tuple_result.clone(),
                replica: 2,
            },
        ),
        pin(
            "Message::Wake",
            Message::Wake {
                req_id: 5,
                seq: 9,
                result: tuple_result.clone(),
                replica: 2,
            },
        ),
        // OpResult.
        pin("OpResult::Done", OpResult::Done),
        pin("OpResult::Tuple", tuple_result),
        pin("OpResult::Tuple(None)", OpResult::Tuple(None)),
        pin(
            "OpResult::Cas",
            OpResult::Cas {
                inserted: false,
                found: Some(tuple!["D", 1]),
            },
        ),
        pin("OpResult::Denied", OpResult::Denied("no".to_owned())),
        pin("OpResult::Count", OpResult::Count(42)),
        pin("OpResult::Registered", OpResult::Registered),
        // RequestOp and WaitKind.
        pin(
            "RequestOp::Call",
            RequestOp::Call(OpCall::take(template!["J", _])),
        ),
        pin(
            "RequestOp::Register",
            RequestOp::Register {
                template: template!["J", ?x],
                kind: WaitKind::Rd,
                persistent: false,
            },
        ),
        pin("RequestOp::Cancel", RequestOp::Cancel { target: 5 }),
        pin("WaitKind::Rd", WaitKind::Rd),
        pin("WaitKind::Take", WaitKind::Take),
        // Snapshots and the log.
        pin("ReplicaSnapshot", snapshot()),
        pin(
            "WalRecord::Batch",
            WalRecord::Batch {
                seq: 7,
                batch: vec![call()],
            },
        ),
        pin(
            "WalRecord::Checkpoint",
            WalRecord::Checkpoint { seq: 8, digest: d },
        ),
        // Tuple-space values, templates and calls.
        pin("Value::Null", Value::Null),
        pin("Value::Int", Value::Int(-2)),
        pin("Value::Bool", Value::Bool(true)),
        pin("Value::Str", Value::from("hé")),
        pin("Value::Bytes", Value::Bytes(vec![0, 255, 7])),
        pin("Value::List", Value::list([Value::Int(1), Value::Null])),
        pin("Value::Set", Value::set([Value::Int(2), Value::Int(1)])),
        pin(
            "Value::Map",
            Value::map([(Value::from("k"), Value::Bool(false))]),
        ),
        pin("Field::Exact", Field::exact(3)),
        pin("Field::Any", Field::any()),
        pin(
            "Field::Formal",
            Field::Formal {
                name: "x".to_owned(),
                ty: None,
            },
        ),
        pin(
            "Field::Formal typed",
            Field::typed_formal("y", TypeTag::Map),
        ),
        pin(
            "Template",
            Template::new(vec![Field::exact("T"), Field::any()]),
        ),
        pin("OpCall::Out", OpCall::out(tuple!["A", 1])),
        pin("OpCall::Rd", OpCall::rd(template!["A", ?x])),
        pin("OpCall::In", OpCall::take(template!["A", _])),
        pin("OpCall::Rdp", OpCall::rdp(template!["A"])),
        pin("OpCall::Inp", OpCall::inp(template![?x])),
        pin(
            "OpCall::Cas",
            OpCall::cas(template!["A", ?x], tuple!["A", 2]),
        ),
        pin("OpCall::Count", OpCall::count(template!["A", _])),
        pin(
            "BucketDigest",
            BucketDigest {
                key: BucketKey {
                    arity: 2,
                    channel: Some(Value::from("JOB")),
                },
                digest: d,
                entries: 9,
            },
        ),
    ]
}

const GOLDEN: &[(&str, &str)] = &[
    (
        "Message::Request",
        "0009000000000000000300000000000000000502000000000301000000440201\
         000000780002000000030100000044010100000000000000",
    ),
    (
        "Message::PrePrepare",
        "0101000000000000000700000000000000020000000900000000000000030000\
         0000000000000502000000000301000000440201000000780002000000030100\
         0000440101000000000000000900000000000000040000000000000000000100\
         0000030100000045",
    ),
    (
        "Message::Prepare",
        "0201000000000000000700000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d102000000",
    ),
    (
        "Message::Commit",
        "0301000000000000000700000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d103000000",
    ),
    (
        "Message::Reply",
        "0401000000000000000700000000000000030000000000000000000000040200\
         000000000000",
    ),
    (
        "Message::ViewChange",
        "05020000000000000005000000000000000400000000000000d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d102000000060000\
         0000000000010000000900000000000000030000000000000000050200000000\
         0301000000440201000000780002000000030100000044010100000000000000\
         07000000000000000000000001000000",
    ),
    (
        "Message::NewView",
        "0602000000000000000100000006000000000000000100000009000000000000\
         0003000000000000000005020000000003010000004402010000007800020000\
         00030100000044010100000000000000",
    ),
    (
        "Message::Checkpoint",
        "070800000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d102000000",
    ),
    ("Message::FetchState", "08030000000000000001000000"),
    (
        "Message::StateSnapshot",
        "090800000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d10000000000000000000000000000000000000000010000\
         0004000000000000006400000000000000000000000000000000000000000000\
         0003000000",
    ),
    (
        "Message::ReadRequest",
        "0a09000000000000000b00000000000000030200000000030100000044020100\
         000078000600000000000000",
    ),
    (
        "Message::ReadReply",
        "0b0b000000000000000700000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1010102000000030100000044010100\
         00000000000002000000",
    ),
    (
        "Message::Wake",
        "0c05000000000000000900000000000000010102000000030100000044010100\
         00000000000002000000",
    ),
    ("OpResult::Done", "00"),
    (
        "OpResult::Tuple",
        "010102000000030100000044010100000000000000",
    ),
    ("OpResult::Tuple(None)", "0100"),
    (
        "OpResult::Cas",
        "02000102000000030100000044010100000000000000",
    ),
    ("OpResult::Denied", "03020000006e6f"),
    ("OpResult::Count", "042a00000000000000"),
    ("OpResult::Registered", "05"),
    ("RequestOp::Call", "0002020000000003010000004a01"),
    (
        "RequestOp::Register",
        "01020000000003010000004a020100000078000000",
    ),
    ("RequestOp::Cancel", "020500000000000000"),
    ("WaitKind::Rd", "00"),
    ("WaitKind::Take", "01"),
    (
        "ReplicaSnapshot",
        "0200000000000000000000000200000003010000004101010000000000000004\
         0000000000000001000000030100000042050000000000000006000000000000\
         0002000000040000000000000064000000000000000500000000000000650000\
         0000000000010000006400000000000000020000000100000000000000010000\
         0000000000000200000000000000030000000000000004070000000000000001\
         0000000200000000000000650000000000000002000000000000000200000000\
         03010000004501010300000000000000",
    ),
    (
        "WalRecord::Batch",
        "0007000000000000000100000009000000000000000300000000000000000502\
         0000000003010000004402010000007800020000000301000000440101000000\
         00000000",
    ),
    (
        "WalRecord::Checkpoint",
        "010800000000000000d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1",
    ),
    ("Value::Null", "00"),
    ("Value::Int", "01feffffffffffffff"),
    ("Value::Bool", "0201"),
    ("Value::Str", "030300000068c3a9"),
    ("Value::Bytes", "040300000000ff07"),
    ("Value::List", "050200000001010000000000000000"),
    (
        "Value::Set",
        "0602000000010100000000000000010200000000000000",
    ),
    ("Value::Map", "070100000003010000006b0200"),
    ("Field::Exact", "00010300000000000000"),
    ("Field::Any", "01"),
    ("Field::Formal", "02010000007800"),
    ("Field::Formal typed", "0201000000790107"),
    ("Template", "020000000003010000005401"),
    ("OpCall::Out", "0002000000030100000041010100000000000000"),
    ("OpCall::Rd", "01020000000003010000004102010000007800"),
    ("OpCall::In", "02020000000003010000004101"),
    ("OpCall::Rdp", "030100000000030100000041"),
    ("OpCall::Inp", "040100000002010000007800"),
    (
        "OpCall::Cas",
        "0502000000000301000000410201000000780002000000030100000041010200000000000000",
    ),
    ("OpCall::Count", "06020000000003010000004101"),
    (
        "BucketDigest",
        "02000000000000000103030000004a4f42d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1\
         d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d1d10900000000000000",
    ),
];

#[test]
fn every_wire_shape_matches_its_golden_bytes() {
    let got = samples();
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, hex), (want_name, want_hex)) in got.iter().zip(GOLDEN) {
        assert_eq!((name.as_str(), hex.as_str()), (*want_name, *want_hex));
    }
}
