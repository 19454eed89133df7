//! `auth` — the authentication and framing layer, one primitive at a time.
//!
//! Every replicated op is a few dozen MAC'd envelopes, so these are the
//! numbers the `auth` and `codec` rows of `peats-perf trace` are made of:
//! raw SHA-256, a pairwise MAC from a warm [`KeyTable`] (cached keyed
//! state) against a cold one (derive the pair key and hash its pads
//! first — what a first message to a peer costs), a full
//! `Sealed::seal` + wire + `open` round trip of a client `Request` and of a
//! `Commit` vote, and the WAL's CRC-32.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use peats_auth::{pair_key, sha256, HmacKey, KeyTable};
use peats_codec::{crc32, Decode, Encode};
use peats_policy::OpCall;
use peats_replication::{Message, Request, Sealed};
use peats_tuplespace::tuple;

const MASTER: &[u8] = b"bench-deployment-secret";

/// The criterion shim times one call per sample, and its default of 10
/// samples measures cold caches and the clock, not a sub-microsecond hash.
const SAMPLES: usize = 20_000;

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth/sha256");
    group.sample_size(SAMPLES);
    for len in [64usize, 4096] {
        let data = vec![0xa5u8; len];
        group.bench_with_input(BenchmarkId::from_parameter(len), &data, |b, data| {
            b.iter(|| sha256(black_box(data)))
        });
    }
    group.finish();
}

fn bench_sign(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth/sign_for");
    group.sample_size(SAMPLES);
    let keys = KeyTable::new(1, MASTER);
    for len in [64usize, 128, 4096] {
        let body = vec![0xa5u8; len];
        group.bench_with_input(BenchmarkId::new("warm", len), &body, |b, body| {
            b.iter(|| keys.sign_for(2, black_box(body)))
        });
        group.bench_with_input(BenchmarkId::new("cold", len), &body, |b, body| {
            b.iter(|| HmacKey::new(&pair_key(MASTER, 1, 2)).mac(black_box(body)))
        });
    }
    group.finish();
}

fn bench_seal_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("auth/seal_wire_open");
    group.sample_size(SAMPLES);
    let (sender, receiver) = (KeyTable::new(1, MASTER), KeyTable::new(2, MASTER));
    let request = Message::Request(Request::call(
        9,
        3,
        OpCall::out(tuple!["JOB", 9, 17, "sixteen-byte-pay"]),
    ));
    let commit = Message::Commit {
        view: 1,
        seq: 7,
        digest: sha256(b"batch"),
        replica: 1,
    };
    for (name, msg) in [("request", request), ("commit", commit)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let frame = Sealed::seal(&sender, 2, black_box(&msg)).to_bytes();
                let sealed = Sealed::from_bytes(&frame).expect("own frame");
                sealed.open(&receiver).expect("own MAC")
            })
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
    let mut group = c.benchmark_group("codec/crc32");
    group.sample_size(SAMPLES);
    group.bench_function("4096", |b| b.iter(|| crc32(black_box(&data))));
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_sign,
    bench_seal_open,
    bench_crc32
);
criterion_main!(benches);
