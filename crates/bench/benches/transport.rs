//! `transport` — what it costs to move a frame between two nodes.
//!
//! A replicated op is ~32 frames of ~120 B, so the hop is the unit the
//! `transport` rows of `peats-perf trace` are made of. Two questions, each
//! asked of [`ThreadNet`] (a channel push; the floor) and of
//! [`TcpTransport`] over loopback: what does one frame cost from `send` to
//! the receiving mailbox, and what does handing one peer eight frames as
//! one [`Transport::send_batch`] — the replica event loop's pass — save
//! over eight `send`s.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, NodeId, ThreadNet, Transport};
use std::collections::BTreeMap;
use std::net::TcpListener;

const FRAME: usize = 120;
const BATCH: usize = 8;

/// The criterion shim times one call per sample; a hop is microseconds, so
/// its default of 10 samples would report the first (cold) ones.
const SAMPLES: usize = 5_000;

fn hop<T: Transport>(net: &T, mailbox: &T::Mailbox) {
    net.send(0, 1, black_box(vec![0xA5; FRAME]));
    mailbox.recv().expect("transport alive");
}

fn singles<T: Transport>(net: &T, mailbox: &T::Mailbox) {
    for _ in 0..BATCH {
        net.send(0, 1, black_box(vec![0xA5; FRAME]));
    }
    (0..BATCH).for_each(|_| drop(mailbox.recv().expect("transport alive")));
}

fn batch<T: Transport>(net: &T, mailbox: &T::Mailbox) {
    let frames = (0..BATCH).map(|_| (1, vec![0xA5; FRAME])).collect();
    net.send_batch(0, black_box(frames));
    (0..BATCH).for_each(|_| drop(mailbox.recv().expect("transport alive")));
}

fn bench_all<T: Transport>(c: &mut Criterion, name: &str, net: &T, mailbox: &T::Mailbox) {
    let mut group = c.benchmark_group(format!("transport/{name}"));
    group.sample_size(SAMPLES);
    group.bench_function("hop_120B", |b| b.iter(|| hop(net, mailbox)));
    group.bench_function("8_sends", |b| b.iter(|| singles(net, mailbox)));
    group.bench_function("batch_of_8", |b| b.iter(|| batch(net, mailbox)));
    group.finish();
}

fn bench_thread_net(c: &mut Criterion) {
    let (net, mut mailboxes) = ThreadNet::new(2);
    bench_all(c, "thread_net", &net, &mailboxes.remove(1));
}

fn bench_tcp(c: &mut Criterion) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let peers: BTreeMap<NodeId, _> = [(1, listener.local_addr().expect("local addr"))].into();
    let (receiver, mailbox) =
        TcpTransport::from_listener(1, listener, BTreeMap::new(), TcpConfig::default())
            .expect("listen");
    let (sender, _replies) = TcpTransport::connect(0, peers, TcpConfig::default());
    // The first frame waits in the link's queue for the dial to finish;
    // once it is through, the link is up and sends take the direct path.
    hop(&sender, &mailbox);
    bench_all(c, "tcp_loopback", &sender, &mailbox);
    sender.shutdown();
    receiver.shutdown();
}

criterion_group!(benches, bench_thread_net, bench_tcp);
criterion_main!(benches);
