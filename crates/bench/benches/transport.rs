//! `transport` — what it costs to move a frame between two nodes.
//!
//! A replicated op is ~32 frames of ~120 B, so the hop is the unit the
//! `transport` rows of `peats-perf trace` are made of. Two questions, each
//! asked of [`ThreadNet`] (a channel push; the floor) and of
//! [`TcpTransport`] over loopback: what does one frame cost from `send` to
//! the receiving mailbox, and what does handing one peer eight frames as
//! one [`Transport::send_batch`] — the replica event loop's pass — save
//! over eight `send`s.
//!
//! Those hops are sent and received by one thread. What a message costs
//! when the receiver is *another* thread depends on what that thread was
//! doing: `hop_to_thread` times `send` → "the receiver's thread has it"
//! for a receiver still inside its mailbox's snooze (frames back to back)
//! and for one that has gone to sleep (the sender idles 200 µs first) —
//! parked on its channel over `ThreadNet`, inside `poll` over
//! `TcpTransport`. Their difference is the price of one sleep;
//! `client_round_trip` is what a whole ordered `out` — some thirty such
//! hand-offs — comes to.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use peats::{Policy, PolicyParams, TupleSpace};
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, NodeId, ThreadNet, Transport};
use peats_replication::ThreadedCluster;
use peats_tuplespace::tuple;
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

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
    let mailbox = mailboxes.remove(1);
    bench_all(c, "thread_net", &net, &mailbox);
    // Spinning, as these rows have been measured since they were added.
    let receiver = bench_hop_to_thread(c, "thread_net", &net, mailbox, std::hint::spin_loop);
    drop(net); // the last sender: the receiver's mailbox disconnects
    receiver.join().expect("receiver panicked");
}

/// `send` → the moment the receiving *thread* holds the frame, the sender
/// idling `idle` before each frame. The receiver's report goes back over a
/// separate channel, off the clock; the sender passes the time until it
/// comes with `wait`. Returns the receiving thread, which ends when its
/// mailbox disconnects.
fn bench_hop_to_thread<T: Transport>(
    c: &mut Criterion,
    name: &str,
    net: &T,
    mailbox: T::Mailbox,
    wait: fn(),
) -> std::thread::JoinHandle<()> {
    let (got_tx, got_rx) = mpsc::channel();
    let receiver = std::thread::spawn(move || {
        while mailbox.recv().is_some() && got_tx.send(Instant::now()).is_ok() {}
    });
    let mut group = c.benchmark_group(format!("transport/{name}/hop_to_thread"));
    group.sample_size(SAMPLES);
    for (name, idle) in [
        ("receiver_awake", Duration::ZERO),
        ("receiver_parked", Duration::from_micros(200)),
    ] {
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let hop = |_| {
                    std::thread::sleep(idle);
                    let sent = Instant::now();
                    net.send(0, 1, black_box(vec![0xA5; FRAME]));
                    // Not blocking: a sender that slept here would give
                    // the receiver time to park in both rows.
                    let got = loop {
                        match got_rx.try_recv() {
                            Ok(got) => break got,
                            Err(mpsc::TryRecvError::Empty) => wait(),
                            Err(mpsc::TryRecvError::Disconnected) => panic!("receiver died"),
                        }
                    };
                    got.saturating_duration_since(sent)
                };
                (0..iters).map(hop).sum()
            })
        });
    }
    group.finish();
    receiver
}

/// The client round trip: one ordered `out` from a single client against
/// four replica threads (f = 1), in-memory channels, no disk.
fn bench_client_round_trip(c: &mut Criterion) {
    let mut cluster =
        ThreadedCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], &[])
            .expect("allow-all policy has no parameters");
    let handle = cluster.handle(0);
    let mut group = c.benchmark_group("client_round_trip/threaded_cluster");
    group.sample_size(SAMPLES);
    let mut i = 0i64;
    group.bench_function("ordered_out", |b| {
        b.iter(|| {
            i += 1;
            handle.out(tuple!["B", i]).expect("healthy cluster");
        })
    });
    group.finish();
    drop(handle);
    cluster.shutdown();
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
    // Yielding, not spinning: the kernel wakes a socket's sleeping reader on
    // the writer's core, on the promise that the writer is about to sleep,
    // and a sender that spins there keeps it waiting for the rest of a time
    // slice.
    let receiving =
        bench_hop_to_thread(c, "tcp_loopback", &sender, mailbox, std::thread::yield_now);
    sender.shutdown();
    receiver.shutdown(); // the receiver's mailbox disconnects
    receiving.join().expect("receiver panicked");
}

criterion_group!(
    benches,
    bench_thread_net,
    bench_tcp,
    bench_client_round_trip
);
criterion_main!(benches);
