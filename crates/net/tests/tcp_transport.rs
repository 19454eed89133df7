//! Socket-level tests of [`TcpTransport`] and the [`TcpCluster`] loopback
//! harness: bidirectional delivery, reverse-link replies to dial-only
//! clients, bounded drop-oldest queues, bounded sends to a peer that never
//! reads, what hostile connections can and cannot do to the one thread
//! that reads every socket of a node (malformed frames, half frames, single
//! bytes, floods, arbitrary streams side by side), prompt accepts and
//! shutdown, and full kill/respawn recovery of a replica over real sockets.

use peats::TupleSpace;
use peats_net::tcp::WRITE_TIMEOUT;
use peats_net::{TcpCluster, TcpClusterConfig, TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, NodeId, Transport};
use peats_policy::{Policy, PolicyParams};
use peats_replication::{ClientConfig, ClusterConfig};
use peats_tuplespace::{template, tuple};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Two bound endpoints that dial each other.
fn pair(
    cfg: TcpConfig,
) -> (
    (TcpTransport, peats_net::TcpMailbox),
    (TcpTransport, peats_net::TcpMailbox),
) {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let a0 = l0.local_addr().unwrap();
    let a1 = l1.local_addr().unwrap();
    let peers = |me: NodeId| -> BTreeMap<NodeId, SocketAddr> {
        [(0, a0), (1, a1)]
            .into_iter()
            .filter(|(id, _)| *id != me)
            .collect()
    };
    let e0 = TcpTransport::from_listener(0, l0, peers(0), cfg.clone()).unwrap();
    let e1 = TcpTransport::from_listener(1, l1, peers(1), cfg).unwrap();
    (e0, e1)
}

fn recv_payload(mb: &peats_net::TcpMailbox, within: Duration) -> Option<(NodeId, Vec<u8>)> {
    let deadline = Instant::now() + within;
    while Instant::now() < deadline {
        if let Ok(Some(env)) = mb.recv_timeout(Duration::from_millis(50)) {
            return Some(env);
        }
    }
    None
}

#[test]
fn bound_endpoints_exchange_messages_both_ways() {
    let ((t0, m0), (t1, m1)) = pair(TcpConfig::default());
    t0.send(0, 1, b"zero to one".to_vec());
    t1.send(1, 0, b"one to zero".to_vec());
    assert_eq!(
        recv_payload(&m1, Duration::from_secs(5)),
        Some((0, b"zero to one".to_vec()))
    );
    assert_eq!(
        recv_payload(&m0, Duration::from_secs(5)),
        Some((1, b"one to zero".to_vec()))
    );
    // Self-send loops back without touching the network.
    t0.send(0, 0, b"self".to_vec());
    assert_eq!(
        recv_payload(&m0, Duration::from_secs(1)),
        Some((0, b"self".to_vec()))
    );
    t0.shutdown();
    t1.shutdown();
}

#[test]
fn dial_only_client_gets_replies_over_its_own_connection() {
    // A "replica" with a listener, a "client" with none: the reply must
    // ride the reverse link of the client's inbound connection.
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let (server, server_mb) =
        TcpTransport::from_listener(0, l, BTreeMap::new(), TcpConfig::default()).unwrap();
    let (client, client_mb) =
        TcpTransport::connect(7, [(0, addr)].into_iter().collect(), TcpConfig::default());

    client.send(7, 0, b"request".to_vec());
    assert_eq!(
        recv_payload(&server_mb, Duration::from_secs(5)),
        Some((7, b"request".to_vec()))
    );
    server.send(0, 7, b"reply".to_vec());
    assert_eq!(
        recv_payload(&client_mb, Duration::from_secs(5)),
        Some((0, b"reply".to_vec()))
    );
    client.shutdown();
    server.shutdown();
}

#[test]
fn sends_to_unknown_peers_are_silently_dropped() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let (t, mb) = TcpTransport::from_listener(3, l, BTreeMap::new(), TcpConfig::default()).unwrap();
    // Node 99 was never configured and never connected: asynchronous-model
    // semantics say drop, not error, not panic.
    t.send(3, 99, b"into the void".to_vec());
    assert!(recv_payload(&mb, Duration::from_millis(200)).is_none());
    t.shutdown();
}

#[test]
fn outbound_queue_sheds_oldest_when_peer_is_down() {
    // Dial a port that is bound but whose owner was dropped immediately:
    // nothing ever accepts, so frames pile up in the dial link's queue.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = TcpConfig {
        queue_depth: 2,
        reconnect_max: Duration::from_millis(50),
        connect_timeout: Duration::from_millis(100),
        ..TcpConfig::default()
    };
    let (t, _mb) = TcpTransport::connect(0, [(1, dead)].into_iter().collect(), cfg);
    for i in 0..10u8 {
        t.send(0, 1, vec![i]);
    }
    // 10 sends into a depth-2 queue: at least 8 shed, none blocking.
    let deadline = Instant::now() + Duration::from_secs(2);
    while t.dropped_outbound() < 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        t.dropped_outbound() >= 8,
        "drop-oldest must shed, saw {}",
        t.dropped_outbound()
    );
    t.shutdown();
}

/// A bound endpoint with no configured peers: everything it hears comes
/// from connections made to `addr`.
fn listening(cfg: TcpConfig) -> (TcpTransport, peats_net::TcpMailbox, SocketAddr) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let (t, mb) = TcpTransport::from_listener(0, l, BTreeMap::new(), cfg).unwrap();
    (t, mb, addr)
}

/// The wire bytes of one frame from node `from`; an empty `body` is a hello.
fn wire_frame(from: NodeId, body: &[u8]) -> Vec<u8> {
    let mut bytes = ((4 + body.len()) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&from.to_le_bytes());
    bytes.extend_from_slice(body);
    bytes
}

/// A raw connection to `addr`, as a peer that writes its own bytes.
fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    s
}

#[test]
fn malformed_frames_disconnect_without_killing_the_endpoint() {
    let (t, mb, addr) = listening(TcpConfig::default());

    // A well-formed peer connected before any attack: what the attacks
    // cost must be their own connections only.
    let (client, client_mb) =
        TcpTransport::connect(5, [(0, addr)].into_iter().collect(), TcpConfig::default());
    client.send(5, 0, b"before".to_vec());
    assert_eq!(
        recv_payload(&mb, Duration::from_secs(5)),
        Some((5, b"before".to_vec()))
    );

    // A rogue's worth of hostile streams, each on a fresh connection.
    let attacks: Vec<Vec<u8>> = vec![
        vec![0xff, 0xff, 0xff, 0xff, 1, 2, 3], // 4 GiB length claim
        vec![10, 0, 0, 0, 1, 2],               // truncated mid-frame
        vec![1, 0, 0, 0, 9],                   // frame too short for a node id
        vec![0, 0],                            // truncated mid-prefix
        (0..64).collect(),                     // plain garbage
        Vec::new(),                            // connect-then-close
    ];
    for attack in attacks {
        let mut s = TcpStream::connect(addr).unwrap();
        let _ = s.write_all(&attack);
        drop(s); // reset/half-close mid-stream
    }
    // The same, with the attacker holding its end open after a good frame:
    // only the endpoint can end these, and it must — an oversized length,
    // a frame with no room for a sender id, a frame under a second sender
    // id (and nothing behind it is delivered either).
    let mut renamed = wire_frame(99, b"under another id");
    renamed.extend(wire_frame(42, b"behind it"));
    let mut held = Vec::new();
    for (i, bad) in [
        &[0xff, 0xff, 0xff, 0x7f][..],
        &[3, 0, 0, 0, 1, 2, 3],
        &renamed,
    ]
    .into_iter()
    .enumerate()
    {
        let mut s = raw_conn(addr);
        let mut bytes = wire_frame(40 + i as NodeId, b"good first");
        bytes.extend_from_slice(bad);
        s.write_all(&bytes).unwrap();
        held.push(s);
    }
    // The mailbox chews on all of it while it is read: the good frames
    // ahead of the bad ones are delivered, the garbage never is.
    let mut delivered = Vec::new();
    while let Some(env) = recv_payload(&mb, Duration::from_millis(300)) {
        delivered.push(env);
    }
    delivered.sort();
    assert_eq!(
        delivered,
        vec![
            (40, b"good first".to_vec()),
            (41, b"good first".to_vec()),
            (42, b"good first".to_vec())
        ],
        "garbage must never surface as a message"
    );
    for mut s in held {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(
            matches!(s.read(&mut [0; 8]), Ok(0) | Err(_)),
            "the endpoint hangs up on a malformed frame"
        );
    }

    // The endpoint still serves the well-formed peer, on the connection it
    // already had (nothing of its was dropped, so nothing was re-dialed).
    client.send(5, 0, b"still alive?".to_vec());
    assert_eq!(
        recv_payload(&mb, Duration::from_secs(5)),
        Some((5, b"still alive?".to_vec()))
    );
    t.send(0, 5, b"yes".to_vec());
    assert_eq!(
        recv_payload(&client_mb, Duration::from_secs(5)),
        Some((0, b"yes".to_vec()))
    );
    assert_eq!(client.dropped_outbound() + t.dropped_outbound(), 0);
    client.shutdown();
    t.shutdown();
}

/// `accept_loop` used to sleep 20 ms whenever nothing was pending, so a
/// fresh connection — a one-shot `peats out …` makes four — waited 10 ms on
/// average before its hello was even read. The listener is in the poll set
/// now: a pending connection is accepted on the next pass.
#[test]
fn a_fresh_connection_is_served_at_once_while_the_mailbox_is_read() {
    let (t, mb, addr) = listening(TcpConfig::default());
    let (arrivals_tx, arrivals) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        // Reads until the endpoint shuts down.
        while let Ok(received) = mb.recv_timeout(Duration::from_secs(5)) {
            if let Some(envelope) = received {
                arrivals_tx.send((envelope, Instant::now())).unwrap();
            }
        }
    });
    let mut waits = Vec::new();
    let mut conns = Vec::new();
    for i in 0..20u32 {
        // Let the reader go back to sleep between connections.
        std::thread::sleep(Duration::from_millis(3));
        let start = Instant::now();
        let mut s = raw_conn(addr);
        // Hello and request in one segment: both are in the socket buffer
        // by the time the connection is accepted.
        let mut bytes = wire_frame(100 + i, b"");
        bytes.extend(wire_frame(100 + i, b"one-shot request"));
        s.write_all(&bytes).unwrap();
        let (envelope, at) = arrivals.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(envelope, (100 + i, b"one-shot request".to_vec()));
        waits.push(at.duration_since(start));
        conns.push(s);
    }
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "connect-to-delivery took {median:?} in the median (all: {waits:?})"
    );
    t.shutdown();
    reader.join().unwrap();
}

#[test]
fn half_a_frame_holds_up_neither_other_connections_nor_the_deadline() {
    let (t, mb, addr) = listening(TcpConfig::default());
    // The slow loris: a hello, then a length prefix and half a body.
    let whole = wire_frame(66, &[0x5A; 200]);
    let mut loris = raw_conn(addr);
    loris.write_all(&wire_frame(66, b"")).unwrap();
    loris.write_all(&whole[..whole.len() / 2]).unwrap();

    // A second connection's frames keep arriving, in order, on time.
    let mut steady = raw_conn(addr);
    let sender = std::thread::spawn(move || {
        for i in 0..10u8 {
            steady.write_all(&wire_frame(77, &[i])).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        steady
    });
    let start = Instant::now();
    for i in 0..10u8 {
        assert_eq!(
            recv_payload(&mb, Duration::from_secs(5)),
            Some((77, vec![i]))
        );
    }
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "ten frames sent over 50 ms took {:?}",
        start.elapsed()
    );
    let _steady = sender.join().unwrap();

    // With half a frame buffered and nothing else to read, a timed wait
    // still ends on its deadline (rounded up to poll's millisecond).
    let timeout = Duration::from_millis(30);
    let start = Instant::now();
    assert_eq!(mb.recv_timeout(timeout), Ok(None));
    let spent = start.elapsed();
    assert!(spent >= timeout, "returned early, after {spent:?}");
    assert!(
        spent < timeout + Duration::from_millis(50),
        "kept {spent:?}"
    );

    // The half was kept: its other half completes the frame.
    loris.write_all(&whole[whole.len() / 2..]).unwrap();
    assert_eq!(
        recv_payload(&mb, Duration::from_secs(5)),
        Some((66, vec![0x5A; 200]))
    );
    t.shutdown();
}

#[test]
fn a_frame_sent_one_byte_per_write_arrives_once_and_whole() {
    let (t, mb, addr) = listening(TcpConfig::default());
    let body: Vec<u8> = (0..=255).collect();
    let mut s = raw_conn(addr);
    let dribble = std::thread::spawn({
        let bytes = wire_frame(9, &body);
        move || {
            for (i, byte) in bytes.iter().enumerate() {
                s.write_all(std::slice::from_ref(byte)).unwrap();
                if i % 16 == 0 {
                    // Now and then let the reader catch up and go to
                    // sleep on the partial frame.
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            s
        }
    });
    assert_eq!(recv_payload(&mb, Duration::from_secs(10)), Some((9, body)));
    let _s = dribble.join().unwrap();
    assert_eq!(mb.recv_timeout(Duration::from_millis(50)), Ok(None));
    t.shutdown();
}

#[test]
fn a_flooding_connection_starves_no_other_and_cannot_outlast_a_deadline() {
    let (t, mb, addr) = listening(TcpConfig::default());
    let flooding = AtomicBool::new(true);
    std::thread::scope(|scope| {
        // As fast as the socket takes them, numbered, until told to stop.
        scope.spawn(|| {
            let mut s = raw_conn(addr);
            let mut n = 0u64;
            while flooding.load(Ordering::Relaxed) {
                let mut burst = Vec::new();
                for _ in 0..64 {
                    let mut body = n.to_le_bytes().to_vec();
                    body.resize(512, 0xF1);
                    burst.extend(wire_frame(1, &body));
                    n += 1;
                }
                if s.write_all(&burst).is_err() {
                    return;
                }
            }
        });
        // Beside it, a polite connection: 20 frames, 2 ms apart.
        scope.spawn(|| {
            let mut s = raw_conn(addr);
            for i in 0..20u8 {
                s.write_all(&wire_frame(2, &[i])).unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            // Held open until the flood is over, so its end is not read
            // as anything.
            while flooding.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        let (mut flood_next, mut polite_next) = (0u64, 0u8);
        let mut slowest = Duration::ZERO;
        let deadline = Instant::now() + Duration::from_secs(20);
        while polite_next < 20 && Instant::now() < deadline {
            let start = Instant::now();
            let received = mb.recv_timeout(Duration::from_millis(20)).unwrap();
            slowest = slowest.max(start.elapsed());
            match received {
                Some((1, body)) => {
                    let n = u64::from_le_bytes(body[..8].try_into().unwrap());
                    assert_eq!(n, flood_next, "the flood arrives in order");
                    flood_next += 1;
                }
                Some((2, body)) => {
                    assert_eq!(body, [polite_next], "the polite frames arrive in order");
                    polite_next += 1;
                }
                Some(other) => panic!("nobody sent {other:?}"),
                None => {}
            }
        }
        flooding.store(false, Ordering::Relaxed);
        assert_eq!(polite_next, 20, "starved behind {flood_next} flood frames");
        assert!(flood_next > 0, "the flood is served too");
        assert!(
            slowest < Duration::from_millis(500),
            "a 20 ms wait took {slowest:?} under flood"
        );
        t.shutdown();
    });
}

#[test]
fn shutdown_from_another_thread_ends_a_blocked_recv_at_once() {
    let (t, mb, _addr) = listening(TcpConfig::default());
    let (blocked_tx, blocked) = mpsc::channel();
    let receiver = std::thread::spawn(move || {
        blocked_tx.send(()).unwrap();
        let ended = mb.recv();
        (ended, Instant::now(), mb)
    });
    blocked.recv().unwrap();
    // Past the snooze, into the sleep.
    std::thread::sleep(Duration::from_millis(50));
    let start = Instant::now();
    t.shutdown();
    let (ended, at, mb) = receiver.join().unwrap();
    assert_eq!(ended, None);
    let took = at.duration_since(start);
    assert!(
        took < Duration::from_millis(50),
        "recv outlived shutdown by {took:?}"
    );
    assert!(mb.recv_timeout(Duration::from_secs(1)).is_err());
    assert_eq!(mb.try_recv(), None);
}

/// What one hostile connection does after its good frames.
#[derive(Debug, Clone)]
enum Ending {
    /// Closes between frames.
    Close,
    /// A length over the cap, then arbitrary bytes.
    Oversized(Vec<u8>),
    /// A frame too short for a sender id.
    NoSenderId(u8),
    /// A frame that promises more than is sent before the close.
    CutShort(Vec<u8>),
    /// A hello, then a whole frame (or hello) under another sender id.
    OtherSender(Vec<u8>),
    /// Says nothing more and stays.
    Linger,
}

fn ending() -> impl Strategy<Value = Ending> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..40);
    prop_oneof![
        Just(Ending::Close),
        bytes().prop_map(Ending::Oversized),
        (0u8..4).prop_map(Ending::NoSenderId),
        bytes().prop_map(Ending::CutShort),
        bytes().prop_map(Ending::OtherSender),
        Just(Ending::Linger),
    ]
}

/// The cap of the endpoint the streams below are sent to.
const SMALL_CAP: usize = 256;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Three connections at once, each a run of good frames (and hellos)
    /// followed by one way of going wrong, written in arbitrary chunks:
    /// nothing panics, every good frame is delivered exactly once and in
    /// its connection's order, and nothing else ever is.
    #[test]
    fn arbitrary_streams_side_by_side_deliver_their_whole_frames_in_order(
        good in proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..12),
            3..4,
        ),
        endings in proptest::collection::vec(ending(), 3..4),
        chunk_seed in any::<u64>(),
        max_chunk in 1usize..90,
    ) {
        let cfg = TcpConfig { max_frame: SMALL_CAP, ..TcpConfig::default() };
        let (t, mb, addr) = listening(cfg);
        let mut expected: BTreeMap<NodeId, Vec<Vec<u8>>> = BTreeMap::new();
        let mut wires = Vec::new();
        for (conn, (bodies, ending)) in good.iter().zip(&endings).enumerate() {
            let from = 10 + conn as NodeId;
            let mut wire = Vec::new();
            for body in bodies {
                wire.extend(wire_frame(from, body));
                if !body.is_empty() {
                    expected.entry(from).or_default().push(body.to_vec());
                }
            }
            match ending {
                Ending::Close | Ending::Linger => {}
                Ending::Oversized(tail) => {
                    wire.extend(((SMALL_CAP + 1 + tail.len()) as u32).to_le_bytes());
                    wire.extend_from_slice(tail);
                }
                Ending::NoSenderId(len) => {
                    wire.extend(u32::from(*len).to_le_bytes());
                    wire.extend(std::iter::repeat(0xEE).take(usize::from(*len)));
                }
                Ending::CutShort(sent) => {
                    wire.extend(((4 + sent.len() + 1) as u32).to_le_bytes());
                    wire.extend_from_slice(&from.to_le_bytes());
                    wire.extend_from_slice(sent);
                }
                Ending::OtherSender(body) => {
                    // Behind a hello, so that `from` is the connection's id
                    // even when it sent no good frame.
                    wire.extend(wire_frame(from, b""));
                    wire.extend(wire_frame(from + 100, body));
                }
            }
            wires.push((wire, matches!(ending, Ending::Linger)));
        }
        let total: usize = expected.values().map(Vec::len).sum();

        let mut delivered: BTreeMap<NodeId, Vec<Vec<u8>>> = BTreeMap::new();
        std::thread::scope(|scope| {
            let writers: Vec<_> = wires
                .iter()
                .enumerate()
                .map(|(conn, (wire, linger))| {
                    scope.spawn(move || {
                        let mut rng = proptest::test_runner::TestRng::from_seed(chunk_seed ^ conn as u64);
                        let mut s = raw_conn(addr);
                        let mut rest = &wire[..];
                        while !rest.is_empty() {
                            let n = (1 + rng.below(max_chunk)).min(rest.len());
                            // The endpoint may hang up first (it should,
                            // on a bad frame); that is not the writer's
                            // failure.
                            if s.write_all(&rest[..n]).is_err() {
                                break;
                            }
                            rest = &rest[n..];
                        }
                        linger.then_some(s)
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut got = 0;
            while got < total && Instant::now() < deadline {
                if let Some((from, body)) = mb.recv_timeout(Duration::from_millis(50)).unwrap() {
                    delivered.entry(from).or_default().push(body);
                    got += 1;
                }
            }
            let lingering: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            // Everything is written and its good part delivered; what is
            // left to read are the endings, which deliver nothing.
            assert_eq!(mb.recv_timeout(Duration::from_millis(30)), Ok(None));
            drop(lingering);
        });
        prop_assert_eq!(delivered, expected);
        t.shutdown();
    }
}

#[test]
fn peer_reconnects_after_endpoint_restart() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let keeper = l.try_clone().unwrap();
    let cfg = TcpConfig {
        reconnect_max: Duration::from_millis(100),
        ..TcpConfig::default()
    };
    let (b, b_mb) = TcpTransport::from_listener(1, l, BTreeMap::new(), cfg.clone()).unwrap();
    let (a, a_mb) = TcpTransport::connect(0, [(1, addr)].into_iter().collect(), cfg.clone());

    a.send(0, 1, b"before".to_vec());
    assert_eq!(
        recv_payload(&b_mb, Duration::from_secs(5)),
        Some((0, b"before".to_vec()))
    );

    // Hard-restart endpoint 1 on the same listener: connections reset.
    b.shutdown();
    drop(b_mb);
    let (b2, b2_mb) = TcpTransport::from_listener(1, keeper, BTreeMap::new(), cfg).unwrap();

    // The dialer learns that its connection died from the EOF its mailbox
    // reads, not from a failed write: without `a` sending anything, it
    // re-dials and says hello to the new incarnation — which, reading its
    // own mailbox (that is what accepts the connection and registers the
    // reverse link), can then reach `a` (until then, node 0 is unknown to it
    // and pings vanish).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut redialed = false;
    while !redialed && Instant::now() < deadline {
        assert_eq!(b2_mb.try_recv(), None, "`a` has sent nothing yet");
        b2.send(1, 0, b"ping".to_vec());
        redialed = matches!(
            a_mb.recv_timeout(Duration::from_millis(50)),
            Ok(Some((1, p))) if p == b"ping"
        );
    }
    assert!(
        redialed,
        "an idle dialer must notice the restart and re-dial"
    );

    // So the first frame after the restart goes onto a live connection:
    // sent once, no protocol-level retransmit, it arrives.
    a.send(0, 1, b"after".to_vec());
    assert_eq!(
        recv_payload(&b2_mb, Duration::from_secs(5)),
        Some((0, b"after".to_vec()))
    );
    a.shutdown();
    b2.shutdown();
}

/// Accepts (and keeps, unread) every connection `listener` has pending.
fn hold_pending(listener: &TcpListener, held: &mut Vec<TcpStream>) {
    while let Ok((stream, _)) = listener.accept() {
        held.push(stream);
    }
}

#[test]
fn a_peer_that_never_reads_costs_bounded_sends_and_only_its_own_link() {
    // Node 1 is a raw listener whose connections are accepted and never
    // read; node 2 is a healthy endpoint.
    let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
    stuck.set_nonblocking(true).unwrap();
    let healthy_l = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers: BTreeMap<NodeId, SocketAddr> = [
        (1, stuck.local_addr().unwrap()),
        (2, healthy_l.local_addr().unwrap()),
    ]
    .into_iter()
    .collect();
    let (healthy, healthy_mb) =
        TcpTransport::from_listener(2, healthy_l, BTreeMap::new(), TcpConfig::default()).unwrap();
    let (a, _a_mb) = TcpTransport::connect(0, peers, TcpConfig::default());

    let mut held = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while held.is_empty() && Instant::now() < deadline {
        hold_pending(&stuck, &mut held);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(held.len(), 1, "the dialer connected to the stuck peer");

    // 16 MiB at the stuck peer — several socket buffers' worth — in frames
    // small enough for the caller-thread write, interleaved with a counter
    // to the healthy peer.
    const FRAMES: u32 = 512;
    let mut slowest = Duration::ZERO;
    for i in 0..FRAMES {
        let t = Instant::now();
        a.send(0, 1, vec![0xAB; 32 * 1024]);
        slowest = slowest.max(t.elapsed());
        a.send(0, 2, i.to_le_bytes().to_vec());
    }
    assert!(
        slowest < 3 * WRITE_TIMEOUT,
        "a send to a peer that stopped reading is bounded by the write timeout, took {slowest:?}"
    );
    for i in 0..FRAMES {
        assert_eq!(
            recv_payload(&healthy_mb, Duration::from_secs(5)),
            Some((0, i.to_le_bytes().to_vec())),
            "the healthy link delivers everything, in order"
        );
    }
    // The timed-out write tore the connection down, counted its frames as
    // dropped, and handed the link back to the dialer, which re-dialed.
    let deadline = Instant::now() + Duration::from_secs(5);
    while (held.len() < 2 || a.dropped_outbound() == 0) && Instant::now() < deadline {
        hold_pending(&stuck, &mut held);
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(held.len() >= 2, "the link to the stuck peer reconnected");
    assert!(a.dropped_outbound() > 0, "lost frames are counted");
    a.shutdown();
    healthy.shutdown();
}

#[test]
fn injected_send_delay_is_slept_by_the_link_not_the_caller() {
    let delay = Duration::from_millis(100);
    let cfg = TcpConfig {
        send_delay: delay,
        ..TcpConfig::default()
    };
    let ((t0, _m0), (t1, m1)) = pair(cfg);
    // Once a first frame is through, the link is up and idle — the state in
    // which an undelayed send would be written by the caller.
    t0.send(0, 1, vec![0]);
    assert_eq!(
        recv_payload(&m1, Duration::from_secs(5)),
        Some((0, vec![0]))
    );
    let t = Instant::now();
    for i in 1..=5u8 {
        t0.send(0, 1, vec![i]);
    }
    let sending = t.elapsed();
    assert!(
        sending < delay,
        "five delayed frames took the caller {sending:?}"
    );
    for i in 1..=5u8 {
        assert_eq!(
            recv_payload(&m1, Duration::from_secs(5)),
            Some((0, vec![i]))
        );
    }
    assert!(t.elapsed() >= 5 * delay, "each frame still pays the delay");
    t0.shutdown();
    t1.shutdown();
}

fn quick_cluster_cfg() -> TcpClusterConfig {
    TcpClusterConfig {
        cluster: ClusterConfig {
            batch_cap: 2,
            max_in_flight: 2,
            checkpoint_interval: 2,
            ..ClusterConfig::default()
        },
        tcp: TcpConfig::default(),
    }
}

#[test]
fn tcp_cluster_serves_the_full_op_surface() {
    let mut cluster = TcpCluster::start(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100, 101],
        quick_cluster_cfg(),
    )
    .unwrap();
    let a = cluster.handle(0);
    let b = cluster.handle(1);
    a.out(tuple!["JOB", 1]).unwrap();
    // Another client's fast read, with no ordered op of its own in
    // between. `a`'s `out` is acknowledged by `f+1` replicas; the fast path
    // promises read-your-writes per handle, so the other `f+1` may answer
    // `b` before they have executed it (ROADMAP, "Cross-client fast reads").
    // What must hold is that `b` sees it without doing anything but read.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut seen = b.rdp(&template!["JOB", ?x]).unwrap();
    while seen.is_none() && Instant::now() < deadline {
        seen = b.rdp(&template!["JOB", ?x]).unwrap();
    }
    assert_eq!(seen, Some(tuple!["JOB", 1]));
    assert!(a
        .cas(&template!["D", ?x], tuple!["D", 7])
        .unwrap()
        .inserted());
    let out = b.cas(&template!["D", ?x], tuple!["D", 9]).unwrap();
    assert_eq!(out.found(), Some(&tuple!["D", 7]));
    assert_eq!(b.take(&template!["JOB", ?x]).unwrap(), tuple!["JOB", 1]);
    assert_eq!(a.inp(&template!["JOB", ?x]).unwrap(), None);
    cluster.shutdown();
}

#[test]
fn killed_replica_recovers_via_state_transfer_over_sockets() {
    let mut cluster = TcpCluster::start(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100],
        quick_cluster_cfg(),
    )
    .unwrap();
    let h = cluster.handle(0);
    for i in 0..8i64 {
        h.out(tuple!["PRE", i]).unwrap();
    }
    // Wait for a stable checkpoint so the killed replica's history is GC'd.
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.stable_seq(0) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let stable_before = cluster.stable_seq(0);
    assert!(stable_before > 0, "cluster must stabilize under traffic");

    cluster.kill_replica(2);
    // Three replicas carry the load while 2 is down.
    for i in 0..4i64 {
        h.out(tuple!["MID", i]).unwrap();
    }

    cluster.respawn_replica(2);
    assert_eq!(cluster.last_exec(2), 0, "respawn wiped the replica");
    for i in 0..8i64 {
        h.out(tuple!["POST", i]).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(15);
    while cluster.last_exec(2) < stable_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        cluster.last_exec(2) >= stable_before,
        "respawned replica must catch up via snapshot over TCP (last_exec {}, stable {})",
        cluster.last_exec(2),
        stable_before
    );
    assert_eq!(h.rdp(&template!["PRE", 0]).unwrap(), Some(tuple!["PRE", 0]));
    cluster.shutdown();
}

#[test]
fn durable_tcp_cluster_shares_a_sync_among_the_slots_of_a_pass() {
    let dir = std::env::temp_dir().join(format!("peats-tcp-syncs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pids = [100, 101, 102, 103];
    let cfg = TcpClusterConfig {
        cluster: ClusterConfig {
            data_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        },
        tcp: TcpConfig::default(),
    };
    let mut cluster =
        TcpCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &pids, cfg).unwrap();
    let handles: Vec<_> = (0..pids.len()).map(|i| cluster.handle(i)).collect();
    std::thread::scope(|scope| {
        for (c, h) in handles.iter().enumerate() {
            scope.spawn(move || {
                for i in 0..50i64 {
                    h.out(tuple!["W", c as i64, i]).unwrap();
                }
            });
        }
    });
    for id in 0..cluster.n_replicas() {
        let fp = cluster.replica_footprint(id);
        // Every executed slot was appended; a sync covers every slot its
        // pass executed, so there are never more syncs than slots.
        eprintln!(
            "replica {id}: {} slots executed, {} WAL appends, {} WAL syncs",
            cluster.last_exec(id),
            fp.wal_appends,
            fp.wal_syncs
        );
        assert!(fp.wal_appends > 0);
        assert!(fp.wal_appends <= cluster.last_exec(id));
        assert!(fp.wal_syncs <= fp.wal_appends);
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_send_delay_still_serves_and_slows_the_path() {
    let mut cfg = quick_cluster_cfg();
    cfg.tcp.send_delay = Duration::from_millis(1);
    cfg.cluster.client = ClientConfig {
        invoke_timeout: Duration::from_secs(30),
        ..ClientConfig::default()
    };
    let mut cluster =
        TcpCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &[100], cfg).unwrap();
    let h = cluster.handle(0);
    h.out(tuple!["SLOWNET", 1]).unwrap();
    assert_eq!(
        h.rdp(&template!["SLOWNET", ?x]).unwrap(),
        Some(tuple!["SLOWNET", 1])
    );
    cluster.shutdown();
}
