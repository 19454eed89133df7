//! Socket-level tests of [`TcpTransport`] and the [`TcpCluster`] loopback
//! harness: bidirectional delivery, reverse-link replies to dial-only
//! clients, bounded drop-oldest queues, bounded sends to a peer that never
//! reads, malformed-frame resilience, and full kill/respawn recovery of a
//! replica over real sockets.

use peats::TupleSpace;
use peats_net::tcp::WRITE_TIMEOUT;
use peats_net::{TcpCluster, TcpClusterConfig, TcpConfig, TcpTransport};
use peats_netsim::{Mailbox, NodeId, Transport};
use peats_policy::{Policy, PolicyParams};
use peats_replication::{ClientConfig, ClusterConfig};
use peats_tuplespace::{template, tuple};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
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
    assert_eq!(t0.peers(), vec![0, 1]);
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

#[test]
fn malformed_frames_disconnect_without_killing_the_endpoint() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let (t, mb) = TcpTransport::from_listener(0, l, BTreeMap::new(), TcpConfig::default()).unwrap();

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
    // Give the readers a moment to chew on the garbage.
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        recv_payload(&mb, Duration::from_millis(100)).is_none(),
        "garbage must never surface as a message"
    );

    // The endpoint still serves a well-formed peer.
    let (client, client_mb) =
        TcpTransport::connect(5, [(0, addr)].into_iter().collect(), TcpConfig::default());
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
    client.shutdown();
    t.shutdown();
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

    // The dialer learns that its connection died from its reader's EOF, not
    // from a failed write: without `a` sending anything, it re-dials and
    // says hello to the new incarnation — which can then reach `a` over the
    // reverse link (until then, node 0 is unknown to it and pings vanish).
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut redialed = false;
    while !redialed && Instant::now() < deadline {
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
    assert_eq!(
        b.rdp(&template!["JOB", ?x]).unwrap(),
        Some(tuple!["JOB", 1])
    );
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
