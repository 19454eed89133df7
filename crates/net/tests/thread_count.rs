//! Nothing reads a connection but the mailbox: an inbound connection costs
//! a node the drainer thread of its reverse link and no thread for its read
//! side. This file holds one test so that it has the process to itself —
//! `/proc/self/task` counts every thread of the test binary.

#![cfg(target_os = "linux")]

use peats::TupleSpace;
use peats_net::{TcpCluster, TcpClusterConfig, PROTOCOL_VERSION};
use peats_policy::{Policy, PolicyParams};
use peats_tuplespace::tuple;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The thread count once it has stopped moving for 200 ms.
fn settled_threads() -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let (mut last, mut since) = (threads(), Instant::now());
    while since.elapsed() < Duration::from_millis(200) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        let now = threads();
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    last
}

#[test]
fn inbound_connections_cost_a_drainer_each_and_no_reader() {
    let mut cluster = TcpCluster::start(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100, 101],
        TcpClusterConfig::default(),
    )
    .unwrap();
    let handles = [cluster.handle(0), cluster.handle(1)];
    for (i, h) in handles.iter().enumerate() {
        for k in 0..4i64 {
            h.out(tuple!["T", i as i64, k]).unwrap();
        }
    }
    // Everything is connected: per replica its own thread, 3 dialers and 5
    // reverse-link drainers (3 peers, 2 clients); per client 4 dialers;
    // and the test harness's own one or two.
    let before = settled_threads();
    let expected = 4 * (1 + 3 + 5) + 2 * 4;
    assert!(
        (expected + 1..=expected + 2).contains(&before),
        "{before} threads for a connected f = 1 cluster with two clients; \
         {expected} and the harness's are accounted for"
    );

    // 16 more peers dial replica 0 and say hello.
    let addr = cluster.fabric().replica_addrs()[&0];
    let conns: Vec<TcpStream> = (0..16u32)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut hello = 8u32.to_le_bytes().to_vec();
            hello.extend_from_slice(&(1000 + i).to_le_bytes());
            hello.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
            s.write_all(&hello).unwrap();
            s
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() < before + conns.len() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        settled_threads() - before,
        conns.len(),
        "each hello starts its reverse link's drainer and nothing else"
    );
    drop(conns);
    cluster.shutdown();
}
