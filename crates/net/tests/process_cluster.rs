//! The real thing: an f=1 replicated PEATS as four `peatsd` OS processes
//! on loopback, driven by the library client and the `peats` CLI binary,
//! surviving a SIGKILL-and-restart of a replica mid-workload and a
//! malformed-frame attack on a live daemon port.

use peats::TupleSpace;
use peats_auth::KeyTable;
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::NodeId;
use peats_replication::{ClientConfig, ReplicatedPeats};
use peats_tuplespace::{template, tuple};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const MASTER: &str = "process-cluster-secret";

/// Kills every child on drop so a failing assertion never leaks daemons.
struct Daemons {
    children: Vec<(usize, Option<Child>)>,
    ports: Vec<u16>,
    /// When set, every daemon gets `--data-dir` here and persists its
    /// state across SIGKILLs.
    data_dir: Option<std::path::PathBuf>,
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for (_, child) in &mut self.children {
            if let Some(mut c) = child.take() {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
}

impl Daemons {
    fn addr(&self, id: usize) -> SocketAddr {
        format!("127.0.0.1:{}", self.ports[id]).parse().unwrap()
    }

    fn peer_map(&self) -> BTreeMap<NodeId, SocketAddr> {
        (0..self.ports.len())
            .map(|id| (id as NodeId, self.addr(id)))
            .collect()
    }

    /// Where a durable daemon's stdout goes, across its restarts.
    fn stdout_path(&self, id: usize) -> std::path::PathBuf {
        let dir = self.data_dir.as_ref().expect("durable cluster");
        dir.join(format!("peatsd-{id}.out"))
    }

    fn servers_flag(&self) -> String {
        (0..self.ports.len())
            .map(|id| format!("{id}={}", self.addr(id)))
            .collect::<Vec<_>>()
            .join(",")
    }

    fn spawn(&mut self, id: usize) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_peatsd"));
        cmd.arg("--id")
            .arg(id.to_string())
            .arg("--f")
            .arg("1")
            .arg("--listen")
            .arg(self.addr(id).to_string())
            .arg("--master")
            .arg(MASTER)
            .arg("--checkpoint-interval")
            .arg("4")
            .arg("--batch-cap")
            .arg("2")
            .arg("--client")
            .arg("4=100,5=101")
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(dir) = &self.data_dir {
            cmd.arg("--data-dir").arg(dir);
            // What each life of the daemon reported, recovery line included.
            std::fs::create_dir_all(dir).expect("create data dir");
            let log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.stdout_path(id))
                .expect("open daemon log");
            cmd.stdout(log);
        }
        for peer in 0..self.ports.len() {
            if peer != id {
                cmd.arg("--peer").arg(format!("{peer}={}", self.addr(peer)));
            }
        }
        let child = cmd.spawn().expect("spawn peatsd");
        self.children.push((id, Some(child)));
    }

    fn sigkill(&mut self, id: usize) {
        for (cid, child) in &mut self.children {
            if *cid == id {
                if let Some(mut c) = child.take() {
                    c.kill().expect("SIGKILL peatsd");
                    c.wait().expect("reap peatsd");
                }
            }
        }
        self.children.retain(|(_, c)| c.is_some());
    }

    /// SIGKILLs the whole cluster at once — no replica survives.
    fn sigkill_all(&mut self) {
        for (_, child) in &mut self.children {
            if let Some(mut c) = child.take() {
                c.kill().expect("SIGKILL peatsd");
                c.wait().expect("reap peatsd");
            }
        }
        self.children.clear();
    }

    fn wait_all_accepting(&self) {
        let deadline = Instant::now() + Duration::from_secs(20);
        for id in 0..self.ports.len() {
            loop {
                match TcpStream::connect_timeout(&self.addr(id), Duration::from_millis(200)) {
                    Ok(_) => break,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => panic!("replica {id} never started accepting: {e}"),
                }
            }
        }
    }
}

fn start_cluster() -> Daemons {
    start_cluster_with(None)
}

fn start_cluster_with(data_dir: Option<std::path::PathBuf>) -> Daemons {
    // Reserve four distinct ephemeral ports, then release them for the
    // daemons to bind (peatsd's bind-retry absorbs any straggler).
    let ports: Vec<u16> = (0..4)
        .map(|_| {
            TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap()
                .port()
        })
        .collect();
    let mut d = Daemons {
        children: Vec::new(),
        ports,
        data_dir,
    };
    for id in 0..4 {
        d.spawn(id);
    }
    d.wait_all_accepting();
    d
}

/// A unique scratch directory for one test run.
fn fresh_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "peats-proc-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn library_client(d: &Daemons, node: NodeId, pid: u64) -> ReplicatedPeats<TcpTransport> {
    let (transport, mailbox) = TcpTransport::connect(node, d.peer_map(), TcpConfig::default());
    ReplicatedPeats::connect(
        transport,
        mailbox,
        KeyTable::new(u64::from(node), MASTER.as_bytes().to_vec()),
        pid,
        1,
        4,
        ClientConfig {
            invoke_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
    )
}

fn cli(d: &Daemons, node: u32, pid: u64, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .arg("--servers")
        .arg(d.servers_flag())
        .arg("--node")
        .arg(node.to_string())
        .arg("--pid")
        .arg(pid.to_string())
        .arg("--master")
        .arg(MASTER)
        .arg("--timeout-ms")
        .arg("20000")
        .args(args)
        .output()
        .expect("run peats CLI");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        String::from_utf8_lossy(&out.stderr).trim().to_owned(),
    )
}

#[test]
fn four_processes_serve_cli_survive_sigkill_restart_and_frame_garbage() {
    let mut d = start_cluster();

    // --- CLI round trip across two client identities ---------------------
    let (code, out, err) = cli(&d, 4, 100, &["out", r#"<"JOB", 1, "payload">"#]);
    assert_eq!((code, out.as_str()), (0, "ok"), "stderr: {err}");
    let (code, out, _) = cli(&d, 5, 101, &["rdp", r#"<"JOB", ?id: int, *>"#]);
    assert_eq!(code, 0);
    assert_eq!(out, r#"<"JOB", 1, "payload">"#);
    let (code, out, _) = cli(&d, 5, 101, &["cas", r#"<"D", ?x>"#, r#"<"D", 7>"#]);
    assert_eq!((code, out.as_str()), (0, "inserted"));
    let (code, out, _) = cli(&d, 4, 100, &["cas", r#"<"D", ?x>"#, r#"<"D", 9>"#]);
    assert_eq!(code, 0);
    assert_eq!(out, r#"found <"D", 7>"#);
    let (code, out, _) = cli(&d, 4, 100, &["take", r#"<"JOB", *, *>"#]);
    assert_eq!(code, 0);
    assert_eq!(out, r#"<"JOB", 1, "payload">"#);

    // --- malformed frames against a live daemon port ---------------------
    for attack in [
        vec![0xffu8, 0xff, 0xff, 0xff, 0, 1, 2], // 4 GiB length claim
        vec![16, 0, 0, 0, 1, 2, 3],              // truncated mid-frame
        vec![1, 0, 0, 0, 42],                    // no room for a node id
        (0..200u8).collect::<Vec<u8>>(),         // garbage
    ] {
        let mut s = TcpStream::connect(d.addr(0)).unwrap();
        let _ = s.write_all(&attack);
        drop(s);
    }

    // --- sustained workload from the library client ----------------------
    let h = library_client(&d, 4, 100);
    for i in 0..10i64 {
        h.out(tuple!["PRE", i]).unwrap();
    }

    // --- SIGKILL replica 2 mid-workload ----------------------------------
    d.sigkill(2);
    for i in 0..6i64 {
        h.out(tuple!["MID", i]).unwrap(); // three replicas carry the load
    }
    assert_eq!(h.rdp(&template!["PRE", 0]).unwrap(), Some(tuple!["PRE", 0]));

    // --- restart it on the same port: reconnect + state transfer ---------
    d.spawn(2);
    for i in 0..10i64 {
        h.out(tuple!["POST", i]).unwrap(); // traffic drives catch-up
    }

    // Proof of recovery: with replica 3 also dead, progress requires
    // 2f+1 = 3 live replicas — impossible unless the restarted replica 2
    // caught up (its pre-kill history was checkpoint-GC'd cluster-wide,
    // so it must have installed a snapshot over TCP).
    d.sigkill(3);
    h.out(tuple!["FINAL", 1]).unwrap();
    assert_eq!(
        h.rdp(&template!["FINAL", ?x]).unwrap(),
        Some(tuple!["FINAL", 1])
    );
    assert_eq!(h.rdp(&template!["PRE", 9]).unwrap(), Some(tuple!["PRE", 9]));

    // The CLI sees the same state the library client wrote.
    let (code, out, err) = cli(&d, 5, 101, &["rdp", r#"<"FINAL", ?x>"#]);
    assert_eq!(code, 0, "stderr: {err}");
    assert_eq!(out, r#"<"FINAL", 1>"#);
}

/// The disk-first recovery story end to end: a durable cluster loses
/// EVERY replica to SIGKILL at once — there is no live peer to serve
/// snapshot state transfer — and comes back from its data dirs with the
/// space intact and the protocol live.
#[test]
fn full_cluster_sigkill_recovers_from_disk() {
    let dir = fresh_dir("recovery");
    let mut d = start_cluster_with(Some(dir.clone()));

    // Seed state well past a checkpoint boundary (interval 4) so every
    // replica has a durable snapshot, plus a tail only the WAL holds.
    for i in 0..10i64 {
        let (code, out, err) = cli(&d, 4, 100, &["out", &format!(r#"<"KEEP", {i}>"#)]);
        assert_eq!((code, out.as_str()), (0, "ok"), "stderr: {err}");
    }
    let (code, out, _) = cli(&d, 5, 101, &["count", r#"<"KEEP", *>"#]);
    assert_eq!((code, out.as_str()), (0, "10"));

    // No survivors: recovery below can only come from disk.
    d.sigkill_all();
    for id in 0..4 {
        d.spawn(id);
    }
    d.wait_all_accepting();

    // SIGKILL tears nothing: the log of a killed daemon ends in the zeros
    // of its preallocated segment, and that is not a truncated tail.
    for id in 0..4 {
        let out = std::fs::read_to_string(d.stdout_path(id)).unwrap();
        assert_eq!(
            out.matches("recovered from").count(),
            2,
            "replica {id}: {out}"
        );
        assert!(!out.contains("WAL tail truncated"), "replica {id}: {out}");
        assert!(!out.contains("fell back"), "replica {id}: {out}");
    }

    // The whole space survived — including the un-checkpointed WAL tail.
    let (code, out, err) = cli(&d, 5, 101, &["count", r#"<"KEEP", *>"#]);
    assert_eq!((code, out.as_str()), (0, "10"), "stderr: {err}");
    let (code, out, _) = cli(&d, 4, 100, &["rdp", r#"<"KEEP", 9>"#]);
    assert_eq!((code, out.as_str()), (0, r#"<"KEEP", 9>"#));

    // And the cluster still orders fresh writes (liveness, not just a
    // read-only husk): destructive take proves full agreement.
    let (code, out, _) = cli(&d, 4, 100, &["out", r#"<"AFTER", 1>"#]);
    assert_eq!((code, out.as_str()), (0, "ok"));
    let (code, out, _) = cli(&d, 5, 101, &["take", r#"<"AFTER", ?x>"#]);
    assert_eq!((code, out.as_str()), (0, r#"<"AFTER", 1>"#));

    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_and_cli_reject_bad_configuration() {
    // peatsd: id outside the replica set.
    let out = Command::new(env!("CARGO_BIN_EXE_peatsd"))
        .args(["--id", "9", "--f", "1", "--listen", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    // peatsd: missing peers.
    let out = Command::new(env!("CARGO_BIN_EXE_peatsd"))
        .args(["--id", "0", "--f", "1", "--listen", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--peer"));

    // peats: wrong replica count for f.
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .args(["--servers", "0=127.0.0.1:1", "out", "<1>"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("n=3f+1"));

    // peats: unparseable tuple.
    let out = Command::new(env!("CARGO_BIN_EXE_peats"))
        .args([
            "--servers",
            "0=127.0.0.1:1,1=127.0.0.1:2,2=127.0.0.1:3,3=127.0.0.1:4",
            "out",
            "<oops",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("parse error"));

    // Both print usage on --help.
    for bin in [env!("CARGO_BIN_EXE_peatsd"), env!("CARGO_BIN_EXE_peats")] {
        let out = Command::new(bin).arg("--help").output().unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("Usage:"));
    }
}
