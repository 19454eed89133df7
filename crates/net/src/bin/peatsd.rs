//! `peatsd` — one replica of the BFT-replicated, policy-enforced tuple
//! space, serving over TCP.
//!
//! A minimal f=1 cluster is four of these (ids 0..=3) plus any number of
//! `peats` clients:
//!
//! ```text
//! peatsd --id 0 --f 1 --listen 127.0.0.1:7100 \
//!        --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102 --peer 3=127.0.0.1:7103 \
//!        --client 4=100 --master changeme
//! ```
//!
//! Every flag can instead come from the environment as `PEATSD_<FLAG>`
//! (`--listen` ⇒ `PEATSD_LISTEN`); flags win. Run `peatsd --help` for the
//! full list.

use peats_net::config::{bind_with_retry, parse_node_addr, parse_node_pid, parse_param, Flags};
use peats_net::{TcpConfig, TcpTransport};
use peats_netsim::NodeId;
use peats_policy::{
    analyze_with, digest_hex, has_errors, parse_policy_spanned, Policy, PolicyParams, PolicySpans,
    Severity,
};
use peats_replication::replica::{Replica, ReplicaConfig};
use peats_replication::{replica_main, DurableConfig, DurableStore, PeatsService};
use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
peatsd — one replica of the BFT-replicated policy-enforced tuple space (PEATS)

Usage: peatsd --id ID --listen HOST:PORT --peer ID=HOST:PORT... [options]

Every flag may instead come from the environment as PEATSD_<FLAG>
(--checkpoint-interval => PEATSD_CHECKPOINT_INTERVAL); flags win.

Required:
  --id ID                      this replica's id, 0 <= ID < 3f+1
  --listen HOST:PORT           address to serve on
  --peer ID=HOST:PORT          another replica's address (repeat; exactly
                               the other 3f ids, or pass all as a comma
                               list in PEATSD_PEERS)

Cluster shape and clients:
  --f N                        tolerated replica faults (default 1; n=3f+1)
  --client NODE=PID            authorize a client: transport node id NODE
                               (>= n) speaks for logical process PID
                               (repeat, or comma list in PEATSD_CLIENTS)
  --master SECRET              shared MAC master secret (default insecure
                               dev secret; set PEATSD_MASTER in anger)

Policy:
  --policy allow-all           no access control (the default)
  --policy-file PATH           load a policy in the PEATS DSL from PATH
  --param NAME=VALUE           set a policy parameter (repeat)

Protocol tuning:
  --batch-cap N                max requests per PrePrepare batch
  --max-in-flight N            max assigned-but-unexecuted slots
  --checkpoint-interval N      checkpoint every N slots (N >= 1)
  --progress-period-ms MS      view-change progress check period
  --send-delay-ms MS           inject MS of latency before every frame
  --bind-patience-ms MS        keep retrying a busy listen address for MS

Durability:
  --data-dir PATH              persist state under PATH/replica-<ID>: a
                               write-ahead log of executed batches plus a
                               verified snapshot at every stable
                               checkpoint. On start the replica recovers
                               from disk before serving. Omit to run
                               memory-only (the default)
  --fsync BOOL                 fsync the WAL before acknowledging a batch
                               (default true; false trades crash
                               durability for throughput)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    if let Err(msg) = run(args) {
        eprintln!("peatsd: error: {msg}");
        std::process::exit(1);
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let flags = Flags::scan("PEATSD", args)?;
    if let Some(extra) = flags.positional().first() {
        return Err(format!("unexpected argument `{extra}` (see --help)"));
    }

    let id: NodeId = flags.require("id")?.parse().map_err(|_| "--id: bad id")?;
    let f: usize = flags.parse_or("f", 1)?;
    let n = 3 * f + 1;
    if (id as usize) >= n {
        return Err(format!("--id {id} out of range: n = 3f+1 = {n} replicas"));
    }
    let listen: SocketAddr = flags
        .require("listen")?
        .parse()
        .map_err(|_| "--listen: bad socket address")?;

    let mut peers: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
    for entry in flags.all("peer") {
        // Environment form: one comma-separated list.
        for part in entry.split(',').filter(|p| !p.trim().is_empty()) {
            let (pid, addr) = parse_node_addr(part)?;
            if pid != id && peers.insert(pid, addr).is_some() {
                return Err(format!("duplicate --peer id {pid}"));
            }
        }
    }
    let expected: Vec<NodeId> = (0..n as NodeId).filter(|&p| p != id).collect();
    if peers.keys().copied().collect::<Vec<_>>() != expected {
        return Err(format!(
            "need --peer entries for exactly the other replicas {expected:?}, got {:?}",
            peers.keys().collect::<Vec<_>>()
        ));
    }

    let mut registry: BTreeMap<u64, u64> = BTreeMap::new();
    for entry in flags.all("client") {
        for part in entry.split(',').filter(|p| !p.trim().is_empty()) {
            let (node, pid) = parse_node_pid(part)?;
            if (node as usize) < n {
                return Err(format!(
                    "--client {node}={pid}: node ids below n={n} belong to replicas"
                ));
            }
            registry.insert(u64::from(node), pid);
        }
    }

    let master = flags
        .get("master")
        .unwrap_or_else(|| "peats-dev-master".to_owned())
        .into_bytes();

    let (policy, spans) = load_policy(&flags)?;
    let mut params = PolicyParams::new();
    for entry in flags.all("param") {
        let (name, value) = parse_param(&entry)?;
        params.set(name, value);
    }

    // Static analysis gate: refuse to serve behind a policy that is
    // guaranteed to misevaluate (unbound variables, type errors, …) —
    // those bugs would otherwise surface only as spurious runtime denials.
    let diagnostics = analyze_with(&policy, &spans, Some(&params));
    if has_errors(&diagnostics) {
        let mut msg = format!("policy `{}` rejected by static analysis:", policy.name);
        for d in diagnostics.iter().filter(|d| d.severity == Severity::Error) {
            msg.push_str(&format!("\n  {d}"));
        }
        return Err(msg);
    }
    for d in &diagnostics {
        eprintln!("peatsd: policy {}: {d}", policy.name);
    }
    // The canonical digest lets operators diff policies across replicas:
    // replicas enforcing different policy texts silently diverge.
    println!(
        "peatsd: policy {} digest {}",
        policy.name,
        digest_hex(&policy.digest())
    );

    let service = PeatsService::new(policy, params).map_err(|e| format!("policy: {e}"))?;

    let defaults = ReplicaConfig::new(id, n, f);
    let cfg = ReplicaConfig {
        batch_cap: flags.parse_or("batch-cap", defaults.batch_cap)?,
        max_in_flight: flags.parse_or("max-in-flight", defaults.max_in_flight)?,
        checkpoint_interval: flags.parse_or("checkpoint-interval", defaults.checkpoint_interval)?,
        ..defaults
    };
    if cfg.checkpoint_interval == 0 {
        return Err("--checkpoint-interval must be at least 1".to_owned());
    }
    let progress_period = Duration::from_millis(flags.parse_or("progress-period-ms", 300u64)?);
    let tcp = TcpConfig {
        send_delay: Duration::from_millis(flags.parse_or("send-delay-ms", 0u64)?),
        ..TcpConfig::default()
    };
    let bind_patience = Duration::from_millis(flags.parse_or("bind-patience-ms", 5_000u64)?);

    let mut replica = Replica::new(cfg, service, registry);
    if let Some(dir) = flags.get("data-dir") {
        let durable = DurableConfig {
            fsync: flags.parse_or("fsync", true)?,
            ..DurableConfig::default()
        };
        let dir = std::path::Path::new(&dir).join(format!("replica-{id}"));
        let (store, recovery) = DurableStore::open(&dir, durable)
            .map_err(|e| format!("--data-dir {}: {e}", dir.display()))?;
        let report = replica.restore_durable(store, recovery);
        println!(
            "peatsd: replica {id} recovered from {}: snapshot seq {:?}, {} batches replayed, last_exec {}{}{}",
            dir.display(),
            report.snapshot_seq,
            report.replayed,
            report.last_exec,
            if report.truncated_log { ", WAL tail truncated" } else { "" },
            if report.fell_back { ", fell back past a bad snapshot" } else { "" },
        );
    }
    let listener =
        bind_with_retry(listen, bind_patience).map_err(|e| format!("bind {listen}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    let (transport, mailbox) = TcpTransport::from_listener(id, listener, peers, tcp)
        .map_err(|e| format!("start transport: {e}"))?;

    // Readiness line for harnesses and humans; flushed so a pipe sees it
    // before the first request.
    println!("peatsd: replica {id}/{n} (f={f}) listening on {local}");
    let _ = std::io::stdout().flush();

    // Runs until the process is killed; peatsd has no clean-shutdown path
    // by design (a BFT replica's crash IS its shutdown story).
    replica_main::<TcpTransport>(
        Arc::new(parking_lot::Mutex::new(replica)),
        peats_auth::KeyTable::new(u64::from(id), master),
        mailbox,
        transport,
        n,
        Arc::new(AtomicBool::new(false)),
        progress_period,
    );
    Ok(())
}

fn load_policy(flags: &Flags) -> Result<(Policy, PolicySpans), String> {
    let builtin = |p: Policy| {
        let spans = PolicySpans::unknown(&p);
        (p, spans)
    };
    match (flags.get("policy"), flags.get("policy-file")) {
        (Some(p), None) if p == "allow-all" => Ok(builtin(Policy::allow_all())),
        (Some(p), None) => Err(format!(
            "--policy `{p}`: only `allow-all` is named; use --policy-file for a DSL policy"
        )),
        (None, Some(path)) => {
            let src =
                std::fs::read_to_string(&path).map_err(|e| format!("--policy-file {path}: {e}"))?;
            parse_policy_spanned(&src).map_err(|e| format!("--policy-file {path}: {e}"))
        }
        (Some(_), Some(_)) => Err("--policy and --policy-file are mutually exclusive".to_owned()),
        (None, None) => Ok(builtin(Policy::allow_all())),
    }
}
