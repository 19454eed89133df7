//! `bench_replication` — the two replication cells the `peats-perf`
//! workloads do not cover.
//!
//! The first is a sweep of concurrent clients × batch cap × in-flight
//! window. Each cell starts a fresh `ThreadedCluster` (f = 1, 4 replica
//! threads), hands every client its own slot (own pid, own mailbox), and
//! times `clients × ops` MAC-sealed `out` operations issued concurrently:
//! the primary drains its request backlog into one slot per round, up to
//! the batch cap, with at most the window's slots in flight.
//!
//! The second is disk-first recovery: fill a durable cluster to several
//! state sizes, stop it, and time a cold `DurableStore::open` + snapshot
//! restore + WAL replay of one replica — the restart path as a measured
//! number, with the on-disk footprint it reads. A snapshot is taken when
//! the log has outgrown the last one, not at every checkpoint, so
//! `snapshot_seq` trails `last_exec` by up to about a state's worth of log,
//! `replayed_batches` is that suffix, and `disk_bytes` is two snapshots
//! plus the log since the older one.
//!
//! Emits `BENCH_replication.json` (override with `--out PATH`); `--smoke`
//! shrinks both cells for CI.
//!
//! ```text
//! cargo run --release -p peats-bench --bin bench_replication -- --out BENCH_replication.json
//! ```

use peats::{Policy, PolicyParams, TupleSpace};
use peats_bench::print_table;
use peats_replication::{
    ClusterConfig, DurableConfig, DurableStore, PeatsService, Replica, ReplicaConfig,
    ThreadedCluster,
};
use peats_tuplespace::tuple;
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One timed cell: `clients` threads (one slot each) issue `ops` `out`
/// operations each; returns aggregate ops/second with the slowest client's
/// elapsed as the denominator (the coordinator cannot time the run: on a
/// single-CPU box a client can finish before the coordinator reschedules).
fn run_cell(clients: usize, ops: u64, config: ClusterConfig) -> f64 {
    let pids: Vec<u64> = (0..clients as u64).map(|i| 100 + i).collect();
    let mut cluster = ThreadedCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &pids,
        &[],
        config,
    )
    .expect("allow-all policy has no parameters");
    let barrier = Arc::new(Barrier::new(clients + 1));
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let h = cluster.handle(c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                for v in 0..ops {
                    h.out(tuple!["LOAD", c as i64, v as i64]).unwrap();
                }
                start.elapsed()
            })
        })
        .collect();
    barrier.wait();
    let slowest: Duration = joins
        .into_iter()
        .map(|j| j.join().unwrap())
        .max()
        .expect("at least one client");
    cluster.shutdown();
    (clients as u64 * ops) as f64 / slowest.as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_replication.json".to_owned());

    let client_counts: &[usize] = if smoke { &[2, 4] } else { &[1, 2, 4, 8, 16] };
    let batch_caps: &[usize] = if smoke { &[16] } else { &[4, 16, 64] };
    let windows: &[usize] = if smoke { &[1] } else { &[1, 2] };
    let ops: u64 = if smoke { 60 } else { 250 };

    let mut json_rows = Vec::new();
    let mut table_rows = Vec::new();
    for &clients in client_counts {
        for &window in windows {
            for &cap in batch_caps {
                let config = ClusterConfig {
                    batch_cap: cap,
                    max_in_flight: window,
                    ..ClusterConfig::default()
                };
                let tput = run_cell(clients, ops, config);
                json_rows.push(format!(
                    "    {{\"clients\": {clients}, \"batch_cap\": {cap}, \
                     \"window\": {window}, \"ops_per_sec\": {tput:.0}}}"
                ));
                table_rows.push(vec![
                    clients.to_string(),
                    cap.to_string(),
                    window.to_string(),
                    format!("{tput:.0}"),
                ]);
            }
        }
    }
    print_table(
        "replicated ordering: clients x batch cap x in-flight window (ops/s)",
        &["clients", "batch_cap", "window", "ops/s"],
        &table_rows,
    );

    // Disk-first recovery: fill a durable cluster to several state sizes,
    // stop it, and time one replica's cold rebuild from its data dir
    // (snapshot verify + restore + WAL suffix replay).
    let recovery_sizes: &[u64] = if smoke {
        &[40, 80, 160]
    } else {
        &[200, 800, 3200]
    };
    let mut rec_json = Vec::new();
    let mut rec_table = Vec::new();
    for &tuples in recovery_sizes {
        let dir = std::env::temp_dir().join(format!(
            "peats-bench-recovery-{}-{tuples}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ClusterConfig {
            batch_cap: 16,
            max_in_flight: 2,
            checkpoint_interval: 32,
            data_dir: Some(dir.clone()),
            ..ClusterConfig::default()
        };
        let mut cluster = ThreadedCluster::start_with(
            Policy::allow_all(),
            PolicyParams::new(),
            1,
            &[100],
            &[],
            config,
        )
        .expect("allow-all policy has no parameters");
        let h = cluster.handle(0);
        for v in 0..tuples {
            h.out(tuple!["STATE", v as i64, "recovery-benchmark-payload"])
                .unwrap();
        }
        cluster.shutdown();

        let start = Instant::now();
        let (store, recovery) =
            DurableStore::open(&dir.join("replica-0"), DurableConfig::default())
                .expect("reopen replica 0's data dir");
        let service = PeatsService::new(Policy::allow_all(), PolicyParams::new())
            .expect("allow-all policy has no parameters");
        let mut replica = Replica::new(
            ReplicaConfig {
                checkpoint_interval: 32,
                ..ReplicaConfig::new(0, 4, 1)
            },
            service,
            BTreeMap::from([(4u64, 100u64)]),
        );
        let report = replica.restore_durable(store, recovery);
        let elapsed = start.elapsed();
        let fp = replica.footprint();
        let disk_bytes = fp.wal_bytes + fp.snapshot_bytes;
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            report.last_exec >= tuples,
            "recovery lost state: last_exec {} after {tuples} writes",
            report.last_exec
        );
        let ms = elapsed.as_secs_f64() * 1e3;
        rec_json.push(format!(
            "    {{\"tuples\": {tuples}, \"last_exec\": {}, \"replayed_batches\": {}, \
             \"snapshot_seq\": {}, \"disk_bytes\": {disk_bytes}, \"recovery_ms\": {ms:.2}}}",
            report.last_exec,
            report.replayed,
            report.snapshot_seq.unwrap_or(0),
        ));
        rec_table.push(vec![
            tuples.to_string(),
            report.last_exec.to_string(),
            report.replayed.to_string(),
            disk_bytes.to_string(),
            format!("{ms:.2}ms"),
        ]);
    }
    print_table(
        "disk-first recovery: cold restart time vs state size (snapshot + WAL replay)",
        &["tuples", "last_exec", "replayed", "disk bytes", "recovery"],
        &rec_table,
    );

    let json = format!(
        "{{\n  \"bench\": \"replication_ordering\",\n  \"unit\": \"ops_per_sec\",\n  \
         \"workload\": \"clients concurrent client threads (one slot, pid, and mailbox each) \
         issuing MAC-sealed out() ops through the f=1 (4 replica threads) BFT cluster; the primary \
         drains its backlog into one slot per round (up to batch_cap requests) with at most \
         window slots in flight\",\n  \
         \"smoke\": {smoke},\n  \"results\": [\n{}\n  ],\n  \
         \"recovery\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
        rec_json.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
