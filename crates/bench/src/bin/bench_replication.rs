//! `bench_replication` — machine-readable throughput baseline for the BFT
//! ordering path: batched + pipelined request ordering vs the
//! one-slot-per-request baseline, swept over batch caps and concurrent
//! clients.
//!
//! Each cell starts a fresh `ThreadedCluster` (f = 1, 4 replica threads),
//! hands every client its own slot (own pid, own mailbox), and times
//! `clients × ops` MAC-sealed `out` operations issued concurrently. The
//! baseline configuration assigns one PrePrepare/Prepare/Commit round per
//! request; the batched configurations drain the request backlog into one
//! slot per round, sweeping the batch cap and the in-flight window —
//! amortizing the three-phase round over the whole backlog.
//!
//! A second section compares checkpointing-on vs -off over a longer run:
//! same batched configuration, with and without PBFT checkpoints/GC, timing
//! the ordering path and reporting the slot-log high-water mark each mode
//! retains at the end — the bounded-memory claim as a measured number.
//!
//! A third section re-runs the batched configuration over the real TCP
//! socket transport (`peats-net`'s loopback [`TcpCluster`]) — once raw and
//! once with 1 ms of injected per-frame latency — quantifying what the
//! kernel socket path and wire latency cost relative to in-memory
//! channels.
//!
//! A fourth section measures the quorum read fast path: a read-heavy mix
//! (one `out` per eight `rdp`s) with reads served either by the one-round
//! `f+1` quorum fast path or forced through the full ordering pipeline
//! (`fast_reads: false`), over both thread channels and loopback TCP.
//!
//! A fifth section prices durability: the batched write workload with the
//! write-ahead log off, on with per-batch fsync, and on without fsync.
//!
//! A sixth section measures disk-first recovery: fill a durable cluster to
//! several state sizes, stop it, and time a cold `DurableStore::open` +
//! snapshot restore + WAL replay of one replica — the restart path as a
//! measured number, with the on-disk footprint it reads. A snapshot is
//! taken when the log has outgrown the last one, not at every checkpoint,
//! so `snapshot_seq` trails `last_exec` by up to about a state's worth of
//! log, `replayed_batches` is that suffix, and `disk_bytes` is two
//! snapshots plus the log since the older one.
//!
//! Emits `BENCH_replication.json` (override with `--out PATH`) in the same
//! shape as `BENCH_space.json`; `--smoke` shrinks the sweep for CI.
//!
//! ```text
//! cargo run --release -p peats-bench --bin bench_replication -- --out BENCH_replication.json
//! ```

use peats::{Policy, PolicyParams, TupleSpace};
use peats_bench::print_table;
use peats_net::{TcpCluster, TcpClusterConfig, TcpConfig};
use peats_replication::{
    ClientConfig, ClusterConfig, DurableConfig, DurableStore, PeatsService, Replica, ReplicaConfig,
    ThreadedCluster,
};
use peats_tuplespace::{template, tuple};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One timed cell: `clients` threads (one slot each) issue `ops` `out`
/// operations each; returns aggregate ops/second with the slowest client's
/// elapsed as the denominator (the coordinator cannot time the run: on a
/// single-CPU box a client can finish before the coordinator reschedules).
fn run_cell(clients: usize, ops: u64, config: ClusterConfig) -> f64 {
    run_cell_with_slots(clients, ops, config).0
}

/// Like [`run_cell`] but also reports the largest slot log any replica
/// retains once the run settles — the memory the checkpoint comparison
/// makes visible.
fn run_cell_with_slots(clients: usize, ops: u64, config: ClusterConfig) -> (f64, usize) {
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
    let throughput = (clients as u64 * ops) as f64 / slowest.as_secs_f64();
    // Let the trailing checkpoint exchange settle before reading the logs.
    std::thread::sleep(Duration::from_millis(200));
    let max_slots = (0..cluster.n_replicas())
        .map(|id| cluster.replica_footprint(id).slots)
        .max()
        .unwrap_or(0);
    cluster.shutdown();
    (throughput, max_slots)
}

/// [`run_cell`] over real loopback sockets: same workload shape, but every
/// message crosses the kernel's TCP stack (optionally with injected
/// per-frame latency).
fn run_socket_cell(clients: usize, ops: u64, config: TcpClusterConfig) -> f64 {
    let pids: Vec<u64> = (0..clients as u64).map(|i| 100 + i).collect();
    let mut cluster = TcpCluster::start(Policy::allow_all(), PolicyParams::new(), 1, &pids, config)
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
    let throughput = (clients as u64 * ops) as f64 / slowest.as_secs_f64();
    cluster.shutdown();
    throughput
}

/// Batched ordering configuration with the fast read path toggled.
fn read_mix_config(fast: bool) -> ClusterConfig {
    ClusterConfig {
        batch_cap: 16,
        max_in_flight: 2,
        client: ClientConfig {
            fast_reads: fast,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// What one client's read-heavy mix measured: total wall time and ops for
/// the whole mix, plus the time spent inside the read calls alone — the
/// read-throughput numerator excludes the interleaved (always-ordered)
/// writes, so the two paths are compared on the reads they differ on.
struct MixOutcome {
    read_time: Duration,
    reads: u64,
    total_time: Duration,
    ops: u64,
}

/// The read-heavy mix one client runs: `reads` `rdp`s against its own hot
/// tuple, with one `out` interleaved per eight reads.
fn read_mix<S: TupleSpace>(h: &S, c: usize, reads: u64) -> MixOutcome {
    let hot = template!["HOT", c as i64];
    let start = Instant::now();
    let mut read_time = Duration::ZERO;
    let mut ops = 0u64;
    for v in 0..reads {
        if v % 8 == 0 {
            h.out(tuple!["MIX", c as i64, v as i64]).unwrap();
            ops += 1;
        }
        let t = Instant::now();
        assert!(h.rdp(&hot).unwrap().is_some(), "hot tuple must be visible");
        read_time += t.elapsed();
        ops += 1;
    }
    MixOutcome {
        read_time,
        reads,
        total_time: start.elapsed(),
        ops,
    }
}

/// Aggregated cell numbers: reads/s over the slowest client's read-path
/// time, whole-mix ops/s, and how many reads the fast path actually served
/// vs punted to the ordering pipeline.
struct ReadCell {
    reads_per_sec: f64,
    mix_ops_per_sec: f64,
    fast_served: u64,
    fallbacks: u64,
}

fn aggregate(outcomes: Vec<MixOutcome>, fast_served: u64, fallbacks: u64) -> ReadCell {
    let reads: u64 = outcomes.iter().map(|o| o.reads).sum();
    let ops: u64 = outcomes.iter().map(|o| o.ops).sum();
    let read_time = outcomes.iter().map(|o| o.read_time).max().unwrap();
    let total_time = outcomes.iter().map(|o| o.total_time).max().unwrap();
    ReadCell {
        reads_per_sec: reads as f64 / read_time.as_secs_f64(),
        mix_ops_per_sec: ops as f64 / total_time.as_secs_f64(),
        fast_served,
        fallbacks,
    }
}

/// One read-mix cell over thread channels: `clients` threads run
/// [`read_mix`] concurrently; reads ride the fast path iff `fast`.
fn run_read_cell(clients: usize, reads: u64, fast: bool) -> ReadCell {
    let pids: Vec<u64> = (0..clients as u64).map(|i| 100 + i).collect();
    let mut cluster = ThreadedCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &pids,
        &[],
        read_mix_config(fast),
    )
    .expect("allow-all policy has no parameters");
    let barrier = Arc::new(Barrier::new(clients + 1));
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let h = cluster.handle(c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                h.out(tuple!["HOT", c as i64]).unwrap(); // seed before timing
                barrier.wait();
                let outcome = read_mix(&h, c, reads);
                (outcome, h.fast_reads_served(), h.fast_read_fallbacks())
            })
        })
        .collect();
    barrier.wait();
    let mut outcomes = Vec::new();
    let (mut fast_served, mut fallbacks) = (0u64, 0u64);
    for j in joins {
        let (outcome, served, fell) = j.join().unwrap();
        outcomes.push(outcome);
        fast_served += served;
        fallbacks += fell;
    }
    let cell = aggregate(outcomes, fast_served, fallbacks);
    cluster.shutdown();
    cell
}

/// [`run_read_cell`] over real loopback sockets.
fn run_socket_read_cell(clients: usize, reads: u64, fast: bool) -> ReadCell {
    let pids: Vec<u64> = (0..clients as u64).map(|i| 100 + i).collect();
    let mut cluster = TcpCluster::start(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &pids,
        TcpClusterConfig {
            cluster: read_mix_config(fast),
            tcp: TcpConfig::default(),
        },
    )
    .expect("allow-all policy has no parameters");
    let barrier = Arc::new(Barrier::new(clients + 1));
    let joins: Vec<_> = (0..clients)
        .map(|c| {
            let h = cluster.handle(c);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                h.out(tuple!["HOT", c as i64]).unwrap();
                barrier.wait();
                let outcome = read_mix(&h, c, reads);
                (outcome, h.fast_reads_served(), h.fast_read_fallbacks())
            })
        })
        .collect();
    barrier.wait();
    let mut outcomes = Vec::new();
    let (mut fast_served, mut fallbacks) = (0u64, 0u64);
    for j in joins {
        let (outcome, served, fell) = j.join().unwrap();
        outcomes.push(outcome);
        fast_served += served;
        fallbacks += fell;
    }
    let cell = aggregate(outcomes, fast_served, fallbacks);
    cluster.shutdown();
    cell
}

/// What one blocking-mode run measured: wake-after-out latency quantiles
/// and how many ordered consensus rounds each blocked op cost.
struct BlockingCell {
    p50: Duration,
    p99: Duration,
    rounds_per_op: f64,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One blocking cell: a waiter client blocks on tuple `i` while a writer
/// client waits `park_ms` (so the block is genuinely parked) and then
/// writes the match, for `events` rounds. `push: true` uses the
/// server-side registration/wake path (`take`); `push: false` replays the
/// old client-driven strategy — poll `inp` on a 2 ms tick — as the
/// baseline, where every poll is a full consensus round.
fn run_blocking_cell(events: u64, park_ms: u64, push: bool) -> BlockingCell {
    let mut cluster = ThreadedCluster::start_with(
        Policy::allow_all(),
        PolicyParams::new(),
        1,
        &[100, 101],
        &[],
        ClusterConfig {
            batch_cap: 16,
            max_in_flight: 2,
            ..ClusterConfig::default()
        },
    )
    .expect("allow-all policy has no parameters");
    let waiter = cluster.handle(0);
    let writer = cluster.handle(1);
    let probe = waiter.clone();
    let waiter_j = std::thread::spawn(move || {
        let mut done = Vec::with_capacity(events as usize);
        for i in 0..events {
            let template = template!["BW", i as i64];
            let got = if push {
                waiter.take(&template).unwrap()
            } else {
                loop {
                    if let Some(t) = waiter.inp(&template).unwrap() {
                        break t;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            };
            assert_eq!(got, tuple!["BW", i as i64]);
            done.push(Instant::now());
        }
        done
    });
    let mut written = Vec::with_capacity(events as usize);
    for i in 0..events {
        std::thread::sleep(Duration::from_millis(park_ms));
        written.push(Instant::now());
        writer.out(tuple!["BW", i as i64]).unwrap();
    }
    let woken = waiter_j.join().unwrap();
    let mut latencies: Vec<Duration> = woken
        .iter()
        .zip(&written)
        .map(|(t1, t0)| t1.saturating_duration_since(*t0))
        .collect();
    latencies.sort();
    let rounds_per_op = probe.issued_requests() as f64 / events as f64;
    cluster.shutdown();
    BlockingCell {
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        rounds_per_op,
    }
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
        let baseline = run_cell(clients, ops, ClusterConfig::one_slot_per_request());
        let mut record = |label: &str, batch_cap: usize, window: &str, tput: f64| {
            let speedup = tput / baseline;
            json_rows.push(format!(
                "    {{\"clients\": {clients}, \"ordering\": \"{label}\", \
                 \"batch_cap\": {batch_cap}, \"window\": \"{window}\", \
                 \"ops_per_sec\": {tput:.0}, \"speedup_vs_baseline\": {speedup:.2}}}"
            ));
            table_rows.push(vec![
                clients.to_string(),
                label.to_owned(),
                batch_cap.to_string(),
                window.to_owned(),
                format!("{tput:.0}"),
                format!("{speedup:.2}x"),
            ]);
        };
        record("one_slot_per_request", 1, "unbounded", baseline);
        for &window in windows {
            for &cap in batch_caps {
                let config = ClusterConfig {
                    batch_cap: cap,
                    max_in_flight: window,
                    ..ClusterConfig::default()
                };
                record(
                    "batched_pipelined",
                    cap,
                    &window.to_string(),
                    run_cell(clients, ops, config),
                );
            }
        }
    }

    print_table(
        "replicated ordering: one slot per request vs batched+pipelined (ops/s)",
        &[
            "clients",
            "ordering",
            "batch_cap",
            "window",
            "ops/s",
            "speedup",
        ],
        &table_rows,
    );

    // Checkpointing on vs off over a longer run: the throughput cost of
    // bounded logs, and the retained slot-log size that buys it.
    let ckpt_clients = if smoke { 2 } else { 4 };
    let ckpt_ops: u64 = if smoke { 80 } else { 400 };
    let mut ckpt_json = Vec::new();
    let mut ckpt_table = Vec::new();
    for (label, interval) in [("off", 0u64), ("on", 32u64)] {
        let config = ClusterConfig {
            batch_cap: 16,
            max_in_flight: 2,
            checkpoint_interval: interval,
            ..ClusterConfig::default()
        };
        let (tput, max_slots) = run_cell_with_slots(ckpt_clients, ckpt_ops, config);
        ckpt_json.push(format!(
            "    {{\"checkpointing\": \"{label}\", \"checkpoint_interval\": {interval}, \
             \"clients\": {ckpt_clients}, \"ops_per_client\": {ckpt_ops}, \
             \"ops_per_sec\": {tput:.0}, \"max_slots_retained\": {max_slots}}}"
        ));
        ckpt_table.push(vec![
            label.to_owned(),
            interval.to_string(),
            format!("{tput:.0}"),
            max_slots.to_string(),
        ]);
    }
    print_table(
        "checkpointing on vs off (long run): throughput and retained slot log",
        &["checkpointing", "interval", "ops/s", "max slots retained"],
        &ckpt_table,
    );

    // The same batched configuration over thread channels vs real loopback
    // sockets, with and without injected wire latency.
    let sock_clients = if smoke { 2 } else { 4 };
    let sock_ops: u64 = if smoke { 40 } else { 200 };
    let sock_proto = ClusterConfig {
        batch_cap: 16,
        max_in_flight: 2,
        ..ClusterConfig::default()
    };
    let mut sock_json = Vec::new();
    let mut sock_table = Vec::new();
    let mut record_sock = |transport: &str, delay_ms: u64, tput: f64| {
        sock_json.push(format!(
            "    {{\"transport\": \"{transport}\", \"send_delay_ms\": {delay_ms}, \
             \"clients\": {sock_clients}, \"ops_per_client\": {sock_ops}, \
             \"ops_per_sec\": {tput:.0}}}"
        ));
        sock_table.push(vec![
            transport.to_owned(),
            delay_ms.to_string(),
            format!("{tput:.0}"),
        ]);
    };
    record_sock(
        "thread_channels",
        0,
        run_cell(sock_clients, sock_ops, sock_proto.clone()),
    );
    for delay_ms in [0u64, 1] {
        let tput = run_socket_cell(
            sock_clients,
            sock_ops,
            TcpClusterConfig {
                cluster: sock_proto.clone(),
                tcp: TcpConfig {
                    send_delay: Duration::from_millis(delay_ms),
                    ..TcpConfig::default()
                },
            },
        );
        record_sock("tcp_loopback", delay_ms, tput);
    }
    print_table(
        "transport comparison: thread channels vs loopback TCP (batched ordering, ops/s)",
        &["transport", "send delay (ms)", "ops/s"],
        &sock_table,
    );

    // The quorum read fast path vs the full ordering pipeline on a
    // read-heavy mix: same workload, only the read routing differs.
    let read_clients: &[usize] = if smoke { &[1, 2] } else { &[1, 8, 16] };
    let tcp_read_clients: &[usize] = if smoke { &[2] } else { &[1, 8] };
    let reads: u64 = if smoke { 24 } else { 240 };
    let mut read_json = Vec::new();
    let mut read_table = Vec::new();
    let mut record_read =
        |transport: &str, clients: usize, path: &str, cell: &ReadCell, speedup: f64| {
            read_json.push(format!(
                "    {{\"transport\": \"{transport}\", \"clients\": {clients}, \
                 \"path\": \"{path}\", \"reads_per_client\": {reads}, \
                 \"reads_per_sec\": {:.0}, \"mix_ops_per_sec\": {:.0}, \
                 \"fast_served\": {}, \"fallbacks\": {}, \
                 \"read_speedup_vs_ordered\": {speedup:.2}}}",
                cell.reads_per_sec, cell.mix_ops_per_sec, cell.fast_served, cell.fallbacks
            ));
            read_table.push(vec![
                transport.to_owned(),
                clients.to_string(),
                path.to_owned(),
                format!("{:.0}", cell.reads_per_sec),
                format!("{:.0}", cell.mix_ops_per_sec),
                cell.fallbacks.to_string(),
                format!("{speedup:.2}x"),
            ]);
        };
    for &clients in read_clients {
        let ordered = run_read_cell(clients, reads, false);
        let fast = run_read_cell(clients, reads, true);
        let speedup = fast.reads_per_sec / ordered.reads_per_sec;
        record_read("thread_channels", clients, "ordered", &ordered, 1.0);
        record_read("thread_channels", clients, "fast", &fast, speedup);
    }
    for &clients in tcp_read_clients {
        let ordered = run_socket_read_cell(clients, reads, false);
        let fast = run_socket_read_cell(clients, reads, true);
        let speedup = fast.reads_per_sec / ordered.reads_per_sec;
        record_read("tcp_loopback", clients, "ordered", &ordered, 1.0);
        record_read("tcp_loopback", clients, "fast", &fast, speedup);
    }
    print_table(
        "read fast path: one-round f+1 quorum reads vs fully ordered reads (read-heavy mix)",
        &[
            "transport",
            "clients",
            "path",
            "reads/s",
            "mix ops/s",
            "fallbacks",
            "read speedup",
        ],
        &read_table,
    );

    // Blocked rd/take: server-side registration+wake vs the old
    // poll-every-tick strategy — consensus rounds per blocked op and
    // wake-after-out latency at match time.
    let blocking_events: u64 = if smoke { 8 } else { 40 };
    let park_ms: u64 = if smoke { 10 } else { 15 };
    let mut blocking_json = Vec::new();
    let mut blocking_table = Vec::new();
    for (mode, push) in [("poll_2ms_baseline", false), ("registered_wake", true)] {
        let cell = run_blocking_cell(blocking_events, park_ms, push);
        blocking_json.push(format!(
            "    {{\"mode\": \"{mode}\", \"events\": {blocking_events}, \
             \"park_ms\": {park_ms}, \"rounds_per_blocked_op\": {:.2}, \
             \"wake_after_out_p50_us\": {}, \"wake_after_out_p99_us\": {}}}",
            cell.rounds_per_op,
            cell.p50.as_micros(),
            cell.p99.as_micros()
        ));
        blocking_table.push(vec![
            mode.to_owned(),
            format!("{:.2}", cell.rounds_per_op),
            format!("{}us", cell.p50.as_micros()),
            format!("{}us", cell.p99.as_micros()),
        ]);
    }
    print_table(
        "blocking ops: registered server-side wakes vs client polling (consensus rounds, wake latency)",
        &["mode", "rounds/blocked op", "wake p50", "wake p99"],
        &blocking_table,
    );

    // Durability: the WAL's price on the write path. Same batched
    // configuration, with the log off, on with per-batch fsync, and on
    // without fsync (the two knobs an operator actually chooses between).
    let dur_clients = if smoke { 2 } else { 4 };
    let dur_ops: u64 = if smoke { 40 } else { 200 };
    let mut dur_json = Vec::new();
    let mut dur_table = Vec::new();
    for (mode, wal, fsync) in [
        ("wal_off", false, false),
        ("wal_fsync", true, true),
        ("wal_nofsync", true, false),
    ] {
        let scratch = wal.then(|| {
            let dir = std::env::temp_dir().join(format!(
                "peats-bench-durability-{}-{mode}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let config = ClusterConfig {
            batch_cap: 16,
            max_in_flight: 2,
            data_dir: scratch.clone(),
            durable: DurableConfig {
                fsync,
                ..DurableConfig::default()
            },
            ..ClusterConfig::default()
        };
        let tput = run_cell(dur_clients, dur_ops, config);
        if let Some(dir) = scratch {
            let _ = std::fs::remove_dir_all(&dir);
        }
        dur_json.push(format!(
            "    {{\"mode\": \"{mode}\", \"wal\": {wal}, \"fsync\": {fsync}, \
             \"clients\": {dur_clients}, \"ops_per_client\": {dur_ops}, \
             \"ops_per_sec\": {tput:.0}}}"
        ));
        dur_table.push(vec![
            mode.to_owned(),
            wal.to_string(),
            fsync.to_string(),
            format!("{tput:.0}"),
        ]);
    }
    print_table(
        "durability: write-ahead log off vs on (per-batch fsync, no fsync) on the write path (ops/s)",
        &["mode", "wal", "fsync", "ops/s"],
        &dur_table,
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
         issuing MAC-sealed out() ops through the f=1 (4 replica threads) BFT cluster\",\n  \
         \"engines\": {{\"one_slot_per_request\": \"baseline: batch_cap=1, unbounded in-flight window \
         (one PrePrepare/Prepare/Commit round per request)\", \
         \"batched_pipelined\": \"primary drains its backlog into one slot per round (up to batch_cap \
         requests), bounded in-flight window\"}},\n  \
         \"smoke\": {smoke},\n  \"results\": [\n{}\n  ],\n  \
         \"checkpointing_long_run\": [\n{}\n  ],\n  \
         \"socket_transport\": [\n{}\n  ],\n  \
         \"read_fast_path\": [\n{}\n  ],\n  \
         \"blocking_wake\": [\n{}\n  ],\n  \
         \"durability\": [\n{}\n  ],\n  \
         \"recovery\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n"),
        ckpt_json.join(",\n"),
        sock_json.join(",\n"),
        read_json.join(",\n"),
        blocking_json.join(",\n"),
        dur_json.join(",\n"),
        rec_json.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
}
