//! `space_ops` — indexed vs full-scan tuple-space storage.
//!
//! Measures `rdp`/`inp`/`cas`/`count` against a 10,000-tuple space spread
//! over 64 channels (the shared [`space_workload`]), comparing the indexed
//! `SequentialSpace` with the `ScanSpace` reference oracle the index
//! replaced. `inp` re-inserts the removed tuple so the space size stays
//! constant across iterations.
//!
//! `local_cas_inp_owner` times one policy-checked `cas` + `inp` pair on
//! `LocalPeats` under the benchmark's `owner.peats` policy, whose `cas`
//! rule reads `!exists(<"BAN", invoker()>)`: the pair locks the `LOCK` and
//! `BAN` shards and runs the monitor's cross-channel query. It runs on one
//! thread, and on one thread while a second cycles on another key.
//!
//! [`space_workload`]: peats_bench::space_workload

use criterion::{criterion_group, criterion_main, Criterion};
use peats::{LocalPeats, TupleSpace};
use peats_bench::space_workload::{chan_template, entry, indexed_space, scan_space};
use peats_policy::{parse_policy, PolicyParams};
use peats_tuplespace::{Field, Template, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const SIZE: usize = 10_000;

fn bench_rdp(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_ops/rdp_10k");
    let t̄ = chan_template(17);
    let mut idx = indexed_space(SIZE);
    group.bench_function("indexed", |b| b.iter(|| idx.rdp(&t̄).unwrap()));
    let mut scan = scan_space(SIZE);
    group.bench_function("scan", |b| b.iter(|| scan.rdp(&t̄).unwrap()));
    group.finish();
}

fn bench_inp(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_ops/inp_out_10k");
    let t̄ = chan_template(17);
    let mut idx = indexed_space(SIZE);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let t = idx.inp(&t̄).unwrap();
            idx.out(t);
        })
    });
    let mut scan = scan_space(SIZE);
    group.bench_function("scan", |b| {
        b.iter(|| {
            let t = scan.inp(&t̄).unwrap();
            scan.out(t);
        })
    });
    group.finish();
}

fn bench_cas(c: &mut Criterion) {
    // Found-case cas: the decision pattern of Alg. 1 once a decision exists.
    let mut group = c.benchmark_group("space_ops/cas_found_10k");
    let t̄ = chan_template(17);
    let probe = entry(17);
    let mut idx = indexed_space(SIZE);
    group.bench_function("indexed", |b| {
        b.iter(|| assert!(!idx.cas(&t̄, probe.clone()).inserted()))
    });
    let mut scan = scan_space(SIZE);
    group.bench_function("scan", |b| {
        b.iter(|| assert!(!scan.cas(&t̄, probe.clone()).inserted()))
    });
    group.finish();
}

fn bench_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("space_ops/count_10k");
    let t̄ = chan_template(17);
    let idx = indexed_space(SIZE);
    group.bench_function("indexed", |b| b.iter(|| idx.count(&t̄)));
    let scan = scan_space(SIZE);
    group.bench_function("scan", |b| b.iter(|| scan.count(&t̄)));
    group.finish();
}

/// Takes lock `key` as `pid` (`owner.peats`'s `Rcas`) and releases it
/// (`RinpLock`).
fn lock_cycle(h: &impl TupleSpace, key: i64, pid: i64) {
    let lock = |last: Field| Template::new(vec![Field::exact("LOCK"), Field::exact(key), last]);
    let mine = Tuple::new(vec![Value::from("LOCK"), Value::Int(key), Value::Int(pid)]);
    assert!(h.cas(&lock(Field::formal("x")), mine).unwrap().inserted());
    assert!(h.inp(&lock(Field::exact(pid))).unwrap().is_some());
}

fn bench_local_cas_inp(c: &mut Criterion) {
    let policy = parse_policy(include_str!("../../../perf/policies/owner.peats")).unwrap();
    let space = LocalPeats::new(policy, PolicyParams::new()).unwrap();
    let mut group = c.benchmark_group("space_ops/local_cas_inp_owner");
    group.sample_size(20_000);
    let h = space.handle(1);
    group.bench_function("1_thread", |b| b.iter(|| lock_cycle(&h, 1, 1)));
    let stop = Arc::new(AtomicBool::new(false));
    let other = thread::spawn({
        let (h, stop) = (space.handle(2), Arc::clone(&stop));
        move || {
            while !stop.load(Ordering::Relaxed) {
                lock_cycle(&h, 2, 2);
            }
        }
    });
    group.bench_function("2_threads_distinct_keys", |b| {
        b.iter(|| lock_cycle(&h, 1, 1))
    });
    stop.store(true, Ordering::Relaxed);
    other.join().unwrap();
    group.finish();
}

criterion_group!(
    benches,
    bench_rdp,
    bench_inp,
    bench_cas,
    bench_count,
    bench_local_cas_inp
);
criterion_main!(benches);
