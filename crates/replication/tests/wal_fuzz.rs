//! Hostile and damaged data directories.
//!
//! What `DurableStore::open` reads was written by an earlier life of the
//! replica and then sat on a disk: a power cut, a bad sector or an
//! operator's stray `cp` may have done anything to it. Whatever the files
//! hold, opening must not panic, must not take anything behind the first
//! damaged record (or behind the zeros that end a preallocated segment) for
//! part of the log, and must hand back a prefix of the batches that were
//! written — never a batch nobody logged, never one out of order.

use peats_auth::sha256;
use peats_codec::Encode;
use peats_policy::OpCall;
use peats_replication::{
    DurableConfig, DurableSnapshot, DurableStore, ReplicaSnapshot, Request, RequestOp, WalRecord,
};
use peats_tuplespace::tuple;
use proptest::prelude::*;
use std::fs::{self, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Small segments, so a killed store's zero tail is cheap to carry around.
const CFG: DurableConfig = DurableConfig {
    fsync: false,
    segment_bytes: 2048,
};

fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "peats-wal-fuzz-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn batch(seq: u64) -> Vec<Request> {
    (0..=seq % 3)
        .map(|i| Request {
            client: 100 + i,
            req_id: seq,
            op: RequestOp::Call(OpCall::out(tuple!["JOB", seq as i64, "payload"]).into_owned()),
        })
        .collect()
}

/// Offset in the segment at which each of records `1..=n` ends.
fn record_ends(n: u64) -> Vec<u64> {
    let mut end = 0;
    (1..=n)
        .map(|seq| {
            let record = WalRecord::Batch {
                seq,
                batch: batch(seq),
            };
            end += 8 + record.to_bytes().len() as u64;
            end
        })
        .collect()
}

/// Logs batches `1..=n` into a fresh directory and closes the store, or —
/// `killed` — loses it without running `Drop`, leaving the segment at its
/// preallocated length. Returns the segment's path.
fn write_log(dir: &Path, n: u64, killed: bool) -> PathBuf {
    let (mut store, _) = DurableStore::open(dir, CFG).unwrap();
    for seq in 1..=n {
        store.append_batch(seq, &batch(seq)).unwrap();
    }
    store.sync().unwrap();
    if killed {
        std::mem::forget(store);
    }
    dir.join(format!("wal-{:020}.log", 1))
}

fn overwrite(path: &Path, offset: u64, bytes: &[u8]) {
    let mut f = OpenOptions::new().write(true).open(path).unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(bytes).unwrap();
}

/// Opens `dir` and checks that what came back is batches `1..=m` for some
/// `m`, exactly as written; then that a second open finds the same log with
/// nothing left to repair. Returns `m` and whether a tear was reported.
fn recovered_prefix(dir: &Path) -> (u64, bool) {
    let (store, recovery) = DurableStore::open(dir, CFG).unwrap();
    let m = recovery.batches.len() as u64;
    for (i, (seq, got)) in recovery.batches.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "a gap or a stray batch");
        assert_eq!(got, &batch(*seq), "batch {seq} is not what was logged");
    }
    drop(store);
    let (_store, again) = DurableStore::open(dir, CFG).unwrap();
    assert!(!again.truncated_log, "the first open left damage behind");
    assert_eq!(again.batches.len() as u64, m);
    (m, recovery.truncated_log)
}

fn snapshot(stable_seq: u64) -> DurableSnapshot {
    DurableSnapshot {
        stable_seq,
        stable_digest: sha256(&stable_seq.to_le_bytes()),
        exec_seq: stable_seq,
        attested: sha256(b"attested"),
        snapshot: ReplicaSnapshot {
            space: Default::default(),
            client_registry: vec![(4, 100), (5, 101)],
            replies: Vec::new(),
            registrations: Vec::new(),
            next_reg: 0,
        },
    }
}

proptest! {
    /// Arbitrary bytes under the names of a segment and a snapshot: no
    /// panic, no snapshot adopted, and whatever the segment yields is
    /// repaired on the spot. The snapshot bytes also go in behind a valid
    /// magic, and behind a valid magic *and* checksum, so that the body
    /// decoder sees them too.
    #[test]
    fn arbitrary_files_never_panic_and_never_pass_for_state(
        wal in proptest::collection::vec(any::<u8>(), 0..400),
        snap in proptest::collection::vec(any::<u8>(), 0..200),
        dress in 0usize..3,
        zeros in 0usize..24,
    ) {
        let dir = fresh_dir("arbitrary");
        fs::create_dir_all(&dir).unwrap();
        // Some leading zeros make "starts with an end-of-log header" and
        // "short all-zero file" common cases instead of vanishing ones.
        let mut segment = vec![0u8; zeros % 12];
        segment.extend_from_slice(&wal);
        fs::write(dir.join(format!("wal-{:020}.log", 1)), &segment).unwrap();
        let mut file = Vec::new();
        if dress >= 1 {
            file.extend_from_slice(b"PEATSNP1");
        }
        if dress == 2 {
            file.extend_from_slice(&sha256(&snap));
        }
        file.extend_from_slice(&snap);
        fs::write(dir.join(format!("snap-{:020}.bin", 4)), &file).unwrap();

        let (store, recovery) = DurableStore::open(&dir, CFG).unwrap();
        prop_assert!(recovery.snapshots.is_empty());
        prop_assert_eq!(recovery.corrupt_snapshots, 1);
        if zeros % 12 >= 8 {
            prop_assert!(recovery.batches.is_empty(), "read past a zero header");
            prop_assert!(!recovery.truncated_log);
        }
        let found = recovery.batches.len();
        drop(store);
        let (_store, again) = DurableStore::open(&dir, CFG).unwrap();
        prop_assert!(!again.truncated_log);
        prop_assert_eq!(again.batches.len(), found);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One valid log, one injury: the records ahead of the injury come
    /// back and nothing else does.
    #[test]
    fn a_damaged_log_recovers_exactly_the_records_ahead_of_the_damage(
        n in 1u64..8,
        killed in any::<bool>(),
        kind in 0usize..5,
        pos in 0u64..100_000,
        xor in 1u8..=255,
    ) {
        let dir = fresh_dir("damaged");
        let seg = write_log(&dir, n, killed);
        let ends = record_ends(n);
        let written = *ends.last().unwrap();
        // Records that end at or below `offset`: the ones damage at
        // `offset` leaves alone.
        let intact_below = |offset: u64| ends.iter().filter(|end| **end <= offset).count() as u64;
        let (expect, expect_torn) = match kind {
            // A flipped byte inside a record.
            0 => {
                let at = pos % written;
                let byte = fs::read(&seg).unwrap()[at as usize];
                overwrite(&seg, at, &[byte ^ xor]);
                (intact_below(at), true)
            }
            // The file ends early.
            1 => {
                let cut = pos % (written + 1);
                OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut).unwrap();
                (intact_below(cut), !ends.contains(&cut) && cut != 0)
            }
            // Zeros where record j's header was: the log ends there, and
            // the intact records behind it are not looked at.
            2 => {
                let j = pos % n;
                let start = if j == 0 { 0 } else { ends[j as usize - 1] };
                overwrite(&seg, start, &[0; 8]);
                (j, false)
            }
            // Garbage behind the last record.
            3 => {
                let garbage: Vec<u8> = (0..1 + pos % 40).map(|i| xor.wrapping_add(i as u8) | 1).collect();
                overwrite(&seg, written, &garbage);
                (n, true)
            }
            // Everything from some point on never reached the disk. Zeros
            // from a record boundary on are a clean end; zeros from inside
            // a record are a tear (every record here ends in the bytes of
            // "payload", so losing any of its tail shows).
            _ => {
                let at = pos % written;
                overwrite(&seg, at, &vec![0; (written - at) as usize]);
                (intact_below(at), at != 0 && !ends.contains(&at))
            }
        };
        prop_assert_eq!(recovered_prefix(&dir), (expect, expect_torn), "kind {}", kind);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A snapshot file with any one byte changed, or cut short anywhere, is
    /// rejected whole; the older snapshot and the log behind it still load.
    #[test]
    fn a_damaged_snapshot_is_rejected_and_the_older_one_serves(
        pos in 0u64..100_000,
        xor in 1u8..=255,
        cut in any::<bool>(),
    ) {
        let dir = fresh_dir("snapshot");
        let (mut store, _) = DurableStore::open(&dir, CFG).unwrap();
        for seq in 1..=4u64 {
            store.append_batch(seq, &batch(seq)).unwrap();
            if seq % 2 == 0 {
                store.persist_checkpoint(&snapshot(seq)).unwrap();
            }
        }
        drop(store);
        let newest = dir.join(format!("snap-{:020}.bin", 4));
        let mut bytes = fs::read(&newest).unwrap();
        let at = (pos % bytes.len() as u64) as usize;
        if cut {
            bytes.truncate(at);
        } else {
            bytes[at] ^= xor;
        }
        fs::write(&newest, &bytes).unwrap();

        let (_store, recovery) = DurableStore::open(&dir, CFG).unwrap();
        prop_assert_eq!(recovery.corrupt_snapshots, 1);
        prop_assert_eq!(recovery.snapshots.len(), 1);
        prop_assert_eq!(recovery.snapshots[0].stable_seq, 2);
        let replay = recovery.replay_from(2);
        prop_assert_eq!(replay, vec![(3, batch(3)), (4, batch(4))]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
