//! Durable replica state: write-ahead log segments and checkpoint
//! snapshots.
//!
//! A replica with a data directory appends every executed batch to an
//! append-only log *before* executing it, and writes the full
//! [`ReplicaSnapshot`] to disk at each stable checkpoint. Restart is then
//! disk-first: load the newest verifiable snapshot, replay the log suffix,
//! and only fetch whatever tail the disk does not cover over the network —
//! which is what lets a *full-cluster* crash recover at all (there is no
//! surviving replica to fetch a snapshot from).
//!
//! Layout of a data directory:
//!
//! ```text
//! data-dir/
//!   wal-00000000000000000001.log   CRC-framed WalRecords, rotated at
//!   wal-00000000000000000002.log   each stable checkpoint / size cap
//!   snap-00000000000000000128.bin  snapshot at stable checkpoint 128
//!   snap-00000000000000000256.bin  (the newest two are retained)
//! ```
//!
//! Crash consistency rests on three mechanisms. (1) Log records are
//! [checked frames](peats_codec::read_checked_frame): a torn tail —
//! truncated header, truncated payload, or garbage bytes — is detected on
//! the first bad record and the file is truncated back to the last intact
//! one. (2) Snapshots are written to a temp file and atomically renamed
//! into place, and carry a whole-file SHA-256 so a flipped byte anywhere is
//! rejected at load; the previous snapshot is retained as the fallback,
//! with enough log suffix to replay from it. (3) The log is fsynced once
//! per event-loop pass, after the pass's votes went to the other replicas
//! and before any of its replies goes to a client: a client never holds a
//! result this replica could lose, and whatever a crash cuts off the log's
//! tail is re-fetched from the cluster, because recovery rejoins through
//! the normal state-transfer path.

use crate::messages::{ReplicaSnapshot, Request, Seq};
use peats_auth::{sha256, Digest, DIGEST_LEN};
use peats_codec::{
    read_checked_frame, write_checked_frame, Decode, DecodeError, Encode, FrameError, Reader,
    DEFAULT_MAX_FRAME,
};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file (name + format version).
const SNAP_MAGIC: &[u8; 8] = b"PEATSNP1";

/// One record in the write-ahead log.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An ordered batch, logged at its execution boundary: replaying
    /// batches in `seq` order over a restored snapshot reproduces the
    /// replica's state (execution is deterministic).
    Batch {
        /// The slot the batch executed at.
        seq: Seq,
        /// The requests, in execution order.
        batch: Vec<Request>,
    },
    /// A stable-checkpoint marker: a snapshot of the state through `seq`
    /// was persisted with this attested digest. Self-describing log
    /// boundary; recovery uses the snapshot files themselves.
    Checkpoint {
        /// The stable checkpoint sequence number.
        seq: Seq,
        /// The attested checkpoint digest.
        digest: Digest,
    },
}

impl Encode for WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Batch { seq, batch } => {
                buf.push(0);
                seq.encode(buf);
                batch.encode(buf);
            }
            WalRecord::Checkpoint { seq, digest } => {
                buf.push(1);
                seq.encode(buf);
                buf.extend_from_slice(digest);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(WalRecord::Batch {
                seq: Seq::decode(r)?,
                batch: Vec::<Request>::decode(r)?,
            }),
            1 => Ok(WalRecord::Checkpoint {
                seq: Seq::decode(r)?,
                digest: <[u8; DIGEST_LEN]>::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                tag,
                ty: "WalRecord",
            }),
        }
    }
}

/// Durability policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// `fsync` the log once per execution pass (default). Turning this off
    /// trades the crash-durability of the last few batches for throughput —
    /// the OS still writes the data out, just on its own schedule.
    pub fsync: bool,
    /// Rotate the current log segment once it exceeds this many bytes
    /// (segments also rotate at every stable checkpoint).
    pub segment_bytes: u64,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            fsync: true,
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Disk usage of a replica's data directory, surfaced through
/// [`crate::replica::ReplicaFootprint`] so bounded-disk regressions are
/// testable the same way bounded-memory ones are.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskMetrics {
    /// Total bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Number of live WAL segment files.
    pub wal_segments: usize,
    /// Total bytes across retained snapshot files.
    pub snapshot_bytes: u64,
    /// Batches appended to the log since this store was opened.
    pub appends: u64,
    /// Syncs that had unsynced writes to flush since this store was opened
    /// (a sync of a clean log does nothing and is not counted).
    pub syncs: u64,
}

/// A snapshot loaded from (or about to be written to) disk.
#[derive(Clone, Debug)]
pub struct DurableSnapshot {
    /// The stable checkpoint this snapshot anchors (`h`).
    pub stable_seq: Seq,
    /// The quorum-attested digest at `stable_seq`.
    pub stable_digest: Digest,
    /// The execution point the payload was captured at (`≥ stable_seq` —
    /// stabilization can trail execution).
    pub exec_seq: Seq,
    /// Attestation digest of the payload itself (the shared
    /// checkpoint/snapshot digest over the captured state): recovery
    /// recomputes this from the restored state, so a snapshot that passes
    /// the file checksum but was written by buggy code still cannot
    /// install silently wrong state.
    pub attested: Digest,
    /// The captured state.
    pub snapshot: ReplicaSnapshot,
}

impl DurableSnapshot {
    fn encode_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.stable_seq.encode(&mut body);
        body.extend_from_slice(&self.stable_digest);
        self.exec_seq.encode(&mut body);
        body.extend_from_slice(&self.attested);
        self.snapshot.encode(&mut body);
        body
    }

    fn decode_body(body: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(body);
        let snap = DurableSnapshot {
            stable_seq: Seq::decode(&mut r)?,
            stable_digest: <[u8; DIGEST_LEN]>::decode(&mut r)?,
            exec_seq: Seq::decode(&mut r)?,
            attested: <[u8; DIGEST_LEN]>::decode(&mut r)?,
            snapshot: ReplicaSnapshot::decode(&mut r)?,
        };
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(snap)
    }
}

/// What `open` found on disk: candidate snapshots (newest first, integrity
/// already verified) and every replayable batch from the retained log
/// segments. The replica picks the newest snapshot whose *attestation*
/// digest verifies after restoration and replays the contiguous suffix.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Intact snapshots, newest stable checkpoint first. Files whose
    /// checksum or encoding failed are skipped (and counted below).
    pub snapshots: Vec<DurableSnapshot>,
    /// Logged batches by sequence number, across all retained segments.
    pub batches: BTreeMap<Seq, Vec<Request>>,
    /// Snapshot files rejected by checksum/decoding.
    pub corrupt_snapshots: usize,
    /// `true` if a torn/corrupt log tail was detected and truncated.
    pub truncated_log: bool,
}

impl Recovery {
    /// The contiguous run of batches starting just above `exec_seq`, in
    /// order — what can be replayed on top of a snapshot captured at
    /// `exec_seq`. Stops at the first gap: anything beyond it must come
    /// from the cluster via ordinary state transfer.
    pub fn replay_from(&self, exec_seq: Seq) -> Vec<(Seq, Vec<Request>)> {
        let mut out = Vec::new();
        let mut next = exec_seq + 1;
        while let Some(batch) = self.batches.get(&next) {
            out.push((next, batch.clone()));
            next += 1;
        }
        out
    }
}

/// Outcome of a replica's disk-first recovery
/// ([`crate::Replica::restore_durable`]), for logging and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Stable checkpoint of the snapshot adopted (`None`: started from
    /// empty state — no snapshot on disk, or none verified).
    pub snapshot_seq: Option<Seq>,
    /// `true` when the newest on-disk snapshot failed verification and
    /// recovery fell back to an older one (or to empty state + replay).
    pub fell_back: bool,
    /// Batches replayed from the log on top of the snapshot.
    pub replayed: usize,
    /// Execution point after replay; anything the cluster ordered beyond
    /// it is re-fetched through ordinary state transfer.
    pub last_exec: Seq,
    /// A torn log tail was truncated during the scan.
    pub truncated_log: bool,
    /// Snapshot files rejected by checksum/decode.
    pub corrupt_snapshots: usize,
}

/// One live log segment's bookkeeping.
#[derive(Debug)]
struct Segment {
    index: u64,
    path: PathBuf,
    bytes: u64,
    /// Highest batch seq written to this segment (`0` when none): the
    /// pruning criterion.
    max_seq: Seq,
}

/// Handle on a replica's data directory: appends to the write-ahead log,
/// persists checkpoint snapshots, prunes both.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    cfg: DurableConfig,
    /// Sealed segments (no longer written), oldest first.
    sealed: Vec<Segment>,
    /// The segment currently appended to, and its open handle.
    current: Segment,
    file: File,
    /// Retained snapshot files `(stable_seq, path, bytes)`, oldest first.
    snapshots: Vec<(Seq, PathBuf, u64)>,
    /// Whether the current segment has unsynced writes.
    dirty: bool,
    /// Counters behind [`DiskMetrics::appends`] / [`DiskMetrics::syncs`].
    appends: u64,
    syncs: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:020}.log"))
}

fn snapshot_path(dir: &Path, stable_seq: Seq) -> PathBuf {
    dir.join(format!("snap-{stable_seq:020}.bin"))
}

/// Parses `prefix-<number>.<ext>` file names, returning the number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(ext)?
        .parse::<u64>()
        .ok()
}

impl DurableStore {
    /// Opens (creating if needed) a data directory, scanning it for
    /// recoverable state. Torn log tails are truncated in place; corrupt
    /// snapshot files are left on disk but skipped.
    ///
    /// # Errors
    ///
    /// Any filesystem error other than the detectable corruption above.
    pub fn open(dir: &Path, cfg: DurableConfig) -> io::Result<(DurableStore, Recovery)> {
        fs::create_dir_all(dir)?;
        let mut seg_indices = Vec::new();
        let mut snap_seqs = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(i) = parse_numbered(name, "wal-", ".log") {
                seg_indices.push(i);
            } else if let Some(s) = parse_numbered(name, "snap-", ".bin") {
                snap_seqs.push(s);
            }
        }
        seg_indices.sort_unstable();
        snap_seqs.sort_unstable();

        let mut recovery = Recovery::default();

        // Snapshots, newest first; integrity-check each.
        let mut snapshots = Vec::new();
        for &seq in &snap_seqs {
            let path = snapshot_path(dir, seq);
            let bytes = fs::metadata(&path)?.len();
            match load_snapshot(&path) {
                Ok(snap) => {
                    snapshots.push((seq, path, bytes));
                    recovery.snapshots.push(snap);
                }
                Err(_) => recovery.corrupt_snapshots += 1,
            }
        }
        recovery.snapshots.reverse();

        // Log segments in order. The first bad record truncates its file
        // back to the last intact one and ends the scan: everything behind
        // a tear is unordered garbage from a previous life.
        let mut sealed = Vec::new();
        'segments: for &index in &seg_indices {
            let path = segment_path(dir, index);
            let (records, good_bytes, clean) = scan_segment(&path)?;
            let mut max_seq = 0;
            for record in records {
                if let WalRecord::Batch { seq, batch } = record {
                    recovery.batches.insert(seq, batch);
                    max_seq = max_seq.max(seq);
                }
            }
            if !clean {
                recovery.truncated_log = true;
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(good_bytes)?;
                f.sync_all()?;
            }
            sealed.push(Segment {
                index,
                path,
                bytes: good_bytes,
                max_seq,
            });
            if !clean {
                break 'segments;
            }
        }

        // Always start appending into a fresh segment: recovery never
        // writes into a file it just scanned.
        let next_index = seg_indices.last().copied().unwrap_or(0) + 1;
        let current = Segment {
            index: next_index,
            path: segment_path(dir, next_index),
            bytes: 0,
            max_seq: 0,
        };
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&current.path)?;

        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                cfg,
                sealed,
                current,
                file,
                snapshots,
                dirty: false,
                appends: 0,
                syncs: 0,
            },
            recovery,
        ))
    }

    /// Appends one ordered batch to the log. Not yet synced — call
    /// [`sync`](Self::sync) before anything the batch produced is shown to
    /// a client.
    ///
    /// # Errors
    ///
    /// The underlying write failure; the caller degrades to memory-only.
    pub fn append_batch(&mut self, seq: Seq, batch: &[Request]) -> io::Result<()> {
        let record = WalRecord::Batch {
            seq,
            batch: batch.to_vec(),
        };
        self.append_record(&record)?;
        self.current.max_seq = self.current.max_seq.max(seq);
        self.appends += 1;
        Ok(())
    }

    fn append_record(&mut self, record: &WalRecord) -> io::Result<()> {
        let payload = record.to_bytes();
        let framed = payload.len() as u64 + 8;
        write_checked_frame(&mut self.file, &payload, DEFAULT_MAX_FRAME).map_err(frame_to_io)?;
        self.current.bytes += framed;
        self.dirty = true;
        if self.current.bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Flushes and (by policy) fsyncs the current segment — one call per
    /// event-loop pass, so the sync cost is amortized over every batch the
    /// pass executed.
    ///
    /// # Errors
    ///
    /// The underlying flush/sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        self.file.flush()?;
        if self.cfg.fsync {
            self.file.sync_data()?;
        }
        self.dirty = false;
        self.syncs += 1;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        let next_index = self.current.index + 1;
        let next = Segment {
            index: next_index,
            path: segment_path(&self.dir, next_index),
            bytes: 0,
            max_seq: 0,
        };
        let file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&next.path)?;
        self.sealed.push(std::mem::replace(&mut self.current, next));
        self.file = file;
        Ok(())
    }

    /// Persists a stable-checkpoint snapshot (atomic tmp+rename), marks the
    /// boundary in the log, rotates the segment, and prunes: the newest two
    /// snapshots are retained, and every sealed segment whose batches are
    /// all covered by the *older* retained snapshot is deleted — so the
    /// fallback path (newest snapshot corrupt → previous snapshot + longer
    /// replay) always has the log suffix it needs.
    ///
    /// # Errors
    ///
    /// The underlying filesystem failure.
    pub fn persist_checkpoint(&mut self, snap: &DurableSnapshot) -> io::Result<()> {
        // Write-then-rename: a crash mid-write leaves only a tmp file,
        // never a half snapshot under the real name.
        let path = snapshot_path(&self.dir, snap.stable_seq);
        let tmp = path.with_extension("tmp");
        let body = snap.encode_body();
        {
            let mut f = File::create(&tmp)?;
            f.write_all(SNAP_MAGIC)?;
            f.write_all(&sha256(&body))?;
            f.write_all(&body)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        let bytes = (SNAP_MAGIC.len() + DIGEST_LEN + body.len()) as u64;
        self.snapshots.retain(|(s, _, _)| *s != snap.stable_seq);
        self.snapshots.push((snap.stable_seq, path, bytes));
        self.snapshots.sort_unstable_by_key(|(s, _, _)| *s);

        self.append_record(&WalRecord::Checkpoint {
            seq: snap.stable_seq,
            digest: snap.stable_digest,
        })?;
        self.rotate()?;

        // Prune snapshots beyond the newest two.
        while self.snapshots.len() > 2 {
            let (_, old, _) = self.snapshots.remove(0);
            fs::remove_file(old)?;
        }
        // Prune segments fully covered by the fallback snapshot: replay
        // from it only needs batches above its checkpoint's exec point,
        // and `exec_seq ≥ stable_seq` always holds.
        let fallback_floor = self.snapshots.first().map_or(0, |(s, _, _)| *s);
        let mut kept = Vec::new();
        for seg in self.sealed.drain(..) {
            if seg.max_seq <= fallback_floor {
                fs::remove_file(&seg.path)?;
            } else {
                kept.push(seg);
            }
        }
        self.sealed = kept;
        Ok(())
    }

    /// Current disk usage.
    pub fn metrics(&self) -> DiskMetrics {
        DiskMetrics {
            wal_bytes: self.current.bytes + self.sealed.iter().map(|s| s.bytes).sum::<u64>(),
            wal_segments: self.sealed.len() + 1,
            snapshot_bytes: self.snapshots.iter().map(|(_, _, b)| *b).sum(),
            appends: self.appends,
            syncs: self.syncs,
        }
    }
}

fn frame_to_io(e: FrameError) -> io::Error {
    match e {
        FrameError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

/// Loads and integrity-checks one snapshot file.
fn load_snapshot(path: &Path) -> io::Result<DurableSnapshot> {
    let bytes = fs::read(path)?;
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_owned());
    if bytes.len() < SNAP_MAGIC.len() + DIGEST_LEN {
        return Err(bad("snapshot file shorter than its header"));
    }
    if &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(bad("snapshot magic mismatch"));
    }
    let (checksum, body) = bytes[SNAP_MAGIC.len()..].split_at(DIGEST_LEN);
    if sha256(body) != checksum {
        return Err(bad("snapshot checksum mismatch"));
    }
    DurableSnapshot::decode_body(body)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Scans one log segment, returning its intact records, the byte offset of
/// the end of the last intact record, and whether the scan ended cleanly
/// (EOF exactly on a record boundary) rather than at a torn/corrupt tail.
fn scan_segment(path: &Path) -> io::Result<(Vec<WalRecord>, u64, bool)> {
    let file = File::open(path)?;
    let mut r = BufReader::new(file);
    let mut records = Vec::new();
    let mut good = 0u64;
    loop {
        match read_checked_frame(&mut r, DEFAULT_MAX_FRAME) {
            Ok(None) => return Ok((records, good, true)),
            Ok(Some(payload)) => match WalRecord::from_bytes(&payload) {
                Ok(record) => {
                    good += payload.len() as u64 + 8;
                    records.push(record);
                }
                // A frame whose CRC passes but whose payload does not
                // decode: bytes from a different format version or a
                // corruption the CRC happened to miss. Truncate here too.
                Err(_) => return Ok((records, good, false)),
            },
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Ok((records, good, false));
            }
            Err(FrameError::Corrupt { .. }) | Err(FrameError::TooLarge { .. }) => {
                return Ok((records, good, false));
            }
            Err(FrameError::Io(e)) => return Err(e),
        }
    }
}

/// A not-yet-existing temp directory, unique per call, for a test's data.
#[cfg(test)]
pub(crate) fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "peats-wal-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RequestOp;
    use peats_policy::OpCall;
    use peats_tuplespace::tuple;
    use std::io::{Read, Seek, SeekFrom};

    /// Flips one byte `offset_from_end` before the end of `path`.
    fn flip_byte(path: &Path, offset_from_end: u64) -> io::Result<()> {
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        let len = f.metadata()?.len();
        let pos = len.saturating_sub(1 + offset_from_end);
        f.seek(SeekFrom::Start(pos))?;
        let mut b = [0u8; 1];
        f.read_exact(&mut b)?;
        f.seek(SeekFrom::Start(pos))?;
        f.write_all(&[b[0] ^ 0xFF])?;
        Ok(())
    }

    fn req(client: u64, req_id: u64) -> Request {
        Request {
            client,
            req_id,
            op: RequestOp::Call(OpCall::out(tuple!["JOB", req_id as i64]).into_owned()),
        }
    }

    fn snap(stable_seq: Seq, exec_seq: Seq) -> DurableSnapshot {
        DurableSnapshot {
            stable_seq,
            stable_digest: sha256(&stable_seq.to_le_bytes()),
            exec_seq,
            attested: sha256(&exec_seq.to_le_bytes()),
            snapshot: ReplicaSnapshot {
                space: Default::default(),
                client_registry: vec![(4, 100)],
                replies: Vec::new(),
                registrations: Vec::new(),
                next_reg: 0,
            },
        }
    }

    #[test]
    fn wal_record_roundtrips() {
        for record in [
            WalRecord::Batch {
                seq: 7,
                batch: vec![req(100, 1), req(101, 2)],
            },
            WalRecord::Batch {
                seq: 8,
                batch: Vec::new(),
            },
            WalRecord::Checkpoint {
                seq: 128,
                digest: sha256(b"ckpt"),
            },
        ] {
            let bytes = record.to_bytes();
            assert_eq!(WalRecord::from_bytes(&bytes).expect("roundtrip"), record);
            for cut in 0..bytes.len() {
                assert!(WalRecord::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn fresh_open_then_reopen_replays_batches() {
        let dir = fresh_dir("replay");
        {
            let (mut store, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
            assert!(recovery.snapshots.is_empty());
            assert!(recovery.batches.is_empty());
            store.append_batch(1, &[req(100, 1)]).unwrap();
            store.append_batch(2, &[req(100, 2), req(101, 1)]).unwrap();
            store.sync().unwrap();
        }
        let (_store, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(!recovery.truncated_log);
        let replay = recovery.replay_from(0);
        assert_eq!(replay.len(), 2);
        assert_eq!(replay[0], (1, vec![req(100, 1)]));
        assert_eq!(replay[1].1.len(), 2);
        // A gap stops the replay.
        assert!(recovery.replay_from(2).is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_complete_record() {
        let dir = fresh_dir("torn");
        let seg_path;
        {
            let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
            store.append_batch(1, &[req(100, 1)]).unwrap();
            store.append_batch(2, &[req(100, 2)]).unwrap();
            store.sync().unwrap();
            seg_path = store.current.path.clone();
        }
        // Tear the tail: chop bytes off the last record.
        let len = fs::metadata(&seg_path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg_path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let (_store, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(recovery.truncated_log);
        assert_eq!(recovery.replay_from(0), vec![(1, vec![req(100, 1)])]);
        // The tear was truncated away on disk: a third open is clean.
        drop(_store);
        let (_s, again) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(!again.truncated_log);
        assert_eq!(again.batches.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_tail_bytes_recover_too() {
        let dir = fresh_dir("corrupt");
        let seg_path;
        {
            let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
            store.append_batch(1, &[req(100, 1)]).unwrap();
            store.append_batch(2, &[req(100, 2)]).unwrap();
            store.sync().unwrap();
            seg_path = store.current.path.clone();
        }
        flip_byte(&seg_path, 0).unwrap();
        let (_store, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert!(recovery.truncated_log);
        assert_eq!(recovery.replay_from(0), vec![(1, vec![req(100, 1)])]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrip_and_flipped_byte_rejection() {
        let dir = fresh_dir("snap");
        {
            let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
            store.append_batch(1, &[req(100, 1)]).unwrap();
            store.persist_checkpoint(&snap(1, 1)).unwrap();
            store.append_batch(2, &[req(100, 2)]).unwrap();
            store.persist_checkpoint(&snap(2, 2)).unwrap();
            store.sync().unwrap();
        }
        {
            let (_s, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
            assert_eq!(recovery.corrupt_snapshots, 0);
            assert_eq!(recovery.snapshots.len(), 2);
            // Newest first.
            assert_eq!(recovery.snapshots[0].stable_seq, 2);
            assert_eq!(
                recovery.snapshots[0].snapshot.client_registry,
                vec![(4, 100)]
            );
        }
        // Flip one byte mid-payload of the newest snapshot: it must be
        // rejected, leaving the previous snapshot + its longer replay.
        flip_byte(&snapshot_path(&dir, 2), 10).unwrap();
        let (_s, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(recovery.corrupt_snapshots, 1);
        assert_eq!(recovery.snapshots.len(), 1);
        assert_eq!(recovery.snapshots[0].stable_seq, 1);
        // The fallback's replay suffix survived pruning.
        assert_eq!(recovery.replay_from(1), vec![(2, vec![req(100, 2)])]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_bound_disk_usage() {
        let dir = fresh_dir("bounded");
        let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let mut peak_segments = 0;
        for ckpt in 1..=20u64 {
            for i in 0..4 {
                let seq = (ckpt - 1) * 4 + i + 1;
                store.append_batch(seq, &[req(100, seq)]).unwrap();
            }
            store.sync().unwrap();
            store.persist_checkpoint(&snap(ckpt * 4, ckpt * 4)).unwrap();
            let m = store.metrics();
            peak_segments = peak_segments.max(m.wal_segments);
            assert!(
                m.wal_segments <= 3,
                "checkpoint {ckpt}: {} segments live",
                m.wal_segments
            );
            assert_eq!(store.snapshots.len().min(2), store.snapshots.len());
        }
        let m = store.metrics();
        assert!(m.wal_bytes < 4096, "wal did not stay bounded: {m:?}");
        assert!(m.snapshot_bytes > 0);
        assert!(peak_segments >= 2, "rotation never observed");
        // On-disk file census agrees with the metrics.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names.iter().filter(|n| n.starts_with("snap-")).count(),
            2,
            "{names:?}"
        );
        assert_eq!(
            names.iter().filter(|n| n.starts_with("wal-")).count(),
            m.wal_segments,
            "{names:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_cap_rotates_segments() {
        let dir = fresh_dir("sizecap");
        let cfg = DurableConfig {
            segment_bytes: 64,
            ..DurableConfig::default()
        };
        let (mut store, _) = DurableStore::open(&dir, cfg).unwrap();
        for seq in 1..=10u64 {
            store.append_batch(seq, &[req(100, seq)]).unwrap();
        }
        store.sync().unwrap();
        assert!(store.metrics().wal_segments > 1);
        drop(store);
        let (_s, recovery) = DurableStore::open(&dir, cfg).unwrap();
        assert_eq!(recovery.replay_from(0).len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }
}
