//! Durable replica state: write-ahead log segments and checkpoint
//! snapshots.
//!
//! A replica with a data directory writes every executed batch to a log
//! *before* executing it, and from time to time writes its whole
//! [`ReplicaSnapshot`] beside the log. Restart is then disk-first: load the
//! newest verifiable snapshot, replay the log suffix, and only fetch
//! whatever tail the disk does not cover over the network — which is what
//! lets a *full-cluster* crash recover at all (there is no surviving
//! replica to fetch a snapshot from).
//!
//! # Layout
//!
//! ```text
//! data-dir/
//!   wal-00000000000000000001.log   sealed: CRC-framed WalRecords, exactly
//!   wal-00000000000000000002.log     as long as what was written
//!   wal-00000000000000000003.log   current: `segment_bytes` long, records
//!                                    from offset 0, zeros after them
//!   snap-00000000000000000128.bin  snapshot at stable checkpoint 128
//!   snap-00000000000000001664.bin  (the newest two are retained)
//! ```
//!
//! The current segment is created at its full length
//! ([`DurableConfig::segment_bytes`], sparse) and records are written into
//! it in place, so the `fdatasync` that sits ahead of every reply flushes
//! data only: an appending write would also change the file's size, and
//! that goes through the filesystem's journal on every sync. A segment is
//! trimmed to its written length when it is sealed and when the store is
//! dropped, so a file nobody writes to any more holds records and nothing
//! else, and directory sizes mean bytes written.
//!
//! # When a snapshot is taken
//!
//! The replicas agree on a stable checkpoint every `checkpoint_interval`
//! slots, and each is a point where a snapshot *may* be persisted. One is
//! persisted when there is none yet, or when the log written since the
//! newest one is at least as long as that snapshot
//! ([`DurableStore::wants_snapshot`]). Writing a snapshot costs its size
//! and replaying a log costs its length, so this keeps both the bytes
//! written per logged byte (at most two) and the restart work (one
//! snapshot plus at most about one snapshot's worth of log) proportional
//! to what the replica actually holds — a fixed cadence writes a 130 KB
//! snapshot per 11 KB of log on a mid-sized space, and more as the space
//! grows. The rule compares two numbers the store already has, which is
//! why it has no knob: there is no state size for which a different
//! threshold would be the better one to configure. Segments rotate and
//! are pruned only with a snapshot (or at the size cap), so the directory
//! holds two snapshots, the log between them and the log since: a
//! constant times the live state.
//!
//! # Crash consistency
//!
//! Three mechanisms. (1) Log records are
//! [checked frames](peats_codec::read_checked_frame), and the scan of a
//! segment ends at the first thing that is not one. An all-zero header is
//! the untouched rest of a segment whose store was killed — the end of the
//! log, nothing lost. A truncated header or payload, a CRC mismatch or an
//! undecodable payload is a tear: the record was being written when the
//! power went, so it was never synced and no reply depended on it. Either
//! way the file is cut back to its last intact record; only a tear is
//! reported ([`Recovery::truncated_log`]) and ends the scan of later
//! segments. (2) Snapshots are written to a temp file, fsynced and renamed
//! into place, and carry a whole-file SHA-256 so a flipped byte anywhere
//! is rejected at load; the previous snapshot is retained as the fallback,
//! with the log suffix to replay from it. The directory is fsynced after
//! the rename and before anything is unlinked — and after a segment is
//! created, and after a tail is cut — so no power cut can keep a deletion
//! and lose the file that made it safe. (3) The log is fsynced once per
//! event-loop pass, after the pass's votes went to the other replicas and
//! before any of its replies goes to a client: a client never holds a
//! result this replica could lose, and whatever a crash cuts off the log's
//! tail is re-fetched from the cluster, because recovery rejoins through
//! the normal state-transfer path.

use crate::messages::{encode_batch, ReplicaSnapshot, Request, Seq};
use peats_auth::{sha256, Digest, DIGEST_LEN};
use peats_codec::{
    crc32, read_checked_frame, Decode, DecodeError, Encode, FrameError, Reader, DEFAULT_MAX_FRAME,
};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file (name + format version).
const SNAP_MAGIC: &[u8; 8] = b"PEATSNP1";

/// Length of a checked frame's header: `u32` payload length, `u32` CRC-32.
const FRAME_HEADER: usize = 8;

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

/// Encodes a [`WalRecord::Batch`] from a borrowed batch, so that
/// [`DurableStore::append_batch`] need not clone the requests into a record
/// first.
fn encode_batch_record(seq: Seq, batch: &[Request], buf: &mut Vec<u8>) {
    buf.push(0);
    seq.encode(buf);
    encode_batch(batch, buf);
}

impl Encode for WalRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Batch { seq, batch } => encode_batch_record(*seq, batch, buf),
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
    /// Length a log segment is created at, and so the most it holds: a
    /// record that does not fit in what is left of the current segment
    /// starts the next one (segments also rotate with every snapshot). The
    /// length is set once, sparsely, so that writing a record never changes
    /// the file's size; a segment that is sealed or cleanly closed is cut
    /// back to what was written. A single record longer than this still
    /// gets a segment of its own, which it grows.
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
    /// Total bytes written across live WAL segments (the preallocated
    /// rest of the current one is not counted).
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
    /// `true` if a torn/corrupt log tail was detected and truncated. The
    /// zeros after the last record of a segment whose store was killed are
    /// not a tear.
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
    /// Bytes of records written: the offset the next record goes to.
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
    /// The segment currently written to, and its open handle, whose cursor
    /// sits at `current.bytes`.
    current: Segment,
    file: File,
    /// Retained snapshot files `(stable_seq, path, bytes)`, oldest first.
    snapshots: Vec<(Seq, PathBuf, u64)>,
    /// Log bytes written since the newest retained snapshot was taken.
    log_since_snapshot: u64,
    /// The frame being written (header, then one encoded record), kept
    /// for its allocation.
    frame: Vec<u8>,
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

/// A change to the entries of the data directory. Every one goes through
/// [`apply`](DirOp::apply), where tests record the order they ran in — the
/// order is what makes a power cut safe.
#[derive(Debug)]
enum DirOp<'a> {
    Rename(&'a Path, &'a Path),
    Unlink(&'a Path),
    /// `fsync` of the directory itself: whatever was created in it or
    /// renamed into it before this is durable after it.
    Sync(&'a Path),
}

impl DirOp<'_> {
    fn apply(self) -> io::Result<()> {
        #[cfg(test)]
        tests::DIR_OPS.with(|ops| ops.borrow_mut().push(format!("{self:?}")));
        match self {
            DirOp::Rename(from, to) => fs::rename(from, to),
            DirOp::Unlink(path) => fs::remove_file(path),
            DirOp::Sync(dir) => File::open(dir)?.sync_all(),
        }
    }
}

/// Creates segment `index` at its full length and makes the file and its
/// directory entry durable, so that no later write or sync changes either.
fn create_segment(dir: &Path, index: u64, len: u64) -> io::Result<(Segment, File)> {
    let path = segment_path(dir, index);
    let file = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)?;
    file.set_len(len)?;
    file.sync_all()?;
    DirOp::Sync(dir).apply()?;
    let segment = Segment {
        index,
        path,
        bytes: 0,
        max_seq: 0,
    };
    Ok((segment, file))
}

impl DurableStore {
    /// Opens (creating if needed) a data directory, scanning it for
    /// recoverable state. Torn log tails and the unwritten rest of a
    /// killed store's segment are cut off in place; corrupt snapshot files
    /// are left on disk but skipped.
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

        // Log segments in order. Whatever follows a segment's last intact
        // record is cut off. A tear also ends the scan: everything behind
        // it is unordered garbage from a previous life.
        let mut sealed = Vec::new();
        for &index in &seg_indices {
            let path = segment_path(dir, index);
            let scan = scan_segment(&path)?;
            let mut max_seq = 0;
            for record in scan.records {
                if let WalRecord::Batch { seq, batch } = record {
                    recovery.batches.insert(seq, batch);
                    max_seq = max_seq.max(seq);
                }
            }
            if scan.good_bytes < scan.file_bytes {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.good_bytes)?;
                f.sync_all()?;
                DirOp::Sync(dir).apply()?;
            }
            sealed.push(Segment {
                index,
                path,
                bytes: scan.good_bytes,
                max_seq,
            });
            if scan.torn {
                recovery.truncated_log = true;
                break;
            }
        }
        // Segments rotate with every snapshot, so the log written since the
        // newest one is the segments holding batches past its capture point.
        let captured = recovery.snapshots.first().map_or(0, |s| s.exec_seq);
        let log_since_snapshot = sealed
            .iter()
            .filter(|seg| seg.max_seq > captured)
            .map(|seg| seg.bytes)
            .sum();

        // Always start writing into a fresh segment: recovery never writes
        // into a file it just scanned.
        let next_index = seg_indices.last().copied().unwrap_or(0) + 1;
        let (current, file) = create_segment(dir, next_index, cfg.segment_bytes)?;

        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                cfg,
                sealed,
                current,
                file,
                snapshots,
                log_since_snapshot,
                frame: Vec::new(),
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
        self.start_frame();
        encode_batch_record(seq, batch, &mut self.frame);
        self.write_frame()?;
        self.current.max_seq = self.current.max_seq.max(seq);
        self.appends += 1;
        Ok(())
    }

    /// Empties the frame buffer but for the room its header will take; the
    /// caller encodes one record behind it and calls
    /// [`write_frame`](Self::write_frame).
    fn start_frame(&mut self) {
        self.frame.clear();
        self.frame.resize(FRAME_HEADER, 0);
    }

    /// Writes the record in the frame buffer as one checked frame — header
    /// and payload in a single `write` — at the end of the log.
    fn write_frame(&mut self) -> io::Result<()> {
        let (header, payload) = self.frame.split_at_mut(FRAME_HEADER);
        if payload.len() > DEFAULT_MAX_FRAME {
            // The scanner would refuse to read it back.
            return Err(io::Error::other(format!(
                "WAL record of {} bytes exceeds the {DEFAULT_MAX_FRAME}-byte frame limit",
                payload.len()
            )));
        }
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let framed = self.frame.len() as u64;
        if self.current.bytes > 0 && self.current.bytes + framed > self.cfg.segment_bytes {
            self.rotate()?;
        }
        self.file.write_all(&self.frame)?;
        self.current.bytes += framed;
        self.log_since_snapshot += framed;
        self.dirty = true;
        Ok(())
    }

    /// Fsyncs (by policy) the current segment — one call per event-loop
    /// pass, so the sync cost is amortized over every batch the pass
    /// executed. The records went into space the file already had, so
    /// this flushes data and no change of size.
    ///
    /// # Errors
    ///
    /// The underlying sync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.dirty {
            return Ok(());
        }
        if self.cfg.fsync {
            self.file.sync_data()?;
        }
        self.dirty = false;
        self.syncs += 1;
        Ok(())
    }

    /// Seals the current segment — synced, and cut back to what was
    /// written — and starts the next one. (If a crash loses the cut, the
    /// scanner stops at the zeros all the same.)
    fn rotate(&mut self) -> io::Result<()> {
        self.sync()?;
        self.file.set_len(self.current.bytes)?;
        let (next, file) =
            create_segment(&self.dir, self.current.index + 1, self.cfg.segment_bytes)?;
        self.sealed.push(std::mem::replace(&mut self.current, next));
        self.file = file;
        Ok(())
    }

    /// Whether the stable checkpoint the replica just reached is worth a
    /// snapshot: there is none yet, or replaying the log written since the
    /// newest one would cost as much as loading it (see the module docs).
    /// Asked before the snapshot is built, so a checkpoint that is skipped
    /// costs the event loop nothing.
    pub fn wants_snapshot(&self) -> bool {
        self.snapshots
            .last()
            .map_or(true, |(_, _, bytes)| self.log_since_snapshot >= *bytes)
    }

    /// Persists a stable-checkpoint snapshot (atomic tmp+rename, then the
    /// directory is synced), marks the boundary in the log, rotates the
    /// segment, and prunes: the newest two snapshots are retained, and
    /// every sealed segment whose batches are all covered by the *older*
    /// retained snapshot is deleted — so the fallback path (newest snapshot
    /// corrupt → previous snapshot + longer replay) always has the log
    /// suffix it needs. The caller asks [`wants_snapshot`](Self::wants_snapshot)
    /// first.
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
        DirOp::Rename(&tmp, &path).apply()?;
        // Nothing below may be unlinked on the strength of a snapshot a
        // power cut could still take back.
        DirOp::Sync(&self.dir).apply()?;
        let bytes = (SNAP_MAGIC.len() + DIGEST_LEN + body.len()) as u64;
        self.snapshots.retain(|(s, _, _)| *s != snap.stable_seq);
        self.snapshots.push((snap.stable_seq, path, bytes));
        self.snapshots.sort_unstable_by_key(|(s, _, _)| *s);

        self.start_frame();
        WalRecord::Checkpoint {
            seq: snap.stable_seq,
            digest: snap.stable_digest,
        }
        .encode(&mut self.frame);
        self.write_frame()?;
        self.rotate()?;
        self.log_since_snapshot = 0;

        // Prune snapshots beyond the newest two.
        while self.snapshots.len() > 2 {
            let (_, old, _) = self.snapshots.remove(0);
            DirOp::Unlink(&old).apply()?;
        }
        // Prune segments fully covered by the fallback snapshot: replay
        // from it only needs batches above its checkpoint's exec point,
        // and `exec_seq ≥ stable_seq` always holds.
        let fallback_floor = self.snapshots.first().map_or(0, |(s, _, _)| *s);
        let mut kept = Vec::new();
        for seg in self.sealed.drain(..) {
            if seg.max_seq <= fallback_floor {
                DirOp::Unlink(&seg.path).apply()?;
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

/// A store that is closed cleanly leaves no preallocated tail behind: the
/// directory then holds exactly the bytes that were written.
impl Drop for DurableStore {
    fn drop(&mut self) {
        let _ = self.file.set_len(self.current.bytes);
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

/// What a scan of one log segment found.
struct Scan {
    /// The intact records, in order.
    records: Vec<WalRecord>,
    /// Offset of the end of the last intact record.
    good_bytes: u64,
    /// Length of the file; whatever lies past `good_bytes` is to be cut.
    file_bytes: u64,
    /// The scan stopped at a torn or corrupt record — not at the end of the
    /// file, and not at the zeros of a preallocated tail.
    torn: bool,
}

/// Scans one log segment up to its first frame that is not an intact
/// record. An all-zero header — length 0 and the CRC of nothing, which no
/// record has, a `WalRecord` being at least its tag byte — is the rest of a
/// preallocated segment: the log ends there and nothing beyond is read.
fn scan_segment(path: &Path) -> io::Result<Scan> {
    let file = File::open(path)?;
    let mut scan = Scan {
        records: Vec::new(),
        good_bytes: 0,
        file_bytes: file.metadata()?.len(),
        torn: false,
    };
    let mut r = BufReader::new(file);
    loop {
        let payload = match read_checked_frame(&mut r, DEFAULT_MAX_FRAME) {
            Ok(None) => return Ok(scan),
            Ok(Some(payload)) if payload.is_empty() => return Ok(scan),
            Ok(Some(payload)) => Some(payload),
            Err(FrameError::Io(e)) if e.kind() != io::ErrorKind::UnexpectedEof => return Err(e),
            // Ended inside a frame, CRC mismatch, or an absurd length.
            Err(_) => None,
        };
        // A frame whose CRC passes but whose payload does not decode —
        // bytes from a different format version, or a corruption the CRC
        // happened to miss — is a tear too.
        let Some((record, payload)) =
            payload.and_then(|p| Some((WalRecord::from_bytes(&p).ok()?, p)))
        else {
            scan.torn = true;
            return Ok(scan);
        };
        scan.good_bytes += (FRAME_HEADER + payload.len()) as u64;
        scan.records.push(record);
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
    use std::cell::RefCell;
    use std::io::{Read, Seek, SeekFrom};

    thread_local! {
        /// Every [`DirOp`] this test's thread applied, in order.
        pub(super) static DIR_OPS: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    }

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
        snap_of(stable_seq, exec_seq, 1)
    }

    /// A snapshot whose size is set by `rows` (16 bytes each).
    fn snap_of(stable_seq: Seq, exec_seq: Seq, rows: u64) -> DurableSnapshot {
        DurableSnapshot {
            stable_seq,
            stable_digest: sha256(&stable_seq.to_le_bytes()),
            exec_seq,
            attested: sha256(&exec_seq.to_le_bytes()),
            snapshot: ReplicaSnapshot {
                space: Default::default(),
                client_registry: (0..rows).map(|i| (4 + i, 100 + i)).collect(),
                replies: Vec::new(),
                registrations: Vec::new(),
                next_reg: 0,
            },
        }
    }

    /// Bytes one batch of one `req` takes in the log, frame header included.
    fn framed_len(seq: Seq) -> u64 {
        let record = WalRecord::Batch {
            seq,
            batch: vec![req(100, seq)],
        };
        (FRAME_HEADER + record.to_bytes().len()) as u64
    }

    /// Segments short enough that a test can look at a whole one.
    const SMALL: DurableConfig = DurableConfig {
        fsync: true,
        segment_bytes: 4096,
    };

    /// Logs and syncs batches `1..=n` of one request each, then loses the
    /// store the way SIGKILL does: nothing of `Drop` runs, so the segment
    /// keeps its preallocated length. Returns the segment's path.
    fn killed_after(dir: &Path, cfg: DurableConfig, n: u64) -> PathBuf {
        let (mut store, _) = DurableStore::open(dir, cfg).unwrap();
        for seq in 1..=n {
            store.append_batch(seq, &[req(100, seq)]).unwrap();
            store.sync().unwrap();
        }
        let path = store.current.path.clone();
        std::mem::forget(store);
        path
    }

    /// Overwrites `bytes` at `offset` of `path`, leaving its length alone.
    fn overwrite(path: &Path, offset: u64, bytes: &[u8]) {
        let mut f = OpenOptions::new().write(true).open(path).unwrap();
        f.seek(SeekFrom::Start(offset)).unwrap();
        f.write_all(bytes).unwrap();
    }

    fn batches(n: u64) -> Vec<(Seq, Vec<Request>)> {
        (1..=n).map(|seq| (seq, vec![req(100, seq)])).collect()
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

    /// What `collect_garbage` does with a stable checkpoint: snapshot when
    /// the store asks for one. Returns whether it did.
    fn checkpoint(store: &mut DurableStore, seq: Seq, rows: u64) -> bool {
        let wanted = store.wants_snapshot();
        if wanted {
            store.persist_checkpoint(&snap_of(seq, seq, rows)).unwrap();
        }
        wanted
    }

    #[test]
    fn snapshots_follow_log_growth_and_disk_stays_bounded_by_state_size() {
        const INTERVAL: u64 = 4;
        const CHECKPOINTS: u64 = 200;
        let dir = fresh_dir("cadence");
        let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        // A state of fixed size, many intervals of log long.
        let rows = 400;
        let interval_bytes = INTERVAL * framed_len(1);
        let mut taken = Vec::new();
        for ckpt in 1..=CHECKPOINTS {
            for i in 0..INTERVAL {
                let seq = (ckpt - 1) * INTERVAL + i + 1;
                store.append_batch(seq, &[req(100, seq)]).unwrap();
            }
            store.sync().unwrap();
            if checkpoint(&mut store, ckpt * INTERVAL, rows) {
                taken.push(ckpt);
            }
            // Two snapshots, the log between them (under the older one's
            // size plus the interval that tipped it over) and the log since
            // (the same, for the newer one).
            let m = store.metrics();
            assert!(store.snapshots.len() <= 2);
            assert!(
                m.wal_bytes <= m.snapshot_bytes + 2 * interval_bytes + 2 * 64,
                "checkpoint {ckpt}: {m:?}"
            );
            assert!(m.wal_segments <= 3, "checkpoint {ckpt}: {m:?}");
        }
        let m = store.metrics();
        let snapshot_bytes = m.snapshot_bytes / 2;
        assert!(
            snapshot_bytes > 10 * interval_bytes,
            "state too small: {m:?}"
        );
        // The first checkpoint snapshots (there was none); after that, one
        // snapshot per snapshot's worth of log, to the interval.
        assert_eq!(taken[0], 1);
        let every = snapshot_bytes.div_ceil(interval_bytes);
        for pair in taken.windows(2) {
            assert_eq!(pair[1] - pair[0], every, "{taken:?}");
        }
        assert_eq!(taken.len() as u64, 1 + (CHECKPOINTS - 1) / every);
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
        // A restart replays at most what one snapshot interval logged.
        drop(store);
        let (_s, recovery) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let newest = recovery.snapshots[0].exec_seq;
        assert_eq!(newest, taken.last().unwrap() * INTERVAL);
        let replay = recovery.replay_from(newest);
        assert_eq!(newest + replay.len() as u64, CHECKPOINTS * INTERVAL);
        assert!(replay.len() as u64 <= every * INTERVAL);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Starting from nothing, every checkpoint is worth a snapshot while
    /// the state is smaller than an interval of log; as the state grows the
    /// snapshots thin out, each gap about as long as the state is large.
    #[test]
    fn a_growing_state_is_snapshotted_at_growing_distances() {
        let dir = fresh_dir("growing");
        let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let mut taken = Vec::new();
        for ckpt in 1..=256u64 {
            for seq in ckpt * 4 - 3..=ckpt * 4 {
                store.append_batch(seq, &[req(100, seq)]).unwrap();
            }
            // The state grows by one row per checkpoint.
            if checkpoint(&mut store, ckpt * 4, ckpt) {
                taken.push(ckpt);
            }
        }
        assert_eq!(taken[..3], [1, 2, 3], "{taken:?}");
        let gaps: Vec<u64> = taken.windows(2).map(|p| p[1] - p[0]).collect();
        assert!(gaps.windows(2).all(|w| w[0] <= w[1]), "{taken:?}");
        assert!(
            taken.len() < 64 && *gaps.last().unwrap() > 10,
            "256 checkpoints took {} snapshots: {taken:?}",
            taken.len()
        );
        // A reopened store picks the count up where the log left it, not
        // at zero: the next snapshot is not a whole state's worth away.
        let since = store.log_since_snapshot;
        assert!(since > 0);
        drop(store);
        let (store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        assert_eq!(store.log_since_snapshot, since);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A power cut may undo anything the directory was not synced after:
    /// the rename that publishes a snapshot must be down before the files
    /// it replaces are unlinked, or the cut can leave neither.
    #[test]
    fn a_snapshot_is_renamed_then_the_directory_synced_then_old_files_unlinked() {
        let dir = fresh_dir("dirops");
        let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        for seq in 1..=2u64 {
            store.append_batch(seq, &[req(100, seq)]).unwrap();
            store.persist_checkpoint(&snap(seq, seq)).unwrap();
        }
        store.append_batch(3, &[req(100, 3)]).unwrap();
        DIR_OPS.with(|ops| ops.borrow_mut().clear());
        // The third snapshot is the first with something to prune.
        store.persist_checkpoint(&snap(3, 3)).unwrap();
        let ops = DIR_OPS.with(|ops| ops.borrow().clone());
        let kinds: Vec<&str> = ops.iter().map(|op| &op[..op.find('(').unwrap()]).collect();
        assert_eq!(
            kinds,
            // Publish the snapshot; create the next segment; drop snapshot
            // 1 and the segment only it needed.
            ["Rename", "Sync", "Sync", "Unlink", "Unlink"],
            "{ops:?}"
        );
        assert!(
            ops[0].contains("snap-") && ops[0].contains(".tmp"),
            "{ops:?}"
        );
        assert!(
            ops[3].contains("snap-") && ops[4].contains("wal-"),
            "{ops:?}"
        );
        // Creating a segment and cutting a tail sync the directory too.
        drop(store);
        killed_after(&dir, SMALL, 1);
        DIR_OPS.with(|ops| ops.borrow_mut().clear());
        let _ = DurableStore::open(&dir, SMALL).unwrap();
        let ops = DIR_OPS.with(|ops| ops.borrow().clone());
        assert_eq!(
            ops.len(),
            2,
            "one for the cut, one for the segment: {ops:?}"
        );
        assert!(ops.iter().all(|op| op.starts_with("Sync")), "{ops:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_is_one_frame_identical_to_the_codecs() {
        let dir = fresh_dir("bytes");
        let (mut store, _) = DurableStore::open(&dir, DurableConfig::default()).unwrap();
        let batch = [req(100, 1), req(101, 2)];
        store.append_batch(7, &batch).unwrap();
        store.append_batch(8, &[]).unwrap();
        let path = store.current.path.clone();
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            DurableConfig::default().segment_bytes,
            "a live segment keeps its preallocated length"
        );
        drop(store);
        let mut expected = Vec::new();
        for (seq, batch) in [(7, batch.to_vec()), (8, Vec::new())] {
            let record = WalRecord::Batch { seq, batch };
            peats_codec::write_checked_frame(&mut expected, &record.to_bytes(), DEFAULT_MAX_FRAME)
                .unwrap();
        }
        assert_eq!(fs::read(&path).unwrap(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_killed_stores_zero_tail_is_the_end_of_the_log_not_a_tear() {
        let dir = fresh_dir("zerotail");
        let seg = killed_after(&dir, SMALL, 5);
        assert_eq!(fs::metadata(&seg).unwrap().len(), SMALL.segment_bytes);

        let (store, recovery) = DurableStore::open(&dir, SMALL).unwrap();
        assert!(!recovery.truncated_log);
        assert_eq!(recovery.replay_from(0), batches(5), "every synced batch");
        // The tail is gone and the segment is never written again.
        let written: u64 = (1..=5).map(framed_len).sum();
        assert_eq!(fs::metadata(&seg).unwrap().len(), written);
        assert_ne!(store.current.path, seg);
        assert_eq!(store.metrics().wal_bytes, written);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_inside_a_preallocated_segment_is_a_tear() {
        let written: u64 = (1..=3).map(framed_len).sum();
        let last = written - framed_len(3);
        let flip = |seg: &Path, at: u64| {
            let byte = fs::read(seg).unwrap()[at as usize];
            overwrite(seg, at, &[byte ^ 0x10]);
        };
        type Damage<'a> = &'a dyn Fn(&Path);
        let cases: [(&str, Damage<'_>, u64); 4] = [
            // Its header reached the disk, most of its payload did not.
            (
                "torn record, then zeros",
                &|seg| {
                    let kept = last + FRAME_HEADER as u64 + 4;
                    overwrite(seg, kept, &vec![0; (written - kept) as usize]);
                },
                2,
            ),
            (
                "garbage after the last record",
                &|seg| {
                    overwrite(seg, written, b"\x07not a frame header");
                },
                3,
            ),
            // Record 3 is intact, and dropped: nothing orders it any more.
            (
                "a bit flip in the middle record",
                &|seg| {
                    flip(seg, framed_len(1) + FRAME_HEADER as u64 + 3);
                },
                1,
            ),
            (
                "a bit flip in the last record's length",
                &|seg| flip(seg, last),
                2,
            ),
        ];
        for (what, damage, survivors) in cases {
            let dir = fresh_dir("tear");
            let seg = killed_after(&dir, SMALL, 3);
            damage(&seg);
            let (store, recovery) = DurableStore::open(&dir, SMALL).unwrap();
            assert!(recovery.truncated_log, "{what}");
            assert_eq!(recovery.replay_from(0), batches(survivors), "{what}");
            // Cut back on disk: the next open finds a clean log.
            drop(store);
            let (_s, again) = DurableStore::open(&dir, SMALL).unwrap();
            assert!(!again.truncated_log, "{what}");
            assert_eq!(again.replay_from(0), batches(survivors), "{what}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn records_that_exactly_fill_a_segment_leave_no_header_to_misread() {
        let dir = fresh_dir("full");
        let cfg = DurableConfig {
            segment_bytes: framed_len(1) + framed_len(2),
            ..DurableConfig::default()
        };
        let seg = killed_after(&dir, cfg, 2);
        let (mut store, recovery) = DurableStore::open(&dir, cfg).unwrap();
        assert!(!recovery.truncated_log);
        assert_eq!(recovery.replay_from(0), batches(2));
        assert_eq!(fs::metadata(&seg).unwrap().len(), cfg.segment_bytes);
        // A live store fills a segment to the brim and rotates on the
        // record that no longer fits, not before.
        for seq in 3..=5u64 {
            store.append_batch(seq, &[req(100, seq)]).unwrap();
        }
        let m = store.metrics();
        assert_eq!(m.wal_segments, 3, "{m:?}");
        assert_eq!(store.sealed.last().unwrap().bytes, cfg.segment_bytes);
        drop(store);
        let (_s, recovery) = DurableStore::open(&dir, cfg).unwrap();
        assert!(!recovery.truncated_log);
        assert_eq!(recovery.replay_from(0), batches(5));
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
