//! Durability hooks: disk-first recovery, the per-pass log sync, and
//! the snapshots a stable checkpoint persists.

use super::*;

impl Replica {
    /// Adopts recovered on-disk state and attaches the durable store. Must
    /// run on a freshly constructed replica, before any messages.
    ///
    /// Disk-first recovery: adopt the newest snapshot whose attestation
    /// digest verifies after restoration (the *same* fold checkpoint votes
    /// attest, so a corrupted-but-checksummed or buggy snapshot cannot
    /// install silently wrong state), replay the contiguous log suffix
    /// above its execution point, and leave whatever tail the disk does
    /// not cover to ordinary state transfer once the cluster is back. A
    /// snapshot that fails verification falls back to the previous one —
    /// the store retains two, plus the log suffix the older one needs.
    pub fn restore_durable(&mut self, store: DurableStore, recovery: Recovery) -> RecoveryReport {
        let mut report = RecoveryReport {
            truncated_log: recovery.truncated_log,
            corrupt_snapshots: recovery.corrupt_snapshots,
            ..RecoveryReport::default()
        };
        for (nth, snap) in recovery.snapshots.iter().enumerate() {
            let Some(restored) = self.verified(&snap.snapshot, snap.attested) else {
                report.fell_back = true;
                continue;
            };
            self.adopt(snap.exec_seq, restored, &snap.snapshot);
            self.stable_seq = snap.stable_seq;
            self.stable_digest = Some(snap.stable_digest);
            report.snapshot_seq = Some(snap.stable_seq);
            report.fell_back |= nth > 0;
            break;
        }
        // Replay the log suffix: the same execution the batches got the
        // first time (execution is deterministic), minus the outputs —
        // every reply this produces was already sent in a previous life,
        // and retransmissions re-serve it from the restored reply cache.
        let mut sent_before = Vec::new();
        for (seq, batch) in recovery.replay_from(self.last_exec) {
            for req in &batch {
                self.execute(seq, req, &mut sent_before);
            }
            sent_before.clear();
            self.last_exec = seq;
            report.replayed += 1;
        }
        self.next_seq = self.next_seq.max(self.last_exec).max(self.stable_seq);
        report.last_exec = self.last_exec;
        self.store = Some(store);
        report
    }

    /// Makes every batch appended since the last sync durable: one fsync
    /// per pass — heavy load amortizes it over everything the pass
    /// executed, light load pays it per request. Nothing to do (and nothing
    /// counted) when no batch was appended.
    pub fn sync(&mut self) {
        if let Some(store) = self.store.as_mut() {
            if let Err(e) = store.sync() {
                Self::warn_disk(self.cfg.id, "wal sync", &e);
                self.store = None;
            }
        }
    }

    /// Disk failures degrade the replica to memory-only rather than
    /// wedging the protocol: correctness never depended on the disk (a
    /// restarted replica can still rejoin by state transfer while any
    /// peer survives), only full-cluster crash recovery does.
    pub(super) fn warn_disk(id: ReplicaId, context: &str, err: &std::io::Error) {
        eprintln!("replica {id}: disk error during {context}: {err}; continuing memory-only");
    }

    /// Writes a snapshot anchored at stable checkpoint `h` to disk and
    /// prunes the log behind it (no-op without a data dir). The persisted
    /// attestation is recomputed over the state actually captured:
    /// stabilization can trail execution, so `last_exec` may sit past `h`
    /// — the snapshot records both points and recovery replays from
    /// `exec_seq`.
    pub(super) fn persist_stable(&mut self, h: Seq, digest: Digest) {
        if self.store.is_none() {
            return;
        }
        let snap = DurableSnapshot {
            stable_seq: h,
            stable_digest: digest,
            exec_seq: self.last_exec,
            attested: self.checkpoint_digest(),
            snapshot: self.build_snapshot(),
        };
        let store = self.store.as_mut().expect("checked above");
        if let Err(e) = store.persist_checkpoint(&snap) {
            Self::warn_disk(self.cfg.id, "checkpoint persist", &e);
            self.store = None;
        }
    }
}
