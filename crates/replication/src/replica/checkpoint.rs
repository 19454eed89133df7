//! Checkpoints, garbage collection, and snapshot state transfer.

use super::*;

impl Replica {
    /// The checkpoint digest: the service state digest folded with the
    /// protocol-level per-client state (registry + retained replies) —
    /// everything a snapshot ships, so a receiver can re-derive exactly
    /// this digest from a restored snapshot. Delegates to the shared
    /// [`attestation_digest`], the same fold the snapshot-verification and
    /// disk-recovery paths recompute.
    pub(super) fn checkpoint_digest(&self) -> Digest {
        attestation_digest(
            self.service.state_digest(),
            self.registry_rows(),
            self.reply_rows(),
        )
    }

    fn registry_rows(&self) -> Vec<(u64, u64)> {
        self.client_registry
            .iter()
            .map(|(node, pid)| (*node, *pid))
            .collect()
    }

    fn reply_rows(&self) -> ReplyRows {
        self.replies
            .iter()
            .map(|(client, per)| {
                (
                    *client,
                    per.iter()
                        .map(|(id, (seq, r))| (*id, *seq, r.clone()))
                        .collect(),
                )
            })
            .collect()
    }

    /// The full state-transfer payload for the current execution point.
    pub(super) fn build_snapshot(&self) -> ReplicaSnapshot {
        ReplicaSnapshot {
            space: self.service.snapshot(),
            client_registry: self.registry_rows(),
            replies: self.reply_rows(),
            registrations: self.service.registration_rows(),
            next_reg: self.service.next_reg(),
        }
    }

    /// Executed through a checkpoint boundary: attest the state and see
    /// whether our vote completes a stable checkpoint.
    pub(super) fn emit_checkpoint(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        let digest = self.checkpoint_digest();
        self.record_checkpoint_vote(seq, digest, self.cfg.id);
        out.push((
            Dest::AllReplicas,
            Message::Checkpoint {
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        self.try_stabilize(seq, out);
    }

    /// `true` for checkpoint sequence numbers a correct replica could emit:
    /// a multiple of the interval above our stable checkpoint. (No high
    /// bound — a replica that fell far behind must still learn of stable
    /// checkpoints arbitrarily past its own window.)
    fn checkpoint_seq_plausible(&self, seq: Seq) -> bool {
        seq > self.stable_seq && seq % self.cfg.checkpoint_interval == 0
    }

    /// Stores `replica`'s checkpoint attestation, superseding its older
    /// votes — at most one live vote per replica, so the vote store holds
    /// at most `n` entries no matter what a Byzantine flood claims.
    fn record_checkpoint_vote(&mut self, seq: Seq, digest: Digest, replica: ReplicaId) {
        if self.latest_ckpt.get(&replica).is_some_and(|s| *s > seq) {
            return; // older than the replica's newest vote: stale
        }
        if let Some(old) = self.latest_ckpt.insert(replica, seq) {
            if old != seq {
                if let Some(votes) = self.checkpoint_votes.get_mut(&old) {
                    votes.remove(&replica);
                    if votes.is_empty() {
                        self.checkpoint_votes.remove(&old);
                    }
                }
            }
        }
        self.checkpoint_votes
            .entry(seq)
            .or_default()
            .insert(replica, digest);
    }

    pub(super) fn on_checkpoint(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.checkpoint_seq_plausible(seq) {
            return;
        }
        self.record_checkpoint_vote(seq, digest, replica);
        self.try_stabilize(seq, out);
        // The vote may be the f+1st attestation a buffered state-transfer
        // snapshot was waiting for.
        if !self.pending_snapshots.is_empty() {
            self.try_install_snapshot(out);
        }
    }

    /// The digest `2f+1` checkpoint votes at `seq` agree on, if any.
    fn stable_digest_at(&self, seq: Seq) -> Option<Digest> {
        let votes = self.checkpoint_votes.get(&seq)?;
        let quorum = self.quorum_commit();
        votes
            .values()
            .find(|d| votes.values().filter(|e| e == d).count() >= quorum)
            .copied()
    }

    /// Checks whether `seq` just became a stable checkpoint; if so, either
    /// garbage-collects (we executed through it and our state matches) or
    /// requests state transfer (we fell behind it, or — worse — diverged).
    fn try_stabilize(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        if seq <= self.stable_seq {
            return;
        }
        let Some(digest) = self.stable_digest_at(seq) else {
            return;
        };
        let behind = seq > self.last_exec;
        let diverged = self
            .checkpoint_votes
            .get(&seq)
            .and_then(|v| v.get(&self.cfg.id))
            .is_some_and(|own| *own != digest);
        if behind || diverged {
            // We cannot anchor on this checkpoint from local state: the
            // history below it is (or will be) pruned cluster-wide, so the
            // only way forward is a snapshot.
            if diverged {
                // A quorum proved our own digest wrong: our state is
                // unsalvageable, and the install path must accept the
                // canonical checkpoint even though its seq ≤ our last_exec.
                self.rollback_target = seq;
            }
            self.request_state(seq, out);
            self.try_install_snapshot(out);
            return;
        }
        self.collect_garbage(seq, digest);
    }

    /// Advances the low watermark to `h` and prunes everything at or below
    /// it: slots, ordering hints, checkpoint votes, buffered snapshots, and
    /// view-change report entries. After this, no structure retains data
    /// about executed history older than the stable checkpoint.
    fn collect_garbage(&mut self, h: Seq, digest: Digest) {
        if h <= self.stable_seq {
            return;
        }
        self.stable_seq = h;
        self.stable_digest = Some(digest);
        self.slots = self.slots.split_off(&(h + 1));
        self.ordered.retain(|_, seq| *seq > h);
        self.checkpoint_votes = self.checkpoint_votes.split_off(&(h + 1));
        self.latest_ckpt.retain(|_, s| *s > h);
        self.pending_snapshots.retain(|_, (s, _, _)| *s > h);
        for votes in self.view_votes.values_mut() {
            for vote in votes.values_mut() {
                vote.prepared.retain(|(s, _)| *s > h);
            }
        }
        if self.fetch_target <= h {
            self.fetch_target = 0;
        }
        // Never assign below the watermark again.
        self.next_seq = self.next_seq.max(h);
        // On disk, the log alone carries most checkpoints: the store says
        // when it has grown enough to be worth folding into a snapshot.
        if self
            .store
            .as_ref()
            .is_some_and(DurableStore::wants_snapshot)
        {
            self.persist_stable(h, digest);
        }
    }

    /// The `last_exec` value our `FetchState` requests carry: normally our
    /// real execution point, but a rolling-back replica must ask *below*
    /// the canonical checkpoint it needs, or peers (whose stable checkpoint
    /// may be ≤ our worthless `last_exec`) would refuse to answer.
    pub(super) fn fetch_floor(&self) -> Seq {
        if self.rollback_target != 0 {
            self.rollback_target.saturating_sub(1).min(self.last_exec)
        } else {
            self.last_exec
        }
    }

    /// Broadcasts a `FetchState` for stable checkpoint `target` (deduped:
    /// one broadcast per target; the progress timeout retries if no
    /// snapshot lands).
    pub(super) fn request_state(&mut self, target: Seq, out: &mut Vec<(Dest, Message)>) {
        let rolling_back = self.rollback_target != 0 && target >= self.rollback_target;
        if (target <= self.last_exec && !rolling_back) || target <= self.fetch_target {
            return;
        }
        self.fetch_target = target;
        out.push((
            Dest::AllReplicas,
            Message::FetchState {
                last_exec: self.fetch_floor(),
                replica: self.cfg.id,
            },
        ));
    }

    pub(super) fn on_fetch_state(
        &mut self,
        sender_last_exec: Seq,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if replica != self.cfg.id {
            self.maybe_send_snapshot(replica, sender_last_exec, true, out);
        }
    }

    /// Ships our stable-checkpoint snapshot to `to` if it sits below it,
    /// within the per-target budget: one unsolicited offer per stable
    /// checkpoint (stale `ViewChange` answers — a stranded replica's
    /// timeout loop must not draw an O(state) payload from every peer on
    /// every tick) and up to [`MAX_SNAPSHOT_RESENDS`] explicit-fetch
    /// answers (retries for lost answers, without handing a Byzantine
    /// fetch loop an unbounded amplification primitive). The budget resets
    /// whenever the stable checkpoint advances.
    pub(super) fn maybe_send_snapshot(
        &mut self,
        to: ReplicaId,
        their_last_exec: Seq,
        explicit: bool,
        out: &mut Vec<(Dest, Message)>,
    ) {
        let Some(digest) = self.stable_digest else {
            return;
        };
        if self.stable_seq <= their_last_exec {
            return;
        }
        let entry = self.snapshot_sent.entry(to).or_insert((0, 0));
        if entry.0 < self.stable_seq {
            *entry = (self.stable_seq, 0);
        }
        let budget = if explicit { MAX_SNAPSHOT_RESENDS } else { 1 };
        if entry.1 >= budget {
            return;
        }
        entry.1 += 1;
        out.push((
            Dest::Replica(to),
            Message::StateSnapshot {
                seq: self.stable_seq,
                digest,
                snapshot: self.build_snapshot(),
                replica: self.cfg.id,
            },
        ));
    }

    pub(super) fn on_state_snapshot(
        &mut self,
        seq: Seq,
        digest: Digest,
        snapshot: ReplicaSnapshot,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.snapshot_seq_useful(seq) || !self.checkpoint_seq_plausible(seq) {
            return;
        }
        // The offer is also the sender's attestation of (seq, digest). One
        // buffered payload per sender: a newer offer replaces that sender's
        // older one, and junk can never evict a correct sender's payload.
        self.record_checkpoint_vote(seq, digest, replica);
        self.pending_snapshots
            .insert(replica, (seq, digest, snapshot));
        self.try_install_snapshot(out);
    }

    /// `true` when installing a checkpoint at `seq` would move us forward:
    /// past our execution point, or — when a quorum proved our state
    /// diverged — at/above the canonical boundary we must roll back to.
    fn snapshot_seq_useful(&self, seq: Seq) -> bool {
        seq > self.last_exec || (self.rollback_target != 0 && seq >= self.rollback_target)
    }

    /// Installs the newest buffered snapshot that (a) `f+1` distinct
    /// replicas attest and (b) re-hashes to its attested digest after
    /// restoration — at least one correct replica vouches for the pair, and
    /// the recompute catches a payload that does not match its claim.
    fn try_install_snapshot(&mut self, out: &mut Vec<(Dest, Message)>) {
        // Newest checkpoint first.
        let mut candidates: Vec<(ReplicaId, Seq, Digest)> = self
            .pending_snapshots
            .iter()
            .map(|(sender, (seq, digest, _))| (*sender, *seq, *digest))
            .collect();
        candidates.sort_unstable_by_key(|c| std::cmp::Reverse(c.1));
        for (sender, seq, digest) in candidates {
            if !self.snapshot_seq_useful(seq) {
                self.pending_snapshots.remove(&sender);
                continue;
            }
            let attesters = self
                .checkpoint_votes
                .get(&seq)
                .map_or(0, |v| v.values().filter(|d| **d == digest).count());
            if attesters <= self.cfg.f {
                continue; // not yet vouched for by a correct replica
            }
            let Some(restored) = self.verified(&self.pending_snapshots[&sender].2, digest) else {
                // Attested digest, lying payload: discard it (another
                // sender's copy may still arrive under the same claim).
                self.pending_snapshots.remove(&sender);
                continue;
            };
            let (_, _, snapshot) = self.pending_snapshots.remove(&sender).expect("present");
            self.install_snapshot(seq, digest, restored, &snapshot, out);
            return;
        }
    }

    /// The service `snapshot` restores to, if it re-hashes to `attested`:
    /// the check both state transfer and disk recovery make before they
    /// install anything.
    pub(super) fn verified(
        &self,
        snapshot: &ReplicaSnapshot,
        attested: Digest,
    ) -> Option<PeatsService> {
        let mut restored = self.service.clone();
        restored.restore(&snapshot.space);
        // Registrations restore before the digest recompute: the service
        // digest covers the table, so a lying row set (or a forged arrival
        // counter) fails verification right here.
        restored.restore_registrations(&snapshot.registrations, snapshot.next_reg);
        let recomputed = attestation_digest(
            restored.state_digest(),
            snapshot.client_registry.clone(),
            snapshot.replies.clone(),
        );
        (recomputed == attested).then_some(restored)
    }

    /// Takes a verified snapshot's service, client registry and retained
    /// replies as ours, executed through `seq`.
    pub(super) fn adopt(&mut self, seq: Seq, service: PeatsService, snapshot: &ReplicaSnapshot) {
        self.service = service;
        self.client_registry = snapshot.client_registry.iter().copied().collect();
        self.replies = snapshot
            .replies
            .iter()
            .map(|(client, per)| {
                let per = per.iter().map(|(id, s, r)| (*id, (*s, r.clone())));
                (*client, per.collect())
            })
            .collect();
        self.last_exec = seq;
    }

    /// Adopts a verified snapshot: replaces the service and per-client
    /// state, jumps `last_exec` to the checkpoint, garbage-collects below
    /// it, and resumes execution of any committed slots above it. When this
    /// is a divergence *rollback* (`seq ≤` our old `last_exec`), every slot
    /// is dropped first — they were executed against state a quorum proved
    /// wrong, and will be re-learned from the protocol.
    fn install_snapshot(
        &mut self,
        seq: Seq,
        digest: Digest,
        restored: PeatsService,
        snapshot: &ReplicaSnapshot,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if seq <= self.last_exec {
            self.slots.clear();
            self.ordered.clear();
            // A rollback replaces state a quorum proved wrong — the hash
            // trees of the two states localize the disagreement to the
            // differing buckets (arity + leading channel), turning "your
            // digest is wrong" into "these channels diverged".
            self.diverged =
                diff_buckets(&self.service.bucket_digests(), &restored.bucket_digests());
        } else {
            self.diverged = Vec::new();
        }
        self.rollback_target = 0;
        self.adopt(seq, restored, snapshot);
        self.record_checkpoint_vote(seq, digest, self.cfg.id);
        // The history this jumped over never went through our log, so only
        // a snapshot makes the disk reach `last_exec` again — whatever the
        // log's size says.
        self.persist_stable(seq, digest);
        self.collect_garbage(seq, digest);
        // Requests the snapshot's history already answered must not be
        // re-ordered.
        let replies = &self.replies;
        self.pending.retain(|req| {
            !replies
                .get(&req.client)
                .is_some_and(|per| per.contains_key(&req.req_id))
        });
        // Our attestation helps the next straggler (and lets peers observe
        // we caught up).
        out.push((
            Dest::AllReplicas,
            Message::Checkpoint {
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        self.execute_ready(out);
    }
}
