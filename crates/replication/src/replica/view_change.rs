//! View change: the progress timeout's vote, the new primary's
//! re-assignment of reported slots, and installing a new view.

use super::*;

/// The largest value at least `f + 1` of the given claims reach — i.e. a
/// value some *correct* replica genuinely claims, no matter which `f` of
/// the claimants are Byzantine. The PBFT way to act on self-reported
/// sequence numbers without letting one liar poison them.
fn quorum_backed_max(values: impl Iterator<Item = Seq>, f: usize) -> Seq {
    let mut sorted: Vec<Seq> = values.collect();
    sorted.sort_unstable_by_key(|v| std::cmp::Reverse(*v));
    sorted.get(f).copied().unwrap_or(0)
}

impl Replica {
    /// Local progress timeout: the driver calls this when requests are
    /// pending but execution has not advanced — the PBFT view-change
    /// trigger. Returns the messages to send.
    pub fn on_progress_timeout(&mut self) -> Vec<(Dest, Message)> {
        let mut msgs = Vec::new();
        // Still waiting for a snapshot (behind a stable checkpoint, or
        // rolling back from proven divergence): the earlier FetchState (or
        // its answer) may have been lost — retry.
        if self.fetch_target > self.last_exec || self.rollback_target != 0 {
            msgs.push((
                Dest::AllReplicas,
                Message::FetchState {
                    last_exec: self.fetch_floor(),
                    replica: self.cfg.id,
                },
            ));
        }
        if self.pending.is_empty() && self.slots.values().all(|s| s.executed || s.batch.is_none()) {
            return msgs;
        }
        // Escalating view target: a repeated timeout means the view we last
        // voted for never made progress — its primary may be faulty too, so
        // the next vote must move past it (two consecutive crashed
        // primaries previously wedged the cluster re-voting one view
        // forever). Votes already gathered from f+1 peers for an even
        // higher view are joined instead of leapfrogged, so escalating
        // replicas converge on a common target. (f+1, so a lone Byzantine
        // vote cannot drag the cluster through the view space.)
        let joinable = self
            .view_votes
            .iter()
            .rev()
            .find(|(view, votes)| **view > self.view && votes.len() > self.cfg.f)
            .map(|(view, _)| *view)
            .unwrap_or(0);
        let new_view = (self.view + 1).max(self.vc_target + 1).max(joinable);
        self.vc_target = new_view;
        // Report every slot above the stable checkpoint we know a batch
        // for, executed ones included: a new primary that never received
        // some pre-prepare can only learn the batch (and its sequence
        // number) from these reports. Below the checkpoint the report would
        // be wasted bytes — a straggling primary-elect recovers that prefix
        // via state transfer, never by re-voting — which is what keeps
        // ViewChange size bounded by the log window instead of the run
        // length.
        let prepared: PreparedReport = self
            .slots
            .range(self.stable_seq + 1..)
            .filter_map(|(seq, s)| s.batch.clone().map(|b| (*seq, b)))
            .collect();
        msgs.push((
            Dest::AllReplicas,
            Message::ViewChange {
                new_view,
                last_exec: self.last_exec,
                stable_seq: self.stable_seq,
                stable_digest: self.stable_digest.unwrap_or([0u8; 32]),
                prepared: prepared.clone(),
                replica: self.cfg.id,
            },
        ));
        // Vote for the view change ourselves.
        self.store_view_vote(
            new_view,
            VcVote {
                last_exec: self.last_exec,
                stable_seq: self.stable_seq,
                prepared,
            },
            self.cfg.id,
        );
        msgs
    }

    /// Stores a view-change vote, bounding the number of tracked view
    /// buckets (junk votes for far-future views are evicted first).
    fn store_view_vote(&mut self, view: View, vote: VcVote, replica: ReplicaId) {
        self.view_votes
            .entry(view)
            .or_default()
            .insert(replica, vote);
        while self.view_votes.len() > MAX_TRACKED_VIEWS {
            self.view_votes.pop_last();
        }
    }

    pub(super) fn on_view_change(
        &mut self,
        new_view: View,
        sender_last_exec: Seq,
        sender_stable: Seq,
        prepared: PreparedReport,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        // Note: a lone sender's `stable_seq`/`last_exec` claims are NEVER
        // acted on directly — a single Byzantine vote naming `u64::MAX`
        // must not pin `fetch_target`, wedge view formation, or poison
        // sequence allocation. Being behind a real stable checkpoint is
        // learned from `2f+1` matching `Checkpoint` votes (try_stabilize)
        // or from the f+1-backed vote quorum below.
        if new_view <= self.view {
            // A replica stranded in an older view keeps asking for a view
            // change the rest of the cluster already completed.
            if replica != self.cfg.id {
                // Any replica holding a stable checkpoint past the
                // sender's execution point offers a snapshot — the old
                // primary-only answer left a stranded replica unserved
                // whenever the primary itself was briefly down, and pruned
                // history cannot be re-voted at all.
                self.maybe_send_snapshot(replica, sender_last_exec, false, out);
                if self.is_primary() {
                    // Assignments we still hold (necessarily above our
                    // stable checkpoint) let it replay the recent suffix.
                    let assignments: PreparedReport = self
                        .slots
                        .range(sender_last_exec.max(self.stable_seq).saturating_add(1)..)
                        .filter_map(|(seq, s)| s.batch.clone().map(|b| (*seq, b)))
                        .collect();
                    out.push((
                        Dest::Replica(replica),
                        Message::NewView {
                            view: self.view,
                            assignments,
                        },
                    ));
                }
            }
            return;
        }
        // Store only in-window report entries: anything at or below our
        // stable checkpoint is pruned history, anything past the high mark
        // is Byzantine.
        let prepared: PreparedReport = prepared
            .into_iter()
            .filter(|(seq, _)| self.seq_in_window(*seq))
            .collect();
        self.store_view_vote(
            new_view,
            VcVote {
                last_exec: sender_last_exec,
                stable_seq: sender_stable,
                prepared,
            },
            replica,
        );
        let votes_len = self.view_votes.get(&new_view).map_or(0, |v| v.len());
        if votes_len >= 2 * self.cfg.f + 1 && self.cfg.primary_of(new_view) == self.cfg.id {
            // Claims are trusted only at f+1 strength: the (f+1)-th highest
            // value among the 2f+1 votes is backed by at least one correct
            // replica, so a Byzantine minority can neither inflate it (seq
            // poisoning, formation wedging) nor is a genuine quorum-backed
            // value ever missed.
            let trusted_stable = self.view_votes.get(&new_view).map_or(0, |votes| {
                quorum_backed_max(votes.values().map(|v| v.stable_seq), self.cfg.f)
            });
            // Anchoring guard: if a quorum-backed stable checkpoint outruns
            // our execution, we are missing pruned history and must not
            // lead — re-ordering on top of a gap would assign sequence
            // numbers the rest of the cluster already garbage-collected.
            // Fetch state first; the voters keep re-voting (escalating) and
            // formation re-triggers once we caught up.
            if trusted_stable > self.last_exec {
                self.request_state(trusted_stable, out);
                return;
            }
            // Become primary of the new view. Reported slots keep their
            // reported sequence numbers and their exact batches — a batch
            // that committed (or even executed) at some replica must stay
            // at its slot unaltered or replica states diverge. Only
            // requests no replica reports ordered get fresh slots, placed
            // after every number any replica may have seen.
            let votes = self.view_votes.remove(&new_view).unwrap_or_default();
            // Fresh assignments must land above every sequence number a
            // correct voter has already executed — an executed slot
            // silently ignores a conflicting assignment at that replica
            // while others accept it, and states diverge. f+1-backed for
            // the same anti-poisoning reason as the stable anchor.
            let trusted_exec = quorum_backed_max(votes.values().map(|v| v.last_exec), self.cfg.f);
            let mut assignments: BTreeMap<Seq, Vec<Request>> = BTreeMap::new();
            // Placement tracking by (client, req_id) key: deep Request
            // comparisons over the whole history would make a view change
            // quadratic in everything ever executed.
            let mut placed: BTreeSet<(u64, u64)> = self
                .slots
                .values()
                .filter_map(|s| s.batch.as_ref())
                .flatten()
                .map(|r| (r.client, r.req_id))
                .collect();
            let mut reported_max: Seq = 0;
            for vote in votes.values() {
                for (seq, batch) in &vote.prepared {
                    if !self.seq_in_window(*seq) {
                        // A Byzantine report naming an absurd sequence
                        // number must not poison `next_seq` or occupy an
                        // in-flight slot execution can never reach.
                        continue;
                    }
                    reported_max = reported_max.max(*seq);
                    let seq_taken = assignments.contains_key(seq)
                        || self.slots.get(seq).is_some_and(|s| s.batch.is_some());
                    // A reported batch is kept whole (its digest covers the
                    // exact request sequence); requests it shares with an
                    // already-placed batch are defused by execution-time
                    // dedup. Skip it only when it adds nothing new.
                    if seq_taken || batch.iter().all(|r| placed.contains(&(r.client, r.req_id))) {
                        continue; // first placement wins, ours preferred
                    }
                    assignments.insert(*seq, batch.clone());
                    placed.extend(batch.iter().map(|r| (r.client, r.req_id)));
                }
            }
            // Re-issue our own slots' assignments so the NewView is the
            // complete history backups may need to catch up.
            for (s, slot) in &self.slots {
                if let Some(batch) = &slot.batch {
                    assignments.entry(*s).or_insert_with(|| batch.clone());
                }
            }
            // Fresh sequence numbers for pending requests nobody ordered,
            // batched under the same cap as the steady-state path. (The
            // max over our own slots ignores batchless entries — stray
            // votes for junk sequence numbers must not exhaust the space.)
            // Anchored above every voter's stable checkpoint: those seqs
            // are garbage-collected at the voters and would be dropped by
            // their acceptance windows.
            let mut seq = reported_max
                .max(
                    self.slots
                        .iter()
                        .filter(|(_, s)| s.batch.is_some())
                        .map(|(k, _)| *k)
                        .max()
                        .unwrap_or(0),
                )
                .max(self.last_exec)
                .max(self.next_seq)
                .max(trusted_exec)
                .max(trusted_stable)
                .max(self.stable_seq);
            let fresh: Vec<Request> = self
                .pending
                .clone()
                .into_iter()
                .filter(|req| {
                    !self.executed_already(req) && !placed.contains(&(req.client, req.req_id))
                })
                .collect();
            for chunk in fresh.chunks(self.cfg.batch_cap.max(1)) {
                seq += 1;
                assignments.insert(seq, chunk.to_vec());
            }
            self.next_seq = seq;
            self.install_view(new_view, &assignments);
            let assignments: PreparedReport = assignments.into_iter().collect();
            out.push((
                Dest::AllReplicas,
                Message::NewView {
                    view: new_view,
                    assignments: assignments.clone(),
                },
            ));
            // Locally treat each unexecuted assignment as pre-prepared;
            // broadcast prepares.
            for (seq, batch) in assignments {
                let digest = batch_digest(&batch);
                {
                    let slot = self.slots.entry(seq).or_default();
                    if slot.executed {
                        continue;
                    }
                    slot.prepares.insert(self.cfg.id);
                }
                out.push((
                    Dest::AllReplicas,
                    Message::Prepare {
                        view: new_view,
                        seq,
                        digest,
                        replica: self.cfg.id,
                    },
                ));
                self.maybe_commit_phase(seq, out);
            }
        }
    }

    pub(super) fn on_new_view(
        &mut self,
        from: u64,
        view: View,
        assignments: PreparedReport,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if view <= self.view || from != u64::from(self.cfg.primary_of(view)) {
            return;
        }
        // Drop assignments beyond the sequence window: a Byzantine new
        // primary naming absurd sequence numbers must not create slots
        // execution can never reach.
        let map: BTreeMap<Seq, Vec<Request>> = assignments
            .into_iter()
            .filter(|(seq, _)| self.seq_in_window(*seq))
            .collect();
        self.install_view(view, &map);
        for (seq, batch) in map {
            let digest = batch_digest(&batch);
            let me = self.cfg.id;
            let slot = self.slots.entry(seq).or_default();
            if slot.executed || slot.committed {
                // Re-cast our votes for slots we already decided: the new
                // primary may have missed them and cannot fill its execution
                // gap otherwise. Directly to the primary — the only replica
                // known to need them — not broadcast.
                if slot.digest == Some(digest) {
                    let primary = Dest::Replica(self.cfg.primary_of(view));
                    out.push((
                        primary,
                        Message::Prepare {
                            view,
                            seq,
                            digest,
                            replica: me,
                        },
                    ));
                    out.push((
                        primary,
                        Message::Commit {
                            view,
                            seq,
                            digest,
                            replica: me,
                        },
                    ));
                }
                continue;
            }
            slot.batch = Some(batch);
            slot.digest = Some(digest);
            slot.prepares.insert(me);
            out.push((
                Dest::AllReplicas,
                Message::Prepare {
                    view,
                    seq,
                    digest,
                    replica: me,
                },
            ));
            self.maybe_commit_phase(seq, out);
        }
    }

    fn install_view(&mut self, view: View, assignments: &BTreeMap<Seq, Vec<Request>>) {
        self.view = view;
        // The escalation target restarts from the installed view: the next
        // stall votes `view + 1`, not wherever the last escalation run got
        // to.
        self.vc_target = view;
        // Executed/committed slots survive (votes are view-agnostic), but
        // our own uncommitted orderings from older views are void: the new
        // primary's assignments are authoritative. A stale divergent slot
        // kept here would reject the new assignment's votes forever.
        // Orphaned requests go back to `pending` so they are re-ordered
        // rather than lost.
        let mut orphaned: Vec<Request> = Vec::new();
        self.slots.retain(|seq, slot| {
            let keep = slot.executed || slot.committed || assignments.contains_key(seq);
            if !keep {
                if let Some(batch) = slot.batch.take() {
                    orphaned.extend(batch);
                }
            }
            keep
        });
        for req in orphaned {
            if !self.executed_already(&req) && !self.pending.contains(&req) {
                self.pending.push(req);
            }
        }
        for (seq, batch) in assignments {
            let slot = self.slots.entry(*seq).or_default();
            if slot.executed || slot.committed {
                continue;
            }
            let digest = batch_digest(batch);
            if slot.digest != Some(digest) {
                slot.batch = Some(batch.clone());
                slot.digest = Some(digest);
                slot.prepares.clear();
                slot.commits.clear();
            }
            for req in batch {
                self.ordered.insert((req.client, req.req_id), *seq);
            }
        }
        // Every request the assignments placed is ordered now — it must
        // leave `pending`, or the next `try_assign` (first post-view-change
        // execution) would drain it into a second slot and double-order it.
        // (Keyed set: a linear `batch.contains` per pending entry would be
        // quadratic in the assignment history.)
        let assigned: BTreeSet<(u64, u64)> = assignments
            .values()
            .flatten()
            .map(|r| (r.client, r.req_id))
            .collect();
        self.pending
            .retain(|req| !assigned.contains(&(req.client, req.req_id)));
        self.view_votes.retain(|v, _| *v > view);
    }
}
