//! Ordering and execution: the primary batches pending requests into
//! slots, replicas certify each slot with prepare and commit votes, and
//! committed slots execute in sequence order.

use super::*;

impl Replica {
    /// Assigned-but-unexecuted slots (execution is contiguous, so these are
    /// exactly the batch-bearing slots above `last_exec`).
    fn slots_in_flight(&self) -> usize {
        self.slots
            .range(self.last_exec + 1..)
            .filter(|(_, s)| s.batch.is_some() && !s.executed)
            .count()
    }

    /// Records where each request of a just-installed batch was ordered.
    fn index_batch(&mut self, seq: Seq, batch: &[Request]) {
        for req in batch {
            self.ordered.insert((req.client, req.req_id), seq);
        }
    }

    /// Primary only: drains `pending` into new slots while the in-flight
    /// window has room, one batch (≤ `batch_cap` requests) per slot.
    fn try_assign(&mut self, out: &mut Vec<(Dest, Message)>) {
        if !self.is_primary() {
            return;
        }
        while !self.pending.is_empty() && self.slots_in_flight() < self.cfg.max_in_flight {
            let take = self.pending.len().min(self.cfg.batch_cap.max(1));
            let batch: Vec<Request> = self.pending.drain(..take).collect();
            // Skip sequence numbers another view already used.
            loop {
                self.next_seq += 1;
                if !self
                    .slots
                    .get(&self.next_seq)
                    .is_some_and(|s| s.batch.is_some())
                {
                    break;
                }
            }
            let seq = self.next_seq;
            let digest = batch_digest(&batch);
            let slot = self.slots.entry(seq).or_default();
            slot.batch = Some(batch.clone());
            slot.digest = Some(digest);
            slot.prepares.insert(self.cfg.id);
            self.index_batch(seq, &batch);
            out.push((
                Dest::AllReplicas,
                Message::PrePrepare {
                    view: self.view,
                    seq,
                    requests: batch,
                },
            ));
        }
    }

    pub(super) fn on_request(&mut self, from: u64, req: Request, out: &mut Vec<(Dest, Message)>) {
        // Authenticate the principal binding: the claimed pid must be the
        // one registered for the sending transport node.
        match self.client_registry.get(&from) {
            Some(pid) if *pid == req.client => {}
            _ => return, // impersonation attempt or unknown client: drop
        }
        // Retransmission of an executed request: re-reply. Executed req_ids
        // older than the retained window are dropped outright — re-ordering
        // them would double-execute.
        if let Some(per) = self.replies.get(&req.client) {
            if let Some((seq, result)) = per.get(&req.req_id) {
                out.push((
                    Dest::Client(from),
                    Message::Reply {
                        view: self.view,
                        seq: *seq,
                        req_id: req.req_id,
                        replica: self.cfg.id,
                        result: result.clone(),
                    },
                ));
                return;
            }
            if per.len() >= self.reply_retention()
                && per
                    .first_key_value()
                    .is_some_and(|(id, _)| req.req_id < *id)
            {
                return; // below the retained window: ancient retransmission
            }
        }
        if self.is_primary() {
            // Already ordered? (client broadcast + retransmissions). If the
            // slot has not executed yet, the original pre-prepare may have
            // been lost: re-broadcast it instead of staying silent, or the
            // slot can stall forever on a lossy network. The hint is
            // verified against the live slot — a view change may have
            // voided the ordering, in which case the request pends again.
            if let Some(seq) = self.ordered.get(&(req.client, req.req_id)).copied() {
                if let Some(slot) = self.slots.get(&seq) {
                    if slot.batch.as_ref().is_some_and(|b| b.contains(&req)) {
                        if !slot.executed {
                            out.push((
                                Dest::AllReplicas,
                                Message::PrePrepare {
                                    view: self.view,
                                    seq,
                                    requests: slot.batch.clone().expect("verified above"),
                                },
                            ));
                        }
                        return;
                    }
                }
            }
            if !self.pending.contains(&req) {
                self.pending.push(req);
            }
            self.try_assign(out);
        } else {
            // Backups hold the request for potential re-ordering after a
            // view change; the primary got its own copy via the client's
            // broadcast.
            if !self.pending.contains(&req) {
                self.pending.push(req);
            }
        }
    }

    /// Fast-path read: answer `rd`/`rdp`/`count` directly from executed
    /// state at `last_exec`, skipping the ordering pipeline. Policy still
    /// runs per replica inside `execute_read`. Serving is stateless — no
    /// dedup, no retained replies, nothing added to `footprint()` — so a
    /// flood of reads cannot grow replica memory. A replica that lags the
    /// quorum answers anyway (with its lower seq); the client's watermark
    /// check rejects the stale reply.
    pub(super) fn on_read_request(
        &mut self,
        from: u64,
        client: u64,
        req_id: u64,
        op: &OpCall<'_>,
        out: &mut Vec<(Dest, Message)>,
    ) {
        // Same principal authentication as ordered requests: the claimed
        // pid must be the one registered for the sending transport node.
        match self.client_registry.get(&from) {
            Some(pid) if *pid == client => {}
            _ => return,
        }
        // Mutating ops must never ride the fast path; `execute_read`
        // refuses them.
        let Some(result) = self.service.execute_read(client, op) else {
            return;
        };
        out.push((
            Dest::Client(from),
            Message::ReadReply {
                req_id,
                seq: self.last_exec,
                digest: result.digest(),
                result,
                replica: self.cfg.id,
            },
        ));
    }

    pub(super) fn on_pre_prepare(
        &mut self,
        from: u64,
        view: View,
        seq: Seq,
        requests: Vec<Request>,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if view != self.view
            || from != u64::from(self.cfg.primary_of(view))
            || requests.is_empty()
            || !self.seq_in_window(seq)
        {
            return;
        }
        let digest = batch_digest(&requests);
        let keys: Vec<(u64, u64)> = requests.iter().map(|r| (r.client, r.req_id)).collect();
        let slot = self.slots.entry(seq).or_default();
        match &slot.digest {
            Some(d) if *d != digest => return, // equivocation: refuse
            _ => {}
        }
        if slot.batch.is_none() {
            slot.batch = Some(requests);
            slot.digest = Some(digest);
            for key in keys {
                self.ordered.insert(key, seq);
            }
        }
        // The pre-prepare is the primary's prepare vote.
        slot.prepares.insert(self.cfg.primary_of(view));
        slot.prepares.insert(self.cfg.id);
        out.push((
            Dest::AllReplicas,
            Message::Prepare {
                view,
                seq,
                digest,
                replica: self.cfg.id,
            },
        ));
        // A 2-replica quorum may already be satisfied (f small).
        self.maybe_commit_phase(seq, out);
    }

    pub(super) fn on_prepare(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.seq_in_window(seq) {
            return; // junk vote: don't even materialize a slot for it
        }
        let me = self.cfg.id;
        let view = self.view;
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        let newly_seen = slot.prepares.insert(replica);
        if slot.executed {
            // A prepare for a slot we executed long ago comes from a replica
            // replaying history after rejoining (our original votes predate
            // its recovery). Re-send our votes directly; the `newly_seen`
            // guard stops two executed replicas from ping-ponging.
            if newly_seen {
                out.push((
                    Dest::Replica(replica),
                    Message::Prepare {
                        view,
                        seq,
                        digest,
                        replica: me,
                    },
                ));
                out.push((
                    Dest::Replica(replica),
                    Message::Commit {
                        view,
                        seq,
                        digest,
                        replica: me,
                    },
                ));
            }
            return;
        }
        self.maybe_commit_phase(seq, out);
    }

    pub(super) fn maybe_commit_phase(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        let quorum = self.quorum_prepare();
        let me = self.cfg.id;
        let view = self.view;
        let Some(slot) = self.slots.get_mut(&seq) else {
            return;
        };
        let (Some(digest), Some(_)) = (slot.digest, slot.batch.as_ref()) else {
            return;
        };
        // Prepared: pre-prepare (counted via own id) + 2f prepares total.
        if slot.prepares.len() > quorum && slot.commits.insert(me) {
            out.push((
                Dest::AllReplicas,
                Message::Commit {
                    view,
                    seq,
                    digest,
                    replica: me,
                },
            ));
            self.maybe_execute(seq, out);
        }
    }

    pub(super) fn on_commit(
        &mut self,
        seq: Seq,
        digest: Digest,
        replica: ReplicaId,
        out: &mut Vec<(Dest, Message)>,
    ) {
        if !self.seq_in_window(seq) {
            return;
        }
        let slot = self.slots.entry(seq).or_default();
        if slot.digest.is_some() && slot.digest != Some(digest) {
            return;
        }
        slot.commits.insert(replica);
        self.maybe_execute(seq, out);
    }

    fn maybe_execute(&mut self, seq: Seq, out: &mut Vec<(Dest, Message)>) {
        {
            let quorum = self.quorum_commit();
            let Some(slot) = self.slots.get_mut(&seq) else {
                return;
            };
            if slot.commits.len() >= quorum && slot.batch.is_some() {
                slot.committed = true;
            }
        }
        self.execute_ready(out);
    }

    /// Executes committed slots in order while possible (also the resume
    /// point after a snapshot install jumps `last_exec` forward).
    pub(super) fn execute_ready(&mut self, out: &mut Vec<(Dest, Message)>) {
        loop {
            let next = self.last_exec + 1;
            let ready = self
                .slots
                .get(&next)
                .is_some_and(|s| s.committed && !s.executed && s.batch.is_some());
            if !ready {
                break;
            }
            let slot = self.slots.get_mut(&next).expect("checked above");
            slot.executed = true;
            let batch = slot.batch.clone().expect("checked above");
            // Write-ahead: the batch reaches the log before any of its
            // effects reach the service. Synced once per pass (`sync`).
            if let Some(store) = self.store.as_mut() {
                if let Err(e) = store.append_batch(next, &batch) {
                    Self::warn_disk(self.cfg.id, "wal append", &e);
                    self.store = None;
                }
            }
            self.last_exec = next;
            for req in &batch {
                self.execute(next, req, out);
            }
            // Checkpoint boundary: attest the post-execution state and try
            // to stabilize (our vote may be the 2f+1st).
            if next % self.cfg.checkpoint_interval == 0 {
                self.emit_checkpoint(next, out);
            }
        }
        // Executed slots free the in-flight window: the primary drains any
        // backlog that accumulated while the window was full.
        self.try_assign(out);
    }

    /// Executes `req` at slot `seq`: dispatches it to the service, records
    /// its reply and those of the waiters it woke, and pushes the `Reply`
    /// and `Wake`s their clients get. A request double-ordered across
    /// batches (Byzantine primary, or a view change re-placing a reported
    /// batch whose requests partially overlap another) executes only once
    /// — the first placement's result stands.
    pub(super) fn execute(&mut self, seq: Seq, req: &Request, out: &mut Vec<(Dest, Message)>) {
        if self.executed_already(req) {
            return;
        }
        let result = match &req.op {
            RequestOp::Call(op) => self.service.execute(req.client, op),
            RequestOp::Register { template, kind, .. } => self
                .service
                .register(req.client, req.req_id, template, *kind),
            RequestOp::Cancel { target } => self.service.cancel(req.client, *target),
        };
        self.record_reply(req.client, req.req_id, seq, result.clone());
        self.pending.retain(|r| r != req);
        if let Some(node) = self.client_node_of(req.client) {
            out.push((
                Dest::Client(node),
                Message::Reply {
                    view: self.view,
                    seq,
                    req_id: req.req_id,
                    replica: self.cfg.id,
                    result,
                },
            ));
        }
        // Serve wakes fired by this request (an `out`/`cas` that matched
        // parked waiters): the woken result overwrites each waiter's cached
        // `Registered` reply at this slot — so a lost Wake is healed by
        // retransmitting the original Register — and an unsolicited Wake
        // pushes it now.
        for wake in self.service.take_wakes() {
            self.record_reply(wake.client, wake.req_id, seq, wake.result.clone());
            if let Some(node) = self.client_node_of(wake.client) {
                out.push((
                    Dest::Client(node),
                    Message::Wake {
                        req_id: wake.req_id,
                        seq,
                        result: wake.result,
                        replica: self.cfg.id,
                    },
                ));
            }
        }
    }
}
