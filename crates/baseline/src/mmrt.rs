//! Reconstruction of the Malkhi–Merritt–Reiter–Taubenfeld strong consensus
//! (\[11\] in the paper; §7's comparison point).
//!
//! The paper states the construction's parameters — `2t+1` sticky bits,
//! `n ≥ (t+1)(2t+1)` processes — without reproducing its pseudo-code. This
//! module is a faithful reconstruction from those parameters:
//!
//! * the `n = (t+1)(2t+1)` processes are partitioned into `2t+1` disjoint
//!   *committees* of `t+1`; committee `j` is the write-ACL of sticky bit `j`;
//! * a process sets every still-unset bit it is entitled to with its input;
//! * once all `2t+1` bits are set, everyone decides the majority bit value
//!   (ties broken toward 0).
//!
//! Why this satisfies the paper's claims:
//!
//! * **Agreement** — sticky bits are write-once, so the final bit vector is
//!   unique and the decision function is deterministic.
//! * **Strong validity** — committees are disjoint and `≤ t` processes are
//!   faulty, so `≤ t` bits carry faulty-written values; a majority value
//!   owns `≥ t+1` bits, hence at least one correct writer proposed it.
//! * **t-threshold termination** — every committee contains at least one
//!   correct process among any `n−t` participants, so every bit is
//!   eventually set.
//!
//! The point of the exercise is E10: counting how many shared-memory
//! operations this needs versus the PEATS algorithm's handful.

use crate::sticky::{sticky_bits_policy, StickyBitArray};
use peats::{SpaceResult, TupleSpace};
use peats_policy::{Policy, ProcessId};

/// Static parameters of an MMRT instance for fault bound `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MmrtParams {
    /// Fault bound.
    pub t: usize,
    /// Number of processes, `(t+1)(2t+1)`.
    pub n: usize,
    /// Number of sticky bits, `2t+1`.
    pub bits: usize,
}

impl MmrtParams {
    /// Parameters for fault bound `t`.
    pub fn for_t(t: usize) -> Self {
        MmrtParams {
            t,
            n: (t + 1) * (2 * t + 1),
            bits: 2 * t + 1,
        }
    }

    /// The committee (write-ACL) of bit `j`: processes
    /// `j(t+1) .. (j+1)(t+1)`.
    pub fn committee(&self, j: usize) -> Vec<ProcessId> {
        let lo = j * (self.t + 1);
        (lo..lo + self.t + 1).map(|p| p as ProcessId).collect()
    }

    /// The generated ACL policy for the backing space.
    pub fn policy(&self) -> Policy {
        let acls: Vec<Vec<ProcessId>> = (0..self.bits).map(|j| self.committee(j)).collect();
        sticky_bits_policy(&acls)
    }
}

/// One process's handle on the MMRT consensus object.
#[derive(Clone, Debug)]
pub struct MmrtConsensus<S> {
    array: StickyBitArray<S>,
    params: MmrtParams,
}

impl<S: TupleSpace> MmrtConsensus<S> {
    /// Wraps a handle onto a space carrying [`MmrtParams::policy`].
    pub fn new(space: S, params: MmrtParams) -> Self {
        MmrtConsensus {
            array: StickyBitArray::new(space, params.bits),
            params,
        }
    }

    /// The instance parameters.
    pub fn params(&self) -> MmrtParams {
        self.params
    }

    /// Proposes `v ∈ {0, 1}`; blocks until every sticky bit is set, then
    /// decides the majority bit value (ties toward 0).
    ///
    /// # Errors
    ///
    /// Propagates infrastructure failures.
    pub fn propose(&self, v: i64) -> SpaceResult<i64> {
        match self.propose_bounded(v, None)? {
            Some(d) => Ok(d),
            None => unreachable!("unbounded propose cannot exhaust its budget"),
        }
    }

    /// Bounded variant for experiments: gives up (returning `Ok(None)`)
    /// after `max_scans` passes with unset bits remaining.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure failures.
    pub fn propose_bounded(&self, v: i64, max_scans: Option<u64>) -> SpaceResult<Option<i64>> {
        let me = self.array_space_id();
        // Phase 1: set every bit we are entitled to (the ACL silently
        // rejects bits outside our committees; stickiness rejects races).
        for j in 0..self.params.bits {
            if self.params.committee(j).contains(&me) && self.array.read(j)?.is_none() {
                let _ = self.array.set(j, v)?;
            }
        }
        // Phase 2: wait for the full vector, then decide.
        let mut scans = 0u64;
        loop {
            let values = self.array.read_all()?;
            if values.iter().all(Option::is_some) {
                let ones = values.iter().filter(|b| **b == Some(1)).count();
                let zeros = values.len() - ones;
                return Ok(Some(i64::from(ones > zeros)));
            }
            scans += 1;
            if let Some(limit) = max_scans {
                if scans >= limit {
                    return Ok(None);
                }
            }
            std::thread::yield_now();
        }
    }

    fn array_space_id(&self) -> ProcessId {
        self.space().process_id()
    }

    /// The underlying space handle (for instrumentation).
    pub fn space(&self) -> &S {
        self.array.space()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats::{LocalPeats, PolicyParams};
    use std::thread;

    fn mmrt_space(t: usize) -> (LocalPeats, MmrtParams) {
        let params = MmrtParams::for_t(t);
        let space = LocalPeats::new(params.policy(), PolicyParams::new()).unwrap();
        (space, params)
    }

    #[test]
    fn parameters_match_the_paper() {
        let p = MmrtParams::for_t(4);
        assert_eq!(p.n, 45);
        assert_eq!(p.bits, 9);
        // Committees are disjoint and cover 0..n.
        let mut all: Vec<u64> = (0..p.bits).flat_map(|j| p.committee(j)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..p.n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn unanimous_proposals_decide_that_value() {
        let (space, params) = mmrt_space(1); // n = 6, bits = 3
        let mut joins = Vec::new();
        for p in 0..params.n as u64 {
            let c = MmrtConsensus::new(space.handle(p), params);
            joins.push(thread::spawn(move || c.propose(1).unwrap()));
        }
        for j in joins {
            assert_eq!(j.join().unwrap(), 1);
        }
    }

    #[test]
    fn agreement_under_split() {
        let (space, params) = mmrt_space(1);
        let mut joins = Vec::new();
        for p in 0..params.n as u64 {
            let c = MmrtConsensus::new(space.handle(p), params);
            let v = (p % 2) as i64;
            joins.push(thread::spawn(move || c.propose(v).unwrap()));
        }
        let ds: Vec<i64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert!(ds.windows(2).all(|w| w[0] == w[1]), "{ds:?}");
    }

    #[test]
    fn strong_validity_with_silent_committee_member() {
        // t = 1 process stays silent (one committee member). All correct
        // processes propose 0; the decision must be 0.
        let (space, params) = mmrt_space(1);
        let mut joins = Vec::new();
        for p in 1..params.n as u64 {
            // process 0 is silent
            let c = MmrtConsensus::new(space.handle(p), params);
            joins.push(thread::spawn(move || c.propose(0).unwrap()));
        }
        for j in joins {
            assert_eq!(j.join().unwrap(), 0);
        }
    }

    #[test]
    fn byzantine_writer_taints_at_most_its_own_bits() {
        // The Byzantine process 0 writes 1 everywhere it can (committee 0
        // only); correct processes propose 0 → majority is 0.
        let (space, params) = mmrt_space(1);
        let byz = MmrtConsensus::new(space.handle(0), params);
        let _ = byz.propose_bounded(1, Some(1)).unwrap();
        let mut joins = Vec::new();
        for p in 1..params.n as u64 {
            let c = MmrtConsensus::new(space.handle(p), params);
            joins.push(thread::spawn(move || c.propose(0).unwrap()));
        }
        for j in joins {
            assert_eq!(j.join().unwrap(), 0);
        }
    }

    #[test]
    fn bounded_propose_reports_missing_bits() {
        let (space, params) = mmrt_space(1);
        // Only processes of committee 0 participate: bits 1, 2 stay unset.
        let c = MmrtConsensus::new(space.handle(0), params);
        assert_eq!(c.propose_bounded(0, Some(5)).unwrap(), None);
    }
}
