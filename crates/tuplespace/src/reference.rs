//! The pre-index full-scan tuple space, kept as a *reference oracle*.
//!
//! [`ScanSpace`] is the storage engine [`SequentialSpace`] had before the
//! two-level match index landed: a `Vec<(seq, Tuple)>` that every operation
//! scans front to back. It is deliberately simple — its correctness is
//! obvious from the §2.3 definitions — which makes it the ground truth for
//!
//! * the differential property suite (`tests/differential.rs`), which
//!   replays random operation sequences against both engines and demands
//!   identical observable behaviour, and
//! * the `space_ops` criterion bench, which measures the index's speedup
//!   against this baseline.
//!
//! Selection semantics are shared with the indexed engine (same xorshift
//! stream, same rejection-sampled draw over matches in insertion order), so
//! `Selection::Seeded` runs are comparable draw for draw.

use crate::draw;
use crate::space::{CasOutcome, Selection};
use crate::template::Template;
use crate::tuple::Tuple;
use std::cell::Cell;

/// A linear-scan augmented tuple space — the reference implementation the
/// indexed [`SequentialSpace`](crate::SequentialSpace) is verified and
/// benchmarked against. Not intended for production use.
#[derive(Clone, Debug, Default)]
pub struct ScanSpace {
    entries: Vec<(u64, Tuple)>,
    next_seq: u64,
    selection: Selection,
    rng_state: Cell<u64>,
}

impl ScanSpace {
    /// Creates an empty space with FIFO selection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty space with the given selection policy.
    pub fn with_selection(selection: Selection) -> Self {
        ScanSpace {
            rng_state: Cell::new(selection.initial_rng_state()),
            selection,
            ..Self::default()
        }
    }

    /// Full scan: position of the selected match, if any. Faithful to the
    /// pre-index engine's cost model — every match is collected (heap
    /// allocation included) before one is selected, even under FIFO.
    /// Entries are stored in seq order, so scan order is insertion order —
    /// the same candidate ordering the index produces — and the seeded draw
    /// consumes the xorshift stream exactly like the indexed engine (one
    /// bounded draw over the match count).
    fn pick_match(&self, template: &Template) -> Option<usize> {
        let matches: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (_, t))| template.matches(t))
            .map(|(i, _)| i)
            .collect();
        if matches.is_empty() {
            return None;
        }
        match self.selection {
            Selection::Fifo => Some(matches[0]),
            Selection::Seeded(_) => Some(matches[draw::draw_below(&self.rng_state, matches.len())]),
        }
    }

    /// `out(t)`: writes the entry into the space.
    pub fn out(&mut self, entry: Tuple) {
        self.entries.push((self.next_seq, entry));
        self.next_seq += 1;
    }

    /// `rdp(t̄)`: nondestructive nonblocking read.
    pub fn rdp(&mut self, template: &Template) -> Option<Tuple> {
        self.pick_match(template).map(|i| self.entries[i].1.clone())
    }

    /// Nondestructive read without operation accounting (the policy engine's
    /// `peek`).
    pub fn peek(&self, template: &Template) -> Option<&Tuple> {
        self.pick_match(template).map(|i| &self.entries[i].1)
    }

    /// `inp(t̄)`: destructive nonblocking read — `Vec::remove`, the `O(n)`
    /// shift the index replaced.
    pub fn inp(&mut self, template: &Template) -> Option<Tuple> {
        self.pick_match(template).map(|i| self.entries.remove(i).1)
    }

    /// `cas(t̄, t)`: if the read of `t̄` fails, insert `t`.
    pub fn cas(&mut self, template: &Template, entry: Tuple) -> CasOutcome {
        match self.pick_match(template) {
            Some(i) => CasOutcome::Found(self.entries[i].1.clone()),
            None => {
                self.out(entry);
                CasOutcome::Inserted
            }
        }
    }

    /// Number of stored tuples matching `template`.
    pub fn count(&self, template: &Template) -> usize {
        self.entries
            .iter()
            .filter(|(_, t)| template.matches(t))
            .count()
    }

    /// Iterates over all stored tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.entries.iter().map(|(_, t)| t)
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total storage cost in bits, recomputed by summation on every call
    /// (the behaviour the indexed engine's running total is checked against).
    pub fn cost_bits(&self) -> u64 {
        self.entries.iter().map(|(_, t)| t.cost_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{template, tuple};

    #[test]
    fn scan_space_implements_the_paper_operations() {
        let mut ts = ScanSpace::new();
        ts.out(tuple!["A", 1]);
        ts.out(tuple!["A", 2]);
        assert_eq!(ts.rdp(&template!["A", _]), Some(tuple!["A", 1]));
        assert_eq!(ts.count(&template!["A", _]), 2);
        assert!(!ts.cas(&template!["A", _], tuple!["A", 3]).inserted());
        assert!(ts.cas(&template!["B"], tuple!["B"]).inserted());
        assert_eq!(ts.inp(&template!["A", _]), Some(tuple!["A", 1]));
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.cost_bits(), 8 + 64 + 8);
    }

    #[test]
    fn seeded_draws_match_the_indexed_engine() {
        // The whole point of the oracle: identical seeds must yield
        // identical picks in both engines.
        let mut scan = ScanSpace::with_selection(Selection::Seeded(7));
        let mut indexed = crate::SequentialSpace::with_selection(Selection::Seeded(7));
        for i in 0..10 {
            scan.out(tuple!["A", i]);
            indexed.out(tuple!["A", i]);
        }
        for _ in 0..10 {
            assert_eq!(
                scan.inp(&template!["A", _]),
                indexed.inp(&template!["A", _])
            );
        }
    }
}
