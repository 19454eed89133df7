//! # peats-baseline
//!
//! Executable reconstructions of the prior-art systems the paper compares
//! against (§7):
//!
//! * [`sticky`] — sticky bits protected by ACLs (\[13\] + the ACL model of
//!   \[9\]/\[11\]), implemented as a *generated* PEATS policy: ACLs really are
//!   the degenerate case of fine-grained policies, running on the same
//!   reference monitor;
//! * [`mmrt`] — a documented reconstruction of the Malkhi et al. \[11\]
//!   strong consensus (`2t+1` sticky bits, `n ≥ (t+1)(2t+1)` processes),
//!   the executable comparator for the operation-count experiment (E10);
//! * the closed-form cost model of Alon et al. \[9\] lives in
//!   `peats_consensus::memory` next to the PEATS formulas it is compared
//!   with (E6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mmrt;
pub mod sticky;

pub use mmrt::{MmrtConsensus, MmrtParams};
pub use sticky::{sticky_bits_policy, StickyBitArray, BIT};
