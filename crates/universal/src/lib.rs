//! # peats-universal
//!
//! The universal constructions of §6 of Bessani et al., *Sharing Memory
//! between Byzantine Processes using Policy-Enforced Tuple Spaces* — the
//! proof that PEATS objects are universal \[18\]:
//!
//! * [`ObjectType`] — the typed-object model
//!   `T = ⟨STATE, S, INVOKE, REPLY, apply⟩`;
//! * [`LockFreeUniversal`] — Alg. 3: uniform, lock-free (Theorem 6);
//! * [`WaitFreeUniversal`] — Alg. 4: wait-free via announcement/helping
//!   (Theorem 7) — the paper notes this is the first wait-free universal
//!   construction for memory shared by Byzantine processes;
//! * [`objects`] — ready-made emulated types (registers, counters, queues,
//!   stacks, sticky bits, a key-value store, …);
//! * [`replay_check`] — a linearizability checker that replays the threaded
//!   operation list and validates observed replies.
//!
//! Both constructions run over any [`peats::TupleSpace`] guarded by the
//! matching Fig. 7 / Fig. 8 policy from [`peats::policies`].
//!
//! ```
//! use peats::{policies, LocalPeats, PolicyParams};
//! use peats_universal::{objects::KvStore, WaitFreeUniversal};
//! use peats_tuplespace::Value;
//!
//! let n = 4;
//! let mut params = PolicyParams::new();
//! params.set("n", n as i64);
//! let space = LocalPeats::new(policies::waitfree_universal(), params)?;
//!
//! let store = WaitFreeUniversal::new(space.handle(0), KvStore, n);
//! store.invoke(KvStore::put("lang", "rust"))?;
//! assert_eq!(store.invoke(KvStore::get("lang"))?, Value::from("rust"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lock_free;
mod object;
pub mod objects;
pub mod replay_check;
mod wait_free;

pub use lock_free::LockFreeUniversal;
pub use object::{replay, ObjectType};
pub use wait_free::WaitFreeUniversal;

/// Tag of threaded-operation tuples — re-exported from [`peats::policies`].
pub use peats::policies::SEQ;

/// Tag of announcement tuples — re-exported from [`peats::policies`].
pub use peats::policies::ANN;
