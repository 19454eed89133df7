//! # peats-auth
//!
//! Authentication substrate for the replicated PEATS (§4 of the paper):
//! SHA-256 and HMAC-SHA-256 implemented from specification (no crypto
//! crates exist in this offline environment) plus pairwise key tables that
//! simulate the paper's authenticated channels ("standard technologies like
//! IPSec or SSL"). A [`KeyTable`] derives each pair key once and keeps it
//! as an [`HmacKey`] — the SHA-256 states after the inner and outer pad —
//! so MACs are the only per-message crypto and cost the message's own
//! blocks plus one.
//!
//! Validated against FIPS 180-4 / RFC 4231 test vectors. Suitable for this
//! research reproduction; not an audited cryptographic implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hmac;
mod keys;
mod sha256;

pub use hmac::{hmac_sha256, verify_mac, HmacKey};
pub use keys::{pair_key, KeyTable, NodeId};
pub use sha256::{sha256, Digest, Sha256, DIGEST_LEN};
