//! Incremental hash forest over the space's (arity → channel) buckets.
//!
//! Checkpoint attestation used to fold every stored tuple into one SHA-256
//! on every digest call — O(state) work per checkpoint. This module keeps a
//! per-bucket hash alongside the matching index ([`crate::SpaceIndex`]'s
//! arity → leading-channel buckets), updated incrementally on every
//! `out`/`take`, so the root digest only rehashes buckets that actually
//! changed since the last call. Because the root is a tree over bucket
//! digests, two diverging replicas can localize their disagreement to the
//! differing buckets ([`diff_buckets`]) instead of just knowing "state
//! differs".
//!
//! Bucket identity mirrors the read index: a tuple lives in the bucket for
//! `(arity, leading value)`, or `(arity, None)` when it has no fields. Each
//! entry contributes `sha256(seq ‖ canonical(tuple))`; a bucket digest folds
//! its entries in sequence order; an arity digest folds its channel buckets;
//! the root folds the arities. All folds are ordered (BTreeMap iteration),
//! so the root is a deterministic function of the exact entry set — unlike
//! XOR-multiset schemes, which admit offline collision crafting by Gaussian
//! elimination over GF(2).
//!
//! The canonical byte encoding is defined here rather than borrowed from
//! `peats-codec` because the codec crate depends on this one; it is
//! injective (tagged, length-prefixed) so distinct tuples never collide
//! pre-hash.

use crate::tuple::Tuple;
use crate::value::Value;
use peats_auth::{sha256, Digest, Sha256};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Identity of one hash bucket: the tuple arity plus the leading field
/// value ("channel"), `None` for the empty tuple's bucket.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct BucketKey {
    /// Number of fields of every tuple in the bucket.
    pub arity: u64,
    /// Leading field value shared by the bucket's tuples, if any.
    pub channel: Option<Value>,
}

impl BucketKey {
    /// The bucket a given entry hashes into.
    pub fn of(entry: &Tuple) -> BucketKey {
        BucketKey {
            arity: entry.len() as u64,
            channel: entry.get(0).cloned(),
        }
    }

    fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.arity.to_le_bytes());
        match &self.channel {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                canonical_value(v, &mut out);
            }
        }
        out
    }
}

/// One leaf of the state hash tree as exchanged between replicas: a bucket,
/// its digest, and how many entries it covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketDigest {
    /// Which bucket this digest covers.
    pub key: BucketKey,
    /// SHA-256 fold over the bucket's `(seq, entry-hash)` pairs.
    pub digest: Digest,
    /// Number of entries folded into `digest`.
    pub entries: u64,
}

/// Buckets on which two replicas' states disagree: present with different
/// digests, or present on only one side. Both inputs must be sorted by key
/// (as [`SequentialSpace::bucket_digests`](crate::SequentialSpace::bucket_digests)
/// produces them).
pub fn diff_buckets(local: &[BucketDigest], remote: &[BucketDigest]) -> Vec<BucketKey> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < local.len() && j < remote.len() {
        match local[i].key.cmp(&remote[j].key) {
            std::cmp::Ordering::Less => {
                out.push(local[i].key.clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(remote[j].key.clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if local[i].digest != remote[j].digest {
                    out.push(local[i].key.clone());
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(local[i..].iter().map(|b| b.key.clone()));
    out.extend(remote[j..].iter().map(|b| b.key.clone()));
    out
}

/// Injective byte encoding of a [`Value`] for hashing: tag byte, then
/// little-endian scalars / length-prefixed payloads.
fn canonical_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(2);
            out.push(u8::from(*b));
        }
        Value::Str(s) => {
            out.push(3);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(4);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        Value::List(l) => {
            out.push(5);
            out.extend_from_slice(&(l.len() as u32).to_le_bytes());
            for e in l {
                canonical_value(e, out);
            }
        }
        Value::Set(s) => {
            out.push(6);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            for e in s {
                canonical_value(e, out);
            }
        }
        Value::Map(m) => {
            out.push(7);
            out.extend_from_slice(&(m.len() as u32).to_le_bytes());
            for (k, v) in m {
                canonical_value(k, out);
                canonical_value(v, out);
            }
        }
    }
}

/// Hash of one stored entry: `sha256(seq ‖ canonical(tuple))`. Binding the
/// sequence number makes the same tuple stored twice hash differently, so
/// multiplicity is attested, not just membership.
fn entry_hash(seq: u64, entry: &Tuple) -> Digest {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&(entry.len() as u32).to_le_bytes());
    for field in entry.iter() {
        canonical_value(field, &mut bytes);
    }
    sha256(&bytes)
}

#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Entry hashes keyed by sequence number, so bucket folds are ordered.
    entries: BTreeMap<u64, Digest>,
}

#[derive(Clone, Debug, Default)]
struct DigestCache {
    /// Last computed digest per bucket; entries for dirty buckets are stale.
    bucket: BTreeMap<BucketKey, Digest>,
    /// Buckets mutated since their cached digest was computed.
    dirty: BTreeSet<BucketKey>,
    /// Last computed root, valid only while `dirty` is empty.
    root: Option<Digest>,
}

/// Incrementally maintained hash tree over a space's entries.
///
/// Mutations ([`insert`](HashForest::insert) / [`remove`](HashForest::remove))
/// are O(|tuple|): they hash the one affected entry and mark its bucket
/// dirty. [`root`](HashForest::root) then re-folds only dirty buckets plus
/// the (small) spine of bucket digests. The cache sits behind a `RefCell`
/// so `root` keeps the `&self` signature digest callers already rely on —
/// the same interior-mutability precedent as the space's `RngSlot`.
#[derive(Clone, Debug, Default)]
pub struct HashForest {
    buckets: BTreeMap<BucketKey, Bucket>,
    cache: RefCell<DigestCache>,
}

impl HashForest {
    /// Records a stored entry. Called for every insert into the space.
    pub fn insert(&mut self, seq: u64, entry: &Tuple) {
        let key = BucketKey::of(entry);
        self.buckets
            .entry(key.clone())
            .or_default()
            .entries
            .insert(seq, entry_hash(seq, entry));
        let cache = self.cache.get_mut();
        cache.dirty.insert(key);
        cache.root = None;
    }

    /// Forgets a removed entry. Empty buckets are pruned so the forest
    /// mirrors the read index exactly.
    pub fn remove(&mut self, seq: u64, entry: &Tuple) {
        let key = BucketKey::of(entry);
        if let Some(bucket) = self.buckets.get_mut(&key) {
            bucket.entries.remove(&seq);
            if bucket.entries.is_empty() {
                self.buckets.remove(&key);
            }
        }
        let cache = self.cache.get_mut();
        cache.dirty.insert(key);
        cache.root = None;
    }

    /// Drops all entries (space restore path).
    pub fn clear(&mut self) {
        self.buckets.clear();
        *self.cache.get_mut() = DigestCache::default();
    }

    /// Root digest over every bucket. Recomputes only buckets dirtied since
    /// the previous call; a clean forest returns the cached root.
    pub fn root(&self) -> Digest {
        let mut cache = self.cache.borrow_mut();
        self.flush_dirty(&mut cache);
        if let Some(root) = cache.root {
            return root;
        }
        // Fold bucket digests into per-arity digests, then arities into the
        // root: three levels, so a proof of one bucket is (arity spine +
        // bucket spine) rather than the whole leaf list.
        let mut root = Sha256::new();
        let mut arity_hash: Option<(u64, Sha256)> = None;
        for (key, digest) in &cache.bucket {
            match &mut arity_hash {
                Some((arity, h)) if *arity == key.arity => {
                    h.update(&key.canonical_bytes());
                    h.update(digest);
                }
                other => {
                    if let Some((arity, h)) = other.take() {
                        root.update(&arity.to_le_bytes());
                        root.update(&h.finalize());
                    }
                    let mut h = Sha256::new();
                    h.update(&key.canonical_bytes());
                    h.update(digest);
                    *other = Some((key.arity, h));
                }
            }
        }
        if let Some((arity, h)) = arity_hash {
            root.update(&arity.to_le_bytes());
            root.update(&h.finalize());
        }
        let digest = root.finalize();
        cache.root = Some(digest);
        digest
    }

    /// Digest and entry count of every bucket, sorted by key — the leaf
    /// list exchanged during state transfer to localize divergence.
    pub fn bucket_digests(&self) -> Vec<BucketDigest> {
        let mut cache = self.cache.borrow_mut();
        self.flush_dirty(&mut cache);
        cache
            .bucket
            .iter()
            .map(|(key, digest)| BucketDigest {
                key: key.clone(),
                digest: *digest,
                entries: self.buckets[key].entries.len() as u64,
            })
            .collect()
    }

    /// Number of live buckets.
    #[cfg(test)]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    fn flush_dirty(&self, cache: &mut DigestCache) {
        if cache.dirty.is_empty() {
            return;
        }
        for key in std::mem::take(&mut cache.dirty) {
            match self.buckets.get(&key) {
                None => {
                    cache.bucket.remove(&key);
                }
                Some(bucket) => {
                    let mut h = Sha256::new();
                    for (seq, entry) in &bucket.entries {
                        h.update(&seq.to_le_bytes());
                        h.update(entry);
                    }
                    cache.bucket.insert(key, h.finalize());
                }
            }
        }
        cache.root = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn forest_of(entries: &[(u64, Tuple)]) -> HashForest {
        let mut f = HashForest::default();
        for (seq, t) in entries {
            f.insert(*seq, t);
        }
        f
    }

    #[test]
    fn root_is_order_independent_but_content_sensitive() {
        let a = forest_of(&[(1, tuple!["JOB", 1]), (2, tuple!["JOB", 2])]);
        let b = forest_of(&[(2, tuple!["JOB", 2]), (1, tuple!["JOB", 1])]);
        assert_eq!(a.root(), b.root());

        let c = forest_of(&[(1, tuple!["JOB", 1]), (2, tuple!["JOB", 3])]);
        assert_ne!(a.root(), c.root());
    }

    #[test]
    fn seq_binding_distinguishes_duplicates() {
        // Same multiset of tuples, different placement.
        let a = forest_of(&[(1, tuple!["X"]), (2, tuple!["X"])]);
        let b = forest_of(&[(1, tuple!["X"]), (3, tuple!["X"])]);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn insert_then_remove_restores_root() {
        let mut f = forest_of(&[(1, tuple!["JOB", 1])]);
        let before = f.root();
        f.insert(2, &tuple!["EVT", true]);
        assert_ne!(f.root(), before);
        f.remove(2, &tuple!["EVT", true]);
        assert_eq!(f.root(), before);
        assert_eq!(f.bucket_count(), 1);
    }

    #[test]
    fn incremental_matches_rebuilt() {
        let mut f = HashForest::default();
        let mut live: Vec<(u64, Tuple)> = Vec::new();
        for i in 0..40u64 {
            let t = tuple!["T", (i % 5) as i64, format!("p{i}")];
            f.insert(i, &t);
            live.push((i, t));
            if i % 3 == 0 {
                let (seq, t) = live.remove((i as usize * 7) % live.len());
                f.remove(seq, &t);
            }
            // Interleave reads so the dirty set is exercised mid-stream.
            let rebuilt = forest_of(&live);
            assert_eq!(f.root(), rebuilt.root());
            assert_eq!(f.bucket_digests(), rebuilt.bucket_digests());
        }
    }

    #[test]
    fn buckets_follow_arity_and_leading_value() {
        let f = forest_of(&[
            (1, tuple!["JOB", 1]),
            (2, tuple!["JOB", 2]),
            (3, tuple!["EVT", 1]),
            (4, tuple!["JOB"]),
            (5, tuple!()),
        ]);
        let keys: Vec<BucketKey> = f.bucket_digests().into_iter().map(|b| b.key).collect();
        assert_eq!(
            keys,
            vec![
                BucketKey {
                    arity: 0,
                    channel: None
                },
                BucketKey {
                    arity: 1,
                    channel: Some(Value::from("JOB"))
                },
                BucketKey {
                    arity: 2,
                    channel: Some(Value::from("EVT"))
                },
                BucketKey {
                    arity: 2,
                    channel: Some(Value::from("JOB"))
                },
            ]
        );
        let jobs = &f.bucket_digests()[3];
        assert_eq!(jobs.entries, 2);
    }

    #[test]
    fn diff_localizes_divergence() {
        let a = forest_of(&[(1, tuple!["JOB", 1]), (2, tuple!["EVT", 1])]);
        let mut b = forest_of(&[(1, tuple!["JOB", 1]), (2, tuple!["EVT", 2])]);
        b.insert(3, &tuple!["NEW"]);

        let diverged = diff_buckets(&a.bucket_digests(), &b.bucket_digests());
        assert_eq!(
            diverged,
            vec![
                BucketKey {
                    arity: 1,
                    channel: Some(Value::from("NEW"))
                },
                BucketKey {
                    arity: 2,
                    channel: Some(Value::from("EVT"))
                },
            ]
        );
        assert!(diff_buckets(&a.bucket_digests(), &a.bucket_digests()).is_empty());
    }

    #[test]
    fn clear_resets_to_empty_root() {
        let mut f = forest_of(&[(1, tuple!["JOB", 1])]);
        f.clear();
        assert_eq!(f.root(), HashForest::default().root());
        assert_eq!(f.bucket_count(), 0);
    }

    #[test]
    fn canonical_encoding_is_injective_on_tricky_values() {
        // Str("ab") vs Bytes(b"ab"), nested list vs flat, etc.
        let pairs = [
            (tuple!["ab"], tuple![Value::Bytes(b"ab".to_vec())]),
            (
                tuple![Value::list([Value::Int(1), Value::Int(2)])],
                tuple![Value::list([Value::Int(1)]), Value::Int(2)],
            ),
            (tuple![Value::Null], tuple![0]),
            (tuple![""], tuple![Value::Bytes(vec![])]),
        ];
        for (x, y) in pairs {
            assert_ne!(entry_hash(1, &x), entry_hash(1, &y), "{x} vs {y}");
        }
    }
}
