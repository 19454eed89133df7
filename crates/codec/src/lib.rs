//! # peats-codec
//!
//! Self-describing binary wire format for the replicated PEATS (§4). No
//! serialization-format crates exist in this offline environment, so this
//! crate defines a small length-prefixed encoding for every type that
//! crosses the network: tuple-space [`Value`]s, [`Tuple`]s, [`Template`]s
//! and the operation calls of `peats-policy`.
//!
//! Encoding rules: one tag byte per variant; integers little-endian
//! fixed-width; sequences as `u32` length + elements. Decoding is strict —
//! trailing bytes, bad tags or truncation produce a [`DecodeError`], which
//! replicas treat as a Byzantine message and drop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

pub use frame::{
    append_frame, crc32, read_checked_frame, write_checked_frame, write_frame, FrameError,
    FrameReader, DEFAULT_MAX_FRAME,
};

use peats_policy::OpCall;
use peats_tuplespace::{
    BucketDigest, BucketKey, Field, SpaceSnapshot, Template, Tuple, TypeTag, Value,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Error produced by [`Decode`] implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An unknown variant tag was encountered.
    BadTag {
        /// The offending byte.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the remaining input (malicious or corrupt).
    LengthOverflow,
    /// Input had bytes left over after a complete top-level decode.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadTag { tag, ty } => write!(f, "bad tag {tag:#x} for {ty}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::LengthOverflow => write!(f, "length prefix exceeds input"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over an input buffer.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes the next `n` bytes in one bounds-checked step.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] if fewer than `n` remain; nothing is
    /// consumed then.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = u32::decode(self)? as usize;
        if n > self.remaining() {
            // Every element needs ≥ 1 byte; reject absurd lengths up front.
            return Err(DecodeError::LengthOverflow);
        }
        Ok(n)
    }
}

/// Serializes a value into a byte buffer.
pub trait Encode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserializes a value from a [`Reader`].
pub trait Decode: Sized {
    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a complete buffer, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input or leftovers.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

macro_rules! int_codec {
    ($($ty:ty),+) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                let bytes = r.bytes(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized read")))
            }
        }
    )+};
}

int_codec!(u8, u16, u32, u64, i64);

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag { tag, ty: "bool" }),
        }
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.len_prefix()?;
        let bytes = r.bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag { tag, ty: "Option" }),
        }
    }
}

impl Encode for Value {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                i.encode(buf);
            }
            Value::Bool(b) => {
                buf.push(2);
                b.encode(buf);
            }
            Value::Str(s) => {
                buf.push(3);
                s.encode(buf);
            }
            Value::Bytes(b) => {
                buf.push(4);
                (b.len() as u32).encode(buf);
                buf.extend_from_slice(b);
            }
            Value::List(l) => {
                buf.push(5);
                l.encode(buf);
            }
            Value::Set(s) => {
                buf.push(6);
                (s.len() as u32).encode(buf);
                for v in s {
                    v.encode(buf);
                }
            }
            Value::Map(m) => {
                buf.push(7);
                (m.len() as u32).encode(buf);
                for (k, v) in m {
                    k.encode(buf);
                    v.encode(buf);
                }
            }
        }
    }
}

impl Decode for Value {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => Value::Null,
            1 => Value::Int(i64::decode(r)?),
            2 => Value::Bool(bool::decode(r)?),
            3 => Value::Str(String::decode(r)?),
            4 => {
                let n = r.len_prefix()?;
                Value::Bytes(r.bytes(n)?.to_vec())
            }
            5 => Value::List(Vec::decode(r)?),
            6 => {
                let n = u32::decode(r)? as usize;
                if n > r.remaining() + 1 {
                    return Err(DecodeError::LengthOverflow);
                }
                let mut s = BTreeSet::new();
                for _ in 0..n {
                    s.insert(Value::decode(r)?);
                }
                Value::Set(s)
            }
            7 => {
                let n = u32::decode(r)? as usize;
                if n > r.remaining() + 1 {
                    return Err(DecodeError::LengthOverflow);
                }
                let mut m = BTreeMap::new();
                for _ in 0..n {
                    let k = Value::decode(r)?;
                    let v = Value::decode(r)?;
                    m.insert(k, v);
                }
                Value::Map(m)
            }
            tag => return Err(DecodeError::BadTag { tag, ty: "Value" }),
        })
    }
}

impl Encode for Tuple {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for v in self.fields() {
            v.encode(buf);
        }
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            fields.push(Value::decode(r)?);
        }
        Ok(Tuple::new(fields))
    }
}

fn type_tag_byte(t: TypeTag) -> u8 {
    match t {
        TypeTag::Null => 0,
        TypeTag::Int => 1,
        TypeTag::Bool => 2,
        TypeTag::Str => 3,
        TypeTag::Bytes => 4,
        TypeTag::List => 5,
        TypeTag::Set => 6,
        TypeTag::Map => 7,
    }
}

fn type_tag_from(b: u8) -> Result<TypeTag, DecodeError> {
    Ok(match b {
        0 => TypeTag::Null,
        1 => TypeTag::Int,
        2 => TypeTag::Bool,
        3 => TypeTag::Str,
        4 => TypeTag::Bytes,
        5 => TypeTag::List,
        6 => TypeTag::Set,
        7 => TypeTag::Map,
        tag => return Err(DecodeError::BadTag { tag, ty: "TypeTag" }),
    })
}

impl Encode for Field {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Field::Exact(v) => {
                buf.push(0);
                v.encode(buf);
            }
            Field::Any => buf.push(1),
            Field::Formal { name, ty } => {
                buf.push(2);
                name.clone().encode(buf);
                match ty {
                    None => buf.push(0),
                    Some(t) => {
                        buf.push(1);
                        buf.push(type_tag_byte(*t));
                    }
                }
            }
        }
    }
}

impl Decode for Field {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => Field::Exact(Value::decode(r)?),
            1 => Field::Any,
            2 => {
                let name = String::decode(r)?;
                let ty = match r.byte()? {
                    0 => None,
                    1 => Some(type_tag_from(r.byte()?)?),
                    tag => {
                        return Err(DecodeError::BadTag {
                            tag,
                            ty: "Field.ty",
                        })
                    }
                };
                Field::Formal { name, ty }
            }
            tag => return Err(DecodeError::BadTag { tag, ty: "Field" }),
        })
    }
}

impl Encode for Template {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for f in self.fields() {
            f.encode(buf);
        }
    }
}

impl Decode for Template {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            fields.push(Field::decode(r)?);
        }
        Ok(Template::new(fields))
    }
}

impl Encode for OpCall<'_> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            OpCall::Out(t) => {
                buf.push(0);
                t.encode(buf);
            }
            OpCall::Rd(t) => {
                buf.push(1);
                t.encode(buf);
            }
            OpCall::In(t) => {
                buf.push(2);
                t.encode(buf);
            }
            OpCall::Rdp(t) => {
                buf.push(3);
                t.encode(buf);
            }
            OpCall::Inp(t) => {
                buf.push(4);
                t.encode(buf);
            }
            OpCall::Cas(t, e) => {
                buf.push(5);
                t.encode(buf);
                e.encode(buf);
            }
            OpCall::Count(t) => {
                buf.push(6);
                t.encode(buf);
            }
        }
    }
}

impl Decode for OpCall<'static> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => OpCall::out(Tuple::decode(r)?),
            1 => OpCall::rd(Template::decode(r)?),
            2 => OpCall::take(Template::decode(r)?),
            3 => OpCall::rdp(Template::decode(r)?),
            4 => OpCall::inp(Template::decode(r)?),
            5 => OpCall::cas(Template::decode(r)?, Tuple::decode(r)?),
            6 => OpCall::count(Template::decode(r)?),
            tag => return Err(DecodeError::BadTag { tag, ty: "OpCall" }),
        })
    }
}

impl Encode for SpaceSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.entries.len() as u32).encode(buf);
        for (seq, entry) in &self.entries {
            seq.encode(buf);
            entry.encode(buf);
        }
        self.next_seq.encode(buf);
        self.rng_state.encode(buf);
    }
}

impl Decode for SpaceSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = u32::decode(r)? as usize;
        if n > r.remaining() + 1 {
            return Err(DecodeError::LengthOverflow);
        }
        let mut entries = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            entries.push((u64::decode(r)?, Tuple::decode(r)?));
        }
        Ok(SpaceSnapshot {
            entries,
            next_seq: u64::decode(r)?,
            rng_state: u64::decode(r)?,
        })
    }
}

impl Encode for [u8; 32] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl Decode for [u8; 32] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.bytes(32)?.try_into().expect("sized read"))
    }
}

impl Encode for BucketKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.arity.encode(buf);
        self.channel.encode(buf);
    }
}

impl Decode for BucketKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BucketKey {
            arity: u64::decode(r)?,
            channel: Option::<Value>::decode(r)?,
        })
    }
}

impl Encode for BucketDigest {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.key.encode(buf);
        self.digest.encode(buf);
        self.entries.encode(buf);
    }
}

impl Decode for BucketDigest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BucketDigest {
            key: BucketKey::decode(r)?,
            digest: <[u8; 32]>::decode(r)?,
            entries: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats_tuplespace::{template, tuple};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(u16::MAX);
        roundtrip(123456u32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip("héllo".to_owned());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Option::<u32>::None);
        roundtrip(Some(7u64));
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Null,
            Value::Int(-42),
            Value::Bool(true),
            Value::from("PROPOSE"),
            Value::Bytes(vec![0, 255, 1]),
            Value::list([Value::Int(1), Value::from("x")]),
            Value::set([Value::Int(1), Value::Int(2)]),
            Value::map([(Value::from("k"), Value::set([Value::Int(9)]))]),
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn tuple_and_template_roundtrips() {
        roundtrip(tuple![
            "DECISION",
            1,
            Value::set([Value::Int(0), Value::Int(2)])
        ]);
        roundtrip(template!["DECISION", ?d, _]);
        roundtrip(Template::new(vec![Field::typed_formal("x", TypeTag::Int)]));
    }

    #[test]
    fn opcall_roundtrips() {
        roundtrip(OpCall::out(tuple!["A", 1]));
        roundtrip(OpCall::rdp(template!["A", ?x]));
        roundtrip(OpCall::cas(template!["D", ?x], tuple!["D", 9]));
        roundtrip(OpCall::count(template!["A", _]));
    }

    #[test]
    fn space_snapshot_roundtrips() {
        roundtrip(SpaceSnapshot::default());
        roundtrip(SpaceSnapshot {
            entries: vec![(0, tuple!["A", 1]), (3, tuple!["B"])],
            next_seq: 7,
            rng_state: 0xDEAD_BEEF,
        });
    }

    #[test]
    fn bucket_digest_roundtrips() {
        roundtrip(BucketKey {
            arity: 0,
            channel: None,
        });
        roundtrip(BucketKey {
            arity: 3,
            channel: Some(Value::from("JOB")),
        });
        roundtrip([0xA5u8; 32]);
        let leaf = BucketDigest {
            key: BucketKey {
                arity: 2,
                channel: Some(Value::Int(-4)),
            },
            digest: [7u8; 32],
            entries: 9,
        };
        let bytes = leaf.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                BucketDigest::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        roundtrip(leaf);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let bytes = Value::from("hello").to_bytes();
        for cut in 0..bytes.len() {
            assert!(Value::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Value::Int(1).to_bytes();
        bytes.push(0);
        assert_eq!(
            Value::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(matches!(
            Value::from_bytes(&[99]),
            Err(DecodeError::BadTag { ty: "Value", .. })
        ));
        assert!(matches!(
            bool::from_bytes(&[7]),
            Err(DecodeError::BadTag { ty: "bool", .. })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        assert!(Vec::<String>::from_bytes(&bytes).is_err());
    }
}
