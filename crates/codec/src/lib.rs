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
//!
//! # Declaring a wire type
//!
//! A wire type is written once, through [`wire!`]: the declaration is the
//! type (docs and `#[derive]`s pass through) and also its [`Encode`] and
//! [`Decode`]. Fields go on the wire in the order they are written, and a
//! variant's tag byte is the number written beside it. A tuple variant
//! names its fields (`For(proposal: u64)`); the emitted variant is the plain
//! `For(u64)`. A field is encoded by its type's own `Encode`/`Decode`
//! unless it names a [`Codec`] with `as`: `why: Vec<u8> as RawBytes` is
//! one length prefix and one copy of the bytes, not a `u32` count of
//! one-byte elements. An enum also gets its tag list, [`Tagged::TAGS`].
//!
//! ```
//! use peats_codec::{wire, Decode, DecodeError, Encode, RawBytes, Tagged};
//!
//! wire! {
//!     /// A vote.
//!     #[derive(Debug, PartialEq)]
//!     pub enum Vote {
//!         /// No opinion.
//!         Abstain = 0,
//!         /// For a proposal.
//!         For(proposal: u64) = 1,
//!         /// Against one, with a reason.
//!         Against { proposal: u64, why: Vec<u8> as RawBytes } = 2,
//!     }
//! }
//!
//! assert_eq!(Vote::For(7).to_bytes(), [1, 7, 0, 0, 0, 0, 0, 0, 0]);
//! let no = Vote::Against { proposal: 7, why: b"late".to_vec() };
//! assert_eq!(Vote::from_bytes(&no.to_bytes()), Ok(no));
//! assert_eq!(Vote::TAGS, [0, 1, 2]);
//! assert!(matches!(Vote::from_bytes(&[3]), Err(DecodeError::BadTag { tag: 3, .. })));
//! ```
//!
//! A type declared elsewhere gets its codec from `wire! { impl enum Name
//! { .. } }` or `wire! { impl struct Name { .. } }`, which list the
//! variants and fields the same way and emit no type; a lifetime parameter
//! (`impl enum OpCall<'a>`) is generic on both sides. Types whose fields
//! are private ([`Tuple`], [`Template`]) and the integers, strings and
//! containers below are written by hand.

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
use std::borrow::Cow;
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

    /// Consumes the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.bytes(N)?
            .try_into()
            .map_err(|_| DecodeError::UnexpectedEnd)
    }

    fn byte(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A `u32` byte length, refused up front if more than what is left.
    fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = u32::decode(self)? as usize;
        if n > self.remaining() {
            return Err(DecodeError::LengthOverflow);
        }
        Ok(n)
    }

    /// A `u32` element count. Every element takes at least a byte, so a
    /// count beyond what is left is refused before anything is allocated.
    fn count(&mut self) -> Result<usize, DecodeError> {
        let n = u32::decode(self)? as usize;
        if n > self.remaining() + 1 {
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

/// A wire form of a `T` other than `T`'s own [`Encode`]/[`Decode`], named
/// by a field of a [`wire!`] declaration with `field: T as Codec`.
pub trait Codec<T> {
    /// Appends `v`'s encoding to `buf`.
    fn encode(v: &T, buf: &mut Vec<u8>);

    /// Reads one `T`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    fn decode(r: &mut Reader<'_>) -> Result<T, DecodeError>;
}

/// A byte string as a `u32` length and the bytes, copied in one piece each
/// way — the wire form of [`Value::Bytes`].
pub struct RawBytes;

impl Codec<Vec<u8>> for RawBytes {
    fn encode(v: &Vec<u8>, buf: &mut Vec<u8>) {
        (v.len() as u32).encode(buf);
        buf.extend_from_slice(v);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Vec<u8>, DecodeError> {
        let n = r.len_prefix()?;
        Ok(r.bytes(n)?.to_vec())
    }
}

/// An enum declared through [`wire!`]: the tag bytes of its variants.
pub trait Tagged {
    /// Every variant's tag, in declaration order. A leading byte not listed
    /// here decodes to [`DecodeError::BadTag`].
    const TAGS: &'static [u8];
}

/// Declares a wire type once and derives its [`Encode`] and [`Decode`] (and,
/// for an enum, [`Tagged`]); see the [crate docs](crate#declaring-a-wire-type).
#[macro_export]
macro_rules! wire {
    (@encode $buf:ident, $v:ident as $codec:ty) => {
        <$codec as $crate::Codec<_>>::encode($v, $buf)
    };
    (@encode $buf:ident, $v:ident) => {
        $crate::Encode::encode($v, $buf)
    };
    (@decode $r:ident, $ty:ty as $codec:ty) => {
        <$codec as $crate::Codec<$ty>>::decode($r)?
    };
    (@decode $r:ident, $ty:ty) => {
        <$ty as $crate::Decode>::decode($r)?
    };
    (impl enum $name:ident $(<$lt:lifetime>)? {
        $(
            $variant:ident
            $( ( $( $tb:ident : $tt:ty $(as $tc:ty)? ),+ ) )?
            $( { $( $f:ident : $ft:ty $(as $fc:ty)? ),+ $(,)? } )?
            = $tag:literal
        ),+ $(,)?
    }) => {
        impl<$($lt)?> $crate::Tagged for $name<$($lt)?> {
            const TAGS: &'static [u8] = &[$($tag),+];
        }

        impl<$($lt)?> $crate::Encode for $name<$($lt)?> {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $( ($($tb),+) )? $( { $($f),+ } )? => {
                        buf.push($tag);
                        $($( $crate::wire!(@encode buf, $tb $(as $tc)?); )+)?
                        $($( $crate::wire!(@encode buf, $f $(as $fc)?); )+)?
                    })+
                }
            }
        }

        impl<$($lt)?> $crate::Decode for $name<$($lt)?> {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok(match <u8 as $crate::Decode>::decode(r)? {
                    $($tag => Self::$variant
                        $( ($( $crate::wire!(@decode r, $tt $(as $tc)?) ),+) )?
                        $( { $( $f: $crate::wire!(@decode r, $ft $(as $fc)?) ),+ } )?,)+
                    tag => {
                        let ty = stringify!($name);
                        return Err($crate::DecodeError::BadTag { tag, ty });
                    }
                })
            }
        }
    };
    (impl struct $name:ident { $( $f:ident : $ft:ty $(as $fc:ty)? ),+ $(,)? }) => {
        impl $crate::Encode for $name {
            fn encode(&self, buf: &mut Vec<u8>) {
                let Self { $($f),+ } = self;
                $( $crate::wire!(@encode buf, $f $(as $fc)?); )+
            }
        }

        impl $crate::Decode for $name {
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::DecodeError> {
                Ok(Self { $( $f: $crate::wire!(@decode r, $ft $(as $fc)?) ),+ })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $( ( $( $tb:ident : $tt:ty $(as $tc:ty)? ),+ ) )?
                $( { $( $(#[$fmeta:meta])* $f:ident : $ft:ty $(as $fc:ty)? ),+ $(,)? } )?
                = $tag:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $( ($($tt),+) )? $( { $( $(#[$fmeta])* $f: $ft ),+ } )?,
            )+
        }

        $crate::wire! {
            impl enum $name {
                $(
                    $variant
                    $( ($( $tb: $tt $(as $tc)? ),+) )?
                    $( { $( $f: $ft $(as $fc)? ),+ } )?
                    = $tag
                ),+
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $f:ident : $ft:ty $(as $fc:ty)? ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $f: $ft ),+
        }

        $crate::wire! { impl struct $name { $( $f: $ft $(as $fc)? ),+ } }
    };
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
                Ok(<$ty>::from_le_bytes(r.array()?))
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
        String::from_utf8(RawBytes::decode(r)?).map_err(|_| DecodeError::BadUtf8)
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.array()
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

macro_rules! tuple_codec {
    ($($T:ident $i:tt),+) => {
        impl<$($T: Encode),+> Encode for ($($T,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                $(self.$i.encode(buf);)+
            }
        }
        impl<$($T: Decode),+> Decode for ($($T,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(($($T::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A 0, B 1);
tuple_codec!(A 0, B 1, C 2);

/// A borrowed sequence encodes as its owned `Vec` does, so a batch can be
/// encoded (and digested) without cloning it into one.
impl<T: Encode> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for BTreeSet<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode + Ord> Decode for BTreeSet<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = BTreeSet::new();
        for _ in 0..r.count()? {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for (k, v) in self {
            k.encode(buf);
            v.encode(buf);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = BTreeMap::new();
        for _ in 0..r.count()? {
            let (k, v) = <(K, V)>::decode(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Encode + ToOwned + ?Sized> Encode for Cow<'_, T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
}

/// Decodes to `Cow::Owned`: a decoded value borrows nothing.
impl<T: ToOwned + ?Sized> Decode for Cow<'_, T>
where
    T::Owned: Decode,
{
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        T::Owned::decode(r).map(Cow::Owned)
    }
}

wire! {
    impl enum Value {
        Null = 0,
        Int(i: i64) = 1,
        Bool(b: bool) = 2,
        Str(s: String) = 3,
        Bytes(b: Vec<u8> as RawBytes) = 4,
        List(l: Vec<Value>) = 5,
        Set(s: BTreeSet<Value>) = 6,
        Map(m: BTreeMap<Value, Value>) = 7,
    }
}

wire! {
    impl enum TypeTag {
        Null = 0,
        Int = 1,
        Bool = 2,
        Str = 3,
        Bytes = 4,
        List = 5,
        Set = 6,
        Map = 7,
    }
}

wire! {
    impl enum Field {
        Exact(value: Value) = 0,
        Any = 1,
        Formal { name: String, ty: Option<TypeTag> } = 2,
    }
}

wire! {
    impl enum OpCall<'a> {
        Out(entry: Cow<'a, Tuple>) = 0,
        Rd(template: Cow<'a, Template>) = 1,
        In(template: Cow<'a, Template>) = 2,
        Rdp(template: Cow<'a, Template>) = 3,
        Inp(template: Cow<'a, Template>) = 4,
        Cas(template: Cow<'a, Template>, entry: Cow<'a, Tuple>) = 5,
        Count(template: Cow<'a, Template>) = 6,
    }
}

wire! { impl struct SpaceSnapshot { entries: Vec<(u64, Tuple)>, next_seq: u64, rng_state: u64 } }

wire! { impl struct BucketKey { arity: u64, channel: Option<Value> } }

wire! { impl struct BucketDigest { key: BucketKey, digest: [u8; 32], entries: u64 } }

// A tuple and a template encode as the `Vec` of their fields. Each decodes
// with its own loop rather than through `Vec::decode`: `Vec::<Value>::decode`
// recurses with `Value::decode` (a `List` holds values), so it is not inlined
// into `Tuple::decode`. Routed through it, a decode cost ≈ 15 ns more per
// tuple and ≈ 13 ns per template (release build, 2-vCPU x86-64 VM).

impl Encode for Tuple {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.fields().encode(buf);
    }
}

impl Decode for Tuple {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            fields.push(Value::decode(r)?);
        }
        Ok(Tuple::new(fields))
    }
}

impl Encode for Template {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.fields().encode(buf);
    }
}

impl Decode for Template {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            fields.push(Field::decode(r)?);
        }
        Ok(Template::new(fields))
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
