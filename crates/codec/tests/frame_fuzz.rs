//! Adversarial fuzzing of the length-prefixed framing layer: byte streams
//! are attacker-controlled, so [`FrameReader`] must reject garbage,
//! truncations, and hostile length prefixes without panicking — and
//! without allocating a buffer for a length it hasn't validated.

use peats_codec::{
    read_checked_frame, write_checked_frame, write_frame, Decode, Encode, FrameError, FrameReader,
};
use peats_policy::OpCall;
use peats_tuplespace::{template, tuple, Template};
use proptest::prelude::*;
use std::io::Cursor;

/// Bare templates as shipped by the replication layer's blocking-wait
/// `Register` requests (a template outside any `OpCall` wrapper is its own
/// wire shape: the decoder sees field tags first, not an op tag).
fn sample_templates() -> Vec<Template> {
    vec![
        template!["JOB", ?x, _],
        template![?tag, 7, true],
        template!["EVT", _],
        template![_],
    ]
}

/// One sample per `OpCall` wire tag (including the read-only `count` the
/// fast read path ships), so framing fuzz starts from every realistic
/// payload shape.
fn sample_opcalls() -> Vec<OpCall<'static>> {
    vec![
        OpCall::out(tuple!["JOB", 7, "payload"]),
        OpCall::rd(template!["JOB", ?x, _]),
        OpCall::take(template!["JOB", ?x, _]),
        OpCall::rdp(template!["JOB", ?x, _]),
        OpCall::inp(template!["JOB", ?x, _]),
        OpCall::cas(template!["JOB", ?x, _], tuple!["JOB", 1, "p"]),
        OpCall::count(template!["JOB", ?x, _]),
    ]
}

proptest! {
    /// Arbitrary byte streams never panic the reader, and whatever frames
    /// it does yield were actually carried by the stream.
    #[test]
    fn random_streams_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut r = FrameReader::new(Cursor::new(bytes.clone()), 64);
        // Clean EOF or a decode error ends the stream; neither may panic.
        let mut blocking = Vec::new();
        while let Ok(Some(frame)) = r.next_frame() {
            prop_assert!(frame.len() <= 64);
            blocking.push(frame.to_vec());
        }
        // Taken apart — one read, then what it completed — the reader cuts
        // the same frames out of the same bytes.
        let (split, _) = split_read(&mut FrameReader::new(Cursor::new(bytes), 64));
        prop_assert_eq!(split, blocking);
    }

    /// Write-then-read round-trips any payload within the cap, including
    /// across a reader that yields one byte at a time (split reads).
    #[test]
    fn roundtrip_survives_split_reads(payload in proptest::collection::vec(any::<u8>(), 0..96)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload, 96).expect("within cap");
        let mut r = FrameReader::new(OneByteReader { data: buf, pos: 0 }, 96);
        let frame = r.next_frame().expect("valid stream").expect("one frame");
        prop_assert_eq!(frame, &payload[..]);
        prop_assert!(r.next_frame().expect("clean EOF").is_none());
    }

    /// Every `OpCall` variant survives a framed round trip — even through
    /// a reader yielding one byte at a time — and decodes to itself.
    #[test]
    fn framed_opcalls_roundtrip(which in 0usize..7) {
        let op = &sample_opcalls()[which];
        let bytes = op.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes, 4096).expect("within cap");
        let mut r = FrameReader::new(OneByteReader { data: buf, pos: 0 }, 4096);
        let frame = r.next_frame().expect("valid stream").expect("one frame");
        prop_assert_eq!(&OpCall::from_bytes(frame).expect("valid opcall"), op);
    }

    /// Truncations and single-byte corruptions of any `OpCall` encoding
    /// never panic the decoder.
    #[test]
    fn corrupted_opcalls_never_panic(which in 0usize..7, pos in 0usize..10_000, xor in 0u8..=255) {
        let bytes = sample_opcalls()[which].to_bytes();
        let cut = pos % bytes.len().max(1);
        prop_assert!(OpCall::from_bytes(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        if xor != 0 {
            let mut corrupt = bytes.clone();
            let pos = pos % corrupt.len();
            corrupt[pos] ^= xor;
            let _ = OpCall::from_bytes(&corrupt);
        }
    }

    /// Bare templates — the `Register` payload — survive a framed round
    /// trip through a one-byte-at-a-time reader.
    #[test]
    fn framed_templates_roundtrip(which in 0usize..4) {
        let t = &sample_templates()[which];
        let bytes = t.to_bytes();
        let mut buf = Vec::new();
        write_frame(&mut buf, &bytes, 4096).expect("within cap");
        let mut r = FrameReader::new(OneByteReader { data: buf, pos: 0 }, 4096);
        let frame = r.next_frame().expect("valid stream").expect("one frame");
        prop_assert_eq!(&Template::from_bytes(frame).expect("valid template"), t);
    }

    /// Truncations and single-byte corruptions of a bare template encoding
    /// never panic the decoder.
    #[test]
    fn corrupted_templates_never_panic(which in 0usize..4, pos in 0usize..10_000, xor in 0u8..=255) {
        let bytes = sample_templates()[which].to_bytes();
        if !bytes.is_empty() {
            let cut = pos % bytes.len();
            let _ = Template::from_bytes(&bytes[..cut]);
            if xor != 0 {
                let mut corrupt = bytes.clone();
                let pos = pos % corrupt.len();
                corrupt[pos] ^= xor;
                let _ = Template::from_bytes(&corrupt);
            }
        }
    }

    /// Arbitrary byte streams never panic the CRC-checked reader (the WAL
    /// on-disk format): every outcome is a clean frame, a clean EOF, or a
    /// typed error — and the odds of garbage passing a CRC are what they
    /// should be (we assert any frame yielded was genuinely written).
    #[test]
    fn random_streams_never_panic_checked_reader(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut r = Cursor::new(bytes);
        while let Ok(Some(frame)) = read_checked_frame(&mut r, 64) {
            prop_assert!(frame.len() <= 64);
        }
    }

    /// Checked frames round-trip through a one-byte-at-a-time reader, and
    /// truncating the stream at ANY point yields a torn-tail error (or a
    /// clean EOF at zero), never a bogus frame.
    #[test]
    fn checked_roundtrip_and_all_truncations(payload in proptest::collection::vec(any::<u8>(), 0..96), cut_seed in 0usize..10_000) {
        let mut buf = Vec::new();
        write_checked_frame(&mut buf, &payload, 96).expect("within cap");
        let mut r = OneByteReader { data: buf.clone(), pos: 0 };
        let frame = read_checked_frame(&mut r, 96).expect("valid stream").expect("one frame");
        prop_assert_eq!(&frame, &payload);
        prop_assert!(read_checked_frame(&mut r, 96).expect("clean EOF").is_none());

        let cut = cut_seed % buf.len(); // strictly shorter than one record
        match read_checked_frame(&mut Cursor::new(&buf[..cut]), 96) {
            Ok(None) => prop_assert_eq!(cut, 0, "mid-record truncation read as clean EOF"),
            Ok(Some(f)) => prop_assert!(false, "truncated stream yielded a frame of {} bytes", f.len()),
            Err(_) => {} // torn tail: exactly what recovery truncates at
        }
    }

    /// Flipping any single bit of a checked frame is caught: the reader
    /// reports corruption (or a hostile length) rather than returning a
    /// frame that differs from what was written.
    #[test]
    fn checked_frame_detects_any_bitflip(payload in proptest::collection::vec(any::<u8>(), 1..64), pos in 0usize..10_000, bit in 0u8..8) {
        let mut buf = Vec::new();
        write_checked_frame(&mut buf, &payload, 64).expect("within cap");
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        // Anything but a yielded frame is fine: rejected, torn, or (when
        // the flip lands in the length prefix) over-cap.
        if let Ok(Some(frame)) = read_checked_frame(&mut Cursor::new(&buf), 64) {
            prop_assert!(false, "bitflip at {pos} passed CRC with {} bytes", frame.len());
        }
    }

    /// A hostile length prefix beyond the cap is rejected before any
    /// payload allocation, whatever follows it.
    #[test]
    fn oversized_prefix_rejected(extra in 1u64..u64::from(u32::MAX - 64), tail in proptest::collection::vec(any::<u8>(), 0..16)) {
        let len = 64 + u32::try_from(extra).unwrap_or(u32::MAX);
        let mut stream = len.to_le_bytes().to_vec();
        stream.extend_from_slice(&tail);
        match FrameReader::new(Cursor::new(stream), 64).next_frame() {
            Err(FrameError::TooLarge { len: l, max }) => {
                prop_assert_eq!(l, u64::from(len));
                prop_assert_eq!(max, 64);
            }
            other => prop_assert!(false, "expected TooLarge, got {other:?}"),
        }
    }

    /// A coalesced burst of frames comes out of the buffered reader
    /// identical however the stream chunks it; cutting the burst anywhere
    /// yields the whole frames before the cut and then a clean close (on a
    /// frame boundary) or a truncation error (inside a frame).
    #[test]
    fn buffered_reader_survives_arbitrary_chunking(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 0..12),
        chunk_seed in any::<u64>(),
        max_chunk in 1usize..40,
        cut_seed in 0usize..10_000,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0];
        for f in &frames {
            write_frame(&mut stream, f, 96).expect("within cap");
            boundaries.push(stream.len());
        }
        let chunked = |data: &[u8]| ChunkedReader {
            data: data.to_vec(),
            pos: 0,
            rng: proptest::test_runner::TestRng::from_seed(chunk_seed),
            max_chunk,
        };
        let mut r = FrameReader::new(chunked(&stream), 96);
        for f in &frames {
            prop_assert_eq!(r.next_frame().expect("valid stream").expect("a frame"), &f[..]);
        }
        prop_assert!(r.next_frame().expect("clean EOF").is_none());
        // The same through the two steps `next_frame` is made of.
        let (split, end) = split_read(&mut FrameReader::new(chunked(&stream), 96));
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert_eq!(&split, &frames);

        let cut = cut_seed % (stream.len() + 1);
        let whole = boundaries.iter().filter(|&&b| b != 0 && b <= cut).count();
        // A caller of the two steps sees the stream end and has the whole
        // frames before the cut, no more; it drops the connection either
        // way, so it is not told whether the end was clean.
        let (split, end) = split_read(&mut FrameReader::new(chunked(&stream[..cut]), 96));
        prop_assert!(end.is_ok(), "{end:?}");
        prop_assert_eq!(&split[..], &frames[..whole]);
        let mut r = FrameReader::new(chunked(&stream[..cut]), 96);
        for f in &frames[..whole] {
            prop_assert_eq!(r.next_frame().expect("before the cut").expect("a frame"), &f[..]);
        }
        match r.next_frame() {
            Ok(None) => prop_assert!(boundaries.contains(&cut), "cut {cut} inside a frame read as a clean close"),
            Ok(Some(f)) => prop_assert!(false, "cut stream yielded an extra frame of {} bytes", f.len()),
            Err(FrameError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                prop_assert!(!boundaries.contains(&cut), "cut {cut} on a boundary is a clean close");
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }

    /// A hostile length behind any number of good frames in the same
    /// buffered burst is rejected, after the good frames were delivered.
    #[test]
    fn buffered_reader_rejects_an_oversized_prefix_mid_burst(
        good in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
        extra in 1u32..1_000_000,
        max_chunk in 1usize..200,
    ) {
        let mut stream = Vec::new();
        for f in &good {
            write_frame(&mut stream, f, 64).expect("within cap");
        }
        stream.extend_from_slice(&(64 + extra).to_le_bytes());
        stream.extend_from_slice(&[0xEE; 32]);
        let chunked = || ChunkedReader {
            data: stream.clone(),
            pos: 0,
            rng: proptest::test_runner::TestRng::from_seed(u64::from(extra)),
            max_chunk,
        };
        let (split, end) = split_read(&mut FrameReader::new(chunked(), 64));
        prop_assert_eq!(&split, &good);
        prop_assert!(matches!(end, Err(FrameError::TooLarge { max: 64, .. })), "{end:?}");
        let mut r = FrameReader::new(chunked(), 64);
        for f in &good {
            prop_assert_eq!(r.next_frame().expect("good frame").expect("a frame"), &f[..]);
        }
        match r.next_frame() {
            Err(FrameError::TooLarge { len, max }) => {
                prop_assert_eq!(len, u64::from(64 + extra));
                prop_assert_eq!(max, 64);
            }
            other => prop_assert!(false, "expected TooLarge, got {other:?}"),
        }
    }
}

/// Reads `r` to its end the way a caller that waits elsewhere does: every
/// frame already whole in the buffer, then one `fill_once`, and again. The
/// frames cut, and how it ended (`Ok`: the stream did).
fn split_read<R: std::io::Read>(r: &mut FrameReader<R>) -> (Vec<Vec<u8>>, Result<(), FrameError>) {
    let mut frames = Vec::new();
    loop {
        loop {
            match r.buffered_frame() {
                Ok(Some(frame)) => frames.push(frame.to_vec()),
                Ok(None) => break,
                Err(e) => return (frames, Err(e)),
            }
        }
        match r.fill_once() {
            Ok(0) => return (frames, Ok(())),
            Ok(_) => {}
            Err(e) => return (frames, Err(e)),
        }
    }
}

/// Delivers its bytes in random chunks of `1..=max_chunk` — a socket
/// splitting and merging frames however it likes.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    rng: proptest::test_runner::TestRng,
    max_chunk: usize,
}

impl std::io::Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.data.len() - self.pos;
        let n = (1 + self.rng.below(self.max_chunk))
            .min(left)
            .min(buf.len());
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

struct OneByteReader {
    data: Vec<u8>,
    pos: usize,
}

impl std::io::Read for OneByteReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() || buf.is_empty() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}
