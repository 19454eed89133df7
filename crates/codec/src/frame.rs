//! Length-prefixed framing over byte streams.
//!
//! A frame is a `u32` little-endian payload length followed by the payload
//! bytes. Socket peers control every byte they send, so reading is
//! defensive: a length above the caller's cap is rejected *before* any
//! allocation (a hostile peer cannot make the reader reserve gigabytes),
//! truncation mid-frame is an error distinct from a clean end-of-stream,
//! and split reads (the OS delivering a frame in arbitrary chunks) are
//! handled by construction.
//!
//! These helpers are the single framing implementation `peats-net` uses
//! on every connection — per-connection ad-hoc framing is how
//! length-confusion bugs happen. A connection is read through the buffered
//! [`FrameReader`] (one `read` can deliver many frames, and a partial
//! frame never makes the reader wait); its senders build their bytes with
//! [`append_frame`].
//!
//! The *checked* variants ([`write_checked_frame`] / [`read_checked_frame`])
//! add a CRC-32 of the payload after the length prefix. They exist for the
//! write-ahead log, where the failure mode is not a hostile peer but a torn
//! write: a crash mid-`write` leaves a frame whose length prefix promises
//! more bytes than were flushed, or whose tail bytes are garbage. The CRC
//! turns both into a detectable [`FrameError::Corrupt`] so recovery can
//! truncate at the last intact record instead of replaying junk.

use std::io::{self, Read, Write};

/// Default frame-size cap: generous for snapshots, far below anything that
/// could be used to exhaust memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Error reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes truncation mid-frame, which
    /// surfaces as [`io::ErrorKind::UnexpectedEof`]).
    Io(io::Error),
    /// The length prefix exceeded the reader's cap (hostile or corrupt
    /// peer). Nothing was allocated; the connection should be dropped —
    /// the stream position is inside the bad frame, so it cannot be
    /// resynchronized.
    TooLarge {
        /// The advertised payload length.
        len: u64,
        /// The cap it exceeded.
        max: usize,
    },
    /// A checked frame's payload did not match its CRC-32 (torn or
    /// corrupted on disk). The payload was read but must be discarded.
    Corrupt {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC of the payload actually read.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            FrameError::Corrupt { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header says {expected:#010x}, payload hashes to {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: `u32` LE length prefix + `payload`.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] when `payload.len() > max` (the peer
/// would reject it anyway — fail at the writer, where the bug is), or the
/// underlying [`io::Error`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    w.write_all(&length_prefix(payload.len(), max)?)?;
    w.write_all(payload)?;
    Ok(())
}

/// The length prefix of a `len`-byte payload, or [`FrameError::TooLarge`]
/// when it exceeds `max` (or what a `u32` can say).
fn length_prefix(len: usize, max: usize) -> Result<[u8; 4], FrameError> {
    match u32::try_from(len) {
        Ok(prefix) if len <= max => Ok(prefix.to_le_bytes()),
        _ => Err(FrameError::TooLarge {
            len: len as u64,
            max,
        }),
    }
}

/// Appends one frame to `buf` whose payload is `head` followed by `body` —
/// how a sender coalesces several frames into the bytes of one `write`
/// without first joining each payload's two parts.
///
/// # Errors
///
/// Returns [`FrameError::TooLarge`] (and appends nothing) when the payload
/// exceeds `max`, as [`write_frame`] does.
pub fn append_frame(
    buf: &mut Vec<u8>,
    head: &[u8],
    body: &[u8],
    max: usize,
) -> Result<(), FrameError> {
    let len = head.len() + body.len();
    let prefix = length_prefix(len, max)?;
    buf.reserve(prefix.len() + len);
    buf.extend_from_slice(&prefix);
    buf.extend_from_slice(head);
    buf.extend_from_slice(body);
    Ok(())
}

/// How many bytes a [`FrameReader`] asks its stream for at a time: room
/// for a burst of small frames in one `read`, small enough to hold per
/// connection.
const READ_CHUNK: usize = 64 * 1024;

/// Reads frames off a stream through a buffer: one `read` can deliver many
/// frames (senders coalesce them), and a frame's payload is handed out as a
/// slice of the buffer, so the caller copies exactly the bytes it keeps.
/// The defences of the module docs hold here: a length is checked against
/// the cap before the buffer grows for it, and a stream that ends inside a
/// frame is an error, not a clean close.
///
/// Reading comes in two steps a caller may take apart: [`fill_once`] does
/// one `read` into the buffer and [`buffered_frame`] cuts the next complete
/// frame out of it, or says "not yet". A thread that serves many
/// connections takes them apart — it reads a connection only when told
/// there is input, so a peer that sends half a frame and stops holds up
/// nobody. [`next_frame`] is the two in a loop, for a reader with one
/// stream and nothing better to do than wait for it.
///
/// [`fill_once`]: FrameReader::fill_once
/// [`buffered_frame`]: FrameReader::buffered_frame
/// [`next_frame`]: FrameReader::next_frame
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    max: usize,
    buf: Vec<u8>,
    /// The unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`; frames longer than `max` are rejected.
    pub fn new(inner: R, max: usize) -> Self {
        FrameReader {
            inner,
            max,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// The next frame's payload, valid until the next call; `Ok(None)` on
    /// a clean end-of-stream (the peer closed between frames). Zero-length
    /// frames are valid and yield an empty slice. Blocks as long as the
    /// stream's `read` does.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLarge`] when the advertised length exceeds
    /// the cap (before allocating anything), or [`FrameError::Io`] on
    /// stream failure — including an end-of-stream *inside* a frame, which
    /// is truncation, not a clean close.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        loop {
            if let Some(payload) = self.cut()? {
                return Ok(Some(&self.buf[payload]));
            }
            if self.fill_once()? == 0 {
                if self.start == self.end {
                    return Ok(None); // clean EOF between frames
                }
                return Err(truncated("stream ended inside a frame"));
            }
        }
    }

    /// The next frame that is already whole in the buffer, valid until the
    /// next call; `Ok(None)` when the buffered bytes end before it does —
    /// [`fill_once`](Self::fill_once) has to bring more. Never touches the
    /// stream.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLarge`] as soon as the four bytes of an
    /// over-cap length prefix are buffered.
    pub fn buffered_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        Ok(self.cut()?.map(|payload| &self.buf[payload]))
    }

    /// One `read` of at most 64 KiB into the buffer, which grows only for
    /// a frame whose length already passed the cap; for when
    /// [`buffered_frame`](Self::buffered_frame) said "not yet". Returns the
    /// byte count; `Ok(0)` is the end of the stream — between frames or
    /// inside one, which a caller that drops the connection either way need
    /// not ask.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TooLarge`] when the buffered length prefix is
    /// over the cap (nothing is read for it), or the stream's
    /// [`io::Error`]; an interrupted `read` is retried. Called with whole
    /// frames filling the buffer it has no room to read into and says so
    /// ([`io::ErrorKind::InvalidInput`]) rather than report a false end.
    pub fn fill_once(&mut self) -> Result<usize, FrameError> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            // A frame larger than the chunk grew the buffer; give it back.
            if self.buf.len() > READ_CHUNK {
                self.buf = vec![0; READ_CHUNK];
            }
        }
        // Room for the frame being assembled (or its prefix): slide the
        // unconsumed tail to the front only when it would not fit behind
        // it, and grow only for a frame larger than the whole buffer.
        let want = self.framed_len()?.unwrap_or(4);
        if self.start + want > self.buf.len() || self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let room = self.buf.len().min(self.end + READ_CHUNK);
        if room == self.end {
            return Err(FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "buffer full of frames not yet taken",
            )));
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..room]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Prefix plus payload length of the frame at the head of the buffer,
    /// once its prefix is buffered; over the cap is an error.
    fn framed_len(&self) -> Result<Option<usize>, FrameError> {
        if self.end - self.start < 4 {
            return Ok(None);
        }
        let prefix = self.buf[self.start..self.start + 4]
            .try_into()
            .expect("4 bytes are buffered");
        let len = u32::from_le_bytes(prefix) as usize;
        match len.checked_add(4) {
            Some(framed) if len <= self.max => Ok(Some(framed)),
            _ => Err(FrameError::TooLarge {
                len: len as u64,
                max: self.max,
            }),
        }
    }

    /// Consumes the frame at the head of the buffer if all of it is there
    /// and returns where its payload lies.
    fn cut(&mut self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        match self.framed_len()? {
            Some(framed) if framed <= self.end - self.start => {
                let payload = self.start + 4..self.start + framed;
                self.start = payload.end;
                Ok(Some(payload))
            }
            _ => Ok(None),
        }
    }
}

fn truncated(what: &'static str) -> FrameError {
    FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, what))
}

/// Reflected CRC-32 polynomial (IEEE 802.3, the zlib/PNG one).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0][b]` is the CRC of byte `b`, and
/// `CRC32_TABLES[k][b]` that of `b` followed by `k` zero bytes, so eight
/// input bytes fold into the running CRC with eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven, eight bytes
/// per step. No compression or checksum crates exist in this offline
/// build, so it is implemented from the specification.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Writes one checked frame: `u32` LE length, `u32` LE CRC-32 of the
/// payload, then the payload.
///
/// # Errors
///
/// Same as [`write_frame`]: [`FrameError::TooLarge`] beyond `max`, or the
/// underlying [`io::Error`].
pub fn write_checked_frame<W: Write>(
    w: &mut W,
    payload: &[u8],
    max: usize,
) -> Result<(), FrameError> {
    w.write_all(&length_prefix(payload.len(), max)?)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one checked frame; `Ok(None)` on a clean end-of-stream.
///
/// # Errors
///
/// [`FrameError::TooLarge`] before allocation, [`FrameError::Io`] with
/// [`io::ErrorKind::UnexpectedEof`] when the stream ends inside the header
/// or payload (a torn tail), and [`FrameError::Corrupt`] when the payload
/// does not hash to the recorded CRC. WAL recovery treats the latter two
/// as "truncate here".
pub fn read_checked_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None), // clean EOF between frames
            Ok(0) => return Err(truncated("stream ended inside a checked-frame header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > max {
        return Err(FrameError::TooLarge {
            len: len as u64,
            max,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(FrameError::Corrupt { expected, actual });
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader that delivers at most one byte per `read` call — the
    /// worst-case split-read schedule a socket can produce.
    struct OneByteAtATime<R>(R);

    impl<R: Read> Read for OneByteAtATime<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.read(&mut buf[..1])
        }
    }

    #[test]
    fn oversized_length_rejected_without_allocating() {
        // A hostile 4 GiB-ish length prefix with no payload behind it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match FrameReader::new(Cursor::new(buf), 1024).next_frame() {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn writer_enforces_the_cap_too() {
        let mut buf = Vec::new();
        assert!(matches!(
            write_frame(&mut buf, &[0u8; 100], 64),
            Err(FrameError::TooLarge { len: 100, max: 64 })
        ));
        assert!(
            buf.is_empty(),
            "nothing may be written for a rejected frame"
        );
    }

    #[test]
    fn truncation_inside_prefix_is_an_error_not_eof() {
        let buf = vec![5u8, 0]; // half a length prefix, then EOF
        match FrameReader::new(Cursor::new(buf), 1024).next_frame() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn truncation_inside_payload_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"full payload", DEFAULT_MAX_FRAME).unwrap();
        buf.truncate(buf.len() - 3);
        match FrameReader::new(Cursor::new(buf), DEFAULT_MAX_FRAME).next_frame() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_roundtrips_under_a_tiny_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"", 0).unwrap();
        let mut r = FrameReader::new(Cursor::new(buf), 0);
        assert_eq!(r.next_frame().unwrap().unwrap(), b"");
    }

    #[test]
    fn append_frame_writes_the_bytes_write_frame_does() {
        let mut joined = Vec::new();
        write_frame(&mut joined, b"head+body", DEFAULT_MAX_FRAME).unwrap();
        let mut parts = Vec::new();
        append_frame(&mut parts, b"head", b"+body", DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(parts, joined);
        assert!(matches!(
            append_frame(&mut parts, &[0; 40], &[0; 60], 64),
            Err(FrameError::TooLarge { len: 100, max: 64 })
        ));
        assert_eq!(parts, joined, "a rejected frame appends nothing");
    }

    #[test]
    fn roundtrip_of_a_coalesced_burst_whole_and_split_into_single_bytes() {
        let frames: [&[u8]; 4] = [b"one", b"", &[0xCD; 300], b"four"];
        let mut buf = Vec::new();
        for f in frames {
            write_frame(&mut buf, f, DEFAULT_MAX_FRAME).unwrap();
        }
        for split in [false, true] {
            let bytes = Cursor::new(buf.clone());
            let mut r: FrameReader<Box<dyn Read>> = FrameReader::new(
                if split {
                    Box::new(OneByteAtATime(bytes))
                } else {
                    Box::new(bytes)
                },
                DEFAULT_MAX_FRAME,
            );
            for f in frames {
                assert_eq!(r.next_frame().unwrap().unwrap(), f);
            }
            assert!(r.next_frame().unwrap().is_none(), "clean close");
        }
    }

    #[test]
    fn buffered_reader_grows_only_for_a_checked_length_and_shrinks_back() {
        let big = vec![0x5A; 3 * READ_CHUNK];
        let mut buf = Vec::new();
        write_frame(&mut buf, b"small", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, &big, DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"after", DEFAULT_MAX_FRAME).unwrap();
        // A hostile length in the middle of an otherwise buffered burst.
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(b"never read");
        let mut r = FrameReader::new(Cursor::new(buf), 4 * READ_CHUNK);
        assert_eq!(r.next_frame().unwrap().unwrap(), b"small");
        assert_eq!(r.next_frame().unwrap().unwrap(), big);
        assert!(r.buf.len() > READ_CHUNK, "grew for a length under the cap");
        assert_eq!(r.next_frame().unwrap().unwrap(), b"after");
        assert_eq!(r.buf.len(), READ_CHUNK, "an emptied buffer shrinks back");
        match r.next_frame() {
            Err(FrameError::TooLarge { len, .. }) => assert_eq!(len, u64::from(u32::MAX)),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(r.buf.len(), READ_CHUNK, "nothing allocated for it");
    }

    #[test]
    fn buffered_reader_truncation_inside_a_burst_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"whole", DEFAULT_MAX_FRAME).unwrap();
        write_frame(&mut buf, b"cut short", DEFAULT_MAX_FRAME).unwrap();
        for cut in [2, 7] {
            let mut r = FrameReader::new(Cursor::new(&buf[..buf.len() - cut]), DEFAULT_MAX_FRAME);
            assert_eq!(r.next_frame().unwrap().unwrap(), b"whole");
            match r.next_frame() {
                Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut {cut}: expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }

    #[test]
    fn taken_apart_the_reader_never_reads_for_a_frame_it_already_has() {
        /// Counts `read` calls; delivers at most `chunk` bytes per call.
        struct Counting {
            data: Cursor<Vec<u8>>,
            chunk: usize,
            reads: usize,
        }
        impl Read for Counting {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.reads += 1;
                let n = buf.len().min(self.chunk);
                self.data.read(&mut buf[..n])
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first", 64).unwrap();
        write_frame(&mut wire, b"second, cut in two", 64).unwrap();
        let first_read = 9 + 4 + 6; // all of "first", a prefix, six bytes
        let mut r = FrameReader::new(
            Counting {
                data: Cursor::new(wire),
                chunk: first_read,
                reads: 0,
            },
            64,
        );
        // Nothing buffered: "not yet", without touching the stream.
        assert!(r.buffered_frame().unwrap().is_none());
        assert_eq!(r.inner.reads, 0);
        assert_eq!(r.fill_once().unwrap(), first_read);
        assert_eq!(r.buffered_frame().unwrap().unwrap(), b"first");
        // Half of the second frame: "not yet" again, the half is kept.
        assert!(r.buffered_frame().unwrap().is_none());
        assert!(r.buffered_frame().unwrap().is_none());
        assert_eq!(r.inner.reads, 1, "exactly one read per fill_once");
        assert!(r.fill_once().unwrap() > 0);
        assert_eq!(r.buffered_frame().unwrap().unwrap(), b"second, cut in two");
        assert_eq!(r.fill_once().unwrap(), 0, "the end of the stream");
        assert_eq!(r.inner.reads, 3);
    }

    #[test]
    fn one_fill_reads_at_most_a_chunk_however_large_the_frame() {
        let big = vec![0xA5; 5 * READ_CHUNK];
        let mut wire = Vec::new();
        write_frame(&mut wire, &big, DEFAULT_MAX_FRAME).unwrap();
        let mut r = FrameReader::new(Cursor::new(wire), DEFAULT_MAX_FRAME);
        let mut fills = 0;
        while r.buffered_frame().unwrap().is_none() {
            let n = r.fill_once().unwrap();
            assert!((1..=READ_CHUNK).contains(&n), "one read took {n} bytes");
            fills += 1;
        }
        assert!(fills >= 5);
        // An over-cap prefix is refused by either step, and nothing is
        // read for it.
        let mut r = FrameReader::new(Cursor::new(u32::MAX.to_le_bytes().to_vec()), 1024);
        assert_eq!(r.fill_once().unwrap(), 4);
        assert!(matches!(
            r.buffered_frame(),
            Err(FrameError::TooLarge { max: 1024, .. })
        ));
        assert!(matches!(
            r.fill_once(),
            Err(FrameError::TooLarge { max: 1024, .. })
        ));
    }

    #[test]
    fn a_fill_with_no_room_left_says_so_instead_of_reporting_the_end() {
        // READ_CHUNK bytes of whole frames nobody took: the buffer is full.
        let mut wire = Vec::new();
        while wire.len() < READ_CHUNK {
            write_frame(&mut wire, &[7; 60], 64).unwrap();
        }
        assert_eq!(wire.len(), READ_CHUNK, "64-byte frames fill it exactly");
        write_frame(&mut wire, b"behind", 64).unwrap();
        let mut r = FrameReader::new(Cursor::new(wire), 64);
        assert_eq!(r.fill_once().unwrap(), READ_CHUNK);
        match r.fill_once() {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput),
            other => panic!("expected InvalidInput, got {other:?}"),
        }
        // Taking one frame makes room; the rest follows.
        assert_eq!(r.buffered_frame().unwrap().unwrap(), &[7; 60]);
        assert!(r.fill_once().unwrap() > 0);
        let mut taken = 1;
        while let Some(frame) = r.next_frame().unwrap() {
            taken += 1;
            assert!(frame == [7; 60] || frame == b"behind");
        }
        assert_eq!(taken, READ_CHUNK / 64 + 1);
    }

    /// The bit-at-a-time CRC-32 the table-driven one replaced, kept as its
    /// reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_reference() {
        // Random bytes; every length 0..=64 (all chunk remainders) and a
        // spread of lengths up to 4 KiB at shifting alignments.
        let mut rng = proptest::test_runner::TestRng::from_seed(32);
        let data: Vec<u8> = (0..4096 + 64).map(|_| rng.next_u64() as u8).collect();
        let lens = (0..=64).chain((65..=4096).step_by(61)).chain([4095, 4096]);
        for len in lens {
            let input = &data[len % 64..][..len];
            assert_eq!(crc32(input), crc32_bitwise(input), "len {len}");
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE, plus edge cases.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn checked_roundtrip_and_split_reads() {
        let mut buf = Vec::new();
        write_checked_frame(&mut buf, b"wal record", DEFAULT_MAX_FRAME).unwrap();
        write_checked_frame(&mut buf, b"", DEFAULT_MAX_FRAME).unwrap();
        let mut r = OneByteAtATime(Cursor::new(buf));
        assert_eq!(
            read_checked_frame(&mut r, DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap(),
            b"wal record"
        );
        assert_eq!(
            read_checked_frame(&mut r, DEFAULT_MAX_FRAME)
                .unwrap()
                .unwrap(),
            b""
        );
        assert!(read_checked_frame(&mut r, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn checked_frame_detects_payload_corruption() {
        let mut buf = Vec::new();
        write_checked_frame(&mut buf, b"precious bytes", DEFAULT_MAX_FRAME).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_checked_frame(&mut Cursor::new(buf), DEFAULT_MAX_FRAME) {
            Err(FrameError::Corrupt { expected, actual }) => assert_ne!(expected, actual),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn checked_frame_torn_tail_is_unexpected_eof() {
        let mut buf = Vec::new();
        write_checked_frame(&mut buf, b"torn in flight", DEFAULT_MAX_FRAME).unwrap();
        for cut in [buf.len() - 5, 6, 3] {
            let torn = buf[..cut].to_vec();
            match read_checked_frame(&mut Cursor::new(torn), DEFAULT_MAX_FRAME) {
                Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("cut at {cut}: expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }

    #[test]
    fn checked_frame_oversized_length_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_checked_frame(&mut Cursor::new(buf), 1024),
            Err(FrameError::TooLarge { .. })
        ));
    }
}
