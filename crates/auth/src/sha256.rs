//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! No cryptography crates are available in this offline reproduction, so the
//! hash is built from scratch and validated against the FIPS/NIST test
//! vectors below. It is used for request digests and HMAC authenticators in
//! the replicated PEATS — adequate for a research reproduction, not audited
//! for production use.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::resume(H0, 0)
    }

    /// A hasher that has already absorbed `blocks` whole 64-byte blocks and
    /// reached chaining value `state` (how a keyed HMAC state resumes).
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            buffer: [0; 64],
            buffered: 0,
            total_len: blocks * 64,
        }
    }

    /// The chaining value after a whole number of absorbed blocks.
    pub(crate) fn into_state(self) -> [u32; 8] {
        debug_assert_eq!(self.buffered, 0, "chaining value taken mid-block");
        self.state
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        // Whole blocks are compressed where they lie, not copied first.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let tail = blocks.remainder();
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit length
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; 64];
        }
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        digest_of(&self.state)
    }
}

/// Serializes a chaining value as the big-endian digest.
pub(crate) fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 compression function: folds one 64-byte block into `state`.
pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(test)]
    tests::COMPRESSIONS.with(|c| c.set(c.get() + 1));
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// One-shot convenience: `sha256(data)`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Compressions run on this thread (tests pin exact per-MAC costs).
        pub(crate) static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Compressions `f` runs on the calling thread.
    pub(crate) fn compressions_in(f: impl FnOnce()) -> u64 {
        let before = COMPRESSIONS.with(Cell::get);
        f();
        COMPRESSIONS.with(Cell::get) - before
    }

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_448_bits() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bits_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
                  ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        // 200 bytes: splits land before, on and after block boundaries, so
        // the buffered, in-place and tail branches of `update` all run.
        let data: Vec<u8> = (0..200u8).collect();
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn compressions_follow_the_padding_rule() {
        // ⌈(len + 9) / 64⌉: one more block once 0x80 + length no longer fit.
        for (len, blocks) in [(0, 1), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            let data = vec![7u8; len];
            let ran = compressions_in(|| {
                sha256(&data);
            });
            assert_eq!(ran, blocks, "len {len}");
        }
    }
}
