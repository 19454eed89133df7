//! HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors.

use crate::sha256::{compress, digest_of, sha256, Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// The key padded to one block and xored into the inner and outer pads.
fn pads(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    (key_block.map(|b| b ^ 0x36), key_block.map(|b| b ^ 0x5c))
}

/// Computes `HMAC-SHA256(key, message)` in one shot, straight from RFC 2104.
/// For many messages under one key use [`HmacKey`], which hashes the pads
/// once; this form is the public primitive and the oracle it is tested
/// against.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let (ipad, opad) = pads(key);
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// An HMAC-SHA-256 key with both pads already hashed: the SHA-256 chaining
/// values after the ipad block and after the opad block. [`HmacKey::mac`]
/// then costs `⌈(len + 9) / 64⌉ + 1` compressions and yields exactly
/// `hmac_sha256(key, message)`.
#[derive(Clone, Debug)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Hashes `key`'s pads (two compressions, three for a key over a block).
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pads(key);
        let after = |pad: &[u8; BLOCK_LEN]| {
            let mut h = Sha256::new();
            h.update(pad);
            h.into_state()
        };
        HmacKey {
            inner: after(&ipad),
            outer: after(&opad),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = Sha256::resume(self.inner, 1);
        inner.update(message);
        // The outer hash is always opad block + 32-byte digest, so its
        // second and last block has one fixed layout: digest, 0x80, zeros,
        // bit length of 64 + 32 bytes.
        let mut block = [0u8; BLOCK_LEN];
        block[..DIGEST_LEN].copy_from_slice(&inner.finalize());
        block[DIGEST_LEN] = 0x80;
        block[56..].copy_from_slice(&(8 * (BLOCK_LEN + DIGEST_LEN) as u64).to_be_bytes());
        let mut state = self.outer;
        compress(&mut state, &block);
        digest_of(&state)
    }
}

/// Constant-time digest comparison (always inspects all bytes).
pub fn verify_mac(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let mac = hmac_sha256(&key, &[0xcd; 50]);
        assert_eq!(
            hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn keyed_state_matches_the_rfc_vectors_too() {
        // Cases 1 and 7: a short key, and a hashed key with multi-block data.
        assert_eq!(
            hex(&HmacKey::new(&[0x0b; 20]).mac(b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        let data = [0x5a; 152];
        assert_eq!(
            HmacKey::new(&[0xaa; 131]).mac(&data),
            hmac_sha256(&[0xaa; 131], &data)
        );
    }

    #[test]
    fn verify_detects_tampering() {
        let mac = hmac_sha256(b"k", b"m");
        let mut bad = mac;
        bad[0] ^= 1;
        assert!(verify_mac(&mac, &mac.clone()));
        assert!(!verify_mac(&mac, &bad));
    }
}
