//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the single hash primitive used across PDS²: transaction and block
//! hashing, Merkle trees, content addressing, enclave measurement, HMAC.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; DIGEST_LEN]);

/// Byte-lexicographic order, compared as four big-endian `u64` words:
/// the same order the bytes give, without a `memcmp` call per compare.
/// Every ordered map keyed by a digest (accounts, ledgers, the dirty
/// set, the mempool's index) and every digest sort runs through this.
impl Ord for Digest {
    #[inline]
    fn cmp(&self, other: &Digest) -> std::cmp::Ordering {
        let (a, b) = (self.words(), other.words());
        for i in 0..3 {
            if a[i] != b[i] {
                return a[i].cmp(&b[i]);
            }
        }
        a[3].cmp(&b[3])
    }
}

impl PartialOrd for Digest {
    #[inline]
    fn partial_cmp(&self, other: &Digest) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Digest {
    /// The all-zero digest (used as a sentinel, e.g. genesis parent).
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Raw byte view.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Hex rendering (64 lowercase chars).
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }

    /// Short hex prefix for display (the first four bytes).
    pub fn short(&self) -> String {
        hex(&self.0[..4])
    }

    /// Folds the digest to a 64-bit fingerprint (first 8 bytes,
    /// little-endian). Used where a full 32-byte digest is overkill —
    /// e.g. per-message integrity tags in the network simulator trace.
    pub fn fold_u64(&self) -> u64 {
        let [a, b, c, d, e, f, g, h, ..] = self.0;
        u64::from_le_bytes([a, b, c, d, e, f, g, h])
    }

    /// The digest as four big-endian words, most significant first.
    #[inline]
    fn words(&self) -> [u64; 4] {
        std::array::from_fn(|i| u64::from_be_bytes(bytes_at(&self.0, 8 * i)))
    }

    /// Parses 64 hex chars.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = (hi * 16 + lo) as u8;
        }
        Some(Digest(out))
    }
}

/// The `N` bytes of `bytes` from `at` on, as an array.
#[inline]
fn bytes_at<const N: usize>(bytes: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[at..at + N]);
    out
}

/// Lowercase hex through a nibble table. `Address: Display` renders a
/// digest into every `native.transfer` event, so this is per-transaction
/// work and must not go through `format!`.
fn hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(NIBBLES[usize::from(b >> 4)] as char);
        s.push(NIBBLES[usize::from(b & 0x0f)] as char);
    }
    s
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}..)", self.short())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

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

/// Longest message the one-shot path takes: with the `0x80` marker and
/// the 8-byte length it still fits two 64-byte blocks.
const SHORT_MAX: usize = 2 * 64 - 9;

/// The FIPS 180-4 compression function over a run of whole 64-byte
/// blocks, in portable scalar code. This is the only path on CPUs
/// without SHA extensions and the reference the kernel tests compare
/// against. Not a tuning choice: production code goes through
/// [`Sha256`], which picks the kernel itself.
///
/// # Panics
/// If `blocks.len()` is not a multiple of 64.
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, wi) in w.iter_mut().take(16).enumerate() {
            *wi = u32::from_be_bytes(bytes_at(block, 4 * i));
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression kernel on the CPU's SHA extensions (`sha`, `ssse3`,
/// `sse4.1`): the one place in the workspace that uses `unsafe`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ext {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every extension [`compress`] needs (std
    /// caches the probe, so this is three loads of one static).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Runs the kernel over `blocks` if the CPU has it; `false` means
    /// nothing was done and the caller must take the portable loop.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !available() {
            return false;
        }
        // SAFETY: `available()` just reported `sha`, `ssse3` and
        // `sse4.1` on the running CPU, which is all `compress` requires.
        unsafe { compress(state, blocks) };
        true
    }

    /// Round constants `K[4 * i..4 * i + 4]` as one vector.
    #[inline(always)]
    fn k4(i: usize) -> [i32; 4] {
        [
            K[4 * i] as i32,
            K[4 * i + 1] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 3] as i32,
        ]
    }

    /// # Safety
    /// The running CPU must support `sha`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Four rounds: `w` holds schedule words 4i..4i+4.
        macro_rules! rounds4 {
            ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
                let [k0, k1, k2, k3] = k4($i);
                let wk = _mm_add_epi32($w, _mm_set_epi32(k3, k2, k1, k0));
                $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
                $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next four schedule words from the previous sixteen, then
        // their four rounds.
        macro_rules! schedule_rounds4 {
            ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
                let t = _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
                $w0 = _mm_sha256msg2_epu32(t, $w3);
                rounds4!($abef, $cdgh, $w0, $i);
            }};
        }

        // SAFETY: every intrinsic below needs only the target features
        // this function enables (the caller's obligation). The two
        // state loads/stores cover `state[0..4]` and `state[4..8]` of an
        // exclusive 8-word borrow; the four block loads cover bytes
        // 0..64 of a chunk `chunks_exact(64)` handed out. All are the
        // unaligned forms.
        unsafe {
            // Big-endian words from little-endian lanes.
            let be = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let sp = state.as_mut_ptr().cast::<__m128i>();
            let dcba = _mm_loadu_si128(sp);
            let hgfe = _mm_loadu_si128(sp.add(1));
            // The round instruction wants (a,b,e,f) and (c,d,g,h).
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

            for block in blocks.chunks_exact(64) {
                let bp = block.as_ptr().cast::<__m128i>();
                let (abef_in, cdgh_in) = (abef, cdgh);

                let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(bp), be);
                let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(1)), be);
                let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(2)), be);
                let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(bp.add(3)), be);
                rounds4!(abef, cdgh, w0, 0);
                rounds4!(abef, cdgh, w1, 1);
                rounds4!(abef, cdgh, w2, 2);
                rounds4!(abef, cdgh, w3, 3);
                schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
                schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
                schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
                schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
                schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
                schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
                schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
                schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
                schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
                schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
                schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
                schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);

                abef = _mm_add_epi32(abef, abef_in);
                cdgh = _mm_add_epi32(cdgh, cdgh_in);
            }

            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            _mm_storeu_si128(sp, _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(sp.add(1), _mm_alignr_epi8(dchg, feba, 8));
        }
    }
}

/// Which compression kernel this process runs (`"sha-ext"` or
/// `"portable"`), for bench fingerprints and test output. Decided by the
/// CPU, not by the caller.
#[doc(hidden)]
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if sha_ext::available() {
        return "sha-ext";
    }
    "portable"
}

/// Compresses a run of whole blocks with the fastest kernel the CPU has.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if sha_ext::try_compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// One compression of exactly one 64-byte `block` from the chaining
/// value `iv`, with no padding and no length: the dispatched kernel's
/// output as a digest. Not SHA-256 of anything; a caller that hashes
/// fixed 64-byte inputs from its own tag-derived IV (the state tree's
/// leaves and nodes) gets one compression per hash instead of two.
#[doc(hidden)]
#[inline]
pub fn compress_block(iv: &[u32; 8], block: &[u8; 64]) -> Digest {
    let mut state = *iv;
    compress(&mut state, block);
    digest_of(&state)
}

fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    Digest(out)
}

/// `sha256(a ‖ b)` for `a.len() + b.len() <= SHORT_MAX`: message and
/// padding are laid out in two stack blocks and compressed in one call,
/// without the streaming hasher's buffer bookkeeping.
fn sha256_short(a: &[u8], b: &[u8]) -> Digest {
    let len = a.len() + b.len();
    debug_assert!(len <= SHORT_MAX);
    let mut blocks = [0u8; 128];
    blocks[..a.len()].copy_from_slice(a);
    blocks[a.len()..len].copy_from_slice(b);
    blocks[len] = 0x80;
    let end = if len < 56 { 64 } else { 128 };
    blocks[end - 8..end].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress(&mut state, &blocks[..end]);
    digest_of(&state)
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hash state.
    pub fn update(&mut self, mut data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return self;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks go to the kernel straight from the caller's slice.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
        self
    }

    /// Finishes and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        digest_of(&self.state)
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    sha256_pair(data, &[])
}

/// SHA-256 over the concatenation of two slices (no intermediate allocation).
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    if a.len() + b.len() <= SHORT_MAX {
        return sha256_short(a, b);
    }
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full SHA-256 on the portable compression only: the reference
    /// side of every differential check below.
    fn portable(data: &[u8]) -> Digest {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_portable(&mut state, &msg);
        digest_of(&state)
    }

    fn streaming(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Checks the dispatched one-shot, the dispatched streaming hasher
    /// and the portable reference each against the written-out answer.
    fn assert_all_paths(data: &[u8], expected_hex: &str) {
        assert_eq!(sha256(data).to_hex(), expected_hex, "one-shot");
        assert_eq!(streaming(data).to_hex(), expected_hex, "streaming");
        assert_eq!(portable(data).to_hex(), expected_hex, "portable");
    }

    #[test]
    fn reports_backend() {
        // With `--nocapture` this says which side the differential
        // checks compared: on "portable" both sides ran the same loop.
        println!("sha256 backend: {}", backend());
        assert!(["sha-ext", "portable"].contains(&backend()));
    }

    // FIPS 180-4 / NIST CAVS known-answer vectors.
    #[test]
    fn empty_string() {
        assert_all_paths(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_all_paths(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_all_paths(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_all_paths(
            &data,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let oneshot = sha256(&data);
        assert_eq!(oneshot, portable(&data));
        for chunk in [1usize, 3, 7, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Messages near the 55/56/64-byte padding boundaries and the
        // 119/120 edge of the one-shot path (answers from an
        // independent implementation).
        for (len, expected_hex) in [
            (
                54usize,
                "afc684c52da5a6f4cc3c6f6e2f1063a04e6f3ab63299f9c59ade1b3a163c5810",
            ),
            (
                55,
                "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d",
            ),
            (
                56,
                "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55",
            ),
            (
                57,
                "21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5",
            ),
            (
                63,
                "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b",
            ),
            (
                64,
                "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61",
            ),
            (
                65,
                "39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b",
            ),
            (
                119,
                "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7",
            ),
            (
                120,
                "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922",
            ),
            (
                128,
                "80125c62d518fac6f8b487e1f784c1f12a6acc5d607d554f2e3cccf5342dd29a",
            ),
        ] {
            let data = vec![0xabu8; len];
            assert_all_paths(&data, expected_hex);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize().to_hex(), expected_hex, "split, len {len}");
        }
    }

    #[test]
    fn short_path_matches_streaming_at_every_length() {
        // 0..=119 take the one-shot path, 120 is the first length that
        // leaves it; every split of the pair form lands on the same
        // digest.
        let data: Vec<u8> = (0..=SHORT_MAX as u8 + 1)
            .map(|i| i.wrapping_mul(37))
            .collect();
        assert_eq!(data.len(), SHORT_MAX + 2);
        for len in 0..=SHORT_MAX + 1 {
            let msg = &data[..len];
            let expected = streaming(msg);
            assert_eq!(sha256(msg), expected, "len {len}");
            assert_eq!(portable(msg), expected, "portable, len {len}");
            for split in [0, 1, len / 2, len] {
                let (a, b) = msg.split_at(split.min(len));
                assert_eq!(sha256_pair(a, b), expected, "len {len} split {split}");
            }
        }
    }

    /// `compress_block` from the standard IV over the all-zero and the
    /// all-`0xff` block: both kernels against values from an independent
    /// implementation (the first is the depth-1 empty root of Zcash's
    /// Sprout tree, whose node hash is this compression).
    #[test]
    fn compress_block_known_answers() {
        for (block, expected_hex) in [
            (
                [0u8; 64],
                "da5698be17b9b46962335799779fbeca8ce5d491c0d26243bafef9ea1837a9d8",
            ),
            (
                [0xffu8; 64],
                "ef0c748df4da50a8d6c43c013edc3ce76c9d9fa9a1458ade56eb86c0a64492d2",
            ),
        ] {
            assert_eq!(compress_block(&H0, &block).to_hex(), expected_hex);
            let mut state = H0;
            compress_portable(&mut state, &block);
            assert_eq!(digest_of(&state).to_hex(), expected_hex, "portable");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"g".repeat(64)).is_none());
    }

    #[test]
    fn hex_is_lowercase_and_short_is_its_prefix() {
        let d = Digest(std::array::from_fn(|i| (i as u8).wrapping_mul(0x1f) ^ 0xa5));
        let by_format: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(d.to_hex(), by_format);
        assert_eq!(d.short(), by_format[..8]);
        assert_eq!(format!("{d}"), by_format);
        assert_eq!(format!("{d:?}"), format!("Digest({}..)", &by_format[..8]));
    }

    #[test]
    fn pair_equals_concat() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
    }

    mod order {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Ordering;

        proptest! {
            /// The word order is the byte order: on random pairs, on equal
            /// pairs, and on pairs that first differ at each of the 32
            /// bytes (so share a prefix of every length 0..=31).
            #[test]
            fn digest_order_is_the_byte_order(
                a in any::<[u8; 32]>(),
                b in any::<[u8; 32]>(),
                flip in 1u8..=255,
            ) {
                let (x, y) = (Digest(a), Digest(b));
                prop_assert_eq!(x.cmp(&y), x.as_bytes().cmp(y.as_bytes()));
                prop_assert_eq!(x.partial_cmp(&y), Some(x.cmp(&y)));
                prop_assert_eq!(x.cmp(&Digest(a)), Ordering::Equal);
                for shared in 0..DIGEST_LEN {
                    let mut c = b;
                    c[..shared].copy_from_slice(&a[..shared]);
                    c[shared] = a[shared] ^ flip;
                    let z = Digest(c);
                    prop_assert_eq!(x.cmp(&z), a.cmp(&c), "shared prefix {}", shared);
                    prop_assert_eq!(z.cmp(&x), c.cmp(&a), "shared prefix {}", shared);
                    prop_assert!(x.cmp(&z) != Ordering::Equal);
                }
            }
        }
    }
}
