//! CRC-32 (IEEE 802.3 polynomial, reflected), the checksum of every
//! durable artifact: checkpoint parts, compressed frames, manifests and
//! command-log records. Its output is a format contract — files written by
//! one build must validate under every later one.
//!
//! A crash in the middle of the capture phase leaves a checkpoint file
//! without a valid footer; recovery (§3) must detect and discard it, and
//! restart CRCs every part of the chain it loads once, as it installs
//! it, plus the whole log tail, so the kernel is slicing-by-8: eight
//! `const`-built tables fold eight input bytes per step, the bytewise loop
//! only handles the tail shorter than that. Same polynomial, init and final xor as the
//! one-table form, bit-identical output, dependency-free.

/// Streaming CRC-32 hasher.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the hash. Cost per byte falls with the length of
    /// the run, so callers hand over whole buffers where they can.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ s;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            s = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Finishes and returns the checksum.
    #[inline]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vectors for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// The one-table form the format was defined with; kept here only, as
    /// the reference the kernel must match bit for bit.
    fn bytewise(data: &[u8]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &b in data {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        !s
    }

    #[test]
    fn slicing_matches_bytewise_at_every_length_and_split() {
        let mut rng = crate::rng::SplitMix::new(0xC4C3_2BAD_5EED);
        for len in 0..=70usize {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let expected = bytewise(&data);
            assert_eq!(crc32(&data), expected, "len {len}");
            for split in 0..=len {
                let mut h = Crc32::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finish(), expected, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"hello checkpoint world";
        let mut h = Crc32::new();
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xABu8; 1024];
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }
}
