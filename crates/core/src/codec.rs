//! Block codecs for compressed checkpoint parts.
//!
//! Checkpoint files spend most of their bytes on record values, and
//! main-memory workloads (including this repo's benchmarks and the
//! paper's microbenchmark) carry highly repetitive payloads — padding,
//! zeroed fields, counters. "A Comparative Study of Consistent Snapshot
//! Algorithms for Main-Memory Database Systems" measures snapshot size as
//! a first-order cost axis, so the capture pipeline compresses the record
//! stream in framed blocks (see [`crate::file`] for the framing).
//!
//! The registry is offline, so the codec is in-tree: a byte-run-length
//! scheme ([`Codec::Rle`]) chosen for wholly deterministic output,
//! bounded worst-case expansion, and O(n) encode/decode. The enum leaves
//! room for heavier codecs later; `none` keeps the legacy uncompressed
//! format byte-identical.
//!
//! ## RLE wire format
//!
//! A compressed block is a sequence of ops, each a 3-byte head:
//!
//! ```text
//! literal: 0x00 | len:u16le | len raw bytes        (1 <= len <= 65535)
//! run:     0x01 | len:u16le | byte                 (4 <= len <= 65535)
//! ```
//!
//! Runs shorter than `MIN_RUN` fold into the surrounding literal (a
//! 3-byte run op must at least pay for its own head). Worst case
//! (incompressible input) the output is `ceil(n / 65535) * 3 + n` bytes —
//! under 0.005% overhead. Decoding validates op tags, head completeness,
//! and that the output length matches the caller's expected raw length,
//! so a torn or bit-flipped block fails closed as `InvalidData` rather
//! than decoding to garbage.

use std::io;

/// Minimum run length worth a run op: below this a run costs more than
/// the literal bytes it replaces.
const MIN_RUN: usize = 4;
/// Maximum op payload length (u16 length field).
const MAX_OP: usize = u16::MAX as usize;

const OP_LITERAL: u8 = 0x00;
const OP_RUN: u8 = 0x01;

/// A checkpoint block codec. The `codec` byte in file headers and
/// manifests is [`Codec::to_byte`]; `none` is the legacy uncompressed
/// format.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Codec {
    /// No compression — the legacy byte-identical record stream.
    #[default]
    None,
    /// In-tree byte run-length encoding (see module docs).
    Rle,
}

impl Codec {
    /// All codecs, for sweeps and tests.
    pub const ALL: [Codec; 2] = [Codec::None, Codec::Rle];

    /// The codec's wire byte (file header / manifest field).
    pub fn to_byte(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Rle => 1,
        }
    }

    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> io::Result<Self> {
        match b {
            0 => Ok(Codec::None),
            1 => Ok(Codec::Rle),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown codec byte {b}"),
            )),
        }
    }

    /// The codec's configuration name (`CKPT_CODEC` values).
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Rle => "rle",
        }
    }

    /// Parses a configuration name (case-insensitive).
    pub fn parse(s: &str) -> io::Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(Codec::None),
            "rle" => Ok(Codec::Rle),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown codec {other:?} (expected none|rle)"),
            )),
        }
    }

    /// The codec requested by the `CKPT_CODEC` environment variable
    /// (`None` codec if unset or empty). An unknown value is an error —
    /// silently running uncompressed when the operator asked for
    /// compression would defeat the knob.
    pub fn from_env() -> io::Result<Self> {
        match std::env::var("CKPT_CODEC") {
            Ok(s) if !s.is_empty() => Self::parse(&s),
            _ => Ok(Codec::None),
        }
    }

    /// Compresses `raw`. For [`Codec::None`] this is a plain copy (the
    /// framing layer short-circuits before calling it).
    pub fn compress(self, raw: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => raw.to_vec(),
            Codec::Rle => rle_compress(raw),
        }
    }

    /// Decompresses `comp`, validating that exactly `raw_len` bytes come
    /// out. Fails closed (`InvalidData`) on any malformed input.
    pub fn decompress(self, comp: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
        let out = match self {
            Codec::None => {
                if comp.len() != raw_len {
                    return Err(bad("length mismatch in uncompressed block"));
                }
                comp.to_vec()
            }
            Codec::Rle => rle_decompress(comp, raw_len)?,
        };
        if out.len() != raw_len {
            return Err(bad("decompressed block length mismatch"));
        }
        Ok(out)
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Length of the run of identical bytes starting at `from` (capped at
/// `MAX_OP`).
fn run_len(raw: &[u8], from: usize) -> usize {
    let b = raw[from];
    let mut i = from + 1;
    let cap = raw.len().min(from + MAX_OP);
    while i < cap && raw[i] == b {
        i += 1;
    }
    i - from
}

fn push_literal(out: &mut Vec<u8>, lit: &[u8]) {
    for chunk in lit.chunks(MAX_OP) {
        out.push(OP_LITERAL);
        out.extend_from_slice(&(chunk.len() as u16).to_le_bytes());
        out.extend_from_slice(chunk);
    }
}

fn rle_compress(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() / 4 + 16);
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < raw.len() {
        let run = run_len(raw, i);
        if run >= MIN_RUN {
            push_literal(&mut out, &raw[lit_start..i]);
            out.push(OP_RUN);
            out.extend_from_slice(&(run as u16).to_le_bytes());
            out.push(raw[i]);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    push_literal(&mut out, &raw[lit_start..]);
    out
}

fn rle_decompress(comp: &[u8], raw_len: usize) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0usize;
    while i < comp.len() {
        if i + 3 > comp.len() {
            return Err(bad("truncated RLE op head"));
        }
        let op = comp[i];
        let len = u16::from_le_bytes([comp[i + 1], comp[i + 2]]) as usize;
        i += 3;
        match op {
            OP_LITERAL => {
                if len == 0 || i + len > comp.len() {
                    return Err(bad("bad RLE literal length"));
                }
                out.extend_from_slice(&comp[i..i + len]);
                i += len;
            }
            OP_RUN => {
                if len == 0 || i >= comp.len() {
                    return Err(bad("bad RLE run length"));
                }
                let b = comp[i];
                i += 1;
                out.resize(out.len() + len, b);
            }
            other => return Err(bad(&format!("bad RLE op tag {other}"))),
        }
        if out.len() > raw_len {
            return Err(bad("RLE output exceeds declared raw length"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calc_common::rng::SplitMix;

    fn roundtrip(codec: Codec, raw: &[u8]) {
        let comp = codec.compress(raw);
        let back = codec.decompress(&comp, raw.len()).unwrap();
        assert_eq!(back, raw, "codec {codec} failed on {} bytes", raw.len());
    }

    #[test]
    fn parse_and_bytes_roundtrip() {
        for c in Codec::ALL {
            assert_eq!(Codec::parse(c.name()).unwrap(), c);
            assert_eq!(Codec::from_byte(c.to_byte()).unwrap(), c);
        }
        assert!(Codec::parse("lz9000").is_err());
        assert!(Codec::from_byte(200).is_err());
    }

    #[test]
    fn rle_edges_roundtrip() {
        for raw in [
            &b""[..],
            &b"x"[..],
            &b"abcdef"[..],
            &[0u8; 5][..],
            &[7u8; 100_000][..],
            &b"aaabbbbccccc"[..],
        ] {
            roundtrip(Codec::Rle, raw);
            roundtrip(Codec::None, raw);
        }
        // Run exactly at / below the fold threshold.
        roundtrip(Codec::Rle, b"xaaax");
        roundtrip(Codec::Rle, b"xaaaax");
        // Run longer than one op's length field.
        roundtrip(Codec::Rle, &vec![3u8; MAX_OP * 2 + 17]);
        // Literal longer than one op.
        let lit: Vec<u8> = (0..MAX_OP * 2 + 5).map(|i| (i % 251) as u8).collect();
        roundtrip(Codec::Rle, &lit);
    }

    #[test]
    fn rle_compresses_zero_heavy_input() {
        let raw = vec![0u8; 64 * 1024];
        let comp = Codec::Rle.compress(&raw);
        assert!(
            comp.len() * 100 < raw.len(),
            "64KiB of zeros compressed to {} bytes",
            comp.len()
        );
    }

    #[test]
    fn rle_randomized_roundtrip() {
        // Mixed-entropy inputs: random bytes drawn from a narrow alphabet
        // produce both runs and literals.
        for case in 0..64u64 {
            let mut rng = SplitMix::new(0xc0de_c0de_0000_0000 ^ case);
            let len = (rng.next_u64() % 4096) as usize;
            let alphabet = 1 + (rng.next_u64() % 7) as u8;
            let raw: Vec<u8> = (0..len).map(|_| (rng.next_u64() as u8) % alphabet).collect();
            let comp = Codec::Rle.compress(&raw);
            let back = Codec::Rle.decompress(&comp, raw.len()).unwrap_or_else(|e| {
                panic!("case {case}: decode failed: {e}");
            });
            assert_eq!(back, raw, "case {case} diverged");
        }
    }

    #[test]
    fn decompress_rejects_malformed_input() {
        // Truncated head.
        assert!(Codec::Rle.decompress(&[OP_LITERAL, 5], 5).is_err());
        // Literal overruns the buffer.
        assert!(Codec::Rle.decompress(&[OP_LITERAL, 9, 0, 1, 2], 9).is_err());
        // Unknown op tag.
        assert!(Codec::Rle.decompress(&[0x77, 1, 0, 9], 1).is_err());
        // Output longer than declared.
        let comp = Codec::Rle.compress(&[5u8; 100]);
        assert!(Codec::Rle.decompress(&comp, 10).is_err());
        // Output shorter than declared.
        assert!(Codec::Rle.decompress(&comp, 1000).is_err());
        // None codec length mismatch.
        assert!(Codec::None.decompress(b"abc", 4).is_err());
    }
}
