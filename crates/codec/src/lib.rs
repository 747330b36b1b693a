//! The shared std-only binary codec behind every durable mlstar file.
//!
//! Model artifacts (`mlstar-serve`), registry snapshots, and training
//! checkpoints (`mlstar-core`) all write the same envelope:
//!
//! ```text
//! magic u32 | codec_version u32 | payload_len u64 | checksum u64 | payload
//! ```
//!
//! All integers are little-endian; the FNV-1a checksum covers the payload
//! only, so a flipped bit anywhere in the body surfaces as
//! [`CodecError::ChecksumMismatch`] rather than silently corrupt state.
//! Each file kind owns its magic number and version; this crate owns the
//! frame, the incremental [`Fnv1a`] hasher, and the safe [`Reader`] /
//! [`Writer`] pair for the payload bytes.
//!
//! The error taxonomy is deliberately fine-grained — distinct variants for
//! bad magic, unsupported version, truncation, and checksum mismatch — so
//! callers can report *why* a file was refused, not merely that it was.

#![warn(missing_docs)]

use std::fmt;

/// Fixed frame prefix: magic + version + payload length + checksum.
pub const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a frame or payload was refused.
#[derive(Debug)]
pub enum CodecError {
    /// The first four bytes are not the expected file magic.
    BadMagic(u32),
    /// The frame was written by an unsupported codec version.
    VersionMismatch {
        /// Version found in the frame header.
        found: u32,
        /// The single version the reader supports.
        supported: u32,
    },
    /// The byte count disagrees with the header's declared length.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload parsed, but its contents are inconsistent.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic(m) => write!(f, "bad file magic {m:#010x}"),
            CodecError::VersionMismatch { found, supported } => {
                write!(
                    f,
                    "codec version {found} unsupported (reader supports {supported})"
                )
            }
            CodecError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated frame: expected {expected} bytes, got {actual}"
                )
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::Corrupt(why) => write!(f, "corrupt payload: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds raw bytes into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// FNV-1a over a byte slice in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Wraps `payload` in a checksummed frame under the given magic/version.
pub fn encode_frame(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies a frame's magic, version, length, and checksum, returning the
/// payload bytes. Trailing junk is a length violation, not ignored.
pub fn decode_frame(bytes: &[u8], magic: u32, supported: u32) -> Result<&[u8], CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    let found_magic = le_u32(&bytes[0..4]);
    if found_magic != magic {
        return Err(CodecError::BadMagic(found_magic));
    }
    let version = le_u32(&bytes[4..8]);
    if version != supported {
        return Err(CodecError::VersionMismatch {
            found: version,
            supported,
        });
    }
    let payload_len = le_u64(&bytes[8..16]) as usize;
    let stored = le_u64(&bytes[16..24]);
    let expected = HEADER_LEN.saturating_add(payload_len);
    if bytes.len() != expected {
        return Err(CodecError::Truncated {
            expected,
            actual: bytes.len(),
        });
    }
    let payload = &bytes[HEADER_LEN..];
    let computed = fnv1a(payload);
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// The declared codec version of a frame, if the header is present.
///
/// Useful for migration paths that must distinguish "older version" from
/// "not one of our files at all" before rejecting.
pub fn peek_version(bytes: &[u8], magic: u32) -> Result<u32, CodecError> {
    if bytes.len() < 8 {
        return Err(CodecError::Truncated {
            expected: HEADER_LEN,
            actual: bytes.len(),
        });
    }
    let found_magic = le_u32(&bytes[0..4]);
    if found_magic != magic {
        return Err(CodecError::BadMagic(found_magic));
    }
    Ok(le_u32(&bytes[4..8]))
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Little-endian payload builder, the write-side twin of [`Reader`].
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty payload with room for `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends every `f64` of `vs` as its exact bit pattern, with no
    /// length prefix.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(8).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends every `u32` of `vs`, with no length prefix.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 4, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(vs) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a string as a `u16` length followed by UTF-8 bytes.
    ///
    /// # Panics
    ///
    /// Panics if the string is longer than `u16::MAX` bytes; every string
    /// written through the codec is a short identifier.
    pub fn put_str16(&mut self, s: &str) {
        assert!(
            s.len() <= u16::MAX as usize,
            "string too long for u16 prefix"
        );
        self.put_u16(s.len() as u16);
        self.put_bytes(s.as_bytes());
    }

    /// Appends raw bytes as a `u64` length followed by the bytes.
    pub fn put_blob64(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put_bytes(bytes);
    }

    /// Appends whatever `write` appends as a `u64` length followed by
    /// those bytes: [`Writer::put_blob64`] for a blob that is produced in
    /// place instead of copied in.
    pub fn put_blob64_with(&mut self, write: impl FnOnce(&mut Writer)) {
        let len_at = self.buf.len();
        self.put_u64(0);
        write(self);
        let len = (self.buf.len() - len_at - 8) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Wraps the payload in a frame under the given magic/version.
    pub fn into_frame(self, magic: u32, version: u32) -> Vec<u8> {
        encode_frame(magic, version, &self.buf)
    }
}

/// Sequential little-endian payload reader that turns overruns into
/// [`CodecError::Corrupt`] (the outer length/checksum checks make these
/// unreachable for well-formed frames, but a crafted payload must not
/// panic).
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CodecError::Corrupt(format!(
                "payload ends inside a {n}-byte field"
            ))),
        }
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// The next `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.bytes(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(le_u32(b))
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(le_u64(b))
    }

    /// The next `f64`, decoded from its exact bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The next `n` `f64`s. The count is checked against the bytes left
    /// before anything is allocated, so a crafted `n` is an error, not an
    /// allocation.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        // A product that overflows saturates to a length `bytes` refuses.
        let raw = self.bytes(n.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(le_u64(c)))
            .collect())
    }

    /// The next `n` `u32`s, bounded like [`Reader::f64s`].
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        let raw = self.bytes(n.saturating_mul(4))?;
        Ok(raw.chunks_exact(4).map(le_u32).collect())
    }

    /// The next `u16`-prefixed UTF-8 string.
    pub fn str16(&mut self) -> Result<String, CodecError> {
        let len = self.u16()? as usize;
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| CodecError::Corrupt("string field is not UTF-8".into()))
    }

    /// The next `u64`-prefixed byte blob.
    pub fn blob64(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u64()?;
        let len = usize::try_from(len)
            .map_err(|_| CodecError::Corrupt(format!("blob length {len} exceeds address space")))?;
        self.bytes(len)
    }

    /// Whether the payload is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when the payload is fully consumed; trailing bytes
    /// are reported as [`CodecError::Corrupt`].
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!(
                "{} trailing payload bytes",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x4D4C_5354; // "MLST", tests only
    const VERSION: u32 = 3;

    fn sample_frame() -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str16("hello");
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-2.5e-300);
        w.put_blob64(&[9, 8, 7]);
        w.into_frame(MAGIC, VERSION)
    }

    #[test]
    fn roundtrip_is_exact() {
        let frame = sample_frame();
        let payload = decode_frame(&frame, MAGIC, VERSION).unwrap();
        let mut r = Reader::new(payload);
        assert_eq!(r.str16().unwrap(), "hello");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap().to_bits(), (-2.5e-300f64).to_bits());
        assert_eq!(r.blob64().unwrap(), &[9, 8, 7]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_at_every_boundary() {
        let frame = sample_frame();
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN, frame.len() - 1] {
            assert!(
                matches!(
                    decode_frame(&frame[..cut], MAGIC, VERSION),
                    Err(CodecError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut long = frame.clone();
        long.push(0);
        assert!(matches!(
            decode_frame(&long, MAGIC, VERSION),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut frame = sample_frame();
        let idx = frame.len() - 2;
        frame[idx] ^= 0x04;
        assert!(matches!(
            decode_frame(&frame, MAGIC, VERSION),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_distinct() {
        let mut frame = sample_frame();
        frame[0] ^= 0xFF;
        assert!(matches!(
            decode_frame(&frame, MAGIC, VERSION),
            Err(CodecError::BadMagic(_))
        ));
        let mut frame = sample_frame();
        frame[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame, MAGIC, VERSION),
            Err(CodecError::VersionMismatch {
                found: 99,
                supported: VERSION
            })
        ));
        assert_eq!(peek_version(&frame, MAGIC).unwrap(), 99);
        frame[0] ^= 0xFF;
        assert!(matches!(
            peek_version(&frame, MAGIC),
            Err(CodecError::BadMagic(_))
        ));
    }

    #[test]
    fn reader_overrun_is_corrupt_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u64(), Err(CodecError::Corrupt(_))));
        // A blob that claims more bytes than exist.
        let mut w = Writer::new();
        w.put_u64(1000);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        assert!(matches!(r.blob64(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u8(2);
        let payload = w.into_payload();
        let mut r = Reader::new(&payload);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn fnv_vector() {
        // Known-answer vectors from Noll's published 64-bit FNV-1a test
        // suite. This is the workspace's single hash implementation
        // (checkpoint digests, frame checksums, dataset fingerprints),
        // so a silent constant or order change here corrupts everything.
        let kat: &[(&[u8], u64)] = &[
            // Empty input hashes to the offset basis.
            (b"", 0xcbf2_9ce4_8422_2325),
            (b"a", 0xaf63_dc4c_8601_ec8c),
            (b"b", 0xaf63_df4c_8601_f1a5),
            (b"foobar", 0x8594_4171_f739_67e8),
            (b"hello", 0xa430_d846_80aa_bd0b),
            (b"chongo was here!\n", 0x4681_0940_eff5_f915),
            // Zero bytes must keep mixing, not fix the state.
            (&[0u8; 8], 0xa8c7_f832_281a_39c5),
        ];
        for (input, expected) in kat {
            assert_eq!(fnv1a(input), *expected, "input {input:?}");
        }
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let oneshot = fnv1a(data);
        // Any chunking of the input must produce the same hash.
        for split in [0, 1, 7, data.len() / 2, data.len()] {
            let mut h = Fnv1a::new();
            h.write(&data[..split]);
            h.write(&data[split..]);
            assert_eq!(h.finish(), oneshot, "split at {split}");
        }
        // `write_u64` is defined as the little-endian byte feed.
        let mut a = Fnv1a::default();
        a.write_u64(42);
        assert_eq!(a.finish(), fnv1a(&42u64.to_le_bytes()));
        assert_eq!(a.finish(), 0xff3a_dd6b_3789_daef);
        // `finish` observes without consuming: further writes continue.
        let mid = a.finish();
        a.write(b"");
        assert_eq!(a.finish(), mid);
        a.write(b"x");
        assert_ne!(a.finish(), mid);
    }

    #[test]
    fn empty_payload_frames() {
        let frame = encode_frame(MAGIC, VERSION, &[]);
        assert_eq!(frame.len(), HEADER_LEN);
        let payload = decode_frame(&frame, MAGIC, VERSION).unwrap();
        assert!(payload.is_empty());
        assert!(Writer::new().is_empty());
        assert_eq!(Writer::with_capacity(8).len(), 0);
    }
}
