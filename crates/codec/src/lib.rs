//! The shared std-only binary codec behind every durable mlstar file.
//!
//! Model artifacts (`mlstar-serve`), registry snapshots, and training
//! checkpoints (`mlstar-core`) all write the same envelope:
//!
//! ```text
//! magic u32 | codec_version u32 | payload_len u64 | checksum u64 | payload
//! ```
//!
//! All integers are little-endian; the checksum is the [`xxh64`] of the
//! payload only, so a flipped bit anywhere in the body surfaces as
//! [`CodecError::ChecksumMismatch`] rather than silently corrupt state.
//! Each file kind owns its magic number and version (a change to the
//! checksum is a version bump for every kind); this crate owns the frame,
//! the [`Fnv1a`] content hasher behind dataset fingerprints and config
//! digests, the safe [`Reader`] / [`Writer`] pair, and [`schema!`], which
//! derives both halves of every payload codec from one field list.
//!
//! The error taxonomy is deliberately fine-grained — distinct variants for
//! bad magic, unsupported version, truncation, and checksum mismatch — so
//! callers can report *why* a file was refused, not merely that it was.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]

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

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// XXH64 with seed 0, the frame checksum: four independent 8-byte lanes
/// over each 32-byte stripe, so it runs at memory speed where FNV-1a's
/// one dependent multiply per byte does not. Words are read
/// little-endian, so the value is the same on every host.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| {
            (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_P1)
                .wrapping_add(XXH_P4)
        })
    } else {
        XXH_P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    let mut tail = words.remainder();
    if tail.len() >= 4 {
        h = (h ^ u64::from(le_u32(tail)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = &tail[4..];
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_P2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_P3);
    h ^ (h >> 32)
}

/// Wraps `payload` in a checksummed frame under the given magic/version.
pub fn encode_frame(magic: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&frame_header(magic, version, payload));
    out.extend_from_slice(payload);
    out
}

/// The envelope in front of `payload`: magic, version, payload length and
/// the payload's XXH64.
fn frame_header(magic: u32, version: u32, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0; HEADER_LEN];
    header[0..4].copy_from_slice(&magic.to_le_bytes());
    header[4..8].copy_from_slice(&version.to_le_bytes());
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&xxh64(payload).to_le_bytes());
    header
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
    let computed = xxh64(payload);
    if computed != stored {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Little-endian payload builder, the write-side twin of [`Reader`].
///
/// A writer made by [`Writer::for_frame`] holds the frame's 24 header
/// bytes in front of the payload from the start, and
/// [`Writer::into_frame`] fills them in place: the payload is never
/// copied once written. [`Writer::new`] makes a payload-only writer,
/// whose [`Writer::into_payload`] is its buffer as written.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Where the payload starts in `buf`: [`HEADER_LEN`] for a frame
    /// writer, 0 for a payload-only writer.
    start: usize,
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
            start: 0,
        }
    }

    /// An empty payload with its frame header reserved in front, for
    /// [`Writer::into_frame`].
    pub fn for_frame() -> Self {
        Writer::for_frame_with_capacity(0)
    }

    /// [`Writer::for_frame`] with room for a `cap`-byte payload.
    pub fn for_frame_with_capacity(cap: usize) -> Self {
        Writer::for_frame_in(Vec::new(), cap)
    }

    /// [`Writer::for_frame_with_capacity`] in `buf`'s allocation: what
    /// `buf` held is dropped, and it grows, to exactly the frame, only if
    /// it has less room than a `cap`-byte payload needs. A sender that
    /// hands each frame's buffer back here allocates once per session.
    pub fn for_frame_in(mut buf: Vec<u8>, cap: usize) -> Self {
        buf.clear();
        buf.reserve_exact(HEADER_LEN + cap);
        buf.resize(HEADER_LEN, 0);
        Writer {
            buf,
            start: HEADER_LEN,
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
    /// length prefix. The bytes are appended as they are made, with no
    /// zero-fill of the space first.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
    }

    /// Appends every `u32` of `vs`, with no length prefix, like
    /// [`Writer::put_f64s`].
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.buf.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
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

    /// Payload bytes written so far (a reserved frame header is not
    /// counted).
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether no payload byte has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The finished payload bytes.
    ///
    /// # Panics
    ///
    /// Panics on a writer from [`Writer::for_frame`]: its payload is
    /// finished by [`Writer::into_frame`].
    pub fn into_payload(self) -> Vec<u8> {
        assert_eq!(self.start, 0, "into_payload on a frame writer");
        self.buf
    }

    /// Wraps the payload in a frame under the given magic/version, by
    /// writing the header into the bytes reserved in front of it.
    ///
    /// # Panics
    ///
    /// Panics on a writer that is not from [`Writer::for_frame`]: a
    /// payload-only writer has no header room (frame its payload with
    /// [`encode_frame`]).
    pub fn into_frame(mut self, magic: u32, version: u32) -> Vec<u8> {
        assert_eq!(self.start, HEADER_LEN, "into_frame on a payload writer");
        let (header, payload) = self.buf.split_at_mut(HEADER_LEN);
        header.copy_from_slice(&frame_header(magic, version, payload));
        self.buf
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
        // Whole-array chunks carry no per-element bounds check, so the
        // loop vectorises.
        Ok(raw
            .as_chunks()
            .0
            .iter()
            .map(|&c| f64::from_le_bytes(c))
            .collect())
    }

    /// The next `n` `u32`s, bounded and decoded like [`Reader::f64s`].
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        let raw = self.bytes(n.saturating_mul(4))?;
        Ok(raw
            .as_chunks()
            .0
            .iter()
            .map(|&c| u32::from_le_bytes(c))
            .collect())
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

/// Declares a payload layout once, as a field list, and generates from it
/// a module of free functions — writer `put(w, &value, cx)`, reader
/// `get(r)`, `len(&value, cx)`, the exact number of bytes `put` appends
/// (so a frame can be reserved at its size before it is written) — and
/// `MIN_LEN`, the fewest bytes a value encodes to. All three walk the one
/// list and destructure or rebuild the type exhaustively, so a writer and
/// reader that disagree on a field cannot be written.
///
/// Forms: `record name: Type { field: kind, .. }` (fields in wire order);
/// `tagged name: Type { tag => Variant, tag => Variant(bind: kind, ..),
/// tag => Variant { field: kind, .. } [kind, ..], .. }` (a `u8` tag, then
/// the variant's fields, then reserved slots written as their default and
/// skipped when read; an unknown tag is corrupt); `map name: Type { kind,
/// to, from }` (a conversion, `from` returning `Result<Type, CodecError>`);
/// `frame name: Type { put, decode, len }` (a `u64`-length blob `put(w, v)`
/// writes in place, `len(v)` bytes long; its `put` takes anything that
/// borrows as `Type`). `[cx: Type]` after the type names a context value
/// `put` and `len` take and a frame's writer may use; without it they
/// ignore it. A record or tagged type may take one parameter,
/// `Type<P: Bound>`: `put` and `len` are then generic over `P`, and `get`
/// returns the type at its default for `P`.
///
/// Kinds: `u8`, `u32`, `u64`, `f64`, `bool` (0 or 1), `usize` (as `u64`),
/// `str16`, `blob64`, `[u8; N]`, `f64s` and `u32s` (behind a `u64` count),
/// `list(kind)` (a count, refused unless `count × MIN_LEN` bytes remain),
/// `counted(kind, n)` (`n` elements, `n` from an earlier field),
/// `fixed_option(kind)` (a flag, then the value or its default), or another
/// schema's name. A reserved slot and an absent `fixed_option` value are
/// written as the kind's default, which `len` counts as its `MIN_LEN`: use
/// kinds whose default is their shortest value there.
#[macro_export]
macro_rules! schema {
    ($(#[$m:meta])* $vis:vis $form:ident $name:ident : $ty:ident $(<$g:ident : $gb:path>)?
        [$cx:ident : $cxty:ty] { $($body:tt)* }) => {
        $crate::schema!(@$form [$(#[$m])*] $vis $name $ty [$($g: $gb)?] [$cx: $cxty] { $($body)* });
    };
    ($(#[$m:meta])* $vis:vis $form:ident $name:ident : $ty:ident $(<$g:ident : $gb:path>)?
        { $($body:tt)* }) => {
        $crate::schema!(@$form [$(#[$m])*] $vis $name $ty [$($g: $gb)?] [_cx: impl Copy] { $($body)* });
    };

    (@map [$($m:tt)*] $vis:vis $name:ident $ty:ident [] [$cx:ident : $cxty:ty] {
        $k:tt $(($($ka:tt)*))?, $to:expr, $from:expr $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty]
            min = $crate::schema!(@min $k $(($($ka)*))?);
            put[](w, v: $ty) {
                $crate::schema!(@put w, &$crate::__private::apply(v, $to), $cx; $k $(($($ka)*))?)
            }
            len {
                $crate::schema!(@len &$crate::__private::apply(v, $to), $cx; $k $(($($ka)*))?)
            }
            get(r) { $crate::__private::apply($crate::schema!(@get r; $k $(($($ka)*))?), $from) });
    };
    (@frame [$($m:tt)*] $vis:vis $name:ident $ty:ident [] [$cx:ident : $cxty:ty] {
        $put:expr, $get:expr, $len:expr $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty] min = 8;
            put[FrameValue: ?Sized + ::core::borrow::Borrow<$ty>](w, v: FrameValue) {
                let v: &$ty = ::core::borrow::Borrow::borrow(v);
                w.put_blob64_with(|w| $crate::__private::put_with(w, v, $put))
            }
            len {
                let v: &$ty = ::core::borrow::Borrow::borrow(v);
                let _ = $cx;
                8 + $crate::__private::len_with(v, $len)
            }
            get(r) {
                let corrupt = |e| $crate::CodecError::Corrupt(format!("{}: {e}", stringify!($name)));
                ($get)(r.blob64()?).map_err(corrupt)
            });
    };
    (@record [$($m:tt)*] $vis:vis $name:ident $ty:ident [$($g:ident : $gb:path)?]
        [$cx:ident : $cxty:ty] {
        $($f:ident : $k:tt $(($($ka:tt)*))?),* $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty]
            min = 0 $(+ $crate::schema!(@min $k $(($($ka)*))?))*;
            put[$($g: $gb)?](w, v: $ty $(<$g>)?) {
                let $ty { $($f),* } = v;
                $($crate::schema!(@put w, $f, $cx; $k $(($($ka)*))?);)*
            }
            len {
                let $ty { $($f),* } = v;
                0 $(+ $crate::schema!(@len $f, $cx; $k $(($($ka)*))?))*
            }
            get(r) {
                $(let $f = $crate::schema!(@get r; $k $(($($ka)*))?);)*
                Ok($ty { $($f),* })
            });
    };
    (@tagged [$($m:tt)*] $vis:vis $name:ident $ty:ident [$($g:ident : $gb:path)?]
        [$cx:ident : $cxty:ty] {
        $($tag:literal => $var:ident
            $(($($tb:ident : $tk:tt $(($($tka:tt)*))?),* $(,)?))?
            $({$($sf:ident : $sk:tt $(($($ska:tt)*))?),* $(,)?})?
            $([$($rk:tt),*])?
        ),* $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty]
            min = 1 + {
                let mut min = usize::MAX;
                $(let variant = 0
                    $($(+ $crate::schema!(@min $tk $(($($tka)*))?))*)?
                    $($(+ $crate::schema!(@min $sk $(($($ska)*))?))*)?
                    $($(+ $crate::schema!(@min $rk))*)?;
                if variant < min { min = variant; })*
                min
            };
            put[$($g: $gb)?](w, v: $ty $(<$g>)?) {
                match v {$(
                    $ty::$var $(($($tb),*))? $({$($sf),*})? => {
                        w.put_u8($tag);
                        $($($crate::schema!(@put w, $tb, $cx; $tk $(($($tka)*))?);)*)?
                        $($($crate::schema!(@put w, $sf, $cx; $sk $(($($ska)*))?);)*)?
                        $($($crate::schema!(@put w, &Default::default(), $cx; $rk);)*)?
                    }
                )*}
            }
            len {
                match v {$(
                    $ty::$var $(($($tb),*))? $({$($sf),*})? => {
                        1 $($(+ $crate::schema!(@len $tb, $cx; $tk $(($($tka)*))?))*)?
                            $($(+ $crate::schema!(@len $sf, $cx; $sk $(($($ska)*))?))*)?
                            $($(+ $crate::schema!(@min $rk))*)?
                    }
                )*}
            }
            get(r) {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $tb = $crate::schema!(@get r; $tk $(($($tka)*))?);)*)?
                        $($(let $sf = $crate::schema!(@get r; $sk $(($($ska)*))?);)*)?
                        $($(let _ = $crate::schema!(@get r; $rk);)*)?
                        $ty::$var $(($($tb),*))? $({$($sf),*})?
                    })*
                    t => return Err($crate::CodecError::Corrupt(format!(
                        concat!("unknown ", stringify!($name), " tag {}"), t
                    ))),
                })
            });
    };
    (@module [$($m:tt)*] $vis:vis $name:ident $ty:ident [$cx:ident : $cxty:ty] min = $min:expr;
        put[$($pg:tt)*]($w:ident, $v:ident: $pty:ty) $put:block len $len:block
        get($r:ident) $get:block) => {
        $($m)*
        $vis mod $name {
            use super::*;
            /// Appends the value's encoding.
            pub fn put<$($pg)*>($w: &mut $crate::Writer, $v: &$pty, $cx: $cxty) $put
            /// The number of bytes [`put`] appends for the value.
            pub fn len<$($pg)*>($v: &$pty, $cx: $cxty) -> usize $len
            /// Reads one value, or why its bytes were refused.
            pub fn get($r: &mut $crate::Reader<'_>) -> Result<$ty, $crate::CodecError> $get
            /// The fewest bytes one encoded value takes.
            pub const MIN_LEN: usize = $min;
        }
    };

    (@put $w:ident, $v:expr, $cx:ident; u8) => { $w.put_u8(*$v) };
    (@put $w:ident, $v:expr, $cx:ident; u32) => { $w.put_u32(*$v) };
    (@put $w:ident, $v:expr, $cx:ident; u64) => { $w.put_u64(*$v) };
    (@put $w:ident, $v:expr, $cx:ident; f64) => { $w.put_f64(*$v) };
    (@put $w:ident, $v:expr, $cx:ident; bool) => { $w.put_u8(u8::from(*$v)) };
    (@put $w:ident, $v:expr, $cx:ident; usize) => { $w.put_u64(*$v as u64) };
    (@put $w:ident, $v:expr, $cx:ident; str16) => { $w.put_str16($v) };
    (@put $w:ident, $v:expr, $cx:ident; blob64) => { $w.put_blob64($v) };
    (@put $w:ident, $v:expr, $cx:ident; [u8; $n:expr]) => { $w.put_bytes($v) };
    (@put $w:ident, $v:expr, $cx:ident; f64s) => {{ $w.put_u64($v.len() as u64); $w.put_f64s($v) }};
    (@put $w:ident, $v:expr, $cx:ident; u32s) => {{ $w.put_u64($v.len() as u64); $w.put_u32s($v) }};
    (@put $w:ident, $v:expr, $cx:ident; list($($k:tt)*)) => {{
        $w.put_u64($v.len() as u64);
        $crate::schema!(@put $w, $v, $cx; counted($($k)*, $v.len()))
    }};
    (@put $w:ident, $v:expr, $cx:ident; counted($k:tt $(($($ka:tt)*))?, $n:expr)) => {{
        // The reader takes `n` elements, so the writer must hold that many.
        assert!($v.len() == $n, "counted field length differs from its count");
        for x in $v {
            $crate::schema!(@put $w, x, $cx; $k $(($($ka)*))?);
        }
    }};
    (@put $w:ident, $v:expr, $cx:ident; fixed_option($($k:tt)*)) => {{
        $w.put_u8(u8::from($v.is_some()));
        match $v {
            Some(x) => $crate::schema!(@put $w, x, $cx; $($k)*),
            None => $crate::schema!(@put $w, &Default::default(), $cx; $($k)*),
        }
    }};
    (@put $w:ident, $v:expr, $cx:ident; $s:ident) => { $s::put($w, $v, $cx) };

    (@len $v:expr, $cx:ident; u8) => {{ let _ = $v; 1 }};
    (@len $v:expr, $cx:ident; bool) => {{ let _ = $v; 1 }};
    (@len $v:expr, $cx:ident; u32) => {{ let _ = $v; 4 }};
    (@len $v:expr, $cx:ident; u64) => {{ let _ = $v; 8 }};
    (@len $v:expr, $cx:ident; f64) => {{ let _ = $v; 8 }};
    (@len $v:expr, $cx:ident; usize) => {{ let _ = $v; 8 }};
    (@len $v:expr, $cx:ident; [u8; $n:expr]) => {{ let _ = $v; $n }};
    (@len $v:expr, $cx:ident; str16) => { 2 + $v.len() };
    (@len $v:expr, $cx:ident; blob64) => { 8 + $v.len() };
    (@len $v:expr, $cx:ident; f64s) => { 8 + 8 * $v.len() };
    (@len $v:expr, $cx:ident; u32s) => { 8 + 4 * $v.len() };
    (@len $v:expr, $cx:ident; list($($k:tt)*)) => {
        8 + $crate::schema!(@len $v, $cx; counted($($k)*, $v.len()))
    };
    (@len $v:expr, $cx:ident; counted($k:tt $(($($ka:tt)*))?, $n:expr)) => {{
        let mut len = 0;
        for x in $v {
            len += $crate::schema!(@len x, $cx; $k $(($($ka)*))?);
        }
        len
    }};
    (@len $v:expr, $cx:ident; fixed_option($($k:tt)*)) => {
        1 + match $v {
            Some(x) => $crate::schema!(@len x, $cx; $($k)*),
            None => $crate::schema!(@min $($k)*),
        }
    };
    (@len $v:expr, $cx:ident; $s:ident) => { $s::len($v, $cx) };

    (@get $r:ident; u8) => { $r.u8()? };
    (@get $r:ident; u32) => { $r.u32()? };
    (@get $r:ident; u64) => { $r.u64()? };
    (@get $r:ident; f64) => { $r.f64()? };
    (@get $r:ident; bool) => {
        match $r.u8()? {
            0 => false,
            1 => true,
            b => return Err($crate::CodecError::Corrupt(format!("flag byte {b} is not 0 or 1"))),
        }
    };
    (@get $r:ident; usize) => { ($r.u64()? as usize) };
    (@get $r:ident; str16) => { $r.str16()? };
    (@get $r:ident; blob64) => { $r.blob64()?.to_vec() };
    (@get $r:ident; [u8; $n:expr]) => {{
        let mut bytes = [0; $n];
        bytes.copy_from_slice($r.bytes($n)?);
        bytes
    }};
    (@get $r:ident; f64s) => {{ let n = $r.u64()? as usize; $r.f64s(n)? }};
    (@get $r:ident; u32s) => {{ let n = $r.u64()? as usize; $r.u32s(n)? }};
    (@get $r:ident; list($($k:tt)*)) => {{ let n = $r.u64()?; $crate::schema!(@get $r; counted($($k)*, n)) }};
    (@get $r:ident; counted($k:tt $(($($ka:tt)*))?, $n:expr)) => {{
        // Refused before allocating unless `n` minimal elements fit.
        let n: usize = ($n).try_into().unwrap_or(usize::MAX);
        if n.saturating_mul($crate::schema!(@min $k $(($($ka)*))?)).max(n) > $r.remaining() {
            let why = format!("count {n} exceeds what {} payload bytes can hold", $r.remaining());
            return Err($crate::CodecError::Corrupt(why));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push($crate::schema!(@get $r; $k $(($($ka)*))?));
        }
        out
    }};
    (@get $r:ident; fixed_option($($k:tt)*)) => {{
        let present = $crate::schema!(@get $r; bool);
        let value = $crate::schema!(@get $r; $($k)*);
        present.then_some(value)
    }};
    (@get $r:ident; $s:ident) => { $s::get($r)? };

    (@min u8) => { 1 };
    (@min bool) => { 1 };
    (@min u32) => { 4 };
    (@min str16) => { 2 };
    (@min [u8; $n:expr]) => { $n };
    (@min counted($($k:tt)*)) => { 0 };
    (@min fixed_option($($k:tt)*)) => { 1 + $crate::schema!(@min $($k)*) };
    (@min list($($k:tt)*)) => { 8 };
    (@min u64) => { 8 };
    (@min f64) => { 8 };
    (@min usize) => { 8 };
    (@min blob64) => { 8 };
    (@min f64s) => { 8 };
    (@min u32s) => { 8 };
    (@min $s:ident) => { $s::MIN_LEN };
}

#[doc(hidden)]
pub mod __private {
    /// Applies a `map` schema's conversion, typing its closure's argument.
    pub fn apply<A, B>(value: A, convert: impl FnOnce(A) -> B) -> B {
        convert(value)
    }

    /// Runs a `frame` schema's writer, typing its closure's arguments.
    pub fn put_with<T>(w: &mut crate::Writer, v: &T, put: impl FnOnce(&mut crate::Writer, &T)) {
        put(w, v)
    }

    /// Runs a `frame` schema's length, typing its closure's argument.
    pub fn len_with<T>(v: &T, len: impl FnOnce(&T) -> usize) -> usize {
        len(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: u32 = 0x4D4C_5354; // "MLST", tests only
    const VERSION: u32 = 3;

    fn sample_frame() -> Vec<u8> {
        let mut w = Writer::for_frame();
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
    fn bulk_reads_keep_every_bit_and_refuse_crafted_counts() {
        let floats = [
            -0.0,
            0.0,
            f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN
            f64::MIN_POSITIVE / 2.0,
            -1.5,
            f64::NEG_INFINITY,
        ];
        let ints = [0, 1, u32::MAX, 0x0102_0304];
        let mut w = Writer::new();
        w.put_f64s(&floats);
        w.put_u32s(&ints);
        let bytes = w.into_payload();
        assert_eq!(bytes.len(), floats.len() * 8 + ints.len() * 4);
        assert_eq!(&bytes[..8], &(-0.0f64).to_bits().to_le_bytes());
        let mut r = Reader::new(&bytes);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r.f64s(floats.len()).unwrap()), bits(&floats));
        assert_eq!(r.u32s(ints.len()).unwrap(), ints);
        r.finish().unwrap();
        // A count the bytes cannot hold is refused, and nothing is taken,
        // before anything is allocated: the last two would ask for more
        // than the address space.
        for width in [8, 4] {
            for n in [bytes.len() / width + 1, usize::MAX / width + 1, usize::MAX] {
                let mut r = Reader::new(&bytes);
                let refused = match width {
                    8 => r.f64s(n).map(drop),
                    _ => r.u32s(n).map(drop),
                };
                assert!(matches!(refused, Err(CodecError::Corrupt(_))), "{n}");
                assert_eq!(r.remaining(), bytes.len());
            }
        }
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
        // suite. This is the workspace's content hash (checkpoint config
        // digests, dataset fingerprints), whose values are stored inside
        // artifacts and checkpoints, so a silent constant or order change
        // here invalidates every stored one.
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
    fn xxh64_vectors() {
        // Published seed-0 XXH64 vectors. The 39-byte input takes one
        // 32-byte stripe, the lane merge, then the 4-byte and 1-byte
        // tails. No published vector reaching the 8-byte-word tail was
        // at hand, so none is invented here; the flip test below covers
        // that branch.
        let kat: &[(&[u8], u64)] = &[
            (b"", 0xef46_db37_51d8_e999),
            (b"a", 0xd24e_c4f1_a98c_6e5b),
            (b"abc", 0x44bc_2cf5_ad77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xfbce_a83c_8a37_8bf1,
            ),
        ];
        for (input, expected) in kat {
            assert_eq!(xxh64(input), *expected, "input {input:?}");
        }
    }

    #[test]
    fn xxh64_sees_every_single_bit_flip() {
        // Lengths 0..=96 reach every branch: zero to three 32-byte
        // stripes, and after zero, one or two stripes every tail of 0 to
        // 31 bytes (up to three 8-byte words, a 4-byte word, up to three
        // single bytes).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let payload: Vec<u8> = (0..96)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        for len in 0..=payload.len() {
            let mut bytes = payload[..len].to_vec();
            let clean = xxh64(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(xxh64(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Nanos(u64);

    #[derive(Debug, PartialEq)]
    enum Node {
        Driver,
        Worker(usize),
        Pair { a: u32, b: Option<u8> },
    }

    #[derive(Debug, PartialEq)]
    struct Everything {
        byte: u8,
        wide: u32,
        flag: bool,
        size: usize,
        name: String,
        blob: Vec<u8>,
        state: [u8; 3],
        floats: Vec<f64>,
        ints: Vec<u32>,
        nodes: Vec<Node>,
        extra: Vec<u64>,
        best: Option<f64>,
        at: Nanos,
        inner: Nanos,
    }

    schema! { tagged node: Node { 0 => Driver [u64], 1 => Worker(i: usize), 2 => Pair { a: u32, b: fixed_option(u8) } } }
    schema! { map nanos: Nanos { u64, |n| n.0, |n| Ok(Nanos(n)) } }
    /// A one-byte value with the context byte in front.
    fn put_tagged(w: &mut Writer, v: &Nanos, cx: u8) {
        w.put_u8(cx);
        w.put_u8(v.0 as u8);
    }
    fn get_tagged(b: &[u8]) -> Result<Nanos, String> {
        match b {
            [_, n] => Ok(Nanos(u64::from(*n))),
            _ => Err("empty".into()),
        }
    }
    schema! { frame inner: Nanos [cx: u8] { |w, v| put_tagged(w, v, cx), get_tagged, |_| 2 } }
    schema! {
        record everything: Everything [cx: u8] {
            byte: u8, wide: u32, flag: bool, size: usize, name: str16, blob: blob64,
            state: [u8; 3], floats: f64s, ints: u32s, nodes: list(node),
            extra: counted(u64, nodes.len()), best: fixed_option(f64), at: nanos, inner: inner,
        }
    }

    /// A record whose frame field is owned when decoded and may be
    /// borrowed when encoded.
    #[derive(Debug, PartialEq)]
    struct Stamped<N = Nanos> {
        id: u32,
        at: N,
    }

    schema! { record stamped: Stamped<N: std::borrow::Borrow<Nanos>> [cx: u8] { id: u32, at: inner } }

    fn sample() -> Everything {
        Everything {
            byte: 7,
            wide: 70_000,
            flag: true,
            size: 1 << 40,
            name: "hi".into(),
            blob: vec![1, 2],
            state: [9, 8, 7],
            floats: vec![-0.0, 1.5],
            ints: vec![3],
            nodes: vec![
                Node::Driver,
                Node::Worker(4),
                Node::Pair { a: 5, b: Some(6) },
                Node::Pair { a: 1, b: None },
            ],
            extra: vec![10, 11, 12, 13],
            best: None,
            at: Nanos(99),
            inner: Nanos(42),
        }
    }

    #[test]
    fn schema_roundtrips_every_kind_in_declaration_order() {
        let v = sample();
        let mut w = Writer::new();
        everything::put(&mut w, &v, 0xEE);
        let bytes = w.into_payload();
        let nodes = 8 + (1 + 8) + (1 + 8) + (1 + 4 + 1 + 1) + (1 + 4 + 1 + 1);
        let len = 1 + 4 + 1 + 8 + 4 + 10 + 3 + 24 + 12 + nodes + 32 + 9 + 8 + 10;
        assert_eq!(bytes.len(), len);
        assert_eq!(everything::len(&v, 0xEE), len);
        assert_eq!(&bytes[..6], &[7, 0x70, 0x11, 0x01, 0x00, 1]);
        // The context reaches the frame's writer: tag byte then 42.
        assert_eq!(&bytes[len - 2..], &[0xEE, 42]);
        let mut r = Reader::new(&bytes);
        assert_eq!(everything::get(&mut r).unwrap(), v);
        r.finish().unwrap();
        assert_eq!(node::MIN_LEN, 1 + 6);
        assert_eq!(
            everything::MIN_LEN,
            1 + 4 + 1 + 8 + 2 + 8 + 3 + 8 + 8 + 8 + 9 + 8 + 8
        );
    }

    #[test]
    fn schema_len_is_the_length_put_writes() {
        let empty = Everything {
            name: String::new(),
            blob: vec![],
            floats: vec![],
            ints: vec![],
            nodes: vec![],
            extra: vec![],
            best: Some(-0.0),
            ..sample()
        };
        let full = Everything {
            name: "a longer name".into(),
            floats: vec![1.0; 17],
            ints: vec![2; 5],
            ..sample()
        };
        for v in [sample(), empty, full] {
            let mut w = Writer::new();
            everything::put(&mut w, &v, 1);
            assert_eq!(everything::len(&v, 1), w.len(), "{v:?}");
        }
        for node in [Node::Driver, Node::Worker(3), Node::Pair { a: 1, b: None }] {
            let mut w = Writer::new();
            node::put(&mut w, &node, ());
            assert_eq!(node::len(&node, ()), w.len(), "{node:?}");
        }
        // A frame field counts its length prefix and the bytes `len` names.
        assert_eq!(inner::len(&Nanos(7), 0), 8 + 2);
    }

    #[test]
    fn a_parameterised_schema_writes_borrowed_fields_as_owned_ones() {
        let owned = Stamped {
            id: 5,
            at: Nanos(42),
        };
        let borrowed = Stamped {
            id: 5,
            at: &owned.at,
        };
        let mut w = Writer::new();
        stamped::put(&mut w, &owned, 3);
        let bytes = w.into_payload();
        let mut w = Writer::new();
        stamped::put(&mut w, &borrowed, 3);
        assert_eq!(w.into_payload(), bytes);
        assert_eq!(stamped::get(&mut Reader::new(&bytes)).unwrap(), owned);
        assert_eq!(stamped::len(&borrowed, 3), bytes.len());
        assert_eq!(stamped::MIN_LEN, 4 + 8);
    }

    #[test]
    fn schema_refuses_what_no_writer_produces() {
        let mut bad_tag = Writer::new();
        bad_tag.put_u8(3);
        let err = node::get(&mut Reader::new(&bad_tag.into_payload())).unwrap_err();
        assert!(err.to_string().contains("unknown node tag 3"), "{err}");
        // A flag byte other than 0/1.
        let err = node::get(&mut Reader::new(&[2, 1, 0, 0, 0, 2])).unwrap_err();
        assert!(matches!(err, CodecError::Corrupt(_)));
        // A list count the remaining bytes cannot hold, before allocating.
        let mut w = Writer::new();
        everything::put(&mut w, &sample(), 0);
        let mut bytes = w.into_payload();
        let count_at = 1 + 4 + 1 + 8 + 4 + 10 + 3 + 24 + 12;
        bytes[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = everything::get(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        // A frame whose decoder refuses its blob names the field.
        let err = inner::get(&mut Reader::new(&[0; 8])).unwrap_err();
        assert!(err.to_string().contains("inner: empty"), "{err}");
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

    /// The payloads the in-place tests write: empty, a few fields, and a
    /// blob written in place behind its length.
    fn payload_cases() -> [fn(&mut Writer); 3] {
        [
            |_| {},
            |w| {
                w.put_u8(7);
                w.put_u32(70_000);
                w.put_str16("hi");
            },
            |w| {
                w.put_u8(1);
                w.put_blob64_with(|w| {
                    w.put_u64(9);
                    w.put_f64s(&[1.5, -0.0]);
                });
                w.put_u8(2);
            },
        ]
    }

    #[test]
    fn a_frame_written_in_place_equals_the_copied_frame() {
        for fill in payload_cases() {
            let mut payload = Writer::new();
            fill(&mut payload);
            let payload = payload.into_payload();
            let expected = encode_frame(MAGIC, VERSION, &payload);
            let mut framed = Writer::for_frame();
            fill(&mut framed);
            assert_eq!(framed.into_frame(MAGIC, VERSION), expected);
            let mut sized = Writer::for_frame_with_capacity(payload.len());
            fill(&mut sized);
            assert_eq!(sized.into_frame(MAGIC, VERSION), expected);
        }
    }

    #[test]
    fn a_frame_written_into_a_kept_buffer_is_sized_to_fit() {
        let (mut kept, mut largest) = (Vec::new(), 0);
        for fill in [b"hello".as_slice(), b"hi", b"much more"] {
            let mut w = Writer::for_frame_in(std::mem::take(&mut kept), fill.len());
            w.put_bytes(fill);
            kept = w.into_frame(MAGIC, VERSION);
            assert_eq!(kept, encode_frame(MAGIC, VERSION, fill));
            // The buffer grows to exactly a frame larger than it held, and
            // keeps its room for a smaller one.
            largest = largest.max(HEADER_LEN + fill.len());
            assert_eq!(kept.capacity(), largest);
        }
    }

    #[test]
    #[should_panic(expected = "into_frame on a payload writer")]
    fn a_payload_writer_cannot_be_framed() {
        Writer::new().into_frame(MAGIC, VERSION);
    }

    #[test]
    #[should_panic(expected = "into_payload on a frame writer")]
    fn a_frame_writer_has_no_bare_payload() {
        Writer::for_frame().into_payload();
    }

    #[test]
    fn a_frame_writer_counts_its_payload_only() {
        let empty = Writer::for_frame();
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert!(Writer::for_frame_with_capacity(64).is_empty());
        for fill in payload_cases() {
            let mut payload = Writer::new();
            fill(&mut payload);
            let mut framed = Writer::for_frame();
            fill(&mut framed);
            assert_eq!(framed.len(), payload.len());
            assert_eq!(framed.is_empty(), payload.is_empty());
            assert_eq!(framed.len(), payload.into_payload().len());
        }
    }
}
