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
//! frame, the incremental [`Fnv1a`] hasher, the safe [`Reader`] /
//! [`Writer`] pair, and [`schema!`], which derives both halves of every
//! payload codec from one field list.
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

/// Declares a payload layout once, as a field list, and generates from it
/// a module of free functions — writer `put(w, &value, cx)`, reader
/// `get(r)` — and `MIN_LEN`, the fewest bytes a value encodes to. Both
/// walk the one list and destructure or rebuild the type exhaustively, so
/// a writer and reader that disagree on a field cannot be written.
///
/// Forms: `record name: Type { field: kind, .. }` (fields in wire order);
/// `tagged name: Type { tag => Variant, tag => Variant(bind: kind, ..),
/// tag => Variant { field: kind, .. } [kind, ..], .. }` (a `u8` tag, then
/// the variant's fields, then reserved slots written as their default and
/// skipped when read; an unknown tag is corrupt); `map name: Type { kind,
/// to, from }` (a conversion, `from` returning `Result<Type, CodecError>`);
/// `frame name: Type { put, decode }` (a `u64`-length blob `put(w, v)`
/// writes in place). `[cx: Type]` after the type names a context value
/// `put` takes and a frame's writer may use; without it `put` ignores it.
///
/// Kinds: `u8`, `u32`, `u64`, `f64`, `bool` (0 or 1), `usize` (as `u64`),
/// `str16`, `blob64`, `[u8; N]`, `f64s` and `u32s` (behind a `u64` count),
/// `list(kind)` (a count, refused unless `count × MIN_LEN` bytes remain),
/// `counted(kind, n)` (`n` elements, `n` from an earlier field),
/// `option(kind)` (a flag, then the value if present), `fixed_option(kind)`
/// (a flag, then the value or its default), or another schema's name.
#[macro_export]
macro_rules! schema {
    ($(#[$m:meta])* $vis:vis $form:ident $name:ident : $ty:ident [$cx:ident : $cxty:ty] { $($body:tt)* }) => {
        $crate::schema!(@$form [$(#[$m])*] $vis $name $ty [$cx: $cxty] { $($body)* });
    };
    ($(#[$m:meta])* $vis:vis $form:ident $name:ident : $ty:ident { $($body:tt)* }) => {
        $crate::schema!(@$form [$(#[$m])*] $vis $name $ty [_cx: impl Copy] { $($body)* });
    };

    (@map [$($m:tt)*] $vis:vis $name:ident $ty:ident [$cx:ident : $cxty:ty] {
        $k:tt, $to:expr, $from:expr $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty] min = $crate::schema!(@min $k);
            put(w, v) { $crate::schema!(@put w, &$crate::__private::apply(v, $to), $cx; $k) }
            get(r) { $crate::__private::apply($crate::schema!(@get r; $k), $from) });
    };
    (@frame [$($m:tt)*] $vis:vis $name:ident $ty:ident [$cx:ident : $cxty:ty] {
        $put:expr, $get:expr $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty] min = 8;
            put(w, v) { w.put_blob64_with(|w| $crate::__private::put_with(w, v, $put)) }
            get(r) {
                let corrupt = |e| $crate::CodecError::Corrupt(format!("{}: {e}", stringify!($name)));
                ($get)(r.blob64()?).map_err(corrupt)
            });
    };
    (@record [$($m:tt)*] $vis:vis $name:ident $ty:ident [$cx:ident : $cxty:ty] {
        $($f:ident : $k:tt $(($($ka:tt)*))?),* $(,)?
    }) => {
        $crate::schema!(@module [$($m)*] $vis $name $ty [$cx: $cxty]
            min = 0 $(+ $crate::schema!(@min $k $(($($ka)*))?))*;
            put(w, v) {
                let $ty { $($f),* } = v;
                $($crate::schema!(@put w, $f, $cx; $k $(($($ka)*))?);)*
            }
            get(r) {
                $(let $f = $crate::schema!(@get r; $k $(($($ka)*))?);)*
                Ok($ty { $($f),* })
            });
    };
    (@tagged [$($m:tt)*] $vis:vis $name:ident $ty:ident [$cx:ident : $cxty:ty] {
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
            put(w, v) {
                match v {$(
                    $ty::$var $(($($tb),*))? $({$($sf),*})? => {
                        w.put_u8($tag);
                        $($($crate::schema!(@put w, $tb, $cx; $tk $(($($tka)*))?);)*)?
                        $($($crate::schema!(@put w, $sf, $cx; $sk $(($($ska)*))?);)*)?
                        $($($crate::schema!(@put w, &Default::default(), $cx; $rk);)*)?
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
    (@module [$($m:tt)*] $vis:vis $name:ident $ty:ty [$cx:ident : $cxty:ty] min = $min:expr;
        put($w:ident, $v:ident) $put:block get($r:ident) $get:block) => {
        $($m)*
        $vis mod $name {
            use super::*;
            /// Appends the value's encoding.
            pub fn put($w: &mut $crate::Writer, $v: &$ty, $cx: $cxty) $put
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
    (@put $w:ident, $v:expr, $cx:ident; option($($k:tt)*)) => {{
        $w.put_u8(u8::from($v.is_some()));
        if let Some(x) = $v { $crate::schema!(@put $w, x, $cx; $($k)*) }
    }};
    (@put $w:ident, $v:expr, $cx:ident; fixed_option($($k:tt)*)) => {{
        $w.put_u8(u8::from($v.is_some()));
        match $v {
            Some(x) => $crate::schema!(@put $w, x, $cx; $($k)*),
            None => $crate::schema!(@put $w, &Default::default(), $cx; $($k)*),
        }
    }};
    (@put $w:ident, $v:expr, $cx:ident; $s:ident) => { $s::put($w, $v, $cx) };

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
    (@get $r:ident; option($($k:tt)*)) => {
        if $crate::schema!(@get $r; bool) { Some($crate::schema!(@get $r; $($k)*)) } else { None }
    };
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
    (@min option($($k:tt)*)) => { 1 };
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

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Nanos(u64);

    #[derive(Debug, PartialEq)]
    enum Node {
        Driver,
        Worker(usize),
        Pair { a: u32, b: Option<u64> },
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

    schema! { tagged node: Node { 0 => Driver [u64], 1 => Worker(i: usize), 2 => Pair { a: u32, b: option(u64) } } }
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
    schema! { frame inner: Nanos [cx: u8] { |w, v| put_tagged(w, v, cx), get_tagged } }
    schema! {
        record everything: Everything [cx: u8] {
            byte: u8, wide: u32, flag: bool, size: usize, name: str16, blob: blob64,
            state: [u8; 3], floats: f64s, ints: u32s, nodes: list(node),
            extra: counted(u64, nodes.len()), best: fixed_option(f64), at: nanos, inner: inner,
        }
    }

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
        let nodes = 8 + (1 + 8) + (1 + 8) + (1 + 4 + 1 + 8) + (1 + 4 + 1);
        let len = 1 + 4 + 1 + 8 + 4 + 10 + 3 + 24 + 12 + nodes + 32 + 9 + 8 + 10;
        assert_eq!(bytes.len(), len);
        assert_eq!(&bytes[..6], &[7, 0x70, 0x11, 0x01, 0x00, 1]);
        // The context reaches the frame's writer: tag byte then 42.
        assert_eq!(&bytes[len - 2..], &[0xEE, 42]);
        let mut r = Reader::new(&bytes);
        assert_eq!(everything::get(&mut r).unwrap(), v);
        r.finish().unwrap();
        assert_eq!(node::MIN_LEN, 1 + 5);
        assert_eq!(
            everything::MIN_LEN,
            1 + 4 + 1 + 8 + 2 + 8 + 3 + 8 + 8 + 8 + 9 + 8 + 8
        );
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
}
