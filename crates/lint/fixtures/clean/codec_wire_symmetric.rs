//@ path: crates/collectives/src/wire.rs
//@ expect:

//! A symmetric model-frame pair shaped like the real `collectives::wire`
//! codec: a shared header helper inlined on both sides, effect-free
//! validation branches, array fields moved by the matched slice
//! primitives (`put_u32s`/`u32s`, `put_f64s`/`f64s`), and an adaptive
//! dense↔sparse dispatch whose arms share the hoisted header prefix — the
//! writer's `if` over the encoding choice and the reader's `match` over
//! the kind byte normalize to the same branch node.

use mlstar_codec::{CodecError, Reader, Writer};

const DEMO_MAGIC: u32 = 0x4D4C_5344;

fn put_head(w: &mut Writer, kind: u8, dim: u32) {
    w.put_u32(DEMO_MAGIC);
    w.put_u8(kind);
    w.put_u32(dim);
}

fn read_head(r: &mut Reader<'_>) -> Result<(u8, usize), CodecError> {
    let magic = r.u32()?;
    if magic != DEMO_MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let kind = r.u8()?;
    let dim = r.u32()? as usize;
    Ok((kind, dim))
}

pub fn encode_vals(indices: &[u32], values: &[f64], sparse: bool) -> Vec<u8> {
    let mut w = Writer::new();
    if sparse {
        put_head(&mut w, 2, indices.len() as u32);
        w.put_u32s(indices);
        w.put_f64s(values);
    } else {
        put_head(&mut w, 1, values.len() as u32);
        w.put_f64s(values);
    }
    w.into_payload()
}

pub fn decode_vals(frame: &[u8]) -> Result<(Vec<u32>, Vec<f64>), CodecError> {
    let mut r = Reader::new(frame);
    let (kind, dim) = read_head(&mut r)?;
    match kind {
        1 => Ok((Vec::new(), r.f64s(dim)?)),
        2 => Ok((r.u32s(dim)?, r.f64s(dim)?)),
        other => Err(CodecError::Corrupt(format!("unknown kind {other}"))),
    }
}
