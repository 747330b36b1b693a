//@ path: crates/collectives/src/wire.rs
//@ expect: codec_symmetry

//! Two broken model-frame pairs: `put_update`/`get_update` write the
//! values with the `put_f64s` array primitive and read them back in a
//! hand-written loop of `u32`s (an array-width drift the rule must see
//! through the primitive), and `encode_range`/`decode_range` read the
//! flag byte before the bounds the writer put after them.

use mlstar_codec::{CodecError, Reader, Writer};

pub fn put_update(w: &mut Writer, indices: &[u32], values: &[f64]) {
    w.put_u32(indices.len() as u32);
    w.put_u32s(indices);
    w.put_f64s(values);
}

pub fn get_update(r: &mut Reader<'_>) -> Result<(Vec<u32>, Vec<u32>), CodecError> {
    let nnz = r.u32()? as usize;
    let indices = r.u32s(nnz)?;
    // Width drift: the values were written as f64s.
    let mut values = Vec::new();
    for _ in 0..nnz {
        values.push(r.u32()?);
    }
    Ok((indices, values))
}

pub fn encode_range(w: &mut Writer, lo: f64, hi: f64, clamped: bool) {
    w.put_f64(lo);
    w.put_f64(hi);
    w.put_u8(u8::from(clamped));
}

pub fn decode_range(r: &mut Reader<'_>) -> Result<(f64, f64, bool), CodecError> {
    // Swapped: reads the flag byte before the bounds.
    let clamped = r.u8()? != 0;
    let lo = r.f64()?;
    let hi = r.f64()?;
    Ok((lo, hi, clamped))
}
