//@ path: crates/glm/src/path.rs
//@ expect:

//! A loop whose allocation is the output, waived with a reason.

pub fn snapshots(ws: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(ws.len());
    for w in ws {
        // lint:allow(hot_loop_alloc): each snapshot is the function's output
        out.push(w.clone());
    }
    out
}
