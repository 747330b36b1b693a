//@ path: crates/exec/src/lib.rs
//@ expect: hot_loop_alloc

//! Per-op allocation in the worker executor: a fresh index buffer and a
//! model copy for every op of a batch.

pub fn run_batch(ops: &[Vec<u32>], w: &[f64]) -> usize {
    let mut done = 0;
    for op in ops {
        let idx: Vec<usize> = vec![0; op.len()];
        let model = w.to_vec();
        done += idx.len() + model.len();
    }
    done
}
