//@ path: crates/ps/src/demo.rs
//@ expect: determinism_taint, panic_in_lib, float_eq

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

pub fn shard(keys: &[u64], gate: &Mutex<u64>) -> usize {
    let t0 = Instant::now();
    let mut table: HashMap<u64, usize> = HashMap::new();
    for (pos, k) in keys.iter().enumerate() {
        table.insert(*k, pos);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if elapsed == 0.0 {
        return keys.first().map(|k| *k as usize).unwrap();
    }
    let guard = gate.lock().unwrap();
    table.len() + *guard as usize
}
