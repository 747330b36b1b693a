//@ path: crates/data/src/demo.rs
//@ expect: waiver

// lint:allow(panic_in_lib): a rule clippy now holds; use #[expect] instead
pub fn a() {}

// lint:allow(hot_loop_alloc): stale — nothing below allocates in a loop
pub fn b() {}

pub fn c(s: &str) -> u32 {
    // lint:allow(hot_loop_alloc):
    s.len() as u32
}
