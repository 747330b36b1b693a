//@ path: crates/linalg/src/demo.rs
//@ expect:

pub fn lib_code(x: f64) -> f64 {
    (x - 1.0).abs()
}

#[cfg(test)]
mod tests {
    #[test]
    fn loops_may_allocate_in_tests() {
        for i in 0..3 {
            let v = vec![i; 4];
            assert_eq!(v.clone().len(), 4);
        }
    }
}

#[cfg(all(test, feature = "slow"))]
mod slow_tests {
    #[test]
    fn also_a_test_region() {
        loop {
            let s = format!("{}", 1);
            assert!(!s.is_empty());
            break;
        }
    }
}
