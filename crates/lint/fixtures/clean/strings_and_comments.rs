//@ path: crates/linalg/src/demo.rs
//@ expect:

//! Allocation tokens inside a loop, but only in comments and literals.

pub fn tokens_only_in_text(n: usize) -> usize {
    let mut total = 0;
    for i in 0..n {
        // Vec::new() and xs.to_vec() in a comment
        let s = "vec![1] .clone() format!(\"x\")";
        let raw = r#".collect() in a "raw" string"#;
        /* block: Vec::new()
           /* nested: .to_vec( */
           still a comment */
        let quote = '"';
        total += i + s.len() + raw.len() + usize::from(quote == '"');
    }
    total
}

pub fn lifetimes<'a>(s: &'a str) -> &'a str {
    s
}
