//! `benchmark diff <a.json> <b.json>`: per workload, per metric, is `b`
//! better, worse, the same, or can the two files not tell?

use crate::json::{self, Value};
use crate::report::SCHEMA;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::Summary;

/// The noise allowance for per-layer timings, which carry no bound of
/// their own. They are measured once per run, over 30 ms to 1 s, and on a
/// shared host such a region lands 10-25 % off as often as not; less than
/// this is not a finding.
const PER_LAYER_ALLOWANCE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians differ by no more than the bound.
    Same,
    /// The two runs' inter-quartile ranges overlap by more than the
    /// bound: the spread is wider than the change the bound could
    /// detect, so the row says nothing either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "WORSE",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`. `bound` is a share of `a`'s median; 0 makes
/// any change count (exact counts).
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let scale = a.median.abs();
    // lint:allow(float_eq): a zero baseline has no relative change; only equality is "same"
    if scale == 0.0 {
        // lint:allow(float_eq): see above
        return if b.median == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let overlap = b.q3.min(a.q3) - b.q1.max(a.q1);
    if overlap / scale > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / scale;
    if change.abs() <= bound {
        return Verdict::Same;
    }
    match (better, change > 0.0) {
        (Better::Higher, true) | (Better::Lower, false) => Verdict::Better,
        _ => Verdict::Worse,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn summary_of(v: &Value) -> Option<Summary> {
    Some(Summary {
        median: v.get("median")?.as_f64()?,
        q1: v.get("q1")?.as_f64()?,
        q3: v.get("q3")?.as_f64()?,
        n: v.get("n")?.as_f64()? as usize,
    })
}

fn workload<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn allowance(m: &MetricSpec) -> f64 {
    match (m.bound, m.unit) {
        (Some(bound), _) => bound,
        // Counts and shares the program reports about itself repeat
        // exactly for a seed.
        (None, "count" | "B") => 0.0,
        (None, _) => PER_LAYER_ALLOWANCE,
    }
}

/// One table row, or `None` when either file lacks the metric.
fn diff_row(a: &Value, b: &Value, section: &str, m: &MetricSpec) -> Option<(String, Verdict)> {
    let sa = summary_of(a.get(section)?.get(m.name)?)?;
    let sb = summary_of(b.get(section)?.get(m.name)?)?;
    let v = verdict(&sa, &sb, m.better, allowance(m));
    // lint:allow(float_eq): guards the division only
    let change = if sa.median == 0.0 {
        "     n/a".to_string()
    } else {
        format!(
            "{:+7.1}%",
            100.0 * (sb.median - sa.median) / sa.median.abs()
        )
    };
    let line = format!(
        "  {:<40} {:>12.5e} {:>12.5e} {change}  spread {:>5.1}% / {:>5.1}%  {:<10} ({} is better, {} {})",
        m.name,
        sa.median,
        sb.median,
        100.0 * sa.spread(),
        100.0 * sb.spread(),
        v.as_str(),
        m.better.as_str(),
        if m.bound.is_some() { "bound" } else { "allowance" },
        allowance(m),
    );
    Some((line, v))
}

/// Prints the comparison; returns how many end-to-end rows are worse.
pub fn diff_files(path_a: &str, path_b: &str) -> Result<usize, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for (label, doc) in [("a", &a), ("b", &b)] {
        let stamp = |key: &str| {
            doc.get("stamp")
                .and_then(|s| s.get(key))
                .map_or("?".to_string(), |v| match v {
                    Value::String(s) => s.clone(),
                    Value::Number(n) => n.to_string(),
                    other => format!("{other:?}"),
                })
        };
        println!(
            "{label}: {}  git {}  seed {}  seconds {}  nproc {}",
            if label == "a" { path_a } else { path_b },
            stamp("git_sha"),
            stamp("seed"),
            stamp("seconds"),
            stamp("nproc"),
        );
    }
    let mut worse = 0;
    for w in &spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(&a, w.name), workload(&b, w.name)) else {
            println!("\n== {}: not in both files", w.name);
            continue;
        };
        println!("\n== {}", w.name);
        println!(
            "  {:<40} {:>12} {:>12} {:>8}",
            "end to end", "a", "b", "change"
        );
        for m in &spec::END_TO_END {
            if let Some((line, v)) = diff_row(wa, wb, "end_to_end", m) {
                println!("{line}");
                worse += usize::from(v == Verdict::Worse);
            }
        }
        println!("  per layer");
        for m in spec::PER_LAYER.iter() {
            if let Some((line, _)) = diff_row(wa, wb, "per_layer", m) {
                println!("{line}");
            }
        }
    }
    println!("\n{worse} end-to-end row(s) worse than their bound");
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(q1: f64, median: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 15,
        }
    }

    #[test]
    fn clear_changes_follow_the_direction() {
        let a = s(99.0, 100.0, 101.0);
        let up = s(129.0, 130.0, 131.0);
        let down = s(69.0, 70.0, 71.0);
        assert_eq!(verdict(&a, &up, Better::Higher, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &down, Better::Higher, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &up, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &down, Better::Lower, 0.1), Verdict::Better);
    }

    #[test]
    fn small_changes_with_tight_spreads_are_the_same() {
        let a = s(99.0, 100.0, 101.0);
        let b = s(103.0, 104.0, 105.0);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::Same);
        assert_eq!(verdict(&a, &a, Better::Lower, 0.1), Verdict::Same);
    }

    #[test]
    fn wide_overlapping_spreads_are_unresolved_not_unchanged() {
        // Medians 4 % apart, but the two inter-quartile ranges share
        // 85..115: 30 % of the median, far above a 10 % bound.
        let a = s(80.0, 100.0, 115.0);
        let b = s(85.0, 104.0, 125.0);
        assert_eq!(verdict(&a, &b, Better::Higher, 0.1), Verdict::Unresolved);
        // Even identical summaries cannot be called "same" when the noise
        // is wider than the change the bound is meant to catch.
        assert_eq!(verdict(&a, &a, Better::Higher, 0.1), Verdict::Unresolved);
        // A larger bound resolves the same numbers.
        assert_eq!(verdict(&a, &b, Better::Higher, 0.5), Verdict::Same);
    }

    #[test]
    fn exact_counts_use_a_zero_bound() {
        let a = Summary::single(480.0);
        assert_eq!(
            verdict(&a, &Summary::single(480.0), Better::Lower, 0.0),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &Summary::single(481.0), Better::Lower, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &Summary::single(479.0), Better::Lower, 0.0),
            Verdict::Better
        );
        let zero = Summary::single(0.0);
        assert_eq!(verdict(&zero, &zero, Better::Lower, 0.0), Verdict::Same);
        assert_eq!(verdict(&zero, &a, Better::Lower, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn allowances() {
        let bounded = spec::metric("work_per_s").unwrap();
        assert_eq!(Some(allowance(bounded)), bounded.bound);
        assert_eq!(allowance(spec::metric("net.batches").unwrap()), 0.0);
        assert_eq!(
            allowance(spec::metric("glm.cd_fit_s").unwrap()),
            PER_LAYER_ALLOWANCE
        );
    }
}
