//! What a run prints and writes: the table for people, the result file
//! for `benchmark diff`, and the one-line JSON object for the acceptance
//! driver.

use crate::host::Stamp;
use crate::json;
use crate::run::WorkloadResult;
use crate::spec::{self, MetricSpec, WORKLOADS};
use crate::stats::Summary;

/// The schema tag of result files; `diff` refuses anything else.
pub const SCHEMA: &str = "mlstar-benchmark/1";

/// Four significant digits, in the shorter of fixed and scientific form.
fn short(v: f64) -> String {
    // lint:allow(float_eq): exact zero prints as "0", everything else by magnitude
    if v == 0.0 {
        "0".to_string()
    } else if (1e-3..1e6).contains(&v.abs()) {
        let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 6) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

fn row(m: &MetricSpec, s: &Summary) -> String {
    format!(
        "  {:<40} {:>11} {:>11} {:>11} {:>4}  {}",
        m.name,
        short(s.median),
        short(s.q1),
        short(s.q3),
        s.n,
        m.unit
    )
}

/// The per-workload table: every metric by name with its unit, median,
/// quartiles and sample count.
pub fn print_table(results: &[WorkloadResult]) {
    for r in results {
        let w = &WORKLOADS[r.index];
        println!(
            "\n== {}   attempted {}  failed {}   ({} {} per call)",
            w.name,
            r.attempted,
            r.failed,
            short(r.units_per_call),
            w.unit_of_work
        );
        println!(
            "  {:<40} {:>11} {:>11} {:>11} {:>4}  unit",
            "metric", "median", "q1", "q3", "n"
        );
        for (name, summary) in &r.end_to_end {
            let m = spec::metric(name).expect("reported metrics are in the table");
            println!("{}", row(m, summary));
        }
        if let Some(layers) = &r.per_layer {
            // 0 = the layer is not on this workload's path.
            for m in spec::PER_LAYER.iter() {
                if let Some(v) = layers.get(m.name) {
                    println!("{}", row(m, &Summary::single(v)));
                }
            }
        }
        for claim in &r.claims {
            println!(
                "  [{}] {}",
                if claim.ok { "claim ok" } else { "CLAIM MISSED" },
                claim.text
            );
        }
        for failure in &r.failures {
            println!("  FAILED: {failure}");
        }
    }
}

fn summary_json(unit: &str, s: &Summary) -> String {
    format!(
        "{{\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{}}}",
        json::string(unit),
        json::number(s.median),
        json::number(s.q1),
        json::number(s.q3),
        s.n
    )
}

/// The result file: the stamp, then per workload the end-to-end metrics
/// and the per-layer metrics its path produced.
pub fn result_json(stamp: &Stamp, results: &[WorkloadResult]) -> String {
    let workloads: Vec<String> = results
        .iter()
        .map(|r| {
            let end_to_end: Vec<String> = r
                .end_to_end
                .iter()
                .map(|(name, s)| {
                    let unit = spec::metric(name).map_or("", |m| m.unit);
                    format!("      {}: {}", json::string(name), summary_json(unit, s))
                })
                .collect();
            let per_layer: Vec<String> = spec::PER_LAYER
                .iter()
                .filter_map(|m| {
                    let v = r.per_layer.as_ref()?.get(m.name)?;
                    Some(format!(
                        "      {}: {}",
                        json::string(m.name),
                        summary_json(m.unit, &Summary::single(v))
                    ))
                })
                .collect();
            let failures: Vec<String> = r.failures.iter().map(|f| json::string(f)).collect();
            let missed: Vec<String> = r
                .claims
                .iter()
                .filter(|c| !c.ok)
                .map(|c| json::string(&c.text))
                .collect();
            format!(
                "  {{\n    \"name\": {},\n    \"correct\": {},\n    \"attempted\": {},\n    \"failed\": {},\n    \"failures\": [{}],\n    \"claims_missed\": [{}],\n    \"units_per_call\": {},\n    \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}",
                json::string(WORKLOADS[r.index].name),
                r.correct(),
                r.attempted,
                r.failed,
                failures.join(","),
                missed.join(","),
                json::number(r.units_per_call),
                end_to_end.join(",\n"),
                per_layer.join(",\n"),
            )
        })
        .collect();
    format!(
        "{{\n\"schema\": {},\n\"stamp\": {},\n\"workloads\": [\n{}\n]\n}}\n",
        json::string(SCHEMA),
        stamp.to_json(),
        workloads.join(",\n")
    )
}

/// The last line of standard output when one workload ran: `correct`,
/// `attempted`, `failed`, and every end-to-end metric (`traced` false) or
/// every per-layer metric (`traced` true; 0 where the layer is not on the
/// workload's path).
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let value = |m: &MetricSpec, v: f64| {
        format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json::string(m.name),
            json::number(v),
            json::string(m.unit)
        )
    };
    let metrics: Vec<String> = if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                value(
                    m,
                    r.per_layer
                        .as_ref()
                        .and_then(|l| l.get(m.name))
                        .unwrap_or(0.0),
                )
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .filter_map(|m| {
                let (_, s) = r.end_to_end.iter().find(|(name, _)| *name == m.name)?;
                Some(value(m, s.median))
            })
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Layers;

    fn result() -> WorkloadResult {
        let mut layers = Layers::default();
        layers.set("glm.cd_sweeps", 42.0);
        WorkloadResult {
            index: 5,
            attempted: 12,
            failed: 0,
            failures: vec![],
            units_per_call: 1e6,
            end_to_end: vec![
                ("work_per_s", Summary::of(&[1.0, 2.0, 3.0]).unwrap()),
                ("cpu_ns_per_unit", Summary::single(7.5)),
                ("peak_heap_mib", Summary::single(1.25)),
                ("setup_s", Summary::single(0.04)),
            ],
            per_layer: Some(layers),
            claims: vec![],
        }
    }

    #[test]
    fn short_numbers() {
        assert_eq!(short(0.0), "0");
        assert_eq!(short(1234.5678), "1235");
        assert_eq!(short(12.345678), "12.35");
        assert_eq!(short(0.0123456), "0.01235");
        assert_eq!(short(1.5e7), "1.500e7");
        assert_eq!(short(-2.5e-5), "-2.500e-5");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(&result(), false);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        let metrics = doc.get("metrics").and_then(json::Value::as_object).unwrap();
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected);
        assert_eq!(
            metrics["work_per_s"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(2.0)
        );
        assert_eq!(
            metrics["setup_s"].get("unit").and_then(json::Value::as_str),
            Some("s")
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn traced_driver_line_reports_every_per_layer_metric() {
        let doc = json::parse(&driver_line(&result(), true)).unwrap();
        let metrics = doc.get("metrics").and_then(json::Value::as_object).unwrap();
        assert_eq!(metrics.len(), spec::PER_LAYER.len());
        assert_eq!(
            metrics["glm.cd_sweeps"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(42.0)
        );
        // Not on this workload's path.
        assert_eq!(
            metrics["net.batches"]
                .get("value")
                .and_then(json::Value::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn result_file_parses_back() {
        let stamp = Stamp {
            git_sha: "abc".into(),
            rustc: "rustc 1.0 \"quoted\"".into(),
            nproc: 2,
            host_threads: 1,
            seed: 1,
            seconds: 6.0,
            smoke: false,
            loc: vec![("glm".into(), 10)],
        };
        let mut failing = result();
        failing.failed = 1;
        failing.failures.push("line\nbreak".into());
        let doc = json::parse(&result_json(&stamp, &[result(), failing])).unwrap();
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some(SCHEMA)
        );
        let workloads = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(workloads.len(), 2);
        assert_eq!(
            workloads[0].get("name").and_then(json::Value::as_str),
            Some("cd-kddb-path")
        );
        let q3 = workloads[0]
            .get("end_to_end")
            .and_then(|e| e.get("work_per_s"))
            .and_then(|m| m.get("q3"))
            .and_then(json::Value::as_f64);
        assert_eq!(q3, Some(3.0));
        assert_eq!(workloads[1].get("correct"), Some(&json::Value::Bool(false)));
    }
}
