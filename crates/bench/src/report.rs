//! Report formatting and the CSV/JSON artefact writers every exhibit uses.

use std::fmt;
use std::path::PathBuf;

use mlstar_core::{ConvergenceTrace, RoundStats};

/// Writes `content` to `<out_dir>/<name>` and returns the path. The
/// output directory is `bench_results/` unless `MLSTAR_OUT` names
/// another; it is created on first use.
#[expect(
    clippy::disallowed_methods,
    reason = "the output directory is host configuration; artefact contents never depend on it"
)]
pub fn write_artifact(name: &str, content: &str) -> PathBuf {
    let dir = std::env::var("MLSTAR_OUT").unwrap_or_else(|_| "bench_results".to_owned());
    let path = PathBuf::from(&dir).join(name);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, content));
    written.expect("write artifact file");
    path
}

/// Writes `json` plus a trailing newline to `<out_dir>/<name>` — the one
/// way an exhibit emits a JSON artefact.
pub fn write_json(name: &str, json: &Json) -> PathBuf {
    write_artifact(name, &format!("{json}\n"))
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

/// A simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers, written the way they
    /// print: one string, columns separated by `|`.
    pub fn new(headers: &str) -> Self {
        Table {
            headers: headers.split('|').map(|h| h.trim().to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("| ");
            for (c, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<w$} | ", cell, w = widths[c]));
            }
            line.trim_end().to_owned()
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        let sep: String = widths
            .iter()
            .map(|w| format!("|{}", "-".repeat(w + 2)))
            .collect();
        out.push_str(&format!("{sep}|\n"));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A printed table and its CSV artefact, filled in lockstep: every row is
/// given once as display cells and once as a CSV line.
pub struct Sheet {
    table: Table,
    csv: String,
}

impl Sheet {
    /// A sheet with the given table headers (as for [`Table::new`]) and
    /// CSV header line.
    pub fn new(headers: &str, csv_header: &str) -> Self {
        Sheet {
            table: Table::new(headers),
            csv: format!("{csv_header}\n"),
        }
    }

    /// Appends one row to both forms (`csv_line` without its newline).
    pub fn row(&mut self, cells: &[String], csv_line: String) {
        self.table.row(cells);
        self.csv.push_str(&csv_line);
        self.csv.push('\n');
    }

    /// Prints the table and writes the CSV to `<out_dir>/<file>`.
    pub fn finish(self, file: &str) -> PathBuf {
        self.table.print();
        write_artifact(file, &self.csv)
    }
}

/// Formats an optional value, using `"—"` for `None` (the paper's figures
/// mark systems that never reach the threshold the same way).
pub fn fmt_opt(v: Option<f64>, unit: &str) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.2}{unit}"),
        Some(_) => "∞".to_owned(),
        None => "—".to_owned(),
    }
}

/// Formats a speedup multiplier (`"12.3×"`, `"∞"`, or `"—"`).
pub fn fmt_speedup(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.1}×"),
        Some(_) => "∞".to_owned(),
        None => "—".to_owned(),
    }
}

/// A run's [`RoundStats`] summed into one record: phase times, flops,
/// updates and bytes per pattern over all rounds; `round` is their count.
pub fn summarize_rounds(rounds: &[RoundStats]) -> RoundStats {
    let mut s = RoundStats::default();
    for r in rounds {
        s.round += 1;
        s.updates += r.updates;
        s.flops += r.flops;
        s.compute_s += r.compute_s;
        s.comm_s += r.comm_s;
        s.idle_s += r.idle_s;
        s.recovery_s += r.recovery_s;
        s.elapsed_s += r.elapsed_s;
        s.bytes.broadcast += r.bytes.broadcast;
        s.bytes.tree_aggregate += r.bytes.tree_aggregate;
        s.bytes.reduce_scatter += r.bytes.reduce_scatter;
        s.bytes.all_gather += r.bytes.all_gather;
        s.bytes.ps_pull += r.bytes.ps_pull;
        s.bytes.ps_push += r.bytes.ps_push;
    }
    s
}

/// The compute/comm/idle split of a summed record as percentages of its
/// elapsed time (recovery, when present, is folded into the remainder).
pub fn fmt_split(s: &RoundStats) -> String {
    if s.elapsed_s <= 0.0 {
        return "—".to_owned();
    }
    let pct = |x: f64| (x / s.elapsed_s * 100.0).round();
    format!(
        "{:.0}/{:.0}/{:.0}%",
        pct(s.compute_s),
        pct(s.comm_s),
        pct(s.idle_s + s.recovery_s)
    )
}

/// A JSON value. `Display` is the only JSON writer in this crate: strings
/// are escaped, finite floats print in Rust's shortest round-trip form,
/// non-finite floats become `null`, object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An unsigned integer (counts, bytes, indices).
    U64(u64),
    /// A float; NaN and ±∞ are written as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, written in the order given.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(fields: [(&'static str, Json); N]) -> Json {
        Json::Obj(fields.into())
    }

    /// An array with one element per item of `items`.
    pub fn arr<T>(items: impl IntoIterator<Item = T>, f: impl FnMut(T) -> Json) -> Json {
        Json::Arr(items.into_iter().map(f).collect())
    }
}

macro_rules! json_from {
    ($($ty:ty => |$v:ident| $json:expr),* $(,)?) => {$(
        impl From<$ty> for Json {
            fn from($v: $ty) -> Json {
                $json
            }
        }
    )*};
}

json_from! {
    u64 => |v| Json::U64(v),
    usize => |v| Json::U64(v as u64),
    f64 => |v| Json::F64(v),
    &str => |v| Json::Str(v.to_owned()),
    String => |v| Json::Str(v),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        match self {
            Json::U64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{}:{value}", Json::from(*key))?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Per-run round telemetry as a JSON report: one entry per labeled run,
/// each with its folded totals and its per-round records (the
/// compute/comm/idle breakdown `--json` exists for).
pub fn round_stats_json<R: AsRef<[RoundStats]>>(report: &str, runs: &[(String, R)]) -> Json {
    let run_json = |(label, rounds): &(String, R)| {
        let rounds = rounds.as_ref();
        let s = summarize_rounds(rounds);
        Json::obj([
            ("label", label.as_str().into()),
            (
                "totals",
                Json::obj([
                    ("compute_s", s.compute_s.into()),
                    ("comm_s", s.comm_s.into()),
                    ("idle_s", s.idle_s.into()),
                    ("recovery_s", s.recovery_s.into()),
                    ("elapsed_s", s.elapsed_s.into()),
                    ("bytes", s.bytes.total().into()),
                    ("updates", s.updates.into()),
                ]),
            ),
            ("rounds", Json::arr(rounds.iter(), round_json)),
        ])
    };
    Json::obj([
        ("report", report.into()),
        ("runs", Json::arr(runs, run_json)),
    ])
}

fn round_json(r: &RoundStats) -> Json {
    Json::obj([
        ("round", r.round.into()),
        ("updates", r.updates.into()),
        ("flops", r.flops.into()),
        ("compute_s", r.compute_s.into()),
        ("comm_s", r.comm_s.into()),
        ("idle_s", r.idle_s.into()),
        ("recovery_s", r.recovery_s.into()),
        ("elapsed_s", r.elapsed_s.into()),
        (
            "bytes",
            Json::obj([
                ("broadcast", r.bytes.broadcast.into()),
                ("tree_aggregate", r.bytes.tree_aggregate.into()),
                ("reduce_scatter", r.bytes.reduce_scatter.into()),
                ("all_gather", r.bytes.all_gather.into()),
                ("ps_pull", r.bytes.ps_pull.into()),
                ("ps_push", r.bytes.ps_push.into()),
                ("total", r.bytes.total().into()),
            ]),
        ),
    ])
}

/// Concatenates trace CSVs (single header).
pub fn traces_to_csv(traces: &[&ConvergenceTrace]) -> String {
    let mut out = String::from("system,workload,step,time_s,objective,total_updates\n");
    for t in traces {
        let csv = t.to_csv();
        // Skip the per-trace header line.
        for line in csv.lines().skip(1) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Renders an ASCII convergence plot (objective vs. log₁₀ time), one
/// letter per system — a terminal rendition of the paper's right-hand
/// subplots.
pub fn ascii_convergence(traces: &[&ConvergenceTrace], width: usize, height: usize) -> String {
    let width = width.max(20);
    let height = height.max(5);
    let mut tmin = f64::INFINITY;
    let mut tmax: f64 = 0.0;
    let mut fmin = f64::INFINITY;
    let mut fmax = f64::NEG_INFINITY;
    for t in traces {
        for p in &t.points {
            let secs = p.time.as_secs_f64().max(1e-3);
            tmin = tmin.min(secs);
            tmax = tmax.max(secs);
            if p.objective.is_finite() {
                fmin = fmin.min(p.objective);
                fmax = fmax.max(p.objective);
            }
        }
    }
    if !tmin.is_finite() || fmin >= fmax {
        return String::from("(no plottable data)\n");
    }
    let (ltmin, ltmax) = (tmin.log10(), tmax.log10().max(tmin.log10() + 1e-9));
    let mut grid = vec![vec![' '; width]; height];
    // One letter per system; systems sharing an initial (MLlib vs MLlib*)
    // are told apart by their index digit.
    let code_of = |idx: usize| {
        let code = traces[idx].system.chars().next().unwrap_or('?');
        if traces[..idx].iter().any(|u| u.system.starts_with(code)) {
            char::from_digit(idx as u32 % 10, 10).unwrap_or('?')
        } else {
            code
        }
    };
    for (idx, t) in traces.iter().enumerate() {
        let code = code_of(idx);
        for p in &t.points {
            if !p.objective.is_finite() {
                continue;
            }
            let secs = p.time.as_secs_f64().max(1e-3);
            let x =
                ((secs.log10() - ltmin) / (ltmax - ltmin) * (width - 1) as f64).round() as usize;
            let y = ((fmax - p.objective) / (fmax - fmin) * (height - 1) as f64).round() as usize;
            grid[height - 1 - y.min(height - 1)][x.min(width - 1)] = code;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "objective {fmax:.3} (top) → {fmin:.3} (bottom); time {tmin:.2}s → {tmax:.1}s (log)\n"
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push_str("|\n");
    }
    out.push_str("legend: ");
    for (idx, t) in traces.iter().enumerate() {
        out.push_str(&format!("{}={} ", code_of(idx), t.system));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlstar_core::TracePoint;
    use mlstar_sim::{SimDuration, SimTime};

    fn trace(name: &str, pts: &[(u64, f64, f64)]) -> ConvergenceTrace {
        let mut t = ConvergenceTrace::new(name, "w");
        for &(step, secs, obj) in pts {
            t.push(TracePoint {
                step,
                time: SimTime::ZERO + SimDuration::from_secs_f64(secs),
                objective: obj,
                total_updates: step,
            });
        }
        t
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("name | value");
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("| name        | value |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_opt(Some(1.5), "s"), "1.50s");
        assert_eq!(fmt_opt(Some(f64::INFINITY), "s"), "∞");
        assert_eq!(fmt_opt(None, "s"), "—");
        assert_eq!(fmt_speedup(Some(12.34)), "12.3×");
        assert_eq!(fmt_speedup(None), "—");
    }

    #[test]
    fn csv_concatenation_has_single_header() {
        let a = trace("A", &[(0, 0.1, 1.0), (1, 1.0, 0.5)]);
        let b = trace("B", &[(0, 0.1, 1.0)]);
        let csv = traces_to_csv(&[&a, &b]);
        assert_eq!(csv.lines().filter(|l| l.starts_with("system,")).count(), 1);
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn ascii_plot_contains_both_series() {
        let a = trace("MLlib", &[(0, 0.1, 1.0), (1, 10.0, 0.8)]);
        let b = trace("MLlib*", &[(0, 0.1, 1.0), (1, 1.0, 0.2)]);
        let plot = ascii_convergence(&[&a, &b], 40, 10);
        assert!(plot.contains('M'));
        assert!(plot.contains('1'), "second trace disambiguated: {plot}");
        assert!(plot.contains("legend:"));
    }

    #[test]
    fn ascii_plot_handles_degenerate_input() {
        let a = trace("X", &[(0, 1.0, 0.5)]);
        let plot = ascii_convergence(&[&a], 40, 10);
        assert!(plot.contains("no plottable data"));
    }

    fn sample_round(round: u64) -> RoundStats {
        let mut r = RoundStats {
            round,
            updates: 3,
            flops: 1e6,
            compute_s: 0.6,
            comm_s: 0.3,
            idle_s: 0.08,
            recovery_s: 0.02,
            elapsed_s: 1.0,
            ..RoundStats::default()
        };
        r.bytes.broadcast = 100;
        r.bytes.tree_aggregate = 200;
        r
    }

    #[test]
    fn summary_folds_rounds() {
        let s = summarize_rounds(&[sample_round(0), sample_round(1)]);
        assert_eq!((s.round, s.updates, s.bytes.total()), (2, 6, 600));
        assert!((s.elapsed_s - 2.0).abs() < 1e-12);
        assert_eq!(fmt_split(&s), "60/30/10%");
        assert_eq!(fmt_split(&RoundStats::default()), "—");
    }

    #[test]
    fn json_writer_emits_exactly_this() {
        let v = Json::obj([
            ("name", "say \"hi\"\nbye\\".into()),
            ("nan", f64::NAN.into()),
            ("max", u64::MAX.into()),
            (
                "nested",
                Json::obj([("xs", Json::arr([0.5, -2.0, 1e-7], Json::from))]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        assert_eq!(
            v.to_string(),
            concat!(
                r#"{"name":"say \"hi\"\nbye\\","nan":null,"max":18446744073709551615,"#,
                r#""nested":{"xs":[0.5,-2,0.0000001]},"empty":[]}"#
            )
        );
    }

    #[test]
    fn artifacts_are_written() {
        std::env::set_var("MLSTAR_OUT", std::env::temp_dir().join("mlstar_bench_test"));
        let p = write_artifact("probe.csv", "a,b\n1,2\n");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "a,b\n1,2\n");
        std::fs::remove_file(p).ok();
        let p = write_json("probe.json", &Json::obj([("n", 1u64.into())]));
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "{\"n\":1}\n");
        std::fs::remove_file(p).ok();
        std::env::remove_var("MLSTAR_OUT");
    }
}
