//! LIBSVM text-format reader and writer.
//!
//! The paper's public datasets (avazu, url, kddb, kdd12) are distributed in
//! this format from the LIBSVM dataset collection. Lines look like:
//!
//! ```text
//! +1 3:1.0 17:0.5 1024:1.0
//! -1 2:1.0 99:2.5
//! ```
//!
//! Indices are **1-based** in the file and converted to 0-based in memory.
//! Labels `0`/`1` are normalized to `−1`/`+1`.

use std::io::{BufRead, Write};

use mlstar_linalg::SparseVector;

use crate::{DataError, SparseDataset};

/// A parsed row awaiting dimension resolution: its 1-based file line (so
/// second-pass errors point at the right line even when blank/comment
/// lines were skipped), its `(index, value)` pairs, and its label.
type ParsedRow = (usize, Vec<(u32, f64)>, f64);

/// Parses a LIBSVM-format stream into a dataset.
///
/// `num_features` bounds the dimensionality; pass 0 to infer it as
/// (max index seen) and the dataset is then rebuilt with that dimension.
/// Blank lines and lines starting with `#` are skipped.
pub fn read<R: BufRead>(reader: R, num_features: usize) -> Result<SparseDataset, DataError> {
    let mut parsed: Vec<ParsedRow> = Vec::new();
    let mut max_index: usize = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut tokens = trimmed.split_whitespace();
        let label_tok = tokens.next().ok_or_else(|| DataError::Parse {
            line: lineno + 1,
            message: "missing label".into(),
        })?;
        let raw_label: f64 = label_tok.parse().map_err(|_| DataError::Parse {
            line: lineno + 1,
            message: format!("invalid label {label_tok:?}"),
        })?;
        let label = normalize_label(raw_label).ok_or_else(|| DataError::Parse {
            line: lineno + 1,
            message: format!("label {raw_label} is not one of -1, 0, +1"),
        })?;
        let mut pairs = Vec::new();
        for tok in tokens {
            let (idx_str, val_str) = tok.split_once(':').ok_or_else(|| DataError::Parse {
                line: lineno + 1,
                message: format!("expected index:value, got {tok:?}"),
            })?;
            let idx: usize = idx_str.parse().map_err(|_| DataError::Parse {
                line: lineno + 1,
                message: format!("invalid index {idx_str:?}"),
            })?;
            if idx == 0 {
                return Err(DataError::Parse {
                    line: lineno + 1,
                    message: "LIBSVM indices are 1-based; found 0".into(),
                });
            }
            let val: f64 = val_str.parse().map_err(|_| DataError::Parse {
                line: lineno + 1,
                message: format!("invalid value {val_str:?}"),
            })?;
            max_index = max_index.max(idx);
            pairs.push(((idx - 1) as u32, val));
        }
        parsed.push((lineno + 1, pairs, label));
    }

    let dim = if num_features == 0 {
        max_index
    } else {
        num_features
    };
    let mut ds = SparseDataset::empty(dim);
    for (file_line, pairs, label) in parsed {
        let row = SparseVector::from_pairs(dim, &pairs).map_err(|e| DataError::Parse {
            line: file_line,
            message: e.to_string(),
        })?;
        ds.push(row, label);
    }
    Ok(ds)
}

/// Parses LIBSVM text held in a string.
pub fn read_str(text: &str, num_features: usize) -> Result<SparseDataset, DataError> {
    read(std::io::Cursor::new(text), num_features)
}

/// Loads a LIBSVM file from disk.
pub fn read_file(
    path: impl AsRef<std::path::Path>,
    num_features: usize,
) -> Result<SparseDataset, DataError> {
    let file = std::fs::File::open(path)?;
    read(std::io::BufReader::new(file), num_features)
}

/// Writes a dataset in LIBSVM format (1-based indices, `+1`/`-1` labels).
pub fn write<W: Write>(dataset: &SparseDataset, mut writer: W) -> Result<(), DataError> {
    for (row, &label) in dataset.rows().iter().zip(dataset.labels().iter()) {
        if label > 0.0 {
            write!(writer, "+1")?;
        } else {
            write!(writer, "-1")?;
        }
        for (i, v) in row.iter() {
            write!(writer, " {}:{}", i + 1, v)?;
        }
        writeln!(writer)?;
    }
    Ok(())
}

/// Writes a dataset as a LIBSVM string.
pub fn write_string(dataset: &SparseDataset) -> String {
    let mut buf = Vec::new();
    write(dataset, &mut buf).expect("writing to a Vec cannot fail"); // lint:allow(panic_in_lib): Vec<u8> io::Write is infallible
    String::from_utf8(buf).expect("LIBSVM output is ASCII") // lint:allow(panic_in_lib): the writer emits ASCII only
}

/// A streaming LIBSVM reader that yields fixed-size chunks of examples —
/// the out-of-core path for datasets larger than memory (the paper's WX
/// is 434 GB). The dimensionality must be known upfront (streaming cannot
/// infer it).
///
/// # Examples
///
/// ```
/// use mlstar_data::libsvm::ChunkedReader;
///
/// let text = "+1 1:1\n-1 2:1\n+1 1:2\n";
/// let mut reader = ChunkedReader::new(std::io::Cursor::new(text), 4, 2);
/// let first = reader.next_chunk().unwrap().unwrap();
/// assert_eq!(first.len(), 2);
/// let second = reader.next_chunk().unwrap().unwrap();
/// assert_eq!(second.len(), 1);
/// assert!(reader.next_chunk().unwrap().is_none());
/// ```
pub struct ChunkedReader<R: BufRead> {
    reader: R,
    num_features: usize,
    chunk_rows: usize,
    line_no: usize,
    buf: String,
    done: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Creates a chunked reader over `reader` with the given dimensionality
    /// and chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `num_features == 0` or `chunk_rows == 0`.
    pub fn new(reader: R, num_features: usize, chunk_rows: usize) -> Self {
        assert!(
            num_features > 0,
            "streaming requires a known dimensionality"
        );
        assert!(chunk_rows > 0, "chunks must hold at least one row");
        ChunkedReader {
            reader,
            num_features,
            chunk_rows,
            line_no: 0,
            buf: String::new(),
            done: false,
        }
    }

    /// Reads the next chunk; `Ok(None)` at end of input. Blank/comment
    /// lines are skipped and do not count toward the chunk size.
    pub fn next_chunk(&mut self) -> Result<Option<SparseDataset>, DataError> {
        if self.done {
            return Ok(None);
        }
        let mut chunk = SparseDataset::empty(self.num_features);
        while chunk.len() < self.chunk_rows {
            self.buf.clear();
            let n = self.reader.read_line(&mut self.buf)?;
            if n == 0 {
                self.done = true;
                break;
            }
            self.line_no += 1;
            let trimmed = self.buf.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (row, label) = parse_line(trimmed, self.num_features, self.line_no)?;
            chunk.push(row, label);
        }
        if chunk.is_empty() {
            Ok(None)
        } else {
            Ok(Some(chunk))
        }
    }
}

impl<R: BufRead> Iterator for ChunkedReader<R> {
    type Item = Result<SparseDataset, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_chunk().transpose()
    }
}

/// Parses one LIBSVM line into a row and normalized label.
fn parse_line(
    trimmed: &str,
    num_features: usize,
    line_no: usize,
) -> Result<(SparseVector, f64), DataError> {
    let mut tokens = trimmed.split_whitespace();
    let label_tok = tokens.next().ok_or_else(|| DataError::Parse {
        line: line_no,
        message: "missing label".into(),
    })?;
    let raw_label: f64 = label_tok.parse().map_err(|_| DataError::Parse {
        line: line_no,
        message: format!("invalid label {label_tok:?}"),
    })?;
    let label = normalize_label(raw_label).ok_or_else(|| DataError::Parse {
        line: line_no,
        message: format!("label {raw_label} is not one of -1, 0, +1"),
    })?;
    let mut pairs = Vec::new();
    for tok in tokens {
        let (idx_str, val_str) = tok.split_once(':').ok_or_else(|| DataError::Parse {
            line: line_no,
            message: format!("expected index:value, got {tok:?}"),
        })?;
        let idx: usize = idx_str.parse().map_err(|_| DataError::Parse {
            line: line_no,
            message: format!("invalid index {idx_str:?}"),
        })?;
        if idx == 0 {
            return Err(DataError::Parse {
                line: line_no,
                message: "LIBSVM indices are 1-based; found 0".into(),
            });
        }
        let val: f64 = val_str.parse().map_err(|_| DataError::Parse {
            line: line_no,
            message: format!("invalid value {val_str:?}"),
        })?;
        pairs.push(((idx - 1) as u32, val));
    }
    let row = SparseVector::from_pairs(num_features, &pairs).map_err(|e| DataError::Parse {
        line: line_no,
        message: e.to_string(),
    })?;
    Ok((row, label))
}

/// Maps raw file labels to the `±1` convention: `+1`/`1` → `+1`,
/// `-1`/`0` → `−1`. Other values are rejected.
fn normalize_label(raw: f64) -> Option<f64> {
    // lint:allow(float_eq): labels are exact sentinels, not measurements
    if raw == 1.0 {
        Some(1.0)
    // lint:allow(float_eq): labels are exact sentinels, not measurements
    } else if raw == -1.0 || raw == 0.0 {
        Some(-1.0)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let text = "+1 1:1.0 3:2.5\n-1 2:0.5\n";
        let ds = read_str(text, 4).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.num_features(), 4);
        assert_eq!(ds.labels(), &[1.0, -1.0]);
        assert_eq!(ds.rows()[0].get(0), 1.0);
        assert_eq!(ds.rows()[0].get(2), 2.5);
        assert_eq!(ds.rows()[1].get(1), 0.5);
    }

    #[test]
    fn infers_dimension_when_zero() {
        let ds = read_str("+1 7:1\n-1 3:1\n", 0).unwrap();
        assert_eq!(ds.num_features(), 7);
    }

    #[test]
    fn normalizes_zero_one_labels() {
        let ds = read_str("1 1:1\n0 1:1\n", 2).unwrap();
        assert_eq!(ds.labels(), &[1.0, -1.0]);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let ds = read_str("# header\n\n+1 1:1\n   \n-1 1:2\n", 1).unwrap();
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_str("banana 1:1\n", 2),
            Err(DataError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_str("+1 notapair\n", 2),
            Err(DataError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_str("+1 0:1\n", 2),
            Err(DataError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_str("+1 2:xyz\n", 2),
            Err(DataError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            read_str("3 1:1\n", 2),
            Err(DataError::Parse { line: 1, .. })
        ));
        assert!(matches!(read_str("\n+1\n", 2), Ok(ds) if ds.len() == 1));
    }

    #[test]
    fn rejects_out_of_bounds_index_for_fixed_dim() {
        let err = read_str("+1 9:1\n", 4).unwrap_err();
        assert!(matches!(err, DataError::Parse { .. }));
    }

    #[test]
    fn out_of_bounds_error_reports_file_line_past_blanks() {
        // The bad row is on file line 4; two skipped lines (a comment and
        // a blank) precede it, so the parsed-row index would be 2. The
        // error must name the file line.
        let err = read_str("# header\n+1 1:1\n\n+1 9:1\n", 4).unwrap_err();
        assert!(
            matches!(err, DataError::Parse { line: 4, .. }),
            "expected line 4, got {err}"
        );
        // Same shape with a mid-file blank only.
        let err = read_str("+1 1:1\n\n+1 9:1\n", 4).unwrap_err();
        assert!(
            matches!(err, DataError::Parse { line: 3, .. }),
            "expected line 3, got {err}"
        );
    }

    #[test]
    fn roundtrips_through_write() {
        let text = "+1 1:1 3:2.5\n-1 2:0.5\n";
        let ds = read_str(text, 4).unwrap();
        let out = write_string(&ds);
        let ds2 = read_str(&out, 4).unwrap();
        assert_eq!(ds, ds2);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mlstar_libsvm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.libsvm");
        let ds = read_str("+1 1:1\n-1 2:1\n", 2).unwrap();
        std::fs::write(&path, write_string(&ds)).unwrap();
        let loaded = read_file(&path, 2).unwrap();
        assert_eq!(ds, loaded);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_reader_streams_in_order() {
        let ds = crate::SyntheticConfig::small("chunked", 47, 10).generate();
        let text = write_string(&ds);
        let mut chunks = Vec::new();
        for chunk in ChunkedReader::new(std::io::Cursor::new(text), 10, 10) {
            chunks.push(chunk.expect("valid chunk"));
        }
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks.last().unwrap().len(), 7);
        // Concatenation reproduces the dataset.
        let mut rebuilt = SparseDataset::empty(10);
        for c in &chunks {
            for (row, &label) in c.rows().iter().zip(c.labels().iter()) {
                rebuilt.push(row.clone(), label);
            }
        }
        assert_eq!(rebuilt.len(), ds.len());
        assert_eq!(rebuilt.labels(), ds.labels());
    }

    #[test]
    fn chunked_reader_skips_comments_and_reports_errors() {
        let text = "# header\n+1 1:1\n\nbad line\n";
        let mut r = ChunkedReader::new(std::io::Cursor::new(text), 4, 8);
        let err = r.next_chunk().unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 4, .. }), "{err}");
    }

    #[test]
    fn chunked_reader_handles_empty_input() {
        let mut r = ChunkedReader::new(std::io::Cursor::new(""), 4, 8);
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.next_chunk().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    #[should_panic(expected = "known dimensionality")]
    fn chunked_reader_rejects_zero_dim() {
        let _ = ChunkedReader::new(std::io::Cursor::new(""), 0, 8);
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            read_file("/nonexistent/definitely/missing.libsvm", 0),
            Err(DataError::Io(_))
        ));
    }
}
