//! CSV tuple I/O: the one observation row format.
//!
//! The paper's InfoSphere application reads "local regular text or binary
//! file with CSV formatted tuples" and periodically saves intermediate
//! results to disk. Every ingest path (file, followed file, TCP, HTTP,
//! backfill partitions) and every writer goes through the functions here:
//! one observation per line, comma-separated `f64` values. A gap is a
//! field that does not parse to a finite number and is written as `nan`.
//! Blank lines and `#` comments carry no row.

use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes observations as CSV, one vector per line.
pub fn write_csv<P: AsRef<Path>>(path: P, data: &[Vec<f64>]) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    for row in data {
        write_row(&mut w, row, None)?;
    }
    w.flush()
}

/// Writes one observation row. A bin whose `mask` entry is `false`, or
/// whose value is NaN, is written as `nan`.
pub fn write_row<W: Write>(
    w: &mut W,
    values: &[f64],
    mask: Option<&[bool]>,
) -> std::io::Result<()> {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        if v.is_nan() || mask.is_some_and(|m| !m[i]) {
            w.write_all(b"nan")?;
        } else {
            write!(w, "{v}")?;
        }
    }
    w.write_all(b"\n")
}

/// Writes gappy observations: missing bins are encoded as `nan`.
pub fn write_csv_masked<P: AsRef<Path>>(
    path: P,
    data: &[(Vec<f64>, Vec<bool>)],
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    for (flux, mask) in data {
        write_row(&mut w, flux, Some(mask))?;
    }
    w.flush()
}

/// The trimmed text of a data line; `None` for a blank or `#`-comment line.
pub fn data_text(line: &str) -> Option<&str> {
    let trimmed = line.trim();
    (!trimmed.is_empty() && !trimmed.starts_with('#')).then_some(trimmed)
}

/// Parses one CSV line into the caller's buffers, which are cleared and
/// refilled so a caller parsing many rows allocates only while a row is
/// wider than any before it. Returns `None` for a blank or `#`-comment
/// line (the buffers are left untouched) and otherwise `Some(all_observed)`.
/// A field that does not parse to a finite `f64` is a gap: its value is
/// `0.0` and its mask entry `false`.
pub fn parse_row_into(line: &str, values: &mut Vec<f64>, mask: &mut Vec<bool>) -> Option<bool> {
    let text = data_text(line)?;
    values.clear();
    mask.clear();
    let mut all_observed = true;
    for field in text.split(',') {
        match field.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => {
                values.push(v);
                mask.push(true);
            }
            _ => {
                values.push(0.0);
                mask.push(false);
                all_observed = false;
            }
        }
    }
    Some(all_observed)
}

/// Parses one CSV line; `None` for blank and `#`-comment lines.
pub fn parse_csv_line(line: &str) -> Option<(Vec<f64>, Vec<bool>)> {
    let mut values = Vec::new();
    let mut mask = Vec::new();
    parse_row_into(line, &mut values, &mut mask).map(|_| (values, mask))
}

/// Writes an eigensystem snapshot: first line the eigenvalues, then one
/// line per eigenvector, then the mean — the paper's "intermediate
/// calculation results are periodically saved to the disk".
pub fn write_eigensystem_csv<P: AsRef<Path>>(
    path: P,
    values: &[f64],
    eigenvectors: &[Vec<f64>],
    mean: &[f64],
) -> std::io::Result<()> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    writeln!(w, "# eigenvalues")?;
    write_row(&mut w, values, None)?;
    writeln!(w, "# eigenvectors (one per line)")?;
    for ev in eigenvectors {
        write_row(&mut w, ev, None)?;
    }
    writeln!(w, "# mean")?;
    write_row(&mut w, mean, None)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spca_io_test_{}_{name}", std::process::id()));
        p
    }

    /// Every data row of a CSV file, through [`parse_csv_line`].
    fn read_rows(path: &Path) -> Vec<(Vec<f64>, Vec<bool>)> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter_map(parse_csv_line)
            .collect()
    }

    #[test]
    fn csv_round_trip() {
        let path = tmp("round");
        let data = vec![vec![1.0, 2.5, -3.0], vec![0.0, 1e-8, 4.0]];
        write_csv(&path, &data).unwrap();
        let back = read_rows(&path);
        assert_eq!(back.len(), 2);
        for (row, (vals, mask)) in data.iter().zip(&back) {
            assert_eq!(row, vals);
            assert!(mask.iter().all(|&m| m));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn masked_round_trip() {
        let path = tmp("masked");
        let data = vec![(vec![1.0, 2.0, 3.0], vec![true, false, true])];
        write_csv_masked(&path, &data).unwrap();
        let back = read_rows(&path);
        assert_eq!(back[0].1, vec![true, false, true]);
        assert_eq!(back[0].0[0], 1.0);
        assert_eq!(back[0].0[1], 0.0); // missing → 0.0 placeholder
        assert_eq!(back[0].0[2], 3.0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n1.0,2.0\n# trailing\n3.0,4.0\n";
        let back: Vec<_> = text.lines().filter_map(parse_csv_line).collect();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].0, vec![3.0, 4.0]);
    }

    #[test]
    fn write_row_encodes_masked_bins_and_nan_as_nan() {
        let mut out = Vec::new();
        write_row(
            &mut out,
            &[1.0, 7.0, f64::NAN, 0.5],
            Some(&[true, false, true, true]),
        )
        .unwrap();
        write_row(&mut out, &[f64::NAN, -2.0], None).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "1,nan,nan,0.5\nnan,-2\n");
    }

    #[test]
    fn parse_row_into_reuses_buffers_and_skips_non_data_lines() {
        let mut values = vec![9.0; 4];
        let mut mask = vec![false; 4];
        assert_eq!(parse_row_into("  # note", &mut values, &mut mask), None);
        assert_eq!(values.len(), 4, "a skipped line leaves the buffers alone");
        assert_eq!(
            parse_row_into(" 1 , 2\r\n", &mut values, &mut mask),
            Some(true)
        );
        assert_eq!(
            (values.as_slice(), mask.as_slice()),
            (&[1.0, 2.0][..], &[true, true][..])
        );
        assert_eq!(
            parse_row_into("inf,,x,3", &mut values, &mut mask),
            Some(false)
        );
        assert_eq!(values, vec![0.0, 0.0, 0.0, 3.0]);
        assert_eq!(mask, vec![false, false, false, true]);
    }

    #[test]
    fn eigensystem_snapshot_is_readable() {
        let path = tmp("eig");
        write_eigensystem_csv(
            &path,
            &[3.0, 1.0],
            &[vec![1.0, 0.0], vec![0.0, 1.0]],
            &[0.5, 0.5],
        )
        .unwrap();
        let back = read_rows(&path);
        assert_eq!(back.len(), 4); // values + 2 vectors + mean
        assert_eq!(back[0].0, vec![3.0, 1.0]);
        std::fs::remove_file(path).ok();
    }
}
