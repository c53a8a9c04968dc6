//! Table emission for the experiments: every experiment prints its
//! rows as aligned markdown (for humans) and writes CSV (for plotting).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple rectangular table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "ragged table row");
        self.rows.push(row);
    }

    /// Renders aligned GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let emit_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, " {:w$} |", c, w = widths[i]);
            }
            out.push('\n');
        };
        emit_row(&mut out, &self.headers);
        out.push('|');
        for w in &widths {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            emit_row(&mut out, row);
        }
        out
    }

    /// Renders RFC-4180-style CSV (cells containing commas, quotes, or
    /// newlines are quoted; embedded quotes are doubled).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &String| {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        out.push_str(&self.headers.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to `results/<name>.csv` under `dir`, creating
    /// directories as needed, and returns the path written.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<std::path::PathBuf> {
        let dir = dir.as_ref().join("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Formats a float with 3 significant decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio as a percentage with sign ("+18.2%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new(["a", "model"]);
        t.row(["1", "in-order"]);
        t.row(["22", "sst"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("| a  | model"));
        assert!(lines[2].contains("| 1  | in-order |"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new(["x", "y"]);
        t.row(["1", "2"]);
        let csv = t.to_csv();
        assert_eq!(csv, "x,y\n1,2\n");
    }

    #[test]
    #[should_panic]
    fn ragged_rows_rejected() {
        let mut t = Table::new(["x", "y"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(["a"]);
        t.row(["32 KiB, 4-way"]);
        t.row(["say \"hi\""]);
        assert_eq!(t.to_csv(), "a\n\"32 KiB, 4-way\"\n\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(1.182), "+18.2%");
        assert_eq!(pct(0.95), "-5.0%");
    }

    #[test]
    fn write_csv_creates_results_dir() {
        let tmp = std::env::temp_dir().join(format!("sst-sim-test-{}", std::process::id()));
        let mut t = Table::new(["a"]);
        t.row(["b"]);
        let p = t.write_csv(&tmp, "t").unwrap();
        assert!(p.exists());
        std::fs::remove_dir_all(&tmp).ok();
    }
}
