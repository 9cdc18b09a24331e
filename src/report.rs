//! Plain-text table rendering for the figure benches.
//!
//! Every bench prints its figure/table as aligned rows so the output can
//! be compared side-by-side with the paper (see `EXPERIMENTS.md`).

use std::fmt::Write as _;

/// A simple aligned-column table builder.
///
/// # Examples
///
/// ```
/// let mut t = zng::Table::new(vec!["workload".into(), "IPC".into()]);
/// t.row(vec!["betw-back".into(), "0.512".into()]);
/// let s = t.render();
/// assert!(s.contains("betw-back"));
/// assert!(s.contains("IPC"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (short rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        self.rows.push(cells);
        self
    }

    /// The table's headline metric: the label of the first data row that
    /// contains a numeric cell, paired with that cell's value.
    ///
    /// Benches use this to export one representative number per figure
    /// into `BENCH.json` (see `scripts/bench.sh`).
    ///
    /// # Examples
    ///
    /// ```
    /// let mut t = zng::Table::new(vec!["w".into(), "IPC".into()]);
    /// t.row(vec!["betw".into(), "0.512".into()]);
    /// assert_eq!(t.headline(), Some(("betw".into(), 0.512)));
    /// ```
    pub fn headline(&self) -> Option<(String, f64)> {
        self.rows.iter().find_map(|r| {
            let label = r.first()?.clone();
            r.iter()
                .skip(1)
                .find_map(|c| c.trim().parse::<f64>().ok().filter(|v| v.is_finite()))
                .map(|v| (label, v))
        })
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        fn cell(r: &[String], c: usize) -> &str {
            r.get(c).map(String::as_str).unwrap_or("")
        }
        for (c, w) in widths.iter_mut().enumerate() {
            *w = std::iter::once(cell(&self.headers, c).len())
                .chain(self.rows.iter().map(|r| cell(r, c).len()))
                .max()
                .unwrap_or(0);
        }
        let mut out = String::new();
        let write_row = |out: &mut String, r: &[String]| {
            for (c, width) in widths.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", cell(r, c), width = width);
            }
            let _ = writeln!(out);
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }

    /// Prints the table to stdout with a title line.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
                                    // The second column starts at the same offset in every row.
        let col = lines[0].find("bbbb").unwrap();
        assert_eq!(&lines[2][col..col + 1], "1");
        assert_eq!(&lines[3][col..col + 2], "22");
    }

    #[test]
    fn headline_finds_first_numeric_cell() {
        let mut t = Table::new(vec!["w".into(), "note".into(), "IPC".into()]);
        t.row(vec!["hdr".into(), "n/a".into(), "n/a".into()]);
        t.row(vec!["betw".into(), "ok".into(), "1.250".into()]);
        // The first row has no parseable number, so the second wins.
        assert_eq!(t.headline(), Some(("betw".into(), 1.25)));
        assert_eq!(Table::default().headline(), None);
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains('3'));
    }
}
