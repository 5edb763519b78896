//! ASCII table rendering.

/// Horizontal alignment of one column's cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (the default for every column).
    #[default]
    Left,
    /// Right-aligned — what numeric columns want.
    Right,
}

/// A simple column-aligned table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            aligns: Vec::new(),
        }
    }

    /// Right-aligns the columns at `indices` (0-based). Columns not named
    /// stay left-aligned, so existing tables render unchanged.
    pub fn align_right(mut self, indices: &[usize]) -> Table {
        let max = indices.iter().copied().max().map_or(0, |m| m + 1);
        if self.aligns.len() < max {
            self.aligns.resize(max, Align::Left);
        }
        for &i in indices {
            self.aligns[i] = Align::Right;
        }
        self
    }

    /// Appends one row (stringified cells).
    pub fn row<S: ToString>(&mut self, cells: &[S]) -> &mut Table {
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.chars().count());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");

        let fmt_row = |cells: &[String]| -> String {
            (0..ncols)
                .map(|i| {
                    let cell = cells.get(i).map(String::as_str).unwrap_or("");
                    match self.aligns.get(i).copied().unwrap_or_default() {
                        Align::Left => format!(" {cell:<width$} ", width = widths[i]),
                        Align::Right => format!(" {cell:>width$} ", width = widths[i]),
                    }
                })
                .collect::<Vec<_>>()
                .join("|")
        };

        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a percentage with one decimal.
pub fn fmt_pct(value: f64) -> String {
    format!("{value:.1}%")
}

/// Formats a count with thousands separators.
pub fn fmt_count(n: usize) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Domain", "Sites"]);
        t.row(&["exoclick.com", "2709"]);
        t.row(&["x.party", "18"]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // Column alignment: all rows same display width.
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn right_aligned_columns_pad_on_the_left() {
        let mut t = Table::new("Demo", &["Domain", "Sites"]).align_right(&[1]);
        t.row(&["exoclick.com", "2,709"]);
        t.row(&["x.party", "18"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // Narrow numbers shift right: "18" ends where "2,709" ends.
        assert!(lines[3].ends_with("2,709 "));
        assert!(lines[4].ends_with("   18 "));
        // Width alignment is preserved.
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(5), "5");
        assert_eq!(fmt_count(6843), "6,843");
        assert_eq!(fmt_count(1202312), "1,202,312");
        assert_eq!(fmt_pct(43.21), "43.2%");
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("R", &["a", "b", "c"]);
        t.row(&["1"]);
        t.row(&["1", "2", "3"]);
        let s = t.render();
        assert_eq!(s.lines().count(), 5);
    }
}
