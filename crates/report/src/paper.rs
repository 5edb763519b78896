//! Paper-vs-measured comparison rows and their markdown rendering, the
//! format of EXPERIMENTS.md. The findings themselves (source, paper value,
//! tolerance, and how a run measures each) are one table in
//! `redlight-core`, whose `StudyResults::comparisons` produces the rows.

/// One measured-vs-paper comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Key.
    pub key: &'static str,
    /// Source.
    pub source: &'static str,
    /// Paper.
    pub paper: f64,
    /// Measured.
    pub measured: f64,
    /// Within tolerance.
    pub within_tolerance: bool,
}

/// Renders comparison rows as a markdown table (EXPERIMENTS.md format).
pub fn render_comparisons(title: &str, rows: &[Comparison]) -> String {
    let mut out =
        format!("### {title}\n\n| metric | paper | measured | shape |\n|---|---|---|---|\n");
    for c in rows {
        out.push_str(&format!(
            "| `{}` ({}) | {:.5} | {:.5} | {} |\n",
            c.key,
            c.source,
            c.paper,
            c.measured,
            if c.within_tolerance {
                "✓"
            } else {
                "✗ drift"
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let rows = vec![Comparison {
            key: "fig1.always_top1m_pct",
            source: "Fig. 1 / §3",
            paper: 16.0,
            measured: 15.5,
            within_tolerance: true,
        }];
        let md = render_comparisons("Fig. 1", &rows);
        assert!(md.contains("| `fig1.always_top1m_pct` (Fig. 1 / §3) | 16.00000 | 15.50000 | ✓ |"));
    }
}
