//! Textual figure rendering: downsampled series and sparkline-style output
//! for the paper's figures.

/// A named numeric series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Name.
    pub name: String,
    /// Values.
    pub values: Vec<f64>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: &str, values: Vec<f64>) -> Series {
        Series {
            name: name.to_string(),
            values,
        }
    }

    /// Downsamples to at most `n` points (mean-pooled buckets).
    fn downsample(&self, n: usize) -> Vec<f64> {
        if self.values.is_empty() || n == 0 {
            return Vec::new();
        }
        if self.values.len() <= n {
            return self.values.clone();
        }
        let bucket = self.values.len() as f64 / n as f64;
        (0..n)
            .map(|i| {
                let start = (i as f64 * bucket) as usize;
                let end = (((i + 1) as f64 * bucket) as usize).min(self.values.len());
                let slice = &self.values[start..end.max(start + 1)];
                slice.iter().sum::<f64>() / slice.len() as f64
            })
            .collect()
    }

    /// Unicode sparkline over ≤ `width` buckets.
    fn sparkline(&self, width: usize) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let pts = self.downsample(width);
        if pts.is_empty() {
            return String::new();
        }
        let (min, max) = pts
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let span = (max - min).max(f64::EPSILON);
        pts.iter()
            .map(|&v| {
                let idx = (((v - min) / span) * 7.0).round() as usize;
                BARS[idx.min(7)]
            })
            .collect()
    }
}

/// Renders a figure: one sparkline per series, labeled with min/max.
pub fn render(title: &str, series: &[Series], width: usize) -> String {
    let mut out = format!("== {title} ==\n");
    for s in series {
        let (min, max) = s
            .values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        if s.values.is_empty() {
            out.push_str(&format!("{:<24} (empty)\n", s.name));
        } else {
            out.push_str(&format!(
                "{:<24} {}  [{:.3e} .. {:.3e}]\n",
                s.name,
                s.sparkline(width),
                min,
                max
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsampling_preserves_mean_shape() {
        let s = Series::new("ramp", (0..100).map(|i| i as f64).collect());
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert!(d.windows(2).all(|w| w[0] < w[1]), "monotonic ramp survives");
        // Short series pass through.
        let short = Series::new("s", vec![1.0, 2.0]);
        assert_eq!(short.downsample(10), vec![1.0, 2.0]);
    }

    #[test]
    fn sparkline_spans_the_alphabet() {
        let s = Series::new("ramp", (0..64).map(|i| i as f64).collect());
        let line = s.sparkline(16);
        assert_eq!(line.chars().count(), 16);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn render_includes_labels() {
        let fig = render(
            "Figure 1",
            &[Series::new("best rank", vec![22.0, 500.0, 900000.0])],
            8,
        );
        assert!(fig.contains("Figure 1"));
        assert!(fig.contains("best rank"));
        let empty = render("E", &[Series::new("none", vec![])], 8);
        assert!(empty.contains("(empty)"));
    }
}
