//! The percentage helper shared by the analysis crates.

/// Percentage `part / whole * 100`, `0.0` when `whole == 0`.
pub fn pct(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_handles_zero_whole() {
        assert_eq!(pct(1, 0), 0.0);
        assert_eq!(pct(1, 4), 25.0);
    }
}
