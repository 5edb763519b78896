//! Quickstart: run the full study end-to-end at a reduced scale and print
//! every table and figure, plus a paper-vs-measured comparison for the
//! headline results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use redlight::report::paper;
use redlight::{Study, StudyConfig};

/// The headline percentages compared with the paper.
const HEADLINES: [&str; 6] = [
    "fig3.exoclick_pct",
    "cookies.sites_pct",
    "cookies.third_party_sites_pct",
    "table8.eu_total_pct",
    "policies.with_policy_pct",
    "policies.similar_pairs_pct",
];

fn main() {
    let t0 = std::time::Instant::now();
    // A ~20×-scaled-down world: ~340 porn sites, ~480 regular sites,
    // six-country crawl. The full paper-scale study is
    // `StudyConfig::paper_scale(seed)` (see the `reproduce` binary).
    let results = Study::run(StudyConfig::small(42));
    eprintln!("study completed in {:?}", t0.elapsed());

    println!("{}", results.render_summary());

    // Headline shape checks against the paper's published values, in paper
    // order. At this reduced scale the percentages should already line up;
    // absolute counts scale with the world size.
    let rows: Vec<_> = results
        .comparisons(20.0)
        .into_iter()
        .filter(|c| HEADLINES.contains(&c.key))
        .collect();
    println!(
        "{}",
        paper::render_comparisons("Headline shape checks", &rows)
    );
}
