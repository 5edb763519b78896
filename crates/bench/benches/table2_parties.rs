//! Table 2 — first/third-party domain counts, porn vs regular.

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_analysis::{ats, thirdparty};
use redlight_bench::{criterion as bench_criterion, Fixture};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = Fixture::small();
    let classifier = f.classifier();
    let porn_extract = thirdparty::extract(&f.porn, true);
    let regular_extract = thirdparty::extract(&f.regular, true);
    let t2 = ats::table2(
        &f.porn,
        &porn_extract,
        &f.regular,
        &regular_extract,
        &classifier,
    );
    println!(
        "Table 2 (regenerated): porn 3rd-party {} / regular 3rd-party {} / ATS {}+{} (∩ {})",
        t2.porn_third_party,
        t2.regular_third_party,
        t2.porn_ats,
        t2.regular_ats,
        t2.ats_intersection
    );
    println!("paper: 5,457 / 21,128 / 663+196 (∩ 86) at 20× this scale");

    c.bench_function("table2/third_party_extraction", |b| {
        b.iter(|| thirdparty::extract(black_box(&f.porn), true))
    });
    c.bench_function("table2/ats_classification", |b| {
        b.iter(|| {
            ats::table2(
                black_box(&f.porn),
                black_box(&porn_extract),
                black_box(&f.regular),
                black_box(&regular_extract),
                black_box(&classifier),
            )
        })
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
