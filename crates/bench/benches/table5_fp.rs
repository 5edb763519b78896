//! Table 5 + §5.1.3/§5.1.4 — fingerprinting detection.

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_analysis::{fingerprint, thirdparty, webrtc};
use redlight_bench::{criterion as bench_criterion, Fixture};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = Fixture::small();
    let classifier = f.classifier();
    let fp = fingerprint::detect(&f.porn, &classifier);
    let rtc = webrtc::detect(&f.porn, &classifier);
    println!(
        "canvas: {} scripts / {} sites / {} services; {:.0}% third-party; {:.0}% unindexed; {} decoys rejected",
        fp.canvas_scripts.len(),
        fp.canvas_sites.len(),
        fp.canvas_services.len(),
        fp.third_party_script_pct,
        fp.unindexed_pct,
        fp.rejected_executions,
    );
    println!("paper: 245 / 315 / 49; 74%; 91%");
    println!(
        "font: {} script(s) on {} site(s) [paper: 1] — webrtc: {} scripts / {} sites / {} services ({} ATS) [paper: 27/177/13 (2)]",
        fp.font_scripts.len(),
        fp.font_sites.len(),
        rtc.scripts.len(),
        rtc.sites.len(),
        rtc.services.len(),
        rtc.ats_services.len(),
    );
    let porn_extract = thirdparty::extract(&f.porn, true);
    let regular_extract = thirdparty::extract(&f.regular, true);
    for row in fingerprint::table5(&fp, &rtc, &porn_extract, &regular_extract, &classifier, 10) {
        println!(
            "  {:<24} {:>4} sites  canvas {:>2}  webrtc {:>2}  ats {}",
            row.domain, row.presence, row.canvas_scripts, row.webrtc_scripts, row.is_ats
        );
    }

    c.bench_function("table5/canvas_detection", |b| {
        b.iter(|| fingerprint::detect(black_box(&f.porn), black_box(&classifier)))
    });
    c.bench_function("table5/webrtc_detection", |b| {
        b.iter(|| webrtc::detect(black_box(&f.porn), black_box(&classifier)))
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
