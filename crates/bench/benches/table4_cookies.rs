//! Table 4 + §5.1.1 — the HTTP-cookie pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_analysis::{cookies, thirdparty};
use redlight_bench::{criterion as bench_criterion, Fixture};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let f = Fixture::small();
    let client_ip = f.porn.client_ip;
    let rows = cookies::collect(&f.porn);
    let stats = cookies::stats(&f.porn, &rows, client_ip);
    println!(
        "§5.1.1: {} cookies on {:.0}% of sites; {} ID cookies; {} third-party from {} domains ({:.0}% of sites)",
        stats.total_cookies,
        stats.sites_with_cookies_pct,
        stats.id_cookies,
        stats.third_party_id_cookies,
        stats.third_party_domains,
        stats.sites_with_third_party_pct,
    );
    println!(
        "encoded: {} IP cookies ({:.0}% top family), {} geo cookies via {:?} — paper: 2,183 (97%), 28",
        stats.ip_cookies, stats.ip_cookies_top_org_pct, stats.geo_cookies, stats.geo_cookie_domains
    );
    let regular_extract = thirdparty::extract(&f.regular, true);
    let classifier = f.classifier();
    for row in cookies::table4(
        &f.porn,
        &rows,
        &classifier,
        &regular_extract.third_party_fqdns,
        client_ip,
        5,
    ) {
        println!(
            "  {:<18} {:>5.1}% of sites, {:>4} cookies, ip {:>5.1}%",
            row.domain, row.site_pct, row.cookies, row.ip_pct
        );
    }

    c.bench_function("table4/cookie_collection", |b| {
        b.iter(|| cookies::collect(black_box(&f.porn)))
    });
    c.bench_function("table4/cookie_stats", |b| {
        b.iter(|| cookies::stats(black_box(&f.porn), black_box(&rows), client_ip))
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
