//! ATS matching engine — the linear-scan reference, the token-indexed
//! `FilterSet`, and the same set with its Aho-Corasick scan prefilter
//! built, which is the matcher `AtsClassifier` runs in the pipeline.
//!
//! The workload is every completed request of the Spanish porn crawl
//! (url, page host, request host, resource kind). Before timing anything
//! the bench asserts that both indexed engines agree with
//! [`LinearFilterSet`] on every single request, so the numbers always
//! compare equivalent engines.

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_bench::{criterion as bench_criterion, Fixture};
use redlight_blocklist::filter::RequestContext;
use redlight_blocklist::{FilterSet, LinearFilterSet};
use redlight_net::http::ResourceKind;
use std::hint::black_box;

/// One request of the replayed workload.
struct Req {
    url: String,
    page_host: String,
    request_host: String,
    kind: ResourceKind,
}

fn workload(f: &Fixture) -> Vec<Req> {
    let mut reqs = Vec::new();
    for record in f.porn.successful() {
        let Some(final_url) = &record.visit.final_url else {
            continue;
        };
        let page_host = final_url.host().as_str();
        for req in &record.visit.requests {
            if req.status.is_none() {
                continue;
            }
            reqs.push(Req {
                url: req.url.without_fragment(),
                page_host: page_host.to_string(),
                request_host: req.url.host().as_str().to_string(),
                kind: req.kind,
            });
        }
    }
    reqs
}

fn bench(c: &mut Criterion) {
    let f = Fixture::small();
    let reqs = workload(&f);

    let mut indexed = FilterSet::new();
    indexed.add_list(&f.world.easylist);
    indexed.add_list(&f.world.easyprivacy);
    // Built the way `AtsClassifier::from_lists` builds the pipeline's.
    let mut prefiltered = FilterSet::new();
    prefiltered.add_list(&f.world.easylist);
    prefiltered.add_list(&f.world.easyprivacy);
    prefiltered.build_prefilter();
    let mut linear = LinearFilterSet::new();
    linear.add_list(&f.world.easylist);
    linear.add_list(&f.world.easyprivacy);

    // Equivalence guard: the engines must agree on the entire workload
    // before their relative speed means anything.
    let mut blocked = 0usize;
    for r in &reqs {
        let ctx = RequestContext::new(&r.page_host, &r.request_host, r.kind);
        let expected = linear.matches(&r.url, &ctx);
        assert_eq!(
            indexed.matches(&r.url, &ctx),
            expected,
            "token index disagrees on {}",
            r.url
        );
        assert_eq!(
            prefiltered.matches(&r.url, &ctx),
            expected,
            "prefiltered index disagrees on {}",
            r.url
        );
        if expected.is_blocked() {
            blocked += 1;
        }
    }
    println!(
        "ats_match workload: {} requests, {} blocked, {} rules",
        reqs.len(),
        blocked,
        indexed.len()
    );
    // One guard pass is one replay of the workload through the prefilter.
    let (skipped, evaluated) = prefiltered.prefilter_stats();
    println!("ats_match prefilter, one pass: {skipped} scan rules skipped, {evaluated} evaluated");

    c.bench_function("ats_match/linear_scan", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &reqs {
                let ctx = RequestContext::new(&r.page_host, &r.request_host, r.kind);
                if linear.matches(black_box(&r.url), &ctx).is_blocked() {
                    hits += 1;
                }
            }
            hits
        })
    });

    c.bench_function("ats_match/token_index", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &reqs {
                let ctx = RequestContext::new(&r.page_host, &r.request_host, r.kind);
                if indexed.matches(black_box(&r.url), &ctx).is_blocked() {
                    hits += 1;
                }
            }
            hits
        })
    });

    c.bench_function("ats_match/token_index_prefilter", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &reqs {
                let ctx = RequestContext::new(&r.page_host, &r.request_host, r.kind);
                if prefiltered.matches(black_box(&r.url), &ctx).is_blocked() {
                    hits += 1;
                }
            }
            hits
        })
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
