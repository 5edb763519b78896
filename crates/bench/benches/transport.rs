//! Transport-seam overhead — the cost of the `Box<dyn Transport>`
//! indirection the browser now fetches through, measured against calling
//! `WebServer::handle` directly, plus the full default decorator stack
//! (metered, no faults) the crawlers actually assemble.
//!
//! The seam is only acceptable if the dynamic dispatch and the metering
//! atomics disappear into the noise of serving a request, so the three
//! benches replay the identical request workload through each path.

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_bench::{criterion as bench_criterion, Fixture};
use redlight_net::geoip::Country;
use redlight_net::http::{Request, ResourceKind};
use redlight_net::transport::{
    BrowserKind, ClientContext, FetchOutcome, NetProfile, Transport, TransportMeter,
};
use redlight_net::url::Url;
use redlight_obs::Registry;
use redlight_websim::WebServer;
use std::hint::black_box;
use std::net::Ipv4Addr;

/// Landing-page requests for every site of the tiny porn corpus.
fn workload(f: &Fixture) -> Vec<Request> {
    f.corpus
        .sanitized
        .iter()
        .filter_map(|d| Url::parse(&format!("https://{d}/")).ok())
        .map(|url| Request::get(url, ResourceKind::Document))
        .collect()
}

fn served(outcome: FetchOutcome) -> usize {
    match outcome {
        FetchOutcome::Response(_) => 1,
        _ => 0,
    }
}

fn bench(c: &mut Criterion) {
    let f = Fixture::tiny();
    let reqs = workload(&f);
    let ctx = ClientContext {
        country: Country::Spain,
        client_ip: Ipv4Addr::new(83, 44, 0, 1),
        session: redlight_bench::BENCH_SEED,
        browser: BrowserKind::OpenWpm,
    };

    let direct = WebServer::new(&f.world);
    let ok: usize = reqs.iter().map(|r| served(direct.handle(r, &ctx))).sum();
    println!("transport workload: {} requests, {} served", reqs.len(), ok);

    c.bench_function("transport/direct_handle", |b| {
        let server = WebServer::new(&f.world);
        b.iter(|| {
            let mut ok = 0usize;
            for r in &reqs {
                ok += served(server.handle(black_box(r), &ctx));
            }
            ok
        })
    });

    c.bench_function("transport/boxed_dyn", |b| {
        let boxed: Box<dyn Transport> = Box::new(WebServer::new(&f.world));
        b.iter(|| {
            let mut ok = 0usize;
            for r in &reqs {
                ok += served(boxed.fetch(black_box(r), &ctx));
            }
            ok
        })
    });

    c.bench_function("transport/default_stack", |b| {
        let meter = TransportMeter::new();
        let stack = NetProfile::default().stack(WebServer::new(&f.world), &meter, &Registry::new());
        b.iter(|| {
            let mut ok = 0usize;
            for r in &reqs {
                ok += served(stack.fetch(black_box(r), &ctx));
            }
            ok
        });
        let stats = meter.snapshot();
        println!(
            "transport meter saw {} requests, {} KiB",
            stats.requests,
            stats.body_bytes / 1024
        );
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
