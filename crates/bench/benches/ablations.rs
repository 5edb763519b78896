//! Ablations of the study's design choices (DESIGN.md §4).
//!
//! 1. Levenshtein same-entity threshold (0.7 in the paper) — precision /
//!    recall of first-party attribution against world ground truth;
//! 2. the ID-cookie minimum length (6 chars);
//! 3. cookie-sync minimum value length (whole-value matching floor);
//! 4. the font-fingerprinting `measureText` threshold (50 calls);
//! 5. Disconnect-only vs Disconnect + X.509 attribution (the 142 → 4,477
//!    coverage jump).

use criterion::{criterion_group, criterion_main, Criterion};
use redlight_analysis::{cookies, fingerprint, orgs, thirdparty};
use redlight_bench::{criterion as bench_criterion, Fixture};
use redlight_text::levenshtein;
use std::hint::black_box;

fn ablate_levenshtein(f: &Fixture) {
    println!("-- ablation 1: Levenshtein same-entity threshold --");
    // Ground truth: FQDN pairs that belong to the same service.
    let mut same: Vec<(String, String)> = Vec::new();
    let mut diff: Vec<(String, String)> = Vec::new();
    let services: Vec<_> = f.world.services.iter().collect();
    for (i, a) in services.iter().enumerate() {
        let fqdns: Vec<&str> = a.all_fqdns().collect();
        for w in fqdns.windows(2) {
            same.push((w[0].to_string(), w[1].to_string()));
        }
        if let Some(b) = services.get(i + 1) {
            diff.push((a.fqdn.clone(), b.fqdn.clone()));
        }
    }
    for threshold in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let tp = same
            .iter()
            .filter(|(a, b)| levenshtein::similarity(a, b) >= threshold)
            .count();
        let fp = diff
            .iter()
            .filter(|(a, b)| levenshtein::similarity(a, b) >= threshold)
            .count();
        println!(
            "  threshold {threshold:.1}: recall {}/{} same-entity pairs, {} false merges of {}",
            tp,
            same.len(),
            fp,
            diff.len()
        );
    }
}

fn ablate_cookie_len(f: &Fixture) {
    println!("-- ablation 2: ID-cookie minimum length --");
    let rows = cookies::collect(&f.porn);
    for min_len in [0usize, 4, 6, 8, 12, 24] {
        let kept = rows
            .iter()
            .filter(|r| !r.session && r.value.chars().count() >= min_len)
            .count();
        println!("  min_len {min_len:>2}: {kept} cookies survive (paper rule: 6)");
    }
}

fn ablate_sync_options(f: &Fixture) {
    println!("-- ablation 3: sync matching rules (value floor × delimiter splitting) --");
    use redlight_analysis::sync::{detect_with_options, SyncOptions};
    let ranked = f.ranked_domains();
    for (floor, split) in [(8usize, false), (4, false), (16, false), (8, true)] {
        let report = detect_with_options(
            &f.porn,
            &ranked,
            100,
            SyncOptions {
                min_value_len: floor,
                split_delimiters: split,
            },
        );
        println!(
            "  floor {floor:>2}, split={split:<5}: {:>5} pairs on {:>4} sites, {:>4} origins              (paper rule: floor 8, no splitting — splitting drags first-party              analytics beacons in as false syncs)",
            report.pairs.len(),
            report.sites_with_sync,
            report.origins,
        );
    }
}

fn ablate_font_threshold(f: &Fixture) {
    println!("-- ablation 4: font-fingerprinting measureText threshold --");
    for threshold in [10usize, 25, 50, 100] {
        let mut scripts = std::collections::BTreeSet::new();
        for record in f.porn.successful() {
            for (script, activity) in &record.visit.canvas {
                if activity.fonts_set == 0 {
                    continue;
                }
                let mut per_text = std::collections::BTreeMap::new();
                for (_, text) in &activity.measured {
                    *per_text.entry(text.clone()).or_insert(0usize) += 1;
                }
                if per_text.values().any(|&n| n >= threshold) {
                    scripts.insert(format!("{script:?}"));
                }
            }
        }
        println!(
            "  ≥{threshold:>3} same-text calls: {} scripts flagged (paper rule: 50 → exactly 1)",
            scripts.len()
        );
    }
}

fn ablate_attribution(f: &Fixture) {
    println!("-- ablation 5: Disconnect-only vs Disconnect + X.509 --");
    let extract = thirdparty::extract(&f.porn, true);
    let disconnect_only = orgs::OrgAttributor::new(&f.world.disconnect, &[&f.porn], None);
    let world = &f.world;
    let probe = |host: &str| -> Option<redlight_net::tls::CertSummary> {
        world.resolve_host(host)?;
        Some((&world.cert_for_host(host)).into())
    };
    let with_certs = orgs::OrgAttributor::new(&f.world.disconnect, &[&f.porn], Some(&probe));
    let a = disconnect_only.coverage(&extract);
    let b = with_certs.coverage(&extract);
    println!(
        "  Disconnect only:      {}/{} FQDNs, {} companies (paper: 142)",
        a.resolved_fqdns, a.total_fqdns, a.companies
    );
    println!(
        "  + X.509 organizations: {}/{} FQDNs, {} companies (paper: 4,477 / 1,014)",
        b.resolved_fqdns, b.total_fqdns, b.companies
    );
}

fn bench(c: &mut Criterion) {
    let f = Fixture::small();
    ablate_levenshtein(&f);
    ablate_cookie_len(&f);
    ablate_sync_options(&f);
    ablate_font_threshold(&f);
    ablate_attribution(&f);

    // Time the two knob-sensitive kernels.
    c.bench_function("ablations/levenshtein_similarity", |b| {
        b.iter(|| {
            levenshtein::similarity(black_box("doublepimp.com"), black_box("doublepimpssl.com"))
        })
    });
    let rows = cookies::collect(&f.porn);
    c.bench_function("ablations/id_filter", |b| {
        b.iter(|| rows.iter().filter(|r| cookies::is_id_cookie(r)).count())
    });
    let classifier = f.classifier();
    c.bench_function("ablations/fingerprint_criteria", |b| {
        b.iter(|| fingerprint::detect(black_box(&f.porn), black_box(&classifier)))
    });
}

criterion_group! { name = benches; config = bench_criterion(); targets = bench }
criterion_main!(benches);
