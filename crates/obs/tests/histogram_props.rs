//! Property tests for the log-2 histogram: bucket edges, shard-merge
//! equivalence, plain tallies against atomic recording and quantile
//! monotonicity.

use proptest::prelude::*;
use redlight_obs::{Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};

proptest! {
    #[test]
    fn bucket_bounds_bracket_every_value(v in any::<u64>()) {
        let i = Histogram::bucket_index(v);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        prop_assert!(v <= Histogram::bucket_bound(i));
        if i > 0 {
            prop_assert!(v > Histogram::bucket_bound(i - 1));
        }
    }

    #[test]
    fn merge_of_shards_equals_single_shard(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let single = Histogram::new();
        for &v in a.iter().chain(&b) {
            single.record(v);
        }

        let shard_a = Histogram::new();
        let shard_b = Histogram::new();
        for &v in &a {
            shard_a.record(v);
        }
        for &v in &b {
            shard_b.record(v);
        }
        let mut merged = shard_a.snapshot();
        merged.merge(&shard_b.snapshot());
        prop_assert_eq!(&merged, &single.snapshot());

        // Registry-style absorption agrees with snapshot merge.
        let absorbed = Histogram::new();
        absorbed.absorb(&shard_a.snapshot());
        absorbed.absorb(&shard_b.snapshot());
        prop_assert_eq!(&absorbed.snapshot(), &single.snapshot());
    }

    #[test]
    fn plain_tallies_absorbed_in_batches_equal_atomic_recording(
        values in proptest::collection::vec(any::<u64>(), 0..128),
        batch in 1usize..20,
    ) {
        // The traffic kernel's pattern: record into a plain snapshot, fold
        // it into the shared histogram every `batch` values, clear, reuse.
        let atomic = Histogram::new();
        let shared = Histogram::new();
        let mut tally = HistogramSnapshot::default();
        for (i, &v) in values.iter().enumerate() {
            atomic.record(v);
            tally.record(v);
            if (i + 1) % batch == 0 {
                shared.absorb(&tally);
                tally.clear();
                prop_assert_eq!(tally.count(), 0);
                prop_assert_eq!(tally.min(), None);
            }
        }
        shared.absorb(&tally);
        prop_assert_eq!(&shared.snapshot(), &atomic.snapshot());
    }

    #[test]
    fn min_max_are_exact_and_survive_merge(
        a in proptest::collection::vec(any::<u64>(), 0..64),
        b in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let shard_a = Histogram::new();
        let shard_b = Histogram::new();
        for &v in &a {
            shard_a.record(v);
        }
        for &v in &b {
            shard_b.record(v);
        }
        let mut merged = shard_a.snapshot();
        merged.merge(&shard_b.snapshot());

        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged.min(), all.iter().min().copied());
        prop_assert_eq!(merged.max(), all.iter().max().copied());

        // Registry-style absorption tracks the same exact extrema.
        let absorbed = Histogram::new();
        absorbed.absorb(&shard_a.snapshot());
        absorbed.absorb(&shard_b.snapshot());
        prop_assert_eq!(absorbed.snapshot().min(), all.iter().min().copied());
        prop_assert_eq!(absorbed.snapshot().max(), all.iter().max().copied());
    }

    #[test]
    fn min_max_bracket_every_quantile(values in proptest::collection::vec(any::<u64>(), 1..64)) {
        // Exact extrema tighten the bucketed quantiles on both ends: no
        // quantile estimate may exceed the true max's bucket bound, and
        // the recorded min is a floor on the smallest observation.
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let lo = snap.min().expect("non-empty");
        let hi = snap.max().expect("non-empty");
        prop_assert_eq!(lo, *values.iter().min().unwrap());
        prop_assert_eq!(hi, *values.iter().max().unwrap());
        prop_assert!(lo <= hi);
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert!(snap.quantile(q) <= Histogram::bucket_bound(Histogram::bucket_index(hi)));
        }
    }

    #[test]
    fn quantiles_monotone_in_q(values in proptest::collection::vec(any::<u64>(), 1..64)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let quantiles = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0];
        for pair in quantiles.windows(2) {
            prop_assert!(snap.quantile(pair[0]) <= snap.quantile(pair[1]));
        }
    }

    #[test]
    fn quantiles_monotone_under_larger_inserts(
        values in proptest::collection::vec(1u64..1_000_000, 1..48),
        extra in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        // Inserting values no smaller than everything recorded so far can
        // only move p50/p99 estimates up.
        let max = *values.iter().max().unwrap();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let before = h.snapshot();
        for &e in &extra {
            h.record(max.saturating_add(e));
        }
        let after = h.snapshot();
        prop_assert!(after.quantile(0.5) >= before.quantile(0.5));
        prop_assert!(after.quantile(0.99) >= before.quantile(0.99));
    }

    #[test]
    fn quantile_brackets_true_percentile(values in proptest::collection::vec(any::<u64>(), 1..64)) {
        // The bucket upper bound is always >= the true order statistic.
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, rank) in [(0.5, sorted.len().div_ceil(2)), (1.0, sorted.len())] {
            let true_value = sorted[rank - 1];
            prop_assert!(snap.quantile(q) >= true_value);
        }
    }
}

#[test]
fn empty_histogram_quantiles_are_zero() {
    let snap = HistogramSnapshot::default();
    assert_eq!(snap.quantile(0.5), 0);
    assert_eq!(snap.count(), 0);
    assert_eq!(snap.min(), None);
    assert_eq!(snap.max(), None);
}
