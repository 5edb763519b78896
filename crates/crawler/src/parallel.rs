//! Parallel crawl execution.
//!
//! Crawls are independent browser sessions, so they parallelize cleanly
//! across a crossbeam scoped-thread pool; **within** one crawl the visits
//! stay sequential because the paper keeps a single browser session alive to
//! observe cookie syncing (§3.1) — which also keeps each session's transport
//! stack (meters, fault injectors, logical clock) deterministic regardless
//! of thread interleaving.

use redlight_obs::{MetricsSnapshot, Registry, SpanLink, Trace, Tracer};

/// The telemetry plumbing a batch of crawl jobs records into: each worker
/// gets its own tracer shard (named by job index, so shard names — and the
/// merged journal — never depend on thread scheduling) and its own scratch
/// [`Registry`], whose snapshot is absorbed into `metrics` in job order
/// after the pool joins.
#[derive(Debug, Clone)]
pub struct CrawlObs {
    /// Span collector shared with the study.
    pub trace: Trace,
    /// Study-wide registry worker snapshots fold into.
    pub metrics: Registry,
    /// Span the per-crawl shards hang under (the study's `collect` span).
    pub parent: Option<SpanLink>,
}

impl CrawlObs {
    /// No-op plumbing: spans are dropped and counters land in a throwaway
    /// registry.
    pub fn disabled() -> Self {
        CrawlObs {
            trace: Trace::disabled(),
            metrics: Registry::new(),
            parent: None,
        }
    }
}

/// Runs one scoped thread per job, worker `i` recording into the journal
/// shard `shard(i, job)` and its own registry as [`CrawlObs`] describes.
/// Outputs return in job order.
pub(crate) fn run_jobs<J: Sync, R: Send>(
    jobs: &[J],
    obs: &CrawlObs,
    shard: impl Fn(usize, &J) -> String + Sync,
    crawl: impl Fn(&J, &mut Tracer, &Registry) -> R + Sync,
) -> Vec<R> {
    let (shard, crawl) = (&shard, &crawl);
    let finished: Vec<(R, MetricsSnapshot)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                scope.spawn(move |_| {
                    let name = shard(i, job);
                    let mut tracer = match obs.parent.clone() {
                        Some(parent) => obs.trace.tracer_under(&name, parent),
                        None => obs.trace.tracer(&name),
                    };
                    let registry = Registry::new();
                    let output = crawl(job, &mut tracer, &registry);
                    tracer.finish();
                    (output, registry.snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("crawl thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");

    finished
        .into_iter()
        .map(|(output, snapshot)| {
            obs.metrics.absorb(&snapshot);
            output
        })
        .collect()
}
