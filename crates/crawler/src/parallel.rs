//! Parallel crawl execution.
//!
//! Crawls are independent browser sessions, so they parallelize cleanly;
//! **within** one crawl the visits stay sequential because the paper keeps
//! a single browser session alive to observe cookie syncing (§3.1) — which
//! also keeps each session's transport stack (meter, fault injector)
//! deterministic regardless of thread interleaving.
//!
//! [`run_jobs`] runs a plan's crawls on one pool of
//! [`available_parallelism`](std::thread::available_parallelism) workers,
//! capped at the job count, that pull from one queue. The queue holds the
//! heaviest job first, so the longest crawl starts at once instead of
//! running alone at the end, and a worker that finishes a short crawl
//! takes the next one instead of idling.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use redlight_obs::{MetricsSnapshot, Registry, SpanLink, Trace, Tracer};

/// The telemetry plumbing a batch of crawl jobs records into: each job
/// gets its own tracer shard (named by the job, so shard names — and the
/// merged journal — never depend on which worker ran it) and its own
/// scratch [`Registry`], whose snapshot is absorbed into `metrics` in job
/// order after the pool joins.
#[derive(Debug, Clone)]
pub struct CrawlObs {
    /// Span collector shared with the study.
    pub trace: Trace,
    /// Study-wide registry job snapshots fold into.
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

/// The order the pool takes `jobs` in, as job indices: the heaviest
/// `weight` first, equal weights in job order.
pub(crate) fn longest_first<J, W: Ord>(jobs: &[J], weight: impl Fn(&J) -> W) -> Vec<usize> {
    let mut queue: Vec<usize> = (0..jobs.len()).collect();
    queue.sort_by_key(|&i| Reverse(weight(&jobs[i])));
    queue
}

/// Runs `jobs` on the pool in [`longest_first`] order, each job recording
/// into the journal shard `shard(job)` and its own registry as
/// [`CrawlObs`] describes. Outputs return in job order.
pub(crate) fn run_jobs<J: Sync, W: Ord, R: Send>(
    jobs: &[J],
    obs: &CrawlObs,
    weight: impl Fn(&J) -> W,
    shard: impl Fn(&J) -> String + Sync,
    crawl: impl Fn(&J, &mut Tracer, &Registry) -> R + Sync,
) -> Vec<R> {
    let queue = longest_first(jobs, weight);
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(jobs.len());
    // The cursor only hands out queue positions; outputs travel through
    // `done`'s lock, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R, MetricsSnapshot)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| {
                while let Some(&i) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let job = &jobs[i];
                    let name = shard(job);
                    let mut tracer = match obs.parent.clone() {
                        Some(parent) => obs.trace.tracer_under(&name, parent),
                        None => obs.trace.tracer(&name),
                    };
                    let registry = Registry::new();
                    let output = crawl(job, &mut tracer, &registry);
                    tracer.finish();
                    let snapshot = registry.snapshot();
                    done.lock()
                        .expect("crawl outputs lock poisoned")
                        .push((i, output, snapshot));
                }
            });
        }
    })
    .expect("crawl worker panicked");

    let mut finished = done.into_inner().expect("crawl outputs lock poisoned");
    finished.sort_by_key(|&(i, ..)| i);
    finished
        .into_iter()
        .map(|(_, output, snapshot)| {
            obs.metrics.absorb(&snapshot);
            output
        })
        .collect()
}
