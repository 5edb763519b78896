//! The worker pool that runs a study: its crawls, the analysis context's
//! whole-crawl scans and the analysis stages.
//!
//! A batch of jobs is a dependency graph: each job names the earlier jobs
//! whose output it reads. Crawls are independent browser sessions, so a
//! plan's crawls have no edges; **within** one crawl the visits stay
//! sequential because the paper keeps a single browser session alive to
//! observe cookie syncing (§3.1) — which also keeps each session's
//! transport stack (meter, fault injector) deterministic regardless of
//! thread interleaving. An analysis stage reads finished crawls and the
//! stages its table row names, and those names become its edges.
//!
//! [`run_jobs`] runs a graph on one pool of
//! [`available_parallelism`](std::thread::available_parallelism) workers,
//! capped at the job count. A free worker takes the heaviest job whose
//! dependencies have finished, so the longest crawl or stage starts at once
//! instead of running alone at the end, and no job waits for one it does
//! not read.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use redlight_obs::{MetricsSnapshot, Registry, SpanLink, Trace, Tracer};

/// Where a pool's jobs record: each job gets its own tracer shard (named by
/// the job, so shard names — and the merged journal — never depend on which
/// worker ran it) and its own scratch [`Registry`], whose snapshot is
/// absorbed into `metrics` in job order after the pool joins.
#[derive(Debug, Clone)]
pub struct JobObs<'t> {
    /// Span collector the job shards commit into.
    pub trace: &'t Trace,
    /// Registry the job snapshots fold into.
    pub metrics: &'t Registry,
    /// Span every job shard hangs under (the study's `collect` or `analyze`
    /// span).
    pub parent: Option<SpanLink>,
}

/// The order the pool prefers `jobs` in, as job indices: the heaviest
/// `weight` first, equal weights in job order. A free worker takes the
/// first job in this order whose dependencies have finished.
pub(crate) fn longest_first<J, W: Ord>(jobs: &[J], weight: impl Fn(&J) -> W) -> Vec<usize> {
    let mut queue: Vec<usize> = (0..jobs.len()).collect();
    queue.sort_by_key(|&i| Reverse(weight(&jobs[i])));
    queue
}

/// Runs `jobs` as a dependency graph on the pool. `deps(job)` lists the
/// indices of the earlier jobs it reads, and the job starts only after
/// each of them has finished; among the jobs ready to start, a free worker
/// takes the heaviest `weight`, equal weights in job order. Each job
/// records into the journal shard `shard(job)` and its own registry, as
/// [`JobObs`] describes. Outputs return in job order.
///
/// Panics if a job lists itself or a later job, which rules out cycles. A
/// job that panics stops the pool: the other workers finish the jobs they
/// hold and start no more, and the panic resumes in the caller.
pub fn run_jobs<J: Sync, W: Ord, R: Send>(
    jobs: &[J],
    obs: &JobObs<'_>,
    weight: impl Fn(&J) -> W,
    deps: impl Fn(&J) -> Vec<usize>,
    shard: impl Fn(&J) -> String + Sync,
    run: impl Fn(&J, &mut Tracer, &Registry) -> R + Sync,
) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_with(workers, jobs, obs, weight, deps, shard, run)
}

/// The pool's shared state, behind one lock.
struct Board<R> {
    /// Queue positions (in [`longest_first`] order) of the jobs whose
    /// dependencies have all finished and that no worker has taken yet.
    ready: BTreeSet<usize>,
    /// Per job, how many of its dependencies have not finished.
    waiting: Vec<usize>,
    /// Jobs no worker has taken yet.
    unstarted: usize,
    /// Per job, its output and registry snapshot once it has finished.
    done: Vec<Option<(R, MetricsSnapshot)>>,
    /// The first panic a job raised. Once it is set, no worker takes a job.
    panic: Option<Box<dyn Any + Send>>,
}

/// [`run_jobs`] on `workers` workers (at most one per job).
fn run_with<J: Sync, W: Ord, R: Send>(
    workers: usize,
    jobs: &[J],
    obs: &JobObs<'_>,
    weight: impl Fn(&J) -> W,
    deps: impl Fn(&J) -> Vec<usize>,
    shard: impl Fn(&J) -> String + Sync,
    run: impl Fn(&J, &mut Tracer, &Registry) -> R + Sync,
) -> Vec<R> {
    let queue = longest_first(jobs, weight);
    let mut place = vec![0; jobs.len()];
    for (at, &i) in queue.iter().enumerate() {
        place[i] = at;
    }
    let mut readers = vec![Vec::new(); jobs.len()];
    let mut board = Board {
        ready: BTreeSet::new(),
        waiting: vec![0; jobs.len()],
        unstarted: jobs.len(),
        done: jobs.iter().map(|_| None).collect(),
        panic: None,
    };
    for (i, job) in jobs.iter().enumerate() {
        let reads = deps(job);
        for &d in &reads {
            assert!(d < i, "job {i} reads job {d}, which is not an earlier job");
            readers[d].push(i);
        }
        board.waiting[i] = reads.len();
        if reads.is_empty() {
            board.ready.insert(place[i]);
        }
    }

    let board = Mutex::new(board);
    let wake = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs.len()) {
            scope.spawn(|| {
                let mut b = board.lock().expect("pool board poisoned");
                while b.panic.is_none() && b.unstarted > 0 {
                    let Some(at) = b.ready.pop_first() else {
                        b = wake.wait(b).expect("pool board poisoned");
                        continue;
                    };
                    b.unstarted -= 1;
                    drop(b);
                    let i = queue[at];
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                        let name = shard(&jobs[i]);
                        let mut tracer = match obs.parent.clone() {
                            Some(parent) => obs.trace.tracer_under(&name, parent),
                            None => obs.trace.tracer(&name),
                        };
                        let registry = Registry::new();
                        let output = run(&jobs[i], &mut tracer, &registry);
                        tracer.finish();
                        (output, registry.snapshot())
                    }));
                    b = board.lock().expect("pool board poisoned");
                    match ran {
                        Ok(finished) => {
                            b.done[i] = Some(finished);
                            for &r in &readers[i] {
                                b.waiting[r] -= 1;
                                if b.waiting[r] == 0 {
                                    b.ready.insert(place[r]);
                                }
                            }
                        }
                        Err(payload) => {
                            b.panic.get_or_insert(payload);
                        }
                    }
                    wake.notify_all();
                }
            });
        }
    });

    let board = board.into_inner().expect("pool board poisoned");
    if let Some(payload) = board.panic {
        panic::resume_unwind(payload);
    }
    board
        .done
        .into_iter()
        .map(|finished| {
            let (output, snapshot) = finished.expect("every job ran");
            obs.metrics.absorb(&snapshot);
            output
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redlight_obs::{MetricValue, Unit};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A synthetic graph, as `(weight, deps)` per job. Taken heaviest first
    /// with its edges ignored, job 3 would start before job 1, 6 before 2
    /// and 9 before 8.
    const GRAPH: [(u32, &[usize]); 12] = [
        (1, &[]),
        (5, &[]),
        (3, &[0]),
        (9, &[1]),
        (2, &[0, 1]),
        (7, &[]),
        (4, &[2, 3]),
        (1, &[5]),
        (6, &[4]),
        (8, &[6, 7, 8]),
        (2, &[]),
        (3, &[9, 10]),
    ];

    /// What one run of [`GRAPH`] shows.
    struct Run {
        /// Per job, its index and the logical clock at its start and end.
        outputs: Vec<(usize, usize, usize)>,
        /// The most jobs that ever ran at once.
        peak: usize,
        /// The merged metrics.
        metrics: MetricsSnapshot,
        /// The merged journal.
        journal: String,
    }

    fn run_graph(workers: usize) -> Run {
        let (trace, metrics) = (Trace::new(), Registry::new());
        let obs = JobObs {
            trace: &trace,
            metrics: &metrics,
            parent: None,
        };
        let jobs: Vec<usize> = (0..GRAPH.len()).collect();
        let (clock, running, peak) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        let outputs = run_with(
            workers,
            &jobs,
            &obs,
            |&i| GRAPH[i].0,
            |&i| GRAPH[i].1.to_vec(),
            |&i| format!("job.{i:02}"),
            |&i, tracer, registry| {
                let start = clock.fetch_add(1, Ordering::SeqCst);
                peak.fetch_max(running.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
                tracer.open("job");
                tracer.attr("index", i);
                std::thread::sleep(Duration::from_millis(2));
                tracer.close();
                registry.counter("jobs").inc();
                registry.counter(&format!("job.{i:02}")).add(i as u64);
                registry.histogram("weights").record(u64::from(GRAPH[i].0));
                // A counter takes the unit of the snapshot absorbed first.
                let unit = if i == 0 { Unit::Bytes } else { Unit::Count };
                registry.counter_with_unit("first", unit).inc();
                running.fetch_sub(1, Ordering::SeqCst);
                (i, start, clock.fetch_add(1, Ordering::SeqCst))
            },
        );
        Run {
            outputs,
            peak: peak.into_inner(),
            metrics: metrics.snapshot(),
            journal: trace.journal().json_lines(),
        }
    }

    #[test]
    fn no_job_starts_before_its_dependencies_finish() {
        for workers in [1, 2, 3, 8] {
            let run = run_graph(workers);
            for (job, &(_, start, _)) in run.outputs.iter().enumerate() {
                for &dep in GRAPH[job].1 {
                    let (_, _, dep_end) = run.outputs[dep];
                    assert!(
                        dep_end < start,
                        "{workers} workers: job {job} started before job {dep} finished"
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_and_metrics_come_back_in_job_order_at_every_worker_count() {
        let one = run_graph(1);
        let order: Vec<usize> = one.outputs.iter().map(|&(i, ..)| i).collect();
        assert_eq!(order, (0..GRAPH.len()).collect::<Vec<_>>());
        assert_eq!(one.metrics.counter("jobs"), GRAPH.len() as u64);
        assert!(matches!(
            one.metrics.entries["first"],
            MetricValue::Counter {
                unit: Unit::Bytes,
                ..
            }
        ));
        assert_eq!(one.journal.lines().count(), GRAPH.len());
        for workers in [2, 3, 8] {
            let run = run_graph(workers);
            let order: Vec<usize> = run.outputs.iter().map(|&(i, ..)| i).collect();
            assert_eq!(order, (0..GRAPH.len()).collect::<Vec<_>>());
            assert_eq!(run.metrics, one.metrics, "{workers} workers");
            assert_eq!(run.journal, one.journal, "{workers} workers");
        }
    }

    #[test]
    fn no_more_than_the_worker_count_run_at_once() {
        for workers in [1, 2, 3, 8] {
            let run = run_graph(workers);
            assert!(
                (1..=workers).contains(&run.peak),
                "{workers} workers ran {} jobs at once",
                run.peak
            );
        }
    }

    #[test]
    fn a_panicking_job_resumes_in_the_caller() {
        // Job 1 panics. Jobs 2 and 4 wait for it, so a worker that is not
        // woken when it fails waits forever.
        const PANICKY: [(u32, &[usize]); 5] = [(1, &[]), (9, &[]), (5, &[1]), (3, &[0]), (2, &[2])];
        for workers in [1, 2, 3, 8] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let (trace, metrics) = (Trace::new(), Registry::new());
                let obs = JobObs {
                    trace: &trace,
                    metrics: &metrics,
                    parent: None,
                };
                let jobs: Vec<usize> = (0..PANICKY.len()).collect();
                let started = Mutex::new(Vec::new());
                let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                    run_with(
                        workers,
                        &jobs,
                        &obs,
                        |&i| PANICKY[i].0,
                        |&i| PANICKY[i].1.to_vec(),
                        |&i| format!("job.{i}"),
                        |&i, tracer, _| {
                            started.lock().unwrap().push(i);
                            tracer.open("job");
                            assert_ne!(i, 1, "job 1 failed");
                        },
                    )
                }));
                let message = caught
                    .err()
                    .map(|payload| match payload.downcast::<String>() {
                        Ok(message) => *message,
                        Err(_) => "a panic without a message".to_owned(),
                    });
                tx.send((message, started.into_inner().unwrap())).unwrap();
            });
            let (message, started) =
                rx.recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| {
                        panic!("{workers} workers: the pool hung after a job panicked")
                    });
            let message = message.expect("the panic reaches the caller");
            assert!(message.contains("job 1 failed"), "{message}");
            assert!(started.contains(&1));
            assert!(
                !started.contains(&2) && !started.contains(&4),
                "{started:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "job 1 reads job 2, which is not an earlier job")]
    fn a_job_that_reads_a_later_job_panics() {
        let (trace, metrics) = (Trace::disabled(), Registry::new());
        let obs = JobObs {
            trace: &trace,
            metrics: &metrics,
            parent: None,
        };
        let graph: [&[usize]; 3] = [&[], &[2], &[]];
        run_with(
            2,
            &graph,
            &obs,
            |_| 0,
            |deps| deps.to_vec(),
            |_| String::new(),
            |_, _, _| (),
        );
    }
}
