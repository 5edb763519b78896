//! Hierarchical spans recorded into per-shard buffers.
//!
//! Concurrency model: a [`Trace`] is shared (cheap clone, `Sync`), but all
//! span recording goes through a [`Tracer`] — a single-threaded handle that
//! owns one named *shard*. Worker pools give every worker its own tracer
//! (shard names are derived from deterministic job indices, never thread
//! ids), record without any locking, and commit the finished shard into the
//! trace on drop. The journal layer then merges shards **by name**, so the
//! merged output is independent of thread interleaving: same seed ⇒
//! byte-identical journal.
//!
//! Two determinism rules follow from this model:
//!
//! * spans are recorded in *open* (preorder) position, so a shard's buffer
//!   order is itself reproducible;
//! * the bound on journal memory is enforced **per shard** (each shard is
//!   sequential), because any global budget would make the drop decision
//!   depend on which thread got there first.
//!
//! Wall durations are captured per span but live only in memory (for the
//! `--timings` report); exported bytes use the journal's logical clock.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::journal::Journal;

/// Default cap on recorded spans per shard.
const DEFAULT_SHARD_CAP: usize = 8_192;

/// Sentinel stack slot for spans dropped by the shard cap.
const DROPPED: usize = usize::MAX;

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrVal {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for AttrVal {
    fn from(v: u64) -> Self {
        AttrVal::U64(v)
    }
}
impl From<u32> for AttrVal {
    fn from(v: u32) -> Self {
        AttrVal::U64(v as u64)
    }
}
impl From<usize> for AttrVal {
    fn from(v: usize) -> Self {
        AttrVal::U64(v as u64)
    }
}
impl From<i64> for AttrVal {
    fn from(v: i64) -> Self {
        AttrVal::I64(v)
    }
}
impl From<bool> for AttrVal {
    fn from(v: bool) -> Self {
        AttrVal::Bool(v)
    }
}
impl From<&str> for AttrVal {
    fn from(v: &str) -> Self {
        AttrVal::Str(v.to_owned())
    }
}
impl From<String> for AttrVal {
    fn from(v: String) -> Self {
        AttrVal::Str(v)
    }
}

/// A stable reference to a span in a committed-or-pending shard: shard name
/// plus preorder index. Links let a shard opened in one thread (say a
/// per-crawl worker) hang its root spans under a span recorded in another
/// (the study-level `collect` span).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanLink {
    pub(crate) shard: Arc<str>,
    pub(crate) index: usize,
}

/// One recorded span (shard-local).
#[derive(Debug, Clone)]
pub(crate) struct SpanRec {
    pub(crate) name: String,
    /// Preorder index of the parent within the same shard.
    pub(crate) parent: Option<usize>,
    pub(crate) attrs: Vec<(&'static str, AttrVal)>,
    pub(crate) wall: Duration,
}

/// A finished shard inside the trace.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shard {
    /// Where this shard's root spans attach in the global tree.
    pub(crate) link: Option<SpanLink>,
    /// Spans in preorder.
    pub(crate) spans: Vec<SpanRec>,
    /// Spans discarded by the per-shard cap.
    pub(crate) dropped: u64,
}

#[derive(Debug)]
struct TraceInner {
    enabled: bool,
    shard_cap: usize,
    shards: Mutex<BTreeMap<String, Shard>>,
}

/// Shared trace collector. Cloning shares the underlying shard table.
#[derive(Debug, Clone)]
pub struct Trace {
    inner: Arc<TraceInner>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An enabled trace with the default per-shard span cap.
    pub fn new() -> Self {
        Trace::with_shard_cap(DEFAULT_SHARD_CAP)
    }

    /// An enabled trace bounding every shard to `cap` spans.
    fn with_shard_cap(cap: usize) -> Self {
        Trace {
            inner: Arc::new(TraceInner {
                enabled: true,
                shard_cap: cap,
                shards: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// A disabled trace: tracers derived from it record nothing. This is
    /// what the unobserved (default) entry points run with, so adding
    /// spans to a code path costs a few branch instructions when off.
    pub fn disabled() -> Self {
        Trace {
            inner: Arc::new(TraceInner {
                enabled: false,
                shard_cap: 0,
                shards: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Whether tracers derived from this trace record spans.
    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    /// A tracer recording into the shard named `shard`, rooted at the top
    /// level of the span forest.
    pub fn tracer(&self, shard: &str) -> Tracer {
        self.tracer_inner(shard, None)
    }

    /// A tracer whose root spans become children of `parent`.
    pub fn tracer_under(&self, shard: &str, parent: SpanLink) -> Tracer {
        self.tracer_inner(shard, Some(parent))
    }

    fn tracer_inner(&self, shard: &str, link: Option<SpanLink>) -> Tracer {
        Tracer {
            trace: self.clone(),
            shard: Arc::from(shard),
            link,
            spans: Vec::new(),
            stack: Vec::new(),
            starts: Vec::new(),
            dropped: 0,
            committed: !self.inner.enabled,
        }
    }

    /// Merges every committed shard into a deterministic [`Journal`].
    pub fn journal(&self) -> Journal {
        let shards = self.inner.shards.lock().expect("trace shards poisoned");
        Journal::build(&shards)
    }

    fn commit(&self, name: Arc<str>, link: Option<SpanLink>, spans: Vec<SpanRec>, dropped: u64) {
        if spans.is_empty() && dropped == 0 {
            return;
        }
        let mut shards = self.inner.shards.lock().expect("trace shards poisoned");
        // Shard names are expected to be unique (derived from job indices);
        // a collision gets a deterministic suffix rather than a panic.
        let mut key = name.to_string();
        let mut n = 1;
        while shards.contains_key(&key) {
            n += 1;
            key = format!("{name}#{n}");
        }
        shards.insert(
            key,
            Shard {
                link,
                spans,
                dropped,
            },
        );
    }
}

/// Single-threaded span recorder for one shard. Obtain via
/// [`Trace::tracer`], record with [`open`](Tracer::open) /
/// [`attr`](Tracer::attr) / [`close`](Tracer::close), and either let it
/// drop or call [`finish`](Tracer::finish); both commit the shard.
#[derive(Debug)]
pub struct Tracer {
    trace: Trace,
    shard: Arc<str>,
    link: Option<SpanLink>,
    spans: Vec<SpanRec>,
    /// Preorder indices of currently open spans ([`DROPPED`] = capped).
    stack: Vec<usize>,
    /// Open instants, parallel to `stack`.
    starts: Vec<Instant>,
    dropped: u64,
    committed: bool,
}

impl Tracer {
    /// Opens a span as a child of the innermost open span (or as a shard
    /// root). Spans beyond the per-shard cap — and children of dropped
    /// spans — are counted but not recorded.
    pub fn open(&mut self, name: &str) {
        if self.committed {
            return;
        }
        let parent = self.stack.last().copied();
        let capped = self.spans.len() >= self.trace.inner.shard_cap;
        if capped || parent == Some(DROPPED) {
            self.dropped += 1;
            self.stack.push(DROPPED);
            self.starts.push(Instant::now());
            return;
        }
        self.spans.push(SpanRec {
            name: name.to_owned(),
            parent,
            attrs: Vec::new(),
            wall: Duration::ZERO,
        });
        self.stack.push(self.spans.len() - 1);
        self.starts.push(Instant::now());
    }

    /// Attaches a typed attribute to the innermost open span.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrVal>) {
        if self.committed {
            return;
        }
        if let Some(&idx) = self.stack.last() {
            if idx != DROPPED {
                self.spans[idx].attrs.push((key, value.into()));
            }
        }
    }

    /// Closes the innermost open span, fixing its wall duration.
    pub fn close(&mut self) {
        if self.committed {
            return;
        }
        if let (Some(idx), Some(start)) = (self.stack.pop(), self.starts.pop()) {
            if idx != DROPPED {
                self.spans[idx].wall = start.elapsed();
            }
        }
    }

    /// A link to the innermost open span, for parenting another shard
    /// under it. `None` when tracing is disabled or nothing is open.
    pub fn link(&self) -> Option<SpanLink> {
        match self.stack.last() {
            Some(&idx) if idx != DROPPED => Some(SpanLink {
                shard: Arc::clone(&self.shard),
                index: idx,
            }),
            _ => None,
        }
    }

    /// Closes any open spans and commits the shard. Equivalent to drop,
    /// spelled out for call sites where the handoff matters.
    pub fn finish(mut self) {
        self.commit();
    }

    fn commit(&mut self) {
        if self.committed {
            return;
        }
        while !self.stack.is_empty() {
            self.close();
        }
        self.committed = true;
        self.trace.commit(
            Arc::clone(&self.shard),
            self.link.take(),
            std::mem::take(&mut self.spans),
            self.dropped,
        );
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.commit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_in_preorder_with_parents() {
        let trace = Trace::new();
        let mut t = trace.tracer("s");
        t.open("a");
        t.open("b");
        t.attr("k", 7u64);
        t.close();
        t.open("c");
        t.close();
        t.close();
        t.finish();

        let journal = trace.journal();
        let names: Vec<&str> = journal.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(journal.spans[0].parent, 0);
        assert_eq!(journal.spans[1].parent, journal.spans[0].id);
        assert_eq!(journal.spans[2].parent, journal.spans[0].id);
        assert_eq!(journal.spans[1].attrs, [("k", AttrVal::U64(7))]);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::disabled();
        let mut t = trace.tracer("s");
        t.open("a");
        t.attr("k", true);
        t.close();
        t.finish();
        assert!(trace.journal().spans.is_empty());
    }

    #[test]
    fn shard_cap_drops_deterministically() {
        let trace = Trace::with_shard_cap(2);
        let mut t = trace.tracer("s");
        t.open("kept"); // span 1
        t.open("kept-child"); // span 2 — at cap now
        t.open("capped"); // dropped
        t.open("capped-child"); // child of dropped → dropped
        t.close();
        t.close();
        t.close();
        t.close();
        t.finish();

        let journal = trace.journal();
        assert_eq!(journal.spans.len(), 2);
        assert_eq!(journal.dropped, 2);
    }

    #[test]
    fn unclosed_spans_are_closed_on_drop() {
        let trace = Trace::new();
        {
            let mut t = trace.tracer("s");
            t.open("left-open");
            t.open("inner");
            // Dropped without closing.
        }
        let journal = trace.journal();
        assert_eq!(journal.spans.len(), 2);
        assert!(journal.spans.iter().all(|s| s.end > s.ts));
    }

    #[test]
    fn colliding_shard_names_get_suffixes() {
        let trace = Trace::new();
        for _ in 0..2 {
            let mut t = trace.tracer("s");
            t.open("a");
            t.close();
            t.finish();
        }
        let journal = trace.journal();
        assert_eq!(journal.spans.len(), 2);
        assert_eq!(journal.shards(), ["s", "s#2"]);
    }
}
