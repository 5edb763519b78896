//! Deterministic merge of trace shards plus the exporters.
//!
//! [`Journal::build`] walks shards **in name order** (never thread or
//! commit order) and assigns:
//!
//! * global span ids — sequential in (shard, preorder) position;
//! * parents — a span's shard-local parent if it has one, else the shard's
//!   [`SpanLink`](crate::span::SpanLink) target;
//! * a **logical clock** — begin/end ticks reconstructed from preorder +
//!   parent via stack replay, so every exported timestamp is a pure
//!   function of the span structure. Wall durations are kept in memory for
//!   human reports but never serialized: same seed ⇒ byte-identical
//!   exports on any machine.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::json;
use crate::metrics::{MetricValue, MetricsSnapshot, Unit};
use crate::span::{AttrVal, Shard};
use crate::timeline::Timeline;

/// One span in the merged journal.
#[derive(Debug, Clone)]
pub struct JournalSpan {
    /// Global id (1-based).
    pub id: u64,
    /// Global id of the parent span, 0 for roots.
    pub parent: u64,
    /// Span name (e.g. `stage.organizations`, `visits.003`).
    pub name: String,
    /// Name of the shard that recorded the span.
    pub shard: String,
    /// 1-based shard index — the exported thread id.
    pub tid: u32,
    /// Logical open tick.
    pub ts: u64,
    /// Logical close tick (always > `ts`).
    pub end: u64,
    /// Measured wall duration (in-memory only; not exported).
    pub wall: Duration,
    /// Typed attributes in recording order.
    pub attrs: Vec<(&'static str, AttrVal)>,
}

/// The merged, deterministic view of a [`Trace`](crate::Trace).
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Spans ordered by (shard name, preorder position) — equivalently by
    /// ascending id and ascending `ts`.
    pub spans: Vec<JournalSpan>,
    /// Spans discarded by per-shard caps.
    pub dropped: u64,
}

impl Journal {
    pub(crate) fn build(shards: &BTreeMap<String, Shard>) -> Journal {
        // Shards with no spans (a worker that recorded only metrics, or
        // whose cap swallowed everything) contribute their drop count but
        // must not shift span ids, tids or the logical clock: the journal
        // of `{A, empty, B}` is byte-identical to the journal of `{A, B}`.

        // Pass 1: global ids in (shard name, preorder) order.
        let mut first_id = BTreeMap::new();
        let mut next_id = 1u64;
        for (name, shard) in shards {
            if shard.spans.is_empty() {
                continue;
            }
            first_id.insert(name.as_str(), next_id);
            next_id += shard.spans.len() as u64;
        }

        let resolve_link = |shard_name: &str, index: usize| -> u64 {
            match first_id.get(shard_name) {
                Some(base) => base + index as u64,
                None => 0,
            }
        };

        // Pass 2: parents and the logical clock, shard by shard.
        let mut spans = Vec::new();
        let mut dropped = 0u64;
        let mut clock = 0u64;
        let mut tid = 0usize;
        for (name, shard) in shards {
            dropped += shard.dropped;
            if shard.spans.is_empty() {
                continue;
            }
            tid += 1;
            let base = first_id[name.as_str()];
            let link_parent = shard
                .link
                .as_ref()
                .map(|l| resolve_link(&l.shard, l.index))
                .unwrap_or(0);
            let offset = spans.len();
            let mut stack: Vec<usize> = Vec::new();
            for (i, rec) in shard.spans.iter().enumerate() {
                // Replay the open/close discipline: pop (and end) spans
                // until the top of the stack is this span's parent.
                while let Some(&top) = stack.last() {
                    if rec.parent == Some(top) {
                        break;
                    }
                    stack.pop();
                    let ended: &mut JournalSpan = &mut spans[offset + top];
                    ended.end = clock;
                    clock += 1;
                }
                let parent = match rec.parent {
                    Some(p) => base + p as u64,
                    None => link_parent,
                };
                spans.push(JournalSpan {
                    id: base + i as u64,
                    parent,
                    name: rec.name.clone(),
                    shard: name.clone(),
                    tid: tid as u32,
                    ts: clock,
                    end: 0,
                    wall: rec.wall,
                    attrs: rec.attrs.clone(),
                });
                clock += 1;
                stack.push(i);
            }
            while let Some(top) = stack.pop() {
                let ended: &mut JournalSpan = &mut spans[offset + top];
                ended.end = clock;
                clock += 1;
            }
        }
        Journal { spans, dropped }
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the journal holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Shard names in merge (= export) order.
    pub(crate) fn shards(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for span in &self.spans {
            if names.last() != Some(&span.shard) {
                names.push(span.shard.clone());
            }
        }
        names
    }

    /// Number of spans with exactly this name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// First span with exactly this name.
    pub fn find(&self, name: &str) -> Option<&JournalSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// JSON-lines export: one object per span, in journal order, with
    /// logical ticks only (deterministic across machines).
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str("{\"id\":");
            out.push_str(&span.id.to_string());
            out.push_str(",\"parent\":");
            out.push_str(&span.parent.to_string());
            out.push_str(",\"name\":");
            json::push_str_literal(&mut out, &span.name);
            out.push_str(",\"shard\":");
            json::push_str_literal(&mut out, &span.shard);
            out.push_str(",\"ts\":");
            out.push_str(&span.ts.to_string());
            out.push_str(",\"end\":");
            out.push_str(&span.end.to_string());
            out.push_str(",\"attrs\":");
            json::push_attrs(&mut out, &span.attrs);
            out.push_str("}\n");
        }
        out
    }

    /// Chrome `trace_event` export (load in Perfetto / `chrome://tracing`):
    /// paired `B`/`E` duration events on one thread track per shard, plus
    /// `M` metadata events naming the tracks. Timestamps are logical ticks
    /// (the viewer only needs order and nesting).
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with(None, None)
    }

    /// [`Journal::chrome_trace`] plus counter (`"C"`) tracks.
    ///
    /// With `counters`, every [`Unit::Count`] counter and every gauge in
    /// the snapshot gets a two-point counter track on pid 1 (value 0 at
    /// tick 0, final value at the last span tick) so ordinary study runs
    /// see transport retries, cache hits etc. alongside the spans.
    /// With `timeline`, each closed window emits one counter event per
    /// series (a histogram's as its p99) on pid 2 (timestamps are the
    /// windows' logical ends in microseconds) — Perfetto renders
    /// throughput, queue-depth and p99 curves next to the span tracks.
    pub fn chrome_trace_with(
        &self,
        counters: Option<&MetricsSnapshot>,
        timeline: Option<&Timeline>,
    ) -> String {
        let mut events: Vec<(u64, bool, &JournalSpan)> = Vec::new();
        for span in &self.spans {
            events.push((span.ts, true, span));
            events.push((span.end, false, span));
        }
        events.sort_by_key(|(tick, _, _)| *tick);
        let last_tick = events.last().map(|(tick, _, _)| *tick).unwrap_or(0);

        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"redlight\"}}",
        );
        for name in self.shards() {
            let tid = self
                .spans
                .iter()
                .find(|s| s.shard == name)
                .map(|s| s.tid)
                .unwrap_or(0);
            out.push_str(",\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":");
            out.push_str(&tid.to_string());
            out.push_str(",\"args\":{\"name\":");
            json::push_str_literal(&mut out, &name);
            out.push_str("}}");
        }
        for (tick, is_begin, span) in events {
            out.push_str(",\n{\"ph\":\"");
            out.push_str(if is_begin { "B" } else { "E" });
            out.push_str("\",\"pid\":1,\"tid\":");
            out.push_str(&span.tid.to_string());
            out.push_str(",\"ts\":");
            out.push_str(&tick.to_string());
            out.push_str(",\"name\":");
            json::push_str_literal(&mut out, &span.name);
            if is_begin {
                out.push_str(",\"cat\":\"redlight\",\"args\":");
                let mut attrs = vec![("id", AttrVal::U64(span.id))];
                if span.parent != 0 {
                    attrs.push(("parent", AttrVal::U64(span.parent)));
                }
                attrs.extend(span.attrs.iter().cloned());
                json::push_attrs(&mut out, &attrs);
            }
            out.push('}');
        }
        let push_counter = |out: &mut String, pid: u32, ts: u64, name: &str, value: i64| {
            out.push_str(",\n{\"ph\":\"C\",\"pid\":");
            out.push_str(&pid.to_string());
            out.push_str(",\"tid\":0,\"ts\":");
            out.push_str(&ts.to_string());
            out.push_str(",\"name\":");
            json::push_str_literal(out, name);
            out.push_str(",\"args\":{\"value\":");
            out.push_str(&value.to_string());
            out.push_str("}}");
        };
        if let Some(snap) = counters {
            for (name, value) in &snap.entries {
                let value = match value {
                    MetricValue::Counter {
                        value,
                        unit: Unit::Count,
                    } => *value as i64,
                    MetricValue::Gauge { value } => *value,
                    _ => continue,
                };
                if value == 0 {
                    continue;
                }
                push_counter(&mut out, 1, 0, name, 0);
                push_counter(&mut out, 1, last_tick, name, value);
            }
        }
        if let Some(tl) = timeline {
            out.push_str(
                ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,\"tid\":0,\
                 \"args\":{\"name\":\"timeline (logical \\u00b5s)\"}}",
            );
            for w in tl.windows() {
                let ts = w.end_ns / 1_000;
                for (i, name) in tl.counter_names().iter().enumerate() {
                    push_counter(&mut out, 2, ts, name, w.counters[i] as i64);
                }
                for (i, name) in tl.gauge_names().iter().enumerate() {
                    push_counter(&mut out, 2, ts, name, w.gauges[i]);
                }
                for (i, name) in tl.hist_names().iter().enumerate() {
                    let label = format!("{name}.p99");
                    push_counter(&mut out, 2, ts, &label, w.hists[i].p99 as i64);
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn sample_trace() -> Trace {
        let trace = Trace::new();
        let mut root = trace.tracer("00.root");
        root.open("collect");
        root.open("corpus.compile");
        root.close();
        let link = root.link().expect("collect open");
        let mut worker = trace.tracer_under("01.worker", link);
        worker.open("crawl");
        worker.open("visits.000");
        worker.attr("sites", 25u64);
        worker.close();
        worker.close();
        worker.finish();
        root.close();
        root.finish();
        trace
    }

    #[test]
    fn merge_is_independent_of_commit_order() {
        // Same spans, worker shard committed before the root shard.
        let reordered = Trace::new();
        {
            let mut worker = reordered.tracer("01.worker");
            worker.open("crawl");
            worker.open("visits.000");
            worker.attr("sites", 25u64);
            worker.close();
            worker.close();
            worker.finish();
        }
        let mut root = reordered.tracer("00.root");
        root.open("collect");
        root.open("corpus.compile");
        root.close();
        root.close();
        root.finish();

        let a = sample_trace().journal();
        let b = reordered.journal();
        let ids = |j: &Journal| -> Vec<(u64, String, u64, u64)> {
            j.spans
                .iter()
                .map(|s| (s.id, s.name.clone(), s.ts, s.end))
                .collect()
        };
        // Journals agree on ids, order and clock; only the cross-shard
        // parent differs (the reordered worker shard has no link).
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn cross_shard_links_become_parents() {
        let journal = sample_trace().journal();
        let collect = journal.find("collect").expect("collect span");
        let crawl = journal.find("crawl").expect("crawl span");
        assert_eq!(crawl.parent, collect.id);
        assert_eq!(journal.find("visits.000").expect("batch").parent, crawl.id);
    }

    #[test]
    fn logical_clock_nests_properly() {
        let journal = sample_trace().journal();
        for span in &journal.spans {
            assert!(span.end > span.ts, "{} must close after opening", span.name);
            if span.parent != 0 {
                // Parents in the same shard must strictly contain children.
                let parent = journal.spans.iter().find(|s| s.id == span.parent).unwrap();
                if parent.shard == span.shard {
                    assert!(parent.ts < span.ts && span.end < parent.end);
                }
            }
        }
    }

    #[test]
    fn chrome_trace_is_balanced() {
        let trace = sample_trace().journal().chrome_trace();
        let begins = trace.matches("\"ph\":\"B\"").count();
        let ends = trace.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, 4);
        assert_eq!(begins, ends);
    }

    #[test]
    fn json_lines_one_object_per_span() {
        let journal = sample_trace().journal();
        let lines = journal.json_lines();
        assert_eq!(lines.lines().count(), journal.len());
        assert!(lines.lines().all(|l| l.starts_with("{\"id\":")));
    }

    #[test]
    fn empty_shards_do_not_shift_ids_ticks_or_tids() {
        fn shard_with(names: &[&str]) -> Shard {
            let mut shard = Shard::default();
            for name in names {
                shard.spans.push(crate::span::SpanRec {
                    name: (*name).to_string(),
                    parent: None,
                    attrs: Vec::new(),
                    wall: Duration::ZERO,
                });
            }
            shard
        }

        let mut with_empty = BTreeMap::new();
        with_empty.insert("00.root".to_string(), shard_with(&["collect"]));
        let quiet = Shard {
            dropped: 3,
            ..Default::default()
        };
        with_empty.insert("01.metrics-only".to_string(), quiet);
        with_empty.insert("02.worker".to_string(), shard_with(&["crawl"]));

        let mut without = BTreeMap::new();
        without.insert("00.root".to_string(), shard_with(&["collect"]));
        without.insert("02.worker".to_string(), shard_with(&["crawl"]));

        let a = Journal::build(&with_empty);
        let b = Journal::build(&without);
        assert_eq!(a.json_lines(), b.json_lines());
        let tids = |j: &Journal| j.spans.iter().map(|s| s.tid).collect::<Vec<_>>();
        assert_eq!(tids(&a), vec![1, 2], "tids stay dense and 1-based");
        assert_eq!(tids(&a), tids(&b));
        assert_eq!(a.dropped, 3, "drop counts still accumulate");
        assert_eq!(b.dropped, 0);
    }

    #[test]
    fn metrics_only_worker_leaves_journal_unchanged() {
        let baseline = sample_trace().journal().json_lines();
        let trace = sample_trace();
        // A worker that records metrics but never opens a span: its tracer
        // finishes empty and must not perturb the merged journal.
        let quiet = trace.tracer("02.metrics-only");
        quiet.finish();
        assert_eq!(trace.journal().json_lines(), baseline);
    }

    #[test]
    fn chrome_trace_with_adds_counter_tracks() {
        let journal = sample_trace().journal();
        assert_eq!(
            journal.chrome_trace(),
            journal.chrome_trace_with(None, None),
            "plain export is the no-extras case"
        );

        let registry = crate::Registry::new();
        registry.counter("transport_retries").add(7);
        registry.counter_with_unit("crawl_ns", Unit::Nanos).add(9);
        registry.gauge("depth").set(2);
        let snap = registry.snapshot();
        let trace = journal.chrome_trace_with(Some(&snap), None);
        assert_eq!(trace.matches("\"ph\":\"C\"").count(), 4);
        assert!(trace.contains("\"name\":\"transport_retries\""));
        assert!(trace.contains("\"name\":\"depth\""));
        assert!(
            !trace.contains("crawl_ns"),
            "wall-time counters stay out of deterministic exports"
        );

        let mut tl = Timeline::new(Duration::from_millis(1), &["transport_retries"], &[], &[]);
        tl.close(&[5], &[], &[]);
        tl.finish(1_500_000, &[0], &[], &[]);
        let traced = journal.chrome_trace_with(None, Some(&tl));
        assert!(traced.contains("\"pid\":2"));
        assert!(
            traced.contains("\"ts\":1000,\"name\":\"transport_retries\",\"args\":{\"value\":5}")
        );
    }
}
