//! Measurement plumbing: a counting allocator, process CPU and peak-RSS
//! probes, the benchmark-side span recorder and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Wraps the system allocator and counts allocations while [`counting`]
/// is on. Only the traced run turns it on; untraced runs pay one relaxed
/// load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off.
pub fn counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used, all threads included
/// (exited ones too). Zero where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 of this tail.
    let Some(tail) = stat.rsplit_once(')').map(|(_, t)| t) else {
        return 0.0;
    };
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Returns freed heap memory to the kernel and restarts the peak-RSS count
/// (`VmHWM`) from the current resident size, so the next [`peak_rss_mib`]
/// covers what happened since, not what the allocator kept from before.
pub fn restart_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and only releases
        // free pages of the heap arenas; live allocations are untouched.
        unsafe {
            malloc_trim(0);
        }
    }
    // "5" resets the peak resident set size (Linux 4.0+); where that is
    // unavailable the peak simply keeps covering the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Median of a non-empty sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Lower quartile of a non-empty sample (linear interpolation between
/// order statistics, rank `(n - 1) / 4`); 0 for an empty one.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (v.len() - 1) as f64 / 4.0;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    match v.get(lo + 1) {
        Some(next) => v[lo] + frac * (next - v[lo]),
        None => v[lo],
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded call: its name, its parent, when it ran and how many
/// allocations it made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
    pub allocs: u64,
}

/// Spans of the traced run, kept in memory until the run ends. The
/// benchmark is single-threaded, so spans nest strictly.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; [`Spans::close`] ends the innermost open one.
    pub fn open(&mut self, name: &str) {
        self.spans.push(Span {
            name: name.to_owned(),
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            dur: Duration::ZERO,
            allocs: allocs(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn close(&mut self) -> Duration {
        let i = self.open.pop().expect("close matches an open span");
        let span = &mut self.spans[i];
        span.dur = self.epoch.elapsed() - span.start;
        span.allocs = allocs() - span.allocs;
        span.dur
    }

    /// Records `f` as one span named `name`; returns its result and wall
    /// seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.open(name);
        let out = f();
        (out, self.close().as_secs_f64())
    }

    /// The most recently closed span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, i: usize) -> Duration {
        let children: Duration = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.dur)
            .sum();
        self.spans[i].dur.saturating_sub(children)
    }

    /// One JSON object per span, in open order.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"self_us\":{},\"allocs\":{}}}",
                s.name,
                s.start.as_micros(),
                s.dur.as_micros(),
                self.self_time(i).as_micros(),
                s.allocs
            );
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events on one thread).
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"self_us\":{},\"allocs\":{}}}}}",
                    s.name,
                    s.start.as_micros(),
                    s.dur.as_micros(),
                    self.self_time(i).as_micros(),
                    s.allocs
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Named metrics with units, in insertion order. Setting a name twice
/// overwrites it.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name.to_owned(), value, unit)),
        }
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The result line every run prints last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}
