//! Pieces every workload shares: exact latency samples, the span
//! recorder of the traced run, the progress watchdog, metric output and
//! the environment block.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Nanoseconds of a duration, saturating into `u32` (4.29 s), which is
/// far beyond any single timed call of this benchmark.
pub fn ns32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// A fixed-capacity ring of exact latency samples in nanoseconds.
///
/// The buffer is allocated and written once up front, so the resident
/// memory it adds does not depend on how many samples a run takes and
/// `peak_rss_mib` stays a property of the program. When full, the
/// oldest samples are overwritten; [`Samples::total`] counts every
/// sample offered.
pub struct Samples {
    buf: Vec<u32>,
    next: usize,
    total: u64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Self {
        // A non-zero fill: zero fills compile to lazily mapped zero
        // pages, which would leave the buffer non-resident until used.
        let buf = vec![u32::MAX; cap];
        Samples {
            buf,
            next: 0,
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u32) {
        self.buf[self.next] = ns;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
        }
        self.total += 1;
    }

    /// Samples offered, including those the ring has since overwritten.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The samples currently held, in no particular order.
    pub fn retained(&self) -> &[u32] {
        let held = usize::try_from(self.total).map_or(self.buf.len(), |t| t.min(self.buf.len()));
        &self.buf[..held]
    }

    /// The samples currently held, oldest first.
    pub fn chronological(&self) -> Vec<u32> {
        if self.total > self.buf.len() as u64 {
            [&self.buf[self.next..], &self.buf[..self.next]].concat()
        } else {
            self.retained().to_vec()
        }
    }
}

/// Exact percentiles over a merged set of retained samples.
pub struct Dist {
    sorted: Vec<u32>,
    pub offered: u64,
}

impl Dist {
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Samples>) -> Self {
        let mut sorted = Vec::new();
        let mut offered = 0;
        for s in parts {
            sorted.extend_from_slice(s.retained());
            offered += s.total();
        }
        sorted.sort_unstable();
        Dist { sorted, offered }
    }

    pub fn from_vec(mut v: Vec<u32>) -> Self {
        v.sort_unstable();
        let offered = v.len() as u64;
        Dist { sorted: v, offered }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`; 0 when empty.
    pub fn pct(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        f64::from(self.sorted[rank.clamp(1, self.sorted.len()) - 1])
    }

    /// A line stating the sample count behind the percentiles.
    pub fn describe(&self, name: &str) -> String {
        format!(
            "{name}: {} retained exact samples ({} taken), p50 {} ns, p99 {} ns",
            self.len(),
            self.offered,
            self.pct(0.5),
            self.pct(0.99)
        )
    }
}

/// Median of a non-empty list of floats.
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Run a set-up `reps` times and keep the last result; returns it with
/// the median set-up time in seconds.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(times))
}

/// The work a closed-loop client does between two acquisitions:
/// `rounds` dependent multiply-adds the compiler cannot remove.
#[inline]
pub fn outside_work(seed: u64, rounds: u32) -> u64 {
    let mut a = seed | 1;
    for i in 0..rounds {
        a = a
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(u64::from(i));
    }
    std::hint::black_box(a)
}

// ---- spans ----------------------------------------------------------

/// One recorded span: a call into a layer, timed from the benchmark's
/// own code. `parent` is the id of the span that caused it (0 = root).
#[derive(Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub kind: usize,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread span recorder of the traced run. Durations of every span
/// go into one [`Samples`] ring per span kind; the first `keep` raw
/// spans are kept in memory and written out when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    next_id: u64,
    keep: usize,
    pub spans: Vec<Span>,
    pub durations: Vec<Samples>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32, kinds: usize, ring: usize, keep: usize) -> Self {
        Tracer {
            origin,
            thread,
            next_id: (u64::from(thread) << 40) + 1,
            keep,
            spans: Vec::with_capacity(keep),
            durations: (0..kinds).map(|_| Samples::with_capacity(ring)).collect(),
        }
    }

    /// Allocate a span id ahead of recording it, so children recorded
    /// first can name their parent.
    #[inline]
    pub fn id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a span of `kind` from `start` to `end`; returns its id.
    #[inline]
    pub fn span(&mut self, kind: usize, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.id();
        self.record(id, kind, parent, start, end);
        id
    }

    /// Record a span under an id from [`Tracer::id`].
    #[inline]
    pub fn record(&mut self, id: u64, kind: usize, parent: u64, start: Instant, end: Instant) {
        self.durations[kind].record(ns32(end - start));
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                id,
                parent,
                kind,
                thread: self.thread,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: (end - self.origin).as_nanos() as u64,
            });
        }
    }
}

/// Merge one span kind's durations across tracers.
pub fn span_dist(tracers: &[Tracer], kind: usize) -> Dist {
    Dist::merge(tracers.iter().map(|t| &t.durations[kind]))
}

/// Write the kept spans as JSON lines under the build directory
/// (`$CARGO_TARGET_DIR`, else `target`) and note where, or why not.
pub fn write_spans(r: &mut RunResult, file: &str, names: &[&str], tracers: &[Tracer]) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = std::path::Path::new(&dir).join("perfbench").join(file);
    let mut out = String::new();
    for s in tracers.iter().flat_map(|t| &t.spans) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, names[s.kind], s.thread, s.start_ns, s.end_ns
        );
    }
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, out));
    match written {
        Ok(()) => r.note(format!("spans written to {}", path.display())),
        Err(e) => r.note(format!("spans not written: {e}")),
    }
}

// ---- progress watchdog ------------------------------------------------

/// Started / resolved / entered attempt counters, one cache line per
/// slot, so load threads never share a written line. `beat` marks
/// progress in phases without attempts (set-up, exploration, cells).
pub struct Progress {
    slots: Box<[Slot]>,
    beats: AtomicU64,
}

#[repr(align(128))]
#[derive(Default)]
struct Slot {
    started: AtomicU64,
    resolved: AtomicU64,
    entered: AtomicU64,
}

impl Progress {
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(Progress {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            beats: AtomicU64::new(0),
        })
    }

    /// Publish a slot's running totals. Each slot has one writer, so
    /// plain stores suffice and the hot loop pays no atomic RMW.
    #[inline]
    pub fn report(&self, slot: usize, started: u64, resolved: u64, entered: u64) {
        let s = &self.slots[slot];
        s.started.store(started, Ordering::Relaxed);
        s.resolved.store(resolved, Ordering::Relaxed);
        s.entered.store(entered, Ordering::Relaxed);
    }

    pub fn beat(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }

    /// Zero every slot; load threads then count from 0 in a new phase.
    fn reset(&self) {
        for s in self.slots.iter() {
            s.started.store(0, Ordering::Relaxed);
            s.resolved.store(0, Ordering::Relaxed);
            s.entered.store(0, Ordering::Relaxed);
        }
        self.beat();
    }

    fn entered(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.entered.load(Ordering::Relaxed))
            .sum()
    }

    /// `(started, unresolved)` summed over slots.
    fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(s, u), slot| {
            let started = slot.started.load(Ordering::Relaxed);
            let resolved = slot.resolved.load(Ordering::Relaxed);
            (s + started, u + started.saturating_sub(resolved))
        })
    }
}

/// Ends the process when no attempt starts or resolves for `limit`:
/// prints a failing result that counts the unresolved attempts as
/// errors, then exits non-zero, so a hung run cannot hang its caller.
pub struct Watchdog {
    done: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn start(progress: Arc<Progress>, limit: Duration) -> Self {
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let thread = std::thread::spawn(move || {
            let tick = Duration::from_millis(100);
            let mut last = (u64::MAX, u64::MAX, u64::MAX);
            let mut still = Duration::ZERO;
            while !flag.load(Ordering::Acquire) {
                std::thread::sleep(tick);
                let (started, unresolved) = progress.totals();
                let now = (started, unresolved, progress.beats.load(Ordering::Relaxed));
                if now == last {
                    still += tick;
                } else {
                    still = Duration::ZERO;
                    last = now;
                }
                if still >= limit {
                    let unresolved = unresolved.max(1);
                    println!(
                        "# watchdog: no progress for {} s; {unresolved} attempts unresolved",
                        limit.as_secs()
                    );
                    println!(
                        "{{\"correct\": false, \"attempted\": {}, \"failed\": {unresolved}, \"metrics\": {{}}}}",
                        started.max(1)
                    );
                    std::process::exit(3);
                }
            }
        });
        Watchdog {
            done,
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

// ---- results ----------------------------------------------------------

/// What one workload run reports.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    /// Attempts that failed a correctness check or never resolved.
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Report the traced half's passages/s against the untraced half's.
    pub fn overhead(&mut self, untraced: f64, traced: f64) {
        self.metric("trace.overhead", 1.0 - traced / untraced, "ratio");
        self.note(format!(
            "passages/s untraced {untraced:.0}, traced {traced:.0}"
        ));
    }

    /// Record a failed correctness check affecting `attempts` attempts.
    pub fn fail(&mut self, attempts: u64, what: impl Into<String>) {
        self.failed += attempts.max(1);
        self.errors.push(what.into());
    }

    /// Keep only the named metrics, in the given order, filling any the
    /// workload does not reach with 0 (see the benchmark notes).
    pub fn select(&mut self, names: &[(&str, &'static str)]) {
        let have = std::mem::take(&mut self.metrics);
        for &(name, unit) in names {
            let v = have
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |&(_, v, _)| v);
            self.metrics.push((name.to_string(), v, unit));
        }
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0 && r.errors.is_empty(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The environment block printed with every result.
pub fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mode = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "git_rev={} nproc={nproc} rustc=\"{}\" mode={mode}",
        env!("PERFBENCH_GIT_REV"),
        env!("PERFBENCH_RUSTC")
    )
}

/// Windows a timed phase is split into: rates and latency percentiles
/// are reported as the median over windows, so a burst of outside load
/// in one window does not move the run's figure.
pub const WINDOWS: usize = 10;

/// The stop flag of one measurement phase.
pub struct Phase {
    stop: AtomicBool,
}

impl Phase {
    #[inline]
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// One timed phase of a closed loop on OS threads: one load thread per
/// entry of `states`, all released together; the calling thread only
/// keeps time, reading the entered counts the threads publish through
/// `progress` at each window boundary. Returns each thread's result and
/// the median over the [`WINDOWS`] windows of entered passages/s.
pub fn timed_threads<S: Send, T: Send>(
    states: Vec<S>,
    seconds: f64,
    progress: &Progress,
    work: impl Fn(usize, S, &Phase) -> T + Sync,
) -> (Vec<T>, f64) {
    let phase = Phase {
        stop: AtomicBool::new(false),
    };
    progress.reset();
    let barrier = Barrier::new(states.len() + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(i, st)| {
                let (phase, barrier, work) = (&phase, &barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    work(i, st, phase)
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let mut window_rates = Vec::with_capacity(WINDOWS);
        let (mut last_t, mut last_n) = (t0, 0);
        for w in 1..=WINDOWS {
            let due = t0 + Duration::from_secs_f64(seconds * w as f64 / WINDOWS as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let (now, n) = (Instant::now(), progress.entered());
            window_rates.push((n - last_n) as f64 / (now - last_t).as_secs_f64());
            (last_t, last_n) = (now, n);
        }
        phase.stop.store(true, Ordering::Relaxed);
        let out = handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        (out, median(window_rates))
    })
}

/// Exact percentiles per window: each part's retained samples, in the
/// order taken, are cut into [`WINDOWS`] equal runs; window `w` merges
/// run `w` of every part. Returns, for each `q`, the median over the
/// windows of the window's `q`-percentile.
pub fn windowed_pcts(parts: &[&Samples], qs: &[f64]) -> Vec<f64> {
    let chrono: Vec<Vec<u32>> = parts.iter().map(|s| s.chronological()).collect();
    let mut per_q: Vec<Vec<f64>> = vec![Vec::with_capacity(WINDOWS); qs.len()];
    for w in 0..WINDOWS {
        let mut win = Vec::new();
        for c in &chrono {
            win.extend_from_slice(&c[c.len() * w / WINDOWS..c.len() * (w + 1) / WINDOWS]);
        }
        let d = Dist::from_vec(win);
        for (i, &q) in qs.iter().enumerate() {
            per_q[i].push(d.pct(q));
        }
    }
    per_q.into_iter().map(median).collect()
}
