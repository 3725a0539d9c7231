//! Deterministic telemetry: sim-time-stamped spans, counters and sample
//! histograms recorded into a per-run [`Journal`].
//!
//! Every record is keyed to **simulated** time (never wall clocks) and all
//! randomness in the simulator is seeded, so a journal is a pure function of
//! the configuration: the same experiment produces a byte-identical journal
//! at any `--jobs` level. That makes the journal a first-class *test
//! oracle* — `tests/golden_traces.rs` diffs canonical journal text against
//! committed fixtures — as well as a debugging aid: [`Journal::to_chrome_json`]
//! exports the Chrome trace-event format loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev).
//!
//! # Recording model
//!
//! Recording is **thread-local** and off by default. The campaign engine
//! calls [`install`] before a sweep point runs and [`take`] afterwards; the
//! instrumented layers (`engine`, `netsim`, `mpisim`, `taskrt`, the
//! protocol driver) call the free functions below, which are near-free
//! no-ops while no recorder is installed (a single thread-local flag test).
//!
//! Three span flavours cover the simulator's concurrency patterns:
//!
//! * **sync spans** ([`begin`]/[`end`]) where stack discipline holds per
//!   [`Lane`] (a worker core runs one task at a time);
//! * **async spans** ([`async_begin`]/[`async_end`]) for overlapping work
//!   keyed by `(category, id)` (in-flight transfers, MPI requests);
//! * **complete spans** ([`complete`]) when both endpoints are known at
//!   record time (a registration of known cost, a whole engine run).
//!
//! # Run re-basing
//!
//! One sweep point runs several independent simulations (three protocol
//! steps × repetitions), each starting at simulated time zero. A recorder
//! keeps a monotone watermark; [`mark_run`] re-bases subsequent records
//! past everything already recorded, producing a single monotone timeline
//! per point. Counters are snapshotted into the record stream at every
//! mark (and at [`take`]), so counter monotonicity is checkable from the
//! journal alone.
//!
//! Memoized baselines shared across sweep points execute under
//! [`suspend`], so *which* point happens to compute a cached baseline
//! (a scheduling race under `--jobs N`) never leaks into any journal.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;

use crate::stats::quantile;
use crate::time::SimTime;

/// Where a record happened: the timeline ("thread") it renders on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum Lane {
    /// Campaign engine (per-point spans).
    Campaign,
    /// The discrete-event engine itself.
    Engine,
    /// A node's communication side.
    Node(u8),
    /// A specific core of a node (runtime workers, compute tasks).
    Core {
        /// Node index.
        node: u8,
        /// Logical core index.
        core: u16,
    },
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Campaign => write!(f, "campaign"),
            Lane::Engine => write!(f, "engine"),
            Lane::Node(n) => write!(f, "n{}", n),
            Lane::Core { node, core } => write!(f, "n{}.c{}", node, core),
        }
    }
}

/// Payload of one journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum RecordKind {
    /// Open a sync span (stack discipline per lane).
    Begin {
        /// Span category ("task", "campaign"…).
        cat: &'static str,
        /// Span name.
        name: String,
        /// Timeline.
        lane: Lane,
    },
    /// Close the innermost sync span of `lane`.
    End {
        /// Category of the span being closed.
        cat: &'static str,
        /// Timeline.
        lane: Lane,
    },
    /// A span with both endpoints known at record time.
    Complete {
        /// Span category.
        cat: &'static str,
        /// Span name.
        name: String,
        /// Timeline.
        lane: Lane,
        /// Span duration (record time is the start).
        dur: SimTime,
    },
    /// Open an async span keyed by `(cat, id)` (overlap allowed).
    AsyncBegin {
        /// Span category ("net.xfer", "mpi.send"…).
        cat: &'static str,
        /// Span name.
        name: String,
        /// Pairing id within the category.
        id: u64,
        /// Timeline.
        lane: Lane,
    },
    /// Close the async span `(cat, id)`.
    AsyncEnd {
        /// Category of the span being closed.
        cat: &'static str,
        /// Pairing id within the category.
        id: u64,
        /// Timeline.
        lane: Lane,
    },
    /// A point event (RTS/CTS on the wire, drops, timeouts…).
    Instant {
        /// Event category.
        cat: &'static str,
        /// Event name.
        name: String,
        /// Timeline.
        lane: Lane,
    },
    /// A run boundary written by [`mark_run`]: records after it were
    /// re-based past everything before it.
    Mark {
        /// Run label ("rep0/together"…).
        name: String,
    },
    /// Counter snapshot (cumulative value at record time).
    Counter {
        /// Counter name.
        name: &'static str,
        /// Cumulative value.
        value: u64,
    },
}

/// One timestamped journal entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Simulated time of the record (re-based; see [`mark_run`]).
    pub t: SimTime,
    /// What happened.
    pub kind: RecordKind,
}

/// A completed recording: the record stream plus aggregated counters and
/// sample histograms. Journals of several runs/points merge with
/// [`Journal::append`] after [`Journal::shift`]-ing onto a shared timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    /// Timestamped records in recording order.
    pub records: Vec<Record>,
    /// Final cumulative counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Histogram samples in recording order.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Journal {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.counters.is_empty() && self.samples.is_empty()
    }

    /// Latest time covered by any record (span ends included).
    pub fn end_time(&self) -> SimTime {
        self.records
            .iter()
            .map(|r| match r.kind {
                RecordKind::Complete { dur, .. } => {
                    SimTime(r.t.0.saturating_add(dur.0))
                }
                _ => r.t,
            })
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Shift every record by `offset` (saturating) — used when merging
    /// per-point journals onto one campaign timeline.
    pub fn shift(&mut self, offset: SimTime) {
        for r in &mut self.records {
            r.t = SimTime(r.t.0.saturating_add(offset.0));
        }
    }

    /// Append `other`'s records and merge its counters (summed) and
    /// samples (concatenated). Call [`Journal::shift`] on `other` first to
    /// keep the merged timeline monotone.
    pub fn append(&mut self, other: Journal) {
        self.records.extend(other.records);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Number of distinct span/instant categories present in the stream.
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = self
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::Begin { cat, .. }
                | RecordKind::End { cat, .. }
                | RecordKind::Complete { cat, .. }
                | RecordKind::AsyncBegin { cat, .. }
                | RecordKind::AsyncEnd { cat, .. }
                | RecordKind::Instant { cat, .. } => Some(*cat),
                _ => None,
            })
            .collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// Canonical text form: one line per record, then counters, then
    /// histogram rollups. This is the byte-stable oracle the golden-trace
    /// tests diff; floats print in shortest-roundtrip form.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 * self.records.len() + 256);
        for r in &self.records {
            let t = r.t.0;
            match &r.kind {
                RecordKind::Begin { cat, name, lane } => {
                    out.push_str(&format!("{} B {} {} @{}\n", t, cat, name, lane));
                }
                RecordKind::End { cat, lane } => {
                    out.push_str(&format!("{} E {} @{}\n", t, cat, lane));
                }
                RecordKind::Complete {
                    cat,
                    name,
                    lane,
                    dur,
                } => {
                    out.push_str(&format!("{} X {} {} @{} dur={}\n", t, cat, name, lane, dur.0));
                }
                RecordKind::AsyncBegin {
                    cat,
                    name,
                    id,
                    lane,
                } => {
                    out.push_str(&format!("{} b {} {} #{} @{}\n", t, cat, name, id, lane));
                }
                RecordKind::AsyncEnd { cat, id, lane } => {
                    out.push_str(&format!("{} e {} #{} @{}\n", t, cat, id, lane));
                }
                RecordKind::Instant { cat, name, lane } => {
                    out.push_str(&format!("{} i {} {} @{}\n", t, cat, name, lane));
                }
                RecordKind::Mark { name } => {
                    out.push_str(&format!("{} M {}\n", t, name));
                }
                RecordKind::Counter { name, value } => {
                    out.push_str(&format!("{} C {} = {}\n", t, name, value));
                }
            }
        }
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {} = {}\n", name, value));
        }
        for (name, samples) in &self.samples {
            let mut sorted = samples.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            out.push_str(&format!(
                "hist {} n={} p0={:?} p10={:?} p50={:?} p90={:?} p100={:?}\n",
                name,
                sorted.len(),
                quantile(&sorted, 0.0),
                quantile(&sorted, 0.10),
                quantile(&sorted, 0.50),
                quantile(&sorted, 0.90),
                quantile(&sorted, 1.0),
            ));
        }
        out
    }

    /// Export as Chrome trace-event JSON (the `chrome://tracing` /
    /// [Perfetto](https://ui.perfetto.dev) format): lanes map to thread
    /// ids, sync spans to `B`/`E`, async spans to `b`/`e` with ids,
    /// completes to `X`, instants and marks to `i`, counter snapshots to
    /// `C`. Timestamps convert from picoseconds to the format's
    /// microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut lanes: Vec<Lane> = self
            .records
            .iter()
            .filter_map(|r| match &r.kind {
                RecordKind::Begin { lane, .. }
                | RecordKind::End { lane, .. }
                | RecordKind::Complete { lane, .. }
                | RecordKind::AsyncBegin { lane, .. }
                | RecordKind::AsyncEnd { lane, .. }
                | RecordKind::Instant { lane, .. } => Some(*lane),
                _ => None,
            })
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        let tid = |lane: &Lane| lanes.binary_search(lane).expect("lane listed") + 1;

        let mut out = String::with_capacity(128 * self.records.len() + 1024);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"args\":{\"name\":\"sim\"}}",
        );
        for lane in &lanes {
            out.push_str(&format!(
                ",{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                tid(lane),
                esc(&lane.to_string())
            ));
        }
        let ts = |t: SimTime| t.0 as f64 / 1e6; // ps → µs
        for r in &self.records {
            out.push(',');
            match &r.kind {
                RecordKind::Begin { cat, name, lane } => out.push_str(&format!(
                    "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:?},\"pid\":0,\"tid\":{}}}",
                    esc(name), cat, ts(r.t), tid(lane)
                )),
                RecordKind::End { cat, lane } => out.push_str(&format!(
                    "{{\"ph\":\"E\",\"cat\":\"{}\",\"ts\":{:?},\"pid\":0,\"tid\":{}}}",
                    cat, ts(r.t), tid(lane)
                )),
                RecordKind::Complete { cat, name, lane, dur } => out.push_str(&format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:?},\"dur\":{:?},\"pid\":0,\"tid\":{}}}",
                    esc(name), cat, ts(r.t), ts(*dur), tid(lane)
                )),
                RecordKind::AsyncBegin { cat, name, id, lane } => out.push_str(&format!(
                    "{{\"ph\":\"b\",\"name\":\"{}\",\"cat\":\"{}\",\"id\":\"{:#x}\",\"ts\":{:?},\"pid\":0,\"tid\":{}}}",
                    esc(name), cat, id, ts(r.t), tid(lane)
                )),
                RecordKind::AsyncEnd { cat, id, lane } => out.push_str(&format!(
                    "{{\"ph\":\"e\",\"cat\":\"{}\",\"id\":\"{:#x}\",\"ts\":{:?},\"pid\":0,\"tid\":{}}}",
                    cat, id, ts(r.t), tid(lane)
                )),
                RecordKind::Instant { cat, name, lane } => out.push_str(&format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{:?},\"pid\":0,\"tid\":{},\"s\":\"t\"}}",
                    esc(name), cat, ts(r.t), tid(lane)
                )),
                RecordKind::Mark { name } => out.push_str(&format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"run\",\"ts\":{:?},\"pid\":0,\"tid\":0,\"s\":\"p\"}}",
                    esc(name), ts(r.t)
                )),
                RecordKind::Counter { name, value } => out.push_str(&format!(
                    "{{\"ph\":\"C\",\"name\":\"{}\",\"ts\":{:?},\"pid\":0,\"args\":{{\"value\":{}}}}}",
                    name, ts(r.t), value
                )),
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
        out
    }
}

/// Escape a string for embedding in a JSON string literal: quotes,
/// backslashes, `\n`, `\r` and `\t` get their short escapes, other control
/// characters `\u00XX`. The one escaper behind every JSON export (figure
/// JSON and the Chrome trace).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The thread-local recording state behind the free functions.
struct Recorder {
    journal: Journal,
    /// Offset added to every local timestamp (see [`mark_run`]).
    base: SimTime,
    /// Monotone high-water mark of re-based time.
    watermark: SimTime,
    /// Counter values at the last snapshot (to skip unchanged ones).
    snapshotted: BTreeMap<&'static str, u64>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            journal: Journal::default(),
            base: SimTime::ZERO,
            watermark: SimTime::ZERO,
            snapshotted: BTreeMap::new(),
        }
    }

    fn push(&mut self, t_local: SimTime, kind: RecordKind) {
        let t = SimTime(self.base.0.saturating_add(t_local.0));
        let end = match &kind {
            RecordKind::Complete { dur, .. } => SimTime(t.0.saturating_add(dur.0)),
            _ => t,
        };
        self.watermark = self.watermark.max(end);
        self.journal.records.push(Record { t, kind });
    }

    /// Snapshot every counter whose value changed since the last snapshot.
    fn snapshot_counters(&mut self, t: SimTime) {
        let changed: Vec<(&'static str, u64)> = self
            .journal
            .counters
            .iter()
            .filter(|(k, v)| self.snapshotted.get(*k) != Some(v))
            .map(|(k, v)| (*k, *v))
            .collect();
        for (name, value) in changed {
            self.snapshotted.insert(name, value);
            self.journal
                .records
                .push(Record {
                    t,
                    kind: RecordKind::Counter { name, value },
                });
        }
    }

    fn mark_run(&mut self, name: &str) {
        let t = self.watermark;
        self.snapshot_counters(t);
        self.base = t;
        self.journal.records.push(Record {
            t,
            kind: RecordKind::Mark { name: name.into() },
        });
    }

    fn finish(mut self) -> Journal {
        let t = self.watermark;
        self.snapshot_counters(t);
        self.journal
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Install a fresh recorder on this thread (replacing any previous one)
/// and enable recording.
pub fn install() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::new()));
    ACTIVE.with(|a| a.set(true));
}

/// Stop recording and return the journal, if a recorder was installed.
pub fn take() -> Option<Journal> {
    ACTIVE.with(|a| a.set(false));
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map(Recorder::finish)
}

/// True while a recorder is installed and not suspended. Call sites that
/// must allocate to build a record (e.g. `format!` a label) should guard on
/// this so disabled runs stay allocation-free.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` with recording suspended (restored even on unwind). The
/// campaign's baseline cache wraps memoized computations in this so the
/// scheduling race of *which* sweep point computes a shared baseline never
/// leaks into any journal.
pub fn suspend<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|a| a.set(self.0));
        }
    }
    let _restore = Restore(ACTIVE.with(|a| a.replace(false)));
    f()
}

/// Run `f` under its own fresh recorder, returning its journal separately;
/// the caller's recorder is restored afterwards (even on unwind) with
/// nothing from `f` in it. No-op wrapper returning `None` while recording
/// is inactive.
///
/// This is how shared computations (memoized baselines) stay observable
/// without breaking parallel determinism: their journal is keyed by *what*
/// was computed, not by which caller got there first.
pub fn isolate<T>(f: impl FnOnce() -> T) -> (T, Option<Journal>) {
    if !is_active() {
        return (f(), None);
    }
    struct Restore(Option<Recorder>);
    impl Drop for Restore {
        fn drop(&mut self) {
            RECORDER.with(|r| *r.borrow_mut() = self.0.take());
            ACTIVE.with(|a| a.set(true));
        }
    }
    let _restore = Restore(RECORDER.with(|r| r.borrow_mut().take()));
    install();
    let v = f();
    let j = take();
    (v, j)
}

fn with(f: impl FnOnce(&mut Recorder)) {
    if !is_active() {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

/// Mark a run boundary: re-base subsequent records past everything already
/// recorded and snapshot the counters. Call before each independent
/// simulation of a sweep point (each protocol step of each repetition).
pub fn mark_run(name: &str) {
    with(|r| r.mark_run(name));
}

/// Open a sync span on `lane` (stack discipline per lane).
pub fn begin(t: SimTime, cat: &'static str, name: &str, lane: Lane) {
    with(|r| {
        r.push(
            t,
            RecordKind::Begin {
                cat,
                name: name.into(),
                lane,
            },
        )
    });
}

/// Close the innermost sync span of `lane`.
pub fn end(t: SimTime, cat: &'static str, lane: Lane) {
    with(|r| r.push(t, RecordKind::End { cat, lane }));
}

/// Record a span with both endpoints known (`start <= stop`).
pub fn complete(start: SimTime, stop: SimTime, cat: &'static str, name: &str, lane: Lane) {
    with(|r| {
        r.push(
            start,
            RecordKind::Complete {
                cat,
                name: name.into(),
                lane,
                dur: stop.saturating_sub(start),
            },
        )
    });
}

/// Open an async span keyed by `(cat, id)`; overlap across ids is fine.
pub fn async_begin(t: SimTime, cat: &'static str, name: &str, id: u64, lane: Lane) {
    with(|r| {
        r.push(
            t,
            RecordKind::AsyncBegin {
                cat,
                name: name.into(),
                id,
                lane,
            },
        )
    });
}

/// Close the async span `(cat, id)`.
pub fn async_end(t: SimTime, cat: &'static str, id: u64, lane: Lane) {
    with(|r| r.push(t, RecordKind::AsyncEnd { cat, id, lane }));
}

/// Record a point event.
pub fn instant(t: SimTime, cat: &'static str, name: &str, lane: Lane) {
    with(|r| {
        r.push(
            t,
            RecordKind::Instant {
                cat,
                name: name.into(),
                lane,
            },
        )
    });
}

/// Add `delta` to a cumulative counter. Counters only ever increase;
/// snapshots enter the record stream at run marks and at [`take`].
pub fn counter_add(name: &'static str, delta: u64) {
    with(|r| *r.journal.counters.entry(name).or_insert(0) += delta);
}

/// Record one histogram sample (canonical text rolls these up into
/// quantiles via [`crate::stats::quantile`]).
pub fn sample(name: &'static str, value: f64) {
    with(|r| r.journal.samples.entry(name).or_default().push(value));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    /// Recorders are thread-local; run each test body on a fresh thread so
    /// parallel test execution never shares state.
    fn isolated<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn json_escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\r\t"), "\\r\\t");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        isolated(|| {
            assert!(!is_active());
            begin(us(1), "x", "a", Lane::Engine);
            counter_add("c", 1);
            assert!(take().is_none());
        });
    }

    #[test]
    fn records_and_counters_roundtrip() {
        isolated(|| {
            install();
            begin(us(1), "task", "t0", Lane::Core { node: 0, core: 3 });
            counter_add("rt.dispatches", 2);
            end(us(5), "task", Lane::Core { node: 0, core: 3 });
            instant(us(6), "net", "rts", Lane::Node(1));
            sample("lat_us", 1.5);
            sample("lat_us", 2.5);
            let j = take().expect("installed");
            assert!(take().is_none(), "take clears the recorder");
            assert_eq!(j.counters["rt.dispatches"], 2);
            assert_eq!(j.samples["lat_us"], vec![1.5, 2.5]);
            // Final counter snapshot lands in the stream at the watermark.
            assert!(j
                .records
                .iter()
                .any(|r| matches!(r.kind, RecordKind::Counter { value: 2, .. })));
            let text = j.to_text();
            assert!(text.contains("B task t0 @n0.c3"), "{}", text);
            assert!(text.contains("hist lat_us n=2"), "{}", text);
        });
    }

    #[test]
    fn mark_run_rebases_time_monotonically() {
        isolated(|| {
            install();
            instant(us(10), "a", "first", Lane::Engine);
            mark_run("run1");
            // A fresh simulation restarts at t=0; the journal stays monotone.
            instant(us(2), "a", "second", Lane::Engine);
            let j = take().unwrap();
            let times: Vec<u64> = j.records.iter().map(|r| r.t.0).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "re-based timeline must be monotone");
            assert_eq!(j.records.last().unwrap().t, us(12));
        });
    }

    #[test]
    fn suspend_masks_records_and_restores() {
        isolated(|| {
            install();
            instant(us(1), "a", "kept", Lane::Engine);
            let v = suspend(|| {
                assert!(!is_active());
                instant(us(2), "a", "dropped", Lane::Engine);
                42
            });
            assert_eq!(v, 42);
            assert!(is_active());
            instant(us(3), "a", "kept2", Lane::Engine);
            let j = take().unwrap();
            let names: Vec<&str> = j
                .records
                .iter()
                .filter_map(|r| match &r.kind {
                    RecordKind::Instant { name, .. } => Some(name.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(names, vec!["kept", "kept2"]);
        });
    }

    #[test]
    fn isolate_splits_journals_and_restores() {
        isolated(|| {
            install();
            instant(us(1), "a", "outer1", Lane::Engine);
            let (v, inner) = isolate(|| {
                instant(us(2), "a", "inner", Lane::Engine);
                7
            });
            assert_eq!(v, 7);
            let inner = inner.expect("recording was active");
            instant(us(3), "a", "outer2", Lane::Engine);
            let outer = take().unwrap();
            let names = |j: &Journal| -> Vec<String> {
                j.records
                    .iter()
                    .filter_map(|r| match &r.kind {
                        RecordKind::Instant { name, .. } => Some(name.clone()),
                        _ => None,
                    })
                    .collect()
            };
            assert_eq!(names(&inner), vec!["inner"]);
            assert_eq!(names(&outer), vec!["outer1", "outer2"]);
        });
    }

    #[test]
    fn isolate_inactive_is_passthrough() {
        isolated(|| {
            let (v, j) = isolate(|| 3);
            assert_eq!(v, 3);
            assert!(j.is_none());
        });
    }

    #[test]
    fn suspend_restores_on_unwind() {
        isolated(|| {
            install();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                suspend(|| panic!("boom"))
            }));
            assert!(r.is_err());
            assert!(is_active(), "flag must be restored after a panic");
            take();
        });
    }

    #[test]
    fn shift_and_append_merge_timelines() {
        isolated(|| {
            install();
            complete(us(0), us(4), "engine", "run", Lane::Engine);
            counter_add("n", 1);
            let mut a = take().unwrap();

            install();
            complete(us(0), us(6), "engine", "run", Lane::Engine);
            counter_add("n", 2);
            let mut b = take().unwrap();

            assert_eq!(a.end_time(), us(4));
            b.shift(a.end_time());
            a.append(b);
            assert_eq!(a.end_time(), us(10));
            assert_eq!(a.counters["n"], 3);
        });
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        isolated(|| {
            install();
            begin(us(1), "task", "t\"0", Lane::Core { node: 0, core: 1 });
            end(us(2), "task", Lane::Core { node: 0, core: 1 });
            async_begin(us(1), "net.xfer", "rdv", 7, Lane::Node(0));
            async_end(us(9), "net.xfer", 7, Lane::Node(0));
            mark_run("rep0");
            counter_add("net.retrans", 3);
            let j = take().unwrap();
            let json = j.to_chrome_json();
            assert!(json.starts_with("{\"traceEvents\":["));
            assert!(json.trim_end().ends_with('}'));
            assert!(json.contains("\"ph\":\"B\""));
            assert!(json.contains("\"ph\":\"b\""));
            assert!(json.contains("\"id\":\"0x7\""));
            assert!(json.contains("thread_name"));
            assert!(json.contains("t\\\"0"), "names are JSON-escaped");
            // ps → µs conversion: 1 µs is ts 1.0.
            assert!(json.contains("\"ts\":1.0"), "{}", json);
        });
    }

    #[test]
    fn counter_snapshots_only_on_change() {
        isolated(|| {
            install();
            counter_add("a", 1);
            mark_run("r1");
            mark_run("r2"); // unchanged: no second snapshot
            counter_add("a", 1);
            let j = take().unwrap();
            let snaps = j
                .records
                .iter()
                .filter(|r| matches!(r.kind, RecordKind::Counter { name: "a", .. }))
                .count();
            assert_eq!(snaps, 2, "one at r1, one final");
        });
    }

    #[test]
    fn categories_lists_distinct_cats() {
        isolated(|| {
            install();
            instant(us(1), "net", "rts", Lane::Node(0));
            instant(us(2), "net", "cts", Lane::Node(1));
            begin(us(3), "task", "t", Lane::Core { node: 0, core: 0 });
            let j = take().unwrap();
            assert_eq!(j.categories(), vec!["net", "task"]);
        });
    }
}
