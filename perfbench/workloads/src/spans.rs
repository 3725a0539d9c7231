//! Benchmark-side span recorder: one span around every call the benchmark
//! makes into a layer's public function. Spans are kept in memory and
//! written once, at exit; `perfbench/perfstats.py` derives self times from
//! them. A disabled recorder (the untraced, end-to-end run) records nothing.
//!
//! High-rate leaves (one per simulated event) are folded: all leaves of
//! one name under one parent become a single record carrying their count
//! and summed busy time. Recording is single-threaded and nests strictly,
//! so folded leaves are disjoint from each other and from their siblings.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    parent: Option<usize>,
    op: i64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Spans folded into this record (1 for an ordinary span).
    count: u64,
    /// Summed duration of the folded spans.
    busy_ns: u64,
}

pub struct Spans {
    on: bool,
    t0: Instant,
    op: i64,
    open: Vec<usize>,
    done: Vec<Span>,
    /// Folded leaf record of each (parent, name) seen so far.
    folded: HashMap<(Option<usize>, &'static str), usize>,
}

/// Handle of an open span; close it with [`Spans::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            op: -1,
            open: Vec::new(),
            done: Vec::new(),
            folded: HashMap::new(),
        }
    }

    /// Operation id stamped on the spans begun from now on (-1 is set-up).
    pub fn set_op(&mut self, op: i64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.done.len();
        self.done.push(Span {
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            count: 1,
            busy_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans close in LIFO order");
        let span = &mut self.done[idx];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Start time for a [`Spans::leaf`]; `None` (no clock read) when the
    /// recorder is off.
    pub fn clock(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// A leaf span from `start` to now, folded into its parent's record
    /// for `name`.
    pub fn leaf(&mut self, name: &'static str, start: Option<Instant>) {
        let Some(start) = start else { return };
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        let end_ns = self.now_ns();
        let parent = self.open.last().copied();
        let idx = *self.folded.entry((parent, name)).or_insert_with(|| {
            self.done.push(Span {
                parent,
                op: self.op,
                name,
                start_ns,
                end_ns,
                count: 0,
                busy_ns: 0,
            });
            self.done.len() - 1
        });
        let span = &mut self.done[idx];
        span.end_ns = end_ns;
        span.count += 1;
        span.busy_ns += end_ns - start_ns;
    }

    /// One line per record: `id parent op name start_ns end_ns count
    /// busy_ns`, parent -1 for a root span.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before writing");
        let mut out = String::with_capacity(48 * self.done.len());
        for (id, s) in self.done.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{} {} {} {} {} {} {} {}",
                id, parent, s.op, s.name, s.start_ns, s.end_ns, s.count, s.busy_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}
