//! The discrete-event engine: time, timers and fluid flows.
//!
//! Domain layers (memory system, NIC, runtime…) schedule **timers** (fixed
//! latencies: wire time, handshakes, governor ticks, polling backoff) and
//! start **flows** (bandwidth-shared transfers). The engine interleaves both
//! kinds of events in global time order and hands back completion events
//! tagged with opaque `u64` tags. Tags are namespaced per subsystem (high
//! bits identify the owner) so a single driver loop can dispatch them.

use std::collections::VecDeque;
use std::fmt;

use crate::cancel::{self, CancelToken};
use crate::fluid::{FlowId, FlowReport, FlowSpec, FluidNet, ResourceId};
use crate::paths::SimPaths;
use crate::queue::{EventQueue, HeapQueue, QueueEntry, TimingWheel};
use crate::telemetry::{self, Lane};
use crate::time::SimTime;

pub use crate::queue::TimerId;

/// A completion event returned by [`Engine::next`].
#[derive(Clone, Debug)]
pub enum Event {
    /// A timer fired.
    Timer {
        /// The tag it was scheduled with.
        tag: u64,
    },
    /// A flow transferred its whole volume.
    Flow {
        /// The tag it was started with.
        tag: u64,
        /// Timing/stall report.
        report: FlowReport,
    },
}

impl Event {
    /// The tag regardless of event kind.
    pub fn tag(&self) -> u64 {
        match self {
            Event::Timer { tag } => *tag,
            Event::Flow { tag, .. } => *tag,
        }
    }
}

/// The engine's timer queue: the production timing wheel, or the retained
/// binary-heap reference under [`SimPaths::heap_queue`], so the two can be
/// compared differentially on whole campaigns.
enum TimerQueue {
    Wheel(TimingWheel),
    Heap(HeapQueue),
}

impl TimerQueue {
    #[inline]
    fn get(&self) -> &dyn EventQueue {
        match self {
            TimerQueue::Wheel(w) => w,
            TimerQueue::Heap(h) => h,
        }
    }

    #[inline]
    fn get_mut(&mut self) -> &mut dyn EventQueue {
        match self {
            TimerQueue::Wheel(w) => w,
            TimerQueue::Heap(h) => h,
        }
    }
}

/// What the event loop was still holding when it wedged. Attached to every
/// [`EngineError`] so a hung experiment reports *which* timers and flows were
/// outstanding instead of spinning or dying with a bare assert.
#[derive(Clone, Debug)]
pub struct StallDiagnostic {
    /// Simulated time at which the stall was detected.
    pub now: SimTime,
    /// Tags of timers still scheduled (cancelled ones excluded).
    pub pending_timer_tags: Vec<u64>,
    /// Active flows as `(tag, remaining_units, rate_units_per_s)`.
    pub pending_flows: Vec<(u64, f64, f64)>,
}

impl StallDiagnostic {
    /// True when nothing at all was outstanding.
    pub fn is_empty(&self) -> bool {
        self.pending_timer_tags.is_empty() && self.pending_flows.is_empty()
    }
}

impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "at t={:.6}s: {} pending timer(s), {} active flow(s)",
            self.now.as_secs_f64(),
            self.pending_timer_tags.len(),
            self.pending_flows.len()
        )?;
        for &tag in self.pending_timer_tags.iter().take(8) {
            write!(f, "; timer tag {:#x}", tag)?;
        }
        for &(tag, remaining, rate) in self.pending_flows.iter().take(8) {
            write!(
                f,
                "; flow tag {:#x} remaining {:.3e} rate {:.3e}",
                tag, remaining, rate
            )?;
        }
        Ok(())
    }
}

/// Why [`Engine::try_next`] could not produce an event.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// Flows are active but none can progress (e.g. all their resources have
    /// zero capacity) and no timer will ever unblock them: the model is
    /// deadlocked.
    Stalled(StallDiagnostic),
    /// The next event lies beyond the configured simulated-time budget
    /// ([`Engine::set_time_budget`]): the run is taking implausibly long,
    /// usually a sign of a lost completion or an unbounded retry loop.
    BudgetExceeded {
        /// The configured budget that was exceeded.
        budget: SimTime,
        /// What was still outstanding when the budget tripped.
        diagnostic: StallDiagnostic,
    },
    /// The run's [`CancelToken`] tripped (explicit cancellation or an
    /// expired wall-clock deadline): a supervisor asked the simulation to
    /// stop. Unlike the other variants this is not a model defect — the
    /// engine state is intact, merely abandoned.
    Cancelled {
        /// True when the tripped token carried a wall-clock deadline —
        /// i.e. this is (or at least could be) a timeout rather than a
        /// plain [`CancelToken::cancel`].
        deadline: bool,
        /// What was still outstanding when cancellation was observed.
        diagnostic: StallDiagnostic,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Stalled(d) => {
                write!(f, "simulation deadlock: no event can make progress ({})", d)
            }
            EngineError::BudgetExceeded { budget, diagnostic } => write!(
                f,
                "simulated-time budget of {:.6}s exceeded ({})",
                budget.as_secs_f64(),
                diagnostic
            ),
            EngineError::Cancelled { deadline, diagnostic } => write!(
                f,
                "run cancelled ({}; {})",
                if *deadline {
                    "wall-clock deadline exceeded"
                } else {
                    "token cancelled"
                },
                diagnostic
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// The simulation engine. See module docs.
pub struct Engine {
    now: SimTime,
    net: FluidNet,
    /// Timer queue. Cancellation is O(1): the entry stays queued with a
    /// tombstone and is discarded when it surfaces, consuming the tombstone.
    /// Every cancel site targets a still-pending timer, so tombstones cannot
    /// leak — asserted (debug builds) at quiescence and on drop via
    /// [`EventQueue::outstanding_tombstones`].
    timers: TimerQueue,
    next_timer: u64,
    seq: u64,
    /// Same-instant event batch not yet handed out: all flow completions and
    /// due timers at one `SimTime` are drained here in one pass (flows first,
    /// then timers in schedule order) and popped from the front. The buffer's
    /// allocation is reused across instants.
    pending: VecDeque<Event>,
    /// Optional watchdog: `try_next` refuses to advance past this instant.
    budget: Option<SimTime>,
    /// Cooperative cancellation token, adopted from the ambient
    /// [`cancel`] installation at construction (or set explicitly).
    cancel: Option<CancelToken>,
    /// Events delivered since the last wall-clock deadline check; the
    /// token flag itself is checked on every event.
    cancel_stride: u64,
}

impl Engine {
    /// Create an empty engine at time zero, on the timer queue and solver
    /// this thread's [`SimPaths`] selects.
    pub fn new() -> Self {
        let timers = if SimPaths::current().heap_queue {
            telemetry::counter_add("paths.heap_queue", 1);
            TimerQueue::Heap(HeapQueue::new())
        } else {
            TimerQueue::Wheel(TimingWheel::new())
        };
        Engine {
            now: SimTime::ZERO,
            net: FluidNet::new(),
            timers,
            next_timer: 0,
            seq: 0,
            pending: VecDeque::new(),
            budget: None,
            cancel: cancel::current(),
            cancel_stride: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    // ---- resources ----

    /// Add a resource with the given capacity (units/s).
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.net.add_resource(name, capacity)
    }

    /// Change a resource's capacity (frequency scaling).
    pub fn set_capacity(&mut self, r: ResourceId, capacity: f64) {
        self.net.set_capacity(r, capacity);
    }

    /// Current capacity of a resource.
    pub fn capacity(&self, r: ResourceId) -> f64 {
        self.net.capacity(r)
    }

    /// Utilization of `r` under the current allocation, in [0,1].
    pub fn utilization(&mut self, r: ResourceId) -> f64 {
        self.refresh();
        self.net.utilization(r)
    }

    /// Offered demand on `r` (can exceed capacity under contention).
    pub fn demand(&mut self, r: ResourceId) -> f64 {
        self.refresh();
        self.net.demand(r)
    }

    /// Cumulative units delivered through `r` since the start of the run.
    pub fn delivered(&self, r: ResourceId) -> f64 {
        self.net.delivered(r)
    }

    /// Integral of utilization of `r` (seconds at 100 %).
    pub fn busy_integral(&self, r: ResourceId) -> f64 {
        self.net.busy_integral(r)
    }

    // ---- flows ----

    /// Start a bandwidth-shared flow.
    pub fn start_flow(&mut self, spec: FlowSpec) -> FlowId {
        self.net.start_flow(spec)
    }

    /// Change a flow's rate cap (roofline bound moved with frequency).
    pub fn set_flow_cap(&mut self, id: FlowId, cap: Option<f64>) {
        self.net.set_flow_cap(id, cap);
    }

    /// Cancel a flow before completion, returning its progress report.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<FlowReport> {
        self.net.cancel_flow(id)
    }

    /// Current rate of a flow (refreshing the allocation if needed).
    pub fn flow_rate(&mut self, id: FlowId) -> Option<f64> {
        self.refresh();
        self.net.flow_rate(id)
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.net.active_flows()
    }

    // ---- timers ----

    /// Schedule `tag` to fire after `delay`.
    pub fn after(&mut self, delay: SimTime, tag: u64) -> TimerId {
        self.at(self.now + delay, tag)
    }

    /// Schedule `tag` to fire at absolute time `deadline` (>= now).
    pub fn at(&mut self, deadline: SimTime, tag: u64) -> TimerId {
        debug_assert!(deadline >= self.now, "timer in the past");
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.seq += 1;
        self.timers.get_mut().insert(QueueEntry {
            deadline,
            seq: self.seq,
            id,
            tag,
        });
        telemetry::counter_add("engine.queue.inserts", 1);
        id
    }

    /// Cancel a timer. Every caller must target a still-pending timer
    /// (cancelling an already-fired id would leave a tombstone that can
    /// never be consumed — debug builds assert against it at quiescence).
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.timers.get_mut().cancel(id);
        telemetry::counter_add("engine.queue.cancels", 1);
    }

    /// Re-solve the allocation if any flow/capacity mutation is pending.
    /// All same-instant mutations batch into this single reallocation, and
    /// the incremental solver only revisits the dirty components.
    fn refresh(&mut self) {
        if self.net.is_dirty() {
            let stats = self.net.reallocate();
            telemetry::counter_add("fluid.reallocs", 1);
            if stats.components > 0 {
                telemetry::counter_add("fluid.components", stats.components);
                telemetry::counter_add("fluid.realloc_flows_visited", stats.flows_visited);
            }
            if stats.waterfill > 0 {
                telemetry::counter_add("fluid.waterfill", stats.waterfill);
            }
        }
    }

    /// Arm (or with `None` disarm) the simulated-time watchdog: once set,
    /// [`Engine::try_next`] returns [`EngineError::BudgetExceeded`] instead of
    /// advancing past `budget`. A run that legitimately needs more simulated
    /// time can raise the budget and continue.
    pub fn set_time_budget(&mut self, budget: Option<SimTime>) {
        self.budget = budget;
    }

    /// The currently armed simulated-time budget, if any.
    pub fn time_budget(&self) -> Option<SimTime> {
        self.budget
    }

    /// Attach (or with `None` detach) a cooperative cancellation token.
    /// Engines adopt the ambient [`cancel::current`] token at construction;
    /// this overrides it for hand-built engines and tests.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
        self.cancel_stride = 0;
    }

    /// The attached cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the cancellation token: the tripped flag on every call, the
    /// wall clock only every [`cancel::DEADLINE_CHECK_STRIDE`] calls (the
    /// flag is an atomic load; the clock is a syscall).
    fn cancelled(&mut self) -> Option<bool> {
        let tok = self.cancel.as_ref()?;
        if tok.is_cancelled() {
            return Some(tok.has_deadline());
        }
        self.cancel_stride += 1;
        if self.cancel_stride >= cancel::DEADLINE_CHECK_STRIDE {
            self.cancel_stride = 0;
            if tok.check() {
                return Some(tok.has_deadline());
            }
        }
        None
    }

    /// Snapshot of everything still outstanding (for error reporting).
    /// Timer tags are listed in `(deadline, seq)` order — deterministic and
    /// identical across queue implementations (determinism policy,
    /// DESIGN.md §13).
    pub fn stall_diagnostic(&self) -> StallDiagnostic {
        let pending_timer_tags = self.timers.get().live_entries().iter().map(|e| e.tag).collect();
        StallDiagnostic {
            now: self.now,
            pending_timer_tags,
            pending_flows: self.net.flow_snapshots(),
        }
    }

    /// Advance to and return the next completion event, or `None` when the
    /// simulation has run dry (no timers, no active flows).
    ///
    /// Panics on a model deadlock; use [`Engine::try_next`] to get a typed
    /// [`EngineError`] with diagnostics instead.
    // Long-standing public API; the engine is deliberately not an Iterator
    // (stepping mutates shared resource state between calls).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Event> {
        match self.try_next() {
            Ok(ev) => ev,
            Err(e) => panic!("{}", e),
        }
    }

    /// Like [`Engine::next`], but surfaces wedged states as typed errors:
    /// a deadlock (active flows that can never progress) or a blown
    /// simulated-time budget both return `Err` with a [`StallDiagnostic`]
    /// naming the outstanding timers and flows. The engine state is left
    /// untouched on error, so callers can raise the budget and retry.
    pub fn try_next(&mut self) -> Result<Option<Event>, EngineError> {
        loop {
            // Cooperative cancellation: checked once per loop iteration so
            // both event delivery and the no-completion `continue` path
            // (capacity-change storms) observe a tripped token promptly.
            if let Some(deadline) = self.cancelled() {
                telemetry::instant(self.now, "engine", "cancelled", Lane::Engine);
                return Err(EngineError::Cancelled {
                    deadline,
                    diagnostic: self.stall_diagnostic(),
                });
            }
            // Drain the same-instant batch before touching the allocator:
            // all mutations made by handlers at this instant coalesce into
            // the single `refresh` below, one allocator pass per instant.
            if let Some(ev) = self.pending.pop_front() {
                telemetry::counter_add("engine.events", 1);
                return Ok(Some(ev));
            }
            self.refresh();

            // Earliest live timer; the queue lazily consumes tombstones of
            // cancelled entries as they surface.
            let timer_deadline = self.timers.get_mut().peek_deadline();

            let flow_dt = self.net.time_to_next_completion();
            let flow_deadline = flow_dt.map(|dt| {
                // Guarantee progress: float residue can make `dt` round to
                // zero picoseconds, which would spin the loop forever.
                let step = SimTime::from_secs_f64(dt).max(SimTime::PS);
                self.now.checked_add(step).unwrap_or(SimTime::MAX)
            });

            let target = match (timer_deadline, flow_deadline) {
                // Only "endless" flows remain (background polling traffic
                // whose completion horizon saturates SimTime): the
                // simulation is effectively dry.
                (None, Some(f)) if f == SimTime::MAX => {
                    self.assert_no_tombstones();
                    telemetry::instant(self.now, "engine", "quiesce", Lane::Engine);
                    return Ok(None);
                }
                (None, None) => {
                    // Dry: if flows exist but are all stalled (rate 0), this
                    // is a deadlock in the model — surface it loudly.
                    if self.net.active_flows() > 0 {
                        return Err(EngineError::Stalled(self.stall_diagnostic()));
                    }
                    self.assert_no_tombstones();
                    telemetry::instant(self.now, "engine", "quiesce", Lane::Engine);
                    return Ok(None);
                }
                (Some(t), None) => t,
                (None, Some(f)) => f,
                (Some(t), Some(f)) => t.min(f),
            };

            if let Some(budget) = self.budget {
                if target > budget {
                    return Err(EngineError::BudgetExceeded {
                        budget,
                        diagnostic: self.stall_diagnostic(),
                    });
                }
            }

            let dt = (target - self.now).as_secs_f64();
            let done = self.net.elapse(dt);
            self.now = target;
            // Batch every event due at this instant into the reusable
            // buffer: flow completions first (in flow-id order, as `elapse`
            // reports them), then all timers sharing the instant in
            // `(deadline, seq)` schedule order.
            for rep in done {
                self.pending.push_back(Event::Flow {
                    tag: rep.tag,
                    report: rep,
                });
            }
            while let Some(d) = self.timers.get_mut().peek_deadline() {
                if d > self.now {
                    break;
                }
                let e = self.timers.get_mut().pop().expect("peeked a live entry");
                self.pending.push_back(Event::Timer { tag: e.tag });
            }
            if self.pending.is_empty() {
                // Nothing completed (capacity change rescheduling, or all
                // events cancelled) — loop again.
                continue;
            }
            telemetry::counter_add("engine.queue.batch_instants", 1);
        }
    }

    /// Quiescence invariant (debug builds): a fully-drained queue must hold
    /// no tombstones — otherwise some cancel site targeted an already-fired
    /// timer and the "tombstones cannot leak" claim is broken.
    fn assert_no_tombstones(&self) {
        let q = self.timers.get();
        debug_assert!(
            q.stored_len() > 0 || q.outstanding_tombstones() == 0,
            "timer tombstone leaked: {} cancel(s) targeted already-fired timers",
            q.outstanding_tombstones()
        );
    }

    /// Run until dry, invoking `handler` for each event. The handler gets
    /// `&mut Engine` to schedule follow-up work.
    pub fn run<F: FnMut(&mut Engine, Event)>(&mut self, mut handler: F) {
        while let Some(ev) = self.next() {
            handler(self, ev);
        }
    }

    /// Fallible [`Engine::run`]: stops with the [`EngineError`] if the loop
    /// wedges instead of panicking.
    pub fn try_run<F: FnMut(&mut Engine, Event)>(
        &mut self,
        mut handler: F,
    ) -> Result<(), EngineError> {
        while let Some(ev) = self.try_next()? {
            handler(self, ev);
        }
        Ok(())
    }

    /// Run until the given deadline (events at exactly `deadline` included).
    pub fn run_until<F: FnMut(&mut Engine, Event)>(&mut self, deadline: SimTime, mut handler: F) {
        while let Some(ev) = self.peek_deadline(deadline) {
            handler(self, ev);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Internal: like `next` but never advances past `deadline`.
    fn peek_deadline(&mut self, deadline: SimTime) -> Option<Event> {
        // Cheap approach: schedule a sentinel timer at the deadline.
        const SENTINEL: u64 = u64::MAX;
        let id = self.at(deadline, SENTINEL);
        let ev = self.next();
        match ev {
            Some(Event::Timer { tag: SENTINEL }) => None,
            Some(other) => {
                self.cancel_timer(id);
                Some(other)
            }
            None => {
                self.cancel_timer(id);
                None
            }
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Drop for Engine {
    /// When a recorder is installed, dropping an engine that advanced past
    /// t=0 records the whole run as one "engine.run" span — every simulation
    /// (protocol step, pingpong rep…) shows up on the engine lane without any
    /// driver cooperation.
    fn drop(&mut self) {
        // A drained queue must hold no tombstones (see assert_no_tombstones);
        // engines dropped mid-run (budget trip, cancellation) still hold
        // entries and are exempt. Skipped while unwinding to not mask the
        // original panic with a double panic.
        if !std::thread::panicking() {
            self.assert_no_tombstones();
        }
        if self.now > SimTime::ZERO {
            telemetry::complete(SimTime::ZERO, self.now, "engine", "run", Lane::Engine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timers_fire_in_order() {
        let mut e = Engine::new();
        e.after(SimTime::from_micros(5), 5);
        e.after(SimTime::from_micros(1), 1);
        e.after(SimTime::from_micros(3), 3);
        let mut seen = Vec::new();
        e.run(|eng, ev| {
            seen.push((eng.now().as_micros_f64().round() as u64, ev.tag()));
        });
        assert_eq!(seen, vec![(1, 1), (3, 3), (5, 5)]);
    }

    #[test]
    fn same_instant_timers_fifo() {
        let mut e = Engine::new();
        e.after(SimTime::from_micros(1), 10);
        e.after(SimTime::from_micros(1), 20);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![10, 20]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut e = Engine::new();
        let id = e.after(SimTime::from_micros(1), 1);
        e.after(SimTime::from_micros(2), 2);
        e.cancel_timer(id);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn flow_completion_time() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 100.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 250.0,
            weight: 1.0,
            cap: None,
            tag: 7,
        });
        let ev = e.next().expect("one event");
        assert_eq!(ev.tag(), 7);
        assert!((e.now().as_secs_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn flow_and_timer_interleave() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 1.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 2.0,
            weight: 1.0,
            cap: None,
            tag: 100,
        });
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 3, 3);
        let mut seen = Vec::new();
        e.run(|eng, ev| seen.push((eng.now().as_secs_f64().round() as u64, ev.tag())));
        assert_eq!(seen, vec![(1, 1), (2, 100), (3, 3)]);
    }

    #[test]
    fn capacity_change_mid_flow() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 10.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 100.0,
            weight: 1.0,
            cap: None,
            tag: 1,
        });
        // At t=1s halve the capacity.
        e.after(SimTime::SEC, 99);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 99);
        e.set_capacity(r, 5.0);
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 1);
        // 10 units in first second, remaining 90 at 5/s = 18 s. Total 19 s.
        assert!((e.now().as_secs_f64() - 19.0).abs() < 1e-6);
    }

    #[test]
    fn flows_before_timers_at_same_instant() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 1.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 100,
        });
        e.after(SimTime::SEC, 1);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![100, 1]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 5, 5);
        let mut seen = Vec::new();
        e.run_until(SimTime::SEC * 2, |_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![1]);
        assert_eq!(e.now(), SimTime::SEC * 2);
        // The later timer still fires afterwards.
        let ev = e.next().unwrap();
        assert_eq!(ev.tag(), 5);
    }

    #[test]
    fn dry_run_returns_none() {
        let mut e = Engine::new();
        assert!(e.next().is_none());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn stalled_flow_is_a_deadlock() {
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 1,
        });
        let _ = e.next();
    }

    #[test]
    fn stalled_flow_yields_typed_error_with_diagnostic() {
        // A transfer that can never complete: its only resource has zero
        // capacity and no timer will ever change that.
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 42.0,
            weight: 1.0,
            cap: None,
            tag: 0xBEEF,
        });
        let err = e.try_next().expect_err("must not hang or succeed");
        match &err {
            EngineError::Stalled(d) => {
                assert!(!d.is_empty(), "diagnostic must name pending work");
                assert_eq!(d.pending_flows.len(), 1);
                let (tag, remaining, rate) = d.pending_flows[0];
                assert_eq!(tag, 0xBEEF);
                assert_eq!(remaining, 42.0);
                assert_eq!(rate, 0.0);
            }
            other => panic!("expected Stalled, got {:?}", other),
        }
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{}", msg);
        assert!(msg.contains("0xbeef"), "{}", msg);
        // The error is stable: asking again reports the same stall rather
        // than looping forever.
        assert!(matches!(e.try_next(), Err(EngineError::Stalled(_))));
    }

    #[test]
    fn time_budget_trips_with_diagnostic() {
        let mut e = Engine::new();
        e.set_time_budget(Some(SimTime::SEC));
        e.after(SimTime::from_micros(10), 1);
        e.after(SimTime::SEC * 10, 0xDEAD);
        // The early timer is within budget.
        assert_eq!(e.try_next().unwrap().unwrap().tag(), 1);
        // The late one trips the watchdog without advancing time.
        let err = e.try_next().expect_err("beyond budget");
        match &err {
            EngineError::BudgetExceeded { budget, diagnostic } => {
                assert_eq!(*budget, SimTime::SEC);
                assert_eq!(diagnostic.pending_timer_tags, vec![0xDEAD]);
            }
            other => panic!("expected BudgetExceeded, got {:?}", other),
        }
        assert_eq!(e.now(), SimTime::from_micros(10));
        // Raising the budget lets the run continue.
        e.set_time_budget(Some(SimTime::SEC * 20));
        assert_eq!(e.try_next().unwrap().unwrap().tag(), 0xDEAD);
        assert!(e.try_next().unwrap().is_none());
    }

    #[test]
    fn try_run_reports_wedge() {
        let mut e = Engine::new();
        let r = e.add_resource("off", 0.0);
        // A timer fires first, then the stalled flow wedges the loop.
        e.after(SimTime::from_micros(1), 7);
        e.start_flow(FlowSpec {
            path: vec![r],
            volume: 1.0,
            weight: 1.0,
            cap: None,
            tag: 8,
        });
        let mut seen = Vec::new();
        let err = e.try_run(|_, ev| seen.push(ev.tag())).unwrap_err();
        assert_eq!(seen, vec![7]);
        assert!(matches!(err, EngineError::Stalled(_)));
    }

    /// A simulation that never quiesces: every fired timer schedules the
    /// next one. Without cancellation this loops until process death.
    fn wedge_forever(e: &mut Engine) -> Result<(), EngineError> {
        e.after(SimTime::PS, 1);
        loop {
            match e.try_next()? {
                Some(_) => {
                    e.after(SimTime::PS, 1);
                }
                None => unreachable!("the timer storm never runs dry"),
            }
        }
    }

    #[test]
    fn cancelled_token_stops_a_timer_storm() {
        let tok = CancelToken::new();
        let mut e = Engine::new();
        e.set_cancel_token(Some(tok.clone()));
        tok.cancel();
        let err = wedge_forever(&mut e).expect_err("must stop");
        match err {
            EngineError::Cancelled { deadline, diagnostic } => {
                assert!(!deadline, "explicit cancel, no deadline armed");
                // The storm's next timer is still outstanding.
                assert_eq!(diagnostic.pending_timer_tags, vec![1]);
            }
            other => panic!("expected Cancelled, got {:?}", other),
        }
        // The error is stable on re-poll, like a stall.
        assert!(matches!(e.try_next(), Err(EngineError::Cancelled { .. })));
    }

    #[test]
    fn deadline_token_times_out_a_timer_storm() {
        let mut e = Engine::new();
        e.set_cancel_token(Some(CancelToken::with_deadline(
            std::time::Duration::from_millis(20),
        )));
        let err = wedge_forever(&mut e).expect_err("deadline must trip");
        match err {
            EngineError::Cancelled { deadline, .. } => assert!(deadline),
            other => panic!("expected Cancelled, got {:?}", other),
        }
        let msg = e.try_next().unwrap_err().to_string();
        assert!(msg.contains("deadline"), "{}", msg);
    }

    #[test]
    fn ambient_token_is_adopted_at_construction() {
        let tok = CancelToken::new();
        let e = crate::cancel::scoped(tok.clone(), Engine::new);
        assert!(e.cancel_token().is_some(), "engine adopted ambient token");
        // Outside the scope, fresh engines carry no token.
        let plain = Engine::new();
        assert!(plain.cancel_token().is_none());
        // The adopted token is the same shared state.
        tok.cancel();
        assert!(e.cancel_token().unwrap().is_cancelled());
    }

    #[test]
    fn healthy_run_ignores_an_armed_token() {
        let tok = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let mut e = Engine::new();
        e.set_cancel_token(Some(tok));
        e.after(SimTime::SEC, 1);
        e.after(SimTime::SEC * 2, 2);
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn simultaneous_flow_completions_all_delivered() {
        let mut e = Engine::new();
        let r = e.add_resource("bus", 10.0);
        for tag in 0..3 {
            e.start_flow(FlowSpec {
                path: vec![r],
                volume: 30.0,
                weight: 1.0,
                cap: None,
                tag,
            });
        }
        let mut seen = Vec::new();
        e.run(|_, ev| seen.push(ev.tag()));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // 3 flows × 30 units over 10 units/s aggregate = 9 s.
        assert!((e.now().as_secs_f64() - 9.0).abs() < 1e-9);
    }
}
