//! Timer event queues: the hierarchical timing wheel and the retained
//! binary-heap reference.
//!
//! The engine schedules timers keyed by `(deadline, seq)` — `seq` is a
//! monotone per-engine counter, so the key is unique and pop order is total.
//! Both implementations behind [`EventQueue`] produce **exactly** the same
//! pop sequence; the wheel is the production queue, the heap is kept as the
//! differential reference (mirroring `fluid::reference`), compared by the
//! `prop_queue_equiv` suite and the whole-campaign replay test.
//!
//! # The timing wheel
//!
//! [`TimingWheel`] is a classic hashed hierarchical wheel over the engine's
//! integer picosecond clock: [`LEVELS`] levels of [`SLOTS`] slots each, the
//! level-`k` slot width being `SLOTS^k` ticks (64 slots × 11 levels cover
//! the full 64-bit tick range). An entry is placed at the lowest level whose
//! window around the wheel cursor contains its deadline — O(1), one shift
//! and one mask. As the cursor advances, higher-level slots *cascade* into
//! lower levels; the finest slot holds a single tick's entries, which are
//! staged into a small binary heap (`current`) so same-instant entries pop
//! in exact `seq` order no matter which level they travelled through.
//!
//! Levels partition the tick range in increasing order (a level-`k` entry is
//! strictly later than every entry below level `k`), so the earliest entry
//! is always found in the lowest non-empty level — one `trailing_zeros` per
//! level on the occupancy bitmaps.
//!
//! # Cancellation and tombstones
//!
//! [`EventQueue::cancel`] is O(1): the id goes into a tombstone set and the
//! entry is discarded — *consuming* the tombstone — when it next surfaces
//! (heap top, slot drain, or cascade). Every cancel site in the workspace
//! targets a still-pending timer, so every tombstone is eventually consumed;
//! this is asserted (debug builds) at engine quiescence and drop via
//! [`EventQueue::outstanding_tombstones`] rather than merely claimed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

/// Identifies a scheduled timer. Ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// Build a raw id — for queue tests and differential harnesses that
    /// drive queues directly (the engine allocates its own ids).
    pub fn from_raw(raw: u64) -> Self {
        TimerId(raw)
    }
}

/// One scheduled timer as stored in a queue. Ordered by `(deadline, seq)`;
/// `seq` is unique per engine, making the order total.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct QueueEntry {
    /// Absolute deadline.
    pub deadline: SimTime,
    /// Schedule-order tie-breaker (monotone, unique).
    pub seq: u64,
    /// The timer's id (cancellation key).
    pub id: TimerId,
    /// Opaque completion tag.
    pub tag: u64,
}

/// Minimal interface the engine needs from a timer queue.
///
/// Implementations must pop entries in strictly ascending `(deadline, seq)`
/// order and must support O(1) cancellation via lazily-consumed tombstones.
pub trait EventQueue {
    /// Add an entry. The engine only inserts deadlines `>= now`, but an
    /// implementation must stay correct for any deadline at or after the
    /// earliest not-yet-popped entry.
    fn insert(&mut self, entry: QueueEntry);
    /// Cancel by id, O(1). A no-op when the id is unknown or already popped
    /// (callers may race a cancellation against the timer firing), so
    /// tombstones are only ever created for entries actually stored.
    fn cancel(&mut self, id: TimerId);
    /// Earliest live deadline, or `None` when drained. May consume
    /// tombstones encountered on the way (hence `&mut`).
    fn peek_deadline(&mut self) -> Option<SimTime>;
    /// Pop the earliest live entry.
    fn pop(&mut self) -> Option<QueueEntry>;
    /// Number of live (non-cancelled) entries.
    fn live_len(&self) -> usize;
    /// Entries stored, including cancelled-but-not-yet-consumed ones.
    fn stored_len(&self) -> usize;
    /// Tombstones not yet consumed. When [`EventQueue::stored_len`] is 0
    /// this must be 0 too — every tombstone shadows a stored entry and is
    /// consumed when that entry surfaces (the invariant the engine asserts
    /// at quiescence and on drop).
    fn outstanding_tombstones(&self) -> usize;
    /// Live entries in ascending `(deadline, seq)` order, for stall
    /// diagnostics. Deterministic across implementations by construction.
    fn live_entries(&self) -> Vec<QueueEntry>;
}

/// Slots per wheel level (64 keeps one `u64` occupancy word per level).
const SLOTS: usize = 64;
/// Bits of the tick covered per level.
const SLOT_BITS: u32 = 6;
/// Levels needed to cover a full 64-bit tick (`ceil(64 / 6)`).
const LEVELS: usize = 11;

/// Hierarchical timing wheel over picosecond ticks. See module docs.
pub struct TimingWheel {
    /// `slots[level * SLOTS + slot]` holds unsorted entries; exact order is
    /// restored by the `current` staging heap at the single-tick level.
    slots: Vec<Vec<QueueEntry>>,
    /// Occupancy bitmap per level (bit = slot non-empty).
    occ: [u64; LEVELS],
    /// Staged entries (tick `< cursor`), popped in `(deadline, seq)` order.
    current: BinaryHeap<Reverse<QueueEntry>>,
    /// Every wheel entry has tick `>= cursor`; every staged entry is below.
    cursor: u64,
    /// Tombstones for cancelled-but-not-yet-consumed entries.
    cancelled: HashSet<TimerId>,
    /// Ids currently stored and not tombstoned — makes [`EventQueue::cancel`]
    /// a no-op for unknown or already-popped ids.
    live_ids: HashSet<TimerId>,
    /// Entries stored anywhere (wheel + staging), tombstoned included.
    stored: usize,
    /// Live entries (stored minus pending tombstones).
    live: usize,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl TimingWheel {
    /// Empty wheel with the cursor at tick 0.
    pub fn new() -> Self {
        TimingWheel {
            slots: vec![Vec::new(); LEVELS * SLOTS],
            occ: [0; LEVELS],
            current: BinaryHeap::new(),
            cursor: 0,
            cancelled: HashSet::new(),
            live_ids: HashSet::new(),
            stored: 0,
            live: 0,
        }
    }

    /// Level an entry with `tick >= self.cursor` belongs at: the lowest
    /// level whose cursor-window contains the tick.
    fn level_for(&self, tick: u64) -> usize {
        let diff = tick ^ self.cursor;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
        }
    }

    /// Place an entry into its wheel slot (tick must be `>= self.cursor`).
    fn wheel_insert(&mut self, e: QueueEntry) {
        let tick = e.deadline.0;
        debug_assert!(tick >= self.cursor);
        let level = self.level_for(tick);
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.slots[level * SLOTS + slot].push(e);
        self.occ[level] |= 1 << slot;
    }

    /// Drain a slot, consuming tombstones and passing live entries to `f`.
    fn drain_slot(&mut self, level: usize, slot: usize, mut f: impl FnMut(&mut Self, QueueEntry)) {
        let drained = std::mem::take(&mut self.slots[level * SLOTS + slot]);
        self.occ[level] &= !(1u64 << slot);
        for e in drained {
            if self.cancelled.remove(&e.id) {
                self.stored -= 1;
            } else {
                f(self, e);
            }
        }
    }

    /// Restore the cursor-slot invariant: at every level ≥ 1, the slot whose
    /// window *contains* the cursor must be empty. Once the cursor has
    /// entered a window, that window's entries may precede entries at lower
    /// levels (a level-k slot window spans the whole level-(k-1) array), so
    /// they are pushed down — top-down, each re-insert landing strictly
    /// below its source level — until only level 0 can hold ticks in the
    /// cursor's immediate window. Without this, an entry inserted *after*
    /// the cursor entered its window (placed at a low level) would pop
    /// before an equal-or-earlier tick inserted earlier (still parked at a
    /// high level).
    fn normalize(&mut self) {
        for level in (1..LEVELS).rev() {
            let s = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if self.occ[level] & (1u64 << s) != 0 {
                self.drain_slot(level, s, |w, e| {
                    debug_assert!(w.level_for(e.deadline.0) < level);
                    w.wheel_insert(e);
                });
            }
        }
    }

    /// Stage the earliest occupied tick into `current`, cascading
    /// higher-level slots down as needed. Returns false when the wheel is
    /// empty. May loop past slots whose entries were all tombstoned
    /// (consuming those tombstones).
    ///
    /// With the cursor-slot invariant restored at the top of each round,
    /// every occupied slot sits at an index ≥ the cursor's own index at its
    /// level, levels partition the remaining tick range in increasing
    /// order, and the minimum is therefore the first occupied slot of the
    /// lowest non-empty level.
    fn stage_next(&mut self) -> bool {
        loop {
            self.normalize();
            let Some(level) = (0..LEVELS).find(|&l| self.occ[l] != 0) else {
                return false;
            };
            let slot = self.occ[level].trailing_zeros() as usize;
            if level == 0 {
                // Finest granularity: this slot is a single tick.
                let tick = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
                debug_assert!(tick >= self.cursor);
                self.cursor = tick.saturating_add(1);
                self.drain_slot(0, slot, |w, e| {
                    debug_assert!(e.deadline.0 == tick);
                    w.current.push(Reverse(e));
                });
                if !self.current.is_empty() {
                    return true;
                }
                // Entire tick was cancelled — keep searching.
            } else {
                // Jump the cursor to this slot's window start and push its
                // entries down; the next round re-normalizes and recurses
                // into the window.
                let shift = SLOT_BITS * (level as u32 + 1);
                let hi_mask = if shift >= 64 { 0 } else { !0u64 << shift };
                let wbase =
                    (self.cursor & hi_mask) | ((slot as u64) << (SLOT_BITS * level as u32));
                debug_assert!(wbase >= self.cursor);
                self.cursor = wbase;
                self.drain_slot(level, slot, |w, e| {
                    debug_assert!(w.level_for(e.deadline.0) < level);
                    w.wheel_insert(e);
                });
            }
        }
    }
}

impl EventQueue for TimingWheel {
    fn insert(&mut self, entry: QueueEntry) {
        self.stored += 1;
        self.live += 1;
        self.live_ids.insert(entry.id);
        if entry.deadline.0 < self.cursor {
            self.current.push(Reverse(entry));
        } else {
            self.wheel_insert(entry);
        }
    }

    fn cancel(&mut self, id: TimerId) {
        if self.live_ids.remove(&id) {
            self.cancelled.insert(id);
            self.live -= 1;
        }
    }

    fn peek_deadline(&mut self) -> Option<SimTime> {
        loop {
            while let Some(Reverse(e)) = self.current.peek() {
                if self.cancelled.contains(&e.id) {
                    let Reverse(e) = self.current.pop().expect("peeked");
                    self.cancelled.remove(&e.id);
                    self.stored -= 1;
                } else {
                    return Some(e.deadline);
                }
            }
            if !self.stage_next() {
                return None;
            }
        }
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        self.peek_deadline()?;
        let Reverse(e) = self.current.pop().expect("peek staged an entry");
        self.live_ids.remove(&e.id);
        self.stored -= 1;
        self.live -= 1;
        Some(e)
    }

    fn live_len(&self) -> usize {
        self.live
    }

    fn stored_len(&self) -> usize {
        self.stored
    }

    fn outstanding_tombstones(&self) -> usize {
        self.cancelled.len()
    }

    fn live_entries(&self) -> Vec<QueueEntry> {
        let mut out: Vec<QueueEntry> = self
            .current
            .iter()
            .map(|Reverse(e)| *e)
            .chain(self.slots.iter().flatten().copied())
            .filter(|e| !self.cancelled.contains(&e.id))
            .collect();
        out.sort_unstable();
        out
    }
}

/// The pre-refactor `BinaryHeap` + tombstone queue, retained as the
/// differential reference for [`TimingWheel`] (the `fluid::reference`
/// pattern), selected for engines by [`crate::SimPaths::heap_queue`].
#[derive(Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<QueueEntry>>,
    cancelled: HashSet<TimerId>,
    live_ids: HashSet<TimerId>,
    live: usize,
}

impl HeapQueue {
    /// Empty heap queue.
    pub fn new() -> Self {
        HeapQueue::default()
    }
}

impl EventQueue for HeapQueue {
    fn insert(&mut self, entry: QueueEntry) {
        self.live += 1;
        self.live_ids.insert(entry.id);
        self.heap.push(Reverse(entry));
    }

    fn cancel(&mut self, id: TimerId) {
        if self.live_ids.remove(&id) {
            self.cancelled.insert(id);
            self.live -= 1;
        }
    }

    fn peek_deadline(&mut self) -> Option<SimTime> {
        loop {
            match self.heap.peek() {
                Some(Reverse(e)) if self.cancelled.contains(&e.id) => {
                    let Reverse(e) = self.heap.pop().expect("peeked");
                    self.cancelled.remove(&e.id);
                }
                Some(Reverse(e)) => return Some(e.deadline),
                None => return None,
            }
        }
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        self.peek_deadline()?;
        let Reverse(e) = self.heap.pop().expect("peeked live entry");
        self.live_ids.remove(&e.id);
        self.live -= 1;
        Some(e)
    }

    fn live_len(&self) -> usize {
        self.live
    }

    fn stored_len(&self) -> usize {
        self.heap.len()
    }

    fn outstanding_tombstones(&self) -> usize {
        self.cancelled.len()
    }

    fn live_entries(&self) -> Vec<QueueEntry> {
        let mut out: Vec<QueueEntry> = self
            .heap
            .iter()
            .map(|Reverse(e)| *e)
            .filter(|e| !self.cancelled.contains(&e.id))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(t: u64, seq: u64) -> QueueEntry {
        QueueEntry {
            deadline: SimTime(t),
            seq,
            id: TimerId(seq),
            tag: seq,
        }
    }

    fn drain<Q: EventQueue>(q: &mut Q) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(x) = q.pop() {
            out.push((x.deadline.0, x.seq));
        }
        out
    }

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        // Deliberately spread across levels: same tick, near ticks, far ticks.
        for (t, s) in [(5u64, 1u64), (5, 2), (70, 3), (4096, 4), (5, 5), (1 << 40, 6), (6, 7)] {
            w.insert(e(t, s));
        }
        assert_eq!(
            drain(&mut w),
            vec![(5, 1), (5, 2), (5, 5), (6, 7), (70, 3), (4096, 4), (1 << 40, 6)]
        );
        assert_eq!(w.stored_len(), 0);
        assert_eq!(w.outstanding_tombstones(), 0);
    }

    #[test]
    fn wheel_and_heap_agree_on_interleaved_inserts() {
        let mut w = TimingWheel::new();
        let mut h = HeapQueue::new();
        let mut seq = 0u64;
        let mut push = |w: &mut TimingWheel, h: &mut HeapQueue, t: u64| {
            seq += 1;
            w.insert(e(t, seq));
            h.insert(e(t, seq));
        };
        for t in [100u64, 3, 100, 65_537, 3] {
            push(&mut w, &mut h, t);
        }
        // Pop two, then insert more (past the staged region and at it).
        for _ in 0..2 {
            assert_eq!(w.pop(), h.pop());
        }
        for t in [4u64, 100, 1 << 30, 5] {
            push(&mut w, &mut h, t);
        }
        loop {
            let (a, b) = (w.pop(), h.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn cancellation_is_consumed_at_every_layer() {
        let mut w = TimingWheel::new();
        // One cancelled at the staged tick, one in a level-0 slot, one that
        // must cascade from a high level.
        w.insert(e(10, 1));
        w.insert(e(10, 2));
        w.insert(e(50, 3));
        w.insert(e(1 << 20, 4));
        assert_eq!(w.peek_deadline(), Some(SimTime(10))); // stages tick 10
        w.cancel(TimerId(2)); // staged entry
        w.cancel(TimerId(3)); // level-0 entry
        w.cancel(TimerId(4)); // high-level entry
        assert_eq!(w.live_len(), 1);
        assert_eq!(drain(&mut w), vec![(10, 1)]);
        assert_eq!(w.outstanding_tombstones(), 0, "all tombstones consumed");
        assert_eq!(w.stored_len(), 0);
    }

    #[test]
    fn live_entries_sorted_and_exclude_cancelled() {
        let mut w = TimingWheel::new();
        w.insert(e(300, 1));
        w.insert(e(7, 2));
        w.insert(e(7, 3));
        w.cancel(TimerId(3));
        let live = w.live_entries();
        let keys: Vec<_> = live.iter().map(|x| (x.deadline.0, x.seq)).collect();
        assert_eq!(keys, vec![(7, 2), (300, 1)]);
    }

    #[test]
    fn stale_cancel_is_a_noop_on_both_queues() {
        // Cancelling an already-popped or never-inserted id must not create
        // a tombstone, corrupt accounting, or affect later entries.
        let mut w = TimingWheel::new();
        let mut h = HeapQueue::new();
        for q in [&mut w as &mut dyn EventQueue, &mut h] {
            q.insert(e(1, 1));
            assert_eq!(q.pop().map(|x| x.seq), Some(1));
            q.cancel(TimerId(1)); // already fired
            q.cancel(TimerId(99)); // never existed
            assert_eq!(q.live_len(), 0);
            assert_eq!(q.stored_len(), 0);
            assert_eq!(q.outstanding_tombstones(), 0);
            q.insert(e(2, 2));
            assert_eq!(q.pop().map(|x| x.seq), Some(2));
        }
    }

    #[test]
    fn far_future_and_max_tick() {
        let mut w = TimingWheel::new();
        w.insert(e(u64::MAX, 1));
        w.insert(e(0, 2));
        assert_eq!(drain(&mut w), vec![(0, 2), (u64::MAX, 1)]);
    }
}
