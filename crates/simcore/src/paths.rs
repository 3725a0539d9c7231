//! Which implementation of each differentially-tested layer a run uses.
//!
//! Three fast paths keep a live reference twin: the timing wheel
//! (`queue::HeapQueue`), the incremental max-min solver
//! (`fluid::reference`) and mpisim's indexed matcher (its linear scan).
//! A [`SimPaths`] value selects one of each. It is installed per thread by
//! [`SimPaths::scoped`] (the [`crate::cancel::scoped`] pattern) and read
//! once when an `Engine`, `FluidNet` or mpisim `Cluster` is built — never
//! per event. Adopting a twin bumps the telemetry counter
//! `paths.heap_queue`, `paths.reference_solver` or `paths.scan_match` once
//! per construction; the fast path bumps nothing. See DESIGN.md §13.6.

use std::cell::Cell;

/// One selection of implementation paths. [`SimPaths::FAST`] (also
/// [`SimPaths::default`]) is the production fast path everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimPaths {
    /// Engines use the binary-heap reference timer queue instead of the
    /// timing wheel.
    pub heap_queue: bool,
    /// Fluid nets re-solve every allocation with the from-scratch
    /// `fluid::reference` solver instead of the incremental one.
    pub reference_solver: bool,
    /// mpisim clusters match messages with the single-queue linear scan
    /// instead of the indexed per-`(dst, src, tag)` bins.
    pub scan_match: bool,
}

impl Default for SimPaths {
    fn default() -> Self {
        SimPaths::FAST
    }
}

thread_local! {
    static CURRENT: Cell<SimPaths> = const { Cell::new(SimPaths::FAST) };
}

impl SimPaths {
    /// The production fast path: no reference twin.
    pub const FAST: SimPaths = SimPaths {
        heap_queue: false,
        reference_solver: false,
        scan_match: false,
    };

    /// The selection installed on this thread (the default fast path unless
    /// a [`SimPaths::scoped`] call is active).
    pub fn current() -> SimPaths {
        CURRENT.with(Cell::get)
    }

    /// Run `f` with `paths` installed on this thread, restoring the previous
    /// selection afterwards — also when `f` unwinds.
    pub fn scoped<R>(paths: SimPaths, f: impl FnOnce() -> R) -> R {
        struct Restore(SimPaths);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(CURRENT.with(|c| c.replace(paths)));
        f()
    }
}
