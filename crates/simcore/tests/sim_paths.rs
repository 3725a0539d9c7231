//! `SimPaths` is scoped per thread: a selection never leaks out of its
//! scope (not even on panic) and never crosses into another thread.

use std::sync::Barrier;

use simcore::{telemetry, Engine, SimPaths, SimTime};

#[test]
fn scoped_restores_previous_selection_on_panic() {
    let outer = SimPaths {
        reference_solver: true,
        ..SimPaths::FAST
    };
    SimPaths::scoped(outer, || {
        let inner = SimPaths {
            heap_queue: true,
            scan_match: true,
            ..SimPaths::FAST
        };
        let caught = std::panic::catch_unwind(|| {
            SimPaths::scoped(inner, || {
                assert_eq!(SimPaths::current(), inner);
                panic!("closure panics inside the scope");
            })
        });
        assert!(caught.is_err());
        assert_eq!(SimPaths::current(), outer, "inner selection leaked");
    });
    assert_eq!(SimPaths::current(), SimPaths::FAST);
}

/// Two threads build engines at the same time under different
/// selections; each engine adopts its own thread's queue and solver,
/// as the engagement counters of the two journals show.
#[test]
fn concurrent_threads_keep_their_own_selection() {
    let barrier = Barrier::new(2);
    let build = |paths: SimPaths| {
        SimPaths::scoped(paths, || {
            telemetry::install();
            barrier.wait();
            let mut e = Engine::new();
            barrier.wait();
            let r = e.add_resource("r", 1.0);
            e.start_flow(simcore::FlowSpec {
                path: vec![r],
                volume: 1.0,
                weight: 1.0,
                cap: None,
                tag: 1,
            });
            e.after(SimTime::US, 2);
            while e.next().is_some() {}
            telemetry::take().expect("recorder installed").counters
        })
    };
    let reference = SimPaths {
        heap_queue: true,
        reference_solver: true,
        ..SimPaths::FAST
    };
    let (slow, fast) = std::thread::scope(|s| {
        let slow = s.spawn(|| build(reference));
        let fast = s.spawn(|| build(SimPaths::FAST));
        (slow.join().expect("thread"), fast.join().expect("thread"))
    });
    assert_eq!(slow.get("paths.heap_queue"), Some(&1));
    assert_eq!(slow.get("paths.reference_solver"), Some(&1));
    assert!(
        !fast.keys().any(|k| k.starts_with("paths.")),
        "fast engine adopted a twin: {fast:?}"
    );
    assert_eq!(slow.get("engine.events"), fast.get("engine.events"));
}
