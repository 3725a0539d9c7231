//! Whole-campaign engine replay: the timing-wheel timer queue and the
//! parallel component solver must not change a single byte of the figure
//! exports.
//!
//! Two `simcore::SimPaths` selections, two independent equivalences:
//!
//! * `heap_queue` reroutes every engine timer through the retained
//!   `BinaryHeap` + tombstone queue (`queue::HeapQueue`). Running the same
//!   campaign slice both ways and comparing the `--json` export
//!   byte-for-byte proves the hierarchical timing wheel pops the exact same
//!   (time, seq) event sequence at full-system scale — on top of the
//!   per-pop equivalence the `prop_queue_equiv` suite establishes.
//!
//! * `solve` pins the component solver to `Serial` or `Parallel`.
//!   Identical exports prove the scoped-thread fan-out plus deterministic
//!   component-order merge reproduces the serial float stream
//!   bit-for-bit, independent of worker count.
//!
//! Every run records telemetry, and each test asserts from the merged
//! journal that the selected path was engaged: `paths.heap_queue` for the
//! heap queue, `fluid.parallel_components` for the solve modes.
//!
//! fig4 exercises the timer-heavy rendezvous/eager protocol paths; fig9 is
//! the churn-heaviest experiment (per-worker polling timers cancelled and
//! restarted constantly — exactly the tombstone traffic the wheel must
//! consume lazily without reordering).

use std::collections::BTreeMap;

use interference::campaign::{run_set_with_report, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use simcore::{SimPaths, Solve};

/// The fig4 + fig9 Quick campaign under `paths`: its `--json` export and
/// the merged journal's counters.
fn campaign(paths: SimPaths) -> (String, BTreeMap<&'static str, u64>) {
    let exps: Vec<_> = ["fig4", "fig9"]
        .iter()
        .map(|n| experiments::find(n).expect("registered"))
        .collect();
    let opts = CampaignOptions::serial(Fidelity::Quick).with_telemetry(true);
    let (runs, report) = SimPaths::scoped(paths, || run_set_with_report(&exps, &opts));
    let figures: Vec<_> = runs.into_iter().flat_map(|r| r.figures).collect();
    let counters = report.journal.expect("telemetry was on").counters;
    (figures_to_json(&figures), counters)
}

fn assert_identical(fast: &str, reference: &str, what: &str) {
    assert_eq!(fast.len(), reference.len(), "{what}: different-sized exports");
    assert!(
        fast == reference,
        "{what}: first differing byte at {}",
        fast.bytes()
            .zip(reference.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(fast.len().min(reference.len()))
    );
}

#[test]
fn quick_fig4_fig9_json_identical_with_either_queue() {
    let (wheel, fast) = campaign(SimPaths::FAST);
    let (heap, slow) = campaign(SimPaths {
        heap_queue: true,
        ..SimPaths::FAST
    });
    assert!(
        slow.get("paths.heap_queue").copied().unwrap_or(0) > 0,
        "heap queue not engaged"
    );
    assert!(
        !fast.keys().any(|k| k.starts_with("paths.")),
        "fast run engaged a reference twin"
    );
    assert_identical(&wheel, &heap, "timing wheel changed campaign output");
}

#[test]
fn quick_fig4_fig9_json_identical_parallel_vs_serial_solve() {
    // Quick-fidelity campaigns stay under the auto-mode flow threshold, so
    // pin the modes explicitly: forced-parallel must equal forced-serial.
    let pinned = |solve| {
        campaign(SimPaths {
            solve,
            ..SimPaths::FAST
        })
    };
    let (serial, serial_counters) = pinned(Solve::Serial);
    let (parallel, parallel_counters) = pinned(Solve::Parallel);
    let parallel_components =
        |c: &BTreeMap<&str, u64>| c.get("fluid.parallel_components").copied().unwrap_or(0);
    assert_eq!(
        parallel_components(&serial_counters),
        0,
        "serial solve went parallel"
    );
    assert!(
        parallel_components(&parallel_counters) > 0,
        "parallel solve not engaged"
    );
    assert_identical(
        &serial,
        &parallel,
        "parallel component solver changed campaign output",
    );
}
