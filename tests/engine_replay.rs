//! Whole-campaign engine replay: the timing-wheel timer queue must not
//! change a single byte of the figure exports.
//!
//! `simcore::SimPaths::heap_queue` reroutes every engine timer through the
//! retained `BinaryHeap` + tombstone queue (`queue::HeapQueue`). Running
//! the same campaign slice both ways and comparing the `--json` export
//! byte-for-byte proves the hierarchical timing wheel pops the exact same
//! (time, seq) event sequence at full-system scale — on top of the per-pop
//! equivalence the `prop_queue_equiv` suite establishes. Every run records
//! telemetry, and the test asserts from the merged journal that the heap
//! queue was engaged (`paths.heap_queue`).
//!
//! fig4 exercises the timer-heavy rendezvous/eager protocol paths; fig9 is
//! the churn-heaviest experiment (per-worker polling timers cancelled and
//! restarted constantly — exactly the tombstone traffic the wheel must
//! consume lazily without reordering).

use std::collections::BTreeMap;

use interference::campaign::{run_set_with_report, CampaignOptions};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use simcore::SimPaths;

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
