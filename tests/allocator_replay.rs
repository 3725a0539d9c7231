//! Whole-campaign allocator replay: the incremental max-min solver must not
//! change a single byte of the figure exports.
//!
//! Under the `simcore::SimPaths` selection `reference_solver`, every fluid
//! net re-solves each allocation with the retained from-scratch solver
//! (`fluid::reference`). Running the same campaign slice both ways and
//! comparing the `--json` export byte-for-byte proves the incremental
//! solver (inverse index + component dirty tracking) is observationally
//! identical at full-system scale — on top of the per-solve bitwise
//! equivalence the `prop_fluid_equiv` suite establishes. Both runs record
//! telemetry, and the merged journal's `paths.reference_solver` counter
//! proves the reference run really used the from-scratch solver.
//!
//! fig4 exercises the baseline cache and multi-resource transfer paths;
//! fig9 is the allocator-heaviest experiment (per-worker polling flows that
//! are cancelled and restarted constantly — exactly the churn the dirty
//! tracking accelerates).

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

#[test]
fn quick_fig4_fig9_json_identical_with_either_solver() {
    let (fast, fast_counters) = campaign(SimPaths::FAST);
    let (reference, reference_counters) = campaign(SimPaths {
        reference_solver: true,
        ..SimPaths::FAST
    });
    let engaged = reference_counters.get("paths.reference_solver").copied();
    assert!(engaged.unwrap_or(0) > 0, "reference solver not engaged");
    assert!(
        !fast_counters.keys().any(|k| k.starts_with("paths.")),
        "fast run engaged a reference twin"
    );
    assert_eq!(
        fast.len(),
        reference.len(),
        "incremental and reference solvers produced different-sized exports"
    );
    assert!(
        fast == reference,
        "incremental allocator changed campaign output: first differing byte at {}",
        fast.bytes()
            .zip(reference.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(fast.len().min(reference.len()))
    );
}
