//! Tier-2: whole-campaign byte-identity of the collective experiments.
//!
//! The collective × contention and collective × DVFS extensions run
//! N-rank schedules over routed fabrics — the layer stack this repo added
//! last (fabric routing → netsim multi-hop flows → mpisim collectives →
//! campaign engine). These tests pin the stack's determinism guarantee at
//! full-campaign scale: the rendered figure JSON must be byte-identical
//!
//! * under either engine timer queue (timing wheel vs the
//!   `simcore::SimPaths::heap_queue` reference),
//! * under either message matcher (indexed bins vs the
//!   `SimPaths::scan_match` linear scan), at `--jobs 1` and `--jobs 4`,
//! * at any worker count (`--jobs 1` vs `--jobs 4`), and
//! * across a crash-and-resume through the result store.
//!
//! Each reference run records telemetry and asserts from the merged
//! journal that its twin was engaged (`paths.*` counter > 0) while the
//! fast run engaged none.
//!
//! The 64-rank sweep points make this the widest determinism surface in
//! the suite: one reordered event anywhere in 8 000+ messages shows up as
//! a differing byte here.

use interference::campaign::{self, CampaignOptions, StoreCtx};
use interference::experiments::{self, Fidelity};
use interference::results::figures_to_json;
use interference::store::ResultStore;
use simcore::SimPaths;

fn collective_experiments() -> Vec<&'static dyn campaign::Experiment> {
    ["collective_contention", "collective_dvfs"]
        .iter()
        .map(|n| experiments::find(n).expect("registered"))
        .collect()
}

fn campaign_json(jobs: usize) -> String {
    let figures: Vec<_> = campaign::run_set(
        &collective_experiments(),
        &CampaignOptions::new(Fidelity::Quick, jobs),
    )
    .into_iter()
    .flat_map(|r| r.figures)
    .collect();
    figures_to_json(&figures)
}

/// Runs the collective campaign at `jobs` under the fast paths and under
/// `reference`, both with telemetry on. Asserts that the reference run
/// engaged `twin` (its `paths.*` counter is positive) and that the fast
/// run engaged no twin, then returns both `--json` exports.
fn fast_and_reference(jobs: usize, reference: SimPaths, twin: &str) -> (String, String) {
    let run = |paths| {
        let opts = CampaignOptions::new(Fidelity::Quick, jobs).with_telemetry(true);
        let (runs, report) = SimPaths::scoped(paths, || {
            campaign::run_set_with_report(&collective_experiments(), &opts)
        });
        let figures: Vec<_> = runs.into_iter().flat_map(|r| r.figures).collect();
        let counters = report.journal.expect("telemetry was on").counters;
        (figures_to_json(&figures), counters)
    };
    let (fast, fast_counters) = run(SimPaths::FAST);
    let (slow, slow_counters) = run(reference);
    assert!(
        slow_counters.get(twin).copied().unwrap_or(0) > 0,
        "{twin} not engaged at jobs={jobs}"
    );
    assert!(
        !fast_counters.keys().any(|k| k.starts_with("paths.")),
        "fast run engaged a reference twin at jobs={jobs}"
    );
    (fast, slow)
}

fn assert_identical(a: &str, b: &str, what: &str) {
    assert!(
        a == b,
        "{what}: first differing byte at {} ({} vs {} bytes)",
        a.bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len())),
        a.len(),
        b.len()
    );
}

/// Timing-wheel vs binary-heap timer queue: same campaign bytes.
#[test]
fn collective_campaign_json_identical_with_either_queue() {
    let heap = SimPaths {
        heap_queue: true,
        ..SimPaths::FAST
    };
    let (wheel, heap) = fast_and_reference(1, heap, "paths.heap_queue");
    assert_identical(&wheel, &heap, "timer queue changed collective campaign output");
}

/// `--jobs 1` vs `--jobs 4`: same campaign bytes, even though the workers
/// race for the memoized STREAM-alone baselines.
#[test]
fn collective_campaign_json_identical_across_jobs() {
    let serial = campaign_json(1);
    let parallel = campaign_json(4);
    assert_identical(&serial, &parallel, "parallel collective campaign diverged");
}

/// Persist, lose the in-flight tail, resume at a different worker count:
/// restored + recomputed points must finalize to the clean run's bytes.
#[test]
fn collective_campaign_resumes_byte_identical() {
    let exps = collective_experiments();
    let clean = campaign_json(1);

    let dir = std::env::temp_dir().join(format!("ifstore-collective-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open temp store");
    let ctx = StoreCtx { store: &store, resume: true };
    let (runs, _) = campaign::run_set_with_store(
        &exps,
        &CampaignOptions::serial(Fidelity::Quick),
        Some(ctx),
    );
    let total_points: usize = runs.iter().map(|r| r.points).sum();
    assert_eq!(store.stats().persisted as usize, total_points);

    // A crash loses the tail: drop the last third of the entries.
    let mut entries: Vec<_> = std::fs::read_dir(store.dir())
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "res"))
        .collect();
    entries.sort();
    let lost = entries.len() / 3;
    assert!(lost > 0, "campaign too small to lose a tail");
    for p in entries.iter().rev().take(lost) {
        std::fs::remove_file(p).expect("drop entry");
    }

    let (runs2, _) = campaign::run_set_with_store(
        &exps,
        &CampaignOptions::new(Fidelity::Quick, 4),
        Some(ctx),
    );
    let restored: usize = runs2.iter().map(|r| r.restored_points).sum();
    assert_eq!(restored, total_points - lost);
    let resumed = figures_to_json(
        &runs2.iter().flat_map(|r| r.figures.clone()).collect::<Vec<_>>(),
    );
    assert_identical(&clean, &resumed, "resumed collective campaign diverged");
    let _ = std::fs::remove_dir_all(store.dir());
}

/// The matching reference: every cluster matches messages with the
/// single-queue linear scan instead of the indexed bins.
const SCAN_MATCH: SimPaths = SimPaths {
    scan_match: true,
    ..SimPaths::FAST
};

/// Indexed matching vs the linear-scan reference: same campaign bytes.
/// The collective fast paths are pure perf, zero semantics.
#[test]
fn collective_campaign_json_identical_with_reference_paths() {
    let (fast, reference) = fast_and_reference(1, SCAN_MATCH, "paths.scan_match");
    assert_identical(
        &fast,
        &reference,
        "collective fast paths changed campaign output (serial)",
    );
}

/// Same comparison under `--jobs 4`: every campaign worker must inherit
/// the caller's selection, and neither the process-global schedule cache
/// nor the interned route arenas may introduce a scheduling-order
/// dependence.
#[test]
fn collective_campaign_json_identical_with_reference_paths_parallel() {
    let (fast, reference) = fast_and_reference(4, SCAN_MATCH, "paths.scan_match");
    assert_identical(
        &fast,
        &reference,
        "collective fast paths changed campaign output (jobs=4)",
    );
}

/// The Quick plans cover both acceptance scales: an 8-rank henri sweep and
/// a 64-rank tiny2x2 sweep must be present (the JSON identity above is
/// only meaningful if the routed 64-rank case is actually in it).
#[test]
fn quick_plan_covers_both_scales() {
    let contention = experiments::find("collective_contention").expect("registered");
    let labels: Vec<String> = contention
        .plan(Fidelity::Quick)
        .iter()
        .map(|p| p.label.clone())
        .collect();
    assert!(labels.iter().any(|l| l.contains("henri x 8")), "{labels:?}");
    assert!(labels.iter().any(|l| l.contains("tiny2x2 x 64")), "{labels:?}");
}
