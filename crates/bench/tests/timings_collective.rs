//! `repro --timings`: the export's full key schema is pinned, and the
//! collective fast paths (indexed matching, route interning, schedule
//! memoization, waterfill) must be observable from it — both as a text
//! section and as a stable `"collective"` JSON object — so a regression
//! that silently falls back to a reference path shows up in CI dashboards.
//!
//! Drives the actual binary (`CARGO_BIN_EXE_repro`) so the test pins what
//! tooling really parses, not an internal helper.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// Extract `"key":value` from a flat JSON object fragment.
fn field(json: &str, key: &str) -> u64 {
    let pat = format!("\"{}\":", key);
    let start = json.find(&pat).unwrap_or_else(|| panic!("missing {key}: {json}")) + pat.len();
    json[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {key}"))
}

/// The ordered key list of every JSON object in `json`, by path (`a.b`,
/// `a[]` for array elements), in document order. Assumes no string holds
/// an escaped quote or a bracket, which holds for `--timings`.
fn object_keys(json: &str) -> Vec<(String, Vec<String>)> {
    let mut out: Vec<(String, Vec<String>)> = Vec::new();
    // Open containers: (path, slot in `out` for objects, None for arrays).
    let mut open: Vec<(String, Option<usize>)> = Vec::new();
    let mut key = String::new();
    let mut rest = json;
    while let Some(at) = rest.find(['"', '{', '[', '}', ']']) {
        let c = rest.as_bytes()[at];
        rest = &rest[at + 1..];
        match c {
            b'"' => {
                let end = rest.find('"').expect("closed string");
                let is_key = rest[end + 1..].trim_start().starts_with(':');
                if let (true, Some((_, Some(slot)))) = (is_key, open.last()) {
                    key = rest[..end].to_string();
                    out[*slot].1.push(key.clone());
                }
                rest = &rest[end + 1..];
            }
            b'{' | b'[' => {
                let path = match open.last() {
                    None => String::new(),
                    Some((p, None)) => format!("{p}[]"),
                    Some((p, Some(_))) if p.is_empty() => key.clone(),
                    Some((p, Some(_))) => format!("{p}.{key}"),
                };
                let slot = (c == b'{').then(|| {
                    out.push((path.clone(), Vec::new()));
                    out.len() - 1
                });
                open.push((path, slot));
            }
            _ => {
                open.pop();
            }
        }
    }
    out
}

/// Every object of a traced, store-backed `--timings` export of one
/// experiment, key by key and in order. `perfbench/run.py` reads `wall_s`,
/// `experiments[].{name,points,busy_s}`, `store.*`,
/// `telemetry.{baseline_calls,baseline_computed,records,counters}` and
/// `collective.schedule_cache_misses`; the counter names inside
/// `telemetry.counters` depend on the campaign and are not pinned.
const SCHEMA: &[(&str, &[&str])] = &[
    (
        "",
        &["fidelity", "jobs", "wall_s", "partial", "experiments", "store", "telemetry", "collective"],
    ),
    (
        "experiments[]",
        &["name", "points", "failed_points", "timed_out_points", "restored_points", "busy_s", "sim_s"],
    ),
    ("store", &["persisted", "hits", "misses", "quarantined"]),
    (
        "telemetry",
        &["enabled", "baseline_calls", "baseline_computed", "records", "sim_s", "counters", "engine"],
    ),
    (
        "telemetry.engine",
        &[
            "events",
            "events_per_busy_s",
            "batch_instants",
            "allocator_passes_saved",
            "queue_inserts",
            "queue_cancels",
        ],
    ),
    (
        "collective",
        &[
            "match_probes",
            "match_bin_hits",
            "route_intern_hits",
            "schedule_cache_hits",
            "schedule_cache_misses",
            "waterfill_solves",
        ],
    ),
];

#[test]
fn timings_export_reports_collective_fast_paths() {
    let base = std::env::temp_dir().join(format!("repro-timings-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create dir");
    let timings = base.join("timings.json").to_str().unwrap().to_string();
    let trace = base.join("trace.json").to_str().unwrap().to_string();
    let store = base.join("store").to_str().unwrap().to_string();

    let out = repro()
        .args([
            "--quick", "--only", "collective_dvfs",
            "--store", &store,
            "--trace", &trace,
            "--timings", &timings,
        ])
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);

    // Text section with every fast path engaged.
    assert!(stdout.contains("== collective path =="), "missing section:\n{stdout}");
    assert!(stdout.contains("matching:"), "missing match digest:\n{stdout}");
    assert!(stdout.contains("interned-path hit(s)"), "missing route digest:\n{stdout}");
    assert!(stdout.contains("schedule cache:"), "missing cache digest:\n{stdout}");
    assert!(stdout.contains("waterfill:"), "missing waterfill digest:\n{stdout}");

    // The whole export's key schema, then every collective counter
    // engaged on this campaign.
    let t = std::fs::read_to_string(&timings).expect("timings export");
    let mut got = object_keys(&t);
    got.retain(|(path, _)| path != "telemetry.counters");
    let want: Vec<(String, Vec<String>)> = SCHEMA
        .iter()
        .map(|(path, keys)| (path.to_string(), keys.iter().map(|k| k.to_string()).collect()))
        .collect();
    assert_eq!(got, want, "--timings schema changed:\n{t}");
    let obj_at = t.find("\"collective\":{").expect("collective object present");
    let obj = &t[obj_at..t[obj_at..].find('}').map(|e| obj_at + e + 1).unwrap()];
    let probes = field(obj, "match_probes");
    let hits = field(obj, "match_bin_hits");
    assert!(hits > 0 && probes >= hits, "indexed matching engaged: {obj}");
    assert!(field(obj, "route_intern_hits") > 0, "route interning engaged: {obj}");
    assert!(field(obj, "schedule_cache_misses") > 0, "schedules were built: {obj}");
    assert!(
        field(obj, "schedule_cache_hits") > 0,
        "memoization re-served a schedule across sweep points: {obj}"
    );
    assert!(field(obj, "waterfill_solves") > 0, "waterfill fast path engaged: {obj}");

    // Without `--trace` the journal counters are absent (zero) but the
    // process-global schedule-cache stats must still be exported.
    let bare = base.join("bare.json").to_str().unwrap().to_string();
    let out = repro()
        .args(["--quick", "--only", "collective_dvfs", "--timings", &bare])
        .output()
        .expect("spawn repro (no trace)");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let t = std::fs::read_to_string(&bare).expect("bare timings export");
    assert!(t.contains("\"collective\":{"), "collective object present without --trace");
    assert!(t.contains("\"match_probes\":0"), "journal counters default to 0: {t}");
    let obj_at = t.find("\"collective\":{").unwrap();
    let obj = &t[obj_at..t[obj_at..].find('}').map(|e| obj_at + e + 1).unwrap()];
    assert!(field(obj, "schedule_cache_misses") > 0, "cache stats survive without --trace: {obj}");

    let _ = std::fs::remove_dir_all(&base);
}
